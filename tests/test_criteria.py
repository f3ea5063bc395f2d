import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbsdelab as fl
from fbsdelab import criteria
from fbsdelab.criteria import (IntervalUnion, VariationBounds, first_order_check,
                               quadratic_check, second_order_check,
                               x_sign_check, z_lipschitz_check,
                               z_markovian_check, z_quadratic_check)
from fbsdelab.config import parse_config
from fbsdelab.density import bouleau_hirsch_diagnostic
from fbsdelab.errors import PreconditionError

from conftest import make_spec

T_FLIP = (3.0 - math.sqrt(5.0)) / 2.0
T_ROOT = 2.0 - math.sqrt(3.0)


def test_interval_union():
    A = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    np.testing.assert_array_equal(A.contains(np.array([0.5, 1.5, 2.5])),
                                  [True, False, True])
    with pytest.raises(ValueError):
        IntervalUnion([(1.0, 0.0)])


def test_first_order_counter_margins(counter):
    # margins are the analytic expressions -t^2 + 3t - 1 and t
    for t in (0.2, 0.35):
        rep = first_order_check(counter, t)
        assert rep["H+"].margin == pytest.approx(-t * t + 3 * t - 1, abs=1e-12)
        assert rep["H+"].verdict == "fails"
        assert rep["H-"].margin == pytest.approx(t, abs=1e-12)
        assert rep["H-"].verdict == "fails"
    rep = first_order_check(counter, 0.5)
    assert rep["H+"].verdict == "holds"
    assert rep["H+"].margin == pytest.approx(0.25, abs=1e-12)


def test_first_order_flip_at_root(counter):
    below = first_order_check(counter, T_FLIP - 1e-3)["H+"]
    above = first_order_check(counter, T_FLIP + 1e-3)["H+"]
    assert below.verdict == "fails" and above.verdict == "holds"


def test_first_order_monotone_terminal():
    spec = make_spec(g=lambda x: 2.0 * np.asarray(x, dtype=float),
                     g1=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
    for t in (0.1, 0.5, 0.9):
        rep = first_order_check(spec, t)
        assert rep["H+"].verdict == "holds"
        assert rep["H+"].margin == pytest.approx(2.0)


def test_second_order_counter_margin(counter):
    for t in (0.1, 0.9):
        rep = second_order_check(counter, t)
        expect = -t * t / 2 + 2 * t - 0.5
        assert rep["Htilde+"].margin == pytest.approx(expect, abs=1e-12)
        assert rep["Htilde-"].margin == pytest.approx(expect, abs=1e-12)
        assert rep["Htilde+"].scalars["gtilde_extremum"] == pytest.approx(t, abs=1e-12)
        assert rep["Htilde+"].scalars["htilde_extremum_t"] == pytest.approx(-1.0, abs=1e-12)
    rep9 = second_order_check(counter, 0.9)
    assert rep9["Htilde+"].verdict == "holds"
    assert rep9["Htilde+"].margin == pytest.approx(0.895, abs=1e-12)
    rep1 = second_order_check(counter, 0.1)
    # negative margin: the '+' package fails but the '-' package holds
    assert rep1["Htilde+"].verdict == "fails"
    assert rep1["Htilde-"].verdict == "holds"


def test_second_order_boundary_at_root(counter):
    rep = second_order_check(counter, T_ROOT)
    assert abs(rep["Htilde+"].margin) < 1e-9
    assert rep["Htilde+"].verdict == "boundary"
    assert rep["Htilde-"].verdict == "boundary"


def test_second_order_rejects_z_dependent_driver(quad_exp):
    with pytest.raises(PreconditionError):
        second_order_check(quad_exp, 0.5)


def test_quadratic_check_tanh(quad_exp):
    for A in (None, IntervalUnion([(-2.0, -1.0)])):
        rep = quadratic_check(quad_exp, 0.5, A=A)
        assert rep["Q+"].verdict == "holds"
        assert rep["Q-"].verdict == "fails"


def test_quadratic_check_mirror():
    spec = make_spec(g=lambda x: -np.asarray(x, dtype=float),
                     g1=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                     h=lambda t, x, y, z: -0.5 * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float),
                     regime="quadratic")
    rep = quadratic_check(spec, 0.5)
    assert rep["Q-"].verdict == "holds"
    assert rep["Q+"].verdict == "fails"


# expression models as (b, g, h, h(t, x, -y, -z)): the negated model g -> -g,
# h -> -h(t, x, -y, -z) turns each '+' package into the '-' package, margin and
# signed scalars negated exactly; K = 0 exactly when h reads no y
MIRROR_MODELS = {
    "counter": ("0", "x", "(t-2)*x", "(t-2)*x"),
    "cubic": ("0", "x^3", "3*x", "3*x"),
    "linear": ("0", "x", "0.5*y + (t - 2)*x", "0.5*(-y) + (t - 2)*x"),
    "witness": ("-0.2*x", "tanh(x) + 0.2*x", "(t - 1.87)*x + 0.46*sin(y)",
                "(t - 1.87)*x + 0.46*sin(-y)"),
}
SIGN_PAIRS = ((first_order_check, "H+", "H-"), (second_order_check, "Htilde+", "Htilde-"),
              (quadratic_check, "Q+", "Q-"), (z_markovian_check, "Z-markov-a", "Z-markov-b"))


def _expr_spec(g, h, b="0"):
    return parse_config(f"[model]\nb = {b}\nsigma = 1\ng = {g}\nh = {h}\nf = w\n").build_spec()


def _assert_mirror(plus, minus):
    assert (plus.verdict, plus.notes) == (minus.verdict, minus.notes)
    assert plus.margin == -minus.margin
    assert set(plus.scalars) == set(minus.scalars)
    for key, v in plus.scalars.items():
        assert v == (minus.scalars[key] if key in ("K", "integral") else -minus.scalars[key]), key


@pytest.mark.parametrize("A", [None, IntervalUnion([(-1.0, 0.5)])])
@pytest.mark.parametrize("name", sorted(MIRROR_MODELS))
def test_sign_packages_mirror_under_negation(name, A):
    b, g, h, h_flip = MIRROR_MODELS[name]
    spec, neg = _expr_spec(g, h, b), _expr_spec(f"-({g})", f"-({h_flip})", b)
    # the y-nodes are symmetric only up to rounding, so Z-markov's h_y and h_yy
    # terms mirror exactly only when h reads no y
    for check, plus, minus in SIGN_PAIRS if h == h_flip else SIGN_PAIRS[:3]:
        rep, rep_neg = check(spec, 0.5, A), check(neg, 0.5, A)
        if "K" in rep[plus].scalars:
            assert (rep[plus].scalars["K"] > 0.0) == (h != h_flip)
        _assert_mirror(rep[plus], rep_neg[minus])
        _assert_mirror(rep[minus], rep_neg[plus])


def test_first_order_holds_with_large_K():
    # g' = h_x = 1, K = 20: the bracket e^{-20} + (e^{-10} - e^{-20})/20 = 2.27e-6
    # clears the resolution 1e-8; the margin, e^{-20} times it, is judged against
    # e^{-20} times the resolution
    spec = parse_config("[model]\nb = 0\nsigma = 1\ng = x\nh = 20*y + x\n").build_spec()
    rep = first_order_check(spec, 0.5)["H+"]
    assert rep.verdict == "holds"
    assert rep.margin / math.exp(-20.0) == pytest.approx(
        math.exp(-20.0) + (math.exp(-10.0) - math.exp(-20.0)) / 20.0, rel=1e-12)
    assert rep.resolution == 1e-8


def test_quadratic_check_sign_change_fails():
    spec = make_spec(g=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                     g1=lambda x: np.asarray(x, dtype=float),
                     regime="quadratic")
    rep = quadratic_check(spec, 0.5, A=IntervalUnion([(-1.0, 1.0)]))
    assert rep["Q+"].verdict == "fails"
    assert rep["Q-"].verdict == "fails"


def test_z_lipschitz_cubic(cubic):
    full = z_lipschitz_check(cubic, 0.5,
                             bounds=VariationBounds(1.0, 1.0, 0.0))["Z-lip"]
    assert full.verdict == "inconclusive-unbounded"
    rep = z_lipschitz_check(cubic, 0.5, A=IntervalUnion([(0.5, 2.0)]),
                            box=fl.GridBox(0, 1, 0.5, 2.0),
                            bounds=VariationBounds(1.0, 1.0, 0.0))["Z-lip"]
    assert rep.verdict == "holds"
    assert rep.margin == pytest.approx(3.0, abs=1e-9)


def test_z_lipschitz_convex_box():
    spec = make_spec(g=lambda x: np.asarray(x, dtype=float) ** 2,
                     g1=lambda x: 2.0 * np.asarray(x, dtype=float),
                     g2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
    rep = z_lipschitz_check(spec, 0.5, bounds=VariationBounds(1.0, 1.0, 0.0))["Z-lip"]
    assert rep.verdict == "holds"
    assert rep.margin == pytest.approx(2.0, abs=1e-9)


def test_z_lipschitz_balancing_recipe():
    # bounded bell-shaped terminal needs the driver curvature to compensate:
    # g'' >= -2 everywhere and inf h_xx (T - t) >= 2 restores the criterion
    g = lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2)
    def g1(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x / (1.0 + x**2) ** 2
    def g2(x):
        x = np.asarray(x, dtype=float)
        return (6.0 * x**2 - 2.0) / (1.0 + x**2) ** 3
    spec = make_spec(g=g, g1=g1, g2=g2,
                     h=lambda t, x, y, z: 2.5 * np.asarray(x, dtype=float) ** 2 + 0.0 * np.asarray(t, dtype=float),
                     h_partials={"h_x": lambda t, x, y, z: 5.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float),
                                 "h_xx": lambda t, x, y, z: 5.0 * np.ones_like(np.asarray(x + t, dtype=float))})
    rep = z_lipschitz_check(spec, 0.5, A=IntervalUnion([(-1.0, 1.0)]),
                            bounds=VariationBounds(1.0, 1.0, 0.0))["Z-lip"]
    # h_x changes sign so the (C+) gate fails; the displayed inequality itself
    # carries the balancing margin
    assert rep.scalars["ineq_global"] >= 0.0
    spec_ok = make_spec(g=g, g1=g1, g2=g2,
                        h=lambda t, x, y, z: 2.5 * (np.asarray(x, dtype=float) + 8.0) ** 2 + 0.0 * np.asarray(t, dtype=float),
                        h_partials={"h_x": lambda t, x, y, z: 5.0 * (np.asarray(x, dtype=float) + 8.0) + 0.0 * np.asarray(t, dtype=float),
                                    "h_xx": lambda t, x, y, z: 5.0 * np.ones_like(np.asarray(x + t, dtype=float))})
    rep_ok = z_lipschitz_check(spec_ok, 0.5, A=IntervalUnion([(-1.0, 1.0)]),
                               box=fl.GridBox(0, 1, -6.0, 6.0),
                               bounds=VariationBounds(1.0, 1.0, 0.0))["Z-lip"]
    assert rep_ok.verdict == "holds"


def test_z_quadratic_quad_exp_convex_piece():
    # bounded terminal, twice differentiable a.e. with nonnegative curvature
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, x**2, 1.0)
    def g1(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, 2.0 * x, 0.0)
    def g2(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, 2.0, 0.0)
    spec = fl.preset("ex_quad_exp", g=g, g1=g1, g2=g2)
    rep = z_quadratic_check(spec, 0.5, A=IntervalUnion([(-0.5, 0.5)]),
                            bounds=VariationBounds(1.0, 1.0, 0.0))["Z-quad"]
    assert rep.verdict == "holds"


def test_z_quadratic_concave_region_fails(quad_exp):
    rep = z_quadratic_check(quad_exp, 0.5, A=IntervalUnion([(0.5, 4.0)]),
                            bounds=VariationBounds(1.0, 1.0, 0.0))["Z-quad"]
    assert rep.verdict == "fails"


def test_z_quadratic_flat_terminal_fails():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    spec = fl.preset("ex_quad_exp", g=lambda x: 0.0 * np.asarray(x, dtype=float),
                     g1=zero, g2=zero)
    rep = z_quadratic_check(spec, 0.5, A=IntervalUnion([(-1.0, 1.0)]),
                            bounds=VariationBounds(1.0, 1.0, 0.0))["Z-quad"]
    assert rep.verdict in ("fails", "boundary")


def test_z_markovian_cubic(cubic):
    rep = z_markovian_check(cubic, 0.5, A=IntervalUnion([(1.0, 2.0)]),
                            box=fl.GridBox(0, 1, 1.0, 2.0))
    assert rep["Z-markov-a"].verdict == "holds"
    assert rep["Z-markov-a"].margin == pytest.approx(6.0, abs=1e-9)


def test_z_markovian_quadratic_terminal():
    for kappa, expect in ((2.0, "holds"), (-2.0, "fails")):
        spec = make_spec(
            g=lambda x, k=kappa: 0.5 * k * np.asarray(x, dtype=float) ** 2,
            g1=lambda x, k=kappa: k * np.asarray(x, dtype=float),
            g2=lambda x, k=kappa: k * np.ones_like(np.asarray(x, dtype=float)),
            f=lambda t, w: np.asarray(w, dtype=float))
        rep = z_markovian_check(spec, 0.5)
        assert rep["Z-markov-a"].verdict == expect


def test_z_markovian_counter_boundary(counter):
    rep = z_markovian_check(counter, 0.5)
    assert rep["Z-markov-a"].verdict == "boundary"
    assert rep["Z-markov-a"].margin == pytest.approx(0.0, abs=1e-12)


def test_z_markovian_requires_f():
    spec = make_spec()
    with pytest.raises(PreconditionError):
        z_markovian_check(spec, 0.5)


def test_x_sign_unit_sigma(counter):
    rep = x_sign_check(counter)
    assert rep["X+"].verdict == "holds"
    assert rep["X-"].verdict == "fails"


def test_x_sign_negative_sigma():
    spec = make_spec(sigma=lambda t, x: -np.ones_like(np.asarray(t, dtype=float) + np.asarray(x, dtype=float)))
    rep = x_sign_check(spec)
    assert rep["X-"].verdict == "holds"
    assert rep["X+"].verdict == "fails"


def test_x_sign_curvature_flip():
    # sigma = 3 + tanh(x): sigma' >= 0 but sigma'' changes sign near 0
    spec = make_spec(sigma=lambda t, x: 3.0 + np.tanh(np.asarray(x, dtype=float)) + 0.0 * np.asarray(t, dtype=float))
    rep = x_sign_check(spec)
    assert rep["X+"].verdict == "fails"
    assert any("sigma_xx" in n for n in rep["X+"].notes)


def test_x_sign_bracket_matches_closed_form():
    # b = x^3, sigma = 2 + sin x: c1 = b' sigma + sigma' b is not linear in x,
    # so a differenced c1' would miss the closed form at the box edges
    spec = fl.expression_spec(b="x^3", sigma="2 + sin(x)", g="x", h="0", f=None,
                              T=1.0, X0=0.0)
    rep = x_sign_check(spec, box=fl.GridBox(0.0, 1.0, -1.0, 1.0, nt=3), n_x=101)
    x = np.linspace(-1.0, 1.0, 101)
    sig, s1, s2 = 2.0 + np.sin(x), np.cos(x), -np.sin(x)
    b, b1, b2 = x**3, 3.0 * x**2, 6.0 * x
    c1 = b1 * sig + s1 * b
    c2 = s1 * c1 + (b2 * sig + 2.0 * b1 * s1 + s2 * b) * sig
    assert rep["X+"].scalars["bracket"] == pytest.approx(c2.min(), abs=1e-12)
    assert rep["X-"].scalars["bracket"] == pytest.approx((-c2).min(), abs=1e-12)
    assert rep["X+"].resolution == rep["X-"].resolution == 1e-8


def test_zero_length_A_voids_holds(counter):
    # under (X) X_T given F_t has full support: any interval of positive length,
    # however far, is reached; a single point is not
    rep = first_order_check(counter, 0.5, A=IntervalUnion([(0.0, 0.0)]))["H+"]
    assert rep.verdict == "inapplicable"
    assert rep.notes == ["no interval of A has positive length: P(X_T in A | F_t) = 0"]
    assert first_order_check(counter, 0.5, A=IntervalUnion([(5.5, 5.9)]))["H+"].verdict == "holds"


def test_degenerate_sigma_voids_every_package():
    # sigma = x with X0 = 0 keeps X = 0, so Y_t = 0 has no density although g' = 1
    spec = parse_config("[model]\nb = 0\nsigma = x\ng = x\nh = 0\n").build_spec()
    for A in (None, IntervalUnion([(0.5, 1.0)])):
        for rep in first_order_check(spec, 0.5, A=A).values():
            assert rep.verdict == "inapplicable"
            assert rep.notes[-1].startswith("(X) fails: sigma takes values in")


@settings(max_examples=20, deadline=None)
@given(lo=st.floats(-2.0, 0.5), width=st.floats(0.5, 2.0), shrink=st.floats(0.05, 0.4))
def test_monotone_in_A(counter, lo, width, shrink):
    # shrinking A can only raise the strict-line margin of the '+' package;
    # the shrunken interval stays wider than the grid spacing
    big = IntervalUnion([(lo, lo + width)])
    small = IntervalUnion([(lo + shrink * width, lo + (1 - shrink) * width)])
    t = 0.5
    m_big = first_order_check(counter, t, A=big)["H+"].scalars["margin_A"]
    m_small = first_order_check(counter, t, A=small)["H+"].scalars["margin_A"]
    assert m_small >= m_big - 1e-12


def _bh_supports(spec, t, seed):
    grid = fl.default_grid(spec, nt=81, nx=201)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    ens = fl.simulate_forward(spec, 1500, 32, seed=seed)
    k_t = ens.index_of(t, nearest=True)
    t_snap = float(ens.t_grid[k_t])
    malls = [fl.solve_malliavin_bsde(spec, ens, (su, sp), r=r, times=[t_snap])
             for r in (1 / 32, 8 / 32)]
    return bouleau_hirsch_diagnostic(malls, t_snap, threshold=1e-6)


def test_consistency_with_simulation_presets(counter, cubic):
    # a confirmed criterion must coincide with a positive Malliavin norm
    rep = first_order_check(counter, 0.5)
    assert rep["H+"].verdict == "holds"
    assert _bh_supports(counter, 0.5, seed=100).verdict == "supports-density"
    repc = first_order_check(cubic, 0.5, A=IntervalUnion([(0.5, 2.0)]))
    assert repc["H+"].verdict == "holds"
    assert _bh_supports(cubic, 0.5, seed=101).verdict == "supports-density"


def test_full_time_sweep_matches_paper_dichotomy(counter):
    # the law of Y_t exists everywhere on (0, 1] except at 2 - sqrt(3): for
    # every probed t one of the corrected second-order packages must hold,
    # and neither may hold in a shrinking window around the root
    for t in np.linspace(0.02, 0.98, 49):
        rep = second_order_check(counter, float(t))
        margin = -t * t / 2 + 2 * t - 0.5
        if abs(t - T_ROOT) < 1e-6:
            continue
        if margin > 1e-8:
            assert rep["Htilde+"].verdict == "holds"
            assert rep["Htilde-"].verdict == "fails"
        elif margin < -1e-8:
            assert rep["Htilde-"].verdict == "holds"
            assert rep["Htilde+"].verdict == "fails"
    # first-order packages both fail exactly on (0, (3-sqrt(5))/2)
    for t in np.linspace(0.02, 0.98, 25):
        rep = first_order_check(counter, float(t))
        both_fail = rep["H+"].verdict == "fails" and rep["H-"].verdict == "fails"
        assert both_fail == (t < T_FLIP - 1e-9)


def test_second_order_margin_with_fd_fallback(counter):
    # strip the supplied partials: the finite-difference fallback must still
    # land the analytic margin within the coarse (grid) resolution
    bare = fl.ModelSpec(b=counter.b, sigma=counter.sigma, g=counter.g,
                        h=counter.h, T=counter.T, X0=counter.X0,
                        constants=counter.constants)
    t = 0.6
    rep = second_order_check(bare, t)["Htilde+"]
    assert rep.resolution == pytest.approx(1e-3)
    assert rep.margin == pytest.approx(-t * t / 2 + 2 * t - 0.5, abs=1e-3)


def test_config_expression_model_is_exact():
    # an expression model carries every partial symbolically, so the second
    # order check runs at the exact-partials resolution
    from fbsdelab.config import parse_config

    spec = parse_config("[model]\nb = 0\nsigma = 1\ng = x\nh = (t-2)*x\n").build_spec()
    t = 0.6
    rep = second_order_check(spec, t)["Htilde+"]
    assert rep.resolution == 1e-8
    assert rep.margin == pytest.approx(-t * t / 2 + 2 * t - 0.5, abs=1e-12)


def test_htilde_ito_term_uses_h_xyy():
    # h = x y^2 has h_z = 0 and h_xyy = 2, h_xxy = 0: only the Ito z^2 term
    # h_xyy separates the correct generator from one reading h_xxy there
    from fbsdelab.criteria import _htilde_grid

    zero = lambda t, x, y, z: 0.0 * (x + y + z)
    spec = fl.ModelSpec(
        b=lambda t, x: 0.3 * x, sigma=lambda t, x: 1.0 + 0.2 * x,
        g=lambda x: x, h=lambda t, x, y, z: x * y**2, T=1.0, X0=0.0,
        partials={"b_x": lambda t, x: 0.3 + 0.0 * x, "sigma_x": lambda t, x: 0.2 + 0.0 * x,
                  "h_x": lambda t, x, y, z: y**2 + 0.0 * x, "h_y": lambda t, x, y, z: 2 * x * y,
                  "h_z": zero, "h_xx": zero, "h_xy": lambda t, x, y, z: 2 * y + 0.0 * x,
                  "h_xt": zero, "h_xxx": zero, "h_xxy": zero,
                  "h_xyy": lambda t, x, y, z: 2.0 + 0.0 * x})
    box = fl.GridBox(0.0, 1.0, -2.0, 2.0, y_lo=-1.0, y_hi=1.0, z_lo=-2.0, z_hi=2.0,
                     nt=5, nx=5, ny=5, nz=5)
    s, ht = _htilde_grid(spec, box, 0.5)
    i, j, k, m = 1, 3, 4, 0
    x, y, z = box.x_nodes()[j], box.y_nodes()[k], box.z_nodes()[m]
    bx, sigx = 0.3, 0.2
    h, h_x, h_y, h_xy, h_xyy = x * y**2, y**2, 2 * x * y, 2 * y, 2.0
    # h_xt = h_xx = h_xxx = h_xxy = 0 removes the b and sigma terms
    expected = -(-h * h_xy + 0.5 * z**2 * h_xyy) - ((h_y + bx) * h_x + z * sigx * h_xy)
    assert s[i] == pytest.approx(0.75)
    assert ht[i, j, k, m] == pytest.approx(expected, rel=1e-12)


def test_first_order_resolution_names_every_partial_it_reads(counter, cubic):
    # K reads b_x and h_y here, and neither is supplied: their differences set
    # the coarse resolution although g1 and h_x are exact
    partials = {"g1": lambda x: 1.0 + 0.0 * x,
                "h_x": lambda t, x, y, z: 1.0 + 0.0 * (x + y + z)}
    spec = fl.ModelSpec(
        b=lambda t, x: 0.3 * np.sin(x), sigma=lambda t, x: 1.0 + 0.0 * x, g=lambda x: x,
        h=lambda t, x, y, z: x + 0.5 * np.sin(y) + 0.2 * z, T=1.0, X0=0.0, partials=partials)
    box = fl.GridBox(0.0, 1.0, -3.0, 3.0)
    for rep in first_order_check(spec, 0.5, box=box).values():
        assert rep.resolution == 1e-3
    for preset in (counter, cubic):
        for rep in first_order_check(preset, 0.5).values():
            assert rep.resolution == 1e-8


@pytest.mark.parametrize("missing", ["h_xyy", "b_x", "sigma_x"])
def test_second_order_resolution_names_every_partial_it_reads(missing):
    # the h = x y^2 model above with every partial it reads but one: the
    # differenced one must set the coarse resolution
    zero = lambda t, x, y, z: 0.0 * (x + y + z)
    partials = {"b_x": lambda t, x: 0.3 + 0.0 * x, "sigma_x": lambda t, x: 0.2 + 0.0 * x,
                "h_x": lambda t, x, y, z: y**2 + 0.0 * x, "h_y": lambda t, x, y, z: 2 * x * y,
                "h_z": zero, "h_xx": zero, "h_xy": lambda t, x, y, z: 2 * y + 0.0 * x,
                "h_xt": zero, "h_xxx": zero, "h_xxy": zero,
                "h_xyy": lambda t, x, y, z: 2.0 + 0.0 * x, "g1": lambda x: 1.0 + 0.0 * x}
    del partials[missing]
    spec = fl.ModelSpec(
        b=lambda t, x: 0.3 * x, sigma=lambda t, x: 1.0 + 0.2 * x,
        g=lambda x: x, h=lambda t, x, y, z: x * y**2, T=1.0, X0=0.0, partials=partials)
    box = fl.GridBox(0.0, 1.0, -2.0, 2.0, y_lo=-1.0, y_hi=1.0, z_lo=-20.0, z_hi=20.0)
    for rep in second_order_check(spec, 0.5, box=box).values():
        assert rep.resolution == 1e-3


def test_z_check_resolution_names_every_partial_it_reads(cubic):
    # g1, g2 and h_xx are exact, but the gates difference h_x, h_yy, ... and
    # the variation bounds difference b_x and sigma_x: the coarse resolution
    spec = make_spec(g=lambda x: np.asarray(x, dtype=float) ** 2,
                     g1=lambda x: 2.0 * np.asarray(x, dtype=float),
                     g2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
                     h_partials={"h_xx": lambda t, x, y, z: 0.0 * np.asarray(x + t, dtype=float)})
    bounds = VariationBounds(1.0, 1.0, 0.0)
    for check in (z_lipschitz_check, z_quadratic_check):
        for rep in check(spec, 0.5, bounds=bounds).values():
            assert rep.resolution == 1e-3
        for rep in check(cubic, 0.5, bounds=bounds).values():
            assert rep.resolution == 1e-8


@pytest.mark.parametrize("name", sorted(criteria.CHECKS))
def test_every_check_returns_reports_by_tag(name, cubic):
    reports = criteria.CHECKS[name](cubic, 0.5)
    assert isinstance(reports, dict) and reports
    for tag, rep in reports.items():
        assert isinstance(rep, criteria.CriterionReport)
        assert tag == rep.criterion


def test_z_markovian_dphi_from_exact_partials():
    # d/dw [(g' o f) f'] = g''(f) f'^2 + g'(f) f'' with g = x^2, f = w + 0.3 sin w
    spec = parse_config("[model]\nb = 0\nsigma = 1\ng = x^2\nh = 0\n"
                        "f = w + 0.3*sin(w)\n").build_spec()
    box = fl.GridBox(0.0, 1.0, -3.0, 3.0)
    rep = z_markovian_check(spec, 0.5, box=box)
    w = np.linspace(-3.0, 3.0, 257)
    f, fw, fww = w + 0.3 * np.sin(w), 1.0 + 0.3 * np.cos(w), -0.3 * np.sin(w)
    dphi = 2.0 * fw**2 + 2.0 * f * fww
    assert rep["Z-markov-a"].resolution == 1e-8
    assert rep["Z-markov-a"].scalars["dphi_extremum"] == pytest.approx(dphi.min(), abs=1e-12)
    assert rep["Z-markov-b"].scalars["dphi_extremum"] == pytest.approx(dphi.max(), abs=1e-12)


def test_z_markovian_cross_partials_alone_do_not_flag_h_zz():
    # h_zz = 0 keeps the h_zz sign package; only the cross partials h_xz = 1 fail
    spec = parse_config("[model]\nb = 0\nsigma = 1\ng = x^2 + x\nh = x*y + z*x + x^2\n"
                        "f = w - 0.1*w^3\n").build_spec()
    for rep in z_markovian_check(spec, 0.5).values():
        assert rep.verdict == "fails"
        assert any(n.startswith("cross partials not annihilated") for n in rep.notes)
        assert "h_zz sign package violated" not in rep.notes


def test_z_markovian_resolution_names_its_gate_partials():
    # h = -0.05 z^2: h_zz, h_xz and h_yz are differenced when not supplied
    zero = lambda *a: np.zeros(np.broadcast(*a).shape)
    nine = {"f_w": lambda t, w: 1.0 + 0.0 * np.asarray(w, dtype=float),
            "f_ww": lambda t, w: 0.0 * np.asarray(w, dtype=float),
            **{n: zero for n in ("h_xx", "h_x", "h_yy", "h_xy", "h_y")}}
    h = lambda t, x, y, z: -0.05 * np.asarray(z, dtype=float) ** 2 + 0.0 * np.asarray(x + t)
    common = dict(g1=lambda v: np.ones_like(np.asarray(v, dtype=float)),
                  g2=lambda v: np.zeros_like(np.asarray(v, dtype=float)), h=h,
                  f=lambda t, w: np.asarray(w, dtype=float) + 0.0 * np.asarray(t))
    for partials, res in ((nine, 1e-3),
                          ({**nine, "h_zz": lambda *a: zero(*a) - 0.1, "h_xz": zero,
                            "h_yz": zero}, 1e-8)):
        for rep in z_markovian_check(make_spec(h_partials=partials, **common), 0.5).values():
            assert rep.resolution == res


def test_variation_bounds_from_the_model():
    # additive (b = 0, sigma = 1): D_r X = 1 and D^2 X = 0 exactly
    rep = z_lipschitz_check(make_spec(), 0.5)["Z-lip"]
    assert (rep.scalars["a_lo"], rep.scalars["a_hi"], rep.scalars["b_hi"]) == (1.0, 1.0, 0.0)
    # b = -0.2 x: D_r X_u = e^{-0.2 (u - r)} >= e^{-0.2 T}
    spec = parse_config("[model]\nb = -0.2*x\nsigma = 1\ng = x\nh = 0\n").build_spec()
    assert z_lipschitz_check(spec, 0.5)["Z-lip"].scalars["a_lo"] == math.exp(-0.2)
    # geometric sigma = 0.2 x vanishes on the box: (X) fails
    geo = make_spec(sigma=lambda t, x: 0.2 * np.asarray(x, dtype=float), X0=1.0)
    assert z_lipschitz_check(geo, 0.5)["Z-lip"].verdict == "inapplicable"
    # sigma_x != 0 leaves D_r X unbounded; b_xx < 0 lets D^2 X turn negative
    for b, sigma, why in (("0", "1 + 0.2*tanh(x)", "sigma_x != 0"), ("0.3*sin(x)", "1", "b_xx < 0")):
        spec = parse_config(f"[model]\nb = {b}\nsigma = {sigma}\ng = x\nh = 0\n").build_spec()
        rep = z_lipschitz_check(spec, 0.5)["Z-lip"]
        assert rep.verdict == "inapplicable"
        assert rep.notes[-1].startswith(why)


def test_z_consistency_with_simulation(cubic):
    # a holding Z-criterion must not coexist with a degenerate Z-derivative
    # norm; the norm of 6 W_t is a.s. positive yet has essential infimum 0,
    # so the sampled verdict is allowed to be inconclusive but not degenerate
    rep = z_markovian_check(cubic, 0.5, A=IntervalUnion([(1.0, 2.0)]),
                            box=fl.GridBox(0, 1, 1.0, 2.0))
    assert rep["Z-markov-a"].verdict == "holds"
    grid = fl.default_grid(cubic, nt=81, nx=401, x_lo=-12, x_hi=12)
    su = fl.solve_u(cubic, grid)
    sp = fl.solve_u_prime(cubic, grid, sol_u=su)
    ens = fl.simulate_forward(cubic, 1500, 32, seed=314)
    malls = [fl.solve_malliavin_bsde(cubic, ens, (su, sp), r=r, times=[0.5])
             for r in (1 / 32, 8 / 32)]
    bh = bouleau_hirsch_diagnostic(malls, 0.5, which="DrZ")
    assert bh.verdict != "degenerate"
    assert bh.quantiles[5] > 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_consistency_with_simulation_random_models(seed):
    rng = np.random.default_rng(seed)
    b = float(rng.uniform(0.8, 1.5))
    c = float(rng.uniform(-0.5, 0.5))
    d = float(rng.uniform(0.0, 1.0))
    assert b > abs(c)
    g = lambda x: b * np.asarray(x, dtype=float) + c * np.tanh(np.asarray(x, dtype=float))
    g1 = lambda x: b + c / np.cosh(np.asarray(x, dtype=float)) ** 2
    spec = make_spec(g=g, g1=g1,
                     h=lambda t, x, y, z: d * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float),
                     h_partials={"h_x": lambda t, x, y, z: d * np.ones_like(np.asarray(x + t, dtype=float))})
    rep = first_order_check(spec, 0.5)
    assert rep["H+"].verdict == "holds"
    assert _bh_supports(spec, 0.5, seed=200 + seed).verdict == "supports-density"


@pytest.mark.parametrize("name", [n for n in criteria.CHECKS if n != "x-sign"])
@pytest.mark.parametrize("t", [-0.25, 1.5])
def test_checks_reject_times_outside_horizon(cubic, name, t):
    # outside [0, T] the integrals over [t, T] leave the horizon: no verdict means anything
    with pytest.raises(PreconditionError, match=rf"t={t:g} lies outside \[0, T\] = \[0, 1\]"):
        criteria.CHECKS[name](cubic, t)


@pytest.mark.parametrize("check", [quadratic_check, first_order_check, second_order_check])
def test_non_finite_partial_raises_with_finite_witness(check):
    # h = x + log(x^2) y: h_x and h_y are NaN or -inf on x = 0, a box node
    from fbsdelab.errors import EvaluationError

    spec = parse_config("[model]\nb = 0\nsigma = 1\ng = x\nh = x + log(x^2)*y\n").build_spec()
    with np.errstate(all="ignore"), pytest.raises(EvaluationError) as exc:
        check(spec, 0.5)
    witness = exc.value.witness
    assert len(witness) == 4 and all(math.isfinite(v) for v in witness)
    assert witness[1] == 0.0
