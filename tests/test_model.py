import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbsdelab as fl
from fbsdelab import criteria, density, mc, tails
from fbsdelab.errors import EvaluationError, UnknownPresetError
from fbsdelab.model import _PARTIALS, PARTIAL_NAMES, AssumptionVerdict, GridBox, default_box, expression_spec

from conftest import make_spec


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        fl.preset("no_such_model")
    assert set(fl.preset_names()) == {"ex_counter", "ex_cubic", "ex_quad_exp"}


def test_counter_oracle_values(counter):
    # coefficient -1/2 + 2t - t^2/2 vanishes at t = 2 - sqrt(3)
    t_star = 2.0 - math.sqrt(3.0)
    assert abs(counter.oracle.y(t_star, 1.7)) < 1e-14
    assert counter.oracle.y(0.5, 2.0) == pytest.approx(0.75)
    assert counter.oracle.z(0.5, 123.0) == pytest.approx(0.375)


def test_cubic_oracle_values(cubic):
    assert cubic.oracle.y(0.5, 1.0) == pytest.approx(4.0)
    assert cubic.oracle.z(0.5, 1.0) == pytest.approx(6.0)
    w = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(cubic.oracle.z(0.25, w), 3 * w**2 + 4.5)


def test_quad_exp_zero_terminal():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    spec = fl.preset("ex_quad_exp", g=zero, g1=zero, g2=zero)
    w = np.linspace(-2, 2, 7)
    np.testing.assert_allclose(spec.oracle.y(0.3, w), 0.0, atol=1e-14)
    np.testing.assert_allclose(spec.oracle.z(0.3, w), 0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["ex_counter", "ex_cubic"])
def test_bsde_identity_euler_rate(name):
    # |Y*(t) - g(X_T) - int h + int Z* dW| must shrink at the Euler rate
    spec = fl.preset(name)
    rng = np.random.default_rng(42)

    def residual(n_steps):
        dt = spec.T / n_steps
        dW = rng.standard_normal((256, n_steps)) * math.sqrt(dt)
        W = np.concatenate([np.zeros((256, 1)), np.cumsum(dW, axis=1)], axis=1)
        tg = np.linspace(0, spec.T, n_steps + 1)
        Y = spec.oracle.y(tg[None, :], W)
        Z = spec.oracle.z(tg[None, :], W)
        h = spec.h(tg[None, :-1], W[:, :-1], Y[:, :-1], Z[:, :-1])
        # integrated form from t = 0
        res = Y[:, 0] - Y[:, -1] - np.sum(h * dt, axis=1) + np.sum(Z[:, :-1] * dW, axis=1)
        return float(np.mean(np.abs(res)))

    # the Ito-integral discretization error scales like sqrt(dt)
    coarse, fine = residual(32), residual(256)
    assert fine < 0.6 * coarse
    assert fine < 0.2


def test_fd_partials_match_supplied(cubic):
    # drop the supplied partials and compare the central-difference fallback
    bare = fl.ModelSpec(b=cubic.b, sigma=cubic.sigma, g=cubic.g, h=cubic.h,
                        T=cubic.T, X0=cubic.X0)
    x = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(bare.d("g1")(x), cubic.d("g1")(x), atol=1e-7)
    np.testing.assert_allclose(bare.d("g2")(x), cubic.d("g2")(x), atol=1e-4)
    np.testing.assert_allclose(bare.d("h_x")(0.3, x, 0.0, 0.0),
                               np.full_like(x, 3.0), atol=1e-8)
    np.testing.assert_allclose(bare.d("h_xx")(0.3, x, 0.0, 0.0), 0.0, atol=1e-5)


def test_fd_second_order_accuracy():
    # halving the step shrinks the central-difference error ~4x on a smooth map
    g = lambda x: np.sin(1.3 * np.asarray(x, dtype=float))
    errs = []
    for step in (1e-2, 5e-3):
        spec = make_spec(g=g)
        object.__setattr__(spec, "fd_step", step)
        x = np.linspace(-1, 1, 41)
        errs.append(float(np.max(np.abs(spec.d("g1")(x) - 1.3 * np.cos(1.3 * x)))))
    assert errs[1] < errs[0] / 3.0


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2))
def test_fd_partials_on_random_cubics(a, b, c):
    g = lambda x: a * np.asarray(x, dtype=float) ** 3 + b * np.asarray(x, dtype=float) ** 2 + c * np.asarray(x, dtype=float)
    spec = make_spec(g=g)
    x = np.linspace(-2, 2, 17)
    exact = 3 * a * x**2 + 2 * b * x + c
    np.testing.assert_allclose(spec.d("g1")(x), exact, atol=5e-7 * (1 + abs(a) + abs(b)))


def _partials_at(spec, t, x, y, z):
    args = {"b": (t, x), "s": (t, x), "g": (x,), "h": (t, x, y, z), "f": (t, x)}
    return {n: spec.d(n)(*args[n[0]]) for n in PARTIAL_NAMES}


def test_preset_partials_closed_forms():
    rng = np.random.default_rng(3)
    t, x, y, z = rng.uniform(0, 1, 50), rng.normal(0, 2, 50), rng.normal(0, 2, 50), rng.normal(0, 2, 50)
    one, zero = np.ones(50), np.zeros(50)
    exact = {
        "ex_counter": {"g1": one, "h_x": t - 2.0, "h_xt": one},
        "ex_cubic": {"g1": 3.0 * x**2, "g2": 6.0 * x, "h_x": 3.0 * one},
        "ex_quad_exp": {"g1": 1.0 / np.cosh(x) ** 2, "g2": -2.0 * np.tanh(x) / np.cosh(x) ** 2,
                        "h_z": z, "h_zz": one},
    }
    for name, nonzero in exact.items():
        spec = fl.preset(name)
        assert set(spec.partials) == set(PARTIAL_NAMES)
        got = _partials_at(spec, t, x, y, z)
        for p in PARTIAL_NAMES:
            want = nonzero.get(p, one if p == "f_w" else zero)
            np.testing.assert_allclose(got[p], want, rtol=0, atol=1e-15, err_msg=f"{name} {p}")


def test_fd_fallback_matches_exact_partials_of_every_name():
    # the callable twin of an expression model with a nonzero partial of every
    # name: each differenced partial must match the symbolic one, within a
    # tolerance set by its order
    exact = expression_spec(b="sin(x) + 0.2*t", sigma="1 + 0.3*tanh(x)", g="tanh(x) + 0.5*x",
                            h="0.1*x*y + 0.2*sin(z)*cos(x) + t*x*y*z + x*y^2 + 0.5*x^2*y",
                            f="w^3 + t*w", T=1.0, X0=0.0)
    twin = fl.ModelSpec(b=exact.b, sigma=exact.sigma, g=exact.g, h=exact.h,
                        markovian_f=exact.markovian_f, T=1.0, X0=0.0)
    assert twin.partials == {}
    rng = np.random.default_rng(5)
    t, x, y, z = rng.uniform(0, 1, 200), rng.normal(0, 2, 200), rng.normal(0, 2, 200), rng.normal(0, 2, 200)
    got, want = _partials_at(twin, t, x, y, z), _partials_at(exact, t, x, y, z)
    tol = {1: 1e-8, 2: 1e-6, 3: 1e-4}
    for name, (_, variables) in _PARTIALS.items():
        assert np.any(want[name] != 0.0), name
        np.testing.assert_allclose(got[name], want[name], rtol=tol[len(variables)],
                                   atol=tol[len(variables)], err_msg=name)


def test_expression_spec_callables_and_overrides():
    g = lambda x: np.sin(np.asarray(x, dtype=float))
    g2 = lambda x: -np.sin(np.asarray(x, dtype=float))
    spec = expression_spec(b="0.3*x", sigma="1 + 0.2*tanh(x)", g=g, h="x*y", f=None,
                           T=1.0, X0=0.0, partials={"g2": g2, "h_x": lambda t, x, y, z: 0.0 * x})
    assert "g1" not in spec.partials and spec.partials["g2"] is g2
    assert "f_w" not in spec.partials
    x = np.linspace(-2, 2, 9)
    # g is opaque: g1 falls back to central differences
    np.testing.assert_allclose(spec.d("g1")(x), np.cos(x), atol=1e-9)
    np.testing.assert_array_equal(spec.d("h_x")(0.0, x, 2.0, 0.0), 0.0)
    np.testing.assert_allclose(spec.d("sigma_xx")(0.0, x),
                               -0.4 * np.tanh(x) / np.cosh(x) ** 2, atol=1e-15)
    np.testing.assert_array_equal(spec.d("h_xy")(0.0, x, 2.0, 0.0), 1.0)


def test_constant_reads_the_expression_tree(counter, cubic):
    assert cubic.constant("b_x") == 0.0 and cubic.constant("sigma") == 1.0
    assert cubic.constant("h_x") == 3.0
    assert counter.constant("h_x") is None        # (t-2)*x differentiates to t-2
    assert counter.constant("f") is None
    for spec in (counter, cubic):
        for name in PARTIAL_NAMES:                # the value is the callable's own
            value = spec.constant(name)
            args = [0.5] * len(fl.model.COEFFICIENT_ARGS[_PARTIALS[name][0]])
            assert value is None or spec.d(name)(*args) == value
    opaque = expression_spec(b=lambda t, x: 0.0 * x, sigma="1", g="x", h="0", f=None,
                             T=1.0, X0=0.0)
    assert opaque.constant("b") is None
    assert opaque.constant("b_x") is None         # differenced
    assert opaque.constant("sigma_x") == 0.0
    override = expression_spec(b="0", sigma="1", g="x", h="0", f=None, T=1.0, X0=0.0,
                               partials={"b_x": lambda t, x: 0.0 * x})
    assert override.constant("b") == 0.0 and override.constant("b_x") is None
    with pytest.raises(KeyError):
        cubic.constant("b_y")


def test_validate_assumptions_counter(counter):
    rep = fl.validate_assumptions(counter)
    assert rep.holds("X") and rep.holds("L") and rep.holds("D1") and rep.holds("D2")
    assert rep.holds("M")
    assert rep["L"].details["k_x_hat"] == pytest.approx(2.0, abs=1e-6)
    assert rep["L"].details["k_y_hat"] == 0.0
    assert rep["L"].details["k_z_hat"] == 0.0
    # (C+) fails: h_x = t - 2 < 0 somewhere
    assert not rep.holds("C+")
    assert rep["C+"].violated_at


def test_validate_assumptions_quad(quad_exp):
    rep = fl.validate_assumptions(quad_exp)
    assert rep.holds("Q")
    assert rep["Q"].details["K_hat"] <= 0.5 + 1e-9
    assert rep.holds("Ctilde+")


def test_validate_assumptions_degenerate_sigma():
    spec = make_spec(sigma="zero")
    rep = fl.validate_assumptions(spec)
    assert not rep.holds("X")
    assert rep["X"].violated_at  # ellipticity witness


def test_validate_assumptions_nan_witness():
    bad_g = lambda x: np.where(np.abs(np.asarray(x, dtype=float)) > 3.0, np.nan, x)

    def bad_h(t, x, y, z):
        return np.where(np.abs(np.asarray(x, dtype=float)) > 3.0, np.nan, 0.0 * np.asarray(x, dtype=float))

    spec = make_spec(h=bad_h)
    with pytest.raises(EvaluationError) as exc:
        fl.validate_assumptions(spec)
    assert exc.value.witness is not None


def test_violated_verdict_requires_witness():
    with pytest.raises(ValueError):
        AssumptionVerdict("X", False, -1.0, [])


def test_markovian_gap_detected():
    # f inconsistent with the simulated forward process must fail (M)
    spec = make_spec(f=lambda t, w: 2.0 * np.asarray(w, dtype=float))
    rep = fl.validate_assumptions(spec)
    assert not rep.holds("M")


def test_grid_box_resolution():
    box = GridBox(0, 1, -2, 2, nt=11, nx=21)
    res = box.resolution()
    assert res["dt"] == pytest.approx(0.1)
    assert res["dx"] == pytest.approx(0.2)


def test_default_box_spans_six_sigmas(counter):
    box = default_box(counter)
    assert box.x_hi == pytest.approx(6.0)
    assert box.x_lo == pytest.approx(-6.0)


# -- the coefficient output contract --------------------------------------------

def _constant_twins():
    """A constant-coefficient expression model and its full-shape callable twin.

    The expression model returns its constants 0-d; the twin returns every
    coefficient at the full broadcast shape and differences its partials,
    which is exact (0) for constants.  The Markov map is linear, and its
    partials are supplied to the twin at the full shape.
    """
    full = lambda c: lambda *a: np.full(np.broadcast(*a).shape, c)
    fields = dict(T=1.0, X0=0.3)
    spec = expression_spec(b="0.2", sigma="1.5", g="2", h="0.5", f="0.2*t + 1.5*w", **fields)
    twin = fl.ModelSpec(b=full(0.2), sigma=full(1.5), g=full(2.0), h=full(0.5),
                        markovian_f=lambda t, w: 0.2 * t + 1.5 * w,
                        partials={"f_w": full(1.5), "f_ww": full(0.0)}, **fields)
    return spec, twin


def _assert_same(a, b, where="result"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_same(u, v, f"{where}[{i}]")
    elif hasattr(a, "__dataclass_fields__"):
        _assert_same(vars(a), vars(b), where)
    elif isinstance(a, (np.ndarray, float, np.floating)):
        assert np.array_equal(a, b, equal_nan=True), where
    else:
        assert a == b, where


def test_constant_coefficients_match_full_shape_twin():
    # 0-d constants must give the bits of full-shape ones through every layer
    spec, twin = _constant_twins()
    assert np.ndim(spec.b(0.5, np.zeros(4))) == np.ndim(spec.g(np.zeros(5))) == 0
    _assert_same(fl.validate_assumptions(spec), fl.validate_assumptions(twin), "assumptions")
    # the twin's differenced partials would default to the coarser resolution
    checks = {"x-sign": lambda s: criteria.x_sign_check(s, resolution=1e-8),
              **{f.__name__: partial(f, t=0.5, resolution=1e-8) for f in (
                  criteria.first_order_check, criteria.second_order_check,
                  criteria.quadratic_check, criteria.z_lipschitz_check,
                  criteria.z_markovian_check)}}
    for name, check in checks.items():
        _assert_same(check(spec), check(twin), name)

    sols = []
    for s in (spec, twin):
        grid = fl.default_grid(s, nt=21, nx=41)
        su = fl.solve_u(s, grid)
        sp = fl.solve_u_prime(s, grid, sol_u=su)
        spp = fl.solve_u_doubleprime(s, grid, sol_u=su, sol_uprime=sp)
        sols.append((su, sp, spp))
    for a, b in zip(*sols):
        for arr in ("u", "u_x", "u_xx"):
            assert np.array_equal(getattr(a, arr), getattr(b, arr)), arr
    params = {"eps": 0.1, "eps_prime": 0.05, "C_lo": 0.5, "C_hi": 4.0,
              "D_lo": 0.0, "D_hi": 1.0, "B_lo": 0.0, "B_hi": 1.0, "lam": 1.0}
    _assert_same(*(tails.verify_growth_sandwich(*sol, s, params)
                   for s, sol in ((spec, sols[0]), (twin, sols[1]))), "sandwich")

    ens = [fl.simulate_forward(s, n_paths=200, n_steps=16, seed=4) for s in (spec, twin)]
    assert np.array_equal(ens[0].X, ens[1].X)
    flows = [mc._euler(s, e.dW, s.X0, 0.0, e.dt, order=2) for s, e in zip((spec, twin), ens)]
    _assert_same(*flows, "euler")
    _assert_same(*(mc.solve_bsde_regression(s, e) for s, e in zip((spec, twin), ens)), "lsmc")
    for r in (0.0, 0.25):
        malls = [mc.solve_malliavin_bsde(s, e, sol[:2], r, times=[0.5, 1.0])
                 for s, e, sol in zip((spec, twin), ens, sols)]
        for which in ("DrX", "DrY", "DrZ", "nablaX"):
            for t in (0.5, 1.0):
                assert np.array_equal(malls[0].at(t, which), malls[1].at(t, which)), (r, which, t)
    _assert_same(*(mc.second_malliavin(s, sol[0], sol[1], e, 0.25, 0.5)
                   for s, e, sol in zip((spec, twin), ens, sols)), "second_malliavin")

    dW = ens[0].dW
    for make in (lambda s, sol: density.pde_y_sampler(s, sol[0], 0.5, 16, sol_uprime=sol[1]),
                 lambda s, sol: density.pde_z_sampler(s, sol[1], 0.5, 16)):
        _assert_same(*(make(s, sol).evaluate(dW) for s, sol in zip((spec, twin), sols)),
                     "sampler")


# -- witnesses and non-finite partials ------------------------------------------

def test_sign_package_witness_violates_its_condition():
    # h = tanh(x - 3): h_x > 0 everywhere, h_xx < 0 only for x > 3
    spec = expression_spec(b="0", sigma="1", g="x", h="tanh(x - 3)", f="w", T=1.0, X0=0.0)
    rep = fl.validate_assumptions(spec)
    assert not rep.holds("C+")
    (node,) = rep["C+"].violated_at
    assert len(node) == 4 and node[1] > 3.0
    assert min(float(spec.d(n)(*node)) for n in ("h_x", "h_xx", "h_yy", "h_zz", "h_xy")) < -1e-9


def test_non_finite_second_partial_keeps_every_verdict():
    # h = |x|^1.5 has h_xx non-finite at x = 0 (a node of the default box)
    spec = expression_spec(b="0", sigma="1", g="x", h="abs(x)^1.5", f="w", T=1.0, X0=0.0)
    with np.errstate(all="ignore"):
        rep = fl.validate_assumptions(spec)
    assert set(rep.verdicts) == {"X", "L", "Q", "D1", "D2", "M", "C+", "C-", "Ctilde+", "Ctilde-"}
    assert rep.holds("D1") and not rep.holds("D2")
    assert rep["D2"].violated_at[0][1] == 0.0
    for tag in ("C+", "C-", "Ctilde+", "Ctilde-"):
        assert not rep.holds(tag) and rep[tag].violated_at[0][1] == 0.0


def test_non_finite_partial_prints_no_runtime_warning():
    # the EvaluationError already names the value and its node
    spec = expression_spec(b="0", sigma="1", g="x", h="abs(x)^1.5", f="w", T=1.0, X0=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = fl.validate_assumptions(spec)
    assert not rep.holds("D2") and not rep.holds("C+")
