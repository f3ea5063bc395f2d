import math

import numpy as np
import pytest
import scipy.integrate as si

import fbsdelab as fl
from fbsdelab.errors import PreconditionError, UndefinedRateError
from fbsdelab.pde import GridSolution
from fbsdelab.special import gamma_fn
from fbsdelab.tails import (GrowthRates, TailEnvelope, compute_constants,
                            delta_const, empirical_density, envelope,
                            growth_rate, inverse_growth_bound, invert_monotone,
                            mu_integral, regular_variation_check,
                            verify_growth_sandwich, xi_const)

from conftest import make_spec

S0 = math.log(10.0)


def _pathological_logf(s):
    # identity, then zigzag between slope 4 and slope 1/2 in log-log scale,
    # touching the alpha = 1 and alpha = 2 envelopes alternately
    s = np.asarray(s, dtype=float)
    out = np.where(s < S0, s, 0.0)
    out = np.where((s >= S0) & (s < 1.5 * S0), S0 + 4 * (s - S0), out)
    out = np.where((s >= 1.5 * S0) & (s < 4.5 * S0), 3 * S0 + 0.5 * (s - 1.5 * S0), out)
    out = np.where((s >= 4.5 * S0) & (s < 6.75 * S0), 4.5 * S0 + 4 * (s - 4.5 * S0), out)
    out = np.where(s >= 6.75 * S0, 13.5 * S0 + 0.5 * (s - 6.75 * S0), out)
    return out


def pathological(x):
    return np.exp(_pathological_logf(np.log(np.abs(np.asarray(x, dtype=float)))))


def test_growth_rate_pure_cubic():
    r = growth_rate(lambda x: x**3, (1e2, 1e4))
    assert abs(r.alpha_bar - 3.0) <= 0.05
    assert abs(r.alpha_under - 3.0) <= 0.05
    assert r.r_squared > 0.999


def test_growth_rate_oscillating():
    r = growth_rate(lambda x: x**2 * np.sin(x), (1e2, 1e4))
    assert abs(r.alpha_bar - 2.0) <= 0.1
    assert abs(r.alpha_under - 2.0) <= 0.1


def test_growth_rate_slowly_varying_factor():
    r = growth_rate(lambda x: x**2 * np.log1p(np.abs(x)), (1e3, 1e10))
    assert abs(r.alpha_bar - 2.0) <= 0.1
    assert abs(r.alpha_under - 2.0) <= 0.1


def test_growth_rate_pathological_split():
    r = growth_rate(pathological, (2.0, 1e7))
    assert abs(r.alpha_bar - 2.0) <= 0.1
    assert abs(r.alpha_under - 1.0) <= 0.1
    assert r.alpha_bar - r.alpha_under > 0.5


def test_growth_rate_constant_immunity():
    r = growth_rate(lambda x: 6 * x, (0.05, 8.0))
    assert r.alpha_bar == pytest.approx(1.0, abs=0.011)
    assert r.alpha_under == pytest.approx(1.0, abs=0.011)


def test_growth_rate_preconditions():
    with pytest.raises(PreconditionError):
        growth_rate(lambda x: x, (1.0, 50.0))  # ratio below 100
    with pytest.raises(PreconditionError):
        growth_rate(lambda x: x, (-1.0, 100.0))
    with pytest.raises(UndefinedRateError):
        growth_rate(lambda x: 0.0 * np.asarray(x, dtype=float), (1e2, 1e4))


def test_growth_rate_decaying_function_rate_zero():
    r = growth_rate(lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)), (1e2, 1e4))
    assert r.alpha_bar == 0.0
    assert r.alpha_under == 0.0


def test_inverse_growth_bound_formula():
    assert inverse_growth_bound(3.0, 0.5) == pytest.approx(0.4)
    with pytest.raises(PreconditionError):
        inverse_growth_bound(3.0, 3.5)
    with pytest.raises(PreconditionError):
        inverse_growth_bound(3.0, -0.1)
    # monotone in the liminf rate
    bounds = [inverse_growth_bound(a, 0.1) for a in (1.0, 2.0, 4.0, 8.0)]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_inverse_growth_numeric_cubic():
    inv, (lo, hi) = invert_monotone(lambda x: x**3, (1.0, 1e4))
    r = growth_rate(inv, (max(lo, 1.0), hi * 0.99), branches="pos")
    assert r.alpha_bar <= inverse_growth_bound(3.0, 0.1) + 0.05
    assert r.alpha_bar == pytest.approx(1.0 / 3.0, abs=0.05)


def test_inverse_growth_composition_random_monotone():
    # liminf rate p implies inverse limsup rate <= 1/(p - eta) + tolerance
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = float(rng.uniform(1.2, 4.0))
        a = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.0, 0.4))
        f = lambda x, p=p, a=a, c=c: a * np.asarray(x, dtype=float) ** p * (1.0 + c * np.log1p(np.asarray(x, dtype=float)) / 10.0)
        rf = growth_rate(f, (1e2, 1e6), branches="pos")
        inv, (lo, hi) = invert_monotone(f, (1.0, 1e6))
        rinv = growth_rate(inv, (max(lo, 1.0), hi * 0.99), branches="pos")
        eta = 0.1
        assert rinv.alpha_bar <= inverse_growth_bound(rf.alpha_under - 0.05, eta) + 0.05


def test_growth_rates_invariant():
    with pytest.raises(ValueError):
        GrowthRates(1.0, 2.0, 0.9, (1, 100))


def test_regular_variation_cubic_prime():
    rep = regular_variation_check(lambda x: 3 * np.asarray(x, dtype=float) ** 2, 2.0, (1.0, 1e4))
    assert abs(rep["ratio_edge"] - 3.0) < 1e-3
    assert rep["additivity_gap"] <= 0.1


def test_regular_variation_constant_prime():
    rep = regular_variation_check(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.0, (1.0, 1e4))
    assert abs(rep["ratio_edge"] - 1.0) < 1e-3


def test_regular_variation_pathological_flagged():
    # derivative of the zigzag: rates of f and f' are inconsistent
    def fprime(x):
        x = np.asarray(x, dtype=float)
        eps = 1e-4
        return (pathological(x + eps) - pathological(x - eps)) / (2 * eps)

    rep = regular_variation_check(fprime, 1.0, (2.0, 1e6))
    assert rep.get("rates_consistent") is False


def test_delta_xi_mu_constants():
    assert delta_const(1.0) == 2.0
    assert delta_const(0.5) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert delta_const(-0.3) == 1.0
    assert xi_const(1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15)
    with pytest.raises(PreconditionError):
        mu_integral(0.0)
    z = np.linspace(-12, 12, 2_000_001)
    brute = np.trapezoid(np.exp(-z * z / 2) / math.sqrt(2 * math.pi) / (1 + z**2), z)
    assert abs(mu_integral(2.0) - brute) < 1e-8
    assert 0.0 < mu_integral(2.0) <= 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.7])
def test_xi_against_quadrature_gamma(a):
    gq = si.quad(lambda t, s=(1 + a) / 2: t ** (s - 1) * math.exp(-t), 0, np.inf)[0]
    assert abs(xi_const(a) - a * gq / (2 * math.sqrt(math.pi))) < 1e-10


def test_gamma_lanczos_accuracy():
    # the C library gamma is an independent implementation; quadrature of the
    # Euler integral is accurate once the endpoint singularity is mild
    for x in (0.1, 0.5, 1.0, 1.5, 3.7, 10.0, 20.5):
        assert abs(gamma_fn(x) - math.gamma(x)) / math.gamma(x) < 1e-12
    for x in (1.5, 3.7, 10.0):
        gq = si.quad(lambda t: t ** (x - 1) * math.exp(-t), 0, np.inf)[0]
        assert abs(gamma_fn(x) - gq) / gq < 1e-11
    with pytest.raises(ValueError):
        gamma_fn(-1.0)


def _linear_grid(x_hi=30.0, nx=4001):
    tn = np.linspace(0, 1, 11)
    xn = np.linspace(-x_hi, x_hi, nx)
    U = np.broadcast_to(xn, (11, nx)).copy()
    UX = np.ones((11, nx))
    UXX = np.zeros((11, nx))
    return GridSolution(tn, xn, U, UX, UXX, "u", 0.5, "extrapolation")


def test_compute_constants_brownian_case():
    gs = _linear_grid()
    c = compute_constants(gs, 1.0, 0.1, 0.1, 0.01, K=1.0, rate_window=(0.25, 29.0))
    assert c.alpha_under_v == pytest.approx(1.0, abs=0.02)
    assert c.alpha_bar_vprime == 0.0
    assert c.alpha_bar_vinv == pytest.approx(1.0, abs=0.02)
    assert c.M > 0 and c.M_prime > 0
    assert 0 < c.mu <= 1.0


def test_compute_constants_vprime_positive_guard():
    gs = _linear_grid()
    gs.u_x = -gs.u_x
    with pytest.raises(PreconditionError):
        compute_constants(gs, 1.0, 0.1, 0.1, 0.5)


def test_envelope_brownian_theorem_form():
    gs = _linear_grid()
    c = compute_constants(gs, 1.0, 0.1, 0.1, 0.01, K=1.0, rate_window=(0.25, 29.0))
    mad = math.sqrt(2 / math.pi)
    nodes = np.linspace(-3, 3, 121)
    env = envelope(1.0, c, {"mean": 0.0, "mad": mad}, nodes, form="theorem")
    phi = np.exp(-nodes**2 / 2) / math.sqrt(2 * math.pi)
    assert env.upper[60] == pytest.approx(mad / (2 * c.M), rel=1e-12)
    assert np.all(env.upper >= phi - 1e-12)
    assert np.all(env.lower <= phi + 1e-12)
    assert np.all(env.lower <= env.upper + 1e-12)


def test_envelope_csv_bytes_match_row_format(tmp_path):
    y = np.array([-1.0, 0.0, 1 / 3])
    lower, upper = np.array([0.1, 0.2, 1 / 7]), np.array([0.3, 0.4, 2 / 7])
    env = TailEnvelope(0.5, "Z", y, upper, lower, "corollary", 0.0, 0.7, y0=0.25, gamma=0.5,
                       p1=1.0, p2=0.75)
    head = ["# a", "# t=0.5 target=Z form=corollary y0=0.25 gamma=0.5 p1=1.0 p2=0.75",
            "y,lower,upper,empirical_density,empirical_ci"]
    emp, eci = np.array([0.2, 0.3, 0.25]), np.array([0.01, 0.02, 1 / 9])
    env.to_csv(tmp_path / "e.csv", emp, eci, header_lines=["a"])
    rows = ["%.17g,%.17g,%.17g,%.17g,%.17g" % r for r in zip(y, lower, upper, emp, eci)]
    assert (tmp_path / "e.csv").read_text() == "\n".join(head + rows) + "\n"
    # without the empirical columns they read nan
    env.to_csv(tmp_path / "n.csv", header_lines=["a"])
    rows = ["%.17g,%.17g,%.17g,nan,nan" % r for r in zip(y, lower, upper)]
    assert (tmp_path / "n.csv").read_text() == "\n".join(head + rows) + "\n"


def test_envelope_degenerate_stats():
    gs = _linear_grid()
    c = compute_constants(gs, 1.0, 0.1, 0.1, 0.01, K=1.0, rate_window=(0.25, 29.0))
    env = envelope(1.0, c, {"mean": 0.0, "mad": 0.0}, np.linspace(-1, 1, 11))
    assert env.degenerate
    np.testing.assert_array_equal(env.upper, 0.0)


def test_monotone_dependence_on_K():
    gs = _linear_grid()
    c1 = compute_constants(gs, 1.0, 0.1, 0.1, 0.01, K=1.0, rate_window=(0.25, 29.0))
    c2 = compute_constants(gs, 1.0, 0.1, 0.1, 0.01, K=2.0, rate_window=(0.25, 29.0))
    assert c2.M <= c1.M
    nodes = np.linspace(-2, 2, 41)
    mad = math.sqrt(2 / math.pi)
    e1 = envelope(1.0, c1, {"mean": 0.0, "mad": mad}, nodes, form="theorem")
    e2 = envelope(1.0, c2, {"mean": 0.0, "mad": mad}, nodes, form="theorem")
    assert np.all(e2.upper >= e1.upper - 1e-12)


def test_envelope_corollary_cubic_z(cubic, cubic_grids):
    _, su, sp = cubic_grids
    c = compute_constants(sp, 1.0, 0.01, 0.01, 2.0, rate_window=(0.1, 11.5))
    assert c.alpha_bar_vprime == pytest.approx(1.0, abs=0.02)
    assert c.alpha_bar_vinv == pytest.approx(0.5, abs=0.02)
    assert c.alpha_under_v == pytest.approx(2.0, abs=0.05)
    rng = np.random.default_rng(5)
    z_samples = 3.0 * rng.standard_normal(100000) ** 2
    mean = float(np.mean(z_samples))
    mad = float(np.mean(np.abs(z_samples - mean)))
    nodes = np.quantile(z_samples, np.linspace(0.001, 0.9995, 200))
    env = envelope(1.0, c, {"mean": mean, "mad": mad}, nodes, form="corollary", target="Z")
    assert env.gamma is not None and env.gamma < 1.0
    assert 0.0 < env.p1 < 2.0
    assert env.p2 > 0
    outside = np.abs(nodes) > env.y0
    assert np.any(outside)
    # envelope ordering and domination of the empirical density
    assert np.all(env.lower[outside] <= env.upper[outside] + 1e-12)
    est, se, _ = empirical_density(z_samples, nodes[outside])
    assert np.all(est + 2.58 * se <= env.upper[outside])


def test_envelope_counter_y_dominates_gaussian(counter, counter_grids):
    # Y at t = 0.5 is Gaussian with variance t c(t)^2; the envelope built from
    # the solved value grid must bracket the exact density on central nodes
    _, su, _ = counter_grids
    t = 0.5
    c_t = float(counter.oracle.z(t, 0.0))
    consts = compute_constants(su, t, 0.1, 0.1, 0.01, K=1.0 / c_t,
                               rate_window=(0.05, 5.8))
    assert consts.alpha_bar_vprime == 0.0
    assert consts.alpha_under_v == pytest.approx(1.0, abs=0.02)
    var = t * c_t**2
    mad = math.sqrt(2 * var / math.pi)
    nodes = np.linspace(-2.5 * math.sqrt(var), 2.5 * math.sqrt(var), 101)
    env = envelope(t, consts, {"mean": 0.0, "mad": mad}, nodes, form="theorem")
    exact = np.exp(-nodes**2 / (2 * var)) / math.sqrt(2 * math.pi * var)
    assert np.all(env.upper >= exact - 1e-12)
    assert np.all(env.lower <= exact + 1e-12)
    assert np.all(env.lower <= env.upper)


def test_envelope_gamma_gate():
    # rate gap too small for the closed-form regime: precondition error
    gs = _linear_grid()
    c = compute_constants(gs, 1.0, 0.1, 0.1, 0.5, K=1.0, rate_window=(0.25, 29.0))
    # force a fat gamma by faking the inverse rate
    object.__setattr__(c, "alpha_bar_vprime", 3.0)
    with pytest.raises(PreconditionError):
        envelope(1.0, c, {"mean": 0.0, "mad": 0.5}, np.linspace(-2, 2, 11),
                 form="corollary", eps_ladder=(0.01,))


def test_growth_sandwich_power_band():
    # terminal growth |x|^{0.9}: the solved value function stays in the band
    spec = make_spec(g=lambda x: (1.0 + np.asarray(x, dtype=float) ** 2) ** 0.45)
    grid = fl.default_grid(spec, nt=41, nx=2401, x_lo=-160.0, x_hi=160.0)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    spp = fl.solve_u_doubleprime(spec, grid, sol_u=su, sol_uprime=sp)
    params = {"eps": 0.1, "eps_prime": 0.05, "C_lo": 0.5, "C_hi": 1.0,
              "D_lo": 0.05, "D_hi": 1.0, "B_lo": 0.01, "B_hi": 1.0, "lam": 1.0}
    rep = verify_growth_sandwich(su, sp, spp, spec, params, rate_window=(1.5, 150.0))
    assert rep.ok("alpha_u")
    band = rep.conclusions["alpha_u"]
    assert 0.85 <= band["alpha_under"] <= 1.15
    assert 0.85 <= band["alpha_bar"] <= 1.15
    # fitted sandwich constants stay modest when h == 0 (pure heat flow)
    assert 0.0 <= rep.fitted["C_tilde"] < 1.0
    assert 0.0 <= rep.fitted["C_tilde_1"] < 1.0


def test_growth_sandwich_convex_floor():
    # g'' >= B_lo > 0 with h == 0: the heat flow preserves the curvature floor
    spec = make_spec(g=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                     g1=lambda x: np.asarray(x, dtype=float),
                     g2=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=801, x_lo=-40.0, x_hi=40.0)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    spp = fl.solve_u_doubleprime(spec, grid, sol_u=su, sol_uprime=sp)
    params = {"eps": 0.1, "eps_prime": 0.05, "C_lo": 0.25, "C_hi": 1.0,
              "D_lo": 0.01, "D_hi": 10.0, "B_lo": 1.0, "B_hi": 1.0, "lam": 1.0}
    rep = verify_growth_sandwich(su, sp, spp, spec, params, rate_window=(1.0, 38.0))
    assert rep.ok("udoubleprime_floor")


def test_growth_sandwich_hzz_gate(quad_exp, quad_grids):
    grid, su, sp = quad_grids
    spp = fl.solve_u_doubleprime(quad_exp, grid, sol_u=su, sol_uprime=sp)
    params = {"eps": 0.1, "eps_prime": 0.05, "C_lo": 0.1, "C_hi": 2.0,
              "D_lo": 0.001, "D_hi": 2.0, "B_lo": 0.001, "B_hi": 1.0, "lam": 1.0}
    rep = verify_growth_sandwich(su, sp, spp, quad_exp, params)
    # h_zz = 1 >= 1/(4 B_hi T): outside the smallness window
    assert not rep.hypotheses["h_zz_window"]["ok"]
    assert rep.verdict == "inapplicable"


def test_empirical_density_accuracy():
    rng = np.random.default_rng(11)
    s = rng.standard_normal(50000)
    nodes = np.linspace(-2, 2, 21)
    est, se, bw = empirical_density(s, nodes)
    phi = np.exp(-nodes**2 / 2) / math.sqrt(2 * math.pi)
    assert float(np.max(np.abs(est - phi))) < 0.01
    assert np.all(se < 0.01)


def test_compute_constants_rejects_times_outside_the_grid(cubic_grids):
    _, su, _ = cubic_grids
    with pytest.raises(PreconditionError, match=r"t=1.5 lies outside \[0, T\] = \[0, 1\]"):
        compute_constants(su, 1.5, 0.1, 0.1, 0.5)
