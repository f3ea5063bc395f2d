"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see the per-criterion
lines for passing tests as well.
"""

import math
import time

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.criteria import IntervalUnion, VariationBounds, first_order_check, \
    second_order_check, z_quadratic_check
from fbsdelab.density import (bouleau_hirsch_diagnostic, brownian_terminal_sampler,
                              density_from_gF, estimate_gF, pde_z_sampler)
from fbsdelab.mc import BasisSpec
from fbsdelab.tails import (compute_constants, delta_const, empirical_density,
                            envelope, growth_rate, inverse_growth_bound,
                            invert_monotone, mu_integral, xi_const)

T_ROOT = 2.0 - math.sqrt(3.0)
T_FLIP = (3.0 - math.sqrt(5.0)) / 2.0


def _report(tag, text):
    print(f"[{tag}] PASS  {text}")


@pytest.fixture(scope="module")
def counter():
    return fl.preset("ex_counter")


@pytest.fixture(scope="module")
def cubic():
    return fl.preset("ex_cubic")


@pytest.fixture(scope="module")
def quad_exp():
    return fl.preset("ex_quad_exp")


@pytest.fixture(scope="module")
def counter_grids(counter):
    grid = fl.default_grid(counter, nt=201, nx=401)
    su = fl.solve_u(counter, grid)
    sp = fl.solve_u_prime(counter, grid, sol_u=su)
    return su, sp


@pytest.fixture(scope="module")
def cubic_grids(cubic):
    grid = fl.default_grid(cubic, nt=201, nx=801, x_lo=-12.0, x_hi=12.0)
    su = fl.solve_u(cubic, grid)
    sp = fl.solve_u_prime(cubic, grid, sol_u=su)
    return su, sp


@pytest.fixture(scope="module")
def quad_grids(quad_exp):
    grid = fl.default_grid(quad_exp, nt=201, nx=401)
    su = fl.solve_u(quad_exp, grid)
    sp = fl.solve_u_prime(quad_exp, grid, sol_u=su)
    return su, sp


@pytest.fixture(scope="module")
def cubic_z1_samples():
    rng = np.random.Generator(np.random.Philox(key=np.array([2024, 0], dtype=np.uint64)))
    w = rng.standard_normal(100000)
    return 3.0 * w**2


def test_ac1_counter_oracle_both_routes(counter, counter_grids):
    t0 = time.time()
    su, sp = counter_grids
    ens = fl.simulate_forward(counter, 100000, 256, seed=41)
    sol = fl.solve_bsde_regression(counter, ens)
    errs = {}
    for t in (0.1, 0.5, 0.9):
        k = ens.index_of(t, nearest=True)
        tk = float(ens.t_grid[k])
        oracle = counter.oracle.y(tk, ens.X[:, k])
        e_pde = float(np.max(np.abs(su.eval(tk, ens.X[:, k]) - oracle)))
        e_mc = float(np.max(np.abs(sol.Y[:, k] - oracle)))
        errs[t] = (e_pde, e_mc)
        assert e_pde < 1e-2, f"PDE route error {e_pde} at t={tk}"
        assert e_mc < 1e-2, f"regression route error {e_mc} at t={tk}"
    # degenerate time: Malliavin norm vanishes
    k_star = ens.index_of(T_ROOT, nearest=True)
    t_star = float(ens.t_grid[k_star])
    malls = [fl.solve_malliavin_bsde(counter, ens, (su, sp), r=r, times=[t_star])
             for r in (8 / 256, 32 / 256, 48 / 256)]
    rep = bouleau_hirsch_diagnostic(malls, t_star)
    assert rep.verdict == "degenerate"
    assert float(np.max(rep.norms)) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    worst = max(max(v) for v in errs.values())
    _report("AC1", f"both routes track W_t(-1/2+2t-t^2/2): worst pathwise err "
                   f"{worst:.2e} < 1e-2 (1e5 paths, 256 steps); Malliavin norm at "
                   f"t=2-sqrt(3) {np.max(rep.norms):.2e} < 1e-4; {elapsed:.1f}s")


def test_ac2_cubic_z_pathwise_and_density(cubic, cubic_grids, cubic_z1_samples):
    su, sp = cubic_grids
    ens = fl.simulate_forward(cubic, 100000, 256, seed=42)
    worst = 0.0
    for t in (0.25, 0.75):
        k = ens.index_of(t)
        x = ens.X[:, k]
        z_hat = sp.eval(t, x) * 1.0
        z_star = cubic.oracle.z(t, x)
        rel = float(np.max(np.abs(z_hat - z_star) / np.abs(z_star)))
        worst = max(worst, rel)
        assert rel < 2e-2, f"relative Z error {rel} at t={t}"
    # reconstruction of the law of Z_1 = 3 W_1^2
    sam = pde_z_sampler(cubic, sp, 1.0, n_steps=64)
    gf = estimate_gF(sam, n_mc=100000, seed=43)
    de = density_from_gF(gf)
    zs = de.x_nodes
    exact = np.exp(-zs / 6.0) / math.sqrt(2 * math.pi) / np.sqrt(3 * zs)
    q05, q95 = 3 * 0.003932140000019513, 3 * 3.841458820694124
    m = (zs >= q05) & (zs <= q95)
    sup = float(np.max(np.abs(de.rho[m] - exact[m])))
    assert sup < 0.05, f"density sup error {sup}"
    _report("AC2", f"Z matches 3W_t^2+6(1-t) pathwise, worst rel err {worst:.2e} "
                   f"< 2e-2; reconstructed density of Z_1 sup err {sup:.3f} < 0.05 "
                   f"on the central 90% range ({int(np.sum(m))} nodes)")


def test_ac3_quadratic_sanity(quad_exp, quad_grids):
    su, sp = quad_grids
    w = np.linspace(-2.5, 2.5, 11)
    z_pde = sp.eval(0.5, w)
    z_ref = quad_exp.oracle.z(0.5, w)
    err = float(np.max(np.abs(z_pde - z_ref)))
    assert err < 5e-3, f"gradient-route error {err} vs quadrature ratio"

    # bounded terminal condition, a.e. twice differentiable with g'' >= 0
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
    _report("AC3", f"gradient route matches E[g' e^g | F]/E[e^g | F] at 11 states, "
                   f"max err {err:.2e} < 5e-3; Z-criterion holds for convex-piece "
                   f"terminal (margin {rep.margin:.3f})")


def test_ac4_criteria_boundaries(counter):
    below = first_order_check(counter, T_FLIP - 1e-3)["H+"]
    above = first_order_check(counter, T_FLIP + 1e-3)["H+"]
    assert below.verdict == "fails" and above.verdict == "holds"
    root = second_order_check(counter, T_ROOT)["Htilde+"]
    assert abs(root.margin) < 1e-9
    for t in (0.1, 0.45, 0.9):
        m = second_order_check(counter, t)["Htilde+"].margin
        assert m == pytest.approx(-t * t / 2 + 2 * t - 0.5, abs=1e-12)
    _report("AC4", f"first-order verdict flips across (3-sqrt(5))/2 within 1e-3; "
                   f"second-order margin at 2-sqrt(3) is {root.margin:.1e} (<1e-9), "
                   f"and equals -t^2/2+2t-1/2 along the grid")


def test_ac5_gaussian_closure():
    t0 = time.time()
    gf = estimate_gF(brownian_terminal_sampler(1.0, 64), n_mc=100000, seed=44)
    assert np.all(gf.values >= 0.98) and np.all(gf.values <= 1.02)
    de = density_from_gF(gf)
    mask = np.abs(de.x_nodes) <= 2.0
    phi = np.exp(-de.x_nodes[mask] ** 2 / 2) / math.sqrt(2 * math.pi)
    sup = float(np.max(np.abs(de.rho[mask] - phi)))
    assert sup < 0.02
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report("AC5", f"g_F for W_1 within [0.98, 1.02] (range [{gf.values.min():.4f}, "
                   f"{gf.values.max():.4f}]); density sup err {sup:.4f} < 0.02 on "
                   f"[-2,2]; {elapsed:.1f}s")


def test_ac6_malliavin_brute_force(counter, cubic, quad_exp, counter_grids,
                                   cubic_grids, quad_grids):
    tol = lambda ref: np.maximum(5e-2 * np.abs(ref), 1e-3)
    lines = []
    # Lipschitz presets: every path must agree
    for name, spec, grids, n in (("ex_counter", counter, counter_grids, 4096),
                                 ("ex_cubic", cubic, cubic_grids, 4096)):
        su, sp = grids
        ens = fl.simulate_forward(spec, n, 32, seed=45)
        r, t = 4 / 32, 20 / 32
        m = fl.solve_malliavin_bsde(spec, ens, (su, sp), r=r, times=[t])
        fd = fl.malliavin_fd(spec, ens, su, r=r, t=t)
        d = np.abs(m.at(t) - fd)
        assert np.all(d <= tol(fd)), f"{name}: worst excess {np.max(d / tol(fd)):.2f}"
        lines.append(f"{name} all {n} paths (max |diff| {np.max(d):.1e})")
    # quadratic preset: checked on the central 98% of states, where the
    # projection noise stays below the absolute floor
    su, sp = quad_grids
    ens = fl.simulate_forward(quad_exp, 100000, 32, seed=46)
    r, t = 8 / 32, 16 / 32
    m = fl.solve_malliavin_bsde(quad_exp, ens, (su, sp), r=r, times=[t],
                                basis=BasisSpec(kind="pwlinear", n_knots=32,
                                                knots="uniform"))
    fd = fl.malliavin_fd(quad_exp, ens, su, r=r, t=t)
    x = ens.X[:, ens.index_of(t)]
    lo, hi = np.quantile(x, [0.01, 0.99])
    mask = (x >= lo) & (x <= hi)
    d = np.abs(m.at(t) - fd)[mask]
    assert np.all(d <= tol(fd[mask])), \
        f"ex_quad_exp: worst excess {np.max(d / tol(fd[mask])):.2f}"
    lines.append(f"ex_quad_exp central 98% of {mask.size} paths "
                 f"(max |diff| {np.max(d):.1e})")
    _report("AC6", "finite-difference increments match the weight route within "
                   "max(5e-2 rel, 1e-3 abs): " + "; ".join(lines))


def test_ac7_growth_rate_suite():
    r3 = growth_rate(lambda x: x**3, (1e2, 1e4))
    assert abs(r3.alpha_bar - 3.0) <= 0.05 and abs(r3.alpha_under - 3.0) <= 0.05
    rs = growth_rate(lambda x: x**2 * np.sin(x), (1e2, 1e4))
    assert abs(rs.alpha_bar - 2.0) <= 0.1 and abs(rs.alpha_under - 2.0) <= 0.1
    from test_tails import pathological
    rp = growth_rate(pathological, (2.0, 1e7))
    assert rp.alpha_bar - rp.alpha_under > 0.5
    inv, (lo, hi) = invert_monotone(lambda x: x**3, (1.0, 1e4))
    ri = growth_rate(inv, (max(lo, 1.0), hi * 0.99), branches="pos")
    bound = inverse_growth_bound(r3.alpha_under, 0.1)
    assert ri.alpha_bar <= bound + 0.05
    _report("AC7", f"rates: x^3 -> ({r3.alpha_bar:.2f}, {r3.alpha_under:.2f}); "
                   f"x^2 sin x -> ({rs.alpha_bar:.2f}, {rs.alpha_under:.2f}); "
                   f"piecewise-power splits ({rp.alpha_bar:.2f} vs "
                   f"{rp.alpha_under:.2f}); inverse rate {ri.alpha_bar:.2f} <= "
                   f"bound {bound:.2f}")


def test_ac8_tail_envelopes(cubic, cubic_grids, cubic_z1_samples):
    su, sp = cubic_grids
    consts = compute_constants(sp, 1.0, 0.01, 0.01, 2.0,
                               rate_window=(0.1, 11.5), branch="pos")
    z = cubic_z1_samples
    mean = float(np.mean(z))
    mad = float(np.mean(np.abs(z - mean)))
    nodes = np.quantile(z, np.linspace(0.001, 0.9995, 240))
    env = envelope(1.0, consts, {"mean": mean, "mad": mad}, nodes,
                   form="corollary", target="Z")
    assert env.gamma < 1.0 and 0.0 < env.p1 < 2.0
    outside = np.abs(nodes) > env.y0
    assert np.any(outside)
    assert np.all(env.lower[outside] <= env.upper[outside] + 1e-12)
    est, se, _ = empirical_density(z, nodes[outside])
    n_out = int(np.sum(outside))
    z_simult = 2.575829 + math.sqrt(2 * math.log(max(n_out, 2))) * 0.0  # Bonferroni below
    from scipy.stats import norm as _norm
    z_simult = float(_norm.ppf(1.0 - 0.01 / (2 * n_out)))
    assert np.all(est + z_simult * se <= env.upper[outside])
    # constant cross-checks at 1e-8
    zgrid = np.linspace(-12, 12, 2_000_001)
    brute = np.trapezoid(np.exp(-zgrid**2 / 2) / math.sqrt(2 * math.pi) / (1 + zgrid**2), zgrid)
    assert abs(mu_integral(2.0) - brute) < 1e-8
    assert abs(delta_const(0.5) - math.sqrt(2.0)) < 1e-12
    import scipy.integrate as si
    gq = si.quad(lambda s: s ** 0.5 * math.exp(-s), 0, np.inf)[0]  # Gamma(1.5)
    assert abs(xi_const(2.0) - 2.0 * gq / (2 * math.sqrt(math.pi))) < 1e-8
    _report("AC8", f"corollary envelope (gamma={env.gamma:.3f}, p1={env.p1:.2f}, "
                   f"y0={env.y0:.2f}) dominates the KDE of Z_1 at 99% simultaneous "
                   f"confidence on {n_out} nodes beyond y0; lower <= upper; "
                   f"Xi/mu/delta cross-checks pass at 1e-8")


AC9_CONFIG = """
[model]
preset = ex_cubic
[numerics]
seed = 9
n_paths = 3000
n_steps = 64
nt = 81
nx = 241
x_lo = -12
x_hi = 12
n_mc = 3000
[tasks]
run = solve, criteria, density, tails, oracle-compare
criteria_times = 0.25, 0.5
criteria_checks = first-order, second-order
density_target = Z
density_t = 0.5
tails_target = Z
tails_t = 1.0
[output]
timestamps = false
"""


def test_ac9_determinism(tmp_path):
    from fbsdelab.cli import run
    from fbsdelab.config import parse_config

    cfg = parse_config(AC9_CONFIG)
    m1 = run(cfg, out_dir=tmp_path / "r1")
    m2 = run(cfg, out_dir=tmp_path / "r2")
    assert m1["ok"] and m2["ok"]
    names = sorted(f["path"] for f in m1["files"]) + ["manifest.json"]
    for name in names:
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identically-seeded runs"
    _report("AC9", f"two full-pipeline runs with identical seeds produced "
                   f"byte-identical files ({len(names)} files, all five tasks)")
