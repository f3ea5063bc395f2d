import math

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.density import (ConditionalSpec, DensityEstimate, GFunction,
                              bouleau_hirsch_diagnostic, brownian_terminal_sampler,
                              density_from_gF, estimate_gF, gaussian_integral_sampler,
                              pde_y_sampler, pde_z_sampler, _loclin)
from fbsdelab.errors import EvaluationError, PreconditionError

from conftest import make_spec


def _norm_pdf(x, var=1.0):
    return np.exp(-x**2 / (2 * var)) / math.sqrt(2 * math.pi * var)


def test_gF_brownian_terminal_unit():
    gf = estimate_gF(brownian_terminal_sampler(1.0, 32), n_mc=20000, seed=1)
    assert float(np.max(np.abs(gf.values - 1.0))) < 0.02
    assert gf.clip_rate == 0.0


def test_gF_brownian_terminal_scaling():
    gf = estimate_gF(brownian_terminal_sampler(4.0, 32), n_mc=20000, seed=2)
    assert float(np.max(np.abs(gf.values - 4.0))) < 0.08


def test_gF_gaussian_integral_closure():
    # F = int cos(r) dW: g_F is constant ||f||^2 with small dispersion
    f = lambda r: np.cos(np.asarray(r, dtype=float))
    gf = estimate_gF(gaussian_integral_sampler(f, 1.0, 64), n_mc=20000, seed=3)
    norm2 = 0.5 * (1.0 + math.sin(2.0) / 2.0)
    cv = float(np.std(gf.values) / np.mean(gf.values))
    assert cv < 0.05
    assert abs(float(np.mean(gf.values)) - norm2) / norm2 < 0.03


def test_gF_counter_y_constant(counter, counter_grids):
    # derivative path is 0.375 on [0, 0.5]: g_F == 0.5 * 0.375^2
    _, su, sp = counter_grids
    sam = pde_y_sampler(counter, su, 0.5, n_steps=32, sol_uprime=sp)
    gf = estimate_gF(sam, n_mc=5000, seed=4)
    np.testing.assert_allclose(gf.values, 0.5 * 0.375**2, rtol=1e-6)


def test_density_from_constant_g_is_normal():
    nodes = np.linspace(-2.8, 2.8, 81)
    gf = GFunction(nodes, np.ones_like(nodes), np.zeros_like(nodes),
                   np.ones_like(nodes, dtype=bool), 0.3, 0.0,
                   math.sqrt(2 / math.pi), 10_000, 0)
    de = density_from_gF(gf)
    mask = np.abs(de.x_nodes) <= 2
    assert float(np.max(np.abs(de.rho[mask] - _norm_pdf(de.x_nodes[mask])))) < 0.02
    assert de.verdict == "ok"
    # scaled variance: g == t gives the centered normal with variance t
    t = 0.49
    gf_t = GFunction(nodes, np.full_like(nodes, t), np.zeros_like(nodes),
                     np.ones_like(nodes, dtype=bool), 0.3, 0.0,
                     math.sqrt(2 * t / math.pi), 10_000, 0)
    de_t = density_from_gF(gf_t)
    assert float(np.max(np.abs(de_t.rho[mask] - _norm_pdf(de_t.x_nodes[mask], t)))) < 0.02


def test_density_w1_estimated(counter):
    gf = estimate_gF(brownian_terminal_sampler(1.0, 32), n_mc=50000, seed=5)
    de = density_from_gF(gf)
    mask = np.abs(de.x_nodes) <= 2.0
    assert float(np.max(np.abs(de.rho[mask] - _norm_pdf(de.x_nodes[mask])))) < 0.02
    assert de.normalization_defect <= 0.02


def test_density_symmetry_within_ci():
    gf = estimate_gF(brownian_terminal_sampler(1.0, 32), n_mc=50000, seed=6)
    de = density_from_gF(gf)
    x = de.x_nodes
    mirrored = np.interp(-x, x, de.rho)
    ci = np.maximum(de.ci_high - de.rho, 1e-4)
    inner = np.abs(x) <= 2.0
    assert np.all(np.abs(de.rho - mirrored)[inner] <= 2 * ci[inner] + 2e-3)


def test_cubic_z1_density(cubic, cubic_grids):
    _, su, sp = cubic_grids
    sam = pde_z_sampler(cubic, sp, 1.0, n_steps=32)
    gf = estimate_gF(sam, n_mc=50000, seed=7)
    z = gf.x_nodes + gf.mean_F
    np.testing.assert_allclose(gf.values, 6 * z, rtol=2e-2, atol=5e-4)
    de = density_from_gF(gf)
    zs = de.x_nodes
    exact = _norm_pdf(np.sqrt(zs / 3.0)) / np.sqrt(3 * zs)
    q05, q95 = 3 * 0.00393214, 3 * 3.84145882
    m = (zs >= q05) & (zs <= q95)
    assert float(np.max(np.abs(de.rho[m] - exact[m]))) < 0.05
    assert de.normalization_defect <= 0.02


def test_cubic_y_half_gF_matches_closed_form(cubic):
    # Y_1/2 = phi(X_1/2), phi(x) = x^3 + 3x, X_1/2 ~ N(0, 1/2), has
    # g_F(phi(x)) = 1.5 (x^2 + 1)(x^2 + 4), x the real (Cardano) root of phi(x) = y.
    # Bound: over seeds 1-10 at these sizes the largest relative error on the
    # reliable nodes read 0.039-0.065; 0.10 is that spread's top with 50 % room.
    grid = fl.default_grid(cubic, nt=101, nx=401, x_lo=-12.0, x_hi=12.0)
    su = fl.solve_u(cubic, grid)
    sp = fl.solve_u_prime(cubic, grid, sol_u=su)
    sam = pde_y_sampler(cubic, su, 0.5, n_steps=32, sol_uprime=sp)
    gf = estimate_gF(sam, n_mc=4096, n_u_nodes=8, seed=1)
    y = gf.x_nodes + gf.mean_F
    s = np.sqrt(0.25 * y * y + 1.0)
    x = np.cbrt(0.5 * y + s) + np.cbrt(0.5 * y - s)
    exact = 1.5 * (x * x + 1.0) * (x * x + 4.0)
    m = gf.reliable
    assert np.count_nonzero(m) >= 90
    assert float(np.max(np.abs(gf.values[m] - exact[m]) / exact[m])) < 0.10


def test_estimate_gF_unreliable_nodes_flagged():
    gf = estimate_gF(brownian_terminal_sampler(1.0, 16), n_mc=300, seed=9,
                     cond=ConditionalSpec(min_count=200))
    assert not np.all(gf.reliable)


def test_density_undetermined_on_nonpositive_g():
    nodes = np.linspace(-1, 1, 21)
    vals = np.ones_like(nodes)
    vals[10] = 0.0
    gf = GFunction(nodes, vals, np.zeros_like(nodes),
                   np.ones_like(nodes, dtype=bool), 0.3, 0.0, 0.8, 100, 0)
    de = density_from_gF(gf)
    assert de.verdict == "existence-undetermined"
    assert de.rho is None


def test_gfunction_invariants():
    nodes = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        GFunction(nodes, -np.ones_like(nodes), np.zeros_like(nodes),
                  np.ones_like(nodes, dtype=bool), 0.3, 0.0, 0.8, 10, 0)
    with pytest.raises(ValueError):
        GFunction(nodes[::-1], np.ones_like(nodes), np.zeros_like(nodes),
                  np.ones_like(nodes, dtype=bool), 0.3, 0.0, 0.8, 10, 0)


def _counter_bh(counter, counter_grids, t, n_paths=2000):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, n_paths, 64, seed=10)
    k_t = ens.index_of(t, nearest=True)
    t_snap = float(ens.t_grid[k_t])
    malls = [fl.solve_malliavin_bsde(counter, ens, (su, sp), r=r, times=[t_snap])
             for r in (1 / 64, 8 / 64, 16 / 64)]
    return bouleau_hirsch_diagnostic(malls, t_snap)


def test_bh_degenerate_at_root(counter, counter_grids):
    t_star = 2.0 - math.sqrt(3.0)
    rep = _counter_bh(counter, counter_grids, t_star)
    assert rep.verdict == "degenerate"
    assert float(np.max(rep.norms)) < 1e-4


def test_bh_supports_density_away_from_root(counter, counter_grids):
    rep = _counter_bh(counter, counter_grids, 0.9)
    assert rep.verdict == "supports-density"
    # norm == t * coefficient(t)^2 at the snapped grid time
    c = float(counter.oracle.z(rep.t, 0.0))
    np.testing.assert_allclose(rep.norms, rep.t * c**2, atol=1e-6)
    assert rep.t * c**2 == pytest.approx(0.9 * 0.895**2, abs=0.02)


def test_bh_degenerate_flat_terminal():
    spec = make_spec(g=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     g1=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=101)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid)
    ens = fl.simulate_forward(spec, 500, 32, seed=11)
    malls = [fl.solve_malliavin_bsde(spec, ens, (su, sp), r=r, times=[0.5])
             for r in (1 / 32, 8 / 32)]
    rep = bouleau_hirsch_diagnostic(malls, 0.5)
    assert rep.verdict == "degenerate"


def test_bh_requires_r_below_t(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 100, 16, seed=12)
    m = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.5, times=[0.5])
    with pytest.raises(PreconditionError):
        bouleau_hirsch_diagnostic([m], 0.5)


def test_existence_dichotomy():
    # whenever the Malliavin-norm diagnostic is degenerate, the reconstruction
    # must not claim a valid density for the same target
    spec = make_spec(g=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     g1=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=101)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid)
    ens = fl.simulate_forward(spec, 500, 32, seed=13)
    malls = [fl.solve_malliavin_bsde(spec, ens, (su, sp), r=r, times=[0.5])
             for r in (1 / 32, 8 / 32)]
    assert bouleau_hirsch_diagnostic(malls, 0.5).verdict == "degenerate"
    sam = pde_y_sampler(spec, su, 0.5, n_steps=32, sol_uprime=sp)
    with pytest.raises(PreconditionError):
        # the functional is a.s. constant: no node spread, no density claim
        estimate_gF(sam, n_mc=2000, seed=13)


def test_sampler_time_grid_guard(counter, counter_grids):
    _, su, sp = counter_grids
    with pytest.raises(PreconditionError):
        pde_y_sampler(counter, su, 0.123456, n_steps=16)


def test_csv_exports(tmp_path):
    gf = estimate_gF(brownian_terminal_sampler(1.0, 16), n_mc=2000, seed=14)
    de = density_from_gF(gf)
    gf.to_csv(tmp_path / "g.csv")
    de.to_csv(tmp_path / "d.csv")
    g_lines = (tmp_path / "g.csv").read_text().splitlines()
    assert g_lines[1] == "x,value,ci_low,ci_high"
    d_lines = (tmp_path / "d.csv").read_text().splitlines()
    assert d_lines[1].startswith("x,value")


def test_samplers_stop_at_t(cubic, cubic_grids, monkeypatch):
    # F and Phi read X and nablaX up to t only: the flow steps k_t rows, and
    # the first k_t steps give the bits of the full 64-step flow
    from fbsdelab import density, mc

    _, su, sp = cubic_grids
    dt = 1.0 / 64
    dW = mc.rng_stream(9, 0).standard_normal((500, 64)) * math.sqrt(dt)
    X, nabla = mc._euler(cubic, dW, cubic.X0, 0.0, dt, order=1)
    steps = []

    def counted(spec, rows, *args, **kw):
        steps.append(0)

        def rows_read():
            for row in rows:
                steps[-1] += 1
                yield row

        return mc._flow(spec, rows_read(), *args, **kw)

    def phi(r, slope):
        k = r.size - 1
        return (cubic.sigma(r[:, None], X[:k + 1]) / nabla[:k + 1] * (slope * nabla[k])).T

    monkeypatch.setattr(density, "_flow", counted)
    y = pde_y_sampler(cubic, su, 0.5, 64, sol_uprime=sp)
    F, Phi = y.evaluate(dW)
    xt = X[32]
    assert np.array_equal(F, su.row_spline(0.5)(xt))
    assert np.array_equal(Phi, phi(y.r_nodes, sp.row_spline(0.5)(xt)))
    z = pde_z_sampler(cubic, sp, 0.25, 64)
    F, Phi = z.evaluate(dW)
    xt = X[16]
    ux, uxx = sp.row_spline(0.25)(xt), sp.row_spline(0.25, sp.u_x)(xt)
    assert np.array_equal(F, ux * cubic.sigma(0.25, xt))
    slope = ux * cubic.d("sigma_x")(0.25, xt) + uxx * cubic.sigma(0.25, xt)
    assert np.array_equal(Phi, phi(z.r_nodes, slope))
    assert steps == [32, 16]


def test_gF_rotates_only_the_increments_the_sampler_reads(cubic, monkeypatch):
    # Y_1/2 on 64 steps reads k_t = 32 increments: the unrotated draws are
    # evaluated once, by one flow over their 32 contiguous rows, and the
    # projector gets the 32 columns of both blocks.  ex_cubic's b and sigma
    # read no x, so no rotated row is formed; the tanh model's flow reads 32
    # contiguous rows per each of the 2 x 4 antithetic rotations
    from fbsdelab import density, mc

    tanh = fl.expression_spec(b="-0.2*x", sigma="1 + 0.2*tanh(x)", g="x", h="0", f=None,
                              T=1.0, X0=0.3)
    reads, ends = [], []

    def counted_flow(spec, rows, *args, **kw):
        reads.append(0)

        def counted():
            for row in rows:
                assert row.shape == (500,) and row.flags.c_contiguous
                reads[-1] += 1
                yield row

        return mc._flow(spec, counted(), *args, **kw)

    def counted_end(*args):
        ends.append(1)
        return mc._rotated_end(*args)

    monkeypatch.setattr(density, "_flow", counted_flow)
    monkeypatch.setattr(density, "_rotated_end", counted_end)
    for spec, want_reads, want_ends in ((cubic, [32], [1]), (tanh, [32] * 9, [])):
        grid = fl.default_grid(spec, nt=21, nx=101, x_lo=-8.0, x_hi=8.0)
        sam = pde_y_sampler(spec, fl.solve_u(spec, grid), 0.5, 64)
        evaluate, projector, shapes = sam.evaluate, sam.projector, []
        reads.clear()
        ends.clear()

        def counted(dW):
            shapes.append(dW.shape)
            assert dW[:, 0].flags.c_contiguous
            return evaluate(dW)

        def counted_projector(phiw, dW, dWs):
            shapes.extend((dW.shape, dWs.shape))
            return projector(phiw, dW, dWs)

        sam.evaluate = counted
        sam.projector = counted_projector
        estimate_gF(sam, n_mc=500, n_u_nodes=4, seed=3)
        assert shapes == [(500, 32)] * 3
        assert reads == want_reads and ends == want_ends


@pytest.mark.parametrize("t", [-0.5, 1.5])
def test_samplers_reject_times_outside_horizon(counter, counter_grids, t):
    _, su, sp = counter_grids
    for make in (lambda: pde_y_sampler(counter, su, t, n_steps=16, sol_uprime=sp),
                 lambda: pde_z_sampler(counter, sp, t, n_steps=16)):
        with pytest.raises(PreconditionError, match=rf"t={t:g} lies outside \[0, T\] = \[0, 1\]"):
            make()


def test_gfunction_csv_bytes_match_row_format(tmp_path):
    x, v, se = np.array([-1.5, 1 / 3, 2.0]), np.array([0.01, 0.7, 1.1]), np.array([0.5, 0.1, 0.2])
    gf = GFunction(x, v, se, np.ones(3, dtype=bool), 0.3, 0.125, 2 / 3, 100, 5)
    gf.to_csv(tmp_path / "g.csv", header_lines=["a", "b"])
    rows = ["# a", "# b", "# mean_F=0.125 mad_F=%.17g bandwidth=%.17g n_mc=100 seed=5"
            % (2 / 3, 0.3), "x,value,ci_low,ci_high"]
    rows += ["%.17g,%.17g,%.17g,%.17g" % (xi, vi, max(vi - 1.96 * si, 0.0), vi + 1.96 * si)
             for xi, vi, si in zip(x, v, se)]
    assert (tmp_path / "g.csv").read_text() == "\n".join(rows) + "\n"


def test_density_csv_bytes_match_row_format(tmp_path):
    x, rho = np.array([-1.0, 0.1, 1 / 7]), np.array([0.2, 0.5, 1 / 3])
    lo, hi = 0.9 * rho, 1.1 * rho
    DensityEstimate(x, rho, lo, hi, 0.01, "ok").to_csv(
        tmp_path / "d.csv", header_lines=["a"])
    rows = ["# a", "# verdict=ok defect=0.01", "x,value,ci_low,ci_high"]
    rows += ["%.17g,%.17g,%.17g,%.17g" % r for r in zip(x, rho, lo, hi)]
    assert (tmp_path / "d.csv").read_text() == "\n".join(rows) + "\n"
    # no density: the comments and the column line only
    DensityEstimate(x, None, None, None, None, "existence-undetermined").to_csv(
        tmp_path / "u.csv", header_lines=["a"])
    assert (tmp_path / "u.csv").read_text() == (
        "# a\n# verdict=existence-undetermined defect=None\nx,value,ci_low,ci_high\n")


@pytest.mark.parametrize("bw", [1e-6, 1e-3])
def test_loclin_degenerate_windows_are_unreliable(bw):
    # windows with no draw, or with all their draws at one x, give neff = 0,
    # se = inf and a finite value, and no numpy warning
    gf = estimate_gF(brownian_terminal_sampler(1.0, 16), n_mc=300, seed=9,
                     cond=ConditionalSpec(bandwidth=bw))
    degenerate = np.isinf(gf.se)
    assert np.any(degenerate)
    assert not np.any(np.isnan(gf.se))
    assert not np.any(gf.reliable[degenerate])
    assert np.all(np.isfinite(gf.values))
    x = np.sort(np.random.default_rng(9).standard_normal(300))
    est, se, neff = _loclin(x, np.ones_like(x), np.array([x[0], x[0] + 1.0, 9.0]), bw)
    assert np.array_equal(np.isinf(se), neff == 0.0)
    # one draw in the window: the local constant; none: 0
    assert neff[0] == 0.0 and est[0] == 1.0
    assert neff[2] == 0.0 and est[2] == 0.0


@pytest.mark.parametrize("bw", [0.0, -0.1, math.nan])
def test_conditional_spec_refuses_a_bandwidth_that_is_not_finite_and_positive(bw):
    with pytest.raises(ValueError, match="bandwidth"):
        ConditionalSpec(bandwidth=bw)


def test_density_interval_of_an_infinite_se_node_is_zero_to_inf():
    # a caller-set bandwidth leaves nodes with value 0 and SE = inf among
    # reliable ones, where rho underflows to 0: no 0 * inf, no warning
    gf = estimate_gF(brownian_terminal_sampler(1.0, 16), n_mc=300, seed=9,
                     cond=ConditionalSpec(bandwidth=0.01, min_count=5))
    de = density_from_gF(gf)
    wide = np.isinf(gf.se)
    assert np.any(wide & (de.rho == 0.0))
    assert np.all(de.ci_low[wide] == 0.0) and np.all(np.isposinf(de.ci_high[wide]))
    rel = gf.se[~wide] / np.maximum(gf.values[~wide], 1e-300)
    assert np.array_equal(de.ci_low[~wide], np.maximum(de.rho[~wide] * (1.0 - 1.96 * rel), 0.0))
    assert np.array_equal(de.ci_high[~wide], de.rho[~wide] * (1.0 + 1.96 * rel))


def _dense_loclin(x, y, nodes, bw):
    """Local linear regression with the full Gaussian kernel, one (n, nodes) block."""
    d = x[:, None] - nodes[None, :]
    w = np.exp(-0.5 * (d / bw) ** 2)
    S0, S1, S2 = w.sum(axis=0), (w * d).sum(axis=0), (w * d * d).sum(axis=0)
    T0, T1 = (w * y[:, None]).sum(axis=0), (w * d * y[:, None]).sum(axis=0)
    den = S0 * S2 - S1**2
    a, b = (S2 * T0 - S1 * T1) / den, (S0 * T1 - S1 * T0) / den
    resid2 = ((y[:, None] - a - b * d) ** 2 * w).sum(axis=0) / S0
    l2 = (w**2 * (S2 - S1 * d) ** 2).sum(axis=0) / den**2
    return a, np.sqrt(resid2 * l2)


@pytest.mark.parametrize("law", ["normal", "chi2"])
def test_loclin_window_matches_dense_kernel(law):
    rng = np.random.default_rng(21)
    z = rng.standard_normal(2000)
    x = z if law == "normal" else z**2
    y = 2.0 + np.sin(x) + 0.3 * rng.standard_normal(x.size)
    nodes = np.unique(np.quantile(x, np.linspace(0.005, 0.995, 101)))
    bw = 1.06 * float(np.std(x)) * x.size ** (-0.2)
    est, se, _ = _loclin(x, y, nodes, bw)
    ref_est, ref_se = _dense_loclin(x, y, nodes, bw)
    np.testing.assert_allclose(est, ref_est, rtol=1e-7, atol=0)
    m = ref_se > 1e-8 * np.abs(ref_est)
    assert np.all(np.abs(se - ref_se)[m] <= 1e-6 * np.abs(ref_est[m]))


def test_gF_uses_trapezoid_weights_of_nonuniform_nodes():
    # Phi = f(r) is deterministic, so g_F is int f^2 dr on the sampler's own nodes
    T, n = 1.0, 24
    r = T * (np.arange(n + 1) / n) ** 2
    f = lambda r: 1.0 + np.sin(3.0 * r)

    def evaluate(dW):
        return dW @ np.linspace(1.0, 2.0, n), np.broadcast_to(f(r), (dW.shape[0], r.size))

    sam = fl.FunctionalSampler(T, n, r, evaluate)
    gf = estimate_gF(sam, n_mc=3000, n_u_nodes=8, seed=4)
    np.testing.assert_allclose(gf.values, np.trapezoid(f(r) ** 2, r), rtol=1e-12)


def test_gF_holds_one_rotated_phi_at_a_time(cubic):
    # a PDE sampler streams each rotation: no call of the projection allocates more
    # than a few (draws,) vectors (about 8 for the stepped tanh model: the rotated
    # row, the flow's step temporaries and the sum; fewer in ex_cubic's closed
    # form), against 33 for one (draws, nodes) block
    import tracemalloc
    import weakref

    tanh = fl.expression_spec(b="-0.2*x", sigma="1 + 0.2*tanh(x)", g="x", h="0", f=None,
                              T=1.0, X0=0.3)
    n = 4000
    for spec in (cubic, tanh):
        grid = fl.default_grid(spec, nt=21, nx=101, x_lo=-8.0, x_hi=8.0)
        sam = pde_y_sampler(spec, fl.solve_u(spec, grid), 0.5, 64)
        projector, peaks = sam.projector, []

        def traced_projector(phiw, dW, dWs):
            project = projector(phiw, dW, dWs)

            def traced(c, s):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                out = project(c, s)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
                return out

            return traced

        sam.projector = traced_projector
        tracemalloc.start()
        try:
            estimate_gF(sam, n_mc=n, n_u_nodes=4, seed=3)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 8 and max(peaks) <= 12 * 8 * n

    # a sampler with evaluate alone: every evaluation starts with no
    # derivative path of an earlier one alive
    sam, live, seen = brownian_terminal_sampler(1.0, 16), set(), []
    evaluate = sam.evaluate

    def tracked(dW):
        seen.append(len(live))
        F, Phi = evaluate(dW)
        live.add(id(Phi))
        weakref.finalize(Phi, live.discard, id(Phi))
        return F, Phi

    sam.evaluate = tracked
    estimate_gF(sam, n_mc=500, n_u_nodes=4, seed=3)
    assert seen == [0] * 9


@pytest.mark.parametrize("model", ["tanh", "cubic"])
def test_streamed_projection_matches_the_materialised_one(model, cubic, cubic_grids):
    # the streamed sum_r phiw[r] Phi(r) against rotate, evaluate and einsum;
    # b = -0.2 x, sigma = 1 + 0.2 tanh x steps nablaX, ex_cubic's closed form
    # fixes it at 1
    from fbsdelab import mc

    if model == "cubic":
        spec, (_, su, sp) = cubic, cubic_grids
    else:
        spec = fl.expression_spec(b="-0.2*x", sigma="1 + 0.2*tanh(x)", g="x", h="0", f=None,
                                  T=1.0, X0=0.3)
        assert mc._fixed_variations(spec) == 0
        grid = fl.default_grid(spec, nt=41, nx=201)
        su = fl.solve_u(spec, grid)
        sp = fl.solve_u_prime(spec, grid, sol_u=su)
    n, dt = 600, 1.0 / 64
    dW, dWs = (mc._draw_increments(17, s, n, 64, dt) for s in (0, 1))
    c = math.exp(-0.7)
    s = math.sqrt(1.0 - c * c)
    for sam in (pde_y_sampler(spec, su, 0.5, 64, sol_uprime=sp), pde_z_sampler(spec, sp, 1.0, 64)):
        k = sam.r_nodes.size
        h = np.diff(sam.r_nodes)
        phiw = np.ascontiguousarray(sam.evaluate(dW[:, :k - 1])[1].T
                                    * (0.5 * (np.pad(h, (0, 1)) + np.pad(h, (1, 0))))[:, None])
        for sg in (1.0, -1.0):
            rot = c * dW[:, :k - 1] + (sg * s) * dWs[:, :k - 1]
            want = np.einsum("ij,ji->i", sam.evaluate(rot)[1], phiw)
            got = sam.projector(phiw, dW[:, :k - 1], dWs[:, :k - 1])(c, sg * s)
            assert np.all(want != 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _rotation_reference(spec, sam, slope):
    """The per-rotation stepped projection, b and sigma evaluated at every step and node.

    It forms the rows c dW_k + s dW*_k, steps X and, unless b_x = sigma_x = 0
    fix it at 1, nablaX over them, accumulates phiw[k] sigma(r_k, X_k) /
    nablaX_k from zero, and multiplies the sum by slope(X_t) nablaX_t.
    """
    from fbsdelab import mc

    dt, r = spec.T / sam.n_steps, sam.r_nodes
    stepped = mc._fixed_variations(spec) == 0
    bx, sx = spec.d("b_x"), spec.d("sigma_x")

    def projector(phiw, dW, dWs):
        def project(c, s):
            n = phiw.shape[1]
            x, nabla, acc = np.full(n, spec.X0, dtype=float), 1.0, np.zeros(n)
            for k in range(r.size - 1):
                dw = c * dW[:, k] + s * dWs[:, k]
                acc += phiw[k] * spec.sigma(r[k], x) / nabla
                t = 0.0 + k * dt
                if stepped:
                    nabla = nabla * (1.0 + bx(t, x) * dt + sx(t, x) * dw)
                x = x + spec.b(t, x) * dt + spec.sigma(t, x) * dw
            acc += phiw[-1] * spec.sigma(r[-1], x) / nabla
            return acc * (slope(x) * nabla)

        return project

    return projector


@pytest.fixture(scope="module")
def rotation_cases(cubic, cubic_grids, counter, counter_grids, quad_exp, quad_grids):
    """name -> (spec, sampler, slope of F in X_t or None, whether X_t is in closed form)."""
    def solved(spec):
        grid = fl.default_grid(spec, nt=41, nx=201)
        su = fl.solve_u(spec, grid)
        return su, fl.solve_u_prime(spec, grid, sol_u=su)

    def y_case(spec, grids, t, closed):
        su, sp = grids
        return spec, pde_y_sampler(spec, su, t, 24, sol_uprime=sp), sp.row_spline(t), closed

    def z_case(spec, grids, t, closed):
        _, sp = grids
        ux, uxx, sx = sp.row_spline(t), sp.row_spline(t, sp.u_x), spec.d("sigma_x")
        return (spec, pde_z_sampler(spec, sp, t, 24),
                lambda x: ux(x) * sx(t, x) + uxx(x) * spec.sigma(t, x), closed)

    folded = fl.expression_spec(b="0.3", sigma="2", g="sin(x)", h="0", f=None, T=1.0, X0=0.1)
    timed = fl.expression_spec(b="t", sigma="1 + t", g="sin(x)", h="0", f=None, T=1.0, X0=0.1)
    tanh = fl.expression_spec(b="-0.2*x", sigma="1 + 0.2*tanh(x)", g="x", h="0", f=None,
                              T=1.0, X0=0.3)
    folded_grids, timed_grids, tanh_grids = solved(folded), solved(timed), solved(tanh)
    return {
        "cubic-Z1": z_case(cubic, cubic_grids[1:], 1.0, True),
        "cubic-Y0.5": y_case(cubic, cubic_grids[1:], 0.5, True),
        "counter-Y0.5": y_case(counter, counter_grids[1:], 0.5, True),
        "quad-Y0.5": y_case(quad_exp, quad_grids[1:], 0.5, True),
        "folded-Y0.5": y_case(folded, folded_grids, 0.5, True),
        "folded-Z1": z_case(folded, folded_grids, 1.0, True),
        "timed-Y0.5": y_case(timed, timed_grids, 0.5, True),
        "timed-Z1": z_case(timed, timed_grids, 1.0, True),
        "tanh-Y0.5": y_case(tanh, tanh_grids, 0.5, False),
        "brownian": (None, brownian_terminal_sampler(1.0, 24), None, False),
    }


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("case", ["cubic-Z1", "cubic-Y0.5", "counter-Y0.5", "quad-Y0.5",
                                  "folded-Y0.5", "folded-Z1", "timed-Y0.5", "timed-Z1",
                                  "tanh-Y0.5", "brownian"])
def test_gF_matches_the_per_rotation_projection_bit_for_bit(rotation_cases, case, antithetic):
    # b = -0.2 x, sigma = 1 + 0.2 tanh x steps X and nablaX over the rotated
    # rows, with the bits of the stepped reference; the Brownian sampler has
    # no streamed route and evaluates the rotated block, with the bits of
    # stacked rows.  Every other model has a b and sigma that read no x
    # (b = 0.3, sigma = 2 and b = t, sigma = 1 + t among them), and its
    # X_t = D + c S + s S* adds the increments in another order than the
    # reference: values and SE agree to rounding (measured: values within
    # 2.9e-13 relative, SE within 1.1e-15 absolute; ex_cubic's antithetic
    # Z_1 has g_F(F) = 6F draw by draw, so its SE, at most 3.6e-13, is
    # rounding itself), and every field set by F alone keeps its bits.
    # ex_counter's Y_1/2 has a constant slope, so X_t never reaches its
    # projection and every field keeps its bits
    import dataclasses

    from fbsdelab import mc

    spec, sam, slope, closed = rotation_cases[case]
    if spec is not None:
        assert mc._reads_no_x(spec) == closed
        reference = _rotation_reference(spec, sam, slope)
    else:
        def reference(phiw, dW, dWs):
            def project(c, s):
                rows = [c * a + s * b for a, b in zip(dW.T, dWs.T)]
                return np.einsum("ij,ji->i", sam.evaluate(np.stack(rows).T)[1], phiw)

            return project
    got = estimate_gF(sam, n_mc=2000, n_u_nodes=4, seed=5, antithetic=antithetic)
    want = estimate_gF(dataclasses.replace(sam, streamed=reference), n_mc=2000, n_u_nodes=4,
                       seed=5, antithetic=antithetic)
    for field in dataclasses.fields(GFunction):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if closed and case != "counter-Y0.5" and field.name in ("values", "se"):
            np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-13 * np.max(want.values),
                                       err_msg=field.name)
        else:
            assert np.array_equal(a, b), field.name


def test_closed_form_overflow_is_an_evaluation_error():
    # sigma = 1e308 reads no x: X_t = D + c S + s S* overflows on the paths
    # whose rotated increment sum exceeds 1.8 in size, which raises the
    # stepped flow's error type, here with witness (path, k_t)
    from fbsdelab import mc

    spec = fl.expression_spec(b="0", sigma="1e308", g="x", h="0", f=None, T=1.0, X0=0.0)
    assert mc._reads_no_x(spec)
    n, k_t, dt = 2000, 12, 1.0 / 24
    c, s = math.exp(-0.5), math.sqrt(1.0 - math.exp(-1.0))
    dW, dWs = (mc._draw_increments(3, stream, n, 24, dt)[:, :k_t] for stream in (0, 1))
    with pytest.raises(EvaluationError, match=r"non-finite state at path \d+, step \d+$"):
        for _ in mc._flow(spec, (c * a + s * b for a, b in zip(dW.T, dWs.T)), np.zeros(n),
                          0.0, dt):
            pass
    end = mc._rotated_end(spec, dW, dWs, dt)
    with pytest.raises(EvaluationError, match=rf"non-finite state at path \d+, step {k_t}$") as got:
        end(c, s)
    j = got.value.witness[0]
    assert got.value.witness == (j, k_t)
    assert abs(c * dW[j].sum() + s * dWs[j].sum()) > 1.7
