import dataclasses
import math

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.errors import BasisError, EvaluationError, PreconditionError
from fbsdelab.mc import (STREAM_COUPLING, BasisSpec, _euler, _ridge_fit, malliavin_dx,
                         rng_stream)

from conftest import make_spec


def test_forward_exact_for_unit_coefficients(counter):
    ens = fl.simulate_forward(counter, 500, 64, seed=1)
    W = np.cumsum(ens.dW, axis=1)
    np.testing.assert_allclose(ens.X[:, 1:], W, atol=1e-14)
    assert np.all(ens.X[:, 0] == 0.0)
    assert ens.sanity_ok()


def test_forward_variance_ci(counter):
    ens = fl.simulate_forward(counter, 100000, 16, seed=2)
    v = float(np.var(ens.X[:, -1]))
    assert 0.98 <= v <= 1.02


def test_forward_geometric_moment():
    spec = make_spec(b=lambda t, x: 0.1 * np.asarray(x, dtype=float),
                     sigma=lambda t, x: 0.2 * np.asarray(x, dtype=float),
                     X0=1.0)
    ens = fl.simulate_forward(spec, 100000, 128, seed=3)
    m = float(np.mean(ens.X[:, -1]))
    se = float(np.std(ens.X[:, -1])) / math.sqrt(ens.n_paths)
    # Euler weak bias is O(dt); allow it on top of three standard errors
    assert abs(m - math.exp(0.1)) <= 3 * se + 5e-4


def test_forward_determinism_and_streams(counter):
    a = fl.simulate_forward(counter, 64, 32, seed=7)
    b = fl.simulate_forward(counter, 64, 32, seed=7)
    c = fl.simulate_forward(counter, 64, 32, seed=8)
    d = fl.simulate_forward(counter, 64, 32, seed=7, stream=STREAM_COUPLING)
    np.testing.assert_array_equal(a.dW, b.dW)
    assert not np.array_equal(a.dW, c.dW)
    assert not np.array_equal(a.dW, d.dW)


def test_forward_preconditions(counter):
    with pytest.raises(PreconditionError):
        fl.simulate_forward(counter, 0, 8, seed=0)
    bad = make_spec(b=lambda t, x: np.asarray(x, dtype=float) * np.nan)
    with pytest.raises(EvaluationError) as exc:
        fl.simulate_forward(bad, 4, 4, seed=0)
    assert exc.value.witness is not None


def test_antithetic_pairs(counter):
    ens = fl.simulate_forward(counter, 64, 16, seed=5, antithetic=True)
    np.testing.assert_allclose(ens.dW[:32], -ens.dW[32:], atol=0)


def test_draw_increments_blocks_equal_one_draw():
    # consecutive blocks of paths are one (n, N) draw, held time-major; n is
    # odd and not a multiple of the block
    from fbsdelab.mc import _DRAW_BLOCK, _draw_increments

    n, N, dt = 2 * _DRAW_BLOCK + 1001, 8, 1.0 / 8
    one = rng_stream(3, 0).standard_normal((n, N)) * math.sqrt(dt)
    dW = _draw_increments(3, 0, n, N, dt)
    assert dW.shape == (n, N) and dW.T.flags.c_contiguous
    assert np.array_equal(dW, one)
    half = (n + 1) // 2
    base = rng_stream(3, 0).standard_normal((half, N))
    anti = _draw_increments(3, 0, n, N, dt, antithetic=True)
    assert np.array_equal(anti, np.vstack([base, -base])[:n] * math.sqrt(dt))


@pytest.mark.parametrize("antithetic", [False, True])
def test_forward_increments_and_lsmc_are_time_major(counter, antithetic):
    n, N = 1001, 8
    ens = fl.simulate_forward(counter, n, N, seed=6, antithetic=antithetic)
    base = rng_stream(6, 0).standard_normal(((n + 1) // 2 if antithetic else n, N))
    draw = np.vstack([base, -base])[:n] if antithetic else base
    assert np.array_equal(ens.dW, draw * math.sqrt(1.0 / N))
    sol = fl.solve_bsde_regression(counter, ens)
    for k in range(N):
        for a in (ens.dW, ens.X, sol.Y, sol.Z):
            assert a[:, k].flags.c_contiguous
    assert sol.Y[:, N].flags.c_contiguous


def test_lsmc_constant_terminal():
    spec = make_spec(g=lambda x: 1.5 + 0.0 * np.asarray(x, dtype=float))
    ens = fl.simulate_forward(spec, 2000, 16, seed=4)
    sol = fl.solve_bsde_regression(spec, ens)
    # exact up to the ridge shrinkage of the per-step projections
    np.testing.assert_allclose(sol.Y, 1.5, atol=1e-5)
    np.testing.assert_allclose(sol.Z, 0.0, atol=1e-4)
    np.testing.assert_array_equal(sol.Y[:, -1], spec.g(ens.X[:, -1]))


def test_lsmc_counter_slope(counter):
    ens = fl.simulate_forward(counter, 50000, 128, seed=6)
    sol = fl.solve_bsde_regression(counter, ens)
    k = ens.index_of(0.5)
    A = np.vstack([np.ones(ens.n_paths), ens.X[:, k]]).T
    slope = np.linalg.lstsq(A, sol.Y[:, k], rcond=None)[0][1]
    assert slope == pytest.approx(0.375, abs=0.01)


def test_lsmc_cubic_mean_z(cubic):
    # E[Z_{0.5}] = 3*0.5 + 3 = 4.5
    ens = fl.simulate_forward(cubic, 50000, 128, seed=7)
    sol = fl.solve_bsde_regression(cubic, ens)
    k = ens.index_of(0.5)
    z = sol.Z[:, k]
    se = float(np.std(z)) / math.sqrt(len(z))
    assert abs(float(np.mean(z)) - 4.5) <= 3 * se + 5e-3


def test_lsmc_scheme_error_decreases(counter):
    errs = []
    for n_steps in (16, 64):
        ens = fl.simulate_forward(counter, 40000, n_steps, seed=8)
        sol = fl.solve_bsde_regression(counter, ens)
        err = 0.0
        for t in np.linspace(0.1, 0.9, 10):
            k = ens.index_of(t, nearest=True)
            tk = ens.t_grid[k]
            err = max(err, float(np.max(np.abs(sol.Y[:, k] - counter.oracle.y(tk, ens.X[:, k])))))
        errs.append(err)
    assert errs[1] < errs[0]


def test_lsmc_quadratic_truncation_warns(quad_exp):
    ens = fl.simulate_forward(quad_exp, 2000, 16, seed=9)
    sol = fl.solve_bsde_regression(quad_exp, ens, z_cap=1e-4)
    assert sol.saturation_rate > 0.01
    assert sol.warnings


def test_ridge_fit_nonfinite_raises():
    A = np.ones((8, 2))
    with pytest.raises(BasisError):
        _ridge_fit(A, np.full(8, np.nan), 1e-8)


def test_pwlinear_basis_fits_smooth():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20000)
    y = np.tanh(x) + 0.01 * rng.standard_normal(20000)
    from fbsdelab.mc import _regress
    fitted, _ = _regress(BasisSpec(kind="pwlinear", n_knots=40), x, y)
    mask = np.abs(x) < 2.5
    assert float(np.max(np.abs(fitted - np.tanh(x))[mask])) < 0.02


def test_variational_unit_and_exponential(counter):
    ens = fl.simulate_forward(counter, 200, 64, seed=10)
    nabla = fl.variational_processes(counter, ens)
    np.testing.assert_allclose(nabla, 1.0, atol=0)
    dx = malliavin_dx(counter, ens, nabla, 16)
    np.testing.assert_allclose(dx[:, 16:], 1.0, atol=0)
    # b_x = beta, sigma_x = 0: nablaX_t = e^{beta t} up to Euler error
    beta = 0.5
    spec = make_spec(b=lambda t, x: beta * np.asarray(x, dtype=float))
    ens2 = fl.simulate_forward(spec, 200, 256, seed=11)
    nabla2 = fl.variational_processes(spec, ens2)
    np.testing.assert_allclose(nabla2[:, -1], math.exp(beta), rtol=1e-3)


def test_variational_geometric_flow():
    spec = make_spec(sigma=lambda t, x: 0.2 * np.asarray(x, dtype=float), X0=1.0)
    ens = fl.simulate_forward(spec, 300, 64, seed=12)
    nabla = fl.variational_processes(spec, ens)
    dx = malliavin_dx(spec, ens, nabla, 8)
    # finite-difference sigma_x wobble (~1e-11) compounds through the flow
    np.testing.assert_allclose(dx[:, 8:], 0.2 * ens.X[:, 8:], rtol=1e-8)


def test_malliavin_counter_r_independence(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 3000, 32, seed=13)
    m1 = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.125)
    m2 = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.25)
    for t in (0.5, 0.75):
        a, b = m1.at(t), m2.at(t)
        assert float(np.max(np.abs(a - b))) < 1e-6
        c = counter.oracle.z(t, 0.0)
        np.testing.assert_allclose(a, c, atol=1e-6)


def test_malliavin_zero_for_flat_terminal():
    spec = make_spec(g=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     g1=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=101)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid)
    ens = fl.simulate_forward(spec, 500, 16, seed=14)
    m = fl.solve_malliavin_bsde(spec, ens, (su, sp), r=0.25)
    np.testing.assert_allclose(m.at(0.5), 0.0, atol=1e-12)


def test_malliavin_cubic_pathwise(cubic, cubic_grids):
    _, su, sp = cubic_grids
    ens = fl.simulate_forward(cubic, 20000, 40, seed=15)
    m = fl.solve_malliavin_bsde(cubic, ens, (su, sp), r=0.2)
    w = ens.X[:, ens.index_of(0.6)]
    target = 3 * w**2 + 6 * (1 - 0.6)
    rel = np.abs(m.at(0.6) - target) / np.abs(target)
    # projection noise concentrates on the extreme-leverage paths
    assert float(np.max(rel[np.abs(w) <= 3.0])) < 2e-2
    assert float(np.max(rel)) < 5e-2


def test_malliavin_positivity_under_plus_package():
    # g' >= 0 and h_x >= 0 propagate a nonnegative derivative of Y
    spec = make_spec(g=lambda x: np.tanh(np.asarray(x, dtype=float)) + 1.2 * np.asarray(x, dtype=float),
                     g1=lambda x: 1 / np.cosh(np.asarray(x, dtype=float)) ** 2 + 1.2,
                     h=lambda t, x, y, z: 0.3 * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float))
    grid = fl.default_grid(spec, nt=81, nx=201)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    ens = fl.simulate_forward(spec, 4000, 32, seed=16)
    m = fl.solve_malliavin_bsde(spec, ens, (su, sp), r=0.25)
    assert float(np.min(m.at(0.5))) > -1e-6


def test_malliavin_weight_kurtosis_gate(quad_exp, quad_grids):
    _, su, sp = quad_grids
    ens = fl.simulate_forward(quad_exp, 2000, 16, seed=17)
    m = fl.solve_malliavin_bsde(quad_exp, ens, (su, sp), r=0.25, kurtosis_gate=0.1)
    assert any("kurtosis" in w for w in m.warnings)


def test_malliavin_restricted_times(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 1000, 32, seed=18)
    m = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.25, times=[0.5])
    assert np.all(np.isfinite(m.at(0.5)))
    assert np.all(np.isnan(m.DrY[:, ens.index_of(0.75)]))
    with pytest.raises(PreconditionError):
        fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.5, times=[0.25])


def test_malliavin_r_past_horizon(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 100, 16, seed=19)
    with pytest.raises(PreconditionError):
        fl.solve_malliavin_bsde(counter, ens, (su, sp), r=1.5)


def test_z_from_malliavin_counter(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 2000, 32, seed=20)
    m = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.5)
    t, z = fl.z_from_malliavin(m)
    assert t == pytest.approx(0.5 + 1 / 32)
    np.testing.assert_allclose(z, counter.oracle.z(t, 0.0), atol=1e-6)


def test_z_from_malliavin_martingale_representation():
    # h == 0, g = x, X = W: Z == 1
    spec = make_spec(g1=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=101)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid)
    ens = fl.simulate_forward(spec, 500, 16, seed=21)
    m = fl.solve_malliavin_bsde(spec, ens, (su, sp), r=0.5)
    _, z = fl.z_from_malliavin(m)
    np.testing.assert_allclose(z, 1.0, atol=1e-10)


def test_z_from_malliavin_quad_exp(quad_exp, quad_grids):
    # matches the exponential-transform ratio at the sampled states, tol 5e-3;
    # the heavy-ish Girsanov weights of the quadratic driver put the knot-level
    # standard error near 2e-3 even at this sample size, hence the bulk range
    _, su, sp = quad_grids
    ens = fl.simulate_forward(quad_exp, 400000, 32, seed=22)
    m = fl.solve_malliavin_bsde(quad_exp, ens, (su, sp), r=0.5, times=[0.5 + 1 / 32],
                                basis=BasisSpec(kind="pwlinear", n_knots=32,
                                                knots="uniform"))
    t, z = fl.z_from_malliavin(m)
    w = ens.X[:, ens.index_of(t)]
    target = quad_exp.oracle.z(t, w)
    inner = np.abs(w) <= 1.5
    assert float(np.max(np.abs(z - target)[inner])) < 5e-3


def test_second_malliavin_cubic(cubic, cubic_grids):
    _, su, sp = cubic_grids
    ens = fl.simulate_forward(cubic, 2000, 32, seed=23)
    res = fl.second_malliavin(cubic, su, sp, ens, r=0.25, s=0.5)
    np.testing.assert_allclose(res.D2X[:, ens.index_of(0.5):], 0.0, atol=0)
    k = ens.index_of(0.75)
    w = ens.X[:, k]
    np.testing.assert_allclose(res.D2Y[:, k], 6 * w, atol=2e-3)
    # D_r Z via the s -> t limit equals u_xx sigma D_r X = 6 W_t
    np.testing.assert_allclose(res.DrZ[:, k], 6 * w, atol=2e-3)


def test_second_malliavin_counter_zero(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 500, 32, seed=24)
    res = fl.second_malliavin(counter, su, sp, ens, r=0.25, s=0.5)
    k = ens.index_of(0.75)
    np.testing.assert_allclose(res.D2Y[:, k], 0.0, atol=1e-8)


def test_second_malliavin_needs_uprime(counter, counter_grids):
    _, su, _ = counter_grids
    ens = fl.simulate_forward(counter, 100, 16, seed=25)
    with pytest.raises(PreconditionError):
        fl.second_malliavin(counter, su, None, ens, r=0.25, s=0.5)


def test_euler_variations_match_central_differences():
    # with dW fixed, nablaX_T and nabla2X_T are the exact x0-derivatives of
    # the discrete map x0 -> X_T, so central differences pin them down
    spec = fl.ModelSpec(
        b=lambda t, x: np.sin(x), sigma=lambda t, x: 1.0 + 0.3 * np.tanh(x),
        g=lambda x: x, h=lambda t, x, y, z: 0.0 * x, T=1.0, X0=0.4,
        partials={"b_x": lambda t, x: np.cos(x), "b_xx": lambda t, x: -np.sin(x),
                  "sigma_x": lambda t, x: 0.3 / np.cosh(x) ** 2,
                  "sigma_xx": lambda t, x: -0.6 * np.tanh(x) / np.cosh(x) ** 2})
    dt = 1.0 / 64
    dW = rng_stream(31, 0).standard_normal((4000, 64)) * math.sqrt(dt)
    X, nabla, nabla2 = _euler(spec, dW, spec.X0, 0.0, dt, order=2)
    assert X.shape == nabla.shape == nabla2.shape == (65, 4000)

    def x_T(x0):
        return _euler(spec, dW, x0, 0.0, dt)[0][-1]

    h1, h2 = 1e-5, 1e-4
    d1 = (x_T(spec.X0 + h1) - x_T(spec.X0 - h1)) / (2 * h1)
    d2 = (x_T(spec.X0 + h2) - 2 * X[-1] + x_T(spec.X0 - h2)) / h2**2
    np.testing.assert_allclose(nabla[-1], d1, atol=1e-7)
    np.testing.assert_allclose(nabla2[-1], d2, atol=1e-5)


def test_second_malliavin_geometric(counter_grids):
    # sigma = a x, b = 0: D_r X_t = a X_t and D^2_{r,s} X_t = a^2 X_t
    a = 0.3
    spec = fl.ModelSpec(
        b=lambda t, x: 0.0 * x, sigma=lambda t, x: a * np.asarray(x, dtype=float),
        g=lambda x: x, h=lambda t, x, y, z: 0.0 * x, T=1.0, X0=1.0,
        partials={"b_x": lambda t, x: 0.0 * x, "b_xx": lambda t, x: 0.0 * x,
                  "sigma_x": lambda t, x: a + 0.0 * x, "sigma_xx": lambda t, x: 0.0 * x})
    _, su, sp = counter_grids  # D2X does not read the grids
    ens = fl.simulate_forward(spec, 500, 32, seed=28)
    res = fl.second_malliavin(spec, su, sp, ens, r=0.25, s=0.5)
    k = ens.index_of(0.5)
    np.testing.assert_allclose(res.D2X[:, k:], a * a * ens.X[:, k:], rtol=1e-8)
    assert np.all(np.isnan(res.D2X[:, :k]))


def test_malliavin_fd_counter(counter, counter_grids):
    _, su, sp = counter_grids
    ens = fl.simulate_forward(counter, 1000, 32, seed=26)
    m = fl.solve_malliavin_bsde(counter, ens, (su, sp), r=0.25)
    fd = fl.malliavin_fd(counter, ens, su, r=0.25, t=0.75)
    assert float(np.max(np.abs(fd - m.at(0.75)))) < 1e-4


def test_cross_route_agreement(cubic, cubic_grids):
    # regression route vs value-grid route at interior points; the combined
    # tolerance is statistical on the regression side, so assert in bulk
    grid, su, sp = cubic_grids
    ens = fl.simulate_forward(cubic, 30000, 64, seed=27)
    sol = fl.solve_bsde_regression(cubic, ens)
    k = ens.index_of(0.5)
    x = ens.X[:, k]
    inner = np.abs(x) <= 3.0
    diff = np.abs(sol.Y[:, k] - su.eval(0.5, x))[inner]
    assert float(np.quantile(diff, 0.99)) < 5e-2
    assert float(np.median(diff)) < 1e-2


def test_ensemble_csv(tmp_path, counter):
    ens = fl.simulate_forward(counter, 3, 4, seed=28)
    p = tmp_path / "paths.csv"
    ens.to_csv(p)
    head = p.read_text().splitlines()[0]
    assert "seed=28" in head


def test_ensemble_csv_bytes_match_row_format(tmp_path, counter):
    # the path index is an integer, and "%.17g" writes it as "%d" does
    ens = fl.simulate_forward(counter, 3, 4, seed=28)
    ens.to_csv(tmp_path / "paths.csv", header_lines=["a", "b"])
    rows = ["# seed=28 stream=0 n_paths=3 n_steps=4", "# a", "# b", "path,t,x"]
    rows += ["%d,%.17g,%.17g" % (i, t, ens.X[i, k])
             for i in range(3) for k, t in enumerate(ens.t_grid)]
    assert (tmp_path / "paths.csv").read_text() == "\n".join(rows) + "\n"


def test_ensemble_binary_layout(tmp_path, counter):
    import struct

    ens = fl.simulate_forward(counter, 5, 8, seed=29)
    p = tmp_path / "paths.bin"
    ens.to_binary(p)
    raw = p.read_bytes()
    assert raw[:8] == b"FBLPATH1"
    version, n_paths, n_steps, seed, stream = struct.unpack("<IQQqq", raw[8:44])
    assert (version, n_paths, n_steps, seed, stream) == (1, 5, 8, 29, 0)
    floats = np.frombuffer(raw[44:], dtype="<f8")
    assert floats.size == 9 + 5 * 8 + 5 * 9
    np.testing.assert_array_equal(floats[:9], ens.t_grid)


def _restep(spec, ens, order):
    # the variations re-stepped together with X from the increments
    return _euler(spec, ens.dW, ens.X[:, 0], ens.t_grid[0], ens.dt, order)


@pytest.mark.parametrize("model", ["cubic", "sin"])
def test_variations_from_held_paths_match_restep(model, cubic, cubic_grids, monkeypatch):
    from fbsdelab import mc

    spec = cubic if model == "cubic" else fl.expression_spec(
        b="sin(x)", sigma="1 + 0.3*tanh(x)", g="x", h="0", f=None, T=1.0, X0=0.4)
    _, su, sp = cubic_grids
    ens = fl.simulate_forward(spec, 600, 32, seed=41)
    held = mc._variations(spec, ens, order=2)
    assert np.shares_memory(held[0], ens.X)
    nabla = fl.variational_processes(spec, ens)
    second = fl.second_malliavin(spec, su, sp, ens, r=0.25, s=0.5)
    monkeypatch.setattr(mc, "_variations", _restep)
    for a, b in zip(held, _restep(spec, ens, order=2)):
        assert np.array_equal(a, b)
    assert np.array_equal(nabla, fl.variational_processes(spec, ens))
    again = fl.second_malliavin(spec, su, sp, ens, r=0.25, s=0.5)
    assert np.array_equal(second.D2X, again.D2X, equal_nan=True)
    assert np.array_equal(second.D2Y, again.D2Y, equal_nan=True)


def _opaque_twin(spec, names=("b", "sigma", "b_x", "sigma_x", "b_xx", "sigma_xx")):
    # the same callables behind lambdas: the kernel cannot read their trees
    def wrap(fn):
        return lambda *args: fn(*args)

    coeffs = {k: wrap(getattr(spec, k)) for k in ("b", "sigma") if k in names}
    partials = {k: wrap(v) if k in names else v for k, v in spec.partials.items()}
    return dataclasses.replace(spec, partials=partials, **coeffs)


@pytest.mark.parametrize("order", [1, 2])
def test_fixed_variations_match_the_stepped_flow(cubic, order):
    from fbsdelab import mc

    dt = 1.0 / 64
    dW = rng_stream(5, 0).standard_normal((400, 64)) * math.sqrt(dt)
    assert mc._fixed_variations(cubic) == 2
    # all four partials opaque; only b_xx and sigma_xx opaque (nablaX fixed,
    # nabla2X stepped with a unit growth factor)
    for twin, fixed in ((_opaque_twin(cubic), 0), (_opaque_twin(cubic, ("b_xx", "sigma_xx")), 1)):
        assert mc._fixed_variations(twin) == fixed
        got, want = _euler(cubic, dW, 0.0, 0.0, dt, order), _euler(twin, dW, 0.0, 0.0, dt, order)
        assert len(got) == len(want) == order + 1
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        X = got[0]
        held = _euler(cubic, dW, None, 0.0, dt, order, X=X)
        assert held[0] is X
        for a, b in zip(held[1:], want[1:]):
            assert np.array_equal(a, b)
    for fixed_variation in got[1:]:
        assert fixed_variation.strides == (0, 0)
        with pytest.raises(ValueError):
            fixed_variation[3, 2] = 2.0


@pytest.mark.parametrize("t", [1.5, -0.25])
def test_index_of_rejects_times_outside_horizon(counter, t):
    ens = fl.simulate_forward(counter, 10, 8, seed=1)
    for nearest in (False, True):
        with pytest.raises(PreconditionError, match=rf"t={t:g} lies outside \[0, T\] = \[0, 1\]"):
            ens.index_of(t, nearest=nearest)
    assert ens.index_of(1.0 + 5e-10, nearest=True) == 8
