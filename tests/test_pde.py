import math
import warnings

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.errors import ConfigError, DivergenceError, SolverError
from fbsdelab.pde import GridSpec, GridSolution

from conftest import make_spec


def _mesh(grid):
    return np.meshgrid(grid.t_nodes, grid.x_nodes, indexing="ij")


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.0, 1.0]), np.array([0.0, 1.0]))  # too few x nodes
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.0, 1.0]), np.array([0.0, 0.5, 0.7]))  # non-uniform
    with pytest.raises(ConfigError):
        GridSpec(np.array([0.0, 1.0]), np.linspace(0, 1, 5), boundary="weird")


def test_counter_u_error_below_1e3(counter):
    # 200 x 400 nodes on [0,1] x [-6,6]
    grid = GridSpec(np.linspace(0, 1, 200), np.linspace(-6, 6, 400))
    sol = fl.solve_u(counter, grid)
    T, X = _mesh(grid)
    assert np.max(np.abs(sol.u - counter.oracle.u(T, X))) < 1e-3


def test_constant_terminal_constant_solution():
    kappa = 2.5
    spec = make_spec(g=lambda x: kappa + 0.0 * np.asarray(x, dtype=float))
    grid = fl.default_grid(spec, nt=41, nx=101)
    sol = fl.solve_u(spec, grid)
    np.testing.assert_allclose(sol.u, kappa, atol=1e-12)


def test_quad_exp_cole_hopf_oracle(quad_exp, quad_grids):
    # u(t,x) = log E[exp(g(x + W_{T-t}))] via >= 64-node quadrature
    grid, su, _ = quad_grids
    T, X = _mesh(grid)
    interior = np.abs(X) <= 4.5
    oracle = quad_exp.oracle.y(T, X)
    assert np.max(np.abs(su.u - oracle)[interior]) < 1e-3


def test_uprime_heat_cubic():
    # h == 0, g = x^3: u'(t,x) = 3x^2 + 3(T-t) by the Gaussian moment identity
    spec = make_spec(g=lambda x: np.asarray(x, dtype=float) ** 3,
                     g1=lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
                     g2=lambda x: 6.0 * np.asarray(x, dtype=float))
    grid = fl.default_grid(spec, nt=101, nx=601, x_lo=-12, x_hi=12)
    sol = fl.solve_u_prime(spec, grid)
    T, X = _mesh(grid)
    interior = np.abs(X) <= 5
    exact = 3 * X**2 + 3 * (1 - T)
    assert np.max(np.abs(sol.u - exact)[interior]) < 2e-3


def test_uprime_counter_constant_in_x(counter, counter_grids):
    grid, su, sp = counter_grids
    T, X = _mesh(grid)
    exact = counter.oracle.u_x(T, X)
    assert np.max(np.abs(sp.u - exact)) < 1e-10


def test_uprime_zero_terminal_slope():
    spec = make_spec(g=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     g1=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    grid = fl.default_grid(spec, nt=41, nx=101)
    sol = fl.solve_u_prime(spec, grid)
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-12)


def test_udoubleprime_heat_cubic():
    spec = make_spec(g=lambda x: np.asarray(x, dtype=float) ** 3,
                     g1=lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
                     g2=lambda x: 6.0 * np.asarray(x, dtype=float))
    grid = fl.default_grid(spec, nt=101, nx=601, x_lo=-12, x_hi=12)
    sol = fl.solve_u_doubleprime(spec, grid)
    T, X = _mesh(grid)
    interior = np.abs(X) <= 5
    assert np.max(np.abs(sol.u - 6 * X)[interior]) < 1e-9


def test_udoubleprime_zero_preserved(quad_exp):
    # g'' == 0 with h_zz >= 0: zero is a solution and the scheme keeps it
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    spec = fl.preset("ex_quad_exp", g=lambda x: 0.3 + 0.0 * np.asarray(x, dtype=float),
                     g1=zero, g2=zero)
    grid = fl.default_grid(spec, nt=41, nx=101)
    sol = fl.solve_u_doubleprime(spec, grid)
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-12)


def test_udoubleprime_quad_exp_vs_quadrature(quad_exp, quad_grids):
    # second difference of the exponential-transform oracle, tol 5e-3
    grid, su, sp = quad_grids
    spp = fl.solve_u_doubleprime(quad_exp, grid, sol_u=su, sol_uprime=sp)
    ts = np.array([0.25, 0.5, 0.75])
    xs = np.linspace(-3, 3, 25)
    dh = 1e-3
    for t in ts:
        zplus = quad_exp.oracle.z(t, xs + dh)
        zminus = quad_exp.oracle.z(t, xs - dh)
        uxx = (zplus - zminus) / (2 * dh)
        got = spp.eval(t, xs)
        assert np.max(np.abs(got - uxx)) < 5e-3


def test_udoubleprime_blowup_gate():
    # h_zz far above the smallness window must trigger the divergence gate
    spec = make_spec(
        g=lambda x: np.tanh(np.asarray(x, dtype=float)) + 0.2 * np.asarray(x, dtype=float) ** 2 / (1 + np.asarray(x, dtype=float) ** 2),
        h=lambda t, x, y, z: 40.0 * np.asarray(z, dtype=float) ** 2,
        regime="quadratic")
    grid = fl.default_grid(spec, nt=201, nx=201)
    with pytest.raises((DivergenceError, SolverError)):
        fl.solve_u_doubleprime(spec, grid)


def test_eval_yz_examples(cubic, cubic_grids, counter, counter_grids):
    grid3, su3, sp3 = cubic_grids
    # bilinear interpolation carries an O(dx^2) curvature bias between nodes
    res = fl.eval_yz(su3, sp3, cubic, 0.5, 1.0)
    assert res.y == pytest.approx(4.0, abs=1e-3)
    assert res.z == pytest.approx(6.0, abs=1e-3)
    assert not res.extrapolated
    # terminal row reproduces g exactly at the grid nodes
    xn = float(grid3.x_nodes[650])
    res_T = fl.eval_yz(su3, sp3, cubic, 1.0, xn)
    assert res_T.y == pytest.approx(xn**3, abs=1e-12)
    # counter at the degenerate time: y = 0 for all x
    gridc, suc, spc = counter_grids
    # t* sits between grid rows; linear-in-time interpolation leaves O(dt^2)
    t_star = 2.0 - math.sqrt(3.0)
    for x in (-3.0, 0.0, 2.0):
        assert abs(fl.eval_yz(suc, spc, counter, t_star, x).y) < 1e-4
    # out-of-box query carries the extrapolation flag
    assert fl.eval_yz(su3, sp3, cubic, 0.5, 99.0).extrapolated


def test_grid_refinement_convergence(quad_exp):
    # halving dx and dt cuts the max oracle error by >= 3
    errs = []
    for nt, nx in ((51, 101), (101, 201)):
        grid = fl.default_grid(quad_exp, nt=nt, nx=nx)
        sol = fl.solve_u(quad_exp, grid)
        T, X = _mesh(grid)
        interior = np.abs(X) <= 4
        errs.append(np.max(np.abs(sol.u - quad_exp.oracle.y(T, X))[interior]))
    assert errs[1] < errs[0] / 3.0


def test_monotonicity_positive_slope():
    # g' >= 0 and h_x >= 0 keep u_x nonnegative
    spec = make_spec(g=lambda x: np.tanh(np.asarray(x, dtype=float)),
                     g1=lambda x: 1 / np.cosh(np.asarray(x, dtype=float)) ** 2,
                     h=lambda t, x, y, z: 0.1 * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float))
    grid = fl.default_grid(spec, nt=81, nx=201)
    sol = fl.solve_u(spec, grid)
    assert np.min(sol.u_x) > -1e-8


def test_selfconsistency_ux_columns(quad_grids):
    # u_x equals centered differences of u (construction invariant)
    _, su, _ = quad_grids
    dx = su.x_nodes[1] - su.x_nodes[0]
    manual = (su.u[:, 2:] - su.u[:, :-2]) / (2 * dx)
    np.testing.assert_allclose(su.u_x[:, 1:-1], manual, atol=1e-12)


def test_terminal_rows(cubic, cubic_grids):
    grid, su, sp = cubic_grids
    np.testing.assert_allclose(su.u[-1], cubic.g(grid.x_nodes), atol=0)
    np.testing.assert_allclose(sp.u[-1], cubic.d("g1")(grid.x_nodes), atol=0)


def test_dirichlet_boundary_runs(counter):
    grid = fl.default_grid(counter, nt=41, nx=101, boundary="dirichlet")
    sol = fl.solve_u(counter, grid)
    # edges pinned at the terminal values
    np.testing.assert_allclose(sol.u[:, 0], counter.g(grid.x_nodes[0]), atol=1e-12)


def test_explicit_scheme_cfl_guard(counter):
    grid = fl.default_grid(counter, nt=11, nx=401)
    with pytest.raises(ConfigError):
        fl.solve_u(counter, grid, theta=0.0)


def test_binary_roundtrip(tmp_path, counter_grids):
    _, su, _ = counter_grids
    p = tmp_path / "sol.bin"
    su.to_binary(p)
    back = GridSolution.from_binary(p)
    np.testing.assert_array_equal(back.u, su.u)
    np.testing.assert_array_equal(back.x_nodes, su.x_nodes)


def test_csv_export(tmp_path, counter_grids):
    _, su, _ = counter_grids
    p = tmp_path / "sol.csv"
    su.to_csv(p, header_lines=["seed=0"])
    lines = p.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "t,x,u,u_x,u_xx"
    assert len(lines) == 2 + su.u.size


def test_csv_export_bytes_match_row_format(tmp_path):
    # one "%.17g" row per node, t-major: the bytes any faster formatter must keep
    spec = fl.preset("ex_cubic")
    su = fl.solve_u(spec, fl.default_grid(spec, nt=5, nx=7))
    p = tmp_path / "sol.csv"
    su.to_csv(p, header_lines=["a", "b"])
    rows = ["# a", "# b", "t,x,u,u_x,u_xx"]
    for i, t in enumerate(su.t_nodes):
        for j, x in enumerate(su.x_nodes):
            rows.append("%.17g,%.17g,%.17g,%.17g,%.17g"
                        % (t, x, su.u[i, j], su.u_x[i, j], su.u_xx[i, j]))
    assert p.read_text() == "\n".join(rows) + "\n"


def _eval_reference(sol, t, x, array=None):
    # np.interp inside the box, the first/last two nodes' line outside it
    x = np.asarray(x, dtype=float)
    r = sol.row(t, array)
    xn = sol.x_nodes
    dx = xn[1] - xn[0]
    out = np.interp(x, xn, r)
    out = np.where(x < xn[0], r[0] + (r[1] - r[0]) / dx * (x - xn[0]), out)
    return np.where(x > xn[-1], r[-1] + (r[-1] - r[-2]) / dx * (x - xn[-1]), out)


def test_eval_matches_interp_reference(cubic_grids, quad_grids):
    rng = np.random.default_rng(11)
    for grid, su, sp in (cubic_grids, quad_grids):
        xn = grid.x_nodes
        width = xn[-1] - xn[0]
        x = np.concatenate([
            rng.uniform(xn[0], xn[-1], 5000),
            xn, np.nextafter(xn, -np.inf), np.nextafter(xn, np.inf),
            rng.uniform(xn[0] - width, xn[0], 200), rng.uniform(xn[-1], xn[-1] + width, 200),
            [xn[0], xn[-1]]])
        for sol, array in ((su, None), (su, su.u_x), (sp, None), (sp, sp.u_x)):
            for t in (0.0, 1.0, grid.t_nodes[7], 0.3141, rng.uniform()):
                assert np.array_equal(sol.eval(t, x, array=array),
                                      _eval_reference(sol, t, x, array))
    _, su, _ = quad_grids
    xn = su.x_nodes
    for x in (xn[-1], 0.123, xn[0] - 1.0, xn[-1] + 2.0):
        for arg in (x, np.float64(x), np.array(x)):
            got = su.eval(0.4, arg)
            assert np.shape(got) == () and got == _eval_reference(su, 0.4, x)
    x2 = rng.uniform(xn[0] - 1, xn[-1] + 1, (3, 7))
    assert np.array_equal(su.eval(0.4, x2), _eval_reference(su, 0.4, x2))


def test_eval_flag_and_nan(quad_grids):
    _, su, _ = quad_grids
    xn = su.x_nodes
    inside = np.array([xn[0], 0.0, xn[-1]])
    assert su.eval(0.5, inside, return_flag=True)[1] is False
    assert su.eval(0.5, [xn[0] - 1e-9], return_flag=True)[1] is True
    assert su.eval(0.5, [xn[-1] + 1e-9], return_flag=True)[1] is True
    assert su.eval(1.5, inside, return_flag=True)[1] is True
    assert np.array_equal(su.eval(0.5, inside, return_flag=True)[0], su.eval(0.5, inside))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = su.eval(0.5, np.array([np.nan, 0.0, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == _eval_reference(su, 0.5, 0.0)


def test_grid_solution_requires_uniform_x(tmp_path, counter_grids):
    _, su, _ = counter_grids
    args = (su.u, su.u_x, su.u_xx, "u", 0.5, "extrapolation")
    x = su.x_nodes.copy()
    x[5] += 1e-6 * (x[1] - x[0])
    with pytest.raises(ConfigError):
        GridSolution(su.t_nodes, x, *args)
    with pytest.raises(ConfigError):
        GridSolution(su.t_nodes, su.x_nodes[::-1], *args)
    # a spacing error at the 1e-9 relative level passes, as for GridSpec
    x = su.x_nodes.copy()
    x[5] += 1e-11 * (x[1] - x[0])
    GridSolution(su.t_nodes, x, *args)
    # from_binary checks the nodes it reads
    p = tmp_path / "sol.bin"
    su.to_binary(p)
    raw = bytearray(p.read_bytes())
    at = 8 + 20 + 8 * (su.t_nodes.size + 5)
    raw[at:at + 8] = np.array([su.x_nodes[5] + 0.01], dtype="<f8").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        GridSolution.from_binary(p)


def test_non_finite_system_raises_evaluation_error_at_its_node(monkeypatch):
    # h = x + log(x^2)*y is NaN on x = 0, a node of the 121-point grid: the
    # solve names the node and is not retried at theta = 1
    spec = fl.expression_spec(b="0", sigma="1", g="x", h="x + log(x^2)*y", f=None, T=1.0, X0=0.0)
    grid = fl.default_grid(spec, nt=9, nx=121)
    thetas, sweep = [], fl.pde._backward_sweep
    monkeypatch.setattr(fl.pde, "_backward_sweep", lambda g, term, coef, theta, *rest:
                        thetas.append(theta) or sweep(g, term, coef, theta, *rest))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(fl.errors.EvaluationError) as exc:
            fl.solve_u(spec, grid)
    assert exc.value.witness == (0.875, 0.0) and thetas == [0.5]
    assert "(t, x) = (0.875, 0)" in str(exc.value)
