import math
import re
import warnings

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab.errors import ConfigError, DivergenceError, SolverError
from fbsdelab.pde import GridSpec, GridSolution

from conftest import assert_same_solution, make_spec, opaque


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


def _blowup_spec():
    return make_spec(
        g=lambda x: np.tanh(np.asarray(x, dtype=float)) + 0.2 * np.asarray(x, dtype=float) ** 2 / (1 + np.asarray(x, dtype=float) ** 2),
        h=lambda t, x, y, z: 40.0 * np.asarray(z, dtype=float) ** 2,
        regime="quadratic")


def test_udoubleprime_blowup_gate():
    # h_zz far above the smallness window must trigger the divergence gate
    spec = _blowup_spec()
    grid = fl.default_grid(spec, nt=201, nx=201)
    with pytest.raises((DivergenceError, SolverError)):
        fl.solve_u_doubleprime(spec, grid)


def test_picard_blowup_is_a_solver_error_retried_at_theta_one(monkeypatch):
    # h = 40z^2 is finite at every finite argument: the source overflows only
    # because the unconverged Picard iterates of the step at t = 0.995 grow
    # without bound, so the solve fails as the scheme's, retried at theta = 1
    spec = _blowup_spec()
    grid = fl.default_grid(spec, nt=201, nx=201)
    thetas, sweep = [], fl.pde._backward_sweep
    monkeypatch.setattr(fl.pde, "_backward_sweep", lambda g, term, coef, theta, *rest:
                        thetas.append(theta) or sweep(g, term, coef, theta, *rest))
    with pytest.raises(SolverError) as exc:
        fl.solve_u(spec, grid)
    assert thetas == [0.5, 1.0]
    found = re.fullmatch(r"non-finite system at t=0\.995 from a Picard iterate "
                         r"of max \|v\| = (\S+)", str(exc.value))
    assert found and 1e200 < float(found[1]) < np.inf


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


@pytest.mark.parametrize("name", ["counter", "cubic"])
def test_uprime_slope_is_the_closed_form_u_doubleprime(request, name):
    # the u'' that the Z sampler and the Malliavin routes read is the u' solve's
    # u_x; on the inner half of the box it is the oracle's u_xx
    spec, (grid, _, sp) = (request.getfixturevalue(f) for f in (name, f"{name}_grids"))
    xn = grid.x_nodes
    inner = np.abs(xn - 0.5 * (xn[0] + xn[-1])) <= 0.25 * (xn[-1] - xn[0])
    T, X = np.meshgrid(grid.t_nodes, xn[inner], indexing="ij")
    assert np.max(np.abs(sp.u_x[:, inner] - spec.oracle.u_xx(T, X))) < 1e-8


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
    # the header carries which, theta, boundary, max_iterations and fallback_used
    _, su, sp = counter_grids
    assert (sp.which, sp.theta, sp.boundary) == ("u_prime", 0.5, "extrapolation")
    spec = fl.preset("ex_counter")
    sd = fl.solve_u(spec, fl.default_grid(spec, nt=21, nx=41, boundary="dirichlet"), theta=1.0)
    special = np.array([[-0.0, 5e-324, np.nan], [np.inf, -np.inf, 1e300]])
    odd = GridSolution(np.array([0.0, 0.5]), np.array([-1.0, 0.0, 1.0]), special,
                       special[::-1].copy(), "u_doubleprime", 0.75, "dirichlet",
                       max_iterations=7, fallback_used=True)
    for k, sol in enumerate((su, sp, sd, odd)):
        p = tmp_path / f"sol{k}.bin"
        sol.to_binary(p)
        assert_same_solution(GridSolution.from_binary(p), sol)


@pytest.mark.parametrize("damage, message", [
    ("truncated", "holds {n} bytes; its header .* gives {size}"),
    ("trailing", "holds {n} bytes; its header .* gives {size}"),
    ("header", "holds {n} bytes, less than its 80-byte header"),
])
def test_damaged_binary_raises_config_error(tmp_path, counter_grids, damage, message):
    _, su, _ = counter_grids
    p = tmp_path / "sol.bin"
    su.to_binary(p)
    raw = p.read_bytes()
    size = 80 + 8 * (su.t_nodes.size + su.x_nodes.size + 2 * su.u.size)
    assert len(raw) == size
    data = {"truncated": raw[:-4], "trailing": raw + bytes(8), "header": raw[:40]}[damage]
    p.write_bytes(data)
    with pytest.raises(ConfigError, match=message.format(n=len(data), size=size)):
        GridSolution.from_binary(p)


def test_binary_version_1_and_foreign_files_are_refused(tmp_path, counter_grids):
    _, su, _ = counter_grids
    p = tmp_path / "sol.bin"
    su.to_binary(p)
    raw = p.read_bytes()
    # version 1: a 28-byte header (magic, version, nt, nx) and no recorded fields
    p.write_bytes(raw[:8] + (1).to_bytes(4, "little") + raw[12:28] + raw[80:])
    with pytest.raises(ConfigError, match="unsupported binary version 1"):
        GridSolution.from_binary(p)
    p.write_bytes(b"FBLGRID0" + raw[8:])
    with pytest.raises(ConfigError, match="not a grid-solution binary file"):
        GridSolution.from_binary(p)


def test_binary_version_2_is_refused(tmp_path, counter_grids):
    # version 3 holds t, x, u and u_x; version 2 had the same header and u_xx after u_x
    _, su, _ = counter_grids
    p = tmp_path / "sol.bin"
    su.to_binary(p)
    raw = p.read_bytes()
    assert raw[8:12] == (3).to_bytes(4, "little")
    p.write_bytes(raw[:8] + (2).to_bytes(4, "little") + raw[12:] + bytes(8 * su.u.size))
    with pytest.raises(ConfigError, match="unsupported binary version 2"):
        GridSolution.from_binary(p)


def test_csv_export(tmp_path, counter_grids):
    _, su, _ = counter_grids
    p = tmp_path / "sol.csv"
    su.to_csv(p, header_lines=["seed=0"])
    lines = p.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "t,x,u"
    assert len(lines) == 2 + su.u.size


def test_csv_export_bytes_match_row_format(tmp_path):
    # one "%.17g" row per node, t-major: the bytes any faster formatter must keep
    spec = fl.preset("ex_cubic")
    grid = fl.default_grid(spec, nt=5, nx=7)
    su = fl.solve_u(spec, grid)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    special = np.array([[-0.0, 5e-324, -5e-324, 1e300],
                        [-1e300, np.nan, np.inf, -np.inf]])
    odd = GridSolution(np.array([-0.0, 0.5]), np.array([-0.0, 1.0, 2.0, 3.0]), special,
                       special[::-1].copy(), "u", 0.5, "extrapolation")
    one_row = GridSolution(su.t_nodes[:1], su.x_nodes, su.u[:1], su.u_x[:1], "u", 0.5,
                           "extrapolation")
    for k, sol in enumerate((su, sp, odd, one_row)):
        p = tmp_path / f"sol{k}.csv"
        sol.to_csv(p, header_lines=["a", "b"])
        rows = ["# a", "# b", "t,x,u"]
        for i, t in enumerate(sol.t_nodes):
            for j, x in enumerate(sol.x_nodes):
                rows.append("%.17g,%.17g,%.17g" % (t, x, sol.u[i, j]))
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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_row_spline_matches_scipy_bit_for_bit(cubic_grids, quad_grids):
    # the cell by index arithmetic and scipy's sum order give CubicSpline's
    # bits, signed zeros included, inside, at and outside the box
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(12)
    block = fl.pde._SPLINE_BLOCK
    for grid, su, sp in (cubic_grids, quad_grids):
        xn = grid.x_nodes
        width = xn[-1] - xn[0]
        x = np.concatenate([
            rng.uniform(xn[0], xn[-1], 3000),
            xn, np.nextafter(xn, -np.inf), np.nextafter(xn, np.inf),
            rng.uniform(xn[0] - width, xn[0], 200), rng.uniform(xn[-1], xn[-1] + width, 200),
            [xn[0], xn[-1], np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]])
        for sol, array in ((su, None), (su, su.u_x), (sp, None), (sp, sp.u_x)):
            for t in (0.0, 1.0, grid.t_nodes[7], 0.3141, rng.uniform()):
                spline = sol.row_spline(t, array)
                with np.errstate(all="ignore"):
                    ref = CubicSpline(xn, sol.row(t, array))(x)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = spline(x)
                assert got.shape == x.shape and np.array_equal(_bits(got), _bits(ref))
    _, su, _ = quad_grids
    xn = su.x_nodes
    spline, ref = su.row_spline(0.4), CubicSpline(xn, su.row(0.4))
    for x in (xn[-1], 0.123, xn[0] - 1.0, xn[-1] + 2.0):
        for arg in (x, np.float64(x), np.array(x)):
            got = spline(arg)
            assert np.shape(got) == () and _bits(got) == _bits(ref(x))
    x2 = rng.uniform(xn[0] - 1, xn[-1] + 1, (3, 7))
    assert spline(x2).shape == (3, 7) and np.array_equal(_bits(spline(x2)), _bits(ref(x2)))
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        x = rng.uniform(xn[0] - 1, xn[-1] + 1, n)
        assert np.array_equal(_bits(spline(x)), _bits(ref(x)))
    # -x - x^2 - x^3 is -0.0 at the node 0, where each term of the sum is -0.0
    # too: scipy's sum starts at +0.0, so the node reads +0.0
    xs = np.linspace(-1.0, 1.0, 9)
    u = np.tile(-xs - xs**2 - xs**3, (2, 1))
    signed = GridSolution(np.array([0.0, 1.0]), xs, u, u, "u", 0.5, "extrapolation")
    got, ref = signed.row_spline(0.0)(xs), CubicSpline(xs, signed.row(0.0))(xs)
    assert np.signbit(u[0, 4]) and not np.signbit(got[4])
    assert np.array_equal(_bits(got), _bits(ref))


def test_eval_flag_and_nan(quad_grids):
    _, su, _ = quad_grids
    xn = su.x_nodes
    inside = np.array([xn[0], 0.0, xn[-1]])
    assert su.outside(0.5, inside) is False
    assert su.outside(0.5, [xn[0] - 1e-9]) is True
    assert su.outside(0.5, [xn[-1] + 1e-9]) is True
    assert su.outside(1.5, inside) is True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = su.eval(0.5, np.array([np.nan, 0.0, np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == _eval_reference(su, 0.5, 0.0)


def test_grid_solution_requires_uniform_x(tmp_path, counter_grids):
    _, su, _ = counter_grids
    args = (su.u, su.u_x, "u", 0.5, "extrapolation")
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
    at = 80 + 8 * (su.t_nodes.size + 5)
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


def test_centered_dx_of_a_row_is_the_row_of_the_grid_difference():
    # a 1-D row forms its two ends in Python floats, a grid in numpy arrays
    v = np.random.default_rng(3).standard_normal((5, 11)) * 10.0 ** np.arange(-5, 6)
    v[2, :3] = v[3, -3:] = 0.0, -0.0, np.inf
    grid = fl.pde._centered_dx(v, 0.3)
    for row, want in zip(v, grid):
        assert fl.pde._centered_dx(row, 0.3).tobytes() == want.tobytes()


def _reference_sweep(grid, terminal, coef_fn, theta, max_iter, tol, blowup_cap=None,
                     _reads_v=True):
    # the Picard loop as first written: the coefficients recomputed at t_old and
    # one scipy.linalg.solve_banded per iteration, delta = 0 confirmed by a solve;
    # the models compared below never reach its failure exits, so it has none.
    # Its sources are zeroed on the edge rows, which the sweep leaves to the
    # closure: bit equality shows that the pad changes nothing
    from scipy.linalg import solve_banded
    from fbsdelab.pde import _apply_operator

    def _src_pad(s):
        out = np.array(s, dtype=float, copy=True)
        out[0] = out[-1] = 0.0
        return out

    tn, dx = grid.t_nodes, grid.dx
    v_all = np.empty((tn.size, grid.nx))
    v_all[-1] = terminal
    max_used, w = 0, terminal.copy()
    for n in range(tn.size - 2, -1, -1):
        dt, t_new, t_old = tn[n + 1] - tn[n], tn[n], tn[n + 1]
        a2, a1, a0, s = coef_fn(t_old, w)
        explicit = w + dt * (1 - theta) * (_apply_operator(a2, a1, a0, w, dx) + _src_pad(s))
        v = w.copy()
        for m in range(max_iter):
            a2, a1, a0, s = coef_fn(t_new, v)
            rhs = explicit + dt * theta * _src_pad(s)
            ab = np.zeros((5, grid.nx))
            ww = dt * theta
            ab[2, 1:-1] = 1.0 - ww * (-2 * a2[1:-1] / dx**2 + a0[1:-1])
            ab[1, 2:] = -ww * (a2[1:-1] / dx**2 + a1[1:-1] / (2 * dx))
            ab[3, :-2] = -ww * (a2[1:-1] / dx**2 - a1[1:-1] / (2 * dx))
            ab[2, [0, -1]] = 1.0
            if grid.boundary == "extrapolation":
                ab[1, 1] = ab[3, -2] = -2.0
                ab[0, 2] = ab[4, -3] = 1.0
                rhs[[0, -1]] = 0.0
            else:
                rhs[[0, -1]] = terminal[[0, -1]]
            v_new = solve_banded((2, 2), ab, rhs, check_finite=False)
            delta = float(np.max(np.abs(v_new - v)) / (1.0 + np.max(np.abs(v_new))))
            v = v_new
            if delta < tol:
                max_used = max(max_used, m + 1)
                break
        v_all[n] = v
        w = v
    return v_all, max_used


_EXACTNESS_MODELS = {
    "ex_counter": lambda: fl.preset("ex_counter"),
    "ex_cubic": lambda: fl.preset("ex_cubic"),
    "ex_quad_exp": lambda: fl.preset("ex_quad_exp"),
    "tanh-sigma": lambda: fl.expression_spec(b="-0.2*x", sigma="1 + 0.2*tanh(x)", g="x",
                                             h="0.3*z + sin(y)", f=None, T=1.0, X0=0.0),
    # sigma reads t: the implicit matrix moves at every step and is factored anew
    "moving": lambda: fl.expression_spec(b="-0.2*x", sigma="1 + 0.5*t", g="x",
                                         h="0.3*z + sin(y)", f=None, T=1.0, X0=0.0),
    # no callable carries a tree: reads is None, nothing is evaluated once per solve
    "opaque-counter": lambda: opaque(fl.preset("ex_counter")),
}


@pytest.mark.parametrize("name", list(_EXACTNESS_MODELS))
def test_sweep_matches_reference_loop_bit_for_bit(monkeypatch, name):
    # reused coefficients and the solve skipped at an unmoved system change no
    # value and no iteration count of the loop that re-evaluates and re-solves
    sweep, compared = fl.pde._backward_sweep, []

    def both(*args):
        ref, got = _reference_sweep(*args), sweep(*args)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        compared.append(args[3])
        return got

    monkeypatch.setattr(fl.pde, "_backward_sweep", both)
    spec = _EXACTNESS_MODELS[name]()
    for boundary in ("extrapolation", "dirichlet"):
        grid = fl.default_grid(spec, nt=41, nx=101, boundary=boundary)
        for theta in (0.5, 1.0):
            su = fl.solve_u(spec, grid, theta=theta)
            sp = fl.solve_u_prime(spec, grid, sol_u=su, theta=theta)
        if name == "ex_cubic":
            fl.solve_u_doubleprime(spec, grid, sol_u=su, sol_uprime=sp)
    assert len(compared) == 8 + 2 * (name == "ex_cubic")


def _count_work(monkeypatch):
    from scipy.linalg import lapack

    counts = {"solves": 0, "evaluations": 0, "factorizations": 0}
    solve, sweep, dgbtrf = fl.pde._solve_implicit, fl.pde._backward_sweep, lapack.dgbtrf

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    def counted_dgbtrf(*args, **kwargs):
        counts["factorizations"] += 1
        return dgbtrf(*args, **kwargs)

    def counted_sweep(grid, terminal, coef, *rest):
        def counted_coef(*args):
            counts["evaluations"] += 1
            return coef(*args)
        return sweep(grid, terminal, counted_coef, *rest)

    monkeypatch.setattr(fl.pde, "_solve_implicit", counted_solve)
    monkeypatch.setattr(fl.pde, "_backward_sweep", counted_sweep)
    monkeypatch.setattr(lapack, "dgbtrf", counted_dgbtrf)
    return counts


def test_sweep_work_counts(monkeypatch, counter, quad_exp):
    # ex_counter's h = (t-2)x reads neither y nor z: one evaluation and one solve
    # per step, keyed by t alone, so the confirming iteration reuses it and the
    # explicit half-step reuses the step before's.  sigma = 1 and b = 0 fix the
    # matrix up to w = dt/2: linspace(0, 1, 201) has 9 step widths in bits,
    # which change 40 times along the sweep, and each is factored once (the
    # sweep's table holds 16); those of linspace(0, 1, 129) are equal
    counts = _count_work(monkeypatch)
    sol = fl.solve_u(counter, fl.default_grid(counter, nt=201, nx=401))
    assert counts == {"solves": 200, "evaluations": 201, "factorizations": 9}
    assert sol.max_iterations == 2
    counts.update(solves=0, evaluations=0, factorizations=0)
    sol = fl.solve_u(counter, fl.default_grid(counter, nt=129, nx=401))
    assert counts == {"solves": 128, "evaluations": 129, "factorizations": 1}
    # a driver quadratic in z moves the source at every iterate, not the matrix
    counts.update(solves=0, evaluations=0, factorizations=0)
    sol = fl.solve_u(quad_exp, fl.default_grid(quad_exp, nt=129, nx=401))
    assert counts == {"solves": 582, "evaluations": 710, "factorizations": 1}
    assert sol.max_iterations == 5
    # its u' solve: h_z = z moves a1, so every solve factors its own matrix
    counts.update(solves=0, evaluations=0, factorizations=0)
    sol = fl.solve_u_prime(quad_exp, fl.default_grid(quad_exp, nt=129, nx=401))
    assert counts == {"solves": 512, "evaluations": 640, "factorizations": 512}
    assert sol.max_iterations == 4
    # a constant g: each solve returns a new array with its iterate's bits, at
    # which the coefficients are not evaluated again (160 if they were)
    spec = fl.expression_spec(b="0", sigma="1", g="2.5", h="0.5*z^2", f=None, T=1.0, X0=0.0)
    counts.update(solves=0, evaluations=0, factorizations=0)
    grid = fl.default_grid(spec, nt=41, nx=101)
    fl.solve_u_prime(spec, grid, sol_u=fl.solve_u(spec, grid))
    assert counts == {"solves": 80, "evaluations": 115, "factorizations": 12}


def test_factor_table_keeps_at_most_16_factors(monkeypatch):
    # sigma = 1 + 0.5t moves the matrix at every one of the 40 steps: each is
    # factored once, at the step's first solve, and the sweep's table drops
    # its oldest factor once it holds 16
    counts, sizes = _count_work(monkeypatch), []
    solve = fl.pde._solve_implicit

    def sized(*args):
        out = solve(*args)
        sizes.append(len(args[-1]))
        return out

    monkeypatch.setattr(fl.pde, "_solve_implicit", sized)
    spec = _EXACTNESS_MODELS["moving"]()
    fl.solve_u(spec, fl.default_grid(spec, nt=41, nx=101))
    assert counts["factorizations"] == 40 and counts["solves"] > 40
    assert max(sizes) == fl.pde._FACTORS == 16 and sizes[-1] == 16


def test_singular_implicit_system_is_a_solver_error():
    # a2 = a1 = 0 and a0 = 1/w zero every interior row: gbsv stops at the pivot of x_1
    grid = GridSpec(np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 9))
    zero, w = np.zeros(9), 0.25
    for boundary in ("extrapolation", "dirichlet"):
        g = GridSpec(grid.t_nodes, grid.x_nodes, boundary)
        with pytest.raises(SolverError, match=r"zero pivot at \(t, x\) = \(0\.5, -0\.75\)"):
            fl.pde._solve_implicit(zero, zero, np.full(9, 1 / w), np.ones(9), w, g, zero, 0.5)
    # the fallback retries at theta = 1, where w = dt keeps the diagonal off zero
    coef = lambda t, v: (zero, zero, np.full(9, 4.0), zero)
    sol = fl.pde._solve(grid, "u", np.ones(9), coef, 0.5, 20, 1e-10)
    assert sol.theta == 1.0 and sol.fallback_used


# five time nodes, dt = 0.25 in every step, w = dt/2 = 0.125 at theta = 1/2
_KEPT = GridSpec(np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 9))


@pytest.mark.parametrize("reads_v", (True, False))
def test_non_finite_source_on_a_kept_factor(monkeypatch, reads_v):
    # the matrix is fixed, so t = 0.75 factors it and t = 0.5, 0.25 keep the
    # factor; at t = 0.25 the source turns NaN on x = -0.25 and only the
    # right-hand side is checked: the message and witness are those of a
    # solve that checks the band too, and theta = 1 is not tried
    counts = _count_work(monkeypatch)
    a2, zero = np.full(9, 0.5), np.zeros(9)

    def coef(t, v):
        s = np.zeros(9)
        s[3] = np.nan if t < 0.4 else 0.0
        return a2, zero, zero, s

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(fl.errors.EvaluationError) as exc:
            fl.pde._solve(_KEPT, "u", np.ones(9), coef, 0.5, 20, 1e-10, reads_v=reads_v)
    assert str(exc.value) == "non-finite PDE coefficient or source at (t, x) = (0.25, -0.25)"
    assert exc.value.witness == (0.25, -0.25)
    assert counts["factorizations"] == 1 and counts["solves"] == 3


@pytest.mark.parametrize("reads_v", (True, False))
def test_singular_matrix_after_a_kept_factor(reads_v):
    # a0 = 8 = 1/w from t = 0.25 on: the factor kept since t = 0.75 is replaced
    # by one with a zero pivot at x_1, which is a SolverError there, and the
    # fallback at theta = 1 (w = 0.25, diagonal -1) solves every step
    zero = np.zeros(9)
    coef = lambda t, v: (zero, zero, np.full(9, 8.0 if t < 0.4 else 0.0), zero)
    with pytest.raises(SolverError, match=r"zero pivot at \(t, x\) = \(0\.25, -0\.75\)"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fl.pde._backward_sweep(_KEPT, np.ones(9), coef, 0.5, 20, 1e-10, None, reads_v)
    sol = fl.pde._solve(_KEPT, "u", np.ones(9), coef, 0.5, 20, 1e-10, reads_v=reads_v)
    assert sol.theta == 1.0 and sol.fallback_used and np.all(np.isfinite(sol.u))


_ZERO_TERM_MODELS = {
    **{name: _EXACTNESS_MODELS[name]
       for name in ("ex_counter", "ex_cubic", "ex_quad_exp", "tanh-sigma")},
    # b_x + h_y = -0.0 + -0.0 = -0.0, which sigma_x h_z = +0.0 turns into +0.0
    "signed-zero": lambda: fl.expression_spec(b="-0*x", sigma="1", g="tanh(x)",
                                              h="-0*y + 0.5*z^2", f=None, T=1.0, X0=0.0),
}


def test_leaves_return_a_fixed_leaf_as_one_array():
    # sigma and h_z read at most x: one evaluation, the same array at every
    # later call; b reads t and h_y reads y, so they are evaluated at each call
    spec = fl.expression_spec(b="t*x", sigma="1 + 0.2*tanh(x)", g="x", h="0.3*x*z + sin(y)",
                              f=None, T=1.0, X0=0.0)
    xn, reads = np.linspace(-1.0, 1.0, 5), []
    leaves = fl.pde._Leaves(spec, xn)
    y = lambda: reads.append("y") or xn
    calls = [leaves.at(t, ("sigma", "b")) + leaves.at(t, ("h_z", "h_y"), y, lambda: xn)
             for t in (0.1, 0.7, 0.7)]
    assert all(c[0] is calls[0][0] and c[2] is calls[0][2] for c in calls)
    assert calls[0][1] is not calls[1][1] and np.array_equal(calls[1][1], 0.7 * xn)
    assert reads == ["y"] * 3


def _uprime_coefficients(spec, t, x, y, v):
    # the u' equation's coefficients as first written: every leaf and term evaluated
    leaf = lambda n, *yz: fl.model._on_grid(
        getattr(spec, n) if n in ("b", "sigma") else spec.d(n), t, x, *yz)
    sig, b, sig_x, b_x = (leaf(n) for n in ("sigma", "b", "sigma_x", "b_x"))
    hz, hy, hx = (leaf(n, y, sig * v) for n in ("h_z", "h_y", "h_x"))
    return 0.5 * sig**2, b + sig * sig_x + sig * hz, b_x + hy + sig_x * hz, hx


@pytest.mark.parametrize("name", list(_ZERO_TERM_MODELS))
def test_uprime_dropped_zero_term_keeps_the_bits(monkeypatch, name):
    # sigma_x = 0 (ModelSpec.constant) drops the term sigma_x h_z from a0, and
    # the fixed sums are formed once per solve.  Where b_x + h_y holds a -0.0
    # the term is kept, since it moves that zero's sign, and so it is where
    # sigma_x is not 0 (tanh-sigma).  The coefficients at (T, g') have the
    # bytes of the formula as first written, and the solution those of the
    # opaque twin, which fixes nothing and evaluates every term at every iteration
    spec = _ZERO_TERM_MODELS[name]()
    grid = fl.default_grid(spec, nt=41, nx=101)
    su = fl.solve_u(spec, grid)
    first, sweep = [], fl.pde._backward_sweep

    def recorded(grid, terminal, coef, *rest):
        first.append(coef(grid.t_nodes[-1], terminal))
        return sweep(grid, terminal, coef, *rest)

    monkeypatch.setattr(fl.pde, "_backward_sweep", recorded)
    sp = fl.solve_u_prime(spec, grid, sol_u=su)
    assert_same_solution(sp, fl.solve_u_prime(opaque(spec), grid, sol_u=su))
    want = _uprime_coefficients(spec, grid.t_nodes[-1], grid.x_nodes, su.u[-1], sp.u[-1])
    assert [a.tobytes() for a in first[0]] == [a.tobytes() for a in want]


def _count_u_solves(monkeypatch):
    calls, solve_u = [], fl.pde.solve_u
    monkeypatch.setattr(fl.pde, "solve_u", lambda *a, **k: calls.append(1) or solve_u(*a, **k))
    return calls


def test_uprime_solves_u_only_when_a_partial_reads_y(monkeypatch):
    # h = 2y + 0.3z: h_y = 2 and h_z = 0.3 read no y, so u is not solved, and
    # u' has the bits of the solve that is given u
    spec = fl.expression_spec(b="0", sigma="1", g="tanh(x)", h="2*y + 0.3*z", f=None,
                              T=1.0, X0=0.0)
    grid = fl.default_grid(spec, nt=41, nx=101)
    given = fl.solve_u_prime(spec, grid, sol_u=fl.solve_u(spec, grid))
    calls = _count_u_solves(monkeypatch)
    sp = fl.solve_u_prime(spec, grid)
    assert calls == [] and np.array_equal(sp.u, given.u)
    assert sp.max_iterations == given.max_iterations


def test_uprime_solves_u_for_an_opaque_h_x_that_reads_y(monkeypatch):
    # an opaque driver partial may read y (ModelSpec.reads), so u is solved
    # first whether it reads y (h_x = 0.1 y) or not (h_z = 0.3, h = 0.3z), and
    # u' has the bits of the solve given u.  No partial is probed for y: on
    # h = x y (z - 0.7)^2 / 2 each partial is flat in y at z = 0.7, and a
    # probe there alone solved u' with y = 0, 0.325 off (max |u'| = 1)
    x_ = lambda x: np.asarray(x, dtype=float)
    zero = lambda t, x, y, z: 0.0 * x_(x)
    reads_y = make_spec(g=lambda x: np.tanh(x_(x)), h=lambda t, x, y, z: 0.1 * x_(x) * y,
                        h_partials={"h_x": lambda t, x, y, z: 0.1 * (y + 0.0 * x_(x)),
                                    "h_y": zero, "h_z": zero})
    no_y = make_spec(g=lambda x: np.tanh(x_(x)), h=lambda t, x, y, z: 0.3 * z,
                     h_partials={"h_x": zero, "h_y": zero,
                                 "h_z": lambda t, x, y, z: 0.3 + 0.0 * x_(x)})
    flat_at_probe = make_spec(
        g=lambda x: np.tanh(x_(x)), h=lambda t, x, y, z: x_(x) * y * (z - 0.7) ** 2 / 2,
        h_partials={"h_x": lambda t, x, y, z: y * (z - 0.7) ** 2 / 2 + 0.0 * x_(x),
                    "h_y": lambda t, x, y, z: x_(x) * (z - 0.7) ** 2 / 2,
                    "h_z": lambda t, x, y, z: x_(x) * y * (z - 0.7)})
    calls = _count_u_solves(monkeypatch)
    for spec in (reads_y, no_y, flat_at_probe):
        grid = fl.default_grid(spec, nt=41, nx=101)
        calls.clear()
        sp = fl.solve_u_prime(spec, grid)
        assert calls == [1]
        assert_same_solution(sp, fl.solve_u_prime(spec, grid, sol_u=fl.solve_u(spec, grid)))
