"""Finite-difference solvers for the value functions behind the backward pair.

Three backward parabolic problems are solved on a rectangular grid:

* ``solve_u``            -u_t - b u_x - (1/2) sigma^2 u_xx - h(t,x,u,sigma u_x) = 0,
                         u(T,x) = g(x);  then Y_t = u(t, X_t) and
                         Z_t = u_x(t, X_t) sigma(t, X_t).
* ``solve_u_prime``      the equation satisfied by v = u_x, obtained by
                         differentiating the first problem in space; in the
                         classical setting (b = 0, sigma = 1, h = h(t,z)) it
                         reduces to  -v_t - (1/2) v_xx - h_z(t,v) v_x = 0 with
                         v(T,x) = g'(x).
* ``solve_u_doubleprime``  the equation for w = u_xx; in the classical setting
                         -w_t - (1/2) w_xx - h_z(t,v) w_x - h_zz(t,v) w^2 = 0
                         with w(T,x) = g''(x).

Time stepping is a theta-scheme (Crank-Nicolson by default, implicit Euler as
fallback); the nonlinear coupling through the gradient is resolved by
frozen-coefficient Picard sweeps within each time step.  A step's sweeps
stop when the relative change of the iterate falls below the tolerance, or,
without a further solve, when the coefficients at the new iterate are bitwise
those of the step's last solve: that solve would return the same iterate, and
the iteration is counted as if it ran.  The coefficients of the last
evaluation are reused when (t, iterate) repeat bit for bit, so the explicit
half-step reads those at which the step before stopped.  The artificial
boundary imposes a vanishing second difference (linear extrapolation) by
default, matching the polynomial growth of the solutions of interest.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .artifacts import write_grid
from .errors import ConfigError, DivergenceError, EvaluationError, SolverError
from .model import ModelSpec, _on_grid

__all__ = ["GridSpec", "GridSolution", "YZResult", "solve_u", "solve_u_prime",
           "solve_u_doubleprime", "eval_yz", "default_grid"]

_BIN_MAGIC = b"FBLGRID1"
_BIN_VERSION = 1


def _require_uniform(x: np.ndarray) -> None:
    """Raise a config error unless x increases with spacing uniform to 1e-9 relative."""
    dx = np.diff(x)
    if dx.size == 0 or np.any(dx <= 0):
        raise ConfigError("grid nodes must be strictly increasing")
    if np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0]:
        raise ConfigError("x spacing must be uniform")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular space-time grid with uniform x spacing."""

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    boundary: str = "extrapolation"  # "extrapolation" | "dirichlet"

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        x = np.asarray(self.x_nodes, dtype=float)
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "x_nodes", x)
        if x.size < 3:
            raise ConfigError("need at least 3 x-nodes")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("grid nodes must be strictly increasing")
        _require_uniform(x)
        if self.boundary not in ("extrapolation", "dirichlet"):
            raise ConfigError(f"unknown boundary treatment {self.boundary!r}")

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def nt(self) -> int:
        return self.t_nodes.size

    @property
    def nx(self) -> int:
        return self.x_nodes.size


def default_grid(spec: ModelSpec, nt: int = 201, nx: int = 401,
                 width: float = 6.0, x_lo: Optional[float] = None,
                 x_hi: Optional[float] = None, boundary: str = "extrapolation") -> GridSpec:
    """Grid covering [0,T] x [X0 - width sqrt(T) sigma_max, X0 + ...]."""
    half = width * math.sqrt(spec.T) * spec.sigma_max_estimate()
    lo = spec.X0 - half if x_lo is None else x_lo
    hi = spec.X0 + half if x_hi is None else x_hi
    return GridSpec(np.linspace(0.0, spec.T, nt), np.linspace(lo, hi, nx), boundary)


@dataclass
class GridSolution:
    """Solution values of one backward problem, with space derivatives.

    ``u`` holds the solved unknown itself (so for ``which == 'u_prime'`` it is
    u'); ``u_x`` and ``u_xx`` are its centered space differences, second-order
    accurate in the interior.
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
    u_xx: np.ndarray
    which: str
    theta: float
    boundary: str
    max_iterations: int = 0
    fallback_used: bool = False

    def __post_init__(self):
        # the lookup tables below assume the node arrays stay as given
        xn = np.asarray(self.x_nodes, dtype=float)
        _require_uniform(xn)
        self._t_list = np.asarray(self.t_nodes, dtype=float).tolist()
        self._widths = np.diff(xn)
        # cell bounds for the one-cell index correction; NaN ends never compare true
        self._lo = np.concatenate([[np.nan], xn[1:]])
        self._hi = np.concatenate([xn[1:], [np.nan]])

    # -- interpolation ------------------------------------------------------

    def _t_weights(self, t: float):
        tn = self._t_list
        i = min(max(bisect_left(tn, t) - 1, 0), len(tn) - 2)
        lam = (t - tn[i]) / (tn[i + 1] - tn[i])
        return i, min(max(lam, 0.0), 1.0)

    def row(self, t: float, array: Optional[np.ndarray] = None) -> np.ndarray:
        """Time slice at t by linear interpolation between grid rows."""
        a = self.u if array is None else array
        i, lam = self._t_weights(t)
        return (1.0 - lam) * a[i] + lam * a[i + 1]

    def row_spline(self, t: float, array: Optional[np.ndarray] = None):
        """Cubic-spline interpolant of a time slice (exact for cubic rows).

        Outside the box the spline extrapolates its end polynomial; intended
        for smooth functional evaluation where the second-order kinks of
        bilinear interpolation would pollute small quantities.
        """
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.x_nodes, self.row(t, array))

    def eval(self, t: float, x, array: Optional[np.ndarray] = None, return_flag: bool = False):
        """Bilinear interpolation; linear extension outside the x-box.

        The time slice r = ``row(t, array)`` is read in cell j by index
        arithmetic on the uniform x grid: j = floor((x - x_0) / dx), moved by
        at most one cell so that x_j <= x < x_{j+1} as in np.interp's binary
        search, and the value is slope_j (x - x_j) + r_j with np.interp's
        slope_j = (r_{j+1} - r_j) / (x_{j+1} - x_j).  Below the box the first
        cell's line continues; at and above the last node x_m the value is
        r_m + (r_m - r_{m-1}) / dx (x - x_m).  Inside the box the result has
        np.interp's bits.  NaN maps to NaN.  With ``return_flag`` the result
        comes with whether any x lies outside the box or t outside the grid.
        """
        x = np.asarray(x, dtype=float)
        r = self.row(t, array)
        xn, w = self.x_nodes, self._widths
        slope = np.empty(xn.size)
        np.divide(r[1:] - r[:-1], w, out=slope[:-1])
        slope[-1] = (r[-1] - r[-2]) / w[0]
        xf = x.reshape(-1)
        q = (xf - xn[0]) / w[0]
        np.fmax(q, 0.0, out=q)  # NaN goes to cell 0 and stays NaN below
        np.fmin(q, xn.size - 1, out=q)
        j = q.astype(np.intp)
        j -= xf < self._lo[j]
        j += xf >= self._hi[j]
        out = slope[j]
        out *= xf - xn[j]
        out += r[j]
        out = out.reshape(x.shape) if x.ndim else out[0]
        if return_flag:
            extrapolated = bool(np.any(x < xn[0]) or np.any(x > xn[-1])
                                or t < self._t_list[0] - 1e-12 or t > self._t_list[-1] + 1e-12)
            return out, extrapolated
        return out

    # -- serialization -------------------------------------------------------

    def to_csv(self, path, header_lines=()):
        """The grid as a table: one ``%.17g`` row (t, x, u, u_x, u_xx) per node, t-major.

        ``artifacts.write_grid`` writes it, with the bytes of one row per node
        but each t and x formatted once.
        """
        write_grid(path, header_lines, ("t", "x", "u", "u_x", "u_xx"), self.t_nodes,
                   self.x_nodes, (self.u, self.u_x, self.u_xx))

    def to_binary(self, path):
        with open(path, "wb") as fh:
            fh.write(_BIN_MAGIC)
            fh.write(struct.pack("<IQQ", _BIN_VERSION, self.t_nodes.size, self.x_nodes.size))
            for a in (self.t_nodes, self.x_nodes, self.u, self.u_x, self.u_xx):
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _BIN_MAGIC:
                raise ConfigError("not a grid-solution binary file")
            version, nt, nx = struct.unpack("<IQQ", fh.read(20))
            if version != _BIN_VERSION:
                raise ConfigError(f"unsupported binary version {version}")
            def arr(n):
                return np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
            t = arr(nt)
            x = arr(nx)
            u = arr(nt * nx).reshape(nt, nx)
            ux = arr(nt * nx).reshape(nt, nx)
            uxx = arr(nt * nx).reshape(nt, nx)
        return cls(t, x, u, ux, uxx, which="u", theta=float("nan"), boundary="unknown")


@dataclass
class YZResult:
    y: float
    z: float
    extrapolated: bool = False


def _centered_dx(v: np.ndarray, dx: float):
    """First x-difference on the last axis: centred inside, one-sided at the two ends."""
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * dx)
    out[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * dx)
    out[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * dx)
    return out


def _space_derivatives(u: np.ndarray, dx: float):
    uxx = np.empty_like(u)
    uxx[:, 1:-1] = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / dx**2
    uxx[:, 0] = uxx[:, 1]
    uxx[:, -1] = uxx[:, -2]
    return _centered_dx(u, dx), uxx


def _apply_operator(a2, a1, a0, v, dx):
    """L v = a2 v_xx + a1 v_x + a0 v with one-sided stencils suppressed (interior only)."""
    Lv = np.zeros_like(v)
    Lv[1:-1] = (a2[1:-1] * (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
                + a1[1:-1] * (v[2:] - v[:-2]) / (2 * dx)
                + a0[1:-1] * v[1:-1])
    return Lv


def _backward_sweep(grid: GridSpec, terminal: np.ndarray, coef_fn: Callable,
                    theta: float, max_iter: int, tol: float,
                    blowup_cap: Optional[float] = None):
    """Generic theta-scheme backward solver for v_t = -[a2 v_xx + a1 v_x + a0 v + s].

    coef_fn(t, v_frozen, v_frozen_x) must be a pure function returning arrays
    (a2, a1, a0, s) over x_nodes, with any nonlinear dependence evaluated at
    the frozen iterate.  Its last evaluation is reused when (t, v) repeat bit
    for bit, as when the explicit half-step at t_{n+1} reads the iterate on
    which step n+1 stopped.  A Picard iteration whose coefficients are bitwise
    those of the step's last solve would solve the same system again and
    return the same iterate (delta = 0): it stops the step without the solve
    and is counted as run.  Returns (values, max Picard iterations used).
    """
    tn, xn, dx = grid.t_nodes, grid.x_nodes, grid.dx
    nt, nx = tn.size, xn.size
    last = [None, None]  # (t, bytes of v) of the last evaluation, its coefficients

    def coefs(t, v):
        key = (t, v.tobytes())
        if key != last[0]:
            last[:] = key, coef_fn(t, v, _centered_dx(v, dx))
        return last[1]

    v_all = np.empty((nt, nx))
    v_all[-1] = terminal
    w = terminal.copy()
    if theta < 0.5:
        a2_T = coefs(tn[-1], w)[0]
        if np.max(np.abs(a2_T)) * (1 - theta) * 2 * np.max(np.diff(tn)) > dx**2:
            raise ConfigError("grid too coarse for the explicit weight: "
                              "dt exceeds the diffusive stability limit")
    max_used = 0
    for n in range(nt - 2, -1, -1):
        dt = tn[n + 1] - tn[n]
        t_new, t_old = tn[n], tn[n + 1]
        a2o, a1o, a0o, so = coefs(t_old, w)
        explicit = w + dt * (1 - theta) * (_apply_operator(a2o, a1o, a0o, w, dx) + _src_pad(so))
        v = w
        solved = None  # bytes of the coefficients of this step's last solve
        converged = False
        for m in range(max_iter):
            c = coefs(t_new, v)
            bits = [a.tobytes() for a in c]
            if bits == solved:
                delta = 0.0
            else:
                a2, a1, a0, s = c
                rhs = explicit + dt * theta * _src_pad(s)
                v_new = _solve_implicit(a2, a1, a0, rhs, dt * theta, grid, terminal, t_new)
                if not np.all(np.isfinite(v_new)):
                    raise SolverError(f"non-finite iterate at t={t_new:.6g}", residual=float("inf"))
                delta = float(np.max(np.abs(v_new - v)) / (1.0 + np.max(np.abs(v_new))))
                v, solved = v_new, bits
            if delta < tol:
                converged = True
                max_used = max(max_used, m + 1)
                break
        if not converged:
            raise SolverError(f"Picard sweeps did not converge at t={t_new:.6g}", residual=delta)
        if blowup_cap is not None and float(np.max(np.abs(v))) > blowup_cap:
            raise DivergenceError(
                f"solution magnitude {np.max(np.abs(v)):.3g} exceeded blow-up cap "
                f"{blowup_cap:.3g} at t={t_new:.6g}")
        v_all[n] = v
        w = v
    return v_all, max_used


def _src_pad(s):
    # sources act on interior rows only; boundary rows carry the closure
    out = np.array(s, dtype=float, copy=True)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _solve_implicit(a2, a1, a0, rhs, w, grid, terminal, t):
    """Solve (I - w L) v = rhs with boundary closure rows; banded (2,2) system.

    The band goes straight to LAPACK's gbsv: rows 0-1 of ``ab`` are its LU
    fill, rows 2-6 the diagonals +2, +1, 0, -1, -2.  A NaN or +-inf in a row
    of the system raises EvaluationError with witness (t, x); a zero pivot
    raises SolverError naming (t, x) of its node.
    """
    nx, dx = rhs.size, grid.dx
    ab = np.zeros((7, nx), order="F")  # Fortran order: gbsv factors it in place
    lo, di, up = ab[5, :-2], ab[4, 1:-1], ab[3, 2:]
    # lo = -w (a2/dx^2 - a1/(2dx)), up = -w (a2/dx^2 + a1/(2dx)) and
    # di = 1 - w (-2 a2/dx^2 + a0), each operation in place on its band row
    p, q = a2[1:-1] / dx**2, a1[1:-1] / (2 * dx)
    np.subtract(p, q, out=lo)
    lo *= -w
    np.add(p, q, out=up)
    up *= -w
    np.multiply(-2, a2[1:-1], out=di)
    di /= dx**2
    di += a0[1:-1]
    di *= w
    np.subtract(1.0, di, out=di)
    b = rhs.copy()
    ab[4, 0] = ab[4, -1] = 1.0
    if grid.boundary == "extrapolation":  # vanishing second difference at both edges
        ab[3, 1] = ab[5, -2] = -2.0
        ab[2, 2] = ab[6, -3] = 1.0
        b[0] = b[-1] = 0.0
    else:  # dirichlet: hold the terminal values at the edges
        b[0], b[-1] = terminal[0], terminal[-1]
    if not np.isfinite(ab.sum() + b.sum()):  # a NaN or +-inf, or a sum that overflows
        bad = ~np.isfinite(b)
        bad[1:-1] |= ~(np.isfinite(lo) & np.isfinite(di) & np.isfinite(up))
        if bad.any():
            x = float(grid.x_nodes[int(np.argmax(bad))])
            raise EvaluationError(f"non-finite PDE coefficient or source at (t, x) = ({t:g}, {x:g})",
                                  witness=(float(t), x))
    from scipy.linalg.lapack import dgbsv  # imported here: scipy.linalg slows package import

    _, _, v, info = dgbsv(2, 2, ab, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        x = float(grid.x_nodes[info - 1])
        raise SolverError(f"singular implicit system: zero pivot at (t, x) = ({t:g}, {x:g})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    return v


def _run_with_fallback(grid, terminal, coef_fn, theta, max_iter, tol, blowup_cap=None):
    """The sweep at theta, retried at theta = 1 on a SolverError; no numpy float warnings."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            vals, iters = _backward_sweep(grid, terminal, coef_fn, theta, max_iter, tol, blowup_cap)
            return vals, iters, theta, False
        except SolverError:
            if theta >= 1.0:
                raise
            vals, iters = _backward_sweep(grid, terminal, coef_fn, 1.0, max_iter, tol, blowup_cap)
            return vals, iters, 1.0, True


def _forward_at(spec, t, xn, *names):
    """sigma, b and the named forward-coefficient partials at (t, x_n)."""
    return (_on_grid(spec.sigma, t, xn), _on_grid(spec.b, t, xn),
            *(_on_grid(spec.d(n), t, xn) for n in names))


def _driver_at(spec, t, xn, sol_u, z, *names):
    """The named driver partials at (t, x_n, u(t, x_n), z); u = 0 without a u solve."""
    y = sol_u.row(t) if sol_u is not None else np.zeros_like(xn)
    return tuple(_on_grid(spec.d(n), t, xn, y, z) for n in names)


def solve_u(spec: ModelSpec, grid: GridSpec, theta: float = 0.5,
            max_iter: int = 20, tol: float = 1e-10) -> GridSolution:
    """Backward theta-scheme solve of the value-function equation.

    The nonlinear driver is treated by frozen-coefficient Picard sweeps per
    time step until the iterate is stationary to ``tol``.
    """
    xn = grid.x_nodes
    terminal = _on_grid(spec.g, xn)
    a0 = np.zeros_like(xn)

    def coef(t, v, vx):
        sig, bb = _forward_at(spec, t, xn)
        return 0.5 * sig**2, bb, a0, _on_grid(spec.h, t, xn, v, sig * vx)

    vals, iters, th, fb = _run_with_fallback(grid, terminal, coef, theta, max_iter, tol)
    ux, uxx = _space_derivatives(vals, grid.dx)
    return GridSolution(grid.t_nodes, xn, vals, ux, uxx, "u", th, grid.boundary, iters, fb)


def _needs_u(spec: ModelSpec, grid: GridSpec) -> bool:
    """Whether the gradient equation needs the solved u in its coefficients."""
    t = np.linspace(0.0, spec.T, 5)[:, None]
    x = grid.x_nodes[::max(grid.nx // 16, 1)][None, :]
    y = np.linspace(-3.0, 3.0, 3)[:, None, None]
    hy = spec.d("h_y")(t, x, y, 0.0)
    hz = spec.d("h_z")
    probe = np.max(np.abs(hz(t, x, 1.0, 0.7) - hz(t, x, -1.0, 0.7)))
    return bool(np.max(np.abs(hy)) > 1e-12 or probe > 1e-12)


def solve_u_prime(spec: ModelSpec, grid: GridSpec, sol_u: Optional[GridSolution] = None,
                  theta: float = 0.5, max_iter: int = 20, tol: float = 1e-10) -> GridSolution:
    """Solve the transport equation satisfied by the space gradient v = u_x.

    In the classical setting (h depending on z only, b = 0, sigma = 1) the
    equation is autonomous in v.  In the generalized setting the coefficients
    involve u itself, which is solved first when not supplied.
    """
    xn = grid.x_nodes
    if sol_u is None and (_needs_u(spec, grid)):
        sol_u = solve_u(spec, grid, theta=theta, max_iter=max_iter, tol=tol)
    terminal = _on_grid(spec.d("g1"), xn)

    def coef(t, v, _vx):
        sig, bb, sig_x, bx = _forward_at(spec, t, xn, "sigma_x", "b_x")
        hz, hy, hx = _driver_at(spec, t, xn, sol_u, sig * v, "h_z", "h_y", "h_x")
        a2 = 0.5 * sig**2
        a1 = bb + sig * sig_x + sig * hz
        a0 = bx + hy + sig_x * hz
        return a2, a1, a0, hx

    vals, iters, th, fb = _run_with_fallback(grid, terminal, coef, theta, max_iter, tol)
    ux, uxx = _space_derivatives(vals, grid.dx)
    return GridSolution(grid.t_nodes, xn, vals, ux, uxx, "u_prime", th, grid.boundary, iters, fb)


def solve_u_doubleprime(spec: ModelSpec, grid: GridSpec,
                        sol_u: Optional[GridSolution] = None,
                        sol_uprime: Optional[GridSolution] = None) -> GridSolution:
    """Solve the equation satisfied by w = u_xx (second space derivative).

    The quadratic self-interaction h_zz w^2 is resolved by the Picard freeze;
    a magnitude gate at ``4 sup|g''|`` raises a divergence error
    early, mirroring the smallness condition h_zz < 1/(4 sup|g''| T) under
    which the equation stays bounded.
    """
    xn = grid.x_nodes
    if sol_u is None and _needs_u(spec, grid):
        sol_u = solve_u(spec, grid, max_iter=30)
    if sol_uprime is None:
        sol_uprime = solve_u_prime(spec, grid, sol_u=sol_u, max_iter=30)
    terminal = _on_grid(spec.d("g2"), xn)
    cap = 4.0 * max(float(np.max(np.abs(terminal))), 1e-12) + 1e6 * np.finfo(float).eps

    def coef(t, w, _wx):
        v = sol_uprime.row(t)
        sig, bb, sig_x, sig_xx, bx, bxx = _forward_at(spec, t, xn,
                                                      "sigma_x", "sigma_xx", "b_x", "b_xx")
        hz, hy, hx, hzx, hzy, hzz, hyx, hyy, hxx = _driver_at(
            spec, t, xn, sol_u, sig * v,
            "h_z", "h_y", "h_x", "h_xz", "h_yz", "h_zz", "h_xy", "h_yy", "h_xx")
        # total x-derivatives of h_q along (t, x, u, sigma u_x), w frozen
        zx = sig_x * v + sig * w
        Dhz = hzx + hzy * v + hzz * zx
        Dhy = hyx + hyy * v + hzy * zx
        Dhx = hxx + hyx * v + hzx * zx
        alpha_x = bx + sig_x**2 + sig * sig_xx + sig_x * hz + sig * Dhz
        beta = bx + hy + sig_x * hz
        beta_x = bxx + Dhy + sig_xx * hz + sig_x * Dhz
        a2 = 0.5 * sig**2
        a1 = bb + 2.0 * sig * sig_x + sig * hz
        a0 = alpha_x + beta
        s = beta_x * v + Dhx
        return a2, a1, a0, s

    vals, iters, th, fb = _run_with_fallback(grid, terminal, coef, 0.5, 30, 1e-10,
                                             blowup_cap=cap)
    ux, uxx = _space_derivatives(vals, grid.dx)
    return GridSolution(grid.t_nodes, xn, vals, ux, uxx, "u_doubleprime", th,
                        grid.boundary, iters, fb)


def eval_yz(sol_u: GridSolution, sol_uprime: Optional[GridSolution],
            spec: ModelSpec, t: float, x: float) -> YZResult:
    """Point evaluation (Y, Z) = (u, u_x sigma) at (t, x) by bilinear interpolation.

    The gradient comes from the dedicated u' solve when available, otherwise
    from the differenced u grid; out-of-box queries are linearly extended and
    flagged.
    """
    y, flag1 = sol_u.eval(t, x, return_flag=True)
    if sol_uprime is not None:
        ux, flag2 = sol_uprime.eval(t, x, return_flag=True)
    else:
        ux, flag2 = sol_u.eval(t, x, array=sol_u.u_x, return_flag=True)
    sig = float(spec.sigma(t, x))
    return YZResult(float(y), float(ux) * sig, flag1 or flag2)
