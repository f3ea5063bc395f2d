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
the iteration is counted as if it ran.  The artificial boundary imposes a
vanishing second difference (linear extrapolation) by default, matching the
polynomial growth of the solutions of interest.

Each sweep computes only what its inputs move, and every value keeps the bits
of a loop that recomputes everything:

* a coefficient or partial whose expression reads neither t nor y/z
  (``ModelSpec.reads``) is evaluated once per solve, at the x nodes;
* the coefficients of the last evaluation are reused when (t, iterate) repeat
  bit for bit, or when t repeats and no coefficient reads the iterate, so
  the explicit half-step reads those at which the step before stopped;
* the implicit matrix is LU-factored by LAPACK's gbtrf only when no factor
  in the sweep's small table has its theta dt and coefficient bits (a
  uniform-looking grid such as linspace(0, 1, 201) has several step widths
  in bits, which alternate along the sweep); each solve is one gbtrs.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .artifacts import write_grid
from .errors import ConfigError, DivergenceError, EvaluationError, SolverError
from .model import COEFFICIENT_ARGS, ModelSpec, _on_grid, coefficient_of

__all__ = ["GridSpec", "GridSolution", "YZResult", "solve_u", "solve_u_prime",
           "solve_u_doubleprime", "eval_yz", "default_grid"]

_SPLINE_BLOCK = 2048  # points a row spline reads at a time
_FACTORS = 16  # LU factors a sweep keeps (linspace(0, 1, 201) has 9 step widths in bits)
_BIN_MAGIC = b"FBLGRID1"
_BIN_VERSION = 3
# magic, version, nt, nx, theta, max_iterations, fallback_used, which, boundary
# (the two names ASCII, NUL-padded); t, x, u, u_x follow as "<f8"
_BIN_HEADER = struct.Struct("<8sIQQdQI16s16s")


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
    """Solution values of one backward problem, with their space derivative.

    ``u`` holds the solved unknown itself (so for ``which == 'u_prime'`` it is
    u'); ``u_x`` is its centered space difference, second-order accurate in
    the interior.  No second difference is kept: u'' is the u' solve's
    ``u_x``, which the Z sampler and the Malliavin routes read.
    """

    t_nodes: np.ndarray
    x_nodes: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
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

    def _cell(self, xf: np.ndarray, q: Optional[np.ndarray] = None) -> np.ndarray:
        """The cell j of each point of the flat xf with x_j <= x < x_{j+1}, by index arithmetic.

        j = floor((x - x_0) / dx), clamped to 0..nx-1 and moved by at most one
        cell against the cell bounds, is np.interp's and scipy's binary search:
        below the box j = 0, at and above the last node x_m j = nx-1.  NaN goes
        to cell 0, where no bound compares true.  ``q``, a float buffer of
        xf's size when given, holds the quotient and then each bound.
        """
        xn = self.x_nodes
        q = np.subtract(xf, xn[0], out=q)
        q /= self._widths[0]
        np.fmax(q, 0.0, out=q)
        np.fmin(q, xn.size - 1, out=q)
        j = q.astype(np.intp)
        # every j stays in 0..nx-1, so "clip" clips nothing; "raise" would buffer q
        j -= xf < self._lo.take(j, out=q, mode="clip")
        j += xf >= self._hi.take(j, out=q, mode="clip")
        return j

    def row_spline(self, t: float, array: Optional[np.ndarray] = None):
        """Cubic-spline interpolant of a time slice (exact for cubic rows).

        The spline is scipy's not-a-knot ``CubicSpline`` of ``row(t, array)``,
        and the returned callable has its ``__call__``'s bits: each point finds
        its cell by ``_cell``'s index arithmetic in place of scipy's binary
        search, clamped to the last interval nx-2 as scipy's ``find_interval``
        clamps it, and sums the cell's polynomial in scipy's order, s = x - x_j,
        ((0 + c_3) + c_2 s) + c_1 s^2 + c_0 s^3 with s^2 = s s and s^3 = s^2 s.
        Outside the box the end polynomials extrapolate; NaN maps to NaN and
        +-inf to scipy's value, without a warning.  Points are read in blocks
        of ``_SPLINE_BLOCK`` into the one result array, so a call holds no
        more than a block of temporaries besides it.  The result has the shape
        of x, a scalar for a scalar, as ``eval``'s.  Intended for smooth
        functional evaluation where the second-order kinks of bilinear
        interpolation would pollute small quantities.
        """
        from scipy.interpolate import CubicSpline

        xn, last = self.x_nodes, self.x_nodes.size - 2
        c0, c1, c2, c3 = np.ascontiguousarray(CubicSpline(xn, self.row(t, array)).c)
        c3 = 0.0 + c3  # scipy's sum starts at 0.0, which turns c_3 = -0.0 into +0.0

        def spline(x):
            x = np.asarray(x, dtype=float)
            xf = x.reshape(-1)
            out = np.empty(xf.size)
            s, p, term = (np.empty(min(xf.size, _SPLINE_BLOCK)) for _ in range(3))
            with np.errstate(invalid="ignore", over="ignore"):
                for a in range(0, xf.size, _SPLINE_BLOCK):
                    xb, o = xf[a:a + _SPLINE_BLOCK], out[a:a + _SPLINE_BLOCK]
                    n = xb.size
                    sb, pb, tb = s[:n], p[:n], term[:n]
                    j = self._cell(xb, sb)
                    np.minimum(j, last, out=j)  # scipy clamps x >= x_m to the last interval
                    np.subtract(xb, xn.take(j, out=sb, mode="clip"), out=sb)
                    c3.take(j, out=o, mode="clip")
                    o += np.multiply(c2.take(j, out=tb, mode="clip"), sb, out=tb)
                    np.multiply(sb, sb, out=pb)
                    o += np.multiply(c1.take(j, out=tb, mode="clip"), pb, out=tb)
                    pb *= sb
                    o += np.multiply(c0.take(j, out=tb, mode="clip"), pb, out=tb)
            return out.reshape(x.shape) if x.ndim else out[0]

        return spline

    def eval(self, t: float, x, array: Optional[np.ndarray] = None):
        """Bilinear interpolation; linear extension outside the x-box.

        The time slice r = ``row(t, array)`` is read in cell j = ``_cell(x)``,
        the cell rule that ``row_spline`` shares, so x_j <= x < x_{j+1} as in
        np.interp's binary search, and the value is slope_j (x - x_j) + r_j with
        np.interp's slope_j = (r_{j+1} - r_j) / (x_{j+1} - x_j).  Below the box
        the first cell's line continues; at and above the last node x_m the
        value is r_m + (r_m - r_{m-1}) / dx (x - x_m).  Inside the box the
        result has np.interp's bits.  NaN maps to NaN.  ``outside`` tells
        whether any x lies outside the box or t outside the grid.
        """
        x = np.asarray(x, dtype=float)
        r = self.row(t, array)
        xn, w = self.x_nodes, self._widths
        slope = np.empty(xn.size)
        np.divide(r[1:] - r[:-1], w, out=slope[:-1])
        slope[-1] = (r[-1] - r[-2]) / w[0]
        xf = x.reshape(-1)
        j = self._cell(xf)
        out = slope[j]
        out *= xf - xn[j]
        out += r[j]
        return out.reshape(x.shape) if x.ndim else out[0]

    def outside(self, t: float, x) -> bool:
        """Whether any x lies outside the x box or t outside the time grid."""
        x, xn, tn = np.asarray(x, dtype=float), self.x_nodes, self._t_list
        return bool(np.any(x < xn[0]) or np.any(x > xn[-1])
                    or t < tn[0] - 1e-12 or t > tn[-1] + 1e-12)

    # -- serialization -------------------------------------------------------

    def to_csv(self, path, header_lines=()):
        """The solved values as a table: one ``%.17g`` row (t, x, u) per node, t-major.

        ``artifacts.write_grid`` writes it, with the bytes of one row per node
        but each t and x formatted once.  u_x is in ``to_binary``'s file only.
        """
        write_grid(path, header_lines, ("t", "x", "u"), self.t_nodes, self.x_nodes, self.u)

    def to_binary(self, path):
        """Every number and field of the solution, exactly: ``_BIN_HEADER``, then the arrays."""
        names = [s.encode("ascii") for s in (self.which, self.boundary)]
        if max(map(len, names)) > 16:
            raise ConfigError(f"names {self.which!r}, {self.boundary!r} exceed 16 bytes")
        with open(path, "wb") as fh:
            fh.write(_BIN_HEADER.pack(_BIN_MAGIC, _BIN_VERSION, self.t_nodes.size,
                                      self.x_nodes.size, self.theta, int(self.max_iterations),
                                      int(self.fallback_used), *names))
            for a in (self.t_nodes, self.x_nodes, self.u, self.u_x):
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path):
        """The solution ``to_binary`` wrote; a damaged or other file raises ``ConfigError``."""
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:8] != _BIN_MAGIC:
            raise ConfigError("not a grid-solution binary file")
        if len(data) < _BIN_HEADER.size:
            raise ConfigError(f"grid binary {path} holds {len(data)} bytes, "
                              f"less than its {_BIN_HEADER.size}-byte header")
        _, version, nt, nx, theta, iters, fallback, which, boundary = _BIN_HEADER.unpack_from(data)
        if version != _BIN_VERSION:
            raise ConfigError(f"unsupported binary version {version}")
        expected = _BIN_HEADER.size + 8 * (nt + nx + 2 * nt * nx)
        if len(data) != expected:
            raise ConfigError(f"grid binary {path} holds {len(data)} bytes; "
                              f"its header (nt={nt}, nx={nx}) gives {expected}")
        a = np.frombuffer(data, dtype="<f8", offset=_BIN_HEADER.size).copy()
        t, x, u, ux = np.split(a, np.cumsum([nt, nx, nt * nx]))
        return cls(t, x, u.reshape(nt, nx), ux.reshape(nt, nx),
                   which=which.rstrip(b"\0").decode("ascii"), theta=theta,
                   boundary=boundary.rstrip(b"\0").decode("ascii"),
                   max_iterations=iters, fallback_used=bool(fallback))


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


def _apply_operator(a2, a1, a0, v, dx):
    """L v = a2 v_xx + a1 v_x + a0 v with one-sided stencils suppressed (interior only)."""
    Lv = np.zeros_like(v)
    Lv[1:-1] = (a2[1:-1] * (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2
                + a1[1:-1] * (v[2:] - v[:-2]) / (2 * dx)
                + a0[1:-1] * v[1:-1])
    return Lv


def _backward_sweep(grid: GridSpec, terminal: np.ndarray, coef_fn: Callable,
                    theta: float, max_iter: int, tol: float,
                    blowup_cap: Optional[float] = None, reads_v: bool = True):
    """Generic theta-scheme backward solver for v_t = -[a2 v_xx + a1 v_x + a0 v + s].

    coef_fn(t, v_frozen) must be a pure function returning arrays
    (a2, a1, a0, s) over x_nodes, with any nonlinear dependence evaluated at
    the frozen iterate; ``reads_v`` False says that none of them depends on
    it.  The last evaluation is reused when its key repeats bit for bit: (t, v),
    or t alone without ``reads_v``.  So the explicit half-step at t_{n+1} reads
    the evaluation on which step n+1 stopped, and without ``reads_v`` a step
    evaluates once.  A Picard iteration whose coefficients are bitwise those
    of the step's last solve would solve the same system again and return the
    same iterate (delta = 0): it stops the step without the solve and is
    counted as run.  The sweep keeps the LU factors of the last ``_FACTORS``
    matrices it factored, keyed by w = theta dt and the bits of
    (a2, a1, a0) (``_solve_implicit``), so a matrix is factored once while
    its factor stays in that table.  A system with a NaN or
    +-inf is the coefficients' fault at a step's first iteration, which reads
    the accepted iterate: ``_solve_implicit``'s EvaluationError, with its
    witness.  At a later iteration, which reads an iterate not yet accepted,
    it is the scheme's: a SolverError naming t and that iterate's max |v|,
    like a non-finite or non-converged iterate.  The source acts on the
    interior rows only: ``_solve_implicit`` replaces the two edge rows of the
    right-hand side by the boundary closure.  Returns (values, max Picard
    iterations used).
    """
    tn, xn, dx = grid.t_nodes, grid.x_nodes, grid.dx
    nt, nx = tn.size, xn.size
    last = [None, None]  # key of the last evaluation, its coefficients
    factors = {}  # (w, bits of a2, a1, a0) -> LU factor and pivots, oldest first

    def coefs(t, v):
        key = (t, v.tobytes()) if reads_v else t
        if key != last[0]:
            last[:] = key, coef_fn(t, v)
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
        explicit = w + dt * (1 - theta) * (_apply_operator(a2o, a1o, a0o, w, dx) + so)
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
                rhs = explicit + dt * theta * s
                try:
                    v_new = _solve_implicit(a2, a1, a0, rhs, dt * theta, grid, terminal, t_new,
                                            factors)
                except EvaluationError:
                    if m == 0:  # the system at the accepted iterate w
                        raise
                    raise SolverError(f"non-finite system at t={t_new:.6g} from a Picard "
                                      f"iterate of max |v| = {np.max(np.abs(v)):.3g}",
                                      residual=float("inf")) from None
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


def _band(a2, a1, a0, w, grid):
    """The (2,2) band of I - w L with its boundary closure rows, laid out for gbtrf.

    Rows 0-1 of the Fortran-ordered array are gbtrf's LU fill, rows 2-6 the
    diagonals +2, +1, 0, -1, -2.
    """
    dx = grid.dx
    ab = np.zeros((7, grid.nx), order="F")  # Fortran order: gbtrf factors it in place
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
    ab[4, 0] = ab[4, -1] = 1.0
    if grid.boundary == "extrapolation":  # vanishing second difference at both edges
        ab[3, 1] = ab[5, -2] = -2.0
        ab[2, 2] = ab[6, -3] = 1.0
    return ab


def _check_finite(b, grid, t, ab=None):
    """EvaluationError, witness (t, x), at the first row of the system with a NaN or +-inf.

    A row is read from the right-hand side b and, when given, the band ab.
    """
    if np.isfinite((0.0 if ab is None else ab.sum()) + b.sum()):  # else a NaN, +-inf or overflow
        return
    bad = ~np.isfinite(b)
    if ab is not None:  # interior row i holds ab[5, i-1], ab[4, i] and ab[3, i+1]
        bad[1:-1] |= ~(np.isfinite(ab[5, :-2]) & np.isfinite(ab[4, 1:-1])
                       & np.isfinite(ab[3, 2:]))
    if bad.any():
        x = float(grid.x_nodes[int(np.argmax(bad))])
        raise EvaluationError(f"non-finite PDE coefficient or source at (t, x) = ({t:g}, {x:g})",
                              witness=(float(t), x))


def _solve_implicit(a2, a1, a0, rhs, w, grid, terminal, t, factors=None):
    """Solve (I - w L) v = rhs with boundary closure rows; banded (2,2) system.

    LAPACK's gbtrf factors the band (``_band``) in place and gbtrs solves
    with the factor.  ``factors`` is the caller's table of (LU, pivots) by
    key = (w, bits of a2, a1, a0), holding at most ``_FACTORS`` entries (the
    oldest goes first): a matrix whose key it holds is neither assembled nor
    factored again, and the call is one gbtrs.  A NaN or +-inf in a row of
    the system raises EvaluationError with witness (t, x); a kept band was
    checked when it was factored, so then only the right-hand side is.  A zero pivot raises
    SolverError naming (t, x) of its node, and its matrix is not kept.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs  # here: scipy.linalg slows package import

    factors = {} if factors is None else factors
    key = (w, a2.tobytes(), a1.tobytes(), a0.tobytes())
    b = rhs.copy()
    if grid.boundary == "extrapolation":
        b[0] = b[-1] = 0.0
    else:  # dirichlet: hold the terminal values at the edges
        b[0], b[-1] = terminal[0], terminal[-1]
    kept = factors.get(key)
    if kept is not None:
        _check_finite(b, grid, t)
    else:
        ab = _band(a2, a1, a0, w, grid)
        _check_finite(b, grid, t, ab)
        lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
        if info > 0:
            x = float(grid.x_nodes[info - 1])
            raise SolverError(f"singular implicit system: zero pivot at (t, x) = ({t:g}, {x:g})")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbtrf")
        if len(factors) >= _FACTORS:
            del factors[next(iter(factors))]
        kept = factors[key] = lu, piv
    v, info = dgbtrs(kept[0], 2, 2, b, kept[1], overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbtrs")
    return v


def _solve(grid, which, terminal, coef_fn, theta, max_iter, tol, blowup_cap=None,
           reads_v=True) -> GridSolution:
    """The solution ``which`` of the sweep at theta, retried at theta = 1 on a SolverError.

    The sweeps run with numpy float warnings off; ``u_x`` is the centred
    difference of the values.
    """
    fallback = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            vals, iters = _backward_sweep(grid, terminal, coef_fn, theta, max_iter, tol,
                                          blowup_cap, reads_v)
        except SolverError:
            if theta >= 1.0:
                raise
            theta, fallback = 1.0, True
            vals, iters = _backward_sweep(grid, terminal, coef_fn, theta, max_iter, tol,
                                          blowup_cap, reads_v)
    return GridSolution(grid.t_nodes, grid.x_nodes, vals, _centered_dx(vals, grid.dx), which,
                        theta, grid.boundary, iters, fallback)


class _Leaves:
    """The coefficients and partials of one solve, at its x nodes.

    ``at(t, names, y, z)`` is ``_on_grid(fn, t, x_nodes)`` for b, sigma and
    their partials and ``_on_grid(fn, t, x_nodes, y(), z())`` for h and its
    partials.  ``y`` and ``z`` are called only when a leaf evaluated in the
    call may read them (``ModelSpec.reads``); a leaf that does not read one
    gets 0.0 in its place, which keeps its bits and broadcast shape.  A leaf
    that reads at most x is evaluated on its first call only, and those values
    are returned at every later (t, y, z).  Nothing outlives the object, which
    belongs to one solve.
    """

    def __init__(self, spec: ModelSpec, xn: np.ndarray):
        self.spec, self.xn = spec, xn
        self.fixed = {}  # name -> values of a leaf that reads at most x
        self.reads = functools.cache(spec.reads)  # ModelSpec.reads, once per name

    def reads_any(self, names, args) -> bool:
        """Whether any of the named leaves may read any of ``args``."""
        return any(not self.reads(n).isdisjoint(args) for n in names)

    def at(self, t, names, y=None, z=None) -> tuple:
        todo = [n for n in names if n not in self.fixed]
        need = frozenset().union(*map(self.reads, todo))
        yz = (y() if "y" in need else 0.0, z() if "z" in need else 0.0)
        new = {}
        for n in todo:
            fn = getattr(self.spec, n) if n in COEFFICIENT_ARGS else self.spec.d(n)
            new[n] = _on_grid(fn, t, self.xn, *(yz if coefficient_of(n) == "h" else ()))
            if self.reads(n) <= {"x"}:
                self.fixed[n] = new[n]
        return tuple(new[n] if n in new else self.fixed[n] for n in names)


def solve_u(spec: ModelSpec, grid: GridSpec, theta: float = 0.5,
            max_iter: int = 20, tol: float = 1e-10) -> GridSolution:
    """Backward theta-scheme solve of the value-function equation.

    The nonlinear driver is treated by frozen-coefficient Picard sweeps per
    time step until the iterate is stationary to ``tol``; a sweep that fails
    (``_backward_sweep``'s SolverError) is retried at theta = 1.
    """
    xn, dx = grid.x_nodes, grid.dx
    terminal = _on_grid(spec.g, xn)
    a0 = np.zeros_like(xn)
    leaves = _Leaves(spec, xn)

    def coef(t, v):
        sig, bb = leaves.at(t, ("sigma", "b"))
        h = leaves.at(t, ("h",), lambda: v, lambda: sig * _centered_dx(v, dx))[0]
        return 0.5 * sig**2, bb, a0, h

    return _solve(grid, "u", terminal, coef, theta, max_iter, tol,
                  reads_v=leaves.reads_any(("h",), {"y", "z"}))


def solve_u_prime(spec: ModelSpec, grid: GridSpec, sol_u: Optional[GridSolution] = None,
                  theta: float = 0.5, max_iter: int = 20, tol: float = 1e-10) -> GridSolution:
    """Solve the transport equation satisfied by the space gradient v = u_x.

    In the classical setting (h depending on z only, b = 0, sigma = 1) the
    equation is autonomous in v.  In the generalized setting the coefficients
    involve u itself through y: u is solved first, when not supplied, exactly
    when h_z, h_y or h_x may read y (``ModelSpec.reads``; an opaque or
    differenced partial may read every argument).
    """
    xn = grid.x_nodes
    leaves, driver = _Leaves(spec, xn), ("h_z", "h_y", "h_x")
    if sol_u is None and leaves.reads_any(driver, {"y"}):
        sol_u = solve_u(spec, grid, theta=theta, max_iter=max_iter, tol=tol)
    terminal = _on_grid(spec.d("g1"), xn)

    def coef(t, v):
        sig, bb, sig_x, bx = leaves.at(t, ("sigma", "b", "sigma_x", "b_x"))
        hz, hy, hx = leaves.at(t, driver, lambda: sol_u.row(t), lambda: sig * v)
        a2 = 0.5 * sig**2
        a1 = bb + sig * sig_x + sig * hz
        a0 = bx + hy + sig_x * hz
        return a2, a1, a0, hx

    return _solve(grid, "u_prime", terminal, coef, theta, max_iter, tol,
                  reads_v=leaves.reads_any(driver, {"z"}))


def solve_u_doubleprime(spec: ModelSpec, grid: GridSpec,
                        sol_u: Optional[GridSolution] = None,
                        sol_uprime: Optional[GridSolution] = None) -> GridSolution:
    """Solve the equation satisfied by w = u_xx (second space derivative).

    The quadratic self-interaction h_zz w^2 is resolved by the Picard freeze;
    a magnitude gate at ``4 sup|g''|`` raises a divergence error
    early, mirroring the smallness condition h_zz < 1/(4 sup|g''| T) under
    which the equation stays bounded.  u is solved first, when not supplied,
    exactly when a driver partial of the coefficients may read y
    (``ModelSpec.reads``, as in ``solve_u_prime``).
    """
    xn = grid.x_nodes
    leaves = _Leaves(spec, xn)
    driver = ("h_z", "h_y", "h_x", "h_xz", "h_yz", "h_zz", "h_xy", "h_yy", "h_xx")
    if sol_u is None and leaves.reads_any(driver, {"y"}):
        sol_u = solve_u(spec, grid, max_iter=30)
    if sol_uprime is None:
        sol_uprime = solve_u_prime(spec, grid, sol_u=sol_u, max_iter=30)
    terminal = _on_grid(spec.d("g2"), xn)
    cap = 4.0 * max(float(np.max(np.abs(terminal))), 1e-12) + 1e6 * np.finfo(float).eps

    def coef(t, w):
        v = sol_uprime.row(t)
        sig, bb, sig_x, sig_xx, bx, bxx = leaves.at(
            t, ("sigma", "b", "sigma_x", "sigma_xx", "b_x", "b_xx"))
        hz, hy, hx, hzx, hzy, hzz, hyx, hyy, hxx = leaves.at(
            t, driver, lambda: sol_u.row(t), lambda: sig * v)
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

    return _solve(grid, "u_doubleprime", terminal, coef, 0.5, 30, 1e-10, blowup_cap=cap)


def yz(sol_u: GridSolution, sol_uprime: Optional[GridSolution], spec: ModelSpec, t: float, x):
    """(Y, Z) = (u, u_x sigma) at time t and states x, by ``GridSolution.eval``.

    u_x is read from the u' solve when it is given, else from the differenced
    u grid; out-of-box states are linearly extended.
    """
    ux = sol_u.eval(t, x, sol_u.u_x) if sol_uprime is None else sol_uprime.eval(t, x)
    return sol_u.eval(t, x), ux * spec.sigma(t, x)


def eval_yz(sol_u: GridSolution, sol_uprime: Optional[GridSolution],
            spec: ModelSpec, t: float, x: float) -> YZResult:
    """``yz`` at one point, flagged when it lies outside a grid it reads."""
    y, z = yz(sol_u, sol_uprime, spec, t, x)
    flag = any(s.outside(t, x) for s in (sol_u, sol_uprime) if s is not None)
    return YZResult(float(y), float(z), flag)
