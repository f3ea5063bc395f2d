"""Monte Carlo machinery: forward paths, regression BSDE solver, Malliavin routes.

The forward component is simulated by Euler-Maruyama with counter-based
(Philox) random streams so that ensembles are reproducible for a fixed
(seed, n_paths, n_steps).  Paths are not addressable counter blocks: the
ziggurat normal sampler consumes a variable number of counter words, so
path i depends on every earlier path (see ROADMAP.md, item "Draw blocks as the
unit of work").  One kernel, ``_euler``, steps X and its first and second
variations for every caller, except a variation that the model's expressions
fix at 1 or 0 (b_x, sigma_x, b_xx, sigma_xx the constant 0): that one is a
read-only broadcast view.  The Malliavin routines hand it an ensemble's held
paths and step only the variations along them.  ``simulate_forward`` hands
out the time grid, ``dW`` and ``X`` read-only: later work is cached against
them.

The backward pair is solved by least-squares Monte Carlo: per-step
conditional expectations are projected on a polynomial (or piecewise-linear)
basis in the Markovian state, with one Gram matrix per step shared by its
fits.

Malliavin derivatives of the backward component solve a linear BSDE; its
closed-form representation discounts the terminal slope by exp(int h_y) under
the h_z-tilted measure, which is implemented with pathwise exponential
weights plus a single conditional-expectation regression per requested time,
rather than nested regression.  Given the requested times, all of that is
independent of the differentiation time r except the column scale
sigma(r, X_r) / nablaX_r of D_r X.  ``solve_malliavin_bsde`` therefore keeps
the r-independent work in a context on the ensemble, rebuilt when the model,
the solution, the basis or the requested times change, and each call only
rescales its columns.  Results hold the requested columns alone
(``ColumnStore``).

Jobs whose estimated array bytes exceed the machine's physical memory raise
``ResourceError`` before allocating.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox

from .artifacts import write_table
from .errors import BasisError, EvaluationError, PreconditionError, ResourceError
from .model import ModelSpec, check_horizon
from .pde import GridSolution

__all__ = [
    "STREAM_FORWARD", "STREAM_COUPLING",
    "PathEnsemble", "BasisSpec", "BsdeSolution", "ColumnStore", "MalliavinEnsemble",
    "simulate_forward", "solve_bsde_regression", "variational_processes",
    "solve_malliavin_bsde", "z_from_malliavin", "second_malliavin",
    "malliavin_fd", "rng_stream",
]

STREAM_FORWARD = 0
STREAM_COUPLING = 1
_DRAW_BLOCK = 4096  # paths per block of ``_draw_increments``
_RIDGE = 1e-8  # ridge added to the diagonal of every regression Gram matrix


def rng_stream(seed: int, stream: int) -> Generator:
    """Counter-based generator for a named substream of the master seed."""
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _time_index(t_grid: np.ndarray, t: float, nearest: bool = False) -> int:
    """Index of time t on a uniform grid over [0, T]: a t outside [0, T] raises, and so
    does one off the nodes unless ``nearest``."""
    check_horizon(t, float(t_grid[-1]))
    k = int(round((t - t_grid[0]) / (t_grid[1] - t_grid[0])))
    if not nearest and abs(t_grid[k] - t) > 1e-9 + 1e-9 * abs(t):
        raise PreconditionError(f"t={t} is not a grid time of this ensemble")
    return k


@dataclass
class PathEnsemble:
    """Euler-Maruyama paths of the forward diffusion.

    ``dW`` has shape (n_paths, n_steps); ``X`` has shape (n_paths, n_steps+1)
    with X[:, 0] = X0.  ``simulate_forward`` holds both time-major, as transpose
    views, so ``dW[:, k]`` and ``X[:, k]`` are contiguous; any layout is accepted.
    Row i of ``dW`` holds the normals drawn after rows 0..i-1 of the
    (seed, stream) Philox stream; it is not an addressable counter block.

    An ensemble is immutable: ``simulate_forward`` marks ``t_grid``, ``dW``
    and ``X`` read-only, because ``solve_malliavin_bsde`` caches its r-independent work
    in the ensemble's private ``_malliavin`` slot and reuses it while the
    paths, model, solution, basis and requested times stay the same.
    """

    t_grid: np.ndarray
    dW: np.ndarray
    X: np.ndarray
    seed: int
    stream: int = STREAM_FORWARD
    antithetic: bool = False
    _malliavin: Optional["_MalliavinContext"] = field(default=None, init=False, repr=False,
                                                      compare=False)

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    def increment_stats(self):
        m = float(np.mean(self.dW))
        v = float(np.var(self.dW))
        return m, v

    def sanity_ok(self) -> bool:
        m, v = self.increment_stats()
        n = self.dW.size
        return abs(m) <= 5.0 / math.sqrt(n) and abs(v - self.dt) <= 0.05 * self.dt

    def index_of(self, t: float, nearest: bool = False) -> int:
        return _time_index(self.t_grid, t, nearest)

    def to_csv(self, path, header_lines=()):
        comments = [f"seed={self.seed} stream={self.stream} n_paths={self.n_paths} "
                    f"n_steps={self.n_steps}", *header_lines]
        rows = ((i, t, x) for i, path_x in enumerate(self.X) for t, x in zip(self.t_grid, path_x))
        write_table(path, comments, ("path", "t", "x"), rows)

    def to_binary(self, path):
        import struct

        with open(path, "wb") as fh:
            fh.write(b"FBLPATH1")
            fh.write(struct.pack("<IQQqq", 1, self.n_paths, self.n_steps,
                                 self.seed, self.stream))
            for a in (self.t_grid, self.dW, self.X):
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _fixed_variations(spec: ModelSpec) -> int:
    """How many of (nablaX, nabla2X) are identically (1, 0) by the model's expressions.

    nablaX = 1 when b_x and sigma_x are the constant 0; nabla2X = 0 when b_xx
    and sigma_xx are as well.
    """
    zero = [spec.constant(name) == 0.0 for name in ("b_x", "sigma_x", "b_xx", "sigma_xx")]
    return 2 if all(zero) else 1 if all(zero[:2]) else 0


def _euler(spec: ModelSpec, dW: np.ndarray, x0, t0: float, dt: float, order: int = 0,
           X: Optional[np.ndarray] = None):
    """Euler-Maruyama flow of the forward diffusion on given increments.

    Steps X from ``x0`` at time ``t0`` through the columns of ``dW``
    (n_paths, n_steps), read in place (contiguously when ``dW`` is time-major,
    as ``_draw_increments`` hands it out); ``order`` 1 adds the first variation
    (nablaX_0 = 1) and ``order`` 2 the second variation (nabla2X_0 = 0):

        X_{k+1}       = X_k + b dt + sigma dW_k
        nablaX_{k+1}  = nablaX_k g_k,   g_k = 1 + b_x dt + sigma_x dW_k
        nabla2X_{k+1} = nabla2X_k g_k + nablaX_k^2 (b_xx dt + sigma_xx dW_k)

    with coefficients at (t0 + k dt, X_k).  Given ``X``, the time-major
    (n_steps+1, n_paths) states already stepped on these increments (a path
    ensemble's ``X.T``), only the variations are stepped and ``X`` is returned
    as it is; ``x0`` is then not read.  Returns ``order + 1`` time-major
    (n_steps+1, n_paths) arrays, contiguous where the kernel fills them, so
    each step writes one row.  A variation the model's expressions fix
    (``_fixed_variations``) is not stepped: it comes back as a read-only
    broadcast view of 1.0 or 0.0, the recursion's values bit for bit.  A
    non-finite stepped value raises an evaluation error with a (path, step)
    witness; numpy's floating-point warnings are off for the stepping.
    """
    n, N = dW.shape
    held = X is not None
    fixed = _fixed_variations(spec) if order else 0
    flow = [X if held else np.empty((N + 1, n))]
    flow += [np.broadcast_to(start, (N + 1, n)) if i <= fixed else np.empty((N + 1, n))
             for i, start in ((1, 1.0), (2, 0.0))[:order]]
    names = ("state", "variational state", "second variational state")
    stepped = [(flow[i], (x0, 1.0, 0.0)[i], names[i])
               for i in ([] if held else [0]) + list(range(fixed + 1, order + 1))]
    for a, start, _ in stepped:
        a[0] = start
    X = flow[0]
    bx, sx, bxx, sxx = (spec.d(name) for name in ("b_x", "sigma_x", "b_xx", "sigma_xx"))
    growth = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(N):
            t, xk, dw = t0 + k * dt, X[k], dW[:, k]
            if not held:
                X[k + 1] = xk + spec.b(t, xk) * dt + spec.sigma(t, xk) * dw
            if fixed < 1 <= order:
                growth = 1.0 + bx(t, xk) * dt + sx(t, xk) * dw
                flow[1][k + 1] = flow[1][k] * growth
            if fixed < 2 <= order:
                flow[2][k + 1] = flow[2][k] * growth \
                    + flow[1][k] ** 2 * (bxx(t, xk) * dt + sxx(t, xk) * dw)
            for a, _, what in stepped:
                bad = ~np.isfinite(a[k + 1])
                if np.any(bad):
                    i = int(np.argmax(bad))
                    raise EvaluationError(f"non-finite {what} at path {i}, step {k + 1}",
                                          witness=(i, k + 1))
    return tuple(flow)


def _preflight(what: str, nbytes: int) -> None:
    """Raise ResourceError, before allocating, when ``nbytes`` exceeds physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return
    if nbytes > limit:
        raise ResourceError(f"{what} needs about {nbytes / 2**30:.3g} GiB of arrays, more than "
                            f"the {limit / 2**30:.3g} GiB of physical memory", witness=nbytes)


def _draw_increments(seed: int, stream: int, n_paths: int, n_steps: int, dt: float,
                     antithetic: bool = False) -> np.ndarray:
    """sqrt(dt) N(0, 1) increments as the (n_paths, n_steps) view of a time-major array.

    Path blocks drawn path-major fill its columns: the numbers of one (n_paths,
    n_steps) draw, no transpose copy.  ``antithetic`` negates the first half into the second.
    """
    drawn = (n_paths + 1) // 2 if antithetic else n_paths
    rng, out = rng_stream(seed, stream), np.empty((n_steps, n_paths))
    for i in range(0, drawn, _DRAW_BLOCK):
        block = rng.standard_normal((min(_DRAW_BLOCK, drawn - i), n_steps))
        np.multiply(block.T, math.sqrt(dt), out=out[:, i:i + len(block)])
    np.negative(out[:, :n_paths - drawn], out=out[:, drawn:])
    return out.T


def simulate_forward(spec: ModelSpec, n_paths: int, n_steps: int, seed: int,
                     antithetic: bool = False, stream: int = STREAM_FORWARD) -> PathEnsemble:
    """Euler-Maruyama simulation of the forward diffusion.

    Deterministic for fixed (seed, n_paths, n_steps, stream).  NaN from a
    coefficient raises an evaluation error carrying a (path, step) witness.
    The returned ``t_grid``, ``dW`` and ``X`` are read-only (see ``PathEnsemble``).  A job
    whose draws, increments and paths (about 8 (3 n_steps + 1) bytes per path)
    exceed physical memory raises ``ResourceError`` before drawing.
    """
    if n_paths < 1 or n_steps < 1:
        raise PreconditionError("n_paths and n_steps must be >= 1")
    _preflight(f"simulate_forward({n_paths} paths x {n_steps} steps)",
               8 * n_paths * (3 * n_steps + 1))
    dt = spec.T / n_steps
    dW = _draw_increments(seed, stream, n_paths, n_steps, dt, antithetic)
    t_grid = np.linspace(0.0, spec.T, n_steps + 1)
    X, = _euler(spec, dW, spec.X0, 0.0, dt)
    for a in (t_grid, dW, X):
        a.setflags(write=False)
    return PathEnsemble(t_grid, dW, X.T, seed, stream, antithetic)


# -- regression bases --------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """Regression basis for per-step conditional expectations.

    kind 'poly': monomials of the standardized state up to ``degree``.
    kind 'pwlinear': hat functions on ``n_knots`` knots, spaced either on
    sample quantiles (robust for induction) or uniformly between the 0.1% and
    99.9% quantiles (better pointwise approximation of smooth targets).
    """

    kind: str = "poly"
    degree: int = 4
    n_knots: int = 33
    knots: str = "quantile"  # "quantile" | "uniform"


def _design(basis: BasisSpec, x: np.ndarray):
    x = np.asarray(x, dtype=float)
    if basis.kind == "poly":
        mu, sd = float(np.mean(x)), float(np.std(x))
        sd = sd if sd > 1e-300 else 1.0
        xs = (x - mu) / sd
        A = np.vander(xs, basis.degree + 1, increasing=True)
    elif basis.kind == "pwlinear":
        if basis.knots == "uniform":
            lo, hi = np.quantile(x, [0.001, 0.999])
            knots = np.unique(np.linspace(lo, hi, basis.n_knots))
        else:
            knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, basis.n_knots)))
        if knots.size < 2:
            knots = np.array([knots[0] - 0.5, knots[0] + 0.5])
        A = _hat_design(x, knots)
    else:
        raise BasisError(f"unknown basis kind {basis.kind!r}")
    return A


def _hat_design(x, knots):
    # piecewise-linear interpolation basis; columns sum to 1
    idx = np.clip(np.searchsorted(knots, x) - 1, 0, knots.size - 2)
    lam = (x - knots[idx]) / (knots[idx + 1] - knots[idx])
    lam = np.clip(lam, 0.0, 1.0)
    A = np.zeros((x.size, knots.size))
    rows = np.arange(x.size)
    A[rows, idx] = 1.0 - lam
    A[rows, idx + 1] = lam
    return A


def _gram(A: np.ndarray, ridge: float) -> np.ndarray:
    """Ridge-regularized Gram matrix A^T A / n + ridge I of a design."""
    M = A.T @ A / A.shape[0]
    M[np.diag_indices_from(M)] += ridge
    return M


def _ridge_solve(M: np.ndarray, A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the ridge fit of ``y`` on ``A`` whose Gram matrix is ``M``."""
    try:
        c = np.linalg.solve(M, A.T @ y / A.shape[0])
    except np.linalg.LinAlgError as exc:
        raise BasisError("regression design is rank deficient") from exc
    if not np.all(np.isfinite(c)):
        raise BasisError("regression produced non-finite coefficients")
    return c


def _ridge_fit(A: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    return _ridge_solve(_gram(A, ridge), A, y)


def _regress(basis: BasisSpec, x: np.ndarray, y: np.ndarray):
    A = _design(basis, x)
    c = _ridge_fit(A, y, _RIDGE)
    return A @ c, c


def _regress_chaos(basis: BasisSpec, x: np.ndarray, y: np.ndarray,
                   future_sum: np.ndarray, tau: float):
    """Conditional expectation E[y | x] with martingale noise absorption.

    The design is augmented with first/second Wiener-chaos columns built from
    the future Brownian mass (interacted with the state basis).  They are
    conditionally centered given x, so the x-part of the fit stays unbiased
    while the dominant response noise is projected out; predictions zero the
    chaos columns.  The remaining time ``tau`` is positive: the caller does k = N.
    """
    A = _design(basis, x)
    h1 = (future_sum / math.sqrt(tau))[:, None]
    h2 = ((future_sum**2 - tau) / (tau * math.sqrt(2.0)))[:, None]
    D = np.concatenate([A, A * h1, A * h2], axis=1)
    c = _ridge_fit(D, y, _RIDGE)
    return A @ c[: A.shape[1]]


@dataclass
class BsdeSolution:
    """Regression solution of the backward pair along a path ensemble."""

    t_grid: np.ndarray
    Y: np.ndarray            # (n_paths, n_steps+1), a transpose view: Y[:, k] is contiguous
    Z: np.ndarray            # (n_paths, n_steps), the same; Z[:, k] estimates Z at t_k
    basis: BasisSpec
    residuals: np.ndarray    # per-step mean squared projection residuals
    saturation_rate: float = 0.0
    z_cap: Optional[float] = None
    warnings: list = field(default_factory=list)


def solve_bsde_regression(spec: ModelSpec, ens: PathEnsemble,
                          basis: Optional[BasisSpec] = None,
                          z_cap: float = 50.0) -> BsdeSolution:
    """Least-squares Monte Carlo backward induction for (Y, Z).

    Y_{t_k} = E[Y_{t_{k+1}} | X_{t_k}] + h(t_k, X_{t_k}, ., .) dt and
    Z_{t_k} = E[Y_{t_{k+1}} dW_k / dt | X_{t_k}], both projected on the basis.
    The fitted martingale increment Z_k dW_k is subtracted from the
    continuation response, which removes most of the one-step residual
    variance.  Quadratic drivers see the z-argument truncated at ``z_cap``;
    the clip rate is reported and a warning is raised above 1% of path-steps.
    """
    basis = basis or BasisSpec()
    n, N, dt = ens.n_paths, ens.n_steps, ens.dt
    t, X, dW = ens.t_grid, ens.X.T, ens.dW.T    # time-major: each step reads rows
    Y, Z = np.empty((N + 1, n)), np.empty((N, n))
    Y[N] = spec.g(X[N])
    residuals = np.zeros(N)
    clipped = 0
    quadratic = spec.regime == "quadratic"
    for k in range(N - 1, -1, -1):
        xk = X[k]
        A = _design(basis, xk)
        M = _gram(A, _RIDGE)
        # center the martingale-increment response before the Z projection,
        # otherwise its variance grows like |x|/sqrt(dt) and the edge leverage
        # of the basis amplifies it
        cond0 = A @ _ridge_solve(M, A, Y[k + 1])
        zk = A @ _ridge_solve(M, A, (Y[k + 1] - cond0) * dW[k] / dt)
        cond = A @ _ridge_solve(M, A, Y[k + 1] - zk * dW[k])
        Z[k] = zk
        if quadratic:
            z_used = np.clip(zk, -z_cap, z_cap)
            clipped += int(np.sum(np.abs(zk) > z_cap))
        else:
            z_used = zk
        Y[k] = cond + dt * spec.h(t[k], xk, cond, z_used)
        residuals[k] = float(np.mean((Y[k + 1] - cond) ** 2))
    rate = clipped / (n * N)
    sol = BsdeSolution(t, Y.T, Z.T, basis, residuals, rate, z_cap if quadratic else None)
    if quadratic and rate > 0.01:
        sol.warnings.append(f"driver truncation saturated on {100 * rate:.2f}% of path-steps")
    return sol


def variational_processes(spec: ModelSpec, ens: PathEnsemble) -> np.ndarray:
    """First-variation process along the ensemble  (Euler on the linear SDE).

    nablaX[ :, 0] = 1 and d(nablaX) = b_x nablaX dt + sigma_x nablaX dW.
    The Malliavin derivative of the forward process follows from the flow
    representation  D_r X_t = nablaX_t (nablaX_r)^{-1} sigma(r, X_r).
    The variation is stepped along the held paths ``ens.X``, not re-simulated.
    Returned as a (n_paths, n_steps+1) transpose view of the kernel output,
    which is a read-only broadcast view of 1.0 when b_x and sigma_x are the
    constant 0 (``_euler``).
    """
    return _variations(spec, ens, order=1)[1].T


def _variations(spec: ModelSpec, ens: PathEnsemble, order: int):
    """The kernel's time-major (X, nablaX[, nabla2X]) along the ensemble's held paths."""
    return _euler(spec, ens.dW, None, ens.t_grid[0], ens.dt, order, X=ens.X.T)


def malliavin_dx(spec: ModelSpec, ens: PathEnsemble, nabla: np.ndarray, k_r: int) -> np.ndarray:
    """D_{t_{k_r}} X_t for all t >= t_{k_r} via the flow representation."""
    sig_r = spec.sigma(ens.t_grid[k_r], ens.X[:, k_r])
    out = np.full_like(nabla, np.nan)
    out[:, k_r:] = (sig_r / nabla[:, k_r])[:, None] * nabla[:, k_r:]
    return out


def _malliavin_d2x(spec: ModelSpec, ens: PathEnsemble, nabla: np.ndarray,
                   nabla2: np.ndarray, k_r: int, k_s: int) -> np.ndarray:
    """Rows hi..n_steps of D^2_{r,s} X, hi = max(k_r, k_s), from the time-major variations.

    With c_q = sigma(q, X_q) / nablaX_q, D^2 X - c_r c_s nabla2X solves the
    homogeneous variational recursion from t_hi, so that, exactly for Euler,
    D^2_{r,s} X_t = c_r c_s nabla2X_t
        + (nablaX_t / nablaX_hi) (sigma_x(hi, X_hi) D_lo X_hi - c_r c_s nabla2X_hi).
    """
    t = ens.t_grid
    lo, hi = sorted((k_r, k_s))
    c = {k: spec.sigma(t[k], ens.X[:, k]) / nabla[k] for k in (lo, hi)}
    cc = c[k_r] * c[k_s]
    start = spec.d("sigma_x")(t[hi], ens.X[:, hi]) * (c[lo] * nabla[hi]) - cc * nabla2[hi]
    return cc * nabla2[hi:] + nabla[hi:] / nabla[hi] * start


class ColumnStore:
    """Read-only (n_paths, n_cols) array of which only some columns are held.

    ``store[:, k]`` is column k across paths, all NaN when k is not held, and
    ``k in store`` tells whether it is.  ``nbytes`` counts the held columns
    only.  No other indexing is supported.
    """

    def __init__(self, columns: Sequence[int], rows: np.ndarray, n_cols: int):
        self.columns = tuple(columns)
        self._row = {k: i for i, k in enumerate(self.columns)}
        rows.setflags(write=False)
        self._rows = rows                       # row i holds column columns[i]
        self.shape = (rows.shape[1], n_cols)

    @property
    def nbytes(self) -> int:
        return self._rows.nbytes

    def __contains__(self, k) -> bool:
        return k in self._row

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], slice)
                and key[0] == slice(None) and isinstance(key[1], (int, np.integer))):
            raise IndexError("a ColumnStore is read one column at a time: store[:, k]")
        k = range(self.shape[1])[key[1]]        # numpy's bounds and negative indices
        if k in self._row:
            return self._rows[self._row[k]]
        col = np.full(self.shape[0], np.nan)
        col.setflags(write=False)
        return col


@dataclass
class MalliavinEnsemble:
    """Pathwise Malliavin-derivative processes for one differentiation time r.

    DrX, DrY, DrZ and nablaX are ``ColumnStore``s over the ensemble's grid,
    (n_paths, n_steps+1), holding only the requested time columns (every
    column from r on when no ``times`` were given); the others read as NaN.
    ``at`` returns one held column and refuses any other.
    """

    r: float
    r_index: int
    t_grid: np.ndarray
    DrX: ColumnStore
    DrY: ColumnStore
    nablaX: ColumnStore
    DrZ: Optional[ColumnStore] = None
    warnings: list = field(default_factory=list)

    def at(self, t: float, which: str = "DrY") -> np.ndarray:
        """Column t of ``which`` ('DrX', 'DrY', 'DrZ' or 'nablaX') across paths, read-only."""
        k = _time_index(self.t_grid, t)
        if k < self.r_index:
            raise PreconditionError(f"t={t} precedes the differentiation time r={self.r}")
        cols = getattr(self, which)
        if cols is None:
            raise PreconditionError(f"{which} is not available (it needs the u' grid solution)")
        if k not in cols:
            raise PreconditionError(f"{which} was not computed at t={t}; list it in `times`")
        return cols[:, k]


def _theta_node(spec: ModelSpec, sol: Union[BsdeSolution, GridSolution, tuple]):
    """(Y, Z) at grid node k, time t, states x from whichever backward solution is supplied."""
    if isinstance(sol, BsdeSolution):
        last = sol.Z.shape[1] - 1
        return lambda k, t, x: (sol.Y[:, k], sol.Z[:, min(k, last)])
    sol_u, sol_up = sol if isinstance(sol, tuple) else (sol, None)

    def at(k, t, x):
        ux = sol_up.eval(t, x) if sol_up is not None else sol_u.eval(t, x, array=sol_u.u_x)
        return sol_u.eval(t, x), ux * spec.sigma(t, x)

    return at


@dataclass
class _MalliavinContext:
    """The r-independent work of ``solve_malliavin_bsde`` on one ensemble.

    ``key`` is (objects compared by identity, values compared by equality) of
    the inputs it was built from.  ``nabla`` is the time-major first variation
    (n_steps+1, n_paths), a broadcast view that holds no memory when it is
    fixed at 1 (``_euler``); row i of ``cond`` and ``dz`` holds, at the i-th
    requested node t, the factors D_rY_t / D_rX_t and D_rZ_t / D_rX_t, which do
    not depend on r.  ``kurtosis`` is that of the whole-path Girsanov weight.
    """

    key: tuple
    nabla: np.ndarray
    cond: np.ndarray
    dz: Optional[np.ndarray]
    kurtosis: Optional[float]

    def built_from(self, key: tuple) -> bool:
        (objs, vals), (objs2, vals2) = self.key, key
        return len(objs) == len(objs2) and all(map(operator.is_, objs, objs2)) and vals == vals2


def _malliavin_context(spec: ModelSpec, ens: PathEnsemble,
                       sol: Union[BsdeSolution, GridSolution, tuple],
                       basis: BasisSpec, nodes: tuple) -> _MalliavinContext:
    """The ensemble's cached context for these inputs, built when it is missing or stale.

    The model, the paths and the solution (a (u, u') pair by its elements) are
    matched by identity, the basis and the node set by value.
    """
    sols = sol if isinstance(sol, tuple) else (sol,)
    key = ((spec, ens.t_grid, ens.dW, ens.X) + sols, (basis, nodes))
    if ens._malliavin is not None and ens._malliavin.built_from(key):
        return ens._malliavin
    ens._malliavin = None  # free the stale context before building its successor
    n, N, dt = ens.n_paths, ens.n_steps, ens.dt
    # the variation unless it is fixed at 1, two factor rows per node, the
    # chaos design (3p columns and their temporaries), a dozen path vectors
    # and one call's four results
    p = basis.degree + 1 if basis.kind == "poly" else basis.n_knots
    variation_rows = 0 if _fixed_variations(spec) else N + 1
    _preflight(f"the Malliavin context ({n} paths x {N} steps, {len(nodes)} times)",
               8 * n * (variation_rows + 6 * len(nodes) + 6 * p + 12))
    t = ens.t_grid
    # time-major views: each node reads one contiguous row of X and nablaX
    X, nab = ens.X.T, _variations(spec, ens, order=1)[1]
    theta = _theta_node(spec, sol)
    hy, hz, hx = (spec.d(name) for name in ("h_y", "h_z", "h_x"))
    sol_up = sol[1] if isinstance(sol, tuple) else None
    row = {k: i for i, k in enumerate(nodes)}
    cond = np.empty((len(nodes), n))
    dz = np.empty((len(nodes), n)) if sol_up is not None else None
    gprime = spec.d("g1")(X[N])

    def fill(k, G, S):
        # E[G_k / nablaX_k | X_k] by the chaos regression; d/dx[u_x sigma] at X_k
        i, xk = row[k], X[k]
        cond[i] = gprime * 1.0 if k == N else _regress_chaos(basis, xk, G / nab[k], S, t[N] - t[k])
        if dz is not None:
            dz[i] = _z_slope(spec, sol_up, t[k], xk)[2]

    # One backward pass over the nodes.  G is the discounted payoff with the
    # trapezoid source,  G_k = rho_k G_{k+1} + dt/2 (h_x nablaX|_k + rho_k h_x nablaX|_{k+1}),
    # with per-step weights rho_k = exp(h_y dt) exp(h_z dW - h_z^2 dt / 2); it is
    # only needed down to the first requested node.  S_k, the future Brownian
    # mass, backs the zero-mean chaos regressors that soak up the projection
    # noise without entering the prediction.  The whole-path Girsanov exponent
    # feeds the importance-weight kurtosis gate.  With h_y = h_z = 0 by the model's
    # expressions, rho and that weight are 1: the pass stops at the first node.
    weighted = not spec.constant("h_y") == spec.constant("h_z") == 0.0
    k_lo = nodes[0]
    G = gprime * nab[N]
    src_next = hx(t[N], X[N], *theta(N, t[N], X[N])) * nab[N]
    S = np.zeros(n)
    log_girsanov = np.zeros(n)
    if N in row:
        fill(N, G, S)
    for k in range(N - 1, -1 if weighted else k_lo - 1, -1):
        dw = ens.dW[:, k]
        txyz = (t[k], X[k], *theta(k, t[k], X[k]))
        if weighted:
            hz_k = hz(*txyz)
            log_girsanov += hz_k * dw - 0.5 * hz_k**2 * dt
        S = S + dw
        if k < k_lo:
            continue
        rho = np.exp(hy(*txyz) * dt + hz_k * dw - 0.5 * hz_k**2 * dt) if weighted else 1.0
        src = hx(*txyz) * nab[k]
        G = rho * G + 0.5 * dt * (src + rho * src_next)
        src_next = src
        if k in row:
            fill(k, G, S)

    girsanov = np.exp(log_girsanov)
    gv = float(np.var(girsanov))
    kurt = float(np.mean((girsanov - girsanov.mean()) ** 4) / gv**2) if gv > 0 else None
    ens._malliavin = _MalliavinContext(key, nab, cond, dz, kurt)
    return ens._malliavin


def solve_malliavin_bsde(spec: ModelSpec, ens: PathEnsemble,
                         sol: Union[BsdeSolution, GridSolution, tuple],
                         r: float, basis: Optional[BasisSpec] = None,
                         kurtosis_gate: float = 100.0,
                         times: Optional[Sequence] = None) -> MalliavinEnsemble:
    """Malliavin derivative (D_r X, D_r Y, D_r Z) for t >= r.

    Solves the linear equation satisfied by D_r Y through its explicit
    representation: discount exp(int h_y) under the h_z-tilted measure, both
    realized as pathwise exponential weights, followed by one projection on
    the state per requested time.  D_r Z is filled via the chain rule
    d/dx[u_x sigma] D_r X when a (u, u') pair of grid solutions is supplied.
    ``times`` lists the grid times to compute (default: every grid time from
    r on); the result holds those columns only (``MalliavinEnsemble``).

    All of this except the column scale sigma(r, X_r) / nablaX_r of D_r X is
    independent of r: it is computed once and kept on the ensemble, and calls
    for other r with the same spec, solution, basis and times only rescale
    it.  That context is keyed on the identity of ``spec``, of the solution
    objects and of the ensemble's arrays, so neither may be mutated after the
    first call (the ensemble's arrays are read-only).  Raises
    ``ResourceError`` before building a context whose estimated arrays exceed
    physical memory.
    """
    N = ens.n_steps
    k_r = ens.index_of(r)
    if k_r == N:
        raise PreconditionError("r must precede the terminal time")
    if times is None:
        nodes = tuple(range(k_r, N + 1))
    else:
        nodes = tuple(sorted({ens.index_of(tv) for tv in times}))
        if not nodes:
            raise PreconditionError("times lists no evaluation time")
        if nodes[0] < k_r:
            raise PreconditionError("requested evaluation time precedes r")
    ctx = _malliavin_context(spec, ens, sol, basis or BasisSpec(), nodes)
    t, nab = ens.t_grid, ctx.nabla
    nablaX = nab[list(nodes)]
    DrX = spec.sigma(t[k_r], ens.X[:, k_r]) / nab[k_r] * nablaX
    warnings = []
    if ctx.kurtosis is not None and ctx.kurtosis > kurtosis_gate:
        warnings.append(f"importance-weight kurtosis {ctx.kurtosis:.1f} exceeds gate "
                        f"{kurtosis_gate:g}")

    def store(rows):
        return ColumnStore(nodes, rows, N + 1)

    DrZ = None if ctx.dz is None else store(ctx.dz * DrX)
    return MalliavinEnsemble(t[k_r], k_r, t, store(DrX), store(ctx.cond * DrX), store(nablaX),
                             DrZ, warnings)


def z_from_malliavin(mall: MalliavinEnsemble):
    """Z_t proxy D_{t-dt} Y_t: the first column one step past r.

    Returns (t, Z_paths) where t = r + dt; that column must have been
    requested from ``solve_malliavin_bsde``.
    """
    k = mall.r_index + 1
    if k >= mall.t_grid.size:
        raise PreconditionError("no grid time strictly after r")
    t = float(mall.t_grid[k])
    if k not in mall.DrY:
        raise PreconditionError(f"D_rY was not computed at t={t} (r + dt); list it in `times`")
    return t, mall.DrY[:, k]


@dataclass
class SecondMalliavinResult:
    r: float
    s: float
    t_grid: np.ndarray
    D2Y: np.ndarray      # (n_paths, n_steps+1), NaN before max(r,s)
    D2X: np.ndarray
    DrZ: np.ndarray      # limit s -> t of D2_{r,s} Y_t, valid for t >= r


def _z_slope(spec: ModelSpec, sol_uprime: GridSolution, tk: float, xk: np.ndarray):
    """(u_x, u_xx, u_x sigma_x + u_xx sigma) at (tk, xk) from the u' grid.

    The last is d/dx[u_x sigma], the factor that turns D_r X_t into D_r Z_t.
    """
    ux = sol_uprime.eval(tk, xk)
    uxx = sol_uprime.eval(tk, xk, array=sol_uprime.u_x)
    return ux, uxx, ux * spec.d("sigma_x")(tk, xk) + uxx * spec.sigma(tk, xk)


def second_malliavin(spec: ModelSpec, sol_u: GridSolution,
                     sol_uprime: Optional[GridSolution], ens: PathEnsemble,
                     r: float, s: float) -> SecondMalliavinResult:
    """Second Malliavin derivative D^2_{r,s} Y and the D_r Z limit.

    Uses the chain-rule identity D^2 Y_t = u_x D^2 X_t + u_xx D_r X_t D_s X_t;
    D^2 X follows from the first and second variations of the Euler flow,
    stepped along the held paths (``_malliavin_d2x``; identically zero for
    additive noise), or read-only views of 1 and 0 where the model's
    expressions fix them (``_euler``).  The limit s -> t of D^2_{r,s} Y_t
    supplies D_r Z_t as (u_x sigma_x + u_xx sigma) D_r X_t.
    """
    if sol_uprime is None:
        raise PreconditionError("second_malliavin requires the u' grid (u_xx source)")
    k_r, k_s = ens.index_of(r), ens.index_of(s)
    hi = max(k_r, k_s)
    n, N = ens.n_paths, ens.n_steps
    t = ens.t_grid
    _, nabla, nabla2 = _variations(spec, ens, order=2)
    DrX = malliavin_dx(spec, ens, nabla.T, k_r)
    DsX = malliavin_dx(spec, ens, nabla.T, k_s)

    D2X = np.full((N + 1, n), np.nan)
    D2X[hi:] = _malliavin_d2x(spec, ens, nabla, nabla2, k_r, k_s)
    D2X = D2X.T

    D2Y = np.full((n, N + 1), np.nan)
    DrZ = np.full((n, N + 1), np.nan)
    for k in range(k_r, N + 1):
        ux, uxx, slope = _z_slope(spec, sol_uprime, t[k], ens.X[:, k])
        if k >= hi:
            D2Y[:, k] = ux * D2X[:, k] + uxx * DrX[:, k] * DsX[:, k]
        DrZ[:, k] = slope * DrX[:, k]
    return SecondMalliavinResult(t[k_r], t[k_s], t, D2Y, D2X, DrZ)


def malliavin_fd(spec: ModelSpec, ens: PathEnsemble, sol_u: GridSolution,
                 r: float, t: float) -> np.ndarray:
    """Brute-force Malliavin derivative by perturbing one Brownian increment.

    Bumps dW at the step starting at r by +/- 1e-4 on every path, re-runs the
    Euler forward recursion, and differences Y_t = u(t, X_t).  Independent of
    the linear-BSDE weight route by construction.
    """
    k_r, k_t = ens.index_of(r), ens.index_of(t)
    if k_t <= k_r:
        raise PreconditionError("need t strictly after r (the bumped increment must act)")
    eps, out = 1e-4, []
    for sign in (+1.0, -1.0):
        dW = ens.dW[:, k_r:k_t].copy()
        dW[:, 0] += sign * eps
        X, = _euler(spec, dW, ens.X[:, k_r], ens.t_grid[k_r], ens.dt)
        out.append(sol_u.eval(ens.t_grid[k_t], X[-1]))
    return (out[0] - out[1]) / (2.0 * eps)
