"""Monte Carlo machinery: forward paths, regression BSDE solver, Malliavin routes.

The forward component is simulated by Euler-Maruyama with counter-based
(Philox) random streams so that ensembles are reproducible for a fixed
(seed, n_paths, n_steps).  Paths are not addressable counter blocks: the
ziggurat normal sampler consumes a variable number of counter words, so
path i depends on every earlier path (see ROADMAP.md, item "Draw blocks as the
unit of work").  ``_draw_increments`` draws each stream block by block
through one reused buffer and keeps only the increment columns asked for;
given two streams (g_F's Brownian copies), it draws the second on one worker
thread at the same time, the only thread the package starts.  One
recursion, ``_flow``, steps X and its first and second variations for every
caller, one increment row at a time; ``_euler`` collects it into time-major
arrays, and the g_F samplers of ``density`` consume it node by node.  Where b and sigma read no x, the samplers' rotated
paths need only their last state, which ``_rotated_end`` gives in closed
form from two row sums.  The kernel reads a constant b and sigma once
(``ModelSpec.constant``): with b = 0 and sigma = 1 a step is one addition.  A
variation that the model's expressions fix at 1 or 0 (b_x, sigma_x, b_xx,
sigma_xx the constant 0) is not stepped: ``_euler`` returns it as a read-only
broadcast view.  The Malliavin routines hand it an ensemble's held paths and
step only the variations along them.
``simulate_forward`` hands out the time grid, ``dW`` and ``X`` read-only:
later work is cached against them.

The backward pair is solved by least-squares Monte Carlo: per-step
conditional expectations are projected on a polynomial (or piecewise-linear)
basis in the Markovian state.  Each step fills one preallocated row-major
(p, n) design At, factors its Gram matrix At At^T / n + ridge I once by
Cholesky, and serves the step's three fits from that factor, each through the
products At @ y and c @ At.  A poly design's Gram is formed from the power
sums of its standardized state (two matrix-vector products), a hat design's
as At @ At.T.  These products are the BLAS calls that OpenBLAS may run on its
own thread pool.

Malliavin derivatives of the backward component solve a linear BSDE; its
closed-form representation discounts the terminal slope by exp(int h_y) under
the h_z-tilted measure, which is implemented with pathwise exponential
weights plus a single conditional-expectation regression per requested time,
rather than nested regression.  Given the requested times, all of that is
independent of the differentiation time r except the column scale
sigma(r, X_r) / nablaX_r of D_r X.  ``solve_malliavin_bsde`` therefore keeps
the r-independent work in a context on the ensemble, rebuilt when the model,
the solution, the basis or the requested times change, and each call only
rescales its columns.  Both Malliavin results, that one and
``second_malliavin``'s, hold only the grid columns they computed, ``nodes``,
as read-only time-major (len(nodes), n_paths) rows; their ``at`` reads the
row of one held time and refuses any other.

Jobs whose estimated array bytes exceed the machine's physical memory raise
``ResourceError`` before allocating.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox

from .errors import BasisError, EvaluationError, PreconditionError, ResourceError
from .model import ModelSpec, check_horizon
from .pde import GridSolution, yz

__all__ = [
    "STREAM_FORWARD", "STREAM_COUPLING",
    "PathEnsemble", "BasisSpec", "BsdeSolution", "MalliavinEnsemble",
    "simulate_forward", "solve_bsde_regression", "variational_processes",
    "solve_malliavin_bsde", "z_from_malliavin", "second_malliavin",
    "malliavin_fd", "rng_stream",
]

STREAM_FORWARD = 0
STREAM_COUPLING = 1
_DRAW_BLOCK = 512  # paths per block of ``_draw_increments``: 1 MB at 256 steps
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
        raise PreconditionError(f"t={t} is not a node of the time grid")
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

    def index_of(self, t: float, nearest: bool = False) -> int:
        return _time_index(self.t_grid, t, nearest)


def _fixed_variations(spec: ModelSpec) -> int:
    """How many of (nablaX, nabla2X) are identically (1, 0) by the model's expressions.

    nablaX = 1 when b_x and sigma_x are the constant 0; nabla2X = 0 when b_xx
    and sigma_xx are as well.
    """
    zero = [spec.constant(name) == 0.0 for name in ("b_x", "sigma_x", "b_xx", "sigma_xx")]
    return 2 if all(zero) else 1 if all(zero[:2]) else 0


def _flow(spec: ModelSpec, rows: Iterable[np.ndarray], x0, t0: float, dt: float,
          order: int = 0, X: Optional[Iterable[np.ndarray]] = None) -> Iterator[tuple]:
    """The Euler-Maruyama recursion, one node at a time.

    Steps X from the (n_paths,) row ``x0`` at time ``t0`` through the
    increment rows dW_0, dW_1, ... of ``rows`` (time-major (n_paths,)
    vectors, read once each, in order); ``order`` 1 adds the first variation
    (nablaX_0 = 1) and ``order`` 2 the second variation (nabla2X_0 = 0):

        X_{k+1}       = X_k + b dt + sigma dW_k
        nablaX_{k+1}  = nablaX_k g_k,   g_k = 1 + b_x dt + sigma_x dW_k
        nabla2X_{k+1} = nabla2X_k g_k + nablaX_k^2 (b_xx dt + sigma_xx dW_k)

    with coefficients at (t0 + k dt, X_k).  A b or sigma that is a constant
    expression (``ModelSpec.constant``) is read once, not evaluated per step:
    a zero b dt adds no drift, sigma = 1 multiplies nothing, and any other
    constant is a float in the same (X_k + b dt) + sigma dW_k order, so the
    states are those of the evaluated recursion bit for bit (the sign of a
    zero state aside, only when X0 is -0.0).  Yields (X_k, nablaX_k,
    nabla2X_k)[:order + 1] for k = 0, 1, ..., one node per row plus the start,
    and holds only the node it steps from.  Given ``X``, an iterable of the
    state rows already stepped on these increments, only the variations are
    stepped along it and ``x0`` is not read.  The start values 1.0 and 0.0,
    and a variation the model's expressions fix (``_fixed_variations``) at
    every node, are yielded as floats.  A non-finite stepped value raises an
    evaluation error with a (path, step) witness: one sum per stepped row
    screens it, and only a row whose sum is not finite is searched (a finite
    row whose sum overflows passes).  numpy's floating-point warnings are off
    for the stepping and the screen.
    """
    held = X is not None
    fixed = _fixed_variations(spec) if order else 0
    states = iter(X) if held else None
    node = [next(states) if held else x0, 1.0, 0.0][:order + 1]
    names = ("state", "variational state", "second variational state")
    stepped = ([] if held else [0]) + list(range(fixed + 1, order + 1))
    bx, sx, bxx, sxx = (spec.d(name) for name in ("b_x", "sigma_x", "b_xx", "sigma_xx"))
    b, sig = spec.constant("b"), spec.constant("sigma")
    bdt = None if b is None else b * dt
    growth = 1.0
    yield tuple(node)
    for k, dw in enumerate(rows):
        t, xk = t0 + k * dt, node[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if held:
                x = next(states)
            else:
                x = xk + spec.b(t, xk) * dt if bdt is None else xk + bdt if bdt != 0.0 else xk
                x = x + (spec.sigma(t, xk) * dw if sig is None else dw if sig == 1.0 else sig * dw)
            new = [x, *node[1:]]
            if fixed < 1 <= order:
                growth = 1.0 + bx(t, xk) * dt + sx(t, xk) * dw
                new[1] = node[1] * growth
            if fixed < 2 <= order:
                new[2] = node[2] * growth \
                    + node[1] ** 2 * (bxx(t, xk) * dt + sxx(t, xk) * dw)
            for i in stepped:
                _screen(new[i], names[i], k + 1)
        node = new
        yield tuple(node)


def _screen(v: np.ndarray, what: str, step: int) -> None:
    """Raise an evaluation error, witness (path, step), at the first non-finite entry of ``v``.

    One sum screens the row; only a row whose sum is not finite is searched
    (a finite row whose sum overflows passes).
    """
    if not math.isfinite(float(v.sum())):
        bad = ~np.isfinite(v)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise EvaluationError(f"non-finite {what} at path {j}, step {step}",
                                  witness=(j, step))


def _reads_no_x(spec: ModelSpec) -> bool:
    """Whether b and sigma read no x (``ModelSpec.reads``) and nablaX is fixed at 1.

    The Euler recursion is then linear in the increments (``_rotated_end``).
    Exact partials of such a b and sigma are the constant 0; the second test
    only matters for b_x or sigma_x supplied as opaque callables.
    """
    return (not any("x" in spec.reads(name) for name in ("b", "sigma"))
            and _fixed_variations(spec) >= 1)


def _rotated_end(spec: ModelSpec, dW: np.ndarray, dWs: np.ndarray,
                 dt: float) -> Callable[[float, float], np.ndarray]:
    """The last state of ``_flow`` over the rows c dW_k + s dW*_k, in closed form.

    The flow starts at X_0 = spec.X0, t = 0.  For a b and sigma that read no
    x (``_reads_no_x``), coefficients at t_k = k dt, X_{k+1} = X_k + b(t_k) dt
    + sigma(t_k) dW_k is linear in the increments, and after the
    N = dW.shape[1] steps

        X_N = D + c S + s S*,   D = X_0 + sum_k b(t_k) dt,
        S = sum_k sigma(t_k) dW_k,   S* = sum_k sigma(t_k) dW*_k.

    D, S and S* are formed here, once, from the (n_paths, N) ``dW`` and
    ``dWs``; the returned ``end(c, s)`` costs O(n_paths) per rotation.  The
    sums are added in another order than the recursion's, so X_N agrees with
    ``_flow``'s at rounding level.  As in ``_flow``, a non-finite X_N raises
    an evaluation error, here with witness (path, N): the closed form has no
    earlier step to name.
    """
    N = dW.shape[1]
    x0 = spec.X0
    times = [0.0 + k * dt for k in range(N)]
    drift = x0
    for t in times:
        drift += float(spec.b(t, x0)) * dt
    sig = np.array([float(spec.sigma(t, x0)) for t in times])
    with np.errstate(over="ignore", invalid="ignore"):
        S, Ss = (np.einsum("k,nk->n", sig, a) for a in (dW, dWs))

    def end(c: float, s: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            x = drift + c * S + s * Ss
            _screen(x, "state", N)
        return x

    return end


def _euler(spec: ModelSpec, dW: np.ndarray, x0, t0: float, dt: float, order: int = 0,
           X: Optional[np.ndarray] = None):
    """The flow of ``_flow`` on the columns of ``dW``, collected into arrays.

    ``dW`` is (n_paths, n_steps), read column by column in place
    (contiguously when it is time-major, as ``_draw_increments`` hands it
    out), and ``x0`` a start broadcast to n_paths.  Given ``X``, the
    time-major (n_steps+1, n_paths) states already stepped on these
    increments (a path ensemble's ``X.T``), only the variations are stepped
    and ``X`` is returned as it is; ``x0`` is then not read.  Returns
    ``order + 1`` time-major (n_steps+1, n_paths) arrays, contiguous where
    the kernel fills them, so each step writes one row.  A variation the
    model's expressions fix (``_fixed_variations``) is not stepped: it comes
    back as a read-only broadcast view of 1.0 or 0.0, the recursion's values
    bit for bit.
    """
    n, N = dW.shape
    held = X is not None
    fixed = _fixed_variations(spec) if order else 0
    flow = [X if held else np.empty((N + 1, n))]
    flow += [np.broadcast_to(start, (N + 1, n)) if i <= fixed else np.empty((N + 1, n))
             for i, start in ((1, 1.0), (2, 0.0))[:order]]
    stepped = ([] if held else [0]) + list(range(fixed + 1, order + 1))
    start = None if held else np.full(n, x0, dtype=float)
    for k, node in enumerate(_flow(spec, dW.T, start, t0, dt, order, X)):
        for i in stepped:
            flow[i][k] = node[i]
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


def _fill(rng: Generator, buf: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Draw ``out.shape[1]`` paths of ``rng`` path-major through ``buf``, scaled into ``out``.

    ``buf`` is one reused C-contiguous (block, n_steps) buffer; each block of
    paths is drawn into it whole, and only its first ``out.shape[0]`` columns
    are multiplied by ``scale`` into the time-major ``out``.  Calls only the
    generator and numpy, both of which release the GIL on these arrays.
    """
    keep, drawn = out.shape
    for i in range(0, drawn, len(buf)):
        block = buf[:min(len(buf), drawn - i)]
        rng.standard_normal(out=block)
        np.multiply(block[:, :keep].T, scale, out=out[:, i:i + len(block)])


def _draw_increments(seed: int, streams: Sequence[int], n_paths: int, n_steps: int, dt: float,
                     antithetic: bool = False, keep: Optional[int] = None) -> list:
    """sqrt(dt) N(0, 1) increments of each stream, as (n_paths, keep) views of time-major arrays.

    Each stream is drawn as one (n_paths, n_steps) path-major draw, block by
    block through one reused buffer, and only its first ``keep`` (default
    n_steps) columns are scaled into the output, so a column is that of the
    full draw bit for bit.  ``antithetic`` negates the first half into the
    second.  The first stream is drawn on the calling thread and each further
    one on a worker thread of its own, at the same time; every array is
    allocated here, the workers run ``_fill`` alone, and all are joined
    before this returns, re-raising a worker's error.  A stream's numbers
    depend on its key alone, not on the thread that draws it.
    """
    keep = n_steps if keep is None else keep
    drawn = (n_paths + 1) // 2 if antithetic else n_paths
    outs = [np.empty((keep, n_paths)) for _ in streams]
    rows = min(_DRAW_BLOCK, max(drawn, 1))
    jobs = [(rng_stream(seed, s), np.empty((rows, n_steps)), out[:, :drawn], math.sqrt(dt))
            for s, out in zip(streams, outs)]
    errors = []

    def work(job):
        try:
            _fill(*job)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for job in jobs[1:]:
            worker = threading.Thread(target=work, args=(job,))
            worker.start()
            started.append(worker)
        _fill(*jobs[0])
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]
    for out in outs:
        np.negative(out[:, :n_paths - drawn], out=out[:, drawn:])
    return [out.T for out in outs]


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
    dW, = _draw_increments(seed, (stream,), n_paths, n_steps, dt, antithetic)
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


def _basis_rows(basis: BasisSpec) -> int:
    """Rows of a design buffer for ``basis``: its p, or the two knots of a one-knot hat basis."""
    return basis.degree + 1 if basis.kind == "poly" else max(basis.n_knots, 2)


def _design(basis: BasisSpec, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The row-major (p, n) design of ``basis`` at the states ``x``, filled into ``out``.

    ``out`` is a (``_basis_rows``, n) buffer; the returned view is its first p
    rows (a hat basis may have fewer knots than ``n_knots``).  Poly rows are
    1, x_s = (x - mean) / sd and x_s^j = x_s^{j-1} x_s, each formed in place,
    with the bits of ``np.mean`` and ``np.std``; an sd of at most 1e-300
    (constant states) is taken as 1.
    """
    x = np.asarray(x, dtype=float)
    if basis.kind == "poly":
        At = out[:basis.degree + 1]
        if basis.degree >= 1:
            # np.mean's mean and np.std's deviation from it, formed once (the
            # same bits), with row 0 holding the squares until it is filled
            mu = float(np.add.reduce(x)) / x.size
            np.subtract(x, mu, out=At[1])
            np.multiply(At[1], At[1], out=At[0])
            sd = math.sqrt(float(np.add.reduce(At[0])) / x.size)
            At[1] /= sd if sd > 1e-300 else 1.0
        At[0] = 1.0
        for j in range(2, basis.degree + 1):
            np.multiply(At[j - 1], At[1], out=At[j])
        return At
    if basis.kind == "pwlinear":
        # one sort gives the knots (np.quantile of the sorted states takes the
        # same order statistics, so the same bits) and every state's cell
        order = np.argsort(x)
        xs = x[order]
        if basis.knots == "uniform":
            lo, hi = np.quantile(xs, [0.001, 0.999])
            knots = np.unique(np.linspace(lo, hi, basis.n_knots))
        else:
            knots = np.unique(np.quantile(xs, np.linspace(0.0, 1.0, basis.n_knots)))
        if knots.size < 2:
            knots = np.array([knots[0] - 0.5, knots[0] + 0.5])
        return _hat_design(x, order, xs, knots, out[:knots.size])
    raise BasisError(f"unknown basis kind {basis.kind!r}")


def _hat_design(x, order, xs, knots, At):
    """Hat rows of ``knots`` at the states ``x`` (sorted: ``xs`` = x[order]), filled into ``At``.

    The piecewise-linear interpolation basis, one row per knot; columns sum
    to 1.  State i lies in cell clip(#{knots < x_i} - 1, 0, len(knots) - 2),
    counted on the sorted states from where each knot falls among them.
    """
    # how many sorted states have 0, 1, ..., len(knots) knots below them
    runs = np.diff(np.searchsorted(xs, knots, side="right"), prepend=0, append=x.size)
    idx = np.empty(x.size, dtype=np.intp)
    idx[order] = np.clip(np.repeat(np.arange(knots.size + 1), runs) - 1, 0, knots.size - 2)
    lam = (x - knots[idx]) / (knots[idx + 1] - knots[idx])
    lam = np.clip(lam, 0.0, 1.0)
    cols = np.arange(x.size)
    At.fill(0.0)
    At[idx, cols] = 1.0 - lam
    At[idx + 1, cols] = lam
    return At


def _poly_gram(At: np.ndarray) -> np.ndarray:
    """The Gram matrix At At^T / n of a (p, n) poly design, from its power sums.

    Row j of At is x_s^j, so entry (i, j) is s_{i+j} / n, s_m being the sum
    of x_s^m: a Hankel matrix.  s_0 = n; s_1 ... s_{p-1} and s_p ... s_{2p-2}
    are the products of rows 1 ... p - 1 with row 0 (the ones) and with row
    p - 1, two matrix-vector products.
    """
    p, n = At.shape
    s = np.empty(2 * p - 1)
    s[0] = n
    np.matmul(At[1:], At[0], out=s[1:p])
    np.matmul(At[1:], At[p - 1], out=s[p:])
    i = np.arange(p)
    return s[i[:, None] + i] / n


def _gram_factor(M: np.ndarray, ridge: float) -> np.ndarray:
    """Upper Cholesky factor of M + ridge I, M the Gram matrix At At^T / n of a (p, n) design.

    M is overwritten.
    """
    from scipy.linalg.lapack import dpotrf  # imported here: scipy.linalg slows package import

    M.ravel()[::M.shape[0] + 1] += ridge
    R, info = dpotrf(M, overwrite_a=True)
    if info != 0:
        raise BasisError("regression design is rank deficient")
    return R


def _ridge_solve(R: np.ndarray, At: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the ridge fit of ``y`` on ``At`` whose Gram factor is ``R``."""
    from scipy.linalg.lapack import dpotrs  # imported here, as in ``_gram_factor``

    c, _ = dpotrs(R, At @ y / At.shape[1])
    if not np.all(np.isfinite(c)):
        raise BasisError("regression produced non-finite coefficients")
    return c


def _ridge_fit(At: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    return _ridge_solve(_gram_factor(At @ At.T / At.shape[1], ridge), At, y)


def _regress_chaos(basis: BasisSpec, x: np.ndarray, y: np.ndarray,
                   future_sum: np.ndarray, tau: float, out: np.ndarray):
    """Conditional expectation E[y | x] with martingale noise absorption.

    The design is augmented with first/second Wiener-chaos rows built from
    the future Brownian mass (interacted with the state basis).  They are
    conditionally centered given x, so the x-part of the fit stays unbiased
    while the dominant response noise is projected out; predictions zero the
    chaos rows.  The remaining time ``tau`` is positive: the caller does k = N.
    ``out`` is a (3 ``_basis_rows``, n) buffer; the design is its first 3p
    rows, the state design At over At h1 over At h2.
    """
    At = _design(basis, x, out)
    p = At.shape[0]
    np.multiply(At, future_sum / math.sqrt(tau), out=out[p:2 * p])
    np.multiply(At, (future_sum**2 - tau) / (tau * math.sqrt(2.0)), out=out[2 * p:3 * p])
    c = _ridge_fit(out[:3 * p], y, _RIDGE)
    return c[:p] @ At


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

    Each step factors the ridge Gram matrix of its design once by Cholesky
    (``_gram_factor``) and serves its three fits from that factor.  A poly
    design's Gram is the Hankel matrix of its power sums (``_poly_gram``: two
    matrix-vector products); a hat design's is the product ``At @ At.T``.
    The design, the fitted values, the responses and the squared residuals
    live in buffers allocated once per call.
    """
    basis = basis or BasisSpec()
    n, N, dt = ens.n_paths, ens.n_steps, ens.dt
    t, X, dW = ens.t_grid, ens.X.T, ens.dW.T    # time-major: each step reads rows
    Y, Z = np.empty((N + 1, n)), np.empty((N, n))
    Y[N] = spec.g(X[N])
    residuals = np.zeros(N)
    clipped = 0
    quadratic = spec.regime == "quadratic"
    poly = basis.kind == "poly"
    At_buf = np.empty((_basis_rows(basis), n))
    fit, r = np.empty(n), np.empty(n)  # a fitted value and a response, reused by every step
    for k in range(N - 1, -1, -1):
        xk, y1, dw = X[k], Y[k + 1], dW[k]
        At = _design(basis, xk, At_buf)
        R = _gram_factor(_poly_gram(At) if poly else At @ At.T / n, _RIDGE)
        # center the martingale-increment response before the Z projection,
        # otherwise its variance grows like |x|/sqrt(dt) and the edge leverage
        # of the basis amplifies it
        np.dot(_ridge_solve(R, At, y1), At, out=fit)
        np.subtract(y1, fit, out=r)
        r *= dw
        r /= dt
        zk = np.dot(_ridge_solve(R, At, r), At, out=Z[k])
        np.multiply(zk, dw, out=r)
        np.subtract(y1, r, out=r)
        cond = np.dot(_ridge_solve(R, At, r), At, out=fit)
        if quadratic:
            z_used = np.clip(zk, -z_cap, z_cap, out=r)
            clipped += int(np.count_nonzero(np.abs(zk) > z_cap))
        else:
            z_used = zk
        np.add(cond, dt * spec.h(t[k], xk, cond, z_used), out=Y[k])
        np.subtract(y1, cond, out=r)
        np.square(r, out=r)
        residuals[k] = float(np.add.reduce(r)) / n  # np.mean's bits
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


def _drx(spec: ModelSpec, ens: PathEnsemble, nabla: np.ndarray, k_r: int, rows) -> np.ndarray:
    """D_{t_{k_r}} X on ``rows`` by the flow representation: sigma(r, X_r) / nablaX_r * rows.

    ``nabla`` is the time-major (n_steps+1, n_paths) first variation and
    ``rows`` holds nablaX at the times wanted (time-major rows, or 1.0 for the
    column scale alone), so D_r X_t = nablaX_t sigma(r, X_r) / nablaX_r.
    """
    return spec.sigma(ens.t_grid[k_r], ens.X[:, k_r]) / nabla[k_r] * rows


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
    c = {k: _drx(spec, ens, nabla, k, 1.0) for k in (lo, hi)}
    cc = c[k_r] * c[k_s]
    start = spec.d("sigma_x")(t[hi], ens.X[:, hi]) * (c[lo] * nabla[hi]) - cc * nabla2[hi]
    return cc * nabla2[hi:] + nabla[hi:] / nabla[hi] * start


def _held_row(res, t: float, which: str, first: int, before: str) -> np.ndarray:
    """Row of the result's time-major ``which`` that holds grid time t (read-only).

    Row i of each array of ``res`` is grid column ``res.nodes[i]``.  A t
    outside [0, T] or off the grid raises (``_time_index``), and so do a t
    before column ``first`` (``before`` names that time), an array the
    result lacks and a column it does not hold.
    """
    k = _time_index(res.t_grid, t)
    if k < first:
        raise PreconditionError(f"t={t} precedes {before}")
    rows = getattr(res, which)
    if rows is None:
        raise PreconditionError(f"{which} is not available (it needs the u' grid solution)")
    if k not in res.nodes:
        raise PreconditionError(f"{which} was not computed at t={t}; list it in `times`")
    return rows[res.nodes.index(k)]


@dataclass
class MalliavinEnsemble:
    """Pathwise Malliavin-derivative processes for one differentiation time r.

    ``nodes`` lists the grid columns computed (the requested times, or every
    column from r on when no ``times`` were given).  DrX, DrY, DrZ and nablaX
    are read-only time-major (len(nodes), n_paths) arrays whose row i is
    column ``nodes[i]``.  ``at`` returns the row of one held time and refuses
    any other.
    """

    r: float
    r_index: int
    t_grid: np.ndarray
    nodes: tuple
    DrX: np.ndarray
    DrY: np.ndarray
    nablaX: np.ndarray
    DrZ: Optional[np.ndarray] = None
    warnings: list = field(default_factory=list)

    def at(self, t: float, which: str = "DrY") -> np.ndarray:
        """Time t of ``which`` ('DrX', 'DrY', 'DrZ' or 'nablaX') across paths, read-only."""
        return _held_row(self, t, which, self.r_index, f"the differentiation time r={self.r}")


def _theta_node(spec: ModelSpec, sol: Union[BsdeSolution, GridSolution, tuple]):
    """(Y, Z) at grid node k, time t, states x from whichever backward solution is supplied."""
    if isinstance(sol, BsdeSolution):
        last = sol.Z.shape[1] - 1
        return lambda k, t, x: (sol.Y[:, k], sol.Z[:, min(k, last)])
    sol_u, sol_up = sol if isinstance(sol, tuple) else (sol, None)
    return lambda _k, t, x: yz(sol_u, sol_up, spec, t, x)


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
    # chaos design (one (3p, n) buffer), a dozen path vectors
    # and one call's four results
    p = _basis_rows(basis)
    variation_rows = 0 if _fixed_variations(spec) else N + 1
    _preflight(f"the Malliavin context ({n} paths x {N} steps, {len(nodes)} times)",
               8 * n * (variation_rows + 6 * len(nodes) + 3 * p + 12))
    t = ens.t_grid
    # time-major views: each node reads one contiguous row of X and nablaX
    X, nab = ens.X.T, _variations(spec, ens, order=1)[1]
    driver = ("h_y", "h_z", "h_x")
    hy, hz, hx = map(spec.d, driver)
    if any(spec.reads(name) & {"y", "z"} for name in driver):
        theta = _theta_node(spec, sol)
    else:  # no partial reads (Y, Z): 0.0 keeps their bits and shape, as in pde._Leaves
        theta = lambda _k, _t, _x: (0.0, 0.0)
    sol_up = sol[1] if isinstance(sol, tuple) else None
    row = {k: i for i, k in enumerate(nodes)}
    cond, design = np.empty((len(nodes), n)), np.empty((3 * p, n))
    dz = np.empty((len(nodes), n)) if sol_up is not None else None
    gprime = spec.d("g1")(X[N])

    def fill(k, G, S):
        # E[G_k / nablaX_k | X_k] by the chaos regression; d/dx[u_x sigma] at X_k
        i, xk = row[k], X[k]
        cond[i] = gprime * 1.0 if k == N else _regress_chaos(basis, xk, G / nab[k], S, t[N] - t[k],
                                                               design)
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
    nablaX = ctx.nabla[list(nodes)]
    DrX = _drx(spec, ens, ctx.nabla, k_r, nablaX)
    warnings = []
    if ctx.kurtosis is not None and ctx.kurtosis > kurtosis_gate:
        warnings.append(f"importance-weight kurtosis {ctx.kurtosis:.1f} exceeds gate "
                        f"{kurtosis_gate:g}")
    DrZ = None if ctx.dz is None else ctx.dz * DrX
    rows = (DrX, ctx.cond * DrX, nablaX, DrZ)
    for a in rows:
        if a is not None:
            a.setflags(write=False)
    return MalliavinEnsemble(ens.t_grid[k_r], k_r, ens.t_grid, nodes, *rows, warnings)


def z_from_malliavin(mall: MalliavinEnsemble):
    """Z_t proxy D_{t-dt} Y_t: D_rY at t = r + dt.

    Returns (t, Z_paths); t must have been requested from ``solve_malliavin_bsde``.
    """
    k = mall.r_index + 1
    if k >= mall.t_grid.size:
        raise PreconditionError("no grid time strictly after r")
    t = float(mall.t_grid[k])
    return t, mall.at(t)


@dataclass
class SecondMalliavinResult:
    """D^2_{r,s} X and D^2_{r,s} Y as read-only time-major (len(nodes), n_paths) arrays.

    ``nodes`` is max(r, s) .. n_steps on the grid; row i is column
    ``nodes[i]``, and ``at`` reads one time and refuses one before max(r, s).
    """

    r: float
    s: float
    t_grid: np.ndarray
    nodes: tuple
    D2Y: np.ndarray
    D2X: np.ndarray

    def at(self, t: float, which: str = "D2Y") -> np.ndarray:
        """Time t of ``which`` ('D2X' or 'D2Y') across paths, read-only."""
        return _held_row(self, t, which, self.nodes[0], f"max(r, s) = {max(self.r, self.s)}")


def _z_slope(spec: ModelSpec, sol_uprime: GridSolution, tk: float, xk: np.ndarray):
    """(u_x, u_xx, u_x sigma_x + u_xx sigma) at (tk, xk) from the u' grid.

    The last is d/dx[u_x sigma], the factor that turns D_r X_t into D_r Z_t.
    """
    ux = sol_uprime.eval(tk, xk)
    uxx = sol_uprime.eval(tk, xk, array=sol_uprime.u_x)
    return ux, uxx, ux * spec.d("sigma_x")(tk, xk) + uxx * spec.sigma(tk, xk)


def second_malliavin(spec: ModelSpec, sol_uprime: Optional[GridSolution], ens: PathEnsemble,
                     r: float, s: float) -> SecondMalliavinResult:
    """Second Malliavin derivative D^2_{r,s} Y on the grid times from max(r, s) on.

    Uses the chain-rule identity D^2 Y_t = u_x D^2 X_t + u_xx D_r X_t D_s X_t;
    D^2 X follows from the first and second variations of the Euler flow,
    stepped along the held paths (``_malliavin_d2x``; identically zero for
    additive noise), or read-only views of 1 and 0 where the model's
    expressions fix them (``_euler``).  D_r X and D_s X are formed on those
    rows only.  D_r Z_t, the limit s -> t of D^2_{r,s} Y_t, is the DrZ of
    ``solve_malliavin_bsde`` with a (u, u') pair.
    """
    if sol_uprime is None:
        raise PreconditionError("second_malliavin requires the u' grid (u_xx source)")
    k_r, k_s = ens.index_of(r), ens.index_of(s)
    nodes = tuple(range(max(k_r, k_s), ens.n_steps + 1))
    t = ens.t_grid
    _, nabla, nabla2 = _variations(spec, ens, order=2)
    D2X = _malliavin_d2x(spec, ens, nabla, nabla2, k_r, k_s)
    DrX, DsX = (_drx(spec, ens, nabla, k, nabla[nodes[0]:]) for k in (k_r, k_s))
    D2Y = np.empty_like(D2X)
    for i, k in enumerate(nodes):
        ux, uxx, _ = _z_slope(spec, sol_uprime, t[k], ens.X[:, k])
        D2Y[i] = ux * D2X[i] + uxx * DrX[i] * DsX[i]
    for a in (D2X, D2Y):
        a.setflags(write=False)
    return SecondMalliavinResult(t[k_r], t[k_s], t, nodes, D2Y, D2X)


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
