"""Density reconstruction through the rotation-coupling representation.

For a Wiener functional F with derivative path Phi_F(W), the function

    g_F(x) = int_0^inf e^{-u} E[ E*[ <Phi_F(W), Phi_F(e^{-u} W + sqrt(1-e^{-2u}) W*)> ]
                                | F - E F = x ] du

determines the law of F completely: F has a density iff g_F(F - E F) > 0
a.s., in which case

    rho(x) = E|F - E F| / (2 g_F(x - E F)) * exp( - int_0^{x - E F} u du / g_F(u) ).

``estimate_gF`` evaluates the outer integral with Gauss-Laguerre quadrature
(the e^{-u} weight is exact), realizes the independent copy W* on a paired
random stream with common random numbers across quadrature nodes (optionally
antithetic), takes the inner product in r by the trapezoid rule on the
sampler's nodes, and replaces the conditioning on the null event
{F - E F = x} by Gaussian-kernel local linear regression on F - E F, cut at
six bandwidths.  The sampler evaluates (F, Phi) once, on the unrotated draws;
the PDE samplers form Phi(r) = slope(X_t) nablaX_t sigma(r, X_r) / nablaX_r
from one node loop over the kernel's ``mc._flow``, which their ``evaluate``
and their stepped projection share, so neither forms an X or nablaX array.
The projection has two stages: ``FunctionalSampler.projector`` takes the
weighted Phi and both increment blocks once per call and returns a
projection, which maps a rotation (c, +-s) to the weighted inner product
with Phi on the path of c dW +- s dW*.  When b and sigma read no x
(``ModelSpec.reads``; b = 0, sigma = 1 in every preset), the PDE samplers
need no rotated path: the Euler recursion is linear in the increments, so
X_t = D + c S + (+-s) S* from the drift sum D and the sigma-weighted row
sums S, S* of dW and dW*, formed once (``mc._rotated_end``), and the
Phi-weight sum A = sum_k phiw[k] sigma(r_k) does not depend on the
rotation either; a rotation then costs one O(n) combination and the slope
of F at X_t.  Otherwise they run the node loop over the rotated rows,
formed one at a time, and accumulate the product node by node, so no
rotated increment, path or Phi array is formed.

``bouleau_hirsch_diagnostic`` reports the per-path Malliavin norm
int_0^t |D_r Y_t|^2 dr, whose a.s. positivity is the existence criterion the
reconstruction relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .artifacts import write_table
from .errors import PreconditionError
from .mc import (STREAM_COUPLING, STREAM_FORWARD, MalliavinEnsemble, _draw_increments, _flow,
                 _preflight, _reads_no_x, _rotated_end, _time_index)
from .model import ModelSpec
from .pde import GridSolution
from .special import gauss_laguerre, integral_from_zero

__all__ = [
    "ConditionalSpec", "GFunction", "DensityEstimate", "FunctionalSampler",
    "estimate_gF", "density_from_gF", "bouleau_hirsch_diagnostic",
    "brownian_terminal_sampler", "gaussian_integral_sampler",
    "pde_y_sampler", "pde_z_sampler", "BHReport",
]

# local linear conditioning drops draws beyond this many bandwidths (weight e^{-18} ~ 1.5e-8)
_KERNEL_CUT = 6.0


@dataclass(frozen=True)
class ConditionalSpec:
    """How the conditional expectation given F - E F = x is estimated."""

    bandwidth: Optional[float] = None   # None: 1.06 sigma n^{-1/5}
    min_count: int = 50

    def __post_init__(self):
        bw = self.bandwidth
        if bw is not None and not (math.isfinite(bw) and bw > 0):
            raise ValueError(f"bandwidth must be finite and positive, got {bw!r}")


@dataclass
class GFunction:
    """Tabulated g_F on nodes centered at the empirical mean of F."""

    x_nodes: np.ndarray          # arguments are F - E[F]
    values: np.ndarray
    se: np.ndarray
    reliable: np.ndarray         # bool mask: enough effective samples
    bandwidth: float
    mean_F: float
    mad_F: float
    n_mc: int
    seed: int
    clip_rate: float = 0.0

    def __post_init__(self):
        if np.any(np.diff(self.x_nodes) <= 0):
            raise ValueError("g_F nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("g_F values must be finite and nonnegative")

    def to_csv(self, path, header_lines=()):
        comments = [*header_lines, f"mean_F={self.mean_F:.17g} mad_F={self.mad_F:.17g} "
                    f"bandwidth={self.bandwidth:.17g} n_mc={self.n_mc} seed={self.seed}"]
        rows = ((x, v, max(v - 1.96 * s, 0.0), v + 1.96 * s)
                for x, v, s in zip(self.x_nodes, self.values, self.se))
        write_table(path, comments, ("x", "value", "ci_low", "ci_high"), rows)


@dataclass
class DensityEstimate:
    """Reconstructed density on the g_F nodes, with its interval and normalization defect."""

    x_nodes: np.ndarray          # global coordinates (mean added back)
    rho: Optional[np.ndarray]
    ci_low: Optional[np.ndarray]
    ci_high: Optional[np.ndarray]
    normalization_defect: Optional[float]
    verdict: str                 # "ok" | "existence-undetermined"
    mean_F: float = 0.0
    mad_F: float = 0.0

    def to_csv(self, path, header_lines=()):
        comments = [*header_lines, f"verdict={self.verdict} defect={self.normalization_defect}"]
        rows = () if self.rho is None else zip(self.x_nodes, self.rho, self.ci_low, self.ci_high)
        write_table(path, comments, ("x", "value", "ci_low", "ci_high"), rows)


@dataclass
class FunctionalSampler:
    """Draw-level access to (F(W), Phi_F(W)) for the coupling estimator.

    ``evaluate`` maps Brownian increments of shape (n, m) to the pair
    (F values, derivative paths on ``r_nodes``, shape (n, len(r_nodes))); it
    must be a deterministic, reentrant function of the increments.  It reads
    only increment columns 0..len(r_nodes)-2, all that ``estimate_gF`` hands
    it (time-major).  The projection has two stages:
    ``projector(phiw, dW, dWs)`` takes weights of shape (len(r_nodes), n)
    and the two (n, len(r_nodes)-1) increment blocks, does the work that
    does not depend on the rotation once, and returns ``project``, which
    maps a rotation (c, s) to sum_r phiw[r] Phi(r) per draw on the
    increments c dW + s dWs: the inner product that ``estimate_gF`` takes on
    each rotated path with common random numbers.  By default ``project``
    forms the rotated block and calls ``evaluate``; a sampler with a
    ``streamed`` route computes it without that block: the PDE samplers in
    closed form when b and sigma read no x, else row by row.
    """

    T: float
    n_steps: int
    r_nodes: np.ndarray
    evaluate: Callable
    streamed: Optional[Callable] = None  # (phiw, dW, dWs) -> ((c, s) -> sum_r phiw[r] Phi(r))

    def projector(self, phiw: np.ndarray, dW: np.ndarray,
                  dWs: np.ndarray) -> Callable[[float, float], np.ndarray]:
        if self.streamed is not None:
            return self.streamed(phiw, dW, dWs)

        def project(c, s):
            _, Phi = self.evaluate(c * dW + s * dWs)
            return np.einsum("ij,ji->i", Phi, phiw)

        return project


def brownian_terminal_sampler(T: float = 1.0, n_steps: int = 64) -> FunctionalSampler:
    """F = W_T; the derivative path is identically 1 on [0, T]."""
    r = np.linspace(0.0, T, n_steps + 1)

    def evaluate(dW):
        F = np.sum(dW, axis=1)
        Phi = np.ones((dW.shape[0], r.size))
        return F, Phi

    return FunctionalSampler(T, n_steps, r, evaluate)


def gaussian_integral_sampler(f: Callable, T: float = 1.0, n_steps: int = 64) -> FunctionalSampler:
    """F = int_0^T f(s) dW_s for deterministic f; Phi(r) = f(r)."""
    r = np.linspace(0.0, T, n_steps + 1)
    fvals = np.asarray(f(r), dtype=float) + np.zeros_like(r)

    def evaluate(dW):
        F = dW @ fvals[:-1]
        Phi = np.broadcast_to(fvals, (dW.shape[0], r.size)).copy()
        return F, Phi

    return FunctionalSampler(T, n_steps, r, evaluate)


def _snapshot_grid(spec: ModelSpec, t: float, n_steps: int):
    """(dt, k_t, r): the step T/n_steps, the step index of t and the nodes r_0..r_{k_t} = t."""
    nodes = np.linspace(0.0, spec.T, n_steps + 1)
    k_t = _time_index(nodes, t)
    return spec.T / n_steps, k_t, nodes[: k_t + 1]


def _pde_sampler(spec: ModelSpec, t: float, n_steps: int, value: Callable,
                 slope: Callable) -> FunctionalSampler:
    """The sampler of F = value(X_t), whose derivative in X_t is slope(X_t).

    Phi(r) = slope(X_t) nablaX_t sigma(r, X_r) / nablaX_r comes from one node
    loop, ``nodes``: the kernel's ``_flow`` over k_t increment rows (F and Phi
    read nothing past t), yielding (X_k, nablaX_k, sigma(r_k, X_k)) for
    k = 0..k_t.  ``evaluate`` fills row k of a time-major Phi with
    sigma / nablaX_k and multiplies the block once by slope(X_t) nablaX_t.
    The ``streamed`` route does not evaluate F.  When b and sigma read no x
    (``mc._reads_no_x``), nablaX is 1 and the Phi-weight sum A = sum_k
    phiw[k] sigma(r_k) does not depend on the increments: the projector forms
    it once, and each rotation's X_t comes from ``mc._rotated_end`` in O(n),
    so a projection returns A slope(X_t).  Otherwise each projection runs
    ``nodes`` over the rotated rows, formed one at a time, accumulating
    phiw[k] sigma / nablaX_k, and multiplies the sum by slope(X_t) nablaX_t.
    """
    dt, k_t, r = _snapshot_grid(spec, t, n_steps)
    closed = _reads_no_x(spec)

    def nodes(n, rows):
        flow = _flow(spec, rows, np.full(n, spec.X0, dtype=float), 0.0, dt, order=1)
        for rk, (x, nabla) in zip(r, flow):
            yield x, nabla, spec.sigma(rk, x)

    def evaluate(dW):
        # time-major: estimate_gF weights the rows of its transpose view without a copy
        Phi = np.empty((r.size, dW.shape[0]))
        for row, (x, nabla, sig) in zip(Phi, nodes(dW.shape[0], dW[:, :k_t].T)):
            np.divide(sig, nabla, out=row)
        Phi *= slope(x) * nabla
        return value(x), Phi.T

    def streamed(phiw, dW, dWs):
        n = phiw.shape[1]
        dW, dWs = dW[:, :k_t], dWs[:, :k_t]
        if closed:
            # the sum below with nablaX = 1: dividing and multiplying by 1.0 is exact
            acc = np.zeros(n)
            for rk, w in zip(r, phiw):
                acc += w * spec.sigma(rk, spec.X0)
            end = _rotated_end(spec, dW, dWs, dt)
            return lambda c, s: acc * slope(end(c, s))

        def project(c, s):
            acc = np.zeros(n)
            rows = (c * a + s * b for a, b in zip(dW.T, dWs.T))
            for w, (x, nabla, sig) in zip(phiw, nodes(n, rows)):
                acc += w * sig / nabla
            return acc * (slope(x) * nabla)

        return project

    return FunctionalSampler(spec.T, n_steps, r, evaluate, streamed)


def pde_y_sampler(spec: ModelSpec, sol_u: GridSolution, t: float, n_steps: int = 64,
                  sol_uprime: Optional[GridSolution] = None) -> FunctionalSampler:
    """F = Y_t = u(t, X_t); Phi(r) = D_r Y_t by the flow representation.

    Grid rows are evaluated through cubic splines: the reconstruction divides
    by g_F, so the second-order kinks of linear interpolation must not leak
    into the functional near the edges of its support.
    """
    u_s = sol_u.row_spline(t)
    ux_s = sol_uprime.row_spline(t) if sol_uprime is not None \
        else sol_u.row_spline(t, sol_u.u_x)
    return _pde_sampler(spec, t, n_steps, u_s, ux_s)


def pde_z_sampler(spec: ModelSpec, sol_uprime: GridSolution, t: float,
                  n_steps: int = 64) -> FunctionalSampler:
    """F = Z_t = u_x(t, X_t) sigma(t, X_t); Phi(r) = D_r Z_t by the chain rule.

    The slope in X_t is u_x sigma_x + u_xx sigma.  When sigma_x is the constant
    0 (every preset), the first term is not evaluated: it is a signed zero
    there, so the slope keeps its bits except where a -0.0 or a non-finite u_x
    would have entered.
    """
    sx = None if spec.constant("sigma_x") == 0.0 else spec.d("sigma_x")
    ux_s = sol_uprime.row_spline(t)
    uxx_s = sol_uprime.row_spline(t, sol_uprime.u_x)

    def value(xt):
        return ux_s(xt) * spec.sigma(t, xt)

    def slope(xt):
        if sx is None:
            return uxx_s(xt) * spec.sigma(t, xt)
        return ux_s(xt) * sx(t, xt) + uxx_s(xt) * spec.sigma(t, xt)

    return _pde_sampler(spec, t, n_steps, value, slope)


# -- conditional expectation estimators --------------------------------------


def _loclin(xdata, ydata, nodes, bw):
    """Gaussian-kernel local linear regression with pointwise SE and n_eff.

    The draws are sorted once; each node sums only over the draws within
    ``_KERNEL_CUT`` bandwidths of it, found by ``searchsorted``, so no
    (draws, nodes) block is formed.  A node whose window carries no weight,
    or whose weighted design is singular (all its draws at one x), has
    n_eff = 0 and SE = inf; its value is then T0 / S0, or 0 with no weight.
    """
    order = np.argsort(xdata)
    xs, ys = xdata[order], ydata[order]
    lo = np.searchsorted(xs, nodes - _KERNEL_CUT * bw, side="left")
    hi = np.searchsorted(xs, nodes + _KERNEL_CUT * bw, side="right")
    est, se, neff = np.zeros(nodes.size), np.full(nodes.size, np.inf), np.zeros(nodes.size)
    for j, (node, a, b) in enumerate(zip(nodes, lo, hi)):
        d, y = xs[a:b] - node, ys[a:b]
        w = np.exp(-0.5 * (d / bw) ** 2)
        wd = w * d
        S0, S1, S2, T0, T1 = w.sum(), wd.sum(), _dot(wd, d), _dot(w, y), _dot(wd, y)
        if S0 == 0.0:  # no draw in the window
            continue
        den = S0 * S2 - S1 * S1
        if den <= 1e-12 * S0 * S2:  # all the window's weight at one x
            est[j] = T0 / S0
            continue
        est[j] = (S2 * T0 - S1 * T1) / den
        r = y - est[j] - (S0 * T1 - S1 * T0) / den * d
        lev = w * (S2 - S1 * d)
        se[j] = math.sqrt(_dot(w * r, r) / S0 * _dot(lev, lev) / den**2)
        neff[j] = S0**2 / _dot(w, w)
    return est, se, neff


def _dot(a, b):
    """Inner product of two vectors outside BLAS.

    OpenBLAS threads its ddot on long windows; on a 2-CPU VM the threads
    added 0.4-0.5 s of wall time to a 1.4 s density-cubic operation.
    """
    return np.einsum("i,i", a, b)


def estimate_gF(sampler: FunctionalSampler, n_mc: int, n_u_nodes: int = 16,
                cond: Optional[ConditionalSpec] = None, seed: int = 0,
                antithetic: bool = True) -> GFunction:
    """Monte Carlo tabulation of g_F on nodes spanning the central 99% of F - E F.

    The independent copy W* uses a paired counter-based stream and is reused
    across all quadrature nodes (common random numbers); with ``antithetic``
    the rotated derivative paths are averaged over +/- W*.  The 101 nodes are
    quantile-spaced so that heavy concentration of the law (e.g. a
    square-root spike at a support edge) is resolved where the mass sits.
    Both copies are drawn at once, the coupling stream on one worker thread
    (``mc._draw_increments``), time-major, and only the len(r_nodes) - 1
    increment columns the sampler reads are kept.  A job whose two kept
    draws, Phi and weighted Phi (about 8 (4 len(r_nodes) - 2) bytes per
    draw) exceed physical memory raises ``ResourceError`` before drawing, and
    one of no draws (``n_mc`` < 1) ``PreconditionError``.

    ``sampler.evaluate`` runs once, on the unrotated draws.  Its Phi is
    multiplied once by the trapezoid weights of ``sampler.r_nodes`` (general
    weights: the nodes may be non-uniform) and held time-major as ``phiw``.
    ``sampler.projector(phiw, dW, dWs)`` is called once; each (u, sign)
    rotation is handed to the projection it returns as the pair
    (c, sign s), c = e^{-u}, s = sqrt(1 - c^2), and comes back as the
    weighted inner product per draw.  The conditioning sums over the draws
    within six bandwidths of each node only (see ``_loclin``).
    """
    if n_mc < 1:
        raise PreconditionError(f"estimate_gF needs n_mc >= 1, got {n_mc}")
    k = sampler.r_nodes.size - 1
    _preflight(f"estimate_gF({n_mc} draws x {k} steps)", 8 * n_mc * (4 * k + 2))
    cond = cond or ConditionalSpec()
    u_nodes, u_weights = gauss_laguerre(n_u_nodes)
    dW, dWs = _draw_increments(seed, (STREAM_FORWARD, STREAM_COUPLING), n_mc, sampler.n_steps,
                               sampler.T / sampler.n_steps, keep=k)
    F, Phi = sampler.evaluate(dW)
    h = np.diff(sampler.r_nodes)
    w = 0.5 * (np.pad(h, (0, 1)) + np.pad(h, (1, 0)))
    # time-major and out of place: Phi may be shared
    phiw = np.multiply(Phi.T, w[:, None], out=np.empty((w.size, n_mc)))
    del Phi
    project = sampler.projector(phiw, dW, dWs)
    signs = (1.0, -1.0) if antithetic else (1.0,)
    R = np.zeros(n_mc)
    for u, wu in zip(u_nodes, u_weights):
        c = math.exp(-u)
        s = math.sqrt(max(1.0 - c * c, 0.0))
        # c dW + (-s) dWs is bit-equal to c dW - s dWs
        inner = sum(project(c, sg * s) for sg in signs)
        R += wu * (inner / len(signs))

    mean_F = float(np.mean(F))
    x = F - mean_F
    mad_F = float(np.mean(np.abs(x)))
    nodes = np.unique(np.quantile(x, np.linspace(0.005, 0.995, 101)))
    if nodes.size < 3:
        raise PreconditionError("functional is (nearly) degenerate; no node spread")
    bw = 1.06 * float(np.std(x)) * n_mc ** (-0.2) if cond.bandwidth is None else cond.bandwidth
    est, se, neff = _loclin(x, R, nodes, bw)
    clipped = est < 0
    clip_rate = float(np.mean(clipped))
    est = np.maximum(est, 0.0)
    reliable = neff >= cond.min_count
    return GFunction(nodes, est, se, reliable, bw, mean_F, mad_F, n_mc, seed, clip_rate)


def density_from_gF(gF: GFunction) -> DensityEstimate:
    """Density reconstruction rho from a tabulated g_F.

    Requires g_F > 0 on the interior reliable nodes; otherwise the existence
    dichotomy is undetermined and no density is emitted.  The inner integral
    int_0^x u/g(u) du is trapezoidal on the node grid (0 inserted); the
    reported density is NOT renormalized -- the normalization defect is part
    of the output.  The interval is rho (1 +/- 1.96 SE / g_F), floored at 0,
    and [0, inf] at a node whose SE is inf (an empty or singular kernel
    window), whatever its rho.
    """
    mean_F, mad_F = gF.mean_F, gF.mad_F
    nodes, g = gF.x_nodes, gF.values
    interior = gF.reliable
    if np.any(g[interior] <= 0.0) or not np.any(interior):
        return DensityEstimate(nodes + mean_F, None, None, None, None, "existence-undetermined",
                               mean_F, mad_F)
    I_nodes = integral_from_zero(lambda u: u / np.maximum(np.interp(u, nodes, g), 1e-300),
                                 nodes, n_fine=0)
    g_safe = np.maximum(g, 1e-300)
    rho = mad_F / (2.0 * g_safe) * np.exp(-I_nodes)
    rel = gF.se / g_safe
    wide = np.isinf(rel)  # SE = inf: the interval is [0, inf], whatever rho is
    rel[wide] = 0.0
    ci_low = np.maximum(rho * (1.0 - 1.96 * rel), 0.0)
    ci_high = rho * (1.0 + 1.96 * rel)
    ci_low[wide], ci_high[wide] = 0.0, np.inf
    x_global = nodes + mean_F
    defect = abs(float(np.trapezoid(rho, x_global)) - 1.0)
    return DensityEstimate(x_global, rho, ci_low, ci_high, defect, "ok",
                           mean_F, mad_F)


@dataclass
class BHReport:
    t: float
    norms: np.ndarray
    min: float
    quantiles: dict
    verdict: str
    r_nodes: np.ndarray


def bouleau_hirsch_diagnostic(malls: Sequence[MalliavinEnsemble], t: float,
                              threshold: float = 1e-4,
                              which: str = "DrY") -> BHReport:
    """Per-path Malliavin norm int_0^t |D_r Y_t|^2 dr with a 3-way verdict.

    Rectangle rule over the differentiation times of the supplied ensembles
    (the value at the smallest r extends to 0).  Verdicts: 'degenerate' when
    every path is below threshold, 'supports-density' when every path is
    above, otherwise 'inconclusive'.  ``which`` selects the derivative
    process: 'DrY' for the value component, 'DrZ' for the control.
    """
    if isinstance(malls, MalliavinEnsemble):
        malls = [malls]
    malls = sorted(malls, key=lambda m: m.r)
    r = np.array([m.r for m in malls])
    if np.any(r >= t - 1e-12):
        raise PreconditionError("all differentiation times must lie strictly below t")
    if which == "DrZ" and any(m.DrZ is None for m in malls):
        raise PreconditionError("DrZ not available on the supplied ensembles "
                                "(grid solutions are required)")
    vals = np.stack([m.at(t, which) for m in malls], axis=1)  # (n_paths, n_r)
    edges = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [t]]) if r.size > 1 \
        else np.array([0.0, t])
    widths = np.diff(edges)
    norms = (vals**2) @ widths
    qs = {q: float(np.quantile(norms, q / 100.0)) for q in (5, 25, 50, 75, 95)}
    if float(np.max(norms)) <= threshold:
        verdict = "degenerate"
    elif float(np.min(norms)) > threshold:
        verdict = "supports-density"
    else:
        verdict = "inconclusive"
    return BHReport(t, norms, float(np.min(norms)), qs, verdict, r)
