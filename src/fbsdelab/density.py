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
antithetic), and replaces the conditioning on the null event {F - E F = x}
by local linear regression on F - E F, or by equal-count binning when
``ConditionalSpec(kind="bins")`` asks for it.

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
from .mc import STREAM_COUPLING, STREAM_FORWARD, MalliavinEnsemble, _draw_increments, _euler
from .model import ModelSpec, check_horizon
from .pde import GridSolution
from .special import gauss_laguerre, integral_from_zero

__all__ = [
    "ConditionalSpec", "GFunction", "DensityEstimate", "FunctionalSampler",
    "estimate_gF", "density_from_gF", "bouleau_hirsch_diagnostic",
    "brownian_terminal_sampler", "gaussian_integral_sampler",
    "pde_y_sampler", "pde_z_sampler", "BHReport",
]


@dataclass(frozen=True)
class ConditionalSpec:
    """How the conditional expectation given F - E F = x is estimated."""

    kind: str = "loclin"          # "loclin" | "bins"
    bandwidth: Optional[float] = None   # None: 1.06 sigma n^{-1/5}
    n_bins: int = 32
    min_count: int = 50


@dataclass
class GFunction:
    """Tabulated g_F on nodes centered at the empirical mean of F."""

    x_nodes: np.ndarray          # arguments are F - E[F]
    values: np.ndarray
    se: np.ndarray
    reliable: np.ndarray         # bool mask: enough effective samples
    bandwidth: float
    u_nodes: np.ndarray
    mean_F: float
    mad_F: float
    n_mc: int
    seed: int
    clip_rate: float = 0.0
    estimator: str = "loclin"

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
    """Reconstructed density with support interval and normalization defect."""

    x_nodes: np.ndarray          # global coordinates (mean added back)
    rho: Optional[np.ndarray]
    ci_low: Optional[np.ndarray]
    ci_high: Optional[np.ndarray]
    support: Optional[tuple]
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
    (F values, derivative paths on ``r_nodes``); it must be a deterministic,
    reentrant function of the increments so the caller can re-evaluate it on
    rotated paths with common random numbers.  It reads only increment
    columns 0..len(r_nodes)-2, all that ``estimate_gF`` hands it (time-major).
    """

    T: float
    n_steps: int
    r_nodes: np.ndarray
    evaluate: Callable
    description: str = ""


def brownian_terminal_sampler(T: float = 1.0, n_steps: int = 64) -> FunctionalSampler:
    """F = W_T; the derivative path is identically 1 on [0, T]."""
    r = np.linspace(0.0, T, n_steps + 1)

    def evaluate(dW):
        F = np.sum(dW, axis=1)
        Phi = np.ones((dW.shape[0], r.size))
        return F, Phi

    return FunctionalSampler(T, n_steps, r, evaluate, f"W_T, T={T}")


def gaussian_integral_sampler(f: Callable, T: float = 1.0, n_steps: int = 64) -> FunctionalSampler:
    """F = int_0^T f(s) dW_s for deterministic f; Phi(r) = f(r)."""
    r = np.linspace(0.0, T, n_steps + 1)
    fvals = np.asarray(f(r), dtype=float) + np.zeros_like(r)

    def evaluate(dW):
        F = dW @ fvals[:-1]
        Phi = np.broadcast_to(fvals, (dW.shape[0], r.size)).copy()
        return F, Phi

    return FunctionalSampler(T, n_steps, r, evaluate, "int f dW")


def _flow_phi(spec: ModelSpec, r: np.ndarray, X: np.ndarray, nabla: np.ndarray,
              slope: np.ndarray) -> np.ndarray:
    """Phi(r) = slope nablaX_t sigma(r, X_r) / nablaX_r on the nodes r, t = r[-1].

    Reads rows 0..len(r)-1 of the kernel's time-major X and nabla.  Phi
    is written in C order: ``estimate_gF`` sums its rows in a layout-dependent
    order, and a transposed Phi would move g_F in the last bits.  It is built
    in place, so that the sampler holds no second (n, len(r)) block.
    """
    k = r.size
    Phi = np.empty((X.shape[1], k))
    np.multiply(spec.sigma(r[:, None], X[:k]).T, (slope * nabla[k - 1])[:, None], out=Phi)
    return np.divide(Phi, nabla[:k].T, out=Phi)


def _snapshot_grid(spec: ModelSpec, t: float, n_steps: int):
    """(dt, k_t, r): the step T/n_steps, the step index of t and the nodes r_0..r_{k_t} = t."""
    check_horizon(t, spec.T)
    dt = spec.T / n_steps
    k_t = int(round(t / dt))
    if abs(k_t * dt - t) > 1e-9:
        raise PreconditionError("t must sit on the sampler time grid")
    return dt, k_t, np.linspace(0.0, spec.T, n_steps + 1)[: k_t + 1]


def _pde_sampler(spec: ModelSpec, t: float, n_steps: int, at_t: Callable,
                 description: str) -> FunctionalSampler:
    """The sampler of F = at_t(X_t)[0], whose derivative in X_t is at_t(X_t)[1].

    It steps the flow over the increments up to t only: F and Phi read
    nothing past it.
    """
    dt, k_t, r = _snapshot_grid(spec, t, n_steps)

    def evaluate(dW):
        X, nabla = _euler(spec, dW[:, :k_t], spec.X0, 0.0, dt, order=1)
        F, slope = at_t(X[k_t])
        return F, _flow_phi(spec, r, X, nabla, slope)

    return FunctionalSampler(spec.T, n_steps, r, evaluate, description)


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
    return _pde_sampler(spec, t, n_steps, lambda xt: (u_s(xt), ux_s(xt)),
                        f"Y_{t} via value grid")


def pde_z_sampler(spec: ModelSpec, sol_uprime: GridSolution, t: float,
                  n_steps: int = 64) -> FunctionalSampler:
    """F = Z_t = u_x(t, X_t) sigma(t, X_t); Phi(r) = D_r Z_t by the chain rule."""
    sx = spec.d("sigma_x")
    ux_s = sol_uprime.row_spline(t)
    uxx_s = sol_uprime.row_spline(t, sol_uprime.u_x)

    def at_t(xt):
        # this call order keeps density-cubic's peak RSS (uxx_s after sx: +8 MB)
        sig_t = spec.sigma(t, xt)
        ux = ux_s(xt)
        uxx = uxx_s(xt)
        return ux * sig_t, ux * sx(t, xt) + uxx * sig_t

    return _pde_sampler(spec, t, n_steps, at_t, f"Z_{t} via gradient grid")


# -- conditional expectation estimators --------------------------------------


def _loclin(xdata, ydata, nodes, bw):
    """Gaussian-kernel local linear regression with pointwise SE and n_eff."""
    est = np.empty(nodes.size)
    se = np.empty(nodes.size)
    neff = np.empty(nodes.size)
    for j0 in range(0, nodes.size, 64):
        block = nodes[j0:j0 + 64]
        d = xdata[:, None] - block[None, :]
        w = np.exp(-0.5 * (d / bw) ** 2)
        S0 = w.sum(axis=0)
        S1 = (w * d).sum(axis=0)
        S2 = (w * d * d).sum(axis=0)
        T0 = (w * ydata[:, None]).sum(axis=0)
        T1 = (w * d * ydata[:, None]).sum(axis=0)
        den = S0 * S2 - S1**2
        den = np.where(np.abs(den) < 1e-300, 1e-300, den)
        a = (S2 * T0 - S1 * T1) / den
        bcoef = (S0 * T1 - S1 * T0) / den
        resid2 = ((ydata[:, None] - a[None, :] - bcoef[None, :] * d) ** 2 * w).sum(axis=0) \
            / np.maximum(S0, 1e-300)
        l2 = (w**2 * (S2 - S1 * d) ** 2).sum(axis=0) / den**2
        est[j0:j0 + 64] = a
        se[j0:j0 + 64] = np.sqrt(np.maximum(resid2 * l2, 0.0))
        neff[j0:j0 + 64] = S0**2 / np.maximum((w**2).sum(axis=0), 1e-300)
    return est, se, neff


def _bin_means(xdata, ydata, nodes, n_bins, min_count):
    order = np.argsort(xdata)
    xs, ys = xdata[order], ydata[order]
    edges = np.linspace(0, xs.size, n_bins + 1).astype(int)
    centers, means, ses, counts = [], [], [], []
    for i in range(n_bins):
        sl = slice(edges[i], edges[i + 1])
        if edges[i + 1] - edges[i] == 0:
            continue
        centers.append(float(np.mean(xs[sl])))
        means.append(float(np.mean(ys[sl])))
        ses.append(float(np.std(ys[sl]) / math.sqrt(max(edges[i + 1] - edges[i], 1))))
        counts.append(edges[i + 1] - edges[i])
    centers, means, ses = map(np.asarray, (centers, means, ses))
    est = np.interp(nodes, centers, means)
    se = np.interp(nodes, centers, ses)
    neff = np.interp(nodes, centers, np.asarray(counts, dtype=float))
    return est, se, neff


def estimate_gF(sampler: FunctionalSampler, n_mc: int, n_u_nodes: int = 16,
                cond: Optional[ConditionalSpec] = None, seed: int = 0,
                antithetic: bool = True) -> GFunction:
    """Monte Carlo tabulation of g_F on nodes spanning the central 99% of F - E F.

    The independent copy W* uses a paired counter-based stream and is reused
    across all quadrature nodes (common random numbers); with ``antithetic``
    the rotated derivative paths are averaged over +/- W*.  The 101 nodes are
    quantile-spaced so that heavy concentration of the law (e.g. a
    square-root spike at a support edge) is resolved where the mass sits.
    Draws are time-major; only the columns the sampler reads are rotated.
    """
    cond = cond or ConditionalSpec()
    u_nodes, u_weights = gauss_laguerre(n_u_nodes)
    dt = sampler.T / sampler.n_steps
    dW, dWs = (_draw_increments(seed, s, n_mc, sampler.n_steps, dt)[:, :sampler.r_nodes.size - 1]
               for s in (STREAM_FORWARD, STREAM_COUPLING))

    F, Phi = sampler.evaluate(dW)
    R = np.zeros(n_mc)
    for u, w in zip(u_nodes, u_weights):
        c = math.exp(-u)
        s = math.sqrt(max(1.0 - c * c, 0.0))
        _, Phi_rot = sampler.evaluate(c * dW + s * dWs)
        inner = np.trapezoid(Phi * Phi_rot, sampler.r_nodes, axis=1)
        if antithetic:
            _, Phi_rot2 = sampler.evaluate(c * dW - s * dWs)
            inner = 0.5 * (inner + np.trapezoid(Phi * Phi_rot2, sampler.r_nodes, axis=1))
        R += w * inner

    mean_F = float(np.mean(F))
    x = F - mean_F
    mad_F = float(np.mean(np.abs(x)))
    nodes = np.unique(np.quantile(x, np.linspace(0.005, 0.995, 101)))
    if nodes.size < 3:
        raise PreconditionError("functional is (nearly) degenerate; no node spread")
    if cond.kind == "loclin":
        bw = cond.bandwidth or 1.06 * float(np.std(x)) * n_mc ** (-0.2)
        est, se, neff = _loclin(x, R, nodes, bw)
    elif cond.kind == "bins":
        bw = float("nan")
        est, se, neff = _bin_means(x, R, nodes, cond.n_bins, cond.min_count)
    else:
        raise PreconditionError(f"unknown conditional estimator {cond.kind!r}")
    clipped = est < 0
    clip_rate = float(np.mean(clipped))
    est = np.maximum(est, 0.0)
    reliable = neff >= cond.min_count
    return GFunction(nodes, est, se, reliable, bw, u_nodes, mean_F, mad_F,
                     n_mc, seed, clip_rate, cond.kind)


def density_from_gF(gF: GFunction) -> DensityEstimate:
    """Density reconstruction rho from a tabulated g_F.

    Requires g_F > 0 on the interior reliable nodes; otherwise the existence
    dichotomy is undetermined and no density is emitted.  The inner integral
    int_0^x u/g(u) du is trapezoidal on the node grid (0 inserted); the
    reported density is NOT renormalized -- the normalization defect is part
    of the output.
    """
    mean_F, mad_F = gF.mean_F, gF.mad_F
    nodes, g = gF.x_nodes, gF.values
    interior = gF.reliable
    if np.any(g[interior] <= 0.0) or not np.any(interior):
        return DensityEstimate(nodes + mean_F, None, None, None, None, None,
                               "existence-undetermined", mean_F, mad_F)
    I_nodes = integral_from_zero(lambda u: u / np.maximum(np.interp(u, nodes, g), 1e-300),
                                 nodes, n_fine=0)
    g_safe = np.maximum(g, 1e-300)
    rho = mad_F / (2.0 * g_safe) * np.exp(-I_nodes)
    rel = np.divide(gF.se, g_safe, out=np.zeros_like(g_safe), where=g_safe > 0)
    ci_low = np.maximum(rho * (1.0 - 1.96 * rel), 0.0)
    ci_high = rho * (1.0 + 1.96 * rel)
    x_global = nodes + mean_F
    defect = abs(float(np.trapezoid(rho, x_global)) - 1.0)
    support = (float(x_global[0]), float(x_global[-1]))
    return DensityEstimate(x_global, rho, ci_low, ci_high, support, defect, "ok",
                           mean_F, mad_F)


@dataclass
class BHReport:
    t: float
    norms: np.ndarray
    min: float
    quantiles: dict
    frac_below: float
    threshold: float
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
    frac = float(np.mean(norms < threshold))
    if float(np.max(norms)) <= threshold:
        verdict = "degenerate"
    elif float(np.min(norms)) > threshold:
        verdict = "supports-density"
    else:
        verdict = "inconclusive"
    return BHReport(t, norms, float(np.min(norms)), qs, frac, threshold, verdict, r)
