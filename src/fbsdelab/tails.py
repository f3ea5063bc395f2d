"""Growth-rate estimation and explicit non-Gaussian tail envelopes.

Growth rates.  For a scalar function f the two exponents of interest are the
smallest powers bounding |f| along all sequences (limsup rate) and along some
sequence (liminf rate) as |x| grows.  Both are estimated on a declared window
by a trial-exponent lattice: the window is split into log-spaced sub-windows,
|f| is replaced by its per-sub-window maximum (an upper envelope, which makes
oscillating integrands like x^2 sin x tractable), and for each trial alpha
the sequence env/x^alpha is tested for growth between the head and the tail
of the window.  The limsup rate is the smallest alpha whose running maximum
stops growing; the liminf rate the smallest alpha whose running minimum does.
Direct slope regression is kept as a diagnostic only, since it conflates the
two rates for oscillating functions.

Envelopes.  For a target of the form P_t = v(t, W_t) with v' > 0 and
1/v'(t,x) <= K (1 + |x|^at), the reconstruction function g_{P_t} admits
two-sided polynomial bounds whose constants are explicit in the growth rates
of v' and of the inverse map.  Plugging those bounds into the density
representation yields computable upper/lower envelope curves, either with the
exponential integrals evaluated by quadrature (theorem form) or with
closed-form stretched-exponential exponents valid beyond a computed threshold
y0 (corollary form, requiring the rate gap gamma < 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .artifacts import write_table
from .errors import PreconditionError, UndefinedRateError
from .model import ModelSpec, check_horizon
from .pde import GridSolution
from .special import gamma_fn, gauss_hermite_prob, integral_from_zero, norm_pdf

__all__ = [
    "GrowthRates", "TailConstants", "TailEnvelope", "SandwichReport",
    "growth_rate", "inverse_growth_bound", "regular_variation_check",
    "compute_constants", "envelope", "verify_growth_sandwich",
    "empirical_density", "invert_monotone",
    "mu_integral", "delta_const", "xi_const", "big_d_const",
]

_ALPHAS = np.arange(0.0, 8.0 + 0.01 / 2, 0.01)  # growth_rate's trial exponents
_BAND_TOL, _FLOOR_TOL = 0.12, 1e-3  # verify_growth_sandwich's rate-band and floor slack


@dataclass
class GrowthRates:
    alpha_bar: float
    alpha_under: float
    r_squared: float
    window: tuple
    slope: float = 0.0
    branches: str = "both"
    n_sub: int = 0
    unresolved: bool = False

    def __post_init__(self):
        if self.alpha_under > self.alpha_bar + 0.05 + 1e-12:
            raise ValueError("liminf rate exceeds limsup rate beyond fit tolerance")


def _branch_envelope(f: Callable, x_lo: float, x_hi: float, sign: float):
    xs = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), 4096))
    vals = np.abs(np.asarray(f(sign * xs), dtype=float))
    if not np.all(np.isfinite(vals)):
        raise UndefinedRateError("function not finite on the window")
    decades = math.log10(x_hi / x_lo)
    n_sub = max(int(round(decades * 8)), 4)
    edges = np.linspace(0, xs.size, n_sub + 1).astype(int)
    env, pos = [], []
    for i in range(n_sub):
        sl = slice(edges[i], max(edges[i + 1], edges[i] + 1))
        j = int(np.argmax(vals[sl])) + sl.start
        env.append(vals[j])
        pos.append(xs[j])
    env = np.asarray(env)
    pos = np.asarray(pos)
    keep = env > 1e-300
    return pos[keep], env[keep]


def _lattice_rate(pos, env, mode):
    """Smallest exponent of ``_ALPHAS`` whose envelope/x^alpha stops growing.

    The sup test compares head/tail maxima of env/x^alpha at the envelope
    nodes themselves; the inf test works on a densified log-log interpolation
    of the envelope so that lower corners between nodes (where a piecewise
    power touches its liminf rate) are not skipped over.
    """
    logx = np.log(pos)
    logenv = np.log(env)
    if mode == "inf":
        dense = np.linspace(logx[0], logx[-1], max(16 * logx.size, 512))
        logx_t = dense
        logenv_t = np.interp(dense, logx, logenv)
    else:
        logx_t, logenv_t = logx, logenv
    split = logx_t[0] + 0.5 * (logx_t[-1] - logx_t[0])
    head = logx_t <= split
    tail = ~head
    if not np.any(tail) or not np.any(head):
        raise UndefinedRateError("window too narrow to split")
    for a in _ALPHAS:
        g = logenv_t - a * logx_t
        if mode == "sup":
            grow = np.max(g[tail]) - np.max(g[head])
        else:
            grow = np.min(g[tail]) - np.min(g[head])
        if grow <= math.log1p(0.02):
            return float(a), False
    return float(_ALPHAS[-1]), True


def growth_rate(f: Callable, window: tuple, branches: str = "both",
                min_ratio: float = 100.0) -> GrowthRates:
    """Estimate the limsup/liminf growth exponents of f on a window.

    The window (x_lo, x_hi) is in absolute coordinates with x_lo > 0 and
    x_hi/x_lo >= min_ratio; ``branches`` selects which of +/-x to scan
    ('both' takes the limsup over both and the liminf over both, matching the
    |x| -> infinity convention).
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    if x_lo <= 0 or x_hi <= x_lo:
        raise PreconditionError("window must satisfy 0 < x_lo < x_hi")
    if x_hi / x_lo < min_ratio:
        raise PreconditionError(f"window ratio {x_hi / x_lo:.3g} below required {min_ratio:g}")
    signs = {"both": (1.0, -1.0), "pos": (1.0,), "neg": (-1.0,)}[branches]
    bars, unders, unresolved = [], [], False
    all_logx, all_logenv = [], []
    got = False
    for s in signs:
        pos, env = _branch_envelope(f, x_lo, x_hi, s)
        if pos.size < 4:
            continue
        got = True
        ab, ur1 = _lattice_rate(pos, env, "sup")
        au, ur2 = _lattice_rate(pos, env, "inf")
        unresolved = unresolved or ur1 or ur2
        bars.append(ab)
        unders.append(au)
        all_logx.append(np.log(pos))
        all_logenv.append(np.log(env))
    if not got:
        raise UndefinedRateError("function vanishes identically on the window")
    lx = np.concatenate(all_logx)
    le = np.concatenate(all_logenv)
    slope, icpt = np.polyfit(lx, le, 1)
    fitted = slope * lx + icpt
    ss_res = float(np.sum((le - fitted) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    a_bar = max(bars)
    a_under = min(unders)
    # numerical guard: the two lattice scans may land one step apart
    a_under = min(a_under, a_bar + 0.05)
    n_sub = all_logx[0].size
    return GrowthRates(a_bar, a_under, r2, (x_lo, x_hi), float(slope),
                       branches, n_sub, unresolved)


def inverse_growth_bound(alpha_under_f: float, eta: float) -> float:
    """Upper bound 1/(alpha_under - eta) on the limsup rate of the inverse map."""
    if not (0.0 < eta < alpha_under_f):
        raise PreconditionError("need 0 < eta < alpha_under_f")
    return 1.0 / (alpha_under_f - eta)


def invert_monotone(f: Callable, window: tuple):
    """Numeric inverse of a strictly monotone f on [x_lo, x_hi] (bisection grid).

    Returns (inverse_callable, (y_lo, y_hi)).
    """
    xs = np.linspace(window[0], window[1], 200000)
    ys = np.asarray(f(xs), dtype=float)
    if np.any(np.diff(ys) <= 0):
        if np.all(np.diff(ys) < 0):
            xs, ys = xs[::-1], ys[::-1]
        else:
            raise PreconditionError("function is not strictly monotone on the window")
    lo, hi = float(ys[0]), float(ys[-1])

    def inverse(y):
        return np.interp(np.asarray(y, dtype=float), ys, xs)

    return inverse, (lo, hi)


def regular_variation_check(fprime: Callable, beta: float, window: tuple) -> dict:
    """Karamata consistency: x f'(x)/(f(x) - f(x0)) should approach beta + 1.

    f is reconstructed from f' by cumulative quadrature from the window start;
    the report also cross-checks rate additivity (rate of f ~ rate of f' + 1).
    """
    x = np.linspace(window[0], window[1], 400000)
    fp = np.asarray(fprime(x), dtype=float)
    if fp[-1] <= 0:
        raise PreconditionError("f' must be positive near the window edge")
    F = np.concatenate([[0.0], np.cumsum(0.5 * (fp[1:] + fp[:-1]) * np.diff(x))])
    ratio_edge = float(x[-1] * fp[-1] / F[-1])
    out = {
        "ratio_edge": ratio_edge,
        "target": beta + 1.0,
        "gap": abs(ratio_edge - (beta + 1.0)),
    }
    try:
        rf = growth_rate(lambda u: np.interp(u, x, F), (window[0] * 1.0001, window[1] * 0.9999),
                         branches="pos", min_ratio=10.0)
        rfp = growth_rate(fprime, window, branches="pos", min_ratio=10.0)
        out["rate_f"] = rf.alpha_bar
        out["rate_fprime"] = rfp.alpha_bar
        out["additivity_gap"] = abs(rf.alpha_bar - (rfp.alpha_bar + 1.0))
        out["rates_consistent"] = bool(abs(rf.alpha_bar - rf.alpha_under) <= 0.1
                                       and abs(rfp.alpha_bar - rfp.alpha_under) <= 0.1)
    except (PreconditionError, UndefinedRateError) as exc:
        out["rates_error"] = str(exc)
    return out


# -- constants ----------------------------------------------------------------


def mu_integral(alpha_tilde: float) -> float:
    """mu(at) = E[1 / (1 + |Z|^at)], Z standard normal (256-node Gauss-Hermite)."""
    if alpha_tilde <= 0:
        raise PreconditionError("alpha_tilde must be positive")
    nodes, weights = gauss_hermite_prob(256)
    return float(np.sum(weights / (1.0 + np.abs(nodes) ** alpha_tilde)))


def delta_const(a: float) -> float:
    return max(1.0, 2.0 ** a)


def xi_const(a: float) -> float:
    return a * gamma_fn((1.0 + a) / 2.0) / (2.0 * math.sqrt(math.pi))


def big_d_const(a: float) -> float:
    d = delta_const(a)
    xi = xi_const(a) if a > 0 else 0.0
    return max(1.0 + d * xi + 0.5 * d**2 * (xi + 1.0 / (1.0 + a)) ** 2,
               0.5 + d / (1.0 + a))


@dataclass
class TailConstants:
    """Every scalar entering the two-sided envelope formulas."""

    eps: float
    eps_prime: float
    alpha_tilde: float
    K: float
    alpha_bar_v: float
    alpha_under_v: float
    alpha_bar_vprime: float
    alpha_bar_vinv: float
    C_v: float
    C_vprime: float
    C_vinv: float
    delta: float
    Xi: float
    mu: float
    D: float
    M_prime: float
    M: float
    window: tuple = (0.0, 0.0)
    box_relative: bool = True

    def __post_init__(self):
        for name in ("C_vprime", "C_vinv", "delta", "mu", "D", "M_prime", "M"):
            if getattr(self, name) <= 0:
                raise ValueError(f"constant {name} must be strictly positive")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError("mu must lie in (0, 1]")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def compute_constants(v_grid: GridSolution, t: float, eps: float, eps_prime: float,
                      alpha_tilde: float, K: Optional[float] = None,
                      rate_window: Optional[tuple] = None) -> TailConstants:
    """Evaluate the envelope constants from a solved grid at time t.

    ``v_grid.u`` supplies v and ``v_grid.u_x`` its space derivative; all
    sup-type constants are taken over the grid box (and flagged as such).
    The smallest K satisfying 1/v' <= K (1 + |x|^at) on the x > 0 window is
    fitted when not supplied.  A t outside the grid's time range raises PreconditionError.
    """
    check_horizon(t, float(v_grid.t_nodes[-1]))
    xn = v_grid.x_nodes
    vp_t = v_grid.row(t, v_grid.u_x)
    if rate_window is None:
        hi = float(xn[-1])
        rate_window = (max(hi / 150.0, 1e-3), hi * 0.98)
    wmask = (xn >= rate_window[0]) & (xn <= rate_window[1])
    if not np.any(wmask):
        raise PreconditionError("rate window does not meet the grid")
    if np.any(vp_t[wmask] <= 0):
        j = int(np.argwhere(wmask)[np.argmax(vp_t[wmask] <= 0)][0])
        raise PreconditionError(f"v' must be positive on the window; v'({xn[j]:.4g}) <= 0")

    def v_fn(x):
        return v_grid.eval(t, x)

    def vp_fn(x):
        return np.interp(np.asarray(x, dtype=float) * 1.0, xn, vp_t)

    rv = growth_rate(v_fn, rate_window, branches="pos")
    rvp = growth_rate(vp_fn, rate_window, branches="pos")
    inv, (ylo, yhi) = invert_monotone(v_fn, rate_window)
    y_abs_lo = max(min(abs(ylo), abs(yhi)), 1e-6)
    y_abs_hi = max(abs(ylo), abs(yhi)) * 0.999
    sign_y = 1.0 if yhi > 0 else -1.0
    rinv = growth_rate(lambda y: inv(sign_y * y), (y_abs_lo, y_abs_hi),
                       branches="pos", min_ratio=10.0)

    xw = xn[wmask]
    if K is None:
        K = float(np.max((1.0 / vp_t[wmask]) / (1.0 + np.abs(xw) ** alpha_tilde)))
    # sup-type constants over the grid box (all time rows for v and v')
    tmask = slice(None)
    denom_v = 1.0 + np.abs(xn) ** (rv.alpha_bar + eps)
    C_v = float(np.max(np.abs(v_grid.u[tmask]) / denom_v[None, :]))
    denom_vp = 1.0 + np.abs(xn) ** (rvp.alpha_bar + eps)
    C_vp = float(np.max(np.abs(v_grid.u_x[tmask]) / denom_vp[None, :]))
    ygrid = np.linspace(ylo, yhi, 4001)
    C_vinv = float(np.max(np.abs(inv(ygrid)) / (1.0 + np.abs(ygrid) ** (rinv.alpha_bar + eps_prime))))

    a_prime = rvp.alpha_bar + eps
    d = delta_const(a_prime)
    xi = xi_const(a_prime)
    Dc = big_d_const(a_prime)
    mu = mu_integral(alpha_tilde)
    M_prime = C_vp**2 * Dc * (1.0 + C_vinv ** (2.0 * a_prime)) * delta_const(2.0 * a_prime)
    M = mu / (K**2 * (1.0 + C_vinv ** (2.0 * alpha_tilde) * delta_const(2.0 * alpha_tilde)))
    return TailConstants(eps, eps_prime, alpha_tilde, K, rv.alpha_bar, rv.alpha_under,
                         rvp.alpha_bar, rinv.alpha_bar, C_v, C_vp, C_vinv,
                         d, xi, mu, Dc, M_prime, M, rate_window, True)


@dataclass
class TailEnvelope:
    t: float
    target: str
    y_nodes: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    form: str
    mean: float
    mad: float
    y0: Optional[float] = None
    gamma: Optional[float] = None
    p1: Optional[float] = None
    p2: Optional[float] = None
    eps: Optional[float] = None
    eps_prime: Optional[float] = None
    degenerate: bool = False

    def to_csv(self, path, empirical=None, empirical_ci=None, header_lines=()):
        comments = [*header_lines, f"t={self.t} target={self.target} form={self.form} "
                    f"y0={self.y0} gamma={self.gamma} p1={self.p1} p2={self.p2}"]
        nan = np.full_like(self.y_nodes, np.nan)
        emp = [nan if a is None else a for a in (empirical, empirical_ci)]
        write_table(path, comments, ("y", "lower", "upper", "empirical_density", "empirical_ci"),
                    zip(self.y_nodes, self.lower, self.upper, *emp))


EPS_LADDER = (0.01, 0.02, 0.05, 0.1)


def envelope(t: float, consts: TailConstants, stats: dict, y_nodes,
             form: str = "theorem", target: str = "Y",
             eps_ladder=EPS_LADDER) -> TailEnvelope:
    """Two-sided density envelope for the target at time t.

    ``stats`` carries the target's mean and mean absolute deviation.  The
    theorem form evaluates the exponential integrals by quadrature at every
    node; the corollary form (requiring the certified rate gap gamma < 1)
    uses closed-form stretched-exponential exponents beyond the threshold y0
    where factor-2 domination of the integrands holds; inside |y| <= y0 the
    corollary curves are NaN.
    """
    y_nodes = np.asarray(y_nodes, dtype=float)
    mean, mad = float(stats["mean"]), float(stats["mad"])
    if mad == 0.0:
        z = np.zeros_like(y_nodes)
        return TailEnvelope(t, target, y_nodes, z, z, form, mean, mad, degenerate=True)
    at = consts.alpha_tilde
    a_inv = consts.alpha_bar_vinv
    a_vp = consts.alpha_bar_vprime
    Mp, M = consts.M_prime, consts.M

    if form == "theorem":
        e, ep = consts.eps, consts.eps_prime
        q_up = 2.0 * at * (a_inv + ep)
        q_gam = 2.0 * (a_vp + e) * (a_inv + ep)
        pref_up = mad / (2.0 * M * t) * (1.0 + np.abs(y_nodes) ** q_up)
        I_up = integral_from_zero(lambda x: x / (Mp * t * (1.0 + np.abs(x + mean) ** q_gam)),
                                  y_nodes - mean)
        upper = pref_up * np.exp(-I_up)
        pref_lo = mad / (2.0 * Mp * t) / (1.0 + np.abs(y_nodes) ** q_gam)
        I_lo = integral_from_zero(lambda x: x * (1.0 + np.abs(x + mean) ** q_up) / (M * t),
                                  y_nodes - mean)
        lower = pref_lo * np.exp(-I_lo)
        return TailEnvelope(t, target, y_nodes, upper, lower, form, mean, mad,
                            eps=e, eps_prime=ep)

    if form != "corollary":
        raise PreconditionError(f"unknown envelope form {form!r}")

    # pick the smallest ladder pair certifying gamma < 1
    choice = None
    for e in eps_ladder:
        for ep in eps_ladder:
            gam = (a_vp + e) * (a_inv + ep)
            if gam < 1.0:
                choice = (e, ep, gam)
                break
        if choice:
            break
    if choice is None:
        raise PreconditionError(
            f"rate gap does not certify gamma < 1 on the ladder: "
            f"alpha_bar_vprime={a_vp}, alpha_bar_vinv={a_inv}")
    e, ep, gam = choice
    q_up = 2.0 * at * (a_inv + ep)
    p2 = at * (a_inv + ep)
    p1 = 2.0 * (1.0 - gam)

    # factor-2 domination thresholds on an extended lattice
    probe = np.linspace(1e-6, max(4.0 * np.max(np.abs(y_nodes)), 10.0), 20001)
    ok1 = 2.0 * probe ** (2 * gam) >= 1.0 + np.abs(probe + mean) ** (2 * gam)
    ok1m = 2.0 * probe ** (2 * gam) >= 1.0 + np.abs(-probe + mean) ** (2 * gam)
    ok2 = 2.0 * probe ** (2 * p2) >= 1.0 + np.abs(probe + mean) ** (2 * p2)
    ok2m = 2.0 * probe ** (2 * p2) >= 1.0 + np.abs(-probe + mean) ** (2 * p2)
    all_ok = ok1 & ok1m & ok2 & ok2m
    idx = np.nonzero(~all_ok[::-1])[0]
    if idx.size == 0:
        x0 = float(probe[0])
    else:
        last_bad = probe.size - 1 - int(idx[0])
        if last_bad == probe.size - 1:
            raise PreconditionError("factor-2 domination not reached on the probe lattice")
        x0 = float(probe[last_bad + 1])
    y0 = x0 + abs(mean)

    ay = np.abs(y_nodes)
    outside = ay > y0
    upper = np.full_like(y_nodes, np.nan)
    lower = np.full_like(y_nodes, np.nan)
    dy = np.abs(y_nodes - mean)
    dy0 = abs(y0 - mean)
    upper[outside] = (mad / (2.0 * M * t) * (1.0 + ay[outside] ** q_up)
                      * np.exp(-(dy[outside] ** p1 - dy0 ** p1) / (2.0 * p1 * t * Mp)))
    lower[outside] = (mad / (2.0 * Mp * t * (1.0 + ay[outside] ** gam))
                      * np.exp(-(dy[outside] ** (2 * (p2 + 1)) - dy0 ** (2 * (p2 + 1)))
                               / (M * t * (p2 + 1)))
                      * math.exp(-dy0**2 * (1.0 + y0 ** (2 * p2)) / (M * t)))
    return TailEnvelope(t, target, y_nodes, upper, lower, form, mean, mad,
                        y0, gam, p1, p2, e, ep)


def empirical_density(samples: np.ndarray, nodes: np.ndarray):
    """Gaussian kernel density estimate (bandwidth 1.06 sigma n^{-1/5}) with pointwise standard errors."""
    samples = np.asarray(samples, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    n = samples.size
    bw = 1.06 * float(np.std(samples)) * n ** (-0.2)
    est = np.zeros(nodes.size)
    sq = np.zeros(nodes.size)
    for s in np.split(samples, range(65536, n, 65536)):
        k = norm_pdf((nodes[None, :] - s[:, None]) / bw) / bw
        est += k.sum(axis=0)
        sq += (k**2).sum(axis=0)
    est /= n
    sq /= n
    se = np.sqrt(np.maximum(sq - est**2, 0.0) / n)
    return est, se, bw


@dataclass
class SandwichReport:
    hypotheses: dict
    conclusions: dict
    fitted: dict
    verdict: str

    def ok(self, key):
        return self.conclusions[key]["ok"]


def verify_growth_sandwich(sol_u: GridSolution, sol_uprime: GridSolution,
                           sol_udoubleprime: GridSolution, spec: ModelSpec,
                           params: dict, rate_window: Optional[tuple] = None) -> SandwichReport:
    """Check comparison-principle growth conclusions on solved grids.

    ``params`` carries eps, eps_prime, C_lo, C_hi, D_lo, D_hi, B_lo, B_hi and
    lam.  Hypotheses (terminal-condition growth sandwiches, sign and
    smallness of the driver) gate the overall verdict; each conclusion (rate
    bands for u, u', u'', pointwise floors for u' and u'') is evaluated and
    reported regardless, since partial applications are common.
    """
    eps = params["eps"]
    eps_p = params["eps_prime"]
    xn = sol_u.x_nodes
    g, g1, g2 = spec.g(xn), spec.d("g1")(xn), spec.d("g2")(xn)
    T = spec.T

    hyp = {}
    k_lo = params["C_lo"] * (1.0 + np.abs(xn) ** (1.0 - eps))
    k_hi = params["C_hi"] * (1.0 + np.abs(xn) ** (1.0 + eps))
    hyp["g_growth"] = {"ok": bool(np.all(g >= k_lo - 1e-12) and np.all(g <= k_hi + 1e-12)),
                       "margin": float(min(np.min(g - k_lo), np.min(k_hi - g)))}
    d_lo = params["D_lo"] * (1.0 + np.abs(xn) ** eps_p)
    d_hi = params["D_hi"] * (1.0 + np.abs(xn) ** eps)
    hyp["gprime_growth"] = {"ok": bool(np.all(g1 >= d_lo - 1e-12) and np.all(g1 <= d_hi + 1e-12)),
                            "margin": float(min(np.min(g1 - d_lo), np.min(d_hi - g1)))}
    hyp["gsecond_band"] = {"ok": bool(np.all(g2 >= params["B_lo"] - 1e-12)
                                      and np.all(g2 <= params["B_hi"] + 1e-12)),
                           "margin": float(min(np.min(g2 - params["B_lo"]),
                                               np.min(params["B_hi"] - g2)))}
    # driver gates: h <= 0, 0 <= h_zz < 1/(4 B_hi T), |h_z| <= C (1+|z|^lam)
    tprobe = np.linspace(0.0, T, 9)[:, None]
    zprobe = np.linspace(-30.0, 30.0, 41)[None, :]
    hvals = spec.h(tprobe, 0.0, 0.0, zprobe)
    hyp["h_nonpositive"] = {"ok": bool(np.max(hvals) <= 1e-12), "margin": float(-np.max(hvals))}
    hzz = spec.d("h_zz")(tprobe, 0.0, 0.0, zprobe)
    cap = 1.0 / (4.0 * params["B_hi"] * T)
    hyp["h_zz_window"] = {"ok": bool(np.min(hzz) >= -1e-12 and np.max(hzz) < cap),
                          "margin": float(min(np.min(hzz) + 1e-12, cap - np.max(hzz)))}
    lam = params["lam"]
    hz = np.abs(spec.d("h_z")(tprobe, 0.0, 0.0, zprobe))
    Cfit = float(np.max(hz / (1.0 + np.abs(zprobe) ** lam)))
    hyp["h_z_growth"] = {"ok": bool(lam <= 1.0 / eps - 1.0 + 1e-12), "margin": 1.0 / eps - 1.0 - lam,
                         "C_fit": Cfit}

    if rate_window is None:
        hi = float(xn[-1]) * 0.98
        rate_window = (max(hi / 110.0, 1.0), hi)

    conclusions = {}

    def band(label, grid_sol, lo, hi):
        fn = lambda x: grid_sol.eval(0.0, x)
        try:
            r = growth_rate(fn, rate_window)
            ok = (lo - _BAND_TOL <= r.alpha_under <= hi + _BAND_TOL
                  and lo - _BAND_TOL <= r.alpha_bar <= hi + _BAND_TOL)
            conclusions[label] = {"ok": bool(ok), "alpha_bar": r.alpha_bar,
                                  "alpha_under": r.alpha_under, "band": (lo, hi)}
        except (PreconditionError, UndefinedRateError) as exc:
            conclusions[label] = {"ok": False, "error": str(exc), "band": (lo, hi)}

    band("alpha_u", sol_u, 1.0 - eps, 1.0 + eps)
    band("alpha_uprime", sol_uprime, eps_p, eps)
    band("alpha_udoubleprime", sol_udoubleprime, 0.0, 0.0)
    conclusions["uprime_floor"] = {
        "ok": bool(np.min(sol_uprime.u) >= params["D_lo"] - _FLOOR_TOL),
        "min": float(np.min(sol_uprime.u)), "floor": params["D_lo"]}
    conclusions["udoubleprime_floor"] = {
        "ok": bool(np.min(sol_udoubleprime.u) >= params["B_lo"] - _FLOOR_TOL),
        "min": float(np.min(sol_udoubleprime.u)), "floor": params["B_lo"]}

    # fitted sandwich constants: u between C_lo kappa - C1 (T-t) and C_hi k + C (T-t)
    tt = sol_u.t_nodes[:-1]
    span = (T - tt)[:, None]
    over = (sol_u.u[:-1] - k_hi[None, :]) / span
    under = (k_lo[None, :] - sol_u.u[:-1]) / span
    fitted = {"C_tilde": float(max(np.max(over), 0.0)),
              "C_tilde_1": float(max(np.max(under), 0.0))}

    gates_ok = all(v["ok"] for v in hyp.values())
    concl_ok = all(v["ok"] for v in conclusions.values())
    verdict = "pass" if gates_ok and concl_ok else ("inapplicable" if not gates_ok else "fail")
    return SandwichReport(hyp, conclusions, fitted, verdict)
