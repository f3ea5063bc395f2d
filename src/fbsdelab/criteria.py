"""Grid-extremized verdicts for the density-existence criteria.

Each check evaluates the decisive inequality of one sufficient condition and
reports a signed margin (the left-hand side); verdicts are

* ``holds``  -- the non-strict global line clears -resolution and the strict
  restricted line clears +resolution;
* ``fails``  -- a line is violated beyond resolution;
* ``boundary`` -- the decisive margin sits within the declared resolution;
* ``inconclusive-unbounded`` -- a required extremum is still running at the
  box edge, so the true inf/sup over the real line cannot be certified;
* ``inapplicable`` -- a structural hypothesis (sign package, bounds on the
  forward Malliavin derivative, Markov representation) is not available.

Extrema over unbounded domains are always computed on a declared box; the
restriction set A is a finite union of closed intervals, and the requirement
P(X_T in A | F_t) > 0 is checked by Monte Carlo hit counting with a Wilson
lower confidence bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .model import GridBox, ModelSpec, default_box

__all__ = [
    "IntervalUnion", "CriterionReport", "VariationBounds",
    "first_order_check", "second_order_check", "quadratic_check",
    "z_lipschitz_check", "z_quadratic_check", "z_markovian_check",
    "x_sign_check", "conditional_hit_lower_bound",
]


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of closed intervals used as the restriction set A."""

    intervals: tuple

    def __init__(self, intervals: Sequence):
        ivs = []
        for lo, hi in intervals:
            if hi < lo:
                raise ValueError("interval with hi < lo")
            ivs.append((float(lo), float(hi)))
        object.__setattr__(self, "intervals", tuple(sorted(ivs)))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            mask |= (x >= lo) & (x <= hi)
        return mask

    def __repr__(self):
        return " U ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.intervals)


@dataclass
class CriterionReport:
    criterion: str
    t: float
    A: Optional[str]
    verdict: str
    margin: float
    resolution: float
    scalars: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    box: Optional[str] = None
    hit_lower_bound: Optional[float] = None

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "t": self.t,
            "A": self.A,
            "verdict": self.verdict,
            "margin": self.margin,
            "resolution": self.resolution,
            "scalars": self.scalars,
            "notes": self.notes,
            "box": self.box,
            "hit_lower_bound": self.hit_lower_bound,
        }


@dataclass(frozen=True)
class VariationBounds:
    """Pathwise bounds on D_r X (a) and on D^2 X (b) used by the Z-criteria."""

    a_lo: float
    a_hi: float
    b_hi: float


def _sgn(v: float) -> float:
    # extremum exactly at zero contributes a unit factor
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _verdict(nonstrict: float, strict: float, res: float):
    """Classify a (non-strict line, strict line) pair; returns (verdict, margin).

    The reported margin is the decisive left-hand side: the strict line when
    it decides (holds/boundary), the most violated line on failure.
    """
    if nonstrict < -res:
        return "fails", min(nonstrict, strict)
    if abs(strict) <= res:
        return "boundary", strict
    if strict > res:
        return "holds", strict
    return "fails", strict


def _edge_running(vals: np.ndarray, mode: str) -> bool:
    """True when the extremum sits at the box edge and is still improving.

    'Still improving' is judged against the typical per-node variation: a
    trend whose edge step keeps pace with the average slope is treated as
    unbounded, while a saturating tail (edge step orders of magnitude below
    the typical step) is not.
    """
    rng = float(np.max(vals) - np.min(vals))
    if rng <= 1e-7 * (1.0 + float(np.max(np.abs(vals)))):
        return False  # essentially constant
    typical = rng / max(vals.size - 1, 1)
    thresh = 0.5 * typical
    if mode == "min":
        j = int(np.argmin(vals))
        if j == 0:
            return vals[1] - vals[0] > thresh
        if j == vals.size - 1:
            return vals[-2] - vals[-1] > thresh
    else:
        j = int(np.argmax(vals))
        if j == 0:
            return vals[0] - vals[1] > thresh
        if j == vals.size - 1:
            return vals[-1] - vals[-2] > thresh
    return False


def _auto_resolution(spec: ModelSpec, names) -> float:
    supplied = all(n in spec.partials for n in names)
    return 1e-8 if supplied else 1e-3


# -- sign-branch integrals ----------------------------------------------------


def _closed_integral(K: float, sgn: float, t: float, T: float, weighted: bool) -> float:
    a = -sgn * K
    if abs(a) < 1e-300:
        return 0.5 * (T - t) ** 2 if weighted else (T - t)
    if not weighted:
        return (math.exp(a * T) - math.exp(a * t)) / a
    return -math.exp(a * t) * (T - t) / a + (math.exp(a * T) - math.exp(a * t)) / a**2


def _branch_integral(K: float, s_nodes: np.ndarray, running: np.ndarray,
                     t: float, T: float, weighted: bool, n_quad: int = 128) -> float:
    """int_t^T exp(-sgn(running(s)) K s) [(T-s)] ds.

    Closed form when the running extremum keeps one sign on [t, T]; otherwise
    composite quadrature with the sign evaluated node by node.
    """
    signs = np.sign(running)
    if np.all(signs >= 0) or np.all(signs <= 0):
        sgn = _sgn(float(running[0])) if np.any(signs != 0) else 0.0
        if np.all(signs == signs[0]) or K == 0.0:
            return _closed_integral(K, sgn if signs[0] != 0 else 0.0, t, T, weighted)
    s = np.linspace(t, T, n_quad + 1)
    m = np.interp(s, s_nodes, running)
    vals = np.exp(-np.sign(m) * K * s)
    if weighted:
        vals = vals * (T - s)
    return float(np.trapezoid(vals, s))


# -- grid extremization -------------------------------------------------------


def _s_nodes(box: GridBox, t: float) -> np.ndarray:
    """Box time nodes in [t, T], with t itself prepended when it is not a node."""
    s = box.t_nodes()
    s = s[s >= t - 1e-12]
    if s.size == 0 or s[0] > t + 1e-12:
        s = np.concatenate([[t], s])
    return s


def _grid4(spec: ModelSpec, name: str, box: GridBox, s_lo: float):
    """Evaluate a driver partial on the (s, x, y, z) product grid, s >= s_lo."""
    s = _s_nodes(box, s_lo)
    fn = spec.d(name)
    t4 = s[:, None, None, None]
    x4 = box.x_nodes()[None, :, None, None]
    y4 = box.y_nodes()[None, None, :, None]
    z4 = box.z_nodes()[None, None, None, :]
    vals = np.asarray(fn(t4, x4, y4, z4), dtype=float)
    vals = np.broadcast_to(vals, (s.size, box.nx, box.ny, box.nz))
    return s, vals


def _running_inf(vals: np.ndarray) -> np.ndarray:
    """inf over [s_i, T] x box as a function of s_i (non-decreasing)."""
    per_s = vals.reshape(vals.shape[0], -1).min(axis=1)
    return np.minimum.accumulate(per_s[::-1])[::-1]


def _running_sup(vals: np.ndarray) -> np.ndarray:
    per_s = vals.reshape(vals.shape[0], -1).max(axis=1)
    return np.maximum.accumulate(per_s[::-1])[::-1]


# -- conditional hit probability ---------------------------------------------


def _wilson_lower(k: int, n: int, z: float = 1.959963984540054) -> float:
    if n == 0:
        return 0.0
    p = k / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max((center - rad) / denom, 0.0)


def conditional_hit_lower_bound(spec: ModelSpec, t: float, A: IntervalUnion,
                                seed: int = 123, n_pilot: int = 2048,
                                n_sub: int = 2048, n_steps: int = 64,
                                n_probes: int = 5) -> float:
    """95% Wilson lower bound on P(X_T in A | X_t = x) minimized over probes x.

    Probe states are quantiles of a pilot simulation of X_t; from each probe
    the bridge to T is re-simulated and hits of A are counted.
    """
    from .mc import STREAM_BOOTSTRAP, _euler, rng_stream

    rng = rng_stream(seed, STREAM_BOOTSTRAP)
    k_t = max(int(round(t / spec.T * n_steps)), 1)
    dt1 = t / k_t
    # one (steps, paths) block per phase: the same normals as step-by-step draws
    dW = rng.standard_normal((k_t, n_pilot)) * math.sqrt(dt1)
    x = _euler(spec, dW.T, spec.X0, 0.0, dt1)[0][-1]
    probes = np.quantile(x, np.linspace(0.05, 0.95, n_probes))
    k_rest = max(n_steps - k_t, 1)
    dt2 = (spec.T - t) / k_rest
    lb = math.inf
    for xp in probes:
        dW = rng.standard_normal((k_rest, n_sub)) * math.sqrt(dt2)
        xx = _euler(spec, dW.T, float(xp), t, dt2)[0][-1]
        hits = int(np.sum(A.contains(xx)))
        lb = min(lb, _wilson_lower(hits, n_sub))
    return float(lb)


def _hit_guard(spec, t, A, check_hit, seed):
    if A is None or not check_hit:
        return None, []
    lb = conditional_hit_lower_bound(spec, t, A, seed=seed)
    notes = []
    if lb <= 0.0:
        notes.append("P(X_T in A | F_t) not certified positive at 95% confidence")
    return lb, notes


def _apply_hit(verdict: str, hit_lb) -> str:
    """Criteria demand P(X_T in A | F_t) > 0; an uncertified set voids them."""
    if hit_lb is not None and hit_lb <= 0.0 and verdict == "holds":
        return "inapplicable"
    return verdict


# -- first-order conditions ---------------------------------------------------


def first_order_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None, resolution: Optional[float] = None,
                      check_hit: bool = False, seed: int = 123) -> dict:
    """First-order conditions for a density of Y_t (Lipschitz regime).

    With K = k_b + k_y + k_sigma k_z, the '+' package asks

        inf g' e^{-sgn(inf g') K T} + infh(t) int_t^T e^{-sgn(infh(s)) K s} ds >= 0

    together with the strict analogue where inf g' runs over A only; the '-'
    package mirrors both lines with suprema.  Margins are the left-hand sides.
    """
    box = box or default_box(spec)
    res = resolution if resolution is not None else _auto_resolution(spec, ("g1", "h_x"))
    c = spec.constants
    xg = box.x_nodes()
    g1 = np.asarray(spec.d("g1")(xg), dtype=float) + np.zeros_like(xg)
    s_nodes, hx = _grid4(spec, "h_x", box, t)
    h_lo = _running_inf(hx)
    h_hi = _running_sup(hx)

    k_b = c.k_b if c.k_b is not None else float(np.max(np.abs(
        np.asarray(spec.d("b_x")(s_nodes[:, None], xg[None, :]), dtype=float))))
    k_sigma = c.k_sigma if c.k_sigma is not None else float(np.max(np.abs(
        np.asarray(spec.d("sigma_x")(s_nodes[:, None], xg[None, :]), dtype=float))))
    k_y = c.k_y if c.k_y is not None else float(np.max(np.abs(
        _grid4(spec, "h_y", box, t)[1])))
    k_z = c.k_z if c.k_z is not None else float(np.max(np.abs(
        _grid4(spec, "h_z", box, t)[1])))
    K = k_b + k_y + k_sigma * k_z

    hit_lb, hit_notes = _hit_guard(spec, t, A, check_hit, seed)
    mask = A.contains(xg) if A is not None else np.ones_like(xg, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect the declared box")

    out = {}
    for tag, hrun in (("H+", h_lo), ("H-", h_hi)):
        notes = list(hit_notes)
        if tag == "H+":
            g_glob, g_A = float(np.min(g1)), float(np.min(g1[mask]))
            edge = _edge_running(g1, "min")
            h_t = float(hrun[0])
            integ = _branch_integral(K, s_nodes, hrun, t, spec.T, weighted=False)
            m1 = g_glob * math.exp(-_sgn(g_glob) * K * spec.T) + h_t * integ
            m2 = g_A * math.exp(-_sgn(g_A) * K * spec.T) + h_t * integ
            verdict, margin = _verdict(m1, m2, res)
        else:
            g_glob, g_A = float(np.max(g1)), float(np.max(g1[mask]))
            edge = _edge_running(g1, "max")
            h_t = float(hrun[0])
            integ = _branch_integral(K, s_nodes, hrun, t, spec.T, weighted=False)
            m1 = g_glob * math.exp(-_sgn(g_glob) * K * spec.T) + h_t * integ
            m2 = g_A * math.exp(-_sgn(g_A) * K * spec.T) + h_t * integ
            # mirrored lines: require m1 <= 0 (non-strict) and m2 < 0 (strict)
            verdict, m_neg = _verdict(-m1, -m2, res)
            margin = -m_neg
        if edge:
            if A is None:
                verdict = "inconclusive-unbounded"
            else:
                notes.append("global extremum of g' still running at the box edge; "
                             "certified on the declared box only")
        scal = {"K": K, "g_extremum": g_glob, "g_extremum_A": g_A,
                "h_extremum_t": h_t, "integral": integ,
                "margin_global": m1, "margin_A": m2}
        verdict = _apply_hit(verdict, hit_lb)
        rep = CriterionReport(tag, t, repr(A) if A else None, verdict, margin,
                              res, scal, notes, _box_repr(box), hit_lb)
        out[tag] = rep
    return out


def _box_repr(box: GridBox) -> str:
    return (f"t:[{box.t_lo:g},{box.t_hi:g}]x{box.nt} x:[{box.x_lo:g},{box.x_hi:g}]x{box.nx} "
            f"y:[{box.y_lo:g},{box.y_hi:g}]x{box.ny} z:[{box.z_lo:g},{box.z_hi:g}]x{box.nz}")


# -- corrected second-order conditions ----------------------------------------


def _htilde_grid(spec: ModelSpec, box: GridBox, t: float):
    """Evaluate the second-order correction term on the (s,x,y,z) grid.

    htilde = -(h_xt + b h_xx - h h_xy + (sigma^2 h_xxx + 2 z sigma h_xxy
              + z^2 h_xyy)/2) - ((h_y + b_x) h_x + sigma sigma_x h_xx
              + z sigma_x h_xy),  all driver partials at (s, x, y).

    The bracket is the Ito generator of h_x(s, X_s, Y_s) with dY = -h ds + z dW.
    """
    s = _s_nodes(box, t)
    t4 = s[:, None, None, None]
    x4 = box.x_nodes()[None, :, None, None]
    y4 = box.y_nodes()[None, None, :, None]
    z4 = box.z_nodes()[None, None, None, :]
    shape = (s.size, box.nx, box.ny, box.nz)

    def E(name):
        return np.broadcast_to(np.asarray(spec.d(name)(t4, x4, y4, z4), dtype=float), shape)

    hval = np.broadcast_to(np.asarray(spec.h(t4, x4, y4, z4), dtype=float), shape)
    bval = np.broadcast_to(np.asarray(spec.b(t4, x4), dtype=float), shape)
    bx = np.broadcast_to(np.asarray(spec.d("b_x")(t4, x4), dtype=float), shape)
    sig = np.broadcast_to(np.asarray(spec.sigma(t4, x4), dtype=float), shape)
    sigx = np.broadcast_to(np.asarray(spec.d("sigma_x")(t4, x4), dtype=float), shape)
    z = np.broadcast_to(z4, shape)
    ht = -(E("h_xt") + bval * E("h_xx") - hval * E("h_xy")
           + 0.5 * (sig**2 * E("h_xxx") + 2.0 * z * sig * E("h_xxy") + z**2 * E("h_xyy"))) \
        - ((E("h_y") + bx) * E("h_x") + sig * sigx * E("h_xx") + z * sigx * E("h_xy"))
    return s, ht


def second_order_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                       box: Optional[GridBox] = None, resolution: Optional[float] = None,
                       check_hit: bool = False, seed: int = 123) -> dict:
    """Corrected second-order conditions (driver independent of z).

    Uses gtilde(x) = g'(x) + (T-t) h_x(T, x, g(x)), the correction term
    htilde above, K = k_y + k_b and the (T-s)-weighted sign-branch integral.
    """
    box = box or default_box(spec)
    res = resolution if resolution is not None else _auto_resolution(
        spec, ("g1", "h_x", "h_xt", "h_xx", "h_xy", "h_xxx", "h_xxy", "h_y"))
    # precondition: h must not depend on z
    probe_t = np.linspace(t, spec.T, 5)[:, None]
    probe_x = np.linspace(box.x_lo, box.x_hi, 7)[None, :]
    hz = np.broadcast_to(np.asarray(spec.d("h_z")(probe_t, probe_x, 0.3, 0.7), dtype=float),
                         np.broadcast(probe_t, probe_x).shape)
    if np.max(np.abs(hz)) > 1e-10:
        idx = np.unravel_index(int(np.argmax(np.abs(hz))), hz.shape)
        raise PreconditionError(
            "second-order conditions require a z-independent driver; "
            f"h_z != 0 near (t={float(probe_t[idx[0], 0]):g}, x={float(probe_x[0, idx[1]]):g})")

    c = spec.constants
    xg = box.x_nodes()
    k_b = c.k_b if c.k_b is not None else float(np.max(np.abs(
        np.asarray(spec.d("b_x")(np.linspace(0, spec.T, 9)[:, None], xg[None, :]), dtype=float))))
    k_y = c.k_y if c.k_y is not None else float(np.max(np.abs(_grid4(spec, "h_y", box, t)[1])))
    K = k_y + k_b

    gvals = np.asarray(spec.g(xg), dtype=float)
    g1 = np.asarray(spec.d("g1")(xg), dtype=float) + np.zeros_like(xg)
    hxT = np.asarray(spec.d("h_x")(spec.T, xg, gvals, 0.0), dtype=float) + np.zeros_like(xg)
    gt = g1 + (spec.T - t) * hxT

    s_nodes, ht = _htilde_grid(spec, box, t)
    ht_lo = _running_inf(ht)
    ht_hi = _running_sup(ht)

    hit_lb, hit_notes = _hit_guard(spec, t, A, check_hit, seed)
    mask = A.contains(xg) if A is not None else np.ones_like(xg, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect the declared box")

    out = {}
    for tag in ("Htilde+", "Htilde-"):
        notes = list(hit_notes)
        if tag == "Htilde+":
            g_glob, g_A = float(np.min(gt)), float(np.min(gt[mask]))
            edge = _edge_running(gt, "min")
            h_t = float(ht_lo[0])
            integ = _branch_integral(K, s_nodes, ht_lo, t, spec.T, weighted=True)
            m1 = g_glob * math.exp(-_sgn(g_glob) * K * spec.T) + h_t * integ
            m2 = g_A * math.exp(-_sgn(g_A) * K * spec.T) + h_t * integ
            verdict, margin = _verdict(m1, m2, res)
        else:
            g_glob, g_A = float(np.max(gt)), float(np.max(gt[mask]))
            edge = _edge_running(gt, "max")
            h_t = float(ht_hi[0])
            integ = _branch_integral(K, s_nodes, ht_hi, t, spec.T, weighted=True)
            m1 = g_glob * math.exp(-_sgn(g_glob) * K * spec.T) + h_t * integ
            m2 = g_A * math.exp(-_sgn(g_A) * K * spec.T) + h_t * integ
            verdict, m_neg = _verdict(-m1, -m2, res)
            margin = -m_neg
        if edge:
            if A is None:
                verdict = "inconclusive-unbounded"
            else:
                notes.append("global extremum of gtilde still running at the box edge; "
                             "certified on the declared box only")
        scal = {"K": K, "gtilde_extremum": g_glob, "gtilde_extremum_A": g_A,
                "htilde_extremum_t": h_t, "integral": integ,
                "margin_global": m1, "margin_A": m2}
        verdict = _apply_hit(verdict, hit_lb)
        out[tag] = CriterionReport(tag, t, repr(A) if A else None, verdict, margin, res,
                                   scal, notes, _box_repr(box), hit_lb)
    return out


# -- quadratic-regime conditions ----------------------------------------------


def quadratic_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                    box: Optional[GridBox] = None, resolution: Optional[float] = None,
                    check_hit: bool = False, seed: int = 123) -> dict:
    """Sign conditions for a density of Y_t under a quadratic-growth driver.

    '+': g' >= 0 everywhere, g' > 0 on A, and inf h_x over [t,T] >= 0;
    '-' mirrors the signs.
    """
    box = box or default_box(spec)
    res = resolution if resolution is not None else _auto_resolution(spec, ("g1", "h_x"))
    xg = box.x_nodes()
    g1 = np.asarray(spec.d("g1")(xg), dtype=float) + np.zeros_like(xg)
    s_nodes, hx = _grid4(spec, "h_x", box, t)
    h_lo = float(_running_inf(hx)[0])
    h_hi = float(_running_sup(hx)[0])
    hit_lb, hit_notes = _hit_guard(spec, t, A, check_hit, seed)
    mask = A.contains(xg) if A is not None else np.ones_like(xg, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect the declared box")

    out = {}
    for tag in ("Q+", "Q-"):
        if tag == "Q+":
            m1 = float(np.min(g1))
            m2 = float(np.min(g1[mask]))
            m3 = h_lo
        else:
            m1 = -float(np.max(g1))
            m2 = -float(np.max(g1[mask]))
            m3 = -h_hi
        verdict, margin = _verdict(min(m1, m3), m2, res)
        if tag == "Q-":
            margin = -margin
        scal = {"g1_extremum": m1 if tag == "Q+" else -m1,
                "g1_extremum_A": m2 if tag == "Q+" else -m2,
                "h_extremum_t": h_lo if tag == "Q+" else h_hi}
        verdict = _apply_hit(verdict, hit_lb)
        out[tag] = CriterionReport(tag, t, repr(A) if A else None, verdict, margin, res,
                                   scal, list(hit_notes), _box_repr(box), hit_lb)
    return out


# -- Z-criteria ---------------------------------------------------------------


def _structure_gate(spec: ModelSpec, box: GridBox, t: float, res: float, need_hy: bool):
    """(C+) sign package and the cross-derivative annihilation h_xz = h_yz = 0."""
    gates = {}
    for name in ("h_x", "h_xx", "h_yy", "h_zz", "h_xy"):
        _, vals = _grid4(spec, name, box, t)
        gates[name] = float(vals.min())
    cross = 0.0
    for name in ("h_xz", "h_yz"):
        _, vals = _grid4(spec, name, box, t)
        cross = max(cross, float(np.max(np.abs(vals))))
    ok = all(v >= -res for v in gates.values()) and cross <= 1e-10
    notes = []
    if cross > 1e-10:
        notes.append(f"cross partials not annihilated: sup |h_xz|,|h_yz| = {cross:.3g}")
    for name, v in gates.items():
        if v < -res:
            notes.append(f"(C+) violated: min {name} = {v:.3g}")
    hy_min = None
    if need_hy:
        _, vals = _grid4(spec, "h_y", box, t)
        hy_min = float(vals.min())
        if hy_min < -res:
            ok = False
            notes.append(f"h_y >= 0 violated: min h_y = {hy_min:.3g}")
    return ok, gates, cross, hy_min, notes


def estimate_variation_bounds(spec: ModelSpec, seed: int = 321, n_paths: int = 2048,
                              n_steps: int = 64) -> VariationBounds:
    """Monte Carlo extremes of D_r X_u (flow ratios) and of D^2_{r,r} X_u."""
    from .mc import _euler, _malliavin_d2x, malliavin_dx, simulate_forward

    ens = simulate_forward(spec, n_paths, n_steps, seed)
    _, nabla, nabla2 = _euler(spec, ens.dW, spec.X0, 0.0, ens.dt, order=2)
    a_lo, a_hi = math.inf, -math.inf
    for k_r in range(0, n_steps, max(n_steps // 8, 1)):
        d = malliavin_dx(spec, ens, nabla.T, k_r)[:, k_r:]
        a_lo = min(a_lo, float(np.min(d)))
        a_hi = max(a_hi, float(np.max(d)))
    # second derivative probe on the diagonal r = s of a coarser r-grid
    b_hi = max(float(np.max(np.abs(_malliavin_d2x(spec, ens, nabla, nabla2, k_r, k_r))))
               for k_r in range(0, n_steps, max(n_steps // 4, 1)))
    return VariationBounds(a_lo, a_hi, b_hi)


def _z_inequalities(g2_min, g2_min_A, g1_min, g1_min_A, hxx_min, a_lo, a_hi, b_hi, T, t):
    i_neg = 1.0 if g2_min < 0 else 0.0
    i_pos = 1.0 - i_neg
    i_negA = 1.0 if g2_min_A < 0 else 0.0
    i_posA = 1.0 - i_negA
    i_g1 = 1.0 if g1_min < 0 else 0.0
    m1 = i_neg * g2_min * a_hi**2 + g1_min * i_g1 * b_hi \
        + (i_pos * g2_min + hxx_min * (T - t)) * a_lo**2
    m2 = (i_negA * g2_min_A * a_hi**2 + g1_min_A * i_g1 * b_hi) \
        + (i_posA * g2_min_A + hxx_min * (T - t)) * a_lo**2
    return m1, m2


def _z_check(spec: ModelSpec, t, A, box, resolution, bounds, need_hy, tag,
             check_hit, seed):
    box = box or default_box(spec)
    res = resolution if resolution is not None else _auto_resolution(
        spec, ("g1", "g2", "h_xx"))
    ok, gates, cross, hy_min, notes = _structure_gate(spec, box, t, res, need_hy)
    xg = box.x_nodes()
    g1 = np.asarray(spec.d("g1")(xg), dtype=float) + np.zeros_like(xg)
    g2 = np.asarray(spec.d("g2")(xg), dtype=float) + np.zeros_like(xg)
    # the h_xy branch condition: h_xy == 0, or h_xy >= 0 together with g' >= 0
    hxy_sup = float(np.max(np.abs(_grid4(spec, "h_xy", box, t)[1])))
    if hxy_sup > 1e-10 and float(np.min(g1)) < -res:
        ok = False
        notes.append("h_xy != 0 requires g' >= 0 a.e., violated on the box")
    if bounds is None:
        bounds = estimate_variation_bounds(spec, seed=seed)
        notes.append(f"variation bounds estimated by MC: a in [{bounds.a_lo:.4g}, "
                     f"{bounds.a_hi:.4g}], b_hi = {bounds.b_hi:.4g}")
    hit_lb, hit_notes = _hit_guard(spec, t, A, check_hit, seed)
    notes += hit_notes
    mask = A.contains(xg) if A is not None else np.ones_like(xg, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect the declared box")
    g2_min, g2_min_A = float(np.min(g2)), float(np.min(g2[mask]))
    g1_min, g1_min_A = float(np.min(g1)), float(np.min(g1[mask]))
    _, hxx4 = _grid4(spec, "h_xx", box, t)
    hxx_min = float(_running_inf(hxx4)[0])
    m1, m2 = _z_inequalities(g2_min, g2_min_A, g1_min, g1_min_A, hxx_min,
                             bounds.a_lo, bounds.a_hi, bounds.b_hi, spec.T, t)
    edge = _edge_running(g2, "min")
    scal = {"g2_min": g2_min, "g2_min_A": g2_min_A, "g1_min": g1_min,
            "g1_min_A": g1_min_A, "h_xx_min": hxx_min,
            "a_lo": bounds.a_lo, "a_hi": bounds.a_hi, "b_hi": bounds.b_hi,
            "ineq_global": m1, "ineq_A": m2, **{f"gate_{k}": v for k, v in gates.items()}}
    if hy_min is not None:
        scal["h_y_min"] = hy_min
    verdict, margin = _verdict(m1, m2, res)
    if bounds.a_lo <= 0:
        verdict = "inapplicable"
        notes.append("lower bound on D_r X not positive; theorem inapplicable")
    elif edge and A is None:
        verdict = "inconclusive-unbounded"
    elif edge:
        notes.append("global extremum of g'' still running at the box edge; "
                     "certified on the declared box only")
    if not ok and verdict not in ("inapplicable",):
        verdict = "fails"
    verdict = _apply_hit(verdict, hit_lb)
    return CriterionReport(tag, t, repr(A) if A else None, verdict, margin, res,
                           scal, notes, _box_repr(box), hit_lb)


def z_lipschitz_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None,
                      bounds: Optional[VariationBounds] = None,
                      resolution: Optional[float] = None,
                      check_hit: bool = False, seed: int = 123) -> CriterionReport:
    """Density criterion for Z_t under a Lipschitz driver.

    Requires the (C+) sign package, pathwise bounds a_lo <= D_r X <= a_hi,
    0 <= D^2 X <= b_hi, and the two displayed inequalities combining the
    extrema of g'', g' and inf h_xx; the margin is their minimum.
    """
    return _z_check(spec, t, A, box, resolution, bounds, need_hy=False,
                    tag="Z-lip", check_hit=check_hit, seed=seed)


def z_quadratic_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None,
                      bounds: Optional[VariationBounds] = None,
                      resolution: Optional[float] = None,
                      check_hit: bool = False, seed: int = 123) -> CriterionReport:
    """Quadratic-regime analogue of the Z-criterion (adds h_y >= 0)."""
    return _z_check(spec, t, A, box, resolution, bounds, need_hy=True,
                    tag="Z-quad", check_hit=check_hit, seed=seed)


def z_markovian_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None, resolution: Optional[float] = None,
                      n_w: int = 257, check_hit: bool = False, seed: int = 123) -> dict:
    """Z-criterion under the Markov representation X_t = f(t, W_t).

    Variant a) needs h_zz >= 0 (with h_xz = h_yz = 0), the derivative of
    (g' o f) f' bounded below, and min over A strictly positive after adding
    (T-t) inf htilde; variant b) mirrors the signs.  Here

      htilde(t,w,x,y,z,zt) = h_xx |f'|^2 + h_x f'' + (h_yy z + 2 h_xy f') z
                             + h_y zt.
    """
    if spec.markovian_f is None:
        raise PreconditionError("z_markovian_check requires assumption (M): supply markovian_f")
    box = box or default_box(spec)
    res = resolution if resolution is not None else _auto_resolution(
        spec, ("g1", "h_xx", "h_x", "h_yy", "h_xy", "h_y"))
    f = spec.markovian_f
    fw = spec.d("f_w")
    fww = spec.d("f_ww")
    w = np.linspace(box.x_lo, box.x_hi, n_w)
    phi = np.asarray(spec.d("g1")(np.asarray(f(spec.T, w), dtype=float)), dtype=float) \
        * (np.asarray(fw(spec.T, w), dtype=float) + np.zeros_like(w))
    dphi = np.gradient(phi, w, edge_order=2)

    # htilde extremized over [t,T] x w-box x (x,y,z) box x zt-box
    s = _s_nodes(box, t)
    wq = np.linspace(box.x_lo, box.x_hi, 33)
    t6 = s[:, None, None, None, None]
    x6 = box.x_nodes()[::max(box.nx // 17, 1)][None, :, None, None, None]
    y6 = box.y_nodes()[None, None, :, None, None]
    z6 = box.z_nodes()[None, None, None, :, None]
    w6 = wq[None, None, None, None, :]
    shape = np.broadcast(t6, x6, y6, z6, w6).shape

    def E(name):
        return np.broadcast_to(np.asarray(spec.d(name)(t6, x6, y6, z6), dtype=float), shape)

    fp = np.broadcast_to(np.asarray(fw(t6, w6), dtype=float), shape)
    fpp = np.broadcast_to(np.asarray(fww(t6, w6), dtype=float), shape)
    core = E("h_xx") * fp**2 + E("h_x") * fpp + (E("h_yy") * np.broadcast_to(z6, shape)
                                                 + 2.0 * E("h_xy") * fp) * np.broadcast_to(z6, shape)
    hy = E("h_y")
    zt_lo, zt_hi = box.z_lo, box.z_hi
    ht_min_grid = core + np.minimum(hy * zt_lo, hy * zt_hi)
    ht_max_grid = core + np.maximum(hy * zt_lo, hy * zt_hi)
    ht_lo = float(np.min(ht_min_grid))
    ht_hi = float(np.max(ht_max_grid))

    hit_lb, hit_notes = _hit_guard(spec, t, A, check_hit, seed)
    if A is not None:
        fT = np.asarray(f(spec.T, w), dtype=float)
        maskA = A.contains(fT)
        if not np.any(maskA):
            raise PreconditionError("A does not intersect f(T, w-box)")
    else:
        maskA = np.ones_like(w, dtype=bool)

    # sign gates on h_zz and the annihilated cross partials
    _, hzz = _grid4(spec, "h_zz", box, t)
    cross = max(float(np.max(np.abs(_grid4(spec, "h_xz", box, t)[1]))),
                float(np.max(np.abs(_grid4(spec, "h_yz", box, t)[1]))))
    out = {}
    for tag in ("Z-markov-a", "Z-markov-b"):
        notes = list(hit_notes)
        if cross > 1e-10:
            notes.append(f"cross partials not annihilated: {cross:.3g}")
        if tag == "Z-markov-a":
            gate = float(hzz.min()) >= -res and cross <= 1e-10
            m1 = float(np.min(dphi)) + (spec.T - t) * ht_lo
            m2 = float(np.min(dphi[maskA])) + (spec.T - t) * ht_lo
            verdict, margin = _verdict(m1, m2, res)
            edge = _edge_running(dphi, "min")
        else:
            gate = float(-hzz.max()) >= -res and cross <= 1e-10
            m1 = float(np.max(dphi)) + (spec.T - t) * ht_hi
            m2 = float(np.max(dphi[maskA])) + (spec.T - t) * ht_hi
            verdict, m_neg = _verdict(-m1, -m2, res)
            margin = -m_neg
            edge = _edge_running(dphi, "max")
        if not gate:
            verdict = "fails"
            notes.append("h_zz sign package violated")
        elif edge and A is None:
            verdict = "inconclusive-unbounded"
        elif edge:
            notes.append("global extremum still running at the box edge; "
                         "certified on the declared box only")
        scal = {"dphi_extremum": m1 - (spec.T - t) * (ht_lo if tag.endswith("a") else ht_hi),
                "htilde_extremum": ht_lo if tag.endswith("a") else ht_hi,
                "margin_global": m1, "margin_A": m2}
        verdict = _apply_hit(verdict, hit_lb)
        out[tag] = CriterionReport(tag, t, repr(A) if A else None, verdict, margin,
                                   res, scal, notes, _box_repr(box), hit_lb)
    return out


def x_sign_check(spec: ModelSpec, box: Optional[GridBox] = None,
                 resolution: float = 1e-3, n_x: int = 401) -> dict:
    """Sign conditions on the diffusion coefficients controlling D^2 X.

    '+': sigma >= c > 0, sigma' >= 0, sigma'' <= 0, sigma''' <= 0 and the
    iterated bracket [sigma, [sigma, b]] >= 0, with [b, sigma] = b' sigma
    + sigma' b; '-' mirrors every sign.
    """
    box = box or default_box(spec)
    tn = np.linspace(box.t_lo, box.t_hi, box.nt)[:, None]
    xn = np.linspace(box.x_lo, box.x_hi, n_x)[None, :]
    shape = (box.nt, n_x)
    sig = np.broadcast_to(np.asarray(spec.sigma(tn, xn), dtype=float), shape)
    s1 = np.broadcast_to(np.asarray(spec.d("sigma_x")(tn, xn), dtype=float), shape)
    s2 = np.broadcast_to(np.asarray(spec.d("sigma_xx")(tn, xn), dtype=float), shape)
    s3 = np.broadcast_to(np.asarray(spec.d("sigma_xxx")(tn, xn), dtype=float), shape)
    b = np.broadcast_to(np.asarray(spec.b(tn, xn), dtype=float), shape)
    b1 = np.broadcast_to(np.asarray(spec.d("b_x")(tn, xn), dtype=float), shape)
    c1 = b1 * sig + s1 * b                      # [sigma, b] per the printed bracket
    c1x = np.gradient(c1, xn[0], axis=1)
    c2 = s1 * c1 + c1x * sig                    # [sigma, [sigma, b]]
    xs = xn[0]
    out = {}
    for tag, sgn in (("X+", 1.0), ("X-", -1.0)):
        margins = {
            "sigma": float(np.min(sgn * sig)),
            "sigma_x": float(np.min(sgn * s1)),
            "sigma_xx": float(np.min(-sgn * s2)),
            "sigma_xxx": float(np.min(-sgn * s3)),
            "bracket": float(np.min(sgn * c2)),
        }
        margin = min(margins.values())
        witnesses = []
        if margin < -resolution:
            for key, arr in (("sigma", sgn * sig), ("sigma_x", sgn * s1),
                             ("sigma_xx", -sgn * s2), ("sigma_xxx", -sgn * s3),
                             ("bracket", sgn * c2)):
                if float(np.min(arr)) < -resolution:
                    i = np.unravel_index(int(np.argmin(arr)), arr.shape)
                    witnesses.append((key, float(np.linspace(box.t_lo, box.t_hi, box.nt)[i[0]]),
                                      float(xs[i[1]])))
        # the ellipticity floor is strict; the derivative sign conditions are not
        if margins["sigma"] <= resolution:
            verdict = "boundary" if abs(margin) <= resolution else "fails"
        elif margin >= -resolution:
            verdict = "holds"
        else:
            verdict = "fails"
        rep = CriterionReport(tag, box.t_lo, None, verdict, margin, resolution,
                              margins, [f"witness {w}" for w in witnesses], _box_repr(box))
        out[tag] = rep
    return out
