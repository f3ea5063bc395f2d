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

Every check returns ``{tag: CriterionReport}`` and is built from two parts.
``_frame`` resolves what all checks share: the box, the resolution (fine
only when every partial the check reads is exact), the A-mask and the hit
bound.  ``_Frame.judge`` turns one sign package's (non-strict, strict) pair
of lines into a report by one rule: the verdict from the margins, then a
void hypothesis, the box-edge rule and a failed structural gate.  Each ±
pair runs over ``model.SIGNS``.  Every grid value comes from ``model.evaluate``,
so a NaN or ±inf partial raises EvaluationError naming it and its node.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .model import (SIGN_PARTIALS, SIGNS, GridBox, ModelSpec, box_mesh, check_horizon,
                    default_box, evaluate, sign_package)

__all__ = [
    "IntervalUnion", "CriterionReport", "VariationBounds",
    "first_order_check", "second_order_check", "quadratic_check",
    "z_lipschitz_check", "z_quadratic_check", "z_markovian_check",
    "x_sign_check", "conditional_hit_lower_bound", "CHECKS", "TIMELESS",
]

_HIT_STEPS = 64  # Euler steps over [0, T] of conditional_hit_lower_bound


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
        return asdict(self)


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


def _edge_running(vals: np.ndarray) -> bool:
    """True when the minimum sits at the box edge and is still decreasing.

    Pass -vals for the maximum: negation is exact and argmin of -vals is the
    first argmax of vals.  'Still decreasing' is judged against the typical
    per-node variation: a trend whose edge step keeps pace with the average
    slope is treated as unbounded, while a saturating tail (edge step orders
    of magnitude below the typical step) is not.
    """
    rng = float(np.max(vals) - np.min(vals))
    if rng <= 1e-7 * (1.0 + float(np.max(np.abs(vals)))):
        return False  # essentially constant
    thresh = 0.5 * (rng / max(vals.size - 1, 1))
    j = int(np.argmin(vals))
    if j == 0:
        return vals[1] - vals[0] > thresh
    if j == vals.size - 1:
        return vals[-2] - vals[-1] > thresh
    return False



# -- sign-branch integrals ----------------------------------------------------


def _closed_integral(K: float, sgn: float, t: float, T: float, weighted: bool) -> float:
    a = -sgn * K
    if abs(a) < 1e-300:
        return 0.5 * (T - t) ** 2 if weighted else (T - t)
    if not weighted:
        return (math.exp(a * T) - math.exp(a * t)) / a
    return -math.exp(a * t) * (T - t) / a + (math.exp(a * T) - math.exp(a * t)) / a**2


def _branch_integral(K: float, s_nodes: np.ndarray, running: np.ndarray,
                     t: float, T: float, weighted: bool) -> float:
    """int_t^T exp(-sgn(running(s)) K s) [(T-s)] ds.

    Closed form when the running extremum keeps one sign on [t, T]; otherwise
    the trapezoidal rule on 128 steps with the sign evaluated node by node.
    """
    signs = np.sign(running)
    if np.all(signs >= 0) or np.all(signs <= 0):
        sgn = _sgn(float(running[0])) if np.any(signs != 0) else 0.0
        if np.all(signs == signs[0]) or K == 0.0:
            return _closed_integral(K, sgn if signs[0] != 0 else 0.0, t, T, weighted)
    s = np.linspace(t, T, 129)
    m = np.interp(s, s_nodes, running)
    vals = np.exp(-np.sign(m) * K * s)
    if weighted:
        vals = vals * (T - s)
    return float(np.trapezoid(vals, s))


# -- grid extremization -------------------------------------------------------


def _running_inf(vals: np.ndarray) -> np.ndarray:
    """inf over [s_i, T] x box as a function of s_i (non-decreasing).

    The running sup is -_running_inf(-vals), bit for bit.
    """
    per_s = vals.reshape(vals.shape[0], -1).min(axis=1)
    return np.minimum.accumulate(per_s[::-1])[::-1]


def _sup_abs(declared: Optional[float], spec: ModelSpec, name: str, *args) -> float:
    """A declared bound, else sup |name(*args)| over the grid."""
    return declared if declared is not None else float(np.max(np.abs(evaluate(spec, name, *args))))


# -- conditional hit probability ---------------------------------------------


def _wilson_lower(k: int, n: int) -> float:
    z = 1.959963984540054  # the two-sided 95% normal quantile
    if n == 0:
        return 0.0
    p = k / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max((center - rad) / denom, 0.0)


def conditional_hit_lower_bound(spec: ModelSpec, t: float, A: IntervalUnion,
                                seed: int = 123) -> float:
    """95% Wilson lower bound on P(X_T in A | X_t = x) minimized over probes x.

    Probe states are quantiles of a pilot simulation of X_t; from each probe
    the bridge to T is re-simulated and hits of A are counted.
    """
    from .mc import STREAM_BOOTSTRAP, _euler, rng_stream

    rng = rng_stream(seed, STREAM_BOOTSTRAP)
    k_t = max(int(round(t / spec.T * _HIT_STEPS)), 1)
    dt1 = t / k_t
    # one (steps, paths) block per phase: the same normals as step-by-step draws
    dW = rng.standard_normal((k_t, 2048)) * math.sqrt(dt1)
    x = _euler(spec, dW.T, spec.X0, 0.0, dt1)[0][-1]
    probes = np.quantile(x, np.linspace(0.05, 0.95, 5))
    k_rest = max(_HIT_STEPS - k_t, 1)
    dt2 = (spec.T - t) / k_rest
    lb = math.inf
    for xp in probes:
        dW = rng.standard_normal((k_rest, 2048)) * math.sqrt(dt2)
        xx = _euler(spec, dW.T, float(xp), t, dt2)[0][-1]
        hits = int(np.sum(A.contains(xx)))
        lb = min(lb, _wilson_lower(hits, xx.size))
    return float(lb)


@dataclass
class _Frame:
    """What every check shares: box, resolution, x-nodes, g', the A-mask, hit bound."""

    spec: ModelSpec
    t: float
    A: Optional[IntervalUnion]
    box: GridBox
    res: float
    xg: np.ndarray
    g1: np.ndarray
    mask: np.ndarray
    hit_lb: Optional[float]
    hit_notes: list

    def report(self, tag, verdict, margin, scalars, notes) -> CriterionReport:
        # criteria demand P(X_T in A | F_t) > 0; an uncertified set voids them
        if self.hit_lb is not None and self.hit_lb <= 0.0 and verdict == "holds":
            verdict = "inapplicable"
        return CriterionReport(tag, self.t, repr(self.A) if self.A else None, verdict, margin,
                               self.res, scalars, notes, _box_repr(self.box), self.hit_lb)

    def judge(self, tag, sgn, nonstrict, strict, scalars, notes=(), edge=None, label="",
              failed=False, void=None) -> CriterionReport:
        """Report one sign package from its sign-normalised pair of lines.

        Hit notes come first, then ``notes``.  A ``void`` hypothesis (its
        note) makes the package inapplicable.  Otherwise an extremum of
        ``edge`` still running at the box edge makes it inconclusive without
        A and earns a note with A, and a ``failed`` gate makes it fail.  The
        margin is returned in the original signs, sgn * margin.
        """
        verdict, margin = _verdict(nonstrict, strict, self.res)
        notes = [*self.hit_notes, *notes]
        if void:
            verdict = "inapplicable"
            notes.append(void)
        else:
            if edge is not None and _edge_running(edge):
                if self.A is None:
                    verdict = "inconclusive-unbounded"
                else:
                    notes.append(f"global extremum of {label} still running at the box edge; "
                                 "certified on the declared box only")
            if failed:
                verdict = "fails"
        return self.report(tag, verdict, sgn * margin, scalars, notes)


def _frame(spec, t, A, box, resolution, partials, check_hit, seed, a_on=None) -> _Frame:
    """Preamble of every check.  The resolution is fine only when each partial
    the check reads is exact; A is tested on ``a_on`` (the x-nodes by default)
    and a PreconditionError is raised when it misses them all or t is not in [0, T]."""
    check_horizon(t, spec.T)
    box = box or default_box(spec)
    if resolution is None:
        resolution = 1e-8 if all(n in spec.partials for n in partials) else 1e-3
    xg = box.x_nodes()
    on = xg if a_on is None else a_on
    hit_lb, hit_notes = None, []
    if A is not None and check_hit:
        hit_lb = conditional_hit_lower_bound(spec, t, A, seed=seed)
        if hit_lb <= 0.0:
            hit_notes.append("P(X_T in A | F_t) not certified positive at 95% confidence")
    mask = A.contains(on) if A is not None else np.ones_like(on, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect "
                                + ("the declared box" if a_on is None else "f(T, w-box)"))
    return _Frame(spec, t, A, box, resolution, xg, evaluate(spec, "g1", xg), mask,
                  hit_lb, hit_notes)


def _box_repr(box: GridBox) -> str:
    return (f"t:[{box.t_lo:g},{box.t_hi:g}]x{box.nt} x:[{box.x_lo:g},{box.x_hi:g}]x{box.nx} "
            f"y:[{box.y_lo:g},{box.y_hi:g}]x{box.ny} z:[{box.z_lo:g},{box.z_hi:g}]x{box.nz}")


def _h_pair(fr: _Frame, stem: str, g_key: str, h_key: str, g_label: str,
            gv: np.ndarray, hv: np.ndarray, s_nodes: np.ndarray, K: float,
            weighted: bool) -> dict:
    """The '+' and '-' packages of a first- or second-order condition.

    '+' asks  inf g e^{-sgn(inf g) K T} + infh(t) int_t^T e^{-sgn(infh(s)) K s} [(T-s)] ds
    >= 0 globally and > 0 with inf g over A only; '-' is the same pair of lines
    for the negated values (suprema, reversed inequalities).  Scalars keep the
    original signs.  A weight exp(K s) beyond the float range raises
    PreconditionError naming K and T.
    """
    T = fr.spec.T
    out = {}
    for sgn, sign in SIGNS:
        g_glob = sgn * float(np.min(sgn * gv))
        g_A = sgn * float(np.min(sgn * gv[fr.mask]))
        hrun = sgn * _running_inf(sgn * hv)
        h_t = float(hrun[0])
        try:
            with np.errstate(over="raise"):
                integ = _branch_integral(K, s_nodes, hrun, fr.t, T, weighted=weighted)
            m1 = g_glob * math.exp(-_sgn(g_glob) * K * T) + h_t * integ
            m2 = g_A * math.exp(-_sgn(g_A) * K * T) + h_t * integ
        except (OverflowError, FloatingPointError):
            raise PreconditionError(f"exp(K s) leaves the float range on [{fr.t:g}, {T:g}] "
                                    f"with K = {K:g}, T = {T:g}") from None
        scal = {"K": K, f"{g_key}_extremum": g_glob, f"{g_key}_extremum_A": g_A,
                f"{h_key}_extremum_t": h_t, "integral": integ,
                "margin_global": m1, "margin_A": m2}
        out[stem + sign] = fr.judge(stem + sign, sgn, sgn * m1, sgn * m2, scal,
                                    edge=sgn * gv, label=g_label)
    return out


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
    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x", "b_x", "sigma_x", "h_y", "h_z"),
                check_hit, seed)
    c = spec.constants
    sx, mesh = box_mesh(fr.box, t, 2), box_mesh(fr.box, t)
    k_b = _sup_abs(c.k_b, spec, "b_x", *sx)
    k_sigma = _sup_abs(c.k_sigma, spec, "sigma_x", *sx)
    k_y = _sup_abs(c.k_y, spec, "h_y", *mesh)
    k_z = _sup_abs(c.k_z, spec, "h_z", *mesh)
    K = k_b + k_y + k_sigma * k_z
    return _h_pair(fr, "H", "g", "h", "g'", fr.g1, evaluate(spec, "h_x", *mesh), mesh[0].ravel(),
                   K, weighted=False)


# -- corrected second-order conditions ----------------------------------------


def _htilde_grid(spec: ModelSpec, box: GridBox, t: float):
    """Evaluate the second-order correction term on the (s,x,y,z) grid.

    htilde = -(h_xt + b h_xx - h h_xy + (sigma^2 h_xxx + 2 z sigma h_xxy
              + z^2 h_xyy)/2) - ((h_y + b_x) h_x + sigma sigma_x h_xx
              + z sigma_x h_xy),  all driver partials at (s, x, y).

    The bracket is the Ito generator of h_x(s, X_s, Y_s) with dY = -h ds + z dW.
    """
    mesh = box_mesh(box, t)
    t4, x4, _, z4 = mesh

    def E(name):
        return evaluate(spec, name, *mesh)

    bval, bx, sig, sigx = (evaluate(spec, n, t4, x4) for n in ("b", "b_x", "sigma", "sigma_x"))
    ht = -(E("h_xt") + bval * E("h_xx") - E("h") * E("h_xy")
           + 0.5 * (sig**2 * E("h_xxx") + 2.0 * z4 * sig * E("h_xxy") + z4**2 * E("h_xyy"))) \
        - ((E("h_y") + bx) * E("h_x") + sig * sigx * E("h_xx") + z4 * sigx * E("h_xy"))
    return mesh[0].ravel(), ht


def second_order_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                       box: Optional[GridBox] = None, resolution: Optional[float] = None,
                       check_hit: bool = False, seed: int = 123) -> dict:
    """Corrected second-order conditions (driver independent of z).

    Uses gtilde(x) = g'(x) + (T-t) h_x(T, x, g(x)), the correction term
    htilde above, K = k_y + k_b and the (T-s)-weighted sign-branch integral.
    """
    box = box or default_box(spec)
    # precondition: h must not depend on z
    probe_t = np.linspace(t, spec.T, 5)[:, None]
    probe_x = np.linspace(box.x_lo, box.x_hi, 7)[None, :]
    hz = evaluate(spec, "h_z", probe_t, probe_x, 0.3, 0.7)
    if np.max(np.abs(hz)) > 1e-10:
        idx = np.unravel_index(int(np.argmax(np.abs(hz))), hz.shape)
        raise PreconditionError(
            "second-order conditions require a z-independent driver; "
            f"h_z != 0 near (t={float(probe_t[idx[0], 0]):g}, x={float(probe_x[0, idx[1]]):g})")

    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x", "h_xt", "h_xx", "h_xy", "h_xxx",
                                               "h_xxy", "h_xyy", "h_y", "b_x", "sigma_x"),
                check_hit, seed)
    c = spec.constants
    k_b = _sup_abs(c.k_b, spec, "b_x", *np.ix_(np.linspace(0, spec.T, 9), fr.xg))
    k_y = _sup_abs(c.k_y, spec, "h_y", *box_mesh(box, t))
    K = k_y + k_b

    gt = fr.g1 + (spec.T - t) * evaluate(spec, "h_x", spec.T, fr.xg, evaluate(spec, "g", fr.xg), 0.0)
    s_nodes, ht = _htilde_grid(spec, box, t)
    return _h_pair(fr, "Htilde", "gtilde", "htilde", "gtilde", gt, ht, s_nodes, K,
                   weighted=True)


# -- quadratic-regime conditions ----------------------------------------------


def quadratic_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                    box: Optional[GridBox] = None, resolution: Optional[float] = None,
                    check_hit: bool = False, seed: int = 123) -> dict:
    """Sign conditions for a density of Y_t under a quadratic-growth driver.

    '+': g' >= 0 everywhere, g' > 0 on A, and inf h_x over [t,T] >= 0;
    '-' mirrors the signs.
    """
    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x"), check_hit, seed)
    hx = evaluate(spec, "h_x", *box_mesh(fr.box, t))
    out = {}
    for sgn, sign in SIGNS:
        m1 = float(np.min(sgn * fr.g1))
        m2 = float(np.min(sgn * fr.g1[fr.mask]))
        m3 = float(_running_inf(sgn * hx)[0])
        scal = {"g1_extremum": sgn * m1, "g1_extremum_A": sgn * m2, "h_extremum_t": sgn * m3}
        out["Q" + sign] = fr.judge("Q" + sign, sgn, min(m1, m3), m2, scal)
    return out


# -- Z-criteria ---------------------------------------------------------------


def _cross(cross: float) -> list:
    """The gate h_xz = h_yz = 0 on sup |h_xz|, |h_yz|: one note when it fails, else none."""
    return [f"cross partials not annihilated: sup |h_xz|,|h_yz| = {cross:.3g}"] \
        if cross > 1e-10 else []


def estimate_variation_bounds(spec: ModelSpec, seed: int = 321, n_paths: int = 2048,
                              n_steps: int = 64) -> VariationBounds:
    """Monte Carlo extremes of D_r X_u (flow ratios) and of D^2_{r,r} X_u."""
    from .mc import _malliavin_d2x, _variations, malliavin_dx, simulate_forward

    ens = simulate_forward(spec, n_paths, n_steps, seed)
    _, nabla, nabla2 = _variations(spec, ens, order=2)
    a_lo, a_hi = math.inf, -math.inf
    for k_r in range(0, n_steps, max(n_steps // 8, 1)):
        d = malliavin_dx(spec, ens, nabla.T, k_r)[:, k_r:]
        a_lo = min(a_lo, float(np.min(d)))
        a_hi = max(a_hi, float(np.max(d)))
    # second derivative probe on the diagonal r = s of a coarser r-grid
    b_hi = max(float(np.max(np.abs(_malliavin_d2x(spec, ens, nabla, nabla2, k_r, k_r))))
               for k_r in range(0, n_steps, max(n_steps // 4, 1)))
    return VariationBounds(a_lo, a_hi, b_hi)


def _z_check(spec: ModelSpec, t, A, box, resolution, bounds, need_hy, tag,
             check_hit, seed) -> dict:
    """(C+) sign package on h_x, h_xx, h_yy, h_zz, h_xy; h_xz = h_yz = 0; the h_xy
    branch; h_y >= 0 when ``need_hy``; then the two displayed inequalities."""
    fr = _frame(spec, t, A, box, resolution,
                ("g1", "g2", "h_xx", "h_x", "h_yy", "h_zz", "h_xy", "h_xz", "h_yz", "h_y",
                 "b_x", "sigma_x", "b_xx", "sigma_xx"), check_hit, seed)
    res, g1, mask = fr.res, fr.g1, fr.mask
    mesh, grids, cross = sign_package(spec, fr.box, t)
    gates = {n: float(grids[n].min()) for n in SIGN_PARTIALS}
    notes = _cross(cross) + [f"(C+) violated: min {n} = {v:.3g}"
                             for n, v in gates.items() if v < -res]
    hy = {}
    if need_hy:
        hy["h_y_min"] = float(evaluate(spec, "h_y", *mesh).min())
        if hy["h_y_min"] < -res:
            notes.append(f"h_y >= 0 violated: min h_y = {hy['h_y_min']:.3g}")
    # the h_xy branch condition: h_xy == 0, or h_xy >= 0 together with g' >= 0
    if float(np.max(np.abs(grids["h_xy"]))) > 1e-10 and float(np.min(g1)) < -res:
        notes.append("h_xy != 0 requires g' >= 0 a.e., violated on the box")
    failed = bool(notes)
    if bounds is None:
        bounds = estimate_variation_bounds(spec, seed=seed)
        notes.append(f"variation bounds estimated by MC: a in [{bounds.a_lo:.4g}, "
                     f"{bounds.a_hi:.4g}], b_hi = {bounds.b_hi:.4g}")
    g2 = evaluate(spec, "g2", fr.xg)
    g2_min, g2_min_A = float(np.min(g2)), float(np.min(g2[mask]))
    g1_min, g1_min_A = float(np.min(g1)), float(np.min(g1[mask]))
    hxx_min = gates["h_xx"]  # inf over [t, T] x box
    a_lo, a_hi, b_hi = bounds.a_lo, bounds.a_hi, bounds.b_hi
    neg, neg_A, ig1 = float(g2_min < 0), float(g2_min_A < 0), float(g1_min < 0)
    m1 = neg * g2_min * a_hi**2 + g1_min * ig1 * b_hi \
        + ((1.0 - neg) * g2_min + hxx_min * (spec.T - t)) * a_lo**2
    m2 = (neg_A * g2_min_A * a_hi**2 + g1_min_A * ig1 * b_hi) \
        + ((1.0 - neg_A) * g2_min_A + hxx_min * (spec.T - t)) * a_lo**2
    scal = {"g2_min": g2_min, "g2_min_A": g2_min_A, "g1_min": g1_min,
            "g1_min_A": g1_min_A, "h_xx_min": hxx_min, "a_lo": a_lo, "a_hi": a_hi,
            "b_hi": b_hi, "ineq_global": m1, "ineq_A": m2,
            **{f"gate_{k}": v for k, v in gates.items()}, **hy}
    void = "lower bound on D_r X not positive; theorem inapplicable" if a_lo <= 0 else None
    return {tag: fr.judge(tag, 1.0, m1, m2, scal, notes, edge=g2, label="g''",
                          failed=failed, void=void)}


def z_lipschitz_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None,
                      bounds: Optional[VariationBounds] = None,
                      resolution: Optional[float] = None,
                      check_hit: bool = False, seed: int = 123) -> dict:
    """Density criterion for Z_t under a Lipschitz driver, as ``{"Z-lip": report}``.

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
                      check_hit: bool = False, seed: int = 123) -> dict:
    """Quadratic-regime analogue of the Z-criterion (adds h_y >= 0), as ``{"Z-quad": report}``."""
    return _z_check(spec, t, A, box, resolution, bounds, need_hy=True,
                    tag="Z-quad", check_hit=check_hit, seed=seed)


def z_markovian_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None, resolution: Optional[float] = None,
                      check_hit: bool = False, seed: int = 123) -> dict:
    """Z-criterion under the Markov representation X_t = f(t, W_t).

    Variant a) needs h_zz >= 0 (with h_xz = h_yz = 0), the derivative of
    (g' o f) f', g''(f) f'^2 + g'(f) f'' from the model's partials, bounded
    below, and min over A strictly positive after adding (T-t) inf htilde;
    variant b) mirrors the signs.  A is tested on f(T, w) over the w-box.  Here

      htilde(t,w,x,y,z,zt) = h_xx |f'|^2 + h_x f'' + (h_yy z + 2 h_xy f') z
                             + h_y zt.
    """
    if spec.markovian_f is None:
        raise PreconditionError("z_markovian_check requires assumption (M): supply markovian_f")
    box = box or default_box(spec)
    w = np.linspace(box.x_lo, box.x_hi, 257)
    fT = evaluate(spec, "f", spec.T, w)
    fr = _frame(spec, t, A, box, resolution,
                ("g1", "g2", "f_w", "f_ww", "h_xx", "h_x", "h_yy", "h_xy", "h_y",
                 "h_zz", "h_xz", "h_yz"), check_hit, seed, a_on=fT)
    # d/dw [(g' o f) f'] = g''(f) f'^2 + g'(f) f'' at T
    dphi = (evaluate(spec, "g2", fT) * evaluate(spec, "f_w", spec.T, w) ** 2
            + evaluate(spec, "g1", fT) * evaluate(spec, "f_ww", spec.T, w))

    # htilde extremized over [t,T] x w-box x (x,y,z) box x zt-box
    mesh, grids, cross = sign_package(spec, box, t)
    t6, x6, y6, z6, w6 = np.ix_(mesh[0].ravel(), box.x_nodes()[::max(box.nx // 17, 1)],
                                box.y_nodes(), box.z_nodes(), np.linspace(box.x_lo, box.x_hi, 33))

    def E(name):
        return evaluate(spec, name, t6, x6, y6, z6)

    fp, fpp = evaluate(spec, "f_w", t6, w6), evaluate(spec, "f_ww", t6, w6)
    core = E("h_xx") * fp**2 + E("h_x") * fpp + (E("h_yy") * z6 + 2.0 * E("h_xy") * fp) * z6
    hy = E("h_y")
    out = {}
    for sgn, sign in SIGNS:
        tag = "Z-markov-" + ("a" if sgn > 0 else "b")
        signed = float(np.min(sgn * grids["h_zz"])) >= -fr.res
        notes = _cross(cross) + ([] if signed else ["h_zz sign package violated"])
        # inf of sgn * htilde over the grid, zt at whichever box end minimizes it
        ht = sgn * float(np.min(sgn * core + np.minimum(sgn * hy * box.z_lo,
                                                        sgn * hy * box.z_hi)))
        m1 = sgn * float(np.min(sgn * dphi)) + (spec.T - t) * ht
        m2 = sgn * float(np.min(sgn * dphi[fr.mask])) + (spec.T - t) * ht
        scal = {"dphi_extremum": m1 - (spec.T - t) * ht, "htilde_extremum": ht,
                "margin_global": m1, "margin_A": m2}
        out[tag] = fr.judge(tag, sgn, sgn * m1, sgn * m2, scal, notes,
                            edge=sgn * dphi, label="(g' o f) f'", failed=bool(notes))
    return out


def x_sign_check(spec: ModelSpec, box: Optional[GridBox] = None,
                 resolution: Optional[float] = None, n_x: int = 401) -> dict:
    """Sign conditions on the diffusion coefficients controlling D^2 X.

    '+': sigma >= c > 0, sigma' >= 0, sigma'' <= 0, sigma''' <= 0 and the
    iterated bracket [sigma, [sigma, b]] >= 0, with [b, sigma] = b' sigma
    + sigma' b; '-' mirrors every sign.  The bracket's x-derivative comes
    from the exact partials b'' and sigma''.  Reports carry t = box.t_lo.
    """
    box = box or default_box(spec)
    partials = ("sigma_x", "sigma_xx", "sigma_xxx", "b_x", "b_xx")
    fr = _frame(spec, box.t_lo, None, box, resolution, partials, False, 0)
    tn, xn = np.ix_(box.t_nodes(), np.linspace(box.x_lo, box.x_hi, n_x))
    sig, s1, s2, s3, b1, b2, b = (evaluate(spec, n, tn, xn) for n in ("sigma", *partials, "b"))
    c1 = b1 * sig + s1 * b                      # [sigma, b] per the printed bracket
    c1x = b2 * sig + 2.0 * b1 * s1 + s2 * b
    c2 = s1 * c1 + c1x * sig                    # [sigma, [sigma, b]]
    out = {}
    for sgn, sign in SIGNS:
        arrays = {"sigma": sgn * sig, "sigma_x": sgn * s1, "sigma_xx": -sgn * s2,
                  "sigma_xxx": -sgn * s3, "bracket": sgn * c2}
        margins = {k: float(np.min(v)) for k, v in arrays.items()}
        margin = min(margins.values())
        witnesses = []
        for k, v in arrays.items():
            if margins[k] < -fr.res:
                i = np.unravel_index(int(np.argmin(v)), v.shape)
                witnesses.append((k, float(tn[i[0], 0]), float(xn[0, i[1]])))
        # the ellipticity floor is strict; the derivative sign conditions are not
        if margins["sigma"] <= fr.res:
            verdict = "boundary" if abs(margin) <= fr.res else "fails"
        else:
            verdict = "holds" if margin >= -fr.res else "fails"
        out["X" + sign] = fr.report("X" + sign, verdict, margin, margins,
                                    [f"witness {w}" for w in witnesses])
    return out


# The checks a config's criteria_checks may name, each called as check(spec, t);
# names resolve at call time, so wrappers installed on this module are used.
CHECKS = {
    "first-order": lambda spec, t: first_order_check(spec, t),
    "second-order": lambda spec, t: second_order_check(spec, t),
    "quadratic": lambda spec, t: quadratic_check(spec, t),
    "z-lipschitz": lambda spec, t: z_lipschitz_check(spec, t),
    "z-quadratic": lambda spec, t: z_quadratic_check(spec, t),
    "z-markovian": lambda spec, t: z_markovian_check(spec, t),
    "x-sign": lambda spec, t: x_sign_check(spec),
}
# The checks that read no t: a run over several times reports them once, at the first.
TIMELESS = frozenset({"x-sign"})
