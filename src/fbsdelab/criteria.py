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
restriction set A is a finite union of closed intervals.  Every criterion
assumes the ellipticity (X), read as sigma keeping one strict sign on the box.
Under (X) the law of X_T given F_t has full support (Stroock and Varadhan's
support theorem), so P(X_T in A | F_t) > 0 exactly when an interval of A has
positive length.

Every check returns ``{tag: CriterionReport}`` and is built from two parts.
``_frame`` resolves what all checks share: the box, the resolution (fine
only when every partial the check reads is exact), the A-mask, the range of
sigma and the void of (X) or of A.  ``_Frame.judge`` turns one sign
package's (non-strict, strict) pair of lines into a report by one rule: the
verdict from the margins, then a void hypothesis, the box-edge rule and a
failed structural gate.  Each ± pair runs over ``model.SIGNS``.  Every grid
value comes from ``model.evaluate``, so a NaN or ±inf partial raises
EvaluationError naming it and its node.

The first-order, second-order and quadratic checks reduce each partial they
extremize over [t, T] x box, and h̃, to per-time-row minima and maxima of the
callable's own output: one finite-checked evaluation on the check's own mesh,
never broadcast to the 4-D box.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .model import (SIGN_PARTIALS, SIGNS, GridBox, ModelSpec, _edge_running, _node, box_mesh,
                    check_horizon, default_box, evaluate, sign_package)

__all__ = [
    "IntervalUnion", "CriterionReport", "VariationBounds",
    "first_order_check", "second_order_check", "quadratic_check",
    "z_lipschitz_check", "z_quadratic_check", "z_markovian_check",
    "x_sign_check", "CHECKS", "TIMELESS",
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

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class VariationBounds:
    """Pathwise bounds on D_r X (a) and on D^2 X (b) used by the Z-criteria."""

    a_lo: float
    a_hi: float
    b_hi: float


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


# -- sign-branch integrals ----------------------------------------------------


def _closed_integral(K: float, sgn: float, t: float, T: float, weighted: bool) -> float:
    """int_t^T e^{-K T - sgn K s} [(T-s)] ds; no exponent is positive on 0 <= s <= T."""
    c = sgn * K
    if abs(c) < 1e-300:
        return math.exp(-K * T) * (0.5 * (T - t) ** 2 if weighted else (T - t))
    eT, et = math.exp(-(K + c) * T), math.exp(-K * T - c * t)
    if not weighted:
        return (et - eT) / c
    return (et * (T - t) - (et - eT) / c) / c


def _branch_integral(K: float, s_nodes: np.ndarray, running: np.ndarray,
                     t: float, T: float, weighted: bool) -> float:
    """int_t^T e^{-K T - sgn(running(s)) K s} [(T-s)] ds, each weight at most 1.

    Closed form when K = 0 or the running extremum keeps one sign on [t, T];
    otherwise the trapezoidal rule on 128 steps with the sign node by node.
    """
    signs = np.sign(running)
    if K == 0.0 or np.all(signs == signs[0]):
        return _closed_integral(K, float(signs[0]), t, T, weighted)
    s = np.linspace(t, T, 129)
    vals = np.exp(-K * (T + np.sign(np.interp(s, s_nodes, running)) * s))
    if weighted:
        vals = vals * (T - s)
    return float(np.trapezoid(vals, s))


# -- grid extremization -------------------------------------------------------


def _running_inf(per_s: np.ndarray) -> np.ndarray:
    """inf over [s_i, T] x box as a function of s_i (non-decreasing), from each row's inf."""
    return np.minimum.accumulate(per_s[::-1])[::-1]


def _own(vals: np.ndarray) -> np.ndarray:
    """The callable's own output inside ``evaluate``'s result, with the mesh's dimensions.

    ``evaluate`` broadcasts that output as a read-only view, which repeats it
    along stride-0 axes; one entry of each such axis holds every value.
    """
    return vals[tuple(slice(None) if st else slice(0, 1) for st in vals.strides)]


def _row_extrema(vals: np.ndarray) -> tuple:
    """(min, max) of each time row (axis 0) of ``vals``, reduced over its own output only."""
    own, n = _own(vals), vals.shape[0]
    if own.shape[0] == 1:  # constant along s
        return np.full(n, own.min()), np.full(n, own.max())
    rows = own.reshape(n, -1)
    return rows.min(axis=1), rows.max(axis=1)


@dataclass
class _Frame:
    """What every check shares: the box and its [t, T] meshes by dimension count,
    resolution, x-nodes, g', the A-mask, the (inf, sup) of sigma on the box and
    the note that voids every package, if any."""

    spec: ModelSpec
    t: float
    A: Optional[IntervalUnion]
    box: GridBox
    meshes: dict
    res: float
    xg: np.ndarray
    g1: np.ndarray
    mask: np.ndarray
    sigma: tuple
    void: Optional[str]

    def extrema(self, name: str, dims: int = 4) -> tuple:
        """(s, row minima, row maxima) of ``name`` over [t, T] x box."""
        mesh = self.meshes[dims]
        return (mesh[0].ravel(), *_row_extrema(evaluate(self.spec, name, *mesh)))

    def sup_abs(self, declared: Optional[float], name: str, dims: int = 4) -> float:
        """A declared bound, else sup |name| over [t, T] x box."""
        if declared is not None:
            return declared
        _, lo, hi = self.extrema(name, dims)
        return float(max(np.max(np.abs(lo)), np.max(np.abs(hi))))

    def report(self, tag, verdict, margin, scalars, notes) -> CriterionReport:
        return CriterionReport(tag, self.t, repr(self.A) if self.A else None, verdict, margin,
                               self.res, scalars, notes, _box_repr(self.box))

    def judge(self, tag, sgn, nonstrict, strict, scalars, notes=(), edge=None, label="",
              failed=False, void=None, scale=1.0) -> CriterionReport:
        """Report one sign package from its sign-normalised pair of lines.

        The frame's void ((X) or the reach of A), else the check's ``void``
        hypothesis, makes the package inapplicable; its note follows ``notes``.
        Otherwise an extremum of ``edge`` still running at the box edge makes
        it inconclusive without A and earns a note with A, and a ``failed``
        gate makes it fail.  Lines that carry a positive factor ``scale`` are
        judged against the resolution times it.  The margin is returned in the
        original signs, sgn * margin.
        """
        verdict, margin = _verdict(nonstrict, strict, self.res * scale)
        notes = list(notes)
        void = self.void or void
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


def _frame(spec, t, A, box, resolution, partials, a_on=None) -> _Frame:
    """Preamble of every check.  The resolution is fine only when each partial
    the check reads is exact; A is tested on ``a_on`` (the x-nodes by default)
    and a PreconditionError is raised when it misses them all or t is not in [0, T].

    Every package is void when sigma takes both signs or the value 0 on the
    box's (s, x) mesh over all its time nodes, since D_r Y_t reads sigma at
    r <= t, or, under (X), when no interval of A has positive length."""
    check_horizon(t, spec.T)
    box = box or default_box(spec)
    if resolution is None:
        resolution = 1e-8 if all(n in spec.partials for n in partials) else 1e-3
    xg = box.x_nodes()
    on = xg if a_on is None else a_on
    mask = A.contains(on) if A is not None else np.ones_like(on, dtype=bool)
    if not np.any(mask):
        raise PreconditionError("A does not intersect "
                                + ("the declared box" if a_on is None else "f(T, w-box)"))
    sig = evaluate(spec, "sigma", *box_mesh(box, box.t_lo, 2))
    lo, hi = float(np.min(sig)), float(np.max(sig))
    void = (f"(X) fails: sigma takes values in [{lo:.3g}, {hi:.3g}] on the box" if lo <= 0.0 <= hi
            else "no interval of A has positive length: P(X_T in A | F_t) = 0"
            if A is not None and all(a == b for a, b in A.intervals) else None)
    return _Frame(spec, t, A, box, {d: box_mesh(box, t, d) for d in (2, 4)}, resolution, xg,
                  evaluate(spec, "g1", xg), mask, (lo, hi), void)


def _box_repr(box: GridBox) -> str:
    return (f"t:[{box.t_lo:g},{box.t_hi:g}]x{box.nt} x:[{box.x_lo:g},{box.x_hi:g}]x{box.nx} "
            f"y:[{box.y_lo:g},{box.y_hi:g}]x{box.ny} z:[{box.z_lo:g},{box.z_hi:g}]x{box.nz}")


def _h_pair(fr: _Frame, stem: str, g_key: str, h_key: str, g_label: str,
            gv: np.ndarray, h_rows: tuple, K: float, weighted: bool) -> dict:
    """The '+' and '-' packages of a first- or second-order condition.

    ``h_rows`` is (s, row minima, row maxima) of h over [t, T] x box.

    '+' asks  e^{-KT} [G e^{-sgn(G) K T} + H(t) int_t^T e^{-sgn(H(s)) K s} [(T-s)] ds]
    >= 0 with G = inf g and H(s) = inf h over [s, T] x box, and > 0 with G over A
    only.  '-' is the '+' package of the negated model (g -> -g, h -> -h(t, x,
    -y, -z)), so its G and H are the infima of -g and -h.  The factor e^{-KT} > 0
    keeps every weight at most 1; the lines are judged against the resolution
    times e^{-KT}, so the verdict is the bracket's.  Scalars keep the original
    signs.
    """
    T, (s_nodes, h_lo, h_hi) = fr.spec.T, h_rows
    out = {}
    for sgn, sign in SIGNS:
        G, G_A = float(np.min(sgn * gv)), float(np.min(sgn * gv[fr.mask]))
        H = _running_inf(h_lo if sgn > 0 else -h_hi)
        h_t, integ = float(H[0]), _branch_integral(K, s_nodes, H, fr.t, T, weighted=weighted)
        m1, m2 = (g * math.exp(-K * T * (1.0 + np.sign(g))) + h_t * integ for g in (G, G_A))
        scal = {"K": K, f"{g_key}_extremum": sgn * G, f"{g_key}_extremum_A": sgn * G_A,
                f"{h_key}_extremum_t": sgn * h_t, "integral": integ,
                "margin_global": sgn * m1, "margin_A": sgn * m2}
        out[stem + sign] = fr.judge(stem + sign, sgn, m1, m2, scal, edge=sgn * gv, label=g_label,
                                    scale=math.exp(-K * T))
    return out


# -- first-order conditions ---------------------------------------------------


def first_order_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None, resolution: Optional[float] = None) -> dict:
    """First-order conditions for a density of Y_t (Lipschitz regime).

    With K = k_b + k_y + k_sigma k_z, the '+' package asks

        inf g' e^{-sgn(inf g') K T} + infh(t) int_t^T e^{-sgn(infh(s)) K s} ds >= 0

    together with the strict analogue where inf g' runs over A only; the '-'
    package is the '+' package of the negated model (g -> -g, h -> -h(t, x, -y, -z)).
    Margins are the left-hand sides times e^{-KT} (equal at K = 0), judged
    against the resolution times e^{-KT}, so the verdict is the left-hand side's.
    """
    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x", "b_x", "sigma_x", "h_y", "h_z"))
    c = spec.constants
    k_b = fr.sup_abs(c.k_b, "b_x", 2)
    k_sigma = fr.sup_abs(c.k_sigma, "sigma_x", 2)
    k_y = fr.sup_abs(c.k_y, "h_y")
    k_z = fr.sup_abs(c.k_z, "h_z")
    K = k_b + k_y + k_sigma * k_z
    return _h_pair(fr, "H", "g", "h", "g'", fr.g1, fr.extrema("h_x"), K, weighted=False)


# -- corrected second-order conditions ----------------------------------------


def _htilde_grid(spec: ModelSpec, box: GridBox, t: float):
    """Evaluate the second-order correction term on the (s,x,y,z) grid ``box_mesh(box, t)``.

    htilde = -(h_xt + b h_xx - h h_xy + (sigma^2 h_xxx + 2 z sigma h_xxy
              + z^2 h_xyy)/2) - ((h_y + b_x) h_x + sigma sigma_x h_xx
              + z sigma_x h_xy),  all driver partials at (s, x, y).

    The bracket is the Ito generator of h_x(s, X_s, Y_s) with dY = -h ds + z dW.
    Each partial is read by ``evaluate``, in this order, and the arithmetic runs on
    the callables' own outputs; htilde comes back broadcast to the mesh as a view.
    """
    mesh = box_mesh(box, t)
    t4, x4, _, z4 = mesh

    def E(name, *args):
        return _own(evaluate(spec, name, *(args or mesh)))

    bval, bx, sig, sigx = (E(n, t4, x4) for n in ("b", "b_x", "sigma", "sigma_x"))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as +-inf or NaN
        ht = -(E("h_xt") + bval * E("h_xx") - E("h") * E("h_xy")
               + 0.5 * (sig**2 * E("h_xxx") + 2.0 * z4 * sig * E("h_xxy") + z4**2 * E("h_xyy"))) \
            - ((E("h_y") + bx) * E("h_x") + sig * sigx * E("h_xx") + z4 * sigx * E("h_xy"))
    return mesh[0].ravel(), np.broadcast_to(ht, np.broadcast(*mesh).shape)


def second_order_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                       box: Optional[GridBox] = None, resolution: Optional[float] = None) -> dict:
    """Corrected second-order conditions (driver independent of z).

    Uses gtilde(x) = g'(x) + (T-t) h_x(T, x, g(x)), the correction term
    htilde above, K = k_y + k_b (declared, else sup |h_y|, |b_x| over
    [t, T] x box, as in ``first_order_check``) and the (T-s)-weighted
    sign-branch integral.
    A driver with sup |h_z| > 1e-10 on ``box_mesh(box, t)`` raises
    PreconditionError naming the node of the sup.
    """
    box = box or default_box(spec)
    # precondition: h_z = 0 on the box, read on the mesh the correction term uses
    mesh = box_mesh(box, t)
    hz = np.abs(_own(evaluate(spec, "h_z", *mesh)))
    if (sup := float(np.max(hz))) > 1e-10:
        node = ", ".join(f"{v:g}" for v in _node(mesh, hz))
        raise PreconditionError("second-order conditions require a z-independent driver; "
                                f"sup |h_z| = {sup:.3g} at (t, x, y, z) = ({node})")

    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x", "h_xt", "h_xx", "h_xy", "h_xxx",
                                               "h_xxy", "h_xyy", "h_y", "b_x", "sigma_x"))
    c = spec.constants
    k_b = fr.sup_abs(c.k_b, "b_x", 2)
    k_y = fr.sup_abs(c.k_y, "h_y")
    K = k_y + k_b

    gt = fr.g1 + (spec.T - t) * evaluate(spec, "h_x", spec.T, fr.xg, evaluate(spec, "g", fr.xg), 0.0)
    s, ht = _htilde_grid(spec, box, t)
    return _h_pair(fr, "Htilde", "gtilde", "htilde", "gtilde", gt, (s, *_row_extrema(ht)), K,
                   weighted=True)


# -- quadratic-regime conditions ----------------------------------------------


def quadratic_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                    box: Optional[GridBox] = None, resolution: Optional[float] = None) -> dict:
    """Sign conditions for a density of Y_t under a quadratic-growth driver.

    '+': g' >= 0 everywhere, g' > 0 on A, and inf h_x over [t,T] >= 0;
    '-' mirrors the signs.
    """
    fr = _frame(spec, t, A, box, resolution, ("g1", "h_x"))
    _, hx_lo, hx_hi = fr.extrema("h_x")
    out = {}
    for sgn, sign in SIGNS:
        m1 = float(np.min(sgn * fr.g1))
        m2 = float(np.min(sgn * fr.g1[fr.mask]))
        m3 = float(_running_inf(hx_lo if sgn > 0 else -hx_hi)[0])
        scal = {"g1_extremum": sgn * m1, "g1_extremum_A": sgn * m2, "h_extremum_t": sgn * m3}
        out["Q" + sign] = fr.judge("Q" + sign, sgn, min(m1, m3), m2, scal)
    return out


# -- Z-criteria ---------------------------------------------------------------


def _cross(cross: float) -> list:
    """The gate h_xz = h_yz = 0 on sup |h_xz|, |h_yz|: one note when it fails, else none."""
    return [f"cross partials not annihilated: sup |h_xz|,|h_yz| = {cross:.3g}"] \
        if cross > 1e-10 else []


def _model_bounds(fr: _Frame) -> tuple:
    """(bounds on D_r X and D^2 X read off the model on the box, None), or (NaN bounds, why not).

    With sigma_x = 0, D_r X_u = sigma(r) exp(int_r^u b_x ds), so a_lo = inf sigma
    e^{T min(0, inf b_x)} and a_hi = sup sigma e^{T max(0, sup b_x)}.  Then
    D^2_{r,s} X_u = D_r X_u int_{max(r,s)}^u b_xx(v, X_v) D_s X_v dv lies in
    [0, T sup b_xx a_hi^2] when b_xx >= 0.  These bounds hold for sigma > 0 only.
    """
    spec, sx = fr.spec, box_mesh(fr.box, fr.box.t_lo, 2)
    bx, bxx = evaluate(spec, "b_x", *sx), evaluate(spec, "b_xx", *sx)
    why = ("sigma < 0 on the box: the model bounds on D_r X assume sigma > 0"
           if fr.sigma[1] < 0.0 else
           "sigma_x != 0 on the box: no model bound on D_r X"
           if float(np.max(np.abs(evaluate(spec, "sigma_x", *sx)))) > 1e-10 else
           "b_xx < 0 on the box: D^2 X can be negative" if float(np.min(bxx)) < 0.0 else None)
    if why:
        return VariationBounds(math.nan, math.nan, math.nan), why + "; theorem inapplicable"
    T, (s_lo, s_hi) = spec.T, fr.sigma
    a_hi = s_hi * math.exp(T * max(0.0, float(np.max(bx))))
    return VariationBounds(s_lo * math.exp(T * min(0.0, float(np.min(bx)))), a_hi,
                           T * max(0.0, float(np.max(bxx))) * a_hi**2), None


def _z_check(spec: ModelSpec, t, A, box, resolution, bounds, need_hy, tag) -> dict:
    """(C+) sign package on h_x, h_xx, h_yy, h_zz, h_xy; h_xz = h_yz = 0; the h_xy
    branch; h_y >= 0 when ``need_hy``; then the two displayed inequalities, with
    the model's bounds on D_r X and D^2 X when ``bounds`` is None."""
    fr = _frame(spec, t, A, box, resolution,
                ("g1", "g2", "h_xx", "h_x", "h_yy", "h_zz", "h_xy", "h_xz", "h_yz", "h_y",
                 "b_x", "sigma_x", "b_xx", "sigma_xx"))
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
    failed, void = bool(notes), None
    if bounds is None:
        bounds, void = _model_bounds(fr)
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
    if a_lo <= 0:
        void = "lower bound on D_r X not positive; theorem inapplicable"
    return {tag: fr.judge(tag, 1.0, m1, m2, scal, notes, edge=g2, label="g''",
                          failed=failed, void=void)}


def z_lipschitz_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None,
                      bounds: Optional[VariationBounds] = None,
                      resolution: Optional[float] = None) -> dict:
    """Density criterion for Z_t under a Lipschitz driver, as ``{"Z-lip": report}``.

    Requires the (C+) sign package, pathwise bounds a_lo <= D_r X <= a_hi,
    0 <= D^2 X <= b_hi, and the two displayed inequalities combining the
    extrema of g'', g' and inf h_xx; the margin is their minimum.  Without
    ``bounds`` they are read off the model on the box: a model with sigma < 0,
    or sigma_x != 0 or b_xx < 0 somewhere on it, has none, and its package is
    inapplicable.
    """
    return _z_check(spec, t, A, box, resolution, bounds, need_hy=False, tag="Z-lip")


def z_quadratic_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None,
                      bounds: Optional[VariationBounds] = None,
                      resolution: Optional[float] = None) -> dict:
    """Quadratic-regime analogue of the Z-criterion (adds h_y >= 0), as ``{"Z-quad": report}``."""
    return _z_check(spec, t, A, box, resolution, bounds, need_hy=True, tag="Z-quad")


def z_markovian_check(spec: ModelSpec, t: float, A: Optional[IntervalUnion] = None,
                      box: Optional[GridBox] = None, resolution: Optional[float] = None) -> dict:
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
                 "h_zz", "h_xz", "h_yz"), a_on=fT)
    # d/dw [(g' o f) f'] = g''(f) f'^2 + g'(f) f'' at T
    dphi = (evaluate(spec, "g2", fT) * evaluate(spec, "f_w", spec.T, w) ** 2
            + evaluate(spec, "g1", fT) * evaluate(spec, "f_ww", spec.T, w))

    # htilde extremized over [t,T] x w-box x (x,y,z) box x zt-box; it reads w only
    # through (f', f''), so only their distinct w-columns are broadcast
    mesh, grids, cross = sign_package(spec, box, t)
    s, w33 = mesh[0].ravel(), np.linspace(box.x_lo, box.x_hi, 33)
    fw = np.unique(np.stack([evaluate(spec, n, s[:, None], w33) for n in ("f_w", "f_ww")]), axis=2)
    fp, fpp = fw[:, :, None, None, None, :]
    t6, x6, y6, z6 = (a[..., None] for a in np.ix_(s, box.x_nodes()[::max(box.nx // 17, 1)],
                                                   box.y_nodes(), box.z_nodes()))

    def E(name):
        return evaluate(spec, name, t6, x6, y6, z6)

    core = E("h_xx") * fp**2 + E("h_x") * fpp + (E("h_yy") * z6 + 2.0 * E("h_xy") * fp) * z6
    hy = E("h_y")
    out = {}
    for sgn, sign in SIGNS:
        tag = "Z-markov-" + ("a" if sgn > 0 else "b")
        signed = float(np.min(sgn * grids["h_zz"])) >= -fr.res
        notes = _cross(cross) + ([] if signed else ["h_zz sign package violated"])
        # inf of sgn * htilde over the grid, zt at whichever box end minimizes it
        H = float(np.min(sgn * core + np.minimum(sgn * hy * box.z_lo, sgn * hy * box.z_hi)))
        D, D_A = float(np.min(sgn * dphi)), float(np.min(sgn * dphi[fr.mask]))
        m1, m2 = D + (spec.T - t) * H, D_A + (spec.T - t) * H
        scal = {"dphi_extremum": sgn * D, "htilde_extremum": sgn * H,
                "margin_global": sgn * m1, "margin_A": sgn * m2}
        out[tag] = fr.judge(tag, sgn, m1, m2, scal, notes,
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
    fr = _frame(spec, box.t_lo, None, box, resolution, partials)
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
        # the ellipticity floor is strict and the sign conditions are not: sigma is the
        # strict line, the least margin over all of them the non-strict one
        verdict = _verdict(margin, margins["sigma"], fr.res)[0]
        out["X" + sign] = fr.report("X" + sign, verdict, margin, margins,
                                    [f"witness {w}" for w in witnesses])
    return out


# The checks a config's criteria_checks may name, each called as check(spec, t).  Each
# entry looks its check up on this module at call time, so wrappers installed here
# (the benchmark's tracer) are used.
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
