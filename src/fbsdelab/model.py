"""Problem declarations for the forward-backward system

    X_t = X_0 + int_0^t b(s, X_s) ds + int_0^t sigma(s, X_s) dW_s,
    Y_t = g(X_T) + int_t^T h(s, X_s, Y_s, Z_s) ds - int_t^T Z_s dW_s.

A :class:`ModelSpec` bundles the four coefficient callables, their partial
derivatives, the regime flag (Lipschitz vs quadratic driver) and declared
structural constants.  :func:`expression_spec` builds one from coefficient
expressions and fills every partial in ``PARTIAL_NAMES`` with the exact
symbolic derivative; for coefficients given as opaque callables the partials
are whatever the user supplies, and central finite differences fill the rest.
Both read the one table of partials, ``_PARTIALS``.  A differenced partial in
one variable is the central stencil of its order (1 to 3); a mixed one is a
first central difference, in the last variable it names once, of the partial
without that variable; the step grows with the total order.
The closed-form presets used as oracles throughout the test suite are
expression models registered in :func:`preset`.

All coefficient callables must be pure functions of their arguments and accept
numpy arrays.  Coefficients and partials return floats that broadcast against
their arguments (a constant may be 0-d), and no caller writes into a result;
``_on_grid`` is the one place that broadcasts one to the full shape.  A
ModelSpec is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, UnknownPresetError
from .expressions import compile_expression, constant_value, differentiate, parse_expression

__all__ = [
    "Constants",
    "GridBox",
    "ModelSpec",
    "Oracle",
    "expression_spec",
    "AssumptionReport",
    "AssumptionVerdict",
    "preset",
    "preset_names",
    "validate_assumptions",
]

# Coefficient -> its argument names in call order (f is the Markov map).
COEFFICIENT_ARGS = {"b": ("t", "x"), "sigma": ("t", "x"), "g": ("x",),
                    "h": ("t", "x", "y", "z"), "f": ("t", "w")}

# Partial name -> (coefficient, variables differentiated by in turn).
_PARTIALS = {
    "b_x": ("b", "x"), "b_xx": ("b", "xx"),
    "sigma_x": ("sigma", "x"), "sigma_xx": ("sigma", "xx"), "sigma_xxx": ("sigma", "xxx"),
    "g1": ("g", "x"), "g2": ("g", "xx"),
    **{f"h_{v}": ("h", v) for v in ("x", "y", "z", "xx", "yy", "zz", "xy", "xz", "yz",
                                    "xt", "xxx", "xxy", "xyy")},
    "f_w": ("f", "w"), "f_ww": ("f", "ww"),
}

# Derivative names accepted in ModelSpec.partials.  Anything absent is
# computed by central differences (ModelSpec.d).
PARTIAL_NAMES = tuple(_PARTIALS)
_BY_VARIABLES = {v: k for k, v in _PARTIALS.items()}

# Relative finite-difference steps per derivative order; chosen near the
# usual truncation/roundoff optimum for central differences in float64.
_FD_STEP = {1: 1e-5, 2: 3e-4, 3: 3e-3}

# Central stencil per order: (offsets, weights, c) for
# sum_k weights[k] f(v + offsets[k] step) / (c step^order).
_STENCILS = {1: ((1, -1), (1.0, -1.0), 2.0),
             2: ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
             3: ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), 2.0)}


@dataclass(frozen=True)
class Constants:
    """Structural constants declared by the user or estimated on a grid.

    ``k_b``, ``k_sigma`` bound ``|b_x|``, ``|sigma_x|``; ``k_x``, ``k_y``,
    ``k_z`` are the Lipschitz constants of the driver; ``c`` is the
    ellipticity floor of sigma; ``K``, ``K_y``, ``K_z`` are the quadratic
    growth constants.
    """

    k_b: Optional[float] = None
    k_sigma: Optional[float] = None
    k_x: Optional[float] = None
    k_y: Optional[float] = None
    k_z: Optional[float] = None
    c: Optional[float] = None
    K: Optional[float] = None
    K_y: Optional[float] = None
    K_z: Optional[float] = None


@dataclass(frozen=True)
class Oracle:
    """Closed-form solution maps attached to a preset.

    ``y(t, w)`` and ``z(t, w)`` give the backward pair as functions of the
    driving Brownian value; ``u``, ``u_x``, ``u_xx`` are the associated
    space-time value functions where known in closed form.
    """

    y: Callable
    z: Callable
    u: Optional[Callable] = None
    u_x: Optional[Callable] = None
    u_xx: Optional[Callable] = None


@dataclass(frozen=True)
class GridBox:
    """Bounding box in (t, x, y, z) on which grid-sampled checks run."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float
    y_lo: float = -20.0
    y_hi: float = 20.0
    z_lo: float = -20.0
    z_hi: float = 20.0
    nt: int = 41
    nx: int = 161
    ny: int = 15
    nz: int = 15

    def t_nodes(self):
        return np.linspace(self.t_lo, self.t_hi, self.nt)

    def x_nodes(self):
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def y_nodes(self):
        return np.linspace(self.y_lo, self.y_hi, self.ny)

    def z_nodes(self):
        return np.linspace(self.z_lo, self.z_hi, self.nz)

    def resolution(self):
        return {
            "dt": (self.t_hi - self.t_lo) / max(self.nt - 1, 1),
            "dx": (self.x_hi - self.x_lo) / max(self.nx - 1, 1),
            "dy": (self.y_hi - self.y_lo) / max(self.ny - 1, 1),
            "dz": (self.z_hi - self.z_lo) / max(self.nz - 1, 1),
        }


def default_box(spec: "ModelSpec", nt: int = 41, nx: int = 161, **kw) -> GridBox:
    """Default (t,x,y,z) box: x spans X0 +/- 6 sqrt(T) sigma_max."""
    half = 6.0 * math.sqrt(spec.T) * spec.sigma_max_estimate()
    return GridBox(0.0, spec.T, spec.X0 - half, spec.X0 + half, nt=nt, nx=nx, **kw)


@dataclass(frozen=True)
class ModelSpec:
    b: Callable
    sigma: Callable
    g: Callable
    h: Callable
    T: float
    X0: float
    regime: str = "lipschitz"  # "lipschitz" | "quadratic"
    partials: dict = field(default_factory=dict)
    markovian_f: Optional[Callable] = None
    constants: Constants = field(default_factory=Constants)
    fd_step: float = 1e-5
    oracle: Optional[Oracle] = None
    name: str = "custom"

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.regime not in ("lipschitz", "quadratic"):
            raise ValueError(f"unknown regime {self.regime!r}")
        unknown = set(self.partials) - set(PARTIAL_NAMES)
        if unknown:
            raise ValueError(f"unknown partial derivative names: {sorted(unknown)}")

    # -- derivative access -------------------------------------------------

    def d(self, name: str) -> Callable:
        """Return the named partial derivative, supplied or differenced.

        Supported names are listed in ``PARTIAL_NAMES``.  Expression models
        (:func:`expression_spec`) supply every one exactly.  The fallback,
        for partials of opaque callables only, reads ``_PARTIALS``:

        * a partial in one variable is the central stencil of its order
          (``_STENCILS``, orders 1 to 3) on the parent callable;
        * a mixed partial is a first central difference, in the last
          variable it names once, of ``d`` of the partial that drops that
          variable: h_xyy is the x-difference of h_yy, h_xt the
          t-difference of h_x, h_xy the y-difference of h_x, so a supplied
          lower partial is used;
        * the step is relative: ``max(1, |v|)`` times ``fd_step`` at total
          order 1 and ``_FD_STEP[order]`` at orders 2 and 3.
        """
        if name in self.partials:
            return self.partials[name]
        if name not in PARTIAL_NAMES:
            raise KeyError(name)
        return self._fd(name)

    def constant(self, name: str) -> Optional[float]:
        """The value of a coefficient or partial that is a constant expression, else None.

        ``name`` is a coefficient (b, sigma, g, h, f) or one of ``PARTIAL_NAMES``.
        The value is read from the expression tree a compiled callable carries:
        a coefficient's parsed tree, or the folded symbolic derivative
        ``expression_spec`` builds.  An opaque callable, a partial supplied as
        one through ``partials`` and a differenced partial give None.
        """
        if name in COEFFICIENT_ARGS:
            fn = self.markovian_f if name == "f" else getattr(self, name)
        elif name in PARTIAL_NAMES:
            fn = self.partials.get(name)
        else:
            raise KeyError(name)
        source = getattr(fn, "expression", None)
        return None if source is None else constant_value(source)

    def _step(self, v, order):
        base = self.fd_step if order == 1 else _FD_STEP[order]
        return base * np.maximum(1.0, np.abs(v))

    def _fd(self, name: str) -> Callable:
        coeff, variables = _PARTIALS[name]
        fn = self.markovian_f if coeff == "f" else getattr(self, coeff)
        if fn is None:
            raise KeyError("markovian_f not declared")
        if len(set(variables)) == 1:
            v, order = variables[0], len(variables)
        else:  # difference the partial that drops the last variable named once
            v, order = [u for u in variables if variables.count(u) == 1][-1], 1
            fn = self.d(_BY_VARIABLES[coeff, variables.replace(v, "")])
        i = COEFFICIENT_ARGS[coeff].index(v)
        offsets, weights, c = _STENCILS[order]

        def partial(*args):
            step = self._step(args[i], len(variables))
            terms = [w * fn(*args) if o == 0 else
                     w * fn(*args[:i], args[i] + o * step, *args[i + 1:])
                     for o, w in zip(offsets, weights)]
            return reduce(operator.add, terms) / (c * step**order)

        return partial

    # -- convenience -------------------------------------------------------

    def sigma_max_estimate(self, n: int = 257) -> float:
        """Crude sup of |sigma| over a pilot box around X0 (used for domains)."""
        t = np.linspace(0.0, self.T, 9)[:, None]
        x = (self.X0 + np.linspace(-10.0, 10.0, n))[None, :]
        return float(np.max(np.abs(_on_grid(self.sigma, t, x))))


def _on_grid(fn, *args):
    """fn(*args) as floats broadcast to the common shape of its arguments.

    Coefficient callables may return a scalar or an array that ignores some
    arguments; those come back as read-only broadcast views.  The result may
    share memory with fn's output, so callers treat it as read-only.
    """
    vals = np.asarray(fn(*args), dtype=float)
    shape = np.broadcast(*args).shape
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def expression_spec(b, sigma, g, h, f, **fields) -> ModelSpec:
    """ModelSpec from coefficient expressions, with every partial exact.

    ``b``, ``sigma``, ``g``, ``h`` and the Markov map ``f`` (or None) are
    expression strings over their ``COEFFICIENT_ARGS``; each of their
    ``PARTIAL_NAMES`` entries is compiled from the symbolic derivative.  A
    coefficient may instead be a callable, used as is.  ``fields["partials"]``
    replaces symbolic partials; those of a callable that it does not supply
    fall back to finite differences.  Other ``fields`` go to ModelSpec.
    """
    given = {"b": b, "sigma": sigma, "g": g, "h": h, "f": f}
    trees = {k: parse_expression(v) for k, v in given.items() if isinstance(v, str)}
    fns = {k: compile_expression(v, COEFFICIENT_ARGS[k]) if k in trees else v
           for k, v in given.items()}
    symbolic = {name: compile_expression(reduce(differentiate, variables, trees[coeff]),
                                         COEFFICIENT_ARGS[coeff])
                for name, (coeff, variables) in _PARTIALS.items() if coeff in trees}
    return ModelSpec(b=fns["b"], sigma=fns["sigma"], g=fns["g"], h=fns["h"], markovian_f=fns["f"],
                     partials={**symbolic, **fields.pop("partials", {})}, **fields)


# -- presets ---------------------------------------------------------------

def _counter_coeff(t):
    t = np.asarray(t, dtype=float)
    return -0.5 + 2.0 * t - 0.5 * t**2


def _make_ex_counter() -> ModelSpec:
    # driver (t - 2) x with identity terminal condition on X = W
    oracle = Oracle(
        y=lambda t, w: np.asarray(w, dtype=float) * _counter_coeff(t),
        z=lambda t, w: np.broadcast_arrays(_counter_coeff(t), w)[0].copy(),
        u=lambda t, x: np.asarray(x, dtype=float) * _counter_coeff(t),
        u_x=lambda t, x: np.broadcast_arrays(_counter_coeff(t), x)[0].copy(),
        u_xx=lambda t, x: np.zeros(np.broadcast(t, x).shape),
    )
    return expression_spec(
        b="0", sigma="1", g="x", h="(t-2)*x", f="w", T=1.0, X0=0.0,
        constants=Constants(k_b=0.0, k_sigma=0.0, k_x=2.0, k_y=0.0, k_z=0.0, c=1.0),
        oracle=oracle, name="ex_counter")


def _make_ex_cubic() -> ModelSpec:
    # cubic terminal condition with driver 3x on X = W
    oracle = Oracle(
        y=lambda t, w: np.asarray(w, dtype=float) ** 3 + 6.0 * np.asarray(w, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
        z=lambda t, w: 3.0 * np.asarray(w, dtype=float) ** 2 + 6.0 * (1.0 - np.asarray(t, dtype=float)),
        u=lambda t, x: np.asarray(x, dtype=float) ** 3 + 6.0 * np.asarray(x, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
        u_x=lambda t, x: 3.0 * np.asarray(x, dtype=float) ** 2 + 6.0 * (1.0 - np.asarray(t, dtype=float)),
        u_xx=lambda t, x: 6.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(t, dtype=float),
    )
    return expression_spec(
        b="0", sigma="1", g="x^3", h="3*x", f="w", T=1.0, X0=0.0,
        constants=Constants(k_b=0.0, k_sigma=0.0, k_x=3.0, k_y=0.0, k_z=0.0, c=1.0),
        oracle=oracle, name="ex_cubic")


def _quad_exp_oracle(g, g1, T, n_quad=160) -> Oracle:
    """Exponential-transform oracle by Gauss-Hermite quadrature, given W_t = w:

    Y = log E[exp(g(w + sqrt(T-t) xi))] and Z = E[g'(X_T) e^{g}] / E[e^{g}].
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)

    def points(t, w):
        tau = np.sqrt(np.maximum(T - np.asarray(t, dtype=float), 0.0))
        return np.asarray(w, dtype=float)[..., None] + tau[..., None] * nodes

    def y(t, w):
        return np.log(np.exp(_on_grid(g, points(t, w))) @ weights / math.sqrt(2.0 * math.pi))

    def z(t, w):
        pts = points(t, w)
        ew = np.exp(_on_grid(g, pts))
        return (g1(pts) * ew) @ weights / (ew @ weights)

    return Oracle(y=y, z=z)


def _make_ex_quad_exp(g=None, g1=None, g2=None) -> ModelSpec:
    # purely quadratic driver z^2/2 with bounded terminal condition on X = W
    spec = expression_spec(
        b="0", sigma="1", g="tanh(x)" if g is None else g, h="0.5*z^2", f="w",
        T=1.0, X0=0.0, regime="quadratic",
        partials={k: v for k, v in (("g1", g1), ("g2", g2)) if v is not None},
        constants=Constants(k_b=0.0, k_sigma=0.0, c=1.0, K=0.5, K_y=1e-12, K_z=1.0),
        name="ex_quad_exp")
    return replace(spec, oracle=_quad_exp_oracle(spec.g, spec.d("g1"), spec.T))


_PRESETS = {
    "ex_counter": _make_ex_counter,
    "ex_cubic": _make_ex_cubic,
    "ex_quad_exp": _make_ex_quad_exp,
}


def preset_names():
    return sorted(_PRESETS)


def preset(name: str, **kwargs) -> ModelSpec:
    """Instantiate a registered closed-form model.

    ``ex_counter``  -- linear terminal condition, driver (t-2)x; the backward
                       component vanishes identically at t = 2 - sqrt(3).
    ``ex_cubic``    -- cubic terminal condition, driver 3x; explicit Y and Z
                       with non-Gaussian tails.
    ``ex_quad_exp`` -- driver z^2/2 with a bounded terminal condition
                       (default tanh, overridable by g/g1/g2 callables;
                       a g without g1, g2 gets differenced ones);
                       solved by the exponential transform.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(f"unknown preset {name!r}; known: {preset_names()}") from None
    return factory(**kwargs)


# -- assumption checking ---------------------------------------------------

@dataclass
class AssumptionVerdict:
    assumption: str
    holds: bool
    margin: float
    violated_at: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.holds and not self.violated_at:
            raise ValueError("a violated verdict must carry at least one witness")


@dataclass
class AssumptionReport:
    verdicts: dict
    box: GridBox
    resolution: dict

    def __getitem__(self, key):
        return self.verdicts[key]

    def holds(self, key):
        return self.verdicts[key].holds


def _eval_box(fn, box: GridBox, what: str, dims: int = 4):
    """fn on the (t, x[, y, z]) box grid; a non-finite value raises with its node."""
    nodes = (box.t_nodes(), box.x_nodes(), box.y_nodes(), box.z_nodes())[:dims]
    vals = _on_grid(fn, *np.ix_(*nodes))
    if not np.all(np.isfinite(vals)):
        idx = np.argwhere(~np.isfinite(vals))[0]
        witness = tuple(float(n[i]) for n, i in zip(nodes, idx))
        raise EvaluationError(f"{what} evaluated to a non-finite value", witness=witness)
    return vals


def validate_assumptions(spec: ModelSpec, box: Optional[GridBox] = None,
                         tol: float = 1e-9, mc_check_steps: int = 64,
                         seed: int = 0) -> AssumptionReport:
    """Grid-sampled verdicts for the standing assumptions of a model.

    Checks (X), (L), (Q), (D1), (D2), (M) and the driver sign packages
    (C+/-), (Ctilde+/-).  All extrema are taken over the supplied box and the
    report records the resolution used; nothing is certified beyond the box.
    """
    if box is None:
        box = default_box(spec)
    v = {}

    sig = _eval_box(spec.sigma, box, "sigma", 2)
    b_x = _eval_box(spec.d("b_x"), box, "b_x", 2)
    s_x = _eval_box(spec.d("sigma_x"), box, "sigma_x", 2)
    c_floor = float(np.min(np.abs(sig)))
    kb_hat, ks_hat = float(np.max(np.abs(b_x))), float(np.max(np.abs(s_x)))
    x_ok = c_floor > tol
    witnesses = []
    if not x_ok:
        idx = np.argwhere(np.abs(sig) <= tol)[:3]
        tn, xn = box.t_nodes(), box.x_nodes()
        witnesses = [(float(tn[i[0]]), float(xn[i[1]])) for i in idx]
    declared = spec.constants
    details = {"c_hat": c_floor, "k_b_hat": kb_hat, "k_sigma_hat": ks_hat}
    res = box.resolution()
    if declared.c is not None and c_floor < declared.c - tol:
        details["c_declared_violated"] = declared.c
    v["X"] = AssumptionVerdict("X", x_ok, c_floor, witnesses, details)

    # Lipschitz package: grid maxima of the first partials of h
    hx = _eval_box(spec.d("h_x"), box, "h_x")
    hy = _eval_box(spec.d("h_y"), box, "h_y")
    hz = _eval_box(spec.d("h_z"), box, "h_z")
    kx_hat = float(np.max(np.abs(hx)))
    ky_hat = float(np.max(np.abs(hy)))
    kz_hat = float(np.max(np.abs(hz)))
    lip_details = {"k_x_hat": kx_hat, "k_y_hat": ky_hat, "k_z_hat": kz_hat}
    lip_ok = True
    lip_wit = []
    for key, hat in (("k_x", kx_hat), ("k_y", ky_hat), ("k_z", kz_hat)):
        dec = getattr(declared, key)
        if dec is not None and hat > dec + max(1e-6, 10 * res["dx"] * res["dx"]):
            lip_ok = False
            lip_details[f"{key}_declared"] = dec
    if not lip_ok:
        i = np.unravel_index(np.argmax(np.abs(hx)), hx.shape)
        lip_wit = [(float(box.t_nodes()[i[0]]), float(box.x_nodes()[i[1]]))]
    v["L"] = AssumptionVerdict("L", lip_ok, min(
        (dec - hat) for dec, hat in (
            (declared.k_x, kx_hat), (declared.k_y, ky_hat), (declared.k_z, kz_hat))
        if dec is not None) if any(getattr(declared, k) is not None for k in ("k_x", "k_y", "k_z")) else kx_hat,
        lip_wit, lip_details)

    # Quadratic package: fit the smallest growth constants on the grid
    t4, x4, y4, z4 = np.ix_(box.t_nodes(), box.x_nodes(), box.y_nodes(), box.z_nodes())
    habs = np.abs(_on_grid(spec.h, t4, x4, y4, z4))
    envelope = 1.0 + np.abs(y4) + z4**2
    K_hat = float(np.max(habs / envelope))
    Kz_hat = float(np.max(np.abs(hz) / (1.0 + np.abs(z4))))
    Ky_hat = float(np.max(np.abs(hy)))
    gvals = _on_grid(spec.g, box.x_nodes())
    # boundedness is detected through saturation: a bounded map approaches its
    # grid sup with vanishing edge increments relative to its average slope
    agv = np.abs(gvals)
    incs = np.abs(np.diff(agv))
    mean_inc = float(np.mean(incs)) + 1e-300
    g_edge_growing = False
    for edge, inc in ((agv[0], incs[0]), (agv[-1], incs[-1])):
        if edge >= np.max(agv) - tol and inc > 0.5 * mean_inc:
            g_edge_growing = True
    q_details = {"K_hat": K_hat, "K_z_hat": Kz_hat, "K_y_hat": Ky_hat,
                 "g_sup_hat": float(np.max(np.abs(gvals))),
                 "g_unbounded_trend": g_edge_growing}
    q_ok = not g_edge_growing
    q_wit = [] if q_ok else [(float(spec.T), float(box.x_nodes()[-1]))]
    v["Q"] = AssumptionVerdict("Q", q_ok, -1.0 if g_edge_growing else K_hat, q_wit, q_details)

    # Differentiability packages: partials evaluate finite on the grid
    try:
        g1 = spec.d("g1")(box.x_nodes())
        d1_ok = bool(np.all(np.isfinite(g1)) and np.all(np.isfinite(hx)))
    except Exception:
        d1_ok, g1 = False, None
    v["D1"] = AssumptionVerdict("D1", d1_ok, 0.0 if d1_ok else -1.0,
                                [] if d1_ok else [(0.0, float(box.x_nodes()[0]))])
    try:
        g2 = spec.d("g2")(box.x_nodes())
        hxx = _eval_box(spec.d("h_xx"), box, "h_xx")
        d2_ok = bool(np.all(np.isfinite(g2)) and np.all(np.isfinite(hxx)))
    except Exception:
        d2_ok, hxx = False, None
    v["D2"] = AssumptionVerdict("D2", d2_ok, 0.0 if d2_ok else -1.0,
                                [] if d2_ok else [(0.0, float(box.x_nodes()[0]))])

    # (M): f(t, W) must reproduce Euler-simulated X pathwise
    if spec.markovian_f is not None:
        from .mc import simulate_forward  # local import to avoid a cycle

        ens = simulate_forward(spec, n_paths=256, n_steps=mc_check_steps, seed=seed)
        W = np.concatenate([np.zeros((256, 1)), np.cumsum(ens.dW, axis=1)], axis=1)
        fX = spec.markovian_f(ens.t_grid[None, :], spec.X0 + W)
        gap = float(np.max(np.abs(fX - ens.X)))
        scheme_tol = 5.0 * math.sqrt(spec.T / mc_check_steps)
        m_ok = gap <= scheme_tol
        v["M"] = AssumptionVerdict("M", m_ok, scheme_tol - gap,
                                   [] if m_ok else [(float(spec.T), float(spec.X0))],
                                   {"max_gap": gap, "scheme_tol": scheme_tol})
    else:
        v["M"] = AssumptionVerdict("M", False, -1.0, [(0.0, spec.X0)],
                                   {"reason": "markovian_f not declared"})

    # driver sign packages
    if hxx is not None:
        hyy = _eval_box(spec.d("h_yy"), box, "h_yy")
        hzz = _eval_box(spec.d("h_zz"), box, "h_zz")
        hxy = _eval_box(spec.d("h_xy"), box, "h_xy")
        hxz = _eval_box(spec.d("h_xz"), box, "h_xz")
        hyz = _eval_box(spec.d("h_yz"), box, "h_yz")
        cross_zero = max(float(np.max(np.abs(hxz))), float(np.max(np.abs(hyz))))
        for sgn, tag in ((1.0, "+"), (-1.0, "-")):
            vals = [sgn * a for a in (hx, hxx, hyy, hzz, hxy)]
            m = min(float(a.min()) for a in vals)
            ok = m >= -tol and cross_zero <= 1e-10
            wit = []
            if not ok:
                wit = [(float(box.t_nodes()[0]), float(box.x_nodes()[0]))]
            v["C" + tag] = AssumptionVerdict("C" + tag, ok, min(m, 1e-10 - cross_zero), wit,
                                             {"cross_partial_sup": cross_zero})
            mz = float((sgn * hzz).min())
            okz = mz >= -tol and cross_zero <= 1e-10
            v["Ctilde" + tag] = AssumptionVerdict(
                "Ctilde" + tag, okz, min(mz, 1e-10 - cross_zero),
                [] if okz else [(float(box.t_nodes()[0]), float(box.x_nodes()[0]))],
                {"cross_partial_sup": cross_zero})

    return AssumptionReport(v, box, res)
