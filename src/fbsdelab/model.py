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
``_on_grid`` and its finite-checked form ``evaluate`` are the places that
broadcast one to the full shape.  A ModelSpec is immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, PreconditionError, UnknownPresetError
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
    ellipticity floor of sigma.  Each is None when not declared.
    """

    k_b: Optional[float] = None
    k_sigma: Optional[float] = None
    k_x: Optional[float] = None
    k_y: Optional[float] = None
    k_z: Optional[float] = None
    c: Optional[float] = None


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


def default_box(spec: "ModelSpec") -> GridBox:
    """Default (t,x,y,z) box: x spans X0 +/- 6 sqrt(T) sigma_max."""
    half = 6.0 * math.sqrt(spec.T) * spec.sigma_max_estimate()
    return GridBox(0.0, spec.T, spec.X0 - half, spec.X0 + half)


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

    def sigma_max_estimate(self) -> float:
        """Crude sup of |sigma| over a pilot box around X0 (used for domains)."""
        t = np.linspace(0.0, self.T, 9)[:, None]
        x = (self.X0 + np.linspace(-10.0, 10.0, 257))[None, :]
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


def check_horizon(t: float, T: float) -> None:
    """Raise PreconditionError naming t and T unless t lies in [0, T] (1e-9 slack)."""
    if not -1e-9 <= t <= T + 1e-9:
        raise PreconditionError(f"t={t:g} lies outside [0, T] = [0, {T:g}]")


def box_mesh(box: GridBox, t: float, dims: int = 4) -> tuple:
    """Open (s, x, y, z) mesh of the box, cut to its first ``dims`` axes.

    The time axis s is the box's nodes in [t, t_hi], with t prepended when it
    is not a node, so ``t = box.t_lo`` gives every time node.
    """
    s = box.t_nodes()
    s = s[s >= t - 1e-12]
    if s.size == 0 or s[0] > t + 1e-12:
        s = np.concatenate([[t], s])
    return np.ix_(*(s, box.x_nodes(), box.y_nodes(), box.z_nodes())[:dims])


def _node(args, score) -> tuple:
    """The arguments at the first maximum of ``score`` over their broadcast shape."""
    shape = np.broadcast(*args).shape
    i = np.unravel_index(int(np.argmax(np.broadcast_to(score, shape))), shape)
    return tuple(float(np.broadcast_to(a, shape)[i]) for a in args)


def evaluate(spec: "ModelSpec", name: str, *args) -> np.ndarray:
    """Coefficient or partial ``name`` of ``spec`` at ``args``, broadcast as ``_on_grid`` does.

    ``args`` are scalars or an open mesh (``box_mesh``, ``np.ix_``) in the
    callable's ``COEFFICIENT_ARGS`` order.  The finiteness test runs on the
    callable's own output, so a constant costs one scalar test.  A NaN or
    +-inf raises EvaluationError naming ``name`` and the node, which is the
    witness: the arguments at the first such value.  Numpy's floating-point
    warnings are off for the call, since the error reports the value.
    """
    coeff = _PARTIALS[name][0] if name in _PARTIALS else name
    fn = spec.d(name) if name in _PARTIALS else spec.markovian_f if name == "f" else getattr(spec, name)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(fn(*args), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        node = _node(args, bad)
        raise EvaluationError(f"{name} = {vals.flat[int(np.argmax(bad))]:g} at "
                              f"({', '.join(COEFFICIENT_ARGS[coeff])}) = "
                              f"({', '.join(f'{v:g}' for v in node)})", witness=node)
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


def _quad_exp_oracle(g, g1, T) -> Oracle:
    """Exponential-transform oracle by 160-node Gauss-Hermite quadrature, given W_t = w:

    Y = log E[exp(g(w + sqrt(T-t) xi))] and Z = E[g'(X_T) e^{g}] / E[e^{g}].
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(160)

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
        constants=Constants(k_b=0.0, k_sigma=0.0, c=1.0),
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


# Every +/- loop: (sign factor, tag suffix).  Negation is exact, so the '-'
# package is the '+' body applied to the negated values.
SIGNS = ((1.0, "+"), (-1.0, "-"))

# The driver partials the sign packages (C+/-) sign, and the cross partials
# they need annihilated: h_xz = h_yz = 0.
SIGN_PARTIALS = ("h_x", "h_xx", "h_yy", "h_zz", "h_xy")
CROSS_PARTIALS = ("h_xz", "h_yz")


def sign_package(spec: ModelSpec, box: GridBox, t: float):
    """The (C+/-) inputs on [t, T] x box: (mesh, {name: values}, sup |h_xz|, |h_yz|).

    The values cover ``SIGN_PARTIALS`` and ``CROSS_PARTIALS`` on
    ``box_mesh(box, t)``; a non-finite one raises EvaluationError.
    """
    mesh = box_mesh(box, t)
    vals = {n: evaluate(spec, n, *mesh) for n in SIGN_PARTIALS + CROSS_PARTIALS}
    return mesh, vals, max(float(np.max(np.abs(vals[n]))) for n in CROSS_PARTIALS)


def validate_assumptions(spec: ModelSpec, box: Optional[GridBox] = None,
                         tol: float = 1e-9, seed: int = 0) -> AssumptionReport:
    """Grid-sampled verdicts for the standing assumptions of a model.

    Checks (X), (L), (Q), (D1), (D2), (M) and the driver sign packages
    (C+/-), (Ctilde+/-).  All extrema are taken over the supplied box and the
    report records the resolution used; nothing is certified beyond the box.
    A violated verdict's witness is a node where its own condition fails: the
    argmin of the violating signed values for (X), (C+/-) and (Ctilde+/-), the
    argmax of each |h_x|, |h_y|, |h_z| over its declared bound for (L), the
    growing edge of |g| for (Q) and the (t, X) of the largest gap for (M).  A
    non-finite input of (X), (L) or (Q) raises EvaluationError; (D1) and (D2)
    are the finiteness of g' and of g'', h_xx; a non-finite sign-package
    partial fails (C+/-) and (Ctilde+/-) at its node.
    """
    box = box or default_box(spec)
    declared, res, v = spec.constants, box.resolution(), {}
    tx, mesh, xn = box_mesh(box, box.t_lo, 2), box_mesh(box, box.t_lo), box.x_nodes()

    sig = evaluate(spec, "sigma", *tx)
    c_floor = float(np.min(np.abs(sig)))
    details = {"c_hat": c_floor, **{f"k_{n}_hat": float(np.max(np.abs(evaluate(spec, n + "_x", *tx))))
                                    for n in ("b", "sigma")}}
    if declared.c is not None and c_floor < declared.c - tol:
        details["c_declared_violated"] = declared.c
    v["X"] = AssumptionVerdict("X", c_floor > tol, c_floor,
                               [] if c_floor > tol else [_node(tx, -np.abs(sig))], details)

    # Lipschitz package: grid maxima of the first partials of h
    hv = {k: evaluate(spec, "h_" + k, *mesh) for k in "xyz"}
    hat = {k: float(np.max(np.abs(a))) for k, a in hv.items()}
    lip_details = {f"k_{k}_hat": hat[k] for k in "xyz"}
    dec = {k: d for k in "xyz" if (d := getattr(declared, "k_" + k)) is not None}
    over = [k for k in dec if hat[k] > dec[k] + max(1e-6, 10 * res["dx"] * res["dx"])]
    lip_details.update({f"k_{k}_declared": dec[k] for k in over})
    v["L"] = AssumptionVerdict("L", not over, min(dec[k] - hat[k] for k in dec) if dec else hat["x"],
                               [_node(mesh, np.abs(hv[k])) for k in over], lip_details)

    # Quadratic package: fit the smallest growth constants on the grid
    y4, z4 = mesh[2], mesh[3]
    habs = np.abs(evaluate(spec, "h", *mesh))
    envelope = 1.0 + np.abs(y4) + z4**2
    agv = np.abs(evaluate(spec, "g", xn))
    # boundedness is detected through saturation: a bounded map approaches its
    # grid sup with vanishing edge increments relative to its average slope
    incs = np.abs(np.diff(agv))
    mean_inc = float(np.mean(incs)) + 1e-300
    growing = [float(x) for x, edge, inc in ((xn[0], agv[0], incs[0]), (xn[-1], agv[-1], incs[-1]))
               if edge >= np.max(agv) - tol and inc > 0.5 * mean_inc]
    K_hat = float(np.max(habs / envelope))
    q_details = {"K_hat": K_hat, "K_z_hat": float(np.max(np.abs(hv["z"]) / (1.0 + np.abs(z4)))),
                 "K_y_hat": hat["y"], "g_sup_hat": float(np.max(agv)),
                 "g_unbounded_trend": bool(growing)}
    v["Q"] = AssumptionVerdict("Q", not growing, -1.0 if growing else K_hat,
                               [(float(spec.T), x) for x in growing], q_details)

    # Differentiability packages: partials evaluate finite on the grid
    for tag, names in (("D1", ("g1",)), ("D2", ("g2", "h_xx"))):
        try:
            for n in names:
                evaluate(spec, n, *(mesh if n == "h_xx" else (xn,)))
        except EvaluationError as exc:
            v[tag] = AssumptionVerdict(tag, False, -1.0, [exc.witness], {"non_finite": str(exc)})
        else:
            v[tag] = AssumptionVerdict(tag, True, 0.0)

    # (M): f(t, W) must reproduce Euler-simulated X pathwise
    if spec.markovian_f is not None:
        from .mc import simulate_forward  # local import to avoid a cycle

        ens = simulate_forward(spec, n_paths=256, n_steps=64, seed=seed)
        W = np.concatenate([np.zeros((256, 1)), np.cumsum(ens.dW, axis=1)], axis=1)
        gaps = np.abs(spec.markovian_f(ens.t_grid[None, :], spec.X0 + W) - ens.X)
        i, k = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        gap = float(gaps[i, k])
        scheme_tol = 5.0 * math.sqrt(spec.T / ens.n_steps)
        v["M"] = AssumptionVerdict("M", gap <= scheme_tol, scheme_tol - gap,
                                   [] if gap <= scheme_tol else [(float(ens.t_grid[k]),
                                                                  float(ens.X[i, k]))],
                                   {"max_gap": gap, "scheme_tol": scheme_tol})
    else:
        v["M"] = AssumptionVerdict("M", False, -1.0, [(0.0, spec.X0)],
                                   {"reason": "markovian_f not declared"})

    # driver sign packages: (C+/-) signs all five partials, (Ctilde+/-) h_zz alone
    try:
        _, h, cross = sign_package(spec, box, box.t_lo)
    except EvaluationError as exc:
        v.update({tag: AssumptionVerdict(tag, False, -1.0, [exc.witness], {"non_finite": str(exc)})
                  for _, sign in SIGNS for tag in ("C" + sign, "Ctilde" + sign)})
        return AssumptionReport(v, box, res)
    for sgn, sign in SIGNS:
        signed = {n: sgn * h[n] for n in SIGN_PARTIALS}
        for tag, arrays in (("C" + sign, list(signed.values())), ("Ctilde" + sign, [signed["h_zz"]])):
            m = min(float(a.min()) for a in arrays)
            ok = m >= -tol and cross <= 1e-10
            wit = [] if ok else [_node(mesh, -min(arrays, key=np.min)) if m < -tol else
                                 _node(mesh, np.maximum(*(np.abs(h[n]) for n in CROSS_PARTIALS)))]
            v[tag] = AssumptionVerdict(tag, ok, min(m, 1e-10 - cross), wit,
                                       {"cross_partial_sup": cross})
    return AssumptionReport(v, box, res)
