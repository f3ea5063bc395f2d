"""Strict configuration files for batch experiments.

The format is nested key-value sections:

    [model]
    preset = ex_cubic            # or coefficient expressions b/sigma/g/h
    [numerics]
    seed = 7
    n_paths = 20000
    [tasks]
    run = solve, criteria
    criteria_times = 0.1, 0.5
    [output]
    dir = out

Parsing is strict: unknown sections or keys, duplicate sections, and
malformed values are fatal with line positions, so silent typos cannot skew a
numerical experiment.  Coefficient expressions use the grammar documented in
``expressions``; the model may also declare a Markov map ``f`` of (t, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .criteria import CHECKS
from .errors import ParseError
from .expressions import compile_expression
from .model import COEFFICIENT_ARGS, ModelSpec, expression_spec, preset

__all__ = ["ExperimentConfig", "parse_config", "TASK_NAMES", "TASK_DEPS"]

TASK_NAMES = ("solve", "density", "criteria", "tails", "oracle-compare")
TASK_DEPS = {
    "solve": (),
    "criteria": (),
    "density": ("solve",),
    "tails": ("solve",),
    "oracle-compare": ("solve",),
}

_SCHEMA = {
    "model": {"preset", "b", "sigma", "g", "h", "T", "X0", "regime", "f"},
    "numerics": {"seed", "n_paths", "n_steps", "nt", "nx", "x_lo", "x_hi",
                 "z_cap", "n_mc", "n_u_nodes", "basis_degree", "theta",
                 "grid_width"},
    "tasks": {"run", "criteria_times", "criteria_checks", "density_target",
              "density_t", "tails_target", "tails_t", "tails_form",
              "tails_alpha_tilde", "oracle_times"},
    "output": {"dir", "timestamps"},
}

_DEFAULT_NUMERICS = {
    "seed": 0, "n_paths": 20000, "n_steps": 128, "nt": 129, "nx": 401,
    "x_lo": None, "x_hi": None, "z_cap": 50.0, "n_mc": 20000,
    "n_u_nodes": 16, "basis_degree": 4, "theta": 0.5, "grid_width": 6.0,
}


@dataclass
class ExperimentConfig:
    model: dict
    numerics: dict
    tasks: list
    task_params: dict
    output_dir: str
    timestamps: bool
    inserted_dependencies: list = field(default_factory=list)
    text: str = ""

    def build_spec(self) -> ModelSpec:
        m = self.model
        if "preset" in m:
            return preset(m["preset"])
        return expression_spec(
            b=m.get("b", "0"), sigma=m.get("sigma", "1"), g=m.get("g", "x"),
            h=m.get("h", "0"), f=m.get("f"), T=float(m.get("T", 1.0)),
            X0=float(m.get("X0", 0.0)), regime=m.get("regime", "lipschitz").lower(),
            name="config-model")


def _parse_scalar(v: str):
    s = v.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        if any(c in s for c in ".eE") and not s.lstrip("+-").isdigit():
            return float(s)
        return int(s)
    except ValueError:
        return s


def _parse_list(v: str):
    return [p.strip() for p in v.split(",") if p.strip()]


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown keys are fatal (strict mode)."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("malformed section header", line=lineno)
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ParseError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError("key-value pair outside any section", line=lineno)
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno,
                             column=len(line) - len(line.lstrip()) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", line=lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in section [{current}]", line=lineno)
        sections[current][key] = value.strip()

    model = sections.get("model", {})
    if "preset" not in model and "g" not in model and "h" not in model:
        raise ParseError("model section must name a preset or give expressions")
    # validate expressions eagerly so errors carry the offending symbol
    if "preset" not in model:
        for key, variables in COEFFICIENT_ARGS.items():
            if key in model:
                try:
                    compile_expression(model[key], variables)
                except ParseError as exc:
                    raise ParseError(f"[model] {key} = {model[key]}: {exc}") from exc

    numerics = dict(_DEFAULT_NUMERICS)
    for k, v in sections.get("numerics", {}).items():
        numerics[k] = _parse_scalar(v)

    tasks_section = sections.get("tasks", {})
    tasks = _parse_list(tasks_section.get("run", ""))
    for t in tasks:
        if t not in TASK_NAMES:
            raise ParseError(f"unknown task {t!r}; known: {TASK_NAMES}")
    if len(set(tasks)) != len(tasks):
        raise ParseError("duplicate task in run list")

    task_params = {
        "criteria_times": [float(v) for v in _parse_list(tasks_section.get("criteria_times", "0.5"))],
        "criteria_checks": _parse_list(tasks_section.get("criteria_checks",
                                                         "first-order, second-order")),
        "density_target": tasks_section.get("density_target", "Y").strip(),
        "density_t": float(tasks_section.get("density_t", 0.5)),
        "tails_target": tasks_section.get("tails_target", "Z").strip(),
        "tails_t": float(tasks_section.get("tails_t", 1.0)),
        "tails_form": tasks_section.get("tails_form", "theorem").strip(),
        "tails_alpha_tilde": float(tasks_section.get("tails_alpha_tilde", 2.0)),
        "oracle_times": [float(v) for v in _parse_list(tasks_section.get("oracle_times", "0.25, 0.5, 0.75"))],
    }
    for chk in task_params["criteria_checks"]:
        if chk not in CHECKS:
            raise ParseError(f"unknown criteria check {chk!r}")
    for key in ("density_target", "tails_target"):
        if task_params[key] not in ("Y", "Z"):
            raise ParseError(f"{key} must be Y or Z")

    # dependency closure in declaration order, inserting prerequisites first
    inserted = []
    ordered: list = []
    def add(task):
        for dep in TASK_DEPS[task]:
            if dep not in ordered:
                if dep not in tasks:
                    inserted.append(f"{dep} (required by {task})")
                add(dep)
        if task not in ordered:
            ordered.append(task)
    for t in tasks:
        add(t)

    out = sections.get("output", {})
    return ExperimentConfig(model, numerics, ordered, task_params,
                            out.get("dir", "out"),
                            _parse_scalar(out.get("timestamps", "true")) is True,
                            inserted, text)
