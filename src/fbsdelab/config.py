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

``SCHEMA`` holds every section, key, value parser and default; ``TASK_DEPS``
every task name and its prerequisites.  Parsing is strict: unknown sections
or keys, duplicates, malformed values and a model key beside a preset are
fatal, and each value is parsed as its line is read, so a ParseError names
the section, key, value and line before any task runs.  Coefficient
expressions use the grammar documented in ``expressions``; the model may
also declare a Markov map ``f`` of (t, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .criteria import CHECKS
from .errors import ParseError
from .expressions import compile_expression
from .model import COEFFICIENT_ARGS, ModelSpec, expression_spec, preset, preset_names

__all__ = ["ExperimentConfig", "parse_config", "parse_value", "task_closure",
           "SCHEMA", "TASK_NAMES", "TASK_DEPS"]

TASK_DEPS = {
    "solve": (),
    "criteria": (),
    "density": ("solve",),
    "tails": ("solve",),
    "oracle-compare": ("solve",),
}
TASK_NAMES = tuple(TASK_DEPS)


# -- value parsers: each reads one stripped value or raises ValueError(reason) --

def _value(cast, expected, ok=lambda v: True):
    def parse(s):
        try:
            v = cast(s)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise ValueError(f"expected {expected}, got {s!r}")
        return v
    return parse


_REAL = _value(float, "a number")


def _integer(lo):
    return _value(int, f"an integer >= {lo}", lambda v: v >= lo)


def _one_of(*choices, fold=str):
    return _value(fold, f"one of {', '.join(choices)}", lambda v: v in choices)


def _list(item, unique=False):
    def parse(s):
        values = [item(p.strip()) for p in s.split(",") if p.strip()]
        if unique and len(set(values)) != len(values):
            raise ValueError("a name is repeated")
        return values
    return parse


def _expression(coeff: str):
    def parse(s):
        compile_expression(s, COEFFICIENT_ARGS[coeff])  # raises ParseError naming the symbol
        return s
    return parse


# {section: {key: (parser, default)}}.  A default is config text read by the
# key's parser, so it meets the same checks as a value from a file; None
# means the key is absent.
SCHEMA = {
    "model": {
        "preset": (_one_of(*preset_names()), None),
        "b": (_expression("b"), "0"),
        "sigma": (_expression("sigma"), "1"),
        "g": (_expression("g"), "x"),
        "h": (_expression("h"), "0"),
        "f": (_expression("f"), None),
        "T": (_value(float, "a number > 0", lambda v: v > 0), "1"),
        "X0": (_REAL, "0"),
        "regime": (_one_of("lipschitz", "quadratic", fold=str.lower), "lipschitz"),
    },
    "numerics": {
        "seed": (_integer(0), "0"),
        "n_paths": (_integer(1), "20000"),
        "n_steps": (_integer(1), "128"),
        "nt": (_integer(2), "129"),
        "nx": (_integer(3), "401"),
        "x_lo": (_REAL, None),
        "x_hi": (_REAL, None),
        "z_cap": (_REAL, "50"),
        "n_mc": (_integer(1), "20000"),
        "n_u_nodes": (_integer(1), "16"),
        "basis_degree": (_integer(0), "4"),
        "theta": (_REAL, "0.5"),
        "grid_width": (_REAL, "6"),
    },
    "tasks": {
        "run": (_list(_one_of(*TASK_NAMES), unique=True), ""),
        "criteria_times": (_list(_REAL), "0.5"),
        "criteria_checks": (_list(_one_of(*CHECKS)), "first-order, second-order"),
        "density_target": (_one_of("Y", "Z"), "Y"),
        "density_t": (_REAL, "0.5"),
        "tails_target": (_one_of("Y", "Z"), "Z"),
        "tails_t": (_REAL, "1.0"),
        "tails_form": (_one_of("theorem", "corollary"), "theorem"),
        "tails_alpha_tilde": (_REAL, "2.0"),
        "oracle_times": (_list(_REAL), "0.25, 0.5, 0.75"),
    },
    "output": {
        "dir": (str, "out"),
        "timestamps": (_value(lambda s: {"true": True, "false": False}.get(s.lower()),
                              "true or false"), "true"),
    },
}


def _completed(keys: dict, given: dict) -> dict:
    """``given`` with each missing key set to its parsed default (None if it has none)."""
    return {key: given[key] if key in given else (None if default is None else parse(default))
            for key, (parse, default) in keys.items()}


def parse_value(section: str, key: str, text: str, line=None):
    """``text`` read by the parser of [section] key; ParseError names both and the line."""
    try:
        return SCHEMA[section][key][0](text.strip())
    except (ValueError, ParseError) as exc:
        raise ParseError(f"[{section}] {key} = {text.strip()}: {exc}", line=line) from None


def task_closure(tasks) -> tuple:
    """(tasks with prerequisites inserted first, notes on the inserted ones)."""
    inserted: list = []
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
    return ordered, inserted


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
        if m["preset"] is not None:
            return preset(m["preset"])
        return expression_spec(m["b"], m["sigma"], m["g"], m["h"], m["f"], T=m["T"],
                               X0=m["X0"], regime=m["regime"], name="config-model")


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text against ``SCHEMA``; every violation is a ParseError."""
    given: dict = {}
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
            if name not in SCHEMA:
                raise ParseError(f"unknown section [{name}]", line=lineno)
            if name in given:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            given[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError("key-value pair outside any section", line=lineno)
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno,
                             column=len(line) - len(line.lstrip()) + 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", line=lineno)
        if key in given[current]:
            raise ParseError(f"duplicate key {key!r} in section [{current}]", line=lineno)
        if current == "model" and given["model"] and "preset" in {key, *given["model"]}:
            raise ParseError(f"[model] {key} = {value.strip()}: a preset takes no other model "
                             f"keys (also given: {', '.join(given['model'])})", line=lineno)
        given[current][key] = parse_value(current, key, value, lineno)

    if not {"preset", "g", "h"} & set(given.get("model", {})):
        raise ParseError("model section must name a preset or give expressions")
    sections = {name: _completed(keys, given.get(name, {})) for name, keys in SCHEMA.items()}
    task_params = sections["tasks"]
    tasks, inserted = task_closure(task_params.pop("run"))
    out = sections["output"]
    return ExperimentConfig(sections["model"], sections["numerics"], tasks, task_params,
                            out["dir"], out["timestamps"], inserted, text)
