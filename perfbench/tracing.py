"""Spans around the calls into each layer's public functions.

The tracer replaces a fixed list of public functions by timing wrappers in
every loaded ``fbsdelab`` module that holds them, so calls made by the
benchmark, by ``fbsdelab.cli`` (which imports the names) and between modules
are all seen.  The sampler factories are wrapped so that the ``evaluate``
callable of every sampler they build is traced too.  Nothing under ``src/``
changes; ``uninstall`` puts the original functions back.

Spans stay in memory.  Each records its name, layer, parent, start, end,
self time (duration minus direct children) and the ``tracemalloc`` peak above
its start, plus counts taken from the call's arguments and result.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np

MB = float(1 << 20)

# (module, function): span names are "<layer>.<function>"
TARGETS = {
    "pde": ("fbsdelab.pde", ("solve_u", "solve_u_prime")),
    "mc": ("fbsdelab.mc", ("simulate_forward", "solve_bsde_regression", "solve_malliavin_bsde")),
    "density": ("fbsdelab.density", ("estimate_gF", "density_from_gF",
                                     "bouleau_hirsch_diagnostic",
                                     "pde_y_sampler", "pde_z_sampler")),
    "criteria": ("fbsdelab.criteria", ("first_order_check", "second_order_check",
                                       "quadratic_check", "x_sign_check")),
    "tails": ("fbsdelab.tails", ("compute_constants", "envelope", "empirical_density")),
    "cli": ("fbsdelab.cli", ("run",)),
    "config": ("fbsdelab.config", ("parse_config",)),
}
SPAN_LAYER = {"config.parse_config": "cli"}
PEAKS = ("mc.malliavin_peak_mb",)
RATIOS = {"mc.lsmc_saturation_rate", "mc.malliavin_used_column_ratio",
          "density.reliable_node_ratio", "density.clip_rate", "density.normalization_defect"}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in RATIOS:
        return "ratio"
    if metric == "criteria.resolution_max":
        return "1"
    return "bytes" if metric.endswith("_bytes") else "count"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int
    round: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    peak_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _count(name, args, kwargs, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == "mc.simulate_forward":
        return {"path_steps": result.dW.size,
                "bytes": result.dW.nbytes + result.X.nbytes}
    if name == "mc.solve_bsde_regression":
        return {"saturation_rate": result.saturation_rate}
    if name == "mc.solve_malliavin_bsde":
        arrays = [a for a in (result.DrX, result.DrY, result.nablaX, result.DrZ) if a is not None]
        times = kwargs.get("times")
        cols = result.t_grid.size
        used = len({int(round(t / (result.t_grid[1] - result.t_grid[0]))) for t in times}) \
            if times is not None else cols - result.r_index
        return {"bytes": sum(a.nbytes for a in arrays), "used_cols": used, "cols": cols}
    if name == "density.sampler_evaluate":
        return {"draw_steps": args[0].shape[0] * args[0].shape[1]}
    if name == "density.estimate_gF":
        return {"reliable_ratio": float(np.mean(result.reliable)), "clip_rate": result.clip_rate}
    if name == "density.density_from_gF":
        return {"defect": result.normalization_defect or 0.0}
    if name in ("pde.solve_u", "pde.solve_u_prime"):
        return {"node_steps": (result.t_nodes.size - 1) * result.x_nodes.size,
                "picard_iters": result.max_iterations, "fallback": int(result.fallback_used)}
    if name.startswith("criteria."):
        return {"reports": len(result),
                "resolution": max(r.resolution for r in result.values())}
    if name == "cli.run":
        return {"files": len(result["files"]),
                "bytes": sum(f["bytes"] for f in result["files"])}
    return {}


class Tracer:
    """Collects spans while installed; ``round`` tags spans with the current round."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self.round = 0

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, name):
        layer = SPAN_LAYER.get(name, name.split(".", 1)[0])
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top[1] = max(top[1], peak)
            tracemalloc.reset_peak()
        else:
            cur = 0
        parent = self._stack[-1][0].id if self._stack else -1
        span = Span(len(self.spans), name, layer, parent, self.round, time.perf_counter())
        self.spans.append(span)
        self._stack.append([span, cur, cur])  # span, running peak, start level
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        _, run_peak, base = self._stack.pop()
        if tracemalloc.is_tracing():
            run_peak = max(run_peak, tracemalloc.get_traced_memory()[1])
            span.peak_mb = (run_peak - base) / MB
        if self._stack:
            top = self._stack[-1]
            top[0].child_s += span.dur
            top[1] = max(top[1], run_peak)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            span.counts = _count(name, args, kwargs, result)
            if name in ("density.pde_y_sampler", "density.pde_z_sampler"):
                result.evaluate = tracer.wrap("density.sampler_evaluate", result.evaluate)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self):
        for modname, _ in TARGETS.values():
            importlib.import_module(modname)
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "fbsdelab" or k.startswith("fbsdelab."))]
        for layer, (modname, names) in TARGETS.items():
            home = sys.modules[modname]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in mods:
                    if m.__dict__.get(fname) is original:
                        self._patched.append((m, fname, original))
                        setattr(m, fname, wrapper)

    def uninstall(self):
        for m, fname, original in reversed(self._patched):
            setattr(m, fname, original)
        self._patched.clear()

    # -- reports ---------------------------------------------------------------

    def dump(self, path):
        rows = []
        for s in self.spans:
            row = asdict(s)
            row.update(dur_s=s.dur, self_s=s.self_s)
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh, indent=0, default=float)

    def summary(self):
        """Per span name: calls, busy seconds, self seconds, max peak MB."""
        out: dict = {}
        for s in self.spans:
            calls, busy, own, peak = out.get(s.name, (0, 0.0, 0.0, 0.0))
            out[s.name] = (calls + 1, busy + s.dur, own + s.self_s, max(peak, s.peak_mb))
        return out


def _per_round(spans) -> dict:
    """Per-layer metrics of one traced round."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def busy(name):
        return float(sum(s.dur for s in by.get(name, ())))

    def own(name):
        return float(sum(s.self_s for s in by.get(name, ())))

    def total(name, key):
        return float(sum(s.counts.get(key, 0) for s in by.get(name, ())))

    def most(name, key, attr=False):
        vals = [s.peak_mb if attr else s.counts.get(key, 0.0) for s in by.get(name, ())]
        return float(max(vals)) if vals else 0.0

    def mean(name, key):
        vals = [s.counts[key] for s in by.get(name, ()) if key in s.counts]
        return float(np.mean(vals)) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    pde = ("pde.solve_u", "pde.solve_u_prime")
    return {
        "mc.simulate_forward_s": busy("mc.simulate_forward"),
        "mc.path_steps": total("mc.simulate_forward", "path_steps"),
        "mc.simulate_forward_mb": total("mc.simulate_forward", "bytes") / MB,
        "mc.solve_bsde_regression_s": busy("mc.solve_bsde_regression"),
        "mc.lsmc_saturation_rate": most("mc.solve_bsde_regression", "saturation_rate"),
        "mc.solve_malliavin_bsde_s": busy("mc.solve_malliavin_bsde"),
        "mc.malliavin_calls": float(len(by.get("mc.solve_malliavin_bsde", ()))),
        "mc.malliavin_result_mb": total("mc.solve_malliavin_bsde", "bytes") / MB,
        "mc.malliavin_used_column_ratio": ratio(total("mc.solve_malliavin_bsde", "used_cols"),
                                                total("mc.solve_malliavin_bsde", "cols")),
        "mc.malliavin_peak_mb": most("mc.solve_malliavin_bsde", None, attr=True),
        "density.estimate_gF_s": busy("density.estimate_gF"),
        "density.sampler_evaluate_s": busy("density.sampler_evaluate"),
        "density.conditioning_s": own("density.estimate_gF"),
        "density.sampler_evals": float(len(by.get("density.sampler_evaluate", ()))),
        "density.draw_steps": total("density.sampler_evaluate", "draw_steps"),
        "density.reliable_node_ratio": mean("density.estimate_gF", "reliable_ratio"),
        "density.clip_rate": mean("density.estimate_gF", "clip_rate"),
        "density.normalization_defect": most("density.density_from_gF", "defect"),
        "density.density_from_gF_s": busy("density.density_from_gF"),
        "density.bouleau_hirsch_s": busy("density.bouleau_hirsch_diagnostic"),
        "pde.solve_u_s": busy("pde.solve_u"),
        "pde.solve_u_prime_s": busy("pde.solve_u_prime"),
        "pde.node_steps": sum(total(n, "node_steps") for n in pde),
        "pde.picard_iters_max": max(most(n, "picard_iters") for n in pde),
        "pde.fallbacks": sum(total(n, "fallback") for n in pde),
        "criteria.first_order_s": busy("criteria.first_order_check"),
        "criteria.second_order_s": busy("criteria.second_order_check"),
        "criteria.quadratic_s": busy("criteria.quadratic_check"),
        "criteria.x_sign_s": busy("criteria.x_sign_check"),
        "criteria.reports": sum(total(n, "reports") for n in by if n.startswith("criteria.")),
        "criteria.resolution_max": max([most(n, "resolution") for n in by
                                        if n.startswith("criteria.")] or [0.0]),
        "tails.compute_constants_s": busy("tails.compute_constants"),
        "tails.envelope_s": busy("tails.envelope"),
        "tails.empirical_density_s": busy("tails.empirical_density"),
        "cli.run_s": busy("cli.run"),
        "cli.parse_config_s": busy("config.parse_config"),
        "cli.self_s": own("cli.run"),
        "cli.artifact_bytes": total("cli.run", "bytes"),
        "cli.files": total("cli.run", "files"),
    }


def layer_metrics(tracer: Tracer, timed_rounds, memory_rounds) -> dict:
    """Median over rounds of each per-round metric; peaks from the tracemalloc rounds."""
    def median(rounds):
        per = [_per_round([s for s in tracer.spans if s.round == r]) for r in rounds]
        return {k: statistics.median(p[k] for p in per) for k in per[0]}

    out = median(timed_rounds)
    peaks = median(memory_rounds)
    out.update({k: peaks[k] for k in PEAKS})
    return out
