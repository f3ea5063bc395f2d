"""Batch experiment runner: parse a config, execute tasks, emit artifacts.

``TASKS`` maps each task of ``config.TASK_DEPS`` to a function of the run
context that writes its files, each opened through ``_Run.file``.  The solve
task writes u as text (``grid_u.csv``: t, x, u) and the u and u' solutions
exactly, every array and solver field, as ``grid_u.bin`` and
``grid_uprime.bin`` (``GridSolution.to_binary``).  Every text file starts with
header lines recording the package version, the master seed and the config
hash (plus a timestamp unless disabled); ``manifest.json`` lists the files
with SHA-256 checksums and, outside them, the solver diagnostics (theta,
fallback and Picard iterations of the u and u' solves; the LSMC saturation
rate, warnings and largest and mean per-step residuals of oracle-compare).
Its ``notes`` name every other entry of a reused output directory, left by an
earlier run or a failed task; nothing there is deleted.  Identical (config,
seed) reruns produce byte-identical data files.  The Monte Carlo tasks share
one stream as common random numbers, not independent substreams: the first
Brownian copy of ``density`` and the ``tails`` task evaluate the same (seed,
STREAM_FORWARD, n_mc, n_steps/2) increments (``_snapshot_sampler``'s step
count), and ``oracle-compare`` reads the same stream laid out as n_paths paths
of n_steps steps.  ``main`` exits with 0 if every task succeeded, 1 if one
failed and 2 on a bad config, before writing anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .artifacts import write_table
from .config import TASK_DEPS, ExperimentConfig, parse_config, parse_value, task_closure
from .criteria import CHECKS, TIMELESS
from .density import density_from_gF, estimate_gF, pde_y_sampler, pde_z_sampler
from .errors import EvaluationError, FbsdeLabError, ParseError, PreconditionError
from .mc import STREAM_FORWARD, BasisSpec, _draw_increments, simulate_forward, solve_bsde_regression
from .model import ModelSpec
from .pde import GridSolution, default_grid, solve_u, solve_u_prime
from .tails import compute_constants, envelope, empirical_density

__all__ = ["main", "run"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _headers(cfg_hash: str, seed: int, timestamps: bool):
    lines = [f"fbsdelab {__version__}", f"seed={seed}", f"config={cfg_hash}"]
    if timestamps:
        lines.append(f"written={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    return lines


def _write_json(path: Path, obj, header):
    payload = {"_header": header, **obj}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=float) + "\n")


def _snapshot_sampler(ctx, t, target):
    """Y or Z sampler at the half-resolution step nearest t: (sampler, t_snap, n_steps).

    The snapshot must lie after time 0, where the functional is degenerate.
    """
    spec = ctx.spec
    ns = max(int(round(ctx.num["n_steps"] / 2)), 16)
    k = round(t / spec.T * ns)
    if k < 1:
        raise PreconditionError(f"snapshot time t={t:g} rounds to step 0 of {ns} "
                                f"(step T/{ns} = {spec.T / ns:g}); choose a later t")
    t_snap = k * spec.T / ns
    if target == "Z":
        sam = pde_z_sampler(spec, ctx.sol_uprime, t_snap, ns)
    else:
        sam = pde_y_sampler(spec, ctx.sol_u, t_snap, ns, sol_uprime=ctx.sol_uprime)
    return sam, t_snap, ns


@dataclass
class _Run:
    """What the tasks of one run share: inputs, output place, solved grids, diagnostics."""

    spec: ModelSpec
    num: dict
    params: dict
    seed: int
    out: Path
    header: list
    task: str = ""
    sol_u: Optional[GridSolution] = None
    sol_uprime: Optional[GridSolution] = None
    diagnostics: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    def file(self, name: str) -> Path:
        """The output path of ``name``, listed in the manifest once its task succeeds."""
        path = self.out / name
        self.files.append(path)
        return path


def _solve(ctx: _Run) -> None:
    num = ctx.num
    grid = default_grid(ctx.spec, nt=num["nt"], nx=num["nx"], width=num["grid_width"],
                        x_lo=num["x_lo"], x_hi=num["x_hi"])
    su = ctx.sol_u = solve_u(ctx.spec, grid, theta=num["theta"])
    sp = ctx.sol_uprime = solve_u_prime(ctx.spec, grid, sol_u=su, theta=num["theta"])
    ctx.diagnostics[ctx.task] = {
        name: {"theta": gs.theta, "fallback_used": gs.fallback_used,
               "max_iterations": gs.max_iterations}
        for name, gs in (("u", su), ("u_prime", sp))}
    su.to_csv(ctx.file("grid_u.csv"), ctx.header)
    su.to_binary(ctx.file("grid_u.bin"))
    sp.to_binary(ctx.file("grid_uprime.bin"))


def _criteria(ctx: _Run) -> None:
    rows, times = [], ctx.params["criteria_times"]
    for i, t in enumerate(times):
        for chk in ctx.params["criteria_checks"]:
            if i and chk in TIMELESS:
                continue
            try:
                rows += [r.to_dict() for r in CHECKS[chk](ctx.spec, t).values()]
            except (PreconditionError, EvaluationError) as exc:
                kind = "precondition" if isinstance(exc, PreconditionError) else "evaluation"
                rows.append({"criterion": chk, "t": t, "verdict": f"{kind}-error",
                             "error": str(exc)})
    _write_json(ctx.file("criteria.json"), {"reports": rows}, ctx.header)
    with open(ctx.file("criteria_table.txt"), "w") as fh:
        fh.writelines(f"# {line}\n" for line in ctx.header)
        fh.write(f"{'criterion':<12}{'t':>8}  {'verdict':<26}{'margin':>15}\n")
        for r in rows:
            fh.write(f"{r['criterion']:<12}{r['t']:>8.4f}  {r['verdict']:<26}"
                     f"{r.get('margin', float('nan')):>15.6e}\n")


def _density(ctx: _Run) -> None:
    sam, _, _ = _snapshot_sampler(ctx, ctx.params["density_t"], ctx.params["density_target"])
    gf = estimate_gF(sam, n_mc=ctx.num["n_mc"], n_u_nodes=ctx.num["n_u_nodes"], seed=ctx.seed)
    de = density_from_gF(gf)
    gf.to_csv(ctx.file("gfunction.csv"), ctx.header)
    de.to_csv(ctx.file("density.csv"), ctx.header)


def _tails(ctx: _Run) -> None:
    target = ctx.params["tails_target"]
    sam, t_snap, ns = _snapshot_sampler(ctx, ctx.params["tails_t"], target)
    v_grid = ctx.sol_uprime if target == "Z" else ctx.sol_u
    consts = compute_constants(v_grid, t_snap, 0.1, 0.1, ctx.params["tails_alpha_tilde"])
    dW, = _draw_increments(ctx.seed, (STREAM_FORWARD,), ctx.num["n_mc"], ns, ctx.spec.T / ns,
                           keep=sam.r_nodes.size - 1)
    F, _ = sam.evaluate(dW)
    stats = {"mean": float(np.mean(F)), "mad": float(np.mean(np.abs(F - np.mean(F))))}
    nodes = np.quantile(F, np.linspace(0.01, 0.99, 81))
    env = envelope(t_snap, consts, stats, nodes, form=ctx.params["tails_form"], target=target)
    emp, se, _ = empirical_density(F, nodes)
    env.to_csv(ctx.file("envelope.csv"), emp, 2.58 * se, ctx.header)
    _write_json(ctx.file("tail_constants.json"),
                {"t": t_snap, "constants": consts.to_dict()}, ctx.header)


def _oracle_compare(ctx: _Run) -> None:
    spec, num = ctx.spec, ctx.num
    if spec.oracle is None:
        raise PreconditionError("model has no closed-form oracle")
    ens = simulate_forward(spec, num["n_paths"], num["n_steps"], ctx.seed)
    sol = solve_bsde_regression(spec, ens, BasisSpec(degree=num["basis_degree"]),
                                z_cap=num["z_cap"])
    ctx.diagnostics[ctx.task] = {"saturation_rate": sol.saturation_rate,
                                 "warnings": list(sol.warnings),
                                 "residual_max": float(np.max(sol.residuals)),
                                 "residual_mean": float(np.mean(sol.residuals))}
    rows = []
    for t in ctx.params["oracle_times"]:
        k = ens.index_of(t, nearest=True)
        tk = ens.t_grid[k]
        y_star = spec.oracle.y(tk, ens.X[:, k] - spec.X0)
        err_mc = np.abs(sol.Y[:, k] - y_star)
        rows.append((tk, np.max(np.abs(ctx.sol_u.eval(tk, ens.X[:, k]) - y_star)),
                     np.max(err_mc), np.mean(err_mc)))
    write_table(ctx.file("oracle_compare.csv"), ctx.header,
                ("t", "max_err_pde", "max_err_mc", "mean_err_mc"), rows)


# the task functions in TASK_DEPS order
TASKS = dict(zip(TASK_DEPS, (_solve, _criteria, _density, _tails, _oracle_compare)))


def run(config: ExperimentConfig, out_dir=None, seed=None, timestamps=None) -> dict:
    """Execute the configured tasks in dependency order; returns the manifest.

    Each task is dispatched through ``TASKS``.  A failing task aborts its
    dependents but independent tasks still run; the manifest records per-task
    status and the exit code is nonzero unless everything succeeded.  The
    package starts one thread of its own: ``estimate_gF`` (the density task)
    draws the coupling copy W* on a worker thread while the calling thread
    draws W, and joins it before going on.  numpy's OpenBLAS may run the BLAS
    calls of an LSMC step on its own pool: ``mc`` holds each step's design
    row-major, (p, n), and makes its Gram matrix (two matrix-vector products
    for a poly design, ``At @ At.T`` for a hat design), one p x p Cholesky
    factorization and, per fit, the products ``At @ y`` and ``c @ At``.
    """
    out = Path(out_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.numerics["seed"] if seed is None else seed
    use_ts = config.timestamps if timestamps is None else timestamps
    cfg_hash = hashlib.sha256(config.text.encode()).hexdigest()[:16]
    header = _headers(cfg_hash, seed, use_ts)
    ctx = _Run(config.build_spec(), config.numerics, config.task_params, seed, out, header)
    status: dict = {}
    for task in config.tasks:
        if not all(status.get(d) == "ok" for d in TASK_DEPS[task]):
            status[task] = "aborted (dependency failed)"
            continue
        ctx.task = task
        n_listed = len(ctx.files)
        try:
            TASKS[task](ctx)
            status[task] = "ok"
        except FbsdeLabError as exc:
            del ctx.files[n_listed:]
            status[task] = f"failed: {exc}"

    listed = {p.name for p in ctx.files} | {"manifest.json"}
    manifest = {
        "version": __version__,
        "seed": seed,
        "config_hash": cfg_hash,
        "tasks": status,
        "notes": [f"dependency auto-inserted: {d}" for d in config.inserted_dependencies]
        + [f"unlisted, from an earlier run or a failed task: {name}"
           for name in sorted(p.name for p in out.iterdir()) if name not in listed],
        "files": [{"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
                  for p in ctx.files],
        "ok": all(v == "ok" for v in status.values()),
        "diagnostics": ctx.diagnostics,
    }
    _write_json(out / "manifest.json", manifest, header)
    return manifest


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the experiment config")
    p.add_argument("--seed", default=None, help="override the config seed (an integer >= 0)")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--no-timestamps", action="store_true",
                   help="omit timestamps from file headers")


def main(argv=None) -> int:
    """Command-line entry; returns 0 if every task succeeded, 1 if one failed, 2 on a bad config."""
    parser = argparse.ArgumentParser(prog="fbsdelab",
                                     description="forward-backward system laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *TASK_DEPS):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
        seed = None if args.seed is None else parse_value("numerics", "seed", args.seed)
    except (OSError, ParseError) as exc:
        print(f"fbsdelab: {exc}", file=sys.stderr)
        return 2
    if args.command != "run":
        # a single-task invocation still honors the dependency closure
        config.tasks, config.inserted_dependencies = task_closure([args.command])
    manifest = run(config, out_dir=args.out, seed=seed,
                   timestamps=False if args.no_timestamps else None)
    for task, st in manifest["tasks"].items():
        print(f"{task}: {st}")
    return 0 if manifest["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
