"""Batch experiment runner: parse a config, execute tasks, emit artifacts.

Every output file starts with header lines recording the package version,
the master seed and the config hash (plus a timestamp unless disabled); a
manifest lists all files with SHA-256 checksums.  The manifest also carries
the solver diagnostics (theta, fallback and Picard iterations of the u and u'
solves; the LSMC saturation rate and warnings of oracle-compare), outside the
checksummed files.  All randomness flows from the single config seed through
named substreams, so identical (config, seed, thread count) reruns produce
byte-identical data files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import TASK_DEPS, ExperimentConfig, parse_config
from .criteria import CHECKS
from .density import density_from_gF, estimate_gF, pde_y_sampler, pde_z_sampler
from .errors import FbsdeLabError, PreconditionError
from .mc import STREAM_FORWARD, BasisSpec, rng_stream, simulate_forward, solve_bsde_regression
from .pde import default_grid, solve_u, solve_u_prime
from .tails import compute_constants, envelope, empirical_density

__all__ = ["main", "run"]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _headers(cfg_hash: str, seed: int, timestamps: bool):
    lines = [f"fbsdelab {__version__}", f"seed={seed}", f"config={cfg_hash}"]
    if timestamps:
        lines.append(f"written={time.strftime('%Y-%m-%dT%H:%M:%S')}")
    return lines


def _write_json(path: Path, obj, header):
    payload = {"_header": header, **obj}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=float) + "\n")


def _snapshot_sampler(spec, state, num, t, target):
    """Y or Z sampler at the half-resolution step nearest t: (sampler, t_snap, n_steps).

    The snapshot must lie after time 0, where the functional is degenerate.
    """
    ns = max(int(round(num["n_steps"] / 2)), 16)
    k = round(t / spec.T * ns)
    if k < 1:
        raise PreconditionError(f"snapshot time t={t:g} rounds to step 0 of {ns} "
                                f"(step T/{ns} = {spec.T / ns:g}); choose a later t")
    t_snap = k * spec.T / ns
    if target == "Z":
        sam = pde_z_sampler(spec, state["sol_uprime"], t_snap, ns)
    else:
        sam = pde_y_sampler(spec, state["sol_u"], t_snap, ns, sol_uprime=state["sol_uprime"])
    return sam, t_snap, ns


def run(config: ExperimentConfig, out_dir=None, seed=None, timestamps=None,
        threads: int = 1) -> dict:
    """Execute the configured tasks in dependency order; returns the manifest.

    A failing task aborts its dependents but independent tasks still run; the
    manifest records per-task status and the exit code is nonzero unless
    everything succeeded.  All numerics are single-threaded per task, so the
    recorded thread count is bookkeeping for the determinism contract.
    """
    out = Path(out_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.numerics["seed"] if seed is None else seed
    use_ts = config.timestamps if timestamps is None else timestamps
    cfg_hash = hashlib.sha256(config.text.encode()).hexdigest()[:16]
    header = _headers(cfg_hash, seed, use_ts)

    spec = config.build_spec()
    num = config.numerics
    status: dict = {}
    notes = [f"dependency auto-inserted: {d}" for d in config.inserted_dependencies]
    files: list = []
    state: dict = {}
    # solver diagnostics go to the manifest, outside the checksummed data files
    diagnostics: dict = {}

    def record(path: Path):
        files.append(path)

    for task in config.tasks:
        deps_ok = all(status.get(d) == "ok" for d in TASK_DEPS[task])
        if not deps_ok:
            status[task] = "aborted (dependency failed)"
            continue
        try:
            if task == "solve":
                grid = default_grid(spec, nt=num["nt"], nx=num["nx"],
                                    width=num["grid_width"],
                                    x_lo=num["x_lo"], x_hi=num["x_hi"])
                su = solve_u(spec, grid, theta=num["theta"])
                sp = solve_u_prime(spec, grid, sol_u=su, theta=num["theta"])
                state["grid"] = grid
                state["sol_u"] = su
                state["sol_uprime"] = sp
                diagnostics["solve"] = {
                    name: {"theta": gs.theta, "fallback_used": gs.fallback_used,
                           "max_iterations": gs.max_iterations}
                    for name, gs in (("u", su), ("u_prime", sp))}
                su.to_csv(out / "grid_u.csv", header)
                sp.to_csv(out / "grid_uprime.csv", header)
                su.to_binary(out / "grid_u.bin")
                record(out / "grid_u.csv")
                record(out / "grid_uprime.csv")
                record(out / "grid_u.bin")
            elif task == "criteria":
                rows = []
                for t in config.task_params["criteria_times"]:
                    for chk in config.task_params["criteria_checks"]:
                        try:
                            rows += [r.to_dict() for r in CHECKS[chk](spec, t).values()]
                        except PreconditionError as exc:
                            rows.append({"criterion": chk, "t": t,
                                         "verdict": "precondition-error",
                                         "error": str(exc)})
                _write_json(out / "criteria.json", {"reports": rows}, header)
                with open(out / "criteria_table.txt", "w") as fh:
                    for line in header:
                        fh.write(f"# {line}\n")
                    fh.write(f"{'criterion':<12}{'t':>8}  {'verdict':<26}{'margin':>15}\n")
                    for r in rows:
                        fh.write(f"{r['criterion']:<12}{r['t']:>8.4f}  {r['verdict']:<26}"
                                 f"{r.get('margin', float('nan')):>15.6e}\n")
                record(out / "criteria.json")
                record(out / "criteria_table.txt")
            elif task == "density":
                sam, _, _ = _snapshot_sampler(spec, state, num, config.task_params["density_t"],
                                              config.task_params["density_target"])
                gf = estimate_gF(sam, n_mc=num["n_mc"], n_u_nodes=num["n_u_nodes"], seed=seed)
                de = density_from_gF(gf)
                gf.to_csv(out / "gfunction.csv", header)
                de.to_csv(out / "density.csv", header)
                record(out / "gfunction.csv")
                record(out / "density.csv")
            elif task == "tails":
                target = config.task_params["tails_target"]
                sam, t_snap, ns = _snapshot_sampler(spec, state, num,
                                                    config.task_params["tails_t"], target)
                v_grid = state["sol_uprime"] if target == "Z" else state["sol_u"]
                consts = compute_constants(v_grid, t_snap, 0.1, 0.1,
                                           config.task_params["tails_alpha_tilde"])
                dW = rng_stream(seed, STREAM_FORWARD).standard_normal(
                    (num["n_mc"], ns)) * math.sqrt(spec.T / ns)
                F, _ = sam.evaluate(dW)
                stats = {"mean": float(np.mean(F)),
                         "mad": float(np.mean(np.abs(F - np.mean(F))))}
                nodes = np.quantile(F, np.linspace(0.01, 0.99, 81))
                env = envelope(t_snap, consts, stats, nodes,
                               form=config.task_params["tails_form"], target=target)
                emp, se, _ = empirical_density(F, nodes)
                env.to_csv(out / "envelope.csv", emp, 2.58 * se, header)
                _write_json(out / "tail_constants.json",
                            {"t": t_snap, "constants": consts.to_dict()}, header)
                record(out / "envelope.csv")
                record(out / "tail_constants.json")
            elif task == "oracle-compare":
                if spec.oracle is None:
                    raise PreconditionError("model has no closed-form oracle")
                ens = simulate_forward(spec, num["n_paths"], num["n_steps"], seed)
                sol = solve_bsde_regression(spec, ens,
                                            BasisSpec(degree=num["basis_degree"]),
                                            z_cap=num["z_cap"])
                diagnostics["oracle-compare"] = {"saturation_rate": sol.saturation_rate,
                                                 "warnings": list(sol.warnings)}
                with open(out / "oracle_compare.csv", "w") as fh:
                    for line in header:
                        fh.write(f"# {line}\n")
                    fh.write("t,max_err_pde,max_err_mc,mean_err_mc\n")
                    for t in config.task_params["oracle_times"]:
                        k = ens.index_of(t, nearest=True)
                        tk = ens.t_grid[k]
                        w = ens.X[:, k] - spec.X0
                        y_star = spec.oracle.y(tk, w)
                        y_pde = state["sol_u"].eval(tk, ens.X[:, k])
                        e_pde = float(np.max(np.abs(y_pde - y_star)))
                        e_mc = float(np.max(np.abs(sol.Y[:, k] - y_star)))
                        m_mc = float(np.mean(np.abs(sol.Y[:, k] - y_star)))
                        fh.write("%.17g,%.17g,%.17g,%.17g\n" % (tk, e_pde, e_mc, m_mc))
                record(out / "oracle_compare.csv")
            status[task] = "ok"
        except FbsdeLabError as exc:
            status[task] = f"failed: {exc}"

    manifest = {
        "version": __version__,
        "seed": seed,
        "threads": threads,
        "config_hash": cfg_hash,
        "tasks": status,
        "notes": notes,
        "files": [{"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
                  for p in files],
        "ok": all(v == "ok" for v in status.values()),
        "diagnostics": diagnostics,
    }
    _write_json(out / "manifest.json", manifest, header)
    return manifest


def _add_common(p):
    p.add_argument("--config", required=True, help="path to the experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the manifest only; all numerics run single-threaded")
    p.add_argument("--no-timestamps", action="store_true",
                   help="omit timestamps from file headers")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fbsdelab",
                                     description="forward-backward system laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "solve", "density", "criteria", "tails", "oracle-compare"):
        p = sub.add_parser(name)
        _add_common(p)
    args = parser.parse_args(argv)

    text = Path(args.config).read_text()
    config = parse_config(text)
    if args.command != "run":
        config.tasks = []
        config.inserted_dependencies = []
        # single-task invocation still honors the dependency closure
        for dep in TASK_DEPS[args.command]:
            config.tasks.append(dep)
            config.inserted_dependencies.append(f"{dep} (required by {args.command})")
        config.tasks.append(args.command)
    manifest = run(config, out_dir=args.out, seed=args.seed,
                   timestamps=False if args.no_timestamps else None,
                   threads=args.threads)
    ok = manifest["ok"]
    for task, st in manifest["tasks"].items():
        print(f"{task}: {st}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
