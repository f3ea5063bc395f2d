"""Benchmark of fbsdelab: end-to-end metrics per workload, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload malliavin-counter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run builds the workload from the seed, repeats whole operations until
``--seconds`` have passed (at least two), checks every operation's outputs
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are ``wall_s`` (median operation time), ``setup_s`` (median over fresh
processes of the time from process start to the first operation) and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced operations
alternate; the metrics are the per-layer medians over the traced ones,
process CPU time and the tracing overhead, and the spans are written to
``.bench_out/trace/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_OPERATIONS = 2
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    pkg = SRC / "fbsdelab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import fbsdelab

    if Path(fbsdelab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported fbsdelab from {fbsdelab.__file__}, not {pkg}")
    return fbsdelab


def setup_seconds(workload, seed):
    """Median over fresh processes of the time from spawn to a ready workload."""
    vals = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        r = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{r.stderr}")
        vals.append(float(r.stdout.split()[-1]) - t0)
    return statistics.median(vals)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS (0 when it cannot be queried)."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return float(fn())
    return 0.0


def run_operations(wl, seconds, tracer, errors):
    """Whole operations until ``seconds`` have passed, cycling through the modes.

    Untraced runs cycle "plain" only.  Traced runs start with one "warmup"
    operation (lazy imports and first calls would otherwise land in the
    overhead figure), then cycle plain, "spans" (span timing) and "memory"
    (spans plus tracemalloc, which slows Python-heavy code too much to time
    it), so span times and memory peaks come from separate operations and
    the plain ones give the tracing overhead.
    """
    modes = ("plain",) if tracer is None else ("plain", "spans", "memory")
    warmup = 0 if tracer is None else 1
    ops = []
    start = time.perf_counter()
    while True:
        mode = "warmup" if len(ops) < warmup else modes[(len(ops) - warmup) % len(modes)]
        gc.collect()
        if mode in ("spans", "memory"):
            tracer.round = len(ops)
            tracer.install()
        if mode == "memory":
            tracemalloc.start()
        failed = False
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.operation()
        except errors as exc:
            failed, out = True, None
            print(f"operation {len(ops)} failed: {exc!r}", file=sys.stderr)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if mode == "memory":
                tracemalloc.stop()
            if mode in ("spans", "memory"):
                tracer.uninstall()
        bad = [] if failed else wl.check(out)
        for line in bad:
            print(f"operation {len(ops)} check failed: {line}", file=sys.stderr)
        ops.append({"mode": mode, "wall": wall, "cpu": cpu, "failed": failed, "ok": not bad})
        print(f"# operation {len(ops) - 1} ({mode}): wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"{'FAILED' if failed else 'ok' if not bad else 'WRONG'}")
        del out
        if (len(ops) >= MIN_OPERATIONS and (len(ops) - warmup) % len(modes) == 0
                and time.perf_counter() - start >= seconds):
            return ops


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    fbsdelab = import_program()
    import tracing
    from workloads import SIZES, WORKLOADS

    if args.workload == "all":
        return run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")

    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed, SIZES["full"], WORK)
    tracer = tracing.Tracer() if args.trace else None
    ops = run_operations(wl, args.seconds, tracer, fbsdelab.errors.FbsdeLabError)

    def done(mode):
        return [i for i, o in enumerate(ops) if o["mode"] == mode and not o["failed"]]

    plain = [ops[i] for i in done("plain")]
    result = {
        "correct": all(o["ok"] for o in ops),
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
    }
    if not plain:
        sys.exit("perfbench: every untraced operation failed")
    if args.trace:
        if not done("spans") or not done("memory"):
            sys.exit("perfbench: every traced operation failed")
        metrics = tracing.layer_metrics(tracer, done("spans"), done("memory"))
        metrics["process.cpu_s"] = statistics.median(o["cpu"] for o in plain)
        metrics["process.blas_threads"] = blas_threads()
        metrics["trace.overhead_s"] = (statistics.median(ops[i]["wall"] for i in done("spans"))
                                       - statistics.median(o["wall"] for o in plain))
        dump = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(dump)
        print(f"# spans written to {dump.relative_to(ROOT)}")
        print(f"# {'span':<34}{'calls':>6}{'busy_s':>10}{'self_s':>10}{'peak_mb':>10}")
        for name, (calls, busy, own, peak) in sorted(tracer.summary().items()):
            print(f"# {name:<34}{calls:>6}{busy:>10.3f}{own:>10.3f}{peak:>10.1f}")
        result["metrics"] = {k: {"value": v, "unit": tracing.unit(k)}
                             for k, v in metrics.items()}
    else:
        values = {"wall_s": statistics.median(o["wall"] for o in plain),
                  "setup_s": setup,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for k, m in result["metrics"].items():
        print(f"# {args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(names, args):
    """Each workload in its own process, as the benchmark is meant to be run."""
    status = 0
    for name in names:
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                           text=True, timeout=600)
        sys.stderr.write(r.stderr)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"{name}: exit {r.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"  {k:<34} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
