"""Fast self-test of the benchmark checks (about 20 s).

Runs each workload once at the "tiny" size and requires every check to
pass, then perturbs that operation's outputs in ways a correct check must
notice (a density shifted by one node, a margin off by 1e-2, ...) and
requires the named check to fail on each.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import run
from workloads import SIZES, WORKLOADS

SEED = 3


# -- perturbations: (description, expected failure text, function) ------------
# Each function returns a perturbed copy of the operation's outputs; the cli
# ones edit the artifact files in place (the directory is restored after).


def _route(out, which, delta):
    out = copy.deepcopy(out)
    for t, (tk, w, y_pde, y_mc) in out["routes"].items():
        out["routes"][t] = (tk, w, y_pde + delta, y_mc) if which == "pde" \
            else (tk, w, y_pde, y_mc + delta)
    return out


def _dry(out):
    out = copy.deepcopy(out)
    out["dry_half"][1][7] += 1e-5
    return out


def _bh(out, verdict=None, scale=1.0):
    out = copy.deepcopy(out)
    out["bh"].norms = out["bh"].norms * scale
    out["bh"].verdict = verdict or out["bh"].verdict
    return out


MALLIAVIN = [
    ("PDE route off by 2e-3", "PDE route max error", lambda o: _route(o, "pde", 2e-3)),
    ("LSMC route off by 2e-2", "LSMC mean error", lambda o: _route(o, "mc", 2e-2)),
    ("one D_rY_1/2 path off by 1e-5", "D_rY_1/2 - c(1/2)", _dry),
    ("BH verdict not degenerate", "BH verdict", lambda o: _bh(o, verdict="inconclusive")),
    ("BH norms doubled", "BH norm - c(t*)^2 t*", lambda o: _bh(o, scale=2.0)),
]


def _density(out, key, shift=0, scale=1.0):
    out = copy.deepcopy(out)
    de = out[key]
    rho = de.rho * scale
    if shift:
        rho = np.concatenate([rho[:shift], rho[:-shift]])  # values move `shift` nodes right
    de.rho = rho
    if scale != 1.0:
        de.normalization_defect = abs(float(np.trapezoid(rho, de.x_nodes)) - 1.0)
    return out


DENSITY = [
    ("Z_1 density shifted by one node", "Z_1 sup error", lambda o: _density(o, "Z_1", shift=1)),
    ("Y_1/2 density shifted by ten nodes", "Y_1/2 sup error",
     lambda o: _density(o, "Y_1/2", shift=10)),
    ("Y_1/2 density scaled by 1.2", "Y_1/2 normalization defect",
     lambda o: _density(o, "Y_1/2", scale=1.2)),
]


def _edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv(path, fn):
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = np.array([r.split(",") for r in body[1:]], dtype=float)
    rows = fn(rows)
    path.write_text("\n".join(head + body[:1] + [",".join("%.17g" % v for v in r)
                                                  for r in rows]) + "\n")


def _report(reports, criterion, t, **changes):
    for r in reports["reports"]:
        if r["criterion"] == criterion and abs(r["t"] - t) < 1e-12:
            r.update({k: (r[k] + v if k == "margin" else v) for k, v in changes.items()})


def _shift_rows(rows, col, n):
    rows[:, col] = np.concatenate([rows[:n, col], rows[:-n, col]])
    return rows


def _bump(rows, row, col, delta):
    rows[row, col] += delta
    return rows


CLI = [
    ("H+ margin at t=0.5 off by 1e-2", "H+ margin at t=0.5",
     lambda d: _edit_json(d / "counter" / "criteria.json",
                          lambda j: _report(j, "H+", 0.5, margin=1e-2))),
    ("Htilde+ margin at t=0.7 off by -1e-2", "Htilde+ margin at t=0.7",
     lambda d: _edit_json(d / "counter" / "criteria.json",
                          lambda j: _report(j, "Htilde+", 0.7, margin=-1e-2))),
    ("H+ verdict at t=0.4 reads fails", "H+ margin has no root",
     lambda d: _edit_json(d / "counter" / "criteria.json",
                          lambda j: _report(j, "H+", 0.4, verdict="fails"))),
    ("Q+ margin off by 1e-2", "Q+ margin",
     lambda d: _edit_json(d / "quad" / "criteria.json",
                          lambda j: _report(j, "Q+", 0.5, margin=1e-2))),
    ("counter grid_u off by 1e-6 at one interior node", "counter grid_u",
     lambda d: _edit_csv(d / "counter" / "grid_u.csv", lambda r: _bump(r, 200, 2, 1e-6))),
    ("quad grid_u off by 1e-3 at one interior node", "quad grid_u",
     lambda d: _edit_csv(d / "quad" / "grid_u.csv", lambda r: _bump(r, 200, 2, 1e-3))),
    ("counter density shifted by eight nodes", "counter Y_1/2 density",
     lambda d: _edit_csv(d / "counter" / "density.csv", lambda r: _shift_rows(r, 1, 8))),
    ("quad density shifted by eight nodes", "quad Y_1/2 density",
     lambda d: _edit_csv(d / "quad" / "density.csv", lambda r: _shift_rows(r, 1, 8))),
    ("tail envelope lower above upper at one node", "tails: lower > upper",
     lambda d: _edit_csv(d / "counter" / "envelope.csv", lambda r: _bump(r, 40, 1, 1e3))),
    ("oracle-compare PDE error 1e-2", "oracle-compare PDE",
     lambda d: _edit_csv(d / "quad" / "oracle_compare.csv", lambda r: _bump(r, 1, 1, 1e-2))),
    ("a data file changed after the manifest", "manifest SHA-256",
     lambda d: (d / "quad" / "gfunction.csv").write_text("0\n")),
]


def main():
    run.import_program()
    failures = []

    def expect(cond, text):
        print(("ok    " if cond else "FAIL  ") + text)
        if not cond:
            failures.append(text)

    tiny = SIZES["tiny"]
    work = run.WORK / "selftest"
    for name, cases in (("malliavin-counter", MALLIAVIN), ("density-cubic", DENSITY),
                        ("cli-run", CLI)):
        wl = WORKLOADS[name](SEED, tiny, work)
        out = wl.operation()
        bad = wl.check(out)
        expect(not bad, f"{name}: all checks pass at the tiny size {bad or ''}")
        for desc, needle, fn in cases:
            if name == "cli-run":
                backup = work / "backup"
                shutil.rmtree(backup, ignore_errors=True)
                shutil.copytree(wl.work, backup)
                fn(wl.work)
                bad = wl.check(out)
                shutil.rmtree(wl.work)
                shutil.move(str(backup), str(wl.work))
            else:
                bad = wl.check(fn(out))
            expect(any(needle in b for b in bad), f"{name}: rejects {desc}")
        if name == "cli-run":
            # a second identical run must reproduce every data file byte for byte
            expect(not wl.check(wl.operation()), "cli-run: a repeat reproduces the data files")
            wl.first_shas = {k: "0" * 64 for k in wl.first_shas}
            expect(any("differ from the first repeat" in b for b in wl.check(out)),
                   "cli-run: rejects data files that differ between repeats")
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
