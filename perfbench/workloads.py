"""The three benchmark workloads: one timed operation and its checks each.

A workload is built from the benchmark seed and a size table.  ``operation``
runs the program once (this is what ``wall_s`` times); ``check`` compares
that operation's outputs with ``references`` or with a property of the
method and returns the list of failed checks, empty when all hold.

The program is always reached through module attributes (``mc.simulate_forward``
rather than a name imported at load time) so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import references as ref

# Sizes used by the benchmark runs and, much smaller, by the self-test.  The
# tolerances are part of the size: Monte Carlo errors scale with the sample.
SIZES = {
    "full": {
        # AC1 shape (256 steps, three r values) with the path count cut from
        # 1e5, where the three retained ensembles peak at 5.2 GB
        "mall_paths": 8192,
        "mc_mean_tol": 5e-3, "mc_p99_tol": 0.025,
        # AC2 uses 1e5 draws, 50-56 s per operation; short operations give
        # more of them per run, and the median of many is steadier
        "gf_draws": 16384,
        "gf_z_tol": 0.15, "gf_y_tol": 0.025, "gf_defect_tol": 0.1,
        "cli_n_mc": 4000, "cli_n_paths": 8192,
        "cli_density_tol": 0.1, "cli_mc_mean_tol": 0.05,
    },
    "tiny": {
        "mall_paths": 1024,
        "mc_mean_tol": 1e-2, "mc_p99_tol": 0.05,
        "gf_draws": 5000,
        "gf_z_tol": 0.25, "gf_y_tol": 0.03, "gf_defect_tol": 0.1,
        "cli_n_mc": 1000, "cli_n_paths": 1024,
        "cli_density_tol": 0.15, "cli_mc_mean_tol": 0.05,
    },
}

MALL_STEPS = 256
MALL_R = (8 / 256, 32 / 256, 48 / 256)
ROUTE_TIMES = (0.1, 0.5, 0.9)


def _close(name, value, expected, tol):
    if not (abs(value - expected) <= tol):
        return [f"{name}: {value!r} differs from {expected!r} by more than {tol:g}"]
    return []


def _below(name, value, tol):
    if not (value <= tol):
        return [f"{name}: {value!r} exceeds {tol:g}"]
    return []


class MalliavinCounter:
    """ex_counter at the AC1 shape: PDE and LSMC routes, three Malliavin calls, BH verdict."""

    name = "malliavin-counter"

    def __init__(self, seed, size, workdir):
        import fbsdelab

        self.fl = fbsdelab
        self.seed = seed
        self.size = size
        self.spec = fbsdelab.model.preset("ex_counter")

    def operation(self):
        fl, spec = self.fl, self.spec
        grid = fl.pde.default_grid(spec, nt=201, nx=401)
        su = fl.pde.solve_u(spec, grid)
        sp = fl.pde.solve_u_prime(spec, grid, sol_u=su)
        ens = fl.mc.simulate_forward(spec, self.size["mall_paths"], MALL_STEPS, self.seed)
        sol = fl.mc.solve_bsde_regression(spec, ens)
        routes = {}
        for t in ROUTE_TIMES:
            k = ens.index_of(t, nearest=True)
            tk = float(ens.t_grid[k])
            x = ens.X[:, k]
            routes[t] = (tk, x - spec.X0, su.eval(tk, x), sol.Y[:, k])
        t_star = float(ens.t_grid[ens.index_of(ref.T_STAR, nearest=True)])
        malls = [fl.mc.solve_malliavin_bsde(spec, ens, (su, sp), r=r, times=[0.5, t_star])
                 for r in MALL_R]
        bh = fl.density.bouleau_hirsch_diagnostic(malls, t_star)
        return {"routes": routes, "dry_half": [m.at(0.5) for m in malls],
                "t_star": t_star, "bh": bh}

    def check(self, out):
        s = self.size
        bad = []
        for t, (tk, w, y_pde, y_mc) in out["routes"].items():
            exact = ref.counter_y(tk, w)
            bad += _below(f"PDE route max error at t={tk:g}", float(np.max(np.abs(y_pde - exact))), 1e-3)
            # not the max: the few extreme paths carry the basis's edge error
            # (0.23 on one of 8192 paths at t = 0.9 for seed 3)
            err = np.abs(y_mc - exact)
            bad += _below(f"LSMC mean error at t={tk:g}", float(np.mean(err)), s["mc_mean_tol"])
            bad += _below(f"LSMC 99th-percentile error at t={tk:g}",
                          float(np.quantile(err, 0.99)), s["mc_p99_tol"])
        c_half = float(ref.counter_c(0.5))
        for r, d in zip(MALL_R, out["dry_half"]):
            bad += _below(f"D_rY_1/2 - c(1/2) at r={r:g}", float(np.max(np.abs(d - c_half))), 1e-6)
        bh, t_star = out["bh"], out["t_star"]
        if bh.verdict != "degenerate":
            bad.append(f"BH verdict at t*={t_star:g} is {bh.verdict!r}, expected 'degenerate'")
        # D_r Y_t* = c(t*) for every r, so the rectangle rule gives c(t*)^2 t*
        norm = float(ref.counter_c(t_star)) ** 2 * t_star
        bad += _below("BH norm - c(t*)^2 t*", float(np.max(np.abs(bh.norms - norm))), 1e-8)
        return bad


class DensityCubic:
    """ex_cubic: g_F reconstruction of the laws of Z_1 and Y_1/2 from the PDE samplers."""

    name = "density-cubic"

    def __init__(self, seed, size, workdir):
        import fbsdelab

        self.fl = fbsdelab
        self.seed = seed
        self.size = size
        self.spec = fbsdelab.model.preset("ex_cubic")

    def operation(self):
        fl, spec = self.fl, self.spec
        grid = fl.pde.default_grid(spec, nt=201, nx=801, x_lo=-12.0, x_hi=12.0)
        su = fl.pde.solve_u(spec, grid)
        sp = fl.pde.solve_u_prime(spec, grid, sol_u=su)
        samplers = {"Z_1": fl.density.pde_z_sampler(spec, sp, 1.0, n_steps=64),
                    "Y_1/2": fl.density.pde_y_sampler(spec, su, 0.5, n_steps=64, sol_uprime=sp)}
        out = {}
        for key, sam in samplers.items():
            gf = fl.density.estimate_gF(sam, n_mc=self.size["gf_draws"], n_u_nodes=16,
                                        seed=self.seed, antithetic=True)
            out[key] = fl.density.density_from_gF(gf)
        return out

    def check(self, out):
        s = self.size
        laws = {"Z_1": (ref.cubic_z1_pdf, ref.cubic_z1_central(), s["gf_z_tol"]),
                "Y_1/2": (ref.cubic_y_half_pdf, ref.cubic_y_half_central(), s["gf_y_tol"])}
        bad = []
        for key, (pdf, (lo, hi), tol) in laws.items():
            de = out[key]
            if de.verdict != "ok":
                bad.append(f"{key}: density verdict {de.verdict!r}")
                continue
            err, n = ref.sup_error(de.x_nodes, de.rho, pdf, lo, hi)
            bad += _below(f"{key} sup error on the central 90% ({n} nodes)", err, tol)
            # the density is not renormalized: the defect is |int rho - 1|
            defect = abs(float(np.trapezoid(de.rho, de.x_nodes)) - 1.0)
            bad += _below(f"{key} normalization defect", defect, s["gf_defect_tol"])
            bad += _close(f"{key} reported defect", de.normalization_defect, defect, 1e-9)
        return bad


COUNTER_CFG = """\
[model]
b = 0
sigma = 1
g = x
h = (t-2)*x
[numerics]
seed = {seed}
n_steps = 128
nt = 129
nx = 401
n_mc = {n_mc}
[tasks]
run = solve, criteria, density, tails
criteria_times = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9
criteria_checks = first-order, second-order, x-sign
density_target = Y
density_t = 0.5
tails_target = Y
tails_t = 1.0
[output]
timestamps = false
"""

QUAD_CFG = """\
[model]
preset = ex_quad_exp
[numerics]
seed = {seed}
n_paths = {n_paths}
n_steps = 128
nt = 129
nx = 401
n_mc = {n_mc}
[tasks]
run = solve, criteria, density, oracle-compare
criteria_times = 0.5
criteria_checks = quadratic, x-sign
density_target = Y
density_t = 0.5
oracle_times = 0.25, 0.5, 0.75
[output]
timestamps = false
"""


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], np.array(rows[1:], dtype=float)


class CliRun:
    """``fbsdelab.cli.main(["run", ...])`` in-process over two configs."""

    name = "cli-run"

    def __init__(self, seed, size, workdir):
        import fbsdelab.cli

        self.cli = fbsdelab.cli
        self.work = Path(workdir) / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        texts = {"counter": COUNTER_CFG.format(seed=seed, n_mc=size["cli_n_mc"]),
                 "quad": QUAD_CFG.format(seed=seed, n_mc=size["cli_n_mc"],
                                         n_paths=size["cli_n_paths"])}
        self.configs = {}
        for key, text in texts.items():
            path = self.work / f"{key}.cfg"
            path.write_text(text)
            self.configs[key] = path
            fbsdelab.config.parse_config(text).build_spec()
        self.size = size
        self.first_shas = None

    def operation(self):
        codes = {}
        for key, path in self.configs.items():
            # every repeat rewrites the same files; check reads only those
            with contextlib.redirect_stdout(io.StringIO()):
                codes[key] = self.cli.main(["run", "--config", str(path),
                                            "--out", str(self.work / key), "--no-timestamps"])
        return codes

    def check(self, codes):
        bad = []
        shas = {}
        for key, code in codes.items():
            out = self.work / key
            manifest = json.loads((out / "manifest.json").read_text())
            if code != 0 or not manifest["ok"]:
                bad.append(f"{key}: exit {code}, tasks {manifest['tasks']}")
                continue
            for f in manifest["files"]:
                digest = hashlib.sha256((out / f["path"]).read_bytes()).hexdigest()
                if digest != f["sha256"]:
                    bad.append(f"{key}/{f['path']}: manifest SHA-256 does not match the file")
                shas[f"{key}/{f['path']}"] = digest
            bad += getattr(self, f"_check_{key}")(out)
        if self.first_shas is None:
            self.first_shas = shas
        elif shas != self.first_shas:
            diff = sorted(k for k in set(shas) | set(self.first_shas)
                          if shas.get(k) != self.first_shas.get(k))
            bad.append(f"data files differ from the first repeat: {diff}")
        return bad

    # -- per-config checks -----------------------------------------------------

    def _grid_u(self, out, exact, name, tol):
        _, a = _read_csv(out / "grid_u.csv")
        t, x, u = a[:, 0], a[:, 1], a[:, 2]
        # box interior: the artificial boundary closure acts on the outer nodes
        inner = np.abs(x) <= 0.5 * float(np.max(np.abs(x)))
        err = float(np.max(np.abs(u[inner] - exact(t[inner], x[inner]))))
        return _below(f"{name} grid_u vs value function (interior)", err, tol)

    def _density(self, out, pdf, central, name):
        _, a = _read_csv(out / "density.csv")
        err, n = ref.sup_error(a[:, 0], a[:, 1], pdf, *central)
        peak = float(np.max(pdf(a[:, 0])))
        return _below(f"{name} density sup error / peak ({n} nodes)", err / peak,
                      self.size["cli_density_tol"])

    def _check_counter(self, out):
        # u = x c(t) is linear in x, which the scheme reproduces to rounding
        bad = self._grid_u(out, ref.counter_y, "counter", 1e-9)
        reps = json.loads((out / "criteria.json").read_text())["reports"]
        by = {}
        for r in reps:
            by.setdefault(r["criterion"], []).append(r)
        # the partials are finite differences of linear expressions: the
        # margins are exact to ~1e-8 although the declared resolution is 1e-3
        h_plus = sorted((r["t"], r["margin"], r["verdict"]) for r in by.get("H+", []))
        if len(h_plus) != 9:
            return bad + [f"counter: {len(h_plus)} H+ reports, expected 9"]
        for t, m, _ in h_plus:
            bad += _close(f"H+ margin at t={t:g}", m, float(ref.first_order_margin(t)), 1e-6)
        for r in by.get("Htilde+", []):
            bad += _close(f"Htilde+ margin at t={r['t']:g}", r["margin"],
                          float(ref.second_order_margin(r["t"])), 1e-6)
        flips = [(t0, t1) for (t0, _, v0), (t1, _, v1) in zip(h_plus, h_plus[1:])
                 if v0 == "fails" and v1 == "holds"]
        if len(flips) != 1:
            bad.append(f"H+ verdict flips {len(flips)} times, expected once")
        else:
            # the margin is a parabola in t, so a quadratic fit recovers its root
            ts, ms, _ = zip(*h_plus)
            roots = np.roots(np.polyfit(ts, ms, 2))
            inside = [float(r.real) for r in roots if flips[0][0] <= r.real <= flips[0][1]]
            if len(inside) != 1:
                bad.append(f"H+ margin has no root between {flips[0]}")
            else:
                bad += _close("first-order flip", inside[0], ref.T_FLIP, 1e-6)
        for r in by.get("X+", []):
            bad += _close("X+ margin (sigma = 1)", r["margin"], 0.0, 1e-9)
        for r in by.get("X-", []):
            bad += _close("X- margin (sigma = 1)", r["margin"], -1.0, 1e-9)
        var = ref.COUNTER_Y_HALF_VAR
        bad += self._density(out, lambda y: ref.normal_pdf(y, var), ref.normal_central(var),
                             "counter Y_1/2")
        _, env = _read_csv(out / "envelope.csv")
        lower, upper = env[:, 1], env[:, 2]
        if not np.all(lower <= upper):
            bad.append(f"tails: lower > upper at {int(np.sum(lower > upper))} nodes")
        return bad

    def _check_quad(self, out):
        bad = self._grid_u(out, ref.quad_value, "quad", 5e-4)
        reps = {r["criterion"]: r for r in json.loads((out / "criteria.json").read_text())["reports"]}
        box = reps["Q+"]["box"]
        x_hi = float(box.split("x:[", 1)[1].split(",", 1)[1].split("]", 1)[0])
        # Q+: inf g' over the box, g' = sech^2 decreasing in |x|
        bad += _close("Q+ margin", reps["Q+"]["margin"], 1.0 / math.cosh(x_hi) ** 2, 1e-9)
        if reps["Q+"]["verdict"] != "holds" or reps["Q-"]["verdict"] != "fails":
            bad.append(f"quadratic verdicts {reps['Q+']['verdict']}/{reps['Q-']['verdict']}")
        bad += _close("Q- margin", reps["Q-"]["margin"], 1.0, 1e-9)
        bad += self._density(out, ref.quad_y_half_pdf, ref.quad_y_half_central(), "quad Y_1/2")
        _, oc = _read_csv(out / "oracle_compare.csv")
        bad += _below("oracle-compare PDE max error", float(np.max(oc[:, 1])), 1e-3)
        # the degree-4 LSMC fit is off by 0.7-1.7 on |x| > 2.6, so use the mean
        bad += _below("oracle-compare LSMC mean error", float(np.max(oc[:, 3])),
                      self.size["cli_mc_mean_tol"])
        return bad


WORKLOADS = {w.name: w for w in (MalliavinCounter, DensityCubic, CliRun)}
