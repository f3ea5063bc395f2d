import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbsdelab import default_grid, preset, solve_u, solve_u_prime
from fbsdelab.cli import main, run
from fbsdelab.config import parse_config
from fbsdelab.errors import ParseError
from fbsdelab.expressions import compile_expression, differentiate, parse_expression
from fbsdelab.pde import GridSolution
from fbsdelab.tails import compute_constants

from conftest import assert_same_solution


# -- expression grammar -------------------------------------------------------

def test_expression_arithmetic():
    f = compile_expression("2*x + 3", ("x",))
    np.testing.assert_allclose(f(np.array([0.0, 1.0])), [3.0, 5.0])
    g = compile_expression("x^2*sin(x)/2", ("x",))
    assert g(2.0) == pytest.approx(2.0 * math.sin(2.0))
    # '^' binds right and tighter than unary minus in the exponent chain
    h = compile_expression("2^3^2", ("x",))
    assert h(0.0) == 512.0
    assert compile_expression("-x^2", ("x",))(3.0) == -9.0


def test_expression_functions_and_constants():
    f = compile_expression("exp(log(abs(x))) + cos(0)*tanh(0)", ("x",))
    assert f(-2.5) == pytest.approx(2.5)
    assert compile_expression("pi + e", ())() == pytest.approx(math.pi + math.e)


def test_expression_four_variables():
    h = compile_expression("(t-2)*x + y - z/2", ("t", "x", "y", "z"))
    assert h(0.5, 2.0, 1.0, 4.0) == pytest.approx(-4.0)


def test_expression_w_alias():
    f = compile_expression("w^2", ("t", "w"))
    assert f(0.0, 3.0) == 9.0


def test_expression_errors():
    with pytest.raises(ParseError) as exc:
        compile_expression("x + q", ("x",))
    assert "q" in str(exc.value)
    with pytest.raises(ParseError):
        compile_expression("foo(x)", ("x",))
    with pytest.raises(ParseError):
        compile_expression("(x + 1", ("x",))
    with pytest.raises(ParseError):
        compile_expression("x 1", ("x",))
    with pytest.raises(ParseError):
        compile_expression("", ("x",))


# -- symbolic derivatives -----------------------------------------------------

_VARS = ("t", "x", "y", "z")
_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 16))


def _compositions(sub):
    pair = st.tuples(sub, sub)
    return st.one_of(
        pair.map(lambda p: f"({p[0]} + {p[1]})"),
        pair.map(lambda p: f"({p[0]} - {p[1]})"),
        pair.map(lambda p: f"({p[0]} * {p[1]})"),
        pair.map(lambda p: f"({p[0]} / (2 + cos({p[1]})))"),
        # non-constant exponent on a positive base
        pair.map(lambda p: f"((2 + tanh({p[0]}))^tanh({p[1]}))"),
        sub.map(lambda a: f"(-{a})"),
        sub.map(lambda a: f"({a})^3"),
        sub.map(lambda a: f"exp(tanh({a}))"),
        sub.map(lambda a: f"log(2 + sin({a}))"),
        sub.map(lambda a: f"sin({a})"),
        sub.map(lambda a: f"cos({a})"),
        sub.map(lambda a: f"tanh({a})"),
        sub.map(lambda a: f"abs(tanh({a}) - 2)"),
    )


_EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(["t", "x", "w", "y", "z"]),
              st.floats(-1, 1).map(lambda v: f"({v:.3f})")),
    _compositions, max_leaves=6)


def _central(fn, points, i, step=1e-3):
    # five-point stencil, truncation error step^4 f^(5) / 30
    def at(k):
        p = points.copy()
        p[i] += k * step
        return fn(*p)
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * step)


def _tol(fd):
    # the stencil's roundoff and truncation errors scale with the sample's values
    return 1e-6 * (1.0 + float(np.max(np.abs(fd))))


@settings(max_examples=200, deadline=None)
@given(text=_EXPRESSIONS)
def test_symbolic_partials_match_central_differences(text):
    # first partials against differences of the expression, second partials
    # against differences of the symbolic first partial
    tree = parse_expression(text)
    f = compile_expression(tree, _VARS)
    for i, u in enumerate(_VARS):
        d1_tree = differentiate(tree, u)
        d1 = compile_expression(d1_tree, _VARS)
        v1 = d1(*_POINTS)
        fd1 = _central(f, _POINTS, i)
        np.testing.assert_allclose(v1, fd1, atol=_tol(fd1), err_msg=f"d/d{u} {text}")
        for j, v in enumerate(_VARS):
            d2 = compile_expression(differentiate(d1_tree, v), _VARS)
            fd2 = _central(d1, _POINTS, j)
            np.testing.assert_allclose(d2(*_POINTS), fd2, atol=_tol(fd2),
                                       err_msg=f"d2/d{u}d{v} {text}")
    assert differentiate(tree, "w") == differentiate(tree, "x")


def test_differentiate_folds_constants():
    d = lambda text, *vs: reduce(differentiate, vs, parse_expression(text))
    assert d("x^3", "x", "x") == ("*", ("num", 6.0), ("var", "x"))
    assert d("0.5*z^2", "z") == ("var", "z")
    assert d("(t-2)*x", "x", "t") == ("num", 1.0)
    assert d("3*x + y", "t") == ("num", 0.0)
    # abs differentiates to the internal sign node, which the parser rejects
    assert d("abs(x)", "x") == ("call", "sign", ("var", "x"))
    np.testing.assert_array_equal(compile_expression(d("abs(x)", "x"), ("x",))([-2.0, 3.0]),
                                  [-1.0, 1.0])
    with pytest.raises(ParseError):
        parse_expression("sign(x)")


# -- config parsing -----------------------------------------------------------

MINIMAL = """
[model]
preset = ex_counter
[tasks]
run = solve
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.tasks == ["solve"]
    assert cfg.build_spec().name == "ex_counter"


def test_parse_empty_tasks_valid():
    cfg = parse_config("[model]\npreset = ex_counter\n")
    assert cfg.tasks == []


def test_parse_duplicate_section():
    text = "[model]\npreset = ex_counter\n[model]\npreset = ex_cubic\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == 3


def test_parse_unknown_key():
    with pytest.raises(ParseError) as exc:
        parse_config("[model]\npreset = ex_counter\nfancy = 1\n")
    assert "fancy" in str(exc.value)
    assert exc.value.line == 3


def test_parse_rejects_g_quad_param():
    # presets are built without keyword arguments: the key was never read
    with pytest.raises(ParseError) as exc:
        parse_config("[model]\npreset = ex_quad_exp\ng_quad_param = 2\n")
    assert "g_quad_param" in str(exc.value)


def test_parse_rejects_bad_tails_target():
    with pytest.raises(ParseError) as exc:
        parse_config("[model]\npreset = ex_counter\n[tasks]\ntails_target = Q\n")
    assert "tails_target" in str(exc.value)


def test_parse_unknown_task():
    with pytest.raises(ParseError):
        parse_config("[model]\npreset = ex_counter\n[tasks]\nrun = fly\n")


def test_parse_expression_model_bad_symbol():
    text = "[model]\ng = x + unknown_sym\nh = 0\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert "unknown_sym" in str(exc.value)


@pytest.mark.parametrize("line, symbol, coeff", [("g = t*x", "t", "g"), ("b = y", "y", "b")])
def test_parse_rejects_symbol_outside_coefficient_args(line, symbol, coeff):
    # g is a function of x alone and b of (t, x): other variables are fatal at parse time
    with pytest.raises(ParseError) as exc:
        parse_config(f"[model]\n{line}\nh = 0\n")
    msg = str(exc.value)
    assert f"'{symbol}'" in msg and f"[model] {coeff} " in msg


def test_dependency_closure_noted():
    cfg = parse_config("[model]\npreset = ex_counter\n[tasks]\nrun = density\n")
    assert cfg.tasks == ["solve", "density"]
    assert any("solve" in n for n in cfg.inserted_dependencies)


def test_expression_model_builds():
    text = """
[model]
b = 0
sigma = 1
g = x^3
h = 3*x
T = 1
X0 = 0
"""
    spec = parse_config(text).build_spec()
    assert spec.g(2.0) == 8.0
    assert spec.h(0.0, 2.0, 0.0, 0.0) == 6.0


# -- runner -------------------------------------------------------------------

SMALL_RUN = """
[model]
preset = ex_counter
[numerics]
seed = 3
n_paths = 1500
n_steps = 32
nt = 41
nx = 121
n_mc = 1500
[tasks]
run = solve, criteria, density, oracle-compare
criteria_times = 0.1, 0.5
[output]
timestamps = false
"""


def test_run_pipeline(tmp_path):
    cfg = parse_config(SMALL_RUN)
    manifest = run(cfg, out_dir=tmp_path / "out")
    assert manifest["ok"]
    assert set(manifest["tasks"]) == {"solve", "criteria", "density", "oracle-compare"}
    files = {f["path"] for f in manifest["files"]}
    assert {"grid_u.csv", "criteria.json", "density.csv", "oracle_compare.csv"} <= files
    data = json.loads((tmp_path / "out" / "criteria.json").read_text())
    assert any(r["criterion"] == "H+" for r in data["reports"])


def test_run_determinism(tmp_path):
    cfg = parse_config(SMALL_RUN)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    for name in ("grid_u.csv", "density.csv", "gfunction.csv", "criteria.json",
                 "manifest.json", "oracle_compare.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_diagnostics_outside_data_files(tmp_path):
    cfg = parse_config(SMALL_RUN)
    manifest = run(cfg, out_dir=tmp_path / "out")
    diag = manifest["diagnostics"]
    assert set(diag) == {"solve", "oracle-compare"}
    for name in ("u", "u_prime"):
        assert set(diag["solve"][name]) == {"theta", "fallback_used", "max_iterations"}
        assert diag["solve"][name]["theta"] == 0.5
        assert diag["solve"][name]["fallback_used"] is False
        assert diag["solve"][name]["max_iterations"] >= 1
    oracle = diag["oracle-compare"]
    assert set(oracle) == {"saturation_rate", "warnings", "residual_max", "residual_mean"}
    assert oracle["saturation_rate"] == 0.0 and oracle["warnings"] == []
    for key in ("residual_max", "residual_mean"):
        assert math.isfinite(oracle[key]) and oracle[key] >= 0.0
    assert oracle["residual_mean"] <= oracle["residual_max"]
    on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert on_disk["diagnostics"] == json.loads(json.dumps(diag))
    # the diagnostics stay out of the checksummed data files
    listed = {f["path"]: f["sha256"] for f in manifest["files"]}
    assert "manifest.json" not in listed
    for name, digest in listed.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert b"fallback_used" not in data and b"saturation_rate" not in data


def test_run_failed_task_aborts_dependents(tmp_path):
    text = """
[model]
g = tanh(x)
h = 0
[numerics]
n_paths = 500
n_steps = 16
nt = 21
nx = 61
[tasks]
run = oracle-compare, criteria
criteria_times = 0.5
[output]
timestamps = false
"""
    cfg = parse_config(text)
    manifest = run(cfg, out_dir=tmp_path / "out")
    # the expression model has no closed-form oracle: that task fails,
    # its dependency ran fine, and the independent criteria task completes
    assert manifest["tasks"]["solve"] == "ok"
    assert manifest["tasks"]["oracle-compare"].startswith("failed")
    assert manifest["tasks"]["criteria"] == "ok"
    assert not manifest["ok"]


def test_criteria_large_K_keeps_finite_margins(tmp_path):
    # K = k_y = 800 at T = 1: every weight e^{-K T - sgn K s} is at most 1, so
    # the H and Htilde margins stay finite; g' = h_x = 1 > 0 rules out '-'
    text = """
[model]
b = 0
sigma = 1
g = x
h = 800*y + x
[tasks]
run = criteria
criteria_checks = first-order, second-order
criteria_times = 0.5
[output]
timestamps = false
"""
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["tasks"] == {"criteria": "ok"}
    rows = {r["criterion"]: r for r in json.loads((out / "criteria.json").read_text())["reports"]}
    assert set(rows) == {"H+", "H-", "Htilde+", "Htilde-"}
    assert all(math.isfinite(r["margin"]) for r in rows.values())
    assert rows["H-"]["verdict"] == "fails"


def _criteria_run(tmp_path, model, checks):
    cfg_path = tmp_path / "z.cfg"
    cfg_path.write_text(f"[model]\n{model}\n[tasks]\nrun = criteria\n"
                        f"criteria_checks = {checks}\ncriteria_times = 0.5\n"
                        "[output]\ntimestamps = false\n")
    out = tmp_path / "out"
    return main(["run", "--config", str(cfg_path), "--out", str(out)]), out


def test_criteria_task_errors_stay_per_time(tmp_path):
    # the task evaluates the box once from t = 0.1 on; only t = 0.1 reads the
    # rows where h_x = exp(2000 (0.65 - s)) overflows
    cfg_path = tmp_path / "w.cfg"
    cfg_path.write_text("[model]\nb = 0\nsigma = 1\ng = x\nh = x*exp(2000*(0.65-t))\n"
                        "[tasks]\nrun = criteria\ncriteria_checks = first-order, second-order\n"
                        "criteria_times = 0.1, 0.5, 0.9\n[output]\ntimestamps = false\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    node = "at (t, x, y, z) = (0.1, -6, -20, -20)"
    assert rows[:2] == [
        {"criterion": "first-order", "t": 0.1, "verdict": "evaluation-error",
         "error": f"h_x = inf {node}"},
        {"criterion": "second-order", "t": 0.1, "verdict": "evaluation-error",
         "error": f"h_xt = -inf {node}"}]
    assert [(r["criterion"], r["t"]) for r in rows[2:]] == [
        (c, t) for t in (0.5, 0.9) for c in ("H+", "H-", "Htilde+", "Htilde-")]


def test_criteria_z_checks_by_name(tmp_path):
    rc, out = _criteria_run(tmp_path, "preset = ex_cubic",
                            "z-lipschitz, z-quadratic, z-markovian")
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["tasks"] == {"criteria": "ok"}
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    assert [r["criterion"] for r in rows] == ["Z-lip", "Z-quad", "Z-markov-a", "Z-markov-b"]


def test_criteria_z_markovian_without_f_is_a_precondition_row(tmp_path):
    rc, out = _criteria_run(tmp_path, "b = 0\nsigma = 1\ng = x\nh = 0", "z-markovian")
    assert rc == 0
    assert json.loads((out / "manifest.json").read_text())["tasks"] == {"criteria": "ok"}
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    assert [(r["criterion"], r["verdict"]) for r in rows] == [
        ("z-markovian", "precondition-error")]
    assert "markovian_f" in rows[0]["error"]


def test_criteria_unknown_check_exits_2_before_writing(tmp_path, capsys):
    rc, out = _criteria_run(tmp_path, "preset = ex_cubic", "first-order, z-lipshitz")
    assert rc == 2
    assert not out.exists()
    assert "z-lipshitz" in capsys.readouterr().err


def test_cli_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN.replace("solve, criteria, density, oracle-compare",
                                          "solve"))
    rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o1"),
               "--no-timestamps"])
    assert rc == 0
    rc2 = main(["criteria", "--config", str(cfg_path), "--out", str(tmp_path / "o2"),
                "--no-timestamps"])
    assert rc2 == 0
    assert (tmp_path / "o2" / "criteria_table.txt").exists()


def test_cli_criteria_and_config_errors_do_not_load_lapack(tmp_path):
    # LAPACK (scipy.linalg) is imported on the first solve: importing the CLI,
    # a criteria-only run and a config error that exits 2 never load it
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SINGLE_TASK)
    script = (
        "import sys\n"
        "from fbsdelab.cli import main\n"
        "loaded = ['scipy.linalg' in sys.modules]\n"
        f"rc = main(['criteria', '--config', {str(cfg_path)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--no-timestamps'])\n"
        f"rc2 = main(['run', '--config', {str(tmp_path / 'missing.cfg')!r}])\n"
        "loaded.append('scipy.linalg' in sys.modules)\n"
        "print(rc, rc2, *loaded)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 2 False False"


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_RUN)
    main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "s1"),
          "--seed", "11", "--no-timestamps"])
    man = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    assert man["seed"] == 11


@pytest.mark.parametrize("task", ["density", "tails"])
def test_run_snapshot_at_step_zero_fails_naming_t(tmp_path, task):
    text = f"""
[model]
preset = ex_counter
[numerics]
n_steps = 32
nt = 41
nx = 121
n_mc = 500
[tasks]
run = {task}
{task}_t = 0.001
[output]
timestamps = false
"""
    manifest = run(parse_config(text), out_dir=tmp_path / "out")
    assert manifest["tasks"]["solve"] == "ok"
    status = manifest["tasks"][task]
    assert status.startswith("failed") and "t=0.001" in status and "step 0" in status


@pytest.mark.parametrize("task", ["density", "tails"])
def test_run_snapshot_past_T_fails_naming_t_and_T(tmp_path, task):
    text = f"""
[model]
preset = ex_counter
[numerics]
n_steps = 32
nt = 41
nx = 121
n_mc = 500
[tasks]
run = {task}, criteria
{task}_t = 1.5
criteria_times = 1.5
[output]
timestamps = false
"""
    cfg_path = tmp_path / "late.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tasks"]["solve"] == "ok" and manifest["tasks"]["criteria"] == "ok"
    status = manifest["tasks"][task]
    assert status.startswith("failed") and "t=1.5 lies outside [0, T] = [0, 1]" in status
    assert {f["path"] for f in manifest["files"]} == {
        "grid_u.csv", "grid_u.bin", "grid_uprime.bin", "criteria.json", "criteria_table.txt"}
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    assert {r["verdict"] for r in rows} == {"precondition-error"}
    assert all("t=1.5 lies outside" in r["error"] for r in rows)


def test_cli_missing_config_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 2
    assert not out.exists()
    assert "missing.cfg" in capsys.readouterr().err


def test_tails_constants_at_snapshot_time(tmp_path):
    # n_steps = 128 puts the snapshot on a T/64 grid: t = 0.51 rounds to 33/64
    text = """
[model]
preset = ex_cubic
[numerics]
n_steps = 128
nt = 41
nx = 121
n_mc = 500
[tasks]
run = tails
tails_target = Y
tails_t = 0.51
[output]
timestamps = false
"""
    out = tmp_path / "out"
    manifest = run(parse_config(text), out_dir=out)
    assert manifest["ok"]
    assert "# t=0.515625 " in (out / "envelope.csv").read_text()
    consts = json.loads((out / "tail_constants.json").read_text())
    assert consts["t"] == 0.515625
    spec = preset("ex_cubic")
    su = solve_u(spec, default_grid(spec, nt=41, nx=121))
    expected = compute_constants(su, 0.515625, 0.1, 0.1, 2.0).to_dict()
    for key in ("alpha_bar_v", "C_v", "C_vprime", "mu", "M"):
        assert consts["constants"][key] == expected[key]


# -- typed config values and the task table ------------------------------------

MALFORMED_VALUES = [
    ("numerics", "n_paths = 1e5"),
    ("numerics", "n_mc = 2.5e3"),
    ("numerics", "n_steps = 16.0"),
    ("numerics", "n_paths = abc"),
    ("numerics", "theta = abc"),
    ("numerics", "seed = -1"),
    ("tasks", "criteria_times = 0.1, abc"),
    ("tasks", "density_t = abc"),
    ("model", "T = abc"),
    ("model", "T = -1"),
    ("model", "regime = foo"),
    ("model", "preset = nope"),
    ("numerics", "seed = 1.5"),
    ("output", "timestamps = yes"),
    ("numerics", "n_paths = 0"),
    ("numerics", "n_steps = 0"),
    ("numerics", "n_mc = 0"),
    ("numerics", "n_u_nodes = 0"),
    ("numerics", "nt = 1"),
    ("numerics", "nx = 2"),
    ("numerics", "basis_degree = -1"),
    ("model", "preset = ex_cubic"),
]


def _config_with(section, line):
    """Config text whose line 4 is ``line`` inside ``section``."""
    if section == "model":
        return f"[model]\ng = x\nh = 0\n{line}\n"
    return f"[model]\npreset = ex_counter\n[{section}]\n{line}\n"


@pytest.mark.parametrize("section, line", MALFORMED_VALUES)
def test_parse_rejects_malformed_value_naming_key_and_line(section, line):
    # each of these used to crash a run, or run with a misread value
    with pytest.raises(ParseError) as exc:
        parse_config(_config_with(section, line))
    key = line.split("=")[0].strip()
    assert f"[{section}] {key} = " in str(exc.value)
    assert exc.value.line == 4


@pytest.mark.parametrize("line", ["T = 2", "regime = quadratic", "h = 0", "f = w"])
def test_parse_rejects_model_key_after_preset(line):
    # a preset is built as registered: a model key beside it would be ignored
    with pytest.raises(ParseError) as exc:
        parse_config(f"[model]\npreset = ex_cubic\n{line}\n")
    assert f"[model] {line.split('=')[0].strip()} = " in str(exc.value)
    assert exc.value.line == 3


@pytest.mark.parametrize("text, flags, named", [
    (_config_with("numerics", "seed = 1.5"), [], "[numerics] seed = 1.5"),
    (_config_with("model", "T = -1"), [], "[model] T = -1"),
    (SMALL_RUN, ["--seed", "-1"], "seed = -1"),
    (SMALL_RUN, ["--seed", "2.5"], "seed = 2.5"),
    (_config_with("numerics", "n_mc = 0"), [], "[numerics] n_mc = 0"),
], ids=["seed-float", "T-negative", "flag-seed-negative", "flag-seed-float", "n_mc-zero"])
def test_cli_bad_config_exits_2_before_writing(tmp_path, capsys, text, flags, named):
    # the --seed override goes through the config's seed parser
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


SINGLE_TASK = """
[model]
preset = ex_cubic
[numerics]
n_paths = 500
n_steps = 32
nt = 41
nx = 121
n_mc = 500
[tasks]
criteria_times = 0.5
tails_target = Y
[output]
timestamps = false
"""
SOLVE_FILES = {"grid_u.csv", "grid_u.bin", "grid_uprime.bin"}


@pytest.mark.parametrize("task, files", [
    ("solve", SOLVE_FILES),
    ("criteria", {"criteria.json", "criteria_table.txt"}),
    ("density", SOLVE_FILES | {"gfunction.csv", "density.csv"}),
    ("tails", SOLVE_FILES | {"envelope.csv", "tail_constants.json"}),
    ("oracle-compare", SOLVE_FILES | {"oracle_compare.csv"}),
])
def test_cli_single_task_subcommands(tmp_path, task, files):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SINGLE_TASK)
    out = tmp_path / "out"
    assert main([task, "--config", str(cfg_path), "--out", str(out), "--no-timestamps"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    deps = ["solve"] if task not in ("solve", "criteria") else []
    assert man["tasks"] == {name: "ok" for name in deps + [task]}
    assert man["notes"] == [f"dependency auto-inserted: solve (required by {task})"
                            for _ in deps]
    assert {f["path"] for f in man["files"]} == files
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}


def test_reused_out_names_the_files_the_run_did_not_write(tmp_path):
    # a stray file and the criteria files of an earlier run stay, unlisted,
    # and the manifest notes each of them; nothing is deleted
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SINGLE_TASK)
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out), "--no-timestamps"]
    assert main(["criteria", *args]) == 0
    (out / "grid_uprime.csv").write_text("stale\n")
    assert main(["solve", *args]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["notes"] == [f"unlisted, from an earlier run or a failed task: {name}"
                            for name in ("criteria.json", "criteria_table.txt",
                                         "grid_uprime.csv")]
    assert {f["path"] for f in man["files"]} == SOLVE_FILES
    assert (out / "grid_uprime.csv").read_text() == "stale\n"
    # a second run into the same directory notes the same files, byte for byte
    before = (out / "manifest.json").read_bytes()
    assert main(["solve", *args]) == 0
    assert (out / "manifest.json").read_bytes() == before


def test_solve_text_and_binaries_agree_bit_for_bit(tmp_path):
    # grid_u.csv's u column is grid_u.bin's u, and grid_uprime.bin is the u' solve
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SINGLE_TASK.replace("nx = 121", "nx = 121\ntheta = 0.75"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--no-timestamps"]) == 0
    lines = [ln for ln in (out / "grid_u.csv").read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,x,u"
    text = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    su = GridSolution.from_binary(out / "grid_u.bin")
    assert np.array_equal(text[:, 2], su.u.ravel())
    assert np.array_equal(text[:, :2], np.stack(np.meshgrid(su.t_nodes, su.x_nodes,
                                                            indexing="ij"), -1).reshape(-1, 2))
    cfg = parse_config(cfg_path.read_text())
    num, spec = cfg.numerics, cfg.build_spec()
    grid = default_grid(spec, nt=num["nt"], nx=num["nx"], width=num["grid_width"],
                        x_lo=num["x_lo"], x_hi=num["x_hi"])
    direct = solve_u_prime(spec, grid, theta=0.75)
    back = GridSolution.from_binary(out / "grid_uprime.bin")
    assert_same_solution(back, direct)
    assert (back.which, back.theta, back.boundary) == ("u_prime", 0.75, "extrapolation")


def test_criteria_non_finite_partial_is_an_evaluation_error_row(tmp_path):
    # h_y = log(x^2) is -inf on x = 0, a node of the criteria box but not of
    # the even PDE grid: each check that reads h_y is one evaluation-error row
    # naming it, x-sign still reports, and every task succeeds
    text = """
[model]
b = 0
sigma = 1
g = x
h = x + log(x^2)*y
[numerics]
n_steps = 32
nt = 41
nx = 120
n_mc = 500
[tasks]
run = solve, criteria, density
criteria_checks = first-order, second-order, x-sign
criteria_times = 0.5
[output]
timestamps = false
"""
    manifest = run(parse_config(text), out_dir=tmp_path / "out")
    assert manifest["tasks"] == {"solve": "ok", "criteria": "ok", "density": "ok"}
    rows = json.loads((tmp_path / "out" / "criteria.json").read_text())["reports"]
    assert [(r["criterion"], r["verdict"]) for r in rows[:2]] == [
        ("first-order", "evaluation-error"), ("second-order", "evaluation-error")]
    assert all(r["error"] == "h_y = -inf at (t, x, y, z) = (0.5, 0, -20, -20)" for r in rows[:2])
    assert [r["criterion"] for r in rows[2:]] == ["X+", "X-"]


def test_oracle_times_outside_horizon_fail_the_task(tmp_path):
    cfg_path = tmp_path / "late.cfg"
    cfg_path.write_text(SMALL_RUN.replace("criteria_times = 0.1, 0.5",
                                          "criteria_times = 0.5\noracle_times = 0.5, 1.5, -0.25"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    status = manifest["tasks"]["oracle-compare"]
    assert status.startswith("failed") and "t=1.5 lies outside [0, T] = [0, 1]" in status
    assert all(manifest["tasks"][t] == "ok" for t in ("solve", "criteria", "density"))
    assert not (out / "oracle_compare.csv").exists()


def test_solve_non_finite_system_fails_the_task_naming_the_node(tmp_path):
    # with nx = 121, x = 0 is a grid node, where h = x + log(x^2)*y is NaN:
    # solve fails naming the node, the manifest is written, criteria still runs
    cfg_path = tmp_path / "nan.cfg"
    cfg_path.write_text("[model]\nb = 0\nsigma = 1\ng = x\nh = x + log(x^2)*y\n"
                        "[numerics]\nnx = 121\n[tasks]\nrun = solve, criteria\n"
                        "[output]\ntimestamps = false\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    tasks = json.loads((out / "manifest.json").read_text())["tasks"]
    assert tasks["solve"] == "failed: non-finite PDE coefficient or source at (t, x) = (0.992188, 0)"
    assert tasks["criteria"] == "ok"
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    assert rows and all(r["verdict"] == "evaluation-error" and r["error"].startswith("h_y = -inf at")
                        for r in rows)


def test_criteria_timeless_check_reports_once(tmp_path):
    cfg_path = tmp_path / "x.cfg"
    cfg_path.write_text("[model]\npreset = ex_counter\n[tasks]\nrun = criteria\n"
                        "criteria_checks = x-sign, quadratic\ncriteria_times = 0.1, 0.5, 0.9\n"
                        "[output]\ntimestamps = false\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = json.loads((out / "criteria.json").read_text())["reports"]
    assert [r["criterion"] for r in rows] == ["X+", "X-", "Q+", "Q-", "Q+", "Q-", "Q+", "Q-"]
    table = (out / "criteria_table.txt").read_text().splitlines()
    assert [line.split()[0] for line in table if line.startswith("X")] == ["X+", "X-"]
