import json
import math

import numpy as np
import pytest

from fbsdelab.cli import main, run
from fbsdelab.config import parse_config
from fbsdelab.errors import ParseError
from fbsdelab.expressions import compile_expression


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


def test_parse_unknown_task():
    with pytest.raises(ParseError):
        parse_config("[model]\npreset = ex_counter\n[tasks]\nrun = fly\n")


def test_parse_expression_model_bad_symbol():
    text = "[model]\ng = x + unknown_sym\nh = 0\n"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert "unknown_sym" in str(exc.value)


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
