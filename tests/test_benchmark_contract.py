"""The benchmark's workloads, checked as the benchmark checks them.

``perfbench/workloads.py`` compares what each operation returns with closed
forms: ``cli-run`` reads ``grid_u.csv``, ``density.csv``, ``criteria.json``,
``envelope.csv`` and ``oracle_compare.csv`` of two CLI runs,
``density-cubic`` the g_F densities of ex_cubic's Z_1 and Y_1/2, and
``malliavin-counter`` ex_counter's PDE and LSMC routes, D_rY and the
Bouleau-Hirsch verdict.  One operation of each at its ``tiny`` size, with the
self-test's seed 3, must pass every check, so a change to what they read
fails here first.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tiny_operation_problems(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = getattr(workloads, name)(3, workloads.SIZES["tiny"], tmp_path)
    return wl.check(wl.operation())


def test_cli_run_workload_checks_pass_at_tiny_size(tmp_path, monkeypatch):
    assert _tiny_operation_problems("CliRun", tmp_path, monkeypatch) == []


@pytest.mark.parametrize("name", ["DensityCubic", "MalliavinCounter"])
def test_workload_checks_pass_at_tiny_size(tmp_path, monkeypatch, name):
    assert _tiny_operation_problems(name, tmp_path, monkeypatch) == []
