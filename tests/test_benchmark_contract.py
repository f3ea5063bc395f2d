"""The files the benchmark's cli-run workload reads, checked as it checks them.

``perfbench/workloads.py`` reads ``grid_u.csv``, ``density.csv``,
``criteria.json``, ``envelope.csv`` and ``oracle_compare.csv`` of two CLI
runs and compares them with closed forms.  One operation at its ``tiny``
size must pass every check, so a change to those files fails here first.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_cli_run_workload_checks_pass_at_tiny_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.CliRun(3, workloads.SIZES["tiny"], tmp_path)
    assert wl.check(wl.operation()) == []
