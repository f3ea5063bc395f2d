"""The benchmark's workloads, checked as the benchmark checks them.

``perfbench/workloads.py`` compares what each operation returns with closed
forms: ``cli-run`` reads ``grid_u.csv``, ``density.csv``, ``criteria.json``,
``envelope.csv`` and ``oracle_compare.csv`` of two CLI runs,
``density-cubic`` the g_F densities of ex_cubic's Z_1 and Y_1/2, and
``malliavin-counter`` ex_counter's PDE and LSMC routes, D_rY and the
Bouleau-Hirsch verdict.  One operation of each at its ``tiny`` size, with the
self-test's seed 3, must pass every check, so a change to what they read
fails here first.  The traced run's per-layer counts read result fields too
(``perfbench/tracing.py``), so one traced operation of ``malliavin-counter``
and of ``density-cubic`` must give the counts their sizes fix.
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


def test_traced_workloads_give_the_counts_their_sizes_fix(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("MalliavinCounter", "DensityCubic"):
            getattr(workloads, name)(3, workloads.SIZES["tiny"], tmp_path).operation()
    finally:
        tracer.uninstall()
    per = tracing._per_round(tracer.spans)
    assert per["mc.malliavin_calls"] == 3
    # 1,024 paths x 2 held columns x 4 arrays x 3 calls x 8 bytes
    assert per["mc.malliavin_result_mb"] == 1024 * 2 * 4 * 3 * 8 / 2**20 == 0.1875
    assert per["density.sampler_evals"] == 2
