"""The benchmark harness against the current package: each workload's operation
passes its oracle, untraced and traced, and the tracer sees the circuit run."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["mulq-superposed", "shift-dense", "cli-files"])
def test_workload_passes_its_oracle_untraced_and_traced(name, perfbench, tmp_path):
    workloads, tracing = perfbench
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    assert workload.problem(workload.op()) is None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            result = workload.op()
    finally:
        tracer.uninstall()
    assert workload.problem(result) is None
    assert "state.run_circuit" in {span[0] for span in tracer.spans}
