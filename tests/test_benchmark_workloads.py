"""The benchmark's entry points stay callable: every workload declared in
BENCHMARK.json runs its input construction, one unit and its output check
once, in-process, under the solve log of ``perfbench/workloads.py``, as
``perfbench/run.py`` does, and once more under the span tracer of
``perfbench/tracing.py``, as ``run.py --trace 1`` does.  A change that breaks
a name the benchmark calls or wraps fails here.  Nothing under ``perfbench/``
is written."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.setattr(sys, "dont_write_bytecode", True)
        import tracing
        import workloads
    return workloads, tracing


def run_unit(workloads, name, out_dir):
    workload = workloads.WORKLOADS[name]
    log = workloads.SolveLog()
    with log.installed():
        inputs = workload.construct(0, out_dir)
        output = workload.unit(inputs)
        solves = log.take()
        assert workload.check(inputs, output, solves) == []
    assert solves


@pytest.mark.parametrize("name", DECLARED)
def test_workload_unit_passes_its_check(perfbench, name, tmp_path):
    run_unit(perfbench[0], name, tmp_path)


@pytest.mark.parametrize("name", DECLARED)
def test_traced_workload_unit_passes_its_check(perfbench, name, tmp_path):
    # the tracer wraps P1Space.__init__ and the layer functions it names
    workloads, tracing = perfbench
    tracer = tracing.Tracer()
    with tracer.installed():
        run_unit(workloads, name, tmp_path)
    layers = {span[tracing.NAME] for span in tracer.spans}
    assert {"fespace.space", "solver.mfg"} <= layers
