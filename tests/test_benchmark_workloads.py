"""The benchmark's entry points stay callable: every workload declared in
BENCHMARK.json runs its input construction, one unit and its output check
once, in-process, under the solve log of ``perfbench/workloads.py``, as
``perfbench/run.py`` does.  A change that breaks a name the benchmark calls
fails here.  Nothing under ``perfbench/`` is written."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.setattr(sys, "dont_write_bytecode", True)
        import workloads
    return workloads


@pytest.mark.parametrize("name", DECLARED)
def test_workload_unit_passes_its_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    log = workloads.SolveLog()
    with log.installed():
        inputs = workload.construct(0, tmp_path)
        output = workload.unit(inputs)
        solves = log.take()
        assert workload.check(inputs, output, solves) == []
    assert solves
