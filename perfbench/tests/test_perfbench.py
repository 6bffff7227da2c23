"""Tests of the benchmark itself: its output contract, the traced counts at
the commit that defined it, and that every output check rejects a perturbed
answer.  Run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgfem as mf
import workloads
from mfgfem import analysis

ROOT = Path(__file__).resolve().parents[2]


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_declaration():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_end_to_end_metrics_printed_with_units():
    result = run_bench("verify_l5", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert printed(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_solve_l7_counts_and_per_layer_metrics():
    result = run_bench("solve_l7", 1)
    assert result["correct"]
    assert printed(result) == declared("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["lu.factor_calls"] == 67
    assert values["assembly.diffusion_calls"] == 118
    assert values["solver.outer_sweeps"] == 29
    assert values["solver.newton_steps"] == 36


def perturbed(fn, delta):
    return mf.P1Function(fn.space, fn.coeffs + delta)


def solved(problem, level=3):
    mesh = analysis.mesh_hierarchy("xz_square", level)[level]
    space = mf.P1Space(mesh)
    tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
    cfg = mf.SolverConfig()
    return space, tensor, cfg, mf.solve_mfg(space, problem, tensor, cfg)


def test_residual_check_rejects_perturbed_answer():
    problem = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)
    space, tensor, cfg, sol = solved(problem)
    assert workloads.solve_failures(space, problem, tensor, cfg, sol) == []
    for field in ("u", "m"):
        bad = dataclasses.replace(sol, **{field: perturbed(getattr(sol, field), 1e-6)})
        failures = workloads.solve_failures(space, problem, tensor, cfg, bad)
        assert any("residual" in f for f in failures)


def test_dmp_check_rejects_negative_density():
    problem = mf.make_g_one_problem()
    space, tensor, cfg, sol = solved(problem)
    assert problem.source.nonneg_certified
    assert workloads.solve_failures(space, problem, tensor, cfg, sol) == []
    dip = np.zeros(space.ndof)
    dip[0] = -sol.m.coeffs[0] - 1e-6
    bad = dataclasses.replace(sol, m=perturbed(sol.m, dip))
    failures = workloads.solve_failures(space, problem, tensor, cfg, bad)
    assert any("min m" in f for f in failures)


def test_exact_error_check_rejects_perturbed_answer():
    problem = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)
    _space, _tensor, _cfg, sol = solved(problem)
    ex = problem.exact
    expected = {"u": mf.error_h1(sol.u, ex.u.value, ex.u.grad),
                "m": mf.error_h1(sol.m, ex.m.value, ex.m.grad)}
    assert workloads.exact_error_failures(sol, problem, expected) == []
    for field in ("u", "m"):
        bad = dataclasses.replace(sol, **{field: perturbed(getattr(sol, field), 1e-5)})
        assert workloads.exact_error_failures(bad, problem, expected) != []


def test_ladder_check_rejects_perturbed_tables():
    ladder = workloads.StudyLadder()
    tables = ladder.unit(ladder.construct(0, None))
    assert workloads.ladder_failures(*tables) == []
    for which in range(3):
        bad = list(tables)
        records = list(bad[which].records)
        records[-1] = dataclasses.replace(records[-1], err_u_h1=2 * records[-1].err_u_h1)
        bad[which] = dataclasses.replace(bad[which], records=records)
        assert workloads.ladder_failures(*bad) != []


def test_verify_check_rejects_failed_report(tmp_path):
    verify = workloads.VerifyL5()
    inputs = verify.construct(3, tmp_path)
    exit_code = verify.unit(inputs)
    report = json.loads(inputs["report"].read_text())
    assert workloads.verify_failures(exit_code, report) == []
    report["all_pass"] = False
    report["results"]["h2_dmp"]["pass"] = False
    assert workloads.verify_failures(exit_code, report) != []
    assert workloads.verify_failures(1, None) != []


def test_rss_growth_check_rejects_memory_kept_across_units():
    import run

    assert run.rss_growth_failure(100.0, 123.0) is None
    assert run.rss_growth_failure(100.0, 160.0) is not None
