"""The benchmark's workloads: input construction, the timed unit of work, and
the check of every unit's output.

Every call into mfgfem goes through a module attribute (``mf.solve_mfg``,
``analysis.mesh_hierarchy``, ...), looked up when the call is made, so that
the tracer's wrappers are the ones called while it is installed.

Why each workload (see README.md for the layer-to-metric map):

* ``solve_l7`` -- one ``solve_mfg`` at 16,129 dofs.  LU factorization and the
  rebuilding of an unchanged diffusion matrix dominate, so factorization
  reuse, fewer outer sweeps and iterative solvers show here.
* ``study_ladder`` -- three convergence studies of many small solves, where
  per-call assembly and Python overhead dominate; it exercises ``analysis``.
  A change aimed at large levels should leave it unchanged.
* ``verify_l5`` -- ``mfgfem verify`` through ``cli.main``.  Each of its ~300
  factorizations is of a fresh random-drift operator, so caching gains
  nothing here and any set-up or memory it adds shows as a cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import scipy.sparse.linalg as spla

import mfgfem as mf
from mfgfem import analysis, assembly, cli

from tracing import Patches

# H1 errors of the level-7 solve against the exact pair, measured at the commit
# that added this benchmark (outer sweeps 29, Newton steps 36).
SOLVE_L7_H1 = {"u": 0.051264827659386225, "m": 0.04999837935175939}
# Solving the same instance to other converged iterates moved these errors by at
# most 4.7e-10: damping 0.25, 0.75 and 1 (70, 15 and 4 sweeps) and tol_outer
# 1e-10 and 3e-11 (1e-12 is below the residual floor and does not converge).
# 1e-7 leaves two orders of margin over that for a solver that stops elsewhere.
H1_MATCH_TOL = 1e-7

# EOC windows that `mfgfem convergence` applies to these instances: finest-level
# H1 EOC for the smooth sine pair; least-squares H1 slope of u, and its gap over
# the density's, for the rough instance.
SINE_H1_WINDOW = (0.85, 1.15)
ROUGH_U_H1_WINDOW = (0.8, 1.2)
ROUGH_H1_GAP_MIN = 0.2


# -- output checks ------------------------------------------------------------

def dual_norms(space, problem, tensor, u, m):
    """Dual norms of both discrete residuals at (u, m), recomputed here."""
    gram = spla.splu(assembly.assemble_h1_gram(space).tocsc())
    norms = []
    for r in (assembly.assemble_hjb_nonlinear_residual(space, u, m, problem, tensor),
              assembly.assemble_kfp_residual(space, u, m, problem, tensor)):
        norms.append(math.sqrt(max(float(r @ gram.solve(r)), 0.0)))
    return norms


def solve_failures(space, problem, tensor, cfg, sol):
    """Residual stopping test and, for a certified source, the maximum principle."""
    failures = []
    d1, d2 = dual_norms(space, problem, tensor, sol.u, sol.m)
    if not max(d1, d2) <= cfg.tol_outer:
        failures.append(f"residual dual norms ({d1:.3e}, {d2:.3e}) above {cfg.tol_outer:.1e}")
    min_m = float(sol.m.coeffs.min(initial=0.0))
    if problem.source.nonneg_certified and not min_m >= analysis.DMP_TOL:
        failures.append(f"nodal min m {min_m:.3e} below {analysis.DMP_TOL:.0e}")
    return failures


def exact_error_failures(sol, problem, expected, tol=H1_MATCH_TOL):
    """H1 errors against the exact pair must match the expected values."""
    ex = problem.exact
    got = {"u": mf.error_h1(sol.u, ex.u.value, ex.u.grad),
           "m": mf.error_h1(sol.m, ex.m.value, ex.m.grad)}
    return [f"H1 error of {k} is {got[k]!r}, expected {expected[k]!r}"
            for k in ("u", "m") if not abs(got[k] - expected[k]) <= tol]


def _outside(value, window):
    return not window[0] <= value <= window[1]


def ladder_failures(sine_xz, sine_acute, rough):
    """H1 EOC verdicts of the three convergence tables."""
    failures = []
    for label, table in (("sine xz", sine_xz), ("sine acute", sine_acute)):
        for field in ("err_u_h1", "err_m_h1"):
            eoc = table.finest_eoc(field)
            if _outside(eoc, SINE_H1_WINDOW):
                failures.append(f"{label} {field} EOC {eoc:.3f} outside {SINE_H1_WINDOW}")
    eoc_u = rough.fitted_eoc("err_u_h1")
    gap = eoc_u - rough.fitted_eoc("err_m_h1")
    if _outside(eoc_u, ROUGH_U_H1_WINDOW):
        failures.append(f"rough err_u_h1 slope {eoc_u:.3f} outside {ROUGH_U_H1_WINDOW}")
    if not gap >= ROUGH_H1_GAP_MIN:
        failures.append(f"rough H1 slope gap {gap:.3f} below {ROUGH_H1_GAP_MIN}")
    return failures


def verify_failures(exit_code, report):
    failures = []
    if exit_code != cli.EXIT_OK:
        failures.append(f"mfgfem verify exited with {exit_code}")
    if report is None or report.get("all_pass") is not True:
        failed = sorted(k for k, v in (report or {}).get("results", {}).items()
                        if not v.get("pass"))
        failures.append(f"verify report not all_pass (failed: {failed})")
    return failures


class SolveLog:
    """Keeps (space, problem, tensor, cfg, solution) of every ``solve_mfg``
    call made while installed, so that each solution can be checked."""

    def __init__(self):
        self.solves = []

    @contextlib.contextmanager
    def installed(self):
        original = mf.solver.solve_mfg

        def solve_mfg(space, problem, tensor, cfg=None):
            sol = original(space, problem, tensor, cfg)
            self.solves.append((space, problem, tensor, cfg or mf.SolverConfig(), sol))
            return sol

        patches = Patches()
        patches.everywhere(original, solve_mfg)
        try:
            yield self
        finally:
            patches.undo()

    def take(self):
        solves, self.solves = self.solves, []
        return solves


# -- workloads ------------------------------------------------------------------

class SolveL7:
    """One solve_mfg: manufactured sine, Huber R=1, nu=1, c_F=1, xz_square
    level 7 with the edge tensor, default SolverConfig."""

    name = "solve_l7"

    def construct(self, seed, out_dir):
        ham = mf.huber_ball(1.0)
        problem = mf.make_manufactured(1.0, ham, 1.0, domain="xz_square")
        mesh = analysis.mesh_hierarchy("xz_square", 7)[7]
        return {"space": mf.P1Space(mesh), "problem": problem,
                "tensor": mf.build_xz_tensor(mesh, ham.L_H), "cfg": mf.SolverConfig()}

    def unit(self, inputs):
        return mf.solve_mfg(inputs["space"], inputs["problem"], inputs["tensor"],
                            inputs["cfg"])

    def check(self, inputs, sol, solves):
        return (solve_failures(inputs["space"], inputs["problem"], inputs["tensor"],
                               inputs["cfg"], sol)
                + exact_error_failures(sol, inputs["problem"], SOLVE_L7_H1))


class StudyLadder:
    """Three convergence studies: sine on xz_square and on acute_rhombus at
    levels 2-5, and the rough-density instance on xz_square at levels 2-4
    against its level-6 reference through nested injection."""

    name = "study_ladder"

    def construct(self, seed, out_dir):
        ham = mf.huber_ball(1.0)
        return {"sine_xz": mf.make_manufactured(1.0, ham, 1.0, domain="xz_square"),
                "sine_acute": mf.make_manufactured(1.0, ham, 1.0, domain="acute_rhombus"),
                "rough": mf.make_rough_density_problem(1.0, ham, 1.0),
                "cfg": mf.SolverConfig()}

    def unit(self, inputs):
        cfg = inputs["cfg"]
        return (mf.run_convergence_study(inputs["sine_xz"], "xz_square", range(2, 6),
                                         "xz", cfg=cfg),
                mf.run_convergence_study(inputs["sine_acute"], "acute_rhombus",
                                         range(2, 6), "acute", cfg=cfg),
                mf.run_convergence_study(inputs["rough"], "xz_square", range(2, 5),
                                         "xz", cfg=cfg))

    def check(self, inputs, tables, solves):
        failures = ladder_failures(*tables)
        if len(solves) != 12:
            failures.append(f"expected 12 solves, saw {len(solves)}")
        for solve in solves:
            failures += solve_failures(*solve)
        return failures


class VerifyL5:
    """`mfgfem verify` through cli.main on xz_square level 5 with the default
    200 DMP trials and 50 monotonicity pairs; the workload seed is the verify seed."""

    name = "verify_l5"

    def construct(self, seed, out_dir):
        run_dir = Path(out_dir) / self.name
        run_dir.mkdir(parents=True, exist_ok=True)
        report = run_dir / "report.json"
        report.unlink(missing_ok=True)
        config = run_dir / "verify.cfg"
        config.write_text(f"mesh.family = xz_square\nmesh.level = 5\nseed = {seed}\n"
                          f"output.dir = {run_dir}\n")
        return {"config": str(config), "report": report}

    def unit(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", inputs["config"]])

    def check(self, inputs, exit_code, solves):
        try:
            report = json.loads(inputs["report"].read_text())
        except FileNotFoundError:
            report = None
        failures = verify_failures(exit_code, report)
        if not solves:
            failures.append("verify made no solve_mfg call")
        for solve in solves:
            failures += solve_failures(*solve)
        return failures


WORKLOADS = {w.name: w for w in (SolveL7(), StudyLadder(), VerifyL5())}
