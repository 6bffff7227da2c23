"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances are fixed here, not calibrated after the fact:

1. smooth-rate reproduction on the XZ square family, judged at the finest
   increment of levels 2-6:
   a. H1 EOC of u and m in [0.85, 1.15], in under 2 minutes;
   b. L2 EOC of u and m in [0.85, 1.15] with the edge tensor active, and in
      [1.7, 2.3] on the same meshes without stabilization.  The edge tensor
      omega_E = omega_factor L_H diam(E) never vanishes; it perturbs the
      diffusion by O(h), and that consistency error is O(h) in L2 as well as
      in H1, so with it the L2 rate is first order.  The second-order L2 rate
      belongs to the Galerkin part of the scheme and is checked where the
      stabilization is absent,
2. full quasi-optimality on the acute rhombus family (vanished stabilization,
   H1 EOC in [0.85, 1.15] and L2 EOC in [1.7, 2.3]),
3. discrete maximum principle on both families plus 200 sampled drift/load
   trials at level 4, and the DMP certificate for the whole advection class
   |b| <= L_H on both families at levels 2-6,
4. rough-density experiment with reference solutions two levels finer,
5. the L2 monotonicity inequality over 50 random nonnegative/free pairs,
6. first-order floor for the auxiliary nonnegative density approximation,
7. residual dual norms at most the outer tolerance at every converged solve,
8. Hamiltonian calculus checks,
9. hand-derived assembly oracles.
"""

import math

import numpy as np

import mfgfem as mf
from mfgfem import assembly
from mfgfem.analysis import check_l2_monotonicity_inequality, error_l2
from mfgfem.hamiltonian import check_gradient, check_semismooth_bound
from mfgfem.solver import solve_m_k_plus

from conftest import kfp_drift_oracle, record_criterion


def in_window(value, lo, hi):
    return lo <= value <= hi


class TestCriterion1SmoothRatesXZ:
    def test_h1_windows_and_runtime(self, xz_study):
        table, seconds = xz_study
        eoc_u = table.finest_eoc("err_u_h1")
        eoc_m = table.finest_eoc("err_m_h1")
        ok = (in_window(eoc_u, 0.85, 1.15) and in_window(eoc_m, 0.85, 1.15)
              and seconds < 120.0)
        record_criterion(
            "criterion 1a: XZ family H1 rates (finest increment) and runtime", ok,
            f"eoc_u_H1={eoc_u:.3f}, eoc_m_H1={eoc_m:.3f}, runtime={seconds:.1f}s")
        assert ok

    def test_l2_windows(self, xz_study, xz_unstabilized_study):
        table, _ = xz_study
        eoc_u = table.finest_eoc("err_u_l2")
        eoc_m = table.finest_eoc("err_m_l2")
        eoc_u0 = xz_unstabilized_study.finest_eoc("err_u_l2")
        eoc_m0 = xz_unstabilized_study.finest_eoc("err_m_l2")
        ok = (in_window(eoc_u, 0.85, 1.15) and in_window(eoc_m, 0.85, 1.15)
              and in_window(eoc_u0, 1.7, 2.3) and in_window(eoc_m0, 1.7, 2.3))
        record_criterion(
            "criterion 1b: XZ family L2 rates (finest increment)", ok,
            f"edge tensor: eoc_u_L2={eoc_u:.3f}, eoc_m_L2={eoc_m:.3f}; "
            f"unstabilized: eoc_u_L2={eoc_u0:.3f}, eoc_m_L2={eoc_m0:.3f}")
        assert ok


class TestCriterion2AcuteFamily:
    def test_vanishing_stabilization_and_rates(self, acute_study,
                                               rhombus_hierarchy):
        table = acute_study
        # clamp level for nu = L_H = 1, mu = 1.1 is level 1; every solved level
        # must carry an identically zero tensor
        zero_past_clamp = True
        for level in range(2, 7):
            tensor = mf.build_acute_tensor(rhombus_hierarchy[level], 1.0, 1.0, mu=1.1)
            zero_past_clamp &= tensor.is_zero
        stab_columns_zero = all(r.stab_term_u == 0.0 and r.stab_term_m == 0.0
                                for r in table.records)
        eoc_u = table.finest_eoc("err_u_h1")
        eoc_m = table.finest_eoc("err_m_h1")
        eoc_u2 = table.finest_eoc("err_u_l2")
        eoc_m2 = table.finest_eoc("err_m_l2")
        ok = (zero_past_clamp and stab_columns_zero
              and in_window(eoc_u, 0.85, 1.15) and in_window(eoc_m, 0.85, 1.15)
              and in_window(eoc_u2, 1.7, 2.3) and in_window(eoc_m2, 1.7, 2.3))
        record_criterion(
            "criterion 2: acute family, vanished stabilization and rates", ok,
            f"D==0 past clamp: {zero_past_clamp}, eoc_u_H1={eoc_u:.3f}, "
            f"eoc_m_H1={eoc_m:.3f}, eoc_u_L2={eoc_u2:.3f}, eoc_m_L2={eoc_m2:.3f}")
        assert ok


class TestCriterion3DiscreteMaximumPrinciple:
    def test_nonnegative_density_both_families(self, g_one_solutions):
        worst = {}
        for family, (problem, sols) in g_one_solutions.items():
            worst[family] = min(sol.m.coeffs.min(initial=0.0)
                                for sol, _ in sols.values())
        ok = all(v >= -1e-10 for v in worst.values())
        record_criterion(
            "criterion 3a: min nodal density, both families, levels 2-6", ok,
            ", ".join(f"{fam}: {val:.2e}" for fam, val in worst.items()))
        assert ok

    def test_sampled_dmp_trials_level4(self, square_hierarchy, rhombus_hierarchy):
        mesh_s = square_hierarchy[4]
        ok_s = mf.verify_h2_dmp(mf.P1Space(mesh_s), 1.0,
                                mf.build_xz_tensor(mesh_s, 1.0),
                                L_H=1.0, trials=200, seed=0)
        mesh_r = rhombus_hierarchy[4]
        ok_r = mf.verify_h2_dmp(mf.P1Space(mesh_r), 1.0,
                                mf.build_acute_tensor(mesh_r, 1.0, 1.0),
                                L_H=1.0, trials=200, seed=0)
        ok = bool(ok_s and ok_r)
        record_criterion(
            "criterion 3b: 200 random drift/load DMP trials at level 4", ok,
            f"xz_square: {ok_s}, acute_rhombus: {ok_r}")
        assert ok

    def test_certificate_levels_2_to_6(self, square_spaces, rhombus_spaces):
        worst = {}
        ok = True
        for family, spaces in (("xz_square", square_spaces),
                               ("acute_rhombus", rhombus_spaces)):
            worst[family] = -math.inf
            for space in spaces[2:7]:
                tensor = (mf.build_xz_tensor(space.mesh, 1.0) if family == "xz_square"
                          else mf.build_acute_tensor(space.mesh, 1.0, 1.0))
                certified, margin = mf.certify_dmp(space, 1.0, tensor, 1.0)
                ok &= certified
                worst[family] = max(worst[family], margin)
        record_criterion(
            "criterion 3c: DMP certificate for |b| <= L_H, both families, levels 2-6", ok,
            ", ".join(f"{fam}: worst margin {val:.3g}" for fam, val in worst.items()))
        assert ok


class TestCriterion4RoughDensity:
    def test_rate_windows_and_separation(self, rough_study):
        # levels 2-5 with the reference two levels finer; the windows are judged
        # on the least-squares slope across the level range
        table = rough_study
        eoc_u = table.fitted_eoc("err_u_h1")
        eoc_m_l2 = table.fitted_eoc("err_m_l2")
        eoc_m_h1 = table.fitted_eoc("err_m_h1")
        separation = eoc_u - eoc_m_h1
        ok = (in_window(eoc_u, 0.8, 1.2) and in_window(eoc_m_l2, 0.8, 1.2)
              and separation >= 0.2)
        record_criterion(
            "criterion 4: rough instance rates and regularity separation", ok,
            f"eoc_u_H1={eoc_u:.3f}, eoc_m_L2={eoc_m_l2:.3f}, "
            f"eoc_m_H1={eoc_m_h1:.3f}, separation={separation:.3f}")
        assert ok


class TestCriterion5MonotonicityInequality:
    def test_fifty_random_pairs(self, g_one_tight_level4, g_one_problem):
        space, tensor, solution = g_one_tight_level4
        ok, worst = check_l2_monotonicity_inequality(
            space, g_one_problem, tensor, solution, pairs=50, seed=0)
        record_criterion(
            "criterion 5: L2 monotonicity inequality, 50 pairs at level 4", ok,
            f"worst lhs-rhs = {worst:.3e} (slack 1e-9)")
        assert ok


class TestCriterion6AuxiliaryDensityFloor:
    def test_m_k_plus_l2_rate(self, sine_problem, square_hierarchy):
        errors, hs = [], []
        for level in range(3, 7):
            mesh = square_hierarchy[level]
            space = mf.P1Space(mesh)
            tensor = mf.build_xz_tensor(mesh, 1.0)
            mkp = solve_m_k_plus(space, sine_problem, tensor)
            errors.append(error_l2(mkp, sine_problem.exact.m.value))
            hs.append(mesh.h_max)
        eocs = [math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i])
                for i in range(1, len(errors))]
        ok = all(e >= 0.85 for e in eocs)
        record_criterion(
            "criterion 6: ||m* - m_k_plus||_L2 EOC floor 0.85, levels 3-6", ok,
            "eocs = " + ", ".join(f"{e:.3f}" for e in eocs))
        assert ok


class TestCriterion7ResidualExactness:
    def test_all_converged_solutions(self, xz_study, acute_study, rough_study,
                                     g_one_solutions):
        worst = 0.0
        count = 0
        for table in (xz_study[0], acute_study, rough_study):
            for r in table.records:
                worst = max(worst, r.residual1_dual, r.residual2_dual)
                count += 1
        for family, (problem, sols) in g_one_solutions.items():
            for sol, _ in sols.values():
                worst = max(worst, sol.residual1_dual, sol.residual2_dual)
                count += 1
        ok = worst <= 1e-9
        record_criterion(
            "criterion 7: residual dual norms at convergence", ok,
            f"worst over {count} solves = {worst:.2e} <= 1e-9")
        assert ok


class TestCriterion8HamiltonianCalculus:
    def test_gradients_convexity_bounds_and_ratio(self, square_spaces):
        huber = mf.huber_ball(1.0)
        lse = mf.finite_control([(1, 0), (-1, 0), (0, 1)], [0.0, 0.1, 0.2],
                                smoothing=0.1)
        fd_huber = check_gradient(huber, samples=1000, seed=0)
        fd_lse = check_gradient(lse, samples=1000, seed=0)

        rng = np.random.default_rng(8)
        p = 3.0 * rng.standard_normal((10_000, 2))
        q = 3.0 * rng.standard_normal((10_000, 2))
        convex_ok = True
        bound_ok = True
        for spec in (huber, lse):
            mid = spec.value(0.5 * (p + q))
            convex_ok &= bool(np.all(mid <= 0.5 * (spec.value(p)
                                                   + spec.value(q)) + 1e-12))
            grad_norms = np.linalg.norm(spec.grad_p(p), axis=1)
            bound_ok &= bool(grad_norms.max() <= spec.L_H + 1e-12)

        r3 = check_semismooth_bound(huber, square_spaces[3], seed=0)
        r4 = check_semismooth_bound(huber, square_spaces[4], seed=0)
        ratio_ok = max(r3, r4) / min(r3, r4) <= 2.0

        ok = (fd_huber < 1e-5 and fd_lse < 1e-5 and convex_ok and bound_ok
              and ratio_ok)
        record_criterion(
            "criterion 8: Hamiltonian calculus", ok,
            f"fd_huber={fd_huber:.2e}, fd_lse={fd_lse:.2e}, convexity={convex_ok}, "
            f"gradient bound={bound_ok}, semismooth ratios=({r3:.3f}, {r4:.3f})")
        assert ok


class TestCriterion9AssemblyOracles:
    def test_hand_derived_matrices(self, square_spaces):
        space_ref = mf.P1Space(mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]))
        K = assembly.assemble_diffusion(space_ref, 1.0, full=True).toarray()
        M = assembly.assemble_mass(space_ref, full=True).toarray()
        K_exact = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0],
                                  [-1.0, 0.0, 1.0]])
        M_exact = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        stiffness_ok = np.abs(K - K_exact).max() < 1e-14
        mass_ok = np.abs(M - M_exact).max() < 1e-14

        K_full = assembly.assemble_diffusion(square_spaces[4], 1.0, full=True)
        row_sums_ok = np.abs(np.asarray(K_full.sum(axis=1))).max() < 1e-13

        space = square_spaces[4]
        rng = np.random.default_rng(9)
        drift = rng.uniform(-1, 1, (space.mesh.num_triangles, 2))
        B = assembly.assemble_hjb_drift(space, drift)
        C = kfp_drift_oracle(space, drift)
        transpose_ok = np.abs(C - B.T.toarray()).max() < 1e-14

        ok = bool(stiffness_ok and mass_ok and row_sums_ok and transpose_ok)
        record_criterion(
            "criterion 9: assembly oracles", ok,
            f"stiffness={stiffness_ok}, mass={mass_ok}, row sums={row_sums_ok}, "
            f"drift transpose={transpose_ok}")
        assert ok
