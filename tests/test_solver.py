import math
import weakref
from collections import deque

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import assembly, solver
from mfgfem.assembly import DiscreteSystem
from mfgfem.errors import ConfigurationError, NonConvergenceError, SolverError
from mfgfem.problem import scalar_load
from mfgfem.solver import (
    SolverConfig,
    riesz_dual_norm,
    solve_hjb,
    solve_kfp,
    solve_m_k_plus,
    solve_mfg,
)

from conftest import kfp_drift_oracle

# independent oracle: Fourier series value of the Poisson problem -lap u = 1
# at the center of the unit square, sum over odd (m, n) of
# 16 sin(m pi/2) sin(n pi/2) / (pi^4 m n (m^2 + n^2)); converges to 0.0736713...
POISSON_CENTER = 0.07367133717099501


def poisson_center_series(terms=199):
    total = 0.0
    for m in range(1, terms + 1, 2):
        for n in range(1, terms + 1, 2):
            total += (16.0 * math.sin(m * math.pi / 2) * math.sin(n * math.pi / 2)
                      / (math.pi ** 4 * m * n * (m * m + n * n)))
    return total


def _all_direct_solve(space, problem, tensor, cfg=None):
    """solve_mfg with no GMRES answer accepted, so every linear solve factorizes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiscreteSystem, "_gmres", lambda self, *args: None)
        return solve_mfg(space, problem, tensor, cfg)


class TestLinearSolve:
    def test_mass_identity(self, square_spaces):
        space = square_spaces[3]
        M = assembly.assemble_mass(space)
        e = np.ones(space.ndof)
        x = assembly.factorize(M).solve(M @ e)
        assert np.abs(x - e).max() < 1e-10

    def test_zero_rhs(self, square_spaces):
        K = assembly.assemble_diffusion(square_spaces[3], 1.0)
        assert np.all(assembly.factorize(K).solve(np.zeros(square_spaces[3].ndof)) == 0.0)

    def test_poisson_center_value(self, square_spaces):
        # series oracle frozen above; +-0.002 covers the level-4 discretization error
        assert poisson_center_series() == pytest.approx(POISSON_CENTER, abs=1e-12)
        space = square_spaces[4]
        K = assembly.assemble_diffusion(space, 1.0)
        load = scalar_load(space, lambda x, y: np.ones_like(x))
        u = assembly.factorize(K).solve(load)
        center = space.dof_of_vertex[
            int(np.argmin(((space.mesh.vertices - 0.5) ** 2).sum(axis=1)))]
        assert abs(u[center] - POISSON_CENTER) < 0.002

    def test_residual_above_tolerance_raises(self, g_one_problem, square_spaces,
                                             monkeypatch):
        # no solve leaves a zero residual, so a zero tolerance rejects every one
        space = square_spaces[3]
        system = DiscreteSystem(space, g_one_problem, None)
        monkeypatch.setattr(assembly, "LINEAR_RESIDUAL_TOL", 0.0)
        with pytest.raises(SolverError, match="above tolerance"):
            system.solve(space.zero_function(), system.g_load)

    def test_non_finite_solution_raises(self, g_one_problem, square_spaces):
        space = square_spaces[3]
        system = DiscreteSystem(space, g_one_problem, None)
        rhs = system.g_load.copy()
        rhs[0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            system.solve(space.zero_function(), rhs)


def _h1_gram(space):
    """The H1 Gram matrix of a space and its LU."""
    G = assembly.assemble_h1_gram(space)
    return G, assembly.factorize(G)


class TestRieszDualNorm:
    def test_zero(self, square_spaces):
        _, gram = _h1_gram(square_spaces[3])
        assert riesz_dual_norm(gram, np.zeros(square_spaces[3].ndof)) == 0.0
        # level 0 has no interior dof, so its load is empty
        empty = square_spaces[0]
        gram = assembly.H1Gram(empty, assembly.assemble_h1_gram(empty))
        assert riesz_dual_norm(gram, np.zeros(0)) == 0.0

    def test_homogeneity(self, square_spaces):
        space = square_spaces[3]
        _, gram = _h1_gram(space)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(space.ndof)
        assert riesz_dual_norm(gram, 2.0 * r) == pytest.approx(
            2.0 * riesz_dual_norm(gram, r), rel=1e-12)

    def test_gram_column_closed_form(self, square_spaces):
        space = square_spaces[2]
        G, gram = _h1_gram(space)
        r = np.asarray(G @ np.eye(space.ndof)[0])
        assert riesz_dual_norm(gram, r) == pytest.approx(math.sqrt(G[0, 0]), rel=1e-12)

    def test_matches_sup_definition(self, square_spaces):
        # dual norm = sup <r, phi> / ||phi||_H1; check against the maximizer
        # phi = Gram^-1 r and random competitors
        space = square_spaces[2]
        G, gram = _h1_gram(space)

        def h1_norm(phi):
            return math.sqrt(float(phi @ (G @ phi)))

        rng = np.random.default_rng(1)
        r = rng.standard_normal(space.ndof)
        dual = riesz_dual_norm(gram, r)
        w = gram.solve(r)
        assert float(r @ w) / h1_norm(w) == pytest.approx(dual, rel=1e-12)
        for _ in range(20):
            phi = rng.standard_normal(space.ndof)
            assert float(r @ phi) / h1_norm(phi) <= dual * (1 + 1e-10)

    def test_gram_lu_is_built_on_first_use(self, sine_problem, square_spaces, monkeypatch):
        # a system that only evaluates residuals, as the one-call residual
        # checks and the monotonicity sampling do, factorizes nothing
        def no_splu(*args, **kwargs):
            raise AssertionError("unexpected sparse LU")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        space = square_spaces[4]
        u = mf.interpolate(space, sine_problem.exact.u.value)
        m = mf.interpolate(space, sine_problem.exact.m.value)
        system = DiscreteSystem(space, sine_problem, None)
        system.hjb_residual(u, m)
        system.kfp_residual(u, m)
        assembly.assemble_hjb_nonlinear_residual(space, u, m, sine_problem, None)
        assembly.assemble_kfp_residual(space, u, m, sine_problem, None)
        assert "gram" not in vars(system)


def _dual_norm_loads(space, problem, tensor, seed):
    """Loads whose dual norms a solve measures: random ones over ten decades,
    both residuals at the interpolated exact pair and at zero, and zero."""
    rng = np.random.default_rng(seed)
    system = DiscreteSystem(space, problem, tensor)
    u = mf.interpolate(space, problem.exact.u.value)
    m = mf.interpolate(space, problem.exact.m.value)
    zero = space.zero_function()
    loads = [10.0 ** rng.uniform(-8, 2) * rng.standard_normal(space.ndof) for _ in range(4)]
    loads += [system.hjb_residual(u, m), system.kfp_residual(u, m),
              system.hjb_residual(zero, zero), system.kfp_residual(zero, zero)]
    return loads + [np.zeros(space.ndof)]


class TestH1Gram:
    @pytest.mark.parametrize("family, level",
                             [("xz_square", 6), ("xz_square", 7), ("acute_rhombus", 6)])
    def test_matches_gram_lu(self, family, level, sine_problem, sine_problem_rhombus):
        # CG preconditioned with the V-cycle measures every dual norm to a
        # relative 1e-12 of the LU, and a zero load exactly; no LU of G is made
        mesh = mf.mesh_hierarchy(family, level)[level]
        space = mf.P1Space(mesh)
        if family == "xz_square":
            problem, tensor = sine_problem, mf.build_xz_tensor(mesh, 1.0)
        else:
            problem, tensor = sine_problem_rhombus, None
        G = assembly.assemble_h1_gram(space)
        oracle = assembly.factorize(G)
        gram = assembly.H1Gram(space, G)
        loads = _dual_norm_loads(space, problem, tensor, seed=space.ndof)
        for r in loads[:-1]:
            assert riesz_dual_norm(gram, r) == pytest.approx(
                riesz_dual_norm(oracle, r), rel=1e-12, abs=0.0)
        assert riesz_dual_norm(gram, loads[-1]) == 0.0
        assert gram._lu is None
        assert 0 < gram.cycles <= 8 * (len(loads) - 1)

    def test_exact_hierarchy_is_the_lu(self, square_spaces):
        # a space of at most COARSE_DOFS dofs solves with the LU of G alone
        space = square_spaces[5]
        assert space.ndof <= assembly.COARSE_DOFS
        G = assembly.assemble_h1_gram(space)
        gram = assembly.H1Gram(space, G)
        r = np.random.default_rng(5).standard_normal(space.ndof)
        assert np.array_equal(gram.solve(r), assembly.factorize(G).solve(r))
        assert gram.cycles == 0

    def test_cg_cap_falls_back_to_held_lu(self, square_spaces, monkeypatch):
        # one CG iteration never meets the increment test: the solver
        # factorizes G once, keeps the LU and measures the same norms with it
        space = square_spaces[6]
        G = assembly.assemble_h1_gram(space)
        oracle = assembly.factorize(G)
        sizes = []
        splu = scipy.sparse.linalg.splu

        def tracking_splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        gram = assembly.H1Gram(space, G)
        assert max(sizes) <= assembly.COARSE_DOFS
        rng = np.random.default_rng(6)
        for _ in range(3):
            r = rng.standard_normal(space.ndof)
            assert riesz_dual_norm(gram, r) == pytest.approx(
                riesz_dual_norm(oracle, r), rel=1e-12, abs=0.0)
        assert sizes[1:] == [space.ndof]
        assert gram.cycles == 1

    def test_level6_solve_factorizes_coarsest_levels_only(self, sine_problem,
                                                           square_hierarchy, monkeypatch):
        # on its normal path a solve makes no LU larger than COARSE_DOFS: the
        # coarsest levels of the linearization's and the Gram's hierarchies
        mesh = square_hierarchy[6]
        space = mf.P1Space(mesh)
        splu = scipy.sparse.linalg.splu
        sizes = []

        def tracking_splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        sol = solve_mfg(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        assert len(sizes) == 2 and max(sizes) <= assembly.COARSE_DOFS < space.ndof
        assert (sol.outer_iters, sol.newton_iters_total) == (5, 9)
        assert all(h["gram_cycles"] > 0 for h in sol.history)


class TestHJB:
    def test_linear_hamiltonian_one_iteration(self, square_spaces):
        space = square_spaces[3]
        ham = mf.finite_control([(0.3, 0.2)], [0.1], smoothing=0.2)
        problem = mf.MFGProblem(
            nu=1.0, hamiltonian=ham,
            coupling=mf.CouplingF(c_F=1.0, offset=lambda x, y: np.sin(3 * x) * y),
            source=mf.SourceG(nonneg_certified=True))
        u, iters, _ = solve_hjb(DiscreteSystem(space, problem, None), space.zero_function())
        assert iters == 1

    def test_zero_fixed_point(self, square_spaces):
        space = square_spaces[3]
        problem = mf.make_zero_problem()
        u, iters, _ = solve_hjb(DiscreteSystem(space, problem, None), space.zero_function())
        assert np.all(u.coeffs == 0.0)
        assert iters == 0

    def test_sine_newton_count(self, sine_problem, square_hierarchy):
        for level in (3, 4, 5):
            mesh = square_hierarchy[level]
            space = mf.P1Space(mesh)
            tensor = mf.build_xz_tensor(mesh, 1.0)
            m_i = mf.interpolate(space, sine_problem.exact.m.value)
            u, iters, _ = solve_hjb(DiscreteSystem(space, sine_problem, tensor), m_i,
                                    SolverConfig(tol_newton=1e-10))
            assert iters <= 8

    def test_newton_budget(self, sine_problem, square_hierarchy):
        # from u = 0 at a zero density the solve needs exactly 3 Newton steps
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        with pytest.raises(NonConvergenceError, match="in 1 iterations") as err:
            solve_hjb(system, space.zero_function(), SolverConfig(max_newton=1))
        assert err.value.last_residual == pytest.approx(0.194, rel=1e-2)
        cfg = SolverConfig(max_newton=3)
        u, iters, halvings = solve_hjb(system, space.zero_function(), cfg)
        assert (iters, halvings) == (3, 0)
        r = system.hjb_residual(u, space.zero_function())
        assert riesz_dual_norm(system.gram, r) <= cfg.tol_newton

    def test_rejects_nonsmooth(self, square_spaces):
        ham = mf.finite_control([(1, 0), (-1, 0)], [0, 0])
        problem = mf.MFGProblem(nu=1.0, hamiltonian=ham,
                                coupling=mf.CouplingF(c_F=1.0),
                                source=mf.SourceG())
        space = square_spaces[2]
        with pytest.raises(ConfigurationError):
            solve_hjb(DiscreteSystem(space, problem, None), space.zero_function())

    def test_line_search_floor_raises(self, sine_problem, square_spaces, monkeypatch):
        # a proposal that ascends keeps raising the residual down to step 2^-10
        space = square_spaces[3]
        system = DiscreteSystem(space, sine_problem, None)
        m = mf.interpolate(space, sine_problem.exact.m.value)
        newton = solver._newton_proposal
        monkeypatch.setattr(solver, "_newton_proposal",
                            lambda system, r, u: 2.0 * u - newton(system, r, u))
        with pytest.raises(NonConvergenceError) as err:
            solve_hjb(system, m)
        start = riesz_dual_norm(system.gram, system.hjb_residual(space.zero_function(), m))
        assert err.value.last_residual == start

    def test_newton_rhs_is_residual_plus_linearization(self, sine_problem, square_hierarchy):
        # r + L(u) u is the linearized right-hand side <F[m], xi_i> + B(u) u - H[grad u],
        # with B(u) and the H load assembled on their own
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        rng = np.random.default_rng(7)
        u = mf.P1Function(space, rng.standard_normal(space.ndof))
        m = mf.P1Function(space, rng.uniform(0.0, 2.0, space.ndof))
        r = system.hjb_residual(u, m)
        ham = sine_problem.hamiltonian
        oracle = (system.coupling_load(m)
                  + assembly.assemble_hjb_drift(space, assembly.grad_p_field(ham, u))
                  @ u.coeffs
                  - assembly.hamiltonian_load(space, ham, u))
        got = r + system.linearize(u) @ u.coeffs
        assert np.linalg.norm(got - oracle) <= 1e-13 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("overshoot", [1.0, 4.0])
    def test_one_hamiltonian_load_per_residual(self, overshoot, sine_problem,
                                               square_hierarchy, monkeypatch):
        # the Newton step reuses the residual load of the accepted iterate: H is
        # loaded for the initial residual, each proposal and each halving only;
        # an overshooting proposal makes the line search halve
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        load = assembly.hamiltonian_load
        calls = []
        monkeypatch.setattr(assembly, "hamiltonian_load",
                            lambda *args: calls.append(None) or load(*args))
        newton = solver._newton_proposal
        monkeypatch.setattr(solver, "_newton_proposal",
                            lambda system, r, u: u + overshoot * (newton(system, r, u) - u))
        _, iters, halvings = solve_hjb(system, mf.interpolate(space, sine_problem.exact.m.value))
        assert iters > 0 and (halvings > 0) is (overshoot > 1.0)
        assert len(calls) == 1 + iters + halvings


class TestKFP:
    def test_g_one_pure_diffusion_nonnegative(self, g_one_problem, square_spaces):
        space = square_spaces[3]
        m = solve_kfp(DiscreteSystem(space, g_one_problem, None), space.zero_function())
        assert m.coeffs.min() >= 0.0

    def test_zero_source(self, square_spaces):
        space = square_spaces[3]
        problem = mf.make_zero_problem()
        m = solve_kfp(DiscreteSystem(space, problem, None), space.zero_function())
        assert np.all(m.coeffs == 0.0)

    def test_attainable_accuracy_accepts_without_refactorizing(
            self, sine_problem, square_hierarchy, monkeypatch):
        # KRYLOV_RTOL below what any true residual reaches: the least-squares
        # residual of GMRES, preconditioned with the LU of K, still meets it,
        # and the one iterate formed then solves the drifted KFP operator to
        # the accuracy a backward-stable solve attains, without a second
        # factorization
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        system.solve(space.zero_function(), system.g_load, trans="T")
        u = mf.interpolate(space, sine_problem.exact.u.value)
        monkeypatch.setattr(assembly, "KRYLOV_RTOL", 1e-16)
        x = system.solve(u, system.g_load, trans="T")
        op = system.linearize(u).T
        assert system.factorizations == 1
        assert 0 < system.krylov_iters <= assembly.KRYLOV_MAX
        assert np.linalg.norm(system.g_load - op @ x) <= 1e-13 * np.linalg.norm(system.g_load)

    def test_multilevel_attainable_accuracy_accepts_without_rebuilding(
            self, sine_problem, square_hierarchy, monkeypatch):
        # the same with a three-level hierarchy of K (levels 4, 3 and 2): its
        # V-cycle, built at u = 0, takes GMRES to the attainable accuracy of
        # the drifted KFP operator without a rebuild
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        system.solve(space.zero_function(), system.g_load, trans="T")
        assert len(system._multigrid.levels) == 2
        iters = system.krylov_iters
        u = mf.interpolate(space, sine_problem.exact.u.value)
        monkeypatch.setattr(assembly, "KRYLOV_RTOL", 1e-16)
        x = system.solve(u, system.g_load, trans="T")
        op = system.linearize(u).T
        assert system.factorizations == 1
        assert 0 < system.krylov_iters - iters <= assembly.KRYLOV_MAX
        assert np.linalg.norm(system.g_load - op @ x) <= 1e-13 * np.linalg.norm(system.g_load)

    def test_each_solution_passes_one_residual_test(
            self, sine_problem, square_hierarchy, monkeypatch):
        # a GMRES iterate has passed the residual test inside _gmres, so
        # solve returns it unchecked; an exact hierarchy's LU solve goes
        # through checked once
        calls = []
        check = assembly.checked

        def counting(op, x, rhs):
            calls.append(x)
            return check(op, x, rhs)

        monkeypatch.setattr(assembly, "checked", counting)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        u = mf.interpolate(space, sine_problem.exact.u.value)
        for coarse, checks in ((assembly.COARSE_DOFS, 1), (40, 0)):
            monkeypatch.setattr(assembly, "COARSE_DOFS", coarse)
            system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
            calls.clear()
            x = system.solve(u, system.g_load, trans="T")
            assert system._multigrid.exact is (checks == 1)
            assert len(calls) == checks
            assert check(system.linearize(u).T, x, system.g_load) is x

    def test_formed_iterate_failing_the_residual_test_rebuilds(
            self, sine_problem, square_hierarchy, monkeypatch):
        # the least-squares residual meets KRYLOV_RTOL, but a perturbed
        # V-cycle forms an iterate that fails LINEAR_RESIDUAL_TOL: _gmres
        # returns None, and solve rebuilds the hierarchy instead of raising
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        system.solve(space.zero_function(), system.g_load, trans="T")
        u = mf.interpolate(space, sine_problem.exact.u.value)
        op = system.linearize(u).T
        held = system._multigrid
        vcycle = held.solve
        cycles = []

        def counting(b, trans="N"):
            cycles.append(trans)
            return vcycle(b, trans)

        monkeypatch.setattr(held, "solve", counting)
        iters = system.krylov_iters
        assert system._gmres(op, system.g_load, None, "T") is not None
        # one V-cycle per iteration, and one that forms the iterate
        assert len(cycles) == system.krylov_iters - iters + 1 <= assembly.KRYLOV_MAX + 1
        forming = len(cycles)

        def perturbed(b, trans="N"):
            cycles.append(trans)
            x = vcycle(b, trans)
            return x + 1e-6 if len(cycles) == forming else x

        monkeypatch.setattr(held, "solve", perturbed)
        cycles.clear()
        assert system._gmres(op, system.g_load, None, "T") is None
        cycles.clear()
        x = system.solve(u, system.g_load, trans="T")
        assert system.factorizations == 2
        assert system._multigrid is not held
        assert assembly.checked(op, x, system.g_load) is x

    def test_kfp_operator_is_hjb_adjoint(self, g_one_problem, square_spaces):
        # the KFP matrix at u equals the transpose of the HJB linearization
        space = square_spaces[3]
        rng = np.random.default_rng(2)
        u = mf.P1Function(space, 0.3 * rng.standard_normal(space.ndof))
        L = DiscreteSystem(space, g_one_problem, None).linearize(u)
        op = L.T.toarray()
        drift = assembly.grad_p_field(g_one_problem.hamiltonian, u)
        oracle = (assembly.assemble_diffusion(space, 1.0).toarray()
                  + kfp_drift_oracle(space, drift))
        assert np.abs(op - oracle).max() < 1e-14


class TestMFG:
    def test_no_interior_dofs_rejected(self, sine_problem):
        space = mf.P1Space(mf.generate_structured_square(1))
        assert space.ndof == 0
        with pytest.raises(ConfigurationError):
            solve_mfg(space, sine_problem, None)

    def test_zero_problem_single_sweep(self, square_spaces):
        problem = mf.make_zero_problem()
        sol = solve_mfg(square_spaces[3], problem, None)
        assert sol.outer_iters == 1
        assert np.all(sol.u.coeffs == 0.0)
        assert np.all(sol.m.coeffs == 0.0)

    def test_sine_converges_to_tolerance(self, sine_problem, square_hierarchy):
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        assert max(sol.residual1_dual, sol.residual2_dual) <= 1e-9

    def test_damping_independence(self, sine_problem, square_hierarchy):
        # uniqueness of the discrete solution: different damping, same answer
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        s_full = solve_mfg(space, sine_problem, tensor, SolverConfig(damping=1.0))
        s_half = solve_mfg(space, sine_problem, tensor, SolverConfig(damping=0.5))
        assert np.abs(s_full.u.coeffs - s_half.u.coeffs).max() < 1e-8
        assert np.abs(s_full.m.coeffs - s_half.m.coeffs).max() < 1e-8

    def test_residual_history_monotone_after_first(self, sine_problem,
                                                   square_hierarchy):
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        peaks = [max(h["residual1_dual"], h["residual2_dual"]) for h in sol.history]
        for prev, cur in zip(peaks[1:], peaks[2:]):
            assert cur <= prev * (1 + 1e-10)

    def test_kfp_shares_newton_factorization(self, sine_problem, square_hierarchy,
                                             monkeypatch):
        # one LU for the first KFP solve and one for the Gram matrix; the first
        # then preconditions every Newton step and KFP solve of the run
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        splu = scipy.sparse.linalg.splu
        calls = []

        def counting_splu(*args, **kwargs):
            calls.append(None)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
        sol = solve_mfg(space, sine_problem, tensor)
        assert len(calls) == 2
        assert [h["factorizations"] for h in sol.history] == [1] + [0] * (sol.outer_iters - 1)
        # each sweep solves at least one Newton step and one KFP equation by GMRES
        assert all(h["krylov_iters"] >= 2 for h in sol.history[1:])

    def test_one_mass_assembly_and_two_lus_per_solve(self, sine_problem, square_hierarchy,
                                                      monkeypatch):
        # the system's mass matrix serves the coupling and the Gram matrix, and
        # the only LUs are the Gram matrix's and the held hierarchy's coarsest
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        calls = {"assemble_mass": 0, "splu": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(assembly, "assemble_mass",
                            counting("assemble_mass", assembly.assemble_mass))
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            counting("splu", scipy.sparse.linalg.splu))
        solve_mfg(space, sine_problem, tensor)
        assert calls == {"assemble_mass": 1, "splu": 2}

    def test_krylov_fallback_refactorizes(self, sine_problem, square_hierarchy,
                                          monkeypatch):
        # one GMRES iteration is too few away from the held LU's own point: the
        # system releases it, factorizes the current linearization and solves
        # directly, and the answer is that of a run where every solve factorizes
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        direct = _all_direct_solve(space, sine_problem, tensor)
        assert sum(h["factorizations"] for h in direct.history) == (
            1 + direct.newton_iters_total + direct.outer_iters)

        splu = scipy.sparse.linalg.splu
        live = weakref.WeakSet()
        alive_at_factorization = []

        class TrackedLU:
            def __init__(self, lu):
                self.solve = lu.solve

        def tracking_splu(*args, **kwargs):
            alive_at_factorization.append(len(live))
            lu = TrackedLU(splu(*args, **kwargs))
            live.add(lu)
            return lu

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        sol = solve_mfg(space, sine_problem, tensor)
        fallbacks = sum(h["factorizations"] for h in sol.history) - 1
        assert fallbacks >= 1
        assert len(alive_at_factorization) == 2 + fallbacks
        # at most one other LU is alive when one is made: the held one while
        # the Gram matrix is factorized, the Gram LU while a linearization is
        assert max(alive_at_factorization) <= 1
        assert (sol.outer_iters, sol.newton_iters_total) == (
            direct.outer_iters, direct.newton_iters_total)
        assert np.abs(sol.u.coeffs - direct.u.coeffs).max() < 1e-12
        assert np.abs(sol.m.coeffs - direct.m.coeffs).max() < 1e-12

    def test_multilevel_krylov_fallback_solves_directly(self, sine_problem,
                                                         square_hierarchy, monkeypatch):
        # one GMRES iteration is too few for a V-cycle, even of the current
        # linearization: each solve rebuilds the hierarchy (one LU on its
        # coarsest level), retries, then factorizes L and solves directly, and
        # the answer is that of a run where every solve factorizes
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        direct = _all_direct_solve(space, sine_problem, tensor)
        solves = 1 + direct.newton_iters_total + direct.outer_iters

        splu = scipy.sparse.linalg.splu
        sizes = []

        def tracking_splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        sol = solve_mfg(space, sine_problem, tensor)
        assert sum(h["factorizations"] for h in sol.history) == 2 * solves
        # per solve the level-2 coarsest level and L; after the first, when the
        # first residual is measured, the Gram hierarchy's coarsest level and,
        # as one CG iteration falls short too, the held LU of the Gram matrix
        assert sizes == [9, space.ndof, 9, space.ndof] + [9, space.ndof] * (solves - 1)
        assert (sol.outer_iters, sol.newton_iters_total) == (
            direct.outer_iters, direct.newton_iters_total)
        assert np.abs(sol.u.coeffs - direct.u.coeffs).max() < 1e-12
        assert np.abs(sol.m.coeffs - direct.m.coeffs).max() < 1e-12

    def test_file_mesh_solves_on_one_level(self, sine_problem, tmp_path, monkeypatch):
        # a mesh read from a file has no parent: however many dofs it has, its
        # hierarchy is the LU of the linearization, as on a small space
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        path = tmp_path / "mesh.txt"
        mf.write_mesh(mf.mesh_hierarchy("xz_square", 4)[4], path)
        mesh = mf.read_mesh(path)
        space = mf.P1Space(mesh)
        assert space.ndof > assembly.COARSE_DOFS and space.prolongation is None
        tensor = mf.build_xz_tensor(mesh, 1.0)
        system = DiscreteSystem(space, sine_problem, tensor)
        system.solve(space.zero_function(), system.g_load, trans="T")
        assert system._multigrid.exact and not system._multigrid.levels
        sol = solve_mfg(space, sine_problem, tensor)
        assert (sol.outer_iters, sol.newton_iters_total) == (5, 9)
        assert [h["factorizations"] for h in sol.history] == [1] + [0] * (sol.outer_iters - 1)

    def test_drift_bound_excess_recorded(self, sine_problem, square_hierarchy):
        # a Hamiltonian that understates its drift bound: every assembly of a
        # drift beyond it warns, and the sweep's history entry records by how
        # much
        import dataclasses
        ham = sine_problem.hamiltonian
        problem = dataclasses.replace(
            sine_problem, hamiltonian=dataclasses.replace(ham, L_H=0.25 * ham.L_H))
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        with pytest.warns(UserWarning, match="exceeds bound"):
            sol = solve_mfg(space, problem, mf.build_xz_tensor(mesh, ham.L_H))
        # |grad u| passes R = L_H somewhere in every sweep, where the Huber
        # drift saturates at |b| = L_H
        excess = [h["drift_excess"] for h in sol.history]
        assert excess == pytest.approx([0.75 * ham.L_H] * sol.outer_iters, rel=1e-12)
        clean = solve_mfg(space, sine_problem, mf.build_xz_tensor(mesh, ham.L_H))
        assert [h["drift_excess"] for h in clean.history] == [0.0] * clean.outer_iters

    def test_level4_sine_matches_recorded_solve(self, sine_problem, square_hierarchy):
        # two default-tolerance iterates that both pass tol_outer may differ by
        # ~1e-10, so the answer is pinned where any correct solver must agree: a
        # tight solve, against H1 errors recorded from a damped Picard solve
        # (39 sweeps, 47 Newton steps); the default solve pins the path
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        assert (sol.outer_iters, sol.newton_iters_total) == (5, 9)
        tight = solve_mfg(space, sine_problem, tensor,
                          SolverConfig(tol_outer=1e-12, tol_newton=1e-12, max_outer=400))
        ex = sine_problem.exact
        assert abs(mf.error_h1(tight.u, ex.u.value, ex.u.grad) - 0.3730181080584706) <= 1e-12
        assert abs(mf.error_h1(tight.m, ex.m.value, ex.m.grad) - 0.36447419170370454) <= 1e-12

    @pytest.mark.parametrize("family, make_problem, path", [
        ("xz_square", lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0),
         (5, 9, 91, 1)),
        ("acute_rhombus", lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0,
                                                       domain="acute_rhombus"),
         (6, 10, 103, 1)),
        ("xz_square", lambda: mf.make_g_one_problem(1.0, mf.huber_ball(1.0), 1.0),
         (3, 4, 22, 1)),
        ("xz_square", lambda: mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0),
         (10, 20, 247, 1)),
        ("xz_square", lambda: mf.make_rough_density_problem(1.0, mf.huber_ball(1.0), 1.0),
         (4, 8, 74, 1)),
    ], ids=["sine", "sine_acute", "g_one", "hard_g_one", "rough"])
    def test_level5_solver_path(self, family, make_problem, path, square_hierarchy,
                                rhombus_hierarchy):
        # the default solve's sweeps, Newton steps, GMRES iterations and
        # factorizations, pinned so that a change meant to keep the path shows
        # here when it does not
        problem = make_problem()
        L_H = problem.hamiltonian.L_H
        if family == "xz_square":
            mesh = square_hierarchy[5]
            tensor = mf.build_xz_tensor(mesh, L_H)
        else:
            mesh = rhombus_hierarchy[5]
            tensor = mf.build_acute_tensor(mesh, L_H, problem.nu)
        sol = solve_mfg(mf.P1Space(mesh), problem, tensor)
        assert (sol.outer_iters, sol.newton_iters_total,
                sum(h["krylov_iters"] for h in sol.history),
                sum(h["factorizations"] for h in sol.history)) == path

    def test_rejected_mixed_step_falls_back_to_picard(self, square_hierarchy):
        # on this instance one mixed step raises the residual: it is recorded as
        # rejected, and the loop goes on from the last accepted sweep
        mesh = square_hierarchy[5]
        space = mf.P1Space(mesh)
        problem = mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0)
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        sol = solve_mfg(space, problem, tensor)
        rejected = [i for i, h in enumerate(sol.history) if h["rejected"]]
        assert rejected
        for i in rejected:
            assert sol.history[i]["step"] == "anderson"
            assert sol.history[i + 1]["step"] == "picard"
        peaks = [max(h["residual1_dual"], h["residual2_dual"])
                 for h in sol.history if not h["rejected"]]
        for prev, cur in zip(peaks[1:], peaks[2:]):
            assert cur <= prev * (1 + 1e-10)
        assert max(sol.residual1_dual, sol.residual2_dual) <= SolverConfig().tol_outer
        assert sol.m.coeffs.min() >= mf.analysis.DMP_TOL
        full = solve_mfg(space, problem, tensor, SolverConfig(damping=1.0))
        assert np.abs(full.u.coeffs - sol.u.coeffs).max() < 1e-8
        assert np.abs(full.m.coeffs - sol.m.coeffs).max() < 1e-8

    def test_history_records_step_and_dmp_margin(self, sine_problem, square_hierarchy):
        # the first iterate and the one after it have no mixing history
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        sol = solve_mfg(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        steps = [h["step"] for h in sol.history]
        assert steps[:2] == ["picard", "picard"]
        assert set(steps[2:]) == {"anderson"}
        assert not any(h["rejected"] for h in sol.history)
        assert all(h["linesearch_halvings"] == 0 for h in sol.history)
        assert sol.history[-1]["min_m"] == sol.m.coeffs.min()

    def test_returned_density_is_a_kfp_solve(self, sine_problem, square_hierarchy):
        # the mixed iterate is never returned: m solves the KFP equation at u
        # to the tolerance of its linear solve (a direct LU at this level, whose
        # residual lies far below KRYLOV_RTOL |G|)
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        system = DiscreteSystem(space, sine_problem, tensor)
        residual = np.linalg.norm(system.kfp_residual(sol.u, sol.m))
        assert residual <= assembly.KRYLOV_RTOL * np.linalg.norm(system.g_load)

    def test_dependent_differences_restart_mixing(self):
        # parallel residual differences leave the mixing coefficients undetermined
        pairs = deque(maxlen=solver.ANDERSON_DEPTH)
        f = np.array([1.0, 2.0, 3.0])
        pairs.append((np.ones(3) - np.zeros(3), 2.0 * f - f))
        pairs.append((3.0 * np.ones(3) - np.ones(3), 4.0 * f - 2.0 * f))
        m = np.array([0.5, 0.25, 0.125])
        assert np.array_equal(solver._anderson_mix(pairs, m, f, 0.5), m + 0.5 * f)
        assert len(pairs) == 0

    def test_nonconvergence_carries_history(self, sine_problem, square_hierarchy):
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_mfg(space, sine_problem, tensor, SolverConfig(max_outer=1))
        assert len(err.value.history) == 1

    def test_newton_failure_carries_outer_history(self, sine_problem, square_hierarchy,
                                                  monkeypatch):
        # the 6th Newton proposal ascends, so the line search fails in a later
        # sweep; the error lists the sweeps completed before it
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        newton = solver._newton_proposal
        calls = []

        def proposal(system, r, u):
            calls.append(None)
            x = newton(system, r, u)
            return x if len(calls) < 6 else 2.0 * u - x

        monkeypatch.setattr(solver, "_newton_proposal", proposal)
        with pytest.raises(NonConvergenceError) as err:
            solve_mfg(space, sine_problem, tensor)
        history = err.value.history
        assert [h["outer"] for h in history] == [1, 2]
        assert sum(h["newton_iters"] for h in history) == 5
        assert err.value.last_residual is not None

    def test_telemetry_fields(self, sine_problem, square_hierarchy):
        mesh = square_hierarchy[2]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        assert sol.newton_iters_total >= sol.outer_iters
        assert sol.history[-1]["residual1_dual"] == sol.residual1_dual


@st.composite
def g_one_instances(draw):
    """Certified g_one instances: nu, c_F and a Huber or smoothed finite-control
    Hamiltonian, on an XZ square mesh of level 2-4."""
    nu = draw(st.floats(0.1, 1.0))
    c_F = draw(st.floats(0.5, 5.0))
    if draw(st.booleans()):
        ham = mf.huber_ball(draw(st.floats(0.5, 2.0)))
    else:
        n = draw(st.integers(2, 4))
        drifts = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                               min_size=n, max_size=n))
        costs = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        ham = mf.finite_control(drifts, costs, smoothing=draw(st.floats(0.2, 1.0)))
    return draw(st.integers(2, 4)), mf.make_g_one_problem(nu, ham, c_F)


class TestRecycledLUProperty:
    @settings(max_examples=40, deadline=None)
    @given(instance=g_one_instances())
    def test_matches_all_direct_path(self, instance, square_hierarchy):
        # GMRES preconditioned with the recycled LU must land where factorizing
        # every linearization does, converged, with the DMP intact
        level, problem = instance
        mesh = square_hierarchy[level]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        cfg = SolverConfig(tol_outer=1e-12, tol_newton=1e-12, max_outer=400)
        sol = solve_mfg(space, problem, tensor, cfg)
        direct = _all_direct_solve(space, problem, tensor, cfg)
        assert max(sol.residual1_dual, sol.residual2_dual) <= cfg.tol_outer
        assert sol.m.coeffs.min() >= mf.analysis.DMP_TOL
        assert np.abs(sol.u.coeffs - direct.u.coeffs).max() <= 1e-10
        assert np.abs(sol.m.coeffs - direct.m.coeffs).max() <= 1e-10


class TestMultigridProperty:
    @settings(max_examples=20, deadline=None)
    @given(instance=g_one_instances())
    def test_matches_all_direct_path(self, instance, square_hierarchy):
        # the sibling of TestRecycledLUProperty on hierarchies of 2 and 3
        # levels: GMRES preconditioned with the V-cycle must land where
        # factorizing every linearization does, converged, with the DMP intact
        level, problem = instance
        mesh = square_hierarchy[max(level, 3)]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        cfg = SolverConfig(tol_outer=1e-12, tol_newton=1e-12, max_outer=400)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "COARSE_DOFS", 40)
            system = DiscreteSystem(space, problem, tensor)
            system.solve(space.zero_function(), system.g_load)
            assert len(system._multigrid.levels) == space.mesh.level - 2
            sol = solve_mfg(space, problem, tensor, cfg)
            direct = _all_direct_solve(space, problem, tensor, cfg)
        assert max(sol.residual1_dual, sol.residual2_dual) <= cfg.tol_outer
        assert sol.m.coeffs.min() >= mf.analysis.DMP_TOL
        assert np.abs(sol.u.coeffs - direct.u.coeffs).max() <= 1e-10
        assert np.abs(sol.m.coeffs - direct.m.coeffs).max() <= 1e-10


class TestMkPlus:
    def test_zero_exact_value_function_is_pure_diffusion(self, square_spaces):
        # u* = 0 makes the drift vanish: m_k_plus equals the plain KFP solve
        space = square_spaces[3]

        def one(x, y):
            return np.ones(np.broadcast(x, y).shape)

        zero = mf.problem.zero_field()
        problem = mf.MFGProblem(
            nu=1.0, hamiltonian=mf.huber_ball(1.0),
            coupling=mf.CouplingF(c_F=1.0),
            source=mf.SourceG(g0=one, nonneg_certified=True),
            exact=mf.ExactSolution(u=zero, m=zero))
        mkp = solve_m_k_plus(space, problem, None)
        K = assembly.assemble_diffusion(space, 1.0)
        direct = assembly.factorize(K).solve(scalar_load(space, one))
        assert np.abs(mkp.coeffs - direct).max() < 1e-12

    def test_requires_exact_solution(self, g_one_problem, square_spaces):
        with pytest.raises(ConfigurationError):
            solve_m_k_plus(square_spaces[3], g_one_problem, None)

    def test_nonnegative_for_certified_source(self, square_spaces):
        # G = 1 with an attached exact value function: the DMP makes the
        # auxiliary density nonnegative
        import dataclasses
        base = mf.make_g_one_problem()
        problem = dataclasses.replace(
            base, exact=mf.ExactSolution(u=mf.sine_product_field(),
                                         m=mf.sine_product_field()))
        space = square_spaces[4]
        tensor = mf.build_xz_tensor(space.mesh, 1.0)
        mkp = solve_m_k_plus(space, problem, tensor)
        assert mkp.coeffs.min() >= -1e-10


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(damping=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(tol_outer=-1.0)
