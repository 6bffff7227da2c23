import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import assembly
from mfgfem.assembly import DiscreteSystem
from mfgfem.errors import ConfigurationError, NonConvergenceError, SolverError
from mfgfem.problem import scalar_load
from mfgfem.solver import (
    SolverConfig,
    riesz_dual_norm,
    solve_kfp,
    solve_m_k_plus,
    solve_mfg,
)

from conftest import (assemble_hjb_drift, drift_oracle, hamiltonian_load_oracle,
                      kfp_drift_oracle, track_factorizations)

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
            system.solve(mf.P1Function(space, np.zeros(space.ndof)))

    def test_non_finite_solution_raises(self, g_one_problem, square_spaces):
        space = square_spaces[3]
        system = DiscreteSystem(space, g_one_problem, None)
        system.g_load[0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            system.solve(mf.P1Function(space, np.zeros(space.ndof)))


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
        gram = assembly.H1Gram(empty)
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
        def no_lu(*args, **kwargs):
            raise AssertionError("unexpected sparse LU")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_lu)
        monkeypatch.setattr(assembly, "factorize", no_lu)
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
    zero = mf.P1Function(space, np.zeros(space.ndof))
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
        gram = assembly.H1Gram(space)
        loads = _dual_norm_loads(space, problem, tensor, seed=space.ndof)
        for r in loads[:-1]:
            assert riesz_dual_norm(gram, r) == pytest.approx(
                riesz_dual_norm(oracle, r), rel=1e-12, abs=0.0)
        assert riesz_dual_norm(gram, loads[-1]) == 0.0
        assert gram._lu is None
        assert 0 < gram.cycles <= 8 * (len(loads) - 1)

    def test_exact_hierarchy_is_the_lu(self, square_spaces):
        # a space of at most COARSE_DOFS dofs solves with the LU of G alone,
        # the band LU of G in the space's order
        space = square_spaces[5]
        assert space.ndof <= assembly.COARSE_DOFS
        G = assembly.assemble_h1_gram(space)
        gram = assembly.H1Gram(space)
        r = np.random.default_rng(5).standard_normal(space.ndof)
        assert isinstance(gram._lu, assembly.BandLU)
        assert np.array_equal(gram.solve(r), assembly.factorize(G, space).solve(r))
        assert gram.cycles == 0

    def test_cg_cap_falls_back_to_held_lu(self, square_spaces, monkeypatch):
        # one CG iteration never meets the increment test: the solver
        # factorizes G once, keeps the LU and measures the same norms with it
        space = square_spaces[6]
        G = assembly.assemble_h1_gram(space)
        oracle = assembly.factorize(G)
        made = track_factorizations(monkeypatch)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        gram = assembly.H1Gram(space)
        sizes = [size for size, _, _ in made]
        assert max(sizes) <= assembly.COARSE_DOFS
        rng = np.random.default_rng(6)
        for _ in range(3):
            r = rng.standard_normal(space.ndof)
            assert riesz_dual_norm(gram, r) == pytest.approx(
                riesz_dual_norm(oracle, r), rel=1e-12, abs=0.0)
        sizes = [size for size, _, _ in made]
        assert sizes[1:] == [space.ndof]
        assert gram.cycles == 1

    def test_level6_solve_factorizes_coarsest_levels_only(self, sine_problem,
                                                           square_hierarchy, monkeypatch):
        # on its normal path a solve makes no LU larger than COARSE_DOFS: the
        # coarsest levels of the linearization's and the Gram's hierarchies
        mesh = square_hierarchy[6]
        space = mf.P1Space(mesh)
        made = track_factorizations(monkeypatch)
        sol = solve_mfg(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        sizes = [size for size, _, _ in made]
        assert len(sizes) == 2 and max(sizes) <= assembly.COARSE_DOFS < space.ndof
        assert all(isinstance(lu, assembly.BandLU) for _, _, lu in made)
        assert (sol.outer_iters, sol.newton_iters_total) == (1, 4)
        # measured to KRYLOV_RTOL, the dual norms of this solve took 77
        # V-cycles; refined only as far as their decisions, at most half
        assert 0 < sum(h["gram_cycles"] for h in sol.history) <= 77 // 2


def _closed(bracket):
    bracket.close()
    return bracket


class TestDualNormBracket:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), decades=st.floats(-8.0, 2.0),
           kind=st.sampled_from(["random", "gram_image", "zero"]))
    def test_bounds_hold_after_every_refine(self, square_spaces, seed, decades, kind):
        # on a multilevel space, lo <= riesz_dual_norm <= hi from the first
        # bounds to closure, and the closed value is riesz_dual_norm's bitwise
        space = square_spaces[6]
        gram = assembly.H1Gram(space)
        assert space.ndof > assembly.COARSE_DOFS and gram._lu is None
        assert gram.eig_low == space.mass.diagonal().min() / 2
        rng = np.random.default_rng(seed)
        if kind == "random":
            r = 10.0 ** decades * rng.standard_normal(space.ndof)
        elif kind == "gram_image":   # a smooth load: G v for a random v
            r = 10.0 ** decades * (space.h1_gram @ rng.standard_normal(space.ndof))
        else:
            r = np.zeros(space.ndof)
        exact = riesz_dual_norm(gram, r)
        bracket = assembly.DualNormBracket(gram, r)
        while True:
            assert bracket.lo <= exact <= bracket.hi
            if bracket.closed:
                break
            bracket.refine()
        assert bracket.value == bracket.lo == bracket.hi == exact
        assert bracket.cycles < assembly.KRYLOV_MAX and gram._lu is None

    def test_empty_space_closes_at_zero(self, square_spaces):
        # level 0 has no interior dof; its bracket closes at once, with no
        # minimum taken over an empty mass diagonal
        bracket = assembly.DualNormBracket(assembly.H1Gram(square_spaces[0]), np.zeros(0))
        assert bracket.closed and bracket.value == bracket.lo == bracket.hi == 0.0

    @pytest.mark.parametrize("family", ["xz_square", "acute_rhombus"])
    def test_mass_dominates_half_its_diagonal(self, family):
        # the premise of the upper bound: M - diag(M)/2 is positive
        # semidefinite, so min(diag M)/2 bounds the spectrum of G from below
        space = mf.P1Space(mf.mesh_hierarchy(family, 3)[3])
        M = space.mass.toarray()
        assert np.linalg.eigvalsh(M - np.diag(np.diag(M)) / 2).min() >= -1e-15 * M.max()
        low = np.diag(M).min() / 2
        assert 0 < low <= np.linalg.eigvalsh(space.h1_gram.toarray()).min()

    def test_released_bracket_replays_its_iterations(self, square_spaces):
        space = square_spaces[6]
        gram = assembly.H1Gram(space)
        r = np.random.default_rng(7).standard_normal(space.ndof)
        kept, released = (assembly.DualNormBracket(gram, r) for _ in range(2))
        for _ in range(2):
            kept.refine()
            released.refine()
        released.release()
        before = gram.cycles
        kept.refine()
        assert gram.cycles == before + 1
        released.refine()   # two replayed cycles and a new one
        assert gram.cycles == before + 4
        assert (released.cycles, released.lo, released.hi) == (kept.cycles, kept.lo, kept.hi)
        assert released.close() == kept.close() == riesz_dual_norm(gram, r)

    def test_open_bracket_closes_through_the_held_lu(self, square_spaces, monkeypatch):
        # once a solve with G falls back to its LU, an open bracket closes
        # through that LU on its next refine, with no further V-cycle
        space = square_spaces[6]
        gram = assembly.H1Gram(space)
        rng = np.random.default_rng(8)
        r = rng.standard_normal(space.ndof)
        bracket = assembly.DualNormBracket(gram, r)
        bracket.refine()
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        gram.solve(rng.standard_normal(space.ndof))
        assert gram._lu is not None
        cycles = gram.cycles
        bracket.refine()
        assert bracket.closed and gram.cycles == cycles
        assert bracket.value == riesz_dual_norm(gram, r)

    @pytest.mark.parametrize("instance", ["sine", "hard_g_one"])
    def test_solve_matches_closed_decisions(self, instance, sine_problem,
                                            square_hierarchy, monkeypatch):
        # every decision made from the bounds is the one the closed values
        # make: u, m, the counts and the returned norms are bitwise those of
        # a solve whose every dual norm is closed before it is compared; the
        # hard instance halves its first step
        mesh = square_hierarchy[6]
        space = mf.P1Space(mesh)
        problem = (sine_problem if instance == "sine"
                   else mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0))
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        sol = solve_mfg(space, problem, tensor)
        bracket = assembly.DualNormBracket
        monkeypatch.setattr(assembly, "DualNormBracket",
                            lambda gram, r: _closed(bracket(gram, r)))
        closed = solve_mfg(space, problem, tensor)
        assert np.array_equal(sol.u.coeffs, closed.u.coeffs)
        assert np.array_equal(sol.m.coeffs, closed.m.coeffs)
        assert (sol.outer_iters, sol.newton_iters_total, sol.residual1_dual,
                sol.residual2_dual) == (closed.outer_iters, closed.newton_iters_total,
                                        closed.residual1_dual, closed.residual2_dual)
        bounds = ("residual1_dual", "residual2_dual", "gram_cycles")
        for got, want in zip(sol.history, closed.history):
            assert {k: v for k, v in got.items() if k not in bounds} == (
                {k: v for k, v in want.items() if k not in bounds})
            assert got["residual1_dual"] >= want["residual1_dual"]
            assert got["residual2_dual"] >= want["residual2_dual"]
        assert sol.history[-1] | {"gram_cycles": 0} == closed.history[-1] | {"gram_cycles": 0}
        halvings = sum(h["linesearch_halvings"] for h in sol.history)
        assert halvings == (0 if instance == "sine" else 1)
        assert sum(h["gram_cycles"] for h in sol.history) < (
            sum(h["gram_cycles"] for h in closed.history))


def _sine_system(level, square_hierarchy):
    mesh = square_hierarchy[level]
    return mf.P1Space(mesh), mf.build_xz_tensor(mesh, 1.0)


class TestHJB:
    """The semismooth Newton iteration, which solves the HJB equation together
    with the KFP equation."""

    def test_linear_hamiltonian_one_iteration(self, square_spaces):
        # with H affine in p the coupled system is linear: one step solves it
        space = square_spaces[3]
        ham = mf.finite_control([(0.3, 0.2)], [0.1], smoothing=0.2)
        problem = mf.MFGProblem(
            nu=1.0, hamiltonian=ham,
            coupling=mf.CouplingF(c_F=1.0, offset=lambda x, y: np.sin(3 * x) * y),
            source=mf.SourceG(nonneg_certified=True))
        sol = solve_mfg(space, problem, None)
        assert sol.newton_iters_total == 1

    def test_zero_fixed_point(self, square_spaces):
        space = square_spaces[3]
        sol = solve_mfg(space, mf.make_zero_problem(), None)
        assert np.all(sol.u.coeffs == 0.0)
        assert sol.newton_iters_total == 0

    def test_sine_newton_count(self, sine_problem, square_hierarchy):
        for level in (3, 4, 5):
            space, tensor = _sine_system(level, square_hierarchy)
            assert solve_mfg(space, sine_problem, tensor).newton_iters_total <= 4

    def test_newton_budget(self, sine_problem, square_hierarchy):
        # from the zero pair the solve needs exactly 3 Newton steps
        space, tensor = _sine_system(3, square_hierarchy)
        with pytest.raises(NonConvergenceError, match="in 1 steps") as err:
            solve_mfg(space, sine_problem, tensor, SolverConfig(max_newton=1))
        assert err.value.last_residual == pytest.approx(0.370, rel=1e-2)
        assert len(err.value.history) == 1
        cfg = SolverConfig(max_newton=3)
        sol = solve_mfg(space, sine_problem, tensor, cfg)
        assert sol.newton_iters_total == 3
        assert all(h["linesearch_halvings"] == 0 for h in sol.history)
        system = DiscreteSystem(space, sine_problem, tensor)
        gram = assembly.H1Gram(space)
        for r in (system.hjb_residual(sol.u, sol.m), system.kfp_residual(sol.u, sol.m)):
            assert riesz_dual_norm(gram, r) <= cfg.tol_outer

    def test_rejects_nonsmooth(self, square_spaces):
        ham = mf.finite_control([(1, 0), (-1, 0)], [0, 0])
        problem = mf.MFGProblem(nu=1.0, hamiltonian=ham,
                                coupling=mf.CouplingF(c_F=1.0),
                                source=mf.SourceG())
        with pytest.raises(ConfigurationError, match="smooth Hamiltonian"):
            solve_mfg(square_spaces[2], problem, None)

    def test_line_search_floor_raises(self, sine_problem, square_spaces, monkeypatch):
        # a step that ascends keeps raising the residual down to length 2^-10
        space = square_spaces[3]
        newton = DiscreteSystem.newton_step
        monkeypatch.setattr(DiscreteSystem, "newton_step",
                            lambda self, u, m, rhs: -newton(self, u, m, rhs))
        with pytest.raises(NonConvergenceError, match="2\\^-10") as err:
            solve_mfg(space, sine_problem, None)
        system = DiscreteSystem(space, sine_problem, None)
        zero = mf.P1Function(space, np.zeros(space.ndof))
        gram = assembly.H1Gram(space)
        start = max(riesz_dual_norm(gram, system.hjb_residual(zero, zero)),
                    riesz_dual_norm(gram, system.kfp_residual(zero, zero)))
        assert err.value.last_residual == start
        assert err.value.history == []

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
                  + assemble_hjb_drift(space, drift_oracle(ham, u)) @ u.coeffs
                  - hamiltonian_load_oracle(space, ham, u))
        got = r + system.linearize(u) @ u.coeffs
        assert np.linalg.norm(got - oracle) <= 1e-13 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("overshoot", [1.0, 4.0])
    def test_one_linearization_per_iterate(self, overshoot, sine_problem,
                                           square_hierarchy, monkeypatch):
        # one element pass forms L(u) and the H load per new u: the zero pair,
        # each step and each halving; the stop test's KFP solve and residuals,
        # and the Jacobian, reuse it, and an overshooting step makes the line
        # search halve
        space, tensor = _sine_system(3, square_hierarchy)
        linearization = assembly.linearization
        calls = []
        monkeypatch.setattr(assembly, "linearization",
                            lambda *args: calls.append(None) or linearization(*args))
        newton = DiscreteSystem.newton_step
        monkeypatch.setattr(DiscreteSystem, "newton_step",
                            lambda self, u, m, rhs: overshoot * newton(self, u, m, rhs))
        sol = solve_mfg(space, sine_problem, tensor)
        halvings = sum(h["linesearch_halvings"] for h in sol.history)
        assert sol.newton_iters_total > 0 and (halvings > 0) is (overshoot > 1.0)
        assert len(calls) == 1 + sol.newton_iters_total + halvings


class TestKFP:
    def test_g_one_pure_diffusion_nonnegative(self, g_one_problem, square_spaces):
        space = square_spaces[3]
        zero = mf.P1Function(space, np.zeros(space.ndof))
        m = solve_kfp(DiscreteSystem(space, g_one_problem, None), zero)
        assert m.coeffs.min() >= 0.0

    def test_zero_source(self, square_spaces):
        space = square_spaces[3]
        problem = mf.make_zero_problem()
        zero = mf.P1Function(space, np.zeros(space.ndof))
        m = solve_kfp(DiscreteSystem(space, problem, None), zero)
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
        system.solve(mf.P1Function(space, np.zeros(space.ndof)))
        u = mf.interpolate(space, sine_problem.exact.u.value)
        monkeypatch.setattr(assembly, "KRYLOV_RTOL", 1e-16)
        x = system.solve(u)
        op = system.linearize(u).T
        assert system.factorizations == 1
        assert 0 < system.krylov_iters <= assembly.KRYLOV_MAX
        assert np.linalg.norm(system.g_load - op @ x) <= 1e-13 * np.linalg.norm(system.g_load)

    def test_multilevel_attainable_accuracy_accepts_without_rebuilding(
            self, sine_problem, square_hierarchy, monkeypatch):
        # the same with a three-level hierarchy of K (levels 4, 3 and 2): its
        # V-cycle, built at u = 0, takes GMRES to the attainable accuracy of
        # the drifted KFP operator without a rebuild.  GMRES stops on its
        # least-squares residual, which stagnates near the unit roundoff
        # (8.3e-17 |rhs| with a SuperLU on the coarsest level, 1.9e-16 with a
        # band LU), so the target is 1e-15, not 1e-16; the true residual
        # bound below is the attainable accuracy
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
        system.solve(mf.P1Function(space, np.zeros(space.ndof)))
        assert len(system._multigrid.levels) == 2
        iters = system.krylov_iters
        u = mf.interpolate(space, sine_problem.exact.u.value)
        monkeypatch.setattr(assembly, "KRYLOV_RTOL", 1e-15)
        x = system.solve(u)
        op = system.linearize(u).T
        assert system.factorizations == 1
        assert 0 < system.krylov_iters - iters <= assembly.KRYLOV_MAX
        assert np.linalg.norm(system.g_load - op @ x) <= 1e-13 * np.linalg.norm(system.g_load)

    def test_each_solution_passes_one_residual_test(
            self, sine_problem, square_hierarchy, monkeypatch):
        # a GMRES iterate has passed the residual test inside _gmres, so
        # solve returns it unchecked; with an exact hierarchy, whose V-cycle
        # is the LU of L^T, GMRES takes one iteration
        calls = []
        check = assembly.checked

        def counting(op, x, rhs):
            calls.append(x)
            return check(op, x, rhs)

        monkeypatch.setattr(assembly, "checked", counting)
        mesh = square_hierarchy[4]
        space = mf.P1Space(mesh)
        u = mf.interpolate(space, sine_problem.exact.u.value)
        for coarse, exact in ((assembly.COARSE_DOFS, True), (40, False)):
            monkeypatch.setattr(assembly, "COARSE_DOFS", coarse)
            system = DiscreteSystem(space, sine_problem, mf.build_xz_tensor(mesh, 1.0))
            calls.clear()
            x = system.solve(u)
            assert system._multigrid.exact is exact
            assert (system.krylov_iters == 1) is exact
            assert calls == []
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
        system.solve(mf.P1Function(space, np.zeros(space.ndof)))
        u = mf.interpolate(space, sine_problem.exact.u.value)
        op = system.linearize(u).T
        held = system._multigrid
        vcycle = held.solve
        cycles = []

        def counting(b, trans="N"):
            cycles.append(trans)
            return vcycle(b, trans)

        def precondition(b):
            return held.solve(b, "T")

        monkeypatch.setattr(held, "solve", counting)
        iters = system.krylov_iters
        assert system._gmres(op, precondition, system.g_load, None) is not None
        # one V-cycle per iteration, and one that forms the iterate
        assert len(cycles) == system.krylov_iters - iters + 1 <= assembly.KRYLOV_MAX + 1
        forming = len(cycles)

        def perturbed(b, trans="N"):
            cycles.append(trans)
            x = vcycle(b, trans)
            return x + 1e-6 if len(cycles) == forming else x

        monkeypatch.setattr(held, "solve", perturbed)
        cycles.clear()
        assert system._gmres(op, precondition, system.g_load, None) is None
        cycles.clear()
        x = system.solve(u)
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
        drift = drift_oracle(g_one_problem.hamiltonian, u)
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

    def test_agrees_with_tight_solve(self, sine_problem, square_hierarchy):
        # uniqueness of the discrete solution: the default stop test lands
        # where a solve to tol_outer = 1e-12 does
        space, tensor = _sine_system(4, square_hierarchy)
        sol = solve_mfg(space, sine_problem, tensor)
        tight = solve_mfg(space, sine_problem, tensor, SolverConfig(tol_outer=1e-12))
        assert np.abs(sol.u.coeffs - tight.u.coeffs).max() < 1e-8
        assert np.abs(sol.m.coeffs - tight.m.coeffs).max() < 1e-8

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
        made = track_factorizations(monkeypatch)
        sol = solve_mfg(space, sine_problem, tensor)
        assert len(made) == 2
        assert [h["factorizations"] for h in sol.history] == (
            [1] + [0] * (sol.newton_iters_total - 1))
        # each step solves its Newton system by GMRES
        assert all(h["krylov_iters"] >= 1 for h in sol.history[1:])

    def test_one_mass_assembly_and_two_lus_per_solve(self, sine_problem, monkeypatch):
        # the space's mass matrix serves the coupling and the Gram matrix, and
        # the only LUs are the Gram matrix's and the held hierarchy's coarsest;
        # fresh meshes, whose spaces hold no matrices from earlier tests
        mesh = mf.mesh_hierarchy("xz_square", 3)[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        calls = {"assemble_mass": 0, "factorize": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(assembly, "assemble_mass",
                            counting("assemble_mass", assembly.assemble_mass))
        monkeypatch.setattr(assembly, "factorize",
                            counting("factorize", assembly.factorize))
        solve_mfg(space, sine_problem, tensor)
        assert calls == {"assemble_mass": 1, "factorize": 2}

    def test_krylov_fallback_refactorizes(self, sine_problem, square_hierarchy,
                                          monkeypatch):
        # one GMRES iteration is too few away from the held LU's own point: the
        # system releases it and factorizes the current linearization, which
        # solves a KFP equation directly and preconditions a Newton system,
        # whose GMRES falls short again, so the Newton system is factorized
        # too; the answer is that of a run where every solve factorizes
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        direct = _all_direct_solve(space, sine_problem, tensor)
        assert sum(h["factorizations"] for h in direct.history) == (
            2 * (direct.newton_iters_total + direct.outer_iters))

        factorize = assembly.factorize
        live = weakref.WeakSet()
        alive_at_factorization = []

        class TrackedLU:
            def __init__(self, lu):
                self.solve = lu.solve

        def tracking_factorize(*args, **kwargs):
            alive_at_factorization.append(len(live))
            lu = TrackedLU(factorize(*args, **kwargs))
            live.add(lu)
            return lu

        monkeypatch.setattr(assembly, "factorize", tracking_factorize)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        sol = solve_mfg(space, sine_problem, tensor)
        fallbacks = sum(h["factorizations"] for h in sol.history) - 1
        assert fallbacks >= 1
        assert len(alive_at_factorization) == 2 + fallbacks
        # at most two other LUs are alive when one is made: the Gram LU while
        # a linearization is factorized, and both while a Newton system is
        assert max(alive_at_factorization) <= 2
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
        solves = direct.newton_iters_total + direct.outer_iters

        made = track_factorizations(monkeypatch)
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        sol = solve_mfg(space, sine_problem, tensor)
        sizes = [size for size, _, _ in made]
        assert sum(h["factorizations"] for h in sol.history) == 2 * solves
        # first the Gram hierarchy's coarsest level; then per solve the
        # level-2 coarsest level and L, or the 2n Jacobian for a Newton step;
        # and once, when a dual norm first needs a second CG iteration (at the
        # latest to close the returned pair's norms), the held LU of G
        n = space.ndof
        G = space.h1_gram
        gram_lu = [i for i, (size, A, _) in enumerate(made)
                   if size == n and A.shape == G.shape and abs(A - G).max() == 0.0]
        assert len(gram_lu) == 1
        del sizes[gram_lu[0]]
        steps = [[9, 2 * n] + [9, n] * h["stop_test"] for h in sol.history]
        assert sizes == [9] + sum(steps, [])
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
        system.solve(mf.P1Function(space, np.zeros(space.ndof)))
        assert system._multigrid.exact and not system._multigrid.levels
        sol = solve_mfg(space, sine_problem, tensor)
        assert (sol.outer_iters, sol.newton_iters_total) == (1, 3)
        assert [h["factorizations"] for h in sol.history] == (
            [1] + [0] * (sol.newton_iters_total - 1))

    def test_drift_bound_excess_recorded(self, sine_problem, square_hierarchy):
        # a Hamiltonian that understates its drift bound: every assembly of a
        # drift beyond it warns, and the step's history entry records by how
        # much
        ham = sine_problem.hamiltonian
        problem = dataclasses.replace(
            sine_problem, hamiltonian=dataclasses.replace(ham, L_H=0.25 * ham.L_H))
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        with pytest.warns(UserWarning, match="exceeds bound"):
            sol = solve_mfg(space, problem, mf.build_xz_tensor(mesh, ham.L_H))
        # |grad u| passes R = L_H somewhere in every step, where the Huber
        # drift saturates at |b| = L_H
        excess = [h["drift_excess"] for h in sol.history]
        assert excess == pytest.approx([0.75 * ham.L_H] * sol.newton_iters_total, rel=1e-12)
        clean = solve_mfg(space, sine_problem, mf.build_xz_tensor(mesh, ham.L_H))
        assert [h["drift_excess"] for h in clean.history] == [0.0] * clean.newton_iters_total

    def test_level4_sine_matches_recorded_solve(self, sine_problem, square_hierarchy):
        # two default-tolerance iterates that both pass tol_outer may differ by
        # ~1e-10, so the answer is pinned where any correct solver must agree: a
        # tight solve, against H1 errors recorded from a damped Picard solve
        # (39 sweeps, 47 Newton steps); the default solve pins the path
        space, tensor = _sine_system(4, square_hierarchy)
        sol = solve_mfg(space, sine_problem, tensor)
        assert (sol.outer_iters, sol.newton_iters_total) == (1, 3)
        tight = solve_mfg(space, sine_problem, tensor, SolverConfig(tol_outer=1e-12))
        ex = sine_problem.exact
        assert abs(mf.error_h1(tight.u, ex.u.value, ex.u.grad) - 0.3730181080584706) <= 1e-12
        assert abs(mf.error_h1(tight.m, ex.m.value, ex.m.grad) - 0.36447419170370454) <= 1e-12

    @pytest.mark.parametrize("family, make_problem, path", [
        ("xz_square", lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0),
         (1, 3, 21, 1)),
        ("acute_rhombus", lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0,
                                                       domain="acute_rhombus"),
         (1, 3, 21, 1)),
        ("xz_square", lambda: mf.make_g_one_problem(1.0, mf.huber_ball(1.0), 1.0),
         (1, 2, 7, 1)),
        ("xz_square", lambda: mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0),
         (1, 4, 38, 1)),
        ("xz_square", lambda: mf.make_rough_density_problem(1.0, mf.huber_ball(1.0), 1.0),
         (1, 3, 21, 1)),
    ], ids=["sine", "sine_acute", "g_one", "hard_g_one", "rough"])
    def test_level5_solver_path(self, family, make_problem, path, square_hierarchy,
                                rhombus_hierarchy):
        # the default solve's stop tests, Newton steps, GMRES iterations and
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

    def test_hard_instance_descends_to_tolerance(self, square_hierarchy):
        # the hard g_one instance: every step lowers the larger dual norm, and
        # the returned pair passes the stop test with the DMP intact, where a
        # solve to tol_outer = 1e-12 lands
        mesh = square_hierarchy[5]
        space = mf.P1Space(mesh)
        problem = mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0)
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        sol = solve_mfg(space, problem, tensor)
        peaks = [max(h["residual1_dual"], h["residual2_dual"]) for h in sol.history]
        for prev, cur in zip(peaks, peaks[1:]):
            assert cur <= prev
        assert max(sol.residual1_dual, sol.residual2_dual) <= SolverConfig().tol_outer
        assert sol.m.coeffs.min() >= mf.analysis.DMP_TOL
        tight = solve_mfg(space, problem, tensor, SolverConfig(tol_outer=1e-12))
        assert np.abs(tight.u.coeffs - sol.u.coeffs).max() < 1e-8
        assert np.abs(tight.m.coeffs - sol.m.coeffs).max() < 1e-8

    def test_history_records_step_and_dmp_margin(self, sine_problem, square_hierarchy):
        # one entry per Newton step, each a full step on this instance; the
        # last made the stop test, whose pair is the one returned
        space, tensor = _sine_system(3, square_hierarchy)
        sol = solve_mfg(space, sine_problem, tensor)
        assert [h["newton"] for h in sol.history] == list(range(1, sol.newton_iters_total + 1))
        assert all(h["step"] == 1.0 and h["linesearch_halvings"] == 0 for h in sol.history)
        assert [h["stop_test"] for h in sol.history] == [False, False, True]
        assert sol.history[-1]["min_m"] == sol.m.coeffs.min()

    def test_returned_density_is_a_kfp_solve(self, sine_problem, square_hierarchy):
        # the Newton iterate is never returned: m solves the KFP equation at u
        # to the tolerance of its linear solve (a direct LU at this level, whose
        # residual lies far below KRYLOV_RTOL |G|)
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        system = DiscreteSystem(space, sine_problem, tensor)
        residual = np.linalg.norm(system.kfp_residual(sol.u, sol.m))
        assert residual <= assembly.KRYLOV_RTOL * np.linalg.norm(system.g_load)

    def test_zero_pair_within_tolerance_is_stop_tested(self, sine_problem, square_hierarchy):
        # a tolerance the zero pair already meets: no Newton step is taken,
        # and the pair returned is (0, KFP(0)) from its one stop test
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor, SolverConfig(tol_outer=1e3))
        assert (sol.outer_iters, sol.newton_iters_total, sol.history) == (1, 0, [])
        assert not sol.u.coeffs.any()
        system = DiscreteSystem(space, sine_problem, tensor)
        m0 = solve_kfp(system, mf.P1Function(space, np.zeros(space.ndof)))
        assert np.abs(sol.m.coeffs - m0.coeffs).max() <= 1e-14 * np.abs(m0.coeffs).max()

    def test_nonconvergence_carries_history(self, sine_problem, square_hierarchy):
        mesh = square_hierarchy[3]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_mfg(space, sine_problem, tensor, SolverConfig(max_newton=1))
        assert len(err.value.history) == 1

    def test_newton_failure_carries_outer_history(self, sine_problem, square_hierarchy,
                                                  monkeypatch):
        # the 3rd Newton step ascends, so its line search fails; the error
        # lists the steps completed before it
        space, tensor = _sine_system(3, square_hierarchy)
        newton = DiscreteSystem.newton_step
        calls = []

        def step(self, u, m, rhs):
            calls.append(None)
            delta = newton(self, u, m, rhs)
            return delta if len(calls) < 3 else -delta

        monkeypatch.setattr(DiscreteSystem, "newton_step", step)
        with pytest.raises(NonConvergenceError, match="2\\^-10") as err:
            solve_mfg(space, sine_problem, tensor)
        history = err.value.history
        assert [h["newton"] for h in history] == [1, 2]
        assert err.value.last_residual == max(history[-1]["residual1_dual"],
                                              history[-1]["residual2_dual"])

    def test_telemetry_fields(self, sine_problem, square_hierarchy):
        mesh = square_hierarchy[2]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        sol = solve_mfg(space, sine_problem, tensor)
        assert sol.newton_iters_total == len(sol.history)
        assert sol.history[-1]["residual1_dual"] == sol.residual1_dual


class TestCoupledNewton:
    @pytest.mark.parametrize("ham", [mf.huber_ball(1.0),
                                     mf.finite_control([(1, 0), (-1, 0), (0, 1)],
                                                       [0.0, 0.1, 0.2], smoothing=0.1)],
                             ids=["huber", "log_sum_exp"])
    def test_jacobian_matches_central_differences(self, ham, square_spaces):
        # J = [[L, -c_F M], [C, L^T]] is minus the derivative of (r1, r2): at a
        # random (u, m > 0) whose gradients stay away from the Huber kink, J v
        # matches central differences of the residuals along random v
        space = square_spaces[3]
        n = space.ndof
        problem = mf.make_g_one_problem(0.5, ham, 2.0)
        system = DiscreteSystem(space, problem, None)
        rng = np.random.default_rng(11)
        u = mf.P1Function(space, 0.08 * rng.standard_normal(n))
        m = mf.P1Function(space, rng.uniform(0.5, 2.0, n))
        radius = np.linalg.norm(u.element_gradients(), axis=1)
        assert (radius < 1.0).any() and (radius > 1.0).any()
        assert np.abs(radius - 1.0).min() > 1e-3
        J = system.jacobian(u, m)
        dense = J.tocsc().toarray()

        def residuals(x):
            fu, fm = mf.P1Function(space, x[:n]), mf.P1Function(space, x[n:])
            return np.concatenate([system.hjb_residual(fu, fm), system.kfp_residual(fu, fm)])

        x = np.concatenate([u.coeffs, m.coeffs])
        step = 1e-7
        for _ in range(3):
            v = rng.standard_normal(2 * n)
            fd = -(residuals(x + step * v) - residuals(x - step * v)) / (2.0 * step)
            assert np.allclose(dense @ v, J @ v, rtol=0, atol=1e-12)
            assert np.abs(J @ v - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("problem, level", [
        (mf.make_g_one_problem(0.02, mf.huber_ball(2.0), 5.0), 5),
        (mf.make_g_one_problem(0.02, mf.huber_ball(2.0), 5.0), 6),
        (mf.make_g_one_problem(0.1, mf.finite_control([(1, 0), (-1, 0), (0, 1)],
                                                      [0.0, 0.1, 0.2], smoothing=0.05), 5.0),
         5),
        (mf.make_g_one_problem(0.1, mf.finite_control([(1, 0), (-1, 0), (0, 1)],
                                                      [0.0, 0.1, 0.2], smoothing=0.05), 5.0),
         6),
    ], ids=["g_one_nu_0.02", "g_one_nu_0.02_level_6",
            "log_sum_exp_eps_0.05", "log_sum_exp_eps_0.05_level_6"])
    def test_hardest_probes_converge(self, problem, level, square_hierarchy, monkeypatch):
        # small nu with a strong coupling, and a sharp smoothed three-control
        # Hamiltonian: cold-start Newton converges with the DMP intact, and no
        # Newton system is solved by the LU of the 2n Jacobian, since the
        # first step, at the zero pair, has no coupling block C to drop
        mesh = square_hierarchy[level]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
        splu = scipy.sparse.linalg.splu
        sizes = []

        def tracking_splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        sol = solve_mfg(space, problem, tensor)
        assert max(sol.residual1_dual, sol.residual2_dual) <= SolverConfig().tol_outer
        assert sol.m.coeffs.min() >= mf.analysis.DMP_TOL
        assert 2 * space.ndof not in sizes


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
        cfg = SolverConfig(tol_outer=1e-12)
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
        cfg = SolverConfig(tol_outer=1e-12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "COARSE_DOFS", 40)
            system = DiscreteSystem(space, problem, tensor)
            system.solve(mf.P1Function(space, np.zeros(space.ndof)))
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
            SolverConfig(max_newton=0)
        with pytest.raises(ConfigurationError):
            SolverConfig(tol_outer=-1.0)
