"""Solve the coupled MFG system on the manufactured sine instance and inspect
the solver telemetry.

The exact pair is u* = m* = sin(pi x) sin(pi y) with nu = 1, the Huber
Hamiltonian of the unit control disk, and the local coupling F[m] = m + f0.
The solver runs damped semismooth Newton on the HJB and KFP equations at once,
from the zero pair (u, m) = (0, 0): each step solves the coupled Jacobian
system by GMRES, preconditioned with the block triangle of the HJB
linearization L, its transpose and the mass matrix, and halves the step while
the larger residual dual norm rises.  At the zero pair the Jacobian is that
block triangle, so on this mesh, whose V-cycle is one LU, the first step takes
one GMRES iteration.  The V-cycles of L come from one held
hierarchy, which on this small mesh is one LU, factorized again only when
GMRES falls short; each step reports its factorizations and GMRES iterations.
Convergence is declared on the dual norms of the two discrete residuals,
measured with the H1 Gram matrix: on a mesh of more than 1000 dofs by CG
preconditioned with a V-cycle, whose cycles each step reports too (none here,
where the Gram solver is one LU).  Once they pass, the density is replaced by
the KFP solve at the current u and the test is made again there, so the
density returned is a KFP solve.
"""

import numpy as np

import mfgfem as mf
from mfgfem.analysis import error_h1, error_l2

LEVEL = 4

problem = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)
mesh = mf.mesh_hierarchy("xz_square", LEVEL)[LEVEL]
space = mf.P1Space(mesh)
tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)

solution = mf.solve_mfg(space, problem, tensor)

print(f"level {LEVEL}: {space.ndof} interior dofs")
print(f"converged in {solution.newton_iters_total} Newton steps, "
      f"{solution.outer_iters} stop test(s)")
print(f"residual dual norms: HJB {solution.residual1_dual:.2e}, "
      f"KFP {solution.residual2_dual:.2e}")

print()
print("Newton history (max residual dual norm):")
for entry in solution.history:
    peak = max(entry["residual1_dual"], entry["residual2_dual"])
    print(f"  step {entry['newton']:2d}: {peak:.3e} "
          f"(length {entry['step']:g}, {entry['factorizations']} LU, "
          f"{entry['krylov_iters']} GMRES iterations, "
          f"{entry['gram_cycles']} Gram V-cycles, min m {entry['min_m']:.3e}"
          f"{', stop test' if entry['stop_test'] else ''})")

exact = problem.exact
print()
print("errors against the exact pair:")
print(f"  ||u* - u_k||_H1 = {error_h1(solution.u, exact.u.value, exact.u.grad):.4e}")
print(f"  ||m* - m_k||_H1 = {error_h1(solution.m, exact.m.value, exact.m.grad):.4e}")
print(f"  ||u* - u_k||_L2 = {error_l2(solution.u, exact.u.value):.4e}")
print(f"  ||m* - m_k||_L2 = {error_l2(solution.m, exact.m.value):.4e}")

ratio = mf.quasi_optimality_ratio(solution, problem, space, tensor)
print(f"quasi-optimality ratio (error / interpolation proxy + stab terms): {ratio:.3f}")

print()
print("cross-check: a solve to tol_outer = 1e-12 lands on the same discrete solution")
alt = mf.solve_mfg(space, problem, tensor, mf.SolverConfig(tol_outer=1e-12))
print(f"  max coefficient difference: "
      f"{np.abs(alt.m.coeffs - solution.m.coeffs).max():.2e}")
