"""Two structural checks behind the error analysis, run as experiments.

First, the auxiliary nonnegative density: the KFP discretization driven by
the EXACT value function's gradient.  On a convex domain its L2 distance to
the exact density is at worst first order in h; on the smooth sine instance
the observed rate sits near one (the stabilization contributes an O(h) term).

Second, the L2 stability inequality of the discrete system: for any
nonnegative discrete density surrogate and any value surrogate,

    c_F ||mbar - m_k||^2 <= <R1(mbar, ubar), mbar - m_k>
                             - <R2(mbar, ubar), ubar - u_k>,

sampled here over random pairs around a tightly solved state.
"""

import math

import numpy as np

import mfgfem as mf
from mfgfem.analysis import check_l2_monotonicity_inequality, error_l2
from mfgfem.solver import SolverConfig, solve_m_k_plus

print("auxiliary density rate on the sine instance")
problem = mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)
meshes = mf.mesh_hierarchy("xz_square", 6)
prev = None
for level in range(3, 7):
    space = mf.P1Space(meshes[level])
    tensor = mf.build_xz_tensor(meshes[level], 1.0)
    mkp = solve_m_k_plus(space, problem, tensor)
    err = error_l2(mkp, problem.exact.m.value)
    eoc = "" if prev is None else f"  eoc {math.log(prev / err) / math.log(2):.3f}"
    print(f"  level {level}: ||m* - m_k_plus||_L2 = {err:.4e}{eoc}")
    prev = err

print()
print("L2 monotonicity inequality on the G = 1 instance at level 4")
g_one = mf.make_g_one_problem()
mesh = meshes[4]
space = mf.P1Space(mesh)
tensor = mf.build_xz_tensor(mesh, 1.0)
cfg = SolverConfig(tol_outer=1e-12)
solution = mf.solve_mfg(space, g_one, tensor, cfg)
residual = max(solution.residual1_dual, solution.residual2_dual)
print(f"  residual within tol_outer = {cfg.tol_outer:.0e}: {residual <= cfg.tol_outer}; "
      f"min nodal density {solution.m.coeffs.min():.2e}")
ok, worst = check_l2_monotonicity_inequality(space, g_one, tensor, solution,
                                             pairs=50, seed=0)
print(f"  50 random pairs: inequality holds: {ok} "
      f"(worst lhs - rhs = {worst:.3e}, always <= 0 up to solver tolerance)")

rng = np.random.default_rng(0)
print()
print("the inequality margin grows with the distance from the solution:")
from mfgfem import assembly
system = assembly.DiscreteSystem(space, g_one, tensor)
for scale in (0.1, 1.0, 10.0):
    mbar = mf.P1Function(space, scale * np.abs(rng.standard_normal(space.ndof)))
    ubar = mf.P1Function(space, scale * rng.standard_normal(space.ndof))
    r1 = system.hjb_residual(ubar, mbar)
    r2 = system.kfp_residual(ubar, mbar)
    dm = mbar.coeffs - solution.m.coeffs
    du = ubar.coeffs - solution.u.coeffs
    lhs = float(dm @ (space.mass @ dm))
    rhs = float(r1 @ dm) - float(r2 @ du)
    print(f"  scale {scale:5.1f}: c_F ||dm||^2 = {lhs:.3e} <= pairing = {rhs:.3e}")
