"""Solution of the coupled discrete system: safeguarded Anderson mixing of the
density fixed-point map m -> KFP(HJB(m)) around a semismooth-Newton inner solve
for the HJB equation.  The KFP step solves with the transpose of the HJB
linearization at the new value function.  Every linear step is one
``DiscreteSystem.solve``, which owns the linear-solve policy (see ``assembly``):
GMRES preconditioned with a geometric V-cycle over the nested meshes, which on
a space of at most ``assembly.COARSE_DOFS`` dofs is one LU.

Convergence is declared on the dual norms of the two discrete residual
operators (the quantities the stability theory controls), computed via the H1
Gram matrix: ||r||_{V*} = sqrt(r^T Gram^-1 r), with the ``assembly.H1Gram``
that the one ``DiscreteSystem`` of a solve owns: CG preconditioned with a
V-cycle to a relative ``assembly.KRYLOV_RTOL`` in r^T Gram^-1 r, or one LU on
a space of at most ``assembly.COARSE_DOFS`` dofs.  The returned density is
always a KFP solve, never a mixed iterate, so it obeys the discrete maximum
principle whenever the scheme does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import assembly
from .errors import ConfigurationError, NonConvergenceError, SolverError
from .fespace import P1Function

# differences of iterates and of residuals kept by the Anderson mixing
ANDERSON_DEPTH = 5


@dataclass
class SolverConfig:
    tol_outer: float = 1e-9
    max_outer: int = 200
    damping: float = 0.5
    tol_newton: float = 1e-10
    max_newton: int = 30

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ConfigurationError("damping must lie in (0, 1]")
        if self.tol_outer <= 0 or self.tol_newton <= 0:
            raise ConfigurationError("tolerances must be positive")
        if self.max_outer < 1 or self.max_newton < 1:
            raise ConfigurationError("iteration budgets must be positive")


@dataclass
class DiscreteSolution:
    u: P1Function
    m: P1Function
    outer_iters: int
    newton_iters_total: int
    residual1_dual: float
    residual2_dual: float
    history: list = dataclass_field(default_factory=list)


def riesz_dual_norm(gram, r):
    """Discrete V* norm sqrt(r^T Gram^-1 r) of the functional with load r;
    ``gram`` solves with the Gram matrix (an ``assembly.H1Gram`` or an LU)."""
    r = np.asarray(r, dtype=float)
    if r.shape[0] == 0:
        return 0.0
    val = float(r @ gram.solve(r))
    if val < -1e-12 * max(1.0, float(r @ r)):
        raise SolverError("Gram matrix is not positive definite")
    return math.sqrt(max(val, 0.0))


def _newton_proposal(system, r, u):
    """Solution of the HJB equation linearized at u, whose residual load is r:
    L(u) x = r + L(u) u, which is <F[m], xi_i> + B(u) u - H[grad u]."""
    fn = P1Function(system.space, u)
    return system.solve(fn, r + system.linearize(fn) @ u, x0=u)


def solve_hjb(system, m_fixed, cfg=None, u0=None):
    """Semismooth Newton for the HJB equation of ``system`` at a frozen density,
    with residual dual norms measured by ``system.gram``.

    Each step freezes the drift dH/dp[grad u^n] and solves the resulting member
    of the advection class, with the residual load the solve carries from its
    last accepted iterate; the step is damped by halving whenever the residual
    dual norm fails to decrease.  If it still fails at step 2^-10, the solve
    raises NonConvergenceError.  Returns ``(u, newton_iterations, halvings)``.
    """
    if not system.problem.hamiltonian.smooth:
        raise ConfigurationError("Newton solver requires a smooth Hamiltonian")
    cfg = cfg or SolverConfig()
    space = system.space
    u = np.zeros(space.ndof) if u0 is None else np.asarray(u0.coeffs, dtype=float).copy()

    def residual(vec):
        r = system.hjb_residual(P1Function(space, vec), m_fixed)
        return r, riesz_dual_norm(system.gram, r)

    halvings = 0
    r, res_norm = residual(u)
    for it in range(1, cfg.max_newton + 1):
        if res_norm <= cfg.tol_newton:
            return P1Function(space, u), it - 1, halvings
        u_prop = _newton_proposal(system, r, u)

        step = 1.0
        u_new = u_prop
        r_new, norm_new = residual(u_new)
        while norm_new > res_norm:
            if step <= 2.0 ** -10:
                raise NonConvergenceError(
                    f"Newton line search raised the residual at step 2^-10 "
                    f"(residual {res_norm:.3e})", last_residual=res_norm)
            step *= 0.5
            halvings += 1
            u_new = u + step * (u_prop - u)
            r_new, norm_new = residual(u_new)
        u, r, res_norm = u_new, r_new, norm_new

    if res_norm <= cfg.tol_newton:
        return P1Function(space, u), cfg.max_newton, halvings
    raise NonConvergenceError(
        f"Newton did not reach {cfg.tol_newton:.1e} in {cfg.max_newton} iterations "
        f"(last residual {res_norm:.3e})", last_residual=res_norm)


def solve_kfp(system, u_fixed):
    """Single linear solve of the discrete KFP equation at a frozen value
    function, with the transpose of the HJB linearization at it."""
    return P1Function(system.space, system.solve(u_fixed, system.g_load, trans="T"))


def solve_m_k_plus(space, problem, tensor):
    """Auxiliary nonnegative density: the KFP discretization driven by the
    EXACT value function's gradient (sampled at element barycenters)."""
    if problem.exact is None:
        raise ConfigurationError("problem carries no exact solution")
    bary = space.mesh.barycenters
    grads = problem.exact.u.grad(bary[:, 0], bary[:, 1])
    drift = np.asarray(problem.hamiltonian.grad_p(grads), dtype=float)
    L = (assembly.assemble_diffusion(space, problem.nu, tensor)
         + assembly.assemble_hjb_drift(space, drift, drift_bound=problem.hamiltonian.L_H))
    load = problem.source.load_vector(space)
    return P1Function(space, assembly.checked(L.T, assembly.factorize(L.T).solve(load), load))


def _anderson_mix(pairs, m, f, beta):
    """Next iterate from m with residual f: m + beta f - (dM + beta dF)^T gamma,
    the rows of dM and dF the (dm, df) difference pairs, gamma minimizing
    |f - dF^T gamma|.  It is the damped Picard step when there are no pairs or
    their residual differences are linearly dependent; the pairs are cleared
    in the latter case."""
    nxt = m + beta * f
    if pairs:
        dm, df = (np.array(rows) for rows in zip(*pairs))
        # normal equations by LU: an SVD least-squares driver would add
        # about 1 MB of resident memory to the process for this 5x5 system
        try:
            gamma = np.linalg.solve(df @ df.T, df @ f)
        except np.linalg.LinAlgError:
            pairs.clear()
            return nxt
        nxt -= gamma @ dm + beta * (gamma @ df)
    return nxt


def solve_mfg(space, problem, tensor, cfg=None):
    """Safeguarded Anderson mixing of the density fixed-point map
    m -> KFP(HJB(m)) (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    The first iterate solves the KFP equation at u = 0.  Sweep k solves HJB at
    the iterate m_k (Newton warm-started from the last accepted value
    function), then KFP at the new u_k, giving g_k, and measures both residual
    dual norms at (u_k, g_k).  Convergence is declared, and (u_k, g_k)
    returned, when both fall below tol_outer.  Otherwise the next iterate mixes
    the last ANDERSON_DEPTH differences of iterates and of residuals f = g - m
    with weight ``cfg.damping``; with no history that is the damped Picard step
    m + damping f.  A mixed iterate whose sweep raises the larger dual norm
    above the last accepted sweep's is rejected: the history is cleared and
    the damped Picard step is taken from the last accepted sweep.  Every sweep,
    a rejected one too, appends an entry to ``history``, with the
    factorizations and GMRES iterations of its linear solves, the V-cycles of
    its dual norms (``gram_cycles``, 0 where the Gram solver is an LU) and the
    largest excess of a drift it assembled over L_H, 0.0 when all were within
    it (the first entry counts the initial KFP solve too).  A
    NonConvergenceError of the HJB solve is raised again carrying the history
    of the sweeps before it.
    """
    cfg = cfg or SolverConfig()
    if space.ndof == 0:
        raise ConfigurationError("the mesh has no interior vertex: nothing to solve")
    system = assembly.DiscreteSystem(space, problem, tensor)
    pairs = deque(maxlen=ANDERSON_DEPTH)   # (dm, df) of consecutive accepted sweeps
    history = []
    newton_total = 0

    u_acc = space.zero_function()
    m = solve_kfp(system, u_acc).coeffs
    step = "picard"
    m_acc = f_acc = None
    # factorizations, GMRES iterations and Gram V-cycles before this sweep
    counted = (0, 0, 0)
    for outer in range(1, cfg.max_outer + 1):
        try:
            u, newton_iters, halvings = solve_hjb(system, P1Function(space, m), cfg, u0=u_acc)
        except NonConvergenceError as exc:
            exc.history = history
            raise
        newton_total += newton_iters
        g = solve_kfp(system, u)

        d1 = riesz_dual_norm(system.gram, system.hjb_residual(u, g))
        d2 = riesz_dual_norm(system.gram, system.kfp_residual(u, g))
        peak = max(d1, d2)
        rejected = step == "anderson" and peak > peak_acc * (1.0 + 1e-10)
        history.append({"outer": outer, "residual1_dual": d1, "residual2_dual": d2,
                        "newton_iters": newton_iters, "linesearch_halvings": halvings,
                        "min_m": float(g.coeffs.min()),
                        "step": step, "rejected": rejected,
                        "factorizations": system.factorizations - counted[0],
                        "krylov_iters": system.krylov_iters - counted[1],
                        "gram_cycles": system.gram.cycles - counted[2],
                        "drift_excess": system.drift_excess})
        counted = (system.factorizations, system.krylov_iters, system.gram.cycles)
        system.drift_excess = 0.0

        if peak <= cfg.tol_outer:
            return DiscreteSolution(u=u, m=g, outer_iters=outer,
                                    newton_iters_total=newton_total,
                                    residual1_dual=d1, residual2_dual=d2,
                                    history=history)

        if rejected:
            pairs.clear()
        else:
            f = g.coeffs - m
            if m_acc is not None:
                pairs.append((m - m_acc, f - f_acc))
            m_acc, f_acc, u_acc, peak_acc = m, f, u, peak
        m = _anderson_mix(pairs, m_acc, f_acc, cfg.damping)
        step = "anderson" if pairs else "picard"

    raise NonConvergenceError(
        f"outer loop did not reach {cfg.tol_outer:.1e} in {cfg.max_outer} sweeps "
        f"(last residual {peak:.3e})", history=history, last_residual=peak)
