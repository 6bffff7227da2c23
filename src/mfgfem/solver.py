"""Solution of the coupled discrete system by damped semismooth Newton on both
residuals at once (Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48, 2010).

The Jacobian of the HJB and KFP residuals at (u, m) is -[[L, -c_F M], [C, L^T]]
with L = K + B(u) the HJB linearization, whose transpose is the KFP operator,
and C the derivative of the KFP drift term in u.  Every linear step is one
KFP solve ``DiscreteSystem.solve(u, x0)`` or one ``DiscreteSystem.newton_step``,
which own the linear-solve policy (see ``assembly``): GMRES preconditioned with
V-cycles of one held ``Multigrid`` hierarchy over the nested meshes, which on a
space of at most ``assembly.COARSE_DOFS`` dofs is one LU, rebuilt after a miss
only when it belongs to another linearization.

Convergence is declared on the dual norms of the two discrete residual
operators (the quantities the stability theory controls), computed via the H1
Gram matrix: ||r||_{V*} = sqrt(r^T Gram^-1 r).  A solve builds one
``assembly.H1Gram(space)``, of the space's ``h1_gram``, for them, and holds
each norm as a certified bracket (``assembly.DualNormBracket``): CG
preconditioned with a V-cycle narrows it one cycle at a time, only until the
line search or the stop test it feeds is decided, and closes it at a relative
``assembly.KRYLOV_RTOL`` in r^T Gram^-1 r, the value of ``riesz_dual_norm``;
on a space of at most ``assembly.COARSE_DOFS`` dofs one LU closes it at once.
Every decision is the one the closed values make.  The returned pair's norms
are closed; ``history`` records the upper bounds of the others.  Newton starts
at the zero pair, with no KFP solve; the returned density is always a KFP
solve (of a stop test), never a Newton iterate, so it obeys the discrete
maximum principle whenever the scheme does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import assembly
from .errors import ConfigurationError, NonConvergenceError
from .fespace import P1Function


@dataclass
class SolverConfig:
    tol_outer: float = 1e-9    # the stop test on both residual dual norms
    max_newton: int = 30       # budget of coupled Newton steps

    def __post_init__(self):
        if not self.tol_outer > 0:
            raise ConfigurationError("tol_outer must be positive")
        if self.max_newton < 1:
            raise ConfigurationError("max_newton must be positive")


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
    """Discrete V* norm sqrt(r^T Gram^-1 r) of the functional with load r, for
    the ``assembly.H1Gram`` gram: its closed ``assembly.DualNormBracket``."""
    return assembly.DualNormBracket(gram, np.asarray(r, dtype=float)).close()


def solve_kfp(system, u_fixed, m0=None):
    """Single linear solve of the discrete KFP equation at a frozen value
    function, with the transpose of the HJB linearization at it, from the
    density m0 (zero if None)."""
    x0 = None if m0 is None else m0.coeffs
    return P1Function(system.space, system.solve(u_fixed, x0=x0))


def solve_m_k_plus(space, problem, tensor):
    """Auxiliary nonnegative density: the KFP discretization driven by the
    EXACT value function's gradient (sampled at element barycenters)."""
    if problem.exact is None:
        raise ConfigurationError("problem carries no exact solution")
    bary, grad_p = space.mesh.barycenters, problem.hamiltonian.grad_p
    L, worst = assembly.linearization(
        space, assembly.assemble_diffusion(space, problem.nu, tensor),
        lambda blk: grad_p(problem.exact.u.grad(bary[blk, 0], bary[blk, 1])))
    assembly.drift_excess(worst, problem.hamiltonian.L_H)
    load = problem.data_loads(space)[1]
    lu = assembly.factorize(L.T, space)
    return P1Function(space, assembly.checked(L.T, lu.solve(load), load))


def _exceeds(left, right):
    """Whether max(left) > max(right) for the closed values of two groups of
    ``assembly.DualNormBracket``s, decided from their bounds.

    The answer is certain once the lower bound of one maximum passes the upper
    bound of the other: True when max lo(left) > max hi(right), False when
    max hi(left) <= max lo(right).  Until then the widest open bracket that
    can still move its group's maximum (its hi above the group's largest lo)
    is refined; once all such are closed, the bounds are the closed values and
    the comparison is theirs.
    """
    while True:
        (lo_left, hi_left), (lo_right, hi_right) = _bounds(left), _bounds(right)
        if lo_left > hi_right:
            return True
        if hi_left <= lo_right:
            return False
        movable = ([b for b in left if b.hi > lo_left and not b.closed]
                   + [b for b in right if b.hi > lo_right and not b.closed])
        max(movable, key=_width).refine()


def _within(brackets, tol):
    """Whether the closed values of the brackets are all at most tol, decided
    from their bounds: True once every hi is, False once some lo is above it;
    until then the widest bracket whose hi is above tol (an open one, since a
    closed one decides) is refined."""
    while max(b.hi for b in brackets) > tol:
        if max(b.lo for b in brackets) > tol:
            return False
        max((b for b in brackets if b.hi > tol), key=_width).refine()
    return True


def _bounds(brackets):
    return max(b.lo for b in brackets), max(b.hi for b in brackets)


def _width(bracket):
    return bracket.hi - bracket.lo


def solve_mfg(space, problem, tensor, cfg=None):
    """Damped semismooth Newton on the HJB and KFP residuals (r1, r2) at once.

    The start is the zero pair, where the coupling block C vanishes with m,
    so the first step solves with exactly the block triangle
    [[L(0), -c_F M], [0, L(0)^T]] that preconditions every step.  Each step
    solves J delta = (r1, r2) with the Jacobian of
    ``DiscreteSystem.newton_step`` and moves (u, m) by delta, halving the step
    while the larger residual dual norm rises above that of the current pair;
    a step still rising at length 2^-10 raises NonConvergenceError.  A pair
    whose larger dual norm is at most tol_outer, the zero pair included, is
    replaced by (u, KFP(u)), solved from m, and the stop test measures both
    dual norms there: the pair is returned if they pass, and the steps go on
    from it if not; ``outer_iters`` counts the stop tests.

    Every dual norm is an ``assembly.DualNormBracket``, refined one Gram
    V-cycle at a time only until the line-search comparison or the stop test
    it feeds is certain (``_exceeds``, ``_within``).  Each decision is the one
    the closed values, those of ``riesz_dual_norm``, would make, so the
    iterates are too; a stop passes only on the upper bounds.  The brackets'
    CG vectors are released before each Newton step.  The returned pair's two
    norms are closed, so ``residual1_dual`` and ``residual2_dual`` are
    ``riesz_dual_norm``'s values, as are those of a NonConvergenceError.

    Each Newton step appends an entry to ``history``: the dual norms and min m
    of the pair it leaves (after its stop test, if it made one), the step
    length and halvings, the factorizations and GMRES iterations of its
    linear solves, the V-cycles of its dual norms (``gram_cycles``, 0 where
    the Gram solver is an LU or the bounds decided without one) and the
    largest excess of a drift it assembled over L_H, 0.0 when all were within
    it (the first entry counts the zero pair's too).  An entry's dual norms
    are the certified upper bounds when its decisions left them open, and the
    closed values in the last entry of a converged solve.  A
    NonConvergenceError carries the history of the steps before it.
    """
    cfg = cfg or SolverConfig()
    if space.ndof == 0:
        raise ConfigurationError("the mesh has no interior vertex: nothing to solve")
    if not problem.hamiltonian.smooth:
        raise ConfigurationError("Newton solver requires a smooth Hamiltonian")
    system = assembly.DiscreteSystem(space, problem, tensor)
    n = space.ndof
    history = []

    def pair(x):
        return P1Function(space, x[:n]), P1Function(space, x[n:])

    def residuals(x):
        u, m = pair(x)
        r = np.concatenate([system.hjb_residual(u, m), system.kfp_residual(u, m)])
        return r, tuple(assembly.DualNormBracket(gram, load) for load in (r[:n], r[n:]))

    x = np.zeros(2 * n)
    gram = assembly.H1Gram(space)
    r, duals = residuals(x)
    outer = 0
    # factorizations, GMRES iterations and Gram V-cycles before this step
    counted = (0, 0, 0)
    for newton in range(cfg.max_newton + 1):   # pass 0 measures the zero pair
        if newton:
            for dual in duals:
                dual.release()
            delta = system.newton_step(*pair(x), r)
            step, halvings = 1.0, 0
            r_new, duals_new = residuals(x + delta)
            while _exceeds(duals_new, duals):
                if step <= 2.0 ** -10:
                    last = max(dual.close() for dual in duals)
                    raise NonConvergenceError(
                        f"Newton line search raised the residual at step 2^-10 "
                        f"(residual {last:.3e})", history=history, last_residual=last)
                step *= 0.5
                halvings += 1
                r_new, duals_new = residuals(x + step * delta)
            x += step * delta
            r, duals = r_new, duals_new
        stop = _within(duals, cfg.tol_outer)
        if stop:   # the stop test is made at (u, KFP(u)), solved from m
            u, m = pair(x)
            x[n:] = solve_kfp(system, u, m0=m).coeffs
            r, duals = residuals(x)
            outer += 1
        done = stop and _within(duals, cfg.tol_outer)
        if done:
            for dual in duals:
                dual.close()
        if newton:
            history.append({"newton": newton, "residual1_dual": duals[0].hi,
                            "residual2_dual": duals[1].hi, "step": step,
                            "linesearch_halvings": halvings, "stop_test": stop,
                            "min_m": float(x[n:].min()),
                            "factorizations": system.factorizations - counted[0],
                            "krylov_iters": system.krylov_iters - counted[1],
                            "gram_cycles": gram.cycles - counted[2],
                            "drift_excess": system.drift_excess})
            counted = (system.factorizations, system.krylov_iters, gram.cycles)
            system.drift_excess = 0.0
        if done:
            u, m = pair(x)
            return DiscreteSolution(u=u, m=m, outer_iters=outer, newton_iters_total=newton,
                                    residual1_dual=duals[0].value,
                                    residual2_dual=duals[1].value, history=history)

    last = max(dual.close() for dual in duals)
    raise NonConvergenceError(
        f"Newton did not reach {cfg.tol_outer:.1e} in {cfg.max_newton} steps "
        f"(last residual {last:.3e})", history=history, last_residual=last)
