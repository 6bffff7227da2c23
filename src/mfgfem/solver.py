"""Solution of the coupled discrete system: a damped Picard outer loop around a
semismooth-Newton inner solve for the HJB equation, with every linear step a
direct sparse solve.  The KFP step solves with the transpose of the HJB
linearization at the new value function, and the next sweep's first Newton
step linearizes at that same point, so the two share one factorization.

Convergence is declared on the dual norms of the two discrete residual
operators (the quantities the stability theory controls), computed exactly via
the H1 Gram matrix: ||r||_{V*} = sqrt(r^T Gram^-1 r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import assembly
from .errors import ConfigurationError, NonConvergenceError, SolverError
from .fespace import P1Function

LINEAR_RESIDUAL_TOL = 1e-10


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
    converged: bool = True
    history: list = dataclass_field(default_factory=list)


def _accepted(op, x, rhs):
    """``x`` if it solves op x = rhs up to the linear residual tolerance."""
    if not np.all(np.isfinite(x)):
        raise SolverError("singular operator: non-finite solution")
    resid = np.linalg.norm(op @ x - rhs)
    if resid > LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
        raise SolverError(f"direct solve residual {resid:.3e} above tolerance")
    return x


def solve_linear(op, rhs):
    """Direct sparse solve with an explicit residual acceptance test."""
    rhs = np.asarray(rhs, dtype=float)
    if op.shape[0] != op.shape[1] or op.shape[0] != rhs.shape[0]:
        raise ConfigurationError("operator/vector shape mismatch")
    if rhs.shape[0] == 0:
        return np.zeros(0)
    return _accepted(op, assembly.factorize(op).solve(rhs), rhs)


def riesz_dual_norm(gram, r):
    """Discrete V* norm sqrt(r^T Gram^-1 r) of the functional with load r."""
    r = np.asarray(r, dtype=float)
    if r.shape[0] == 0:
        return 0.0
    val = float(r @ gram.solve(r))
    if val < -1e-12 * max(1.0, float(r @ r)):
        raise SolverError("Gram matrix is not positive definite")
    return math.sqrt(max(val, 0.0))


class Gram:
    """H1 Gram matrix of a space with its factorization."""

    def __init__(self, space):
        self.matrix = assembly.assemble_h1_gram(space)
        self._lu = assembly.factorize(self.matrix)

    def solve(self, r):
        return self._lu.solve(r)

    def dual_norm(self, r):
        return riesz_dual_norm(self, r)

    def h1_norm(self, coeffs):
        return math.sqrt(max(float(coeffs @ (self.matrix @ coeffs)), 0.0))


def _newton_proposal(system, m, u):
    """Solution of the HJB equation linearized at u:
    (K + B(u)) x = <F[m], xi_i> + B(u) u - H[grad u]."""
    # a function of its own so that no reference to this LU outlives the step
    # and the next linearization can release it before factorizing
    fn = P1Function(system.space, u)
    B, L, lu = system.linearize(fn)
    rhs = (system.coupling_load(m) + B @ u
           - assembly.hamiltonian_load(system.space, system.problem.hamiltonian, fn))
    return _accepted(L, lu.solve(rhs), rhs)


def solve_hjb(system, gram, m_fixed, cfg=None, u0=None):
    """Semismooth Newton for the HJB equation of ``system`` at a frozen density,
    with residual dual norms measured by ``gram``.

    Each step freezes the drift dH/dp[grad u^n] and solves the resulting member
    of the advection class; the step is damped by halving whenever the residual
    dual norm fails to decrease.  Returns ``(u, newton_iterations)``.
    """
    if not system.problem.hamiltonian.smooth:
        raise ConfigurationError("Newton solver requires a smooth Hamiltonian")
    cfg = cfg or SolverConfig()
    space = system.space
    u = np.zeros(space.ndof) if u0 is None else np.asarray(u0.coeffs, dtype=float).copy()

    def residual_norm(vec):
        return gram.dual_norm(system.hjb_residual(P1Function(space, vec), m_fixed))

    res_norm = residual_norm(u)
    for it in range(1, cfg.max_newton + 1):
        if res_norm <= cfg.tol_newton:
            return P1Function(space, u), it - 1
        u_prop = _newton_proposal(system, m_fixed, u)

        step = 1.0
        u_new = u_prop
        norm_new = residual_norm(u_new)
        while norm_new > res_norm and step > 2.0 ** -10:
            step *= 0.5
            u_new = u + step * (u_prop - u)
            norm_new = residual_norm(u_new)
        u, res_norm = u_new, norm_new

    if res_norm <= cfg.tol_newton:
        return P1Function(space, u), cfg.max_newton
    raise NonConvergenceError(
        f"Newton did not reach {cfg.tol_newton:.1e} in {cfg.max_newton} iterations "
        f"(last residual {res_norm:.3e})", last_residual=res_norm)


def solve_kfp(system, u_fixed):
    """Single linear solve of the discrete KFP equation at a frozen value
    function, with the transpose of the HJB linearization at it."""
    _, L, lu = system.linearize(u_fixed)
    m = _accepted(L.T, lu.solve(system.g_load, trans="T"), system.g_load)
    return P1Function(system.space, m)


def solve_m_k_plus(space, problem, tensor):
    """Auxiliary nonnegative density: the KFP discretization driven by the
    EXACT value function's gradient (sampled at element barycenters)."""
    if problem.exact is None:
        raise ConfigurationError("problem carries no exact solution")
    bary = space.mesh.barycenters
    grads = problem.exact.u.grad(bary[:, 0], bary[:, 1])
    drift = np.asarray(problem.hamiltonian.grad_p(bary, grads), dtype=float)
    L = (assembly.assemble_diffusion(space, problem.nu, tensor)
         + assembly.assemble_hjb_drift(space, drift, drift_bound=problem.hamiltonian.L_H))
    return P1Function(space, solve_linear(L.T, problem.source.load_vector(space)))


def solve_mfg(space, problem, tensor, cfg=None):
    """Damped Picard iteration on the coupled system.

    m^0 solves the KFP equation at u = 0; each sweep solves HJB at the current
    density (warm-started Newton), then KFP at the new value function, and
    relaxes the density with factor damping.  Convergence is declared when both
    residual dual norms at the current pair fall below tol_outer.  A residual
    increase after the first sweep downgrades the damping once; a second
    increase aborts.
    """
    cfg = cfg or SolverConfig()
    system = assembly.DiscreteSystem(space, problem, tensor)
    gram = Gram(space)
    damping = cfg.damping
    downgraded = False
    history = []
    newton_total = 0

    u = space.zero_function()
    m = solve_kfp(system, u)

    prev_max = math.inf
    for outer in range(1, cfg.max_outer + 1):
        u, newton_iters = solve_hjb(system, gram, m, cfg, u0=u)
        newton_total += newton_iters
        m_tilde = solve_kfp(system, u)
        m = P1Function(space, (1.0 - damping) * m.coeffs + damping * m_tilde.coeffs)

        d1 = gram.dual_norm(system.hjb_residual(u, m))
        d2 = gram.dual_norm(system.kfp_residual(u, m))
        cur_max = max(d1, d2)
        history.append({"outer": outer, "residual1_dual": d1, "residual2_dual": d2,
                        "newton_iters": newton_iters, "damping": damping})

        if cur_max <= cfg.tol_outer:
            return DiscreteSolution(u=u, m=m, outer_iters=outer,
                                    newton_iters_total=newton_total,
                                    residual1_dual=d1, residual2_dual=d2,
                                    converged=True, history=history)

        if outer > 1 and cur_max > prev_max * (1.0 + 1e-10):
            if downgraded:
                raise NonConvergenceError(
                    f"outer residual increased twice (last {cur_max:.3e})",
                    history=history, last_residual=cur_max)
            damping *= 0.5
            downgraded = True
        prev_max = cur_max

    raise NonConvergenceError(
        f"Picard did not reach {cfg.tol_outer:.1e} in {cfg.max_outer} iterations "
        f"(last residual {prev_max:.3e})", history=history, last_residual=prev_max)
