"""Solution of the coupled discrete system: safeguarded Anderson mixing of the
density fixed-point map m -> KFP(HJB(m)) around a semismooth-Newton inner solve
for the HJB equation.  The KFP step solves with the transpose of the HJB
linearization at the new value function.  Every linear step is GMRES
right-preconditioned with the one LU the discrete system holds, and the
system factorizes again only when GMRES does not reach KRYLOV_RTOL in
KRYLOV_MAX iterations; each solve still passes the LINEAR_RESIDUAL_TOL check.

Convergence is declared on the dual norms of the two discrete residual
operators (the quantities the stability theory controls), computed exactly via
the H1 Gram matrix: ||r||_{V*} = sqrt(r^T Gram^-1 r).  The returned density is
always a KFP solve, never a mixed iterate, so it obeys the discrete maximum
principle whenever the scheme does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import assembly
from .errors import ConfigurationError, NonConvergenceError, SolverError
from .fespace import P1Function

LINEAR_RESIDUAL_TOL = 1e-10
# differences of iterates and of residuals kept by the Anderson mixing
ANDERSON_DEPTH = 5
# GMRES of a linearized solve: bound on the true relative residual, and the
# iterations of its single cycle before the system factorizes instead
KRYLOV_RTOL = 1e-12
KRYLOV_MAX = 20


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
        raise SolverError(f"linear solve residual {resid:.3e} above tolerance")
    return x


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


def _linearized_solve(system, u, rhs, x0=None, trans="N"):
    """x with (K + B(u)) x = rhs, or its transpose if trans is "T"."""
    op, x = system.solve(u, rhs, x0, trans, KRYLOV_RTOL, KRYLOV_MAX)
    return _accepted(op, x, rhs)


def _newton_proposal(system, m, u):
    """Solution of the HJB equation linearized at u:
    (K + B(u)) x = <F[m], xi_i> + B(u) u - H[grad u]."""
    fn = P1Function(system.space, u)
    B, _ = system.linearize(fn)
    rhs = (system.coupling_load(m) + B @ u
           - assembly.hamiltonian_load(system.space, system.problem.hamiltonian, fn))
    return _linearized_solve(system, fn, rhs, x0=u)


def solve_hjb(system, gram, m_fixed, cfg=None, u0=None):
    """Semismooth Newton for the HJB equation of ``system`` at a frozen density,
    with residual dual norms measured by ``gram``.

    Each step freezes the drift dH/dp[grad u^n] and solves the resulting member
    of the advection class; the step is damped by halving whenever the residual
    dual norm fails to decrease.  If it still fails at step 2^-10, the solve
    raises NonConvergenceError.  Returns ``(u, newton_iterations, halvings)``.
    """
    if not system.problem.hamiltonian.smooth:
        raise ConfigurationError("Newton solver requires a smooth Hamiltonian")
    cfg = cfg or SolverConfig()
    space = system.space
    u = np.zeros(space.ndof) if u0 is None else np.asarray(u0.coeffs, dtype=float).copy()

    def residual_norm(vec):
        return gram.dual_norm(system.hjb_residual(P1Function(space, vec), m_fixed))

    halvings = 0
    res_norm = residual_norm(u)
    for it in range(1, cfg.max_newton + 1):
        if res_norm <= cfg.tol_newton:
            return P1Function(space, u), it - 1, halvings
        u_prop = _newton_proposal(system, m_fixed, u)

        step = 1.0
        u_new = u_prop
        norm_new = residual_norm(u_new)
        while norm_new > res_norm:
            if step <= 2.0 ** -10:
                raise NonConvergenceError(
                    f"Newton line search raised the residual at step 2^-10 "
                    f"(residual {res_norm:.3e})", last_residual=res_norm)
            step *= 0.5
            halvings += 1
            u_new = u + step * (u_prop - u)
            norm_new = residual_norm(u_new)
        u, res_norm = u_new, norm_new

    if res_norm <= cfg.tol_newton:
        return P1Function(space, u), cfg.max_newton, halvings
    raise NonConvergenceError(
        f"Newton did not reach {cfg.tol_newton:.1e} in {cfg.max_newton} iterations "
        f"(last residual {res_norm:.3e})", last_residual=res_norm)


def solve_kfp(system, u_fixed):
    """Single linear solve of the discrete KFP equation at a frozen value
    function, with the transpose of the HJB linearization at it."""
    return P1Function(system.space,
                      _linearized_solve(system, u_fixed, system.g_load, trans="T"))


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
    load = problem.source.load_vector(space)
    return P1Function(space, _accepted(L.T, assembly.factorize(L.T).solve(load), load))


class _AndersonHistory:
    """The last ANDERSON_DEPTH differences of accepted iterates and of their
    residuals, kept in two preallocated (depth, ndof) arrays used as rings."""

    def __init__(self, ndof):
        self.dm = np.empty((ANDERSON_DEPTH, ndof))
        self.df = np.empty((ANDERSON_DEPTH, ndof))
        self.size = 0
        self._next = 0

    def push(self, m, m_prev, f, f_prev):
        np.subtract(m, m_prev, out=self.dm[self._next])
        np.subtract(f, f_prev, out=self.df[self._next])
        self._next = (self._next + 1) % ANDERSON_DEPTH
        self.size = min(self.size + 1, ANDERSON_DEPTH)

    def clear(self):
        self.size = self._next = 0

    def mix(self, m, f, beta):
        """Next iterate from m with residual f: m + beta f - (dM + beta dF)^T gamma,
        gamma minimizing |f - dF^T gamma|.  It is the damped Picard step when the
        history is empty or its residual differences are linearly dependent;
        the history is cleared in the latter case."""
        nxt = m + beta * f
        if self.size:
            dm, df = self.dm[:self.size], self.df[:self.size]
            # normal equations by LU: an SVD least-squares driver would add
            # about 1 MB of resident memory to the process for this 5x5 system
            try:
                gamma = np.linalg.solve(df @ df.T, df @ f)
            except np.linalg.LinAlgError:
                self.clear()
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
    factorizations and GMRES iterations of its linear solves (the first entry
    counts the initial KFP solve too).  A NonConvergenceError of the HJB solve
    is raised again carrying the history of the sweeps before it.
    """
    cfg = cfg or SolverConfig()
    if space.ndof == 0:
        raise ConfigurationError("the mesh has no interior vertex: nothing to solve")
    system = assembly.DiscreteSystem(space, problem, tensor)
    gram = Gram(space)
    mixing = _AndersonHistory(space.ndof)
    history = []
    newton_total = 0

    u_acc = space.zero_function()
    m = solve_kfp(system, u_acc).coeffs
    step = "picard"
    m_acc = f_acc = None
    counted = (0, 0)   # factorizations and GMRES iterations before this sweep
    for outer in range(1, cfg.max_outer + 1):
        try:
            u, newton_iters, halvings = solve_hjb(system, gram, P1Function(space, m), cfg,
                                                  u0=u_acc)
        except NonConvergenceError as exc:
            exc.history = history
            raise
        newton_total += newton_iters
        g = solve_kfp(system, u)

        d1 = gram.dual_norm(system.hjb_residual(u, g))
        d2 = gram.dual_norm(system.kfp_residual(u, g))
        peak = max(d1, d2)
        rejected = step == "anderson" and peak > peak_acc * (1.0 + 1e-10)
        history.append({"outer": outer, "residual1_dual": d1, "residual2_dual": d2,
                        "newton_iters": newton_iters, "linesearch_halvings": halvings,
                        "min_m": float(g.coeffs.min()),
                        "step": step, "rejected": rejected,
                        "factorizations": system.factorizations - counted[0],
                        "krylov_iters": system.krylov_iters - counted[1]})
        counted = (system.factorizations, system.krylov_iters)

        if peak <= cfg.tol_outer:
            return DiscreteSolution(u=u, m=g, outer_iters=outer,
                                    newton_iters_total=newton_total,
                                    residual1_dual=d1, residual2_dual=d2,
                                    converged=True, history=history)

        if rejected:
            mixing.clear()
        else:
            f = g.coeffs - m
            if m_acc is not None:
                mixing.push(m, m_acc, f, f_acc)
            m_acc, f_acc, u_acc, peak_acc = m, f, u, peak
        m = mixing.mix(m_acc, f_acc, cfg.damping)
        step = "anderson" if mixing.size else "picard"

    raise NonConvergenceError(
        f"outer loop did not reach {cfg.tol_outer:.1e} in {cfg.max_outer} sweeps "
        f"(last residual {peak:.3e})", history=history, last_residual=peak)
