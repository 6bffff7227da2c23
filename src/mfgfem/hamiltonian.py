"""Control-set Hamiltonians H(p) = sup_a (b_a.p - f_a), their first and
second derivatives in p, and the constants that the discretization needs from
them: the Lipschitz/drift bound L_H, the growth constant C_H, and the
Lipschitz constant L_Hp of dH/dp.

Both instances are x-independent, so H[grad u] of a P1 function u is constant
per triangle and the assembly integrates it exactly.  Callables are
vectorized: p has shape (..., 2), values have shape (...), gradients (..., 2)
and Hessians (..., 2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import assembly
from .errors import ConfigurationError
from .fespace import P1Function

# central finite-difference step and the standard deviation of the sampled p
# in ``check_gradient``
FD_STEP = 1e-6
P_SCALE = 3.0
# exponent of the two-dimensional semismooth bound in ``check_semismooth_bound``
SEMISMOOTH_GAMMA = 1.0 / 9.0
# random pairs that ``check_semismooth_bound`` samples
SEMISMOOTH_PAIRS = 20


@dataclass(frozen=True)
class HamiltonianSpec:
    value: Callable      # p -> H(p)
    grad_p: Callable     # p -> dH/dp(p), shape (..., 2)
    hess_p: Callable     # p -> D^2H(p), a generalized Hessian where grad_p kinks
    L_H: float           # Lipschitz constant in p; also the drift bound
    C_H: float           # growth constant: |H| <= C_H (|p| + 1)
    L_Hp: float          # Lipschitz constant of dH/dp in p

    @property
    def smooth(self):
        """True iff grad_p is globally Lipschitz: L_Hp is finite."""
        return math.isfinite(self.L_Hp)


def huber_ball(R):
    """Hamiltonian of the control disk of radius R with quadratic running cost:
    H(p) = |p|^2/2 for |p| <= R, else R|p| - R^2/2 (the Huber function)."""
    if R <= 0:
        raise ConfigurationError("R must be positive")

    def value(p):
        r = assembly.norms2(np.asarray(p, dtype=float))
        return np.where(r <= R, 0.5 * r ** 2, R * r - 0.5 * R ** 2)

    def grad_p(p):
        p = np.asarray(p, dtype=float)
        scale = R / np.maximum(assembly.norms2(p), R)   # 1 on the disk, R / |p| outside it
        return scale[..., None] * p

    def hess_p(p):
        # I on the disk, (R / |p|)(I - q q^T) with q = p / |p| outside it,
        # formed entry by entry
        p = np.asarray(p, dtype=float)
        r = assembly.norms2(p)
        reach = np.maximum(r, R)
        scale = R / reach
        outside = r > R
        q0 = outside * p[..., 0] / reach
        q1 = outside * p[..., 1] / reach
        hess = np.empty(r.shape + (2, 2))
        hess[..., 0, 0] = scale * (1.0 - q0 * q0)
        hess[..., 0, 1] = scale * (0.0 - q0 * q1)
        hess[..., 1, 0] = scale * (0.0 - q1 * q0)
        hess[..., 1, 1] = scale * (1.0 - q1 * q1)
        return hess

    return HamiltonianSpec(value=value, grad_p=grad_p, hess_p=hess_p, L_H=float(R),
                           C_H=float(max(R, 0.5 * R * R)), L_Hp=1.0)


def _logsumexp(a):
    """log sum exp(a) over the last axis, in the form of scipy.special.logsumexp
    and bitwise equal to it for finite input: the maxima are counted apart, as
    log1p(sum of the other exp(a - max) / count) + log(count) + max."""
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    count = at_top.sum(axis=-1, keepdims=True, dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=-1, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + top)[..., 0]


def _softmax(a):
    """exp(a) normalized over the last axis, shifted by its maximum."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def finite_control(drifts, costs, smoothing=0.0):
    """Finite control set: H(p) = max_a (b_a.p - f_a).

    With ``smoothing`` epsilon > 0 the max is replaced by the log-sum-exp
    regularization, restoring a Lipschitz derivative (L_Hp = 2 max|b|^2 / eps,
    a safe upper bound).  With epsilon = 0 the instance is exact but only
    piecewise smooth: ties break to the lowest control index and the result is
    flagged non-smooth, outside what the Newton solver accepts.  So is an
    epsilon so small that the bound L_Hp overflows to inf, for which the
    log-sum-exp itself overflows.
    """
    B = np.atleast_2d(np.asarray(drifts, dtype=float))
    f = np.atleast_1d(np.asarray(costs, dtype=float))
    if B.size == 0 or f.size == 0:
        raise ConfigurationError("drifts and costs must be nonempty")
    if B.shape[0] != f.shape[0] or B.shape[1] != 2:
        raise ConfigurationError("drifts must be (n, 2) with matching costs (n,)")
    eps = float(smoothing)
    if eps < 0:
        raise ConfigurationError("smoothing must be nonnegative")
    # hypot, as the drift assembly measures fields: squaring underflows to 0
    # for drifts below ~1e-162
    bmax = float(np.hypot(B[:, 0], B[:, 1]).max())

    if eps == 0.0:

        def value(p):
            scores = np.asarray(p, dtype=float) @ B.T - f
            return scores.max(axis=-1)

        def grad_p(p):
            scores = np.asarray(p, dtype=float) @ B.T - f
            best = scores.argmax(axis=-1)  # argmax keeps the lowest index on ties
            return B[best]

        def hess_p(p):
            # zero off the ties, where the max is affine
            return np.zeros(np.shape(p) + (2,))

        return HamiltonianSpec(value=value, grad_p=grad_p, hess_p=hess_p, L_H=bmax,
                               C_H=float(max(bmax, np.abs(f).max())),
                               L_Hp=math.inf)

    def value(p):
        scores = (np.asarray(p, dtype=float) @ B.T - f) / eps
        return eps * _logsumexp(scores)

    def grad_p(p):
        scores = (np.asarray(p, dtype=float) @ B.T - f) / eps
        return _softmax(scores) @ B

    def hess_p(p):
        # (B^T diag(s) B - (B^T s)(B^T s)^T) / eps with s the softmax weights
        s = _softmax((np.asarray(p, dtype=float) @ B.T - f) / eps)
        g = s @ B
        return (np.einsum("...a,ai,aj->...ij", s, B, B)
                - g[..., :, None] * g[..., None, :]) / eps

    c_h = float(max(bmax, np.abs(f).max()) + eps * math.log(len(f)))
    return HamiltonianSpec(value=value, grad_p=grad_p, hess_p=hess_p, L_H=bmax, C_H=c_h,
                           L_Hp=2.0 * bmax ** 2 / eps)


def check_gradient(spec, samples=1000, seed=0):
    """Central finite-difference validation of grad_p on random p samples.

    Returns the maximum relative discrepancy |fd - grad| / max(1, |grad|).
    """
    if not spec.smooth:
        raise ConfigurationError("gradient check requires a smooth Hamiltonian")
    rng = np.random.default_rng(seed)
    p = P_SCALE * rng.standard_normal((samples, 2))
    grad = np.asarray(spec.grad_p(p), dtype=float)
    fd = np.empty_like(grad)
    for comp in range(2):
        dp = np.zeros(2)
        dp[comp] = FD_STEP
        fd[:, comp] = (spec.value(p + dp) - spec.value(p - dp)) / (2.0 * FD_STEP)
    err = assembly.norms2(fd - grad)
    scale = np.maximum(1.0, assembly.norms2(grad))
    return float((err / scale).max())


def linearization_remainder(spec, v, w):
    """Element-wise remainder H[grad v] - H[grad w] - dH/dp[grad w].grad(v - w),
    constant per triangle; nonnegative by convexity."""
    gv = v.element_gradients()
    gw = w.element_gradients()
    return (np.asarray(spec.value(gv), dtype=float)
            - np.asarray(spec.value(gw), dtype=float)
            - np.einsum("td,td->t", np.asarray(spec.grad_p(gw), dtype=float), gv - gw))


def check_semismooth_bound(spec, space, seed=0):
    """Worst observed ratio ||remainder||_{V*} / ||v - w||_{H1}^{1+gamma} over
    SEMISMOOTH_PAIRS random P1 pairs, with the two-dimensional exponent
    gamma = SEMISMOOTH_GAMMA.
    Dual norms are ``assembly.DualNormBracket``s on an ``assembly.H1Gram`` of
    the space's ``h1_gram``, each refined only while its upper bound over
    ||v - w||^{1+gamma} exceeds the largest ratio so far: only candidates for
    the maximum close, and it is bitwise that of ``riesz_dual_norm``.

    The constant multiplying ||v - w||^{1+gamma} in the bound is existential,
    so callers assert boundedness/stability of this ratio, not a value.
    """
    if not spec.smooth:
        raise ConfigurationError("semismooth bound check requires a smooth Hamiltonian")
    rng = np.random.default_rng(seed)
    gram_solver = assembly.H1Gram(space)
    worst = 0.0
    for _ in range(SEMISMOOTH_PAIRS):
        scale = 10.0 ** rng.uniform(-2.0, 0.5)
        v = P1Function(space, scale * rng.standard_normal(space.ndof))
        w = P1Function(space, scale * rng.standard_normal(space.ndof))
        diff = v.coeffs - w.coeffs
        h1 = math.sqrt(max(float(diff @ (space.h1_gram @ diff)), 0.0))
        if h1 == 0.0:
            continue
        bracket = assembly.DualNormBracket(gram_solver, assembly.element_constant_load(
            space, linearization_remainder(spec, v, w)))
        denom = h1 ** (1.0 + SEMISMOOTH_GAMMA)
        while not bracket.closed and bracket.hi / denom > worst:
            bracket.refine()
        worst = max(worst, bracket.lo / denom)
    return worst
