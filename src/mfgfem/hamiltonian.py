"""Control-set Hamiltonians H(p) = sup_a (b_a.p - f_a) and the constants that
the discretization needs from them: the Lipschitz/drift bound L_H, the growth
constant C_H, and the Lipschitz constant L_Hp of dH/dp.

Both instances are x-independent, so H[grad u] of a P1 function u is constant
per triangle and the assembly integrates it exactly.  Callables are
vectorized: p has shape (..., 2), values have shape (...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp, softmax

from . import assembly
from .errors import ConfigurationError
from .fespace import P1Function
from .solver import riesz_dual_norm

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
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        return np.where(r <= R, 0.5 * r ** 2, R * r - 0.5 * R ** 2)

    def grad_p(p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        scale = R / np.maximum(r, R)   # 1 on the disk, R / |p| outside it
        return scale[..., None] * p

    return HamiltonianSpec(value=value, grad_p=grad_p, L_H=float(R),
                           C_H=float(max(R, 0.5 * R * R)), L_Hp=1.0)


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

        return HamiltonianSpec(value=value, grad_p=grad_p, L_H=bmax,
                               C_H=float(max(bmax, np.abs(f).max())),
                               L_Hp=math.inf)

    def value(p):
        scores = (np.asarray(p, dtype=float) @ B.T - f) / eps
        return eps * logsumexp(scores, axis=-1)

    def grad_p(p):
        scores = (np.asarray(p, dtype=float) @ B.T - f) / eps
        return softmax(scores, axis=-1) @ B

    c_h = float(max(bmax, np.abs(f).max()) + eps * math.log(len(f)))
    return HamiltonianSpec(value=value, grad_p=grad_p, L_H=bmax, C_H=c_h,
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
    err = np.linalg.norm(fd - grad, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(grad, axis=1))
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
    Dual norms go through ``assembly.H1Gram``, as in a solve.

    The constant multiplying ||v - w||^{1+gamma} in the bound is existential,
    so callers assert boundedness/stability of this ratio, not a value.
    """
    if not spec.smooth:
        raise ConfigurationError("semismooth bound check requires a smooth Hamiltonian")
    rng = np.random.default_rng(seed)
    gram = assembly.assemble_h1_gram(space)
    gram_solver = assembly.H1Gram(space, gram)
    worst = 0.0
    for _ in range(SEMISMOOTH_PAIRS):
        scale = 10.0 ** rng.uniform(-2.0, 0.5)
        v = P1Function(space, scale * rng.standard_normal(space.ndof))
        w = P1Function(space, scale * rng.standard_normal(space.ndof))
        diff = v.coeffs - w.coeffs
        h1 = math.sqrt(max(float(diff @ (gram @ diff)), 0.0))
        if h1 == 0.0:
            continue
        remainder = linearization_remainder(spec, v, w)
        load = assembly.element_constant_load(space, remainder)
        ratio = riesz_dual_norm(gram_solver, load) / h1 ** (1.0 + SEMISMOOTH_GAMMA)
        worst = max(worst, ratio)
    return worst
