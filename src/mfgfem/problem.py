"""Problem data for the stationary MFG system: the local linear coupling F,
sources G in the weak form <G, phi> = int g0 phi + gtilde . grad phi, and
manufactured instances with known exact pairs (u*, m*).

The manufactured construction works backwards from the exact pair:

* coupling offset  f0 := -nu lap(u*) + H[grad u*] - c_F m*   (forces the HJB row),
* source           gtilde := nu grad(m*) + m* dH/dp[grad u*]  (forces the KFP row),

so no second derivatives of m* are ever needed and the pairing assembled for
the source is exactly the one the discrete KFP equation tests against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import assembly
from .errors import ConfigurationError
from .fespace import quadrature, quadrature_points_xy
from .hamiltonian import HamiltonianSpec, huber_ball


# -- exact solution fields --------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """C^2 scalar field bundle: value, gradient and Laplacian."""
    value: Callable                      # (x, y) -> (...)
    grad: Callable                       # (x, y) -> (..., 2)
    laplacian: Callable                  # (x, y) -> (...)


@dataclass(frozen=True)
class ExactSolution:
    u: ScalarField
    m: ScalarField


def sine_product_field(transform=None):
    """sin(pi s) sin(pi t) in the coordinates (s, t) = A^-1 (x, y).

    With the default identity map this is the unit-square eigenfunction; for a
    parallelogram image A [0,1]^2 it vanishes on that boundary instead.
    """
    A = np.eye(2) if transform is None else np.asarray(transform, dtype=float)
    Ainv = np.linalg.inv(A)
    C = Ainv @ Ainv.T  # metric factors for the mapped Laplacian

    def _st(x, y):
        s = Ainv[0, 0] * x + Ainv[0, 1] * y
        t = Ainv[1, 0] * x + Ainv[1, 1] * y
        return s, t

    def value(x, y):
        s, t = _st(x, y)
        return np.sin(np.pi * s) * np.sin(np.pi * t)

    def grad(x, y):
        s, t = _st(x, y)
        gs = np.pi * np.cos(np.pi * s) * np.sin(np.pi * t)
        gt = np.pi * np.sin(np.pi * s) * np.cos(np.pi * t)
        return np.stack([Ainv[0, 0] * gs + Ainv[1, 0] * gt,
                         Ainv[0, 1] * gs + Ainv[1, 1] * gt], axis=-1)

    def laplacian(x, y):
        s, t = _st(x, y)
        ss = np.sin(np.pi * s) * np.sin(np.pi * t)
        cc = np.cos(np.pi * s) * np.cos(np.pi * t)
        return np.pi ** 2 * (-(C[0, 0] + C[1, 1]) * ss + 2.0 * C[0, 1] * cc)

    return ScalarField(value=value, grad=grad, laplacian=laplacian)


def zero_field():
    def value(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    def grad(x, y):
        return np.zeros(np.broadcast(x, y).shape + (2,))

    return ScalarField(value=value, grad=grad, laplacian=value)


RHOMBUS_TRANSFORM = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])


# -- coupling ----------------------------------------------------------------

@dataclass
class CouplingF:
    """Local linear coupling F[m] = c_F m + f0."""
    c_F: float
    offset: Optional[Callable] = None          # f0(x, y)

    def offset_load(self, space):
        """<f0, xi_i> by degree-4 quadrature."""
        if self.offset is None:
            return np.zeros(space.ndof)
        return scalar_load(space, self.offset)


# -- source -------------------------------------------------------------------

@dataclass
class SourceG:
    """G = g0 - div(gtilde) realized through <G, phi> = int g0 phi + gtilde . grad phi.

    ``nonneg_certified`` states that G >= 0 as a functional, <G, phi> >= 0 for
    every phi >= 0, by construction: ``make_g_one_problem`` and
    ``make_zero_problem`` set it, ``make_manufactured`` and
    ``make_rough_density_problem`` do not.  The discrete maximum principle
    gives a nonnegative density only for a certified source, and
    ``analysis.verify_dmp_at_solution`` refuses any other.

    ``exact_load`` overrides the quadrature path for sources whose pairing has
    a closed form (used for indicator fields, where clipped element areas make
    the load exact even when the jump crosses element interiors).
    """
    g0: Optional[Callable] = None          # (x, y) -> (...)
    g_tilde: Optional[Callable] = None     # (x, y) -> (..., 2)
    nonneg_certified: bool = False
    exact_load: Optional[Callable] = None  # space -> load vector

    def load_vector(self, space):
        """<G, xi_i> by degree-4 quadrature, or by ``exact_load`` when given."""
        return source_load(space, self)


def scalar_load(space, f, degree=4):
    """<f, xi_i> by symmetric quadrature of the stated degree."""
    rule = quadrature(degree)
    mesh = space.mesh
    xq = quadrature_points_xy(mesh, rule)
    fq = np.asarray(f(xq[..., 0], xq[..., 1]), dtype=float)
    fq = np.broadcast_to(fq, xq.shape[:2])
    loads = np.einsum("tq,q,qi->ti", fq, rule.weights, rule.points) * mesh.areas[:, None]
    return assembly._scatter_load(space, loads)


def vector_load(space, gt, degree=4):
    """<gtilde, grad xi_i> by quadrature; exact when gtilde is constant per element."""
    rule = quadrature(degree)
    mesh = space.mesh
    xq = quadrature_points_xy(mesh, rule)
    gq = np.asarray(gt(xq[..., 0], xq[..., 1]), dtype=float)   # (nt, nq, 2)
    mean = np.einsum("tqd,q->td", gq, rule.weights)
    loads = np.einsum("td,tid->ti", mean, space.elem_grads) * mesh.areas[:, None]
    return assembly._scatter_load(space, loads)


def source_load(space, source):
    if source.exact_load is not None:
        return source.exact_load(space)
    out = np.zeros(space.ndof)
    if source.g0 is not None:
        out += scalar_load(space, source.g0)
    if source.g_tilde is not None:
        out += vector_load(space, source.g_tilde)
    return out


def halfplane_clipped_areas(mesh, threshold):
    """Area of each triangle's intersection with the half-plane {x < threshold}."""
    corners = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    below = corners[..., 0] < threshold
    count = below.sum(axis=1)
    areas = np.where(count == 3, mesh.areas, 0.0)
    for t in np.nonzero((count > 0) & (count < 3))[0]:
        poly = corners[t]
        clipped = []
        for i in range(3):
            a, b = poly[i], poly[(i + 1) % 3]
            a_in, b_in = a[0] < threshold, b[0] < threshold
            if a_in:
                clipped.append(a)
            if a_in != b_in:
                # intersection of segment ab with the vertical line x = threshold
                s = (threshold - a[0]) / (b[0] - a[0])
                clipped.append(a + s * (b - a))
        if len(clipped) >= 3:
            poly_arr = np.array(clipped)
            x, y = poly_arr[:, 0], poly_arr[:, 1]
            areas[t] = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return areas


# -- problems -----------------------------------------------------------------

@dataclass
class MFGProblem:
    nu: float
    hamiltonian: HamiltonianSpec
    coupling: CouplingF
    source: SourceG
    domain: str = "xz_square"
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ConfigurationError("nu must be finite and positive")


def make_manufactured(nu, hamiltonian, c_F, domain="xz_square"):
    """Manufactured instance with exact pair u* = m* the mapped sine product
    on the requested domain.

    The source claims no sign (``nonneg_certified`` is False), because the
    construction gives none.  On the square, m* and lap(m*) vanish on the
    boundary, where G = -div(gtilde) reduces to -grad m* . dH/dp[grad m*].
    For the Huber family dH/dp[p] is a positive multiple of p, so G < 0
    wherever grad m* != 0 there, and the loads <G, xi_i> of the first interior
    vertices turn negative once h is small enough, for every nu (at nu = 5 the
    minimum load on level 7 is -4.37e-5).
    """
    if not hamiltonian.smooth:
        raise ConfigurationError("manufactured instances require a smooth Hamiltonian")
    sine = sine_product_field(
        RHOMBUS_TRANSFORM if domain == "acute_rhombus" else None)

    def f0(x, y):
        return (-nu * sine.laplacian(x, y)
                + hamiltonian.value(sine.grad(x, y))
                - c_F * sine.value(x, y))

    def g_tilde(x, y):
        grad = sine.grad(x, y)
        return nu * grad + sine.value(x, y)[..., None] * hamiltonian.grad_p(grad)

    source = SourceG(g0=None, g_tilde=g_tilde, nonneg_certified=False)
    return MFGProblem(nu=float(nu), hamiltonian=hamiltonian,
                      coupling=CouplingF(c_F=float(c_F), offset=f0),
                      source=source, domain=domain,
                      exact=ExactSolution(u=sine, m=sine))


def make_g_one_problem(nu=1.0, hamiltonian=None, c_F=1.0, domain="xz_square"):
    """Instance with G identically 1: <G, phi> = int phi >= 0 for phi >= 0, so
    the nonnegativity certificate holds by construction.  No exact solution."""
    if hamiltonian is None:
        hamiltonian = huber_ball(1.0)

    def one(x, y):
        return np.ones(np.broadcast(x, y).shape)

    source = SourceG(g0=one, g_tilde=None, nonneg_certified=True)
    return MFGProblem(nu=float(nu), hamiltonian=hamiltonian,
                      coupling=CouplingF(c_F=float(c_F)),
                      source=source, domain=domain, exact=None)


def make_rough_density_problem(nu=1.0, hamiltonian=None, c_F=1.0, jump_x=1.0 / 3.0):
    """Convex-domain instance with distributional source only in H^-1:
    gtilde is the indicator of {x < jump_x} times (1, 0), a line source that
    kinks the density so it stays outside H^2.

    The jump defaults to x = 1/3, deliberately OFF the dyadic grid lines of the
    structured square family: a jump aligned with mesh edges would make the
    density's kink exactly representable by P1 functions, restoring optimal
    rates and erasing the regularity gap this instance exists to exhibit.  The
    pairing <G, phi> = int_{x < jump_x} d(phi)/dx dx is still integrated exactly,
    via half-plane clipped element areas, since grad(phi) is constant per cell.

    The coupling offset reuses the smooth manufactured field for u so that the
    value function stays H^2-regular while the density does not; there is no
    closed-form exact pair (reference solutions are used instead), and <G, phi>
    is not sign-definite, so the nonnegativity certificate is withheld.
    """
    if hamiltonian is None:
        hamiltonian = huber_ball(1.0)
    u_rich = sine_product_field()
    jump = float(jump_x)

    def f0(x, y):
        return -nu * u_rich.laplacian(x, y) + hamiltonian.value(u_rich.grad(x, y))

    def g_tilde(x, y):
        left = np.where(np.asarray(x) < jump, 1.0, 0.0)
        return np.stack([left, np.zeros_like(left)], axis=-1)

    def exact_load(space):
        clipped = halfplane_clipped_areas(space.mesh, jump)
        loads = space.elem_grads[:, :, 0] * clipped[:, None]
        return assembly._scatter_load(space, loads)

    source = SourceG(g0=None, g_tilde=g_tilde, nonneg_certified=False,
                     exact_load=exact_load)
    return MFGProblem(nu=float(nu), hamiltonian=hamiltonian,
                      coupling=CouplingF(c_F=float(c_F), offset=f0),
                      source=source, domain="xz_square", exact=None)


def make_zero_problem(nu=1.0, hamiltonian=None, c_F=1.0, domain="xz_square"):
    """Zero data with H(0) subtracted so that (0, 0) is the exact solution."""
    if hamiltonian is None:
        hamiltonian = huber_ball(1.0)

    def f0(x, y):
        return hamiltonian.value(np.zeros(np.broadcast(x, y).shape + (2,)))

    source = SourceG(g0=None, g_tilde=None, nonneg_certified=True)
    return MFGProblem(nu=float(nu), hamiltonian=hamiltonian,
                      coupling=CouplingF(c_F=float(c_F), offset=f0),
                      source=source, domain=domain,
                      exact=ExactSolution(u=zero_field(), m=zero_field()))
