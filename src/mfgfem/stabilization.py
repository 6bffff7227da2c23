"""Stabilization tensors for the two mesh regimes, plus numerical verification
of the structural assumptions: optimal-order boundedness of the tensor and the
discrete maximum principle for the whole advection class it must control.

The DMP is checked two ways.  ``certify_dmp`` proves it for every drift with
|b| <= L_H at once, from one assembly per mesh: if K plus the entrywise
supremum of the drift matrices has negative off-diagonals, every operator of
the class is a nonsingular M-matrix.  ``verify_h2_dmp`` samples it, one LU per
random drift or one for a fixed drift; it decides where the certificate fails
and cross-checks it, with DMP_CROSS_CHECK_TRIALS trials, where it holds.

Two constructions:

* ``build_xz_tensor`` - rank-one edge tensors omega_E t_E (x) t_E summed over
  the internal edges of each element, for meshes satisfying the XZ condition.
  The weight is omega_E = omega_factor * L_H * diam(E), gated against the
  admissible window whose lower endpoint is delta/(2(d+1)) = delta/6 in 2D
  (delta = observed shape regularity).
* ``build_acute_tensor`` - isotropic artificial diffusion
  max(mu L_H h_K / (sigma_k sin theta) - nu, 0) I on strictly acute meshes,
  which vanishes identically once the mesh is fine enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .errors import ConfigurationError, InvariantViolation
from .mesh import check_acute, check_xz

PSD_TOL = -1e-12
DMP_TOL = -1e-10
# sampled trials that cross-check a certified DMP
DMP_CROSS_CHECK_TRIALS = 4


@dataclass
class StabilizationTensor:
    """Symmetric PSD 2x2 matrix per triangle."""
    per_element: np.ndarray  # (nt, 2, 2)

    @property
    def is_zero(self):
        return not np.any(self.per_element)


def build_xz_tensor(mesh, L_H, omega_factor=None):
    """Edge-tensor stabilization for XZ meshes.

    Each element gets the sum of the tensors of the three edges ``tri_edges``
    names, added in local-edge order; an edge touching no interior vertex
    adds zero.  The edge tensors are formed, and gathered per element, block
    by block, from the mesh's edge lengths and internal-edge mask, each
    computed once here.  ``omega_factor`` scales every weight as omega_E = omega_factor
    L_H diam(E) and must exceed delta/6; the default delta/3 doubles the lower
    endpoint of the admissible window, keeping the stabilization minimal.
    """
    if L_H < 0:
        raise ConfigurationError("L_H must be nonnegative")
    ok, worst = check_xz(mesh)
    if not ok:
        raise ConfigurationError(
            f"mesh violates the XZ condition (worst cotangent sum {worst:.6g})")
    delta = mesh.shape_regularity
    if omega_factor is None:
        omega_factor = delta / 3.0
    if omega_factor <= delta / 6.0:
        raise ConfigurationError(
            f"omega_factor {omega_factor:.6g} is at or below the admissible weight "
            f"window's lower endpoint delta/6 = {delta / 6.0:.6g}")

    # one tensor per edge, zero on the edges that touch no interior vertex
    rank1 = np.zeros((mesh.num_edges, 2, 2))
    if L_H > 0:
        internal_edges, edge_lengths = mesh.internal_edge_mask, mesh.edge_lengths
        for blk in mesh.edge_blocks():
            internal = internal_edges[blk]
            ends = mesh.edges[blk][internal]
            tang = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
            lengths = edge_lengths[blk][internal]
            tang /= lengths[:, None]
            outer = np.einsum("ei,ej->eij", tang, tang)
            outer *= (omega_factor * L_H * lengths)[:, None, None]
            rank1[blk][internal] = outer
    # np.take gathers the (2, 2) blocks about 4x faster than fancy indexing
    per_element = np.empty((mesh.num_triangles, 2, 2))
    for blk in mesh.element_blocks():
        edges = mesh.tri_edges[blk]
        block = per_element[blk]
        block[:] = np.take(rank1, edges[:, 0], axis=0)
        block += np.take(rank1, edges[:, 1], axis=0)
        block += np.take(rank1, edges[:, 2], axis=0)
    return StabilizationTensor(per_element)


def build_acute_tensor(mesh, L_H, nu, mu=1.1):
    """Artificial diffusion for strictly acute meshes (vanishes on fine meshes)."""
    if mu <= 1.0:
        raise ConfigurationError("mu must be > 1")
    if nu <= 0.0:
        raise ConfigurationError("nu must be positive")
    if L_H < 0:
        raise ConfigurationError("L_H must be nonnegative")
    theta = check_acute(mesh)
    if theta <= 0.0:
        raise ConfigurationError("mesh is not strictly acute (theta = 0)")

    diameters = mesh.diameters
    grad_norms = assembly.norms2(mesh.basis_gradients)  # (nt, 3)
    sigma_K = diameters * grad_norms.min(axis=1)
    sigma_k = float(sigma_K.min())
    coeff = np.maximum(mu * L_H * diameters / (sigma_k * np.sin(theta)) - nu, 0.0)
    per_element = coeff[:, None, None] * np.eye(2)
    return StabilizationTensor(per_element)


@dataclass
class H1Report:
    min_eigenvalue: float
    c_d_observed: float


def verify_h1(tensor, mesh):
    """Assert per-element symmetry and positive semi-definiteness; report the
    observed optimal-order constant max_K |D_K|_F / diam(K); zeros for None."""
    if tensor is None:
        return H1Report(0.0, 0.0)
    D = tensor.per_element
    if D.shape[0] != mesh.num_triangles:
        raise ConfigurationError("tensor does not match mesh")
    asym = np.abs(D[:, 0, 1] - D[:, 1, 0]).max(initial=0.0)
    if asym > 1e-14:
        raise InvariantViolation(f"tensor not symmetric (max off-diagonal gap {asym:.3g})")
    # closed-form eigenvalues of symmetric 2x2
    mean = 0.5 * (D[:, 0, 0] + D[:, 1, 1])
    radius = np.sqrt((0.5 * (D[:, 0, 0] - D[:, 1, 1])) ** 2 + D[:, 0, 1] ** 2)
    lam_min = mean - radius
    min_eig = float(lam_min.min(initial=0.0))
    if min_eig < PSD_TOL:
        raise InvariantViolation(
            f"tensor not positive semi-definite on element {int(np.argmin(lam_min))} "
            f"(eigenvalue {min_eig:.3g})")
    c_d = np.sqrt((D ** 2).sum(axis=(1, 2))) / mesh.diameters
    return H1Report(min_eig, float(c_d.max(initial=0.0)))


def random_disk_drift(mesh, L_H, rng):
    """Element-wise constant drift drawn uniformly from the disk of radius L_H."""
    nt = mesh.num_triangles
    radius = L_H * np.sqrt(rng.uniform(size=nt))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=nt)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def certify_dmp(space, nu, tensor, L_H):
    """Certify the discrete maximum principle for every element-wise constant
    drift with |b_K| <= L_H; returns ``(certified, margin)``.

    B_ij = sum_K (b_K . grad xi_j) |K|/3 is at most the class bound
    B*_ij = sum_K L_H |grad xi_j|_K |K|/3, attained by b_K = L_H grad xi_j /
    |grad xi_j| on the elements of edge ij.  ``margin`` is the largest
    off-diagonal entry of K + B* over the rows of interior vertices, boundary
    columns included, and the DMP is certified iff margin < -1e-12 max diag K,
    so that a margin within rounding of 0 does not count.

    Proof that a certified class satisfies the DMP.  Take any drift of the
    class and L = K + B on the interior dofs.  Every off-diagonal L_ij is at
    most margin < 0 on every mesh edge and 0 elsewhere, so L is a Z-matrix.  The
    basis gradients of an element sum to zero, so full rows of K and of B sum
    exactly to 0: L_ii equals the sum of |L_ij| over all neighbours j, boundary
    vertices included.  So every row of L is diagonally dominant, and strictly
    so when its vertex has a boundary neighbour.  Every mesh edge entry is
    strictly negative, and every interior vertex is joined by mesh edges to a
    boundary vertex, so each row chains to a strictly dominant row: L is weakly
    chained diagonally dominant with positive diagonal, hence a nonsingular
    M-matrix (Shivakumar & Chew, Proc. AMS 43, 1974), and so is L^T.  Thus
    L^-1 >= 0 and L^-T >= 0: HJB and KFP solutions with nonnegative loads are
    nonnegative for the whole class at once.
    """
    if L_H < 0:
        raise ConfigurationError("L_H must be nonnegative")
    pattern = assembly.full_pattern(space)
    K = assembly.assemble_diffusion(space, nu, tensor, full=pattern)
    g, areas = space.elem_grads, space.elem_areas
    B_star = assembly.scatter_columns(
        space, lambda blk: (L_H * assembly.norms2(g[blk])
                            * (areas[blk] / 3.0)[:, None]), full=pattern)
    # both hold the one full pattern; adding the data keeps exact zeros stored
    data = K.data + B_star.data
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    off = (rows != K.indices) & space.mesh.interior_vertex_mask[rows]
    margin = float(data[off].max(initial=-np.inf))
    return bool(margin < -1e-12 * K.diagonal().max(initial=0.0)), margin


def verify_h2_dmp(space, nu, tensor, L_H=None, drift=None, trials=200, seed=0):
    """Sample the discrete maximum principle over the advection class.

    For each trial, assemble L = diffusion(nu, D) + drift advection (the drift
    either fixed, or freshly drawn from the disk of radius L_H), solve
    L v = b and L^T v = b for a random nonnegative load b, and require
    v >= DMP_TOL nodally in both cases.  Returns True iff every trial passes.
    A singular L, which the uniform invertibility assumption excludes, raises
    SolverError.
    """
    if drift is None and L_H is None:
        raise ConfigurationError("provide either a fixed drift field or L_H")
    rng = np.random.default_rng(seed)
    K = assembly.assemble_diffusion(space, nu, tensor)
    if drift is not None:   # one L and LU for every trial
        L, worst = assembly.linearization(space, K, lambda blk: drift[blk])
        if L_H is not None:   # a drawn drift lies in the disk
            assembly.drift_excess(worst, L_H)
        lu = assembly.factorize(L, space)
    for _ in range(trials):
        if drift is None:
            b_field = random_disk_drift(space.mesh, L_H, rng)
            L, _ = assembly.linearization(space, K, lambda blk: b_field[blk])
            lu = assembly.factorize(L, space)
        load = rng.uniform(0.0, 1.0, size=space.ndof)
        if assembly.checked(L, lu.solve(load), load).min(initial=0.0) < DMP_TOL:
            return False
        if assembly.checked(L.T, lu.solve(load, trans="T"), load).min(initial=0.0) < DMP_TOL:
            return False
    return True
