"""Element-wise assembly of the discrete operators and load vectors, and the
discrete system of one solve.  A space holds its mass and H1 Gram matrices,
assembled here once (``P1Space.mass``, ``P1Space.h1_gram``), and one
``DiscreteSystem`` per solve the operators of its problem and tensor.

All operators act on interior dofs only, on the CSR pattern that
``csr_pattern`` builds from the mesh edges (``P1Space.pattern``); with
``full=full_pattern(space)`` they act on every vertex, for diagnostics such as
row sums, and the DMP certificate scatters K and its drift bound onto one such.
Matrices are ``scipy.sparse`` CSR holding the pattern's own index arrays:
every operator of a solve -- K, M, the H1 Gram, L = K + B(u) and C -- is one
data array over ``space.pattern``, and their sums are sums of data arrays
(``pattern_sum``); the Newton Jacobian scales M m by c_F instead of holding a
scaled copy of M.
The local element matrices are formed and added into their slots block by
block over ``mesh.element_blocks()``, in element order, so no (nt, 3, 3) or
(nt, 2, 2) temporary is formed and the sums are bitwise those of one
whole-mesh scatter; a stiffness block G A G^T is formed in closed form from
the two gradient columns.  One ``linearization`` pass per new u gives K + B(u)
and the H load from the same gradients, and the system caches both.

Drift fields are element-wise constant 2-vectors.  Because P1 gradients are
constant per triangle and the Hamiltonians do not depend on x, the Hamiltonian
and drift terms are integrated exactly with the single weight area/3 per basis
function.

The discrete KFP operator at u is the transpose of the HJB linearization
L = K + B(u) (Achdou & Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48, 2010), so
the Jacobian of the two residuals at (u, m) is -[[L, -c_F M], [C, L^T]], with
C the stiffness matrix of the element tensors mbar_K D^2H(grad u|_K).  Every
linearization L met in a solve is a drift perturbation, bounded by L_H, of
the same uniformly elliptic K, so a preconditioner of any one of them serves
all the others.  That preconditioner is a ``Multigrid`` V-cycle over the
nested spaces of the red refinements, with Galerkin coarse operators and an LU
on its coarsest level; a space of at most COARSE_DOFS dofs is its own coarsest
level, so there the V-cycle is the LU.  This module holds the whole
linear-solve policy, the same for a KFP solve with L^T and for a Newton
system with the 2n Jacobian: one cycle of at most KRYLOV_MAX iterations of
GMRES right-preconditioned with V-cycles of one held hierarchy (for the
Jacobian, its block upper triangle), which updates its least-squares residual
by Givens rotations, forms one iterate once that residual is within
KRYLOV_RTOL and accepts it if its true residual passes LINEAR_RESIDUAL_TOL.
After a miss, the one rule: rebuild only when the held hierarchy belongs to
another linearization, and retry GMRES once; otherwise, or when the retry
misses too, solve directly.  A direct solution passes ``checked``, the same
test, so every solution passes it exactly once.  ``H1Gram(space)`` holds the
space's H1 Gram matrix, that of the residual dual norms, with the V-cycle of
its own hierarchy, or one LU when CG falls short; a ``DualNormBracket`` of a
load is the one path to its dual norm, holding certified lower and upper
bounds from the CG energy and the CG residual over a lower bound of the
spectrum of G, which each further cycle narrows until the CG meets its rule
and the bracket closes at ``dual_norm``.  ``factorize`` is the one place an
LU is made: of an operator on a space of at most COARSE_DOFS dofs (a
coarsest level, a small space's solves, the DMP trials) a LAPACK ``BandLU``,
a quarter of SuperLU's cost, since with the dofs ordered row by row of the
mesh it is a band about 2^level wide; of any larger operator and of the 2n
Jacobian a SuperLU.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConfigurationError, SolverError
from .mesh import ELEMENT_BLOCK

# every linear solve must leave |op x - rhs| <= LINEAR_RESIDUAL_TOL (1 + |rhs|)
LINEAR_RESIDUAL_TOL = 1e-10
# GMRES of a linearized solve: bound on the true relative residual, and the
# iterations of its single cycle before the system rebuilds its hierarchy
KRYLOV_RTOL = 1e-12
KRYLOV_MAX = 20
# the coarsest level of a multigrid hierarchy is the first with at most this
# many dofs, or the first whose mesh has no parent with an interior dof
COARSE_DOFS = 1000
# damped-Jacobi smoothing of the V-cycle: the weight, and the sweeps before and
# after each coarse correction
JACOBI_WEIGHT = 0.7
JACOBI_SWEEPS = 2


def csr_pattern(mesh, dof_of_vertex):
    """Sparsity of the matrices assembled from (nt, 3, 3) element blocks of
    ``mesh`` on the dofs 0..n-1 that ``dof_of_vertex`` gives the vertices (-1
    drops a vertex's row and column).

    Returns read-only ``(indptr, indices, slots)``: the CSR structure with
    sorted column indices, and for every block entry in C order its position
    in the CSR data, or nnz for a dropped entry.  Summing the blocks into their
    slots in that order gives the matrix's data.

    The entries are the diagonal and both directions of every edge whose two
    ends are kept, so one argsort of their n + 2 ne row-major keys gives the
    CSR order, and an off-diagonal block entry finds its slot through the edge
    ``tri_edges`` names for it: the memory is O(ne) besides ``slots`` itself.
    The arrays are bitwise those of sorting the keys of all 9 nt block entries.
    """
    kept = np.nonzero(dof_of_vertex >= 0)[0]
    n = len(kept)
    ends = dof_of_vertex[mesh.edges]
    linked = np.all(ends >= 0, axis=1)
    ends = ends[linked]
    # diagonal in vertex order, then every linked edge forward, then backward
    rows = np.concatenate([dof_of_vertex[kept], ends[:, 0], ends[:, 1]])
    cols = np.concatenate([dof_of_vertex[kept], ends[:, 1], ends[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    order = np.argsort(rows * n + cols)
    del rows
    indices = cols[order].astype(np.int32)
    del cols
    nnz = len(order)
    rank = np.empty(nnz, dtype=np.int32)
    rank[order] = np.arange(nnz, dtype=np.int32)
    del order
    vertex_slot = np.full(mesh.num_vertices, nnz, dtype=np.int32)
    vertex_slot[kept] = rank[:n]
    # edge_slot[e, 1] is the entry whose row is the larger vertex of edge e
    edge_slot = np.full((len(mesh.edges), 2), nnz, dtype=np.int32)
    edge_slot[linked] = rank[n:].reshape(2, -1).T
    del rank
    tris = mesh.triangles
    slots = np.empty((len(tris), 3, 3), dtype=np.int32)
    for a in range(3):
        slots[:, a, a] = vertex_slot[tris[:, a]]
        for b in range(3):
            if b != a:
                # local edge 3 - a - b is opposite the third vertex
                edge = mesh.tri_edges[:, 3 - a - b]
                slots[:, a, b] = edge_slot[edge, (tris[:, a] > tris[:, b]).view(np.int8)]
    slots = slots.reshape(-1)
    for arr in (indptr, indices, slots):
        arr.setflags(write=False)
    return indptr, indices, slots


def full_pattern(space):
    """The CSR pattern of the operators over every vertex of the mesh of a
    space, boundary vertices included (see ``csr_pattern``)."""
    return csr_pattern(space.mesh, np.arange(space.mesh.num_vertices))


def _scatter(space, local, full=None):
    """Sum local (k, 3, 3) blocks into a CSR matrix (``_csr``) on the pattern
    of the space, or on ``full``, the ``full_pattern`` of the space.
    ``local(blk)`` gives the blocks of the triangles of each slice of
    ``mesh.element_blocks()``; their entries are added into their slots in
    element order, the order of one bincount over all 9 nt entries."""
    indptr, indices, slots = full or space.pattern
    data = np.zeros(len(indices) + 1)   # slot nnz collects the dropped entries
    for blk in space.mesh.element_blocks():
        np.add.at(data, slots[9 * blk.start:9 * blk.stop], local(blk).ravel())
    return _csr(indptr, indices, data[:-1])


def _csr(indptr, indices, data):
    """The square CSR matrix of ``data`` on a pattern, holding the pattern's
    own ``indptr`` and ``indices`` arrays."""
    A = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
    A.indices = indices   # the constructor keeps a view of it
    return A


def pattern_sum(A, B):
    """A + B for two CSR matrices on one pattern: the sum of their data
    arrays on A's index arrays.  Bitwise scipy's A + B, except that an entry
    summing to exactly zero stays stored, and no index array is allocated."""
    return _csr(A.indptr, A.indices, A.data + B.data)


def _scatter_load(space, local):
    """Sum per-element nodal loads into a vector.  ``local(blk)`` gives the
    (k, 3) loads of the triangles of each slice of ``mesh.element_blocks()``;
    they are added, with the dofs of those triangles, in element order."""
    out = np.zeros(space.ndof + 1)   # dof -1 indexes slot ndof, which is dropped
    dofs, tris = space.dof_of_vertex, space.mesh.triangles
    for blk in space.mesh.element_blocks():
        np.add.at(out, dofs[tris[blk]].ravel(), local(blk).ravel())
    return out[:-1]


def assemble_diffusion(space, nu, tensor=None, full=None):
    """Stiffness of the diffusion tensor nu*I + D: sum_K area (A grad xi_j).grad xi_i."""
    D = None if tensor is None else tensor.per_element
    if D is not None and D.shape[0] != space.mesh.num_triangles:
        raise ConfigurationError("stabilization tensor does not match the mesh")

    def tensors(blk):
        A = np.broadcast_to(nu * np.eye(2), (blk.stop - blk.start, 2, 2))
        return A if D is None else A + D[blk]

    return assemble_stiffness(space, tensors, full)


def assemble_stiffness(space, tensors, full=None):
    """Stiffness of element-wise tensors A_K: sum_K area (A_K grad xi_j).grad xi_i,
    where ``tensors(blk)`` gives the (k, 2, 2) tensors of the triangles ``blk``;
    G A G^T is (gT0 gx^T + gT1 gy^T), gTc = gx A_0c + gy A_1c, in one buffer."""
    g, areas = space.elem_grads, space.elem_areas
    buf = np.empty((min(ELEMENT_BLOCK, len(areas)), 3, 3))

    def local(blk):
        gx, gy, T = g[blk, :, 0], g[blk, :, 1], tensors(blk)
        gT0, gT1 = (gx * T[:, None, 0, c] + gy * T[:, None, 1, c] for c in (0, 1))
        del T
        blocks = np.multiply(gT0[:, :, None], gx[:, None, :], out=buf[:len(gx)])
        del gT0
        blocks += gT1[:, :, None] * gy[:, None, :]
        blocks *= areas[blk, None, None]
        return blocks

    return _scatter(space, local, full)


def _drift_columns(space, b, blk):
    """(k, 3) columns (b_K . grad xi_j) area/3 of the drift b on the triangles ``blk``."""
    return (np.einsum("td,tjd->tj", b, space.elem_grads[blk])
            * (space.elem_areas[blk] / 3.0)[:, None])


def linearization(space, K, drift):
    """``(L, worst)`` from one pass over the drift b of the triangles ``blk``,
    ``drift(blk)``: L = K + B(b), with the advection tested against the nodal
    basis B[i,j] = sum_K (b_K . grad xi_j) area/3, whose transpose is the
    divergence-form drift of the KFP equation, and the largest |b_K| by
    ``np.hypot``, for ``drift_excess``."""
    worst = 0.0

    def columns(blk):
        nonlocal worst
        b = np.asarray(drift(blk), dtype=float)
        worst = max(worst, float(np.hypot(b[:, 0], b[:, 1]).max(initial=0.0)))
        return _drift_columns(space, b, blk)

    return pattern_sum(K, scatter_columns(space, columns)), worst


def scatter_columns(space, col, full=None):
    """Sum per-element column values c_Kj, the same for every test function
    i of K, into a CSR matrix: the scatter of the drift matrices.
    ``col(blk)`` gives the (k, 3) values of the triangles ``blk``."""
    return _scatter(space, lambda blk: np.repeat(col(blk)[:, None, :], 3, axis=1), full)


def norms2(v):
    """|v| over a last axis of length 2: sqrt(v0 v0 + v1 v1), bitwise
    ``np.linalg.norm(v, axis=-1)`` at a fraction of its cost.  The squares
    underflow to 0 below about 1e-162; ``drift_excess``, ``finite_control`` and
    ``Mesh2D.edge_lengths`` measure with ``np.hypot``, which does not."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def drift_excess(worst, bound):
    """How far ``worst``, the largest |b_K| of a drift (``linearization``),
    exceeds ``bound``, with a warning; 0.0 within a relative 1e-12 of it."""
    if worst <= bound * (1 + 1e-12):
        return 0.0
    warnings.warn(f"drift magnitude {worst:.3g} exceeds bound {bound:.3g}", stacklevel=3)
    return float(worst - bound)


_MASS_BLOCK = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(space, full=None):
    areas = space.elem_areas
    return _scatter(space, lambda blk: areas[blk, None, None] * _MASS_BLOCK, full)


def assemble_h1_gram(space):
    """Gram matrix of the full H1 inner product (mass + unit stiffness); the
    space holds it as ``P1Space.h1_gram``."""
    return pattern_sum(space.mass, assemble_diffusion(space, 1.0))


def factorize(op, space=None):
    """LU of a square operator, with ``solve(b, trans="N"|"T")``.

    An operator on the ndof dofs of ``space``, 0 < ndof <= COARSE_DOFS, is a
    ``BandLU``; any other, the 2n Jacobian and an empty space included, a
    SuperLU of its CSC form.  A zero pivot raises SolverError."""
    if space is not None and 0 < op.shape[0] == space.ndof <= COARSE_DOFS:
        return BandLU(op, space)
    try:
        return spla.splu(op.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


class BandLU:
    """LU with partial pivoting of an operator on the dofs of a space, in
    LAPACK band storage (dgbtrf, dgbtrs; Anderson et al., LAPACK Users' Guide,
    1999).  With the dofs ranked row by row of the mesh, by y and then x, the
    band of a mesh of level l is about 2^l wide on either side (George & Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981); each
    CSR entry goes to the band slot of its row and column ranks."""

    def __init__(self, op, space):
        op = op.tocsr()
        xy = space.mesh.vertices[space.vertex_of_dof]
        self.order = np.lexsort((xy[:, 0], xy[:, 1]))
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(len(rank))
        cols = rank[op.indices]
        offset = np.repeat(rank, np.diff(op.indptr)) - cols   # row - column
        self.kl, self.ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        band = np.zeros((len(rank), 2 * self.kl + self.ku + 1))   # its transpose
        band[cols, self.kl + self.ku + offset] = op.data
        self.lu, self.piv, info = lapack.dgbtrf(band.T, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise SolverError(f"sparse factorization failed: zero pivot in column {info}")

    def solve(self, b, trans="N"):
        """x with op x = b, or op^T x = b if trans is "T"."""
        x = np.empty(np.shape(b))
        x[self.order], _ = lapack.dgbtrs(self.lu, self.kl, self.ku, b[self.order],
                                         self.piv, trans=int(trans == "T"), overwrite_b=True)
        return x


def checked(op, x, rhs):
    """``x`` if it solves op x = rhs up to the linear residual tolerance."""
    if not np.all(np.isfinite(x)):
        raise SolverError("singular operator: non-finite solution")
    resid = np.linalg.norm(op @ x - rhs)
    if not resid <= LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
        raise SolverError(f"linear solve residual {resid:.3e} above tolerance")
    return x


class Multigrid:
    """V-cycle preconditioner of one operator A over the nested spaces of its
    space, and of A^T with the same hierarchy.

    Level 0 is A.  Each further level is the Galerkin product P^T A P with the
    ``prolongation`` P of the level above, down to the first space with at
    most COARSE_DOFS dofs or without a usable parent; that coarsest level is
    factorized.  Every other level smooths with JACOBI_SWEEPS damped-Jacobi
    sweeps (weight JACOBI_WEIGHT) before and after its coarse correction.  The
    cycle is a fixed linear map M^-1, and the cycle of the transposed level
    operators is M^-T, so one hierarchy preconditions L and L^T.  With one
    level, M is A and ``exact`` is True.  It holds A as ``op``.
    """

    def __init__(self, space, op):
        self.op = op
        # per level above the coarsest: (A, A^T, P, P^T, Jacobi weights)
        self.levels = []
        while space.ndof > COARSE_DOFS and space.prolongation is not None:
            P = space.prolongation
            R = P.T.tocsr()
            self.levels.append((op, op.T, P, R, JACOBI_WEIGHT / op.diagonal()))
            op = (R @ op @ P).tocsr()
            space = space.parent
        self.lu = factorize(op, space)
        self.exact = not self.levels

    def solve(self, b, trans="N"):
        """M^-1 b, or M^-T b if trans is "T"."""
        return self._cycle(0, b, trans)

    def _cycle(self, level, b, trans):
        if level == len(self.levels):
            return self.lu.solve(b, trans=trans)
        A, AT, P, R, w = self.levels[level]
        if trans == "T":
            A = AT
        x = w * b
        for _ in range(JACOBI_SWEEPS - 1):
            x += w * (b - A @ x)
        x += P @ self._cycle(level + 1, R @ (b - A @ x), trans)
        for _ in range(JACOBI_SWEEPS):
            x += w * (b - A @ x)
        return x


class H1Gram:
    """Solves with the H1 Gram matrix G = M + unit stiffness of a space, its
    ``h1_gram``, the operator of the residual dual norms sqrt(r^T G^-1 r).

    G is symmetric positive definite, and so is the V-cycle of its
    ``Multigrid`` hierarchy: the smoothing before and after each coarse
    correction is the same damped Jacobi, and the coarse operators are
    Galerkin products.  A ``DualNormBracket`` of a load bounds its dual norm
    from both sides and narrows the bounds one iteration at a time of CG
    preconditioned with that cycle (``_pcg``), which falls back to one LU of G
    (``direct``), made once and then kept for every later load.  Where the
    hierarchy is exact, ``direct`` is its LU.  ``cycles`` counts the V-cycles
    applied.
    """

    def __init__(self, space):
        self.G = space.h1_gram
        self._multigrid = Multigrid(space, self.G)
        self._lu = self._multigrid.lu if self._multigrid.exact else None
        # a lower bound on the least eigenvalue of G (see DualNormBracket)
        self.eig_low = None if self._lu is not None else space.mass.diagonal().min() / 2.0
        self.cycles = 0

    def direct(self, r):
        """G^-1 r by the LU of G, made on first use if the hierarchy is not
        exact and then held, the hierarchy released."""
        if self._lu is None:
            self._multigrid = None   # release the hierarchy before the LU
            self._lu = factorize(self.G)
        return self._lu.solve(r)

    def _pcg(self, r):
        """Preconditioned CG for G x = r from x = 0, as a generator.

        The dual norm reads only r^T x_k.  It grows by alpha_k rho_k in
        iteration k, toward r^T G^-1 r, and falls short of it by the squared
        energy norm of the error of x_k.  The generator returns the first x_k
        whose increment is at most KRYLOV_RTOL times r^T x_k, so no residual
        of x_k is needed; None after KRYLOV_MAX iterations, or when a curvature
        is not positive.  Every iteration that does not return yields the sum
        r^T x_k of the increments and the residual r - G x_k.
        """
        x = np.zeros(r.size)
        resid = r.copy()
        p = None
        rho = energy = 0.0
        for _ in range(KRYLOV_MAX):
            z = self._multigrid.solve(resid)
            self.cycles += 1
            rho, rho_prev = resid @ z, rho
            p = z if p is None else z + (rho / rho_prev) * p
            q = self.G @ p
            curvature = p @ q
            if not (rho > 0.0 and curvature > 0.0):
                return None
            alpha = rho / curvature
            x += alpha * p
            energy += alpha * rho
            if alpha * rho <= KRYLOV_RTOL * energy:
                return x
            resid -= alpha * q
            yield energy, resid
        return None


def dual_norm(r, x):
    """sqrt(r^T x) for x = G^-1 r, G symmetric positive definite; a value of
    r^T x below rounding of zero means G is not."""
    val = float(r @ x)
    if val < -1e-12 * max(1.0, float(r @ r)):
        raise SolverError("Gram matrix is not positive definite")
    return math.sqrt(max(val, 0.0))


class DualNormBracket:
    """Certified bounds lo <= sqrt(r^T G^-1 r) <= hi on the dual norm of a
    load r, for the ``H1Gram`` G, narrowed one V-cycle at a time.

    ``refine`` runs one more iteration of the CG ``H1Gram._pcg``.  After k
    of them, with x_k the iterate, r_k = r - G x_k its residual and e_k =
    G^-1 r - x_k its error, Galerkin orthogonality splits r^T G^-1 r into
    x_k^T G x_k = r^T x_k = sum_j alpha_j rho_j, the ``energy`` CG sums, and
    e_k^T G e_k = r_k^T G^-1 r_k (Golub & Meurant, BIT 37, 1997; Strakos &
    Tichy, ETNA 13, 2002).  The energy is the lower bound.  For the upper
    bound, r_k^T G^-1 r_k <= |r_k|^2 / lambda for any lower bound lambda of
    the eigenvalues of G, and ``H1Gram.eig_low`` = min(diag M) / 2 is one:
    each element mass block (|K|/12)(I + 1 1^T) is at least (|K|/12) I on the
    element's nodes, and summed over the elements of a vertex that is
    (patch area)/12 = M_ii / 2, so M >= diag(M) / 2 >= (min_i M_ii / 2) I,
    and G, M plus a positive semidefinite stiffness, is at least M.  So
    before any iteration the bracket is [0, |r| / sqrt(eig_low)].  Both bounds
    are widened by a relative KRYLOV_RTOL, above the rounding that separates
    the energy from r^T x_k, so that a bracket holds the computed value.

    The bracket closes once CG meets its KRYLOV_RTOL rule: ``value``, lo and
    hi are then ``dual_norm(r, x)`` of the iterate the CG returns.  A zero
    load closes at 0 without a solve; on a space whose hierarchy is exact, and
    once the CG falls short or the Gram solver holds its LU, a bracket closes
    through ``H1Gram.direct``.  ``release`` drops the CG's
    vectors; a later ``refine`` replays the iterations made so far from zero,
    which reproduces them, V-cycles counted again.
    """

    def __init__(self, gram, r):
        self.gram, self.r = gram, r
        self.cycles = 0       # CG iterations behind lo and hi
        self._steps = None    # the live CG, ``gram._pcg(r)``
        self.value = None
        if not r.any():
            self.value = self.lo = self.hi = 0.0
        elif gram._lu is not None:
            self._close(gram.direct(r))
        else:
            self._bound(0.0, r)

    @property
    def closed(self):
        return self.value is not None

    def refine(self):
        """One more CG iteration of an open bracket, or its closure."""
        if self.gram._lu is not None:
            self._close(self.gram.direct(self.r))
            return
        if self._steps is None:   # replay the released iterations
            self._steps = self.gram._pcg(self.r)
            for _ in range(self.cycles):
                next(self._steps)
        try:
            energy, resid = next(self._steps)
        except StopIteration as done:
            x = done.value
            self._close(self.gram.direct(self.r) if x is None else x)
            return
        self.cycles += 1
        self._bound(energy, resid)

    def close(self):
        """Refine until closed; returns ``value``."""
        while not self.closed:
            self.refine()
        return self.value

    def release(self):
        """Drop the vectors of the CG; the bounds stay."""
        self._steps = None

    def _bound(self, energy, resid):
        self.lo = math.sqrt(energy) * (1.0 - KRYLOV_RTOL)
        self.hi = math.sqrt(energy + (resid @ resid) / self.gram.eig_low) * (1.0 + KRYLOV_RTOL)

    def _close(self, x):
        self.value = self.lo = self.hi = dual_norm(self.r, x)
        self._steps = None


def element_constant_load(space, values):
    """Load of a piecewise constant scalar field against the basis (area/3 rule)."""
    values = np.asarray(values, dtype=float)
    return _scatter_load(space, lambda blk: _constant_loads(space, values[blk], blk))


def _constant_loads(space, values, blk):
    """(k, 3) area/3 loads of the constant ``values`` on the triangles ``blk``."""
    loads = np.asarray(values, dtype=float) * space.elem_areas[blk] / 3.0
    return np.repeat(loads, 3).reshape(-1, 3)


class CoupledJacobian:
    """The 2n x 2n matrix [[L, -c_F M], [C, L^T]] held as L, its transpose
    view, the space's mass matrix M, the scalar c_F and C, acting on vectors
    stacked in (u, m) block order.  No scaled copy of M is formed: the
    coupling term is c_F (M m) (``coupling``), and only ``tocsc``, for a
    direct solve, builds -c_F M.  C is None where it vanishes, at m = 0."""

    def __init__(self, L, M, c_F, C):
        self.L, self.LT, self.M, self.c_F, self.C = L, L.T, M, c_F, C

    def coupling(self, m):
        """c_F M m."""
        return self.c_F * (self.M @ m)

    def __matmul__(self, x):
        n = self.L.shape[0]
        out = np.empty_like(x)
        out[:n] = self.L @ x[:n] - self.coupling(x[n:])
        out[n:] = self.LT @ x[n:] if self.C is None else self.C @ x[:n] + self.LT @ x[n:]
        return out

    def tocsc(self):
        return sp.bmat([[self.L, -self.c_F * self.M], [self.C, self.LT]], format="csc")


class DiscreteSystem:
    """The discrete MFG system of one (space, problem, tensor).

    Holds what does not change during a solve -- the diffusion matrix
    K = nu I + D, the offset load <f0, xi_i> and the source load <G, xi_i>
    (the mass matrix is the space's) -- and evaluates what does: the
    linearization K + B(u), the coupling block C(u, m) of the Newton
    Jacobian, the coupling load <F[m], xi_i> and both residuals.  The H1 Gram
    solver of the dual norms belongs to the solve, not to the system.
    ``linearize`` caches the latest linearization with its H load and keeps in
    ``drift_excess`` the largest excess of a drift over L_H since it was last
    reset.  ``solve`` and ``newton_step`` hold one ``Multigrid`` hierarchy,
    that of the last linearization they had to rebuild it for, and count their
    sparse LU ``factorizations`` and GMRES iterations (``krylov_iters``).
    """

    def __init__(self, space, problem, tensor):
        self.space = space
        self.problem = problem
        self.K = assemble_diffusion(space, problem.nu, tensor)
        self.f0_load, self.g_load = problem.data_loads(space)
        # (u coefficients, L = K + B(u), the load of H[grad u])
        self._linearization = None
        self._multigrid = None
        self.factorizations = 0
        self.krylov_iters = 0
        self.drift_excess = 0.0

    def linearize(self, u):
        """The HJB linearization L = K + B(u), with B(u) the drift matrix of the
        field dH/dp[grad u].

        The KFP operator at u is L^T.  Reassembles unless u equals the point
        of the previous call, in one ``linearization`` pass whose gradients also
        give the area/3 load of H[grad u] that ``hjb_residual`` reads.
        """
        if (self._linearization is None
                or not np.array_equal(self._linearization[0], u.coeffs)):
            hspec, space = self.problem.hamiltonian, self.space
            nodal, dofs, tris = u.nodal_values(), space.dof_of_vertex, space.mesh.triangles
            h_load = np.zeros(space.ndof + 1)   # dof -1 indexes slot ndof, which is dropped

            def drift(blk):
                p = u.element_gradients(blk, nodal)
                np.add.at(h_load, dofs[tris[blk]].ravel(),
                          _constant_loads(space, hspec.value(p), blk).ravel())
                return hspec.grad_p(p)

            L, worst = linearization(space, self.K, drift)
            self.drift_excess = max(self.drift_excess, drift_excess(worst, hspec.L_H))
            self._linearization = (u.coeffs.copy(), L, h_load[:-1])
        return self._linearization[1]

    def solve(self, u, x0=None):
        """m with L^T m = G, the KFP system at u: L = K + B(u) and G the
        source load ``g_load``; m has passed the LINEAR_RESIDUAL_TOL test
        exactly once.

        GMRES from x0 is preconditioned with one L^T V-cycle of the held
        hierarchy, in the policy of ``_solve``.
        """
        L = self.linearize(u)
        return self._solve(L, L.T, lambda b: self._multigrid.solve(b, "T"), self.g_load, x0)

    def newton_step(self, u, m, rhs):
        """delta with J delta = rhs for the ``jacobian`` J at (u, m), in the
        (u, m) block order of ``rhs``; delta has passed the
        LINEAR_RESIDUAL_TOL test exactly once.

        GMRES is preconditioned on the right with the block upper triangle
        [[L, -c_F M], [0, L^T]] of J: one L^T V-cycle of the held hierarchy,
        one coupling c_F (M z) and one L V-cycle, in the policy of ``_solve``.
        """
        n = self.space.ndof
        J = self.jacobian(u, m)

        def precondition(b):
            z = np.empty_like(b)
            z[n:] = self._multigrid.solve(b[n:], "T")
            z[:n] = self._multigrid.solve(b[:n] + J.coupling(z[n:]), "N")
            return z

        return self._solve(J.L, J, precondition, rhs, None)

    def _solve(self, L, op, precondition, rhs, x0):
        """x with op x = rhs by GMRES from x0 (zero if None) preconditioned with
        ``precondition``, which applies the held hierarchy (see ``_gmres``).
        When none is held, or GMRES misses with one of another linearization,
        that is released and replaced by L's, so at most one is alive, and
        GMRES retried once (for a KFP solve, an exact hierarchy's V-cycle is
        op^-1, and GMRES takes one iteration).  After a miss with L's own
        hierarchy, or of the retry, an LU of op solves directly.  Every
        solution passes the LINEAR_RESIDUAL_TOL test exactly once."""
        held = self._multigrid
        x = None if held is None else self._gmres(op, precondition, rhs, x0)
        if x is None and (held is None or held.op is not L):
            held = self._multigrid = None   # release the held hierarchy before the next
            self._multigrid = Multigrid(self.space, L)
            self.factorizations += 1
            x = self._gmres(op, precondition, rhs, x0)
        if x is None:
            self.factorizations += 1
            lu = factorize(op, None if isinstance(op, CoupledJacobian) else self.space)
            return checked(op, lu.solve(rhs), rhs)
        return x

    def _gmres(self, op, precondition, rhs, x0):
        """GMRES for op x = rhs, right-preconditioned with the linear map
        ``precondition`` = M^-1: x_k = x0 + M^-1 V y_k for an orthonormal Krylov
        basis V of op M^-1, k <= KRYLOV_MAX.  Returns x_k if its true residual
        passes the LINEAR_RESIDUAL_TOL test of ``checked``; None if it does
        not, or if no iterate is formed.

        The basis grows one vector per iteration: the matvec result of
        iteration k, orthogonalized and normalized in place, is the next basis
        vector, so a solve of k iterations holds k + 1 vectors of length n,
        not KRYLOV_MAX + 1.  V y_k is summed by axpys, and the basis is
        released before that sum is preconditioned.

        The least squares min |beta e_1 - H y| of the Hessenberg matrix H is
        solved by Givens rotations (Saad & Schultz, SIAM J. Sci. Stat. Comput.
        7, 1986): iteration k applies the k earlier rotations to the new column
        of H and forms one that zeroes its subdiagonal entry, turning H into
        the upper triangle R and beta e_1 into g.  The residual y_k leaves is
        |g_k+1|.  x_k is formed once, by one back substitution with R, when
        that residual is at most KRYLOV_RTOL |rhs|; an invariant Krylov space
        makes it 0.  A rotation of zero length means R is singular, and
        returns None.

        Modified Gram-Schmidt keeps the true residual with the least-squares
        one down to the accuracy a backward-stable solve attains (Greenbaum,
        Rozloznik & Strakos, BIT 37, 1997).  That accuracy grows like the
        condition number, h^-2, relative to |rhs|: a direct LU of the level-8
        KFP system leaves 3.1e-12 |rhs|, above KRYLOV_RTOL.
        """
        max_iter = KRYLOV_MAX
        tol = KRYLOV_RTOL * np.linalg.norm(rhs)
        r0 = rhs if x0 is None else rhs - op @ x0
        beta = np.linalg.norm(r0)
        if beta <= tol:
            return np.zeros(rhs.size) if x0 is None else x0
        V = [r0 / beta]   # the Krylov basis, one vector per iteration
        del r0
        R = np.zeros((max_iter, max_iter))   # the rotated columns of H
        rotations = []   # (cos, sin) of each iteration
        g = [beta]
        for k in range(max_iter):
            w = op @ precondition(V[k])
            col = R[:, k]
            for j, v in enumerate(V):   # modified Gram-Schmidt
                col[j] = v @ w
                w -= col[j] * v
            h = np.linalg.norm(w)
            self.krylov_iters += 1
            for j, (c, s) in enumerate(rotations):
                col[j], col[j + 1] = c * col[j] + s * col[j + 1], c * col[j + 1] - s * col[j]
            rho = math.hypot(col[k], h)
            if rho == 0.0:
                return None
            c, s = col[k] / rho, h / rho
            rotations.append((c, s))
            col[k] = rho
            g.append(-s * g[k])
            g[k] *= c
            if abs(g[k + 1]) <= tol:
                del w
                y = np.array(g[:k + 1])
                for i in range(k, -1, -1):   # back substitution with R
                    y[i] = (y[i] - R[i, i + 1:k + 1] @ y[i + 1:]) / R[i, i]
                Vy = y[0] * V[0]
                for yj, v in zip(y[1:], V[1:]):
                    Vy += yj * v
                V.clear()
                x = precondition(Vy)
                if x0 is not None:
                    x += x0
                resid = np.linalg.norm(rhs - op @ x)
                return x if resid <= LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)) else None
            w /= h
            V.append(w)
        return None

    def jacobian(self, u, m):
        """J = [[L, -c_F M], [C, L^T]], minus the Jacobian of the two residuals
        at (u, m): L = K + B(u), and C = sum_K mbar_K G_K^T D^2H(grad u|_K) G_K,
        the derivative in u of B(u)^T m, with G_K the basis gradients on K and
        mbar_K = |K|/3 sum_{i in K} m_i, a stiffness matrix on the pattern of K
        whose tensors, gradients included, are evaluated block by block.  J
        holds the space's M and the scalar c_F, not a scaled copy of M
        (``CoupledJacobian``); at m = 0, where C vanishes, it is None."""
        hess_p = self.problem.hamiltonian.hess_p
        nodal_u, nodal_m = u.nodal_values(), m.nodal_values()
        triangles = self.space.mesh.triangles

        def tensors(blk):
            mean = nodal_m[triangles[blk]].mean(axis=1)
            return mean[:, None, None] * hess_p(u.element_gradients(blk, nodal_u))

        C = assemble_stiffness(self.space, tensors) if m.coeffs.any() else None
        return CoupledJacobian(self.linearize(u), self.space.mass, self.problem.coupling.c_F, C)

    def coupling_load(self, m):
        """<F[m], xi_i> for a P1 density m."""
        return self.f0_load + self.problem.coupling.c_F * (self.space.mass @ m.coeffs)

    def hjb_residual(self, u, m):
        """Residual load of the discrete HJB equation at (m, u):
        <F[m], xi_i> - int A grad u . grad xi_i + H[grad u] xi_i (``linearize``)."""
        self.linearize(u)
        return self.coupling_load(m) - self.K @ u.coeffs - self._linearization[2]

    def kfp_residual(self, u, m):
        """Residual load of the discrete KFP equation at (m, u):
        <G, xi_i> - int A grad m . grad xi_i + m dH/dp[grad u] . grad xi_i."""
        return self.g_load - self.linearize(u).T @ m.coeffs


def assemble_hjb_nonlinear_residual(space, u, m, problem, tensor):
    """Residual load of the discrete HJB equation at (m, u).

    Builds a whole DiscreteSystem, f0 and G quadrature included, for one
    call: an independent check of a solution from outside the solver, as
    ``perfbench`` makes of every unit.  Repeated evaluations on one space go
    through one system's ``hjb_residual`` instead."""
    return DiscreteSystem(space, problem, tensor).hjb_residual(u, m)


def assemble_kfp_residual(space, u, m, problem, tensor):
    """Residual load of the discrete KFP equation at (m, u); a one-call check
    like ``assemble_hjb_nonlinear_residual``."""
    return DiscreteSystem(space, problem, tensor).kfp_residual(u, m)
