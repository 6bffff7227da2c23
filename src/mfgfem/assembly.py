"""Element-wise assembly of the discrete operators and load vectors, and the
discrete system of one solve: one ``DiscreteSystem`` per solve holds every
operator of it, the solver of its H1 Gram matrix included.

All operators act on interior dofs only (matching the space); ``full=True``
assembles over every vertex for diagnostics such as row-sum checks, and
``full=full_pattern(space)`` does so on a pattern built once for several
operators, as the DMP certificate does for K and the drift bound.  Matrices
are returned as ``scipy.sparse`` CSR on the fixed sparsity pattern of the
space, holding its own index arrays: every operator of a solve -- K, M, the
H1 Gram, L = K + B(u), c_F M and C -- is one data array over
``space.pattern``, and their sums are sums of data arrays (``pattern_sum``).
The local element matrices are formed and added into their slots block by
block over ``mesh.element_blocks()``, in element order, so no (nt, 3, 3) or
(nt, 2, 2) temporary is formed and the sums are bitwise those of one
whole-mesh scatter.

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
KRYLOV_RTOL and accepts it if its true residual passes LINEAR_RESIDUAL_TOL;
the hierarchy of the current linearization is rebuilt when it does not, or
when the least-squares triangle is singular, GMRES retried once, and the
system solved directly when that fails too.  A direct solution passes
``checked``, the same LINEAR_RESIDUAL_TOL test, so every solution passes that
test exactly once.  ``H1Gram`` solves with the H1 Gram matrix of the residual dual norms by
CG preconditioned with the V-cycle of its own hierarchy, and with one LU of it
when CG falls short.
``factorize`` is the one place a sparse LU is made.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, SolverError
from .fespace import csr_pattern

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

def full_pattern(space):
    """The CSR pattern of the operators over every vertex of the mesh of a
    space, boundary vertices included (see ``fespace.csr_pattern``)."""
    return csr_pattern(space.mesh, np.arange(space.mesh.num_vertices))


def _scatter(space, local, full=False):
    """Sum local (k, 3, 3) blocks into a CSR matrix (``_csr``) on the pattern
    of the space, or with ``full`` on that of every vertex: built here if
    ``full`` is True, else ``full`` is that pattern.  ``local(blk)`` gives the
    blocks of the triangles of each slice of ``mesh.element_blocks()``; their
    entries are added into their slots in element order, the order of one
    bincount over all 9 nt entries."""
    if full is True:
        full = full_pattern(space)
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


def _scatter_load(space, elem_loads):
    """Sum (nt, 3) per-element nodal loads into a vector, in element order."""
    out = np.zeros(space.ndof + 1)   # dof -1 indexes slot ndof, which is dropped
    np.add.at(out, space.elem_dofs.ravel(), elem_loads.ravel())
    return out[:-1]


def assemble_diffusion(space, nu, tensor=None, full=False):
    """Stiffness of the diffusion tensor nu*I + D: sum_K area (A grad xi_j).grad xi_i."""
    D = None if tensor is None else tensor.per_element
    if D is not None and D.shape[0] != space.mesh.num_triangles:
        raise ConfigurationError("stabilization tensor does not match the mesh")

    def tensors(blk):
        A = np.broadcast_to(nu * np.eye(2), (blk.stop - blk.start, 2, 2))
        return A if D is None else A + D[blk]

    return assemble_stiffness(space, tensors, full)


def assemble_stiffness(space, tensors, full=False):
    """Stiffness of element-wise tensors A_K: sum_K area (A_K grad xi_j).grad xi_i,
    where ``tensors(blk)`` gives the (k, 2, 2) tensors of the triangles ``blk``."""
    g, areas = space.elem_grads, space.elem_areas

    def local(blk):
        gb = g[blk]
        blocks = gb @ tensors(blk) @ gb.transpose(0, 2, 1)
        blocks *= areas[blk, None, None]
        return blocks

    return _scatter(space, local, full)


def assemble_hjb_drift(space, drift, full=False, drift_bound=None):
    """Advection tested against nodal basis: B[i,j] = sum_K (b.grad xi_j) area/3.

    Its transpose is the divergence-form drift of the KFP equation."""
    drift = np.asarray(drift, dtype=float)
    if drift_bound is not None:
        drift_excess(drift, drift_bound)
    g, areas = space.elem_grads, space.elem_areas
    return scatter_columns(
        space, lambda blk: (np.einsum("td,tjd->tj", drift[blk], g[blk])
                            * (areas[blk] / 3.0)[:, None]), full)


def scatter_columns(space, col, full=False):
    """Sum per-element column values c_Kj, the same for every test function
    i of K, into a CSR matrix: the scatter of the drift matrices.
    ``col(blk)`` gives the (k, 3) values of the triangles ``blk``."""
    return _scatter(space, lambda blk: np.repeat(col(blk)[:, None, :], 3, axis=1), full)


def drift_excess(drift, bound):
    """How far the largest |b_K| of an element-wise drift exceeds ``bound``,
    with a warning; 0.0 within a relative 1e-12 of it."""
    worst = np.hypot(drift[:, 0], drift[:, 1]).max(initial=0.0)
    if worst <= bound * (1 + 1e-12):
        return 0.0
    warnings.warn(f"drift magnitude {worst:.3g} exceeds bound {bound:.3g}", stacklevel=3)
    return float(worst - bound)


_MASS_BLOCK = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_mass(space, full=False):
    areas = space.elem_areas
    return _scatter(space, lambda blk: areas[blk, None, None] * _MASS_BLOCK, full)


def assemble_h1_gram(space):
    """Gram matrix of the full H1 inner product (mass + unit stiffness)."""
    return pattern_sum(assemble_mass(space), assemble_diffusion(space, 1.0))


def factorize(op):
    """Sparse LU of a square operator."""
    try:
        return spla.splu(op.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def checked(op, x, rhs):
    """``x`` if it solves op x = rhs up to the linear residual tolerance."""
    if not np.all(np.isfinite(x)):
        raise SolverError("singular operator: non-finite solution")
    resid = np.linalg.norm(op @ x - rhs)
    if resid > LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
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
    level, M is A and ``exact`` is True.
    """

    def __init__(self, space, op):
        # per level above the coarsest: (A, A^T, P, P^T, Jacobi weights)
        self.levels = []
        while space.ndof > COARSE_DOFS and space.prolongation is not None:
            P = space.prolongation
            R = P.T.tocsr()
            self.levels.append((op, op.T, P, R, JACOBI_WEIGHT / op.diagonal()))
            op = (R @ op @ P).tocsr()
            space = space.parent
        self.lu = factorize(op)
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
    """Solves with the H1 Gram matrix G = M + unit stiffness of a space, the
    operator of the residual dual norms sqrt(r^T G^-1 r).

    G is symmetric positive definite, and so is the V-cycle of its
    ``Multigrid`` hierarchy: the smoothing before and after each coarse
    correction is the same damped Jacobi, and the coarse operators are
    Galerkin products.  ``solve`` runs CG preconditioned with that cycle and
    falls back to one LU of G, made once and then kept for every later solve.
    Where the hierarchy is exact, ``solve`` is its LU.  ``cycles`` counts the
    V-cycles applied.
    """

    def __init__(self, space, G):
        self.G = G
        self._multigrid = Multigrid(space, G)
        self._lu = self._multigrid.lu if self._multigrid.exact else None
        self.cycles = 0

    def solve(self, r):
        """G^-1 r: by ``_pcg``, or by the LU of G once ``_pcg`` has failed."""
        if self._lu is None:
            x = self._pcg(r)
            if x is not None:
                return x
            self._multigrid = None   # release the hierarchy before the LU
            self._lu = factorize(self.G)
        return self._lu.solve(r)

    def _pcg(self, r):
        """Preconditioned CG for G x = r from x = 0.

        The dual norm reads only r^T x_k.  It grows by alpha_k rho_k in
        iteration k, toward r^T G^-1 r, and falls short of it by the squared
        energy norm of the error of x_k.  Returns the first x_k whose increment
        is at most KRYLOV_RTOL times r^T x_k, so no residual of x_k is needed;
        None after KRYLOV_MAX iterations, or when a curvature is not positive.
        """
        x = np.zeros(r.size)
        if not r.any():
            return x
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
        return None


def grad_p_field(hamiltonian, u):
    """Element-wise drift dH/dp(grad u|_K), shape (nt, 2)."""
    return np.asarray(hamiltonian.grad_p(u.element_gradients()), dtype=float)


def hamiltonian_load(space, hamiltonian, u):
    """Load vector of H[grad u] against the nodal basis, exact by the area/3
    rule because H[grad u] is constant per triangle."""
    return element_constant_load(space, hamiltonian.value(u.element_gradients()))


def element_constant_load(space, values):
    """Load of a piecewise constant scalar field against the basis (area/3 rule)."""
    loads = (np.asarray(values, dtype=float) * space.elem_areas / 3.0)[:, None] * np.ones(3)
    return _scatter_load(space, loads)


class CoupledJacobian:
    """The 2n x 2n matrix [[L, -cM], [C, L^T]] held as its blocks, acting on
    vectors stacked in (u, m) block order."""

    def __init__(self, L, cM, C):
        self.L, self.LT, self.cM, self.C = L, L.T, cM, C

    def __matmul__(self, x):
        n = self.L.shape[0]
        out = np.empty_like(x)
        out[:n] = self.L @ x[:n] - self.cM @ x[n:]
        out[n:] = self.C @ x[:n] + self.LT @ x[n:]
        return out

    def tocsc(self):
        return sp.bmat([[self.L, -self.cM], [self.C, self.LT]], format="csc")


class DiscreteSystem:
    """The discrete MFG system of one (space, problem, tensor).

    Holds what does not change during a solve -- the diffusion matrix
    K = nu I + D, the mass matrix M, the offset load <f0, xi_i>, the source
    load <G, xi_i> and, from its first use, the ``H1Gram`` solver ``gram`` --
    and evaluates what does: the linearization K + B(u), the coupling block
    C(u, m) of the Newton Jacobian, the coupling load <F[m], xi_i> and both
    residuals.  ``linearize`` caches the latest linearization and keeps in
    ``drift_excess`` the largest excess of a drift over L_H since it was last
    reset.  ``solve`` and ``newton_step`` hold one ``Multigrid`` hierarchy,
    that of the last linearization they had to rebuild it for, and count
    their sparse LU ``factorizations`` and GMRES iterations
    (``krylov_iters``).
    """

    def __init__(self, space, problem, tensor):
        self.space = space
        self.problem = problem
        self.K = assemble_diffusion(space, problem.nu, tensor)
        self.M = assemble_mass(space)
        self.f0_load = problem.coupling.offset_load(space)
        self.g_load = problem.source.load_vector(space)
        # (u coefficients, L = K + B(u))
        self._linearization = None
        self._multigrid = None
        self.factorizations = 0
        self.krylov_iters = 0
        self.drift_excess = 0.0

    @cached_property
    def gram(self):
        """``H1Gram`` of M + unit stiffness, which measures the dual norms of
        the residuals; built on first use."""
        return H1Gram(self.space, pattern_sum(self.M, assemble_diffusion(self.space, 1.0)))

    def linearize(self, u):
        """The HJB linearization L = K + B(u), with B(u) the drift matrix of the
        field dH/dp[grad u].

        The KFP operator at u is L^T.  Reassembles unless u equals the point
        of the previous call.
        """
        if (self._linearization is None
                or not np.array_equal(self._linearization[0], u.coeffs)):
            hspec = self.problem.hamiltonian
            drift = grad_p_field(hspec, u)
            self.drift_excess = max(self.drift_excess, drift_excess(drift, hspec.L_H))
            self._linearization = (u.coeffs.copy(),
                                   pattern_sum(self.K, assemble_hjb_drift(self.space, drift)))
        return self._linearization[1]

    def solve(self, u, rhs, x0=None, trans="N"):
        """x with op x = rhs for op = L, or L^T if trans is "T", and
        L = K + B(u); x has passed the LINEAR_RESIDUAL_TOL test exactly once.

        GMRES is preconditioned with one V-cycle of the held hierarchy, in
        the policy of ``_solve``.
        """
        L = self.linearize(u)
        op = L.T if trans == "T" else L
        return self._solve(L, op, lambda b: self._multigrid.solve(b, trans), rhs, x0,
                           cycle_inverts=True)

    def newton_step(self, u, m, rhs):
        """delta with J delta = rhs for the ``jacobian`` J at (u, m), in the
        (u, m) block order of ``rhs``; delta has passed the
        LINEAR_RESIDUAL_TOL test exactly once.

        GMRES is preconditioned on the right with the block upper triangle
        [[L, -c_F M], [0, L^T]] of J: one L^T V-cycle of the held hierarchy,
        one M matvec and one L V-cycle, in the policy of ``_solve``.
        """
        n = self.space.ndof
        J = self.jacobian(u, m)

        def precondition(b):
            z = np.empty_like(b)
            z[n:] = self._multigrid.solve(b[n:], "T")
            z[:n] = self._multigrid.solve(b[:n] + J.cM @ z[n:], "N")
            return z

        return self._solve(J.L, J, precondition, rhs, None, cycle_inverts=False)

    def _solve(self, L, op, precondition, rhs, x0, cycle_inverts):
        """x with op x = rhs by GMRES from x0 (zero if None), preconditioned
        with ``precondition``, which applies the held hierarchy, as
        ``_gmres`` sets out; an iterate it returns has passed the
        LINEAR_RESIDUAL_TOL test.  When it returns none, or no hierarchy is
        held yet, the held one is released and that of L built and held for
        the next solves, so at most one is alive, and the solve retried once:
        by GMRES, or directly if the hierarchy is exact and ``cycle_inverts``,
        that is, its V-cycle is op^-1.  When that fails too, an LU of op
        solves directly.  A direct solution passes ``checked``.
        """
        x = None if self._multigrid is None else self._gmres(op, precondition, rhs, x0)
        if x is None:
            self._multigrid = None   # release the held hierarchy before the next
            self._multigrid = Multigrid(self.space, L)
            self.factorizations += 1
            if cycle_inverts and self._multigrid.exact:
                return checked(op, precondition(rhs), rhs)
            x = self._gmres(op, precondition, rhs, x0)
        if x is None:
            self.factorizations += 1
            return checked(op, factorize(op).solve(rhs), rhs)
        return x

    def _gmres(self, op, precondition, rhs, x0):
        """GMRES for op x = rhs, right-preconditioned with the linear map
        ``precondition`` = M^-1: x_k = x0 + M^-1 V y_k for an orthonormal Krylov
        basis V of op M^-1, k <= KRYLOV_MAX.  Returns x_k if its true residual
        passes the LINEAR_RESIDUAL_TOL test of ``checked``; None if it does
        not, or if no iterate is formed.

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
        n, max_iter = rhs.size, KRYLOV_MAX
        x0 = np.zeros(n) if x0 is None else x0
        tol = KRYLOV_RTOL * np.linalg.norm(rhs)
        r0 = rhs - op @ x0
        beta = np.linalg.norm(r0)
        if beta <= tol:
            return x0
        V = np.empty((max_iter + 1, n))   # each iteration fills its next row
        R = np.zeros((max_iter, max_iter))   # the rotated columns of H
        rotations = []   # (cos, sin) of each iteration
        g = [beta]
        V[0] = r0 / beta
        for k in range(max_iter):
            w = V[k + 1]
            w[:] = op @ precondition(V[k])
            col = R[:, k]
            for j in range(k + 1):   # modified Gram-Schmidt
                col[j] = V[j] @ w
                w -= col[j] * V[j]
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
                y = np.array(g[:k + 1])
                for i in range(k, -1, -1):   # back substitution with R
                    y[i] = (y[i] - R[i, i + 1:k + 1] @ y[i + 1:]) / R[i, i]
                x = x0 + precondition(y @ V[:k + 1])
                resid = np.linalg.norm(rhs - op @ x)
                return x if resid <= LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)) else None
            w /= h
        return None

    def jacobian(self, u, m):
        """J = [[L, -c_F M], [C, L^T]], minus the Jacobian of the two residuals
        at (u, m): L = K + B(u), and C = sum_K mbar_K G_K^T D^2H(grad u|_K) G_K,
        the derivative in u of B(u)^T m, with G_K the basis gradients on K and
        mbar_K = |K|/3 sum_{i in K} m_i, a stiffness matrix on the pattern of K
        whose tensors are evaluated block by block."""
        hess_p = self.problem.hamiltonian.hess_p
        grads = u.element_gradients()
        nodal = m.nodal_values()
        triangles = self.space.mesh.triangles

        def tensors(blk):
            mean = nodal[triangles[blk]].mean(axis=1)
            return mean[:, None, None] * hess_p(grads[blk])

        M = self.M
        return CoupledJacobian(self.linearize(u),
                               _csr(M.indptr, M.indices, self.problem.coupling.c_F * M.data),
                               assemble_stiffness(self.space, tensors))

    def coupling_load(self, m):
        """<F[m], xi_i> for a P1 density m."""
        return self.f0_load + self.problem.coupling.c_F * (self.M @ m.coeffs)

    def hjb_residual(self, u, m):
        """Residual load of the discrete HJB equation at (m, u):
        <F[m], xi_i> - int A grad u . grad xi_i + H[grad u] xi_i."""
        return (self.coupling_load(m) - self.K @ u.coeffs
                - hamiltonian_load(self.space, self.problem.hamiltonian, u))

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
