import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import mfgfem as mf
from mfgfem import assembly
from mfgfem.assembly import csr_pattern
from mfgfem.errors import SolverError
from mfgfem.fespace import quadrature
from mfgfem.mesh import write_mesh
from mfgfem.problem import scalar_load
from mfgfem.stabilization import StabilizationTensor

from conftest import (assemble_hjb_drift, drift_oracle, hamiltonian_load_oracle,
                      kfp_drift_oracle, track_factorizations)

# hand-derived element matrices on the reference triangle (0,0), (1,0), (0,1):
# gradients (-1,-1), (1,0), (0,1) over area 1/2
REF_STIFFNESS = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
REF_MASS = 0.5 / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def reference_space():
    return mf.P1Space(mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]))


def coo_to_csr_reference(dofs, n, blocks):
    """CSR (indptr, indices, data) of the element blocks' (row, col, value)
    triplets taken in element order, duplicates summed in that order."""
    sums = {}
    for t, tri in enumerate(dofs):
        for a, i in enumerate(tri):
            for b, j in enumerate(tri):
                if i >= 0 and j >= 0:
                    sums[i, j] = sums.get((i, j), 0.0) + blocks[t, a, b]
    keys = sorted(sums)
    indptr = np.searchsorted([i for i, _ in keys], np.arange(n + 1))
    return indptr, np.array([j for _, j in keys]), np.array([sums[k] for k in keys])


def sorted_keys_pattern(dofs, n):
    """(indptr, indices, slots) of sorting the keys row * n + col of all 9 nt
    block entries on ``dofs`` (-1 drops an entry; its slot is nnz)."""
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    keys, inverse = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    slots = np.full(rows.shape, len(keys), dtype=np.int32)
    slots[keep] = inverse
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(np.int32), slots


def check_pattern_and_scatter(space, full, blocks):
    """The pattern of ``space`` equals the sort-based one bitwise, dtypes and
    read-only flags included, and the scatter of ``blocks`` through it equals
    the element-order COO sum."""
    mesh = space.mesh
    if full:
        dofs, n = mesh.triangles, mesh.num_vertices
        pattern = csr_pattern(mesh, np.arange(n))
    else:
        dofs, n = space.elem_dofs, space.ndof
        pattern = space.pattern
    for got, want in zip(pattern, sorted_keys_pattern(dofs, n)):
        assert got.dtype == want.dtype == np.int32
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    A = assembly._scatter(space, lambda blk: blocks[blk], pattern if full else None)
    indptr, indices, data = coo_to_csr_reference(dofs, n, blocks)
    assert A.shape == (n, n)
    assert np.array_equal(A.indptr, indptr)
    assert np.array_equal(A.indices, indices)
    assert np.array_equal(A.data, data)


def shuffled_file_space(tmp_path, n):
    """The space of the structured n-square read back from a file whose
    vertices and triangles are in random order, and the generator that
    shuffled them."""
    rng = np.random.default_rng(11)
    base = mf.generate_structured_square(n)
    perm = rng.permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    triangles = rng.permuted(perm[base.triangles], axis=1)
    triangles = triangles[rng.permutation(base.num_triangles)]
    path = tmp_path / "shuffled.mesh"
    write_mesh(mf.Mesh2D(vertices, triangles), path)
    return mf.P1Space(mf.read_mesh(path)), rng


class TestElementOracles:
    def test_reference_stiffness(self):
        space = reference_space()
        K = assembly.assemble_diffusion(space, 1.0, full=assembly.full_pattern(space)).toarray()
        assert np.abs(K - REF_STIFFNESS).max() < 1e-14

    def test_reference_mass(self):
        space = reference_space()
        M = assembly.assemble_mass(space, full=assembly.full_pattern(space)).toarray()
        assert np.abs(M - REF_MASS).max() < 1e-14

    def test_constant_drift_on_reference(self):
        # column j entry = (grad xi_j)_x * area / 3 = (grad xi_j)_x / 6
        space = reference_space()
        B = assemble_hjb_drift(space, [[1.0, 0.0]],
                                        full=assembly.full_pattern(space)).toarray()
        expected_cols = np.array([-1.0, 1.0, 0.0]) / 6.0
        assert np.allclose(B, np.tile(expected_cols, (3, 1)), atol=1e-15)

    @pytest.mark.parametrize("family", ["square", "rhombus"])
    @pytest.mark.parametrize("full", [False, True])
    def test_pattern_scatter_matches_coo_reference(self, family, full, request):
        rng = np.random.default_rng(7)
        for space in request.getfixturevalue(f"{family}_spaces")[:7]:
            blocks = rng.standard_normal((space.mesh.num_triangles, 3, 3))
            check_pattern_and_scatter(space, full, blocks)

    @pytest.mark.parametrize("full", [False, True])
    def test_pattern_of_shuffled_file_mesh(self, full, tmp_path):
        # vertex and triangle order of a file are arbitrary: the dofs of the
        # interior vertices and the edge ends then follow no grid order
        space, rng = shuffled_file_space(tmp_path, 7)
        blocks = rng.standard_normal((space.mesh.num_triangles, 3, 3))
        check_pattern_and_scatter(space, full, blocks)

    def test_row_sums_vanish(self, square_spaces):
        space = square_spaces[3]
        K = assembly.assemble_diffusion(space, 1.0, full=assembly.full_pattern(space))
        row_sums = np.asarray(K.sum(axis=1)).ravel()
        assert np.abs(row_sums).max() < 1e-13

    @pytest.mark.parametrize("family", ["square", "rhombus"])
    def test_diffusion_blocks_match_loop_reference(self, family, request):
        # area (A grad xi_j) . grad xi_i per element for a random symmetric
        # tensor, summed in element order
        space = request.getfixturevalue(f"{family}_spaces")[2]
        mesh = space.mesh
        rng = np.random.default_rng(3)
        C = rng.standard_normal((mesh.num_triangles, 2, 2))
        tensor = StabilizationTensor(C @ C.transpose(0, 2, 1))
        A = 0.7 * np.eye(2) + tensor.per_element
        blocks = np.array([[[area * (Ak @ gj) @ gi for gj in g] for gi in g]
                           for area, Ak, g in zip(space.elem_areas, A, space.elem_grads)])
        K = assembly.assemble_diffusion(space, 0.7, tensor, full=assembly.full_pattern(space))
        _, _, data = coo_to_csr_reference(mesh.triangles, mesh.num_vertices, blocks)
        assert np.abs(K.data - data).max() <= 1e-14 * np.abs(data).max()

    def test_linearity_in_tensor(self, square_spaces):
        # D = nu * I doubles the matrix exactly
        space = square_spaces[2]
        nt = space.mesh.num_triangles
        nu = 0.7
        tensor = StabilizationTensor(np.broadcast_to(nu * np.eye(2), (nt, 2, 2)).copy())
        K1 = assembly.assemble_diffusion(space, nu)
        K2 = assembly.assemble_diffusion(space, nu, tensor)
        assert abs(K2 - 2.0 * K1).max() < 1e-14


def whole_mesh_data(space, blocks):
    """CSR data of one bincount of all (nt, 3, 3) blocks into the slots of
    ``space.pattern``, the whole-mesh reference of the blocked scatter."""
    _, indices, slots = space.pattern
    return np.bincount(slots, weights=blocks.ravel(), minlength=len(indices) + 1)[:-1]


def whole_mesh_stiffness(space, A):
    """(nt, 3, 3) stiffness blocks of the (nt, 2, 2) tensors A by the local
    closed form (gT0 gx^T + gT1 gy^T) area, gTc = gx A_0c + gy A_1c."""
    gx, gy = space.elem_grads[:, :, 0], space.elem_grads[:, :, 1]
    gT0 = gx * A[:, None, 0, 0] + gy * A[:, None, 1, 0]
    gT1 = gx * A[:, None, 0, 1] + gy * A[:, None, 1, 1]
    blocks = gT0[:, :, None] * gx[:, None, :] + gT1[:, :, None] * gy[:, None, :]
    blocks *= space.elem_areas[:, None, None]
    return blocks


def matmul_stiffness(space, A):
    """(nt, 3, 3) stiffness blocks G A G^T area by numpy's batched matmul."""
    g = space.elem_grads
    blocks = g @ A @ g.transpose(0, 2, 1)
    blocks *= space.elem_areas[:, None, None]
    return blocks


class TestBlockedAssembly:
    """Every operator is scattered block by block, bitwise as one whole-mesh
    scatter, into a data array over ``space.pattern``."""

    def test_stiffness_and_diffusion(self, blocked_spaces):
        rng = np.random.default_rng(8)
        for space in blocked_spaces:
            nt = space.mesh.num_triangles
            C = rng.standard_normal((nt, 2, 2))
            tensor = StabilizationTensor(C @ C.transpose(0, 2, 1))
            A = np.broadcast_to(0.7 * np.eye(2), (nt, 2, 2))
            for D, tensors in ((None, A), (tensor, A + tensor.per_element)):
                K = assembly.assemble_diffusion(space, 0.7, D)
                want = whole_mesh_data(space, whole_mesh_stiffness(space, tensors))
                assert np.array_equal(K.data, want)
                # the closed form is G A G^T up to the rounding of matmul
                blocks = whole_mesh_stiffness(space, tensors)
                gold = matmul_stiffness(space, tensors)
                assert np.abs(blocks - gold).max() <= 1e-15 * np.abs(gold).max()

    def test_stiffness_is_the_matmul_on_xz_meshes(self, square_spaces):
        # dyadic XZ gradients make every product exact: bitwise the matmul
        for space in square_spaces[2:7]:
            tensor = mf.build_xz_tensor(space.mesh, 1.0)
            A = np.eye(2) + tensor.per_element
            gold = whole_mesh_data(space, matmul_stiffness(space, A))
            assert np.array_equal(assembly.assemble_diffusion(space, 1.0, tensor).data, gold)

    def test_mass(self, blocked_spaces):
        for space in blocked_spaces:
            blocks = space.elem_areas[:, None, None] * (REF_MASS / 0.5)
            assert np.array_equal(assembly.assemble_mass(space).data,
                                  whole_mesh_data(space, blocks))

    def test_drift(self, blocked_spaces):
        rng = np.random.default_rng(9)
        for space in blocked_spaces:
            drift = rng.uniform(-1, 1, (space.mesh.num_triangles, 2))
            col = (np.einsum("td,tjd->tj", drift, space.elem_grads)
                   * (space.elem_areas / 3.0)[:, None])
            blocks = np.repeat(col[:, None, :], 3, axis=1)
            assert np.array_equal(assemble_hjb_drift(space, drift).data,
                                  whole_mesh_data(space, blocks))

    @pytest.mark.parametrize("hamiltonian", [
        mf.huber_ball(0.5),
        mf.finite_control([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)], [0.0, 0.5, 0.2], smoothing=0.05)],
        ids=["huber", "smoothed_finite_control"])
    def test_coupling_block(self, blocked_spaces, hamiltonian):
        rng = np.random.default_rng(10)
        for space in blocked_spaces:
            problem = mf.MFGProblem(0.5, hamiltonian, mf.CouplingF(2.0), mf.SourceG())
            u = mf.P1Function(space, rng.standard_normal(space.ndof))
            m = mf.P1Function(space, rng.uniform(0, 1, space.ndof))
            J = assembly.DiscreteSystem(space, problem, None).jacobian(u, m)
            mean = m.nodal_values()[space.mesh.triangles].mean(axis=1)
            A = mean[:, None, None] * hamiltonian.hess_p(u.element_gradients())
            assert np.array_equal(J.C.data, whole_mesh_data(space, whole_mesh_stiffness(space, A)))

    def test_load_scatter(self, blocked_spaces):
        rng = np.random.default_rng(12)
        for space in blocked_spaces:
            loads = rng.standard_normal((space.mesh.num_triangles, 3))
            dofs = space.elem_dofs.ravel()
            keep = dofs >= 0
            want = np.bincount(dofs[keep], weights=loads.ravel()[keep], minlength=space.ndof)
            assert np.array_equal(assembly._scatter_load(space, lambda blk: loads[blk]), want)

    @pytest.mark.parametrize("hamiltonian", [
        mf.huber_ball(0.5),
        mf.finite_control([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], [0.0, 0.1, 0.2], smoothing=0.05)],
        ids=["huber", "smoothed_finite_control"])
    def test_hamiltonian_load(self, blocked_spaces, hamiltonian):
        # the H load the linearization at u caches, which the HJB residual
        # reads, is bitwise the whole-mesh evaluation, and so is its drift
        rng = np.random.default_rng(14)
        for space in blocked_spaces:
            problem = mf.MFGProblem(0.5, hamiltonian, mf.CouplingF(2.0), mf.SourceG())
            system = assembly.DiscreteSystem(space, problem, None)
            u = mf.P1Function(space, rng.standard_normal(space.ndof))
            m = mf.P1Function(space, rng.uniform(0, 1, space.ndof))
            want = (system.coupling_load(m) - system.K @ u.coeffs
                    - hamiltonian_load_oracle(space, hamiltonian, u))
            assert np.array_equal(system.hjb_residual(u, m), want)
            drift = assemble_hjb_drift(space, drift_oracle(hamiltonian, u))
            assert np.array_equal(system.linearize(u).data, system.K.data + drift.data)

    def test_linearization_measures_the_largest_drift(self, blocked_spaces):
        rng = np.random.default_rng(15)
        for space in blocked_spaces:
            K = assembly.assemble_diffusion(space, 1.0)
            drift = rng.uniform(-1, 1, (space.mesh.num_triangles, 2))
            L, worst = assembly.linearization(space, K, lambda blk: drift[blk])
            assert np.array_equal(L.data, assembly.pattern_sum(
                K, assemble_hjb_drift(space, drift)).data)
            assert worst == np.hypot(drift[:, 0], drift[:, 1]).max()

    def test_operators_of_a_solve_hold_the_pattern(self, square_spaces, sine_problem):
        space = square_spaces[4]
        indptr, indices, _ = space.pattern
        system = assembly.DiscreteSystem(space, sine_problem,
                                         mf.build_xz_tensor(space.mesh, 1.0))
        rng = np.random.default_rng(13)
        u = mf.P1Function(space, rng.standard_normal(space.ndof))
        m = mf.P1Function(space, rng.uniform(0, 1, space.ndof))
        J = system.jacobian(u, m)
        for A in (system.K, space.mass, space.h1_gram, system.linearize(u), J.C, J.M,
                  assembly.assemble_h1_gram(space)):
            assert A.indptr is indptr and A.indices is indices
        assert np.array_equal(system.linearize(u).data,
                              (system.K + assemble_hjb_drift(
                                  space, drift_oracle(sine_problem.hamiltonian, u))).data)
        # J holds the space's mass matrix and the scalar c_F, not a scaled copy
        assert J.M is space.mass
        assert J.c_F == sine_problem.coupling.c_F

    def test_jacobian_forms_no_element_matrices(self, square_spaces, sine_problem):
        # nothing of the size of nt (3, 3) blocks is alive beyond what J keeps
        space = square_spaces[6]
        nt = space.mesh.num_triangles
        system = assembly.DiscreteSystem(space, sine_problem,
                                         mf.build_xz_tensor(space.mesh, 1.0))
        rng = np.random.default_rng(14)
        u = mf.P1Function(space, rng.standard_normal(space.ndof))
        m = mf.P1Function(space, rng.uniform(0, 1, space.ndof))
        system.jacobian(u, m)   # linearizes at u, which the system keeps
        tracemalloc.start()
        try:
            J = system.jacobian(u, m)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert J.C.nnz > 0
        assert peak - kept < 9 * nt * np.dtype(float).itemsize

    def test_jacobian_at_zero_density_has_no_coupling_block(self, square_spaces, sine_problem):
        # C vanishes with m: J at m = 0 acts as the one with an assembled zero C
        space = square_spaces[5]
        n = space.ndof
        system = assembly.DiscreteSystem(space, sine_problem,
                                         mf.build_xz_tensor(space.mesh, 1.0))
        rng = np.random.default_rng(16)
        u = mf.P1Function(space, rng.standard_normal(n))
        J = system.jacobian(u, mf.P1Function(space, np.zeros(n)))
        assert J.C is None
        zero_C = assembly.assemble_stiffness(
            space, lambda blk: np.zeros((blk.stop - blk.start, 2, 2)))
        assembled = assembly.CoupledJacobian(J.L, J.M, J.c_F, zero_C)
        x = rng.standard_normal(2 * n)
        assert np.array_equal(J @ x, assembled @ x)
        assert abs(J.tocsc() - assembled.tocsc()).max() == 0.0


class TestHeldArrays:
    """A solve holds each array only while it is read."""

    @pytest.mark.parametrize("c_F", [1.0, 5.0])
    def test_jacobian_matvec_is_the_block_matrix(self, square_spaces, c_F):
        space = square_spaces[5]
        n = space.ndof
        problem = mf.make_manufactured(1.0, mf.huber_ball(1.0), c_F)
        system = assembly.DiscreteSystem(space, problem, mf.build_xz_tensor(space.mesh, 1.0))
        rng = np.random.default_rng(22)
        u = mf.P1Function(space, rng.standard_normal(n))
        m = mf.P1Function(space, rng.uniform(0, 1, n))
        J = system.jacobian(u, m)
        L, M, C = J.L, J.M, J.C
        blocks = sp.bmat([[L, -c_F * M], [C, L.T]], format="csr")
        assert (J.tocsc() != blocks).nnz == 0
        x = rng.standard_normal(2 * n)
        got, want = J @ x, blocks @ x
        # the CSR product sums a whole row of the assembled matrix in one
        # sequence, J one block at a time: they agree to rounding
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        if c_F == 1.0:   # scaling by c_F = 1 adds no rounding to the block sums
            assert np.array_equal(got, np.concatenate([L @ x[:n] - M @ x[n:],
                                                       C @ x[:n] + L.T @ x[n:]]))

    def test_a_solve_leaves_no_derived_geometry_on_its_meshes(self, sine_problem):
        meshes = mf.mesh_hierarchy("xz_square", 6)
        mesh = meshes[6]
        mf.solve_mfg(mf.P1Space(mesh), sine_problem,
                     mf.build_xz_tensor(mesh, sine_problem.hamiltonian.L_H))
        # the multigrid reads the coarser spaces' dof maps, never their gradients
        for coarse in meshes[:-1]:
            assert "basis_gradients" not in vars(coarse)
        for each in meshes:
            assert not {"edge_lengths", "diameters", "inradii",
                        "internal_edge_mask", "barycenters"} & set(vars(each))

    def test_kfp_solve_holds_one_basis_vector_per_iteration(self, square_spaces, sine_problem):
        space = square_spaces[6]
        system = assembly.DiscreteSystem(space, sine_problem,
                                         mf.build_xz_tensor(space.mesh, 1.0))
        u = mf.interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        system.solve(u)   # linearizes at u and builds the hierarchy the solve below reuses
        factorizations, iters = system.factorizations, system.krylov_iters
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            system.solve(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = system.krylov_iters - iters
        assert system.factorizations == factorizations and 0 < k < assembly.KRYLOV_MAX
        # k + 1 basis vectors and the V-cycle's few temporaries, not KRYLOV_MAX + 1
        assert peak - entry <= (k + 4) * space.ndof * np.dtype(float).itemsize


class TestDriftMatrices:
    def test_zero_drift(self, square_spaces):
        space = square_spaces[2]
        drift = np.zeros((space.mesh.num_triangles, 2))
        assert assemble_hjb_drift(space, drift).nnz == 0 or \
            abs(assemble_hjb_drift(space, drift)).max() == 0.0

    def test_kfp_is_transpose_of_hjb(self, square_spaces):
        space = square_spaces[3]
        rng = np.random.default_rng(0)
        drift = rng.standard_normal((space.mesh.num_triangles, 2))
        B = assemble_hjb_drift(space, drift)
        C = kfp_drift_oracle(space, drift)
        assert np.abs(C - B.T.toarray()).max() < 1e-14

    def test_adjoint_pairing(self, square_spaces):
        # <L v, w> with the matrix equals <L* w, v> with its transpose
        space = square_spaces[3]
        rng = np.random.default_rng(1)
        drift = rng.uniform(-1, 1, (space.mesh.num_triangles, 2))
        L = (assembly.assemble_diffusion(space, 1.0)
             + assemble_hjb_drift(space, drift))
        for _ in range(5):
            v = rng.standard_normal(space.ndof)
            w = rng.standard_normal(space.ndof)
            assert w @ (L @ v) == pytest.approx(v @ (L.T @ w), abs=1e-14 * space.ndof)

    def test_constant_field_against_gradients_sums_to_zero(self, square_spaces):
        # int b . grad(phi) = 0 for constant b and phi in the zero-trace space
        space = square_spaces[3]
        drift = np.tile([0.4, -0.3], (space.mesh.num_triangles, 1))
        C = assemble_hjb_drift(space, drift).T
        ones = mf.interpolate(space, lambda x, y: np.ones_like(x))
        # sum_i (C 1)_i pairs the constant drift against grad of the hat sums
        total = float(np.sum(C.T @ ones.coeffs))
        assert abs(total) < 1e-13

    def test_drift_bound_warning(self, square_spaces):
        space = square_spaces[2]
        drift = np.tile([2.0, 0.0], (space.mesh.num_triangles, 1))
        with pytest.warns(UserWarning):
            assert assembly.drift_excess(2.0, 1.0) == pytest.approx(1.0)
        # the sampled DMP checks a fixed drift against the bound it is given
        with pytest.warns(UserWarning, match="exceeds bound"):
            mf.verify_h2_dmp(space, 1.0, None, L_H=1.0, drift=drift, trials=1)

    def test_drift_excess_threshold(self):
        # silent up to a relative 1e-12 above the bound, warning past it
        bound = 1.5
        edge = bound * (1 + 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assembly.drift_excess(edge, bound) == 0.0
        above = float(np.nextafter(edge, np.inf))
        with pytest.warns(UserWarning, match="exceeds bound"):
            assert assembly.drift_excess(above, bound) == above - bound


class TestMassAndGram:
    def test_mass_norm_identity(self, square_spaces):
        # v^T M v equals the quadrature L2 norm of the P1 function
        space = square_spaces[3]
        rng = np.random.default_rng(2)
        fn = mf.P1Function(space, rng.standard_normal(space.ndof))
        M = assembly.assemble_mass(space)
        rule = mf.quadrature(2)
        vals = fn.values_at_quadrature(rule)
        quad = float(np.einsum("tq,q,t->", vals ** 2, rule.weights, space.elem_areas))
        assert float(fn.coeffs @ (M @ fn.coeffs)) == pytest.approx(quad, rel=1e-12)

    def test_gram_spd(self, square_spaces):
        G = assembly.assemble_h1_gram(square_spaces[2]).toarray()
        eigs = scipy.linalg.eigvalsh(G)
        assert eigs.min() > 0

    def test_diffusion_dominates_seminorm(self, square_spaces):
        # v^T K_A v >= nu |v|_H1^2 because D is positive semi-definite
        space = square_spaces[3]
        mesh = space.mesh
        tensor = mf.build_xz_tensor(mesh, 1.0)
        K_A = assembly.assemble_diffusion(space, 0.8, tensor)
        K_1 = assembly.assemble_diffusion(space, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.standard_normal(space.ndof)
            assert v @ (K_A @ v) >= 0.8 * (v @ (K_1 @ v)) - 1e-12


class TestLoadsAndResiduals:
    def test_quadrature_consistency_for_polynomial_data(self, square_spaces):
        space = square_spaces[3]
        f = lambda x, y: 1.0 + 2.0 * x - y + 3.0 * x * y
        b2 = scalar_load(space, f, degree=2)
        b4 = scalar_load(space, f, degree=4)
        assert np.abs(b2 - b4).max() < 1e-12

    def test_zero_hamiltonian_residual_is_mass_action(self, square_spaces):
        # single zero control makes H identically 0; with F[m] = m and u = 0 the
        # HJB residual reduces to the mass action on m
        space = square_spaces[3]
        ham = mf.finite_control([(0.0, 0.0)], [0.0])
        problem = mf.MFGProblem(nu=1.0, hamiltonian=ham,
                                coupling=mf.CouplingF(c_F=1.0),
                                source=mf.SourceG(nonneg_certified=True))
        rng = np.random.default_rng(5)
        m = mf.P1Function(space, rng.standard_normal(space.ndof))
        u = mf.P1Function(space, np.zeros(space.ndof))
        r = assembly.DiscreteSystem(space, problem, None).hjb_residual(u, m)
        M = assembly.assemble_mass(space)
        assert np.abs(r - M @ m.coeffs).max() < 1e-14

    def test_hamiltonian_load_matches_quadrature(self, square_spaces):
        # H[grad u] is constant per triangle for x-independent H, so degree-2
        # quadrature of H[grad u] xi_i is exact
        space = square_spaces[2]
        ham = mf.huber_ball(1.0)
        rng = np.random.default_rng(6)
        u = mf.P1Function(space, rng.standard_normal(space.ndof))
        load = hamiltonian_load_oracle(space, ham, u)
        rule = quadrature(2)
        grads = np.repeat(u.element_gradients()[:, None, :], len(rule.weights), axis=1)
        hq = ham.value(grads)                                       # (nt, nq)
        expected = np.zeros(space.ndof)
        for t, dofs in enumerate(space.elem_dofs):
            for i, dof in enumerate(dofs):
                if dof >= 0:
                    expected[dof] += space.elem_areas[t] * float(
                        np.sum(rule.weights * hq[t] * rule.points[:, i]))
        assert np.abs(load - expected).max() < 1e-15


class TestMultigrid:
    def linearization(self, problem, space):
        system = assembly.DiscreteSystem(space, problem, mf.build_xz_tensor(space.mesh, 1.0))
        return system.linearize(mf.interpolate(space, problem.exact.u.value))

    def test_coarsest_level_is_first_within_coarse_dofs(self, sine_problem, square_spaces):
        # level 6 (3969 dofs) coarsens once, to level 5 (961 <= COARSE_DOFS);
        # level 5 is its own coarsest level: its hierarchy is the LU of L
        L = self.linearization(sine_problem, square_spaces[6])
        mg = assembly.Multigrid(square_spaces[6], L)
        assert len(mg.levels) == 1 and len(mg.lu.order) == 961 and not mg.exact
        assert isinstance(mg.lu, assembly.BandLU)
        L = self.linearization(sine_problem, square_spaces[5])
        mg = assembly.Multigrid(square_spaces[5], L)
        assert not mg.levels and mg.exact
        b = np.arange(961.0)
        for trans in "NT":
            x = mg.solve(b, trans)
            op = L.T if trans == "T" else L
            assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_cycle_contracts(self, sine_problem, square_spaces, monkeypatch, trans):
        # as a stationary iteration x <- x + M^-1 (b - op x), the V-cycle of a
        # four-level hierarchy (levels 5 to 2) cuts the error by more than 3
        # per cycle (0.24 measured; 0.21-0.27 on levels 4-7)
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        space = square_spaces[5]
        L = self.linearization(sine_problem, space)
        mg = assembly.Multigrid(space, L)
        assert len(mg.levels) == 3
        op = L.T if trans == "T" else L
        x_true = np.random.default_rng(4).standard_normal(space.ndof)
        b = op @ x_true
        x = np.zeros(space.ndof)
        errors = []
        for _ in range(10):
            x += mg.solve(b - op @ x, trans)
            errors.append(np.linalg.norm(x - x_true))
        assert (errors[-1] / errors[1]) ** (1 / 8) <= 1 / 3

    def test_transposed_cycle_is_the_adjoint(self, sine_problem, square_spaces, monkeypatch):
        # one hierarchy serves L and L^T: the cycle of the transposed level
        # operators is M^-T, so a . M^-1 c = M^-T a . c
        monkeypatch.setattr(assembly, "COARSE_DOFS", 40)
        space = square_spaces[5]
        mg = assembly.Multigrid(space, self.linearization(sine_problem, space))
        rng = np.random.default_rng(5)
        a, c = rng.standard_normal((2, space.ndof))
        lhs, rhs = a @ mg.solve(c), mg.solve(a, "T") @ c
        assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(mg.solve(c))


class TestBandLU:
    def operators(self, space, problem, rng):
        """K, L(u) at a random u and the H1 Gram matrix of a space."""
        system = assembly.DiscreteSystem(space, problem, None)
        u = mf.P1Function(space, rng.standard_normal(space.ndof))
        return {"K": system.K, "L": system.linearize(u), "G": space.h1_gram}

    def check_matches_superlu(self, space, ops, rng):
        for name, op in ops.items():
            lu = assembly.factorize(op, space)
            assert isinstance(lu, assembly.BandLU)
            oracle = assembly.factorize(op)
            b = rng.standard_normal(space.ndof)
            for trans in "NT":
                x, y = lu.solve(b, trans), oracle.solve(b, trans=trans)
                assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y), (name, trans)

    @pytest.mark.parametrize("family", ["square", "rhombus"])
    def test_solves_match_superlu(self, family, request, sine_problem, sine_problem_rhombus):
        # K, L(u), G and the Galerkin coarse operator P^T L P of the finer
        # level, at levels 2-5, in both directions
        spaces = request.getfixturevalue(f"{family}_spaces")
        problem = sine_problem if family == "square" else sine_problem_rhombus
        rng = np.random.default_rng(29)
        for level in range(2, 6):
            space, fine = spaces[level], spaces[level + 1]
            assert space.ndof <= assembly.COARSE_DOFS
            ops = self.operators(space, problem, rng)
            P = fine.prolongation
            L_fine = self.operators(fine, problem, rng)["L"]
            ops["galerkin"] = (P.T.tocsr() @ L_fine @ P).tocsr()
            self.check_matches_superlu(space, ops, rng)

    def test_file_mesh_matches_superlu(self, sine_problem, tmp_path):
        # a file's vertex order is arbitrary; the band follows the coordinates
        space, rng = shuffled_file_space(tmp_path, 17)
        assert 0 < space.ndof <= assembly.COARSE_DOFS
        self.check_matches_superlu(space, self.operators(space, sine_problem, rng), rng)
        lu = assembly.factorize(space.h1_gram, space)
        assert max(lu.kl, lu.ku) <= 17

    @pytest.mark.parametrize("family", ["square", "rhombus"])
    def test_band_width(self, family, request):
        # ordered row by row, the dofs of level l couple within 2^l + 1 ranks
        spaces = request.getfixturevalue(f"{family}_spaces")
        for level in range(1, 6):
            space = spaces[level]
            lu = assembly.factorize(space.h1_gram, space)
            assert 0 <= lu.kl <= 2 ** level + 1 and 0 <= lu.ku <= 2 ** level + 1

    def test_singular_operator_raises(self, square_spaces):
        # a zero column stays zero through the elimination: an exact zero pivot
        space = square_spaces[3]
        A = assembly.assemble_diffusion(space, 1.0)
        A.data[A.indices == 3] = 0.0
        with pytest.raises(SolverError, match="sparse factorization failed"):
            assembly.factorize(A, space)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_fails_checked(self, value, square_spaces):
        # on the diagonal of the last dof of the band order, the factorization
        # meets it only at its last pivot; the solution or its residual is not
        # finite, and the residual test rejects it
        space = square_spaces[3]
        A = assembly.assemble_diffusion(space, 1.0).tolil()
        xy = space.mesh.vertices[space.vertex_of_dof]
        last = np.lexsort((xy[:, 0], xy[:, 1]))[-1]
        A[last, last] = value
        A = A.tocsr()
        b = np.ones(space.ndof)
        x = assembly.factorize(A, space).solve(b)
        with pytest.raises(SolverError):
            assembly.checked(A, x, b)

    def test_superlu_above_coarse_dofs_and_for_the_jacobian(self, sine_problem,
                                                            square_hierarchy, monkeypatch):
        # a space above COARSE_DOFS, an empty space and no space at all get a
        # SuperLU; so does the 2n Newton Jacobian of the direct fallback,
        # while L's own direct solve is a band LU
        space = mf.P1Space(square_hierarchy[6])
        assert space.ndof > assembly.COARSE_DOFS
        superlu = scipy.sparse.linalg.SuperLU
        assert isinstance(assembly.factorize(space.h1_gram, space), superlu)
        empty = mf.P1Space(square_hierarchy[0])
        assert isinstance(assembly.factorize(sp.csr_matrix((0, 0)), empty), superlu)
        small = mf.P1Space(square_hierarchy[3])
        assert isinstance(assembly.factorize(small.h1_gram), superlu)

        made = track_factorizations(monkeypatch)
        monkeypatch.setattr(assembly.DiscreteSystem, "_gmres", lambda self, *args: None)
        system = assembly.DiscreteSystem(small, sine_problem, None)
        n = small.ndof
        u = mf.interpolate(small, sine_problem.exact.u.value)
        m = mf.interpolate(small, sine_problem.exact.m.value)
        rhs = np.concatenate([system.hjb_residual(u, m), system.kfp_residual(u, m)])
        system.newton_step(u, m, rhs)
        system.solve(u)
        assert [size for size, _, _ in made] == [n, 2 * n, n]
        kinds = [type(lu) for _, _, lu in made]
        assert kinds == [assembly.BandLU, superlu, assembly.BandLU]
