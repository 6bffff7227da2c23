import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import analysis, assembly
from mfgfem.errors import ConfigurationError, InvariantViolation, SolverError
from mfgfem.stabilization import StabilizationTensor, random_disk_drift

from conftest import assemble_hjb_drift, track_factorizations

SQRT2 = math.sqrt(2.0)
# certificate margins at levels 2-6 with each family's own tensor, nu = L_H = 1
CERTIFIED_MARGINS = {
    "xz_square": [-0.201, -0.101, -0.0503, -0.0252, -0.0126],
    "acute_rhombus": [-0.494, -0.536, -0.557, -0.567, -0.572],
}


def fan_mesh():
    """Unit square fanned around its center: the four spokes are the internal
    edges (each touches the interior center vertex)."""
    vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    triangles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return mf.Mesh2D(vertices, triangles)


class TestXZTensor:
    def test_zero_for_zero_lipschitz(self, square_hierarchy):
        mesh = square_hierarchy[2]
        tensor = mf.build_xz_tensor(mesh, 0.0)
        assert not tensor.per_element.any()
        assert mf.verify_h1(tensor, mesh).c_d_observed == 0.0

    def test_blocked_gathers_equal_whole_mesh(self, blocked_spaces):
        # the three edge tensors of each element, gathered block by block and
        # added in local-edge order, are bitwise one whole-mesh gather
        for space in blocked_spaces:
            mesh = space.mesh
            internal = mesh.internal_edge_mask
            tang = (mesh.vertices[mesh.edges[internal, 1]]
                    - mesh.vertices[mesh.edges[internal, 0]])
            lengths = mesh.edge_lengths[internal]
            tang = tang / lengths[:, None]
            omega = mesh.shape_regularity / 3.0 * 1.5 * lengths
            rank1 = np.zeros((mesh.num_edges, 2, 2))
            rank1[internal] = omega[:, None, None] * np.einsum("ei,ej->eij", tang, tang)
            want = rank1[mesh.tri_edges[:, 0]] + rank1[mesh.tri_edges[:, 1]]
            want += rank1[mesh.tri_edges[:, 2]]
            assert np.array_equal(mf.build_xz_tensor(mesh, 1.5).per_element, want)

    def test_fan_mesh_hand_assembled(self):
        # each spoke has length sqrt(2)/2 and diagonal direction; with factor c
        # and L_H = 1 each element collects its two spokes:
        # omega (t t^T + s s^T) with t = (1,1)/sqrt2, s = (-1,1)/sqrt2 summing to
        # omega * I, omega = c * sqrt(2)/2
        mesh = fan_mesh()
        factor = 1.0
        tensor = mf.build_xz_tensor(mesh, 1.0, omega_factor=factor)
        omega = factor * SQRT2 / 2.0
        for t in range(4):
            assert np.allclose(tensor.per_element[t], omega * np.eye(2), atol=1e-14)

    def test_rank_one_outer_product_structure(self):
        # isolate a single spoke: scale L_H so omega = 1 and check eigenvalues
        mesh = fan_mesh()
        tensor = mf.build_xz_tensor(mesh, 1.0, omega_factor=1.0 / (SQRT2 / 2.0))
        # per element = t t^T + s s^T with orthogonal unit t, s -> eigenvalues {1, 1}
        eigs = np.linalg.eigvalsh(tensor.per_element[0])
        assert np.allclose(eigs, [1.0, 1.0], atol=1e-13)

    def test_single_direction_outer_product(self):
        # directly verify the rank-1 block for a diagonal unit tangent
        t = np.array([1.0, 1.0]) / SQRT2
        block = np.outer(t, t)
        assert np.allclose(block, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(sorted(np.linalg.eigvalsh(block)), [0.0, 1.0], atol=1e-15)

    def test_interior_element_composition(self, square_hierarchy):
        # an element with all three edges internal carries the sum of one
        # horizontal, one vertical, and one diagonal edge tensor
        mesh = square_hierarchy[3]
        n = 8
        factor = mesh.shape_regularity / 3.0
        tensor = mf.build_xz_tensor(mesh, 1.0)
        internal_elems = np.nonzero(
            mesh.internal_edge_mask[mesh.tri_edges].all(axis=1))[0]
        expected = (factor / n) * (np.diag([1.0, 0.0]) + np.diag([0.0, 1.0])
                                   + SQRT2 * np.array([[0.5, 0.5], [0.5, 0.5]]))
        for t in internal_elems[:8]:
            assert np.allclose(tensor.per_element[t], expected, atol=1e-14)

    def test_weight_window_gate(self, square_hierarchy):
        mesh = square_hierarchy[2]
        with pytest.raises(ConfigurationError, match="window"):
            mf.build_xz_tensor(mesh, 1.0, omega_factor=mesh.shape_regularity / 6.0)

    def test_requires_xz_mesh(self):
        height = 0.5 / math.tan(math.radians(50.0))
        kite = mf.Mesh2D([(0, 0), (1, 0), (0.5, height), (0.5, -height)],
                         [(0, 1, 2), (0, 3, 1)])
        with pytest.raises(ConfigurationError, match="XZ"):
            mf.build_xz_tensor(kite, 1.0)

    def test_linear_scaling_in_lipschitz_constant(self, square_hierarchy):
        mesh = square_hierarchy[3]
        t1 = mf.build_xz_tensor(mesh, 1.0)
        t2 = mf.build_xz_tensor(mesh, 2.0)
        assert np.allclose(t2.per_element, 2.0 * t1.per_element, rtol=0, atol=0)

    def test_h1_constant_across_levels(self, square_hierarchy):
        # weights scale with edge diameters, so c_d is level-independent and
        # bounded by 3 * omega_factor * L_H
        values = []
        for mesh in square_hierarchy[2:6]:
            tensor = mf.build_xz_tensor(mesh, 1.0)
            report = mf.verify_h1(tensor, mesh)
            values.append(report.c_d_observed)
            assert report.c_d_observed <= 3.0 * (mesh.shape_regularity / 3.0) + 1e-12
        assert np.allclose(values, values[0], rtol=1e-12)

    def test_matches_element_loop_on_jittered_mesh(self, rhombus_hierarchy):
        # interior vertices moved by 1e-2 h keep the mesh acute, hence XZ, and
        # give every edge its own length and direction
        base = rhombus_hierarchy[3]
        jitter = np.random.default_rng(11).uniform(-1.0, 1.0, size=base.vertices.shape)
        vertices = base.vertices + 1e-2 * base.h_max * jitter * base.interior_vertex_mask[:, None]
        mesh = mf.Mesh2D(vertices, base.triangles)
        assert mf.check_acute(mesh) > 0.0
        L_H = 1.3
        tensor = mf.build_xz_tensor(mesh, L_H)

        sides = [tuple(sorted((tri[(s + 1) % 3], tri[(s + 2) % 3])))
                 for tri in mesh.triangles.tolist() for s in range(3)]
        boundary = {v for side in sides if sides.count(side) == 1 for v in side}
        factor = mesh.shape_regularity / 3.0
        expected = np.zeros((mesh.num_triangles, 2, 2))
        for k, (a, b) in enumerate(sides):
            if a in boundary and b in boundary:
                continue
            d = vertices[b] - vertices[a]
            length = math.hypot(d[0], d[1])
            expected[k // 3] += factor * L_H * length * np.outer(d, d) / length ** 2
        scale = np.abs(expected).max()
        assert np.abs(tensor.per_element - expected).max() <= 1e-14 * scale


class TestAcuteTensor:
    def test_clamped_to_zero_for_large_nu(self, rhombus_hierarchy):
        tensor = mf.build_acute_tensor(rhombus_hierarchy[2], 1.0, 1e6)
        assert not tensor.per_element.any()

    def test_arithmetic_on_unit_rhombus(self):
        # side 1 equilateral: sigma = 2/sqrt(3), theta = pi/6;
        # coefficient = 1.1 / ((2/sqrt3) * 0.5) - 0.5 = 1.1 sqrt(3) - 0.5
        mesh = mf.generate_acute_rhombus(1)
        tensor = mf.build_acute_tensor(mesh, 1.0, 0.5, mu=1.1)
        expected = 1.1 * math.sqrt(3.0) - 0.5
        assert expected == pytest.approx(1.4053, abs=1e-4)
        for block in tensor.per_element:
            assert np.allclose(block, expected * np.eye(2), atol=1e-12)

    def test_sigma_constant_for_equilateral(self):
        # diam * min |grad psi| = l * 2/(sqrt3 l) = 2/sqrt3 independent of side
        for n in (1, 2, 4):
            mesh = mf.generate_acute_rhombus(n)
            grads = np.linalg.norm(mesh.basis_gradients, axis=2)
            sigma = mesh.diameters * grads.min(axis=1)
            assert np.allclose(sigma, 2.0 / math.sqrt(3.0), rtol=1e-12)

    def test_vanishes_past_clamp_level(self, rhombus_hierarchy):
        # with nu = L_H = 1, mu = 1.1 the clamp engages at level 1 and stays
        zero_from = None
        for level, mesh in enumerate(rhombus_hierarchy):
            tensor = mf.build_acute_tensor(mesh, 1.0, 1.0, mu=1.1)
            if not tensor.per_element.any() and zero_from is None:
                zero_from = level
            if zero_from is not None:
                assert not tensor.per_element.any()
        assert zero_from == 1

    def test_rejects_bad_parameters(self, rhombus_hierarchy, square_hierarchy):
        with pytest.raises(ConfigurationError):
            mf.build_acute_tensor(rhombus_hierarchy[2], 1.0, 1.0, mu=1.0)
        with pytest.raises(ConfigurationError):
            mf.build_acute_tensor(square_hierarchy[2], 1.0, 1.0)  # theta = 0


class TestVerifyH1:
    def test_zero_tensor(self, square_hierarchy):
        # no stabilization is None, and reports what a zero array reports
        mesh = square_hierarchy[2]
        assert analysis.tensor_for(mesh, "none", 1.0, 1.0) is None
        zero = StabilizationTensor(np.zeros((mesh.num_triangles, 2, 2)))
        for tensor in (None, zero):
            report = mf.verify_h1(tensor, mesh)
            assert report.min_eigenvalue == 0.0
            assert report.c_d_observed == 0.0

    def test_negative_eigenvalue_detected(self, square_hierarchy):
        mesh = square_hierarchy[2]
        blocks = np.zeros((mesh.num_triangles, 2, 2))
        blocks[3] = np.diag([0.2, -0.1])
        bad = StabilizationTensor(blocks)
        with pytest.raises(InvariantViolation, match="element 3"):
            mf.verify_h1(bad, mesh)


def family_tensor(family, mesh, L_H, nu=1.0):
    if family == "xz_square":
        return mf.build_xz_tensor(mesh, L_H)
    return mf.build_acute_tensor(mesh, L_H, nu)


def class_bound_oracle(mesh, L_H):
    """Dense B*[i,j] = sum_K L_H |grad xi_j|_K |K| / 3 over every vertex, one
    triangle and one entry at a time."""
    bound = np.zeros((mesh.num_vertices, mesh.num_vertices))
    for t, verts in enumerate(mesh.triangles):
        for a, j in enumerate(verts):
            weight = L_H * np.linalg.norm(mesh.basis_gradients[t, a]) * mesh.areas[t] / 3.0
            for i in verts:
                bound[i, j] += weight
    return bound


def interior_edge_entries(mesh):
    """Mask of the off-diagonal entries (i, j) with i interior and ij a mesh edge."""
    mask = np.zeros((mesh.num_vertices, mesh.num_vertices), dtype=bool)
    a, b = mesh.edges.T
    mask[a, b] = mask[b, a] = True
    return mask & mesh.interior_vertex_mask[:, None]


class TestCertifyDMP:
    def test_holds_on_both_families(self, square_spaces, rhombus_spaces):
        for family, spaces in (("xz_square", square_spaces),
                               ("acute_rhombus", rhombus_spaces)):
            for level, expected in zip(range(2, 7), CERTIFIED_MARGINS[family]):
                space = spaces[level]
                tensor = family_tensor(family, space.mesh, 1.0)
                certified, margin = mf.certify_dmp(space, 1.0, tensor, 1.0)
                assert certified, (family, level, margin)
                assert margin == pytest.approx(expected, rel=5e-3)

    def test_rejects_unstabilized_laplacian_with_drift(self, square_spaces):
        # the diagonal edges of the square family carry no diffusion at all
        certified, margin = mf.certify_dmp(square_spaces[3], 1.0, None, 1.0)
        assert certified is False
        assert margin == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_rejects_the_sampled_failing_case(self, square_spaces):
        # nu = 0.05, no tensor, |b| up to 8 sqrt(2): the case verify_h2_dmp
        # must report as failing
        certified, margin = mf.certify_dmp(square_spaces[3], 0.05, None, 8.0 * SQRT2)
        assert certified is False
        assert margin == pytest.approx(0.519, rel=1e-3)

    def test_edge_weights_far_below_the_window(self, square_spaces):
        # the builder refuses omega_factor <= delta/6; scaled by hand, the edge
        # tensor still certifies at 0.1 delta and fails at 0.09 delta
        space = square_spaces[3]
        delta = space.mesh.shape_regularity
        base = mf.build_xz_tensor(space.mesh, 1.0, omega_factor=delta)
        for factor, holds in ((0.1, True), (0.09, False)):
            scaled = StabilizationTensor(factor * base.per_element)
            certified, margin = mf.certify_dmp(space, 1.0, scaled, 1.0)
            assert certified is holds
            assert (margin < 0.0) is holds

    def test_margin_within_rounding_of_zero_is_not_certified(self, square_spaces):
        # zero tensor and zero drift leave exact zeros on the diagonal edges
        certified, margin = mf.certify_dmp(square_spaces[3], 1.0, None, 0.0)
        assert certified is False
        assert margin == 0.0

    def test_rejects_negative_bound(self, square_spaces):
        with pytest.raises(ConfigurationError):
            mf.certify_dmp(square_spaces[2], 1.0, None, -1.0)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(["xz_square", "acute_rhombus"]),
           level=st.integers(2, 3), L_H=st.floats(0.1, 10.0),
           seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6))
    def test_class_bound_dominates_and_is_attained(self, square_spaces, rhombus_spaces,
                                                   family, level, L_H, seed, pick):
        space = (square_spaces if family == "xz_square" else rhombus_spaces)[level]
        mesh = space.mesh
        tensor = family_tensor(family, mesh, L_H)
        pattern = assembly.full_pattern(space)
        K = assembly.assemble_diffusion(space, 1.0, tensor, full=pattern).toarray()
        bound = K + class_bound_oracle(mesh, L_H)
        mask = interior_edge_entries(mesh)
        _, margin = mf.certify_dmp(space, 1.0, tensor, L_H)
        assert margin == pytest.approx(bound[mask].max(), rel=1e-12, abs=1e-15)

        # every drift of the class stays below the bound entrywise
        drift = random_disk_drift(mesh, L_H, np.random.default_rng(seed))
        L = K + assemble_hjb_drift(space, drift, full=pattern).toarray()
        slack = 1e-14 * np.abs(bound).max()
        assert np.all(L[mask] <= bound[mask] + slack)

        # the drift along grad xi_j on the elements of edge ij attains entry (i, j)
        touching = np.nonzero(mesh.interior_vertex_mask[mesh.edges].any(axis=1))[0]
        edge = touching[pick % len(touching)]
        i, j = mesh.edges[edge]
        if not mesh.interior_vertex_mask[i]:
            i, j = j, i
        for t in np.nonzero((mesh.tri_edges == edge).any(axis=1))[0]:
            grad_j = mesh.basis_gradients[t, list(mesh.triangles[t]).index(j)]
            drift[t] = L_H * grad_j / np.linalg.norm(grad_j)
        B = assemble_hjb_drift(space, drift, full=pattern)
        B_star = bound - K
        assert B[i, j] == pytest.approx(B_star[i, j], rel=1e-15)


class TestVerifyH2DMP:
    def test_laplacian_on_xz_mesh(self, square_spaces):
        # zero drift, zero tensor: the XZ mesh makes the stiffness an M-matrix
        space = square_spaces[3]
        drift = np.zeros((space.mesh.num_triangles, 2))
        assert mf.verify_h2_dmp(space, 1.0, None, drift=drift, trials=20, seed=0)

    def test_constant_drift_with_xz_tensor(self, square_hierarchy):
        for level in (2, 3, 4):
            mesh = square_hierarchy[level]
            space = mf.P1Space(mesh)
            tensor = mf.build_xz_tensor(mesh, 1.0)
            drift = np.tile([1.0, 0.0], (mesh.num_triangles, 1))
            assert mf.verify_h2_dmp(space, 1.0, tensor, drift=drift, trials=10, seed=1)

    def test_random_drifts_both_families(self, square_spaces, rhombus_hierarchy):
        space = square_spaces[3]
        tensor = mf.build_xz_tensor(space.mesh, 1.0)
        assert mf.verify_h2_dmp(space, 1.0, tensor, L_H=1.0, trials=50, seed=2)
        mesh = rhombus_hierarchy[3]
        space_r = mf.P1Space(mesh)
        tensor_r = mf.build_acute_tensor(mesh, 1.0, 1.0)
        assert mf.verify_h2_dmp(space_r, 1.0, tensor_r, L_H=1.0, trials=50, seed=2)

    def test_detects_violation_without_stabilization(self, square_spaces):
        # strong unstabilized drift on the diagonal edges breaks the M-matrix
        # structure; the sampler must be able to report failure
        space = square_spaces[3]
        drift = np.tile([8.0, 8.0], (space.mesh.num_triangles, 1))
        result = mf.verify_h2_dmp(space, 0.05, None, drift=drift, trials=40, seed=3)
        assert result is False

    def test_fixed_drift_factorizes_once(self, square_spaces, monkeypatch):
        # a fixed drift gives one L for every trial, so one LU; a drawn drift
        # gives a new L, and LU, per trial
        made = track_factorizations(monkeypatch)
        space = square_spaces[3]
        drift = np.tile([8.0, 8.0], (space.mesh.num_triangles, 1))
        assert mf.verify_h2_dmp(space, 1.0, None, drift=drift, trials=40, seed=3)
        assert len(made) == 1
        tensor = mf.build_xz_tensor(space.mesh, 1.0)
        assert mf.verify_h2_dmp(space, 1.0, tensor, L_H=1.0, trials=5, seed=2)
        assert len(made) == 1 + 5
        assert all(isinstance(lu, assembly.BandLU) for _, _, lu in made)

    def test_disk_drift_radius(self, square_hierarchy):
        rng = np.random.default_rng(0)
        drift = random_disk_drift(square_hierarchy[3], 2.5, rng)
        assert np.hypot(drift[:, 0], drift[:, 1]).max() <= 2.5

    def test_requires_drift_or_bound(self, square_spaces):
        with pytest.raises(ConfigurationError):
            mf.verify_h2_dmp(square_spaces[2], 1.0, None)

    def test_singular_operator_raises(self, square_spaces):
        # nu = 0 with no tensor and no drift leaves the zero matrix, outside the
        # uniformly invertible class: the factorization fails loudly
        space = square_spaces[2]
        drift = np.zeros((space.mesh.num_triangles, 2))
        with pytest.raises(SolverError, match="sparse factorization failed"):
            mf.verify_h2_dmp(space, 0.0, None, drift=drift)
