import dataclasses
import math

import numpy as np
import pytest

import mfgfem as mf
from mfgfem import assembly
from mfgfem.errors import ConfigurationError
from mfgfem.fespace import quadrature, quadrature_xy
from mfgfem.mesh import ELEMENT_BLOCK
from mfgfem.problem import (
    ManufacturedData,
    _quadrature_loads,
    halfplane_clipped_areas,
    sine_product_field,
)
from mfgfem.solver import riesz_dual_norm


class TestExactFields:
    def test_sine_square_values(self):
        field = sine_product_field()
        assert field.value(0.5, 0.5) == pytest.approx(1.0)
        assert field.value(0.0, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert field.jet(0.5, 0.5)[2] == pytest.approx(-2.0 * math.pi ** 2)
        assert np.allclose(field.grad(0.5, 0.5), [0.0, 0.0], atol=1e-15)

    def test_sine_rhombus_vanishes_on_boundary(self):
        field = sine_product_field(mf.problem.RHOMBUS_TRANSFORM)
        mesh = mf.generate_acute_rhombus(4)
        boundary = mesh.vertices[mesh.boundary_vertex_flags]
        vals = field.value(boundary[:, 0], boundary[:, 1])
        assert np.abs(vals).max() < 1e-13

    def test_mapped_gradient_by_finite_differences(self):
        field = sine_product_field(mf.problem.RHOMBUS_TRANSFORM)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.3, 0.8, 50)
        y = rng.uniform(0.1, 0.5, 50)
        h = 1e-6
        gx = (field.value(x + h, y) - field.value(x - h, y)) / (2 * h)
        gy = (field.value(x, y + h) - field.value(x, y - h)) / (2 * h)
        grad = field.grad(x, y)
        assert np.abs(grad[:, 0] - gx).max() < 1e-8
        assert np.abs(grad[:, 1] - gy).max() < 1e-8

    def test_mapped_laplacian_by_finite_differences(self):
        field = sine_product_field(mf.problem.RHOMBUS_TRANSFORM)
        x, y = np.array([0.7]), np.array([0.4])
        h = 1e-4
        lap_fd = (field.value(x + h, y) + field.value(x - h, y)
                  + field.value(x, y + h) + field.value(x, y - h)
                  - 4 * field.value(x, y)) / h ** 2
        assert field.jet(x, y)[2][0] == pytest.approx(lap_fd[0], abs=1e-5)


class TestManufactured:
    def test_offset_center_value(self, sine_problem):
        # f0(0.5, 0.5) = 2 pi^2 + H(0) - 1 = 2 pi^2 - 1
        f0 = sine_problem.coupling.offset
        assert f0(0.5, 0.5) == pytest.approx(2.0 * math.pi ** 2 - 1.0)

    def test_sine_source_not_certified(self, sine_problem):
        # the variational source of the sine instance is not sign-definite
        assert sine_problem.source.nonneg_certified is False

    def test_g_one_certified(self, g_one_problem):
        assert g_one_problem.source.nonneg_certified is True

    @pytest.mark.parametrize("domain", ["xz_square", "acute_rhombus"])
    @pytest.mark.parametrize("nu", [1.0, 5.0, 10.0])
    def test_claims_no_sign_and_assembles_nothing(self, nu, domain, monkeypatch):
        spaces, loads = [], []
        space_init, load = mf.P1Space.__init__, mf.problem._quadrature_loads

        def counting_init(self, mesh):
            spaces.append(mesh)
            space_init(self, mesh)

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(mf.P1Space, "__init__", counting_init)
        monkeypatch.setattr(mf.problem, "_quadrature_loads", counting_load)
        problem = mf.make_manufactured(nu, mf.huber_ball(1.0), 1.0, domain=domain)
        assert problem.source.nonneg_certified is False
        assert spaces == [] and loads == []
        with pytest.raises(ConfigurationError):
            mf.analysis.verify_dmp_at_solution(None, problem)

    def test_large_nu_square_source_negative_on_fine_mesh(self):
        # why no nu earns the sign: the level-6 loads of the nu = 5 square
        # instance are all positive, but the level-7 ones are not
        problem = mf.make_manufactured(5.0, mf.huber_ball(1.0), 1.0)
        meshes = [mf.generate_structured_square(2 ** level) for level in (6, 7)]
        mins = [problem.data_loads(mf.P1Space(mesh))[1].min() for mesh in meshes]
        assert mins[0] > 0.0
        assert mins[1] == pytest.approx(-4.37e-5, rel=1e-3)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
    def test_nu_must_be_finite_and_positive(self, nu):
        with pytest.raises(ConfigurationError):
            mf.MFGProblem(nu=nu, hamiltonian=mf.huber_ball(1.0),
                          coupling=mf.CouplingF(c_F=1.0),
                          source=mf.SourceG())

    def test_requires_smooth_hamiltonian(self):
        nonsmooth = mf.finite_control([(1, 0), (-1, 0)], [0, 0])
        with pytest.raises(ConfigurationError):
            mf.make_manufactured(1.0, nonsmooth, 1.0)

    def test_kfp_pairing_cross_check(self, sine_problem, square_spaces):
        # <G, phi> with phi the interpolant of m* equals the direct degree-6
        # quadrature of nu grad m* . grad phi + m* dH/dp[grad u*] . grad phi
        space = square_spaces[3]
        ex = sine_problem.exact
        phi = mf.interpolate(space, ex.m.value)
        g_tilde = sine_problem.source.g_tilde
        load = _quadrature_loads(space, lambda x, y: (None, g_tilde(x, y)), degree=6)[1]
        lhs = float(load @ phi.coeffs)
        rule = quadrature(6)
        gt = g_tilde(*quadrature_xy(space.mesh, rule))
        grads = phi.element_gradients()
        rhs = float(np.einsum("tqd,td,q,t->", gt, grads, rule.weights,
                              space.elem_areas))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_interpolant_residual_consistency(self, sine_problem, square_spaces):
        # interpolants of the exact pair drive both residual dual norms to zero
        # at first order under refinement
        norms1, norms2, hs = [], [], []
        for level in (3, 4, 5):
            space = square_spaces[level]
            system = assembly.DiscreteSystem(space, sine_problem, None)
            u_i = mf.interpolate(space, sine_problem.exact.u.value)
            m_i = mf.interpolate(space, sine_problem.exact.m.value)
            gram = assembly.H1Gram(space)
            norms1.append(riesz_dual_norm(gram, system.hjb_residual(u_i, m_i)))
            norms2.append(riesz_dual_norm(gram, system.kfp_residual(u_i, m_i)))
            hs.append(space.mesh.h_max)
        for norms in (norms1, norms2):
            slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
            assert slope >= 0.9


class TestSourceLoads:
    def test_constant_g0_load(self, square_spaces):
        # b_i = int xi_i = 1/3 sum of adjacent element areas
        space = square_spaces[2]
        mesh = space.mesh
        problem = mf.MFGProblem(1.0, mf.huber_ball(1.0), mf.CouplingF(1.0),
                                mf.SourceG(g0=lambda x, y: np.ones_like(x)))
        b = problem.data_loads(space)[1]
        expected = np.zeros(space.ndof)
        for t, tri in enumerate(mesh.triangles):
            for v in tri:
                dof = space.dof_of_vertex[v]
                if dof >= 0:
                    expected[dof] += mesh.areas[t] / 3.0
        assert np.allclose(b, expected, rtol=1e-13)

    def test_empty_source(self, square_spaces):
        assert np.all(mf.make_zero_problem().data_loads(square_spaces[2])[1] == 0.0)

    def test_constant_vector_field_load_vanishes(self, square_spaces):
        # divergence theorem: int c . grad xi_i = 0 for interior hat functions
        space = square_spaces[3]
        problem = mf.MFGProblem(1.0, mf.huber_ball(1.0), mf.CouplingF(1.0), mf.SourceG(
            g_tilde=lambda x, y: np.stack(
                [np.full(np.shape(x), 0.7), np.full(np.shape(x), -0.2)], axis=-1)))
        assert np.abs(problem.data_loads(space)[1]).max() < 1e-14


def whole_mesh_loads(space, f, gt, degree):
    """Scalar and vector loads from whole-mesh (nt, nq, 2) quadrature arrays."""
    mesh = space.mesh
    rule = quadrature(degree)
    xq = np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles])
    fq = np.broadcast_to(np.asarray(f(xq[..., 0], xq[..., 1]), dtype=float), xq.shape[:2])
    scalar = np.einsum("tq,q,qi->ti", fq, rule.weights, rule.points) * mesh.areas[:, None]
    gq = np.asarray(gt(xq[..., 0], xq[..., 1]), dtype=float)
    mean = np.einsum("tqd,q->td", gq, rule.weights)
    vector = np.einsum("td,tid->ti", mean, space.elem_grads) * mesh.areas[:, None]
    return (assembly._scatter_load(space, lambda blk: scalar[blk]),
            assembly._scatter_load(space, lambda blk: vector[blk]))


class TestOneTrigPass:
    @pytest.mark.parametrize("transform", [None, mf.problem.RHOMBUS_TRANSFORM],
                             ids=["square", "rhombus"])
    def test_jet_is_value_grad_laplacian(self, transform):
        field = sine_product_field(transform)
        x, y = np.random.default_rng(16).uniform(-0.2, 1.2, (2, 50, 6))
        value, grad, laplacian = field.jet(x, y)
        assert np.array_equal(value, field.value(x, y))
        assert np.array_equal(grad, field.grad(x, y))
        h = 1e-4
        lap_fd = (field.value(x + h, y) + field.value(x - h, y)
                  + field.value(x, y + h) + field.value(x, y - h)
                  - 4 * field.value(x, y)) / h ** 2
        assert np.abs(laplacian - lap_fd).max() < 1e-5

    def test_manufactured_fields_equal_separate_evaluations(self):
        nu, c_F, ham = 0.7, 1.3, mf.huber_ball(0.8)
        problem = mf.make_manufactured(nu, ham, c_F)
        sine = problem.exact.u
        x, y = np.random.default_rng(17).uniform(0, 1, (2, 40, 6))
        f0 = -nu * sine.jet(x, y)[2] + ham.value(sine.grad(x, y)) - c_F * sine.value(x, y)
        grad = sine.grad(x, y)
        g_tilde = nu * grad + sine.value(x, y)[..., None] * ham.grad_p(grad)
        assert np.array_equal(problem.coupling.offset(x, y), f0)
        assert np.array_equal(problem.source.g_tilde(x, y), g_tilde)


class TestBlockedLoads:
    @pytest.mark.parametrize("make", [
        lambda: mf.make_manufactured(0.7, mf.huber_ball(0.8), 1.3),
        lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0, domain="acute_rhombus"),
        lambda: mf.make_rough_density_problem(),
        lambda: mf.make_g_one_problem(),
        lambda: mf.make_zero_problem()],
        ids=["sine_square", "sine_rhombus", "rough", "g_one", "zero"])
    def test_one_pass_data_loads(self, make, blocked_spaces, rhombus_spaces):
        # both loads of a system, bitwise those of each field evaluated
        # on its own (a manufactured instance's jet once per field)
        problem = make()
        source = problem.source
        fields = (problem.coupling.offset, source.g_tilde, source.g0)
        for space in blocked_spaces + [rhombus_spaces[4]]:
            f0_load, g_load = problem.data_loads(space)
            f0, gt, g0 = _quadrature_loads(space, lambda x, y: tuple(
                None if h is None else h(x, y) for h in fields))
            assert np.array_equal(f0_load, f0)
            assert np.array_equal(g_load, gt + g0 if source.exact_load is None
                                  else source.exact_load(space))

    def test_manufactured_data_share_one_jet_per_block(self, blocked_spaces):
        sine, calls = sine_product_field(), []

        def jet(x, y):
            calls.append(x.shape[0])
            return sine.jet(x, y)

        ham = mf.huber_ball(1.0)
        data = ManufacturedData(dataclasses.replace(sine, jet=jet), 1.0, 1.0, ham)
        problem = mf.MFGProblem(1.0, ham, mf.CouplingF(1.0, offset=data.offset),
                                mf.SourceG(g_tilde=data.g_tilde))
        space = blocked_spaces[2]
        problem.data_loads(space)
        assert calls == [blk.stop - blk.start for blk in space.mesh.element_blocks()]

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_bitwise_equal_to_whole_mesh_quadrature(self, degree, blocked_spaces, sine_problem):
        f0, gt = sine_problem.coupling.offset, sine_problem.source.g_tilde
        for space in blocked_spaces:
            scalar, vector = whole_mesh_loads(space, f0, gt, degree)
            assert np.array_equal(
                _quadrature_loads(space, lambda x, y: (f0(x, y),), degree)[0], scalar)
            assert np.array_equal(
                _quadrature_loads(space, lambda x, y: (None, gt(x, y)), degree)[1], vector)

    def test_fields_are_evaluated_in_blocks(self, blocked_spaces):
        space = blocked_spaces[2]
        rows = []

        def f(x, y):
            rows.append(x.shape[0])
            return x * y

        def gt(x, y):
            rows.append(x.shape[0])
            return np.stack([x, y], axis=-1)

        _quadrature_loads(space, lambda x, y: (f(x, y),))
        _quadrature_loads(space, lambda x, y: (None, gt(x, y)))
        nt = space.mesh.num_triangles
        blocks = [ELEMENT_BLOCK] * (nt // ELEMENT_BLOCK) + [nt % ELEMENT_BLOCK]
        assert rows == blocks + blocks


def clipped_areas_oracle(mesh, threshold):
    """Per-triangle clipping: the polygon of each triangle's part left of
    x = threshold, and its area by the shoelace formula."""
    corners = mesh.vertices[mesh.triangles]
    areas = np.zeros(len(corners))
    for t, poly in enumerate(corners):
        clipped = []
        for i in range(3):
            a, b = poly[i], poly[(i + 1) % 3]
            a_in, b_in = a[0] < threshold, b[0] < threshold
            if a_in:
                clipped.append(a)
            if a_in != b_in:
                s = (threshold - a[0]) / (b[0] - a[0])
                clipped.append(a + s * (b - a))
        if len(clipped) >= 3:
            x, y = np.array(clipped).T
            areas[t] = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return areas


class TestRoughInstance:
    @pytest.mark.parametrize("family", ["square", "rhombus"])
    def test_clipped_areas_match_polygon_clipping(self, family, request):
        # the closed form against clipping each triangle: on mesh lines, at
        # vertices, between them and off the mesh
        mesh = request.getfixturevalue(f"{family}_hierarchy")[4]
        lo, hi = mesh.vertices[:, 0].min(), mesh.vertices[:, 0].max()
        # the shoelace sum rounds at the scale of the squared coordinates
        tol = 4 * np.finfo(float).eps * np.abs(mesh.vertices).max() ** 2
        rng = np.random.default_rng(5)
        for c in [lo - 0.1, lo, 0.5, 1.0 / 3.0, hi, hi + 0.1, *rng.uniform(lo, hi, 5)]:
            got = halfplane_clipped_areas(mesh, c)
            assert np.abs(got - clipped_areas_oracle(mesh, c)).max() <= tol

    def test_clipped_areas_sum(self, square_hierarchy):
        mesh = square_hierarchy[4]
        for c, expected in ((1.0 / 3.0, 1.0 / 3.0), (0.5, 0.5), (1.5, 1.0), (-0.5, 0.0)):
            assert halfplane_clipped_areas(mesh, c).sum() == pytest.approx(
                expected, abs=1e-13)

    def test_aligned_jump_matches_quadrature(self, square_spaces):
        # with the jump on a mesh line, per-element quadrature is exact, so the
        # clipped-area load and the degree-6 quadrature load agree
        space = square_spaces[4]
        prob = mf.make_rough_density_problem(jump_x=0.5)
        exact = prob.data_loads(space)[1]
        gt = prob.source.g_tilde
        quad = _quadrature_loads(space, lambda x, y: (None, gt(x, y)), degree=6)[1]
        scale = np.abs(exact).max()
        assert np.abs(exact - quad).max() <= 1e-10 * scale

    def test_load_vanishes_right_of_jump(self, square_spaces):
        space = square_spaces[3]
        prob = mf.make_rough_density_problem(jump_x=1.0 / 3.0)
        b = prob.data_loads(space)[1]
        xs = space.mesh.vertices[space.vertex_of_dof, 0]
        # hat functions supported strictly right of the jump see zero load
        far_right = xs > 1.0 / 3.0 + 1.5 * space.mesh.h_max
        assert np.abs(b[far_right]).max(initial=0.0) < 1e-15

    def test_not_certified_and_no_exact(self):
        prob = mf.make_rough_density_problem()
        assert prob.exact is None
        assert prob.source.nonneg_certified is False

    def test_default_jump_off_grid(self):
        # the jump must avoid the dyadic grid lines of every refinement level
        prob = mf.make_rough_density_problem()
        for level in range(2, 8):
            n = 2 ** level
            grid = np.arange(n + 1) / n
            assert np.abs(grid - 1.0 / 3.0).min() > 1e-3


class TestCouplings:
    def test_local_linear_monotonicity_identity(self, square_spaces):
        # <F[w] - F[v], w - v> = c_F ||w - v||^2 exactly through the mass matrix
        space = square_spaces[3]
        system = assembly.DiscreteSystem(space, mf.make_g_one_problem(c_F=1.7), None)
        rng = np.random.default_rng(0)
        M = assembly.assemble_mass(space)
        for _ in range(5):
            w = mf.P1Function(space, rng.standard_normal(space.ndof))
            v = mf.P1Function(space, rng.standard_normal(space.ndof))
            d = w.coeffs - v.coeffs
            pairing = float((system.coupling_load(w) - system.coupling_load(v)) @ d)
            assert pairing == pytest.approx(1.7 * float(d @ (M @ d)), rel=1e-12)
