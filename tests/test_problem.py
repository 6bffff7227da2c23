import math

import numpy as np
import pytest

import mfgfem as mf
from mfgfem import assembly
from mfgfem.errors import ConfigurationError
from mfgfem.fespace import quadrature, quadrature_points_xy
from mfgfem.problem import (
    halfplane_clipped_areas,
    sine_product_field,
    source_load,
    vector_load,
)
from mfgfem.solver import riesz_dual_norm


class TestExactFields:
    def test_sine_square_values(self):
        field = sine_product_field()
        assert field.value(0.5, 0.5) == pytest.approx(1.0)
        assert field.value(0.0, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert field.laplacian(0.5, 0.5) == pytest.approx(-2.0 * math.pi ** 2)
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
        assert field.laplacian(x, y)[0] == pytest.approx(lap_fd[0], abs=1e-5)


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
        space_init, load = mf.P1Space.__init__, mf.problem.source_load

        def counting_init(self, mesh):
            spaces.append(mesh)
            space_init(self, mesh)

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(mf.P1Space, "__init__", counting_init)
        monkeypatch.setattr(mf.problem, "source_load", counting_load)
        problem = mf.make_manufactured(nu, mf.huber_ball(1.0), 1.0, domain=domain)
        assert problem.source.nonneg_certified is False
        assert spaces == [] and loads == []
        with pytest.raises(ConfigurationError):
            mf.analysis.verify_dmp_at_solution(None, problem)

    def test_large_nu_square_source_negative_on_fine_mesh(self):
        # why no nu earns the sign: the level-6 loads of the nu = 5 square
        # instance are all positive, but the level-7 ones are not
        problem = mf.make_manufactured(5.0, mf.huber_ball(1.0), 1.0)
        mins = [source_load(mf.P1Space(mf.generate_structured_square(2 ** level)),
                            problem.source).min() for level in (6, 7)]
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
        lhs = float(vector_load(space, sine_problem.source.g_tilde, degree=6) @ phi.coeffs)
        rule = quadrature(6)
        xq = quadrature_points_xy(space.mesh, rule)
        gt = sine_problem.source.g_tilde(xq[..., 0], xq[..., 1])
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
            norms1.append(riesz_dual_norm(system.gram, system.hjb_residual(u_i, m_i)))
            norms2.append(riesz_dual_norm(system.gram, system.kfp_residual(u_i, m_i)))
            hs.append(space.mesh.h_max)
        for norms in (norms1, norms2):
            slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
            assert slope >= 0.9


class TestSourceLoads:
    def test_constant_g0_load(self, square_spaces):
        # b_i = int xi_i = 1/3 sum of adjacent element areas
        space = square_spaces[2]
        mesh = space.mesh
        src = mf.SourceG(g0=lambda x, y: np.ones_like(x))
        b = source_load(space, src)
        expected = np.zeros(space.ndof)
        for t, tri in enumerate(mesh.triangles):
            for v in tri:
                dof = space.dof_of_vertex[v]
                if dof >= 0:
                    expected[dof] += mesh.areas[t] / 3.0
        assert np.allclose(b, expected, rtol=1e-13)

    def test_empty_source(self, square_spaces):
        assert np.all(source_load(square_spaces[2], mf.SourceG()) == 0.0)

    def test_constant_vector_field_load_vanishes(self, square_spaces):
        # divergence theorem: int c . grad xi_i = 0 for interior hat functions
        space = square_spaces[3]
        src = mf.SourceG(g_tilde=lambda x, y: np.stack(
            [np.full(np.shape(x), 0.7), np.full(np.shape(x), -0.2)], axis=-1))
        assert np.abs(source_load(space, src)).max() < 1e-14


class TestRoughInstance:
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
        exact = prob.source.load_vector(space)
        quad = vector_load(space, prob.source.g_tilde, degree=6)
        scale = np.abs(exact).max()
        assert np.abs(exact - quad).max() <= 1e-10 * scale

    def test_load_vanishes_right_of_jump(self, square_spaces):
        space = square_spaces[3]
        prob = mf.make_rough_density_problem(jump_x=1.0 / 3.0)
        b = prob.source.load_vector(space)
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
