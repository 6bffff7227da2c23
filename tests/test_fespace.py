import collections
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import assembly, cli
from mfgfem.errors import ConfigurationError, NumericError
from mfgfem.fespace import quadrature, quadrature_xy


def reference_space():
    return mf.P1Space(mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]))


def exact_monomial_integral(a, b):
    """int_T x^a y^b over the reference triangle = a! b! / (a + b + 2)!."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestSpace:
    def test_dof_enumeration(self, square_hierarchy):
        space = mf.P1Space(square_hierarchy[2])
        assert space.ndof == 9
        assert np.all(space.dof_of_vertex[space.vertex_of_dof] == np.arange(9))
        interior = space.mesh.interior_vertex_mask
        assert np.all(interior[space.vertex_of_dof])

    def test_partition_of_unity(self, rhombus_hierarchy):
        grads = mf.P1Space(rhombus_hierarchy[2]).elem_grads
        assert np.abs(grads.sum(axis=1)).max() < 1e-13

    def test_gradient_magnitudes(self):
        # |grad xi_i| = opposite edge length / (2 area)
        mesh = mf.generate_acute_rhombus(2)
        space = mf.P1Space(mesh)
        norms = np.linalg.norm(space.elem_grads, axis=2)
        for s in range(3):
            opp = mesh.edge_lengths[mesh.tri_edges[:, s]]
            assert np.allclose(norms[:, s], opp / (2.0 * mesh.areas), rtol=1e-13)


def count_assemblies(monkeypatch):
    """Calls of ``assemble_mass`` and ``assemble_diffusion`` from now on, per
    (function name, mesh level)."""
    calls = collections.Counter()
    for name in ("assemble_mass", "assemble_diffusion"):
        def counted(space, *args, _name=name, _assemble=getattr(assembly, name), **kwargs):
            calls[_name, space.mesh.level] += 1
            return _assemble(space, *args, **kwargs)
        monkeypatch.setattr(assembly, name, counted)
    return calls


def record_spaces(monkeypatch):
    """Every space object ``P1Space`` builds or returns from now on, per mesh;
    the record keeps them alive."""
    spaces = collections.defaultdict(set)
    init = mf.P1Space.__init__

    def recorded(self, mesh):
        init(self, mesh)
        spaces[mesh].add(self)
    monkeypatch.setattr(mf.P1Space, "__init__", recorded)
    return spaces


class TestOneSpacePerMesh:
    def test_mesh_has_one_live_space(self):
        meshes = mf.mesh_hierarchy("xz_square", 3)
        space = mf.P1Space(meshes[3])
        assert mf.P1Space(meshes[3]) is space
        assert space.parent is mf.P1Space(meshes[2])
        assert space.parent.parent is mf.P1Space(meshes[1])
        assert mf.P1Space(mf.refine_red(meshes[3])).parent is space

    def test_registry_drops_an_unreferenced_space(self):
        live = len(mf.P1Space._live)
        mesh = mf.generate_structured_square(4)
        space = mf.P1Space(mesh)
        # the matrices a space holds do not keep it alive
        assert space.mass is not None and len(mf.P1Space._live) == live + 1
        mesh_ref, space_ref = weakref.ref(mesh), weakref.ref(space)
        del mesh, space
        gc.collect()
        assert mesh_ref() is None and space_ref() is None
        assert len(mf.P1Space._live) == live

    def test_reference_ladder_builds_one_space_per_mesh(self, monkeypatch):
        # levels 2-4 against the level-6 reference: the solves, their
        # multigrid parent chains, the injections and the errors share the
        # spaces of the one hierarchy
        problem = mf.make_rough_density_problem(1.0, mf.huber_ball(1.0), 1.0)
        spaces = record_spaces(monkeypatch)
        mf.run_convergence_study(problem, "xz_square", range(2, 5), "xz")
        levels = [mesh.level for mesh in spaces]
        assert set(range(2, 7)) <= set(levels) and len(levels) == len(set(levels))
        assert all(len(built) == 1 for built in spaces.values())

    def test_verify_builds_one_space_per_mesh(self, tmp_path, monkeypatch, capsys):
        # the semismooth check's finer space refines the verify space, which
        # its multigrid parent chain returns
        path = tmp_path / "verify.cfg"
        path.write_text(f"mesh.level = 5\noutput.dir = {tmp_path}\n")
        spaces = record_spaces(monkeypatch)
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        assert all(len(built) == 1 for built in spaces.values())
        (space,), (finer,) = (built for mesh, built in sorted(
            spaces.items(), key=lambda item: item[0].level) if mesh.level >= 5)
        assert finer.parent is space


class TestSpaceMatrices:
    def test_assembled_once_and_held(self, monkeypatch):
        # a fresh mesh, whose space holds no matrices from earlier tests
        space = mf.P1Space(mf.mesh_hierarchy("xz_square", 3)[3])
        calls = count_assemblies(monkeypatch)
        assert space.h1_gram is space.h1_gram and space.mass is space.mass
        assert calls == {("assemble_mass", 3): 1, ("assemble_diffusion", 3): 1}
        indptr, indices, _ = space.pattern
        for A in (space.mass, space.h1_gram):
            assert A.indptr is indptr and A.indices is indices
        stiffness = assembly.assemble_diffusion(space, 1.0)
        assert np.array_equal(space.h1_gram.data, space.mass.data + stiffness.data)

    def test_reference_ladder_assembles_reference_matrices_once(self, monkeypatch):
        # the level-6 reference space serves its solve and the six errors
        # measured against it: one mass matrix, and the stiffness of nu and
        # the unit stiffness of the H1 Gram matrix
        problem = mf.make_rough_density_problem(1.0, mf.huber_ball(1.0), 1.0)
        calls = count_assemblies(monkeypatch)
        mf.run_convergence_study(problem, "xz_square", range(2, 5), "xz")
        assert calls["assemble_mass", 6] == 1
        assert calls["assemble_diffusion", 6] == 2

    def test_verify_assembles_the_mass_once(self, tmp_path, monkeypatch, capsys):
        # the solve, the monotonicity check and the semismooth check share the
        # level-5 space
        path = tmp_path / "verify.cfg"
        path.write_text(f"mesh.level = 5\noutput.dir = {tmp_path}\n")
        calls = count_assemblies(monkeypatch)
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        assert calls["assemble_mass", 5] == 1

    def test_held_matrices_carry_no_solver_state(self, sine_problem, square_hierarchy):
        # a second solve on the same space, whose mass and Gram matrices the
        # first one assembled, repeats it bit for bit, V-cycle counts included
        mesh = square_hierarchy[6]
        space = mf.P1Space(mesh)
        tensor = mf.build_xz_tensor(mesh, 1.0)
        first, second = (mf.solve_mfg(space, sine_problem, tensor) for _ in range(2))
        assert np.array_equal(first.u.coeffs, second.u.coeffs)
        assert np.array_equal(first.m.coeffs, second.m.coeffs)
        assert first.history == second.history
        assert sum(h["gram_cycles"] for h in first.history) > 0


class TestProlongation:
    @pytest.mark.parametrize("family", ["xz_square", "acute_rhombus"])
    @pytest.mark.parametrize("level", [2, 3, 5])
    def test_galerkin_coarse_operators(self, family, level, square_spaces, rhombus_spaces):
        # nested conforming P1: the coarse basis functions are fine functions,
        # so P^T A_fine P is the coarse matrix of the same bilinear form
        spaces = square_spaces if family == "xz_square" else rhombus_spaces
        fine, coarse = spaces[level], spaces[level - 1]
        P = fine.prolongation
        assert P.shape == (fine.ndof, coarse.ndof)
        for assemble in (lambda s: assembly.assemble_diffusion(s, 1.0), assembly.assemble_mass):
            want = assemble(coarse).toarray()
            got = (P.T @ assemble(fine) @ P).toarray()
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_none_without_usable_parent(self, square_hierarchy):
        # the root has no parent; the level-0 square has no interior vertex
        assert mf.P1Space(square_hierarchy[0]).prolongation is None
        assert mf.P1Space(square_hierarchy[1]).prolongation is None
        assert mf.P1Space(square_hierarchy[2]).prolongation is not None

    def test_parent_space_is_cached(self, square_hierarchy):
        space = mf.P1Space(square_hierarchy[3])
        assert space.parent is space.parent
        assert space.parent.mesh is square_hierarchy[2]
        assert space.parent.parent.parent.parent is None


class TestInterpolation:
    def test_zero_field(self, square_spaces):
        fn = mf.interpolate(square_spaces[2], lambda x, y: np.zeros_like(x))
        assert np.all(fn.coeffs == 0.0)

    def test_parabola_center_value(self):
        space = mf.P1Space(mf.generate_structured_square(2))
        fn = mf.interpolate(space, lambda x, y: x * (1 - x))
        mesh = space.mesh
        center_vertex = int(np.argmin(((mesh.vertices - 0.5) ** 2).sum(axis=1)))
        assert fn.nodal_values()[center_vertex] == pytest.approx(0.25)

    def test_affine_reproduced_at_quadrature_points(self, square_spaces):
        # P1 reproduces affine functions: on elements away from the boundary the
        # interpolant of x matches x at every quadrature point
        space = square_spaces[3]
        fn = mf.interpolate(space, lambda x, y: x)
        rule = quadrature(3)
        x, _ = quadrature_xy(space.mesh, rule)
        vals = fn.values_at_quadrature(rule)
        interior_elems = np.all(space.elem_dofs >= 0, axis=1)
        assert np.allclose(vals[interior_elems], x[interior_elems], atol=1e-13)

    def test_non_finite_rejected(self, square_spaces):
        def blows_up(x, y):
            with np.errstate(divide="ignore", invalid="ignore"):
                return x / (y - y)

        with pytest.raises(NumericError):
            mf.interpolate(square_spaces[2], blows_up)


class TestEvalAndGradients:
    def test_zero_function_zero_gradient(self, square_spaces):
        fn = square_spaces[2].zero_function()
        assert np.all(fn.element_gradients() == 0.0)

    def test_gradient_of_coordinate_interpolant(self, square_spaces):
        space = square_spaces[3]
        fn = mf.interpolate(space, lambda x, y: x)
        grads = fn.element_gradients()
        interior_elems = np.all(space.elem_dofs >= 0, axis=1)
        assert np.allclose(grads[interior_elems], [1.0, 0.0], atol=1e-13)

    def test_reference_triangle_nodal_solve(self):
        # nodal values (0, 1, 0) on (0,0), (1,0), (0,1): the affine interpolation
        # system gives u = x, hence gradient (1, 0)
        space = reference_space()
        full = np.array([0.0, 1.0, 0.0])
        # no interior dofs on a single triangle; work through the nodal path
        vals = full[space.mesh.triangles[0]]
        grad = vals @ space.elem_grads[0]
        assert np.allclose(grad, [1.0, 0.0], atol=1e-15)

    def test_interpolation_identity_at_vertices(self, square_spaces):
        space = square_spaces[2]
        f = lambda x, y: np.sin(x) + y ** 2
        fn = mf.interpolate(space, f)
        xy = space.mesh.vertices[space.vertex_of_dof]
        assert np.allclose(fn.coeffs, f(xy[:, 0], xy[:, 1]), rtol=0, atol=0)

    def test_affine_gradient_exact(self, rhombus_spaces):
        space = rhombus_spaces[2]
        fn = mf.interpolate(space, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
        grads = fn.element_gradients()
        interior_elems = np.all(space.elem_dofs >= 0, axis=1)
        err = np.abs(grads[interior_elems] - np.array([2.0, -3.0]))
        assert err.max() < 1e-13 * 3.0


class TestQuadrature:
    def test_centroid_rule(self):
        rule = quadrature(1)
        assert len(rule.weights) == 1
        assert rule.weights[0] == 1.0
        assert np.allclose(rule.points, 1.0 / 3.0)

    def test_unsupported_degree(self):
        with pytest.raises(ConfigurationError):
            quadrature(7)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_weights_positive_and_normalized(self, degree):
        rule = quadrature(degree)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)

    def test_degree2_x_squared(self):
        # int over reference triangle of x^2 = 1/12
        rule = quadrature(2)
        x = rule.points[:, 1]  # barycentric coordinate of vertex (1, 0)
        val = 0.5 * np.sum(rule.weights * x ** 2)
        assert val == pytest.approx(1.0 / 12.0, rel=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_monomial_exactness(self, degree):
        rule = quadrature(degree)
        x = rule.points[:, 1]
        y = rule.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                approx = 0.5 * np.sum(rule.weights * x ** a * y ** b)
                assert approx == pytest.approx(exact_monomial_integral(a, b), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(coeffs=st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_affine_integrated_exactly_by_all_rules(self, coeffs):
        c0, c1, c2 = coeffs
        exact = 0.5 * c0 + c1 / 6.0 + c2 / 6.0
        for degree in (1, 2, 4, 6):
            rule = quadrature(degree)
            val = 0.5 * np.sum(rule.weights
                               * (c0 + c1 * rule.points[:, 1] + c2 * rule.points[:, 2]))
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_gradient_energy_rule_independent(self, square_spaces):
        # piecewise constant gradients: degree-1 and degree-4 give identical energy
        space = square_spaces[3]
        rng = np.random.default_rng(3)
        fn = mf.P1Function(space, rng.standard_normal(space.ndof))
        grads = fn.element_gradients()
        e1 = float(((grads ** 2).sum(axis=1) * space.elem_areas).sum())
        rule = quadrature(4)
        e4 = float(np.einsum("t,q->", (grads ** 2).sum(axis=1) * space.elem_areas,
                             rule.weights))
        assert e1 == pytest.approx(e4, rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_points_match_barycentric_einsum(self, degree, rhombus_spaces):
        # every range of elements gets the rows of the whole-mesh barycentric
        # contraction, bitwise, as contiguous arrays
        mesh = rhombus_spaces[4].mesh
        rule = quadrature(degree)
        whole = np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles])
        for start, stop in [(0, None), (0, 1), (37, 301), (500, None)]:
            x, y = quadrature_xy(mesh, rule, start, stop)
            assert x.flags.c_contiguous and y.flags.c_contiguous
            assert np.array_equal(x, whole[start:stop, :, 0])
            assert np.array_equal(y, whole[start:stop, :, 1])


class TestExport:
    def test_csv_includes_boundary(self, tmp_path, square_spaces):
        space = square_spaces[2]
        fn = mf.interpolate(space, lambda x, y: x * y)
        path = tmp_path / "fn.csv"
        mf.fespace.function_to_csv(fn, path, header_comment="config deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config deadbeef"
        assert lines[1] == "vertex_index,x,y,value"
        assert len(lines) == 2 + space.mesh.num_vertices
        # boundary vertices carry value 0
        for line in lines[2:]:
            idx, x, y, v = line.split(",")
            if space.mesh.boundary_vertex_flags[int(idx)]:
                assert float(v) == 0.0
