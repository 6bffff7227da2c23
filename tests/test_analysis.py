import math

import numpy as np
import pytest

import mfgfem as mf
from mfgfem import assembly
from mfgfem.analysis import (
    EOCTable,
    ErrorRecord,
    error_h1,
    error_l2,
    error_vs_reference,
    inject_to_descendant,
    quasi_optimality_ratio,
    stabilization_error_term,
    verify_dmp_at_solution,
)
from mfgfem.errors import ConfigurationError


def sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def sine_grad(x, y):
    return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                     np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)


class TestErrorNorms:
    def test_exactly_representable_function_has_zero_error(self, square_spaces):
        # the only affine function in the zero-trace space is 0; more generally,
        # any P1 function is reproduced exactly by its own nodal values, so the
        # errors against a matching piecewise description vanish
        space = square_spaces[2]
        zero = lambda x, y: np.zeros(np.shape(x))
        zero_grad = lambda x, y: np.zeros(np.shape(x) + (2,))
        fn = mf.P1Function(space, np.zeros(space.ndof))
        assert error_l2(fn, zero) < 1e-13
        assert error_h1(fn, zero, zero_grad) < 1e-13
        # hat-function check: exact = the hat itself, described per element
        hat = mf.P1Function(space, np.eye(space.ndof)[0])
        assert error_l2(hat, zero) == pytest.approx(
            math.sqrt(float(hat.coeffs @ (assembly.assemble_mass(space) @ hat.coeffs))),
            rel=1e-12)

    def test_l2_error_against_zero_is_mass_norm(self, square_spaces):
        space = square_spaces[3]
        rng = np.random.default_rng(0)
        fn = mf.P1Function(space, rng.standard_normal(space.ndof))
        M = assembly.assemble_mass(space)
        zero = lambda x, y: np.zeros(np.shape(x))
        assert error_l2(fn, zero) == pytest.approx(
            math.sqrt(float(fn.coeffs @ (M @ fn.coeffs))), rel=1e-12)

    def test_interpolation_eoc_calibration(self, square_spaces):
        # harness check before any MFG claim: P1 interpolants of the smooth sine
        # converge at order 2 in L2 and order 1 in H1
        errs_l2, errs_h1, hs = [], [], []
        for level in (3, 4, 5, 6):
            space = square_spaces[level]
            fn = mf.interpolate(space, sine)
            errs_l2.append(error_l2(fn, sine))
            errs_h1.append(error_h1(fn, sine, sine_grad))
            hs.append(space.mesh.h_max)
        eoc_l2 = math.log(errs_l2[-2] / errs_l2[-1]) / math.log(hs[-2] / hs[-1])
        eoc_h1 = math.log(errs_h1[-2] / errs_h1[-1]) / math.log(hs[-2] / hs[-1])
        assert abs(eoc_l2 - 2.0) <= 0.15
        assert abs(eoc_h1 - 1.0) <= 0.15

    def test_stab_term_zero_tensor(self, square_spaces):
        space = square_spaces[2]
        grads = np.ones((space.mesh.num_triangles, 2))
        assert stabilization_error_term(space, None, grads) == 0.0
        zero = mf.StabilizationTensor(np.zeros((space.mesh.num_triangles, 2, 2)))
        assert stabilization_error_term(space, zero, grads) == 0.0


class TestInjection:
    def test_identity_roundtrip(self, square_spaces):
        coarse = square_spaces[3]
        fine = square_spaces[4]
        fn = mf.interpolate(coarse, sine)
        l2, h1 = error_vs_reference(fn, inject_to_descendant(fn, fine))
        assert l2 < 1e-14 and h1 < 1e-14

    def test_preserves_coarse_nodal_values(self, square_spaces):
        coarse, fine = square_spaces[3], square_spaces[4]
        fn = mf.interpolate(coarse, lambda x, y: x * y * (1 - x))
        injected = inject_to_descendant(fn, fine)
        nv_coarse = coarse.mesh.num_vertices
        assert np.array_equal(injected.nodal_values()[:nv_coarse], fn.nodal_values())

    def test_preserves_h1_seminorm(self, square_spaces):
        # children refine the function without changing its gradients
        coarse, fine = square_spaces[2], square_spaces[4]
        rng = np.random.default_rng(1)
        fn = mf.P1Function(coarse, rng.standard_normal(coarse.ndof))
        injected = inject_to_descendant(fn, fine)
        K_c = assembly.assemble_diffusion(coarse, 1.0)
        K_f = assembly.assemble_diffusion(fine, 1.0)
        semi_c = float(fn.coeffs @ (K_c @ fn.coeffs))
        semi_f = float(injected.coeffs @ (K_f @ injected.coeffs))
        assert semi_f == pytest.approx(semi_c, rel=1e-13)

    @pytest.mark.parametrize("family", ["xz_square", "acute_rhombus"])
    def test_matches_midpoint_averages(self, family, square_spaces, rhombus_spaces):
        # the prolongation chain against the nested injection written out:
        # inherited vertices keep their values, each new midpoint takes the
        # average of its edge ends, with zero on the boundary; bit for bit
        spaces = square_spaces if family == "xz_square" else rhombus_spaces
        coarse, fine = spaces[2], spaces[5]
        fn = mf.P1Function(coarse, np.random.default_rng(3).standard_normal(coarse.ndof))
        values = fn.nodal_values()
        for refined in (space.mesh for space in spaces[3:6]):
            pairs = refined.parent.edges
            values = np.concatenate([values, 0.5 * (values[pairs[:, 0]] + values[pairs[:, 1]])])
        assert np.array_equal(inject_to_descendant(fn, fine).coeffs,
                              values[fine.vertex_of_dof])
        assert np.array_equal(fine.prolongation @ inject_to_descendant(fn, spaces[4]).coeffs,
                              inject_to_descendant(fn, fine).coeffs)

    def test_same_space_is_a_copy(self, square_spaces):
        fn = mf.interpolate(square_spaces[3], sine)
        injected = inject_to_descendant(fn, square_spaces[3])
        assert np.array_equal(injected.coeffs, fn.coeffs)
        assert injected.coeffs is not fn.coeffs

    def test_unrelated_meshes_rejected(self):
        a = mf.P1Space(mf.generate_structured_square(4))
        b = mf.P1Space(mf.generate_structured_square(8))
        fn = mf.P1Function(a, np.zeros(a.ndof))
        with pytest.raises(ConfigurationError):
            inject_to_descendant(fn, b)


class TestEOCTable:
    def make_table(self):
        table = EOCTable()
        for level, (h, e) in enumerate([(0.4, 0.1), (0.2, 0.05), (0.1, 0.0125)]):
            table.records.append(ErrorRecord(
                level=level, h_max=h, ndof=10, err_u_h1=e, err_m_h1=e,
                err_m_l2=e * e, err_u_l2=e * e, residual1_dual=0.0,
                residual2_dual=0.0, stab_term_u=h, stab_term_m=h, outer_iters=1))
        return table

    def test_eoc_values(self):
        table = self.make_table()
        assert math.isnan(table.eoc("err_u_h1", 0))
        assert table.eoc("err_u_h1", 1) == pytest.approx(1.0)
        assert table.eoc("err_u_h1", 2) == pytest.approx(2.0)
        assert table.finest_eoc("err_u_h1") == pytest.approx(2.0)
        assert table.eoc("stab_term_u", 1) == pytest.approx(1.0)

    def test_fitted_eoc(self):
        table = self.make_table()
        assert table.fitted_eoc("stab_term_u") == pytest.approx(1.0, abs=1e-12)

    def test_csv_schema(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "eoc.csv"
        table.to_csv(path, header_comment="config abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config abc123"
        assert lines[1].startswith("level,h,ndof,err_u_H1,eoc_u_H1,err_m_H1")
        assert len(lines) == 2 + 3


class TestStudies:
    def test_stab_terms_scale_like_h(self, xz_study):
        table, _ = xz_study
        assert 0.85 <= table.fitted_eoc("stab_term_u") <= 1.15
        assert 0.85 <= table.fitted_eoc("stab_term_m") <= 1.15

    def test_records_have_halving_h(self, xz_study):
        table, _ = xz_study
        hs = [r.h_max for r in table.records]
        for a, b in zip(hs, hs[1:]):
            assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_residuals_meet_tolerance(self, xz_study):
        table, _ = xz_study
        for r in table.records:
            assert max(r.residual1_dual, r.residual2_dual) <= 1e-9

    def test_unknown_family(self, sine_problem):
        with pytest.raises(ConfigurationError):
            mf.run_convergence_study(sine_problem, "hexagons", [2, 3], "xz")

    def test_repeated_level_rejected(self, sine_problem):
        # a repeated level was solved again and left every EOC of it nan
        with pytest.raises(ConfigurationError, match="repeated level"):
            mf.run_convergence_study(sine_problem, "xz_square", [3, 3, 3], "xz")

    def test_hierarchy_past_max_level_rejected(self, monkeypatch):
        # refused before the first refinement, which would raise here
        def no_refinement(mesh):
            raise AssertionError("refined before the level check")

        monkeypatch.setattr("mfgfem.analysis.refine_red", no_refinement)
        assert len(mf.mesh_hierarchy("xz_square", 0)) == 1
        with pytest.raises(ConfigurationError, match="MAX_LEVEL"):
            mf.mesh_hierarchy("xz_square", mf.mesh.MAX_LEVEL + 1)

    def test_negative_hierarchy_level_rejected(self):
        # range(-3) is empty, so the hierarchy was the root alone
        with pytest.raises(ConfigurationError, match="negative"):
            mf.mesh_hierarchy("xz_square", -3)

    def test_negative_study_level_rejected(self, sine_problem, monkeypatch):
        # meshes[-1] is the finest mesh: level -1 was solved on the level-3 one
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the level check")

        monkeypatch.setattr("mfgfem.analysis.solve_mfg", no_solve)
        with pytest.raises(ConfigurationError, match="negative level"):
            mf.run_convergence_study(sine_problem, "xz_square", [-1, 2, 3], "xz")


class TestVerdictHelpers:
    def test_dmp_gate_requires_certificate(self, sine_problem, square_spaces):
        # the sine instance's source is not certified: refuse to run
        space = square_spaces[2]
        tensor = mf.build_xz_tensor(space.mesh, 1.0)
        sol = mf.solve_mfg(space, sine_problem, tensor)
        with pytest.raises(ConfigurationError):
            verify_dmp_at_solution(sol, sine_problem)

    def test_dmp_on_certified_instance(self, g_one_solutions):
        problem, sols = g_one_solutions["xz_square"]
        for level, (sol, tensor) in sols.items():
            assert verify_dmp_at_solution(sol, problem)

    def test_quasi_optimality_bounded(self, sine_problem, square_hierarchy):
        ratios = []
        for level in (2, 3, 4):
            mesh = square_hierarchy[level]
            space = mf.P1Space(mesh)
            tensor = mf.build_xz_tensor(mesh, 1.0)
            sol = mf.solve_mfg(space, sine_problem, tensor)
            ratios.append(quasi_optimality_ratio(sol, sine_problem, space, tensor))
        assert all(np.isfinite(r) and 0 < r <= 50.0 for r in ratios)

    def test_quasi_optimality_zero_problem(self, square_spaces):
        problem = mf.make_zero_problem()
        sol = mf.solve_mfg(square_spaces[2], problem, None)
        assert quasi_optimality_ratio(sol, problem, square_spaces[2], None) == 0.0
