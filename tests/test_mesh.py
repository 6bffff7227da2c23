import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import cli
from mfgfem.errors import GeometryError, MeshFormatError

_COUNT = st.one_of(st.integers(0, 6), st.integers(-10 ** 15, 10 ** 15))
_COORD_LINE = st.one_of(
    st.tuples(st.floats(), st.floats()).map(lambda xy: f"{xy[0]!r} {xy[1]!r}"),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda xy: f"{xy[0]} {xy[1]}"),
    st.text(max_size=12),
)
_TRIANGLE_LINE = st.one_of(
    st.lists(st.integers(0, 5), min_size=3, max_size=3),
    st.lists(st.integers(-2, 2 ** 70), max_size=4),
).map(lambda idx: " ".join(map(str, idx))) | st.text(max_size=12)


@st.composite
def _mesh_text(draw):
    header = draw(st.sampled_from(["MFGMESH 1", "MFGMESH 2", ""]))
    vertex_lines = draw(st.lists(_COORD_LINE, max_size=6))
    triangle_lines = draw(st.lists(_TRIANGLE_LINE, max_size=6))
    lines = [header, f"vertices {draw(_COUNT)}", *vertex_lines,
             f"triangles {draw(_COUNT)}", *triangle_lines]
    return "\n".join(lines).encode()


MESH_FILES = st.one_of(_mesh_text(), st.binary(max_size=120))


def kite_mesh(apex_angle_deg=100.0):
    """Two isoceles triangles over the shared edge (0,0)-(1,0) with the given
    apex angle opposite that edge on both sides."""
    height = 0.5 / math.tan(math.radians(apex_angle_deg / 2.0))
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, height), (0.5, -height)]
    triangles = [(0, 1, 2), (0, 3, 1)]
    return mf.Mesh2D(vertices, triangles)


class TestGenerators:
    def test_minimal_square(self):
        mesh = mf.generate_structured_square(1)
        assert (mesh.num_triangles, mesh.num_vertices, mesh.num_edges) == (2, 4, 5)

    def test_two_by_two_square(self):
        # hand enumeration: 9 grid vertices, 8 triangles, 12 axis + 4 diagonal edges
        mesh = mf.generate_structured_square(2)
        assert (mesh.num_triangles, mesh.num_vertices, mesh.num_edges) == (8, 9, 16)

    def test_square_area_and_orientation(self):
        mesh = mf.generate_structured_square(3)
        assert np.all(mesh.areas > 0)
        assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rhombus_minimal(self):
        mesh = mf.generate_acute_rhombus(1)
        assert mesh.num_triangles == 2
        # both triangles equilateral with side 1
        lengths = mesh.edge_lengths
        assert np.allclose(lengths, 1.0)

    def test_rhombus_counts_and_areas(self):
        mesh = mf.generate_acute_rhombus(3)
        assert mesh.num_triangles == 18
        assert np.allclose(mesh.areas, math.sqrt(3.0) / 4.0 / 9.0)
        assert mesh.areas.sum() == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_bad_n(self):
        with pytest.raises(GeometryError):
            mf.generate_structured_square(0)


class TestValidation:
    def test_degenerate_triangle(self):
        with pytest.raises(GeometryError):
            mf.Mesh2D([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])

    def test_thin_triangle_rejected_whatever_its_scale(self):
        # area 1.4e-12 against squared longest edge 4: rejected, although its
        # area exceeds 1e-12, because its red children would be rejected
        with pytest.raises(GeometryError):
            mf.Mesh2D([(0.0, 0.0), (1.0, 1.4e-12), (-1.0, 1.4e-12)], [(0, 1, 2)])
        scaled = 1e-8 * np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert mf.Mesh2D(scaled, [(0, 1, 2)]).areas[0] == pytest.approx(5e-17)

    def test_non_conforming_edge(self):
        vertices = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
        triangles = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
        with pytest.raises(GeometryError):
            mf.Mesh2D(vertices, triangles)

    def test_index_out_of_range(self):
        with pytest.raises(GeometryError):
            mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 1, 7)])

    def test_clockwise_reoriented(self):
        mesh = mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
        assert mesh.areas[0] > 0

    def test_boundary_flags(self):
        mesh = mf.generate_structured_square(2)
        assert mesh.boundary_vertex_flags.sum() == 8
        assert mesh.interior_vertex_mask.sum() == 1

    @pytest.mark.parametrize("mesh,n_boundary", [
        (mf.generate_structured_square(3), 12),   # 4 sides x 3 segments
        (mf.generate_acute_rhombus(2), 8),        # 4 sides x 2 segments
    ])
    def test_edge_adjacency_counts(self, mesh, n_boundary):
        # every edge touches one triangle (boundary) or exactly two (interior)
        counts = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges)
        assert set(counts.tolist()) <= {1, 2}
        assert np.array_equal(counts == 1, mesh.boundary_edge_flags)
        assert mesh.boundary_edge_flags.sum() == n_boundary


    @pytest.mark.parametrize("family", ["square", "rhombus"])
    def test_edge_numbering_matches_loop_reference(self, family, request):
        # edges numbered in lexicographic order of their sorted vertex pairs,
        # local edge s opposite local vertex s
        mesh = request.getfixturevalue(f"{family}_hierarchy")[3]
        pairs = [tuple(sorted((tri[(s + 1) % 3], tri[(s + 2) % 3])))
                 for tri in mesh.triangles.tolist() for s in range(3)]
        edges = sorted(set(pairs))
        number = {edge: e for e, edge in enumerate(edges)}
        assert np.array_equal(mesh.edges, edges)
        assert np.array_equal(mesh.tri_edges.ravel(), [number[pair] for pair in pairs])


class TestXZCondition:
    def test_structured_square(self):
        ok, worst = mf.check_xz(mf.generate_structured_square(2))
        assert ok
        # diagonal edges carry two opposite right angles: cot sum exactly 0
        assert worst == pytest.approx(0.0, abs=1e-14)

    def test_single_triangle_vacuous(self):
        ok, worst = mf.check_xz(mf.Mesh2D([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]))
        assert ok
        assert worst == math.inf

    def test_obtuse_kite_fails(self):
        # two 100-degree angles opposite the shared edge: 2 cot(100 deg) = -0.35265
        ok, worst = mf.check_xz(kite_mesh(100.0))
        assert not ok
        assert worst == pytest.approx(2.0 / math.tan(math.radians(100.0)), rel=1e-12)
        assert worst == pytest.approx(-0.35265, abs=5e-5)

    def test_rhombus_satisfies_xz(self):
        ok, worst = mf.check_xz(mf.generate_acute_rhombus(2))
        assert ok
        # equilateral: cot 60 + cot 60 = 2/sqrt(3)
        assert worst == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


class TestAcuteness:
    def test_equilateral_theta(self):
        theta = mf.check_acute(mf.generate_acute_rhombus(2))
        assert theta == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_right_triangles_not_acute(self):
        assert mf.check_acute(mf.generate_structured_square(2)) == 0.0

    def test_obtuse_floor_at_zero(self):
        assert mf.check_acute(kite_mesh(100.0)) == 0.0

    def test_acute_implies_xz(self):
        for n in (1, 2, 4):
            mesh = mf.generate_acute_rhombus(n)
            assert mf.check_acute(mesh) > 0
            assert mf.check_xz(mesh)[0]


class TestRefinement:
    def test_counts_and_level(self):
        coarse = mf.generate_structured_square(1)
        fine = mf.refine_red(coarse)
        assert fine.num_triangles == 8
        assert fine.level == 1
        assert fine.parent is coarse

    def test_coarse_vertices_preserved(self):
        coarse = mf.generate_acute_rhombus(2)
        fine = mf.refine_red(coarse)
        assert np.array_equal(fine.vertices[:coarse.num_vertices], coarse.vertices)

    def test_h_halves(self):
        coarse = mf.generate_structured_square(2)
        fine = mf.refine_red(coarse)
        assert fine.h_max == pytest.approx(coarse.h_max / 2.0, rel=1e-14)

    def test_equilateral_children_equilateral(self):
        coarse = mf.generate_acute_rhombus(1)
        fine = mf.refine_red(coarse)
        assert mf.check_acute(fine) == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_xz_preserved_across_levels(self, square_hierarchy):
        for mesh in square_hierarchy[:5]:
            ok, worst = mf.check_xz(mesh)
            assert ok
            if mesh.level >= 1:
                assert worst == pytest.approx(0.0, abs=1e-12)

    def test_shape_regularity_constant(self, square_hierarchy, rhombus_hierarchy):
        # similarity classes are preserved, so the observed ratio is level-independent;
        # right triangles sit at 2 + 2 sqrt(2), equilaterals at 2 sqrt(3)
        for meshes, expected in ((square_hierarchy, 2.0 + 2.0 * math.sqrt(2.0)),
                                 (rhombus_hierarchy, 2.0 * math.sqrt(3.0))):
            for mesh in meshes[1:5]:
                assert mesh.shape_regularity == pytest.approx(expected, rel=1e-12)

    def test_thin_valid_triangle_refines_three_levels(self):
        # the area of a level-3 child is 5e-11 / 64, below an absolute 1e-12,
        # while its ratio to the squared longest edge stays that of the root
        mesh = mf.Mesh2D([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-10)], [(0, 1, 2)])
        for _ in range(3):
            mesh = mf.refine_red(mesh)
        assert mesh.num_triangles == 64
        assert mesh.areas.sum() == pytest.approx(5e-11, rel=1e-9)

    def test_area_preserved(self, rhombus_hierarchy):
        for mesh in rhombus_hierarchy[:5]:
            assert mesh.areas.sum() == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_refined_square_matches_structured(self):
        fine = mf.refine_red(mf.generate_structured_square(1))
        direct = mf.generate_structured_square(2)
        assert sorted(map(tuple, np.round(fine.vertices, 12))) == \
            sorted(map(tuple, np.round(direct.vertices, 12)))


class TestQualityReport:
    def test_square_report(self):
        report = mf.quality_report(mf.generate_structured_square(4))
        assert report.xz_satisfied
        assert report.acute_theta == 0.0
        assert report.h_max == pytest.approx(math.sqrt(2.0) / 4.0)

    def test_rhombus_report(self):
        report = mf.quality_report(mf.generate_acute_rhombus(4))
        assert report.xz_satisfied
        assert report.acute_theta == pytest.approx(math.pi / 6.0, abs=1e-12)
        # strict acuteness implies the XZ condition
        assert report.acute_theta > 0 and report.xz_satisfied


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        mesh = mf.generate_structured_square(3)
        path = tmp_path / "mesh.txt"
        mf.write_mesh(mesh, path)
        back = mf.read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_roundtrip_refined_rhombus(self, tmp_path):
        mesh = mf.refine_red(mf.generate_acute_rhombus(2))
        path = tmp_path / "mesh.txt"
        mf.write_mesh(mesh, path)
        back = mf.read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MFGMESH 1\nvertices 4\n0 0\n1 0\n1 1\n0 1\ntriangles 1\n0 1 99\n")
        with pytest.raises(MeshFormatError) as err:
            mf.read_mesh(path)
        assert "line 8" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MESH 2\n")
        with pytest.raises(MeshFormatError) as err:
            mf.read_mesh(path)
        assert "line 1" in str(err.value)

    def test_clockwise_file_reoriented(self, tmp_path):
        path = tmp_path / "cw.txt"
        path.write_text("MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 2 1\n")
        mesh = mf.read_mesh(path)
        assert mesh.areas[0] > 0

    def test_count_checked_before_allocation(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1000000000000\n")
        with pytest.raises(MeshFormatError) as err:
            mf.read_mesh(path)
        assert "line 6" in str(err.value)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=MESH_FILES)
    def test_fuzzed_file_reads_or_exits_2(self, tmp_path, data):
        # a file either reads as a mesh or raises MeshFormatError, which the
        # command line reports as exit 2
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        try:
            mesh = mf.read_mesh(path)
        except MeshFormatError:
            config = tmp_path / "run.cfg"
            config.write_text(f"mesh.family = file:{path}\nmesh.level = 0\n")
            assert cli.main(["check-mesh", str(config)]) == cli.EXIT_INPUT_ERROR
        else:
            assert isinstance(mesh, mf.Mesh2D)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("MFGMESH 1\nvertices 4\n0 0\n")
        with pytest.raises(MeshFormatError):
            mf.read_mesh(path)
