import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import assembly, cli, stabilization
from mfgfem.errors import ConfigurationError


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# inputs that once ended in a traceback (exit 1) instead of exit 2
MALFORMED_MESH_FILES = {
    "negative_triangle_count": b"MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles -1\n",
    "count_past_end_of_file": b"MFGMESH 1\nvertices 1000000000000\n0 0\n",
    "not_utf8": b"MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\xff\n",
    "index_past_int64": (b"MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n"
                         b"0 1 99999999999999999999\n"),
    "missing_file": None,
    "no_triangles": b"MFGMESH 1\nvertices 0\ntriangles 0\n",
    "folded_triangles": b"MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n0 2 1\n",
    "hanging_node": (b"MFGMESH 1\nvertices 5\n0 0\n1 0\n0 1\n1 1\n0.5 0.5\n"
                     b"triangles 3\n0 1 2\n1 3 4\n4 3 2\n"),
}
BAD_CONFIGS = {
    "negative_level": b"mesh.level = -1\n",
    "negative_level_in_list": b"mesh.levels = -1 0 1 2\n",
    "negative_range_start": b"mesh.levels = -1:2\n",
    "range_past_max_level": b"mesh.levels = 2:99999999999\n",
    "nan_nu": b"problem.nu = nan\n",
    "not_utf8": b"seed = 1\xfe\n",
    # non-finite numbers that once failed late (exit 1 or 3) or not at all (exit 0)
    "nan_mu": b"stabilization.mu = nan\n",
    "inf_omega_factor": b"stabilization.omega_factor = inf\n",
    "nan_c_F": b"problem.c_F = nan\n",
    "nan_R": b"hamiltonian.R = nan\n",
    "nan_epsilon": b"hamiltonian.kind = finite\nhamiltonian.epsilon = nan\n",
    "nan_drift": b"hamiltonian.kind = finite\nhamiltonian.epsilon = 0.1\nhamiltonian.drifts = 1 0; nan 0\n",
    "inf_cost": b"hamiltonian.kind = finite\nhamiltonian.epsilon = 0.1\nhamiltonian.costs = 0 -inf\n",
    "nan_tol_outer": b"solver.tol_outer = nan\n",
    # counts below 1 and negative seeds that once ended in a traceback (exit 1)
    # or ran a clamped or vacuous check (exit 0)
    "zero_gradient_samples": b"verify.gradient_samples = 0\n",
    "negative_gradient_samples": b"verify.gradient_samples = -3\n",
    "negative_seed": b"seed = -1\n",
    "zero_trials": b"verify.trials = 0\n",
    "negative_trials": b"verify.trials = -5\n",
    "zero_pairs": b"verify.pairs = 0\n",
}
# convergence inputs that once ran: a rough-instance reference at level 16
# (about 8.6e9 triangles) and a repeated level, solved again to nan EOCs (exit 1)
BAD_CONVERGENCE_CONFIGS = {
    "reference_past_max_level": (b"problem.kind = rough\nmesh.levels = 2 3 4\n"
                                 b"reference_offset = 12\n"),
    "repeated_levels": b"mesh.levels = 3 3 3\n",
}



def _mesh_text(vertices, triangles):
    lines = ["MFGMESH 1", f"vertices {len(vertices)}"]
    lines += [f"{x!r} {y!r}" for x, y in vertices]
    lines += [f"triangles {len(triangles)}"] + [f"{a} {b} {c}" for a, b, c in triangles]
    return "\n".join(lines) + "\n"


_COORD = st.floats(-2.0, 2.0)


@st.composite
def odd_meshes(draw):
    """MFGMESH text of a geometrically odd mesh: a single triangle, a fan of
    3-8 triangles around one interior vertex, or a strip of triangles with no
    interior vertex.  Some are degenerate or violate the XZ condition."""
    kind = draw(st.sampled_from(["single", "fan", "strip"]))
    if kind == "single":
        return _mesh_text([(draw(_COORD), draw(_COORD)) for _ in range(3)], [(0, 1, 2)])
    if kind == "fan":
        k = draw(st.integers(3, 8))
        angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k)))
        radii = draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k))
        rim = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
        return _mesh_text([(0.0, 0.0)] + rim,
                          [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)])
    n = draw(st.integers(2, 5))
    jitter = st.floats(-0.3, 0.3)
    top = [(i + draw(jitter), 1.0 + draw(jitter)) for i in range(n)]
    bottom = [(i + draw(jitter), draw(jitter)) for i in range(n)]
    triangles = []
    for i in range(n - 1):
        triangles += [(i, n + i, n + i + 1), (i, n + i + 1, i + 1)]
    return _mesh_text(top + bottom, triangles)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


_VALUE = st.one_of(
    st.text(max_size=20),
    st.integers(-10 ** 15, 10 ** 15).map(str),
    st.tuples(st.integers(-10 ** 15, 10 ** 15), st.integers(-10 ** 15, 10 ** 15)).map(
        lambda lohi: f"{lohi[0]}:{lohi[1]}"),
    st.floats().map(repr),
)
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(sorted(cli._KEYS)), _VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
)
CONFIG_FILES = st.one_of(
    st.lists(_CONFIG_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=120),
)


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        path = write_config(tmp_path, """
            # comment line
            mesh.family = acute_rhombus
            mesh.level = 3
            mesh.levels = 2:4
            solver.max_newton = 12
            hamiltonian.R = 2.0
            seed = 7
        """)
        config = cli.parse_config(path)
        assert config.mesh_family == "acute_rhombus"
        assert config.mesh_level == 3
        assert config.mesh_levels == (2, 3, 4)
        assert config.max_newton == 12
        assert config.hamiltonian_R == 2.0
        assert config.seed == 7
        assert config.nu == 1.0  # untouched default

    def test_comma_levels_and_vectors(self, tmp_path):
        path = write_config(tmp_path, """
            mesh.levels = 2, 3, 5
            hamiltonian.kind = finite
            hamiltonian.drifts = 1 0; -1 0; 0 1
            hamiltonian.costs = 0, 0.1, 0.2
            hamiltonian.epsilon = 0.05
        """)
        config = cli.parse_config(path)
        assert config.mesh_levels == (2, 3, 5)
        assert config.hamiltonian_drifts == ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
        assert config.hamiltonian_costs == (0.0, 0.1, 0.2)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "mesh.resolution = 4\n")
        with pytest.raises(ConfigurationError):
            cli.parse_config(path)

    @pytest.mark.parametrize("key", ["solver.damping", "solver.tol_newton",
                                     "solver.max_outer"])
    def test_removed_solver_key_exits_2(self, tmp_path, capsys, key):
        # keys of the fixed-point iteration the coupled Newton solve replaced
        # are unknown, not silently ignored
        path = write_config(tmp_path, f"{key} = 1\n")
        assert cli.main(["solve", path]) == cli.EXIT_INPUT_ERROR
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "mesh.level = four\n")
        with pytest.raises(ConfigurationError):
            cli.parse_config(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=CONFIG_FILES)
    def test_fuzzed_config_parses_or_exits_2(self, tmp_path, data):
        # malformed input raises ConfigurationError only, which main reports as
        # exit 2 before any command runs
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        try:
            cli.parse_config(str(path))
        except ConfigurationError:
            assert cli.main(["solve", str(path)]) == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_input_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_bytes(text + f"output.dir = {tmp_path / 'out'}\n".encode())
        assert cli.main(["solve", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", BAD_CONVERGENCE_CONFIGS.values(),
                             ids=BAD_CONVERGENCE_CONFIGS.keys())
    def test_bad_convergence_input_exits_2(self, tmp_path, capsys, monkeypatch, text):
        # rejected before any refinement: a refinement raises here at once
        # instead of building meshes toward the reference level
        def no_refinement(mesh):
            raise AssertionError("refined before the input check")

        monkeypatch.setattr("mfgfem.mesh.refine_red", no_refinement)
        monkeypatch.setattr("mfgfem.analysis.refine_red", no_refinement)
        path = tmp_path / "run.cfg"
        path.write_bytes(text + f"output.dir = {tmp_path / 'out'}\n".encode())
        assert cli.main(["convergence", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_hash_stable(self, tmp_path):
        a = cli.parse_config(write_config(tmp_path, "seed = 1\n", "a.cfg"))
        b = cli.parse_config(write_config(tmp_path, "seed = 1\n", "b.cfg"))
        assert cli.config_hash(a) == cli.config_hash(b)
        c = cli.parse_config(write_config(tmp_path, "seed = 2\n", "c.cfg"))
        assert cli.config_hash(a) != cli.config_hash(c)

    def test_stabilization_none_needs_override(self, tmp_path):
        config = cli.parse_config(write_config(tmp_path, "stabilization = none\n"))
        with pytest.raises(ConfigurationError):
            cli.resolve_stabilization(config)
        config.allow_unstabilized = True
        assert cli.resolve_stabilization(config) == "none"


class TestCheckMesh:
    def test_xz_square_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, "mesh.family = xz_square\nmesh.level = 3\n")
        code = cli.main(["check-mesh", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["xz_satisfied"] is True
        assert payload["stabilization"] == "xz"

    def test_rhombus_acute_theta(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "mesh.family = acute_rhombus\nmesh.level = 3\n")
        code = cli.main(["check-mesh", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["acute_theta"] == pytest.approx(0.5236, abs=1e-4)

    def test_square_with_acute_request_fails(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "mesh.family = xz_square\nstabilization = acute\n")
        code = cli.main(["check-mesh", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_VERIFY_FAILED
        assert payload["acute_theta"] == 0.0

    def test_file_mesh(self, tmp_path, capsys):
        mesh_path = tmp_path / "mesh.txt"
        mf.write_mesh(mf.generate_acute_rhombus(2), mesh_path)
        path = write_config(tmp_path, f"mesh.family = file:{mesh_path}\nmesh.level = 0\n")
        code = cli.main(["check-mesh", path])
        payload = json.loads(capsys.readouterr().out)
        assert code == cli.EXIT_OK
        assert payload["num_triangles"] == 8

    def test_bad_mesh_file_exit_2(self, tmp_path, capsys):
        mesh_path = tmp_path / "bad.txt"
        mesh_path.write_text("MFGMESH 1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 9\n")
        path = write_config(tmp_path, f"mesh.family = file:{mesh_path}\n")
        assert cli.main(["check-mesh", path]) == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("content", MALFORMED_MESH_FILES.values(),
                             ids=MALFORMED_MESH_FILES.keys())
    def test_malformed_mesh_file_exit_2(self, tmp_path, capsys, content):
        mesh_path = tmp_path / "bad.txt"
        if content is not None:
            mesh_path.write_bytes(content)
        path = write_config(tmp_path, f"mesh.family = file:{mesh_path}\n"
                            f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["check-mesh", path]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert cli.main(["solve", path]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=odd_meshes(), level=st.integers(0, 1),
           kind=st.sampled_from(["manufactured", "g_one"]))
    # a triangle that read, with area above 1e-12, and whose red children did not
    @example(text=_mesh_text([(0.0, 0.0), (1.0, 1.4001795630621356e-12),
                              (-1.0, 1.4001795630621356e-12)], [(0, 1, 2)]),
             level=1, kind="manufactured")
    def test_odd_mesh_check_and_solve_exit_cleanly(self, tmp_path, capsys, text, level,
                                                   kind):
        # a mesh that reads may still be degenerate, violate the XZ condition
        # or have no interior vertex: check-mesh reports its condition (exit 1
        # when it fails) or rejects it, and solve solves it or rejects it;
        # neither ends in a traceback
        mesh_path = tmp_path / "odd.txt"
        mesh_path.write_text(text)
        path = write_config(tmp_path, f"mesh.family = file:{mesh_path}\n"
                            f"mesh.level = {level}\nproblem.kind = {kind}\n"
                            f"output.dir = {tmp_path / 'out'}\n")
        capsys.readouterr()
        code = cli.main(["check-mesh", path])
        out = capsys.readouterr().out
        if code == cli.EXIT_INPUT_ERROR:
            assert out == ""
        else:
            payload = json.loads(out, parse_constant=_reject_constant)
            assert code == (cli.EXIT_OK if payload["condition_ok"] else cli.EXIT_VERIFY_FAILED)
        assert cli.main(["solve", path]) in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR)

    def test_missing_config_exit_2(self):
        assert cli.main(["check-mesh", "/nonexistent/run.cfg"]) == cli.EXIT_INPUT_ERROR


class TestSolve:
    def test_zero_problem_writes_zero_solutions(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = zero
            mesh.level = 3
            output.dir = {out}
        """)
        assert cli.main(["solve", path]) == cli.EXIT_OK
        for name in ("solution_u.csv", "solution_m.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("# config ")
            values = [float(line.split(",")[3]) for line in lines[2:]]
            assert max(abs(v) for v in values) == 0.0
        telemetry = json.loads((out / "telemetry.json").read_text())
        assert telemetry["converged"] is True
        assert telemetry["outer_iters"] == 1

    def test_overflowing_smoothing_rejected(self, tmp_path, capsys):
        # epsilon so small that L_Hp is inf: non-smooth, so Newton refuses it
        path = write_config(tmp_path, f"""
            problem.kind = g_one
            mesh.level = 3
            hamiltonian.kind = finite
            hamiltonian.epsilon = 1e-310
            output.dir = {tmp_path / "out"}
        """)
        assert cli.main(["solve", path]) == cli.EXIT_INPUT_ERROR
        assert "smooth Hamiltonian" in capsys.readouterr().err

    def test_sine_level3_converges(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = manufactured
            mesh.level = 3
            output.dir = {out}
        """)
        assert cli.main(["solve", path]) == cli.EXIT_OK
        telemetry = json.loads((out / "telemetry.json").read_text())
        assert telemetry["residual1_dual"] <= 1e-9
        assert telemetry["residual2_dual"] <= 1e-9

    def test_forced_nonconvergence_exit_3(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = manufactured
            mesh.level = 3
            solver.max_newton = 1
            output.dir = {out}
        """)
        assert cli.main(["solve", path]) == cli.EXIT_NONCONVERGENCE
        telemetry = json.loads((out / "telemetry.json").read_text())
        assert telemetry["converged"] is False
        assert len(telemetry["history"]) == 1

    @pytest.mark.parametrize("family", ["xz_square", "acute_rhombus"])
    def test_mesh_without_interior_dofs_exit_2(self, tmp_path, family):
        path = write_config(tmp_path, f"""
            mesh.family = {family}
            mesh.level = 0
            output.dir = {tmp_path / "out"}
        """)
        assert cli.main(["solve", path]) == cli.EXIT_INPUT_ERROR

    def test_bit_identical_reruns(self, tmp_path):
        # identical config (including output.dir) and seed: byte-identical files
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = manufactured
            mesh.level = 3
            output.dir = {out}
        """)
        names = ("solution_u.csv", "solution_m.csv", "telemetry.json")
        blobs = []
        for _ in range(2):
            assert cli.main(["solve", path]) == cli.EXIT_OK
            blobs.append(b"".join((out / name).read_bytes() for name in names))
        assert blobs[0] == blobs[1]

    def test_gram_cycles_recorded_and_rerun_identical(self, tmp_path):
        # above COARSE_DOFS the dual norms run V-cycles; their per-step count
        # is telemetry and reruns byte-identically
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = manufactured
            mesh.level = 6
            output.dir = {out}
        """)
        blobs = []
        for _ in range(2):
            assert cli.main(["solve", path]) == cli.EXIT_OK
            blobs.append((out / "telemetry.json").read_bytes())
        assert blobs[0] == blobs[1]
        history = json.loads(blobs[0])["history"]
        # measured to KRYLOV_RTOL, the dual norms of this solve took 77
        # V-cycles; refined only as far as their decisions, at most half
        assert 0 < sum(entry["gram_cycles"] for entry in history) <= 77 // 2


class TestConvergence:
    def test_two_levels_rejected(self, tmp_path):
        path = write_config(tmp_path, "mesh.levels = 2:3\n")
        assert cli.main(["convergence", path]) == cli.EXIT_INPUT_ERROR

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_reference_not_finer_rejected(self, tmp_path, offset):
        # the rough instance has no exact pair: its reference must be finer
        path = write_config(tmp_path, f"""
            problem.kind = rough
            mesh.levels = 2 3 4
            reference_offset = {offset}
            output.dir = {tmp_path / "out"}
        """)
        assert cli.main(["convergence", path]) == cli.EXIT_INPUT_ERROR

    def test_level_without_interior_dofs_rejected(self, tmp_path):
        path = write_config(tmp_path, f"""
            mesh.levels = 0 1 2
            output.dir = {tmp_path / "out"}
        """)
        assert cli.main(["convergence", path]) == cli.EXIT_INPUT_ERROR

    def test_nonconvergence_exit_3_without_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            mesh.levels = 2:4
            solver.max_newton = 1
            output.dir = {out}
        """)
        assert cli.main(["convergence", path]) == cli.EXIT_NONCONVERGENCE
        assert "solver did not converge" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_acute_family_all_verdicts_pass(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            mesh.family = acute_rhombus
            mesh.levels = 2:4
            output.dir = {out}
        """)
        assert cli.main(["convergence", path]) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"] is True
        assert (out / "eoc.csv").read_text().startswith("# config ")

    def test_xz_family_documents_l2_defect(self, tmp_path):
        # the edge tensor never vanishes and perturbs the diffusion by O(h), so
        # with it active the L2 verdicts carry the first-order window
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            mesh.family = xz_square
            mesh.levels = 2:5
            output.dir = {out}
        """)
        code = cli.main(["convergence", path])
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["eoc_u_H1"]["pass"] is True
        assert report["verdicts"]["eoc_m_H1"]["pass"] is True
        for label in ("eoc_u_L2", "eoc_m_L2"):
            assert report["verdicts"][label]["window"] == [0.85, 1.15]
            assert report["verdicts"][label]["pass"] is True
        assert report["all_pass"] is True
        assert code == cli.EXIT_OK

    def test_xz_family_unstabilized_second_order_l2(self, tmp_path):
        # the L2 window follows the tensor, not the family: the same meshes
        # without stabilization are held to second order
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            mesh.family = xz_square
            mesh.levels = 2:5
            stabilization = none
            allow_unstabilized = true
            output.dir = {out}
        """)
        code = cli.main(["convergence", path])
        report = json.loads((out / "report.json").read_text())
        for label in ("eoc_u_L2", "eoc_m_L2"):
            assert report["verdicts"][label]["window"] == [1.7, 2.3]
            assert report["verdicts"][label]["pass"] is True
        assert report["all_pass"] is True
        assert code == cli.EXIT_OK

    def test_rough_instance_verdicts(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, f"""
            problem.kind = rough
            mesh.levels = 2:4
            reference_offset = 2
            output.dir = {out}
        """)
        assert cli.main(["convergence", path]) == cli.EXIT_OK
        # strict JSON: the open window end and the first level's EOCs are strings
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert set(report["verdicts"]) == {"eoc_u_H1", "eoc_m_L2", "eoc_m_H1_below_u"}
        assert report["verdicts"]["eoc_m_H1_below_u"]["window"] == [0.2, "inf"]
        assert report["records"][0]["eoc_u_H1"] == "nan"
        assert report["all_pass"] is True


class TestVerify:
    def make_config(self, tmp_path, out, seed=0, extra=""):
        return write_config(tmp_path, f"""
            mesh.level = 3
            verify.trials = 40
            verify.pairs = 10
            verify.gradient_samples = 400
            seed = {seed}
            output.dir = {out}
            {extra}
        """, name=f"verify_{seed}.cfg")

    def test_default_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.make_config(tmp_path, out)
        assert cli.main(["verify", path]) == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"] is True
        assert set(report["results"]) >= {"h1_tensor", "h2_dmp", "l2_monotonicity",
                                          "dmp_at_solution", "gradient_check"}

    def test_seed_does_not_change_verdicts(self, tmp_path, capsys):
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"out{seed}"
            path = self.make_config(tmp_path, out, seed=seed)
            assert cli.main(["verify", path]) == cli.EXIT_OK
            outs.append(json.loads((out / "report.json").read_text()))
        assert outs[0]["all_pass"] == outs[1]["all_pass"] is True

    def test_certified_dmp_is_cross_checked(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["verify", self.make_config(tmp_path, out)]) == cli.EXIT_OK
        entry = json.loads((out / "report.json").read_text())["results"]["h2_dmp"]
        assert entry["pass"] is True
        assert entry["certified"] is True
        assert entry["margin"] < 0.0
        assert entry["trials"] == min(40, stabilization.DMP_CROSS_CHECK_TRIALS)

    def test_uncertified_dmp_is_sampled_in_full(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.make_config(tmp_path, out, extra="""
            stabilization = none
            allow_unstabilized = true
        """)
        cli.main(["verify", path])
        entry = json.loads((out / "report.json").read_text())["results"]["h2_dmp"]
        assert entry["pass"] is True
        assert entry["certified"] is False
        assert entry["margin"] == pytest.approx(1.0 / 24.0, rel=1e-12)
        assert entry["trials"] == 40

    def test_nonsmooth_hamiltonian_rejected_before_any_factorization(
            self, tmp_path, monkeypatch, capsys):
        factorize = assembly.factorize
        calls = []
        monkeypatch.setattr(assembly, "factorize",
                            lambda op, space=None: calls.append(op) or factorize(op, space))
        out = tmp_path / "out"
        path = self.make_config(tmp_path, out, extra="""
            problem.kind = g_one
            hamiltonian.kind = finite
        """)
        assert cli.main(["verify", path]) == cli.EXIT_INPUT_ERROR
        assert "smooth Hamiltonian" in capsys.readouterr().err
        assert calls == []
        assert not (out / "report.json").exists()

    def test_newton_nonconvergence_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.make_config(tmp_path, out, extra="solver.max_newton = 1")
        assert cli.main(["verify", path]) == cli.EXIT_NONCONVERGENCE
        assert "solver did not converge" in capsys.readouterr().err

    def test_bad_omega_factor_rejected_before_suites(self, tmp_path):
        path = write_config(tmp_path, """
            mesh.level = 3
            stabilization.omega_factor = 0.1
        """)
        assert cli.main(["verify", path]) == cli.EXIT_INPUT_ERROR
