import time

import numpy as np
import pytest

import mfgfem as mf
from mfgfem import assembly
from mfgfem.mesh import ELEMENT_BLOCK
from mfgfem.solver import SolverConfig

# acceptance tests register one line per criterion here; printed at the end
ACCEPTANCE_RESULTS = []


def record_criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status}" + (f"  ({detail})" if detail else "")
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    return ok


def kfp_drift_oracle(space, drift):
    """Dense divergence-form drift C[i,j] = sum_K (b_K . grad xi_i) |K| / 3,
    one triangle and one entry at a time."""
    C = np.zeros((space.ndof, space.ndof))
    for t, dofs in enumerate(space.elem_dofs):
        for a, i in enumerate(dofs):
            if i < 0:
                continue
            weight = float(drift[t] @ space.elem_grads[t, a]) * space.elem_areas[t] / 3.0
            for j in dofs:
                if j >= 0:
                    C[i, j] += weight
    return C


def assemble_hjb_drift(space, drift, full=None):
    """Advection tested against nodal basis: B[i,j] = sum_K (b.grad xi_j) area/3,
    on the pattern of the space or on ``full``; its transpose is the
    divergence-form drift of the KFP equation.  ``assembly.linearization``
    forms K + B(b) bitwise ``pattern_sum(K, assemble_hjb_drift(space, b))``."""
    drift = np.asarray(drift, dtype=float)
    return assembly.scatter_columns(
        space, lambda blk: (np.einsum("td,tjd->tj", drift[blk], space.elem_grads[blk])
                            * (space.elem_areas[blk] / 3.0)[:, None]), full)


def track_factorizations(monkeypatch):
    """Patch ``assembly.factorize`` to record the size of every LU it makes,
    2n for the 2n ``CoupledJacobian``, with the operator and the LU; returns
    the list of ``(size, op, lu)`` it appends to."""
    made = []
    factorize = assembly.factorize

    def tracking(op, space=None):
        lu = factorize(op, space)
        jacobian = isinstance(op, assembly.CoupledJacobian)
        made.append((2 * op.L.shape[0] if jacobian else op.shape[0], op, lu))
        return lu

    monkeypatch.setattr(assembly, "factorize", tracking)
    return made


def drift_oracle(hamiltonian, u):
    """Element-wise drift dH/dp(grad u|_K), (nt, 2), over the whole mesh at once."""
    return np.asarray(hamiltonian.grad_p(u.element_gradients()), dtype=float)


def hamiltonian_load_oracle(space, hamiltonian, u):
    """Load of H[grad u] by the area/3 rule over the whole mesh at once: all
    gradients, H, then one scatter of the (nt, 3) loads in element order."""
    values = np.asarray(hamiltonian.value(u.element_gradients()), dtype=float)
    loads = (values * space.elem_areas / 3.0)[:, None] * np.ones(3)
    out = np.zeros(space.ndof + 1)
    np.add.at(out, space.elem_dofs.ravel(), loads.ravel())
    return out[:-1]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def square_hierarchy():
    return mf.mesh_hierarchy("xz_square", 6)


@pytest.fixture(scope="session")
def rhombus_hierarchy():
    return mf.mesh_hierarchy("acute_rhombus", 6)


@pytest.fixture(scope="session")
def square_spaces(square_hierarchy):
    return [mf.P1Space(mesh) for mesh in square_hierarchy]


@pytest.fixture(scope="session")
def rhombus_spaces(rhombus_hierarchy):
    return [mf.P1Space(mesh) for mesh in rhombus_hierarchy]


@pytest.fixture(scope="session")
def blocked_spaces(square_spaces, rhombus_spaces):
    """Spaces whose nt is below, equal to, not a multiple of, and a multiple of
    ELEMENT_BLOCK, the block size of the element loops."""
    spaces = [square_spaces[4], square_spaces[5],
              mf.P1Space(mf.generate_structured_square(33)), rhombus_spaces[6]]
    nts = [s.mesh.num_triangles for s in spaces]
    assert nts[0] < ELEMENT_BLOCK == nts[1] < nts[2] and nts[2] % ELEMENT_BLOCK
    assert nts[3] % ELEMENT_BLOCK == 0 and nts[3] > ELEMENT_BLOCK
    return spaces


@pytest.fixture(scope="session")
def sine_problem():
    """Default manufactured instance; its source claims no sign."""
    return mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0)


@pytest.fixture(scope="session")
def sine_problem_rhombus():
    return mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0, domain="acute_rhombus")


@pytest.fixture(scope="session")
def g_one_problem():
    return mf.make_g_one_problem(1.0, mf.huber_ball(1.0), 1.0)


@pytest.fixture(scope="session")
def xz_study(sine_problem):
    """Criterion 1 experiment: sine instance, XZ family, levels 2-6."""
    t0 = time.time()
    table = mf.run_convergence_study(sine_problem, "xz_square", range(2, 7), "xz")
    return table, time.time() - t0


@pytest.fixture(scope="session")
def xz_unstabilized_study(sine_problem):
    """Criterion 1b control: the criterion 1 experiment without stabilization."""
    return mf.run_convergence_study(sine_problem, "xz_square", range(2, 7), "none")


@pytest.fixture(scope="session")
def acute_study(sine_problem_rhombus):
    """Criterion 2 experiment: sine instance, acute family, levels 2-6."""
    table = mf.run_convergence_study(sine_problem_rhombus, "acute_rhombus",
                                     range(2, 7), "acute")
    return table


@pytest.fixture(scope="session")
def rough_study():
    """Criterion 4 experiment: rough density, reference two levels finer."""
    problem = mf.make_rough_density_problem(1.0, mf.huber_ball(1.0), 1.0)
    return mf.run_convergence_study(problem, "xz_square", range(2, 6), "xz",
                                    reference_offset=2)


@pytest.fixture(scope="session")
def g_one_solutions(g_one_problem, square_hierarchy, rhombus_hierarchy,
                    square_spaces, rhombus_spaces):
    """Criterion 3 data: G = 1 solved on both families, levels 2-6."""
    out = {}
    rhombus_problem = mf.make_g_one_problem(1.0, mf.huber_ball(1.0), 1.0,
                                            domain="acute_rhombus")
    for family, meshes, spaces, problem, kind in (
            ("xz_square", square_hierarchy, square_spaces, g_one_problem, "xz"),
            ("acute_rhombus", rhombus_hierarchy, rhombus_spaces, rhombus_problem, "acute")):
        sols = {}
        for level in range(2, 7):
            mesh = meshes[level]
            tensor = (mf.build_xz_tensor(mesh, 1.0) if kind == "xz"
                      else mf.build_acute_tensor(mesh, 1.0, 1.0))
            sols[level] = (mf.solve_mfg(spaces[level], problem, tensor), tensor)
        out[family] = (problem, sols)
    return out


@pytest.fixture(scope="session")
def g_one_tight_level4(g_one_problem, square_hierarchy, square_spaces):
    """Criterion 5 state: tightly solved G = 1 instance at level 4."""
    mesh = square_hierarchy[4]
    tensor = mf.build_xz_tensor(mesh, 1.0)
    cfg = SolverConfig(tol_outer=1e-12)
    solution = mf.solve_mfg(square_spaces[4], g_one_problem, tensor, cfg)
    return square_spaces[4], tensor, solution
