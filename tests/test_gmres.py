"""The GMRES of ``DiscreteSystem._gmres`` against a QR-based oracle, and its
breakdown on a singular least-squares triangle."""

import warnings

import numpy as np
import pytest

import mfgfem as mf
from mfgfem import assembly
from mfgfem.assembly import DiscreteSystem


def qr_gmres(op, precondition, rhs, x0):
    """The same GMRES with its least squares solved by a dense QR of the whole
    Hessenberg matrix in every iteration; returns (x or None, iterations)."""
    n, max_iter = rhs.size, assembly.KRYLOV_MAX
    x0 = np.zeros(n) if x0 is None else x0
    tol = assembly.KRYLOV_RTOL * np.linalg.norm(rhs)
    r0 = rhs - op @ x0
    beta = np.linalg.norm(r0)
    if beta <= tol:
        return x0, 0
    V = np.empty((max_iter + 1, n))
    H = np.zeros((max_iter + 1, max_iter))
    V[0] = r0 / beta
    for k in range(max_iter):
        w = V[k + 1]
        w[:] = op @ precondition(V[k])
        for j in range(k + 1):
            H[j, k] = V[j] @ w
            w -= H[j, k] * V[j]
        H[k + 1, k] = np.linalg.norm(w)
        q, R = np.linalg.qr(H[:k + 2, :k + 1], mode="complete")
        if beta * abs(q[0, k + 1]) <= tol or H[k + 1, k] == 0.0:
            y = np.linalg.solve(R[:k + 1], beta * q[0, :k + 1])
            x = x0 + precondition(y @ V[:k + 1])
            resid = np.linalg.norm(rhs - op @ x)
            ok = resid <= assembly.LINEAR_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs))
            return (x if ok else None), k + 1
        w /= H[k + 1, k]
    return None, max_iter


@pytest.mark.parametrize("make_problem", [
    lambda: mf.make_manufactured(1.0, mf.huber_ball(1.0), 1.0),
    lambda: mf.make_g_one_problem(0.1, mf.huber_ball(2.0), 5.0),
], ids=["sine", "hard_g_one"])
@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_matches_qr_oracle(make_problem, level, square_hierarchy, monkeypatch):
    # every KFP and Newton system of a solve: the same iterations, and the
    # same iterate to rounding
    problem = make_problem()
    mesh = square_hierarchy[level]
    tensor = mf.build_xz_tensor(mesh, problem.hamiltonian.L_H)
    gmres = DiscreteSystem._gmres
    calls = []

    def compared(self, op, precondition, rhs, x0):
        iters = self.krylov_iters
        x = gmres(self, op, precondition, rhs, x0)
        calls.append((rhs.size, self.krylov_iters - iters, x,
                      *qr_gmres(op, precondition, rhs, x0)))
        return x

    monkeypatch.setattr(DiscreteSystem, "_gmres", compared)
    space = mf.P1Space(mesh)
    mf.solve_mfg(space, problem, tensor)
    assert {size for size, *_ in calls} == {space.ndof, 2 * space.ndof}
    for _, iters, x, ref, ref_iters in calls:
        assert iters == ref_iters
        assert (x is None) is (ref is None)
        if x is not None:
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_no_dense_qr(sine_problem, square_hierarchy, monkeypatch):
    def raising(*args, **kwargs):
        raise AssertionError("numpy.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", raising)
    mesh = square_hierarchy[5]
    sol = mf.solve_mfg(mf.P1Space(mesh), sine_problem, mf.build_xz_tensor(mesh, 1.0))
    assert sum(h["krylov_iters"] for h in sol.history) > 0
    table = mf.run_convergence_study(sine_problem, "xz_square", range(2, 5), "xz")
    assert len(table.records) == 3


def test_singular_triangle_returns_none(g_one_problem, square_hierarchy):
    # a preconditioner that maps everything to zero gives a zero Hessenberg
    # column: its rotation has zero length, and _gmres gives up without a
    # division by zero; _solve then rebuilds the hierarchy and, GMRES failing
    # again, solves by the LU of the operator
    mesh = square_hierarchy[3]
    space = mf.P1Space(mesh)
    system = DiscreteSystem(space, g_one_problem, mf.build_xz_tensor(mesh, 1.0))
    u = space.zero_function()
    system.solve(u, system.g_load)
    L = system.linearize(u)
    held = system._multigrid
    iters = system.krylov_iters
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert system._gmres(L, lambda b: np.zeros_like(b), system.g_load, None) is None
        assert system.krylov_iters == iters + 1
        factorizations = system.factorizations
        x = system._solve(L, L, lambda b: np.zeros_like(b), system.g_load, None,
                          cycle_inverts=False)
    assert system.factorizations == factorizations + 2
    assert system._multigrid is not held
    assert assembly.checked(L, x, system.g_load) is x
