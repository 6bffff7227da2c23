import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgfem as mf
from mfgfem import assembly
from mfgfem.errors import ConfigurationError
from mfgfem.hamiltonian import (
    _logsumexp,
    _softmax,
    check_gradient,
    check_semismooth_bound,
    linearization_remainder,
)


class TestHuberBall:
    def test_quadratic_branch(self):
        spec = mf.huber_ball(1.0)
        assert spec.value([0.5, 0.0]) == pytest.approx(0.125)
        assert np.allclose(spec.grad_p([0.5, 0.0]), [0.5, 0.0])

    def test_linear_branch(self):
        spec = mf.huber_ball(1.0)
        assert spec.value([2.0, 0.0]) == pytest.approx(1.5)
        assert np.allclose(spec.grad_p([2.0, 0.0]), [1.0, 0.0])

    def test_branches_match_at_radius(self):
        spec = mf.huber_ball(1.0)
        assert spec.value([1.0, 0.0]) == pytest.approx(0.5)
        assert np.allclose(spec.grad_p([1.0, 0.0]), [1.0, 0.0])

    def test_constants(self):
        spec = mf.huber_ball(3.0)
        assert spec.L_H == 3.0
        assert spec.L_Hp == 1.0
        assert spec.C_H == max(3.0, 4.5)
        assert spec.smooth

    def test_gradient_at_origin(self):
        spec = mf.huber_ball(1.0)
        assert np.allclose(spec.grad_p([0.0, 0.0]), [0.0, 0.0])

    def test_zero_gradient_does_not_overflow_for_large_radius(self):
        # every element's gradient is zero at u = 0, the first iterate of a solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = mf.huber_ball(4.0).grad_p(np.zeros((3, 2)))
        assert np.array_equal(grads, np.zeros((3, 2)))

    @settings(max_examples=200, deadline=None)
    @given(px=st.floats(-10, 10), py=st.floats(-10, 10),
           qx=st.floats(-10, 10), qy=st.floats(-10, 10),
           R=st.floats(0.1, 5.0))
    def test_convexity_and_lipschitz(self, px, py, qx, qy, R):
        spec = mf.huber_ball(R)
        p = np.array([px, py])
        q = np.array([qx, qy])
        mid = spec.value(0.5 * (p + q))
        assert mid <= 0.5 * (spec.value(p) + spec.value(q)) + 1e-12
        assert abs(spec.value(p) - spec.value(q)) <= \
            spec.L_H * np.linalg.norm(p - q) + 1e-12

    def test_legendre_identity_on_quadratic_branch(self):
        # H(p) - p.grad + |grad|^2/2 = 0 inside the control disk
        spec = mf.huber_ball(2.0)
        rng = np.random.default_rng(0)
        p = rng.uniform(-1.2, 1.2, size=(500, 2))  # |p| < 2
        g = spec.grad_p(p)
        residual = spec.value(p) - np.einsum("sd,sd->s", p, g) \
            + 0.5 * np.einsum("sd,sd->s", g, g)
        assert np.abs(residual).max() < 1e-12

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0])
    def test_bitwise_the_linalg_norm_forms(self, R):
        # |p| = sqrt(p0 p0 + p1 p1) and the Hessian built entry by entry are
        # bitwise the forms written with np.linalg.norm(p, axis=-1) and
        # np.eye(2) - q q^T, signed zeros included, on samples that hold
        # p = 0 and |p| = R, in the shapes of a mesh and of a batch of meshes
        rng = np.random.default_rng(int(4 * R))
        p = 3.0 * R * rng.standard_normal((25000, 2))
        p[:100] = 0.0
        angle = rng.uniform(0.0, 2.0 * math.pi, 100)
        p[100:200] = R * np.column_stack([np.cos(angle), np.sin(angle)])
        p[200:300] = np.column_stack([np.zeros(100), rng.choice([-R, R], 100)])
        spec = mf.huber_ball(R)
        for sample in (p, p.reshape(-1, 5, 2)):
            r = np.linalg.norm(sample, axis=-1)
            assert np.array_equal(assembly.norms2(sample), r)
            reach = np.maximum(r, R)
            q = (r > R)[..., None] * sample / reach[..., None]
            oracles = (np.where(r <= R, 0.5 * r ** 2, R * r - 0.5 * R ** 2),
                       (R / reach)[..., None] * sample,
                       (R / reach)[..., None, None]
                       * (np.eye(2) - q[..., :, None] * q[..., None, :]))
            for got, oracle in zip((spec.value(sample), spec.grad_p(sample),
                                    spec.hess_p(sample)), oracles):
                assert got.shape == oracle.shape
                assert np.array_equal(got, oracle)
                assert np.array_equal(np.signbit(got), np.signbit(oracle))


class TestFiniteControl:
    def test_two_sided_max_is_absolute_value(self):
        spec = mf.finite_control([(1, 0), (-1, 0)], [0.0, 0.0])
        p = np.array([[0.7, 0.3], [-0.2, 1.0], [0.0, 0.0]])
        assert np.allclose(spec.value(p), np.abs(p[:, 0]))

    def test_tie_break_lowest_index(self):
        spec = mf.finite_control([(1, 0), (-1, 0)], [0.0, 0.0])
        grad = spec.grad_p([0.0, 0.0])
        assert np.allclose(grad, [1.0, 0.0])

    def test_single_control_exact_for_any_smoothing(self):
        for eps in (0.0, 0.1, 1.0):
            spec = mf.finite_control([(0.3, -0.4)], [0.25], smoothing=eps)
            p = np.array([1.0, 2.0])
            assert spec.value(p) == pytest.approx(0.3 - 0.8 - 0.25, abs=1e-14)
            assert np.allclose(spec.grad_p(p), [0.3, -0.4], atol=1e-14)

    def test_nonsmooth_flagging(self):
        spec = mf.finite_control([(1, 0), (-1, 0)], [0.0, 0.0])
        assert not spec.smooth
        assert spec.L_Hp == math.inf

    def test_overflowing_smoothing_is_not_smooth(self):
        # L_Hp = 2 max|b|^2 / eps overflows, and so does the log-sum-exp
        spec = mf.finite_control([(1, 0), (-1, 0)], [0.0, 0.0], smoothing=1e-310)
        assert spec.L_Hp == math.inf
        assert spec.smooth is False

    def test_smoothed_constants(self):
        spec = mf.finite_control([(1, 0), (0, 2)], [0.0, 0.5], smoothing=0.2)
        assert spec.smooth
        assert spec.L_H == 2.0
        assert spec.L_Hp == pytest.approx(2.0 * 4.0 / 0.2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mf.finite_control([], [])

    def test_log_sum_exp_and_softmax_match_scipy(self):
        # computed in numpy in scipy.special's form, so bitwise equal to it:
        # one to many controls, tied maxima, narrow and wide score ranges
        from scipy.special import logsumexp, softmax
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 8):
            for scale in (1e-3, 1.0, 1e3):
                a = rng.standard_normal((2000, k)) * scale
                a[::5, 0] = a[::5, -1]
                a[::7] = np.round(a[::7])
                assert np.array_equal(_logsumexp(a), logsumexp(a, axis=-1))
                assert np.array_equal(_softmax(a), softmax(a, axis=-1))

    def test_import_leaves_scipy_special_unloaded(self):
        src = os.path.dirname(os.path.dirname(mf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, mfgfem; print('scipy.special' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_tiny_drift_bound_does_not_underflow(self, square_spaces):
        # squaring 3e-163 underflows to 0; the bound must still be max |b_a|,
        # so the drift assembly measuring the same field does not warn
        spec = mf.finite_control([(3e-163, 0), (0, -1e-163)], [0, 0.5], smoothing=0.5)
        assert spec.L_H == 3e-163
        space = square_spaces[3]
        u = mf.P1Function(space, np.random.default_rng(7).standard_normal(space.ndof))
        drift = spec.grad_p(u.element_gradients())
        K = assembly.assemble_diffusion(space, 1.0)
        _, worst = assembly.linearization(space, K, lambda blk: drift[blk])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assembly.drift_excess(worst, spec.L_H) == 0.0


@pytest.mark.parametrize("spec", [
    mf.huber_ball(1.0),
    mf.finite_control([(1, 0), (0, -1)], [0.0, 0.3]),
    mf.finite_control([(1, 0), (0, -1)], [0.0, 0.3], smoothing=0.1),
], ids=["huber", "max", "lse"])
def test_callables_take_the_gradient_alone(spec):
    # H(p) and dH/dp(p) of one (..., 2) array, element by element
    p = np.random.default_rng(4).standard_normal((4, 3, 2))
    values, grads = spec.value(p), spec.grad_p(p)
    assert values.shape == (4, 3)
    assert grads.shape == (4, 3, 2)
    assert values[1, 2] == pytest.approx(spec.value(p[1, 2]), rel=1e-15)
    assert np.allclose(grads[1, 2], spec.grad_p(p[1, 2]), rtol=1e-15, atol=0.0)


class TestInvariantSamples:
    @pytest.mark.parametrize("spec", [
        mf.huber_ball(1.0),
        mf.finite_control([(1, 0), (-0.5, 0.5), (0, -1)], [0.0, 0.2, 0.1],
                          smoothing=0.1),
    ], ids=["huber", "lse"])
    def test_bulk_invariants(self, spec):
        rng = np.random.default_rng(11)
        p = 3.0 * rng.standard_normal((10_000, 2))
        q = 3.0 * rng.standard_normal((10_000, 2))
        mid = spec.value(0.5 * (p + q))
        assert np.all(mid <= 0.5 * (spec.value(p) + spec.value(q)) + 1e-12)
        g = spec.grad_p(p)
        assert np.linalg.norm(g, axis=1).max() <= spec.L_H + 1e-12
        gq = spec.grad_p(q)
        dist = np.linalg.norm(p - q, axis=1)
        ratio = np.linalg.norm(g - gq, axis=1) / np.maximum(dist, 1e-300)
        assert ratio.max() <= spec.L_Hp + 1e-6
        growth = np.abs(spec.value(p)) / (np.linalg.norm(p, axis=1) + 1.0)
        assert growth.max() <= spec.C_H + 1e-12


class TestGradientCheck:
    def test_huber(self):
        assert check_gradient(mf.huber_ball(1.0), samples=1000, seed=0) < 1e-5

    def test_smoothed_finite(self):
        spec = mf.finite_control([(1, 0), (-1, 0), (0, 1)], [0.0, 0.1, 0.2],
                                 smoothing=0.1)
        assert check_gradient(spec, samples=1000, seed=0) < 1e-5

    def test_linear_exact(self):
        # single control: H is affine, central differences are exact to roundoff
        spec = mf.finite_control([(0.4, -0.2)], [0.3], smoothing=0.5)
        assert check_gradient(spec, samples=200, seed=1) < 1e-9

    def test_rejects_nonsmooth(self):
        with pytest.raises(ConfigurationError):
            check_gradient(mf.finite_control([(1, 0), (-1, 0)], [0, 0]))


def _hessian_fd(spec, p, step=1e-6):
    """Central differences of grad_p at the rows of p, shape (n, 2, 2): column
    j is the derivative in p_j."""
    fd = np.empty(p.shape + (2,))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = step
        fd[:, :, j] = (spec.grad_p(p + dp) - spec.grad_p(p - dp)) / (2.0 * step)
    return fd


class TestHessian:
    def test_huber_on_and_off_the_disk(self):
        # I inside the disk and (R/|p|)(I - phat phat^T) outside it, against
        # central differences of grad_p at points kept away from the kink |p| = R
        R = 1.5
        spec = mf.huber_ball(R)
        rng = np.random.default_rng(3)
        p = rng.uniform(-3.0 * R, 3.0 * R, (400, 2))
        r = np.linalg.norm(p, axis=1)
        p = p[np.abs(r - R) > 1e-3]
        inside = np.linalg.norm(p, axis=1) < R
        assert inside.any() and not inside.all()
        hess = spec.hess_p(p)
        assert np.array_equal(hess[inside], np.broadcast_to(np.eye(2), hess[inside].shape))
        assert np.abs(hess - _hessian_fd(spec, p)).max() < 1e-7

    def test_huber_outside_closed_form(self):
        spec = mf.huber_ball(1.0)
        assert np.allclose(spec.hess_p([0.0, 2.0]), [[0.5, 0.0], [0.0, 0.0]])
        assert np.array_equal(spec.hess_p(np.zeros(2)), np.eye(2))

    def test_smoothed_log_sum_exp(self):
        spec = mf.finite_control([(1, 0), (-1, 0), (0, 1)], [0.0, 0.1, 0.2],
                                 smoothing=0.1)
        p = 3.0 * np.random.default_rng(4).standard_normal((400, 2))
        hess = spec.hess_p(p)
        assert np.abs(hess - _hessian_fd(spec, p)).max() < 1e-6
        # symmetric positive semidefinite, as the Hessian of a convex function
        assert np.array_equal(hess, hess.transpose(0, 2, 1))
        assert np.linalg.eigvalsh(hess).min() >= -1e-12

    def test_affine_hamiltonian_has_zero_hessian(self):
        spec = mf.finite_control([(0.4, -0.2)], [0.3], smoothing=0.5)
        p = np.random.default_rng(5).standard_normal((50, 2))
        assert np.abs(spec.hess_p(p)).max() < 1e-12


class TestSemismoothBound:
    def test_remainder_zero_at_identity(self, square_spaces):
        space = square_spaces[3]
        rng = np.random.default_rng(1)
        v = mf.P1Function(space, rng.standard_normal(space.ndof))
        r = linearization_remainder(mf.huber_ball(1.0), v, v)
        assert np.abs(r).max() == 0.0

    def test_remainder_zero_for_linear_hamiltonian(self, square_spaces):
        space = square_spaces[3]
        spec = mf.finite_control([(0.5, 0.5)], [0.0], smoothing=0.3)
        rng = np.random.default_rng(2)
        v = mf.P1Function(space, rng.standard_normal(space.ndof))
        w = mf.P1Function(space, rng.standard_normal(space.ndof))
        r = linearization_remainder(spec, v, w)
        assert np.abs(r).max() < 1e-12

    def test_remainder_nonnegative_by_convexity(self, square_spaces):
        space = square_spaces[3]
        rng = np.random.default_rng(3)
        spec = mf.huber_ball(1.0)
        for _ in range(5):
            v = mf.P1Function(space, rng.standard_normal(space.ndof))
            w = mf.P1Function(space, rng.standard_normal(space.ndof))
            assert linearization_remainder(spec, v, w).min() >= -1e-14

    def test_ratio_stable_across_levels(self, square_spaces):
        spec = mf.huber_ball(1.0)
        r3 = check_semismooth_bound(spec, square_spaces[3], seed=0)
        r4 = check_semismooth_bound(spec, square_spaces[4], seed=0)
        assert r3 > 0 and r4 > 0
        assert max(r3, r4) / min(r3, r4) <= 2.0

    def test_ratio_closes_only_candidates_for_the_maximum(self, square_spaces, monkeypatch):
        # the largest ratio is bitwise that of closing every bracket, the
        # riesz_dual_norm values, with at most half the Gram V-cycles
        spec = mf.huber_ball(1.0)
        space = square_spaces[6]
        grams, init = [], assembly.H1Gram.__init__
        monkeypatch.setattr(assembly.H1Gram, "__init__",
                            lambda self, space: grams.append(self) or init(self, space))
        ratio = check_semismooth_bound(spec, space, seed=0)

        class Closed(assembly.DualNormBracket):
            def __init__(self, gram, r):
                super().__init__(gram, r)
                self.close()

        monkeypatch.setattr(assembly, "DualNormBracket", Closed)
        assert check_semismooth_bound(spec, space, seed=0) == ratio
        assert 0 < grams[0].cycles <= grams[1].cycles / 2

    def test_ratio_measured_by_the_solve_gram(self, square_spaces, monkeypatch):
        # above COARSE_DOFS the dual norms go through the multigrid Gram
        # solver of a solve, with no LU of the Gram matrix, and agree with the
        # LU it falls back to when CG is capped at one iteration
        spec = mf.huber_ball(1.0)
        space = square_spaces[6]
        splu = scipy.sparse.linalg.splu
        sizes = []

        def tracking_splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", tracking_splu)
        ratio = check_semismooth_bound(spec, space, seed=0)
        assert max(sizes) <= assembly.COARSE_DOFS < space.ndof
        monkeypatch.setattr(assembly, "KRYLOV_MAX", 1)
        assert check_semismooth_bound(spec, space, seed=0) == pytest.approx(
            ratio, rel=1e-12, abs=0.0)
        assert max(sizes) == space.ndof
