import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from egsolve.core import (
    DimensionMismatch,
    EmptyTrace,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteEvaluation,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    SolveTrace,
    TraceRow,
    finite_diff_jacobian,
    norm,
    spectral_norm,
    vec,
)


class TestVec:
    def test_freezes_and_casts(self):
        v = vec([1, 2, 3])
        assert v.dtype == np.float64
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            vec([1.0, 2.0], dim=3)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEvaluation):
            vec([1.0, math.nan])
        with pytest.raises(NonFiniteEvaluation):
            vec([math.inf, 0.0])

    def test_norm(self):
        assert norm([3.0, 4.0]) == 5.0

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                      elements=st.one_of(st.floats(width=64),
                                         st.floats(1e153, 1e155),
                                         st.floats(-1e155, -1e153))))
    def test_norm_is_bit_identical_to_numpy(self, x):
        # entries near 1e154 square to near the float64 maximum; inf and nan
        # come from st.floats. Both sides warn alike on overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = norm(x), float(np.linalg.norm(x))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestSpectralNorm:
    def test_scalar(self):
        assert spectral_norm([[-3.0]]) == 3.0

    def test_2x2_closed_form_matches_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = rng.standard_normal((2, 2))
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), abs=1e-12)

    def test_rotation_like(self):
        M = np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert spectral_norm(M) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_matches_numpy_norm_exactly(self):
        rng = np.random.default_rng(0)
        shapes = [(1, 1), (2, 2)] + [(n, n) for n in range(3, 9)] + [(20, 20), (2, 3), (5, 2), (1, 4)]
        mats = [rng.standard_normal(shape) for shape in shapes for _ in range(20)]

        def with_singular_values(sigma, seed):
            r = np.random.default_rng(seed)
            n = len(sigma)
            U, _ = np.linalg.qr(r.standard_normal((n, n)))
            V, _ = np.linalg.qr(r.standard_normal((n, n)))
            return U @ np.diag(sigma) @ V.T

        # close top singular values: a 1e-5 gap, and the top pair of a
        # cubicRd d=10 Jacobian that `verify` meets. Seeded power iteration
        # does not converge on the first and stops 8e-8 short on the second.
        mats.append(with_singular_values([1.0, 0.99999, 0.5, 0.1], 2))
        mats.append(with_singular_values(np.r_[93.7527, 93.7388, np.linspace(50.0, 1.0, 18)], 11))
        for M in mats:
            assert spectral_norm(M) == float(np.linalg.norm(M, 2))
        assert spectral_norm(mats[-1]) == pytest.approx(93.7527, rel=1e-12)

    def test_power_iteration_matches_svd(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 8):
            M = rng.standard_normal((n, n))
            assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-7)

    def test_power_iteration_deterministic(self):
        M = np.random.default_rng(3).standard_normal((6, 6))
        assert spectral_norm(M) == spectral_norm(M)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_rejects_nonmatrix(self):
        with pytest.raises(DimensionMismatch):
            spectral_norm(np.ones(3))
        with pytest.raises(NonFiniteEvaluation):
            spectral_norm(np.array([[math.nan, 0.0], [0.0, 1.0]]))


class TestFiniteDiffJacobian:
    def test_quadratic_field_exact_to_roundoff(self):
        def fn(x):
            return np.array([x[0] * x[0] + x[1], x[1] * x[1] - x[0]])

        x = np.array([1.5, -0.5])
        J = finite_diff_jacobian(fn, x)
        exact = np.array([[3.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(J, exact, atol=1e-9)

    def test_nonfinite_propagates(self):
        def fn(x):
            with np.errstate(divide="ignore"):
                return np.array([1.0 / x[0]])

        with pytest.raises(NonFiniteEvaluation):
            finite_diff_jacobian(fn, np.array([0.0]), h=0.0)


class TestParams:
    def test_smoothness_validation(self):
        s = SmoothnessParams(0.5, 1.0, 2.0)
        assert (s.alpha, s.L0, s.L1) == (0.5, 1.0, 2.0)
        with pytest.raises(Exception):
            SmoothnessParams(0.0, 1.0, 1.0)
        with pytest.raises(Exception):
            SmoothnessParams(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            SmoothnessParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            SmoothnessParams(1.0, 1.0, -0.5)

    def test_monotonicity_validation(self):
        MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=2.0)
        MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.1)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=0.0)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.MONOTONE, mu=1.0)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.MONOTONE, rho=0.3)
        with pytest.raises(ValueError):
            MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=-0.1)


class TestOperatorInstance:
    def _op(self, solution=None):
        return OperatorInstance(
            dim=2,
            fn=lambda x: np.array([x[0] + x[1], x[1] - x[0]]),
            solution=solution,
            label="toy",
        )

    def test_root_declaration_checked(self):
        self._op(solution=[0.0, 0.0])
        with pytest.raises(ValueError):
            self._op(solution=[1.0, 0.0])

    def test_call_validates_output_dim(self):
        op = OperatorInstance(dim=2, fn=lambda x: np.array([x[0]]), label="bad")
        with pytest.raises(DimensionMismatch):
            op(np.zeros(2))

    def test_jacobian_fallback_is_finite_difference(self):
        op = self._op()
        J = op.jacobian_at(np.array([0.3, -0.7]))
        assert np.allclose(J, [[1.0, 1.0], [-1.0, 1.0]], atol=1e-9)

    def test_batch_fallback_loops_over_rows(self):
        op = self._op()
        X = np.array([[0.3, -0.7], [2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(op.call_batch(X), np.stack([op(x) for x in X]))
        assert np.array_equal(op.jacobian_batch_at(X), np.stack([op.jacobian_at(x) for x in X]))

    def test_batch_output_shape_checked(self):
        X = np.zeros((3, 2))
        op = OperatorInstance(dim=2, fn=lambda x: x, fn_batch=lambda X: X[:, :1],
                              jacobian_batch=lambda X: np.zeros((3, 2, 3)), label="bad")
        with pytest.raises(DimensionMismatch):
            op.call_batch(X)
        with pytest.raises(DimensionMismatch):
            op.jacobian_batch_at(X)
        with pytest.raises(DimensionMismatch):
            op.call_batch(np.zeros((3, 3)))
        scalar_jac = OperatorInstance(dim=1, fn=lambda x: x, jacobian=lambda x: 1.0)
        with pytest.raises(DimensionMismatch):
            scalar_jac.jacobian_batch_at(np.zeros((2, 1)))


class TestSolveStructures:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=0, x0=[1.0])
        with pytest.raises(ValueError):
            SolveConfig(max_iters=5, x0=[1.0], stop_tol=-1.0)
        cfg = SolveConfig(max_iters=5, x0=[1.0, 2.0], stop_tol=0.0)
        assert not cfg.x0.flags.writeable

    def test_recomputed_minima(self):
        tr = SolveTrace()
        with pytest.raises(EmptyTrace):
            tr.recomputed_minima()
        tr.rows = [
            TraceRow(k=0, x_k=None, xhat_k=None, gamma_k=0.1, omega_k=0.1,
                     norm_F_x=2.0, norm_F_xhat=1.5),
            TraceRow(k=1, x_k=None, xhat_k=None, gamma_k=0.1, omega_k=0.1,
                     norm_F_x=0.5, norm_F_xhat=0.7),
        ]
        assert tr.recomputed_minima() == (0.5, 0.7)
