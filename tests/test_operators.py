import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from egsolve.core import (
    MonotoneClass,
    OperatorInstance,
    finite_diff_jacobian,
    norm,
    overflow_as_data,
    spectral_norm,
)
from egsolve.operators import ZOO, build, default_box

SQ2 = math.sqrt(2.0)

ALL_KEYS = ["bilinear", "cubic1d", "cubicRd", "forsaken", "logistic",
            "nplayer", "power", "quadratic", "signpower", "square"]


def test_registry_keys():
    assert sorted(ZOO) == ALL_KEYS
    with pytest.raises(KeyError):
        build("nope")


def test_default_box_accepts_labels():
    assert default_box("cubicRd", 4) == [(-5.0, 5.0)] * 4
    assert default_box("cubicRd(d=2,seed=0,scale=1)", 4) == [(-5.0, 5.0)] * 4
    with pytest.raises(KeyError):
        default_box("nope", 2)


def test_declared_roots_are_roots():
    for key in ALL_KEYS:
        op = build(key)
        if op.solution is not None:
            assert np.linalg.norm(op(op.solution)) <= 1e-12


@pytest.mark.parametrize("key", ALL_KEYS)
def test_analytic_jacobian_matches_finite_differences(key):
    op = build(key)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, op.dim)
        Ja = op.jacobian_at(x)
        Jf = finite_diff_jacobian(op.fn, x)
        denom = max(np.max(np.abs(Ja)), 1.0)
        assert np.max(np.abs(Ja - Jf)) / denom <= 1e-5, f"{key} Jacobian mismatch at {x}"


class TestHandValues:
    def test_quadratic(self):
        op = build("quadratic")
        assert np.allclose(op([1.0, 1.0]), [2.0, 0.0])
        assert op.smoothness.L0 == pytest.approx(SQ2)
        assert op.monotonicity.kind is MonotoneClass.STRONGLY_MONOTONE
        assert op.monotonicity.mu == 1.0

    def test_cubic1d_and_nonmonotone_witness(self):
        op = build("cubic1d")
        assert np.allclose(op([2.0, 2.0]), [6.0, 2.0])
        x, y = np.array([-2.0, 0.0]), np.array([0.0, 0.0])
        inner = float((op(x) - op(y)) @ (x - y))
        assert inner == pytest.approx(-8.0)

    def test_signpower(self):
        op = build("signpower")
        assert np.allclose(op([-2.0, 3.0]), [-1.0, 11.0])
        assert op.monotonicity.kind is MonotoneClass.MONOTONE
        assert build("signpower", mu=12.5).monotonicity.mu == 12.5

    def test_square(self):
        op = build("square")
        assert np.allclose(op([-3.0, 2.0]), [9.0, 4.0])
        assert op.smoothness.alpha == 0.5
        assert op.monotonicity is None

    def test_forsaken_field_and_class(self):
        op = build("forsaken")
        # psi'(1) = 4/7 - 4/3 + 2/3 = -2/21
        assert np.allclose(op([1.0, 1.0]), [1.0 - 2.0 / 21.0, -2.0 / 21.0 - 1.0])
        assert op.monotonicity.kind is MonotoneClass.WEAK_MINTY
        assert op.monotonicity.rho == pytest.approx(0.119732)
        assert (op.smoothness.L0, op.smoothness.L1) == (2.5, 5.0)

    def test_logistic_no_root_and_constants(self):
        op = build("logistic")
        assert op.solution is None
        assert op.smoothness.L0 == 0.0
        assert op.smoothness.L1 == pytest.approx(SQ2)
        # F = -a * sigmoid(-a.x); at x = 0 the factor is 1/2
        assert np.allclose(op([0.0, 0.0]), [-0.5, -0.5])
        # a finite a whose norm overflows is refused, with no RuntimeWarning
        with pytest.raises(ValueError, match="a must be nonzero with a finite norm"):
            build("logistic", a=(1e300, 1e300))

    def test_power_reduces_to_signpower_on_axes(self):
        op = build("power", p=2.0)
        sp = build("signpower")
        for x in ([1.5, 0.0], [0.0, -2.0], [3.0, 0.0]):
            assert np.allclose(op(x), sp(x))
        assert op.smoothness.L0 == pytest.approx(3.0)
        assert op.smoothness.L1 == pytest.approx(2.0 ** (7.0 / 8.0))

    def test_power_validation(self):
        with pytest.raises(ValueError):
            build("power", p=1.0)
        with pytest.raises(ValueError):
            build("power", tau1=0.0)

    def test_nplayer_skew_coupling(self):
        op = build("nplayer", n=3)
        x = np.array([1.0, 0.0, 0.0])
        # F = x|x| + Sx with S shifting next - previous around the ring
        assert np.allclose(op(x), [1.0, -1.0, 1.0])
        S = op.jacobian_at(np.zeros(3))
        assert np.allclose(S, -S.T)
        assert op.smoothness.L0 == pytest.approx(math.sqrt(6.0) * 5.0)

    def test_cubicRd_seeded_and_monotone(self):
        op = build("cubicRd", d=10, seed=42, scale=5.0)
        assert op.dim == 20
        rng = np.random.default_rng(42)
        u = rng.standard_normal(20)
        x0 = 1000.0 * u / np.linalg.norm(u)
        assert np.linalg.norm(op(x0)) == pytest.approx(1.6424e7, rel=1e-3)
        assert spectral_norm(op.jacobian_at(x0)) == pytest.approx(4.1556e4, rel=1e-3)

    def test_cubicRd_same_seed_same_matrices(self):
        A1, B1, C1 = build("cubicRd", d=3, seed=9).matrices
        A2, B2, C2 = build("cubicRd", d=3, seed=9).matrices
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2) and np.array_equal(C1, C2)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_cubicRd_refuses_a_scale_not_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            build("cubicRd", d=2, scale=scale)

    @pytest.mark.parametrize("d,scale", [(2, 1e308), (10, 5e307), (2, 5e-324)])
    def test_cubicRd_refuses_a_scale_whose_constants_overflow(self, d, scale):
        # one ValueError naming the scale, no RuntimeWarning before it
        with pytest.raises(ValueError, match=re.escape(f"cubicRd: scale {scale:g} leaves no finite")):
            build("cubicRd", d=d, scale=scale)

    def test_matrices_is_a_declared_field(self):
        assert "matrices" in {f.name for f in dataclasses.fields(OperatorInstance)}
        assert build("quadratic").matrices is None
        A, B, C = build("cubicRd", d=3).matrices
        assert A.shape == B.shape == C.shape == (3, 3)

    def test_bilinear_constants_scale_with_radius(self):
        op = build("bilinear", R=5.0)
        assert op.smoothness.L0 == pytest.approx(11.0)
        assert build("bilinear", R=2.0).smoothness.L0 == pytest.approx(5.0)
        assert op.solution is None


class TestMonotonicityDeclarations:
    """Sampled sanity checks of the declared classes."""

    @pytest.mark.parametrize("key", ["quadratic", "signpower", "nplayer", "bilinear", "cubicRd"])
    def test_declared_monotone_fields_are_monotone(self, key):
        op = build(key)
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, op.dim)
            y = rng.uniform(-5.0, 5.0, op.dim)
            assert float((op(x) - op(y)) @ (x - y)) >= -1e-9

    def test_quadratic_strong_modulus(self):
        op = build("quadratic")
        rng = np.random.default_rng(29)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, 2)
            y = rng.uniform(-5.0, 5.0, 2)
            lhs = float((op(x) - op(y)) @ (x - y))
            assert lhs >= 1.0 * float((x - y) @ (x - y)) - 1e-9


def _cubicRd_by_definition(op, x):
    """(||w1||_A A w1 + B w2, ||w2||_C C w2 - B^T w1) from the built matrices."""
    A, B, C = op.matrices
    d = A.shape[0]
    w1, w2 = x[:d], x[d:]
    s = math.sqrt(w1 @ A @ w1)
    t = math.sqrt(w2 @ C @ w2)
    return np.concatenate([s * (A @ w1) + B @ w2, t * (C @ w2) - B.T @ w1])


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("seed,scale", [(0, 1.0), (7, 1.0), (42, 5.0)])
def test_cubicRd_fn_matches_definition(d, seed, scale):
    op = build("cubicRd", d=d, seed=seed, scale=scale)
    rng = np.random.default_rng(1000 + seed)
    points = [rng.standard_normal(2 * d) * 10.0 ** rng.uniform(-3, 3) for _ in range(30)]
    w, z = rng.standard_normal(d), np.zeros(d)
    points += [np.concatenate([z, w]), np.concatenate([w, z]), np.zeros(2 * d)]
    for x in points:
        want = _cubicRd_by_definition(op, x)
        assert norm(op(x) - want) <= 1e-12 * norm(want)


def _cubicRd_matmul_reference(op, x):
    """The point field with @ for every product, as fig4's outputs were made."""
    A, B, C = op.matrices
    d = A.shape[0]
    Z = np.zeros((d, d))
    y = np.block([[A, Z], [Z, C], [Z, B], [-B.T, Z]]) @ x
    q, r = float(x[:d] @ y[:d]), float(x[d:] @ y[d:2 * d])
    s = math.sqrt(q) if q >= 0.0 else math.nan    # an overflowed form gives NaN
    t = math.sqrt(r) if r >= 0.0 else math.nan
    return np.concatenate([s * y[:d], t * y[d:2 * d]]) + y[2 * d:]


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("seed,scale", [(0, 1.0), (42, 5.0)])
def test_cubicRd_fn_bits_are_pinned(d, seed, scale):
    # seeded points over many scales, zero halves (s = 0, t = 0) and overflowing
    # points, where both forms give the same bits (NaN where a form overflows)
    op = build("cubicRd", d=d, seed=seed, scale=scale)
    rng = np.random.default_rng(2000 + seed)
    w, z = rng.standard_normal(d), np.zeros(d)
    points = [rng.standard_normal(2 * d) * 10.0 ** e
              for e in list(rng.uniform(-3, 3, 50)) + [110, 155, 160, 200, 300]]
    points += [np.concatenate([z, w]), np.concatenate([w, z]), np.zeros(2 * d)]

    def outcome(f, x):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return [float.hex(v) for v in f(x)]
        except ValueError as e:
            return str(e)
    for x in points:
        assert outcome(op, x) == outcome(lambda x: _cubicRd_matmul_reference(op, x), x)


def _batch_points(dim, seed):
    """Seeded rows over several scales; for cubicRd also the rows with
    w1 = 0, with w2 = 0 and the origin, where its Jacobian blocks take their
    zero limit."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-3, 2, (40, 1))
    d = dim // 2
    w = rng.standard_normal(d)
    special = [np.concatenate([np.zeros(d), w]), np.concatenate([w, np.zeros(d)]), np.zeros(dim)]
    return np.vstack([X] + special)


@pytest.mark.parametrize("key,params", [
    ("forsaken", {}), ("signpower", {}),
    ("cubicRd", {"d": 1}), ("cubicRd", {"d": 2}), ("cubicRd", {"d": 10}),
    ("quadratic", {}), ("cubic1d", {}), ("square", {}), ("bilinear", {}),
    ("nplayer", {"n": 2}), ("nplayer", {"n": 6}),
])
def test_batch_kernels_match_rows(key, params):
    op = build(key, **params)
    assert op.fn_batch is not None and op.jacobian_batch is not None
    X = _batch_points(op.dim, 5)
    FX, JX = op.fn_batch(X), op.jacobian_batch(X)
    assert FX.shape == X.shape and JX.shape == (X.shape[0], op.dim, op.dim)
    for x, f, J in zip(X, FX, JX):
        want_f, want_J = op.fn(x), op.jacobian(x)
        if key == "signpower":   # one field on Python floats and on columns
            assert f.tobytes() == want_f.tobytes()
        else:
            assert norm(f - want_f) <= 1e-12 * norm(want_f)
        assert norm(J - want_J) <= 1e-12 * norm(want_J)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _psi_p(w):
    return (4.0 / 7.0) * w ** 5 - (4.0 / 3.0) * w ** 3 + (2.0 / 3.0) * w


# the 2-dim coupled fields written out by hand on x's numpy scalars; on the
# transposed block x = X.T they give the block field
_HAND_FIELDS = {
    "quadratic": lambda x: np.array([x[0] + x[1], x[1] - x[0]]),
    "cubic1d": lambda x: np.array([x[0] * x[0] + x[1], x[1] * x[1] - x[0]]),
    "signpower": lambda x: np.array([x[0] * abs(x[0]) + x[1], x[1] * abs(x[1]) - x[0]]),
    "forsaken": lambda x: np.array([x[1] + _psi_p(x[0]), _psi_p(x[1]) - x[0]]),
    "bilinear": lambda x: np.array([-_sigmoid(-x[0]) + x[1], -_sigmoid(-x[1]) - x[0]]),
}

_HUGE = st.floats(1e155, 1.7e308)   # the square (and every higher power) overflows
_COUPLED_COORD = st.one_of(
    st.floats(), _HUGE, _HUGE.map(lambda v: -v),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan]))


# every pair of these: signed zeros, subnormals, a square that overflows above
# 1e154 and a fifth power above 1e61 (forsaken's numpy-scalar fallback), inf, NaN
_EDGES = [s * v for v in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e62, 1e155, 1e300,
                          math.inf) for s in (1.0, -1.0)] + [math.nan]


@pytest.mark.parametrize("key", sorted(_HAND_FIELDS))
@given(X=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)),
                    elements=_COUPLED_COORD))
@example(X=np.array([(a, b) for a in _EDGES for b in _EDGES]))
@settings(max_examples=300, deadline=None)
def test_coupled_fields_equal_the_numpy_scalar_formula(key, X):
    # bit for bit, except which NaN: when an operand is NaN, Python floats, numpy
    # scalars and numpy arrays may each return another operand's NaN or sign, an
    # operand order may too, and every NaN writes "nan". `fn.field`, the map
    # `solve` iterates on, takes Python floats.
    op, hand = build(key), _HAND_FIELDS[key]
    bits = lambda v: np.where(np.isnan(v), math.nan, v).tobytes()
    with overflow_as_data():
        assert bits(op.fn_batch(X)) == bits(hand(X.T).T)
        for x in X:
            assert bits(op.fn(x)) == bits(hand(x))
            assert bits(np.array(op.fn.field(*x.tolist()))) == bits(hand(x))
