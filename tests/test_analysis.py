import collections
import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsolve import analysis
from egsolve.analysis import (
    MAX_GRID_POINTS,
    BoundReport,
    ScatterSamples,
    box_bounds,
    check_alpha_grid,
    check_grid,
    check_pairs,
    fit_constants,
    grid_points,
    grid_samples,
    prop1_rhs,
    read_fit_csv,
    read_scatter_csv,
    scatter_from_trace,
    theoretical_bounds,
    verify_condition,
    verify_proposition1,
    verify_segment_condition,
    write_fit_csv,
    write_scatter_csv,
)
from egsolve.core import (
    DegenerateSamples,
    DimensionMismatch,
    EmptyTrace,
    MissingConstant,
    MissingSolution,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteEvaluation,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    norm,
    overflow_as_data,
    spectral_norm,
)
from egsolve.operators import ZOO, build, default_box
from egsolve.solver import solve
from egsolve.stepsize import PolicyKind, k_constants, parse_policy, pow_alpha

SQ2 = math.sqrt(2.0)


SampleRow = collections.namedtuple("SampleRow", "norm_F norm_J k")


def sample_rows(samples):
    """The samples of a ScatterSamples record, one (norm_F, norm_J, k) row each."""
    return [SampleRow(*r) for r in zip(samples.norm_F.tolist(), samples.norm_J.tolist(),
                                       samples.k.tolist())]


def spearman(a, b):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty_like(order, dtype=float)
        r[order] = np.arange(len(v))
        return r
    ra, rb = ranks(np.asarray(a)), ranks(np.asarray(b))
    return float(np.corrcoef(ra, rb)[0, 1])


def zero_operator(dim=2, with_solution=True):
    return OperatorInstance(
        dim=dim,
        fn=lambda x: np.zeros(dim),
        jacobian=lambda x: np.zeros((dim, dim)),
        solution=np.zeros(dim) if with_solution else None,
        label="zero",
    )


class TestBoxBounds:
    def test_halfwidth(self):
        lo, hi = box_bounds(3.0, 2)
        assert np.allclose(lo, [-3, -3]) and np.allclose(hi, [3, 3])

    def test_single_pair_broadcast(self):
        lo, hi = box_bounds((-1.0, 2.0), 3)
        assert np.allclose(lo, -1) and np.allclose(hi, 2)

    def test_per_axis(self):
        lo, hi = box_bounds([(-1, 1), (0, 5)], 2)
        assert np.allclose(lo, [-1, 0]) and np.allclose(hi, [1, 5])

    def test_errors(self):
        with pytest.raises(ValueError):
            box_bounds(0.0, 2)
        with pytest.raises(DimensionMismatch):
            box_bounds([(-1, 1)], 2)
        with pytest.raises(ValueError):
            box_bounds([(1, 1), (0, 2)], 2)

    @pytest.mark.parametrize("box, match", [
        (math.inf, "finite"), (math.nan, "finite"), ((0.0, math.inf), "finite"),
        ([(-1.0, 1.0), (math.nan, 1.0)], "finite"), (1e308, "overflows"),
        ((-1.5e308, 1.5e308), "overflows"),
    ])
    def test_refuses_boxes_that_cannot_be_gridded(self, box, match):
        with pytest.raises(ValueError, match=match):
            box_bounds(box, 2)


class TestScatter:
    def test_constant_jacobian_norm(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=60, x0=[1.0, 1.0], stop_tol=0.0))
        samples = scatter_from_trace(op, tr)
        assert len(samples) == 60
        assert all(abs(nj - SQ2) <= 1e-9 for nj in samples.norm_J)
        assert samples.k.tolist() == list(range(60))

    def test_norm_growth_tracks_residual(self):
        # cubic1d declares no monotonicity class, so the run needs force=True
        op = build("cubic1d")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tr = solve(op, parse_policy("thm5"),
                       SolveConfig(max_iters=400, x0=[2.0, 2.0], stop_tol=0.0),
                       force=True)
        samples = scatter_from_trace(op, tr)
        rho = spearman(samples.norm_F, samples.norm_J)
        assert rho > 0.99

    def test_start_at_root(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=5, x0=[0.0, 0.0]))
        samples = scatter_from_trace(op, tr)
        assert len(samples) == 1
        assert samples.norm_F[0] == 0.0
        assert samples.norm_J[0] == pytest.approx(SQ2, abs=1e-9)

    def test_empty_trace_rejected(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0,
                               record_trace=False))
        with pytest.raises(EmptyTrace):
            scatter_from_trace(op, tr)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ScatterSamples(norm_F=[-1.0], norm_J=[1.0])
        with pytest.raises(ValueError):
            ScatterSamples(norm_F=[1.0], norm_J=[math.inf])
        # the first offending sample, norm_F before norm_J there
        with pytest.raises(ValueError, match="^norm_J must be finite and >= 0, got inf$"):
            ScatterSamples(norm_F=[1.0, math.nan], norm_J=[math.inf, 1.0])
        with pytest.raises(ValueError, match="^norm_F must be finite and >= 0, got nan$"):
            ScatterSamples(norm_F=[math.nan], norm_J=[-1.0])
        with pytest.raises(ValueError, match="one length"):
            ScatterSamples(norm_F=[1.0], norm_J=[1.0, 2.0])


class TestVerifyCondition:
    def test_generous_constants_pass(self):
        op = build("cubic1d")
        fit = verify_condition(op, SmoothnessParams(1.0, 10.0, 10.0), 50.0, 201)
        assert fit.max_violation == pytest.approx(7.0, rel=1e-12)
        assert fit.passed
        assert fit.samples and fit.samples.k[0] == -1

    def test_tight_constants_fail(self):
        op = build("cubic1d")
        fit = verify_condition(op, SmoothnessParams(1.0, 1.0, 0.1), 50.0, 201)
        assert fit.max_violation == pytest.approx(-9.485320907975929, rel=1e-12)
        assert not fit.passed

    def test_declared_constants_are_tight_for_affine(self):
        op = build("quadratic")
        fit = verify_condition(op, op.smoothness, 50.0, 41)
        assert abs(fit.max_violation) <= 1e-12
        assert fit.passed

    def test_grid_validation(self):
        op = build("quadratic")
        with pytest.raises(ValueError):
            verify_condition(op, op.smoothness, 50.0, 1)


def per_point_samples(F, box, n):
    """The per-point reference for the block grid route: one F, Jacobian and
    spectral norm call per grid point, each point checked before the next is
    evaluated."""
    nf, nj = [], []
    with overflow_as_data():
        for x in grid_points(box, F.dim, n):
            nf.append(norm(F(x)))
            nj.append(spectral_norm(F.jacobian_at(x)))
            ScatterSamples(nf[-1:], nj[-1:])
    return sample_rows(ScatterSamples(nf, nj))


ZOO_GRID_N = {1: 201, 2: 41, 3: 13, 4: 7}


class TestBlockGridRoute:
    @pytest.mark.parametrize("key", sorted(ZOO))
    def test_matches_per_point_loop(self, key):
        op = build(key)
        box, n, s = default_box(key, op.dim), ZOO_GRID_N[op.dim], op.smoothness
        want = per_point_samples(op, box, n)
        got = sample_rows(grid_samples(op, box, n))
        assert len(got) == len(want) == n ** op.dim
        for g, w in zip(got, want):
            assert g.k == -1
            assert g.norm_F == pytest.approx(w.norm_F, rel=1e-12, abs=1e-300)
            assert g.norm_J == pytest.approx(w.norm_J, rel=1e-12, abs=1e-300)
        slacks = [s.L0 + s.L1 * pow_alpha(w.norm_F, s.alpha) - w.norm_J for w in want]
        i = int(np.argmin(slacks))   # first minimum, as the scalar loop kept it
        fit = verify_condition(op, s, box, n)
        assert fit.max_violation == pytest.approx(slacks[i], rel=1e-12, abs=1e-12)
        (worst,) = sample_rows(fit.samples)
        assert worst.norm_F == pytest.approx(want[i].norm_F, rel=1e-12, abs=1e-300)
        assert worst.norm_J == pytest.approx(want[i].norm_J, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("bad_F,bad_J", [(12, None), (None, 12), (7, 12), (12, 7)])
    def test_first_offending_point_raises_as_per_point_loop(self, bad_F, bad_J):
        # a 5 x 5 grid on [-1, 1]^2; index 12 is the interior point (0, 0)
        pts = [tuple(p) for p in grid_points(1.0, 2, 5)]

        def fn(x):
            return np.array([math.inf, 0.0]) if bad_F is not None and tuple(x) == pts[bad_F] else x

        def jac(x):
            return np.full((2, 2), math.nan) if bad_J is not None and tuple(x) == pts[bad_J] else np.eye(2)

        op = OperatorInstance(dim=2, fn=fn, jacobian=jac, label="custom")
        with pytest.raises((ValueError, NonFiniteEvaluation)) as want:
            per_point_samples(op, 1.0, 5)
        for route in (lambda: grid_samples(op, 1.0, 5),
                      lambda: verify_condition(op, SmoothnessParams(1.0, 1.0, 1.0), 1.0, 5)):
            with pytest.raises(want.type) as got:
                route()
            assert str(got.value) == str(want.value)
        if bad_F == 12 and bad_J is None:
            assert str(want.value) == "norm_F must be finite and >= 0, got inf"
        if bad_J == 12 and bad_F != 7:
            assert str(want.value) == "spectral_norm: non-finite matrix"

    def test_million_point_grid_memory_is_bounded(self):
        # a whole-grid stack of 10^6 points would hold 32 MB of 2 x 2
        # Jacobians and 16 MB each of points and values; blocks keep a few MB
        op = build("forsaken")
        tracemalloc.start()
        try:
            fit = verify_condition(op, op.smoothness, 2.0, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fit.passed
        assert peak < 8 * 2 ** 20

    def test_memory_per_grid_sample(self):
        # one sample object per point held about 150 bytes; the columns hold
        # norm_F and norm_J at 8 bytes each, and a grid's k holds none
        op = build("cubicRd", d=2)
        grid_samples(op, 5.0, 3)
        gc.collect()
        tracemalloc.start()
        try:
            samples = grid_samples(op, 5.0, 13)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(samples) == 13 ** 4
        assert held / len(samples) <= 32


# the zoo operators with block kernels. The first six must give the row
# loop's bits; forsaken's and cubicRd's point fields predate their block forms
# and differ from them in the last bits (a scalar against an array `**`, gemv
# against gemm), so they are held to 1e-12
EXACT_BLOCK_KEYS = ["bilinear", "cubic1d", "nplayer", "quadratic", "signpower", "square"]


class TestZooBlockKernels:
    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(EXACT_BLOCK_KEYS + ["forsaken", "cubicRd"]), data=st.data())
    def test_block_routes_equal_the_row_loop(self, key, data):
        if key == "nplayer":
            op = build(key, n=data.draw(st.integers(2, 5), label="n"))
        elif key == "cubicRd":
            op = build(key, d=data.draw(st.integers(1, 2), label="d"),
                       seed=data.draw(st.integers(0, 100), label="op_seed"))
        else:
            op = build(key)
        ref = dataclasses.replace(op, fn_batch=None, jacobian_batch=None)
        box = [(lo, lo + width) for lo, width in data.draw(st.lists(
            st.tuples(st.floats(-60.0, 20.0), st.floats(1e-3, 80.0)),
            min_size=op.dim, max_size=op.dim), label="box")]
        n = data.draw(st.integers(2, {2: 40, 3: 12, 4: 6, 5: 4}[op.dim]), label="grid_n")
        pairs = data.draw(st.integers(1, 40), label="pairs")
        seed = data.draw(st.integers(0, 99), label="pair_seed")
        s = op.smoothness
        if key in EXACT_BLOCK_KEYS:
            same = lambda a, b, scale=None: a.hex() == b.hex()
        else:
            same = lambda a, b, scale=None: a == pytest.approx(
                b, rel=1e-12, abs=1e-12 * (abs(b) if scale is None else scale))

        for got, want in zip(sample_rows(grid_samples(op, box, n)),
                             sample_rows(grid_samples(ref, box, n))):
            assert same(got.norm_F, want.norm_F) and same(got.norm_J, want.norm_J)
        fit, fit_ref = verify_condition(op, s, box, n), verify_condition(ref, s, box, n)
        (got,), (want,) = sample_rows(fit.samples), sample_rows(fit_ref.samples)
        assert same(fit.max_violation, fit_ref.max_violation, abs(fit_ref.max_violation) + want.norm_J)
        assert same(got.norm_F, want.norm_F) and same(got.norm_J, want.norm_J)
        seg = verify_segment_condition(op, s, pairs=pairs, box=box, seed=seed)
        seg_ref = verify_segment_condition(ref, s, pairs=pairs, box=box, seed=seed)
        assert seg.n_violations == seg_ref.n_violations
        assert same(seg.min_slack, seg_ref.min_slack)

    def test_transposed_user_block_equals_the_row_loop(self):
        # a user fn_batch whose block comes back transposed (strided rows):
        # its norms must sum in the row loop's order, bit for bit
        fn = build("nplayer", n=3).fn
        op = dataclasses.replace(build("nplayer", n=3), fn_batch=lambda X: fn(X.T).T)
        ref = dataclasses.replace(op, fn_batch=None, jacobian_batch=None)
        s = op.smoothness
        hexes = lambda *vals: [v.hex() for v in vals]
        for got, want in zip(sample_rows(grid_samples(op, 50.0, 40)),
                             sample_rows(grid_samples(ref, 50.0, 40))):
            assert hexes(got.norm_F, got.norm_J) == hexes(want.norm_F, want.norm_J)
        fit, fit_ref = verify_condition(op, s, 50.0, 40), verify_condition(ref, s, 50.0, 40)
        (got,), (want,) = sample_rows(fit.samples), sample_rows(fit_ref.samples)
        assert (hexes(fit.max_violation, got.norm_F, got.norm_J)
                == hexes(fit_ref.max_violation, want.norm_F, want.norm_J))
        seg = verify_segment_condition(op, s, pairs=500, box=50.0, seed=1)
        seg_ref = verify_segment_condition(ref, s, pairs=500, box=50.0, seed=1)
        assert seg.n_violations == seg_ref.n_violations
        assert hexes(seg.min_slack) == hexes(seg_ref.min_slack)


def all_svd_fit(F, s, box, n):
    """(max_violation, worst norm_F, worst norm_J) of the grid route with an
    SVD at every point: the reference of the Frobenius screen, block by block
    as verify_condition computes the slack, keeping the first minimum."""
    worst, at = math.inf, (None, None)
    with overflow_as_data():
        for X in analysis._grid_blocks(box, F.dim, n):
            nf, nj = analysis._grid_norms(F, X)
            g = s.L0 + s.L1 * np.exp(s.alpha * np.log(nf)) - nj
            i = int(np.argmin(g))
            if g[i] < worst:
                worst, at = float(g[i]), (float(nf[i]), float(nj[i]))
    return worst, at


def assert_screen_matches_all_svd(F, s, box, n):
    fit = verify_condition(F, s, box, n)
    worst, (nf, nj) = all_svd_fit(F, s, box, n)
    assert fit.max_violation.hex() == worst.hex()
    (got,) = sample_rows(fit.samples)
    assert got.norm_F.hex() == nf.hex() and got.norm_J.hex() == nj.hex()
    return fit


def affine_operator(M):
    """F(x) = M x with block kernels, so a grid costs a few numpy calls."""
    n = M.shape[0]
    return OperatorInstance(dim=n, fn=lambda x: M @ x, jacobian=lambda x: M,
                            fn_batch=lambda X: X @ M.T,
                            jacobian_batch=lambda X: np.repeat(M[None], len(X), axis=0),
                            solution=np.zeros(n), label="affine")


RANK_ONE = np.outer([1.65, 1.83], [1.25, 1.49])
RANK_ONE_NORM = float(analysis.la.svd(RANK_ONE[None], compute_uv=False)[0, 0])

_CONSTANTS = st.builds(SmoothnessParams, alpha=st.floats(0.05, 1.0),
                       L0=st.floats(0.01, 100.0), L1=st.floats(0.0, 10.0))


class TestSvdScreen:
    # verify_condition runs the SVD only at points whose Frobenius bounds can
    # reach the minimum slack; its result must be the all-SVD one bit for bit

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), seed=st.integers(0, 10 ** 6), scale=st.floats(0.1, 10.0),
           halfwidth=st.floats(0.5, 20.0), declared=st.booleans(), s=_CONSTANTS,
           data=st.data())
    def test_cubic_equals_all_svd(self, d, seed, scale, halfwidth, declared, s, data):
        op = build("cubicRd", d=d, seed=seed, scale=scale)
        n = data.draw(st.integers(3, {1: 61, 2: 9, 3: 5}[d]), label="grid_n")
        assert_screen_matches_all_svd(op, op.smoothness if declared else s, halfwidth, n)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10 ** 6), s=_CONSTANTS)
    def test_rank_one_equals_all_svd(self, n, seed, s):
        # ||J|| = ||J||_F: the Frobenius upper bound on ||J|| is attained
        rng = np.random.default_rng(seed)
        M = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        assert_screen_matches_all_svd(affine_operator(M), s, 3.0, {2: 41, 3: 11}.get(n, 5))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 5), c=st.floats(-10.0, 10.0), s=_CONSTANTS)
    def test_scaled_identity_equals_all_svd(self, n, c, s):
        # ||J|| = ||J||_F / sqrt(n): the lower bound on ||J|| is attained
        op = affine_operator(c * np.eye(n))
        assert_screen_matches_all_svd(op, s, 3.0, {2: 41, 3: 11}.get(n, 5))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6), L0=st.floats(0.01, 100.0))
    def test_constant_slack_keeps_the_first_grid_point(self, n, seed, L0):
        # L1 = 0 and a constant Jacobian: every point ties on L0 - ||M||
        M = np.random.default_rng(seed).standard_normal((n, n))
        op = affine_operator(M)
        fit = assert_screen_matches_all_svd(op, SmoothnessParams(1.0, L0, 0.0), 2.0, 7)
        nf, _ = analysis._grid_norms(op, next(analysis._grid_blocks(2.0, n, 7)))
        assert fit.samples.norm_F[0] == nf[0]

    @pytest.mark.parametrize("J, norm_F, s", [
        # squares of 1.5e-162 underflow to 0, so ||J||_F reads 0 while ||J|| is
        # 3e-162: only the -inf lower bound of such a row keeps the minimum
        ([2.3e-162 * np.diag([1.0, 0.0]), 1.5e-162 * np.ones((2, 2))], [0.0, 0.0],
         SmoothnessParams(1.0, 1e-161, 0.0)),
        # ||J||_F overflows while ||J|| = 2e154 and the slack stay finite; the
        # minimum sits on a finite row
        ([np.eye(2), 1e154 * np.ones((2, 2))], [0.0, 1e150], SmoothnessParams(1.0, 2.0, 1e10)),
        # rank 1, so ||J|| = ||J||_F in exact arithmetic, but LAPACK's ||J||
        # reads above the computed ||J||_F; the second row ties on the slack
        # L0 = ||J||, so the first row is kept only by the margin of the lower bound
        ([RANK_ONE, np.zeros((2, 2))], [1.0, 0.0],
         SmoothnessParams(1.0, RANK_ONE_NORM, RANK_ONE_NORM)),
        # both rows have slack c; ||cI||_F / sqrt(3) reads 2 ulps above ||cI|| = c,
        # so without the margin the second row's upper bound would read 2 ulps
        # below c, under the first row's lower bound c - 1e-50 = c
        ([1e-50 * np.eye(3), 1.00025 * np.eye(3)], [0.0, 1.0],
         SmoothnessParams(1.0, 1.00025, 1.00025)),
        # every slack rounds to 1e20, so the first row's lower bound equals the
        # second row's exact upper bound, and the first row must be kept
        ([np.eye(2), np.zeros((2, 2))], [0.0, 0.0], SmoothnessParams(1.0, 1e20, 0.0)),
    ], ids=["underflow", "overflow", "rank-one-tie", "identity-tie", "absorbed-tie"])
    def test_extreme_frobenius_norms_equal_all_svd(self, J, norm_F, s):
        # one block: the 2^dim points of a 2-per-axis grid, the last row repeated
        dim = J[0].shape[0]
        Js = np.array(J + [J[-1]] * (2 ** dim - len(J)))
        Fs = np.zeros((2 ** dim, dim))
        Fs[:, 0] = norm_F + [norm_F[-1]] * (2 ** dim - len(J))
        op = OperatorInstance(dim=dim, fn=lambda x: np.zeros(dim), label="custom",
                              fn_batch=lambda X: Fs, jacobian_batch=lambda X: Js)
        assert_screen_matches_all_svd(op, s, 1.0, 2)

    def test_svd_runs_on_few_forsaken_points(self, monkeypatch):
        rows = []
        svd = analysis.la.svd

        def counting(J, **kw):
            rows.append(len(J))
            return svd(J, **kw)
        monkeypatch.setattr(analysis.la, "svd", counting)
        op = build("forsaken")
        box = default_box("forsaken", 2)
        verify_condition(op, op.smoothness, box, 201)
        assert 0 < sum(rows) < 0.05 * 201 ** 2
        rows.clear()
        grid_samples(op, box, 201)
        assert sum(rows) == 201 ** 2


class TestGridPoints:
    def test_points_in_lexicographic_order(self):
        pts = list(grid_points([(-1.0, 1.0), (0.0, 2.0)], 2, 3))
        assert [p.tolist() for p in pts] == [[a, b] for a in (-1.0, 0.0, 1.0)
                                             for b in (0.0, 1.0, 2.0)]

    def test_size_limits(self):
        check_grid(2, 1000)   # exactly MAX_GRID_POINTS
        assert 1000 ** 2 == MAX_GRID_POINTS
        for dim, n in [(2, 1), (2, 0), (2, -3), (2, 1001), (20, 7)]:
            with pytest.raises(ValueError):
                check_grid(dim, n)
            with pytest.raises(ValueError):
                grid_points(1.0, dim, n)

    def test_oversized_grid_raises_before_any_evaluation(self):
        calls = []
        op = OperatorInstance(dim=20, fn=lambda x: calls.append(x) or x,
                              jacobian=lambda x: calls.append(x) or np.eye(20))
        with pytest.raises(ValueError):
            verify_condition(op, SmoothnessParams(1.0, 1.0, 1.0), 1.0, 7)
        assert calls == []


class TestPairChecks:
    def test_segment_route_declared_constants(self):
        op = build("square")
        rep = verify_segment_condition(op, op.smoothness, pairs=1000)
        assert rep.route == "segment-max"
        assert rep.n_pairs == 1000
        assert rep.n_violations == 0 and rep.passed
        assert rep.min_slack > 0

    def test_segment_route_huge_L0_always_passes(self):
        op = build("square")
        rep = verify_segment_condition(op, SmoothnessParams(1.0, 1e6, 0.0), pairs=200)
        assert rep.n_violations == 0

    def test_segment_route_catches_bad_constants(self):
        # on a small box the segment maximum stays small, so a tiny L1 with
        # no L0 cannot cover the actual two-point growth
        op = build("square")
        rep = verify_segment_condition(op, SmoothnessParams(1.0, 0.0, 0.1),
                                       pairs=200, box=1.0)
        assert rep.n_violations > 0 and not rep.passed
        assert rep.min_slack < 0

    def test_two_point_route_exp_form(self):
        op = build("logistic")
        rep = verify_proposition1(op, op.smoothness, pairs=1000)
        assert rep.route == "exp-bound"
        assert rep.n_violations == 0 and rep.passed

    def test_two_point_route_k_form(self):
        op = build("square")
        rep = verify_proposition1(op, op.smoothness, pairs=1000)
        assert rep.route == "k-constants"
        assert rep.n_violations == 0 and rep.passed

    def test_two_point_rhs_formulas(self):
        s1 = SmoothnessParams(1.0, 2.0, 3.0)
        assert prop1_rhs(s1, 1.5, 0.5) == pytest.approx((2.0 + 4.5) * math.exp(1.5) * 0.5, rel=1e-12)
        s2 = SmoothnessParams(0.5, 0.0, 2.0)
        kc = k_constants(s2)
        want = (kc.K0 + kc.K1 * math.sqrt(1.5) + kc.K2 * 0.5) * 0.5
        assert prop1_rhs(s2, 1.5, 0.5) == pytest.approx(want, rel=1e-12)

    def test_zero_operator_trivially_smooth(self):
        op = zero_operator()
        rep = verify_proposition1(op, SmoothnessParams(1.0, 1.0, 0.0), pairs=50)
        assert rep.n_violations == 0

    @pytest.mark.parametrize("check", [verify_segment_condition, verify_proposition1])
    def test_overflowing_pairs_raise(self, check):
        # ||F|| overflows to inf on this box; a NaN slack used to pass silently
        op = build("cubicRd", d=1)
        with pytest.raises(NonFiniteEvaluation, match="pair 0"):
            check(op, op.smoothness, pairs=5, box=1e200)

    @pytest.mark.parametrize("key", ["forsaken", "square"])
    def test_pair_blocks_match_per_pair_loop(self, key):
        # enough pairs for several blocks: the block draws must take the same
        # stream as one draw of x, then y, per pair
        op = build(key)
        s = op.smoothness
        rng, thetas = np.random.default_rng(3), np.linspace(0.0, 1.0, 11)
        seg, prop = [], []
        with overflow_as_data():
            for _ in range(3000):
                x, y = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
                lhs, dist = norm(op(x) - op(y)), norm(x - y)
                seg_max = max(norm(op(t * x + (1.0 - t) * y)) for t in thetas)
                seg.append((s.L0 + s.L1 * pow_alpha(seg_max, s.alpha)) * dist + 1e-10 - lhs)
        rng = np.random.default_rng(3)
        for _ in range(3000):
            x, y = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
            prop.append(prop1_rhs(s, norm(op(x)), norm(x - y)) + 1e-9 - norm(op(x) - op(y)))
        rep = verify_segment_condition(op, s, pairs=3000, theta_grid=11, box=2.0, seed=3)
        assert rep.min_slack == pytest.approx(min(seg), rel=1e-12)
        assert rep.n_violations == sum(v < 0 for v in seg)
        rep = verify_proposition1(op, s, pairs=3000, box=2.0, seed=3)
        assert rep.min_slack == pytest.approx(min(prop), rel=1e-12)
        assert rep.n_violations == sum(v < 0 for v in prop)

    @pytest.mark.parametrize("scale", [1.0, 0.1], ids=["declared", "tenth"])
    @pytest.mark.parametrize("key", ["square", "logistic", "forsaken"])
    def test_proposition1_matches_a_scalar_loop(self, key, scale):
        # Proposition 1 written out per pair with math.exp and scalar K
        # constants, over three blocks of pairs; a tenth of the declared
        # constants makes violations to count
        op = build(key)
        s = dataclasses.replace(op.smoothness, L0=scale * op.smoothness.L0,
                                L1=scale * op.smoothness.L1)
        a = s.alpha
        rng, slacks = np.random.default_rng(5), []
        for _ in range(3000):
            x, y = rng.uniform(-3.0, 3.0, 2), rng.uniform(-3.0, 3.0, 2)
            nfx, dist = norm(op(x)), norm(x - y)
            if a == 1.0:
                rhs = (s.L0 + s.L1 * nfx) * math.exp(s.L1 * dist) * dist
            else:
                kc = k_constants(s)
                rhs = (kc.K0 + kc.K1 * nfx ** a + kc.K2 * dist ** (a / (1.0 - a))) * dist
            slacks.append(rhs + 1e-9 - norm(op(x) - op(y)))
        rep = verify_proposition1(op, s, pairs=3000, seed=5)
        assert rep.route == ("exp-bound" if a == 1.0 else "k-constants")
        assert rep.n_violations == sum(v < 0 for v in slacks)
        assert rep.min_slack == pytest.approx(min(slacks), rel=1e-12)

    def test_proposition1_rhs_takes_arrays_and_zero(self):
        s = SmoothnessParams(0.5, 1.0, 2.0)
        kc = k_constants(s)
        nf, dist = np.array([0.0, 1.5, 4.0]), np.array([0.5, 0.0, 2.0])
        want = [(kc.K0 + kc.K1 * f ** 0.5 + kc.K2 * d) * d for f, d in zip(nf, dist)]
        assert prop1_rhs(s, nf, dist) == pytest.approx(want, rel=1e-12)
        assert prop1_rhs(s, 0.0, 0.5) == pytest.approx((kc.K0 + kc.K2 * 0.5) * 0.5, rel=1e-12)
        assert prop1_rhs(SmoothnessParams(1.0, 1.0, 1e3), 1.0, 1.0) == math.inf   # no warning

    def test_proposition1_pair_limit(self):
        def evaluate(*a, **kw):
            raise AssertionError("an operator was evaluated before the size check")
        op = OperatorInstance(dim=2, fn=evaluate, fn_batch=evaluate)
        with pytest.raises(ValueError, match="pairs must lie in"):
            verify_proposition1(op, SmoothnessParams(1.0, 1.0, 1.0),
                                pairs=MAX_GRID_POINTS // 2 + 1)

    @pytest.mark.parametrize("batched", [False, True])
    def test_one_evaluation_per_point(self, batched):
        rows = []

        def fn(x):
            rows.append(1)
            return x * np.abs(x)

        def fn_batch(X):
            rows.append(X.shape[0])
            return X * np.abs(X)

        op = OperatorInstance(dim=2, fn=fn, fn_batch=fn_batch if batched else None)
        s = SmoothnessParams(1.0, 1.0, 2.0)
        verify_segment_condition(op, s, pairs=30, theta_grid=11, box=2.0)
        assert sum(rows) == 30 * 11
        rows.clear()
        verify_proposition1(op, s, pairs=30, box=2.0)
        assert sum(rows) == 2 * 30

    def test_pair_count_validation(self):
        op = build("square")
        with pytest.raises(ValueError):
            verify_segment_condition(op, op.smoothness, pairs=0)
        with pytest.raises(ValueError):
            verify_proposition1(op, op.smoothness, pairs=0)

    def test_pair_limit(self):
        check_pairs(MAX_GRID_POINTS // 101)
        check_pairs(MAX_GRID_POINTS // 11, theta_grid=11)
        for pairs, theta_grid in ((0, 101), (MAX_GRID_POINTS // 101 + 1, 101), (10, 1)):
            with pytest.raises(ValueError):
                check_pairs(pairs, theta_grid)

        def evaluate(*a, **kw):
            raise AssertionError("an operator was evaluated before the size check")
        op = OperatorInstance(dim=2, fn=evaluate, fn_batch=evaluate)
        with pytest.raises(ValueError, match="pairs must lie in"):
            verify_segment_condition(op, SmoothnessParams(1.0, 1.0, 1.0),
                                     pairs=MAX_GRID_POINTS // 101 + 1)


class TestFitConstants:
    def test_affine_operator_recovers_constant_norm(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=60, x0=[1.0, 1.0], stop_tol=0.0))
        samples = scatter_from_trace(op, tr)
        fit = fit_constants(samples, [0.25, 0.5, 1.0])
        assert fit.alpha_hat == 0.25   # full tie across alphas; first grid entry wins
        assert fit.L0_hat == pytest.approx(SQ2, abs=1e-6)
        assert fit.L1_hat <= 1e-9
        assert fit.passed

    def test_synthetic_affine_fit_and_scaling(self):
        nf = np.linspace(0.0, 4.0, 30)
        base = ScatterSamples(nf, 1.0 + 2.0 * nf)
        fit = fit_constants(base, [1.0])
        assert fit.L0_hat == pytest.approx(1.0, abs=1e-8)
        assert fit.L1_hat == pytest.approx(2.0, abs=1e-8)
        doubled = ScatterSamples(base.norm_F, 2.0 * base.norm_J)
        fit2 = fit_constants(doubled, [1.0])
        assert fit2.L0_hat == pytest.approx(2.0, abs=1e-8)
        assert fit2.L1_hat == pytest.approx(4.0, abs=1e-8)

    def test_fit_is_an_envelope(self):
        rng = np.random.default_rng(11)
        nf = rng.uniform(0.0, 5.0, 40)
        samples = ScatterSamples(nf, [0.5 + f + 0.2 * rng.uniform() for f in nf])
        fit = fit_constants(samples, [0.5, 1.0])
        assert fit.max_violation >= -1e-9
        for sm in sample_rows(samples):
            bound = fit.L0_hat + fit.L1_hat * sm.norm_F ** fit.alpha_hat
            assert sm.norm_J <= bound + 1e-9

    def test_growth_rate_recovered_from_run(self):
        op = build("logistic")
        tr = solve(op, parse_policy("thm5"),
                   SolveConfig(max_iters=200, x0=[2.0, 2.0], stop_tol=0.0))
        fit = fit_constants(scatter_from_trace(op, tr), [1.0])
        assert fit.L1_hat == pytest.approx(SQ2, rel=0.1)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_matches_per_sample_pow_alpha_loop(self, alpha):
        # the alpha column is one array expression, whose exp/log may round
        # differently from math's in the last bit: equal to 1e-12
        samples = grid_samples(build("cubic1d"), 1.0, 9)   # (0, 0) gives ||F|| = 0
        nf, nj = samples.norm_F, samples.norm_J
        col = np.array([pow_alpha(v, alpha) for v in nf])
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(col), col]), nj, rcond=None)
        L0, L1 = max(float(coef[0]), 0.0), max(float(coef[1]), 0.0)
        L0 += max(float(np.max(nj - (L0 + L1 * col))), 0.0)
        fit = fit_constants(samples, [alpha])
        assert fit.L0_hat == pytest.approx(L0, rel=1e-12)
        assert fit.L1_hat == pytest.approx(L1, rel=1e-12)
        assert fit.max_violation == pytest.approx(float(np.min(L0 + L1 * col - nj)), abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSamples):
            fit_constants(ScatterSamples([0.0, 1.0], [1.0, 2.0]), [1.0])
        same = ScatterSamples([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSamples):
            fit_constants(same, [1.0])

    def test_alpha_grid_validation(self):
        s = ScatterSamples([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        from egsolve.core import InvalidAlpha
        with pytest.raises(InvalidAlpha):
            fit_constants(s, [1.5])
        with pytest.raises(ValueError, match="alpha grid is empty"):
            fit_constants(s, [])
        for grid in ([0.5, 0.0], [math.nan], [0.5, 2.0]):
            with pytest.raises(InvalidAlpha):
                check_alpha_grid(grid)
        check_alpha_grid([1e-9, 0.5, 1.0])


class TestTheoreticalBounds:
    def test_linear_rate_strongly_monotone(self):
        op = build("quadratic")
        rep = theoretical_bounds(op, PolicyKind.STRONG_MONO, [1.0, 1.0])
        assert rep.zeta == pytest.approx(0.2569698113202087, rel=1e-12)
        assert rep.rate == pytest.approx(0.7430301886797913, rel=1e-12)
        assert 0.0 < rep.rate < 1.0

    def test_iteration_count_bound(self):
        op = build("quadratic")
        rep = theoretical_bounds(op, PolicyKind.STRONG_MONO_DESCENT, [1.0, 1.0],
                                 epsilon=1e-8)
        assert rep.term1 == pytest.approx(251.89458993026955, rel=1e-12)
        assert rep.term2 == 0.0   # no norm term in the declared constants
        assert rep.iters_to_eps == rep.term1
        with pytest.raises(ValueError):
            theoretical_bounds(op, PolicyKind.STRONG_MONO_DESCENT, [1.0, 1.0])

    def test_sublinear_constant_monotone(self):
        op = build("quadratic")
        rep = theoretical_bounds(op, PolicyKind.MONO, [1.0, 1.0])
        assert rep.sublinear_const == pytest.approx(39.40094315531152, rel=1e-12)

    def test_weak_minty_margin_can_be_void(self):
        op = build("forsaken")
        rep = theoretical_bounds(op, PolicyKind.WEAK_MINTY, [1.0, 1.0],
                                 s=SmoothnessParams(1.0, 1.0, 1.0))
        assert rep.delta == pytest.approx(-0.3957327401376065, rel=1e-12)
        assert rep.guarantee_void
        assert rep.sublinear_const is None

    def test_weak_minty_fractional_margin(self):
        op = build("square")
        m = MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.001)
        rep = theoretical_bounds(op, PolicyKind.WEAK_MINTY_FRAC, [1.0, 1.0], m=m)
        assert rep.delta == pytest.approx(0.027279758280097054, rel=1e-12)
        assert rep.sublinear_const == pytest.approx(3314.67602735534, rel=1e-12)
        assert not rep.guarantee_void
        # formula identity, recomputed from the constants
        kc = k_constants(op.smoothness)
        D = rep.D
        M = (kc.K1 + 2.0 ** -1.5 * math.sqrt(kc.K2)) * math.sqrt(kc.K0 + kc.K2 * D) * math.sqrt(D)
        zeta = 1.0 / (2.0 * SQ2 * (kc.K0 + M))
        assert rep.zeta == pytest.approx(zeta, rel=1e-12)
        assert rep.sublinear_const == pytest.approx(4.0 * (kc.K0 + M) * D * D / rep.delta, rel=1e-12)

    def test_missing_data_paths(self):
        from egsolve.core import InvalidAlpha
        op_nosol = OperatorInstance(dim=2, fn=lambda x: x, label="raw")
        with pytest.raises(MissingSolution):
            theoretical_bounds(op_nosol, PolicyKind.MONO, [1.0, 1.0])
        op = zero_operator()   # declares no smoothness constants
        with pytest.raises(MissingConstant):
            theoretical_bounds(op, PolicyKind.MONO, [1.0, 1.0])
        cub = build("cubic1d")   # no strong monotonicity modulus declared
        with pytest.raises(MissingConstant):
            theoretical_bounds(cub, PolicyKind.STRONG_MONO, [1.0, 1.0])
        sq = build("square")   # fractional exponent, alpha = 1 bound refuses
        with pytest.raises(InvalidAlpha):
            theoretical_bounds(sq, PolicyKind.MONO, [1.0, 1.0])
        quad = build("quadratic")
        with pytest.raises(MissingConstant):
            theoretical_bounds(quad, PolicyKind.CONSTANT, [1.0, 1.0])

    def test_weak_minty_bounds_take_rho_0_below_weak_minty(self):
        # a (strongly) monotone operator is weak Minty with rho = 0, as the
        # invariant checker and resolve_policy take it; no class, no rho
        wm0 = MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.0)
        frac = SmoothnessParams(0.5, 1.0, 1.0)
        for key in ("quadratic", "signpower", "cubicRd"):
            op = build(key)
            x0 = op.solution + 1.0
            rep = theoretical_bounds(op, PolicyKind.WEAK_MINTY, x0)
            assert rep == theoretical_bounds(op, PolicyKind.WEAK_MINTY, x0, m=wm0)
            assert rep.delta == rep.zeta > 0.0 and math.isfinite(rep.sublinear_const)
            assert (theoretical_bounds(op, PolicyKind.WEAK_MINTY_FRAC, x0, s=frac)
                    == theoretical_bounds(op, PolicyKind.WEAK_MINTY_FRAC, x0, s=frac, m=wm0))
        bare = OperatorInstance(dim=2, fn=lambda x: x, solution=np.zeros(2),
                                smoothness=SmoothnessParams(1.0, 1.0, 0.0), label="bare")
        for kind in (PolicyKind.WEAK_MINTY, PolicyKind.WEAK_MINTY_FRAC):
            with pytest.raises(MissingConstant, match="weak-Minty rho"):
                theoretical_bounds(bare, kind, [1.0, 1.0], s=frac if kind.nu is None else None)

    def test_iteration_count_step_growth_term(self):
        # L1 > 0: cor1 adds log(2 L1 D^2 / (zeta^2 L0)) / (zeta mu) to the count
        s = SmoothnessParams(1.0, 2.0, 0.5)
        m = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=0.5)
        rep = theoretical_bounds(build("quadratic"), PolicyKind.STRONG_MONO_DESCENT, [1.0, 1.0],
                                 epsilon=1e-8, s=s, m=m)
        D, zeta = rep.D, rep.zeta
        assert zeta == pytest.approx(parse_policy("cor1").rule(s)(2.0 * math.exp(0.5 * D) * D),
                                     rel=1e-15)
        term2 = math.log(2.0 * 0.5 * D * D / (zeta ** 2 * 2.0)) / (zeta * 0.5)
        assert rep.term2 == pytest.approx(term2, rel=1e-12) and rep.term2 > 0
        assert rep.iters_to_eps == rep.term1 + rep.term2

    def test_weak_minty_fractional_margin_can_be_void(self):
        op = build("square")
        m = MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.01)   # 4 rho > zeta = 0.0313
        rep = theoretical_bounds(op, PolicyKind.WEAK_MINTY_FRAC, [1.0, 1.0], m=m)
        assert rep.delta == pytest.approx(rep.zeta - 0.04, rel=1e-12) and rep.delta < 0
        assert rep.guarantee_void
        assert rep.sublinear_const is None

    def test_bounds_are_defined_where_the_ball_bound_overflows(self):
        # fig4's operator and start: L1 D = 21,377 overflows exp(L1 D)
        from egsolve.cli import parse_x0
        op = build("cubicRd", d=10, seed=42, scale=5)
        x0 = parse_x0("rand:1000", op.dim, 42)
        strong = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=1.0)
        minty = MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mono = theoretical_bounds(op, PolicyKind.MONO, x0)
            rate = theoretical_bounds(op, PolicyKind.STRONG_MONO, x0, m=strong)
            count = theoretical_bounds(op, PolicyKind.STRONG_MONO_DESCENT, x0, epsilon=1e-8,
                                       m=strong)
            void = theoretical_bounds(op, PolicyKind.WEAK_MINTY, x0, m=minty)
            frac = theoretical_bounds(op, PolicyKind.WEAK_MINTY_FRAC, x0, m=minty,
                                      s=SmoothnessParams(0.5, op.smoothness.L0, op.smoothness.L1))
        assert mono.zeta == 0.0 and mono.sublinear_const == math.inf
        assert rate.zeta == 0.0 and rate.rate == 1.0
        assert count.zeta == 0.0 and count.iters_to_eps == math.inf
        assert void.zeta == 0.0 and void.guarantee_void and void.sublinear_const is None
        assert 0.0 < frac.zeta < math.inf and math.isfinite(frac.sublinear_const)

    def test_bounds_with_no_norm_term_where_the_ball_bound_overflows(self):
        # L1 = 0: the step does not read ||F||, so L0 D = 1e310 overflowing leaves it nu / L0
        op = OperatorInstance(dim=2, fn=lambda x: x, solution=np.zeros(2), label="identity")
        x0 = [1e150, 0.0]
        strong = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=1e159)
        minty = MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=1e-163)
        cases = [(PolicyKind.STRONG_MONO, 1.0, strong), (PolicyKind.STRONG_MONO_DESCENT, 1.0, strong),
                 (PolicyKind.MONO, 1.0, None), (PolicyKind.WEAK_MINTY, 1.0, minty),
                 (PolicyKind.WEAK_MINTY_FRAC, 0.5, minty)]
        for kind, alpha, m in cases:
            s = SmoothnessParams(alpha, 1e160, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = theoretical_bounds(op, kind, x0, epsilon=1e-8, s=s, m=m)
            want = _closed_forms(kind, s, m, 1e150, 1e-8)
            assert got.zeta > 0.0 and got.guarantee_void == want.guarantee_void, kind
            for f in ("zeta", "rate", "delta", "term1", "term2", "iters_to_eps", "sublinear_const"):
                a, b = getattr(got, f), getattr(want, f)
                assert (a is None) == (b is None), (kind, f)
                if a is not None:
                    assert type(a) is float and a == pytest.approx(b, rel=1e-12), (kind, f)

    def test_matches_closed_forms_over_random_constants(self):
        # every field within 1e-12 of the formulas written out from the constants,
        # the same exception type where they raise, and Python floats throughout
        rng = np.random.default_rng(17)
        op = OperatorInstance(dim=2, fn=lambda x: x, solution=np.zeros(2), label="identity")
        kinds = [PolicyKind.STRONG_MONO, PolicyKind.STRONG_MONO_DESCENT, PolicyKind.MONO,
                 PolicyKind.WEAK_MINTY, PolicyKind.WEAK_MINTY_FRAC, PolicyKind.CONSTANT]
        compared = raised = 0
        for _ in range(400):
            kind = kinds[rng.integers(len(kinds))]
            # mostly the exponent and the class that the kind's bound reads
            fits = rng.random() < 0.85
            alpha = 1.0 if fits == (kind.nu is not None) else float(rng.uniform(0.05, 0.95))
            L0 = 0.0 if rng.random() < 0.15 else float(10.0 ** rng.uniform(-2, 2))
            L1 = 0.0 if rng.random() < 0.2 and L0 > 0 else float(10.0 ** rng.uniform(-2, 1))
            s = SmoothnessParams(alpha, L0, L1)
            m = [None, MonotonicityParams(MonotoneClass.MONOTONE),
                 MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=float(10.0 ** rng.uniform(-2, 1))),
                 MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=float(10.0 ** rng.uniform(-5, -1)))]
            m = m[2 if "strong" in kind.value else 3] if fits else m[rng.integers(4)]
            x0 = (10.0 ** rng.uniform(-2, 1)) * rng.standard_normal(2)
            epsilon = None if rng.random() < 0.1 else float(10.0 ** rng.uniform(-10, -1))
            try:
                want = _closed_forms(kind, s, m, norm(x0), epsilon)
            except Exception as e:
                with pytest.raises(type(e)):
                    theoretical_bounds(op, kind, x0, epsilon=epsilon, s=s, m=m)
                raised += 1
                continue
            got = theoretical_bounds(op, kind, x0, epsilon=epsilon, s=s, m=m)
            assert got.guarantee_void == want.guarantee_void
            for f in dataclasses.fields(BoundReport):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name in ("kind", "guarantee_void"):
                    continue
                assert (a is None) == (b is None), f.name
                if a is not None:
                    assert type(a) is float, f.name
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-300), (f.name, kind, s, m)
            compared += 1
        assert compared > 200 and raised > 50


def _closed_forms(kind, s, m, D, epsilon):
    """The guarantee constants written out from (alpha, L0, L1), mu, rho and D:
    zeta = nu / (L0 (1 + L1 e^{L1 D} D)) at alpha = 1, and thm9's M from the
    K constants and D."""
    from egsolve.core import InvalidAlpha
    from egsolve.stepsize import solve_nu
    rep = BoundReport(kind=kind, D=D)
    mu = m.mu if m is not None and m.kind is MonotoneClass.STRONGLY_MONOTONE else None
    rho = m.rho if m is not None else None   # 0 below weak Minty
    L0, L1 = s.L0, s.L1
    if kind.nu is not None:
        if s.alpha != 1.0:
            raise InvalidAlpha("alpha = 1 bound")
        if L0 <= 0.0:
            raise MissingConstant("needs L0 > 0")
        nu = solve_nu(kind.nu)
        amp = 1.0 + L1 * math.exp(L1 * D) * D
        rep.zeta = nu / (L0 * amp)
        if kind is PolicyKind.STRONG_MONO:
            if mu is None:
                raise MissingConstant("needs mu")
            rep.rate = 1.0 - rep.zeta * mu
        elif kind is PolicyKind.STRONG_MONO_DESCENT:
            if epsilon is None:
                raise ValueError("needs epsilon")
            if mu is None:
                raise MissingConstant("needs mu")
            rep.term1 = (2.0 * L0 / (nu * mu)) * math.log(D * D / epsilon)
            if L1 == 0.0:
                rep.term2 = 0.0
            else:
                arg = 2.0 * L1 * D * D / (rep.zeta ** 2 * L0)
                rep.term2 = max(math.log(arg) / (rep.zeta * mu), 0.0) if arg > 0 else 0.0
            rep.iters_to_eps = rep.term1 + rep.term2
        elif kind is PolicyKind.MONO:
            rep.sublinear_const = 2.0 * L0 * L0 * amp * amp * D * D / (nu * nu)
        else:
            if rho is None:
                raise MissingConstant("needs rho")
            rep.delta = rep.zeta - 4.0 * rho
            if rep.delta <= 0:
                rep.guarantee_void = True
            else:
                rep.sublinear_const = 4.0 * L0 * amp * D * D / (nu * rep.delta)
        return rep
    if kind is PolicyKind.WEAK_MINTY_FRAC:
        if rho is None:
            raise MissingConstant("needs rho")
        kc = k_constants(s)
        a = s.alpha
        M = ((kc.K1 + 2.0 ** -1.5 * kc.K2 ** (1.0 - a))
             * pow_alpha(kc.K0 + kc.K2 * pow_alpha(D, a / (1.0 - a)), a) * pow_alpha(D, a))
        denom = kc.K0 + M
        rep.zeta = 1.0 / (2.0 * math.sqrt(2.0) * denom)
        rep.delta = rep.zeta - 4.0 * rho
        if rep.delta <= 0:
            rep.guarantee_void = True
        else:
            rep.sublinear_const = 4.0 * denom * D * D / rep.delta
        return rep
    raise MissingConstant("no closed form")


class TestCsvRoundTrip:
    def test_scatter(self, tmp_path):
        samples = ScatterSamples([0.5, 1.0 / 3.0], [1.25, 2.0], [0, -1])
        p = str(tmp_path / "scatter.csv")
        write_scatter_csv(samples, p)
        back = read_scatter_csv(p)
        assert sample_rows(back) == sample_rows(samples)

    def test_fit(self, tmp_path):
        op = build("quadratic")
        fit = verify_condition(op, op.smoothness, 5.0, 11)
        p = str(tmp_path / "fit.csv")
        write_fit_csv(fit, p)
        back = read_fit_csv(p)
        assert (back.alpha_hat, back.L0_hat, back.L1_hat) == (
            fit.alpha_hat, fit.L0_hat, fit.L1_hat)
        assert back.max_violation == fit.max_violation

    def test_fit_csv_holds_one_row(self, tmp_path):
        p = tmp_path / "fit.csv"
        write_fit_csv(analysis.SmoothnessFit(1.0, 1.0, 1.0, max_violation=0.0), str(p))
        p.write_text(p.read_text() + "0.5,2.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="a fit CSV holds one row, found 2"):
            read_fit_csv(str(p))

    def test_fit_of_numpy_scalars(self, tmp_path):
        # cubicRd declares numpy float64 constants, which the fit echoes
        op = build("cubicRd", d=2)
        fit = verify_condition(op, op.smoothness, 1.0, 5)
        fields = (fit.alpha_hat, fit.L0_hat, fit.L1_hat, fit.max_violation)
        assert any(isinstance(v, np.floating) for v in fields)
        p = tmp_path / "fit.csv"
        write_fit_csv(fit, str(p))
        assert "np." not in p.read_text()
        back = read_fit_csv(str(p))
        assert (back.alpha_hat, back.L0_hat, back.L1_hat, back.max_violation) == fields
