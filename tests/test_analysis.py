import math
import tracemalloc
import warnings

import numpy as np
import pytest

from egsolve.analysis import (
    MAX_GRID_POINTS,
    BoundReport,
    ScatterSample,
    box_bounds,
    check_grid,
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


class TestScatter:
    def test_constant_jacobian_norm(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=60, x0=[1.0, 1.0], stop_tol=0.0))
        samples = scatter_from_trace(op, tr)
        assert len(samples) == 60
        assert all(abs(sm.norm_J - SQ2) <= 1e-9 for sm in samples)
        assert [sm.iterate_index for sm in samples] == list(range(60))

    def test_norm_growth_tracks_residual(self):
        # cubic1d declares no monotonicity class, so the run needs force=True
        op = build("cubic1d")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tr = solve(op, parse_policy("thm5"),
                       SolveConfig(max_iters=400, x0=[2.0, 2.0], stop_tol=0.0),
                       force=True)
        samples = scatter_from_trace(op, tr)
        rho = spearman([sm.norm_F for sm in samples], [sm.norm_J for sm in samples])
        assert rho > 0.99

    def test_start_at_root(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=5, x0=[0.0, 0.0]))
        samples = scatter_from_trace(op, tr)
        assert len(samples) == 1
        assert samples[0].norm_F == 0.0
        assert samples[0].norm_J == pytest.approx(SQ2, abs=1e-9)

    def test_empty_trace_rejected(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("thm3"),
                   SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0,
                               record_trace=False))
        with pytest.raises(EmptyTrace):
            scatter_from_trace(op, tr)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ScatterSample(norm_F=-1.0, norm_J=1.0)
        with pytest.raises(ValueError):
            ScatterSample(norm_F=1.0, norm_J=math.inf)


class TestVerifyCondition:
    def test_generous_constants_pass(self):
        op = build("cubic1d")
        fit = verify_condition(op, SmoothnessParams(1.0, 10.0, 10.0), 50.0, 201)
        assert fit.max_violation == pytest.approx(7.0, rel=1e-12)
        assert fit.passed
        assert fit.samples and fit.samples[0].iterate_index == -1

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
    spectral norm call per grid point."""
    with overflow_as_data():
        return [ScatterSample(norm_F=norm(F(x)), norm_J=spectral_norm(F.jacobian_at(x)))
                for x in grid_points(box, F.dim, n)]


ZOO_GRID_N = {1: 201, 2: 41, 3: 13, 4: 7}


class TestBlockGridRoute:
    @pytest.mark.parametrize("key", sorted(ZOO))
    def test_matches_per_point_loop(self, key):
        op = build(key)
        box, n, s = default_box(key, op.dim), ZOO_GRID_N[op.dim], op.smoothness
        want = per_point_samples(op, box, n)
        got = grid_samples(op, box, n)
        assert len(got) == len(want) == n ** op.dim
        for g, w in zip(got, want):
            assert g.iterate_index == -1
            assert g.norm_F == pytest.approx(w.norm_F, rel=1e-12, abs=1e-300)
            assert g.norm_J == pytest.approx(w.norm_J, rel=1e-12, abs=1e-300)
        slacks = [s.L0 + s.L1 * pow_alpha(w.norm_F, s.alpha) - w.norm_J for w in want]
        i = int(np.argmin(slacks))   # first minimum, as the scalar loop kept it
        fit = verify_condition(op, s, box, n)
        assert fit.max_violation == pytest.approx(slacks[i], rel=1e-12, abs=1e-12)
        (worst,) = fit.samples
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
        base = [ScatterSample(float(f), float(1.0 + 2.0 * f)) for f in nf]
        fit = fit_constants(base, [1.0])
        assert fit.L0_hat == pytest.approx(1.0, abs=1e-8)
        assert fit.L1_hat == pytest.approx(2.0, abs=1e-8)
        doubled = [ScatterSample(sm.norm_F, 2.0 * sm.norm_J) for sm in base]
        fit2 = fit_constants(doubled, [1.0])
        assert fit2.L0_hat == pytest.approx(2.0, abs=1e-8)
        assert fit2.L1_hat == pytest.approx(4.0, abs=1e-8)

    def test_fit_is_an_envelope(self):
        rng = np.random.default_rng(11)
        samples = [ScatterSample(float(f), float(0.5 + f + 0.2 * rng.uniform()))
                   for f in rng.uniform(0.0, 5.0, 40)]
        fit = fit_constants(samples, [0.5, 1.0])
        assert fit.max_violation >= -1e-9
        for sm in samples:
            bound = fit.L0_hat + fit.L1_hat * sm.norm_F ** fit.alpha_hat
            assert sm.norm_J <= bound + 1e-9

    def test_growth_rate_recovered_from_run(self):
        op = build("logistic")
        tr = solve(op, parse_policy("thm5"),
                   SolveConfig(max_iters=200, x0=[2.0, 2.0], stop_tol=0.0))
        fit = fit_constants(scatter_from_trace(op, tr), [1.0])
        assert fit.L1_hat == pytest.approx(SQ2, rel=0.1)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSamples):
            fit_constants([ScatterSample(0.0, 1.0), ScatterSample(1.0, 2.0)], [1.0])
        same = [ScatterSample(1.0, float(j)) for j in (1.0, 2.0, 3.0)]
        with pytest.raises(DegenerateSamples):
            fit_constants(same, [1.0])

    def test_alpha_grid_validation(self):
        s = [ScatterSample(float(f), float(f)) for f in (0.0, 1.0, 2.0)]
        from egsolve.core import InvalidAlpha
        with pytest.raises(InvalidAlpha):
            fit_constants(s, [1.5])
        with pytest.raises(ValueError, match="alpha grid is empty"):
            fit_constants(s, [])


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


class TestCsvRoundTrip:
    def test_scatter(self, tmp_path):
        samples = [ScatterSample(0.5, 1.25, 0), ScatterSample(1.0 / 3.0, 2.0, -1)]
        p = str(tmp_path / "scatter.csv")
        write_scatter_csv(samples, p)
        back = read_scatter_csv(p)
        assert back == samples

    def test_fit(self, tmp_path):
        op = build("quadratic")
        fit = verify_condition(op, op.smoothness, 5.0, 11)
        p = str(tmp_path / "fit.csv")
        write_fit_csv(fit, p)
        back = read_fit_csv(p)
        assert (back.alpha_hat, back.L0_hat, back.L1_hat) == (
            fit.alpha_hat, fit.L0_hat, fit.L1_hat)
        assert back.max_violation == fit.max_violation
