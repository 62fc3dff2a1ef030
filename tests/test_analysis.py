import math
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
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
)
from egsolve.operators import build
from egsolve.solver import solve
from egsolve.stepsize import PolicyKind, k_constants, parse_policy

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
