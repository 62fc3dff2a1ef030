import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsolve.core import (
    EmptyTrace,
    IncompatiblePolicy,
    MonotoneClass,
    NonFiniteIterate,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    norm,
)
from egsolve.operators import build
from egsolve.solver import (
    check_descent_invariants,
    check_policy_compat,
    eg_step,
    read_trace_csv,
    solve,
    write_trace_csv,
)
from egsolve.stepsize import PolicyKind, StepSizePolicy, parse_policy


class TestEgStep:
    def test_hand_worked_quadratic(self):
        op = build("quadratic")
        st = eg_step(op, [1.0, 1.0], parse_policy("const:0.1"))
        assert st.gamma_k == 0.1 and st.omega_k == 0.1
        assert np.allclose(st.xhat, [0.8, 1.0], atol=1e-15)
        assert np.allclose(st.F_xhat, [1.8, 0.2], atol=1e-15)
        assert np.allclose(st.next_x, [0.82, 0.98], atol=1e-15)

    def test_halved_update(self):
        op = build("quadratic")
        st = eg_step(op, [1.0, 1.0], parse_policy("egplus:0.1"))
        assert st.omega_k == pytest.approx(0.05)
        assert np.allclose(st.next_x, np.array([1.0, 1.0]) - 0.05 * st.F_xhat)

    def test_norm_adaptive_gamma_used(self):
        op = build("quadratic")
        st = eg_step(op, [1.0, 1.0], parse_policy("thm3"))
        nF = float(np.linalg.norm(op(np.array([1.0, 1.0]))))
        s = op.smoothness
        assert st.gamma_k == pytest.approx(0.363410192289494 / (s.L0 + s.L1 * nF), rel=1e-12)


class TestCompat:
    def test_strict_rejects_mismatch(self):
        op = build("cubic1d")  # declares no monotonicity class at all
        with pytest.raises(IncompatiblePolicy):
            check_policy_compat(op, parse_policy("thm3"))

    def test_force_downgrades_to_warning(self):
        op = build("cubic1d")
        with pytest.warns(UserWarning):
            check_policy_compat(op, parse_policy("thm3"), force=True)

    def test_unrestricted_kinds_pass(self):
        op = build("forsaken")
        for key in ("const:0.1", "adaptive:1:1", "egplus:0.1"):
            check_policy_compat(op, parse_policy(key))

    def test_weak_minty_kind_accepts_declared_class(self):
        check_policy_compat(build("forsaken"), parse_policy("thm8"))
        check_policy_compat(build("quadratic"), parse_policy("thm8"))

    def test_solve_refuses_then_forces(self):
        op = build("cubic1d")
        cfg = SolveConfig(max_iters=5, x0=[0.5, 0.5])
        with pytest.raises(IncompatiblePolicy):
            solve(op, parse_policy("thm3"), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tr = solve(op, parse_policy("thm3"), cfg, force=True)
        assert tr.iterations_run >= 1


class TestSolve:
    def test_quadratic_norm_rule_hits_default_tolerance(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=1000, x0=[1.0, 1.0])
        tr = solve(op, parse_policy("thm3"), cfg)
        assert tr.reason == "stop_tol"
        assert tr.iterations_run == 117
        assert tr.min_norm_F_x == pytest.approx(8.255489269774815e-15, rel=1e-12)
        assert tr.final_dist_sq == pytest.approx(3.4076551541683556e-29, rel=1e-12)

    def test_terminal_row_is_recorded_but_not_updated(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=1000, x0=[1.0, 1.0])
        tr = solve(op, parse_policy("thm3"), cfg)
        last = tr.rows[-1]
        assert last.k == tr.iterations_run
        assert last.norm_F_x <= cfg.stop_tol
        assert last.gamma_k > 0 and last.omega_k > 0
        assert np.allclose(tr.final_x, last.x_k)
        assert float(np.linalg.norm(op(tr.final_x))) <= cfg.stop_tol

    def test_budget_exhaustion_reason(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=10, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm3"), cfg)
        assert tr.reason == "max_iters"
        assert tr.iterations_run == 10
        # one row per transition; the final iterate lives in the summary fields
        assert len(tr.rows) == 10
        assert tr.final_dist_sq is not None and tr.final_x is not None

    def test_minima_match_rows(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm5"), cfg)
        mf, mh = tr.recomputed_minima()
        assert tr.min_norm_F_x == mf
        assert tr.min_norm_F_xhat == mh
        ks = [r.norm_F_x for r in tr.rows]
        assert tr.argmin_norm_F_x == ks.index(mf)

    def test_summary_only_run_keeps_minima(self):
        op = build("quadratic")
        full = solve(op, parse_policy("thm3"),
                     SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0))
        lean = solve(op, parse_policy("thm3"),
                     SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0,
                                 record_trace=False))
        assert lean.rows == []
        assert lean.min_norm_F_x == full.min_norm_F_x
        assert lean.final_dist_sq == full.final_dist_sq
        with pytest.raises(EmptyTrace):
            lean.recomputed_minima()

    def test_divergence_raises_with_partial_trace(self):
        op = build("cubic1d")
        cfg = SolveConfig(max_iters=100, x0=[2.0, 2.0], stop_tol=0.0)
        with pytest.raises(NonFiniteIterate) as ei:
            solve(op, parse_policy("const:10"), cfg)
        err = ei.value
        assert 0 < err.k <= 5
        assert err.trace.reason == "nonfinite"
        assert len(err.trace.rows) >= 1
        assert all(math.isfinite(r.norm_F_x) for r in err.trace.rows)


def _counting(op):
    """Wrap op.fn so that every operator evaluation bumps calls[0]."""
    calls = [0]
    fn = op.fn

    def counted(x):
        calls[0] += 1
        return fn(x)
    op.fn = counted
    return calls


class TestEvaluationCount:
    def test_two_evaluations_per_budget_iteration(self):
        op = build("quadratic")
        calls = _counting(op)
        solve(op, parse_policy("thm3"), SolveConfig(max_iters=10, x0=[1.0, 1.0], stop_tol=0.0))
        assert calls[0] == 20

    def test_stop_tol_terminal_row_costs_two_evaluations(self):
        op = build("quadratic")
        calls = _counting(op)
        tr = solve(op, parse_policy("thm3"), SolveConfig(max_iters=1000, x0=[1.0, 1.0]))
        assert tr.reason == "stop_tol" and tr.iterations_run == 117
        assert calls[0] == 2 * 117 + 2


_ENTRY = st.floats(-2.0, 2.0)


@st.composite
def _affine_runs(draw):
    """A random F(x) = M x on R^2..R^4, a start x0 and a const/adaptive policy."""
    d = draw(st.integers(2, 4))
    M = np.array(draw(st.lists(_ENTRY, min_size=d * d, max_size=d * d))).reshape(d, d)
    x0 = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    if draw(st.booleans()):
        policy = StepSizePolicy(kind=PolicyKind.CONSTANT, step=draw(st.floats(0.01, 0.2)))
    else:
        policy = StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=draw(st.floats(2.0, 20.0)),
                                c1=draw(st.floats(0.0, 5.0)), alpha=draw(st.floats(0.25, 1.0)))
    return M, x0, policy


def _affine(M):
    return OperatorInstance(dim=M.shape[0], fn=lambda x: M @ x,
                            solution=np.zeros(M.shape[0]), label="affine")


def _assert_rows_replay_eg_step(op, x0, policy, tr):
    x = x0
    for r in tr.rows:
        s = eg_step(op, x, policy, k=r.k)
        assert np.array_equal(r.x_k, x)
        assert r.gamma_k == s.gamma_k and r.omega_k == s.omega_k
        assert np.array_equal(r.xhat_k, s.xhat)
        assert r.norm_F_x == norm(s.F_x) and r.norm_F_xhat == norm(s.F_xhat)
        x = s.next_x
    if tr.reason == "max_iters":
        assert np.array_equal(tr.final_x, x)


class TestSolveMatchesStepReplay:
    @settings(max_examples=60, deadline=None)
    @given(_affine_runs())
    def test_budget_rows_equal_eg_step_replay(self, run):
        M, x0, policy = run
        op = _affine(M)
        tr = solve(op, policy, SolveConfig(max_iters=30, x0=x0, stop_tol=0.0))
        # F(x0) = 0 (x0 = 0 or M x0 = 0) stops at once on the terminal row
        assert len(tr.rows) == (30 if tr.reason == "max_iters" else tr.iterations_run + 1)
        _assert_rows_replay_eg_step(op, x0, policy, tr)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.floats(0.5, 2.0), st.data())
    def test_stop_tol_rows_equal_eg_step_replay(self, d, mu, data):
        # mu I plus a skew part is strongly monotone, so a 0.1 step converges
        K = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                        max_size=d * d))).reshape(d, d)
        op = _affine(mu * np.eye(d) + (K - K.T) / 2)
        x0 = np.ones(d)
        policy = StepSizePolicy(kind=PolicyKind.CONSTANT, step=0.1)
        tol = 1e-3 * norm(op(x0))
        tr = solve(op, policy, SolveConfig(max_iters=5000, x0=x0, stop_tol=tol))
        assert tr.reason == "stop_tol"
        last = tr.rows[-1]
        assert last.k == tr.iterations_run and last.norm_F_x <= tol
        assert np.array_equal(tr.final_x, last.x_k)
        _assert_rows_replay_eg_step(op, x0, policy, tr)


class TestInvariants:
    def test_strongly_monotone_contraction(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=500, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm3"), cfg)
        assert tr.final_dist_sq == pytest.approx(2.2824671680592374e-123, rel=1e-9)
        rep = check_descent_invariants(tr, op)
        assert rep.kind is MonotoneClass.STRONGLY_MONOTONE
        assert rep.n_transitions == 500
        assert rep.n_checked == 500
        assert rep.n_violations == 0 and rep.passed

    def test_monotone_descent_high_dim(self):
        op = build("cubicRd", d=10, seed=0, scale=1.0)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(20)
        x0 /= np.linalg.norm(x0)
        cfg = SolveConfig(max_iters=1001, x0=x0, stop_tol=0.0)
        tr = solve(op, parse_policy("thm5"), cfg)
        rep = check_descent_invariants(tr, op)
        assert rep.kind is MonotoneClass.MONOTONE
        assert rep.n_violations == 0 and rep.passed

    def test_weak_minty_conditional_descent(self):
        # locally valid constants near the root; the halved-update rule stops
        # exactly at the origin, so the terminal row carries norm 0
        op = build("forsaken")
        pol = StepSizePolicy(kind=PolicyKind.WEAK_MINTY,
                             smoothness=SmoothnessParams(1.0, 1.0, 1.0))
        cfg = SolveConfig(max_iters=3000, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, pol, cfg)
        assert tr.reason == "stop_tol"
        assert float(np.linalg.norm(tr.final_x)) == 0.0
        rep = check_descent_invariants(tr, op)
        assert rep.kind is MonotoneClass.WEAK_MINTY
        assert rep.n_transitions == 1183
        assert rep.n_checked == 1153  # transitions with gamma_k > 4 rho
        assert rep.n_violations == 0 and rep.passed
        assert rep.max_excess <= 0.0

    def test_tolerance_knob(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=20, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm3"), cfg)
        strict = check_descent_invariants(tr, op, tol=-1.0)
        assert strict.n_violations == strict.n_checked  # negative tol flags everything


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=40, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm3"), cfg)
        p = str(tmp_path / "trace.csv")
        write_trace_csv(tr, p)
        back = read_trace_csv(p)
        assert back.iterations_run == tr.iterations_run
        assert back.reason == tr.reason
        assert back.min_norm_F_x == tr.min_norm_F_x
        assert len(back.rows) == len(tr.rows)
        for a, b in zip(tr.rows, back.rows):
            assert (a.k, a.gamma_k, a.omega_k) == (b.k, b.gamma_k, b.omega_k)
            assert a.norm_F_x == b.norm_F_x
            assert a.norm_F_xhat == b.norm_F_xhat
            assert a.dist_sq == b.dist_sq

    def test_rewrite_is_byte_identical(self, tmp_path):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=25, x0=[0.3, -0.7], stop_tol=0.0)
        tr = solve(op, parse_policy("thm5"), cfg)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_trace_csv(tr, buf1)
        p = str(tmp_path / "t.csv")
        write_trace_csv(tr, p)
        write_trace_csv(read_trace_csv(p), buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_rejects_foreign_csv(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(p))
