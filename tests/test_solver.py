import copy
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egsolve.core import (
    TRACE_CHUNK,
    DimensionMismatch,
    IncompatiblePolicy,
    InvalidAlpha,
    MissingConstant,
    MissingSolution,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteIterate,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    SolveTrace,
    TraceColumns,
    norm,
)
from egsolve import solver as solver_module, stepsize
from egsolve.analysis import theoretical_bounds
from egsolve.experiments import first_hit
from egsolve.operators import ZOO, build
from egsolve.solver import (
    check_descent_invariants,
    check_policy_compat,
    eg_step,
    read_trace_csv,
    solve,
    write_trace_csv,
)
from egsolve.stepsize import PolicyKind, StepSizePolicy, parse_policy


def _row_cells(rows):
    """Each row's (k, gamma, omega, norm_F_x, norm_F_xhat, dist_sq) from the
    trace's columns, dist_sq None where the trace keeps no distances."""
    d2 = rows.dist_sq if rows.dist_sq is not None else [None] * len(rows)
    return list(zip(range(len(rows)), rows.gamma, rows.omega, rows.norm_F_x,
                    rows.norm_F_xhat, d2))


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
    def test_x0_of_another_dimension_raises(self):
        cfg = SolveConfig(max_iters=5, x0=[1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch, match="x0: expected dimension 2, got 3"):
            solve(build("quadratic"), parse_policy("const:0.1"), cfg)

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
        rows, last = tr.rows, len(tr.rows) - 1
        assert last == tr.iterations_run
        assert rows.norm_F_x[last] <= cfg.stop_tol
        assert rows.gamma[last] > 0 and rows.omega[last] > 0
        assert np.allclose(tr.final_x, rows.x_k[last])
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
        mf, mh = min(tr.rows.norm_F_x), min(tr.rows.norm_F_xhat)
        assert tr.min_norm_F_x == mf
        assert tr.min_norm_F_xhat == mh
        assert tr.argmin_norm_F_x == tr.rows.norm_F_x.tolist().index(mf)

    def test_summary_only_run_keeps_minima(self):
        op = build("quadratic")
        full = solve(op, parse_policy("thm3"),
                     SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0))
        lean = solve(op, parse_policy("thm3"),
                     SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0,
                                 record_trace=False))
        assert len(lean.rows) == 0
        assert lean.min_norm_F_x == full.min_norm_F_x
        assert lean.final_dist_sq == full.final_dist_sq

    def test_divergence_raises_with_partial_trace(self):
        op = build("cubic1d")
        cfg = SolveConfig(max_iters=100, x0=[2.0, 2.0], stop_tol=0.0)
        with pytest.raises(NonFiniteIterate) as ei:
            solve(op, parse_policy("const:10"), cfg)
        err = ei.value
        assert 0 < err.k <= 5
        assert err.trace.reason == "nonfinite"
        assert len(err.trace.rows) >= 1
        assert np.isfinite(err.trace.rows.norm_F_x).all()

    def test_nonfinite_iterate_raises_with_partial_trace(self):
        # F = -1 everywhere: x_1 = 1e308 is finite, x_2 = 2e308 overflows
        op = OperatorInstance(dim=1, fn=lambda x: -np.ones(1))
        cfg = SolveConfig(max_iters=10, x0=[0.0], stop_tol=0.0)
        with pytest.raises(NonFiniteIterate, match="non-finite iterate at iteration 2") as ei:
            solve(op, parse_policy("const:1e308"), cfg)
        tr = ei.value.trace
        assert ei.value.k == 2 and tr.reason == "nonfinite" and len(tr.rows) == 2
        assert tr.rows.norm_F_x.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("op_key,x0,key", [
        ("logistic", [400.0, 400.0], "thm5"),      # F underflows to 0 at a declared class
        ("square", [0.0, 1e-200], "thm7"),
        ("square", [0.0, 0.0], "vankov:1e-310"),   # the 1/(4 mu) cap overflows
    ])
    def test_root_where_the_rule_has_no_step_stops(self, op_key, x0, key):
        op, policy = build(op_key), parse_policy(key)
        with pytest.raises(MissingConstant):   # the rule itself has no step at ||F|| = 0
            policy.rule(op.smoothness)(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # force=True outside square's class
            full, lean = (solve(op, policy, SolveConfig(max_iters=10, x0=x0, record_trace=rec),
                                force=True) for rec in (True, False))
        for tr in (full, lean):
            assert (tr.reason, tr.iterations_run) == ("stop_tol", 0)
            assert (tr.min_norm_F_x, tr.argmin_norm_F_x) == (0.0, 0)
            assert (tr.min_norm_F_xhat, tr.argmin_norm_F_xhat) == (0.0, 0)
            assert np.array_equal(tr.final_x, x0)
        # its one row takes no step: gamma = omega = 0 and xhat = x
        rows = full.rows
        assert (len(rows), rows.gamma[0], rows.omega[0], rows.norm_F_x[0], rows.norm_F_xhat[0]) == (
            1, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(rows.xhat_k, rows.x_k)

    def test_no_step_away_from_a_stop_still_raises(self):
        # L1 ||F|| = 2.8e-320 > 0, but the cap 1 / (2 sqrt(2) e L1 ||F||) overflows
        policy = StepSizePolicy(kind=PolicyKind.VANKOV, mu=1e-310,
                                smoothness=SmoothnessParams(1.0, 0.0, 1e-320))
        with pytest.raises(MissingConstant, match="Vankov baseline needs"):
            solve(build("quadratic"), policy, SolveConfig(max_iters=10, x0=[1.0, 1.0]))

    @pytest.mark.parametrize("start,k", [(1e5, 2), (1e10, 1)])
    def test_overflow_raises_without_runtime_warning(self, start, k):
        # from 1e5, F(x_2) overflows; from 1e10, F(xhat_1) does
        op = build("cubicRd", d=2)
        cfg = SolveConfig(max_iters=100, x0=np.full(op.dim, start), stop_tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate) as ei:
                solve(op, parse_policy("const:1"), cfg)
        tr = ei.value.trace
        assert ei.value.k == k and tr.reason == "nonfinite" and len(tr.rows) == k
        assert (tr.min_norm_F_x, tr.min_norm_F_xhat) == (min(tr.rows.norm_F_x),
                                                         min(tr.rows.norm_F_xhat))
        assert tr.argmin_norm_F_x == 0 and tr.argmin_norm_F_xhat == 0

    def test_eg_step_overflow_is_data(self):
        # ||F(x)|| ~ 1e152 is finite; F(xhat) overflows in the cubic field
        op = build("cubicRd", d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = eg_step(op, np.full(op.dim, 1e76), parse_policy("const:100"))
        assert np.isfinite(st.F_x).all()
        assert not np.isfinite(st.F_xhat).all()
        assert not np.isfinite(st.next_x).all()
        # F(xhat) = -9e307 is finite; the update 1e307 - 10 * F(xhat) overflows
        op = OperatorInstance(dim=1, fn=lambda x: x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = eg_step(op, [1e307], parse_policy("const:10"))
        assert np.isfinite(st.F_xhat).all()
        assert not np.isfinite(st.next_x).all()


    @pytest.mark.parametrize("key", ["thm8", "egplus:0.1", "pethick:0.1"])
    def test_solve_calls_no_omega(self, key, monkeypatch):
        # the update step comes from the map resolve_policy built once per solve
        def no_omega(*a, **kw):
            raise AssertionError("omega() called inside solve")
        monkeypatch.setattr(solver_module, "omega", no_omega)
        monkeypatch.setattr(stepsize, "omega", no_omega)
        tr = solve(build("forsaken"), parse_policy(key),
                   SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0))
        assert tr.iterations_run == 50
        halved = bool(np.all(tr.rows.omega == 0.5 * tr.rows.gamma))
        assert halved is (key != "pethick:0.1")


def _counting(op):
    """Wrap op.fn so that every operator evaluation bumps calls[0]."""
    calls = [0]
    fn = op.fn

    def counted(x):
        calls[0] += 1
        return fn(x)
    op.fn = counted
    return calls


def _monotone_without_constants():
    return OperatorInstance(dim=2, fn=lambda x: np.array([x[1], -x[0]]), solution=np.zeros(2),
                            monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
                            label="rotation")


class TestConstantsBeforeEvaluation:
    # the policy's rule is built, and its constants checked, before F(x0)
    @pytest.mark.parametrize("make_op, key, err", [
        (_monotone_without_constants, "thm5", MissingConstant),
        (lambda: build("logistic"), "thm7", InvalidAlpha),      # alpha = 1, thm7 needs < 1
    ], ids=["missing", "mismatched"])
    def test_solve_and_eg_step(self, make_op, key, err):
        op = make_op()
        calls = _counting(op)
        cfg = SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0)
        with pytest.raises(err):
            solve(op, parse_policy(key), cfg)
        with pytest.raises(err):
            eg_step(op, [1.0, 1.0], parse_policy(key))
        assert calls[0] == 0

    def test_pethick_rho_is_resolved_before_evaluation(self):
        # cubic1d declares no class, so no rho: a forced Pethick run cannot start
        op = build("cubic1d")
        calls = _counting(op)
        cfg = SolveConfig(max_iters=5, x0=[0.5, 0.5], stop_tol=0.0)
        with pytest.warns(UserWarning), pytest.raises(MissingConstant, match="rho"):
            solve(op, parse_policy("pethick:0.1"), cfg, force=True)
        with pytest.raises(MissingConstant, match="rho"):
            eg_step(op, [0.5, 0.5], parse_policy("pethick:0.1"))
        assert calls[0] == 0
        with pytest.warns(UserWarning):   # a rho on the policy is enough
            solve(op, parse_policy("pethick:0.1:0.05"), cfg, force=True)
        assert calls[0] == 10


class TestEvaluationCount:
    def test_two_evaluations_per_budget_iteration(self):
        op = build("quadratic")
        calls = _counting(op)
        solve(op, parse_policy("thm3"), SolveConfig(max_iters=10, x0=[1.0, 1.0], stop_tol=0.0))
        assert calls[0] == 20

    @pytest.mark.parametrize("key", ["egplus:0.1", "pethick:0.1"])
    def test_two_evaluations_per_iteration_other_update_rules(self, key):
        # the half-step (EG+) and Pethick update rules cost the same two calls
        op = build("quadratic")
        calls = _counting(op)
        solve(op, parse_policy(key), SolveConfig(max_iters=10, x0=[1.0, 1.0], stop_tol=0.0))
        assert calls[0] == 20

    def test_stop_tol_terminal_row_costs_two_evaluations(self):
        op = build("quadratic")
        calls = _counting(op)
        tr = solve(op, parse_policy("thm3"), SolveConfig(max_iters=1000, x0=[1.0, 1.0]))
        assert tr.reason == "stop_tol" and tr.iterations_run == 117
        assert calls[0] == 2 * 117 + 2

    @pytest.mark.parametrize("make_op, key, x0, iters, stop_tol, reason", [
        (lambda: build("quadratic"), "thm3", [1.0, 1.0], 10, 0.0, "max_iters"),
        (lambda: build("quadratic"), "egplus:0.1", [1.0, 1.0], 10, 0.0, "max_iters"),
        (lambda: build("quadratic"), "pethick:0.1", [1.0, 1.0], 10, 0.0, "max_iters"),
        (lambda: build("quadratic"), "thm3", [1.0, 1.0], 1000, 1e-14, "stop_tol"),
        # a stopping row where the rule has no step evaluates F once
        (lambda: build("logistic"), "thm5", [400.0, 400.0], 10, 1e-14, "stop_tol"),
        # partial traces: F(x_2) overflows; F(xhat_1) overflows; x_2 overflows; gamma_0 underflows
        (lambda: build("cubicRd", d=2), "const:1", [1e5] * 4, 100, 0.0, "nonfinite"),
        (lambda: build("cubicRd", d=2), "const:1", [1e10] * 4, 100, 0.0, "nonfinite"),
        (lambda: OperatorInstance(dim=1, fn=lambda x: -np.ones(1)), "const:1e308", [0.0], 10, 0.0,
         "nonfinite"),
        (lambda: build("quadratic"), "adaptive:1:1e200", [1e150, 1e150], 5, 0.0, "nonfinite"),
    ], ids=["budget", "egplus", "pethick", "stop", "no-step", "F-x", "F-xhat", "iterate", "gamma"])
    def test_trace_counts_its_evaluations(self, make_op, key, x0, iters, stop_tol, reason):
        op = make_op()
        calls = _counting(op)
        try:
            tr = solve(op, parse_policy(key), SolveConfig(max_iters=iters, x0=x0, stop_tol=stop_tol))
        except NonFiniteIterate as e:
            tr = e.trace
        assert tr.reason == reason and tr.n_F_evals == calls[0] > 0


def _strided(v):
    buf = np.zeros(2 * len(v))
    buf[::2] = v
    return buf[::2]


# F(x) = M (x - x*) on R^3: M is the identity plus a skew part, so a 0.1 step converges
_M3 = np.array([[1.0, 0.5, -0.25], [-0.5, 1.0, 0.75], [0.25, -0.75, 1.0]])


class TestSolveOutputRule:
    # solve calls fn and applies F(x)'s output rule itself; each other kind of
    # output takes the slow path, which converts what fn returned once
    @pytest.mark.parametrize("make", [
        lambda v: [float(a) for a in v],              # a list
        lambda v: v.reshape(-1, 1),                   # a (dim, 1) column
        lambda v: v.astype(np.float32),               # float32
        _strided,                                     # a strided float64 view
    ], ids=["list", "column", "float32", "strided"])
    def test_other_outputs_solve_as_their_float64_vector(self, make):
        plain = OperatorInstance(
            dim=3, fn=lambda x: np.asarray(make(_M3 @ x), dtype=np.float64).reshape(-1))
        other = OperatorInstance(dim=3, fn=lambda x: make(_M3 @ x))
        calls = _counting(other)
        cfg = SolveConfig(max_iters=40, x0=[1.0, -2.0, 0.5], stop_tol=0.0)
        want = solve(plain, parse_policy("const:0.1"), cfg)
        got = solve(other, parse_policy("const:0.1"), cfg)
        assert _row_cells(got.rows) == _row_cells(want.rows) and len(got.rows) == 40
        assert np.array_equal(got.rows.x_k, want.rows.x_k)
        assert np.array_equal(got.rows.xhat_k, want.rows.xhat_k)
        assert np.array_equal(got.final_x, want.final_x)
        assert got.n_F_evals == want.n_F_evals == calls[0] == 80

    @pytest.mark.parametrize("bad", [np.zeros(4), [0.0, 0.0]], ids=["long-vector", "short-list"])
    @pytest.mark.parametrize("at", [1, 2], ids=["F-x", "F-xhat"])
    def test_wrong_length_raises_the_message_of_a_call(self, bad, at):
        op = OperatorInstance(dim=3, fn=lambda x: bad, label="bad")
        with pytest.raises(DimensionMismatch) as called:
            op(np.ones(3))
        calls = [0]

        def fn(x):   # the at-th evaluation returns the wrong length
            calls[0] += 1
            return bad if calls[0] == at else _M3 @ x
        op.fn = fn
        with pytest.raises(DimensionMismatch) as solved:
            solve(op, parse_policy("const:0.1"), SolveConfig(max_iters=5, x0=np.ones(3)))
        assert str(solved.value) == str(called.value)
        assert calls[0] == at


class TestSolveDistances:
    # with a root at the origin solve squares x itself, elsewhere x - x*: both
    # must record what e = x - x*; e.dot(e) gives
    @pytest.mark.parametrize("xstar", [[0.5, -1.0, 2.0], [-0.0, 0.0, -0.0]],
                             ids=["away-from-origin", "signed-zero-origin"])
    def test_recorded_distances_equal_a_direct_recomputation(self, xstar):
        xstar = np.array(xstar)
        op = OperatorInstance(dim=3, fn=lambda x: _M3 @ (x - xstar), solution=xstar)
        tr = solve(op, parse_policy("const:0.1"),
                   SolveConfig(max_iters=200, x0=[-0.0, 3.0, -1.0], stop_tol=0.0, rel_tol=1e-6))

        def d2(x):
            e = x - xstar
            return float(e.dot(e))
        h = float.hex
        want = [d2(x) for x in tr.rows.x_k]
        assert [h(float(v)) for v in tr.rows.dist_sq] == [h(v) for v in want]
        assert h(tr.final_dist_sq) == h(d2(tr.final_x))
        hit = next(k for k, v in enumerate(want) if v / want[0] <= 1e-6)
        assert tr.first_rel_hit == hit > 0


_ENTRY = st.floats(-2.0, 2.0)
_DECLARED_KEYS = ("pethick", "thm3", "cor1", "thm5", "thm8")


@st.composite
def _affine_runs(draw):
    """A random F(x) = M x on R^2..R^4, a start x0 and a policy of any update rule.

    const, adaptive and egplus run on any M. The kinds that need a declared
    class run on M = mu I + skew, declared strongly monotone with modulus mu
    and Lipschitz constant ||M||_2.
    """
    d = draw(st.integers(2, 4))
    x0 = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
    key = draw(st.sampled_from(("const", "adaptive", "egplus") + _DECLARED_KEYS))
    if key in _DECLARED_KEYS:
        mu = draw(st.floats(0.5, 2.0))
        K = np.array(draw(st.lists(_ENTRY, min_size=d * d, max_size=d * d))).reshape(d, d)
        op = _affine(mu * np.eye(d) + (K - K.T) / 2, mu=mu)
    else:
        op = _affine(np.array(draw(st.lists(_ENTRY, min_size=d * d,
                                            max_size=d * d))).reshape(d, d))
    if key == "const":
        policy = StepSizePolicy(kind=PolicyKind.CONSTANT, step=draw(st.floats(0.01, 0.2)))
    elif key == "adaptive":
        policy = StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=draw(st.floats(2.0, 20.0)),
                                c1=draw(st.floats(0.0, 5.0)), alpha=draw(st.floats(0.25, 1.0)))
    elif key == "egplus":
        policy = StepSizePolicy(kind=PolicyKind.EGPLUS, step=draw(st.floats(0.01, 0.2)))
    elif key == "pethick":
        policy = StepSizePolicy(kind=PolicyKind.PETHICK, step=draw(st.floats(0.01, 0.2)),
                                rho=draw(st.floats(0.0, 0.1)))
    else:
        policy = parse_policy(key)
    return op, x0, policy


def _affine(M, mu=None):
    """F(x) = M x with root 0; with mu, declared strongly monotone (modulus mu)
    and Lipschitz with constant ||M||_2."""
    declared = {} if mu is None else dict(
        smoothness=SmoothnessParams(1.0, float(np.linalg.norm(M, 2)), 0.0),
        monotonicity=MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=mu))
    return OperatorInstance(dim=M.shape[0], fn=lambda x: M @ x,
                            solution=np.zeros(M.shape[0]), label="affine", **declared)


def _assert_rows_replay_eg_step(op, x0, policy, tr):
    x, rows = x0, tr.rows
    for k in range(len(rows)):
        s = eg_step(op, x, policy, k=k)
        assert np.array_equal(rows.x_k[k], x)
        assert rows.gamma[k] == s.gamma_k and rows.omega[k] == s.omega_k
        assert np.array_equal(rows.xhat_k[k], s.xhat)
        assert rows.norm_F_x[k] == norm(s.F_x) and rows.norm_F_xhat[k] == norm(s.F_xhat)
        x = s.next_x
    if tr.reason == "max_iters":
        assert np.array_equal(tr.final_x, x)


class TestSolveMatchesStepReplay:
    @settings(max_examples=120, deadline=None)
    @given(_affine_runs())
    def test_budget_rows_equal_eg_step_replay(self, run):
        op, x0, policy = run
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
        rows, last = tr.rows, len(tr.rows) - 1
        assert last == tr.iterations_run and rows.norm_F_x[last] <= tol
        assert np.array_equal(tr.final_x, rows.x_k[last])
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

    def test_thm8_checked_under_its_own_inequality(self):
        # thm8 claims the weak-Minty descent (rho = 0 here), not the strongly
        # monotone contraction the operator's class would pick: 47 of these 300
        # transitions break that contraction
        op = build("quadratic")
        cfg = SolveConfig(max_iters=300, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm8"), cfg)
        assert tr.kind is PolicyKind.WEAK_MINTY
        rep = check_descent_invariants(tr, op)
        assert rep.kind is MonotoneClass.WEAK_MINTY
        assert rep.n_checked == 300 and rep.n_violations == 0

    def test_trace_without_kind_keeps_the_operator_class(self, tmp_path):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=300, x0=[1.0, 1.0], stop_tol=0.0)
        p = str(tmp_path / "trace.csv")
        write_trace_csv(solve(op, parse_policy("thm8"), cfg), p)
        back = read_trace_csv(p)
        assert back.kind is None
        rep = check_descent_invariants(back, op)
        assert rep.kind is MonotoneClass.STRONGLY_MONOTONE and rep.n_violations == 47

    def test_missing_class_or_root_raises(self, tmp_path):
        policy, cfg = parse_policy("const:0.1"), SolveConfig(max_iters=5, x0=[1.0, 1.0])
        classless = OperatorInstance(dim=2, fn=lambda x: x, solution=np.zeros(2))
        with pytest.raises(MissingConstant, match="no monotonicity class"):
            check_descent_invariants(solve(classless, policy, cfg), classless)
        rootless = build("logistic")
        with pytest.raises(MissingSolution, match="no known solution"):
            check_descent_invariants(solve(rootless, policy, cfg), rootless)
        # a trace solved without a root keeps no distances, also read back from CSV
        op = build("quadratic")
        p = str(tmp_path / "trace.csv")
        write_trace_csv(solve(OperatorInstance(dim=2, fn=op.fn), policy, cfg), p)
        with pytest.raises(MissingSolution, match="carry no distances"):
            check_descent_invariants(read_trace_csv(p), op)

    def test_summary_only_trace_gives_an_empty_report(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=5, x0=[1.0, 1.0], record_trace=False)
        rep = check_descent_invariants(solve(op, parse_policy("const:0.1"), cfg), op)
        assert (rep.n_transitions, rep.n_checked, rep.n_violations) == (0, 0, 0)
        assert rep.max_excess == -math.inf

    def test_class_outside_the_policy_guarantee_raises(self):
        op = build("signpower")   # monotone; cor1 covers strongly monotone only
        cfg = SolveConfig(max_iters=20, x0=[5.0, 5.0], stop_tol=0.0)
        with pytest.warns(UserWarning):
            tr = solve(op, parse_policy("cor1"), cfg, force=True)
        with pytest.raises(IncompatiblePolicy):
            check_descent_invariants(tr, op)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10 ** 6), strong=st.booleans())
    def test_random_affine_operators_keep_their_theorem(self, n, seed, strong):
        # F(x) = M x with a skew part plus mu I (thm3, exact modulus mu) or plus a
        # rank-deficient PSD part (thm5, monotone), declared Lipschitz with ||M||
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n))
        if strong:
            mu = float(rng.uniform(0.1, 2.0))
            M = mu * np.eye(n) + (K - K.T) / 2
            m = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=mu)
        else:
            P = rng.standard_normal((n, int(rng.integers(0, n))))
            M = P @ P.T + (K - K.T) / 2
            m = MonotonicityParams(MonotoneClass.MONOTONE)
        op = OperatorInstance(dim=n, fn=lambda x: M @ x, solution=np.zeros(n), label="affine",
                              smoothness=SmoothnessParams(1.0, float(np.linalg.norm(M, 2)), 0.0),
                              monotonicity=m)
        key = "thm3" if strong else "thm5"
        tr = solve(op, parse_policy(key), SolveConfig(max_iters=300, x0=rng.standard_normal(n),
                                                       stop_tol=0.0))
        rep = check_descent_invariants(tr, op)
        assert rep.kind is m.kind and tr.kind is parse_policy(key).kind
        assert rep.n_checked == rep.n_transitions > 0
        assert rep.n_violations == 0, (key, rep.max_excess)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10 ** 6))
    def test_random_weak_minty_operators_keep_thm8(self, n, seed):
        # F(x) = M x, weak Minty with the exact rho; the descent is checked
        # where gamma_k > 4 rho, so a void margin checks nothing
        rng = np.random.default_rng(seed)
        op = _weak_minty_affine(rng, n)
        tr = solve(op, parse_policy("thm8"), SolveConfig(max_iters=300, x0=rng.standard_normal(n),
                                                          stop_tol=0.0))
        rep = check_descent_invariants(tr, op)
        assert rep.kind is MonotoneClass.WEAK_MINTY
        assert rep.n_checked in (0, rep.n_transitions)
        assert rep.n_violations == 0, rep.max_excess

    def test_tolerance_knob(self):
        op = build("quadratic")
        cfg = SolveConfig(max_iters=20, x0=[1.0, 1.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm3"), cfg)
        strict = check_descent_invariants(tr, op, tol=-1.0)
        assert strict.n_violations == strict.n_checked  # negative tol flags everything


def _weak_minty_affine(rng, n):
    """F(x) = M x: 2 x 2 rotation-scalings [[a, b], [-b, a]] (a < 0 makes M
    nonmonotone) and, for odd n, one positive 1 x 1 block, in a random
    orthonormal basis; rho = max(0, -lambda_min(sym(M^-1))) is exact, since
    <M x, x> >= -rho ||M x||^2 reads <y, M^-1 y> >= -rho ||y||^2 for y = M x."""
    B = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        r, c = rng.uniform(0.5, 2.0), rng.uniform(-0.2, 0.5)
        a, b = c * r, r * math.sqrt(1.0 - c * c)
        B[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
    if n % 2:
        B[-1, -1] = rng.uniform(0.5, 2.0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q @ B @ Q.T
    Minv = np.linalg.inv(M)
    rho = max(0.0, -float(np.linalg.eigvalsh((Minv + Minv.T) / 2).min()))
    return OperatorInstance(dim=n, fn=lambda x: M @ x, solution=np.zeros(n), label="affine",
                            smoothness=SmoothnessParams(1.0, float(np.linalg.norm(M, 2)), 0.0),
                            monotonicity=MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=rho))


def _random_affine(rng, n, cls):
    """F(x) = M x of the class: mu I + skew (exact mu), P P^T + skew with
    rank P < n (monotone), or _weak_minty_affine's family."""
    if cls is MonotoneClass.WEAK_MINTY:
        return _weak_minty_affine(rng, n)
    K = rng.standard_normal((n, n))
    if cls is MonotoneClass.STRONGLY_MONOTONE:
        mu = float(rng.uniform(0.1, 2.0))
        M, m = mu * np.eye(n) + (K - K.T) / 2, MonotonicityParams(cls, mu=mu)
    else:
        P = rng.standard_normal((n, int(rng.integers(0, n))))
        M, m = P @ P.T + (K - K.T) / 2, MonotonicityParams(cls)
    return OperatorInstance(dim=n, fn=lambda x: M @ x, solution=np.zeros(n), label="affine",
                            smoothness=SmoothnessParams(1.0, float(np.linalg.norm(M, 2)), 0.0),
                            monotonicity=m)


class TestRatesOnRandomOperators:
    # the observed rate stays inside theoretical_bounds' closed form: thm3's
    # d_K^2 <= rate^K d_0^2, and thm5's and thm8's min_{k<=K} ||F||^2 (K+1)
    # <= sublinear_const (thm8 on ||F(xhat_k)||, the norm its descent controls)
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 10 ** 6),
           key=st.sampled_from(["thm3", "thm5", "thm8"]))
    def test_observed_rate_inside_the_bound(self, n, seed, key):
        cls = {"thm3": MonotoneClass.STRONGLY_MONOTONE, "thm5": MonotoneClass.MONOTONE,
               "thm8": MonotoneClass.WEAK_MINTY}[key]
        rng = np.random.default_rng(seed)
        op = _random_affine(rng, n, cls)
        x0 = rng.standard_normal(n)
        policy = parse_policy(key)
        tr = solve(op, policy, SolveConfig(max_iters=300, x0=x0, stop_tol=0.0))
        bound = theoretical_bounds(op, policy.kind, x0)
        if key == "thm3":
            d2 = np.append(tr.rows.dist_sq, tr.final_dist_sq)
            envelope = bound.rate ** np.arange(len(d2)) * d2[0]
            assert (d2 <= envelope * (1.0 + 1e-9)).all()
            return
        if bound.guarantee_void:
            assert key == "thm8"
            return
        norms = tr.rows.norm_F_xhat if key == "thm8" else tr.rows.norm_F_x
        best = np.minimum.accumulate(np.square(norms)) * np.arange(1, len(norms) + 1)
        assert (best <= bound.sublinear_const * (1.0 + 1e-9)).all()


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
        assert _row_cells(back.rows) == _row_cells(tr.rows)

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

    def test_numpy_scalar_cells_round_trip(self, tmp_path):
        # cubicRd's theorem steps are numpy float64 scalars; each cell must
        # still hold a plain number that reads back exactly
        op = build("cubicRd", d=2)
        cfg = SolveConfig(max_iters=30, x0=[1.0, -0.5, 0.25, 2.0], stop_tol=0.0)
        tr = solve(op, parse_policy("thm5"), cfg)
        assert isinstance(tr.rows.gamma[0], np.floating)
        p = tmp_path / "trace.csv"
        write_trace_csv(tr, str(p))
        assert "np." not in p.read_text()
        back = read_trace_csv(str(p))
        assert _row_cells(back.rows) == _row_cells(tr.rows)
        assert (back.iterations_run, back.min_norm_F_x, back.reason) == (
            tr.iterations_run, tr.min_norm_F_x, tr.reason)

    def test_rejects_foreign_csv(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(str(p))


@st.composite
def _summary_runs(draw):
    """A seeded F(x) = M x on R^2..R^5 (monotone or not) or a seeded cubicRd, a start, an
    adaptive or constant policy, a budget, a stopping and a relative
    tolerance. Large steps and starts make some runs diverge."""
    seed = draw(st.integers(0, 10 ** 6))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        K, R = rng.standard_normal((2, n, n))
        op = _affine(draw(st.floats(0.0, 3.0)) * np.eye(n) + K - K.T + 0.5 * R)
    else:
        n = 2 * draw(st.integers(1, 4))
        op = build("cubicRd", d=n // 2, seed=seed % 100, scale=draw(st.sampled_from((1.0, 5.0))))
    x0 = rng.standard_normal(n) * 10.0 ** draw(st.floats(-2.0, 3.0))
    if draw(st.booleans()):
        policy = StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=draw(st.floats(1.0, 100.0)),
                                c1=draw(st.floats(0.0, 10.0)))
    else:
        policy = StepSizePolicy(kind=PolicyKind.CONSTANT, step=10.0 ** draw(st.floats(-3.0, 0.0)))
    iters = draw(st.integers(1, 300))
    stop_tol = draw(st.sampled_from((0.0, 1e-6, 1e-2)))
    tol = draw(st.one_of(st.sampled_from((0.0, 1.0)),
                         st.floats(-3.0, -0.001).map(lambda e: 10.0 ** e)))
    return op, x0, policy, iters, stop_tol, tol


def _solve_or_partial(op, policy, cfg):
    try:
        return solve(op, policy, cfg), None
    except NonFiniteIterate as e:
        return e.trace, e.k


class TestSummaryOnlyRuns:
    @settings(max_examples=150, deadline=None)
    @given(_summary_runs())
    def test_summary_only_run_equals_recorded_run(self, run):
        op, x0, policy, iters, stop_tol, tol = run
        cfg = lambda record: SolveConfig(max_iters=iters, x0=x0, stop_tol=stop_tol,
                                         record_trace=record, rel_tol=tol)
        full, k_full = _solve_or_partial(op, policy, cfg(True))
        lean, k_lean = _solve_or_partial(op, policy, cfg(False))
        assert len(lean.rows) == 0 and k_lean == k_full
        d20 = full.rows.dist_sq[0] if full.rows and full.rows.dist else None
        if d20 is not None:
            e = x0 - op.solution
            assert d20 == float(e.dot(e))
            assert full.first_rel_hit == first_hit(full.rows, lambda r: r.dist_sq / d20, tol)
        assert lean.first_rel_hit == full.first_rel_hit
        h = lambda v: None if v is None else float.hex(float(v))
        summary = lambda t: (t.iterations_run, t.reason, h(t.min_norm_F_x), t.argmin_norm_F_x,
                             h(t.min_norm_F_xhat), t.argmin_norm_F_xhat, h(t.final_dist_sq),
                             t.final_x.tobytes())
        assert summary(lean) == summary(full)

    def test_first_rel_hit_only_with_rel_tol_and_a_root(self):
        policy = parse_policy("const:0.1")
        cfg = SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0, rel_tol=1e-2)
        assert solve(build("quadratic"), policy, cfg).first_rel_hit > 0
        assert solve(build("logistic"), policy, cfg).first_rel_hit is None   # no root
        plain = SolveConfig(max_iters=50, x0=[1.0, 1.0], stop_tol=0.0)
        assert solve(build("quadratic"), policy, plain).first_rel_hit is None
        never = SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0, rel_tol=0.0)
        assert solve(build("quadratic"), policy, never).first_rel_hit == -1

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_rel_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="rel_tol must be finite and nonnegative"):
            SolveConfig(max_iters=5, x0=[1.0, 1.0], rel_tol=tol)
        SolveConfig(max_iters=5, x0=[1.0, 1.0], rel_tol=0.0)

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [1e160, 1e160]], ids=["root", "overflow"])
    def test_undefined_relative_error_raises_before_any_evaluation(self, x0):
        op = build("quadratic")
        calls = _counting(op)
        cfg = SolveConfig(max_iters=5, x0=x0, stop_tol=0.0, rel_tol=1e-8)
        with pytest.raises(ValueError, match="relative error"):
            solve(op, parse_policy("const:0.1"), cfg)
        assert calls == [0]

    def test_underflowed_step_raises_nonfinite_with_partial_trace(self):
        # 1/(1 + 1e200 ||F||) rounds to 0.0 once 1e200 ||F|| overflows
        op = build("quadratic")
        policy = parse_policy("adaptive:1:1e200")
        cfg = SolveConfig(max_iters=5, x0=[1e150, 1e150], stop_tol=0.0)
        with pytest.raises(NonFiniteIterate, match="gamma_k underflowed to 0.0 at iteration 0") as ei:
            solve(op, policy, cfg)
        assert ei.value.k == 0
        tr = ei.value.trace
        assert (len(tr.rows), tr.iterations_run, tr.reason) == (0, 0, "nonfinite")
        assert np.array_equal(tr.final_x, [1e150, 1e150])
        # a single step keeps its ValueError
        with pytest.raises(ValueError, match="gamma_k must be positive, got 0.0"):
            eg_step(op, [1e150, 1e150], policy)


_ROUND_TRIP_POLICIES = ("const:0.1", "const:3", "adaptive:10:1", "thm3", "cor1", "thm4", "thm5",
                        "thm7", "thm8", "thm9", "vankov:1", "pethick:0.1", "egplus:0.1")


@st.composite
def _zoo_runs(draw):
    """(operator key, policy key, x0, budget, stop_tol) over the zoo's default
    operators and every policy kind the operator's constants can resolve."""
    key = draw(st.sampled_from(sorted(ZOO)))
    op = build(key)
    runnable = []
    for p in _ROUND_TRIP_POLICIES:
        try:
            solver_module.resolve_policy(op, parse_policy(p))
            runnable.append(p)
        except (MissingConstant, InvalidAlpha):
            pass
    policy = draw(st.sampled_from(runnable))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    x0 = tuple(rng.standard_normal(op.dim) * 10.0 ** draw(st.floats(-3.0, 2.0)))
    return key, policy, x0, draw(st.integers(1, 200)), draw(st.sampled_from((0.0, 1e-14, 1e-2)))


class TestTraceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_zoo_runs())
    @example(("logistic", "adaptive:10:1", (1.0, 1.0), 50, 0.0))            # no root
    @example(("cubicRd", "thm5", (1.0, -0.5, 0.25, 2.0), 30, 0.0))          # numpy scalars
    @example(("square", "thm7", (0.0, 1e-200), 10, 1e-14))                  # stepless root row
    @example(("cubicRd", "const:10", (5.0, 5.0, 5.0, 5.0), 300, 0.0))       # diverges at k = 3
    def test_write_read_write_is_exact(self, run):
        key, policy, x0, iters, stop_tol = run
        cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=stop_tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # force=True off the guaranteed class
            try:
                tr = solve(build(key), parse_policy(policy), cfg, force=True)
            except NonFiniteIterate as e:
                tr = e.trace
        first = io.StringIO()
        write_trace_csv(tr, first)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "trace.csv")
            with open(p, "w", newline="") as fh:
                fh.write(first.getvalue())
            back = read_trace_csv(p)
        again = io.StringIO()
        write_trace_csv(back, again)
        assert again.getvalue() == first.getvalue()
        h = lambda v: None if v is None else float.hex(float(v))
        cells = lambda t: [(k, *map(h, c)) for k, *c in _row_cells(t.rows)]
        assert cells(back) == cells(tr)
        assert (back.iterations_run, h(back.min_norm_F_x), back.reason) == (
            tr.iterations_run, h(tr.min_norm_F_x), tr.reason)

    def test_stepless_root_row_and_partial_trace_examples(self):
        # the examples above reach the cases they are named for
        with pytest.warns(UserWarning):   # square declares no class
            tr = solve(build("square"), parse_policy("thm7"),
                       SolveConfig(max_iters=10, x0=[0.0, 1e-200]), force=True)
        assert (tr.reason, len(tr.rows), tr.rows.gamma[0], tr.rows.omega[0]) == (
            "stop_tol", 1, 0.0, 0.0)
        cfg = SolveConfig(max_iters=300, x0=[5.0] * 4, stop_tol=0.0)
        with pytest.raises(NonFiniteIterate) as ei:
            solve(build("cubicRd"), parse_policy("const:10"), cfg)
        assert ei.value.k == 3 and len(ei.value.trace.rows) == 3

    def test_k_column_must_count_rows(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("k,gamma,omega,norm_F_x,norm_F_xhat,dist_sq\n0,1,1,1,1,1\n2,1,1,1,1,1\n")
        with pytest.raises(ValueError, match="row 1 has k=2"):
            read_trace_csv(str(p))



# the five 2-dim zoo fields that operators._coupled builds; `solve` runs them on
# Python floats through `fn.field`
_COUPLED_KEYS = ("quadratic", "cubic1d", "signpower", "forsaken", "bilinear")
_NO_L0 = SmoothnessParams(1.0, 0.0, 1.0)
# every policy kind; the last two have no step at a root, so a run that starts
# there stops on a row that takes none
_FLOAT_LOOP_POLICIES = [parse_policy(p) for p in _ROUND_TRIP_POLICIES
                        + ("adaptive:1:1:0.5", "pethick:0.1:0.2")] + [
    StepSizePolicy(kind=PolicyKind.MONO, smoothness=_NO_L0),
    StepSizePolicy(kind=PolicyKind.VANKOV, mu=1e-310, smoothness=_NO_L0)]
_BIG = st.floats(1e60, 1e300).flatmap(lambda v: st.sampled_from((v, -v)))


@st.composite
def _float_loop_runs(draw):
    """(operator key, policy, config): a 2-dim coupled field, a policy its
    constants resolve, and a start at the root, an ordinary one, or one whose
    powers overflow."""
    key = draw(st.sampled_from(_COUPLED_KEYS))
    op = build(key)
    runnable = []
    for p in _FLOAT_LOOP_POLICIES:
        try:
            solver_module.resolve_policy(op, p)
            runnable.append(p)
        except (MissingConstant, InvalidAlpha):
            pass
    start = draw(st.sampled_from(("root", "ordinary", "overflow")))
    if start == "root":
        x0 = (0.0, 0.0)
    elif start == "ordinary":
        x0 = tuple(draw(st.floats(-3.0, 3.0)) * 10.0 ** draw(st.integers(-3, 2)) for _ in "ab")
    else:
        x0 = (draw(_BIG), draw(st.one_of(_BIG, st.floats(-3.0, 3.0))))
    cfg = SolveConfig(max_iters=draw(st.integers(1, 60)), x0=x0,
                      stop_tol=draw(st.sampled_from((0.0, 1e-8, 1e-2))),
                      record_trace=draw(st.booleans()),
                      rel_tol=draw(st.sampled_from((None, 0.0, 1e-4, 0.5))))
    return key, draw(st.sampled_from(runnable)), cfg


def _outcome(op, policy, cfg):
    """What a solve leaves: its trace, summary and error, bit for bit (each NaN
    as one NaN)."""
    bits = lambda v: None if v is None else np.where(np.isnan(v), math.nan, v).tobytes()
    try:
        tr, err = solve(op, policy, cfg, force=True), None
    except NonFiniteIterate as e:
        tr, err = e.trace, (str(e), e.k)
    except (MissingConstant, ValueError) as e:
        return None, (type(e), str(e))
    rows = tr.rows
    cols = (rows.gamma, rows.omega, rows.norm_F_x, rows.norm_F_xhat, rows.dist_sq,
            rows.x_k, rows.xhat_k)
    return ([bits(c) for c in cols], tr.iterations_run, tr.reason, tr.kind, tr.n_F_evals,
            bits(tr.min_norm_F_x), tr.argmin_norm_F_x, bits(tr.min_norm_F_xhat),
            tr.argmin_norm_F_xhat, tr.first_rel_hit, bits(tr.final_dist_sq),
            bits(tr.final_x)), err


@settings(max_examples=200, deadline=None)
@given(_float_loop_runs())
# a root row that takes no step: no L0, then an infinite Vankov cap
@example(("forsaken", _FLOAT_LOOP_POLICIES[-2], SolveConfig(max_iters=5, x0=(0.0, 0.0))))
@example(("quadratic", _FLOAT_LOOP_POLICIES[-1], SolveConfig(max_iters=5, x0=(-0.0, 0.0))))
# w ** 5 overflows at the start: the numpy-scalar fallback, then divergence at k = 0
@example(("forsaken", parse_policy("egplus:0.1"), SolveConfig(max_iters=5, x0=(1e62, 1.0))))
# no declared root, so no distances
@example(("bilinear", parse_policy("pethick:0.1:0.2"), SolveConfig(max_iters=60, x0=(2.0, -1.0))))
# a non-finite iterate at k = 1, with and without distances (the second starts next to the root)
@example(("quadratic", parse_policy("const:1e160"), SolveConfig(max_iters=5, x0=(1e-8, 0.0))))
@example(("bilinear", parse_policy("const:1e165"),
          SolveConfig(max_iters=5, x0=(-0.35702064103985687, 0.5883190244246781), stop_tol=0.0)))
def _float_loop_matches_numpy_loop(run):
    key, policy, cfg = run
    op = build(key)
    assert op.fn.field is not None
    twin = copy.copy(op)
    twin.fn = lambda x, fn=op.fn: fn(x)   # no `field`: solve takes the numpy loop
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # force=True off the guaranteed class
        assert _outcome(op, policy, cfg) == _outcome(twin, policy, cfg)


def _ddot_is_fused() -> bool:
    """Whether numpy's dot of two 2-vectors rounds as a fused multiply-add (the
    AVX-512 kernels of OpenBLAS), not as the plain sum a*a + b*b."""
    V = np.random.default_rng(0).standard_normal((200, 2))
    return any(float(v.dot(v)) != a * a + b * b for v, (a, b) in zip(V, V.tolist()))


class TestFloatLoop:
    def test_float_loop_equals_numpy_loop(self):
        # the numpy loop's norms and inner products are BLAS dots; they equal the
        # float loop's plain sums only under a kernel that does not fuse them
        if not _ddot_is_fused():
            _float_loop_matches_numpy_loop()
            return
        assert os.environ.get("OPENBLAS_CORETYPE") != "Haswell", (
            "numpy's dot still fuses under OPENBLAS_CORETYPE=Haswell")
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy's dot of 2-vectors fuses a multiply-add here, and its BLAS "
                        "is no DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects no "
                        "unfused kernel to compare under")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{os.path.abspath(__file__)}::TestFloatLoop::test_float_loop_equals_numpy_loop"],
            capture_output=True, text=True, timeout=120, cwd=root,
            env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"))
        last = proc.stdout.splitlines()[-1] if proc.stdout else ""
        assert proc.returncode == 0 and last.startswith("1 passed"), proc.stdout[-3000:]

    def test_coupled_fields_carry_their_float_field(self):
        for key in _COUPLED_KEYS:
            op = build(key)
            assert op.fn.field(1.0, -2.0) == tuple(op.fn(np.array([1.0, -2.0])))
        for key in sorted(set(ZOO) - set(_COUPLED_KEYS)):   # these run on numpy
            assert not hasattr(build(key).fn, "field"), key


def _invariants_by_row(trace, m, cls, tol):
    """The per-row loop check_descent_invariants ran before it read columns:
    the reference its columns must match bit for bit."""
    rows = trace.rows
    d2 = rows.dist_sq.tolist() + [trace.final_dist_sq]
    gam, norm_x, norm_xhat = rows.gamma.tolist(), rows.norm_F_x.tolist(), rows.norm_F_xhat.tolist()
    n_trans = len(rows) - 1 if trace.reason == "stop_tol" else len(rows)
    if trace.final_dist_sq is None:
        n_trans = min(n_trans, len(rows) - 1)
    checked, viol, worst = 0, 0, -math.inf
    for i in range(n_trans):
        g, nfx, nfxh = gam[i], norm_x[i], norm_xhat[i]
        lhs = d2[i + 1]
        if cls is MonotoneClass.STRONGLY_MONOTONE:
            rhs = (1.0 - g * m.mu) * d2[i]
        elif cls is MonotoneClass.MONOTONE:
            rhs = d2[i] - 0.5 * g ** 2 * nfx ** 2
        else:
            if not (g > 4.0 * m.rho):
                continue
            rhs = d2[i] - (g / 4.0) * (g - 4.0 * m.rho) * nfxh ** 2
        checked += 1
        excess = lhs - rhs
        worst = max(worst, excess)
        if excess > tol:
            viol += 1
    return n_trans, checked, viol, worst


def _fig3_cor1_trace():
    """fig3's cor1 run: 20,000 recorded rows with distances."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # fig3 forces cor1 on signpower
        return solve(build("signpower"), parse_policy("cor1"),
                     SolveConfig(max_iters=20_000, x0=[5.0, 5.0], stop_tol=0.0), force=True)


class TestTraceColumns:
    def test_memory_per_recorded_row(self):
        # 5 float64 cells and two 2-vectors are 72 bytes a row; the bound
        # leaves room for the buffer's over-allocation
        op, policy = build("quadratic"), parse_policy("const:0.001")
        cfg = SolveConfig(max_iters=20_000, x0=[5.0, 5.0], stop_tol=0.0)
        solve(op, policy, SolveConfig(max_iters=2, x0=[5.0, 5.0]))
        gc.collect()
        tracemalloc.start()
        try:
            tr = solve(op, policy, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tr.rows) == 20_000
        assert held / len(tr.rows) <= 100

    def test_rows_cannot_write_through_to_the_store(self):
        tr = solve(build("quadratic"), parse_policy("thm3"),
                   SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0))
        rows = tr.rows
        before = rows.x_k.tobytes()
        with pytest.raises(ValueError):
            rows.x_k[0, 0] = 7.0
        with pytest.raises(ValueError):
            rows.xhat_k[0] = 0.0
        with pytest.raises(ValueError):
            rows.x_k.flags.writeable = True
        with pytest.raises(ValueError):
            rows.gamma[0] = 1.0
        with pytest.raises(TypeError):
            rows[0] = 1.0
        assert rows.x_k.tobytes() == before

    def test_a_read_only_list_of_rows(self):
        op = build("forsaken")
        tr = solve(op, parse_policy("egplus:0.1"), SolveConfig(max_iters=9000, x0=[1.0, 1.0],
                                                               stop_tol=0.0))
        rows = tr.rows
        assert len(rows) == 9000 > TRACE_CHUNK
        assert rows.x_k.shape == rows.xhat_k.shape == (9000, 2)
        # the stored iterates are the ones solve stepped through
        x0 = np.array([1.0, 1.0])
        assert np.array_equal(rows.x_k[0], x0)
        assert np.array_equal(rows.xhat_k[0], x0 - rows.gamma[0] * op(x0))

    def test_every_trace_keeps_its_rows_as_columns(self, tmp_path):
        op, policy = build("quadratic"), parse_policy("thm3")
        full = solve(op, policy, SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0))
        lean = solve(op, policy, SolveConfig(max_iters=5, x0=[1.0, 1.0], stop_tol=0.0,
                                             record_trace=False))
        write_trace_csv(full, str(tmp_path / "t.csv"))
        back = read_trace_csv(str(tmp_path / "t.csv"))
        for tr in (full, lean, back, SolveTrace()):
            assert type(tr.rows) is TraceColumns
        assert (lean.rows.dim, lean.rows.dist, len(lean.rows)) == (2, True, 0)
        assert (back.rows.dim, back.rows.dist, len(back.rows)) == (0, True, 5)
        assert (SolveTrace().rows.dim, len(SolveTrace().rows)) == (0, 0)

    def test_reading_a_trace_holds_about_the_store(self, tmp_path):
        # holding the file's cells as strings peaked near 14x the store
        p = str(tmp_path / "trace.csv")
        tr = _fig3_cor1_trace()
        write_trace_csv(tr, p)
        del tr
        gc.collect()
        tracemalloc.start()
        try:
            back = read_trace_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = back.rows
        assert len(rows) == 20_000 and rows.dist_sq is not None
        held = sum(c.nbytes for c in (rows.gamma, rows.omega, rows.norm_F_x, rows.norm_F_xhat,
                                      rows.dist_sq))
        assert peak <= 2 * held

    def test_writing_a_trace_peaks_below_0_75_mb(self, tmp_path):
        # converting 4096 rows of floats to Python lists at a time peaked at 0.69 MB;
        # the strings, rows and text of a chunk must fit in about as much
        tr = _fig3_cor1_trace()
        gc.collect()
        tracemalloc.start()
        try:
            write_trace_csv(tr, str(tmp_path / "trace.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 750_000

    def test_invariants_match_the_per_row_loop(self, tmp_path):
        # more rows than one chunk, so transitions cross chunk boundaries
        runs = [("quadratic", "const:0.001", [5.0, 5.0], 9000),
                ("signpower", "const:0.001", [5.0, 5.0], 9000),
                ("forsaken", "egplus:0.1", [1.0, 1.0], 20000),
                ("quadratic", "thm8", [1.0, 1.0], 300)]
        for key, policy, x0, iters in runs:
            op = build(key)
            tr = solve(op, parse_policy(policy), SolveConfig(max_iters=iters, x0=x0,
                                                             stop_tol=0.0))
            p = str(tmp_path / "trace.csv")
            write_trace_csv(tr, p)
            for t in (tr, read_trace_csv(p)):
                t.final_dist_sq = tr.final_dist_sq
                rep = check_descent_invariants(t, op)
                ref = _invariants_by_row(t, op.monotonicity, rep.kind, 1e-10)
                assert (rep.n_transitions, rep.n_checked, rep.n_violations) == ref[:3]
                assert float.hex(rep.max_excess) == float.hex(ref[3])

    def test_invariants_round_each_step_as_the_per_row_loop(self):
        # one transition per trace, so max_excess is that step's own excess
        rng = np.random.default_rng(0)
        op = build("signpower")   # monotone, with a root
        for g, nfx, d0, d1 in rng.uniform(0.1, 10.0, (3000, 4)):
            t = SolveTrace(final_dist_sq=float(d1), reason="max_iters")
            t.rows.append(None, None, g, g, nfx, nfx, d0)
            rep = check_descent_invariants(t, op)
            ref = _invariants_by_row(t, op.monotonicity, rep.kind, 1e-10)
            assert float.hex(rep.max_excess) == float.hex(ref[3])

    def test_first_hit_matches_the_row_scan(self):
        op = build("quadratic")
        tr = solve(op, parse_policy("const:0.001"), SolveConfig(max_iters=9000, x0=[5.0, 5.0],
                                                                stop_tol=0.0))
        d20 = tr.rows.dist_sq[0]
        for tol in (1.0, 0.5, 1e-3, 1e-4, 1e-30):
            ref = next((k for k, d2 in enumerate(tr.rows.dist_sq) if d2 / d20 <= tol), -1)
            assert first_hit(tr.rows, lambda r: r.dist_sq / d20, tol) == ref
        assert first_hit(tr.rows, lambda r: r.dist_sq / d20, 1e-4) > TRACE_CHUNK
