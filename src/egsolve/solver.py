"""Extragradient iteration: single step, full solve loop, invariant checks,
and trace CSV round-trip."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, TextIO, Union

import numpy as np

from .core import (
    IncompatiblePolicy,
    MissingConstant,
    MissingSolution,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteIterate,
    OperatorInstance,
    SolveConfig,
    SolveTrace,
    TRACE_CHUNK,
    TraceColumns,
    _F64,
    norm,
    overflow_as_data,
    read_csv,
    vec,
    write_csv,
)
from .stepsize import StepSizePolicy, gamma, omega  # gamma, omega unused; perfbench wraps them


@dataclass(frozen=True)
class IterationState:
    """One extragradient step: extrapolation then update, fully expanded."""
    k: int
    x: np.ndarray
    F_x: np.ndarray
    gamma_k: float
    xhat: np.ndarray
    F_xhat: np.ndarray
    omega_k: float
    next_x: np.ndarray


def resolve_policy(F: OperatorInstance, policy: StepSizePolicy) -> tuple:
    """(rule, update) of the policy on F, built before any evaluation: `policy.rule`
    and `policy.update` on F's declared constants."""
    m = F.monotonicity
    return policy.rule(F.smoothness, m), policy.update(m.rho if m is not None else None)


def eg_step(F: OperatorInstance, x_k, policy: StepSizePolicy, k: int = 0) -> IterationState:
    """Run one extragradient step from x_k under the given policy."""
    x = vec(x_k, F.dim, what="x_k")
    rule, update = resolve_policy(F, policy)
    with overflow_as_data():
        F_x = F(x)
        g = rule(norm(F_x))
        if not g > 0:
            raise ValueError(f"gamma_k must be positive, got {g}")
        xhat = x - g * F_x
        F_xhat = F(xhat)
        w = update(g, F_xhat, x, xhat)
        next_x = x - w * F_xhat
    return IterationState(k=k, x=x, F_x=F_x, gamma_k=g, xhat=xhat,
                          F_xhat=F_xhat, omega_k=w, next_x=next_x)


def _dist_sq(x: np.ndarray, xstar: Optional[np.ndarray]) -> Optional[float]:
    if xstar is None:
        return None
    e = x - xstar
    return float(e.dot(e))


def rel_err_base(x0: np.ndarray, xstar: np.ndarray) -> float:
    """||x0 - x*||^2, the base of the relative error ||x_k - x*||^2 / ||x0 - x*||^2;
    ValueError where that error is undefined: the base is 0 or overflows."""
    with overflow_as_data():
        d20 = _dist_sq(x0, xstar)
    if not 0.0 < d20 < math.inf:
        why = "x0 is the root" if d20 == 0.0 else "||x0 - x*||^2 overflows"
        raise ValueError(f"{why}: the relative error ||x_k - x*||^2 / ||x0 - x*||^2 is undefined")
    return d20


def check_policy_compat(F: OperatorInstance, policy: StepSizePolicy,
                        force: bool = False) -> None:
    """Reject policies whose guarantee does not cover the operator's class.

    Policies with a class requirement need the operator to declare a class in
    the allowed set; parameter-free baselines (constant, adaptive, EG+) run on
    anything. With force=True a mismatch downgrades to a warning.
    """
    allowed = policy.kind.classes
    if allowed is None:
        return
    m = F.monotonicity
    ok = m is not None and m.kind in allowed
    if ok:
        return
    have = m.kind.value if m is not None else "none declared"
    msg = (f"policy '{policy.kind.value}' assumes one of "
           f"{sorted(c.value for c in allowed)}; operator "
           f"{F.label or '<unnamed>'} declares: {have}")
    if force:
        warnings.warn(msg)
    else:
        raise IncompatiblePolicy(msg + " (pass force=True to run anyway)")


def solve(F: OperatorInstance, policy: StepSizePolicy, cfg: SolveConfig,
          force: bool = False) -> SolveTrace:
    """Iterate until ||F(x_k)|| <= stop_tol or the budget runs out.

    Each iteration evaluates F twice, at x_k and at xhat_k, by calling `F.fn`
    and applying `F(x)`'s output rule without the method call: a float64
    vector of length dim as it is, anything else through `F._vector`;
    `n_F_evals` counts them. The stopping iterate still gets a trace row (so
    minima and plots include it) but is not updated; `final_x` is then that
    iterate. A non-finite iterate or evaluation, or a step gamma_k that
    underflows to 0 (its denominator overflowed), raises NonFiniteIterate
    carrying the partial trace on its `trace` attribute and the offending
    index on `k`.

    A stopping iterate where the rule has no step (MissingConstant: a root
    where its denominator is 0, or a Vankov cap that overflows) still stops;
    its row takes no step (gamma = omega = 0 and xhat = x) and costs one
    evaluation. Elsewhere that MissingConstant propagates.

    With `cfg.rel_tol` and a declared root, `first_rel_hit` is the first k
    whose row has dist_sq / dist_sq_0 <= rel_tol, also when no rows are kept;
    ValueError before any evaluation when ||x0 - x*||^2 is 0 or overflows.
    """
    check_policy_compat(F, policy, force=force)
    rule, update = resolve_policy(F, policy)
    x = np.array(cfg.x0, dtype=np.float64)
    if x.shape[0] != F.dim:
        x = vec(x, F.dim, what="x0")
    xstar = F.solution
    # a root at the origin (entries +-0.0) needs no subtraction: x - x* differs
    # from x at most in the sign of a zero entry, which its square drops
    shift = xstar if xstar is not None and xstar.any() else None
    fn, shape = F.fn, (F.dim,)
    rel_tol = cfg.rel_tol if xstar is not None else None
    stop_tol = cfg.stop_tol
    tr = SolveTrace(kind=policy.kind, rows=TraceColumns(F.dim, dist=xstar is not None))
    append = tr.rows.append if cfg.record_trace else None
    # running minima over the recorded rows, first index wins ties, and the
    # first relative hit; they are written to the trace on return and with
    # every NonFiniteIterate
    min_f, arg_f, min_h, arg_h, hit = math.inf, -1, math.inf, -1, -1

    def _finish(k: int, reason: str, d2: Optional[float], extra: int = 0) -> SolveTrace:
        # iterations 0..k-1 evaluated F twice each; `extra` counts iteration k's
        tr.n_F_evals = 2 * k + extra
        tr.min_norm_F_x, tr.argmin_norm_F_x = min_f, arg_f
        tr.min_norm_F_xhat, tr.argmin_norm_F_xhat = min_h, arg_h
        tr.first_rel_hit = None if rel_tol is None else hit
        tr.iterations_run = k
        tr.reason = reason
        tr.final_x = x
        tr.final_dist_sq = d2
        return tr

    def _fail(k: int, what: str, extra: int = 0) -> NonFiniteIterate:
        err = NonFiniteIterate(f"{what} at iteration {k}", k=k)
        err.trace = _finish(k, "nonfinite", None, extra)
        return err

    with overflow_as_data():
        d2 = d20 = _dist_sq(x, xstar) if rel_tol is None else rel_err_base(x, xstar)
        for k in range(cfg.max_iters):
            # F(x) inlined (x is a float64 vector here, so only the output is
            # checked), then norm() inlined: the same dot over the same contiguous
            # vector (a strided output is copied by ravel) and the same sqrt
            F_x = fn(x)
            if type(F_x) is not np.ndarray or F_x.dtype is not _F64 or F_x.shape != shape:
                F_x = F._vector(F_x)
            v = F_x.ravel()
            nfx = math.sqrt(v.dot(v))
            if not math.isfinite(nfx):
                raise _fail(k, "non-finite operator value", 1)
            try:   # costs nothing until the rule raises
                g = rule(nfx)
            except MissingConstant:
                if not nfx <= stop_tol:
                    raise
                # x_k stops where the rule has no step: its row takes none
                g = w = 0.0
                xhat, nfxh = x, nfx
            else:
                if not g > 0:
                    raise _fail(k, f"step gamma_k underflowed to {g}", 1)
                xhat = x - g * F_x
                F_xhat = fn(xhat)
                if (type(F_xhat) is not np.ndarray or F_xhat.dtype is not _F64
                        or F_xhat.shape != shape):
                    F_xhat = F._vector(F_xhat)
                w = update(g, F_xhat, x, xhat)
                v = F_xhat.ravel()
                nfxh = math.sqrt(v.dot(v))
            stop = nfx <= stop_tol
            if not stop and not math.isfinite(nfxh):
                raise _fail(k, "non-finite operator value at extrapolation point", 2)
            if append is not None:
                append(x, xhat, g, w, nfx, nfxh, d2)
            if rel_tol is not None and hit < 0 and d2 / d20 <= rel_tol:
                hit = k
            if nfx < min_f:
                min_f, arg_f = nfx, k
            if nfxh < min_h:    # a non-finite nfxh (terminal row only) never wins
                min_h, arg_h = nfxh, k
            if stop:   # a row that took no step (g = 0) evaluated F once
                return _finish(k, "stop_tol", d2, 2 if g else 1)
            x = x - w * F_xhat
            # a finite sum of squares, ||x - x*||^2 when the root is known, proves
            # every entry finite; only one that overflows needs the entrywise check
            if xstar is not None:
                e = x if shift is None else x - shift
                d2 = float(e.dot(e))
            if not math.isfinite(x.dot(x) if d2 is None else d2) and not np.isfinite(x).all():
                raise _fail(k + 1, "non-finite iterate")
        return _finish(cfg.max_iters, "max_iters", d2)


# ---------------------------------------------------------------------------
# per-iterate guarantee checks
# ---------------------------------------------------------------------------

@dataclass
class InvariantReport:
    kind: MonotoneClass
    n_transitions: int       # consecutive-row transitions examined
    n_checked: int           # transitions where the inequality applies
    n_violations: int
    max_excess: float        # worst lhs - rhs over checked transitions

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def check_descent_invariants(trace: SolveTrace, F: OperatorInstance,
                             m: Optional[MonotonicityParams] = None,
                             tol: float = 1e-10) -> InvariantReport:
    """Check the per-step distance inequality of the trace's theorem.

    Strongly monotone: d_{k+1}^2 <= (1 - gamma_k mu) d_k^2.
    Monotone:          d_{k+1}^2 <= d_k^2 - (gamma_k^2 / 2) ||F(x_k)||^2.
    Weak Minty:        d_{k+1}^2 <= d_k^2 - (gamma_k/4)(gamma_k - 4 rho)
                       ||F(xhat_k)||^2, checked only when gamma_k > 4 rho.

    A trace whose policy kind covers a set of classes is checked under the
    weakest of them (thm8's weak-Minty inequality also on a strongly monotone
    operator), with mu and rho from `m` (rho = 0 unless `m` is weak Minty); a
    class outside that set raises IncompatiblePolicy. Other traces use `m`'s
    own class. `m` defaults to the operator's declared class.

    Distances come from the recorded rows plus the post-final-update
    `final_dist_sq`; a stop_tol run's terminal row has no outgoing transition.
    """
    m = m if m is not None else F.monotonicity
    if m is None:
        raise MissingConstant("no monotonicity class declared and none supplied")
    if F.solution is None:
        raise MissingSolution(f"{F.label or 'operator'} has no known solution")
    cls = m.kind
    allowed = trace.kind.classes if trace.kind is not None else None
    if allowed is not None:
        if cls not in allowed:
            raise IncompatiblePolicy(f"policy '{trace.kind.value}' guarantees nothing on a "
                                     f"{cls.value} operator; no inequality to check")
        cls = [c for c in MonotoneClass if c in allowed][-1]   # classes run strongest first
    cols = trace.rows
    if not cols:
        return InvariantReport(cls, 0, 0, 0, -math.inf)
    d2 = cols.dist_sq
    if d2 is None:
        raise MissingSolution("trace rows carry no distances (solved without a known root?)")
    n = len(cols)
    n_trans = n - 1 if trace.reason == "stop_tol" else n
    if trace.final_dist_sq is None:
        n_trans = min(n_trans, n - 1)

    # the former per-row loop's arithmetic, elementwise: float_power is C pow,
    # as Python's ** on a float is (np.square rounds differently in ~0.1% of rows)
    sq = lambda v: np.float_power(v, 2)
    checked = 0
    viol = 0
    worst = -math.inf
    gam, nfx, nfxh = cols.gamma, cols.norm_F_x, cols.norm_F_xhat
    with overflow_as_data():
        for a in range(0, n_trans, TRACE_CHUNK):
            stop = min(a + TRACE_CHUNK, n_trans)
            lhs = d2[a + 1:stop + 1]
            if len(lhs) < stop - a:    # the last transition lands on final_dist_sq
                lhs = np.append(lhs, trace.final_dist_sq)
            g, d = gam[a:stop], d2[a:stop]
            if cls is MonotoneClass.STRONGLY_MONOTONE:
                rhs = (1.0 - g * m.mu) * d
            elif cls is MonotoneClass.MONOTONE:
                rhs = d - 0.5 * sq(g) * sq(nfx[a:stop])
            else:
                on = g > 4.0 * m.rho
                g, lhs = g[on], lhs[on]
                rhs = d[on] - (g / 4.0) * (g - 4.0 * m.rho) * sq(nfxh[a:stop][on])
            excess = lhs - rhs
            checked += len(excess)
            viol += int(np.count_nonzero(excess > tol))
            worst = float(np.fmax.reduce(excess, initial=worst))   # a NaN excess never wins
    return InvariantReport(cls, n_trans, checked, viol, worst)


# ---------------------------------------------------------------------------
# trace CSV round-trip
# ---------------------------------------------------------------------------

_TRACE_HEADER = ["k", "gamma", "omega", "norm_F_x", "norm_F_xhat", "dist_sq"]
_TRACE_TYPES = (int, float, float, float, float, lambda c: None if c == "" else float(c))


def write_trace_csv(trace: SolveTrace, out: Union[str, TextIO]) -> None:
    """Write the scalar trace columns plus a summary comment line (see
    `core.write_csv`: the round-trip is exact, reruns byte-identical)."""
    rows = trace.rows
    write_csv(out, _TRACE_HEADER, [range(len(rows)), rows.gamma, rows.omega, rows.norm_F_x,
                                   rows.norm_F_xhat, rows.dist_sq],
              footer=f"# iters={trace.iterations_run},min_normF={trace.min_norm_F_x},"
                     f"reason={trace.reason}\n")


def read_trace_csv(path: str) -> SolveTrace:
    """Rebuild a trace from the CSV, one row at a time; iterate vectors are
    not stored there, and distances are kept only when every row has one.
    ValueError naming the line at a bad cell or a `#` row that is not a
    summary footer, and when the k column does not count 0, 1, 2, ..."""
    tr = SolveTrace()
    rows = tr.rows

    def footer(rec):
        fields = dict(p.partition("=")[::2] for p in [rec[0].lstrip("# ")] + rec[1:])
        if not {"iters", "min_normF", "reason"} <= fields.keys():
            raise ValueError("a trace CSV's # row is its footer "
                             "'# iters=..,min_normF=..,reason=..'")
        tr.iterations_run = int(fields["iters"])
        tr.min_norm_F_x = float(fields["min_normF"])
        tr.reason = fields["reason"]

    for k, g, w, nfx, nfxh, d2 in read_csv(path, _TRACE_HEADER, "trace", _TRACE_TYPES, footer):
        if k != len(rows):
            raise ValueError(f"{path}: row {len(rows)} has k={k}; a trace CSV counts k from 0")
        rows.dist = rows.dist and d2 is not None
        rows.append(None, None, g, w, nfx, nfxh, d2)
    return tr
