"""Extragradient iteration: single step, full solve loop, invariant checks,
and trace CSV round-trip."""
from __future__ import annotations

import csv
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
    TraceRow,
    norm,
    vec,
)
from .stepsize import OmegaRule, StepSizePolicy, gamma, omega


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


def _one_step(F: OperatorInstance, x: np.ndarray, policy: StepSizePolicy, k: int,
              F_x: np.ndarray, norm_F_x: float) -> IterationState:
    # F(x) and its norm come from the caller, so a step evaluates F only at xhat
    g = gamma(policy, norm_F_x, s=F.smoothness, m=F.monotonicity)
    xhat = x - g * F_x
    F_xhat = F(xhat)
    if policy.omega_rule is OmegaRule.PETHICK and float(F_xhat @ F_xhat) == 0.0:
        # update term is zero either way; keep the row well-defined
        w = g
    else:
        m = F.monotonicity
        w = omega(policy, g, F_xhat=F_xhat, x_minus_xhat=x - xhat,
                  rho=m.rho if m is not None else None)
    return IterationState(k=k, x=x, F_x=F_x, gamma_k=g, xhat=xhat,
                          F_xhat=F_xhat, omega_k=w, next_x=x - w * F_xhat)


def eg_step(F: OperatorInstance, x_k, policy: StepSizePolicy, k: int = 0) -> IterationState:
    """Run one extragradient step from x_k under the given policy."""
    x = vec(x_k, F.dim, what="x_k")
    F_x = F(x)
    return _one_step(F, x, policy, k, F_x, norm(F_x))


def check_policy_compat(F: OperatorInstance, policy: StepSizePolicy,
                        force: bool = False) -> None:
    """Reject policies whose guarantee does not cover the operator's class.

    Policies with a class requirement need the operator to declare a class in
    the allowed set; parameter-free baselines (constant, adaptive, EG+) run on
    anything. With force=True a mismatch downgrades to a warning.
    """
    allowed = policy.allowed_classes()
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

    Each iteration evaluates F twice, at x_k and at xhat_k. The stopping
    iterate still gets a trace row (so minima and plots include it) but is
    not updated; `final_x` is then that iterate. A non-finite iterate or
    evaluation raises NonFiniteIterate carrying the partial trace on its
    `trace` attribute and the offending index on `k`.
    """
    check_policy_compat(F, policy, force=force)
    x = np.array(cfg.x0, dtype=np.float64)
    if x.shape[0] != F.dim:
        x = vec(x, F.dim, what="x0")
    xstar = F.solution
    tr = SolveTrace(reason="max_iters")

    def _record(row: TraceRow) -> None:
        if cfg.record_trace:
            tr.rows.append(row)
        if row.norm_F_x < tr.min_norm_F_x:
            tr.min_norm_F_x = row.norm_F_x
            tr.argmin_norm_F_x = row.k
        if math.isfinite(row.norm_F_xhat) and row.norm_F_xhat < tr.min_norm_F_xhat:
            tr.min_norm_F_xhat = row.norm_F_xhat
            tr.argmin_norm_F_xhat = row.k

    def _fail(k: int, what: str) -> NonFiniteIterate:
        tr.iterations_run = k
        tr.reason = "nonfinite"
        tr.final_x = x
        err = NonFiniteIterate(f"{what} at iteration {k}", k=k)
        err.trace = tr
        return err

    # overflow on the way to a non-finite iterate is reported as
    # NonFiniteIterate below, not as a numpy RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.max_iters):
            F_x = F(x)
            nfx = norm(F_x)
            if not math.isfinite(nfx):
                raise _fail(k, "non-finite operator value")
            d2 = float((x - xstar) @ (x - xstar)) if xstar is not None else None
            st = _one_step(F, x, policy, k, F_x, nfx)
            nfxh = norm(st.F_xhat)
            row = TraceRow(k=k, x_k=x.copy(), xhat_k=st.xhat, gamma_k=st.gamma_k,
                           omega_k=st.omega_k, norm_F_x=nfx, norm_F_xhat=nfxh, dist_sq=d2)
            if nfx <= cfg.stop_tol:
                _record(row)
                tr.iterations_run = k
                tr.reason = "stop_tol"
                tr.final_x = x
                tr.final_dist_sq = d2
                return tr
            if not math.isfinite(nfxh):
                raise _fail(k, "non-finite operator value at extrapolation point")
            _record(row)
            x = st.next_x
            if not np.isfinite(x).all():
                raise _fail(k + 1, "non-finite iterate")

        tr.iterations_run = cfg.max_iters
        tr.final_x = x
        if xstar is not None:
            tr.final_dist_sq = float((x - xstar) @ (x - xstar))
    return tr


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
    """Check the per-step distance inequality matching the operator's class.

    Strongly monotone: d_{k+1}^2 <= (1 - gamma_k mu) d_k^2.
    Monotone:          d_{k+1}^2 <= d_k^2 - (gamma_k^2 / 2) ||F(x_k)||^2.
    Weak Minty:        d_{k+1}^2 <= d_k^2 - (gamma_k/4)(gamma_k - 4 rho)
                       ||F(xhat_k)||^2, checked only when gamma_k > 4 rho.

    Distances come from the recorded rows plus the post-final-update
    `final_dist_sq`; a stop_tol run's terminal row has no outgoing transition.
    """
    m = m if m is not None else F.monotonicity
    if m is None:
        raise MissingConstant("no monotonicity class declared and none supplied")
    if F.solution is None:
        raise MissingSolution(f"{F.label or 'operator'} has no known solution")
    rows = trace.rows
    if not rows:
        return InvariantReport(m.kind, 0, 0, 0, -math.inf)

    d2 = [r.dist_sq for r in rows]
    if any(v is None for v in d2):
        raise MissingSolution("trace rows carry no distances (solved without a known root?)")
    d2.append(trace.final_dist_sq)
    n_trans = len(rows) - 1 if trace.reason == "stop_tol" else len(rows)
    if trace.final_dist_sq is None:
        n_trans = min(n_trans, len(rows) - 1)

    checked = 0
    viol = 0
    worst = -math.inf
    for i in range(n_trans):
        r = rows[i]
        lhs = d2[i + 1]
        if m.kind is MonotoneClass.STRONGLY_MONOTONE:
            rhs = (1.0 - r.gamma_k * m.mu) * d2[i]
        elif m.kind is MonotoneClass.MONOTONE:
            rhs = d2[i] - 0.5 * r.gamma_k ** 2 * r.norm_F_x ** 2
        else:
            if not (r.gamma_k > 4.0 * m.rho):
                continue
            rhs = d2[i] - (r.gamma_k / 4.0) * (r.gamma_k - 4.0 * m.rho) * r.norm_F_xhat ** 2
        checked += 1
        excess = lhs - rhs
        worst = max(worst, excess)
        if excess > tol:
            viol += 1
    return InvariantReport(m.kind, n_trans, checked, viol, worst)


# ---------------------------------------------------------------------------
# trace CSV round-trip
# ---------------------------------------------------------------------------

_TRACE_HEADER = ["k", "gamma", "omega", "norm_F_x", "norm_F_xhat", "dist_sq"]


def write_trace_csv(trace: SolveTrace, out: Union[str, TextIO]) -> None:
    """Write the scalar trace columns plus a summary comment line.

    Floats are written with repr so a round-trip is exact and two identical
    runs produce byte-identical files.
    """
    own = isinstance(out, str)
    fh = open(out, "w", newline="") if own else out
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_TRACE_HEADER)
        for r in trace.rows:
            w.writerow([r.k, repr(r.gamma_k), repr(r.omega_k), repr(r.norm_F_x),
                        repr(r.norm_F_xhat),
                        "" if r.dist_sq is None else repr(r.dist_sq)])
        fh.write(f"# iters={trace.iterations_run},min_normF={repr(trace.min_norm_F_x)},"
                 f"reason={trace.reason}\n")
    finally:
        if own:
            fh.close()


def read_trace_csv(path: str) -> SolveTrace:
    """Rebuild a trace from the CSV; iterate vectors are not stored there."""
    tr = SolveTrace()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _TRACE_HEADER:
        raise ValueError(f"{path}: not a trace CSV (header {rows[0] if rows else 'missing'})")
    for rec in rows[1:]:
        if rec and rec[0].startswith("#"):
            meta = rec[0].lstrip("# ")
            fields = dict(p.split("=", 1) for p in ",".join([meta] + rec[1:]).split(","))
            tr.iterations_run = int(fields["iters"])
            tr.min_norm_F_x = float(fields["min_normF"])
            tr.reason = fields["reason"]
            continue
        k, g, w, nfx, nfxh, d2 = rec
        tr.rows.append(TraceRow(k=int(k), x_k=None, xhat_k=None, gamma_k=float(g),
                                omega_k=float(w), norm_F_x=float(nfx),
                                norm_F_xhat=float(nfxh),
                                dist_sq=None if d2 == "" else float(d2)))
    return tr
