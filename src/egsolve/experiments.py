"""The paper's three experiments as data, and the driver that reproduces them.

Each FIGURES entry holds the operator key `op` and start rule `x0` as --op and
--x0 spell them (the caller builds both), the default budget `iters`, the gnuplot terminal `size` and
`plot` body, its extra meta.txt lines `meta`, its `checks`, and either the
adaptive `cells` (c0, c1) it sweeps or the `runs` {name: policy} it compares
(`force`: outside a policy's class) in the comparison.csv column `col` of
`metric`(trace columns, ||x0 - x*||^2). Every solve and trace write calls the module
attributes `solver.solve` and `solver.write_trace_csv`, which perfbench wraps.
"""
from __future__ import annotations

import math
import os
from typing import List

import numpy as np

from . import solver
from .core import NonFiniteIterate, SmoothnessParams, SolveConfig, overflow_as_data, write_csv
from .stepsize import PolicyKind, StepSizePolicy, parse_policy


def first_hit(rows, metric, tol: float) -> int:
    """First iterate index k with metric(rows)[k] <= tol, else -1; metric maps
    the trace's TraceColumns to one value per row."""
    with overflow_as_data():    # inf/nan rows compare as the scalar forms did
        hits = np.flatnonzero(metric(rows) <= tol)
    return int(hits[0]) if hits.size else -1


def sweep_cells(op, cells, cfg: SolveConfig, d20: float, out: str) -> List[tuple]:
    """Run adaptive cells 1/(c0 + c1*||F||) (c1 = 0: step 1/c0) in order under cfg,
    a summary-only config with a rel_tol; d20 = ||x0 - x*||^2. Every cell is checked
    before out is created and the first runs. Write sweep.csv and return its rows
    (c0, c1, iters_to_tol, final_relerr); a cell that diverged or ended above 10x its
    start reads (-1, inf)."""
    policies = [StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=c0, c1=c1) for c0, c1 in cells]
    os.makedirs(out, exist_ok=True)
    rows = []
    for cell, policy in zip(cells, policies):
        try:
            tr = solver.solve(op, policy, cfg)
        except NonFiniteIterate:
            rows.append((*cell, -1, math.inf))
            continue
        relerr = tr.final_dist_sq / d20
        ok = math.isfinite(relerr) and relerr <= 10.0
        rows.append((*cell, tr.first_rel_hit, relerr) if ok else (*cell, -1, math.inf))
    write_csv(os.path.join(out, "sweep.csv"), ["c0", "c1", "iters_to_tol", "final_relerr"],
              zip(*rows))
    return rows


def _compare(out: str, op, cfg: SolveConfig, fig: dict, d20: float) -> dict:
    """Solve the figure's runs under cfg; write each trace_<name>.csv and comparison.csv
    (k, then <col>_<name>, gamma_<name> per run, up to the shortest trace), where
    metric(rows, d20) maps a trace's TraceColumns to its <col> values."""
    os.makedirs(out, exist_ok=True)
    traces = {n: solver.solve(op, pol, cfg, force=fig["force"]) for n, pol in fig["runs"].items()}
    for name, tr in traces.items():
        solver.write_trace_csv(tr, os.path.join(out, f"trace_{name}.csv"))
    n = min(len(tr.rows) for tr in traces.values())
    with overflow_as_data():
        cols = [v[:n] for tr in traces.values()
                for v in (fig["metric"](tr.rows, d20), tr.rows.gamma)]
    write_csv(os.path.join(out, "comparison.csv"),
              ["k"] + [f"{c}_{name}" for name in traces for c in (fig["col"], "gamma")],
              [range(n), *cols])
    return traces


def reproduce(name: str, op, x0, out: str, iters: int, seed: int) -> List[tuple]:
    """Solve figure `name` on op, built from its `op` key, with `iters` iterations
    from x0, read from its `x0` rule under `seed`; write its CSVs, meta.txt and
    <name>.gnuplot into out (created if missing), and return its checks as
    (check name, ok, detail)."""
    fig = FIGURES[name]
    rule = fig["x0"]
    start = ([("x0", ",".join(map(str, x0))), ("x0_rule", f"{rule} with seed {seed}")]
             if rule.startswith("rand:") else [("x0", rule)])
    d20 = solver.rel_err_base(x0, op.solution)
    # each solve records its first hit of relative error 1e-8; sweep cells keep no rows
    cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=0.0, record_trace="runs" in fig,
                      rel_tol=_REL_TOL)
    result = (sweep_cells(op, fig["cells"], cfg, d20, out) if "cells" in fig
              else _compare(out, op, cfg, fig, d20))
    meta = [("experiment", name), ("operator", fig["op"]), *start, ("iters", iters), *fig["meta"],
            ("seed", seed)]
    with open(os.path.join(out, "meta.txt"), "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in meta)
    with open(os.path.join(out, f"{name}.gnuplot"), "w") as fh:
        fh.write(f"set datafile separator comma\nset terminal pngcairo size {fig['size']}\n"
                 f"set output '{name}.png'\n{fig['plot']}")
    return fig["checks"](result)


_REL_TOL = 1e-8   # the relative error fig3 and fig4 count iterations to
# a strong-monotonicity modulus at no iterate of either fig3 run (the least eigenvalue
# of the symmetric Jacobian stays <= 10); fig3 forces: signpower is merely monotone
_MU_LOCAL = 12.5


def _fig3_checks(traces) -> list:
    rows_o, rows_v = traces["ours"].rows, traces["vankov"].rows
    cap = 1.0 / (4.0 * _MU_LOCAL)   # the baseline's step cap
    hit_o, hit_v = traces["ours"].first_rel_hit, traces["vankov"].first_rel_hit
    g_o_max = rows_o.gamma.max()
    # the baseline step is norm-limited during the initial transient, then the
    # 1/(4 mu) cap binds; "stays near the cap" means entered-and-held
    off_cap = lambda r: abs(r.gamma - cap)
    enter = first_hit(rows_v, off_cap, 0.005)
    return [
        ("fig3-iterations", hit_o != -1 and hit_v != -1 and hit_o < hit_v,
         f"ours@{hit_o} vs baseline@{hit_v} to relerr 1e-8"),
        ("fig3-baseline-step",
         enter != -1 and bool((off_cap(rows_v)[enter:] <= 0.005).all()),
         f"baseline step reaches {cap:g} +/- 0.005 at k={enter} and holds it"),
        ("fig3-our-step-grows", g_o_max > 0.032, f"our max step {g_o_max} > 0.032"),
    ]


def _fig4_checks(rows) -> list:
    # the constant cells (c1 = 0) come first, in ascending c
    consts = [(c0, fr) for c0, c1, _, fr in rows if c1 == 0.0]
    best_c, best_fr = min(((c, fr) for c, fr in consts if math.isfinite(fr)),
                          key=lambda t: t[1], default=(None, math.inf))
    a_fr = next(fr for c0, c1, _, fr in rows if (c0, c1) == (10.0, 10.0))
    return [
        ("fig4-best-constant", best_c == 1e5,
         f"best constant cell c={best_c if best_c else 'none'} "
         f"(relerr {best_fr}), expected 1e5"),
        ("fig4-small-constants-diverge", all(math.isinf(fr) for c, fr in consts if c < 1e5),
         "constant cells c in {1e2,1e3,1e4} all diverged"),
        ("fig4-adaptive-beats-constant", a_fr < best_fr,
         f"adaptive (10,10) relerr {a_fr} < best constant {best_fr}"),
    ]


# fig5's ours runs with (alpha, L0, L1) = (1, 1, 1), smaller than the declared (1, 2.5, 5);
# ||J|| <= 1 + ||F|| fails at 1,155 of its 1,184 iterates (||J(0)|| = 1.20)
_FIG5_OURS, _FIG5_STEP = SmoothnessParams(alpha=1.0, L0=1.0, L1=1.0), 0.1  # step: EG+'s, Pethick's


def _fig5_checks(traces) -> list:
    norm_x = lambda r: np.sqrt(r.dist_sq)   # the comparison.csv column
    hits = {n: first_hit(tr.rows, norm_x, 1e-3) for n, tr in traces.items()}
    finals = {n: math.sqrt(tr.final_dist_sq) for n, tr in traces.items()}
    return [
        ("fig5-all-converge", all(f <= 1e-3 for f in finals.values()),
         "final distances " + ", ".join(f"{n}={f}" for n, f in finals.items())),
        ("fig5-ours-fastest",
         hits["ours"] != -1 and all(hits["ours"] < h or h == -1
                                    for n, h in hits.items() if n != "ours"),
         f"iterations to 1e-3: " + ", ".join(f"{n}@{h}" for n, h in hits.items())),
    ]


FIGURES = {
    "fig3": dict(
        op="signpower", x0="5,5", iters=20000, size="1200,500", checks=_fig3_checks,
        runs={"ours": parse_policy("cor1"), "vankov": parse_policy(f"vankov:{_MU_LOCAL}")},
        col="relerr", metric=lambda r, d20: r.dist_sq / d20, force=True,
        meta=(("mu_local", _MU_LOCAL), ("rel_tol", "1e-8")),
        plot=("set multiplot layout 1,2\n"
              "set logscale y\nset xlabel 'iteration'\nset ylabel 'relative squared error'\n"
              "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
              "     'comparison.csv' using 1:4 every ::1 with lines title 'capped baseline'\n"
              "unset logscale y\nset ylabel 'step size'\n"
              "plot 'comparison.csv' using 1:3 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
              "     'comparison.csv' using 1:5 every ::1 with lines title 'capped baseline'\n"
              "unset multiplot\n")),
    "fig4": dict(
        op="cubicRd:d=10,seed=42,scale=5", x0="rand:1000", iters=20000, size="900,500",
        cells=[(c, 0.0) for c in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)]
        + [(c0, c1) for c0 in (10.0, 100.0, 1000.0) for c1 in (0.1, 1.0, 10.0)],
        meta=(("rel_tol", "1e-8"),), checks=_fig4_checks,
        plot=("set logscale y\nset xlabel 'grid cell'\nset ylabel 'final relative squared error'\n"
              "set xtics rotate by -45\n"
              "plot 'sweep.csv' every ::1 using 0:4:xtic(sprintf('(%g,%g)', "
              "column(1), column(2))) with points pt 7 title 'final error'\n")),
    "fig5": dict(
        op="forsaken", x0="1,1", iters=3000, size="900,500", checks=_fig5_checks,
        runs={"ours": StepSizePolicy(kind=PolicyKind.WEAK_MINTY, smoothness=_FIG5_OURS),
              "egplus": StepSizePolicy(kind=PolicyKind.EGPLUS, step=_FIG5_STEP),
              "pethick": StepSizePolicy(kind=PolicyKind.PETHICK, step=_FIG5_STEP)},
        col="norm_x", metric=lambda r, d20: np.sqrt(r.dist_sq), force=False,
        meta=(("ours_constants", f"alpha={_FIG5_OURS.alpha:g},L0={_FIG5_OURS.L0:g},"
               f"L1={_FIG5_OURS.L1:g}"), ("baseline_step", _FIG5_STEP),
              ("hit_metric", "||x|| <= 1e-3")),
        plot=("set logscale y\nset xlabel 'iteration'\nset ylabel 'distance to origin'\n"
              "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
              f"     'comparison.csv' using 1:4 every ::1 with lines title 'EG+ {_FIG5_STEP:g}', \\\n"
              "     'comparison.csv' using 1:6 every ::1 with lines title "
              f"'residual-adaptive {_FIG5_STEP:g}'\n")),
}
