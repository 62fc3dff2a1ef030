"""Command-line harness: generic solve/sweep/verify/estimate commands, the
named experiment reproductions, INI config files, CSV outputs, and gnuplot
script emission.

Exit codes: 0 ok, 1 usage/config error, 2 divergence, 3 assertion or
verification failure.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/layers.py subclasses it
from typing import List, Optional, Tuple

import numpy as np

from . import analysis, operators, solver
from .core import (
    MAX_TRACE_ROWS,
    EgsolveError,
    IncompatiblePolicy,
    NonFiniteIterate,
    SmoothnessParams,
    SolveConfig,
    check_iters,
    norm,
    overflow_as_data,
    spectral_norm,  # unused here; perfbench/layers.py still wraps cli.spectral_norm by name
    vec,
    write_csv,
)
from .stepsize import (
    NuKind,
    POLICY_KEY_HELP,
    PolicyKind,
    StepSizePolicy,
    parse_policy,
    solve_nu,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_ASSERT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read '-1,1' (an --x0) as a value: no egsolve flag starts with a digit
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        raise _UsageError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _number(text: str):
    """int if the text reads as one, else float; ValueError if neither."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_op_key(text: str):
    """'key' or 'key:param=value,param=value' against the operator registry."""
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep or not k:
                raise _UsageError(f"bad operator parameter '{item}' (expected name=value)")
            params[k.strip()] = _flag("--op", text, _number, v.strip())
    try:
        return operators.build(head.strip(), **params)
    except KeyError as e:
        raise _UsageError(str(e.args[0])) from None
    except TypeError as e:
        raise _UsageError(f"operator '{head}': {e}") from None


def parse_x0(text: str, dim: int, seed: int) -> np.ndarray:
    """'v1,v2,...' or 'rand:RADIUS' (a seeded direction of that norm), checked under --x0."""
    if text.startswith("rand:"):
        u = np.random.default_rng(seed).standard_normal(dim)
        x0 = _flag("--x0", text, float, text[5:]) * u / norm(u)
    else:
        x0 = _numbers("--x0", text)
    return _flag("--x0", text, vec, x0, dim, what="x0")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _flag(flag: str, value, check, *args, **kwargs):
    """Run the library check of a flag's value; its error becomes '--flag value: reason'."""
    try:
        return check(*args, **kwargs)
    except (ValueError, EgsolveError) as e:
        raise _UsageError(f"{flag} {value}: {e}") from None


def _numbers(flag: str, text: str) -> List[float]:
    """The numbers of a flag's comma list (blank entries skipped), checked by `_flag`."""
    return _flag(flag, text, lambda: [float(v) for v in text.split(",") if v.strip()])


def _grid_n(args, dim: int, default: int) -> int:
    """Points per axis from --grid (or the default), checked against the grid
    limits before any evaluation."""
    n = args.grid if args.grid is not None else default
    _flag("--grid", n, analysis.check_grid, dim, n)
    return n


def _box(args, op):
    """--box (or the registry's default box), checked before --out is created."""
    box = args.box if args.box is not None else operators.default_box(op.label, op.dim)
    _flag("--box", args.box, analysis.box_bounds, box, op.dim)
    return box


def _policy(args, op) -> StepSizePolicy:
    """--policy, with solve's checks on op (the class unless --force) run before --out exists."""
    try:
        policy = parse_policy(args.policy)
        if not args.force:
            solver.check_policy_compat(op, policy)
    except (ValueError, IncompatiblePolicy) as e:
        raise _UsageError(str(e).replace("force=True", "--force")) from None
    solver.resolve_policy(op, policy)
    return policy


def _first_hit(rows, metric, tol: float) -> int:
    """First iterate index k with metric(row) <= tol, else -1. metric maps a
    chunk of the trace's columns (`TraceColumns.chunks`) to one value per row."""
    with overflow_as_data():    # inf/nan rows compare as the scalar forms did
        for c in rows.chunks():
            hits = np.flatnonzero(metric(c) <= tol)
            if hits.size:
                return c.k[hits[0]]
    return -1


# ---------------------------------------------------------------------------
# plain commands
# ---------------------------------------------------------------------------

def cmd_nu(args) -> int:
    print(solve_nu(NuKind(args.kind)))
    return EXIT_OK


def cmd_solve(args) -> int:
    op = parse_op_key(args.op)
    policy = _policy(args, op)
    x0 = parse_x0(args.x0, op.dim, args.seed)
    _flag("--iters", args.iters, check_iters, args.iters)
    cfg = _flag("--tol", args.tol, SolveConfig, max_iters=args.iters, x0=x0, stop_tol=args.tol)
    out = _ensure_out(args.out)
    trace_path = os.path.join(out, "trace.csv")
    try:
        tr = solver.solve(op, policy, cfg, force=args.force)
    except NonFiniteIterate as e:
        solver.write_trace_csv(e.trace, trace_path)
        print(f"diverged: {e} (partial trace: {trace_path})")
        return EXIT_DIVERGED
    solver.write_trace_csv(tr, trace_path)
    summary = (f"reason={tr.reason} iters={tr.iterations_run} "
               f"min_normF={tr.min_norm_F_x}@{tr.argmin_norm_F_x}")
    if tr.final_dist_sq is not None:
        summary += f" final_dist_sq={tr.final_dist_sq}"
    print(summary)
    print(f"trace: {trace_path}")
    return EXIT_OK


def _sweep_cell(op, policy, cfg, d20: float) -> Tuple[int, float]:
    """(iters_to_tol, final_relerr) of one summary-only cell, (-1, inf) if it
    diverged or ended above 10x its starting error."""
    try:
        tr = solver.solve(op, policy, cfg)
    except NonFiniteIterate:
        return -1, math.inf
    relerr = tr.final_dist_sq / d20
    if not math.isfinite(relerr) or relerr > 10.0:
        return -1, math.inf
    return tr.first_rel_hit, relerr


def _sweep(op, cells, x0, iters: int, rel_tol: float, out: str) -> List[tuple]:
    """Run adaptive cells 1/(c0 + c1*||F||) in order (c1 = 0: step 1/c0) from x0,
    relative to ||x0 - x*||^2 of op's root; iters, rel_tol, x0 and all cells are
    checked before the first runs. Cells keep no trace rows: `solve` records each
    one's first relative hit. Write sweep.csv, return (c0, c1, iters_to_tol,
    final_relerr)."""
    _flag("--iters", iters, check_iters, iters)
    # with iters in range, only rel_tol can fail here with a ValueError
    cfg = _flag("--tol", rel_tol, SolveConfig, max_iters=iters, x0=x0, stop_tol=0.0,
                record_trace=False, rel_tol=rel_tol)
    d20 = _flag("--x0", ",".join(map(str, cfg.x0)), solver.rel_err_base, cfg.x0, op.solution)
    policies = [StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=c0, c1=c1) for c0, c1 in cells]
    csv_path = os.path.join(_ensure_out(out), "sweep.csv")
    rows = [(*cell, *_sweep_cell(op, p, cfg, d20)) for cell, p in zip(cells, policies)]
    write_csv(csv_path, ["c0", "c1", "iters_to_tol", "final_relerr"], rows)
    return rows


def cmd_sweep(args) -> int:
    op = parse_op_key(args.op)
    if op.solution is None:
        raise _UsageError(f"sweep needs an operator with a known root; "
                          f"'{op.label}' declares none")
    c0s, c1s = _numbers("--c0", args.c0), _numbers("--c1", args.c1)
    if not c0s or not c1s:
        raise _UsageError("--c0 and --c1 grids must be non-empty")
    x0 = parse_x0(args.x0, op.dim, args.seed)
    cells = [(c0, c1) for c0 in c0s for c1 in c1s]
    for c0, c1, it, fr in _sweep(op, cells, x0, args.iters, args.tol, args.out):
        tag = "diverged" if it == -1 and math.isinf(fr) else f"relerr={fr}"
        print(f"cell ({c0},{c1}): iters_to_tol={it} {tag}")
    print(f"summary: {os.path.join(args.out, 'sweep.csv')}")
    return EXIT_OK


def cmd_verify(args) -> int:
    op = parse_op_key(args.op)
    given = [args.alpha, args.L0, args.L1]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise _UsageError("--alpha, --L0, --L1 must be given together")
        s = SmoothnessParams(alpha=args.alpha, L0=args.L0, L1=args.L1)
    elif op.smoothness is not None:
        s = op.smoothness
    else:
        raise _UsageError(f"'{op.label}' declares no constants; pass --alpha/--L0/--L1")
    box = _box(args, op)
    grid_n = _grid_n(args, op.dim, 201 if op.dim <= 2 else 7)
    _flag("--pairs", args.pairs, analysis.check_pairs, args.pairs)
    out = _ensure_out(args.out)
    fit = analysis.verify_condition(op, s, box, grid_n)
    seg = analysis.verify_segment_condition(op, s, pairs=args.pairs, box=box,
                                            seed=args.seed)
    analysis.write_fit_csv(fit, os.path.join(out, "fit.csv"))
    print(f"jacobian-route: {'PASS' if fit.passed else 'FAIL'} "
          f"max_violation={fit.max_violation} (grid {grid_n}^{op.dim})")
    print(f"segment-route:  {'PASS' if seg.passed else 'FAIL'} "
          f"violations={seg.n_violations}/{seg.n_pairs} min_slack={seg.min_slack}")
    return EXIT_OK if fit.passed and seg.passed else EXIT_ASSERT


def cmd_estimate(args) -> int:
    op = parse_op_key(args.op)
    alphas = _numbers("--alphas", args.alphas)
    _flag("--alphas", args.alphas, analysis.check_alpha_grid, alphas)
    if args.from_grid:
        box = _box(args, op)
        grid_n = _grid_n(args, op.dim, 21)
        sample = lambda: analysis.grid_samples(op, box, grid_n)
    else:
        if args.policy is None:
            raise _UsageError("estimate needs --from-grid or --policy (trace source)")
        policy = _policy(args, op)
        _flag("--iters", args.iters, check_iters, args.iters)
        cfg = SolveConfig(max_iters=args.iters, x0=parse_x0(args.x0, op.dim, args.seed),
                          stop_tol=0.0)
        sample = lambda: analysis.scatter_from_trace(
            op, solver.solve(op, policy, cfg, force=args.force))
    out = _ensure_out(args.out)
    samples = sample()
    fit = analysis.fit_constants(samples, alphas)
    analysis.write_scatter_csv(samples, os.path.join(out, "scatter.csv"))
    analysis.write_fit_csv(fit, os.path.join(out, "fit.csv"))
    print(f"alpha_hat={fit.alpha_hat} L0_hat={fit.L0_hat} "
          f"L1_hat={fit.L1_hat} max_violation={fit.max_violation}")
    print(f"samples: {len(samples)} -> {os.path.join(out, 'scatter.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment reproductions
# ---------------------------------------------------------------------------

def _compare(out: str, op, x0, iters: int, runs, col: str, metric, force: bool) -> dict:
    """Solve the named runs from x0; write each trace_<name>.csv and comparison.csv
    (k, then <col>_<name>, gamma_<name> per run, up to the shortest trace); metric
    maps a chunk of a trace's columns to its <col> values."""
    cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=0.0)
    traces = {name: solver.solve(op, pol, cfg, force=force) for name, pol in runs.items()}
    for name, tr in traces.items():
        solver.write_trace_csv(tr, os.path.join(out, f"trace_{name}.csv"))
    n = min(len(tr.rows) for tr in traces.values())

    def cells():
        with overflow_as_data():
            for chunks in zip(*(tr.rows.chunks(stop=n) for tr in traces.values())):
                cols = [v.tolist() for c in chunks for v in (metric(c), c.gamma_k)]
                yield from zip(chunks[0].k, *cols)
    write_csv(os.path.join(out, "comparison.csv"),
              ["k"] + [f"{c}_{name}" for name in traces for c in (col, "gamma")], cells())
    return traces


# Each _reproduce_<fig>(out, iters, seed) writes its CSVs into out and returns
# (meta items, gnuplot body, checks); cmd_reproduce writes meta.txt and
# <fig>.gnuplot around them and prints one line per (name, ok, detail) check.

def _reproduce_fig3(out: str, iters: int, seed: int) -> tuple:
    op = operators.build("signpower")
    x0 = np.array([5.0, 5.0])
    d20 = solver.rel_err_base(x0, op.solution)
    # mu is a strong-monotonicity modulus at no iterate of either run (the least eigenvalue
    # of the symmetric Jacobian stays <= 10); force=True: signpower is merely monotone
    mu_local = 12.5
    cap = 1.0 / (4.0 * mu_local)   # the baseline's step cap
    runs = {
        "ours": parse_policy("cor1"),
        "vankov": parse_policy(f"vankov:{mu_local}"),
    }
    relerr = lambda r: r.dist_sq / d20
    traces = _compare(out, op, x0, iters, runs, "relerr", relerr, force=True)
    rows_o, rows_v = traces["ours"].rows, traces["vankov"].rows
    meta = [("operator", "signpower"), ("x0", "5,5"), ("iters", iters),
            ("mu_local", mu_local), ("rel_tol", "1e-8")]
    plot = (
        "set multiplot layout 1,2\n"
        "set logscale y\nset xlabel 'iteration'\nset ylabel 'relative squared error'\n"
        "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
        "     'comparison.csv' using 1:4 every ::1 with lines title 'capped baseline'\n"
        "unset logscale y\nset ylabel 'step size'\n"
        "plot 'comparison.csv' using 1:3 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
        "     'comparison.csv' using 1:5 every ::1 with lines title 'capped baseline'\n"
        "unset multiplot\n")
    hit_o = _first_hit(rows_o, relerr, 1e-8)
    hit_v = _first_hit(rows_v, relerr, 1e-8)
    g_o_max = max(c.gamma_k.max() for c in rows_o.chunks())
    # the baseline step is norm-limited during the initial transient, then the
    # 1/(4 mu) cap binds; "stays near the cap" means entered-and-held
    off_cap = lambda r: abs(r.gamma_k - cap)
    enter = _first_hit(rows_v, off_cap, 0.005)
    checks = [
        ("fig3-iterations", hit_o != -1 and hit_v != -1 and hit_o < hit_v,
         f"ours@{hit_o} vs baseline@{hit_v} to relerr 1e-8"),
        ("fig3-baseline-step",
         enter != -1 and all((off_cap(c) <= 0.005).all() for c in rows_v.chunks(enter)),
         f"baseline step reaches {cap:g} +/- 0.005 at k={enter} and holds it"),
        ("fig3-our-step-grows", g_o_max > 0.032, f"our max step {g_o_max} > 0.032"),
    ]
    return meta, plot, checks


_FIG4_OP, _FIG4_X0 = "cubicRd:d=10,seed=42,scale=5", "rand:1000"
_FIG4_CONSTS = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7]
_FIG4_GRID = [(c0, c1) for c0 in (10.0, 100.0, 1000.0) for c1 in (0.1, 1.0, 10.0)]


def _reproduce_fig4(out: str, iters: int, seed: int) -> tuple:
    op = parse_op_key(_FIG4_OP)
    x0 = parse_x0(_FIG4_X0, op.dim, seed)
    results = _sweep(op, [(c, 0.0) for c in _FIG4_CONSTS] + _FIG4_GRID, x0, iters, 1e-8, out)
    meta = [("operator", _FIG4_OP), ("x0", ",".join(map(str, x0))),
            ("x0_rule", f"{_FIG4_X0} with seed {seed}"), ("iters", iters), ("rel_tol", "1e-8")]
    plot = (
        "set logscale y\nset xlabel 'grid cell'\nset ylabel 'final relative squared error'\n"
        "set xtics rotate by -45\n"
        "plot 'sweep.csv' every ::1 using 0:4:xtic(sprintf('(%g,%g)', "
        "column(1), column(2))) with points pt 7 title 'final error'\n")
    const_res = results[:len(_FIG4_CONSTS)]
    adapt_res = {(c0, c1): (it, fr) for c0, c1, it, fr in results[len(_FIG4_CONSTS):]}
    finite_consts = [(c0, fr) for c0, _, it, fr in const_res if math.isfinite(fr)]
    best_c, best_fr = min(finite_consts, key=lambda t: t[1]) if finite_consts else (None, math.inf)
    small_diverged = all(math.isinf(fr) for c0, _, it, fr in const_res if c0 < 1e5)
    a_fr = adapt_res[(10.0, 10.0)][1]
    checks = [
        ("fig4-best-constant", best_c == 1e5,
         f"best constant cell c={best_c if best_c else 'none'} "
         f"(relerr {best_fr}), expected 1e5"),
        ("fig4-small-constants-diverge", small_diverged,
         "constant cells c in {1e2,1e3,1e4} all diverged"),
        ("fig4-adaptive-beats-constant", a_fr < best_fr,
         f"adaptive (10,10) relerr {a_fr} < best constant {best_fr}"),
    ]
    return meta, plot, checks


def _reproduce_fig5(out: str, iters: int, seed: int) -> tuple:
    op = operators.build("forsaken")
    x0 = np.array([1.0, 1.0])
    # ours runs with (alpha, L0, L1) = (1, 1, 1), smaller than the declared (1, 2.5, 5);
    # ||J|| <= 1 + ||F|| fails at 1,155 of its 1,184 iterates (||J(0)|| = 1.20)
    ours, step = SmoothnessParams(alpha=1.0, L0=1.0, L1=1.0), 0.1   # step: EG+'s and Pethick's
    runs = {
        "ours": StepSizePolicy(kind=PolicyKind.WEAK_MINTY, smoothness=ours),
        "egplus": StepSizePolicy(kind=PolicyKind.EGPLUS, step=step),
        "pethick": StepSizePolicy(kind=PolicyKind.PETHICK, step=step),
    }
    norm_x = lambda r: np.sqrt(r.dist_sq)
    traces = _compare(out, op, x0, iters, runs, "norm_x", norm_x, force=False)
    names = list(runs)
    hits = {n: _first_hit(traces[n].rows, norm_x, 1e-3) for n in names}
    finals = {n: math.sqrt(traces[n].final_dist_sq) for n in names}
    meta = [("operator", "forsaken"), ("x0", "1,1"), ("iters", iters),
            ("ours_constants", f"alpha={ours.alpha:g},L0={ours.L0:g},L1={ours.L1:g}"),
            ("baseline_step", step),
            ("hit_metric", "||x|| <= 1e-3")]
    plot = (
        "set logscale y\nset xlabel 'iteration'\nset ylabel 'distance to origin'\n"
        "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
        f"     'comparison.csv' using 1:4 every ::1 with lines title 'EG+ {step:g}', \\\n"
        f"     'comparison.csv' using 1:6 every ::1 with lines title 'residual-adaptive {step:g}'\n")
    checks = [
        ("fig5-all-converge", all(finals[n] <= 1e-3 for n in names),
         "final distances " + ", ".join(f"{n}={finals[n]}" for n in names)),
        ("fig5-ours-fastest",
         hits["ours"] != -1 and all(hits["ours"] < hits[n] or hits[n] == -1
                                    for n in names[1:]),
         f"iterations to 1e-3: " + ", ".join(f"{n}@{hits[n]}" for n in names)),
    ]
    return meta, plot, checks


# figure -> (runner, default iterations, gnuplot terminal size)
_FIGS = {"fig3": (_reproduce_fig3, 20000, "1200,500"),
         "fig4": (_reproduce_fig4, 20000, "900,500"),
         "fig5": (_reproduce_fig5, 3000, "900,500")}


def cmd_reproduce(args) -> int:
    fig = args.figure
    run, default_iters, size = _FIGS[fig]
    iters = args.iters if args.iters is not None else default_iters
    _flag("--iters", iters, check_iters, iters)
    out = _ensure_out(args.out)
    meta, plot, checks = run(out, iters, args.seed)
    with open(os.path.join(out, "meta.txt"), "w") as fh:
        for k, v in [("experiment", fig), *meta, ("seed", args.seed)]:
            fh.write(f"{k} = {v}\n")
    with open(os.path.join(out, f"{fig}.gnuplot"), "w") as fh:
        fh.write(f"set datafile separator comma\nset terminal pngcairo size {size}\n"
                 f"set output '{fig}.png'\n{plot}")
    code = EXIT_OK
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            code = EXIT_ASSERT
    return code


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

_ITERS_HELP = f"iteration budget (at most {MAX_TRACE_ROWS})"


def _add_common(p, iters_default, tol_default):
    p.add_argument("--x0", required=True, help="'v1,v2,...' or 'rand:RADIUS' (seeded)")
    p.add_argument("--iters", type=int, default=iters_default, help=_ITERS_HELP)
    p.add_argument("--tol", type=float, default=tol_default)


def _build_parser() -> _Parser:
    ap = _Parser(prog="egsolve", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="INI file; section [SUBCOMMAND] supplies flag defaults")
    sub = ap.commands = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # one parent's actions serve every subcommand that lists it: set no default on them
    base = _Parser(add_help=False)
    base.add_argument("--op", required=True,
                      help="operator key, e.g. quadratic or cubicRd:d=10,seed=42")
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--out", default="egsolve-out")

    p = sub.add_parser("solve", parents=[base], help="run one policy on one operator")
    _add_common(p, iters_default=1000, tol_default=1e-14)
    p.add_argument("--policy", required=True, help=POLICY_KEY_HELP)
    p.add_argument("--force", action="store_true",
                   help="run despite a policy/class mismatch (downgrades to a warning)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[base],
                       help="grid of adaptive denominators 1/(c0 + c1*||F||)")
    _add_common(p, iters_default=20000, tol_default=1e-8)
    p.add_argument("--c0", required=True, help="comma list, e.g. 10,100,1000")
    p.add_argument("--c1", required=True, help="comma list; 0 entries give constant steps")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="rerun a named experiment and assert its orderings")
    p.add_argument("figure", choices=sorted(_FIGS))
    p.add_argument("--iters", type=int, default=None, help=_ITERS_HELP)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="egsolve-out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", parents=[base], help="check declared or given constants on a box")
    p.add_argument("--alpha", type=float)
    p.add_argument("--L0", type=float)
    p.add_argument("--L1", type=float)
    p.add_argument("--box", type=float, help="halfwidth; default from the registry")
    p.add_argument("--grid", type=int,
                   help="points per axis (default 201, 7 if dim > 2; at most 10**6 points)")
    p.add_argument("--pairs", type=int, default=200,
                   help="segment-route pairs, 101 points each (at most 9900, i.e. 10**6 points)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", parents=[base], help="fit constants from a grid or solve trace")
    p.add_argument("--from-grid", action="store_true", dest="from_grid")
    p.add_argument("--policy", help="trace source policy (when not --from-grid)")
    p.add_argument("--x0", default="1,1")
    p.add_argument("--iters", type=int, default=200, help=_ITERS_HELP)
    p.add_argument("--grid", type=int,
                   help="points per axis with --from-grid (default 21; at most 10**6 points)")
    p.add_argument("--box", type=float)
    p.add_argument("--alphas", default="0.25,0.5,0.75,1.0")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("nu", help="print a step-coefficient root")
    p.add_argument("kind", choices=[k.value for k in NuKind])
    p.set_defaults(func=cmd_nu)

    return ap


_TRUE = {"1", "true", "yes", "on"}


def _apply_config(argv: List[str], parser: _Parser) -> List[str]:
    """Expand --config FILE or --config=FILE into per-subcommand default tokens.

    Section [SUBCOMMAND] keys name the subcommand's flags in any case ('l0'
    gives --L0) and become '--flag value' tokens (a bare --force or --from-grid
    when true) inserted right after the subcommand, so explicit command-line
    flags still win (last occurrence takes precedence for argparse store actions).
    """
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest or rest[0].startswith("-"):
        raise _UsageError("--config requires the subcommand on the command line")
    if not os.path.exists(path):
        raise _UsageError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    try:
        ini.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        # configparser's messages span lines; the CLI reports one
        raise _UsageError(f"bad config file {path}: {' '.join(str(e).split())}") from None
    cmd = rest[0]
    tokens: List[str] = []
    if ini.has_section(cmd) and cmd in parser.commands.choices:
        flags = {o.lower(): (o, a.nargs == 0)
                 for a in parser.commands.choices[cmd]._actions for o in a.option_strings}
        for key, val in ini.items(cmd):
            flag, switch = flags.get(f"--{key.replace('_', '-')}".lower(), (f"--{key}", False))
            if not switch:
                tokens += [flag, val]
            elif val.strip().lower() in _TRUE:
                tokens.append(flag)
    return [cmd] + tokens + rest[1:]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a library warning prints as one line; the warning filters stay as they are
    shown, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        parser = _build_parser()
        args = parser.parse_args(_apply_config(argv, parser))
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteIterate as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (EgsolveError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
