"""Command-line harness: generic solve/sweep/verify/estimate commands, the
named experiment reproductions, INI config files, CSV outputs, and gnuplot
script emission.

Exit codes: 0 ok, 1 usage/config error, 2 divergence, 3 assertion or
verification failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, operators, solver
from .core import (
    EgsolveError,
    IncompatiblePolicy,
    NonFiniteIterate,
    SmoothnessParams,
    SolveConfig,
    norm,
    spectral_norm,  # unused here; perfbench/layers.py still wraps cli.spectral_norm by name
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
    def error(self, message):  # argparse defaults to exit code 2; usage is 1 here
        raise _UsageError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_op_key(text: str):
    """'key' or 'key:param=value,param=value' against the operator registry."""
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep or not k:
                raise _UsageError(f"bad operator parameter '{item}' (expected name=value)")
            params[k.strip()] = _coerce(v.strip())
    try:
        return operators.build(head.strip(), **params)
    except KeyError as e:
        raise _UsageError(str(e.args[0])) from None
    except TypeError as e:
        raise _UsageError(f"operator '{head}': {e}") from None


def parse_x0(text: str, dim: int, seed: int) -> np.ndarray:
    """'v1,v2,...' literal or 'rand:RADIUS' for a seeded direction of that norm."""
    if text.startswith("rand:"):
        radius = float(text[5:])
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(dim)
        return radius * u / norm(u)
    vals = [float(v) for v in text.split(",") if v.strip() != ""]
    if len(vals) != dim:
        raise _UsageError(f"x0 has {len(vals)} components, operator needs {dim}")
    return np.array(vals)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _grid_n(args, dim: int, default: int) -> int:
    """Points per axis from --grid (or the default), checked against the grid
    limits before any evaluation."""
    n = args.grid if args.grid is not None else default
    try:
        analysis.check_grid(dim, n)
    except ValueError as e:
        raise _UsageError(f"--grid {n}: {e}") from None
    return n


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _write_meta(path: str, items: Sequence[Tuple[str, object]]) -> None:
    with open(path, "w") as fh:
        for k, v in items:
            fh.write(f"{k} = {v}\n")


def _first_hit(rows, d20: float, rel_tol: float) -> int:
    """First iterate index at relative squared error <= rel_tol, else -1."""
    for r in rows:
        if r.dist_sq is not None and r.dist_sq / d20 <= rel_tol:
            return r.k
    return -1


# ---------------------------------------------------------------------------
# plain commands
# ---------------------------------------------------------------------------

def cmd_nu(args) -> int:
    try:
        kind = NuKind(args.kind)
    except ValueError:
        raise _UsageError(f"unknown kind '{args.kind}'; one of "
                          f"{', '.join(k.value for k in NuKind)}") from None
    print(repr(solve_nu(kind)))
    return EXIT_OK


def cmd_solve(args) -> int:
    op = parse_op_key(args.op)
    try:
        policy = parse_policy(args.policy)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    x0 = parse_x0(args.x0, op.dim, args.seed)
    cfg = SolveConfig(max_iters=args.iters, x0=x0, stop_tol=args.tol)
    out = _ensure_out(args.out)
    trace_path = os.path.join(out, "trace.csv")
    try:
        tr = solver.solve(op, policy, cfg, force=args.force)
    except IncompatiblePolicy as e:
        raise _UsageError(str(e)) from None
    except NonFiniteIterate as e:
        solver.write_trace_csv(e.trace, trace_path)
        print(f"diverged: {e} (partial trace: {trace_path})")
        return EXIT_DIVERGED
    solver.write_trace_csv(tr, trace_path)
    summary = (f"reason={tr.reason} iters={tr.iterations_run} "
               f"min_normF={_fmt(tr.min_norm_F_x)}@{tr.argmin_norm_F_x}")
    if tr.final_dist_sq is not None:
        summary += f" final_dist_sq={_fmt(tr.final_dist_sq)}"
    print(summary)
    print(f"trace: {trace_path}")
    return EXIT_OK


def _cell_policies(cells) -> List[StepSizePolicy]:
    """Adaptive policies 1/(c0 + c1*||F||) for (c0, c1) cells; c1 = 0 is a
    constant step 1/c0. A bad cell raises before any cell runs."""
    return [StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=c0, c1=c1) for c0, c1 in cells]


def _sweep_cell(op, policy: StepSizePolicy, x0: np.ndarray, iters: int,
                rel_tol: float) -> Tuple[float, float, int, float]:
    """Run one adaptive cell: (c0, c1, iters_to_tol, final_relerr)."""
    c0, c1 = policy.c0, policy.c1
    d20 = float((x0 - op.solution) @ (x0 - op.solution))
    cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=0.0)
    try:
        tr = solver.solve(op, policy, cfg)
    except NonFiniteIterate:
        return (c0, c1, -1, math.inf)
    relerr = tr.final_dist_sq / d20
    if not math.isfinite(relerr) or relerr > 10.0:
        return (c0, c1, -1, math.inf)
    return (c0, c1, _first_hit(tr.rows, d20, rel_tol), relerr)


def _run_cells(op, policies, x0, iters, rel_tol):
    # one worker runs the GIL-bound cells in input order (two threads measured
    # slower); the pool stays only as the cell boundary perfbench/layers.py traces
    with ThreadPoolExecutor(max_workers=1) as pool:
        futs = [pool.submit(_sweep_cell, op, p, x0, iters, rel_tol) for p in policies]
        return [f.result() for f in futs]


def cmd_sweep(args) -> int:
    op = parse_op_key(args.op)
    if op.solution is None:
        raise _UsageError(f"sweep needs an operator with a known root; "
                          f"'{op.label}' declares none")
    try:
        c0s = [float(v) for v in args.c0.split(",") if v.strip()]
        c1s = [float(v) for v in args.c1.split(",") if v.strip()]
    except ValueError:
        raise _UsageError("--c0/--c1 must be comma-separated numbers") from None
    if not c0s or not c1s:
        raise _UsageError("--c0 and --c1 grids must be non-empty")
    x0 = parse_x0(args.x0, op.dim, args.seed)
    if float((x0 - op.solution) @ (x0 - op.solution)) == 0.0:
        raise _UsageError(f"sweep: x0 is the root of '{op.label}'; the relative error "
                          f"||x_k - x*||^2 / ||x0 - x*||^2 is undefined")
    policies = _cell_policies([(c0, c1) for c0 in c0s for c1 in c1s])
    results = _run_cells(op, policies, x0, args.iters, args.tol)
    out = _ensure_out(args.out)
    path = os.path.join(out, "sweep.csv")
    _write_csv(path, ["c0", "c1", "iters_to_tol", "final_relerr"],
               [[_fmt(c0), _fmt(c1), it, _fmt(fr)] for c0, c1, it, fr in results])
    for c0, c1, it, fr in results:
        tag = "diverged" if it == -1 and math.isinf(fr) else f"relerr={_fmt(fr)}"
        print(f"cell ({_fmt(c0)},{_fmt(c1)}): iters_to_tol={it} {tag}")
    print(f"summary: {path}")
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
    box = args.box if args.box is not None else operators.default_box(op.label, op.dim)
    grid_n = _grid_n(args, op.dim, 201 if op.dim <= 2 else 7)
    fit = analysis.verify_condition(op, s, box, grid_n)
    seg = analysis.verify_segment_condition(op, s, pairs=args.pairs, box=box,
                                            seed=args.seed)
    out = _ensure_out(args.out)
    analysis.write_fit_csv(fit, os.path.join(out, "fit.csv"))
    print(f"jacobian-route: {'PASS' if fit.passed else 'FAIL'} "
          f"max_violation={_fmt(fit.max_violation)} (grid {grid_n}^{op.dim})")
    print(f"segment-route:  {'PASS' if seg.passed else 'FAIL'} "
          f"violations={seg.n_violations}/{seg.n_pairs} min_slack={_fmt(seg.min_slack)}")
    return EXIT_OK if fit.passed and seg.passed else EXIT_ASSERT


def cmd_estimate(args) -> int:
    op = parse_op_key(args.op)
    alphas = [float(v) for v in args.alphas.split(",") if v.strip()]
    if args.from_grid:
        box = args.box if args.box is not None else operators.default_box(op.label, op.dim)
        samples = analysis.grid_samples(op, box, _grid_n(args, op.dim, 21))
    else:
        if args.policy is None:
            raise _UsageError("estimate needs --from-grid or --policy (trace source)")
        try:
            policy = parse_policy(args.policy)
        except ValueError as e:
            raise _UsageError(str(e)) from None
        x0 = parse_x0(args.x0, op.dim, args.seed)
        cfg = SolveConfig(max_iters=args.iters, x0=x0, stop_tol=0.0)
        tr = solver.solve(op, policy, cfg, force=args.force)
        samples = analysis.scatter_from_trace(op, tr)
    fit = analysis.fit_constants(samples, alphas)
    out = _ensure_out(args.out)
    analysis.write_scatter_csv(samples, os.path.join(out, "scatter.csv"))
    analysis.write_fit_csv(fit, os.path.join(out, "fit.csv"))
    print(f"alpha_hat={_fmt(fit.alpha_hat)} L0_hat={_fmt(fit.L0_hat)} "
          f"L1_hat={_fmt(fit.L1_hat)} max_violation={_fmt(fit.max_violation)}")
    print(f"samples: {len(samples)} -> {os.path.join(out, 'scatter.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment reproductions
# ---------------------------------------------------------------------------

def _print_checks(checks: List[Tuple[str, bool, str]]) -> int:
    code = EXIT_OK
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            code = EXIT_ASSERT
    return code


def _reproduce_fig3(out: str, iters: int, seed: int) -> int:
    op = operators.build("signpower")
    x0 = np.array([5.0, 5.0])
    d20 = float(x0 @ x0)
    cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=0.0)
    # mu below is a local curvature estimate near x0, not a global modulus,
    # hence force=True for both runs on this merely-monotone operator
    mu_local = 12.5
    runs = {
        "ours": parse_policy("cor1"),
        "vankov": parse_policy(f"vankov:{mu_local}"),
    }
    traces = {name: solver.solve(op, pol, cfg, force=True) for name, pol in runs.items()}
    for name, tr in traces.items():
        solver.write_trace_csv(tr, os.path.join(out, f"trace_{name}.csv"))
    rows_o, rows_v = traces["ours"].rows, traces["vankov"].rows
    comp = [[r0.k, _fmt(r0.dist_sq / d20), _fmt(r0.gamma_k),
             _fmt(r1.dist_sq / d20), _fmt(r1.gamma_k)]
            for r0, r1 in zip(rows_o, rows_v)]
    _write_csv(os.path.join(out, "comparison.csv"),
               ["k", "relerr_ours", "gamma_ours", "relerr_vankov", "gamma_vankov"], comp)
    _write_meta(os.path.join(out, "meta.txt"),
                [("experiment", "fig3"), ("operator", "signpower"), ("x0", "5,5"),
                 ("iters", iters), ("mu_local", mu_local), ("rel_tol", "1e-8"),
                 ("seed", seed)])
    with open(os.path.join(out, "fig3.gnuplot"), "w") as fh:
        fh.write(
            "set datafile separator comma\n"
            "set terminal pngcairo size 1200,500\n"
            "set output 'fig3.png'\n"
            "set multiplot layout 1,2\n"
            "set logscale y\nset xlabel 'iteration'\nset ylabel 'relative squared error'\n"
            "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
            "     'comparison.csv' using 1:4 every ::1 with lines title 'capped baseline'\n"
            "unset logscale y\nset ylabel 'step size'\n"
            "plot 'comparison.csv' using 1:3 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
            "     'comparison.csv' using 1:5 every ::1 with lines title 'capped baseline'\n"
            "unset multiplot\n")
    hit_o = _first_hit(rows_o, d20, 1e-8)
    hit_v = _first_hit(rows_v, d20, 1e-8)
    g_v = [r.gamma_k for r in rows_v]
    g_o_max = max(r.gamma_k for r in rows_o)
    # the baseline step is norm-limited during the initial transient, then the
    # 1/(4 mu) cap binds; "stays near 0.02" means entered-and-held
    enter = next((i for i, v in enumerate(g_v) if abs(v - 0.02) <= 0.005), -1)
    checks = [
        ("fig3-iterations", hit_o != -1 and hit_v != -1 and hit_o < hit_v,
         f"ours@{hit_o} vs baseline@{hit_v} to relerr 1e-8"),
        ("fig3-baseline-step",
         enter != -1 and all(abs(v - 0.02) <= 0.005 for v in g_v[enter:]),
         f"baseline step reaches 0.02 +/- 0.005 at k={enter} and holds it"),
        ("fig3-our-step-grows", g_o_max > 0.032,
         f"our max step {_fmt(g_o_max)} > 0.032"),
    ]
    return _print_checks(checks)


_FIG4_CONSTS = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7]
_FIG4_GRID = [(c0, c1) for c0 in (10.0, 100.0, 1000.0) for c1 in (0.1, 1.0, 10.0)]


def _reproduce_fig4(out: str, iters: int, seed: int) -> int:
    op = operators.build("cubicRd", d=10, seed=42, scale=5.0)
    x0 = parse_x0("rand:1000", op.dim, seed)
    policies = _cell_policies([(c, 0.0) for c in _FIG4_CONSTS] + _FIG4_GRID)
    results = _run_cells(op, policies, x0, iters, 1e-8)
    _write_csv(os.path.join(out, "sweep.csv"),
               ["c0", "c1", "iters_to_tol", "final_relerr"],
               [[_fmt(c0), _fmt(c1), it, _fmt(fr)] for c0, c1, it, fr in results])
    _write_meta(os.path.join(out, "meta.txt"),
                [("experiment", "fig4"), ("operator", "cubicRd:d=10,seed=42,scale=5"),
                 ("x0", ",".join(repr(float(v)) for v in x0)),
                 ("x0_rule", f"rand:1000 with seed {seed}"),
                 ("iters", iters), ("rel_tol", "1e-8"), ("seed", seed)])
    with open(os.path.join(out, "fig4.gnuplot"), "w") as fh:
        fh.write(
            "set datafile separator comma\n"
            "set terminal pngcairo size 900,500\n"
            "set output 'fig4.png'\n"
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
         f"best constant cell c={_fmt(best_c) if best_c else 'none'} "
         f"(relerr {_fmt(best_fr)}), expected 1e5"),
        ("fig4-small-constants-diverge", small_diverged,
         "constant cells c in {1e2,1e3,1e4} all diverged"),
        ("fig4-adaptive-beats-constant", a_fr < best_fr,
         f"adaptive (10,10) relerr {_fmt(a_fr)} < best constant {_fmt(best_fr)}"),
    ]
    return _print_checks(checks)


def _reproduce_fig5(out: str, iters: int, seed: int) -> int:
    op = operators.build("forsaken")
    x0 = np.array([1.0, 1.0])
    cfg = SolveConfig(max_iters=iters, x0=x0, stop_tol=0.0)
    # ours runs with locally valid constants (1,1) over the visited region;
    # the globally declared pair is far more conservative
    runs = {
        "ours": StepSizePolicy(kind=PolicyKind.WEAK_MINTY,
                               smoothness=SmoothnessParams(alpha=1.0, L0=1.0, L1=1.0)),
        "egplus": parse_policy("egplus:0.1"),
        "pethick": parse_policy("pethick:0.1"),
    }
    traces = {name: solver.solve(op, pol, cfg) for name, pol in runs.items()}
    hits = {}
    finals = {}
    for name, tr in traces.items():
        solver.write_trace_csv(tr, os.path.join(out, f"trace_{name}.csv"))
        hits[name] = next((r.k for r in tr.rows if math.sqrt(r.dist_sq) <= 1e-3), -1)
        finals[name] = math.sqrt(tr.final_dist_sq)
    names = ["ours", "egplus", "pethick"]
    comp = []
    for i in range(min(len(traces[n].rows) for n in names)):
        row = [i]
        for n in names:
            r = traces[n].rows[i]
            row += [_fmt(math.sqrt(r.dist_sq)), _fmt(r.gamma_k)]
        comp.append(row)
    _write_csv(os.path.join(out, "comparison.csv"),
               ["k"] + [f"{c}_{n}" for n in names for c in ("norm_x", "gamma")], comp)
    _write_meta(os.path.join(out, "meta.txt"),
                [("experiment", "fig5"), ("operator", "forsaken"), ("x0", "1,1"),
                 ("iters", iters), ("ours_constants", "alpha=1,L0=1,L1=1"),
                 ("baseline_step", 0.1), ("hit_metric", "||x|| <= 1e-3"), ("seed", seed)])
    with open(os.path.join(out, "fig5.gnuplot"), "w") as fh:
        fh.write(
            "set datafile separator comma\n"
            "set terminal pngcairo size 900,500\n"
            "set output 'fig5.png'\n"
            "set logscale y\nset xlabel 'iteration'\nset ylabel 'distance to origin'\n"
            "plot 'comparison.csv' using 1:2 every ::1 with lines title 'norm-adaptive (ours)', \\\n"
            "     'comparison.csv' using 1:4 every ::1 with lines title 'EG+ 0.1', \\\n"
            "     'comparison.csv' using 1:6 every ::1 with lines title 'residual-adaptive 0.1'\n")
    checks = [
        ("fig5-all-converge", all(finals[n] <= 1e-3 for n in names),
         "final distances " + ", ".join(f"{n}={_fmt(finals[n])}" for n in names)),
        ("fig5-ours-fastest",
         hits["ours"] != -1 and all(hits["ours"] < hits[n] or hits[n] == -1
                                    for n in names[1:]),
         f"iterations to 1e-3: " + ", ".join(f"{n}@{hits[n]}" for n in names)),
    ]
    return _print_checks(checks)


_FIG_DEFAULT_ITERS = {"fig3": 20000, "fig4": 20000, "fig5": 3000}
_FIGS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4, "fig5": _reproduce_fig5}


def cmd_reproduce(args) -> int:
    iters = args.iters if args.iters is not None else _FIG_DEFAULT_ITERS[args.figure]
    out = _ensure_out(args.out)
    return _FIGS[args.figure](out, iters, args.seed)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p, iters_default=None, tol_default=None):
    p.add_argument("--op", required=True, help="operator key, e.g. quadratic or cubicRd:d=10,seed=42")
    p.add_argument("--x0", required=True, help="'v1,v2,...' or 'rand:RADIUS' (seeded)")
    p.add_argument("--iters", type=int, default=iters_default)
    p.add_argument("--tol", type=float, default=tol_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="egsolve-out")
    p.add_argument("--force", action="store_true",
                   help="run despite a policy/class mismatch (downgrades to a warning)")


def _build_parser() -> _Parser:
    ap = _Parser(prog="egsolve", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="INI file; section [SUBCOMMAND] supplies flag defaults")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="run one policy on one operator")
    _add_common(p, iters_default=1000, tol_default=1e-14)
    p.add_argument("--policy", required=True, help=POLICY_KEY_HELP)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="grid of adaptive denominators 1/(c0 + c1*||F||)")
    _add_common(p, iters_default=20000, tol_default=1e-8)
    p.add_argument("--c0", required=True, help="comma list, e.g. 10,100,1000")
    p.add_argument("--c1", required=True, help="comma list; 0 entries give constant steps")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="rerun a named experiment and assert its orderings")
    p.add_argument("figure", choices=sorted(_FIGS))
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="egsolve-out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("verify", help="check declared or given constants on a box")
    p.add_argument("--op", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--L0", type=float)
    p.add_argument("--L1", type=float)
    p.add_argument("--box", type=float, help="halfwidth; default from the registry")
    p.add_argument("--grid", type=int,
                   help="points per axis (default 201, 7 if dim > 2; at most 10**6 points)")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="egsolve-out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="fit constants from a grid or a solve trace")
    p.add_argument("--op", required=True)
    p.add_argument("--from-grid", action="store_true", dest="from_grid")
    p.add_argument("--policy", help="trace source policy (when not --from-grid)")
    p.add_argument("--x0", default="1,1")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--grid", type=int,
                   help="points per axis with --from-grid (default 21; at most 10**6 points)")
    p.add_argument("--box", type=float)
    p.add_argument("--alphas", default="0.25,0.5,0.75,1.0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="egsolve-out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("nu", help="print a step-coefficient root")
    p.add_argument("kind", help="|".join(k.value for k in NuKind))
    p.set_defaults(func=cmd_nu)

    return ap


_TRUE = {"1", "true", "yes", "on"}


def _apply_config(argv: List[str]) -> List[str]:
    """Expand --config FILE into per-subcommand default tokens.

    Section [SUBCOMMAND] keys become '--key value' tokens inserted right after
    the subcommand, so explicit command-line flags still win (last occurrence
    takes precedence for argparse store actions).
    """
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
    if ini.has_section(cmd):
        for key, val in ini.items(cmd):
            if key in ("force", "from-grid", "from_grid"):
                if val.strip().lower() in _TRUE:
                    tokens.append(f"--{key.replace('_', '-')}")
            else:
                tokens += [f"--{key}", val]
    return [cmd] + tokens + rest[1:]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteIterate as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (EgsolveError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
