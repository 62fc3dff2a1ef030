"""Command-line harness: argument parsing, INI config files and the commands; the
figures `reproduce` runs are data in `experiments`. A bad flag, a negative --seed
included, fails before --out is created.

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
from typing import List, Optional

import numpy as np

from . import analysis, experiments, operators, solver
from .core import (
    MAX_TRACE_ROWS,
    EgsolveError,
    IncompatiblePolicy,
    NonFiniteIterate,
    SmoothnessParams,
    SolveConfig,
    check_iters,
    norm,
    spectral_norm,  # unused here; perfbench/layers.py still wraps cli.spectral_norm by name
    vec,
)
from .stepsize import NuKind, POLICY_KEY_HELP, StepSizePolicy, parse_policy, solve_nu

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


# ---------------------------------------------------------------------------
# commands
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


def cmd_sweep(args) -> int:
    op = parse_op_key(args.op)
    if op.solution is None:
        raise _UsageError(f"sweep needs an operator with a known root; "
                          f"'{op.label}' declares none")
    c0s, c1s = _numbers("--c0", args.c0), _numbers("--c1", args.c1)
    if not c0s or not c1s:
        raise _UsageError("--c0 and --c1 grids must be non-empty")
    x0 = parse_x0(args.x0, op.dim, args.seed)
    _flag("--iters", args.iters, check_iters, args.iters)
    # with --iters in range, only --tol can fail here with a ValueError
    cfg = _flag("--tol", args.tol, SolveConfig, max_iters=args.iters, x0=x0, stop_tol=0.0,
                record_trace=False, rel_tol=args.tol)
    d20 = _flag("--x0", ",".join(map(str, x0)), solver.rel_err_base, x0, op.solution)
    cells = [(c0, c1) for c0 in c0s for c1 in c1s]
    for c0, c1, it, fr in experiments.sweep_cells(op, cells, cfg, d20, args.out):
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
        _flag("--grid", grid_n, analysis.check_fit_size, grid_n ** op.dim)
        sample = lambda: analysis.grid_samples(op, box, grid_n)
    else:
        if args.policy is None:
            raise _UsageError("estimate needs --from-grid or --policy (trace source)")
        policy = _policy(args, op)
        _flag("--iters", args.iters, check_iters, args.iters)
        _flag("--iters", args.iters, analysis.check_fit_size, args.iters)   # a sample a row
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


def cmd_reproduce(args) -> int:
    fig = experiments.FIGURES[args.figure]
    iters = args.iters if args.iters is not None else fig["iters"]
    _flag("--iters", iters, check_iters, iters)
    op = parse_op_key(fig["op"])
    x0 = parse_x0(fig["x0"], op.dim, args.seed)
    checks = experiments.reproduce(args.figure, op, x0, args.out, iters, args.seed)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_ASSERT


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
    p.add_argument("figure", choices=sorted(experiments.FIGURES))
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
        if "seed" in args and args.seed < 0:   # numpy's generators refuse it, at first use
            raise _UsageError(f"--seed {args.seed}: expected a non-negative integer")
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
