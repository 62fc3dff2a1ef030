"""The three workloads: the CLI commands each pass runs, the set-up each
measures, and the checks of each command's output against the exit code,
the PASS/FAIL lines and the reference values in reference.json.

The benchmark seed reaches the program only as `--seed`. fig3, fig5, the grid
route of verify and estimate --from-grid do not depend on it, so their
references hold for every seed. verify's segment route does; its min_slack is
stored per seed and skipped for a seed not recorded. fig4 runs only recorded
starts (see program_seed), so its cells are always checked.
"""
from __future__ import annotations

import csv
import math
import os
import re

# workload -> list of (output name, CLI argv before --seed/--out)
COMMANDS = {
    # the dominant cost: 15 cells of 20k iterations on a 20-dim field, run in
    # the CLI's cell pool; exercises solver/operators/cli, never analysis
    "fig4-sweep": [("fig4", ["reproduce", "fig4"])],
    # five single 2-dim solves with full traces written to CSV: per-call
    # overhead dominates, no pool, policy kinds fig4 never calls
    "experiments-2d": [("fig3", ["reproduce", "fig3"]), ("fig5", ["reproduce", "fig5"])],
    # Jacobian grids and norms with zero EG iterations: analysis and core only
    "verify-grid": [
        ("verify-forsaken", ["verify", "--op", "forsaken"]),
        ("verify-cubic", ["verify", "--op", "cubicRd:d=2", "--grid", "11"]),
        ("estimate-cubic", ["estimate", "--op", "cubicRd:d=2", "--from-grid", "--grid", "9"]),
    ],
}

# what "one unit of work" is on each workload, for work_per_s
WORK_UNIT = {"fig4-sweep": "eg_iters", "experiments-2d": "eg_iters",
             "verify-grid": "grid_points"}

REL_TOL = 1e-9


def program_seed(workload: str, seed: int, ref: dict) -> int:
    """The --seed the program gets for a benchmark seed.

    fig4's orderings hold from the paper's start (seed 42) and from the other
    recorded starts, but not from every start: from seed 13 the constant step
    1/1e4 converges, and `reproduce fig4 --seed 13` rightly prints FAIL
    fig4-best-constant and exits 3. So fig4 runs a recorded start, chosen by
    the benchmark seed; other workloads get the seed as it is.
    """
    recorded = sorted(int(k) for k in ref["fig4_cells"])
    if workload != "fig4-sweep" or seed in recorded:
        return seed
    return recorded[seed % len(recorded)]


def setup(workload: str, seed: int, src: str) -> None:
    """What a workload's first command does before its first solve or verify
    call: import, operator construction and policy parsing. Runs in a fresh
    interpreter, so the import is timed too."""
    import sys
    sys.path.insert(0, src)
    from egsolve import cli
    from egsolve.core import SmoothnessParams
    from egsolve.stepsize import PolicyKind, StepSizePolicy, parse_policy
    if workload == "fig4-sweep":
        op = cli.parse_op_key("cubicRd:d=10,seed=42,scale=5")
        cli.parse_x0("rand:1000", op.dim, seed)
        for c in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
            parse_policy(f"adaptive:{c}:0")
        for c0 in (10.0, 100.0, 1000.0):
            for c1 in (0.1, 1.0, 10.0):
                parse_policy(f"adaptive:{c0}:{c1}")
    elif workload == "experiments-2d":
        cli.parse_op_key("signpower")
        cli.parse_op_key("forsaken")
        for key in ("cor1", "vankov:12.5", "egplus:0.1", "pethick:0.1"):
            parse_policy(key)
        StepSizePolicy(kind=PolicyKind.WEAK_MINTY,
                       smoothness=SmoothnessParams(alpha=1.0, L0=1.0, L1=1.0))
    else:
        cli.parse_op_key("forsaken")
        cli.parse_op_key("cubicRd:d=2")


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_lines(out: str, prefix: str, expected: int) -> list:
    passed = [ln for ln in out.splitlines() if ln.startswith(f"PASS {prefix}")]
    failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    problems = [f"check failed: {ln}" for ln in failed]
    if len(passed) != expected:
        problems.append(f"expected {expected} PASS {prefix}* lines, got {len(passed)}")
    return problems


def _match(pattern: str, out: str, problems: list):
    m = re.search(pattern, out)
    if m is None:
        problems.append(f"output line /{pattern}/ missing")
    return m


def check(name: str, rc: int, out: str, out_dir: str, seed: int, ref: dict) -> tuple:
    """(problems, work units) for one command's exit code, stdout and files."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    work = 0
    key = str(seed)
    if name == "fig4":
        problems += _check_lines(out, "fig4-", 3)
        with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = [(float(c0), float(c1), int(it), float(fr)) for c0, c1, it, fr in rows]
        want = [(c0, c1, it, float(fr)) for c0, c1, it, fr in ref["fig4_cells"][key]]
        if len(cells) != len(want):
            problems.append(f"fig4: {len(cells)} cells, reference has {len(want)}")
        for got, exp in zip(cells, want):
            if got[:3] != exp[:3] or not _close(got[3], exp[3]):
                problems.append(f"fig4 cell {got} differs from reference {exp}")
    elif name == "fig3":
        problems += _check_lines(out, "fig3-", 3)
        m = _match(r"ours@(-?\d+) vs baseline@(-?\d+)", out, problems)
        if m and [int(v) for v in m.groups()] != ref["fig3_hits"]:
            problems.append(f"fig3 hits {m.groups()} differ from reference {ref['fig3_hits']}")
    elif name == "fig5":
        problems += _check_lines(out, "fig5-", 2)
        m = _match(r"ours@(-?\d+), egplus@(-?\d+), pethick@(-?\d+)", out, problems)
        if m and [int(v) for v in m.groups()] != ref["fig5_hits"]:
            problems.append(f"fig5 hits {m.groups()} differ from reference {ref['fig5_hits']}")
    elif name.startswith("verify"):
        r = ref["verify"][name]
        m = _match(r"jacobian-route: PASS max_violation=(\S+) \(grid (\d+)\^(\d+)\)", out, problems)
        if m:
            work = int(m.group(2)) ** int(m.group(3))
            if not _close(float(m.group(1)), r["max_violation"]):
                problems.append(f"{name}: max_violation {m.group(1)} != {r['max_violation']!r}")
        m = _match(r"segment-route: +PASS violations=0/\d+ min_slack=(\S+)", out, problems)
        want = r["min_slack"].get(key)
        if m and want is not None and not _close(float(m.group(1)), want):
            problems.append(f"{name}: min_slack {m.group(1)} != {want!r}")
    elif name.startswith("estimate"):
        r = ref["estimate"][name]
        m = _match(r"alpha_hat=(\S+) L0_hat=(\S+) L1_hat=(\S+) max_violation=(\S+)", out, problems)
        if m:
            for field, got in zip(("alpha_hat", "L0_hat", "L1_hat", "max_violation"), m.groups()):
                if not _close(float(got), r[field]):
                    problems.append(f"{name}: {field} {got} != {r[field]!r}")
        m = _match(r"samples: (\d+)", out, problems)
        if m:
            work = int(m.group(1))
    else:
        raise KeyError(name)
    return problems, work
