"""egsolve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig4-sweep --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; egsolve is imported from ./src.
With --trace 0 the run prints the end-to-end metrics (setup_s, wall_s,
work_per_s, peak_rss_mb); with --trace 1 it prints the per-layer metrics of
perfbench/layers.py, read from spans recorded around egsolve's public call
sites. Every pass drives the CLI through egsolve.cli.main and checks its
output. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 a result was printed (also when a check failed: then
"correct" is false), 2 the checkout has no egsolve sources or a run could
not be made.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 11

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The run cannot be made; no result is printed."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_egsolve():
    sys.path.insert(0, SRC)
    import egsolve
    from egsolve import analysis, cli, core, operators, solver
    if os.path.dirname(os.path.dirname(os.path.abspath(egsolve.__file__))) != SRC:
        raise BenchError(f"egsolve imported from {egsolve.__file__}, not from {SRC}")
    return types.SimpleNamespace(core=core, operators=operators, solver=solver,
                                 analysis=analysis, cli=cli)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "src_lines": src_lines,
            "EG_SOLVE_THREADS": os.environ.get("EG_SOLVE_THREADS", "unset")}


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    workloads.setup(workload, seed, SRC)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


class Runner:
    """Runs passes of one workload and keeps the tally of checked commands."""

    def __init__(self, eg, workload: str, seed: int, ref: dict):
        self.eg, self.workload, self.seed, self.ref = eg, workload, seed, ref
        self.attempted = 0
        self.failed = 0
        self.iters = 0
        self._lock = threading.Lock()
        self.out_dir = os.path.join(OUT, str(os.getpid()))

    def count_iters(self, trace) -> None:
        with self._lock:   # fig4 cells finish in pool threads
            self.iters += trace.iterations_run

    def one_pass(self) -> tuple:
        """(wall seconds, work units) of one pass; outputs checked afterwards."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        cli = self.eg.cli
        results = []
        gc.collect()
        self.iters = 0
        t0 = time.perf_counter()
        for name, argv in workloads.COMMANDS[self.workload]:
            out_dir = os.path.join(self.out_dir, name)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv + ["--seed", str(self.seed), "--out", out_dir])
                err = None
            except Exception as e:  # a traceback out of main is a failed operation
                rc, err = None, f"{type(e).__name__}: {e}"
            results.append((name, rc, buf.getvalue(), out_dir, err))
        wall = time.perf_counter() - t0
        work = self.iters
        for name, rc, text, out_dir, err in results:
            self.attempted += 1
            if err is not None:
                problems = [f"exception {err}"]
            else:
                try:
                    problems, units = workloads.check(name, rc, text, out_dir, self.seed, self.ref)
                    work += units
                except (OSError, ValueError, KeyError) as e:
                    problems = [f"output unreadable: {type(e).__name__}: {e}"]
            if problems:
                self.failed += 1
                _log(f"FAILED {name} (seed {self.seed}): " + "; ".join(problems))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return wall, work


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Passes until the next one would end past `seconds`; at least one."""
    walls, work = [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        w, units = runner.one_pass()
        walls.append(w)
        work += units
    _log(f"{len(walls)} pass(es): " + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return {"wall_s": statistics.median(walls), "work_per_s": work / sum(walls)}


def run_traced(runner: Runner, seconds: float, src_lines: int) -> tuple:
    """One untraced pass as the overhead reference, then traced passes until
    `seconds` are used up (at least one). Spans stay in memory until the end."""
    from tracer import Tracer

    start = time.perf_counter()
    untraced_wall, _ = runner.one_pass()
    tracers, walls, warned = [], [], []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t = Tracer()
        layers.install(t, runner.eg)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                w, _ = runner.one_pass()
        finally:
            t.uninstall()
        tracers.append(t)
        walls.append(w)
        warned.append(sum(1 for c in caught if issubclass(c.category, RuntimeWarning)))
    passes = [layers.PassLayers(t, n) for t, n in zip(tracers, warned)]
    overhead = statistics.median(walls) - untraced_wall
    _log(f"untraced pass {untraced_wall:.3f} s; {len(walls)} traced pass(es): "
         + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return layers.per_layer_metrics(passes, overhead, src_lines)


def compare_counts(metrics: dict, unsteady: list, recorded) -> None:
    if unsteady:
        _log("CHANGED WORKLOAD: exact counts differ between passes: " + ", ".join(unsteady))
    if recorded is None:
        _log("no recorded counts for this workload and seed; exact counts not compared")
        return
    diff = [f"{k}={metrics[k]!r} (recorded {recorded[k]!r})"
            for k in layers.EXACT if metrics[k] != recorded[k]]
    if diff:
        _log("CHANGED WORKLOAD: exact counts differ from the recorded ones: " + ", ".join(diff))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        return run(args)
    except BenchError as e:
        _log(f"benchmark error: {e}")
        return 2


def run(args) -> int:
    # the default program is measured: the pool size comes from nproc
    os.environ.pop("EG_SOLVE_THREADS", None)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not os.path.isfile(os.path.join(SRC, "egsolve", "__init__.py")):
        raise BenchError(f"no egsolve sources under {SRC}")

    seed = workloads.program_seed(args.workload, args.seed, ref)
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(args.workload, seed)
    eg = import_egsolve()
    env = environment()
    runner = Runner(eg, args.workload, seed, ref)
    try:
        if args.trace:
            metrics, unsteady = run_traced(runner, args.seconds, env["src_lines"])
            compare_counts(metrics, unsteady,
                           ref["counts"].get(args.workload, {}).get(str(seed)))
        else:
            original = eg.solver.solve
            eg.solver.solve = layers.count_solves(original, runner.count_iters)
            try:
                metrics.update(run_untraced(runner, args.seconds))
            finally:
                eg.solver.solve = original
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(runner.out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT)

    print(f"env: {json.dumps(env)}")
    fail_ratio = runner.failed / runner.attempted
    print(f"workload {args.workload} seed {args.seed} (program --seed {seed}) trace {args.trace}: "
          f"{runner.attempted} commands attempted, {runner.failed} failed, "
          f"fail_ratio {fail_ratio:g}; work unit {workloads.WORK_UNIT[args.workload]}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
