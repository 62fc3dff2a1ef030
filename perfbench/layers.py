"""Where the traced run puts its spans, and the per-layer metrics it reads
from them.

The layers are egsolve's modules. Wrappers go on the public call sites, under
the names the calling modules imported (``egsolve.solver.gamma``,
``egsolve.analysis.spectral_norm``, ...), because that is the name the call
resolves at run time.
"""
from __future__ import annotations

import re
import statistics
from collections import Counter

from tracer import Tracer

OP_KEYS = ("cubicRd-d10", "cubicRd-d2", "signpower", "forsaken")
GAMMA_KINDS = ("adaptive", "strong-mono-descent", "vankov", "weak-minty", "egplus", "pethick")
OMEGA_RULES = ("equal-gamma", "half-gamma", "pethick")
VERIFY_OPS = ("forsaken", "cubicRd-d2")
SPECTRAL_SHAPES = ("2x2", "4x4")

# counts that repeat exactly from pass to pass and run to run on one seed;
# a difference means the workload changed, not noise
EXACT = (
    "core.op_calls", "core.op_calls_per_iter", "core.norm_calls_per_iter",
    "core.jacobian_calls", "core.runtime_warnings", "stepsize.gamma_calls_per_iter",
    "solver.iters", "solver.trace_rows", "bench.spans_per_pass",
)

PER_LAYER = (
    ["core.op_calls", "core.op_calls_per_iter", "core.norm_calls_per_iter",
     "core.op_call_us", "core.op_call_self_us", "core.jacobian_calls", "core.jacobian_at_us"]
    + [f"core.spectral_norm_us.{s}" for s in SPECTRAL_SHAPES]
    + ["core.runtime_warnings"]
    + [f"operators.fn_us.{k}" for k in OP_KEYS]
    + [f"operators.build_ms.{k}" for k in OP_KEYS]
    + [f"stepsize.gamma_us.{k}" for k in GAMMA_KINDS]
    + [f"stepsize.omega_us.{r}" for r in OMEGA_RULES]
    + ["stepsize.gamma_calls_per_iter",
       "solver.solve_us_per_iter", "solver.self_us_per_iter", "solver.iters",
       "solver.trace_rows", "solver.write_trace_csv_us_per_row"]
    + [f"analysis.verify_condition_points_per_s.{k}" for k in VERIFY_OPS]
    + ["analysis.segment_pairs_per_s", "analysis.fit_constants_ms",
       "cli.self_s", "cli.cell_s_p50", "cli.cell_s_max", "cli.pool_busy_ratio",
       "bench.trace_overhead_s", "bench.spans_per_pass", "design.src_lines"]
)


def op_key(key: str, params: dict) -> str:
    """'cubicRd' built with d=10 -> 'cubicRd-d10'; other keys unchanged."""
    return f"{key}-d{params['d']}" if "d" in params else key


def label_key(label: str) -> str:
    """Operator label such as 'cubicRd(d=2,seed=0,scale=1)' -> 'cubicRd-d2'."""
    m = re.match(r"(\w+)\((?:.*,)?d=(\d+)", label)
    return f"{m.group(1)}-d{m.group(2)}" if m else label.split("(", 1)[0]


def _shape_key(args) -> str:
    return "x".join(str(n) for n in args[0].shape) if hasattr(args[0], "shape") else "other"


def count_solves(solve, on_trace):
    """Wrap solver.solve so that each finished trace, also the partial trace
    of a diverged solve, goes to on_trace."""
    def counted(*args, **kwargs):
        tr = None
        try:
            tr = solve(*args, **kwargs)
            return tr
        except Exception as e:
            tr = getattr(e, "trace", None)
            raise
        finally:
            if tr is not None:
                on_trace(tr)
    return counted


def install(t: Tracer, eg) -> None:
    """Put span wrappers on the egsolve modules in namespace `eg`."""
    core, operators, solver, analysis, cli = eg.core, eg.operators, eg.solver, eg.analysis, eg.cli
    OI = core.OperatorInstance
    t.patch(OI, "__call__", t.wrap(OI.__call__, "core.op_call"))
    t.patch(OI, "jacobian_at", t.wrap(OI.jacobian_at, "core.jacobian_at"))

    build = operators.build

    def traced_build(key, **params):
        name = op_key(key, params)
        tok = t.begin(t.name_id(f"operators.build.{name}"))
        try:
            op = build(key, **params)
        finally:
            t.end(tok)
        op.fn = t.wrap(op.fn, f"operators.fn.{name}")
        return op
    t.patch(operators, "build", traced_build)

    def on_trace(tr):
        t.add("solver.iters", tr.iterations_run)
        t.add("solver.trace_rows", len(tr.rows))
    t.patch(solver, "solve", t.wrap(count_solves(solver.solve, on_trace), "solver.solve"))

    write_csv = solver.write_trace_csv

    def traced_write(trace, out):
        t.add("solver.csv_rows", len(trace.rows))
        return write_csv(trace, out)
    t.patch(solver, "write_trace_csv", t.wrap(traced_write, "solver.write_trace_csv"))

    t.patch(solver, "gamma", t.wrap_keyed(solver.gamma, "stepsize.gamma", lambda a: a[0].kind.value))
    t.patch(solver, "omega", t.wrap_keyed(solver.omega, "stepsize.omega",
                                          lambda a: a[0].omega_rule.value))
    for mod in (solver, analysis, cli):
        t.patch(mod, "norm", t.wrap(mod.norm, "core.norm"))
    for mod in (analysis, cli):
        t.patch(mod, "spectral_norm", t.wrap_keyed(mod.spectral_norm, "core.spectral_norm", _shape_key))

    verify = analysis.verify_condition

    def counted_verify(F, s, box, grid_n):
        t.add(f"points.{label_key(F.label)}", grid_n ** F.dim)
        return verify(F, s, box, grid_n)
    t.patch(analysis, "verify_condition", t.wrap_keyed(
        counted_verify, "analysis.verify_condition", lambda a: label_key(a[0].label)))

    segment = analysis.verify_segment_condition

    def counted_segment(F, s, pairs, *args, **kwargs):
        t.add("analysis.pairs", pairs)
        return segment(F, s, pairs, *args, **kwargs)
    t.patch(analysis, "verify_segment_condition",
            t.wrap(counted_segment, "analysis.verify_segment_condition"))
    t.patch(analysis, "fit_constants", t.wrap(analysis.fit_constants, "analysis.fit_constants"))
    t.patch(cli, "main", t.wrap(cli.main, "cli.main"))

    pool_id, cell_id = t.name_id("cli.pool"), t.name_id("cli.cell")

    class TracedPool(cli.ThreadPoolExecutor):
        """The CLI's cell pool with one span for its lifetime and one per cell."""

        def __enter__(self):
            self._bench_span = t.begin(pool_id)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                t.end(self._bench_span)
                b, i = self._bench_span
                t.add("cli.pool_worker_s", (b.times[2 * i + 1] - b.times[2 * i]) * self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            parent = t.current()

            def cell(*a, **kw):
                tok = t.begin(cell_id, parent)
                try:
                    return fn(*a, **kw)
                finally:
                    t.end(tok)
            return super().submit(cell, *args, **kwargs)
    t.patch(cli, "ThreadPoolExecutor", TracedPool)


class PassLayers:
    """Span totals of one traced pass, reduced to what the metrics need."""

    def __init__(self, t: Tracer, runtime_warnings: int):
        s = t.spans()
        names = t.names
        self.count = Counter()
        self.dur = Counter()
        self.self_s = Counter()
        self.under_solve = Counter()
        for nid in set(s["name"].tolist()):
            m = s["name"] == nid
            name = names[nid]
            self.count[name] = int(m.sum())
            self.dur[name] = float(s["dur"][m].sum())
            self.self_s[name] = float(s["self_s"][m].sum())
        solve_id = t.id_of("solver.solve")
        if solve_id is not None:
            has_parent = s["parent"] >= 0
            in_solve = s["name"][has_parent][s["name"][s["parent"][has_parent]] == solve_id]
            for nid, n in Counter(in_solve.tolist()).items():
                self.under_solve[names[nid]] = n
        cell = t.id_of("cli.cell")
        self.cells = s["dur"][s["name"] == cell].tolist() if cell is not None else []
        self.spans = int(s["name"].size)
        self.events = Counter(t.counts)
        self.events["core.runtime_warnings"] = runtime_warnings

    def exact(self) -> dict:
        """The EXACT counts of this pass."""
        iters = self.events["solver.iters"]

        def per_iter(n):
            # counts per iteration read to 4 decimals: a diverged fig4 cell
            # stops inside an iteration, so the raw ratio is 3.00001, not 3
            return round(n / iters, 4) if iters else 0.0
        gamma_calls = sum(n for k, n in self.under_solve.items() if k.startswith("stepsize.gamma."))
        return {
            "core.op_calls": self.count["core.op_call"],
            "core.op_calls_per_iter": per_iter(self.under_solve["core.op_call"]),
            "core.norm_calls_per_iter": per_iter(self.under_solve["core.norm"]),
            "core.jacobian_calls": self.count["core.jacobian_at"],
            "core.runtime_warnings": self.events["core.runtime_warnings"],
            "stepsize.gamma_calls_per_iter": per_iter(gamma_calls),
            "solver.iters": iters,
            "solver.trace_rows": self.events["solver.trace_rows"],
            "bench.spans_per_pass": self.spans,
        }


def per_layer_metrics(passes: list, overhead_s: float, src_lines: int) -> tuple:
    """Metrics over all traced passes, plus the names of EXACT counts that
    differed between passes."""
    count, dur, self_s, events = Counter(), Counter(), Counter(), Counter()
    cells = []
    for p in passes:
        count.update(p.count)
        dur.update(p.dur)
        self_s.update(p.self_s)
        events.update(p.events)
        cells += p.cells

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def mean(name, scale):
        return ratio(dur[name], count[name], scale)

    exacts = [p.exact() for p in passes]
    out = dict(exacts[0])
    unsteady = sorted(k for k in EXACT if any(e[k] != exacts[0][k] for e in exacts))
    iters = events["solver.iters"]
    out.update({
        "core.op_call_us": mean("core.op_call", 1e6),
        "core.op_call_self_us": ratio(self_s["core.op_call"], count["core.op_call"], 1e6),
        "core.jacobian_at_us": mean("core.jacobian_at", 1e6),
        "solver.solve_us_per_iter": ratio(dur["solver.solve"], iters, 1e6),
        "solver.self_us_per_iter": ratio(self_s["solver.solve"], iters, 1e6),
        "solver.write_trace_csv_us_per_row": ratio(dur["solver.write_trace_csv"],
                                                   events["solver.csv_rows"], 1e6),
        "analysis.segment_pairs_per_s": ratio(events["analysis.pairs"],
                                              dur["analysis.verify_segment_condition"]),
        "analysis.fit_constants_ms": mean("analysis.fit_constants", 1e3),
        "cli.self_s": ratio(self_s["cli.main"], len(passes)),
        "cli.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "cli.cell_s_max": max(cells) if cells else 0.0,
        "cli.pool_busy_ratio": ratio(sum(cells), events["cli.pool_worker_s"]),
        "bench.trace_overhead_s": overhead_s,
        "design.src_lines": src_lines,
    })
    for s in SPECTRAL_SHAPES:
        out[f"core.spectral_norm_us.{s}"] = mean(f"core.spectral_norm.{s}", 1e6)
    for k in OP_KEYS:
        out[f"operators.fn_us.{k}"] = mean(f"operators.fn.{k}", 1e6)
        out[f"operators.build_ms.{k}"] = mean(f"operators.build.{k}", 1e3)
    for k in GAMMA_KINDS:
        out[f"stepsize.gamma_us.{k}"] = mean(f"stepsize.gamma.{k}", 1e6)
    for r in OMEGA_RULES:
        out[f"stepsize.omega_us.{r}"] = mean(f"stepsize.omega.{r}", 1e6)
    for k in VERIFY_OPS:
        out[f"analysis.verify_condition_points_per_s.{k}"] = ratio(
            events[f"points.{k}"], dur[f"analysis.verify_condition.{k}"])
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: out[k] for k in PER_LAYER}, unsteady
