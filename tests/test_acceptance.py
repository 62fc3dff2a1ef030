"""Acceptance gate: one test (and one printed pass line) per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is desk-scale and the whole module stays under two
minutes. Expected values marked as regression values were frozen from
independent oracle runs, not from the implementation under test.
"""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from egsolve.analysis import (
    scatter_from_trace,
    theoretical_bounds,
    verify_condition,
    verify_proposition1,
    verify_segment_condition,
)
from egsolve.cli import main
from egsolve.core import (
    SmoothnessParams,
    SolveConfig,
    finite_diff_jacobian,
    spectral_norm,
)
from egsolve.operators import FORSAKEN_RHO, ZOO, build, default_box
from egsolve.solver import check_descent_invariants, solve
from egsolve.stepsize import (
    NuKind,
    PolicyKind,
    StepSizePolicy,
    k_constants,
    nu_residual,
    parse_policy,
    solve_nu,
)

SQ2 = math.sqrt(2.0)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(n, detail):
    print(f"criterion {n} PASS: {detail}")


@pytest.fixture(scope="module")
def quadratic_run():
    op = build("quadratic")
    tr = solve(op, parse_policy("thm3"),
               SolveConfig(max_iters=500, x0=[1.0, 1.0], stop_tol=0.0))
    return op, tr


@pytest.fixture(scope="module")
def cubic_rd_run():
    op = build("cubicRd", d=10, seed=0, scale=1.0)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(20)
    x0 /= np.linalg.norm(x0)
    tr = solve(op, parse_policy("thm5"),
               SolveConfig(max_iters=1001, x0=x0, stop_tol=0.0))
    return op, x0, tr


@pytest.fixture(scope="module")
def fig4_seed42(tmp_path_factory):
    """One `reproduce fig4 --seed 42` output directory, shared by criteria 7 and 9."""
    out = tmp_path_factory.mktemp("fig4-seed42")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reproduce", "fig4", "--seed", "42", "--out", str(out)]) == 0
    return out


# sha256 of every fig3 and fig5 output file at the default seed 42: a
# byte-identity contract, not an oracle value. Recorded from the numpy EG loop
# under OpenBLAS's Haswell kernel, whose dot of 2-vectors is the plain sum that
# solve's 2-dim float loop computes; fig3 and fig5 now call no BLAS, so the
# digests hold under every kernel (see the kernel-matrix test below). fig4 is
# left to criterion 9 and its cell values: its gemv and ddot go through BLAS,
# whose rounding differs across kernels, as does estimate's 2x2 LAPACK SVD.
FROZEN_SHA256 = {
    "f3": {
        "comparison.csv": "de59d67e653d8bf58e551e512c674452daf0f4d1ac42eb374892fbe166c7e65d",
        "fig3.gnuplot": "2054feb7ffeb6663b75253408b49e1ae244e2dabb4684f3609bf9751709efd8d",
        "meta.txt": "871c98e4714e938a0e65ddede2e5c067aeabf63eec39a4301f56b28bf66d8020",
        "trace_ours.csv": "29d47f43c93f1c6a15efe0c8ba3c972f98f5d41f98beefe97f676ed8c5e9e445",
        "trace_vankov.csv": "c669fda4fdef846ad0eba6165762a37a44ac4292b01e7eba3825476f6a5fe9f9",
    },
    "f5": {
        "comparison.csv": "7b7b3985e4b0cf91908554769c83e13fafa8fac5b9e168ce9ee248394eb2fb4a",
        "fig5.gnuplot": "fc879b324518466ca36152eeddd9755a1ac459863658238978261f48affe3f8e",
        "meta.txt": "ff85e105c77998279533e307e6f5b5e385878aa0bcbb6bd5b62d87c9ac611992",
        "trace_egplus.csv": "665a43202c7e3fa4d0a47b111710958dbaaf6cefe2335e9d9c3ed9815cca5186",
        "trace_ours.csv": "c9d7f2cc285f8ccc2a9af97ac96ff48d03221b8a031ec8bc74ca6a6ccdb52482",
        "trace_pethick.csv": "6f8617532ff2052b1537b437c1c1333adfad7a14ebd7b6ef4aa814ab23e3fca3",
    },
}


def test_criterion_1_step_coefficient_roots():
    for kind in NuKind:
        assert abs(nu_residual(kind, solve_nu(kind))) <= 1e-12, kind
    r_sm = solve_nu(NuKind.STRONG_MONO)
    r_mono = solve_nu(NuKind.MONO)
    r_desc = solve_nu(NuKind.STRONG_MONO_DESCENT)
    r_gold = solve_nu(NuKind.STRONG_MONO_FRAC)
    assert r_sm == pytest.approx(0.363, abs=5e-3)
    assert r_mono == pytest.approx(0.45, abs=5e-3)
    assert abs(r_desc - 0.21) <= 0.01
    assert r_gold == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    report(1, f"five residuals <= 1e-12; roots {r_sm:.4f}, {r_mono:.4f}, "
              f"{r_desc:.4f}, {r_gold:.4f}")


def test_criterion_2_jacobian_identities():
    op = build("quadratic")
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0, 2)
        assert spectral_norm(op.jacobian_at(x)) == pytest.approx(SQ2, abs=1e-9)
    worst = 0.0
    for key in sorted(ZOO):
        z = build(key)
        rng_k = np.random.default_rng(17)
        for _ in range(5):
            x = rng_k.uniform(-2.0, 2.0, z.dim)
            Ja, Jf = z.jacobian_at(x), finite_diff_jacobian(z.fn, x)
            rel = np.max(np.abs(Ja - Jf)) / max(np.max(np.abs(Ja)), 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-5, f"{key} at {x}"
    report(2, f"constant norm sqrt(2) at 100 points; worst FD mismatch {worst:.2e}")


def test_criterion_3_condition_verification():
    cub = build("cubic1d")
    generous = verify_condition(cub, SmoothnessParams(1.0, 10.0, 10.0), 50.0, 201)
    assert generous.max_violation > 0
    tight = verify_condition(cub, SmoothnessParams(1.0, 1.0, 0.1), 50.0, 201)
    assert not tight.passed and tight.max_violation < 0

    agreements = []
    for key in sorted(ZOO):
        op = build(key)
        box = default_box(key, op.dim)
        grid_n = {1: 201, 2: 41, 3: 13, 4: 7}[op.dim]
        fit = verify_condition(op, op.smoothness, box, grid_n)
        seg = verify_segment_condition(op, op.smoothness, pairs=200, box=box)
        assert fit.passed == seg.passed, f"{key}: routes disagree"
        assert fit.passed, f"{key}: declared constants rejected"
        agreements.append(key)
    report(3, f"cubic1d margins {generous.max_violation:.3f} / "
              f"{tight.max_violation:.3f}; routes agree on {len(agreements)} operators")


def test_criterion_4_two_point_bound_constants():
    kc = k_constants(SmoothnessParams(0.5, 1.0, 2.0))
    assert kc.K0 == pytest.approx(2.414213562373095, abs=1e-9)
    assert kc.K1 == pytest.approx(2.8284271247461903, abs=1e-9)
    assert kc.K2 == pytest.approx(4.898979485566357, abs=1e-9)
    kc0 = k_constants(SmoothnessParams(0.5, 1.0, 0.0))
    assert kc0.K1 == 0.0 and kc0.K2 == 0.0

    rep_log = verify_proposition1(build("logistic"), build("logistic").smoothness,
                                  pairs=1000)
    assert rep_log.route == "exp-bound" and rep_log.n_violations == 0
    rep_sq = verify_proposition1(build("square"), build("square").smoothness,
                                 pairs=1000)
    assert rep_sq.route == "k-constants" and rep_sq.n_violations == 0
    report(4, f"constants exact; two-point bound 0/1000 violations on both "
              f"routes (slacks {rep_log.min_slack:.4f}, {rep_sq.min_slack:.4f})")


def test_criterion_5_per_iterate_invariants(quadratic_run, cubic_rd_run):
    op_q, tr_q = quadratic_run
    rep_a = check_descent_invariants(tr_q, op_q, tol=1e-10)
    assert rep_a.n_checked == 500 and rep_a.n_violations == 0

    op_c, _, tr_c = cubic_rd_run
    rep_b = check_descent_invariants(tr_c, op_c, tol=1e-10)
    assert rep_b.n_checked > 0 and rep_b.n_violations == 0

    op_f = build("forsaken")
    pol = StepSizePolicy(kind=PolicyKind.WEAK_MINTY,
                         smoothness=SmoothnessParams(1.0, 1.0, 1.0))
    tr_f = solve(op_f, pol, SolveConfig(max_iters=3000, x0=[1.0, 1.0], stop_tol=0.0))
    rep_c = check_descent_invariants(tr_f, op_f, tol=1e-10)
    assert rep_c.n_checked > 0, "conditional inequality never applied"
    assert rep_c.n_violations == 0
    report(5, f"0 violations: contraction {rep_a.n_checked}, descent "
              f"{rep_b.n_checked}, conditional {rep_c.n_checked}/{rep_c.n_transitions}")


def test_criterion_6_rate_envelopes(quadratic_run, cubic_rd_run):
    op_q, tr_q = quadratic_run
    bound = theoretical_bounds(op_q, PolicyKind.STRONG_MONO, [1.0, 1.0])
    d0_sq = tr_q.rows.dist_sq[0]
    for K in (10, 100, 500):
        dK_sq = tr_q.final_dist_sq if K == len(tr_q.rows) else tr_q.rows.dist_sq[K]
        assert dK_sq <= bound.rate ** K * d0_sq, f"envelope broken at K={K}"

    op_c, x0, tr_c = cubic_rd_run
    sub = theoretical_bounds(op_c, PolicyKind.MONO, x0)
    K = 1000
    best_sq = min(tr_c.rows.norm_F_x[:K + 1]) ** 2
    assert best_sq * (K + 1) <= sub.sublinear_const
    report(6, f"linear rate {bound.rate:.6f} holds at K=10,100,500; "
              f"sublinear {best_sq * (K + 1):.3e} <= {sub.sublinear_const:.3e}")


@pytest.mark.filterwarnings("ignore::UserWarning")  # forced local-constant runs
def test_criterion_7_experiment_reproductions(tmp_path, capsys, fig4_seed42):
    d3, d5 = (tmp_path / n for n in ("f3", "f5"))
    d4 = fig4_seed42
    assert main(["reproduce", "fig3", "--out", str(d3)]) == 0
    assert main(["reproduce", "fig5", "--out", str(d5)]) == 0
    capsys.readouterr()
    for d in (d3, d5):
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d.iterdir()}
        assert digests == FROZEN_SHA256[d.name], f"{d.name} outputs changed"

    # independent re-derivation of the orderings from the emitted CSVs
    with open(d3 / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    hit_o = next(int(r["k"]) for r in rows if float(r["relerr_ours"]) <= 1e-8)
    hit_v = next(int(r["k"]) for r in rows if float(r["relerr_vankov"]) <= 1e-8)
    assert hit_o < hit_v
    g_v = [float(r["gamma_vankov"]) for r in rows]
    enter = next(i for i, v in enumerate(g_v) if abs(v - 0.02) <= 0.005)
    assert all(abs(v - 0.02) <= 0.005 for v in g_v[enter:])
    assert max(float(r["gamma_ours"]) for r in rows) > 0.032

    with open(d4 / "sweep.csv", newline="") as fh:
        rows4 = list(csv.DictReader(fh))
    # every cell against the values the benchmark checks (perfbench/reference.json)
    with open(os.path.join(REPO, "perfbench", "reference.json")) as fh:
        want = json.load(fh)["fig4_cells"]["42"]
    assert len(rows4) == len(want)
    for r, (c0, c1, it, fr) in zip(rows4, want):
        assert (float(r["c0"]), float(r["c1"]), int(r["iters_to_tol"])) == (c0, c1, it)
        assert float(r["final_relerr"]) == pytest.approx(float(fr), rel=1e-9)
    cells = {(float(r["c0"]), float(r["c1"])): float(r["final_relerr"]) for r in rows4}
    consts = {c0: v for (c0, c1), v in cells.items() if c1 == 0.0}
    assert min(consts, key=consts.get) == 1e5
    assert all(math.isinf(consts[c]) for c in (1e2, 1e3, 1e4))
    assert cells[(10.0, 10.0)] < consts[1e5]

    with open(d5 / "comparison.csv", newline="") as fh:
        rows5 = list(csv.DictReader(fh))
    hits = {}
    for name in ("ours", "egplus", "pethick"):
        hits[name] = next(int(r["k"]) for r in rows5
                          if float(r[f"norm_x_{name}"]) <= 1e-3)
    assert hits["ours"] < hits["egplus"] and hits["ours"] < hits["pethick"]
    report(7, f"orderings re-derived: {hit_o}<{hit_v} to 1e-8; best constant 1e5, "
              f"small constants diverge, adaptive wins; hits {hits}; "
              f"fig3/fig5 files match their frozen sha256, fig4's {len(want)} cells "
              f"the benchmark reference")


def test_criterion_7_frozen_bytes_under_every_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS at load time,
    # so each kernel needs its own process: the default, then two without FMA dots
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is no DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
                    "selects no other kernel to compare")
    script = ("import sys\nfrom egsolve.cli import main\n"
              "sys.exit(main(['reproduce', 'fig3', '--out', sys.argv[1] + '/f3'])"
              " or main(['reproduce', 'fig5', '--out', sys.argv[1] + '/f5']))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    for kernel in ("default", "Haswell", "Nehalem"):
        out = tmp_path / kernel
        extra = {} if kernel == "default" else {"OPENBLAS_CORETYPE": kernel}
        proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True,
                              text=True, timeout=120, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        for d in ("f3", "f5"):
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (out / d).iterdir()}
            assert digests == FROZEN_SHA256[d], f"{d} outputs differ under {kernel}"
    report(7, "fig3/fig5 bytes equal their frozen sha256 under the default, "
              "Haswell and Nehalem kernels")


def test_criterion_8_weak_minty_margin_grid():
    # vectorized oracle for the polynomial payoff field, written out directly
    g = np.linspace(-2.0, 2.0, 2001)
    X, Y = np.meshgrid(g, g, indexing="ij")

    def psi_p(w):
        return (4.0 / 7.0) * w ** 5 - (4.0 / 3.0) * w ** 3 + (2.0 / 3.0) * w

    F1 = Y + psi_p(X)
    F2 = psi_p(Y) - X
    n2 = F1 * F1 + F2 * F2
    ratio = np.where(n2 > 0, (X * F1 + Y * F2) / np.where(n2 > 0, n2, 1.0), np.inf)
    grid_min = float(ratio.min())
    assert grid_min == pytest.approx(-0.1197, abs=1e-3)
    assert FORSAKEN_RHO == pytest.approx(-grid_min, abs=1e-3)

    op = build("forsaken")
    for pt in [(-2.0, 2.0), (0.5, -1.5), (1.0, 1.0), (-0.25, 0.75), (2.0, 2.0)]:
        x = np.array(pt)
        assert np.allclose(op(x), [x[1] + psi_p(x[0]), psi_p(x[1]) - x[0]],
                           atol=1e-12)
    report(8, f"grid minimum {grid_min:.8f} matches declared margin "
              f"{FORSAKEN_RHO} within 1e-3")


def test_criterion_9_determinism(tmp_path, capsys, fig4_seed42):
    dirs = [fig4_seed42, tmp_path / "r2"]
    assert main(["reproduce", "fig4", "--seed", "42", "--out", str(dirs[1])]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir()) and names
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report(9, f"two identical runs, byte-equal outputs: {', '.join(names)}")
