import csv
import math
import re

import pytest

from egsolve import analysis, solver
from egsolve.cli import main
from egsolve.core import OperatorInstance
from egsolve.solver import read_trace_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--op", "quadratic", "--x0", "1,1",
                           "--policy", "thm3", "--out", str(tmp_path))
        assert code == 0
        assert "reason=stop_tol" in out and "iters=117" in out
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert tr.iterations_run == 117
        assert tr.min_norm_F_x == pytest.approx(8.255489269774815e-15, rel=1e-12)

    def test_divergence_exits_2_with_partial_trace(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--op", "cubic1d", "--x0", "2,2",
                           "--policy", "const:10", "--out", str(tmp_path))
        assert code == 2
        assert "diverged" in out
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert tr.reason == "nonfinite"
        assert len(tr.rows) >= 1

    def test_bad_policy_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--op", "quadratic", "--x0", "1,1",
                           "--policy", "bogus", "--out", str(tmp_path))
        assert code == 1 and err

    def test_missing_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "solve", "--op", "quadratic")
        assert code == 1 and err

    def test_bad_nu_kind_exits_1(self, capsys):
        code, _, err = run(capsys, "nu", "bogus")
        assert code == 1 and err

    def test_incompatible_policy_exits_1_without_force(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--op", "cubic1d", "--x0", "0.5,0.5",
                           "--policy", "thm3", "--out", str(tmp_path))
        assert code == 1 and err

    def test_verification_failure_exits_3(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "--op", "cubic1d", "--alpha", "1",
                           "--L0", "1", "--L1", "0.1", "--out", str(tmp_path))
        assert code == 3
        assert "FAIL" in out


class TestNu:
    def test_prints_full_precision_root(self, capsys):
        code, out, _ = run(capsys, "nu", "mono")
        assert code == 0
        assert out.strip() == "0.45060051586483274"

    @pytest.mark.parametrize("kind,val", [
        ("strong-mono", 0.36341019228949445),
        ("weak-minty", 0.5671432904097838),
    ])
    def test_other_kinds(self, capsys, kind, val):
        code, out, _ = run(capsys, "nu", kind)
        assert code == 0
        assert float(out.strip()) == pytest.approx(val, abs=1e-15)


class TestX0AndConfig:
    def test_seeded_random_start_is_deterministic(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code, _, _ = run(capsys, "solve", "--op", "quadratic", "--x0", "rand:2",
                             "--seed", "7", "--policy", "const:0.2", "--iters", "20",
                             "--tol", "0", "--out", str(d))
            assert code == 0
            outs.append((d / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_the_start(self, tmp_path, capsys):
        outs = []
        for seed in ("7", "8"):
            d = tmp_path / seed
            run(capsys, "solve", "--op", "quadratic", "--x0", "rand:2",
                "--seed", seed, "--policy", "const:0.2", "--iters", "20",
                "--tol", "0", "--out", str(d))
            outs.append((d / "trace.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\nop = quadratic\nx0 = 1,1\npolicy = thm3\n"
                       "iters = 5\ntol = 0\n")
        code, out, _ = run(capsys, "--config", str(cfg), "solve",
                           "--out", str(tmp_path / "o1"))
        assert code == 0
        assert "iters=5" in out

    @pytest.mark.parametrize("content", [b"not an ini",
                                         b"[solve]\nop = quadratic\nop = cubic1d\n",
                                         b"[solve]\nop = \xff\xfe\n"],
                             ids=["no-section", "duplicate-key", "not-utf8"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "--config", str(cfg), "solve",
                             "--out", str(tmp_path / "o"))
        assert code == 1 and not out
        assert len(err.splitlines()) == 1
        assert str(cfg) in err

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\nop = quadratic\nx0 = 1,1\npolicy = thm3\n"
                       "iters = 5\ntol = 0\n")
        code, out, _ = run(capsys, "--config", str(cfg), "solve",
                           "--iters", "3", "--out", str(tmp_path / "o2"))
        assert code == 0
        assert "iters=3" in out


class TestSweep:
    def test_grid_csv_with_diverged_cell(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--op", "cubic1d", "--x0", "2,2",
                         "--c0", "100,0.1", "--c1", "0", "--iters", "200",
                         "--out", str(tmp_path))
        assert code == 0   # a diverged cell is a data point, not an error
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c0", "c1", "iters_to_tol", "final_relerr"]
        body = {float(r[0]): r for r in rows[1:]}
        assert set(body) == {100.0, 0.1}
        # step 1/0.1 = 10 blows up on the cubic field from (2,2)
        assert body[0.1][2] == "-1" and body[0.1][3] == "inf"
        assert body[100.0][3] != "inf"

    def test_rejects_non_numeric_grid(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--op", "cubic1d", "--x0", "1,1",
                           "--c0", "10,abc", "--c1", "0", "--iters", "10",
                           "--out", str(tmp_path))
        assert code == 1 and err

    def test_rejects_x0_at_root(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "0,0",
                             "--c0", "10", "--c1", "0", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "relative error" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_cell_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        real = solver.solve
        monkeypatch.setattr(solver, "solve",
                            lambda *a, **kw: solves.append(a) or real(*a, **kw))
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "1,1",
                             "--c0", "100,0", "--c1", "0", "--iters", "10",
                             "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "c0 > 0" in err
        assert solves == []
        assert not (tmp_path / "sweep.csv").exists()


class TestGridLimits:
    @pytest.mark.parametrize("argv", [
        ["verify", "--op", "cubicRd:d=10"],                   # default 7^20 points
        ["verify", "--op", "quadratic", "--grid", "1"],
        ["estimate", "--op", "cubicRd:d=10", "--from-grid"],  # default 21^20 points
        ["estimate", "--op", "quadratic", "--from-grid", "--grid", "0"],
    ])
    def test_bad_grid_exits_1_before_any_evaluation(self, argv, tmp_path, capsys,
                                                    monkeypatch):
        evals = []
        for name in ("__call__", "jacobian_at", "call_batch", "jacobian_batch_at"):
            real = getattr(OperatorInstance, name)
            monkeypatch.setattr(OperatorInstance, name,
                                lambda self, *a, _real=real, **kw:
                                evals.append(a) or _real(self, *a, **kw))
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "--grid" in err
        assert evals == []

    @pytest.mark.parametrize("argv", [
        ["verify", "--pairs", "2"],
        ["estimate", "--from-grid"],
    ])
    def test_overflowing_box_exits_1_with_one_line(self, argv, tmp_path, capsys):
        # the cubic Jacobian overflows at 1e200: one error line, no RuntimeWarning
        code, out, err = run(capsys, argv[0], "--op", "cubicRd:d=1", "--box", "1e200",
                             "--grid", "3", *argv[1:], "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: spectral_norm: non-finite matrix"]

    def test_overflowing_segment_route_exits_1_with_one_line(self, tmp_path, capsys,
                                                            monkeypatch):
        # the grid route raises first on such a box; with it passing, the
        # segment route's overflow is one error line too, not a silent PASS
        fit = analysis.SmoothnessFit(1.0, 1.0, 1.0, max_violation=1.0)
        monkeypatch.setattr(analysis, "verify_condition", lambda *a: fit)
        code, out, err = run(capsys, "verify", "--op", "cubicRd:d=1", "--box", "1e200",
                             "--pairs", "2", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: non-finite ||F|| on sampled pair 0")


class TestVerify:
    def test_declared_constants_pass(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "--op", "forsaken",
                           "--pairs", "50", "--grid", "41", "--out", str(tmp_path))
        assert code == 0
        assert "FAIL" not in out
        assert (tmp_path / "fit.csv").exists()

    def test_both_routes_reported(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "--op", "quadratic",
                           "--pairs", "50", "--grid", "21", "--out", str(tmp_path))
        assert code == 0
        assert "jacobian" in out and "segment" in out


class TestEstimate:
    def test_from_grid_recovers_affine_constants(self, tmp_path, capsys):
        code, out, _ = run(capsys, "estimate", "--op", "quadratic", "--from-grid",
                           "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "fit.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "L0", "L1", "max_violation"]
        alpha, L0, L1, _mv = map(float, rows[1])
        assert L0 == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert L1 <= 1e-9
        assert alpha == 0.25   # constant ||J|| ties every alpha; first grid entry wins
        assert (tmp_path / "scatter.csv").exists()

    @pytest.mark.parametrize("alphas", ["", ","])
    def test_empty_alpha_grid_exits_1(self, tmp_path, capsys, alphas):
        code, _, err = run(capsys, "estimate", "--op", "quadratic", "--from-grid",
                           "--grid", "3", "--alphas", alphas, "--out", str(tmp_path))
        assert code == 1
        assert len(err.splitlines()) == 1 and "alpha grid is empty" in err

    def test_from_trace_needs_policy(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--op", "quadratic",
                           "--out", str(tmp_path))
        assert code == 1 and err


class TestReproduceFig5:
    def test_regression(self, tmp_path, capsys):
        code, out, _ = run(capsys, "reproduce", "fig5", "--out", str(tmp_path))
        assert code == 0
        assert "PASS fig5-all-converge" in out
        assert "PASS fig5-ours-fastest" in out
        assert "ours@47" in out and "egplus@348" in out and "pethick@717" in out
        for name in ("trace_ours.csv", "trace_egplus.csv", "trace_pethick.csv",
                     "comparison.csv", "meta.txt", "fig5.gnuplot"):
            assert (tmp_path / name).exists()

    def test_gnuplot_reads_only_written_files(self, tmp_path, capsys):
        run(capsys, "reproduce", "fig5", "--out", str(tmp_path))
        script = (tmp_path / "fig5.gnuplot").read_text()
        for ref in re.findall(r"'([^']+\.csv)'", script):
            assert (tmp_path / ref).exists(), f"gnuplot reads missing {ref}"

    def test_comparison_has_one_column_pair_per_method(self, tmp_path, capsys):
        run(capsys, "reproduce", "fig5", "--out", str(tmp_path))
        with open(tmp_path / "comparison.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["k", "norm_x_ours", "gamma_ours", "norm_x_egplus",
                          "gamma_egplus", "norm_x_pethick", "gamma_pethick"]
