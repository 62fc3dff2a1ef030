import csv
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import egsolve
from egsolve import analysis, cli, solver
from egsolve.cli import _build_parser, main
from egsolve.core import MAX_TRACE_ROWS, OperatorInstance
from egsolve.solver import read_trace_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_evaluation(monkeypatch, before):
    """Make every evaluation of an operator raise: its methods, and the raw `fn`
    of each operator the CLI builds (solve calls `fn` without `__call__`)."""
    def evaluate(*a, **kw):
        raise AssertionError(f"an operator was evaluated before {before}")
    for name in ("__call__", "jacobian_at", "call_batch", "jacobian_batch_at"):
        monkeypatch.setattr(OperatorInstance, name, evaluate)
    build = cli.parse_op_key

    def refusing_build(text):
        op = build(text)   # the root check at construction still evaluates
        op.fn = evaluate
        return op
    monkeypatch.setattr(cli, "parse_op_key", refusing_build)


# a 2x2 sweep on cubic1d whose cells cover a hit, a finite miss and divergence
SWEEP_2X2 = ["sweep", "--op", "cubic1d", "--x0", "0.5,0.5", "--c0", "2,0.1", "--c1", "0,1",
             "--iters", "90"]


class TestExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--op", "quadratic", "--x0", "1,1",
                           "--policy", "thm3", "--out", str(tmp_path))
        assert code == 0
        assert "reason=stop_tol" in out and "iters=117" in out
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert tr.iterations_run == 117
        assert tr.min_norm_F_x == pytest.approx(8.255489269774815e-15, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--op", "logistic", "--x0", "400,400", "--policy", "thm5"],
        ["--op", "square", "--x0", "0,1e-200", "--policy", "thm7", "--force"],
        ["--op", "square", "--x0", "0,0", "--policy", "vankov:1e-310", "--force"],
    ])
    def test_root_where_the_rule_has_no_step_exits_0(self, argv, tmp_path, capsys):
        forced = "--force" in argv   # square declares no class
        with pytest.warns(UserWarning, match="assumes one of") if forced else nullcontext():
            code, out, _ = run(capsys, "solve", *argv, "--out", str(tmp_path))
        assert code == 0
        assert out.startswith("reason=stop_tol iters=0 min_normF=0.0@0")
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert (tr.reason, tr.iterations_run, len(tr.rows)) == ("stop_tol", 0, 1)
        assert (tr.rows.gamma[0], tr.rows.omega[0]) == (0.0, 0.0)

    def test_estimate_divergence_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", "--op", "quadratic", "--policy", "const:10",
                             "--x0", "1,1", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.splitlines() == ["diverged: non-finite operator value at extrapolation "
                                    "point at iteration 67"]

    def test_divergence_exits_2_with_partial_trace(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--op", "cubic1d", "--x0", "2,2",
                           "--policy", "const:10", "--out", str(tmp_path))
        assert code == 2
        assert "diverged" in out
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert tr.reason == "nonfinite"
        assert len(tr.rows) >= 1

    def test_underflowed_step_exits_2_with_partial_trace(self, tmp_path, capsys):
        code, out, err = run(capsys, "solve", "--op", "quadratic", "--x0", "1e150,1e150",
                             "--policy", "adaptive:1:1e200", "--iters", "5",
                             "--out", str(tmp_path))
        assert code == 2 and err == ""
        assert out.startswith("diverged: step gamma_k underflowed to 0.0 at iteration 0")
        tr = read_trace_csv(str(tmp_path / "trace.csv"))
        assert (len(tr.rows), tr.iterations_run, tr.reason) == (0, 0, "nonfinite")

    def test_overflowing_cubic_form_exits_2(self, tmp_path, capsys):
        # x[:d] . (A x[:d]) overflows to -inf here; the field is NaN, not a math error
        code, out, err = run(capsys, "solve", "--op", "cubicRd:d=2",
                             "--x0=1.65944774e+203,-3.05311685e+203,-6.05243581e+202,"
                             "3.66085039e+203", "--policy", "thm5", "--iters", "5",
                             "--out", str(tmp_path))
        assert code == 2 and err == ""
        assert out.startswith("diverged: non-finite operator value at iteration 0")

    @pytest.mark.parametrize("op, x0", [("signpower", "1e200,1e200"), ("forsaken", "1e70,1")])
    def test_overflowing_start_exits_2_without_a_warning(self, op, x0, tmp_path, capsys):
        # signpower's square overflows to inf on Python floats; forsaken's w ** 5
        # would raise OverflowError there, so its field stays on numpy scalars
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", "--op", op, "--x0", x0,
                                 "--policy", "adaptive:1:1", "--out", str(tmp_path))
        assert code == 2 and err == ""
        assert len(out.splitlines()) == 1
        assert out.startswith("diverged: non-finite operator value at iteration 0")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bad_policy_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        # thm4, thm7 and thm9: quadratic's alpha = 1 leaves no rule to build
        for policy in ("bogus", "const:inf", "vankov:nan", "thm3:1", "thm4", "thm7", "thm9"):
            code, out, err = run(capsys, "solve", "--op", "quadratic", "--x0", "1,1",
                                 "--policy", policy, "--out", str(out_dir))
            assert code == 1 and out == "" and len(err.splitlines()) == 1
            assert not out_dir.exists()
            assert err.startswith(f"--policy {policy}: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--op", "quadratic", "--alpha", "1", "--L0", "nan", "--L1", "0",
         "--grid", "5", "--pairs", "3"],
        ["verify", "--op", "quadratic", "--alpha", "1", "--L0", "inf", "--L1", "0",
         "--grid", "5", "--pairs", "3"],
        ["solve", "--op", "signpower:mu=nan", "--x0", "1,1", "--policy", "thm3"],
        ["solve", "--op", "bilinear:R=inf", "--x0", "1,1", "--policy", "thm5"],
    ], ids=["L0-nan", "L0-inf", "mu-nan", "R-inf"])
    def test_non_finite_constants_exit_1(self, argv, tmp_path, capsys):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "finite" in err

    @pytest.mark.parametrize("spec", [
        "cubicRd:seed=-1", "cubicRd:seed=2.5", "cubicRd:seed=1e30", "cubicRd:d=1.5",
        "nplayer:n=2.5", "bilinear:R=nan", "bilinear:R=inf", "power:p=nan", "power:tau1=inf",
        "logistic:a=nan",
        "power:p=1e300",   # ((p-1)/tau1)^(p-1) overflows
    ])
    def test_bad_operator_parameter_names_it(self, spec, tmp_path, capsys):
        key, _, param = spec.partition(":")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "verify", "--op", spec, "--grid", "2", "--pairs", "1",
                             "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"--op {spec}: {key}: {param.partition('=')[0]} ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, reason", [
        ("nosuch", "unknown operator 'nosuch'; valid keys: "),
        ("signpower:bogus=1", "signpower() got an unexpected keyword argument 'bogus'"),
        ("cubicRd:flag=1", "cubicRd() got an unexpected keyword argument 'flag'"),
        ("cubicRd:d", "bad operator parameter 'd' (expected name=value)"),
        ("cubicRd:=1", "bad operator parameter '=1' (expected name=value)"),
    ], ids=["unknown-key", "unknown-parameter", "parameter-named-flag", "no-value", "no-name"])
    def test_bad_operator_key_names_it(self, spec, reason, tmp_path, capsys):
        out_dir = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", "--op", spec, "--x0", "1,1",
                                 "--policy", "thm3", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"--op {spec}: {reason}")
        assert not out_dir.exists() and not caught

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

    @pytest.mark.parametrize("argv", [
        ["solve", "--op", "quadratic", "--policy", "thm3"],
        ["estimate", "--op", "quadratic", "--policy", "thm3"],
        ["sweep", "--op", "quadratic", "--c0", "10", "--c1", "0", "--iters", "50"],
    ], ids=["solve", "estimate", "sweep"])
    def test_negative_first_x0_entry(self, argv, tmp_path, capsys):
        code, out, err = run(capsys, *argv, "--x0", "-1,1", "--out", str(tmp_path / "a"))
        assert code == 0 and err == ""
        assert (code, out.replace("/a/", "/b/")) == run(
            capsys, *argv, "--x0=-1,1", "--out", str(tmp_path / "b"))[:2]

    def test_negative_first_x0_entry_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\nx0 = -1,1\n")
        argv = ["solve", "--op", "quadratic", "--policy", "thm3", "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 0 and err == ""
        assert (code, out) == run(capsys, *argv, "--x0=-1,1")[:2]

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

    @pytest.mark.parametrize("argv, line", [
        (["solve", "--config"], "--config needs a file path"),
        (["--config", "run.ini"], "--config requires the subcommand on the command line"),
        (["--config", "missing.ini", "solve"], "--config missing.ini: config file not found"),
    ], ids=["no-path", "no-subcommand", "not-found"])
    def test_config_refusal_names_the_flag(self, argv, line, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", line + "\n")

    def test_config_switch(self, tmp_path, capsys):
        # a switch key is given when its value reads as true, and left out otherwise
        cfg = tmp_path / "run.ini"
        argv = ["--config", str(cfg), "solve", "--op", "cubic1d", "--x0", "0.5,0.5",
                "--policy", "thm3", "--iters", "5", "--out", str(tmp_path / "o")]
        cfg.write_text("[solve]\nforce = yes\n")
        with pytest.warns(UserWarning, match="policy 'strong-mono' assumes one of") as caught:
            code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out.startswith("reason=max_iters iters=5 ")
        assert len(caught) == 1
        cfg.write_text("[solve]\nforce = no\n")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("--policy thm3: ") and "(pass --force to run anyway)" in err

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\nop = quadratic\nx0 = 1,1\npolicy = thm3\n"
                       "iters = 5\ntol = 0\n")
        code, out, _ = run(capsys, "--config", str(cfg), "solve",
                           "--iters", "3", "--out", str(tmp_path / "o2"))
        assert code == 0
        assert "iters=3" in out

    def test_config_with_equals_sign(self, tmp_path, capsys):
        # --config=FILE used to pass through unexpanded: 1000 iterations, exit 0
        cfg = tmp_path / "run.ini"
        cfg.write_text("[solve]\niters = 3\n")
        code, out, _ = run(capsys, f"--config={cfg}", "solve", "--op", "quadratic",
                           "--x0", "1,1", "--policy", "thm3", "--tol", "0",
                           "--out", str(tmp_path / "o"))
        assert code == 0
        assert "iters=3" in out

    def test_config_keys_match_flags_in_any_case(self, tmp_path, capsys):
        # configparser lowercases keys; 'l0' must still give --L0, not --l0
        cfg = tmp_path / "run.ini"
        cfg.write_text("[verify]\nL0 = 10\nL1 = 10\n")
        argv = ["verify", "--op", "quadratic", "--alpha", "1", "--grid", "5", "--pairs", "3",
                "--out", str(tmp_path / "o")]
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 0 and err == ""
        assert (code, out) == run(capsys, *argv, "--L0", "10", "--L1", "10")[:2]
        assert out != run(capsys, *argv, "--L0", "1", "--L1", "1")[1]


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


# an entry float() refuses: no comma, not blank, not 'nan'/'inf'/'1e5'/'1_0'
_NON_NUMBER = st.text(alphabet="abnfxz_+-.e# ", min_size=1, max_size=6).filter(
    lambda t: t.strip() and not _is_number(t))
_NUMBER = st.floats(-1e3, 1e3).map(repr)


@st.composite
def _list_with_bad_entry(draw, bad=_NON_NUMBER):
    entries = draw(st.lists(_NUMBER, max_size=3))
    entries.insert(draw(st.integers(0, len(entries))), draw(bad))
    return ",".join(entries)


_BAD_ITERS = st.one_of(st.integers(max_value=0),
                       st.integers(min_value=MAX_TRACE_ROWS + 1, max_value=10 ** 30)).map(str)
_BAD_TOL = st.one_of(st.floats(max_value=-1e-300).map(repr),
                     st.sampled_from(["nan", "inf", "1e400"]))
# a strictly negative rand: radius
_NEGATIVE_RADIUS = st.floats(max_value=-5e-324).map("rand:{!r}".format)
# numbers outside a constant's range: c0 > 0; c1, L0, L1 >= 0; alpha in (0, 1]; all finite
_NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])).map(repr)
_NEGATIVE = st.one_of(st.floats(max_value=-5e-324), st.sampled_from([math.nan, math.inf])).map(repr)
_BAD_ALPHA = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                       st.just(math.nan)).map(repr)

# (base argv, flag, strategy for a value that flag must refuse)
_BAD_NUMBER_FLAGS = [
    (["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3"], "--x0",
     st.one_of(_list_with_bad_entry(), _NON_NUMBER.map("rand:{}".format), _NEGATIVE_RADIUS,
               st.lists(_NUMBER, max_size=5).filter(lambda v: len(v) != 2).map(",".join))),
    # a start that overflows, and a long vector with a non-finite entry
    (["solve", "--op", "cubicRd:d=10", "--x0", "0", "--policy", "adaptive:1:1"], "--x0",
     st.sampled_from(["rand:1e308", ",".join(["1e400"] + ["1"] * 19)])),
    (["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3"], "--iters", _BAD_ITERS),
    (["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3"], "--tol", _BAD_TOL),
    (["solve", "--op", "cubicRd", "--x0", "1,1", "--policy", "thm3"], "--op",
     _NON_NUMBER.map("cubicRd:d={}".format)),
    (["estimate", "--op", "quadratic", "--policy", "thm3"], "--iters", _BAD_ITERS),
    (["estimate", "--op", "quadratic", "--policy", "thm3"], "--x0", _list_with_bad_entry()),
    (["estimate", "--op", "quadratic", "--from-grid", "--grid", "3"], "--alphas",
     _list_with_bad_entry()),
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--c0",
     _list_with_bad_entry()),
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--c1",
     _list_with_bad_entry()),
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--x0",
     st.one_of(_NON_NUMBER.map("rand:{}".format), _NEGATIVE_RADIUS)),
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--c0",
     _list_with_bad_entry(_NOT_POSITIVE)),
    # a list with no number in it
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--c0",
     st.sampled_from([",", "", " , ,"])),
    (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "10", "--c1", "0"], "--c1",
     _list_with_bad_entry(_NEGATIVE)),
    (["verify", "--op", "forsaken", "--L0", "1", "--L1", "1"], "--alpha", _BAD_ALPHA),
    (["verify", "--op", "forsaken", "--alpha", "1", "--L1", "1"], "--L0", _NEGATIVE),
    (["verify", "--op", "forsaken", "--alpha", "1", "--L0", "1"], "--L1", _NEGATIVE),
]


class TestNumberFlags:
    @given(data=st.data(), case=st.sampled_from(_BAD_NUMBER_FLAGS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_number_names_its_flag(self, data, case, tmp_path, capsys):
        argv, flag, values = case
        value = data.draw(values)
        out_dir = tmp_path / "out"
        # the later occurrence of a flag wins; '=' keeps a leading '-' a value
        code, out, err = run(capsys, *argv, f"{flag}={value}", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"{flag} ")
        assert not out_dir.exists()

    def test_zero_constants_name_both_flags(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "verify", "--op", "forsaken", "--alpha", "1", "--L0", "0",
                             "--L1", "-0.0", "--out", str(out_dir))
        assert (code, out, err) == (1, "", "--L0 0.0 --L1 -0.0: L0 + L1 must be positive\n")
        assert not out_dir.exists()


# values every number flag draws: small valid ones and boundary ones
_REAL = st.sampled_from(["1", "0.5", "10", "2", "1e-3", "0", "-0", "1e-320", "1e300"])
_REALS = st.lists(_REAL, min_size=1, max_size=3).map(",".join)


@st.composite
def _fuzz_op(draw):
    """An operator key, or an unknown one, with at most one of its builder's
    parameters or a bogus one; sizes (cubicRd's d, nplayer's n) stay below 4."""
    key = draw(st.sampled_from(sorted(egsolve.ZOO) + ["nosuch"]))
    if not draw(st.booleans()):
        return key
    known = egsolve.ZOO[key].builder if key in egsolve.ZOO else lambda: None
    name = draw(st.sampled_from(list(inspect.signature(known).parameters) + ["bogus"]))
    value = draw(st.sampled_from(["1", "2", "3", "0", "-1", "1.5", "1e300", "-1e300", "5e-324",
                                  "nan", "inf"]))
    return f"{key}:{name}={value}"


# values each flag draws from; --iters, --grid and --pairs stay small, so that
# every call finishes in milliseconds
_FUZZ_VALUES = {
    "--op": _fuzz_op(),
    "--seed": st.sampled_from(["0", "1", "42", str(2 ** 64)]),
    "--x0": st.one_of(_REALS, _REAL.map("rand:{}".format), st.sampled_from(
        ["1,1", "1,1,1,1", "1e200,1e200", "1e70,1", "rand:-1"])),
    "--iters": st.sampled_from(["1", "2", "7", "40", "0", str(MAX_TRACE_ROWS + 1)]),
    "--tol": _REAL,
    "--policy": st.one_of(
        st.sampled_from(["thm3", "cor1", "thm4", "thm5", "thm7", "thm8", "thm9", "vankov",
                         "STRONGLY-MONOTONE", "bogus", "thm3:1"]),
        st.builds("{}:{}".format, st.sampled_from(["const", "adaptive", "vankov", "pethick",
                                                     "egplus"]),
                  st.lists(_REAL, min_size=1, max_size=3).map(":".join))),
    "--force": None,
    "--c0": _REALS,
    "--c1": _REALS,
    "--alpha": _REAL,
    "--L0": _REAL,
    "--L1": _REAL,
    "--box": _REAL,
    "--grid": st.sampled_from(["1", "2", "3", "5", str(10 ** 7)]),
    "--pairs": st.sampled_from(["1", "2", "5", "9901"]),
    "--from-grid": None,
    "--alphas": _REALS,
}
_BOUNDED = {"--iters", "--grid", "--pairs"}    # their defaults run for seconds
_TOGETHER = {"--L0": "--alpha", "--L1": "--alpha"}    # given together or not at all
# malformed text; one argv in two puts one of these into one of its values
_ODD = ["nan", "inf", "-inf", "1e400", "-1", "", ",", "x", "1,,1", ":", "="]


@st.composite
def _fuzz_argv(draw):
    """A subcommand with its real flags, each drawn from _FUZZ_VALUES: the
    bounded ones always, a required one nine times in ten and any other one
    time in two. One argv in two has one value replaced by or joined with a
    malformed entry; one in ten ends in a bogus flag or positional."""
    parser = _build_parser()
    cmd = draw(st.sampled_from(sorted(parser.commands.choices)))
    argv, given = [cmd], {}
    for action in parser.commands.choices[cmd]._actions:
        flag = next((o for o in action.option_strings if o.startswith("--")), None)
        if flag in (None, "--help", "--out"):
            if action.choices is not None:    # reproduce's figure, nu's kind
                argv.append(draw(st.sampled_from(sorted(action.choices))))
            continue
        if flag in _TOGETHER:
            given[flag] = given[_TOGETHER[flag]]
        else:
            given[flag] = flag in _BOUNDED or draw(st.sampled_from(
                [True] * (9 if action.required else 1) + [False]))
        if given[flag]:
            values = _FUZZ_VALUES[flag]
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if draw(st.booleans()):
        i = draw(st.integers(1, len(argv) - 1))    # every argv has a value after cmd
        head, eq, value = argv[i].rpartition("=") if "=" in argv[i] else ("", "", argv[i])
        joint = draw(st.sampled_from([None, ",", ":", "=", ""]))
        odd = draw(st.sampled_from(_ODD))
        argv[i] = head + eq + (odd if joint is None else value + joint + odd)
    return argv + draw(st.sampled_from(
        [[]] * 9 + [["--bogus"], ["extra"], ["--config", "missing.ini"]]))


# the exit-1 lines about several flags at once; each names every flag it is about
_CROSS_FLAG = ("--alpha, --L0, --L1 must be given together",
               "estimate needs --from-grid or --policy")


class TestCliFuzz:
    def test_every_flag_has_values(self):
        parser = _build_parser()
        flags = {o for p in parser.commands.choices.values() for a in p._actions
                 for o in a.option_strings if o.startswith("--")}
        assert flags - {"--help", "--out"} == _FUZZ_VALUES.keys()

    @given(argv=_fuzz_argv())
    @example(argv=["solve", "--op=quadratic", "--x0=1,1", "--iters=1", "--policy=bogus"])
    @example(argv=["verify", "--op=nosuch", "--grid=2", "--pairs=1"])
    @example(argv=["estimate", "--op=cubicRd", "--policy=thm5", "--iters=40", "--grid=2"])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_argv_exits_with_one_line(self, argv, tmp_path, capsys):
        if argv[0] != "nu":
            argv = argv + ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) <= 1, err
        assert "Traceback" not in out + err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert elapsed < 5.0
        if code == 1:
            # a refusal names a flag of argv, or one whose default the command
            # read (estimate's --x0 1,1); argparse's own lines name the program,
            # and errors after the checks (evaluation, OS) are 'error: '
            named = {a.partition("=")[0] for a in argv if a.startswith("--")}
            named |= {o for a in _build_parser().commands.choices[argv[0]]._actions
                      if a.default is not None for o in a.option_strings}
            assert err.startswith((*(f"{f} " for f in named), "egsolve", "error: ",
                                   *_CROSS_FLAG)), err


class TestParserWiring:
    # solve, sweep, verify and estimate share one parent parser's --op, --seed
    # and --out actions; a default set on one subcommand would reach them all
    @pytest.mark.parametrize("argv, seed", [
        (["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3"], 0),
        (["sweep", "--op", "quadratic", "--x0", "1,1", "--c0", "1", "--c1", "0"], 0),
        (["verify", "--op", "quadratic"], 0),
        (["estimate", "--op", "quadratic"], 0),
        (["reproduce", "fig3"], 42),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_default_seed_and_out(self, argv, seed):
        args = _build_parser().parse_args(argv)
        assert (args.seed, args.out) == (seed, "egsolve-out")

    # numpy's generators refuse a negative seed only when first used, which for
    # verify and reproduce fig4 comes after --out exists
    @pytest.mark.parametrize("argv", [
        ["solve", "--op", "quadratic", "--x0", "rand:1", "--policy", "thm3"],
        ["sweep", "--op", "quadratic", "--x0", "rand:1", "--c0", "10", "--c1", "0"],
        ["verify", "--op", "forsaken", "--grid", "3"],
        ["estimate", "--op", "quadratic", "--from-grid", "--grid", "3"],
        ["reproduce", "fig4"],
    ], ids=lambda v: v[0])
    def test_negative_seed_exits_1_before_out_exists(self, argv, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--seed", "-1", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("--seed -1: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "reproduce", "verify", "estimate",
                                         "nu"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: egsolve {command}")


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

    def test_outputs_are_pinned(self, tmp_path, capsys):
        # sha256 and cell lines recorded at commit b11eec9; cubic1d's field is
        # elementwise, so its bits do not depend on the CPU's BLAS
        code, out, _ = run(capsys, *SWEEP_2X2, "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[:-1] == [
            "cell (2.0,0.0): iters_to_tol=85 relerr=3.3121481467182554e-09",
            "cell (2.0,1.0): iters_to_tol=-1 relerr=1.4683011326276474e-08",
            "cell (0.1,0.0): iters_to_tol=-1 diverged",
            "cell (0.1,1.0): iters_to_tol=-1 diverged",
        ]
        assert (hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
                == "97ee48c7cf4e916b5a9018fa6a3f1336bf9210b79d76a61d6574f0ee43ba8aa5")

    def test_force_is_not_a_sweep_flag(self, tmp_path, capsys):
        # adaptive cells have no class requirement for --force to lift
        code, out, err = run(capsys, *SWEEP_2X2, "--force", "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert "unrecognized arguments: --force" in err
        assert not (tmp_path / "o").exists()

    def test_rejects_non_numeric_grid(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--op", "cubic1d", "--x0", "1,1",
                           "--c0", "10,abc", "--c1", "0", "--iters", "10",
                           "--out", str(tmp_path))
        assert code == 1 and err

    def test_underflowed_step_is_a_diverged_cell(self, tmp_path, capsys):
        # 1/(c0 + 1e200 ||F||) rounds to 0.0 from x0 = (1e150, 1e150); the
        # c1 = 0 cells still run and the grid is written
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "1e150,1e150",
                             "--iters", "5", "--c0", "1,10", "--c1", "1e200,0",
                             "--out", str(tmp_path))
        assert code == 0 and err == ""
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[:2] for r in rows] == [["1.0", "1e+200"], ["1.0", "0.0"],
                                         ["10.0", "1e+200"], ["10.0", "0.0"]]
        assert rows[0][2:] == rows[2][2:] == ["-1", "inf"]
        assert math.isfinite(float(rows[1][3])) and math.isfinite(float(rows[3][3]))

    def test_rejects_overflowing_start_distance_before_creating_out(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "1e160,1e160",
                             "--c0", "10", "--c1", "0", "--iters", "5", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "overflows" in err and "relative error" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("iters", ["2000000", "0"])
    def test_iters_bounded_before_creating_out(self, iters, tmp_path, capsys, monkeypatch):
        def no_solve(*a, **kw):
            raise AssertionError("a cell ran before the --iters check")
        monkeypatch.setattr(solver, "solve", no_solve)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *SWEEP_2X2[:-2], "--iters", iters, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"--iters {iters}:")
        assert "MAX_TRACE_ROWS" in err
        assert not out_dir.exists()

    def test_rejects_x0_at_root(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "0,0",
                             "--c0", "10", "--c1", "0", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "relative error" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_rejects_non_finite_x0_before_creating_out(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "nan,1",
                             "--c0", "10", "--c1", "0", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "non-finite" in err
        assert not out_dir.exists()

    def test_bad_cell_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        real = solver.solve
        monkeypatch.setattr(solver, "solve",
                            lambda *a, **kw: solves.append(a) or real(*a, **kw))
        for c0, c1, why in (("100,0", "0", "c0 > 0"), ("100", "0,nan", "c1 >= 0")):
            code, out, err = run(capsys, "sweep", "--op", "quadratic", "--x0", "1,1",
                                 "--c0", c0, "--c1", c1, "--iters", "10",
                                 "--out", str(tmp_path))
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and why in err
            assert solves == []
            assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_rejects_bad_relative_tolerance_before_creating_out(self, tol, tmp_path, capsys,
                                                                monkeypatch):
        def no_solve(*a, **kw):
            raise AssertionError("a cell ran before the --tol check")
        monkeypatch.setattr(solver, "solve", no_solve)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "sweep", "--op", "cubic1d", "--x0", "1,1", "--c0", "1",
                             "--c1", "1", "--iters", "10", "--tol", tol, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"--tol {float(tol)}")
        assert not out_dir.exists()


class TestGridLimits:
    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--op", "cubicRd:d=10"], "--grid"),                   # default 7^20 points
        (["verify", "--op", "quadratic", "--grid", "1"], "--grid"),
        (["estimate", "--op", "cubicRd:d=10", "--from-grid"], "--grid"),  # default 21^20 points
        (["estimate", "--op", "quadratic", "--from-grid", "--grid", "0"], "--grid"),
        (["verify", "--op", "quadratic", "--pairs", "0"], "--pairs"),
        (["verify", "--op", "quadratic", "--pairs", "100000000"], "--pairs"),  # 101 points a pair
        (["estimate", "--op", "cubicRd:d=2", "--from-grid", "--grid", "30", "--alphas", "2"],
         "alpha"),
        (["estimate", "--op", "cubicRd:d=2", "--from-grid", "--grid", "30", "--alphas", "0"],
         "alpha"),
        (["estimate", "--op", "cubicRd:d=2", "--from-grid", "--grid", "30", "--alphas", ","],
         "alpha"),
        (["estimate", "--op", "quadratic", "--policy", "thm3", "--alphas", "0.5,nan"], "alpha"),
    ], ids=[f"argv{i}" for i in range(10)])
    def test_bad_grid_exits_1_before_any_evaluation(self, argv, flag, tmp_path, capsys,
                                                    monkeypatch):
        _refuse_evaluation(monkeypatch, "the size check")
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and flag in err

    def test_bad_alpha_grid_names_its_flag(self, tmp_path, capsys):
        code, out, err = run(capsys, "estimate", "--op", "quadratic", "--from-grid",
                             "--alphas", "0", "--out", str(tmp_path / "o"))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("--alphas 0: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--op", "quadratic", "--box", "inf", "--grid", "3", "--pairs", "2"],
        ["verify", "--op", "quadratic", "--box", "nan", "--grid", "3", "--pairs", "2"],
        ["estimate", "--op", "quadratic", "--from-grid", "--box", "1e308", "--grid", "3"],
        ["estimate", "--op", "quadratic", "--from-grid", "--box=-1", "--grid", "3"],
    ], ids=["verify-inf", "verify-nan", "estimate-overflowing-width", "estimate-negative"])
    def test_ungriddable_box_exits_1_before_out_exists(self, argv, tmp_path, capsys,
                                                       monkeypatch):
        _refuse_evaluation(monkeypatch, "the box check")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("--box ")
        assert not out_dir.exists()

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


class TestSizeLimits:
    @pytest.mark.parametrize("op", ["nplayer:n=1000000000", "cubicRd:d=100000000"])
    def test_oversized_operator_exits_1_at_once(self, op, tmp_path, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "--op", op, "--x0", "rand:1",
                             "--policy", "const:0.1", "--out", str(tmp_path))
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "MAX_DIM" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3",
         "--iters", "1000000000000"],
        ["reproduce", "fig5", "--iters", "10000000"],
    ], ids=["solve", "reproduce-fig5"])
    def test_oversized_traced_iterations_exit_1_at_once(self, argv, tmp_path, capsys,
                                                        monkeypatch):
        def no_solve(*a, **kw):
            raise AssertionError("a solve started before the --iters check")
        monkeypatch.setattr(solver, "solve", no_solve)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "MAX_TRACE_ROWS" in err

    @pytest.mark.parametrize("fig, iters", [("fig5", "10000000"), ("fig4", "0"),
                                            ("fig3", "-5")])
    def test_reproduce_budget_refused_before_out_exists(self, fig, iters, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "reproduce", fig, "--iters", iters, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"--iters {iters}:")
        assert not out_dir.exists()


class TestJobs:
    # perfbench counts EG work only from the traces that the module attribute
    # egsolve.solver.solve returns, so every job solves (and writes its traces)
    # through solver.solve and solver.write_trace_csv; cells run one after
    # another in the calling thread, which starts no other thread
    @pytest.mark.parametrize("argv, solves, traces", [
        (["reproduce", "fig3", "--iters", "50"], 2, 2),
        (["reproduce", "fig4", "--iters", "50"], 15, 0),
        (["reproduce", "fig5", "--iters", "50"], 3, 3),
        (SWEEP_2X2, 4, 0),
    ], ids=["fig3", "fig4", "fig5", "sweep"])
    def test_solves_through_the_solver_module_in_the_calling_thread(
            self, argv, solves, traces, tmp_path, capsys, monkeypatch):
        calls = {"solve": 0, "write_trace_csv": 0}

        def counted(name, real):
            def wrapper(*a, **kw):
                calls[name] += 1
                return real(*a, **kw)
            return wrapper
        for name in calls:
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: starts.append(self.name) or start(self))
        run(capsys, *argv, "--out", str(tmp_path))
        assert calls == {"solve": solves, "write_trace_csv": traces}
        assert starts == []


class TestOSErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--op", "quadratic", "--x0", "1,1", "--policy", "thm3"],
        ["sweep", "--op", "cubic1d", "--x0", "0.5,0.5", "--c0", "2", "--c1", "0",
         "--iters", "10"],
        ["verify", "--op", "quadratic", "--grid", "3", "--pairs", "2"],
        ["estimate", "--op", "quadratic", "--from-grid", "--grid", "3"],
        ["reproduce", "fig5", "--iters", "50"],
    ], ids=["solve", "sweep", "verify", "estimate", "fig5"])
    def test_out_below_a_file_exits_1_with_one_line(self, argv, tmp_path, capsys, monkeypatch):
        # every command creates --out before it evaluates the operator
        _refuse_evaluation(monkeypatch, "--out was created")
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "file" / "out"))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestRefusedPolicy:
    @pytest.mark.parametrize("argv,match", [
        (["solve", "--op", "square", "--x0", "1,1", "--policy", "thm3"], "assumes one of"),
        (["solve", "--op", "square", "--x0", "1,1", "--policy", "thm5", "--force"],
         "alpha = 1"),
        (["estimate", "--op", "square", "--policy", "thm3", "--x0", "1,1"], "assumes one of"),
        (["solve", "--op", "cubic1d", "--x0", "0.5,0.5", "--policy", "pethick:0.1", "--force"],
         "needs rho"),
        # too few samples to fit: one a trace row, one a grid point
        (["estimate", "--op", "quadratic", "--policy", "thm3", "--iters", "2"], "--iters 2: "),
        (["estimate", "--op", "logistic:a=1", "--from-grid", "--grid", "2"], "--grid 2: "),
        # the operator has no root to measure a sweep's relative error from
        (["sweep", "--op", "logistic", "--x0", "1,1", "--c0", "1", "--c1", "1"],
         "--op logistic: sweep needs an operator with a known root"),
        (["verify", "--op", "quadratic", "--L0", "1"], "--alpha, --L0, --L1 must be given"),
    ], ids=["incompatible", "forced-bad-alpha", "estimate-incompatible", "forced-no-rho",
            "estimate-too-few-rows", "estimate-too-few-points", "sweep-without-root",
            "verify-L0-alone"])
    def test_exits_1_before_out_exists(self, argv, match, tmp_path, capsys, monkeypatch):
        _refuse_evaluation(monkeypatch, "the policy check")
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and match in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["solve", "--x0", "1,1"], ["estimate"]])
    def test_refusal_names_the_cli_flag(self, command, tmp_path, capsys):
        code, _, err = run(capsys, *command, "--op", "square", "--policy", "thm3",
                           "--out", str(tmp_path / "o"))
        assert code == 1 and err.startswith("--policy thm3: ")
        assert "--force" in err and "force=True" not in err


class TestWarnings:
    def test_forced_run_prints_one_line_per_warning(self, tmp_path):
        # pytest records the warnings of an in-process run, so the CLI runs in
        # a child process with the default warning filters
        src = os.path.dirname(os.path.dirname(egsolve.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from egsolve.cli import main; sys.exit(main())",
             "reproduce", "fig3", "--iters", "50", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 3   # 50 iterations are too few for fig3's checks
        lines = proc.stderr.splitlines()
        assert len(lines) == 2 and all(ln.startswith("warning: policy ") for ln in lines)

    def test_pytest_warns_still_records_them(self, tmp_path, capsys):
        with pytest.warns(UserWarning, match="policy 'vankov'"):
            code, _, err = run(capsys, "reproduce", "fig3", "--iters", "50",
                               "--out", str(tmp_path))
        assert code == 3 and err == ""


def _benchmark_run(tmp_path, *argv) -> dict:
    """The result line of perfbench/run.py run on a copy of the checkout, so
    nothing is written into it."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(egsolve.__file__)))
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(root, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestBenchmarkTrace:
    def test_traced_verify_grid_run_passes(self, tmp_path):
        # perfbench/layers.py wraps egsolve names that src/ itself may not use
        # (cli.spectral_norm, solver.gamma, each module's norm, ...): deleting
        # one breaks every --trace 1 run
        result = _benchmark_run(tmp_path, "--workload", "verify-grid", "--seed", "42",
                                "--seconds", "0", "--trace", "1")
        assert result["correct"] is True and result["failed"] == 0

    def test_untraced_experiments_2d_run_counts_its_iterations(self, tmp_path):
        # the benchmark counts EG work only from the traces solver.solve returns:
        # a figure whose solves bypass it would read work_per_s = 0
        result = _benchmark_run(tmp_path, "--workload", "experiments-2d", "--seed", "42",
                                "--seconds", "0", "--trace", "0")
        assert result["correct"] is True and result["failed"] == 0
        assert result["metrics"]["work_per_s"]["value"] > 0


class TestVerify:
    def test_quadratic_grid_runs_on_block_kernels(self, tmp_path, capsys, monkeypatch):
        def per_point(*a, **kw):
            raise AssertionError("a point was evaluated on its own")
        for name in ("__call__", "jacobian_at"):
            monkeypatch.setattr(OperatorInstance, name, per_point)
        code, out, _ = run(capsys, "verify", "--op", "quadratic", "--out", str(tmp_path))
        assert code == 0 and "FAIL" not in out

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


# sha256 of estimate's fit.csv and scatter.csv, recorded from this
# implementation before the samples became columns: a byte-identity
# contract, not an oracle value
ESTIMATE_SHA256 = {
    "grid": {
        "fit.csv": "e90df529126dfd42c94d34901ff3c5ef6cd2eda4cb3c216b092339a1262c74fa",
        "scatter.csv": "2bdc8e8a3ccc6ec096463a3c73cc0e305b65d2c808a5436b4d8514ee68bc67f4",
    },
    "trace": {
        "fit.csv": "04d63b5b6958d4c07e1401ad819acf2a692759e0bf04150580dc39cec163e486",
        "scatter.csv": "df43022f08dd93d711fca1e1cd0d9b723b8ef4146301791a09abdb1cb7c02f4e",
    },
}


class TestEstimate:
    @pytest.mark.parametrize("source, argv", [
        ("grid", ["--op", "cubicRd:d=2", "--from-grid", "--grid", "9"]),
        ("trace", ["--op", "forsaken", "--policy", "thm8", "--x0", "1,1", "--iters", "300"]),
    ])
    def test_outputs_are_frozen(self, source, argv, tmp_path, capsys):
        code, _, _ = run(capsys, "estimate", *argv, "--out", str(tmp_path))
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ESTIMATE_SHA256[source]}
        assert digests == ESTIMATE_SHA256[source]

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

    def test_default_start_is_all_ones_of_the_operator_dimension(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--op", "cubicRd", "--policy", "thm5",
                           "--iters", "40", "--out", str(tmp_path / "d4"))
        assert code == 0 and err == ""
        # in 2 dims the default is the old default, 1,1
        for name, x0 in (("default", []), ("ones", ["--x0", "1,1"])):
            assert run(capsys, "estimate", "--op", "forsaken", "--policy", "thm8", *x0,
                       "--iters", "50", "--out", str(tmp_path / name))[0] == 0
        for f in ("scatter.csv", "fit.csv"):
            assert (tmp_path / "default" / f).read_bytes() == (tmp_path / "ones" / f).read_bytes()


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
