import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egsolve.core import (
    BracketFailure,
    InvalidAlpha,
    MissingConstant,
    MonotoneClass,
    MonotonicityParams,
    OperatorInstance,
    SmoothnessParams,
    ZeroOperatorAtExtrapolation,
)
from egsolve.solver import resolve_policy
from egsolve.stepsize import (
    NuKind,
    OmegaRule,
    POLICY_KEY_HELP,
    PolicyKind,
    StepSizePolicy,
    bisect,
    gamma,
    k_constants,
    nu_residual,
    omega,
    parse_policy,
    pow_alpha,
    solve_nu,
)

SQ2 = math.sqrt(2.0)

# roots frozen from an independent high-precision root finder
FROZEN_ROOTS = {
    NuKind.STRONG_MONO: 0.363410192289494,
    NuKind.STRONG_MONO_DESCENT: 0.2146217962616323,
    NuKind.STRONG_MONO_FRAC: 0.6180339887498948,
    NuKind.MONO: 0.450600515864833,
    NuKind.WEAK_MINTY: 0.5671432904097838,
}


class TestRoots:
    @pytest.mark.parametrize("kind", list(NuKind))
    def test_residuals_small(self, kind):
        assert abs(nu_residual(kind, solve_nu(kind))) <= 1e-12

    @pytest.mark.parametrize("kind,root", sorted(FROZEN_ROOTS.items(), key=lambda t: t[0].value))
    def test_frozen_values(self, kind, root):
        assert solve_nu(kind) == pytest.approx(root, abs=2e-15)

    def test_golden_section_root_closed_form(self):
        assert solve_nu(NuKind.STRONG_MONO_FRAC) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)

    def test_roots_in_unit_interval(self):
        for kind in NuKind:
            assert 0.0 < solve_nu(kind) < 1.0

    def test_bisect_bracket_failure(self):
        with pytest.raises(BracketFailure):
            bisect(lambda v: v * v + 1.0, 0.0, 1.0)

    def test_bisect_endpoint_root(self):
        assert bisect(lambda v: v, 0.0, 1.0) == 0.0
        assert bisect(lambda v: v - 1.0, 0.0, 1.0) == 1.0

    def test_bisect_midpoint_root(self):
        assert bisect(lambda v: v - 0.5, 0.0, 1.0) == 0.5

    def test_bisect_stops_where_floats_are_wider_than_its_tolerance(self):
        # floats near 1e16 are 2 apart, so hi - lo never falls to BISECT_TOL:
        # the loop ends once the midpoint rounds onto an end of the bracket
        calls = []
        root = bisect(lambda v: calls.append(v) or (v - 1e16) - 3.0, 1e16, 1e16 + 8)
        assert root == 1e16 + 4 and len(calls) == 4


class TestKConstants:
    def test_spot_check_alpha_half(self):
        kc = k_constants(SmoothnessParams(0.5, 1.0, 2.0))
        assert kc.K0 == pytest.approx(SQ2 + 1.0, abs=1e-9)
        assert kc.K1 == pytest.approx(2.0 * SQ2, abs=1e-9)
        assert kc.K2 == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-9)

    def test_L1_zero_collapses_exactly(self):
        kc = k_constants(SmoothnessParams(0.5, 1.0, 0.0))
        assert kc.K0 == pytest.approx(SQ2 + 1.0, abs=1e-12)
        assert kc.K1 == 0.0 and kc.K2 == 0.0

    def test_alpha_to_zero_limits(self):
        kc = k_constants(SmoothnessParams(1e-6, 3.0, 5.0))
        assert kc.K0 == pytest.approx(2.0 * 3.0, rel=1e-5)
        assert kc.K1 == pytest.approx(5.0, rel=1e-5)

    def test_alpha_one_rejected(self):
        with pytest.raises(InvalidAlpha):
            k_constants(SmoothnessParams(1.0, 1.0, 1.0))

    def test_K0_dominates_L0(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.uniform(0.01, 0.99)
            L0, L1 = rng.uniform(0.0, 10.0, 2)
            kc = k_constants(SmoothnessParams(a, L0, L1))
            assert kc.K0 >= L0
            assert kc.K1 >= 0.0 and kc.K2 >= 0.0

    def test_pow_alpha_zero_convention(self):
        assert pow_alpha(0.0, 0.5) == 0.0
        assert pow_alpha(4.0, 0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            pow_alpha(-1.0, 0.5)


class TestGamma:
    def test_strong_mono_at_zero_norm_is_nu_over_L0(self):
        p = parse_policy("thm3")
        s = SmoothnessParams(1.0, 1.0, 1.0)
        assert gamma(p, 0.0, s=s) == pytest.approx(0.363410192289494, abs=1e-12)

    def test_strong_mono_constant_when_L1_zero(self):
        p = parse_policy("thm3")
        s = SmoothnessParams(1.0, 2.0, 0.0)
        vals = {gamma(p, nf, s=s) for nf in (0.0, 1.0, 10.0, 1e6)}
        assert vals == {solve_nu(NuKind.STRONG_MONO) / 2.0}

    @pytest.mark.parametrize("key", ["thm3", "cor1", "thm5", "thm8", "vankov:0.5",
                                     "adaptive:1:2", "adaptive:1:2:0.5", "const:0.1",
                                     "egplus:0.1", "pethick:0.1:0.05"])
    def test_nonincreasing_in_norm(self, key):
        p = parse_policy(key)
        s = SmoothnessParams(1.0, 1.0, 2.0)
        grid = [0.0, 0.1, 1.0, 5.0, 100.0]
        vals = [gamma(p, nf, s=s) for nf in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    @pytest.mark.parametrize("key", ["thm4", "thm7", "thm9"])
    def test_fractional_kinds_nonincreasing(self, key):
        p = parse_policy(key)
        s = SmoothnessParams(0.5, 1.0, 2.0)
        grid = [0.0, 0.1, 1.0, 5.0, 100.0]
        vals = [gamma(p, nf, s=s) for nf in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(PolicyKind)), st.data())
    def test_positive_finite_nonincreasing_for_every_kind(self, kind, data):
        # valid constants for each parameter the kind's row names, optional ones too
        draw = data.draw
        params = {p.lstrip("["): draw(st.floats(0.05, 1.0) if p == "[alpha"
                                      else st.floats(0.0, 1e3) if p in ("c1", "[rho")
                                      else st.floats(1e-3, 1e3))
                  for p in kind.params}
        policy = StepSizePolicy(kind=kind, **params)
        alpha = draw(st.floats(0.05, 0.95)) if kind.value.endswith("-frac") else 1.0
        s = SmoothnessParams(alpha, draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1e3)))
        m = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=draw(st.floats(1e-3, 1e3)))
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2)))
        g_lo, g_hi = gamma(policy, lo, s=s, m=m), gamma(policy, hi, s=s, m=m)
        assert 0.0 < g_hi <= g_lo < math.inf

    def test_fractional_kind_rejects_alpha_one(self):
        with pytest.raises(InvalidAlpha):
            gamma(parse_policy("thm4"), 1.0, s=SmoothnessParams(1.0, 1.0, 1.0))

    def test_alpha_one_kind_rejects_fractional(self):
        with pytest.raises(InvalidAlpha):
            gamma(parse_policy("thm5"), 1.0, s=SmoothnessParams(0.5, 1.0, 1.0))

    def test_golden_ratio_rule_value(self):
        # 2 K0 in the denominator at ||F|| = 0
        s = SmoothnessParams(0.5, 1.0, 2.0)
        kc = k_constants(s)
        got = gamma(parse_policy("thm4"), 0.0, s=s)
        assert got == pytest.approx(((math.sqrt(5.0) - 1.0) / 2.0) / (2.0 * kc.K0), rel=1e-12)

    def test_vankov_example(self):
        p = parse_policy("vankov:1")
        s = SmoothnessParams(1.0, 1.0 + 2.0 * SQ2, 2.0 * SQ2)
        expect = 1.0 / (2.0 * SQ2 * math.e * (1.0 + 2.0 * SQ2))
        assert gamma(p, 1.0, s=s) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.0340, abs=5e-4)

    def test_vankov_cap_binds_for_large_mu(self):
        p = parse_policy("vankov:12.5")
        s = SmoothnessParams(1.0, 1.0 + 2.0 * SQ2, 2.0 * SQ2)
        assert gamma(p, 0.0, s=s) == pytest.approx(1.0 / 50.0)

    def test_vankov_needs_mu(self):
        p = parse_policy("vankov")
        s = SmoothnessParams(1.0, 1.0, 1.0)
        with pytest.raises(MissingConstant):
            gamma(p, 1.0, s=s)
        m = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=1.0)
        assert gamma(p, 1.0, s=s, m=m) > 0

    def test_constant_and_egplus_return_step(self):
        assert gamma(parse_policy("const:0.25"), 123.0) == 0.25
        assert gamma(parse_policy("egplus:0.1"), 123.0) == 0.1
        assert gamma(parse_policy("pethick:0.1"), 123.0) == 0.1

    def test_adaptive_general(self):
        p = parse_policy("adaptive:10:5")
        assert gamma(p, 0.0) == pytest.approx(0.1)
        assert gamma(p, 2.0) == pytest.approx(1.0 / 20.0)
        p2 = parse_policy("adaptive:1:1:0.5")
        assert gamma(p2, 4.0) == pytest.approx(1.0 / 3.0)

    def test_missing_smoothness(self):
        with pytest.raises(MissingConstant):
            gamma(parse_policy("thm3"), 1.0)

    def test_zero_denominator_guarded(self):
        with pytest.raises(MissingConstant):
            gamma(parse_policy("thm5"), 0.0, s=SmoothnessParams(1.0, 0.0, SQ2))

    def test_policy_override_beats_argument(self):
        p = StepSizePolicy(kind=PolicyKind.STRONG_MONO,
                           smoothness=SmoothnessParams(1.0, 1.0, 0.0))
        declared = SmoothnessParams(1.0, 100.0, 0.0)
        assert gamma(p, 0.0, s=declared) == pytest.approx(solve_nu(NuKind.STRONG_MONO))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            gamma(parse_policy("const:0.1"), -1.0)
        with pytest.raises(ValueError):
            gamma(parse_policy("const:0.1"), math.nan)


def _per_call_gamma(policy, nf, s, m):
    """The step formulas written out per call, as gamma evaluated them before
    the rule resolved its constants once."""
    kind, eff = policy.kind, policy.smoothness or s
    if kind in (PolicyKind.CONSTANT, PolicyKind.EGPLUS, PolicyKind.PETHICK):
        return float(policy.step)
    if kind is PolicyKind.ADAPTIVE:
        return 1.0 / (policy.c0 + policy.c1 * pow_alpha(nf, policy.alpha or 1.0))
    if kind.nu is not None:
        return solve_nu(kind.nu) / (eff.L0 + eff.L1 * nf)
    if kind is PolicyKind.VANKOV:
        mu = policy.mu or m.mu
        cap = min(1.0 / (4.0 * mu), 1.0 / (2.0 * math.sqrt(2.0) * math.e * eff.L0))
        third = eff.L1 * nf
        return min(cap, 1.0 / (2.0 * math.sqrt(2.0) * math.e * third)) if third > 0 else cap
    kc, a = k_constants(eff), eff.alpha
    fa = pow_alpha(nf, a)
    if kind is PolicyKind.STRONG_MONO_FRAC:
        return solve_nu(NuKind.STRONG_MONO_FRAC) / (
            2.0 * kc.K0 + (2.0 * kc.K1 + 2.0 ** (1.0 - a) * kc.K2 ** (1.0 - a)) * fa)
    return 1.0 / (2.0 * math.sqrt(2.0) * kc.K0
                  + (2.0 * math.sqrt(2.0) * kc.K1
                     + 2.0 ** (1.5 * (1.0 - a)) * kc.K2 ** (1.0 - a)) * fa)


_NF_SPREAD = [0.0, 5e-324, 1e-300, 1e-12, 0.1, 1.0 / 3.0, 1.0, 2.5, 1e3, 1e12, 1e300]


class TestRule:
    @pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda k: k.value)
    def test_rule_equals_gamma_bit_for_bit(self, kind):
        params = {"step": 0.1, "c0": 2.0, "c1": 3.0, "[alpha": 0.7, "[mu": 0.3, "[rho": 0.05}
        policy = StepSizePolicy(kind=kind, **{p.lstrip("["): params[p] for p in kind.params})
        s = SmoothnessParams(0.4 if kind.value.endswith("-frac") else 1.0, 1.7, 2.3)
        m = MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=0.9)
        rule = policy.rule(s, m)
        for nf in _NF_SPREAD:
            got = rule(nf)
            assert got == gamma(policy, nf, s=s, m=m) == _per_call_gamma(policy, nf, s, m)
            assert got.hex() == _per_call_gamma(policy, nf, s, m).hex()

    @pytest.mark.parametrize("key, s, m, err", [
        ("thm3", None, None, MissingConstant),
        ("thm9", None, None, MissingConstant),
        ("vankov:1", None, None, MissingConstant),
        ("vankov", SmoothnessParams(1.0, 1.0, 1.0), MonotonicityParams(MonotoneClass.MONOTONE),
         MissingConstant),
        ("thm5", SmoothnessParams(0.5, 1.0, 1.0), None, InvalidAlpha),
        ("thm7", SmoothnessParams(1.0, 1.0, 1.0), None, InvalidAlpha),
    ])
    def test_constants_are_checked_when_the_rule_is_built(self, key, s, m, err):
        with pytest.raises(err):
            parse_policy(key).rule(s, m)

    @pytest.mark.parametrize("key, alpha", [("thm5", 1.0), ("thm9", 0.5)])
    def test_undefined_step_raises_per_call(self, key, alpha):
        # L0 = 0: the step exists for ||F|| > 0 and is undefined at 0
        rule = parse_policy(key).rule(SmoothnessParams(alpha, 0.0, 2.0))
        assert rule(1.0) > 0
        with pytest.raises(MissingConstant):
            rule(0.0)


class TestOmega:
    def test_equal_and_half_rules(self):
        assert omega(parse_policy("thm3"), 0.2) == 0.2
        assert omega(parse_policy("thm5"), 0.2) == 0.2
        assert omega(parse_policy("vankov:1"), 0.2) == 0.2
        assert omega(parse_policy("thm8"), 0.2) == 0.1
        assert omega(parse_policy("egplus:0.2"), 0.2) == 0.1

    def test_omega_rule_mapping(self):
        assert parse_policy("thm9").omega_rule is OmegaRule.HALF
        assert parse_policy("const:1").omega_rule is OmegaRule.EQUAL
        assert parse_policy("pethick:1").omega_rule is OmegaRule.PETHICK

    def test_residual_adaptive_unit_example(self):
        p = parse_policy("pethick:1.0:0.1")
        F_xhat = np.array([0.5, 0.5])          # ||F(xhat)||^2 = 0.5
        x_minus_xhat = np.array([0.4, 0.0])    # inner product 0.2
        assert omega(p, 1.0, F_xhat=F_xhat, x_minus_xhat=x_minus_xhat) == pytest.approx(0.5)

    def test_residual_adaptive_scales_with_gamma(self):
        p = parse_policy("pethick:1.0:0.1")
        F_xhat = np.array([0.5, 0.5])
        x_minus_xhat = np.array([0.4, 0.0])
        assert omega(p, 0.1, F_xhat=F_xhat, x_minus_xhat=x_minus_xhat) == pytest.approx(0.05)

    def test_residual_adaptive_rho_fallback(self):
        p = parse_policy("pethick:1.0")
        F_xhat = np.array([1.0, 0.0])
        with pytest.raises(MissingConstant):
            omega(p, 1.0, F_xhat=F_xhat, x_minus_xhat=F_xhat)
        got = omega(p, 1.0, F_xhat=F_xhat, x_minus_xhat=F_xhat, rho=0.25)
        assert got == pytest.approx(1.25)

    def test_zero_extrapolation_norm_raises(self):
        p = parse_policy("pethick:1.0:0.1")
        with pytest.raises(ZeroOperatorAtExtrapolation):
            omega(p, 1.0, F_xhat=np.zeros(2), x_minus_xhat=np.ones(2))

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            omega(parse_policy("thm3"), 0.0)

    def test_pethick_needs_the_extrapolation(self):
        with pytest.raises(ValueError, match="Pethick rule needs F"):
            omega(parse_policy("pethick:1.0:0.1"), 1.0, x_minus_xhat=np.ones(2))


def _reference_omega(policy, gamma_k, F_xhat, x_minus_xhat, rho):
    """Reference update step: the rules written out in one function, no closure."""
    rule = policy.omega_rule
    if rule is OmegaRule.EQUAL:
        return gamma_k
    if rule is OmegaRule.HALF:
        return 0.5 * gamma_k
    r = policy.rho if policy.rho is not None else rho
    n2 = float(F_xhat @ F_xhat)
    return gamma_k * (r + float(F_xhat @ x_minus_xhat) / n2)


_VECTORS = st.integers(1, 6).flatmap(lambda n: st.tuples(*[
    st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.array) for _ in range(3)]))


class TestUpdate:
    # one kind per update rule, Pethick with and without its own rho
    POLICIES = ["thm3", "const:0.5", "thm8", "egplus:0.1", "pethick:0.1", "pethick:0.1:0.3"]

    @given(key=st.sampled_from(POLICIES), g=st.floats(1e-12, 1e3), vecs=_VECTORS,
           declared=st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_resolved_update_matches_reference_bits(self, key, g, vecs, declared):
        policy = parse_policy(key)
        F_xhat, x, xhat = vecs
        # the update `solve` runs: rho from the policy, else the operator's weak-Minty rho
        op = OperatorInstance(dim=len(x), fn=lambda v: v,
                              smoothness=SmoothnessParams(1.0, 1.0, 1.0),
                              monotonicity=MonotonicityParams(MonotoneClass.WEAK_MINTY,
                                                              rho=declared))
        got = resolve_policy(op, policy)[1](g, float(F_xhat @ F_xhat), float(F_xhat @ (x - xhat)))
        if policy.omega_rule is OmegaRule.PETHICK and float(F_xhat @ F_xhat) == 0.0:
            want = g    # the update term is zero: the step keeps gamma_k
            with pytest.raises(ZeroOperatorAtExtrapolation):
                omega(policy, g, F_xhat=F_xhat, x_minus_xhat=x - xhat, rho=declared)
        else:
            want = _reference_omega(policy, g, F_xhat, x - xhat, declared)
            assert omega(policy, g, F_xhat=F_xhat, x_minus_xhat=x - xhat,
                         rho=declared).hex() == want.hex()
        assert float(got).hex() == float(want).hex()

    def test_rho_comes_from_the_policy_else_the_declared_class(self):
        # F(xhat) = (1, 0), x - xhat = (0.5, 0): ||F(xhat)||^2 = 1, <F(xhat), x - xhat> = 0.5
        assert parse_policy("pethick:1:0.3").update(0.25)(2.0, 1.0, 0.5) == 2.0 * 0.8
        assert parse_policy("pethick:1").update(0.25)(2.0, 1.0, 0.5) == 2.0 * 0.75
        with pytest.raises(MissingConstant, match="needs rho"):
            parse_policy("pethick:1").update()

    def test_zero_extrapolation_value_returns_gamma(self):
        update = parse_policy("pethick:1:0.1").update()
        assert update(0.7, 0.0, 0.0) == 0.7


class TestParsePolicy:
    def test_aliases(self):
        assert parse_policy("thm3").kind is PolicyKind.STRONG_MONO
        assert parse_policy("strong-mono").kind is PolicyKind.STRONG_MONO
        assert parse_policy("cor1").kind is PolicyKind.STRONG_MONO_DESCENT
        assert parse_policy("thm4").kind is PolicyKind.STRONG_MONO_FRAC
        assert parse_policy("thm5").kind is PolicyKind.MONO
        assert parse_policy("thm7").kind is PolicyKind.MONO_FRAC
        assert parse_policy("thm8").kind is PolicyKind.WEAK_MINTY
        assert parse_policy("thm9").kind is PolicyKind.WEAK_MINTY_FRAC

    def test_parameterized(self):
        p = parse_policy("adaptive:10:5:0.5")
        assert (p.c0, p.c1, p.alpha) == (10.0, 5.0, 0.5)
        assert parse_policy("vankov:2.5").mu == 2.5
        assert parse_policy("vankov").mu is None
        pp = parse_policy("pethick:0.3:0.05")
        assert (pp.step, pp.rho) == (0.3, 0.05)

    def test_rejects_garbage(self):
        for text in ("nope", "thm3:1", "const", "const:abc", "adaptive:1",
                     "pethick", "const:-1", "adaptive:0:1",
                     "const:inf", "const:nan", "egplus:inf", "pethick:nan",
                     "adaptive:inf:1", "adaptive:1:nan", "adaptive:1:inf", "adaptive:1:1:nan",
                     "vankov:nan", "vankov:inf", "vankov:0", "vankov:-1",
                     "pethick:0.1:nan", "pethick:0.1:inf", "pethick:0.1:-1",
                     "const:1:2", "vankov:1:2", "adaptive:1:1:1:1"):
            with pytest.raises((ValueError, InvalidAlpha)):
                parse_policy(text)

    def test_every_listed_key_parses_to_its_kind(self):
        samples = {"STEP": "0.5", "C0": "2", "C1": "1", "ALPHA": "0.5", "MU": "3", "RHO": "0.1"}
        reached = set()
        for entry in POLICY_KEY_HELP.split(", "):
            head = re.match(r"[a-z-]+", entry.split("|")[-1]).group()
            kind = PolicyKind(head)
            if "|" in entry:
                texts = entry.split("|")
            else:   # every parameter given, then only the required ones
                full = re.sub(r"[A-Z0-9]+", lambda m: samples[m.group()], entry)
                texts = [full.replace("[", "").replace("]", ""), re.sub(r"\[.*?\]", "", full)]
            for text in texts + [t.upper() for t in texts]:
                assert parse_policy(text).kind is kind, text
            reached.add(kind)
        assert reached == set(PolicyKind)
        assert parse_policy("strongly-monotone").kind is PolicyKind.STRONG_MONO_DESCENT
        assert parse_policy("Thm5").kind is PolicyKind.MONO

    @pytest.mark.parametrize("text, wording", [
        ("const", "policy 'const': expected numeric step"),
        ("pethick", "policy 'pethick': expected numeric step"),
        ("egplus:x", "policy 'egplus:x': expected numeric step"),
        ("adaptive:1", "policy 'adaptive:1': expected numeric c1"),
        ("vankov:", "policy 'vankov:': expected numeric mu"),
        ("thm3:1", "policy 'thm3:1': 'thm3' takes no parameters"),
        ("Mono:1", "policy 'Mono:1': 'mono' takes no parameters"),
        ("const:1:2", "policy 'const:1:2': too many parameters for const:STEP"),
    ])
    def test_wrong_arity_wording(self, text, wording):
        with pytest.raises(ValueError) as e:
            parse_policy(text)
        assert str(e.value) == wording

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StepSizePolicy(kind=PolicyKind.CONSTANT)
        with pytest.raises(ValueError):
            StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=1.0)
        with pytest.raises(InvalidAlpha):
            StepSizePolicy(kind=PolicyKind.ADAPTIVE, c0=1.0, c1=1.0, alpha=1.5)
