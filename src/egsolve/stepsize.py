"""Step-size policies for the extragradient iteration.

Covers the norm-adaptive rules per operator class (each driven by the root of
a scalar transcendental equation), their fractional-exponent variants built on
the derived K constants, and the comparison baselines (constant step, general
adaptive denominator, the capped baseline of Vankov et al., the
residual-adaptive update of Pethick et al., and EG+ with halved updates).
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    BracketFailure,
    InvalidAlpha,
    MissingConstant,
    MonotoneClass,
    MonotonicityParams,
    SmoothnessParams,
    ZeroOperatorAtExtrapolation,
)


# ---------------------------------------------------------------------------
# scalar equation roots
# ---------------------------------------------------------------------------

class NuKind(enum.Enum):
    """The scalar equations whose roots set the adaptive step coefficients."""
    STRONG_MONO = "strong-mono"                    # 1 - 2v - v^2 e^{2v} = 0
    STRONG_MONO_DESCENT = "strong-mono-descent"    # 1 - 4v - 2v^2 e^{2v} = 0
    STRONG_MONO_FRAC = "strong-mono-frac"          # 1 - v - v^2 = 0
    MONO = "mono"                                  # v e^v = 1/sqrt(2)
    WEAK_MINTY = "weak-minty"                      # v e^v = 1


_RESIDUALS: dict = {
    NuKind.STRONG_MONO: lambda v: 1.0 - 2.0 * v - v * v * math.exp(2.0 * v),
    NuKind.STRONG_MONO_DESCENT: lambda v: 1.0 - 4.0 * v - 2.0 * v * v * math.exp(2.0 * v),
    NuKind.STRONG_MONO_FRAC: lambda v: 1.0 - v - v * v,
    NuKind.MONO: lambda v: v * math.exp(v) - 1.0 / math.sqrt(2.0),
    NuKind.WEAK_MINTY: lambda v: v * math.exp(v) - 1.0,
}
BISECT_TOL = 1e-15   # bracket width at which `bisect` stops


def nu_residual(kind: NuKind, v: float) -> float:
    return _RESIDUALS[kind](v)


def bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection down to BISECT_TOL; the bracket must straddle a sign change."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketFailure(f"no sign change on [{lo}, {hi}]: f(lo)={flo:g}, f(hi)={fhi:g}")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def solve_nu(kind: NuKind) -> float:
    """Root of the kind's equation in (0, 1), by bisection on [1e-9, 1]."""
    return bisect(_RESIDUALS[kind], 1e-9, 1.0)


# ---------------------------------------------------------------------------
# derived constants for fractional exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KConstants:
    K0: float
    K1: float
    K2: float
    alpha: float


def k_constants(s: SmoothnessParams) -> KConstants:
    """Closed-form segment-free constants for alpha in (0, 1).

    K0 = L0 (2^{a^2/(1-a)} + 1); K1 = L1 2^{a^2/(1-a)};
    K2 = L1^{1/(1-a)} 2^{a^2/(1-a)} 3^a (1-a)^{a/(1-a)}; L1 = 0 forces
    K1 = K2 = 0 exactly.
    """
    a = s.alpha
    if not (0.0 < a < 1.0):
        raise InvalidAlpha(f"k_constants requires alpha in (0, 1), got {a}")
    t = 2.0 ** (a * a / (1.0 - a))
    K0 = s.L0 * (t + 1.0)
    if s.L1 == 0.0:
        return KConstants(K0, 0.0, 0.0, a)
    K1 = s.L1 * t
    K2 = s.L1 ** (1.0 / (1.0 - a)) * t * 3.0 ** a * (1.0 - a) ** (a / (1.0 - a))
    return KConstants(K0, K1, K2, a)


def pow_alpha(value: float, alpha: float) -> float:
    """value**alpha with the 0**alpha = 0 convention, via exp(alpha*log)."""
    if value < 0:
        raise ValueError(f"pow_alpha expects a nonnegative base, got {value}")
    if value == 0.0:
        return 0.0
    return math.exp(alpha * math.log(value))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class OmegaRule(enum.Enum):
    EQUAL = "equal-gamma"
    HALF = "half-gamma"
    PETHICK = "pethick"


# operator classes a guarantee covers: each class's theorems also hold on the
# stronger classes
_STRONG = frozenset({MonotoneClass.STRONGLY_MONOTONE})
_MONO = _STRONG | {MonotoneClass.MONOTONE}
_MINTY = _MONO | {MonotoneClass.WEAK_MINTY}


class PolicyKind(enum.Enum):
    """One row per step rule.

    Each member carries its text key (`.value`), theorem key, update rule
    (dictated by the convergence argument behind the kind), the monotonicity
    classes its guarantee covers (None = any), the NuKind root of an
    alpha = 1 rule `nu / (L0 + L1 ||F||)`, and its text parameters in order
    ("[" marks an optional one).
    """

    def __new__(cls, value, thm, omega_rule, classes, nu, params):
        member = object.__new__(cls)
        member._value_ = value
        member.thm = thm
        member.omega_rule = omega_rule
        member.classes = classes
        member.nu = nu
        member.params = params
        return member

    CONSTANT = ("const", None, OmegaRule.EQUAL, None, None, ("step",))
    ADAPTIVE = ("adaptive", None, OmegaRule.EQUAL, None, None, ("c0", "c1", "[alpha"))
    STRONG_MONO = ("strong-mono", "thm3", OmegaRule.EQUAL, _STRONG, NuKind.STRONG_MONO, ())
    STRONG_MONO_DESCENT = ("strong-mono-descent", "cor1", OmegaRule.EQUAL, _STRONG,
                           NuKind.STRONG_MONO_DESCENT, ())
    STRONG_MONO_FRAC = ("strong-mono-frac", "thm4", OmegaRule.EQUAL, _STRONG, None, ())
    MONO = ("mono", "thm5", OmegaRule.EQUAL, _MONO, NuKind.MONO, ())
    MONO_FRAC = ("mono-frac", "thm7", OmegaRule.EQUAL, _MONO, None, ())
    WEAK_MINTY = ("weak-minty", "thm8", OmegaRule.HALF, _MINTY, NuKind.WEAK_MINTY, ())
    WEAK_MINTY_FRAC = ("weak-minty-frac", "thm9", OmegaRule.HALF, _MINTY, None, ())
    VANKOV = ("vankov", None, OmegaRule.EQUAL, _STRONG, None, ("[mu",))
    PETHICK = ("pethick", None, OmegaRule.PETHICK, _MINTY, None, ("step", "[rho"))
    EGPLUS = ("egplus", None, OmegaRule.HALF, None, None, ("step",))


@dataclass(frozen=True)
class StepSizePolicy:
    """A step-size rule plus optional per-policy parameter overrides.

    `smoothness`, `mu` and `rho` override the operator's declared values when
    set; that is how experiment configs run a rule with constants that differ
    from the declared ones. `rule` and `update` resolve them.
    """
    kind: PolicyKind
    step: Optional[float] = None          # Constant / EG+ / Pethick extrapolation step
    c0: Optional[float] = None            # general adaptive denominator
    c1: Optional[float] = None
    alpha: Optional[float] = None
    smoothness: Optional[SmoothnessParams] = None
    mu: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self):
        name = self.kind.value
        missing = [p for p in self.kind.params if p[0] != "[" and getattr(self, p) is None]
        if missing:
            raise ValueError(f"{name} policy needs {' and '.join(missing)}")
        # every given number is finite; step, c0 and mu are positive, c1 and rho nonnegative
        for field, positive in (("step", True), ("c0", True), ("mu", True),
                                ("c1", False), ("rho", False)):
            v = getattr(self, field)
            if v is not None and not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
                raise ValueError(f"{name} policy needs finite {field} {'>' if positive else '>='} 0, "
                                 f"got {v}")
        if self.alpha is not None and not (0.0 < self.alpha <= 1.0):
            raise InvalidAlpha(f"{name} policy alpha must be in (0, 1], got {self.alpha}")

    @property
    def omega_rule(self) -> OmegaRule:
        return self.kind.omega_rule

    def rule(self, s: Optional[SmoothnessParams] = None,
             m: Optional[MonotonicityParams] = None) -> Callable[[float], float]:
        """The map ||F(x_k)|| -> gamma_k, its constants resolved and checked here, once."""
        kind = self.kind
        if kind in (PolicyKind.CONSTANT, PolicyKind.EGPLUS, PolicyKind.PETHICK):
            return lambda normF, step=float(self.step): step
        if kind is PolicyKind.ADAPTIVE:
            c0, c1, a = self.c0, self.c1, 1.0 if self.alpha is None else self.alpha
            return lambda normF: 1.0 / (c0 + c1 * pow_alpha(normF, a))
        eff = self.smoothness if self.smoothness is not None else s
        if eff is None:
            raise MissingConstant(f"{kind.value} policy needs smoothness constants")
        if kind is PolicyKind.VANKOV:
            mu = self.mu or (m.mu if m is not None else 0.0)  # declared: 0 unless strongly monotone
            if not mu:
                raise MissingConstant("Vankov baseline needs mu > 0 (policy override or declared)")
            c, L1 = 2.0 * math.sqrt(2.0) * math.e, eff.L1
            cap0 = min(1.0 / (4.0 * mu), 1.0 / (c * eff.L0) if eff.L0 > 0 else math.inf)

            def vankov(normF: float) -> float:
                third = L1 * normF
                cap = min(cap0, 1.0 / (c * third)) if third > 0 else cap0
                if not math.isfinite(cap):
                    raise MissingConstant("Vankov baseline needs L0 > 0 or L1*normF > 0")
                return cap
            return vankov

        a = eff.alpha   # nu / (c0 + c1 ||F||^a): declared constants at a = 1, else K constants
        if kind.nu is not None:
            if a != 1.0:
                raise InvalidAlpha(f"{kind.value} rule applies at alpha = 1, operator declares {a}")
            nu, c0, c1 = solve_nu(kind.nu), eff.L0, eff.L1
        else:
            kc = k_constants(eff)  # raises InvalidAlpha at alpha = 1
            if kind is PolicyKind.STRONG_MONO_FRAC:
                nu, p, q = solve_nu(NuKind.STRONG_MONO_FRAC), 2.0, 2.0 ** (1.0 - a)
            else:
                nu, p, q = 1.0, 2.0 * math.sqrt(2.0), 2.0 ** (1.5 * (1.0 - a))
            c0, c1 = p * kc.K0, p * kc.K1 + q * kc.K2 ** (1.0 - a)

        def ratio(normF: float) -> float:
            den = c0 + c1 * (normF if a == 1.0 else pow_alpha(normF, a))
            if den == 0.0:
                raise MissingConstant(f"{kind.value} step undefined: every constant and ||F|| are 0")
            return nu / den
        return ratio

    def update(self, rho: Optional[float] = None) -> Callable:
        """The map (gamma_k, ||F(xhat_k)||^2, <F(xhat_k), x_k - xhat_k>) -> omega_k,
        resolved here, once; only Pethick reads the last two.

        Pethick: omega = gamma_k (rho + <F(xhat), x - xhat> / ||F(xhat)||^2), rho the
        policy's else the given (declared) one; relative to gamma_k, as an absolute step
        is nonconvergent on weak-Minty problems whenever gamma < rho. At F(xhat) = 0 the
        update term is 0 either way: gamma_k."""
        rule = self.kind.omega_rule
        if rule is OmegaRule.EQUAL:
            return lambda g, n2, ip: g
        if rule is OmegaRule.HALF:
            return lambda g, n2, ip: 0.5 * g
        r = self.rho if self.rho is not None else rho
        if r is None:
            raise MissingConstant("Pethick rule needs rho (policy override or declared)")

        def pethick(g: float, n2: float, ip: float) -> float:
            if n2 == 0.0:
                return g
            return g * (r + ip / n2)
        return pethick


def gamma(policy: StepSizePolicy, normF: float,
          s: Optional[SmoothnessParams] = None,
          m: Optional[MonotonicityParams] = None) -> float:
    """Extrapolation step gamma_k as a function of ||F(x_k)||."""
    if not math.isfinite(normF) or normF < 0:
        raise ValueError(f"normF must be finite and nonnegative, got {normF}")
    return policy.rule(s, m)(normF)


def omega(policy: StepSizePolicy, gamma_k: float,
          F_xhat=None, x_minus_xhat=None, rho: Optional[float] = None) -> float:
    """Update step omega_k from the policy's `update`; the Pethick rule needs
    F(xhat) and x - xhat, and raises ZeroOperatorAtExtrapolation at F(xhat) = 0."""
    if not (gamma_k > 0):
        raise ValueError(f"gamma_k must be positive, got {gamma_k}")
    if policy.omega_rule is OmegaRule.PETHICK and (F_xhat is None or x_minus_xhat is None):
        raise ValueError("Pethick rule needs F(xhat) and x - xhat")
    update = policy.update(rho)
    if policy.omega_rule is not OmegaRule.PETHICK:
        return update(gamma_k, None, None)
    n2 = float(F_xhat @ F_xhat)
    if n2 == 0.0:
        raise ZeroOperatorAtExtrapolation("||F(xhat)|| = 0 in the adaptive update rule")
    return update(gamma_k, n2, float(F_xhat @ x_minus_xhat))


# ---------------------------------------------------------------------------
# text keys
# ---------------------------------------------------------------------------

def _usage(kind: PolicyKind) -> str:
    """Text key of a kind as POLICY_KEY_HELP lists it: 'thm3|strong-mono',
    'adaptive:C0:C1[:ALPHA]'."""
    if kind.thm is not None:
        return f"{kind.thm}|{kind.value}"
    return kind.value + "".join(f"[:{p[1:].upper()}]" if p[0] == "[" else f":{p.upper()}"
                                for p in kind.params)


POLICY_KEY_HELP = ", ".join(_usage(k) for k in PolicyKind)


def parse_policy(text: str) -> StepSizePolicy:
    """Build a policy from its stable text key (see POLICY_KEY_HELP).

    The head is a kind's value or theorem key, in any case; the parameters
    after it follow the kind's row. 'strongly-monotone' names cor1.
    """
    parts = text.strip().split(":")
    head = parts[0].lower()
    args = parts[1:]
    want = "cor1" if head == "strongly-monotone" else head
    kind = next((k for k in PolicyKind if want in (k.value, k.thm)), None)
    if kind is None:
        raise ValueError(f"unknown policy key '{text}'; valid keys: {POLICY_KEY_HELP}")
    if not kind.params and args:
        raise ValueError(f"policy '{text}': '{head}' takes no parameters")
    if len(args) > len(kind.params):
        raise ValueError(f"policy '{text}': too many parameters for {_usage(kind)}")
    values = {}
    for i, p in enumerate(kind.params):
        name = p.lstrip("[")
        if i >= len(args) and p[0] == "[":
            break
        try:
            values[name] = float(args[i])
        except (IndexError, ValueError):
            raise ValueError(f"policy '{text}': expected numeric {name}") from None
    return StepSizePolicy(kind=kind, **values)
