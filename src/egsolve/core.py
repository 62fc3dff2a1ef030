"""Core types and numerical primitives.

Vectors are immutable float64 ndarrays. Operators are plain callables wrapped
in :class:`OperatorInstance` together with their declared smoothness and
monotonicity parameters, an optional analytic Jacobian, and an optional known
root. Everything downstream (step-size policies, the solver, the verification
tools) consumes these records.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy import linalg as la


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class EgsolveError(Exception):
    """Base class for library errors."""


class NonFiniteEvaluation(EgsolveError):
    """An operator or derivative evaluation produced NaN/Inf."""


class NonFiniteIterate(EgsolveError):
    """The iteration produced a NaN/Inf quantity (divergence)."""

    def __init__(self, message: str, k: int = -1):
        super().__init__(message)
        self.k = k


class BracketFailure(EgsolveError):
    """Bisection bracket does not enclose a sign change."""


class MissingConstant(EgsolveError):
    """A step-size rule needs a constant that was not declared."""


class MissingSolution(EgsolveError):
    """The requested check needs a known root, and none is declared."""


class DimensionMismatch(EgsolveError):
    """Vector or box dimension does not match the operator."""


class InvalidAlpha(EgsolveError):
    """Exponent alpha outside the range a formula is defined for."""


class DegenerateSamples(EgsolveError):
    """Sample set cannot support a fit."""


class EmptyTrace(EgsolveError):
    """Operation requires at least one recorded iterate."""


class ZeroOperatorAtExtrapolation(EgsolveError):
    """The adaptive update rule divides by ||F(xhat)||^2 = 0."""


class IncompatiblePolicy(EgsolveError):
    """Policy requires a monotonicity class the operator does not declare."""


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec(x, dim: Optional[int] = None, what: str = "vector") -> np.ndarray:
    """Validate and freeze a 1-d float64 vector.

    Returns a read-only array; raises on NaN/Inf or a dimension mismatch.
    """
    a = np.array(x, dtype=np.float64, copy=True).reshape(-1)
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"{what}: expected dimension {dim}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteEvaluation(f"{what}: non-finite entries {a}")
    a.setflags(write=False)
    return a


def overflow_as_data() -> np.errstate:
    """Floating-point error state for a loop that detects non-finite values
    itself: overflow, invalid and divide-by-zero results become inf/nan data,
    which the loop reports (divergence, NonFiniteEvaluation), not warnings.
    Enter it once per loop, not per evaluation: it changes no value."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def norm(x) -> float:
    """2-norm (Frobenius for a matrix), bit-identical to `np.linalg.norm`:
    the same dot and the same correctly rounded sqrt, without its dispatch."""
    a = np.asarray(x, dtype=np.float64).ravel(order="K")
    return math.sqrt(float(a.dot(a)))


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessParams:
    """Declared constants of the norm-adaptive Lipschitz condition.

    The condition bounds ||F(x)-F(y)|| by (L0 + L1 * max_seg ||F||^alpha) ||x-y||,
    with the segment maximum taken between x and y. alpha in (0, 1]; L0, L1 >= 0
    and not both zero.
    """
    alpha: float
    L0: float
    L1: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidAlpha(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.L0 < 0 or self.L1 < 0:
            raise ValueError(f"L0, L1 must be nonnegative, got ({self.L0}, {self.L1})")
        if self.L0 + self.L1 <= 0:
            raise ValueError("L0 + L1 must be positive")


class MonotoneClass(enum.Enum):
    STRONGLY_MONOTONE = "strongly-monotone"
    MONOTONE = "monotone"
    WEAK_MINTY = "weak-minty"


@dataclass(frozen=True)
class MonotonicityParams:
    """Declared monotonicity class with its modulus.

    mu > 0 only (and exactly) for the strongly monotone class; rho >= 0 only for
    the weak Minty class.
    """
    kind: MonotoneClass
    mu: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind is MonotoneClass.STRONGLY_MONOTONE:
            if self.mu <= 0:
                raise ValueError("strongly monotone requires mu > 0")
        elif self.mu != 0.0:
            raise ValueError(f"mu is only meaningful for the strongly monotone class, got mu={self.mu}")
        if self.kind is MonotoneClass.WEAK_MINTY:
            if self.rho < 0:
                raise ValueError("weak Minty requires rho >= 0")
        elif self.rho != 0.0:
            raise ValueError(f"rho is only meaningful for the weak Minty class, got rho={self.rho}")


# ---------------------------------------------------------------------------
# numerical primitives
# ---------------------------------------------------------------------------

def finite_diff_jacobian(fn: Callable[[np.ndarray], np.ndarray], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of fn at x with step h per coordinate."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fp = np.asarray(fn(x + e), dtype=np.float64).reshape(-1)
        fm = np.asarray(fn(x - e), dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFiniteEvaluation(f"finite_diff_jacobian: non-finite evaluation near x={x}, coord {j}")
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=1)


def spectral_norm(M) -> float:
    """Largest singular value of M, from LAPACK's SVD.

    Equal bit for bit to `np.linalg.norm(M, 2)`: both take the first of
    LAPACK's descending singular values, and calling `svd` directly skips the
    norm wrapper's dispatch.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatch(f"spectral_norm expects a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteEvaluation("spectral_norm: non-finite matrix")
    return float(la.svd(M, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# operator instances
# ---------------------------------------------------------------------------

@dataclass
class OperatorInstance:
    """An operator F: R^dim -> R^dim with its declared problem data.

    `fn` is the raw callable; calling the instance validates the output
    (finite, right dimension). If `solution` is given it must satisfy
    ||F(solution)|| <= 1e-12 at registration. `matrices` holds the matrices
    an operator was built from, when its builder exposes them (cubicRd:
    (A, B, C)). `fn_batch` and `jacobian_batch` are optional block kernels
    whose rows are points: (N, dim) -> (N, dim) and (N, dim) -> (N, dim, dim);
    `call_batch` and `jacobian_batch_at` loop over the rows without them.
    """
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    solution: Optional[np.ndarray] = None
    smoothness: Optional[SmoothnessParams] = None
    monotonicity: Optional[MonotonicityParams] = None
    label: str = ""
    matrices: Optional[Tuple[np.ndarray, ...]] = None
    fn_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jacobian_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"operator dimension must be >= 1, got {self.dim}")
        if self.solution is not None:
            self.solution = vec(self.solution, self.dim, what=f"{self.label or 'operator'} solution")
            r = norm(self.fn(np.asarray(self.solution)))
            if r > 1e-12:
                raise ValueError(
                    f"declared solution of {self.label or 'operator'} is not a root: ||F(x*)|| = {r:.3e}")

    def __call__(self, x) -> np.ndarray:
        # plain numpy evaluation: overflow warns here unless the caller holds
        # overflow_as_data(), as every library loop does
        out = np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64).reshape(-1)
        if out.shape[0] != self.dim:
            raise DimensionMismatch(
                f"{self.label or 'operator'} returned dimension {out.shape[0]}, expected {self.dim}")
        return out

    def jacobian_at(self, x, h: float = 1e-5) -> np.ndarray:
        """Analytic Jacobian when declared, else central finite differences."""
        if self.jacobian is not None:
            return np.asarray(self.jacobian(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        return finite_diff_jacobian(self.fn, x, h=h)

    def call_batch(self, X) -> np.ndarray:
        """F at each row of the (N, dim) block X, as an (N, dim) block:
        `fn_batch` when declared, else one `__call__` per row."""
        X = self._rows(X)
        out = self.fn_batch(X) if self.fn_batch is not None else np.stack([self(x) for x in X])
        return self._checked(out, (X.shape[0], self.dim))

    def jacobian_batch_at(self, X) -> np.ndarray:
        """Jacobians at the rows of the (N, dim) block X, as an (N, dim, dim)
        stack: `jacobian_batch` when declared, else one `jacobian_at` per row
        (finite differences when no Jacobian is declared either)."""
        X = self._rows(X)
        if self.jacobian_batch is not None:
            out = self.jacobian_batch(X)
        else:
            out = np.stack([self.jacobian_at(x) for x in X])
        return self._checked(out, (X.shape[0], self.dim, self.dim))

    def _rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise DimensionMismatch(
                f"{self.label or 'operator'}: a block of points must have shape (N, {self.dim}), "
                f"got {X.shape}")
        return X

    def _checked(self, out, shape) -> np.ndarray:
        out = np.asarray(out, dtype=np.float64)
        if out.shape != shape:
            raise DimensionMismatch(
                f"{self.label or 'operator'} returned shape {out.shape}, expected {shape}")
        return out


# ---------------------------------------------------------------------------
# solver configuration and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveConfig:
    max_iters: int
    x0: np.ndarray
    stop_tol: float = 1e-14
    record_trace: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.stop_tol >= 0):
            raise ValueError(f"stop_tol must be nonnegative, got {self.stop_tol}")
        object.__setattr__(self, "x0", vec(self.x0, what="x0"))


@dataclass
class TraceRow:
    k: int
    x_k: Optional[np.ndarray]
    xhat_k: Optional[np.ndarray]
    gamma_k: float
    omega_k: float
    norm_F_x: float
    norm_F_xhat: float
    dist_sq: Optional[float] = None


@dataclass
class SolveTrace:
    """Recorded run: per-iterate rows plus summary fields.

    The minima are over all visited iterates (extrapolation points for
    min_norm_F_xhat), first index wins ties. `final_x` is the iterate after the
    last update; rows may be empty when the run was summary-only.
    """
    rows: list = field(default_factory=list)
    iterations_run: int = 0
    min_norm_F_x: float = math.inf
    argmin_norm_F_x: int = -1
    min_norm_F_xhat: float = math.inf
    argmin_norm_F_xhat: int = -1
    final_dist_sq: Optional[float] = None
    final_x: Optional[np.ndarray] = None
    reason: str = ""

    def recomputed_minima(self):
        """Recompute (min ||F(x_k)||, min ||F(xhat_k)||) from rows."""
        if not self.rows:
            raise EmptyTrace("no rows recorded")
        mf = min(r.norm_F_x for r in self.rows)
        mh = min(r.norm_F_xhat for r in self.rows)
        return mf, mh
