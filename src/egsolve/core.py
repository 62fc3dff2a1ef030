"""Core types and numerical primitives.

Vectors are immutable float64 ndarrays. Operators are plain callables wrapped
in :class:`OperatorInstance` together with their declared smoothness and
monotonicity parameters, an optional analytic Jacobian, and an optional known
root. Everything downstream (step-size policies, the solver, the verification
tools) consumes these records. Every CSV output file is written by
:func:`write_csv` and read back by :func:`read_csv`.
"""
from __future__ import annotations

import csv
import enum
import math
import struct
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

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
        i = int(np.isfinite(a).argmin())
        raise NonFiniteEvaluation(f"{what}: non-finite entry {a[i]} at index {i}")
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


_F64 = np.dtype(np.float64)


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessParams:
    """Declared constants of the norm-adaptive Lipschitz condition.

    The condition bounds ||F(x)-F(y)|| by (L0 + L1 * max_seg ||F||^alpha) ||x-y||,
    with the segment maximum taken between x and y. alpha in (0, 1]; L0, L1 finite
    and >= 0, not both zero.
    """
    alpha: float
    L0: float
    L1: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidAlpha(f"alpha must lie in (0, 1], got {self.alpha}")
        for name, v in (("L0", self.L0), ("L1", self.L1)):
            if not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.L0 + self.L1 <= 0:
            raise ValueError("L0 + L1 must be positive")


class MonotoneClass(enum.Enum):
    """Monotonicity classes, strongest first; each contains the ones before it."""
    STRONGLY_MONOTONE = "strongly-monotone"
    MONOTONE = "monotone"
    WEAK_MINTY = "weak-minty"


@dataclass(frozen=True)
class MonotonicityParams:
    """Declared monotonicity class with its modulus.

    mu > 0 only (and exactly) for the strongly monotone class; rho >= 0 only for
    the weak Minty class; both finite.
    """
    kind: MonotoneClass
    mu: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind is MonotoneClass.STRONGLY_MONOTONE:
            if not (0.0 < self.mu < math.inf):
                raise ValueError(f"strongly monotone requires a finite mu > 0, got mu={self.mu}")
        elif self.mu != 0.0:
            raise ValueError(f"mu is only meaningful for the strongly monotone class, got mu={self.mu}")
        if self.kind is MonotoneClass.WEAK_MINTY:
            if not (0.0 <= self.rho < math.inf):
                raise ValueError(f"weak Minty requires a finite rho >= 0, got rho={self.rho}")
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
    `call_batch` and `jacobian_batch_at` loop over the rows without them, and
    return C-contiguous blocks either way.
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
        # overflow_as_data(), as every library loop does. A float64 ndarray goes
        # to fn as it is, and fn's float64 vector of length dim comes back as it
        # is (possibly strided); anything else goes through _vector. solve
        # applies the same output rule to fn without this call.
        if type(x) is not np.ndarray or x.dtype is not _F64:
            x = np.asarray(x, dtype=np.float64)
        out = self.fn(x)
        if type(out) is np.ndarray and out.dtype is _F64 and out.shape == (self.dim,):
            return out
        return self._vector(out)

    def _vector(self, out) -> np.ndarray:
        """fn's result as a float64 vector of length dim (converted and
        reshaped), or DimensionMismatch."""
        out = np.asarray(out, dtype=np.float64).reshape(-1)
        if out.shape[0] != self.dim:
            raise DimensionMismatch(
                f"{self.label or 'operator'} returned dimension {out.shape[0]}, expected {self.dim}")
        return out

    def jacobian_at(self, x) -> np.ndarray:
        """Analytic Jacobian when declared, else central finite differences."""
        if self.jacobian is not None:
            return np.asarray(self.jacobian(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        return finite_diff_jacobian(self.fn, x)

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
        return np.ascontiguousarray(out)   # a norm along strided rows can sum in another order


# ---------------------------------------------------------------------------
# solver configuration and traces
# ---------------------------------------------------------------------------

# a recorded row (TraceColumns) holds 5 + 2 dim float64 values: about 75 bytes
# at dim 2 and 380 at dim 20, measured with tracemalloc, so a full trace of
# this many rows takes about 75 MB at dim 2 and 380 MB at dim 20
MAX_TRACE_ROWS = 10 ** 6


def check_iters(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_TRACE_ROWS, the most rows a recorded trace keeps."""
    if not 1 <= n <= MAX_TRACE_ROWS:
        raise ValueError(f"an iteration budget must lie in 1..{MAX_TRACE_ROWS} "
                         f"(MAX_TRACE_ROWS), got {n}")


@dataclass(frozen=True)
class SolveConfig:
    """Iteration budget, start and stopping tolerance `stop_tol` (finite,
    >= 0); a recorded trace takes at most MAX_TRACE_ROWS iterations, a
    summary-only run any number. With `rel_tol` (finite, >= 0) and a declared
    root, `solve` records the trace's `first_rel_hit`."""
    max_iters: int
    x0: np.ndarray
    stop_tol: float = 1e-14
    record_trace: bool = True
    rel_tol: Optional[float] = None

    def __post_init__(self):
        if self.record_trace:
            check_iters(self.max_iters)
        elif self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (0.0 <= self.stop_tol < math.inf):
            raise ValueError(f"stop_tol must be finite and nonnegative, got {self.stop_tol}")
        if self.rel_tol is not None and not (0.0 <= self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be finite and nonnegative, got {self.rel_tol}")
        object.__setattr__(self, "x0", vec(self.x0, what="x0"))


# rows per bounded run of write_csv and check_descent_invariants; write_csv
# holds a chunk's cells, rows and text at once, about 0.7 KB a trace row
TRACE_CHUNK = 512
_SCALARS = struct.Struct("5d")   # gamma, omega, norm_F_x, norm_F_xhat, dist_sq


class TraceColumns:
    """A trace's rows (every `SolveTrace.rows`) as columns: float64 `gamma`, `omega`,
    `norm_F_x`, `norm_F_xhat` and `dist_sq` (None without a root), and
    (n, dim) blocks `x_k`, `xhat_k` (None for a trace read from CSV, dim 0);
    `k` is the row index.

    Each append packs one row into a single float64 buffer that grows by
    amortized `array.array` appends, so a budget reserves nothing up front;
    a column is a strided view of it. The store is filled first and read
    after: every view is read-only, and while one lives the buffer cannot
    grow (BufferError).

    Row k is index k of every column. `len()` counts the rows, and an empty
    store is false.
    """
    __slots__ = ("dim", "dist", "_buf")

    def __init__(self, dim: int = 0, dist: bool = True):
        self.dim, self.dist = dim, dist
        self._buf = array("d")

    def append(self, x, xhat, g, w, nfx, nfxh, d2) -> None:
        """Add row len(self). x and xhat (float64, length dim) are copied in
        where the store keeps iterates, d2 where it keeps distances; otherwise
        they are ignored."""
        row = _SCALARS.pack(g, w, nfx, nfxh, math.nan if d2 is None else d2)
        self._buf.frombytes(row + x.tobytes() + xhat.tobytes() if self.dim else row)

    def _table(self) -> np.ndarray:
        # over a read-only memoryview, so no view's flag can be switched back on
        return np.frombuffer(memoryview(self._buf).toreadonly(),
                             dtype=np.float64).reshape(-1, 5 + 2 * self.dim)

    def __len__(self) -> int:
        return len(self._buf) // (5 + 2 * self.dim)

    gamma = property(lambda self: self._table()[:, 0])
    omega = property(lambda self: self._table()[:, 1])
    norm_F_x = property(lambda self: self._table()[:, 2])
    norm_F_xhat = property(lambda self: self._table()[:, 3])
    dist_sq = property(lambda self: self._table()[:, 4] if self.dist else None)
    x_k = property(lambda self: self._table()[:, 5:5 + self.dim] if self.dim else None)
    xhat_k = property(lambda self: self._table()[:, 5 + self.dim:] if self.dim else None)


@dataclass
class SolveTrace:
    """Recorded run: per-iterate columns (`rows`) plus summary fields.

    The minima are over all visited iterates (extrapolation points for
    min_norm_F_xhat), first index wins ties. `final_x` is the iterate after the
    last update; rows may be empty when the run was summary-only. `kind` is the
    PolicyKind that produced the trace (None for a trace read back from CSV).
    `first_rel_hit` is the first k whose row (recorded or not) has
    dist_sq_k / dist_sq_0 <= `SolveConfig.rel_tol`, -1 if none; None when the
    run had no rel_tol or no root. `rows` is always a TraceColumns: `solve`
    fills it, a summary-only run leaves it empty, and `SolveTrace()` starts
    with an empty one (dim 0, as `read_trace_csv` fills it). `n_F_evals` is
    the number of operator evaluations the run made: two per iteration, one
    for a stopping row that takes no step, and for a partial trace those made
    before the raise (0 for a trace read from CSV).
    """
    rows: TraceColumns = field(default_factory=TraceColumns)
    iterations_run: int = 0
    min_norm_F_x: float = math.inf
    argmin_norm_F_x: int = -1
    min_norm_F_xhat: float = math.inf
    argmin_norm_F_xhat: int = -1
    final_dist_sq: Optional[float] = None
    final_x: Optional[np.ndarray] = None
    reason: str = ""
    kind: Optional[enum.Enum] = None
    first_rel_hit: Optional[int] = None
    n_F_evals: int = 0


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

def write_csv(out: Union[str, TextIO], header: Sequence[str], columns: Iterable,
              footer: str = "") -> None:
    """Write the header row, one row per index of the equal-length `columns`
    and then `footer` verbatim to a path or an open text stream.

    A column is an ndarray, any other sequence, or None (empty cells). A cell
    is a number or None. Each data row is the `","`-join of its cells' `str()`
    (`""` for None): the bytes `csv.writer` writes, which quotes no number and
    only a lone empty cell (as `""`). `str()` of a Python or numpy float is its
    shortest repr, so every number reads back exactly and identical runs write
    identical bytes.

    Rows go out TRACE_CHUNK at a time, one `write` each. In a float64 ndarray
    column's chunk each run of bitwise-equal values (compared as int64, so
    -0.0 is not 0.0) is formatted once, and a chunk bitwise equal to an
    earlier column's reuses its strings.
    """
    columns = list(columns)
    n = max((len(c) for c in columns if c is not None), default=0)
    empty = '""' if len(columns) == 1 else ""    # csv.writer quotes a lone empty cell
    with open(out, "w", newline="") if isinstance(out, str) else nullcontext(out) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        write = fh.write
        for a in range(0, n, TRACE_CHUNK):
            run = slice(a, a + TRACE_CHUNK)
            done = []    # (int64 bits, strings) of this chunk's float64 columns
            cells = []
            for c in columns:
                if c is None:
                    cells.append(repeat(empty))
                elif isinstance(c, np.ndarray) and c.dtype == np.float64:
                    cells.append(_float_strings(c[run], done))
                else:
                    c = c[run].tolist() if isinstance(c, np.ndarray) else c[run]
                    cells.append([empty if v is None else str(v) for v in c])
            write("\n".join(map(",".join, zip(*cells))) + "\n")
        write(footer)


def _float_strings(v: np.ndarray, done: list) -> list:
    """str() of each float64 in v, calling str() once per run of bitwise-equal
    values; reuses the strings of an entry of `done` whose bits equal v's, and
    adds v's otherwise."""
    bits = v.view(np.int64)
    for b, s in done:
        if np.array_equal(b, bits):
            return s
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if len(v) - len(starts) <= 1:     # no repeats
        s = list(map(str, v.tolist()))
    else:
        starts = np.concatenate(([0], starts))
        firsts = np.array(list(map(str, v[starts].tolist())), dtype=object)
        s = np.repeat(firsts, np.diff(starts, append=len(v))).tolist()
    done.append((bits, s))
    return s


def read_csv(path: str, header: Sequence[str], what: str,
             types: Sequence[Callable[[str], object]],
             footer: Optional[Callable[[List[str]], None]] = None) -> Iterator[list]:
    """Yield the rows after the header of a CSV file as it reads them, each
    cell converted by its column's entry of `types`; a row whose first cell
    starts with `#` goes to `footer`. ValueError when the first row is not
    `header` (the file is not a `what` CSV), and, naming the file and line, at
    a row of the wrong width, a cell that does not convert, or a `#` row
    without `footer` or that `footer` refuses with ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head != list(header):
            raise ValueError(f"{path}: not a {what} CSV (header {head or 'missing'})")
        for rec in reader:
            try:
                if rec and rec[0].startswith("#"):
                    if footer is None:
                        raise ValueError(f"a {what} CSV has no # rows")
                    footer(rec)
                    continue
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} cells, a {what} CSV row has {len(header)}")
                row = [t(c) for t, c in zip(types, rec)]
            except ValueError as e:
                raise ValueError(f"{path}, line {reader.line_num}: {e}") from None
            yield row
