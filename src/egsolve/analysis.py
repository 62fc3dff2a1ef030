"""Empirical smoothness tooling: Jacobian-vs-residual scatters, grid and
sampling checks of the norm-growth condition, constant fitting, and closed-form
iteration-bound evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from numpy import linalg as la

from .core import (
    DegenerateSamples,
    DimensionMismatch,
    EmptyTrace,
    InvalidAlpha,
    MissingConstant,
    MissingSolution,
    MonotoneClass,
    NonFiniteEvaluation,
    OperatorInstance,
    SmoothnessParams,
    SolveTrace,
    TRACE_CHUNK,
    norm,
    overflow_as_data,
    read_csv,
    spectral_norm,
    vec,
    write_csv,
)
from .stepsize import PolicyKind, StepSizePolicy, k_constants, pow_alpha

BoxLike = Union[float, Tuple[float, float], Sequence[Tuple[float, float]]]


def box_bounds(box: BoxLike, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize a box spec: halfwidth h, one (lo, hi) pair, or per-axis pairs.
    Every bound and every width hi - lo must be finite, so a grid can be laid."""
    if isinstance(box, (int, float)):
        h = float(box)
        if not (0.0 < h < math.inf):
            raise ValueError(f"box halfwidth must be positive and finite, got {h}")
        box = (-h, h)
    arr = np.asarray(box, dtype=np.float64)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2):
        raise DimensionMismatch(f"box must give (lo, hi) per axis for dim {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("box bounds must be finite")
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError("box must have lo < hi on every axis")
    with overflow_as_data():
        if not np.isfinite(arr[:, 1] - arr[:, 0]).all():
            raise ValueError("box width hi - lo overflows a float")
    return arr[:, 0].copy(), arr[:, 1].copy()


MAX_GRID_POINTS = 10 ** 6


def check_grid(dim: int, n: int) -> None:
    """Raise ValueError unless an n-per-axis grid in dim dimensions has at
    least 2 points per axis and at most MAX_GRID_POINTS points."""
    if n < 2:
        raise ValueError(f"a grid needs at least 2 points per axis, got {n}")
    if n ** dim > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {n}^{dim} points exceeds the limit of "
                         f"{MAX_GRID_POINTS} points")


THETA_POINTS = 101   # theta points per pair of the segment route, by default


def check_pairs(pairs: int, theta_grid: int = THETA_POINTS) -> None:
    """Raise ValueError unless the segment route's sample of `pairs` pairs,
    each checked at `theta_grid` >= 2 points, has at least one pair and at
    most MAX_GRID_POINTS points."""
    if theta_grid < 2:
        raise ValueError(f"theta_grid must be >= 2, got {theta_grid}")
    if not 1 <= pairs <= MAX_GRID_POINTS // theta_grid:
        raise ValueError(f"pairs must lie in 1..{MAX_GRID_POINTS // theta_grid} (at most "
                         f"{MAX_GRID_POINTS} points at {theta_grid} per pair), got {pairs}")


# Bytes of a block's Jacobian stack plus a few of its (rows, dim) arrays;
# with the temporaries of an evaluation a block holds about 1 MB. Blocks
# bound the memory of a MAX_GRID_POINTS grid (a 2^19 grid would need ~1.5 GB
# of Jacobians at once) at no cost in speed: the per-block overhead is spread
# over thousands of rows, and larger blocks only raise the peak RSS.
BLOCK_BYTES = 2 ** 18


def _block_len(dim: int, group: int) -> int:
    """How many groups of `group` points (the theta points of one pair, say)
    fill a block of about BLOCK_BYTES at dimension dim; at least one."""
    return max(1, BLOCK_BYTES // (8 * dim * (dim + 4) * group))


def _grid_blocks(box: BoxLike, dim: int, n: int) -> Iterator[np.ndarray]:
    """The points of grid_points as (rows, dim) blocks of at most
    _block_len(dim, 1) rows, in the same order and with the same values.

    Checks the grid size (check_grid) and the box before yielding a block.
    """
    check_grid(dim, n)
    lo, hi = box_bounds(box, dim)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(dim)]
    rows, total = _block_len(dim, 1), n ** dim

    def blocks():
        for start in range(0, total, rows):
            # flat index -> one digit per axis, last axis fastest
            digits = np.unravel_index(np.arange(start, min(start + rows, total)), (n,) * dim)
            yield np.column_stack([a[k] for a, k in zip(axes, digits)])
    return blocks()


def grid_points(box: BoxLike, dim: int, n: int) -> Iterator[np.ndarray]:
    """The n^dim points of the uniform grid over the box, last axis fastest.

    Checks the grid size (check_grid) and the box before yielding a point.
    """
    return (x for X in _grid_blocks(box, dim, n) for x in X)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """2-norm along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", V, V))


def _pow_alpha_rows(v: np.ndarray, alpha: float) -> np.ndarray:
    """pow_alpha over an array of nonnegative values (log 0 = -inf gives 0)."""
    return np.exp(alpha * np.log(v))


# ---------------------------------------------------------------------------
# scatter samples and fits
# ---------------------------------------------------------------------------

class ScatterSamples:
    """(||F||, ||J||) samples as columns: float64 `norm_F`, `norm_J` and int64
    `k`, the iterate index (-1, the default, marks a grid sample). The
    constructor is the one check: ValueError at the first sample whose norm is
    negative or not finite, norm_F before norm_J there."""
    __slots__ = ("norm_F", "norm_J", "k")

    def __init__(self, norm_F=(), norm_J=(), k=None):
        nf, nj = np.asarray(norm_F, dtype=np.float64), np.asarray(norm_J, dtype=np.float64)
        # a grid's -1 as a broadcast view, which holds no memory per sample
        k = np.broadcast_to(np.int64(-1), nf.shape) if k is None else np.asarray(k, dtype=np.int64)
        if not (nf.ndim == 1 and nf.shape == nj.shape == k.shape):
            raise ValueError(f"scatter columns must be 1-d of one length, got {nf.shape, nj.shape, k.shape}")
        bad_F, bad_J = ~(np.isfinite(nf) & (nf >= 0)), ~(np.isfinite(nj) & (nj >= 0))
        if (bad_F | bad_J).any():
            i = int(np.argmax(bad_F | bad_J))
            name, v = ("norm_F", nf[i]) if bad_F[i] else ("norm_J", nj[i])
            raise ValueError(f"{name} must be finite and >= 0, got {float(v)}")
        self.norm_F, self.norm_J, self.k = nf, nj, k

    def __len__(self) -> int:
        return len(self.norm_F)


@dataclass
class SmoothnessFit:
    """Constants plus the worst slack of ||J|| <= L0 + L1 ||F||^alpha.

    max_violation is the minimum of L0 + L1 ||F||^alpha - ||J|| over the
    samples; negative means the bound fails somewhere.
    """
    alpha_hat: float
    L0_hat: float
    L1_hat: float
    max_violation: float
    samples: ScatterSamples = field(default_factory=ScatterSamples)

    @property
    def passed(self) -> bool:
        return self.max_violation >= -1e-9


def _grid_norms(F: OperatorInstance, X: np.ndarray,
                screen: Optional[Callable] = None) -> Tuple[np.ndarray, np.ndarray]:
    """(||F(x)||, ||J(x)||) for the rows x of a grid block.

    ||J(x)|| is LAPACK's largest singular value on every row, or on the rows
    that screen(nf, fro) keeps given ||F|| and the Frobenius norms ||J||_F;
    a row it drops holds its ||J||_F, an upper bound. A screen keeps every
    row whose ||J||_F is not finite.

    The first offending row raises what ScatterSamples of one point's
    (norm(F(x)), spectral_norm(F.jacobian_at(x))) raises there: a non-finite
    Jacobian NonFiniteEvaluation, a non-finite norm ValueError.
    """
    nf = _row_norms(F.call_batch(X))
    J = F.jacobian_batch_at(X)
    bad_J = ~np.isfinite(J).all(axis=(1, 2))
    cut = int(np.argmax(bad_J)) if bad_J.any() else X.shape[0]
    nj = np.sqrt(np.einsum("ijk,ijk->i", J[:cut], J[:cut]))
    svd = screen(nf[:cut], nj) if screen is not None else np.ones(cut, dtype=bool)
    if svd.any():
        nj[svd] = la.svd(J[:cut][svd], compute_uv=False)[:, 0]
    ScatterSamples(nf[:cut], nj)   # raises ValueError at the first non-finite norm
    if cut < X.shape[0]:
        raise NonFiniteEvaluation("spectral_norm: non-finite matrix")
    return nf, nj


def grid_samples(F: OperatorInstance, box: BoxLike, n: int) -> ScatterSamples:
    """One (||F(x)||, ||J(x)||) sample per point of the n-per-axis grid over
    the box, in grid order (index -1)."""
    with overflow_as_data():
        blocks = [_grid_norms(F, X) for X in _grid_blocks(box, F.dim, n)]
    return ScatterSamples(*map(np.concatenate, zip(*blocks)))


def scatter_from_trace(F: OperatorInstance, trace: SolveTrace) -> ScatterSamples:
    """One (||F(x_k)||, ||J(x_k)||) sample per recorded iterate."""
    cols = trace.rows
    if cols.x_k is None or not len(cols):
        raise EmptyTrace("trace has no recorded iterate vectors")
    with overflow_as_data():
        nj = [spectral_norm(F.jacobian_at(x)) for x in cols.x_k]
    # a copy: a view of the column would keep the trace's whole buffer alive
    return ScatterSamples(cols.norm_F_x.copy(), nj, np.arange(len(cols)))


def verify_condition(F: OperatorInstance, s: SmoothnessParams, box: BoxLike,
                     grid_n: int) -> SmoothnessFit:
    """Grid check of ||J(x)|| <= L0 + L1 ||F(x)||^alpha over the box.

    Returns a fit echoing s whose max_violation is the grid minimum of the
    slack; its samples hold the minimum's location alone, with index -1.

    Since ||J||_F / sqrt(dim) <= ||J|| <= ||J||_F, the Frobenius norms bound
    each point's slack from both sides; the SVD runs only on the points whose
    lower bound does not exceed the smallest upper bound of their block or the
    minimum so far. Each bound is widened by 1e-9 of ||J||_F to bracket
    LAPACK's rounding, and a point whose ||J||_F is not finite or below
    1e-100 (where its squares underflow) gets a lower bound of -inf. Rounding
    is monotone, so the first minimum in grid order is always kept, and a
    dropped point's slack from its ||J||_F still tops the minimum: the result
    is the one an SVD at every point gives.
    """
    worst, at = math.inf, ((), ())
    root_dim = math.sqrt(F.dim)
    bound = lambda nf: s.L0 + s.L1 * _pow_alpha_rows(nf, s.alpha)

    def screen(nf, fro):
        a = bound(nf)
        upper = np.where(np.isfinite(fro), a - fro * ((1.0 - 1e-9) / root_dim), math.inf)
        lower = np.where(fro >= 1e-100, a - fro * (1.0 + 1e-9), -math.inf)
        return ~(lower > min(worst, upper.min(initial=math.inf)))   # NaN: kept

    with overflow_as_data():
        for X in _grid_blocks(box, F.dim, grid_n):
            nf, nj = _grid_norms(F, X, screen)
            g = bound(nf) - nj
            i = int(np.argmin(g))   # first minimum in grid order
            if g[i] < worst:
                worst, at = float(g[i]), ([nf[i]], [nj[i]])
    return SmoothnessFit(alpha_hat=s.alpha, L0_hat=s.L0, L1_hat=s.L1, max_violation=worst,
                         samples=ScatterSamples(*at))


@dataclass
class PairCheckReport:
    """Sampled-pair verdict for a two-point inequality."""
    n_pairs: int
    n_violations: int
    min_slack: float
    route: str

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def verify_segment_condition(F: OperatorInstance, s: SmoothnessParams, pairs: int,
                             theta_grid: int = THETA_POINTS, box: BoxLike = 50.0,
                             seed: int = 0) -> PairCheckReport:
    """Sampled check of the two-point bound with the segment maximum.

    For seeded uniform pairs (x, y) in the box, approximates
    max_theta ||F(theta x + (1-theta) y)|| on a uniform theta grid and checks
    ||F(x) - F(y)|| <= (L0 + L1 max^alpha) ||x - y|| + 1e-10. Raises
    NonFiniteEvaluation when ||F|| is not finite on a sampled segment, and
    ValueError when the sample breaks check_pairs.
    """
    rhs = lambda nF, dist: (s.L0 + s.L1 * _pow_alpha_rows(nF.max(axis=1), s.alpha)) * dist
    return _pair_check(F, box, pairs, seed, theta_grid, rhs, 1e-10, "segment-max")


def _pair_check(F: OperatorInstance, box: BoxLike, pairs: int, seed: int, theta_grid: int,
                rhs: Callable, tol: float, route: str) -> PairCheckReport:
    """Check ||F(x) - F(y)|| <= rhs(nF, ||x - y||) + tol on seeded uniform pairs
    (x, y) in the box, drawn in blocks; nF holds a pair's ||F(theta x + (1 - theta) y)||
    on the uniform theta grid from 0 (y) to 1 (x). Raises ValueError before any
    evaluation when the sample breaks check_pairs, and NonFiniteEvaluation at the
    first pair with a non-finite ||F||, whose slack would be meaningless."""
    check_pairs(pairs, theta_grid)
    thetas = np.linspace(0.0, 1.0, theta_grid)[:, None]
    lo, hi = box_bounds(box, F.dim)
    rng = np.random.default_rng(seed)
    step = _block_len(F.dim, theta_grid)
    viol, min_slack = 0, math.inf
    with overflow_as_data():
        for start in range(0, pairs, step):
            # drawn in (pair, x|y, coordinate) order: the stream of per-pair draws
            x, y = rng.uniform(lo, hi, size=(min(step, pairs - start), 2, F.dim)).transpose(1, 0, 2)
            pts = thetas * x[:, None, :] + (1.0 - thetas) * y[:, None, :]
            FP = F.call_batch(pts.reshape(-1, F.dim)).reshape(pts.shape)
            nF = _row_norms(FP)
            bad = ~np.isfinite(nF).all(axis=1)
            if bad.any():
                k = int(np.argmax(bad))
                raise NonFiniteEvaluation(
                    f"non-finite ||F|| on sampled pair {start + k} (x={x[k]}, y={y[k]})")
            # theta = 1 and theta = 0 give x and y exactly: 1*x + 0*y == x
            slack = rhs(nF, _row_norms(x - y)) + tol - _row_norms(FP[:, -1] - FP[:, 0])
            viol += int(np.count_nonzero(slack < 0))
            min_slack = min(min_slack, float(slack.min()))
    return PairCheckReport(pairs, viol, min_slack, route)


def prop1_rhs(s: SmoothnessParams, norm_Fx, dist):
    """Two-point bound free of the segment maximum, from the declared constants,
    at numbers or elementwise over arrays.

    alpha = 1: (L0 + L1 ||F(x)||) exp(L1 ||x-y||) ||x-y||.
    alpha < 1: (K0 + K1 ||F(x)||^alpha + K2 ||x-y||^{alpha/(1-alpha)}) ||x-y||.
    """
    with overflow_as_data():   # an overflow gives inf, and log 0 = -inf gives 0 ** a = 0
        if s.alpha == 1.0:
            return (s.L0 + s.L1 * norm_Fx) * np.exp(s.L1 * dist) * dist
        kc = k_constants(s)
        a = s.alpha
        return (kc.K0 + kc.K1 * _pow_alpha_rows(norm_Fx, a)
                + kc.K2 * _pow_alpha_rows(dist, a / (1.0 - a))) * dist


def verify_proposition1(F: OperatorInstance, s: SmoothnessParams, pairs: int,
                        box: BoxLike = 3.0, seed: int = 0) -> PairCheckReport:
    """Sampled check of the segment-free two-point bound (see prop1_rhs).
    Raises NonFiniteEvaluation when ||F|| is not finite at a sampled point,
    and ValueError when the sample breaks check_pairs at 2 points per pair."""
    rhs = lambda nF, dist: prop1_rhs(s, nF[:, -1], dist)
    route = "exp-bound" if s.alpha == 1.0 else "k-constants"
    return _pair_check(F, box, pairs, seed, 2, rhs, 1e-9, route)


def check_alpha_grid(alpha_grid: Sequence[float]) -> None:
    """Raise unless the alpha grid is non-empty and every entry lies in (0, 1]
    (NaN does not): ValueError for an empty grid, InvalidAlpha for an entry."""
    if not alpha_grid:
        raise ValueError("the alpha grid is empty; give at least one alpha in (0, 1]")
    for a in alpha_grid:
        if not (0.0 < a <= 1.0):
            raise InvalidAlpha(f"alpha grid entries must lie in (0, 1], got {a}")


def fit_constants(samples: ScatterSamples,
                  alpha_grid: Iterable[float]) -> SmoothnessFit:
    """Envelope fit of (L0, L1, alpha) to scatter samples.

    Per alpha: least squares of norm_J on (1, norm_F^alpha), coefficients
    clipped at 0, then L0 raised by the worst remaining deficit so every
    sample satisfies the bound. Returns the alpha with the smallest L0 + L1;
    ties keep the earlier grid entry. Heuristic, not a guarantee.
    """
    alpha_grid = list(alpha_grid)
    check_alpha_grid(alpha_grid)
    if len(samples) < 3:
        raise DegenerateSamples(f"need >= 3 samples to fit, got {len(samples)}")
    nf, nj = samples.norm_F, samples.norm_J
    if np.all(nf == nf[0]):
        raise DegenerateSamples("all samples share one ||F|| value; constants are unidentifiable")
    best = None
    for a in alpha_grid:
        with overflow_as_data():
            col = _pow_alpha_rows(nf, a)
        design = np.column_stack([np.ones_like(col), col])
        coef, *_ = np.linalg.lstsq(design, nj, rcond=None)
        L0, L1 = max(float(coef[0]), 0.0), max(float(coef[1]), 0.0)
        deficit = float(np.max(nj - (L0 + L1 * col)))
        L0 += max(deficit, 0.0)
        if best is None or L0 + L1 < best[0]:
            mv = float(np.min(L0 + L1 * col - nj))
            best = (L0 + L1, SmoothnessFit(alpha_hat=float(a), L0_hat=L0, L1_hat=L1,
                                           max_violation=mv, samples=samples))
    return best[1]


# ---------------------------------------------------------------------------
# closed-form bound evaluation
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Plug-in values of the closed-form guarantees for one policy kind.

    Fields not applicable to the kind stay None. `sublinear_const` bounds
    min_{k<=K} ||F||^2 * (K+1); iteration counts and rates are per kind.
    guarantee_void flags a nonpositive step-minus-threshold margin (the
    weak-Minty guarantees need delta > 0).
    """
    kind: PolicyKind
    D: float
    zeta: Optional[float] = None
    rate: Optional[float] = None
    iters_to_eps: Optional[float] = None
    term1: Optional[float] = None
    term2: Optional[float] = None
    sublinear_const: Optional[float] = None
    delta: Optional[float] = None
    guarantee_void: bool = False


def theoretical_bounds(F: OperatorInstance, kind: PolicyKind, x0,
                       epsilon: Optional[float] = None,
                       s: Optional[SmoothnessParams] = None,
                       m=None) -> BoundReport:
    """Evaluate the closed-form guarantee constants for a policy kind at x0.

    s and m override the operator's declared constants (for bounds under
    locally valid constants, mirroring the policy-level overrides). An alpha = 1
    kind's zeta is its rule's step at F_max = prop1_rhs(s, 0, D), Proposition 1's
    bound on ||F|| over the ball of radius D = ||x0 - x*||; 0.0 where F_max overflows
    (an L1 = 0 step does not read ||F||, so there F_max is taken as 0).
    """
    if F.solution is None:
        raise MissingSolution(f"{F.label or 'operator'} has no known root; distances undefined")
    s = s if s is not None else F.smoothness
    if s is None:
        raise MissingConstant(f"{F.label or 'operator'} declares no smoothness constants")
    m = m if m is not None else F.monotonicity
    x0 = vec(x0, F.dim, what="x0")
    D = norm(x0 - F.solution)
    # Proposition 1 at y = x*: the largest ||F|| on the ball; with L1 = 0 no step reads it
    F_max = prop1_rhs(s, 0.0, D) if s.L1 > 0 else 0.0
    rep = BoundReport(kind=kind, D=D)

    def _mu() -> float:
        if m is None or m.kind is not MonotoneClass.STRONGLY_MONOTONE:
            raise MissingConstant("this bound needs a declared strong monotonicity modulus")
        return m.mu

    def _rho() -> float:   # 0 below weak Minty, as check_descent_invariants takes it
        if m is None:
            raise MissingConstant("this bound needs a declared weak-Minty rho")
        return m.rho

    if kind.nu is not None:   # the alpha = 1 rules nu / (L0 + L1 ||F||)
        rule = StepSizePolicy(kind=kind).rule(s)   # raises InvalidAlpha unless alpha = 1
        step0 = rule(0.0)                          # nu / L0; raises MissingConstant at L0 = 0
        zeta = rep.zeta = float(rule(F_max))       # nu / inf = 0.0 where F_max overflows
        if kind is PolicyKind.STRONG_MONO:
            rep.rate = 1.0 - zeta * _mu()
        elif kind is PolicyKind.STRONG_MONO_DESCENT:
            if epsilon is None or not (epsilon > 0):
                raise ValueError("iteration-count bound needs epsilon > 0")
            mu = _mu()
            rep.term1 = 2.0 * math.log(D * D / epsilon) / (step0 * mu)
            if s.L1 == 0.0:
                rep.term2 = 0.0   # no step-growth phase without the norm term
            elif zeta == 0.0:
                rep.term2 = math.inf
            else:
                arg = 2.0 * s.L1 * D * D / s.L0 / zeta / zeta
                rep.term2 = max(math.log(arg) / (zeta * mu), 0.0) if arg > 0 else 0.0
            rep.iters_to_eps = rep.term1 + rep.term2
        elif kind is PolicyKind.MONO:
            rep.sublinear_const = 2.0 * (D / zeta) * (D / zeta) if zeta > 0 else math.inf
        else:   # WEAK_MINTY
            rep.delta = zeta - 4.0 * _rho()
            if rep.delta <= 0:
                rep.guarantee_void = True
            else:
                rep.sublinear_const = 4.0 * D * (D / zeta) / rep.delta
        return rep

    if kind is PolicyKind.WEAK_MINTY_FRAC:
        rho = _rho()
        kc = k_constants(s)   # raises InvalidAlpha at alpha = 1
        a = s.alpha
        denom = kc.K0 + (kc.K1 + 2.0 ** -1.5 * kc.K2 ** (1.0 - a)) * pow_alpha(F_max, a)
        rep.zeta = 1.0 / (2.0 * math.sqrt(2.0) * denom)
        rep.delta = rep.zeta - 4.0 * rho
        if rep.delta <= 0:
            rep.guarantee_void = True
            return rep
        rep.sublinear_const = 4.0 * denom * D * D / rep.delta
        return rep

    raise MissingConstant(f"no closed-form bound implemented for kind {kind.value}")


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

_SCATTER_HEADER = ["norm_F", "norm_J", "k"]
_FIT_HEADER = ["alpha", "L0", "L1", "max_violation"]


def write_scatter_csv(samples: ScatterSamples, path: str) -> None:
    def cells():   # TRACE_CHUNK rows at a time
        for a in range(0, len(samples), TRACE_CHUNK):
            s = slice(a, a + TRACE_CHUNK)
            yield from zip(samples.norm_F[s].tolist(), samples.norm_J[s].tolist(),
                           samples.k[s].tolist())
    write_csv(path, _SCATTER_HEADER, cells())


def read_scatter_csv(path: str) -> ScatterSamples:
    rows = read_csv(path, _SCATTER_HEADER, "scatter", (float, float, int))
    return ScatterSamples(*(list(zip(*rows)) or ((), (), ())))


def write_fit_csv(fit: SmoothnessFit, path: str) -> None:
    write_csv(path, _FIT_HEADER,
              [[fit.alpha_hat, fit.L0_hat, fit.L1_hat, fit.max_violation]])


def read_fit_csv(path: str) -> SmoothnessFit:
    rows = list(read_csv(path, _FIT_HEADER, "fit", (float,) * 4))
    if len(rows) != 1:
        raise ValueError(f"{path}: a fit CSV holds one row, found {len(rows)}")
    a, L0, L1, mv = rows[0]
    return SmoothnessFit(alpha_hat=a, L0_hat=L0, L1_hat=L1, max_violation=mv)
