"""Empirical smoothness tooling: Jacobian-vs-residual scatters, grid and
sampling checks of the norm-growth condition, constant fitting, and closed-form
iteration-bound evaluation."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
    norm,
    overflow_as_data,
    spectral_norm,
    vec,
)
from .stepsize import NuKind, PolicyKind, k_constants, pow_alpha, solve_nu

BoxLike = Union[float, Tuple[float, float], Sequence[Tuple[float, float]]]


def box_bounds(box: BoxLike, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize a box spec: halfwidth h, one (lo, hi) pair, or per-axis pairs."""
    if isinstance(box, (int, float)):
        h = float(box)
        if not (h > 0):
            raise ValueError(f"box halfwidth must be positive, got {h}")
        return -h * np.ones(dim), h * np.ones(dim)
    arr = np.asarray(box, dtype=np.float64)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2):
        raise DimensionMismatch(f"box must give (lo, hi) per axis for dim {dim}, got shape {arr.shape}")
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError("box must have lo < hi on every axis")
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

@dataclass(frozen=True)
class ScatterSample:
    norm_F: float
    norm_J: float
    iterate_index: int = -1   # -1 marks a grid sample

    def __post_init__(self):
        if not (math.isfinite(self.norm_F) and self.norm_F >= 0):
            raise ValueError(f"norm_F must be finite and >= 0, got {self.norm_F}")
        if not (math.isfinite(self.norm_J) and self.norm_J >= 0):
            raise ValueError(f"norm_J must be finite and >= 0, got {self.norm_J}")


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
    samples: List[ScatterSample] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_violation >= -1e-9


def _grid_norms(F: OperatorInstance, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(||F(x)||, ||J(x)||) for the rows x of a grid block.

    The first offending row raises what a per-point ScatterSample of
    (norm(F(x)), spectral_norm(F.jacobian_at(x))) raises there: a non-finite
    Jacobian NonFiniteEvaluation, a non-finite norm ValueError.
    """
    nf = _row_norms(F.call_batch(X))
    J = F.jacobian_batch_at(X)
    bad_J = ~np.isfinite(J).all(axis=(1, 2))
    cut = int(np.argmax(bad_J)) if bad_J.any() else X.shape[0]
    nj = la.svd(J[:cut], compute_uv=False)[:, 0] if cut else np.empty(0)
    ok = np.isfinite(nf[:cut]) & np.isfinite(nj)
    if not ok.all():
        i = int(np.argmin(ok))
        ScatterSample(norm_F=float(nf[i]), norm_J=float(nj[i]))   # raises ValueError
    if cut < X.shape[0]:
        raise NonFiniteEvaluation("spectral_norm: non-finite matrix")
    return nf, nj


def grid_samples(F: OperatorInstance, box: BoxLike, n: int) -> List[ScatterSample]:
    """One (||F(x)||, ||J(x)||) sample per point of the n-per-axis grid over
    the box, in grid order (index -1)."""
    out = []
    with overflow_as_data():
        for X in _grid_blocks(box, F.dim, n):
            nf, nj = _grid_norms(F, X)
            out += [ScatterSample(norm_F=a, norm_J=b) for a, b in zip(nf.tolist(), nj.tolist())]
    return out


def scatter_from_trace(F: OperatorInstance, trace: SolveTrace) -> List[ScatterSample]:
    """One (||F(x_k)||, ||J(x_k)||) sample per recorded iterate."""
    rows = [r for r in trace.rows if r.x_k is not None]
    if not rows:
        raise EmptyTrace("trace has no recorded iterate vectors")
    out = []
    with overflow_as_data():
        for r in rows:
            nj = spectral_norm(F.jacobian_at(r.x_k))
            out.append(ScatterSample(norm_F=r.norm_F_x, norm_J=nj, iterate_index=r.k))
    return out


def verify_condition(F: OperatorInstance, s: SmoothnessParams, box: BoxLike,
                     grid_n: int) -> SmoothnessFit:
    """Grid check of ||J(x)|| <= L0 + L1 ||F(x)||^alpha over the box.

    Returns a fit echoing s whose max_violation is the grid minimum of the
    slack; the minimum location enters the sample list with index -1.
    """
    worst = math.inf
    worst_sample = None
    with overflow_as_data():
        for X in _grid_blocks(box, F.dim, grid_n):
            nf, nj = _grid_norms(F, X)
            g = s.L0 + s.L1 * _pow_alpha_rows(nf, s.alpha) - nj
            i = int(np.argmin(g))   # first minimum in grid order
            if g[i] < worst:
                worst = float(g[i])
                worst_sample = ScatterSample(norm_F=float(nf[i]), norm_J=float(nj[i]))
    return SmoothnessFit(alpha_hat=s.alpha, L0_hat=s.L0, L1_hat=s.L1, max_violation=worst,
                         samples=[worst_sample] if worst_sample is not None else [])


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
                             theta_grid: int = 101, box: BoxLike = 50.0,
                             seed: int = 0) -> PairCheckReport:
    """Sampled check of the two-point bound with the segment maximum.

    For seeded uniform pairs (x, y) in the box, approximates
    max_theta ||F(theta x + (1-theta) y)|| on a uniform theta grid and checks
    ||F(x) - F(y)|| <= (L0 + L1 max^alpha) ||x - y|| + 1e-10. Raises
    NonFiniteEvaluation when ||F|| is not finite on a sampled segment.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if theta_grid < 2:
        raise ValueError(f"theta_grid must be >= 2, got {theta_grid}")
    thetas = np.linspace(0.0, 1.0, theta_grid)[:, None]
    viol = 0
    min_slack = math.inf
    with overflow_as_data():
        for x, y, FP, nF in _pair_blocks(F, box, pairs, seed, thetas):
            # theta = 1 and theta = 0 give x and y exactly: 1*x + 0*y == x
            lhs = _row_norms(FP[:, -1] - FP[:, 0])
            rhs = (s.L0 + s.L1 * _pow_alpha_rows(nF.max(axis=1), s.alpha)) * _row_norms(x - y)
            slack = rhs + 1e-10 - lhs
            viol += int(np.count_nonzero(slack < 0))
            min_slack = min(min_slack, float(slack.min()))
    return PairCheckReport(pairs, viol, min_slack, route="segment-max")


def _pair_blocks(F: OperatorInstance, box: BoxLike, pairs: int, seed: int,
                 thetas: np.ndarray):
    """Seeded uniform pairs (x, y) in the box, in blocks: yields x, y, the
    values F(theta x + (1 - theta) y) per pair and theta row, and their norms.
    Raises NonFiniteEvaluation at the first pair with a non-finite ||F||, whose
    slack would be meaningless."""
    lo, hi = box_bounds(box, F.dim)
    rng = np.random.default_rng(seed)
    step = _block_len(F.dim, thetas.shape[0])
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
        yield x, y, FP, nF


def prop1_rhs(s: SmoothnessParams, norm_Fx: float, dist: float) -> float:
    """Two-point bound free of the segment maximum, from the declared constants.

    alpha = 1: (L0 + L1 ||F(x)||) exp(L1 ||x-y||) ||x-y||.
    alpha < 1: (K0 + K1 ||F(x)||^alpha + K2 ||x-y||^{alpha/(1-alpha)}) ||x-y||.
    """
    if s.alpha == 1.0:
        return (s.L0 + s.L1 * norm_Fx) * math.exp(s.L1 * dist) * dist
    kc = k_constants(s)
    a = s.alpha
    return (kc.K0 + kc.K1 * pow_alpha(norm_Fx, a)
            + kc.K2 * pow_alpha(dist, a / (1.0 - a))) * dist


def verify_proposition1(F: OperatorInstance, s: SmoothnessParams, pairs: int,
                        box: BoxLike = 3.0, seed: int = 0) -> PairCheckReport:
    """Sampled check of the segment-free two-point bound (see prop1_rhs).
    Raises NonFiniteEvaluation when ||F|| is not finite at a sampled point."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    viol = 0
    min_slack = math.inf
    with overflow_as_data():
        # theta = 1 and theta = 0 are the pair's endpoints x and y
        for x, y, FP, nF in _pair_blocks(F, box, pairs, seed, np.array([[1.0], [0.0]])):
            lhs = _row_norms(FP[:, 0] - FP[:, 1])
            dist = _row_norms(x - y)
            for nfx, d, l in zip(nF[:, 0].tolist(), dist.tolist(), lhs.tolist()):
                slack = prop1_rhs(s, nfx, d) + 1e-9 - l
                min_slack = min(min_slack, slack)
                if slack < 0:
                    viol += 1
    route = "exp-bound" if s.alpha == 1.0 else "k-constants"
    return PairCheckReport(pairs, viol, min_slack, route=route)


def fit_constants(samples: Sequence[ScatterSample],
                  alpha_grid: Iterable[float]) -> SmoothnessFit:
    """Envelope fit of (L0, L1, alpha) to scatter samples.

    Per alpha: least squares of norm_J on (1, norm_F^alpha), coefficients
    clipped at 0, then L0 raised by the worst remaining deficit so every
    sample satisfies the bound. Returns the alpha with the smallest L0 + L1;
    ties keep the earlier grid entry. Heuristic, not a guarantee.
    """
    samples = list(samples)
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise ValueError("the alpha grid is empty; give at least one alpha in (0, 1]")
    if len(samples) < 3:
        raise DegenerateSamples(f"need >= 3 samples to fit, got {len(samples)}")
    nf = np.array([sm.norm_F for sm in samples])
    nj = np.array([sm.norm_J for sm in samples])
    if np.all(nf == nf[0]):
        raise DegenerateSamples("all samples share one ||F|| value; constants are unidentifiable")
    best = None
    for a in alpha_grid:
        if not (0.0 < a <= 1.0):
            raise InvalidAlpha(f"alpha grid entries must lie in (0, 1], got {a}")
        col = np.array([pow_alpha(v, a) for v in nf])
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
    locally valid constants, mirroring the policy-level overrides).
    """
    if F.solution is None:
        raise MissingSolution(f"{F.label or 'operator'} has no known root; distances undefined")
    s = s if s is not None else F.smoothness
    if s is None:
        raise MissingConstant(f"{F.label or 'operator'} declares no smoothness constants")
    m = m if m is not None else F.monotonicity
    x0 = vec(x0, F.dim, what="x0")
    D = norm(x0 - F.solution)
    L0, L1 = s.L0, s.L1
    amp = 1.0 + L1 * math.exp(L1 * D) * D   # growth factor over the radius-D ball
    rep = BoundReport(kind=kind, D=D)

    if kind in (PolicyKind.STRONG_MONO, PolicyKind.STRONG_MONO_DESCENT,
                PolicyKind.MONO, PolicyKind.WEAK_MINTY):
        if s.alpha != 1.0:
            raise InvalidAlpha(f"{kind.value} bound applies at alpha = 1, constants declare {s.alpha}")
        if L0 <= 0.0:
            raise MissingConstant(f"{kind.value} bound needs L0 > 0, constants declare {L0}")

    def _mu() -> float:
        if m is None or m.kind is not MonotoneClass.STRONGLY_MONOTONE:
            raise MissingConstant("this bound needs a declared strong monotonicity modulus")
        return m.mu

    def _rho() -> float:
        if m is None or m.kind is not MonotoneClass.WEAK_MINTY:
            raise MissingConstant("this bound needs a declared weak-Minty rho")
        return m.rho

    if kind is PolicyKind.STRONG_MONO:
        nu = solve_nu(NuKind.STRONG_MONO)
        rep.zeta = nu / (L0 * amp)
        rep.rate = 1.0 - rep.zeta * _mu()
        return rep

    if kind is PolicyKind.STRONG_MONO_DESCENT:
        if epsilon is None or not (epsilon > 0):
            raise ValueError("iteration-count bound needs epsilon > 0")
        nu = solve_nu(NuKind.STRONG_MONO_DESCENT)
        mu = _mu()
        rep.zeta = nu / (L0 * amp)
        rep.term1 = (2.0 * L0 / (nu * mu)) * math.log(D * D / epsilon)
        if L1 == 0.0:
            rep.term2 = 0.0   # no step-growth phase without the norm term
        else:
            arg = 2.0 * L1 * D * D / (rep.zeta ** 2 * L0)
            rep.term2 = max(math.log(arg) / (rep.zeta * mu), 0.0) if arg > 0 else 0.0
        rep.iters_to_eps = rep.term1 + rep.term2
        return rep

    if kind is PolicyKind.MONO:
        nu = solve_nu(NuKind.MONO)
        rep.zeta = nu / (L0 * amp)
        rep.sublinear_const = 2.0 * L0 * L0 * amp * amp * D * D / (nu * nu)
        return rep

    if kind is PolicyKind.WEAK_MINTY:
        nu = solve_nu(NuKind.WEAK_MINTY)
        rho = _rho()
        rep.zeta = nu / (L0 * amp)
        rep.delta = rep.zeta - 4.0 * rho
        if rep.delta <= 0:
            rep.guarantee_void = True
            return rep
        rep.sublinear_const = 4.0 * L0 * amp * D * D / (nu * rep.delta)
        return rep

    if kind is PolicyKind.WEAK_MINTY_FRAC:
        rho = _rho()
        kc = k_constants(s)   # raises InvalidAlpha at alpha = 1
        a = s.alpha
        M = ((kc.K1 + 2.0 ** -1.5 * kc.K2 ** (1.0 - a))
             * pow_alpha(kc.K0 + kc.K2 * pow_alpha(D, a / (1.0 - a)), a)
             * pow_alpha(D, a))
        denom = kc.K0 + M
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


def write_scatter_csv(samples: Sequence[ScatterSample], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_SCATTER_HEADER)
        for sm in samples:
            w.writerow([repr(sm.norm_F), repr(sm.norm_J), sm.iterate_index])


def read_scatter_csv(path: str) -> List[ScatterSample]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _SCATTER_HEADER:
        raise ValueError(f"{path}: not a scatter CSV")
    return [ScatterSample(norm_F=float(a), norm_J=float(b), iterate_index=int(c))
            for a, b, c in rows[1:]]


def write_fit_csv(fit: SmoothnessFit, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_FIT_HEADER)
        w.writerow([repr(fit.alpha_hat), repr(fit.L0_hat), repr(fit.L1_hat),
                    repr(fit.max_violation)])


def read_fit_csv(path: str) -> SmoothnessFit:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0] != _FIT_HEADER:
        raise ValueError(f"{path}: not a fit CSV")
    a, L0, L1, mv = map(float, rows[1])
    return SmoothnessFit(alpha_hat=a, L0_hat=L0, L1_hat=L1, max_violation=mv)
