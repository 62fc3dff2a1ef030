"""Problem zoo: operators with declared smoothness and monotonicity data.

Each builder returns an :class:`OperatorInstance` whose declared constants have
been verified (analytically where possible, otherwise by dense grid or sampling
scans recorded in the test suite). Min-max problems are stacked as
F = (grad_w1 L, -grad_w2 L) so roots of F are saddle points of L.

Registry keys: logistic, quadratic, cubic1d, signpower, cubicRd, power, square,
forsaken, bilinear, nplayer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np
from numpy import linalg as la

from .core import (
    MonotoneClass,
    MonotonicityParams,
    OperatorInstance,
    SmoothnessParams,
    overflow_as_data,
)

SQ2 = math.sqrt(2.0)

# largest operator dimension the sized builders (cubicRd, nplayer) accept; their
# dense dim x dim matrices then take at most 2 MB each (fig4 runs at dim 20)
MAX_DIM = 512


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _coupled_2x2(a, b, c=1.0):
    """Stack of [[a_i, c], [-c, b_i]]: the Jacobians of the 2-dim fields whose
    coupling is c (w2, -w1)."""
    c = np.full_like(a, c)
    return np.stack([a, c, -c, b], axis=1).reshape(-1, 2, 2)


def _instance(fn, jac_batch, fn_batch=None, **declared) -> OperatorInstance:
    """An operator from its field and its block Jacobian (rows are points). The
    per-point Jacobian is the kernel's one-row case. The block field is
    `fn_batch` when given, else fn on the transposed block, which then must
    work elementwise."""
    return OperatorInstance(fn=fn, jacobian=lambda x: jac_batch(x[None])[0],
                            fn_batch=fn_batch or (lambda X: fn(X.T).T),
                            jacobian_batch=jac_batch, **declared)


def _coupled(f, df, floats=False, **declared) -> OperatorInstance:
    """The 2-dim field F = (f(w1) + w2, f(w2) - w1) and its Jacobian
    [[f'(w1), 1], [-1, f'(w2)]] from the elementwise map f and its derivative
    df; root at the origin unless `solution` is declared. The point field runs
    on Python floats when `floats` (they round as np.float64 does and overflow
    to inf), else on numpy scalars, where a power such as w ** 5 overflows to
    inf instead of raising OverflowError."""
    def field(a, b):
        return f(a) + b, f(b) - a

    if floats:
        def fn(x):
            return np.array(field(*x.tolist()))
    else:
        def fn(x):
            return np.array(field(x[0], x[1]))

    return _instance(fn, lambda X: _coupled_2x2(df(X[:, 0]), df(X[:, 1])),
                     lambda X: np.stack(field(X[:, 0], X[:, 1]), axis=1),
                     **{"dim": 2, "solution": np.zeros(2), **declared})


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def logistic(a: Sequence[float] = (1.0, 1.0)) -> OperatorInstance:
    """Gradient of the single-sample logistic loss w -> log(1 + exp(-a.w)).

    F(x) = -a * sigmoid(-a.x). Monotone (convex objective), no finite root:
    the loss decays to 0 along +a. Constants (alpha, L0, L1) = (1, 0, ||a||).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    with overflow_as_data():    # a norm that overflows is refused below
        na = float(la.norm(a))
    if not 0.0 < na < math.inf:
        raise ValueError(f"logistic: a must be nonzero with a finite norm, got {a}")
    d = a.shape[0]

    def fn(x):
        return -a * _sigmoid(-float(a @ x))

    def jac(x):
        s = _sigmoid(-float(a @ x))
        return np.outer(a, a) * (s * (1.0 - s))

    return OperatorInstance(
        dim=d, fn=fn, jacobian=jac, solution=None,
        smoothness=SmoothnessParams(1.0, 0.0, na),
        monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
        label="logistic",
    )


def quadratic() -> OperatorInstance:
    """Bilinear-coupled quadratic saddle: L = w1^2/2 + w1 w2 - w2^2/2.

    F(x) = (w1 + w2, w2 - w1), constant Jacobian [[1, 1], [-1, 1]] of spectral
    norm sqrt(2); 1-strongly monotone, root at the origin.
    """
    return _coupled(
        lambda w: w, lambda w: np.ones(w.shape),
        smoothness=SmoothnessParams(1.0, SQ2, 0.0),
        monotonicity=MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=1.0),
        label="quadratic",
    )


def cubic1d() -> OperatorInstance:
    """Componentwise-quadratic coupled field F = (w1^2 + w2, w2^2 - w1).

    Not monotone: <F(x)-F(y), x-y> = (w1+v1)(w1-v1)^2 + (w2+v2)(w2-v2)^2 can be
    negative. Root at the origin (another root sits at (1, -1)). The declared
    constants (1, 10, 10) hold globally; (1, 1, 0.1) provably fails and is used
    as the negative control in verification tests.
    """
    return _coupled(
        lambda w: w * w, lambda w: 2.0 * w,
        smoothness=SmoothnessParams(1.0, 10.0, 10.0),
        monotonicity=None,
        label="cubic1d",
    )


def signpower(mu: Optional[float] = None) -> OperatorInstance:
    """Coupled odd-quadratic saddle F = (u1|u1| + u2, u2|u2| - u1).

    Equals `power` with exponent 2 and scalar coupling. Monotone (t|t| is
    increasing) but not globally strongly monotone since d/dt t|t| vanishes at
    0; pass `mu` to declare a strong-monotonicity modulus anyway when a
    baseline needs one. Constants (1, 1 + 2*sqrt(2), 2*sqrt(2)).
    """
    mono = (MonotonicityParams(MonotoneClass.STRONGLY_MONOTONE, mu=mu)
            if mu is not None else MonotonicityParams(MonotoneClass.MONOTONE))
    return _coupled(
        lambda w: w * abs(w), lambda w: 2.0 * np.abs(w), floats=True,
        smoothness=SmoothnessParams(1.0, 1.0 + 2.0 * SQ2, 2.0 * SQ2),
        monotonicity=mono,
        label="signpower",
    )


def cubicRd(d: int = 2, seed: int = 0, scale: float = 1.0) -> OperatorInstance:
    """Monotone cubic min-max field on R^{2d}.

    F(w1, w2) = (||w1||_A A w1 + B w2, ||w2||_C C w2 - B^T w1) with
    ||w||_M = sqrt(w^T M w); A, C positive definite, drawn as
    scale*(G^T G/d + 0.1 I) from a seeded generator, B = scale*G^T G/d.
    Root at the origin. Declared alpha = 1 constants follow from
    ||J(x)|| <= sigma_max(B) + Chat*sqrt(||F(x)||) with
    Chat = 2^{5/4} max(||A||,||C||)/lambda_min^{1/4}, turned into a linear
    envelope via AM-GM: L1 = Chat/2, L0 = sigma_max(B) + Chat/2.
    """
    if not (isinstance(d, (int, np.integer)) and 1 <= d <= MAX_DIM // 2):
        raise ValueError(f"cubicRd: d must be an integer in 1..{MAX_DIM // 2} "
                         f"(dim 2d <= MAX_DIM), got {d}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"cubicRd: seed must be a non-negative integer, got {seed}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"cubicRd: scale must be finite and > 0, got {scale}")
    rng = np.random.default_rng(seed)
    GA = rng.standard_normal((d, d))
    GC = rng.standard_normal((d, d))
    GB = rng.standard_normal((d, d))
    try:   # near the float limits the matrices overflow or underflow, and so do the constants
        with overflow_as_data():
            A = scale * (GA.T @ GA / d + 0.1 * np.eye(d))
            C = scale * (GC.T @ GC / d + 0.1 * np.eye(d))
            B = scale * (GB.T @ GB / d)
            lmin = float(min(la.eigvalsh(A).min(), la.eigvalsh(C).min()))
            chat = (2.0 ** 1.25 * max(la.norm(A, 2), la.norm(C, 2)) / lmin ** 0.25
                    if lmin > 0 else math.nan)
            L1 = chat / 2.0
            L0 = float(la.norm(B, 2)) + chat / 2.0   # >= L1
    except la.LinAlgError:
        L0 = math.nan
    if not math.isfinite(L0):
        raise ValueError(f"cubicRd: scale {scale:g} leaves no finite constants L0, L1 "
                         "(its matrices overflow or underflow)")

    # one mat-vec gives (A w1, C w2, B w2, -B^T w1). The EG loop calls this point
    # form, where gemv and dot beat a one-row gemm and einsum; the block form
    # sums in another order, so the two can differ in the last bits.
    Z = np.zeros((d, d))
    M = np.block([[A, Z], [Z, C], [Z, B], [-B.T, Z]])

    def fn(x):
        y = M.dot(x)   # ndarray.dot: the same products as @, with less dispatch
        Aw1, Cw2 = y[:d], y[d:2 * d]
        # a form that overflowed to -inf or NaN gives a NaN field, not a math domain error
        s, t = x[:d].dot(Aw1), x[d:].dot(Cw2)
        Aw1 *= math.sqrt(s) if s >= 0.0 else math.nan
        Cw2 *= math.sqrt(t) if t >= 0.0 else math.nan
        out = y[2 * d:]   # (B w2, -B^T w1) += (A w1, C w2) in place: the same sums
        out += y[:2 * d]
        return out

    # the block kernels: rows are points, so X @ M.T stacks the four mat-vecs
    def _scaled(X):
        Y = X @ M.T
        s = np.sqrt(np.einsum("ij,ij->i", X[:, :d], Y[:, :d]))
        t = np.sqrt(np.einsum("ij,ij->i", X[:, d:], Y[:, d:2 * d]))
        return Y, s, t

    def fn_batch(X):
        Y, s, t = _scaled(X)
        out = Y[:, 2 * d:].copy()
        out[:, :d] += s[:, None] * Y[:, :d]
        out[:, d:] += t[:, None] * Y[:, d:2 * d]
        return out

    def _diag_blocks(S, Sw, s):
        # s S + (S w)(S w)^T / s per row, with limit 0 where s is not > 0
        pos = s > 0
        r = np.where(pos, s, 1.0)[:, None, None]
        D = r * S + Sw[:, :, None] * Sw[:, None, :] / r
        D[~pos] = 0.0
        return D

    def jac_batch(X):
        Y, s, t = _scaled(X)
        J = np.empty((X.shape[0], 2 * d, 2 * d))
        J[:, :d, :d] = _diag_blocks(A, Y[:, :d], s)
        J[:, :d, d:] = B
        J[:, d:, :d] = -B.T
        J[:, d:, d:] = _diag_blocks(C, Y[:, d:2 * d], t)
        return J

    return _instance(
        fn, jac_batch, fn_batch, dim=2 * d, solution=np.zeros(2 * d),
        smoothness=SmoothnessParams(1.0, L0, L1),
        monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
        label=f"cubicRd(d={d},seed={seed},scale={scale:g})",
        matrices=(A, B, C),
    )


def power(p: float = 2.0, B: Sequence[Sequence[float]] = ((1.0,),), tau1: float = 1.0) -> OperatorInstance:
    """Norm-power coupled saddle F = (||w1||^{p-1} w1 + B w2, ||w2||^{p-1} w2 - B^T w1).

    p > 1. Declared constants use the splitting parameter tau1 > 0:
    L0 = 2*((p-1)/tau1)^{p-1} + sigma_max(B), L1 = 2^{(2p^2-1)/(2p^2)} * tau1.
    Monotone, root at the origin.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"power: p must be a finite exponent above 1, got {p}")
    if not 0.0 < tau1 < math.inf:
        raise ValueError(f"power: tau1 must be finite and positive, got {tau1}")
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("power: B must be a matrix")
    n, m = B.shape
    try:
        tau0 = ((p - 1.0) / tau1) ** (p - 1.0)
    except OverflowError:
        tau0 = math.inf
    L0 = 2.0 * tau0 + float(la.norm(B, 2))
    L1 = 2.0 ** ((2.0 * p * p - 1.0) / (2.0 * p * p)) * tau1
    if not (math.isfinite(L0) and math.isfinite(L1)):
        raise ValueError(f"power: p {p:g} with tau1 {tau1:g} leaves no finite constants L0, L1")

    def _block(w):
        nw = la.norm(w)
        return (nw ** (p - 1.0)) * w if nw > 0 else np.zeros_like(w)

    def fn(x):
        w1, w2 = x[:n], x[n:]
        return np.concatenate([_block(w1) + B @ w2, _block(w2) - B.T @ w1])

    def _dblock(w):
        nw = float(la.norm(w))
        k = w.shape[0]
        if nw == 0.0:
            return np.zeros((k, k))
        return nw ** (p - 1.0) * np.eye(k) + (p - 1.0) * nw ** (p - 3.0) * np.outer(w, w)

    def jac(x):
        w1, w2 = x[:n], x[n:]
        return np.block([[_dblock(w1), B], [-B.T, _dblock(w2)]])

    return OperatorInstance(
        dim=n + m, fn=fn, jacobian=jac, solution=np.zeros(n + m),
        smoothness=SmoothnessParams(1.0, L0, L1),
        monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
        label=f"power(p={p:g})",
    )


def square() -> OperatorInstance:
    """Componentwise square F = (u1^2, u2^2).

    Not monotone (decreasing on negative coordinates); declared class None.
    Half-symmetric with constants (alpha, L0, L1) = (1/2, 0, 2): the bound
    2*sqrt(||F||) >= 2*max|u_i| = ||J|| is tight exactly on the axes.
    """
    def fn(x):
        return np.array([x[0] * x[0], x[1] * x[1]])

    def jac_batch(X):
        return _coupled_2x2(2.0 * X[:, 0], 2.0 * X[:, 1], 0.0)

    return _instance(
        fn, jac_batch, dim=2, solution=np.zeros(2),
        smoothness=SmoothnessParams(0.5, 0.0, 2.0),
        monotonicity=None,
        label="square",
    )


FORSAKEN_RHO = 0.119732


def forsaken() -> OperatorInstance:
    """Scalar min-max with polynomial payoff psi and unit coupling.

    L(w1, w2) = w1 w2 + psi(w1) - psi(w2), psi(w) = 2w^6/21 - w^4/3 + w^2/3, so
    F = (w2 + psi'(w1), psi'(w2) - w1). Nash equilibrium at the origin; the
    field is only weak-Minty there (rho = 0.119732, the dense-grid minimum of
    <F(x), x>/||F(x)||^2 over [-2, 2]^2 is -rho). Plain extragradient cycles on
    this problem; halved update steps escape. Declared global constants
    (1, 2.5, 5.0), grid-verified with margin >= 0.41.
    """
    def psi_p(w):
        return (4.0 / 7.0) * w ** 5 - (4.0 / 3.0) * w ** 3 + (2.0 / 3.0) * w

    def psi_pp(w):
        return (20.0 / 7.0) * w ** 4 - 4.0 * w ** 2 + 2.0 / 3.0

    # numpy scalars: w ** 5 on a Python float raises OverflowError, not inf
    return _coupled(
        psi_p, psi_pp,
        smoothness=SmoothnessParams(1.0, 2.5, 5.0),
        monotonicity=MonotonicityParams(MonotoneClass.WEAK_MINTY, rho=FORSAKEN_RHO),
        label="forsaken",
    )


def bilinear(R: float = 5.0) -> OperatorInstance:
    """Logistic-regularized bilinear saddle on the ball |w_i| <= R.

    L(w1, w2) = f(w1) + w1 w2 - f(w2) with f(w) = log(1 + exp(-w)), so
    F = (f'(w1) + w2, f'(w2) - w1). f' is (0, 1)-smooth at alpha = 1
    (|f''| <= |f'| pointwise), giving stacked constants
    L0 = (1 + 2R) * sigma_max(B), L1 = sqrt(2) on the box. Monotone; the root
    solves f'(w) = -w numerically, so no exact solution is declared.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"bilinear: R must be finite and positive, got {R}")

    def fp(w):
        return -_sigmoid(-w)

    def fpp(w):
        s = _sigmoid(-w)
        return s * (1.0 - s)

    L0 = (1.0 + 2.0 * 1.0 * R) * 1.0
    return _coupled(
        fp, fpp, solution=None,
        smoothness=SmoothnessParams(1.0, L0, SQ2),
        monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
        label=f"bilinear(R={R:g})",
    )


def nplayer(n: int = 3) -> OperatorInstance:
    """Stacked gradient field of an n-player game with cubic costs.

    Player i's cost gradient is u_i|u_i| plus ring coupling
    (next neighbor minus previous neighbor), i.e. F(x) = x*|x| + S x with S the
    skew circulant shift difference. Monotone (skew coupling has imaginary
    spectrum), equilibrium at the origin. Per-player constants (5, 1) stack to
    (sqrt(2n)*5, sqrt(2)*1); the per-player offset 5 covers pairs where one
    endpoint has F = 0 on the sampling box [-5, 5]^n.
    """
    if not (isinstance(n, (int, np.integer)) and 2 <= n <= MAX_DIM):
        raise ValueError(f"nplayer: n must be an integer in 2..{MAX_DIM} (MAX_DIM), got {n}")
    S = np.zeros((n, n))
    i = np.arange(n)
    S[i, (i + 1) % n] = 1.0
    S[i, (i - 1) % n] = -1.0   # after the +1 entries, as n = 2 needs

    def fn(x):
        return x * np.abs(x) + S @ x

    def jac_batch(X):
        J = np.repeat(S[None], X.shape[0], axis=0)
        J[:, i, i] = 2.0 * np.abs(X)   # S has a zero diagonal
        return J

    return _instance(
        fn, jac_batch, dim=n, solution=np.zeros(n),
        smoothness=SmoothnessParams(1.0, math.sqrt(2.0 * n) * 5.0, SQ2),
        monotonicity=MonotonicityParams(MonotoneClass.MONOTONE),
        label=f"nplayer(n={n})",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZooEntry:
    builder: Callable[..., OperatorInstance]
    box_halfwidth: float


ZOO: Dict[str, ZooEntry] = {
    "logistic": ZooEntry(logistic, 3.0),
    "quadratic": ZooEntry(quadratic, 50.0),
    "cubic1d": ZooEntry(cubic1d, 50.0),
    "signpower": ZooEntry(signpower, 50.0),
    "cubicRd": ZooEntry(cubicRd, 5.0),
    "power": ZooEntry(power, 50.0),
    "square": ZooEntry(square, 50.0),
    "forsaken": ZooEntry(forsaken, 2.0),
    "bilinear": ZooEntry(bilinear, 5.0),
    "nplayer": ZooEntry(nplayer, 5.0),
}


def build(key: str, **params) -> OperatorInstance:
    """Instantiate a zoo operator by registry key."""
    if key not in ZOO:
        raise KeyError(f"unknown operator '{key}'; valid keys: {', '.join(sorted(ZOO))}")
    return ZOO[key].builder(**params)


def default_box(op_key: str, dim: int) -> list:
    """Default verification box for a zoo operator: [-hw, hw]^dim.

    Accepts a registry key or an instance label such as 'cubicRd(d=2,...)'.
    """
    key = op_key.split("(", 1)[0]
    if key not in ZOO:
        raise KeyError(f"unknown operator '{op_key}'; valid keys: {', '.join(sorted(ZOO))}")
    hw = ZOO[key].box_halfwidth
    return [(-hw, hw)] * dim
