"""Extragradient solvers with norm-adaptive step sizes, a problem zoo of
generalized-smooth min-max operators, smoothness verification tools, and an
experiment harness."""

from .core import (
    BracketFailure,
    DegenerateSamples,
    DimensionMismatch,
    EgsolveError,
    EmptyTrace,
    IncompatiblePolicy,
    InvalidAlpha,
    MissingConstant,
    MissingSolution,
    MonotoneClass,
    MonotonicityParams,
    NonFiniteEvaluation,
    NonFiniteIterate,
    OperatorInstance,
    SmoothnessParams,
    SolveConfig,
    SolveTrace,
    ZeroOperatorAtExtrapolation,
    finite_diff_jacobian,
    spectral_norm,
)
from .operators import ZOO, build, default_box
from .stepsize import (
    KConstants,
    NuKind,
    OmegaRule,
    PolicyKind,
    StepSizePolicy,
    gamma,
    k_constants,
    omega,
    parse_policy,
    solve_nu,
)
from .solver import (
    InvariantReport,
    IterationState,
    check_descent_invariants,
    eg_step,
    read_trace_csv,
    solve,
    write_trace_csv,
)
from .analysis import (
    BoundReport,
    PairCheckReport,
    ScatterSamples,
    SmoothnessFit,
    fit_constants,
    scatter_from_trace,
    theoretical_bounds,
    verify_condition,
    verify_proposition1,
    verify_segment_condition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
