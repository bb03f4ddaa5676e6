"""Sharpen semigroup norm bounds from resolvent estimates.

The package manipulates upper bounds m(t) on operator semigroup norms whose
logarithm is piecewise affine.  Given an abscissa omega and a rate r below
the resolvent rate there, the Riccati update replaces m beyond twice the
first-crossing time of an explicit scalar flow with an exponential tail of
slope omega - r; updates over several abscissas, the grid subadditive
envelope and their iteration make the bounds progressively tighter.  Two
fully computable models (the differentiation operator on an interval and
Jordan blocks) exercise the whole pipeline.
"""

from .bounds import (
    LogConcavityReport,
    PiecewiseLogAffineBound,
    allclose,
    canonicalize,
    log_concavity,
    pointwise_min,
    splice,
)
from .envelope import (
    GridBound,
    is_subadditive,
    piecewise_interpolant,
    subadditive_envelope,
    subadditive_envelope_capped,
)
from .iteration import (
    IterationStep,
    IterationTrace,
    OmegaSet,
    ResolventProfile,
    argmin_abscissas,
    iterate,
    iterate_updates_only,
    min_update,
    update_chain,
)
from .riccati import (
    MuSegment,
    OmegaRPair,
    PoleError,
    RiccatiSolution,
    crossing_candidate,
    first_crossing_time,
    gp_log_bound,
    normalized_crossing_time,
    propagate,
    solve_crossing,
    state_at,
    update_bound,
    weighted_inv_norm_sq,
)

__version__ = "0.1.0"

__all__ = [
    "GridBound",
    "IterationStep",
    "IterationTrace",
    "LogConcavityReport",
    "MuSegment",
    "OmegaRPair",
    "OmegaSet",
    "PiecewiseLogAffineBound",
    "PoleError",
    "ResolventProfile",
    "RiccatiSolution",
    "allclose",
    "argmin_abscissas",
    "canonicalize",
    "crossing_candidate",
    "first_crossing_time",
    "gp_log_bound",
    "is_subadditive",
    "iterate",
    "iterate_updates_only",
    "log_concavity",
    "min_update",
    "normalized_crossing_time",
    "piecewise_interpolant",
    "pointwise_min",
    "propagate",
    "solve_crossing",
    "splice",
    "state_at",
    "subadditive_envelope",
    "subadditive_envelope_capped",
    "update_bound",
    "update_chain",
    "weighted_inv_norm_sq",
]
