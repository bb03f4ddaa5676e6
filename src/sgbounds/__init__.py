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
    canonicalize,
    log_concavity,
)
from .envelope import (
    GridBound,
    piecewise_interpolant,
    subadditive_envelope,
)
from .iteration import (
    IterationStep,
    IterationTrace,
    OmegaSet,
    ResolventProfile,
    argmin_abscissas,
    iterate,
    min_update,
    update_chain,
)
from .riccati import (
    MuSegment,
    OmegaRPair,
    PoleError,
    crossing_candidate,
    first_crossing_time,
    gp_log_bound,
    log_weighted_inv_norm_sq,
    normalized_crossing_time,
    propagate,
    state_at,
    update_bound,
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
    "argmin_abscissas",
    "canonicalize",
    "crossing_candidate",
    "first_crossing_time",
    "gp_log_bound",
    "iterate",
    "log_concavity",
    "log_weighted_inv_norm_sq",
    "min_update",
    "normalized_crossing_time",
    "piecewise_interpolant",
    "propagate",
    "state_at",
    "subadditive_envelope",
    "update_bound",
    "update_chain",
]
