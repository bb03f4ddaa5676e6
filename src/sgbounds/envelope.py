"""Subadditive envelope of a log bound on a uniform time grid.

For a semigroup, norms at summed times multiply, so any valid bound m can be
replaced by the largest minorant compatible with m(t1) m(t2) ... m(tN) over
all decompositions t = t1 + ... + tN.  On the grid h, 2h, ..., Nh this
envelope is computed in log scale by an O(N^2) dynamic program: a minimizing
decomposition with at least two parts splits into its smallest part jh with
j <= k/2 and an already-enveloped remainder, so

    out[k] = min(g[k], min_{1 <= j <= k/2} out[j] + out[k-j]).

Only grid semantics are claimed: nothing is asserted off-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PiecewiseLogAffineBound

__all__ = [
    "GridBound",
    "is_subadditive",
    "piecewise_interpolant",
    "subadditive_envelope",
    "subadditive_envelope_capped",
]

_SUBADDITIVE_TOL = 1e-10


@dataclass(frozen=True)
class GridBound:
    """Log values of a bound at times 0, h, 2h, ..., with value 0 at t = 0."""

    h: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.h <= 0.0:
            raise ValueError("grid step must be positive")
        if not self.values:
            raise ValueError("grid must hold at least the t = 0 value")
        if abs(self.values[0]) > 1e-12:
            raise ValueError("grid value at t = 0 must vanish (m(0) = 1)")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("grid values must be finite")

    @classmethod
    def sample(cls, m: PiecewiseLogAffineBound, h: float, n_steps: int) -> "GridBound":
        """Sample log m at 0, h, ..., n_steps * h."""
        if h <= 0.0:
            raise ValueError("grid step must be positive")
        if n_steps <= 0:
            raise ValueError("need at least one grid step")
        if not m.is_normalized:
            raise ValueError("sampling requires a normalized bound")
        return cls(h, tuple(m.log_at(k * h) for k in range(n_steps + 1)))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(k * self.h for k in range(len(self.values)))


def _capped_envelope(g: GridBound, cap: int) -> GridBound:
    """The split-at-smallest-part DP over decompositions with parts of at most cap steps."""
    v = np.asarray(g.values, dtype=float)
    out = np.empty_like(v)
    out[0] = v[0]
    for k in range(1, len(out)):
        best = v[k] if k <= cap else math.inf
        half = min(k // 2, cap)
        if half >= 1:
            best = min(best, np.min(out[1 : half + 1] + out[k - half : k][::-1]))
        if math.isinf(best):
            raise ValueError(f"no capped decomposition reaches grid index {k}")
        out[k] = best
    return GridBound(g.h, tuple(out.tolist()))


def subadditive_envelope(g: GridBound) -> GridBound:
    """The grid subadditive envelope: the capped envelope with no binding cap."""
    return _capped_envelope(g, len(g.values) - 1)


def subadditive_envelope_capped(g: GridBound, s: float) -> GridBound:
    """Envelope over decompositions whose parts are all at most s.

    The cap binds every part, including the single-part decomposition, so
    values beyond s are reconstructed purely from capped splits.  s must lie
    on the grid and be at least h.
    """
    s_idx = int(round(s / g.h))
    if abs(s - s_idx * g.h) > 1e-9 * max(1.0, g.h) or s_idx < 1:
        raise ValueError(f"cap {s!r} must be a grid time >= h")
    return _capped_envelope(g, s_idx)


def is_subadditive(g: GridBound) -> bool:
    """Whether g[i+j] <= g[i] + g[j] + 1e-10 for all positive i, j on the grid."""
    v = g.values
    n = len(v)
    for i in range(1, n):
        for j in range(i, n - i):
            if v[i + j] > v[i] + v[j] + _SUBADDITIVE_TOL:
                return False
    return True


def piecewise_interpolant(g: GridBound) -> PiecewiseLogAffineBound:
    """Piecewise-affine bound through the grid values, last slope extended."""
    return PiecewiseLogAffineBound.from_knots(g.times, g.values)
