"""Subadditive envelope of a log bound on a uniform time grid.

For a semigroup, norms at summed times multiply, so any valid bound m can be
replaced by the largest minorant compatible with m(t1) m(t2) ... m(tN) over
all decompositions t = t1 + ... + tN.  On the grid h, 2h, ..., Nh this
envelope is computed in log scale by an O(N^2) dynamic program: a minimizing
decomposition with at least two parts splits into its smallest part jh with
j <= k/2 and an already-enveloped remainder, so

    out[k] = min(g[k], min_{1 <= j <= k/2} out[j] + out[k-j]).

The result is the largest grid function below g that is subadditive,
out[i + j] <= out[i] + out[j] for i, j >= 1.  Only grid semantics are
claimed: nothing is asserted off-grid.

The envelope can only act on a bound that is not subadditive.  If f = log m
is concave with f(0) >= 0, then f(a) + f(b) >= f(a + b) + f(0) >= f(a + b),
so the DP leaves such a grid unchanged up to rounding, and
:func:`~sgbounds.iteration.iterate` skips it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PiecewiseLogAffineBound

__all__ = [
    "GridBound",
    "piecewise_interpolant",
    "subadditive_envelope",
]


@dataclass(frozen=True)
class GridBound:
    """Log values of a bound at times 0, h, 2h, ...; the value at t = 0 is exactly
    0, since every semigroup has log||S(0)|| = 0."""

    h: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.h <= 0.0:
            raise ValueError("grid step must be positive")
        if not self.values:
            raise ValueError("grid must hold at least the t = 0 value")
        if self.values[0] != 0.0:
            raise ValueError("grid value at t = 0 must be 0 (m(0) = 1)")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def sample(cls, m: PiecewiseLogAffineBound, h: float, n_steps: int) -> "GridBound":
        """Sample log m at h, ..., n_steps * h, with the exact 0 at t = 0.

        One vectorised lookup and evaluation with the roundings of
        :meth:`PiecewiseLogAffineBound.log_at`, so each value equals it.
        """
        if h <= 0.0:
            raise ValueError("grid step must be positive")
        if n_steps <= 0:
            raise ValueError("need at least one grid step")
        if not m.is_normalized:
            raise ValueError("sampling requires a normalized bound")
        t = np.arange(1, n_steps + 1) * h
        if len(t) != n_steps:  # np.arange returns an empty array for lengths near 2^63
            raise ValueError(f"{n_steps!r} grid steps do not fit in an array")
        j = np.searchsorted(m.breakpoints, t, side="right") - 1
        logs = np.asarray(m.slopes)[j] * t + np.asarray(m.intercepts)[j]
        return cls(h, (0.0, *logs.tolist()))

    def to_json_dict(self) -> dict:
        return {"h": self.h, "values": list(self.values)}

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(k * self.h for k in range(len(self.values)))


def subadditive_envelope(g: GridBound) -> GridBound:
    """The grid subadditive envelope: out[k] is the smallest sum of g over the
    decompositions of k steps, by the split-at-smallest-part DP of the module
    docstring, one sum into a reused buffer and one minimum per grid index.

    ``rev`` is out reversed, so rev[n - k : n - k + half] is out[k - 1], ...,
    out[k - half], the partners of out[1], ..., out[half]."""
    out = np.array(g.values, dtype=float)
    n = len(out)
    rev = out[::-1]
    buf = np.empty(n // 2)
    for k in range(2, n):
        half = k // 2
        best = np.minimum.reduce(np.add(out[1 : half + 1], rev[n - k : n - k + half], out=buf[:half]))
        if best < out[k]:
            out[k] = best
    return GridBound(g.h, tuple(out.tolist()))


def piecewise_interpolant(g: GridBound) -> PiecewiseLogAffineBound:
    """Piecewise-affine bound through the grid values, last slope extended."""
    return PiecewiseLogAffineBound.from_knots(g.times, g.values)
