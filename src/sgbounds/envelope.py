"""Subadditive closure of a log bound: exact on [0, T], and on a uniform grid.

For a semigroup, norms at summed times multiply, so any valid bound m can be
replaced by the largest minorant compatible with m(t1) m(t2) ... m(tN) over
all decompositions t = t1 + ... + tN: the min-plus subadditive closure of
f = log m (Le Boudec and Thiran, *Network Calculus*, LNCS 2050, ch. 3).

:func:`_closure` computes it on [0, T] for a piecewise-affine f with f(0) = 0.
For fixed t, s -> f(s) + f(t - s) is least at s = 0 or at a convex kink b of f
(where the slope rises), so the min-plus square is the minimum of f and its
translates f(b) + f(t - b) from t = b on; a concave f has no such kink and is
its own closure.  Squaring starts from min(f, l), where l(t) = a0 t + b0 extends f's
first piece: for b0 <= 0 and t / n in that piece, n f(t / n) = a0 t + n b0 <= l(t),
so f* <= min(f, l) <= f and both close to f*.  The minimum adds only concave kinks;
where f >= l it is l, closed in one round.  Each squaring doubles the number of parts,
and at most one part is shorter than f's smallest convex kink, so
ceil(log2(T / that kink)) + 2 rounds reach the closure; every round is a valid bound.

:func:`subadditive_envelope` is the grid counterpart, an O(N^2) dynamic
program on h, 2h, ..., Nh: a minimizing decomposition with at least two parts
splits into its smallest part jh with j <= k/2 and an enveloped remainder, so

    out[k] = min(g[k], min_{1 <= j <= k/2} out[j] + out[k-j]).

The result is the largest subadditive grid function below g; the closure's
samples lie at or below it.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import PiecewiseLogAffineBound, _append_joined, _canonical, pointwise_min

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
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"grid step must be positive and finite, got h = {self.h!r}")
        if not self.values:
            raise ValueError("grid must hold at least the t = 0 value")
        if self.values[0] != 0.0:
            raise ValueError("grid value at t = 0 must be 0 (m(0) = 1)")
        if not all(map(math.isfinite, self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def sample(cls, m: PiecewiseLogAffineBound, h: float, n_steps: int) -> "GridBound":
        """Sample log m at h, ..., n_steps * h, with the exact 0 at t = 0.

        One :func:`_log_values` call, so each value equals
        :meth:`PiecewiseLogAffineBound.log_at`.
        """
        if not 0.0 < h < math.inf:
            raise ValueError(f"grid step must be positive and finite, got h = {h!r}")
        if n_steps <= 0:
            raise ValueError("need at least one grid step")
        if not m.is_normalized:
            raise ValueError("sampling requires a normalized bound")
        if n_steps > sys.float_info.max / h or not math.isfinite(n_steps * h):
            raise ValueError(f"{n_steps!r} grid steps of h = {h!r} reach past the largest float")
        t = np.arange(1, n_steps + 1) * h
        if len(t) != n_steps:  # np.arange returns an empty array for lengths near 2^63
            raise ValueError(f"{n_steps!r} grid steps do not fit in an array")
        return cls(h, (0.0, *_log_values(m, t).tolist()))

    def to_json_dict(self) -> dict:
        return {"h": self.h, "values": list(self.values)}

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(k * self.h for k in range(len(self.values)))


def _log_values(m: PiecewiseLogAffineBound, t: np.ndarray) -> np.ndarray:
    """log m at each time of the array t >= 0, from one lookup and one evaluation
    with the roundings of :meth:`PiecewiseLogAffineBound.log_at`, which it equals."""
    j = np.searchsorted(m.breakpoints, t, side="right") - 1
    return np.asarray(m.slopes)[j] * t + np.asarray(m.intercepts)[j]


def subadditive_envelope(g: GridBound) -> GridBound:
    """The grid subadditive envelope: out[k] is the smallest sum of g over the
    decompositions of k steps, by the split-at-smallest-part DP of the module
    docstring: per grid index one sum of out[1], ..., out[k // 2] and their
    partners out[k - 1], ..., out[k - k // 2], a fresh array, and its minimum."""
    out = np.array(g.values, dtype=float)
    for k in range(2, len(out)):
        best = (out[1 : k // 2 + 1] + out[k - 1 : (k - 1) // 2 : -1]).min()
        if best < out[k]:
            out[k] = best
    return GridBound(g.h, tuple(out.tolist()))


def piecewise_interpolant(g: GridBound) -> PiecewiseLogAffineBound:
    """Piecewise-affine bound through the grid values, last slope extended."""
    return PiecewiseLogAffineBound.from_knots(g.times, g.values)


def _convex_kinks(f: PiecewiseLogAffineBound, horizon: float) -> list[float]:
    """The breakpoints of f below ``horizon`` where its slope rises, in order."""
    return [t for t, a0, a1 in zip(f.breakpoints[1:], f.slopes, f.slopes[1:]) if a1 > a0 and t < horizon]


def _shifted(g: PiecewiseLogAffineBound, f: PiecewiseLogAffineBound, b: float, cut: float = math.inf):
    """g on [0, b[, then g(b) + f(t - b) without f's pieces that would start at or past
    ``cut``, the last one kept extending.  Each intercept g(b) + c - a b is rounded to
    nearest, so a piece may sit a few ulps of its terms below the exact translate."""
    gb = g.log_at(b)
    j = bisect.bisect_left(g.breakpoints, b)
    pieces = list(zip(g.breakpoints[:j], g.slopes[:j], g.intercepts[:j]))
    for s, a, c in zip(f.breakpoints, f.slopes, f.intercepts):
        if s and s + b >= cut:
            break
        _append_joined(pieces, s + b, a, gb + c - a * b)
    return _canonical(pieces)


def _squared(g: PiecewiseLogAffineBound, horizon: float) -> PiecewiseLogAffineBound:
    """One round, the min-plus square of g on [0, ``horizon``]: g and its translates at
    its convex kinks below ``horizon``, cut there, folded by a balanced tree of
    :func:`~sgbounds.bounds.pointwise_min` with g first, so g wins ties."""
    bounds = [g, *(_shifted(g, g, b, horizon) for b in _convex_kinks(g, horizon))]
    while len(bounds) > 1:
        bounds = [*map(pointwise_min, bounds[::2], bounds[1::2]), *bounds[len(bounds) & ~1 :]]
    return bounds[0]


def _closure(f: PiecewiseLogAffineBound, horizon: float) -> PiecewiseLogAffineBound:
    """The subadditive closure g of a normalized f on [0, ``horizon``], then
    min(f, g(horizon) + f(t - horizon)), valid by submultiplicativity; f itself when it
    has no convex kink below ``horizon``.  Squares min(f, f's first piece extended), or f
    if that piece starts above 0, until the result is ``==`` to the one before, at most
    ceil(log2(horizon / f's smallest convex kink)) + 2 times; the module docstring shows
    that the minimum has the same closure.  A translate begins log m(0) off g, so
    where the squaring of an f with log m(0) != 0 compounds those jumps into a
    discontinuity, the ValueError names log m(0)."""
    kinks = _convex_kinks(f, horizon)
    if not kinks:
        return f
    g = f if f.intercepts[0] > 0.0 else pointwise_min(f, PiecewiseLogAffineBound((0.0,), f.slopes[:1], f.intercepts[:1]))
    try:
        for _ in range(math.ceil(math.log2(horizon) - math.log2(kinks[0])) + 2):
            g, before = _squared(g, horizon), g
            if g == before:
                break
    except ValueError as exc:
        if f.intercepts[0] == 0.0:
            raise
        raise ValueError(f"cannot close a bound whose log m(0) is {f.intercepts[0]!r}, not 0") from exc
    return pointwise_min(f, _shifted(g, f, horizon))
