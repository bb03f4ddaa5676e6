"""Continuous upper bounds whose logarithm is piecewise affine.

The central object is a bound m(t), t >= 0, stored through its logarithm:
log m(t) = slopes[j] * t + intercepts[j] on [breakpoints[j], breakpoints[j+1][,
with the final piece extending to +infinity.  Working in log scale keeps the
whole algebra additive and avoids underflow for strongly decaying bounds
(exp(-1.05 t) at t = 50 is harmless as -1.05 * 50).

The class is closed under pointwise minimum, which is all the sharpening
machinery needs.  A bound that is eventually exactly zero is *not*
representable; it can only be approached through tails of increasingly
negative slope.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CONTINUITY_TOL",
    "LogConcavityReport",
    "PiecewiseLogAffineBound",
    "allclose",
    "canonicalize",
    "log_concavity",
    "pointwise_min",
    "splice",
]

CONTINUITY_TOL = 1e-12
_BP_MERGE_TOL = 1e-12


def _continuity_slack(t: float, a_l: float, b_l: float, a_r: float, b_r: float) -> float:
    # absolute 1e-12 budget plus a few ulps of the quantities actually summed,
    # so far-out crossings do not get rejected for pure rounding reasons
    return CONTINUITY_TOL + 4e-16 * (abs(a_l * t) + abs(a_r * t) + abs(b_l) + abs(b_r))


@dataclass(frozen=True)
class LogConcavityReport:
    """Concavity verdict for log m: concave iff the slope sequence never increases."""

    is_concave: bool
    first_violation: int | None = None


@dataclass(frozen=True)
class PiecewiseLogAffineBound:
    """A continuous function m > 0 on [0, inf) with piecewise-affine log m.

    Invariants (enforced on construction):
      * breakpoints start at 0 and increase strictly;
      * adjacent pieces have distinct slopes (canonical form);
      * pieces agree at interior breakpoints to within ``CONTINUITY_TOL``.

    Evaluation is right-continuous at breakpoints.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.breakpoints)
        if n == 0 or len(self.slopes) != n or len(self.intercepts) != n:
            raise ValueError("breakpoints, slopes and intercepts must have equal nonzero length")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        for j in range(n - 1):
            if not self.breakpoints[j] < self.breakpoints[j + 1]:
                raise ValueError("breakpoints must increase strictly")
        for x in (*self.breakpoints, *self.slopes, *self.intercepts):
            if not math.isfinite(x):
                raise ValueError("bound data must be finite")
        for j in range(n - 1):
            if self.slopes[j] == self.slopes[j + 1]:
                raise ValueError(f"adjacent pieces {j}, {j+1} share a slope; not canonical")
            t = self.breakpoints[j + 1]
            left = self.slopes[j] * t + self.intercepts[j]
            right = self.slopes[j + 1] * t + self.intercepts[j + 1]
            if abs(left - right) > _continuity_slack(
                t, self.slopes[j], self.intercepts[j], self.slopes[j + 1], self.intercepts[j + 1]
            ):
                raise ValueError(f"discontinuity {left - right:g} at breakpoint {t:g}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls) -> "PiecewiseLogAffineBound":
        """The trivial bound m = 1."""
        return cls((0.0,), (0.0,), (0.0,))

    @classmethod
    def exponential(cls, rate: float) -> "PiecewiseLogAffineBound":
        """The bound m(t) = exp(rate * t)."""
        return cls((0.0,), (float(rate),), (0.0,))

    @classmethod
    def from_slopes(
        cls,
        slopes: Sequence[float],
        breakpoints: Sequence[float],
        log_at_zero: float = 0.0,
    ) -> "PiecewiseLogAffineBound":
        """Build from slopes and interior breakpoints, intercepts fixed by continuity."""
        if len(breakpoints) != len(slopes) - 1:
            raise ValueError("need exactly one breakpoint between consecutive slopes")
        bps = (0.0, *map(float, breakpoints))
        intercepts = [float(log_at_zero)]
        for j in range(1, len(slopes)):
            t = bps[j]
            value = slopes[j - 1] * t + intercepts[j - 1]
            intercepts.append(value - slopes[j] * t)
        return canonicalize(bps, tuple(map(float, slopes)), tuple(intercepts))

    @classmethod
    def from_knots(cls, ts: Sequence[float], log_values: Sequence[float]) -> "PiecewiseLogAffineBound":
        """Piecewise-linear interpolant of log values at increasing knots.

        The first knot must be t = 0; the slope of the last segment is
        extended beyond the final knot.
        """
        if len(ts) != len(log_values) or len(ts) < 2:
            raise ValueError("need at least two knots with matching values")
        if ts[0] != 0.0:
            raise ValueError("first knot must be at t = 0")
        slopes = []
        intercepts = []
        for j in range(len(ts) - 1):
            dt = ts[j + 1] - ts[j]
            if dt <= 0.0:
                raise ValueError("knots must increase strictly")
            a = (log_values[j + 1] - log_values[j]) / dt
            slopes.append(a)
            intercepts.append(log_values[j] - a * ts[j])
        return canonicalize(tuple(ts[:-1]), tuple(slopes), tuple(intercepts))

    # -- queries -----------------------------------------------------------

    @property
    def is_normalized(self) -> bool:
        """True when m(0) = 1, i.e. the initial intercept vanishes."""
        return abs(self.intercepts[0]) <= CONTINUITY_TOL

    def piece_index(self, t: float) -> int:
        """Index of the piece active at t (right-continuous at breakpoints)."""
        return max(bisect.bisect_right(self.breakpoints, t) - 1, 0)

    def log_at(self, t: float) -> float:
        """log m(t); raises for negative t."""
        if t < 0.0:
            raise ValueError(f"bound evaluated at negative time {t!r}")
        j = self.piece_index(t)
        return self.slopes[j] * t + self.intercepts[j]

    def __call__(self, t: float) -> float:
        return math.exp(self.log_at(t))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "intercepts": list(self.intercepts),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewiseLogAffineBound":
        extra = set(data) - {"breakpoints", "slopes", "intercepts"}
        if extra:
            raise ValueError(f"unknown bound fields {sorted(extra)}")
        return canonicalize(
            tuple(map(float, data["breakpoints"])),
            tuple(map(float, data["slopes"])),
            tuple(map(float, data["intercepts"])),
        )

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseLogAffineBound":
        return cls.from_json_dict(json.loads(text))


def canonicalize(
    breakpoints: Sequence[float],
    slopes: Sequence[float],
    intercepts: Sequence[float],
) -> PiecewiseLogAffineBound:
    """Build a canonical bound from raw pieces.

    Zero-width pieces are dropped and runs of pieces with identical slope are
    merged, keeping the leftmost representative.  The merge changes values by
    at most the continuity tolerance at any t.
    """
    if not (len(breakpoints) == len(slopes) == len(intercepts)) or not breakpoints:
        raise ValueError("inconsistent raw piece data")
    pieces: list[tuple[float, float, float]] = []
    for t, a, b in zip(breakpoints, slopes, intercepts):
        if pieces and t - pieces[-1][0] <= _BP_MERGE_TOL:
            # degenerate width: the later piece wins the shared start
            pieces[-1] = (pieces[-1][0], a, b)
            continue
        pieces.append((t, a, b))
    merged: list[tuple[float, float, float]] = []
    for t, a, b in pieces:
        if merged and merged[-1][1] == a:
            continue
        merged.append((t, a, b))
    return PiecewiseLogAffineBound(*zip(*merged))


def log_concavity(m: PiecewiseLogAffineBound) -> LogConcavityReport:
    """Check whether log m is concave (slopes non-increasing)."""
    for j in range(len(m.slopes) - 1):
        if m.slopes[j + 1] > m.slopes[j]:
            return LogConcavityReport(False, j)
    return LogConcavityReport(True, None)


def _merged_breakpoints(m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound) -> list[float]:
    pts: list[float] = []
    for t in sorted((*m1.breakpoints, *m2.breakpoints)):
        if not pts or t - pts[-1] > _BP_MERGE_TOL:
            pts.append(t)
    return pts


def _probe(s: float, e: float) -> float:
    return s + (min(1.0, e - s) * 0.5 if math.isfinite(e) else 1.0)


def _append_joined(pieces: list[tuple[float, float, float]], lo: float, a: float, b: float) -> None:
    """Append (lo, a, b); where a breakpoint or crossing merged within _BP_MERGE_TOL
    left a jump at lo, start it where its line meets the last piece's.  A last piece
    at most _BP_MERGE_TOL wide gives up its start to it, as in canonicalize."""
    while pieces:
        t0, a0, b0 = pieces[-1]
        if lo - t0 > _BP_MERGE_TOL:
            if a0 == a or abs((a0 * lo + b0) - (a * lo + b)) <= _continuity_slack(lo, a0, b0, a, b):
                break
            lo = (b - b0) / (a0 - a)
            if lo - t0 > _BP_MERGE_TOL:
                break
        lo = t0
        pieces.pop()
    pieces.append((lo, a, b))


def pointwise_min(
    m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of two bounds, again in canonical form.

    Breakpoints of the result are the union of the inputs' breakpoints plus
    the crossing points of overlapping affine pieces, computed in closed form.
    When the two pieces coincide on an interval the piece of ``m1`` is kept,
    which makes the operation deterministic.  The result takes one sweep over
    the merged breakpoints, with one piece index per input that only moves right.
    """
    base = _merged_breakpoints(m1, m2)
    pieces: list[tuple[float, float, float]] = []
    j1 = j2 = 0
    for s, e in zip(base, [*base[1:], math.inf]):
        probe = _probe(s, e)
        while j1 + 1 < len(m1.breakpoints) and m1.breakpoints[j1 + 1] <= probe:
            j1 += 1
        while j2 + 1 < len(m2.breakpoints) and m2.breakpoints[j2 + 1] <= probe:
            j2 += 1
        a1, b1, a2, b2 = m1.slopes[j1], m1.intercepts[j1], m2.slopes[j2], m2.intercepts[j2]
        tc = (b2 - b1) / (a1 - a2) if a1 != a2 else s
        # drop crossings that collide with an existing breakpoint
        cuts = (s, tc, e) if s + _BP_MERGE_TOL < tc < e - _BP_MERGE_TOL else (s, e)
        for lo, hi in zip(cuts, cuts[1:]):
            probe = _probe(lo, hi)
            a, b = (a2, b2) if a2 * probe + b2 < a1 * probe + b1 else (a1, b1)
            _append_joined(pieces, lo, a, b)
    return canonicalize(*zip(*pieces))


def splice(
    left: PiecewiseLogAffineBound, right: PiecewiseLogAffineBound, t: float
) -> PiecewiseLogAffineBound:
    """Bound equal to ``left`` on [0, t[ and to ``right`` on [t, inf).

    The two sides must agree at t up to the continuity tolerance.
    """
    if t <= 0.0:
        return right
    pieces: list[tuple[float, float, float]] = []
    for j, s in enumerate(left.breakpoints):
        if s >= t:
            break
        pieces.append((s, left.slopes[j], left.intercepts[j]))
    jr = right.piece_index(t)
    pieces.append((t, right.slopes[jr], right.intercepts[jr]))
    for j in range(jr + 1, len(right.breakpoints)):
        pieces.append((right.breakpoints[j], right.slopes[j], right.intercepts[j]))
    return canonicalize(*zip(*pieces))


def allclose(
    m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound, tol: float = 1e-10
) -> bool:
    """Whether two bounds agree within ``tol`` on log values, everywhere.

    Piecewise-affine functions agree everywhere iff they agree at all
    breakpoints, at midpoints between them, and (to pin the final slope) at
    two probes beyond the last breakpoint.
    """
    pts = _merged_breakpoints(m1, m2)
    probes = list(pts)
    for i in range(len(pts) - 1):
        probes.append(0.5 * (pts[i] + pts[i + 1]))
    probes.extend((pts[-1] + 1.0, pts[-1] + 10.0))
    return all(abs(m1.log_at(t) - m2.log_at(t)) <= tol for t in probes)

