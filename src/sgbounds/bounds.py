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
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CONTINUITY_TOL",
    "LogConcavityReport",
    "PiecewiseLogAffineBound",
    "canonicalize",
    "log_concavity",
    "min_with_tails",
]

CONTINUITY_TOL = 1e-12
_BP_MERGE_TOL = 1e-12


def _continuity_slack(t: float, a_l: float, b_l: float, a_r: float, b_r: float) -> float:
    # absolute 1e-12 budget plus a few ulps of the quantities actually summed,
    # so far-out crossings do not get rejected for pure rounding reasons
    return CONTINUITY_TOL + 4e-16 * (abs(a_l * t) + abs(a_r * t) + abs(b_l) + abs(b_r))


def _check_pairs(bps: tuple, slopes: tuple, intercepts: tuple, first: int = 0) -> None:
    """Check a bound's pieces, or its run from piece ``first`` on, and their adjacent pairs: order or gap faults
    first, then values not finite (a piece overflowing at a breakpoint too), then slope or continuity faults."""
    # a finite sum has finite terms, so only a sum that is not finite needs each value tested
    finite = math.isfinite(sum(bps, sum(slopes, sum(intercepts)))) or all(
        map(math.isfinite, (*bps, *slopes, *intercepts))
    )
    fault = None if finite else "bound data must be finite"
    pairs = zip(bps, bps[1:], slopes, intercepts, slopes[1:], intercepts[1:])
    for j, (s, t, a_l, b_l, a_r, b_r) in enumerate(pairs, first):
        if not t - s > _BP_MERGE_TOL:
            if not s < t:
                raise ValueError("breakpoints must increase strictly")
            raise ValueError(f"breakpoints {s!r} and {t!r} lie within {_BP_MERGE_TOL:g}; not canonical")
        if fault is None:
            if a_l == a_r:
                fault = f"adjacent pieces {j}, {j+1} share a slope; not canonical"
            else:
                jump = (a_l * t + b_l) - (a_r * t + b_r)
                # the slack is never below CONTINUITY_TOL
                if not -CONTINUITY_TOL <= jump <= CONTINUITY_TOL:
                    if not math.isfinite(jump):
                        fault = "bound data must be finite"
                    elif abs(jump) > _continuity_slack(t, a_l, b_l, a_r, b_r):
                        fault = f"discontinuity {jump:g} at breakpoint {t:g}"
    if fault is not None:
        raise ValueError(fault)


@dataclass(frozen=True)
class LogConcavityReport:
    """Concavity verdict for log m: concave iff the slope sequence never increases."""

    is_concave: bool
    first_violation: int | None = None


@dataclass(frozen=True)
class PiecewiseLogAffineBound:
    """A continuous function m > 0 on [0, inf) with piecewise-affine log m.

    Invariants (enforced on construction):
      * breakpoints start at 0 and increase by more than ``_BP_MERGE_TOL``
        (:func:`canonicalize` merges closer ones);
      * adjacent pieces have distinct slopes (canonical form);
      * pieces agree at interior breakpoints to within ``CONTINUITY_TOL``.

    Evaluation is right-continuous at breakpoints.  The constructor checks every
    pair of adjacent pieces; :func:`_walk`, behind both minima, only those it builds.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self) -> None:
        bps, slopes, intercepts = self.breakpoints, self.slopes, self.intercepts
        n = len(bps)
        if n == 0 or len(slopes) != n or len(intercepts) != n:
            raise ValueError("breakpoints, slopes and intercepts must have equal nonzero length")
        if bps[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        _check_pairs(bps, slopes, intercepts)

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

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "intercepts": list(self.intercepts),
        }

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
            t = pieces.pop()[0]  # degenerate width: the later piece wins the shared start
        pieces.append((t, a, b))
    return _canonical(pieces)


def log_concavity(m: PiecewiseLogAffineBound) -> LogConcavityReport:
    """Check whether log m is concave (slopes non-increasing)."""
    for j in range(len(m.slopes) - 1):
        if m.slopes[j + 1] > m.slopes[j]:
            return LogConcavityReport(False, j)
    return LogConcavityReport(True, None)


def _append_joined(pieces: list[tuple[float, float, float]], lo: float, a: float, b: float) -> None:
    """Append (lo, a, b); where a breakpoint or crossing merged within _BP_MERGE_TOL
    left a jump at lo, start it where its line meets the last piece's.  A parallel
    line beyond the continuity slack never meets it, so the last piece goes on and
    nothing is appended.  A last piece at most _BP_MERGE_TOL wide gives up its start
    to it, as in canonicalize, so the starts stay more than _BP_MERGE_TOL apart and
    :func:`_canonical` can finish the pieces.  The same line more than
    _BP_MERGE_TOL later is appended as it is."""
    while pieces:
        t0, a0, b0 = pieces[-1]
        if lo - t0 > _BP_MERGE_TOL:
            if a0 == a and b0 == b:
                break
            jump = abs((a0 * lo + b0) - (a * lo + b))
            if jump <= CONTINUITY_TOL or jump <= _continuity_slack(lo, a0, b0, a, b):
                break
            if a0 == a:
                return
            lo = (b - b0) / (a0 - a)
            if lo - t0 > _BP_MERGE_TOL:
                break
        lo = t0
        pieces.pop()
    pieces.append((lo, a, b))


def _canonical(pieces: list, m: PiecewiseLogAffineBound | None = None, lo=0, rest=0) -> PiecewiseLogAffineBound:
    """The bound of pieces whose starts lie more than _BP_MERGE_TOL apart, as the merges and :func:`canonicalize`'s
    first pass leave them, each run of equal slopes kept from its first piece.  A merge passes m: the pieces up to
    ``lo`` are m's, and m's from ``rest`` on follow as slices of its tuples; only ``lo`` to m's ``rest`` are checked."""
    kept = pieces[: lo + 1]
    kept += (q for p, q in zip(pieces[lo:], pieces[lo + 1 :]) if q[1] != p[1])
    if m is None:
        return PiecewiseLogAffineBound(*zip(*kept))
    bps, slopes, intercepts = zip(*kept)
    rest += rest < len(m.slopes) and m.slopes[rest] == slopes[-1]
    bps, slopes, intercepts = bps + m.breakpoints[rest:], slopes + m.slopes[rest:], intercepts + m.intercepts[rest:]
    hi = len(kept) + 1  # the pieces built and one of m's on either side
    _check_pairs(bps[lo:hi], slopes[lo:hi], intercepts[lo:hi], lo)
    bound = object.__new__(PiecewiseLogAffineBound)
    vars(bound).update(breakpoints=bps, slopes=slopes, intercepts=intercepts)
    return bound


def pointwise_min(m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound) -> PiecewiseLogAffineBound:
    """Pointwise minimum of two bounds, again in canonical form: the fold of
    :func:`~sgbounds.envelope._closure` over its translates.  :func:`_walk` walks m1
    against m2, every piece of m2 a start, so ties go to m1 on equal lines; m1
    itself is returned when m2 is nowhere lower."""
    env = [*zip(m2.breakpoints, m2.slopes, m2.intercepts, [True] * len(m2.slopes)), (math.inf, 0.0, 0.0, True)]
    return _walk(m1, env, m2.breakpoints[-1], min(m2.slopes))


def _cross(hi: tuple[float, float], lo: tuple[float, float]) -> float:
    """The time from which the line ``lo`` of smaller slope lies below ``hi``."""
    return (lo[1] - hi[1]) / (hi[0] - lo[0])


def _insert(live: list[tuple[float, float]], line: tuple[float, float]) -> None:
    """Add ``line`` to ``live``, a lower envelope of lines ``(slope, intercept)``:
    sorted by slope, each strictly lowest somewhere.  The line is dropped if it
    is nowhere lowest, and so is each neighbour it leaves nowhere lowest; of
    two equal slopes the lower intercept stays."""
    if not live:
        live.append(line)
        return
    i = bisect.bisect_left(live, line)
    if i and live[i - 1][0] == line[0] or line in live[i : i + 1]:
        return
    if i < len(live) and live[i][0] == line[0]:
        del live[i]
    if 0 < i < len(live) and _cross(live[i], line) >= _cross(line, live[i - 1]):
        return
    live.insert(i, line)
    while i > 1 and _cross(line, live[i - 1]) >= _cross(live[i - 1], live[i - 2]):
        del live[i - 1]
        i -= 1
    while i + 2 < len(live) and _cross(live[i + 2], live[i + 1]) >= _cross(live[i + 1], line):
        del live[i + 1]


def _expire(live: list[tuple[float, float]], s: float) -> None:
    """Cut the envelope ``live`` to [s, inf): pop the last line while the one
    before it is as low at s.  Along an envelope the values at s fall to the
    lowest line and rise after it, so the last line left is the lowest at s."""
    while len(live) > 1 and live[-2][0] * s + live[-2][1] <= live[-1][0] * s + live[-1][1]:
        live.pop()


def _tail_envelope(
    m: PiecewiseLogAffineBound, order: Sequence[tuple[float, float, float]]
) -> list[tuple[float, float, float, bool]]:
    """The lower envelope of the tails ``order``, sorted by start, each counted
    from its start on, as pieces ``(start, slope, intercept, at_start)``, with
    ``at_start`` True where a piece begins at a tail start.  Each tail's start must
    be at least 0, neither its fields nor its value at a finite start NaN, and it is
    checked against m's piece at its start (see :func:`min_with_tails`).  At each
    start x the live lines are the tails' envelope on [x, inf) (:func:`_insert`,
    :func:`_expire`); the piece at x holds the one lowest there, or the first after
    it whose crossing with the one before rounds to after x, and the lines after it
    begin at their crossings, up to the last that comes more than ``_BP_MERGE_TOL``
    before the next start."""
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    env: list[tuple[float, float, float, bool]] = []
    live: list[tuple[float, float]] = []
    i, count = 0, len(order)
    while i < count:
        x = order[i][0]
        if not x >= 0.0:
            raise ValueError(f"tail {order[i]!r} has a negative time or NaN start")
        k = bisect.bisect_right(bps, x) - 1
        am, bm = slopes[k], intercepts[k]
        while i < count and order[i][0] == x:
            _, at, bt = order[i]
            below = (am * x + bm) - (at * x + bt)
            if not below <= CONTINUITY_TOL:  # a NaN slope, intercept or value at x lands here too
                if math.isnan(at) or math.isnan(bt):
                    raise ValueError(f"tail {order[i]!r} has a NaN field")
                if x < math.inf and math.isnan(at * x + bt):  # inf * 0 or inf - inf
                    raise ValueError(f"tail {order[i]!r} has a NaN value at its start")
                if below > _continuity_slack(x, am, bm, at, bt):
                    raise ValueError(f"tail starts {below:g} below m at t = {x!r}")
            _insert(live, (at, bt))
            i += 1
        _expire(live, x)
        j = len(live) - 1
        while j and _cross(live[j], live[j - 1]) <= x:
            j -= 1
        env.append((x, *live[j], True))
        nxt = order[i][0] - _BP_MERGE_TOL if i < count else math.inf
        while j and (c := _cross(live[j], live[j - 1])) < nxt:
            j -= 1
            env.append((c, *live[j], False))
    return env


def min_with_tails(
    m: PiecewiseLogAffineBound, tails: Sequence[tuple[float, float, float]]
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of m and the lines ``(start, slope, intercept)``, each
    counted only on [start, inf), in canonical form.  Each tail must start on or
    above m, up to the continuity slack, as ``riccati.update_tail``'s do; one that
    starts lower, at a negative time, with a NaN field or NaN at a finite start
    raises ValueError.

    :func:`_tail_envelope` takes the tails' lower envelope L, each tail start a start
    of it, and :func:`_walk` walks m against L.  The result is that of folding
    ``splice(m, pointwise_min(m, tail), start)`` over the tails with :func:`pointwise_min`,
    up to points within ``_BP_MERGE_TOL`` of each other.
    """
    if not tails:
        return m
    order = sorted(tails) if len(tails) > 1 else tails
    env = _tail_envelope(m, order)
    low = env[-1][1]  # the least slope of a line
    env.append((math.inf, 0.0, 0.0, True))
    return _walk(m, env, order[-1][0], low)


def _walk(m: PiecewiseLogAffineBound, env: list, last: float, low: float) -> PiecewiseLogAffineBound:
    """The minimum of m and a function L from L's first start on, in canonical form.
    ``env`` holds L's pieces ``(start, slope, intercept, at_start)`` in order, closed by
    ``(inf, 0.0, 0.0, True)``; L jumps only at flagged starts, none after ``last``.

    At each breakpoint of m and each flagged start the walk takes the lower of m
    and L (ties to the smaller slope, m on equal lines); where L goes on to an
    unflagged piece it keeps its side.  In between both are affine: at most one
    crossing follows, in closed form, clamped to the interval start and dropped
    within ``_BP_MERGE_TOL`` before the next breakpoint of m or flagged start.

    :func:`_append_joined` runs where the minimum switches.  The side taken again at a
    breakpoint of m or a flagged start (m only at a start inside its piece) is appended
    again, as it is if the last piece starts more than ``_BP_MERGE_TOL`` before, so a
    later join that takes over a piece at most that wide stops there.  m's own pieces go
    in as slices of its tuples, only their seams checked, but one starting at most
    ``_BP_MERGE_TOL`` after a join is joined too.  When no line is taken and nothing is
    joined, m is returned.

    The walk ends at the start x of a piece of m with more than 8 left (a test costs
    about as much as walking 8) once x >= ``last``, m is lowest, ``low``, at most every
    slope of L, is at least every slope of m's pieces left (scanned once per walk), and
    L's lines from its piece at x on lie above m at x by a margin: a ``_continuity_slack``
    per breakpoint left, its terms bounded through the largest slope, the last breakpoint
    and the values at x, plus the rounding of the values compared.  Then for t >= x any
    such L, not only an envelope of lines, has L(t) >= their least value at x + ``low``
    (t - x), and m rises no faster but for its jumps, which the margin covers.
    """
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    n = len(bps)
    x, a, b, at = env[0]  # at: x is a flagged start
    k = j0 = bisect.bisect_right(bps, x) - 1  # the piece that holds the first start
    am, bm, end = slopes[k], intercepts[k], bps[k + 1] if k + 1 < n else math.inf
    l, nxt = 0, env[1]  # L's piece at x and the one after it
    pieces: list[tuple[float, float, float]] = []
    run: int | None = 0  # m's pieces from run on are still to be copied; None while a line is lowest
    same = True  # the pieces are m's
    top = bot = None  # m's largest and smallest slope from the first test of the end on
    while True:
        if at or x == bps[k]:  # the lower of m and L at x
            vt, vm = a * x + b, am * x + bm
            if vt < vm or (vt == vm and a < am):
                same = False
                if run is not None:
                    stop = k + (x != bps[k])
                    pieces += zip(bps[run:stop], slopes[run:stop], intercepts[run:stop])
                    _append_joined(pieces, x, a, b)
                    run = None
                elif pieces[-1][1:] == (a, b) and x - pieces[-1][0] > _BP_MERGE_TOL:
                    pieces.append((x, a, b))  # the line again
                else:
                    _append_joined(pieces, x, a, b)
            elif run is None:
                _append_joined(pieces, x, am, bm)
                run = k + 1
            elif at and x != bps[k]:  # m's piece again from a flagged start inside it
                pieces += zip(bps[run : k + 1], slopes[run : k + 1], intercepts[run : k + 1])
                run = k + 1
                if pieces[-1][1:] == (am, bm) and x - pieces[-1][0] > _BP_MERGE_TOL:
                    pieces.append((x, am, bm))
                else:
                    same = False
                    _append_joined(pieces, x, am, bm)
            elif run == k and pieces and not (
                pieces[-1][1:] == (slopes[k - 1], intercepts[k - 1]) and x - pieces[-1][0] > _BP_MERGE_TOL
            ):
                same = False  # m's piece k starts at most _BP_MERGE_TOL after a join
                _append_joined(pieces, x, am, bm)
                run = k + 1
            elif low >= am and n - k > 8 and last <= x and vt > vm:  # the walk may end: see the docstring
                if top is None:
                    top, bot = max(slopes[k:]), min(slopes[k:])
                if low >= top:
                    values = [a2 * x + b2 for _, a2, b2, _ in reversed(env[l:-1])]
                    span = max(-bot, a) * bps[-1] + abs(vm) + sum(map(abs, values))
                    if min(values) - vm > (n - k + 1) * (CONTINUITY_TOL + 4e-15 * span):
                        break
        elif run is None:  # L goes on to its next line
            _append_joined(pieces, x, a, b)
        e = nxt[0] if nxt[0] < end else end  # [x, e[ ends at m's next breakpoint or L's next piece
        cut = e - _BP_MERGE_TOL if e == end or nxt[3] else e  # no margin before a crossing of L
        if (am < a if run is None else a < am) and (tc := max((bm - b) / (a - am), x)) < cut:
            if run is None:
                _append_joined(pieces, tc, am, bm)
                run = k + 1
            else:
                same = False
                pieces += zip(bps[run : k + 1], slopes[run : k + 1], intercepts[run : k + 1])
                _append_joined(pieces, tc, a, b)
                run = None
        x, at = e, False
        if e == end:
            k += 1
            if k == n:
                break
            am, bm, end = slopes[k], intercepts[k], bps[k + 1] if k + 1 < n else math.inf
        if nxt[0] == e:
            l += 1
            _, a, b, at = nxt
            nxt = env[l + 1]
    if same:
        return m
    # m's pieces before the first start but the last two go in unchecked if the one before them still starts with
    # its breakpoint, the same float object, at its index: a join that reached back there cannot leave it
    lo = j0 - 2 if 1 < j0 <= len(pieces) and pieces[j0 - 1][0] is bps[j0 - 1] else 0
    return _canonical(pieces, m, lo, n if run is None else run)


def splice(
    left: PiecewiseLogAffineBound, right: PiecewiseLogAffineBound, t: float
) -> PiecewiseLogAffineBound:
    """Bound equal to ``left`` on [0, t[ and to ``right`` on [t, inf).

    The two sides must agree at t up to the continuity tolerance.  It is the tests'
    pairwise reference for one update, is traced by name in ``perfbench/spans.py``,
    and moves to the tests once the tracer drops it.
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
