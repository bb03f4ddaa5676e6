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
    "allclose",
    "canonicalize",
    "log_concavity",
    "min_with_tails",
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
      * breakpoints start at 0 and increase by more than ``_BP_MERGE_TOL``
        (:func:`canonicalize` merges closer ones);
      * adjacent pieces have distinct slopes (canonical form);
      * pieces agree at interior breakpoints to within ``CONTINUITY_TOL``.

    Evaluation is right-continuous at breakpoints.
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
        # one walk over adjacent pieces: an order or gap fault anywhere is
        # reported first, then a value that is not finite, then the first
        # slope or continuity fault
        finite = math.isfinite(slopes[-1]) and math.isfinite(intercepts[-1])
        fault = None
        pairs = zip(bps, bps[1:], slopes, intercepts, slopes[1:], intercepts[1:])
        for j, (s, t, a_l, b_l, a_r, b_r) in enumerate(pairs):
            if not t - s > _BP_MERGE_TOL:
                if not s < t:
                    raise ValueError("breakpoints must increase strictly")
                raise ValueError(f"breakpoints {s!r} and {t!r} lie within {_BP_MERGE_TOL:g}; not canonical")
            if not (math.isfinite(t) and math.isfinite(a_l) and math.isfinite(b_l)):
                finite = False
            elif fault is None:
                if a_l == a_r:
                    fault = f"adjacent pieces {j}, {j+1} share a slope; not canonical"
                else:
                    left, right = a_l * t + b_l, a_r * t + b_r
                    if abs(left - right) > _continuity_slack(t, a_l, b_l, a_r, b_r):
                        fault = f"discontinuity {left - right:g} at breakpoint {t:g}"
        if not finite:
            raise ValueError("bound data must be finite")
        if fault is not None:
            raise ValueError(fault)

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
    left a jump at lo, start it where its line meets the last piece's.  A parallel
    line beyond the continuity slack never meets it, so the last piece goes on and
    nothing is appended.  A last piece at most _BP_MERGE_TOL wide gives up its start
    to it, as in canonicalize."""
    while pieces:
        t0, a0, b0 = pieces[-1]
        if lo - t0 > _BP_MERGE_TOL:
            if a0 == a and b0 == b or abs((a0 * lo + b0) - (a * lo + b)) <= _continuity_slack(lo, a0, b0, a, b):
                break
            if a0 == a:
                return
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


def _cross(hi: tuple[float, float], lo: tuple[float, float]) -> float:
    """The time from which the line ``lo`` of smaller slope lies below ``hi``."""
    return (lo[1] - hi[1]) / (hi[0] - lo[0])


def _insert(live: list[tuple[float, float]], line: tuple[float, float]) -> None:
    """Add ``line`` to ``live``, a lower envelope of lines ``(slope, intercept)``:
    sorted by slope, each strictly lowest somewhere.  The line is dropped if it
    is nowhere lowest, and so is each neighbour it leaves nowhere lowest; of
    two equal slopes the lower intercept stays."""
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


def _with_own_pieces(
    pieces: list[tuple[float, float, float]] | None, m: PiecewiseLogAffineBound, s: float, start: int, stop: int
) -> list[tuple[float, float, float]]:
    """``pieces``, the sweep's pieces of m and a line from s on, with m's own
    pieces ``start`` to ``stop - 1`` added as the sweep adds them.  Before the
    line is first taken ``pieces`` is None, ``start`` is the piece that holds s,
    and the sweep's pieces of m up to s come first."""
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    if pieces is None:
        j, start = start, start + (s != bps[start])
        pieces = list(zip(bps[:start], slopes[:start], intercepts[:start]))
        if start > j and stop > j:
            pieces.append((s, slopes[j], intercepts[j]))  # m's piece at s
    # a piece of m more than _BP_MERGE_TOL after m's piece before it passes
    # _append_joined unchanged, as its check is the constructor's
    while start < stop and not (
        pieces
        and pieces[-1][1:] == (slopes[start - 1], intercepts[start - 1])
        and bps[start] - pieces[-1][0] > _BP_MERGE_TOL
    ):
        _append_joined(pieces, bps[start], slopes[start], intercepts[start])
        start += 1
    pieces.extend(zip(bps[start:stop], slopes[start:stop], intercepts[start:stop]))
    return pieces


def _min_with_line(
    m: PiecewiseLogAffineBound, s: float, at: float, bt: float
) -> PiecewiseLogAffineBound | None:
    """The sweep of m and the one tail ``(s, at, bt)`` as one walk over m's pieces
    from s (see :func:`min_with_tails`), or None for a start it leaves to the
    sweep.  Each comparison, and each join where the minimum switches, is the
    sweep's own; m's own pieces in between are copied."""
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    n = len(bps)
    j = m.piece_index(s)
    am, bm = slopes[j], intercepts[j]
    below = (am * s + bm) - (at * s + bt)
    if below > CONTINUITY_TOL and below > _continuity_slack(s, am, bm, at, bt):
        raise ValueError(f"tail starts {below:g} below m at t = {s!r}")
    if s != bps[j] and (s - bps[j] <= _BP_MERGE_TOL or j + 1 < n and bps[j + 1] - s <= _BP_MERGE_TOL):
        return None
    pieces = None  # the sweep's pieces, once it takes the line
    run: int | None = j  # m's own pieces from run on are still to come; None on the line
    for k in range(j, n):
        x = bps[k] if k > j else s
        e = bps[k + 1] if k + 1 < n else math.inf
        am, bm = slopes[k], intercepts[k]
        vt, vm = at * x + bt, am * x + bm
        if vt < vm or (vt == vm and at < am):
            if run is not None:
                pieces = _with_own_pieces(pieces, m, s, run, k)
            _append_joined(pieces, x, at, bt)
            run = None
        elif run is None:
            _append_joined(pieces, x, am, bm)
            run = k + 1
        # at most one crossing, to the line of smaller slope
        if run is None:
            if am < at:
                tc = max((bm - bt) / (at - am), x)
                if tc < e - _BP_MERGE_TOL:
                    _append_joined(pieces, tc, am, bm)
                    run = k + 1
        elif at < am:
            tc = max((bt - bm) / (am - at), x)
            if tc < e - _BP_MERGE_TOL:
                pieces = _with_own_pieces(pieces, m, s, run, k + 1)
                _append_joined(pieces, tc, at, bt)
                run = None
    if pieces is None:
        return m
    if run is not None:
        pieces = _with_own_pieces(pieces, m, s, run, n)
    return canonicalize(*zip(*pieces))


def min_with_tails(
    m: PiecewiseLogAffineBound, tails: Sequence[tuple[float, float, float]]
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of m and the lines ``(start, slope, intercept)``, each
    counted only on [start, inf), in canonical form.  Each tail must start on or
    above m, up to the continuity slack, as ``riccati.update_tail``'s do; one that
    starts lower raises ValueError.

    One sweep over the breakpoints of m and the tail starts, keeping the tails'
    lower envelope on [s, inf) for each interval start s, the last line lowest
    at s.  Each interval starts from the lower of m and that line and moves on
    to the line of smaller slope whose crossing comes first; ties go to the
    smaller slope, and m wins ties between equal lines.  A crossing that rounds
    to before the current point takes effect there, never decided again by
    value, so each move lowers the slope and the walk ends.  As in
    :func:`pointwise_min`, crossings within ``_BP_MERGE_TOL`` of an interval's
    end are dropped and pieces are joined where they meet.  The result is that
    of folding ``splice(m, pointwise_min(m, tail), start)`` over the tails with
    :func:`pointwise_min`, up to points within ``_BP_MERGE_TOL`` of each other.

    m's pieces before the first tail start are copied as they are: as m's
    breakpoints lie more than ``_BP_MERGE_TOL`` apart, the constructor's
    continuity check is the one :func:`_append_joined` makes, so they would
    pass it unchanged.  When the sweep takes no tail line and joins no piece,
    the result is m, and m itself is returned.

    One tail ``(s, at, bt)`` is not swept but walked, with the sweep's own
    comparisons: from the piece of m that holds s, each interval [x, e[ across
    m's later breakpoints starts from the line if it is below m's piece at x,
    or tied there at a smaller slope, and switches to the other one at most
    once, where the two meet (or at x if that rounds before it), unless that is
    not before e - ``_BP_MERGE_TOL``.  :func:`_append_joined` runs only where
    the minimum switches and for the line at each interval start where it is
    taken again.  m's own pieces in between are copied, as before the first
    start: each one that follows m's piece before it by more than
    ``_BP_MERGE_TOL`` would pass :func:`_append_joined` unchanged.  So the
    pieces are the sweep's.  A line never taken returns m itself; otherwise
    the pieces go through :func:`canonicalize` as the sweep's do.  One input
    goes to the sweep instead: a start that is not a breakpoint of m but lies
    within ``_BP_MERGE_TOL`` of one.
    """
    if not tails:
        return m
    if len(tails) == 1:
        walked = _min_with_line(m, *tails[0])
        if walked is not None:
            return walked
    order = sorted(tails)
    bps = m.breakpoints
    i = bisect.bisect_left(bps, order[0][0])  # m's pieces before the first start
    pieces: list[tuple[float, float, float]] = list(zip(bps[:i], m.slopes[:i], m.intercepts[:i]))
    base = sorted({*bps[i:], *(tail[0] for tail in order)})
    live: list[tuple[float, float]] = []  # the tails' lower envelope on [s, inf)
    n = len(bps)
    j, k = max(i - 1, 0), 0
    took_tail = False
    for s, e in zip(base, [*base[1:], math.inf]):
        # base holds the breakpoints of m from its first point on, so none lies inside [s, e[
        while j + 1 < n and bps[j + 1] <= s:
            j += 1
        am, bm = m.slopes[j], m.intercepts[j]
        while k < len(order) and order[k][0] <= s:
            _, at, bt = order[k]  # s is this tail's start
            below = (am * s + bm) - (at * s + bt)
            if below > CONTINUITY_TOL and below > _continuity_slack(s, am, bm, at, bt):
                raise ValueError(f"tail starts {below:g} below m at t = {s!r}")
            _insert(live, (at, bt))
            k += 1
        _expire(live, s)
        a, b = am, bm
        if live:
            at, bt = live[-1]
            vt, vm = at * s + bt, am * s + bm
            if vt < vm or (vt == vm and at < am):
                a, b = at, bt
                took_tail = True
        x = s
        while True:
            _append_joined(pieces, x, a, b)
            # the next line is the one of smaller slope whose crossing comes
            # first; tails are scanned by slope, so the first of tied crossings
            # has the smaller slope
            best, nxt = e - _BP_MERGE_TOL, None
            for a2, b2 in live:
                if a2 >= a:
                    break
                tc = (b2 - b) / (a - a2)
                if tc < x:
                    tc = x
                if tc < best:
                    best, nxt = tc, (a2, b2)
            if am < a:
                tc = max((bm - b) / (a - am), x)
                if tc < best or (nxt is not None and tc == best and am < nxt[0]):
                    best, nxt = tc, (am, bm)
            if nxt is None:
                break
            x, (a, b) = best, nxt
            took_tail = True
    if not took_tail and len(pieces) == i + len(base):
        # every piece is m's line from a start of its own, each more than
        # _BP_MERGE_TOL after the one before: canonicalize would merge them back to m
        return m
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

