"""Shared generators for randomized and property-based tests."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from sgbounds import GridBound, OmegaSet, PiecewiseLogAffineBound, ResolventProfile, first_crossing_time
from sgbounds.bounds import _BP_MERGE_TOL, _append_joined, _canonical
from sgbounds.models import diffop_rate
from sgbounds.riccati import update_tail


# a start, the shift model's profile with 20 abscissas, h, max_steps and the
# envelope, whose step-1 bound has 20 tails through nearly one point at t = 1;
# iterate repeats the step that merged them instead of merging them again
NEAR_ONE_POINT = (
    PiecewiseLogAffineBound((0.0, 0.5), (1e-10, 1.0), (0.0, -0.49999999995)),
    (
        ResolventProfile(fn=diffop_rate),
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 1.25, 1.75, 1.875, 2.5, 0.5, 0.75, 0.625, 0.25, 0.125]
        + [0.1875, 0.0625, 0.03125, 0.015625],
    ),
    0.05,
    3,
    True,
)


def _merged_breakpoints(m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound) -> list[float]:
    pts: list[float] = []
    for t in sorted((*m1.breakpoints, *m2.breakpoints)):
        if not pts or t - pts[-1] > _BP_MERGE_TOL:
            pts.append(t)
    return pts


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


def _probe(s: float, e: float) -> float:
    return s + (min(1.0, e - s) * 0.5 if math.isfinite(e) else 1.0)


def probe_min(m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound) -> PiecewiseLogAffineBound:
    """The tests' oracle for the pointwise minimum of two bounds: a sweep over the
    merged breakpoints that picks the lower piece at a probe inside each interval,
    not the walk of ``bounds._walk`` that ``pointwise_min`` and ``min_with_tails`` run.

    Breakpoints of the result are the union of the inputs' breakpoints plus
    the crossing points of overlapping affine pieces, computed in closed form.
    When the two pieces coincide on an interval the piece of ``m1`` is kept,
    which makes the operation deterministic.  The result takes one sweep over
    the merged breakpoints, with one piece index per input that only moves right.
    """
    base: list[float] = []
    for t in sorted((*m1.breakpoints, *m2.breakpoints)):
        if not base or t - base[-1] > _BP_MERGE_TOL:
            base.append(t)
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
    return _canonical(pieces)


def pairs_and_crossings(m, omegas, profile):
    """The (pairs, crossings) that ``argmin_abscissas`` takes for m over the sorted
    distinct abscissas: the rates of one ``profile.pairs`` call, as
    ``iterate`` takes them, and one crossing walk each."""
    pairs = profile.pairs(OmegaSet.of(omegas))
    return pairs, [first_crossing_time(m, pair) for pair in pairs]


def update_tails(m, omegas, profile):
    """The tails that ``min_update`` takes for m over the sorted distinct abscissas,
    one ``update_tail`` per pair of :func:`pairs_and_crossings`."""
    return [update_tail(m, pair, c) for pair, c in zip(*pairs_and_crossings(m, omegas, profile))]


def random_log_concave_bound(rng: np.random.Generator, max_pieces: int = 4) -> PiecewiseLogAffineBound:
    """A normalized bound with concave piecewise-affine log (slopes strictly decreasing)."""
    n = int(rng.integers(1, max_pieces + 1))
    slopes = [float(rng.uniform(-1.5, 2.0))]
    for _ in range(n - 1):
        slopes.append(slopes[-1] - float(rng.uniform(0.1, 1.5)))
    breakpoints = np.cumsum(rng.uniform(0.3, 3.0, size=n - 1)).tolist()
    return PiecewiseLogAffineBound.from_slopes(slopes, breakpoints)


def random_bound(rng: np.random.Generator, max_pieces: int = 4, normalized: bool = True) -> PiecewiseLogAffineBound:
    """A normalized bound with arbitrary (possibly non-concave) slope sequence."""
    n = int(rng.integers(1, max_pieces + 1))
    slopes = [float(rng.uniform(-2.0, 2.0))]
    for _ in range(n - 1):
        step = float(rng.uniform(0.1, 1.5)) * (1 if rng.random() < 0.5 else -1)
        slopes.append(slopes[-1] + step)
    breakpoints = np.cumsum(rng.uniform(0.3, 3.0, size=n - 1)).tolist()
    start = 0.0 if normalized else float(rng.uniform(-1.0, 1.0))
    return PiecewiseLogAffineBound.from_slopes(slopes, breakpoints, start)


def random_lattice_grid(rng: np.random.Generator, max_len: int = 12) -> GridBound:
    """Grid values on the dyadic lattice 0.25 * Z, so sums and minima are exact."""
    n = int(rng.integers(2, max_len + 1))
    values = (0.25 * rng.integers(-8, 9, size=n + 1)).tolist()
    values[0] = 0.0
    return GridBound(0.5, tuple(values))


def chain_profile(rng: np.random.Generator, n: int) -> tuple[ResolventProfile, float, float]:
    """A tabulated profile (positive, non-decreasing, 1-Lipschitz rates) and its
    first and last abscissas."""
    omegas = np.unique(np.round(np.sort(rng.uniform(-3.0, 3.0, size=n)), 9)).tolist()
    rates = [rng.uniform(0.05, 0.5)]
    for w0, w1 in zip(omegas, omegas[1:]):
        rates.append(rates[-1] + rng.uniform(0.0, 0.9) * (w1 - w0))
    return ResolventProfile.tabulated(list(zip(omegas, map(float, rates)))), omegas[0], omegas[-1]


@st.composite
def bounds_strategy(draw, max_pieces: int = 4):
    """Canonical normalized bounds with well-separated slopes and breakpoints."""
    n = draw(st.integers(1, max_pieces))
    slopes = [draw(st.floats(-3.0, 3.0, allow_nan=False))]
    for _ in range(n - 1):
        step = draw(st.floats(0.01, 2.0)) * (1 if draw(st.booleans()) else -1)
        slopes.append(slopes[-1] + step)
    widths = [draw(st.floats(0.05, 5.0)) for _ in range(n - 1)]
    breakpoints = list(np.cumsum(widths)) if widths else []
    return PiecewiseLogAffineBound.from_slopes(slopes, breakpoints)


@st.composite
def lattice_bounds_strategy(draw, max_pieces: int = 4):
    """Bounds with dyadic slopes and breakpoints, pairwise separation built in.

    On this lattice distinct crossing points stay far apart (and far from
    breakpoints) unless exactly equal, so algebraic identities of the min can
    be asserted bitwise; exact ties and coincident crossings still occur.
    """
    n = draw(st.integers(1, max_pieces))
    slopes = [draw(st.integers(-96, 96)) / 32.0]
    for _ in range(n - 1):
        step = draw(st.integers(1, 64)) / 32.0 * (1 if draw(st.booleans()) else -1)
        slopes.append(slopes[-1] + step)
    widths = [draw(st.integers(1, 40)) / 8.0 for _ in range(n - 1)]
    breakpoints = list(np.cumsum(widths)) if widths else []
    return PiecewiseLogAffineBound.from_slopes(slopes, breakpoints)
