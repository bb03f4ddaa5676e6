"""Shared generators for randomized and property-based tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from sgbounds import GridBound, OmegaSet, PiecewiseLogAffineBound, ResolventProfile, first_crossing_time


def pairs_and_crossings(m, omegas, profile):
    """The (pairs, crossings) that ``min_update`` and ``argmin_abscissas`` take for m
    over the sorted distinct abscissas, one rate and one crossing walk each."""
    pairs = [profile.pair(w) for w in OmegaSet.of(omegas)]
    return pairs, [first_crossing_time(m, pair) for pair in pairs]


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
