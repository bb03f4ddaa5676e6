"""The one-sweep set update against the pairwise route it replaces.

The oracle builds each single update as ``splice(m, pointwise_min(m, tail),
start)`` and folds the updates with ``pointwise_min``.  On the shapes the
benchmark workloads draw, the sweep must agree bit for bit; on arbitrary
starts and on tails placed to hit the sweep's tie and merge rules it must
agree to 1e-12 in log scale.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from conftest import chain_profile, random_bound, random_log_concave_bound
from sgbounds import (
    OmegaSet,
    PiecewiseLogAffineBound,
    allclose,
    first_crossing_time,
    iterate,
    min_update,
    pointwise_min,
    splice,
    update_bound,
    update_chain,
)
from sgbounds.bounds import _BP_MERGE_TOL, min_with_tails
from sgbounds.models import diffop_profile
from sgbounds.riccati import update_tail

DIFFOP = diffop_profile()


def line(slope: float, intercept: float) -> PiecewiseLogAffineBound:
    return PiecewiseLogAffineBound((0.0,), (slope,), (intercept,))


def pairwise_min_with_tails(m, tails):
    updates = [splice(m, pointwise_min(m, line(a, b)), start) for start, a, b in tails]
    return functools.reduce(pointwise_min, updates) if updates else m


def pairwise_update(m, pair):
    tail = update_tail(m, pair, first_crossing_time(m, pair))
    return m if tail is None else pairwise_min_with_tails(m, [tail])


def pairwise_min_update(m, omegas, profile):
    return functools.reduce(pointwise_min, [pairwise_update(m, profile.pair(w)) for w in omegas])


# -- the shapes of the benchmark's generators -----------------------------------


def shift_start(rng, family):
    """Concave; flat then a rise ("rise"); flat then a random walk of slopes ("bumpy")."""
    pieces = int(rng.integers(4, 9))
    if family == "concave":
        slopes = [rng.uniform(0.8, 1.6)]
        for _ in range(pieces - 1):
            slopes.append(slopes[-1] - rng.uniform(0.1, 1.2))
        bps = np.cumsum(rng.uniform(0.2, 2.5, size=pieces - 1))
    else:
        slopes = [rng.uniform(0.0, 0.3), rng.uniform(0.6, 1.5)]
        for _ in range(pieces - 2):
            if family == "rise":
                slopes.append(rng.uniform(0.1, 3.0))
            else:
                step = rng.uniform(0.2, 1.5)
                slopes.append(slopes[-1] + (step if rng.random() < 0.3 else -step))
        first = rng.uniform(0.1, 0.5) if family == "rise" else rng.uniform(1.0, 2.0)
        bps = first + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, size=pieces - 2))])
    return PiecewiseLogAffineBound.from_slopes([float(a) for a in slopes], bps.tolist())


def chain_start(rng):
    pieces = int(rng.integers(3, 21))
    slopes = [rng.uniform(-1.0, 2.0)]
    for _ in range(pieces - 1):
        slopes.append(slopes[-1] - rng.uniform(0.05, 0.8))
    bps = np.cumsum(rng.uniform(0.1, 1.5, size=pieces - 1)).tolist()
    return PiecewiseLogAffineBound.from_slopes([float(a) for a in slopes], bps)


@pytest.mark.parametrize("family", ["concave", "rise", "bumpy"])
def test_shift_shapes_match_bit_for_bit(family):
    rng = np.random.default_rng(["concave", "rise", "bumpy"].index(family) + 101)
    for _ in range(6):
        m = shift_start(rng, family)
        omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=40).tolist())
        assert min_update(m, omegas, DIFFOP) == pairwise_min_update(m, omegas, DIFFOP)
        for w in list(omegas)[::5]:
            assert update_bound(m, DIFFOP.pair(w)) == pairwise_update(m, DIFFOP.pair(w))


def test_grid_interpolant_matches_bit_for_bit():
    # a rising start is not subadditive, so the envelope changes the grid and
    # the iteration continues from the interpolant of 1000 grid values
    rng = np.random.default_rng(107)
    m0 = shift_start(rng, "rise")
    omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=60).tolist())
    interpolant = iterate(m0, omegas, DIFFOP, 1, (0.05, 1000)).steps[1].bound
    assert len(interpolant.breakpoints) >= 500
    assert min_update(interpolant, omegas, DIFFOP) == pairwise_min_update(interpolant, omegas, DIFFOP)


def test_chain_shapes_match_bit_for_bit():
    rng = np.random.default_rng(109)
    for _ in range(8):
        profile, lo, hi = chain_profile(rng, 60)
        m = chain_start(rng)
        omegas = rng.uniform(lo, hi, size=30).tolist()
        assert min_update(m, OmegaSet.of(omegas), profile) == pairwise_min_update(m, omegas, profile)
        cur = m
        for w in omegas:
            expected = pairwise_update(cur, profile.pair(w))
            assert update_bound(cur, profile.pair(w)) == expected
            cur = expected
        assert update_chain(m, omegas, profile) == cur


# -- arbitrary starts and tails aimed at the sweep's rules ---------------------


def test_random_starts_agree():
    rng = np.random.default_rng(113)
    profile, lo, hi = chain_profile(rng, 40)
    for k in range(60):
        m = random_bound(rng, 8) if k % 2 else random_log_concave_bound(rng, 8)
        for prof, (a, b) in ((DIFFOP, (-3.0, 3.0)), (profile, (lo, hi))):
            omegas = OmegaSet.of(rng.uniform(a, b, size=int(rng.integers(1, 30))).tolist())
            assert allclose(min_update(m, omegas, prof), pairwise_min_update(m, omegas, prof), 1e-12)
            pair = prof.pair(omegas.values[0])
            assert allclose(update_bound(m, pair), pairwise_update(m, pair), 1e-12)


def valid_start(rng, m, slope, intercept, before):
    """A random start in [0, before) at which the line lies on or above m, or None."""
    ts = [t for t in np.linspace(0.0, before, 200, endpoint=False) if slope * t + intercept >= m.log_at(t)]
    return float(ts[int(rng.integers(len(ts)))]) if ts else None


def test_three_tails_through_one_point():
    rng = np.random.default_rng(127)
    checked = 0
    for k in range(80):
        m = random_bound(rng, 6) if k % 2 else random_log_concave_bound(rng, 6)
        p = float(rng.uniform(1.0, 8.0))
        value = m.log_at(p) - float(rng.uniform(0.0, 1.0))
        tails = []
        for slope in rng.uniform(-4.0, 1.0, size=3):
            start = valid_start(rng, m, slope, value - slope * p, p)
            if start is not None:
                tails.append((start, float(slope), value - slope * p))
        if len(tails) == 3:
            checked += 1
            assert allclose(min_with_tails(m, tails), pairwise_min_with_tails(m, tails), 1e-12)
    assert checked >= 20


def test_parallel_tails():
    rng = np.random.default_rng(131)
    checked = 0
    for k in range(60):
        m = random_bound(rng, 6) if k % 2 else random_log_concave_bound(rng, 6)
        slope = float(rng.uniform(-3.0, 0.5))
        tails = []
        for intercept in m.log_at(2.0) - 2.0 * slope + rng.uniform(-1.0, 1.0, size=3):
            start = valid_start(rng, m, slope, float(intercept), 6.0)
            if start is not None:
                tails.append((start, slope, float(intercept)))
        if len(tails) >= 2:
            checked += 1
            assert allclose(min_with_tails(m, tails), pairwise_min_with_tails(m, tails), 1e-12)
    assert checked >= 20


def test_tail_starts_within_the_merge_tolerance_of_breakpoints():
    rng = np.random.default_rng(137)
    checked = 0
    for k in range(300):
        m = random_bound(rng, 8) if k % 2 else random_log_concave_bound(rng, 8)
        if len(m.breakpoints) < 2:
            continue
        tails = []
        for j in rng.permutation(np.arange(1, len(m.breakpoints)))[:3]:
            start = m.breakpoints[int(j)] + float(rng.uniform(-1.0, 1.0)) * _BP_MERGE_TOL
            slope = float(rng.uniform(-3.0, 1.0))
            tails.append((start, slope, m.log_at(start) - slope * start + float(rng.uniform(0.0, 1e-13))))
        got = min_with_tails(m, tails)
        for t in rng.uniform(0.0, m.breakpoints[-1] + 5.0, size=100):
            if min(abs(t - start) for start, _, _ in tails) > 1e-9:
                exact = min([m.log_at(t), *(a * t + b for start, a, b in tails if t >= start)])
                assert abs(got.log_at(t) - exact) <= 1e-12
        try:
            expected = pairwise_min_with_tails(m, tails)
        except ValueError:
            continue  # the pairwise route leaves a jump it cannot store
        checked += 1
        assert allclose(got, expected, 1e-12)
    assert checked >= 150


def test_tails_above_m_leave_it_unchanged():
    m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [2.0])
    assert min_with_tails(m, []) is m
    assert min_with_tails(m, [(5.0, 0.0, 100.0), (1.0, 2.0, 0.5)]) == m
