"""The one-sweep set update against the pairwise route it replaces.

The oracle builds each single update as ``splice(m, pointwise_min(m, tail),
start)`` and folds the updates with ``pointwise_min``.  On the shapes the
benchmark workloads draw, the sweep must agree bit for bit; on arbitrary
starts and on tails placed to hit the sweep's tie and merge rules it must
agree to 1e-12 in log scale.  The tails' lower envelope the sweep keeps is
checked on its own against a brute-force one in exact arithmetic.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_profile, pairs_and_crossings, random_bound, random_log_concave_bound
from sgbounds import (
    OmegaSet,
    PiecewiseLogAffineBound,
    ResolventProfile,
    allclose,
    first_crossing_time,
    iterate,
    min_update,
    pointwise_min,
    splice,
    update_bound,
    update_chain,
)
from sgbounds.bounds import _BP_MERGE_TOL, _expire, _insert, min_with_tails
from sgbounds.models import diffop_rate
from sgbounds.riccati import update_tail

DIFFOP = ResolventProfile(fn=diffop_rate)


def line(slope: float, intercept: float) -> PiecewiseLogAffineBound:
    return PiecewiseLogAffineBound((0.0,), (slope,), (intercept,))


def pairwise_min_with_tails(m, tails):
    updates = [splice(m, pointwise_min(m, line(a, b)), start) for start, a, b in tails]
    return functools.reduce(pointwise_min, updates) if updates else m


def pairwise_update(m, pair):
    tail = update_tail(m, pair, first_crossing_time(m, pair))
    return m if tail is None else pairwise_min_with_tails(m, [tail])


def pairwise_min_update(m, omegas, profile):
    """The pairwise route on the rates of one ``profile.pairs`` call, as the sweep gets them."""
    return functools.reduce(pointwise_min, [pairwise_update(m, pair) for pair in profile.pairs(omegas)])


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
def test_workload_size_matches_bit_for_bit(family):
    # 200 abscissas in [-5, 5], as the benchmark draws them: here most tails
    # are nowhere lowest and leave the envelope at once; the second update
    # starts from the first one's many pieces
    rng = np.random.default_rng(["concave", "rise", "bumpy"].index(family) + 151)
    m = shift_start(rng, family)
    omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=200).tolist())
    for _ in range(2):
        expected = pairwise_min_update(m, omegas, DIFFOP)
        assert min_update(m, *pairs_and_crossings(m, omegas, DIFFOP)) == expected
        m = expected


@pytest.mark.parametrize("family", ["concave", "rise", "bumpy"])
def test_shift_shapes_match_bit_for_bit(family):
    rng = np.random.default_rng(["concave", "rise", "bumpy"].index(family) + 101)
    for _ in range(6):
        m = shift_start(rng, family)
        omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=40).tolist())
        assert min_update(m, *pairs_and_crossings(m, omegas, DIFFOP)) == pairwise_min_update(m, omegas, DIFFOP)
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
    expected = pairwise_min_update(interpolant, omegas, DIFFOP)
    assert min_update(interpolant, *pairs_and_crossings(interpolant, omegas, DIFFOP)) == expected


def test_chain_shapes_match_bit_for_bit():
    rng = np.random.default_rng(109)
    for _ in range(8):
        profile, lo, hi = chain_profile(rng, 60)
        m = chain_start(rng)
        omegas = rng.uniform(lo, hi, size=30).tolist()
        assert min_update(m, *pairs_and_crossings(m, omegas, profile)) == pairwise_min_update(m, omegas, profile)
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
            got = min_update(m, *pairs_and_crossings(m, omegas, prof))
            assert allclose(got, pairwise_min_update(m, omegas, prof), 1e-12)
            pair = prof.pair(omegas.values[0])
            assert allclose(update_bound(m, pair), pairwise_update(m, pair), 1e-12)


def lattice_start(rng, pieces):
    """A normalized bound with slopes and breakpoints on 0.25 * Z, so all its values there are exact."""
    bps = (0.25 * np.cumsum(rng.integers(1, 8, size=pieces - 1))).tolist()
    return PiecewiseLogAffineBound.from_slopes((0.25 * rng.integers(-8, 9, size=pieces)).tolist(), bps)


def test_lattice_starts_agree():
    # tails on the same lattice, each on or above m at its start: equal slopes,
    # equal starts and three tails through one point all occur
    rng = np.random.default_rng(157)
    for _ in range(12):
        m = lattice_start(rng, int(rng.integers(1, 31)))
        tails = []
        for _ in range(int(rng.integers(50, 201))):
            start = 0.25 * float(rng.integers(0, 4 * m.breakpoints[-1] + 12))
            slope = 0.25 * float(rng.integers(-16, 9))
            tails.append((start, slope, m.log_at(start) - slope * start + 0.25 * float(rng.integers(0, 3))))
        assert allclose(min_with_tails(m, tails), pairwise_min_with_tails(m, tails), 1e-12)


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


# -- the tails' lower envelope -------------------------------------------------


def lowest_somewhere(lines, t):
    """The distinct lines strictly lowest on some sub-interval of [t, inf), by
    slope, in exact arithmetic: between two successive crossings at or after t
    the order of the lines is fixed, so one probe inside each gap decides."""
    lines = sorted({(Fraction(a), Fraction(b)) for a, b in lines})
    cuts = {Fraction(t)}
    cuts.update((b2 - b1) / (a1 - a2) for (a1, b1), (a2, b2) in combinations(lines, 2) if a1 != a2)
    cuts = sorted(c for c in cuts if c >= t)
    kept = set()
    for p in [(x + y) / 2 for x, y in zip(cuts, cuts[1:])] + [cuts[-1] + 1]:
        values = sorted((a * p + b, (a, b)) for a, b in lines)
        if len(values) == 1 or values[0][0] < values[1][0]:
            kept.add(values[0][1])
    return [(float(a), float(b)) for a, b in sorted(kept)]


# slopes and intercepts on a small dyadic lattice, some lines through a few
# shared points: crossings are exact quotients, far apart unless equal, so
# float comparisons decide them exactly, and three lines meet in one point often
lattice_slopes = st.integers(-8, 8).map(lambda k: k / 4)
shared_points = st.sampled_from([(2.0, 0.5), (4.0, 0.0), (6.0, -1.0)])
lattice_lines = st.tuples(lattice_slopes, st.integers(-12, 12).map(lambda k: k / 4)) | st.builds(
    lambda a, point: (a, point[1] - a * point[0]), lattice_slopes, shared_points
)
envelope_steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), st.lists(lattice_lines, max_size=5)), max_size=10
)


def check_envelope(steps):
    """Advance t by each step's dt, insert its lines, expire at t, and compare
    the envelope with the brute-force one of every line so far."""
    live, seen, t = [], [], 0.0
    for dt, lines in steps:
        t += dt
        for line in lines:
            _insert(live, line)
        _expire(live, t)
        seen += lines
        assert live == (lowest_somewhere(seen, t) if seen else [])
        if live:
            assert live[-1][0] * t + live[-1][1] == min(a * t + b for a, b in seen)


@settings(max_examples=200, deadline=None)
@given(envelope_steps)
def test_envelope_keeps_the_lines_lowest_somewhere(steps):
    check_envelope(steps)


@pytest.mark.parametrize("lines", list(permutations([(0.0, 0.0), (0.5, -2.0), (1.0, -4.0)])))
def test_envelope_drops_the_middle_of_three_lines_through_one_point(lines):
    # the three lines meet at (4, 0); the middle one is lowest only there
    check_envelope([(0.0, list(lines)), (2.0, []), (2.0, []), (2.0, [])])


def test_envelope_keeps_the_lower_of_equal_slopes():
    lines = [(0.5, 1.0), (-1.0, 2.0), (0.5, 0.0), (0.5, 1.0)]
    check_envelope([(0.0, lines), (1.0, [(0.5, -1.0), (-1.0, 3.0)])])
