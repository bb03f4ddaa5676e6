"""The set update against the pairwise route it replaces.

``min_with_tails`` takes the tails' lower envelope, then walks m and the
envelope together.  The oracle builds each single update as ``splice(m,
probe_min(m, tail), start)`` and folds the updates with ``probe_min``, the
probe sweep of ``conftest``.  On the shapes the benchmark workloads draw, the merge
must agree bit for bit; on arbitrary starts and on tails placed to hit its
tie and merge rules it must agree to 1e-12 in log scale.  The lines the
envelope keeps, and its pieces, are checked on their own against brute-force
ones in exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_ONE_POINT,
    allclose,
    bounds_strategy,
    chain_profile,
    lattice_bounds_strategy,
    probe_min,
    random_bound,
    random_log_concave_bound,
    update_tails,
)
from sgbounds import (
    GridBound,
    OmegaSet,
    PiecewiseLogAffineBound,
    ResolventProfile,
    first_crossing_time,
    iterate,
    min_update,
    piecewise_interpolant,
    subadditive_envelope,
    update_bound,
    update_chain,
)
from sgbounds import bounds
from sgbounds.bounds import (
    _BP_MERGE_TOL,
    _append_joined,
    _expire,
    _insert,
    _tail_envelope,
    min_with_tails,
    splice,
)
from sgbounds.models import JordanBlockModel, diffop_rate, jordan_resolvent_rate
from sgbounds.riccati import update_tail

DIFFOP = ResolventProfile(fn=diffop_rate)


def line(slope: float, intercept: float) -> PiecewiseLogAffineBound:
    return PiecewiseLogAffineBound((0.0,), (slope,), (intercept,))


def pairwise_min_with_tails(m, tails):
    updates = [splice(m, probe_min(m, line(a, b)), start) for start, a, b in tails]
    return functools.reduce(probe_min, updates) if updates else m


def pairwise_update(m, pair):
    tail = update_tail(m, pair, first_crossing_time(m, pair))
    return m if tail is None else pairwise_min_with_tails(m, [tail])


def pairwise_min_update(m, omegas, profile):
    """The pairwise route on the rates of one ``profile.pairs`` call, as the sweep gets them."""
    return functools.reduce(probe_min, [pairwise_update(m, pair) for pair in profile.pairs(omegas)])


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
        assert min_update(m, update_tails(m, omegas, DIFFOP)) == expected
        m = expected


@pytest.mark.parametrize("family", ["concave", "rise", "bumpy"])
def test_shift_shapes_match_bit_for_bit(family):
    rng = np.random.default_rng(["concave", "rise", "bumpy"].index(family) + 101)
    for _ in range(6):
        m = shift_start(rng, family)
        omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=40).tolist())
        assert min_update(m, update_tails(m, omegas, DIFFOP)) == pairwise_min_update(m, omegas, DIFFOP)
        for pair in DIFFOP.pairs(list(omegas)[::5]):
            assert update_bound(m, pair) == pairwise_update(m, pair)


def test_grid_interpolant_matches_bit_for_bit():
    # a rising start is not subadditive, so the grid envelope of its update
    # changes the grid; its interpolant through 1000 grid values is a large bound
    rng = np.random.default_rng(107)
    m0 = shift_start(rng, "rise")
    omegas = OmegaSet.of(rng.uniform(-5.0, 5.0, size=60).tolist())
    updated = min_update(m0, update_tails(m0, omegas, DIFFOP))
    interpolant = piecewise_interpolant(subadditive_envelope(GridBound.sample(updated, 0.05, 1000)))
    assert len(interpolant.breakpoints) >= 500
    expected = pairwise_min_update(interpolant, omegas, DIFFOP)
    assert min_update(interpolant, update_tails(interpolant, omegas, DIFFOP)) == expected


def test_chain_shapes_match_bit_for_bit():
    # most chained updates leave their input as it is, and the sweep then
    # returns that very bound; the others must still match the oracle
    rng = np.random.default_rng(109)
    kept = 0
    for _ in range(8):
        profile, lo, hi = chain_profile(rng, 60)
        m = chain_start(rng)
        omegas = rng.uniform(lo, hi, size=30).tolist()
        assert min_update(m, update_tails(m, omegas, profile)) == pairwise_min_update(m, omegas, profile)
        cur = m
        for pair in profile.pairs(omegas):
            expected = pairwise_update(cur, pair)
            got = update_bound(cur, pair)
            assert got == expected
            kept += got is cur
            cur = expected
        assert update_chain(m, omegas, profile) == cur
    assert 0 < kept < 8 * 30


# -- arbitrary starts and tails aimed at the sweep's rules ---------------------


def test_random_starts_agree():
    rng = np.random.default_rng(113)
    profile, lo, hi = chain_profile(rng, 40)
    for k in range(60):
        m = random_bound(rng, 8) if k % 2 else random_log_concave_bound(rng, 8)
        for prof, (a, b) in ((DIFFOP, (-3.0, 3.0)), (profile, (lo, hi))):
            omegas = OmegaSet.of(rng.uniform(a, b, size=int(rng.integers(1, 30))).tolist())
            got = min_update(m, update_tails(m, omegas, prof))
            assert allclose(got, pairwise_min_update(m, omegas, prof), 1e-12)
            pair = prof.pairs([omegas.values[0]])[0]
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
    assert min_with_tails(m, [(1.0, 2.0, 0.5)]) is m
    assert min_with_tails(m, [(5.0, 0.0, 100.0), (1.0, 2.0, 0.5)]) is m


@settings(max_examples=200, deadline=None)
@given(lattice_bounds_strategy(max_pieces=8), st.data())
def test_tails_never_below_m_return_m(m, data):
    # on a log-concave m each piece's line lies on or above m from its start
    # on, so such tails, lifted or not and steeper or not, never go below m;
    # neither do lines steeper than every slope of m starting on or above it
    concave = all(a > b for a, b in zip(m.slopes, m.slopes[1:]))
    tails = []
    for j in data.draw(st.lists(st.integers(0, len(m.breakpoints) - 1), max_size=4)):
        start = m.breakpoints[j] + data.draw(st.sampled_from([0.0, 0.125, 2.0]))
        if concave:
            j = m.piece_index(start)
            tails.append((start, m.slopes[j], m.intercepts[j] + data.draw(st.sampled_from([0.0, 0.25]))))
        slope = max(m.slopes) + data.draw(st.sampled_from([0.0, 0.5]))
        tails.append((start, slope, m.log_at(start) - slope * start + data.draw(st.sampled_from([0.0, 0.25]))))
    assert min_with_tails(m, tails) is m


@settings(max_examples=300, deadline=None)
@given(bounds_strategy(max_pieces=8) | lattice_bounds_strategy(max_pieces=8))
def test_canonical_pieces_pass_append_joined_unchanged(m):
    # the claim behind copying m's pieces before the first tail start: for a
    # bound the constructor accepts, whose breakpoints lie more than
    # _BP_MERGE_TOL apart, _append_joined's continuity check is the
    # constructor's, so no piece is moved, cut or dropped
    pieces = []
    for piece in zip(m.breakpoints, m.slopes, m.intercepts):
        _append_joined(pieces, *piece)
    assert pieces == list(zip(m.breakpoints, m.slopes, m.intercepts))


def test_a_start_just_before_a_breakpoint_takes_it():
    # no tail goes below m, yet a start within _BP_MERGE_TOL before m's kink
    # at t = 2 joins the two pieces there and moves the kink to the start; one
    # as close after the kink joins them at the kink, which gives m again
    m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [2.0])
    assert min_with_tails(m, [(2.0 + 5e-13, 3.0, 10.0)]) == m
    for tails in ([(2.0 - 5e-13, 3.0, 10.0)], [(2.0 - 5e-13, 3.0, 10.0), (1.0, 2.0, 5.0)]):
        got = min_with_tails(m, tails)
        assert (got.breakpoints, got.slopes, got.intercepts) == ((0.0, 2.0 - 5e-13), (1.0, -1.0), (0.0, 4.0))


KINK = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [2.0])
STEP = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [1.0])


def test_tails_that_start_below_m():
    # a tail below m at its start by more than the continuity slack is
    # rejected, by the walk and by the sweep
    for m, tails in [
        # steeper than m and 0.5 below it at s = 1, above it from t = 1.25 on
        (KINK, [(1.0, 3.0, -2.5)]),
        # parallel to m's piece and 0.5 below it at s = 1, alone or after a
        # tail 0.25 below it at s = 0.5
        (STEP, [(1.0, 0.0, -0.5)]),
        (STEP, [(1.0, 0.0, -0.5), (0.5, 0.0, -0.25)]),
        # below m = 1 on [0.5, 1[: taking the line from t = 0.5 on would give
        # log m(0.75) = -0.25, below min(m, tail) = 0
        (PiecewiseLogAffineBound.constant(), [(1.0, -1.0, 0.5)]),
    ]:
        with pytest.raises(ValueError, match="below m"):
            min_with_tails(m, tails)


def test_a_tail_at_negative_time_is_rejected():
    # a bound lives on [0, inf), so no tail can start before 0
    with pytest.raises(ValueError, match="negative time"):
        min_with_tails(KINK, [(-1.0, 5.0, 10.0)])


def test_a_tail_with_a_nan_field_is_rejected():
    # the merge names the tail, alone or beside a valid one, and never drops it;
    # so too a tail whose value at a finite start is inf * 0 or inf - inf
    m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [1.0])
    for tails in ([(math.nan, 0.0, 0.0)], [(1.0, -2.0, 3.0), (0.5, math.nan, 0.0)], [(0.5, 0.0, math.nan)]):
        with pytest.raises(ValueError, match=r"tail \(.*nan.*\) has a .*NaN"):
            min_update(m, tails)
    for tail in [(0.0, -math.inf, math.inf), (0.0, math.inf, -math.inf), (2.0, math.inf, -math.inf)]:
        for tails in ([tail], [(1.0, -2.0, 3.0), tail]):
            with pytest.raises(ValueError, match=r"tail \(.*inf.*\) has a NaN value at its start"):
                min_update(m, tails)


def test_a_tail_with_an_infinite_field_keeps_its_result():
    # a line at +inf from its start on never goes below m and is dropped; one at
    # -inf gives data that is not finite
    m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [1.0])
    valid = (1.0, -2.0, 3.0)
    for tail in [(math.inf, 0.0, 0.0), (0.5, math.inf, 0.0), (0.5, 0.0, math.inf)]:
        assert min_update(m, [tail]) == m
        assert min_update(m, [valid, tail]) == min_update(m, [valid])
    for tail in [(0.5, -math.inf, 0.0), (0.5, 0.0, -math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            min_update(m, [valid, tail])


REPRO_START = PiecewiseLogAffineBound((0.0, 0.3, 0.45), (0.0, 1.0, 0.0), (0.0, -0.3, 0.15))


@settings(max_examples=60, deadline=None)
@given(bounds_strategy(max_pieces=6), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
# the start, set and step of the fault between grid points
@example(REPRO_START, [-40.0, 0.0])
def test_update_tails_start_on_or_above_m(m, omegas):
    # the tails update_tail builds, from random non-concave starts and from the
    # closures iterate continues from, all pass min_with_tails's start check
    omegas = OmegaSet.of(omegas)
    min_update(m, update_tails(m, omegas, DIFFOP))
    iterate(m, omegas, DIFFOP, 3, (0.15, 40))


def test_merging_the_same_tails_again_keeps_the_bound():
    # the 20 tails of the step-1 bound of iterate on NEAR_ONE_POINT pass through
    # nearly one point at t = 1, so the envelope's crossings there lie within
    # _BP_MERGE_TOL of each other and of the merged bound's breakpoints
    m, (profile, omegas), h, max_steps, envelope = NEAR_ONE_POINT
    bound = iterate(m, omegas, profile, max_steps, (h, round(8.0 / h)), envelope=envelope).steps[1].bound
    tails = [tail for tail in update_tails(bound, OmegaSet.of(omegas), profile) if tail is not None]
    merged = min_with_tails(bound, tails)
    assert len(tails) == 20 and merged != bound
    assert min_with_tails(merged, tails) == merged


# -- the one-tail walk ----------------------------------------------------------


@st.composite
def bound_and_tail(draw):
    """A bound and one tail starting on, near or away from its breakpoints, on,
    just above, within the continuity slack below or anywhere above it, parallel
    to one of its pieces or not."""
    m = draw(bounds_strategy(max_pieces=6) | lattice_bounds_strategy(max_pieces=6))
    offsets = st.sampled_from([0.0, *(d * sign for d in (1e-13, 5e-13, 1.5e-12, 2e-12, 3e-12) for sign in (-1, 1))])
    near = st.builds(lambda t, d: max(t + d, 0.0), st.sampled_from(m.breakpoints), offsets)
    start = draw(near | st.floats(0.0, m.breakpoints[-1] + 4.0))
    slope = draw(st.sampled_from(m.slopes) | st.floats(-4.0, 4.0))
    lift = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12]) | st.floats(0.0, 2.0))
    return m, (start, slope, m.log_at(start) + lift - slope * start)


# a downward jump of 8e-13 at t = 2, within the continuity tolerance
JUMP = PiecewiseLogAffineBound((0.0, 2.0), (1.0, -1.0), (0.0, 4.0 - 8e-13))
# a line through (1000, 1000) that rounds to m's value there at a smaller slope,
# while its crossing rounds to 1.2e-11 later, past the end of m's piece
TIE = PiecewiseLogAffineBound.from_slopes([1.0, 0.0], [1000.000000000003])


@settings(max_examples=400, deadline=None)
@given(bound_and_tail())
# each comment names the rule of the walk whose loss fails the case, or says that the walk returns m
@example((KINK, (2.0, 3.0, 10.0)))  # s at a breakpoint: the walk returns m
@example((KINK, (2.0 - 5e-13, 3.0, 10.0)))  # s within 1e-12 before a breakpoint: the next-breakpoint gap
@example((KINK, (2.0 + 5e-13, 3.0, 10.0)))  # s within 1e-12 after one: the previous-breakpoint gap
@example((KINK, (1.0, 0.5, 0.5)))  # a tie at s at a smaller slope: the tie and the crossing each
@example((TIE, (1000.0, 0.999, 1.000000000000013)))  # a tie whose crossing rounds late: the tie
@example((JUMP, (1.0, 0.5, 1.0 - 2.5e-13)))  # a crossing 5e-13 before an interval end: the walk returns m
@example((JUMP, (1.0, 0.5, 1.0 - 6e-13)))  # a crossing 1.2e-12 before it: the crossing's tolerance
@example((KINK, (3.0, -2.0, 10.0)))  # less steep than m's last piece, crossing at t = 6: the crossing
@example((KINK, (3.0, -1.0, 4.5)))  # parallel to m's last piece: the walk returns m; `at <= am` divides by 0
# a parallel line 1e-13 below m from s on, taken at 2.5 only: the line appended again at 2.5
@example((PiecewiseLogAffineBound.from_slopes([-1.5, 0.25, -0.5], [0.75, 2.5]), (2.0, 0.25, -1.3125000000001)))
# a start 1.5e-12 before m's kink, kept as a breakpoint: m's own piece at s before the crossing
@example((PiecewiseLogAffineBound.from_slopes([-1.75, 0.5], [2.75]), (2.7499999999985, -1.0, -2.0624999999987743)))
# parallel to m's next piece, 1.5e-12 above it: the join back to m at 4 appends nothing, so m's piece at 8 is joined
@example((PiecewiseLogAffineBound.from_slopes([0.5, 2.5, 4.0], [4.0, 8.0]), (3.99999999999875, 2.5, -7.9999999999985)))
def test_one_tail_walk_agrees_with_the_sweep(case):
    # a duplicate tail sends the call through the sweep, whose envelope drops
    # the copy; the walk must give the sweep's bound, and m itself exactly when
    # the sweep does
    m, tail = case
    got, swept = min_with_tails(m, [tail]), min_with_tails(m, [tail, tail])
    assert got == swept and (got is m) == (swept is m)


def test_one_tail_walk_joins_only_where_the_line_is_lowest(monkeypatch):
    # a line below a 1000-piece concave m from s = 100 on, up to where m's
    # steeper pieces cross it: m's own pieces on either side are copied, and
    # the line taken again at each piece of m it runs along is appended as it
    # is, so joins are made only where the line is taken and where m comes back
    m = PiecewiseLogAffineBound.from_slopes([-k / 1000.0 for k in range(1000)], [float(k) for k in range(1, 1000)])
    s = 100.0
    tail = (s, -0.12, m.log_at(s) + 0.12 * s)
    joins = 0

    def counting(*args):
        nonlocal joins
        joins += 1
        return _append_joined(*args)

    monkeypatch.setattr(bounds, "_append_joined", counting)
    got = min_with_tails(m, [tail])
    walked = joins
    assert got == min_with_tails(m, [tail, tail])
    (k,) = [k for k, a in enumerate(got.slopes) if a == tail[1]]
    lowest = m.piece_index(got.breakpoints[k + 1]) - m.piece_index(got.breakpoints[k]) + 1
    assert 2 < lowest < 100
    assert walked == 2


@settings(max_examples=300, deadline=None)
@given(bound_and_tail(), bounds_strategy(max_pieces=6), st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
# the re-append at 2.5 keeps m's kink there, and the start of the fault between grid points
@example(
    (PiecewiseLogAffineBound.from_slopes([-1.5, 0.25, -0.5], [0.75, 2.5]), (2.0, 0.25, -1.3125000000001)),
    REPRO_START,
    [-40.0, 0.0],
)
def test_merges_build_canonical_bounds_without_canonicalize(case, m, omegas):
    # the walk, the sweep and the set update build their pieces canonical up
    # to equal slopes, so none of them calls canonicalize, and the walk still
    # gives the sweep's bound
    tails = [tail for tail in update_tails(m, OmegaSet.of(omegas), DIFFOP) if tail is not None]
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a merge called canonicalize")

    with mock.patch.object(bounds, "canonicalize", refuse):
        for base, tail in [case, *((m, tail) for tail in tails)]:
            got, swept = min_with_tails(base, [tail]), min_with_tails(base, [tail, tail])
            assert got == swept and (got is base) == (swept is base)
        min_update(m, tails)
    assert calls == []


# -- the end of the sweep and the runs of m carried over -------------------------


@st.composite
def large_bound_and_tails(draw):
    """A bound of 2-300 pieces, log-concave or not, and 1-3 tails: update tails of
    the shift model or of a tabulated profile, and lines from on, just above or
    well above m, some as steep as its steepest piece."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    steps = rng.uniform(0.001, 0.5, size=n - 1) * (-1.0 if draw(st.booleans()) else rng.choice([-1.0, 1.0], size=n - 1))
    slopes = (rng.uniform(-1.0, 2.0) + np.concatenate([[0.0], np.cumsum(steps)])).tolist()
    m = PiecewiseLogAffineBound.from_slopes(slopes, np.cumsum(rng.uniform(0.01, 0.5, size=n - 1)).tolist())
    tails = []
    for kind in draw(st.lists(st.sampled_from(["shift", "tabulated", "line"]), min_size=1, max_size=3)):
        if kind == "line":
            start = draw(st.sampled_from(m.breakpoints) | st.floats(0.0, m.breakpoints[-1] + 2.0))
            slope = draw(st.sampled_from([max(m.slopes), *m.slopes]) | st.floats(-4.0, 4.0))
            lift = draw(st.sampled_from([0.0, 1e-13, 1e-12]) | st.floats(0.0, 2.0))
            tails.append((start, slope, m.log_at(start) + lift - slope * start))
        else:
            profile, lo, hi = (DIFFOP, -3.0, 3.0) if kind == "shift" else chain_profile(rng, 20)
            omegas = OmegaSet.of(rng.uniform(lo, hi, size=4).tolist())
            tails += [tail for tail in update_tails(m, omegas, profile) if tail is not None][:1]
    return m, tails


@settings(max_examples=150, deadline=None)
@given(large_bound_and_tails())
def test_sweep_end_merges_pass_the_full_check(case):
    # a merge checks only the pieces it builds and their seams with the runs of
    # m it carries over; the result must pass the constructor's check of every
    # pair, and agree with the pairwise route wherever that can store its result
    m, tails = case
    got = min_with_tails(m, tails)
    assert got == PiecewiseLogAffineBound(got.breakpoints, got.slopes, got.intercepts)
    try:
        expected = pairwise_min_with_tails(m, tails)
    except ValueError:
        return  # the pairwise route leaves a jump it cannot store
    scale = 1.0 + max(abs(v) for v in (*got.intercepts, *(a * t for a, t in zip(got.slopes, got.breakpoints))))
    assert allclose(got, expected, 1e-12 * scale)


def test_sweep_end_waits_for_jumps_within_the_slack():
    # m jumps up by 0.99e-12 at t = 2; a line 0.5e-12 above m at t = 1, as steep
    # as m's pieces from there on, passes under m from t = 2 until m's steeper
    # piece crosses it about 4.9e-10 later.  The sweep must not end at t = 1,
    # where every test but the margin holds.  A second tail starting at t = 50
    # keeps the sweep going to there, as a sweep without the early end would
    m = PiecewiseLogAffineBound.from_slopes([0.0, -1.0, *(-1.0 - k / 1000 for k in range(1, 11))], list(range(1, 12)))
    m = PiecewiseLogAffineBound(m.breakpoints, m.slopes, (*m.intercepts[:2], *(b + 0.99e-12 for b in m.intercepts[2:])))
    tail = (1.0, -1.0, 1.0 + 0.5e-12)
    got = min_with_tails(m, [tail])
    assert got == min_with_tails(m, [tail, (50.0, 5.0, m.log_at(50.0) + 1.0 - 250.0)])
    assert got.slopes == m.slopes and 2.0 + 4e-10 < got.breakpoints[2] < 2.0 + 6e-10


def test_seam_into_m_s_last_run_is_checked():
    # a built piece that does not meet m's piece where m's last run goes on
    # fails as the constructor fails on the same pieces
    m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0, -2.0], [2.0, 4.0])
    pieces = [(0.0, 1.0, 0.0), (1.0, 0.5, 0.5)]
    with pytest.raises(ValueError, match="discontinuity -0.5 at breakpoint 2"):
        bounds._canonical(pieces, m, 1)
    with pytest.raises(ValueError, match="discontinuity -0.5 at breakpoint 2"):
        PiecewiseLogAffineBound(*zip(*pieces, *zip(m.breakpoints[1:], m.slopes[1:], m.intercepts[1:])))


def test_pairs_checked_by_a_jordan_shaped_merge(monkeypatch):
    # the Jordan chain's shape: a 1000-piece log-concave m and one update tail
    # from t = 6.29 that changes a few of its first pieces; the merge checks
    # only the pairs up to the first of m's after those it builds, and joins
    # only where the minimum switches.  A tail that starts past m's 200th
    # breakpoint has every pair from piece 0 on checked, and no more
    m = PiecewiseLogAffineBound.from_slopes(
        [math.sqrt(0.5) * (1.0 - k / 1000.0) for k in range(1000)], [6.3 + 0.01 * k for k in range(999)]
    )
    (pair,) = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JordanBlockModel(3))).pairs([math.exp(4.0)])
    tail = update_tail(m, pair, first_crossing_time(m, pair))
    checked, joins = [], 0

    def counting_check(bps, slopes, intercepts):
        checked.append(len(bps) - 1)
        return check_pairs(bps, slopes, intercepts)

    def counting_join(*args):
        nonlocal joins
        joins += 1
        return _append_joined(*args)

    check_pairs = bounds._check_pairs
    monkeypatch.setattr(bounds, "_check_pairs", counting_check)
    monkeypatch.setattr(bounds, "_append_joined", counting_join)
    got = min_with_tails(m, [tail])
    assert 6.0 < tail[0] < 6.3 and 990 < len(got.breakpoints) < 1000
    assert sum(checked) <= 10 and joins <= 10
    x = m.breakpoints[200] + 0.005  # inside piece 200; the line leaves m below it
    a = m.slopes[200] - 0.005
    late = (x, a, m.log_at(x) - a * x)
    checked.clear()
    got_late = min_with_tails(m, [late])
    monkeypatch.undo()
    assert got == PiecewiseLogAffineBound(got.breakpoints, got.slopes, got.intercepts)
    assert allclose(got, pairwise_min_with_tails(m, [tail]), 1e-12)
    assert got_late == PiecewiseLogAffineBound(got_late.breakpoints, got_late.slopes, got_late.intercepts)
    assert allclose(got_late, pairwise_min_with_tails(m, [late]), 1e-12)
    m_pieces = set(zip(m.breakpoints, m.slopes, m.intercepts))
    built = [i for i, p in enumerate(zip(got_late.breakpoints, got_late.slopes, got_late.intercepts)) if p not in m_pieces]
    assert built[0] == 201 and got_late.slopes[201] == a and sum(checked) <= built[-1] + 2


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


# a floor below every lattice tail, for _tail_envelope's start check
FLOOR = PiecewiseLogAffineBound((0.0,), (0.0,), (-100.0,))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.0]), lattice_lines), min_size=1, max_size=12))
@example([(0.0, (0.0, 0.0)), (1.0, (0.5, -2.0)), (2.0, (1.0, -4.0))])  # three tails through (4, 0)
@example([(0.0, (-0.5, 1.0)), (1.0, (-0.5, 0.5)), (1.0, (-0.5, 0.75)), (2.0, (-0.5, 0.0))])  # equal slopes
@example([(1.0, (0.25, 0.0)), (1.0, (-1.0, 2.0)), (1.0, (0.0, 1.0)), (1.0, (-2.0, 4.0))])  # one start
def test_tail_envelope_is_the_least_started_tail(tails):
    # in exact arithmetic each piece is the least tail started by its start and
    # by its midpoint; a piece begins at a tail start, or where its line meets
    # the one before, rounded, and is marked exactly when it begins at a start
    order = sorted((start, a, b) for start, (a, b) in tails)
    env = _tail_envelope(FLOOR, order)
    starts = {Fraction(start) for start, _, _ in order}

    def least(t):
        return min(Fraction(a) * t + Fraction(b) for start, a, b in order if start <= t)

    assert env[0][0] == order[0][0]
    assert all(p[0] < q[0] for p, q in zip(env, env[1:]))
    for i, (start, a, b, at_start) in enumerate(env):
        line = (Fraction(a), Fraction(b))
        assert at_start == (Fraction(start) in starts)
        t = Fraction(start)
        if not at_start:
            a0, b0 = Fraction(env[i - 1][1]), Fraction(env[i - 1][2])
            t = (b0 - line[1]) / (line[0] - a0)
            assert float(t) == start
        end = Fraction(env[i + 1][0]) if i + 1 < len(env) else t + 2
        for point in (t, (Fraction(start) + end) / 2):
            assert line[0] * point + line[1] == least(point)


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_several_tails_join_only_where_the_minimum_switches(monkeypatch, offset):
    # three lines below a 1000-piece concave m from t = 100, 200 and 300 on (at
    # m's breakpoints, or inside its pieces), each up to where m's steeper
    # pieces cross it: m's own pieces are copied between them, and each line is
    # appended again as it is at each piece of m it runs along, so joins are
    # made only where a line is taken and where m comes back
    m = PiecewiseLogAffineBound.from_slopes([-k / 1000.0 for k in range(1000)], [float(k) for k in range(1, 1000)])
    tails = []
    for s in (100.0 + offset, 200.0 + offset, 300.0 + offset):
        slope = -s / 1000.0 - 0.02
        tails.append((s, slope, m.log_at(s) - slope * s))
    joins = 0

    def counting(*args):
        nonlocal joins
        joins += 1
        return _append_joined(*args)

    monkeypatch.setattr(bounds, "_append_joined", counting)
    got = min_with_tails(m, tails)
    switches = joins
    assert got == pairwise_min_with_tails(m, tails)
    taken = [k for k, a in enumerate(got.slopes) if a in {tail[1] for tail in tails}]
    assert len(taken) == 3 and all(got.slopes[k + 1] not in {tail[1] for tail in tails} for k in taken)
    assert switches == 2 * len(taken)
