"""Profiles, set updates, chained updates and the iteration's stationarity."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    NEAR_ONE_POINT,
    allclose,
    chain_profile,
    pairs_and_crossings,
    probe_min,
    random_log_concave_bound,
    update_tails,
)
from sgbounds import (
    GridBound,
    IterationStep,
    IterationTrace,
    OmegaRPair,
    OmegaSet,
    PiecewiseLogAffineBound,
    ResolventProfile,
    argmin_abscissas,
    first_crossing_time,
    iterate,
    log_concavity,
    min_update,
    subadditive_envelope,
    update_bound,
    update_chain,
)
from sgbounds.cli import jordan_figure_bounds
from sgbounds.envelope import _closure, _log_values
from sgbounds.iteration import _agreed_until
from sgbounds.models import JordanBlockModel, diffop_rate, jordan_resolvent_rate, jordan_semigroup_norm
from sgbounds.riccati import update_tail

ONE = PiecewiseLogAffineBound.constant()
WEI = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [math.pi / 2])
PROFILE_53 = ResolventProfile.tabulated([(-1.0, 0.05), (0.0, 1.0)])


class TestResolventProfile:
    def test_tabulated_rates_at_nodes(self):
        assert PROFILE_53.rate(-1.0) == 0.05
        assert PROFILE_53.rate(0.0) == 1.0

    def test_conservative_between_nodes(self):
        # below a node the 1-Lipschitz envelope r_i - (w_i - w) applies
        assert PROFILE_53.rate(-0.5) == pytest.approx(0.5, abs=1e-12)
        # above the top node the nearest rate below is kept
        assert PROFILE_53.rate(3.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            PROFILE_53.rate(-5.0)

    def test_rejects_decreasing_rates(self):
        with pytest.raises(ValueError):
            ResolventProfile.tabulated([(0.0, 1.0), (1.0, 0.5)])

    def test_rejects_lipschitz_violation(self):
        with pytest.raises(ValueError):
            ResolventProfile.tabulated([(0.0, 0.1), (0.5, 2.0)])

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ResolventProfile.tabulated([(0.0, 0.0)])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.0, 0.1), (math.nan, 100.0)],
            [(math.nan, 100.0), (0.0, 0.1)],
            [(0.0, math.nan)],
            [(0.0, math.inf)],
            [(-math.inf, 0.5)],
            [(0.0, 0.5), (math.inf, 1.0)],
        ],
    )
    def test_rejects_non_finite_pairs(self, pairs):
        with pytest.raises(ValueError, match="finite"):
            ResolventProfile.tabulated(pairs)

    def test_callable_profile(self):
        profile = ResolventProfile(fn=lambda w: 1.0 + w, domain=(-1.0, math.inf))
        assert profile.rate(0.5) == 1.5
        assert profile.pairs([0.5, 2.0]) == [OmegaRPair(0.5, 1.5), OmegaRPair(2.0, 3.0)]
        with pytest.raises(ValueError):
            profile.rate(-2.0)

    @pytest.mark.parametrize(
        "profile, omegas, named",
        [
            (PROFILE_53, [0.0, -5.0, -6.0], "-5.0"),
            (PROFILE_53, [0.0, math.nan], "nan"),
            (ResolventProfile(fn=diffop_rate), [0.0, math.inf], "inf"),
        ],
    )
    def test_pairs_name_the_first_omega_outside_the_domain(self, profile, omegas, named):
        with pytest.raises(ValueError, match=f"omega = {named} outside profile domain"):
            profile.pairs(omegas)

    def test_pairs_equal_the_pair_loop(self):
        # a set's pairs are its one-element sets' pairs: tables take one lookup
        # either way, a Jordan block one stacked SVD either way
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 60, 300):
            profile, _, _ = chain_profile(rng, n)
            ws = rate_queries(rng, profile)
            assert profile.pairs(ws) == [profile.pairs([w])[0] for w in ws]
        for n in (2, 3, 5, 8):
            profile = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JordanBlockModel(n)))
            ws = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 100)).tolist()
            assert profile.pairs(ws) == [profile.pairs([w])[0] for w in ws]


def scan_rate(table, omega):
    """The tabulated rate as a scan of the whole table."""
    best = -math.inf
    for w, r in table:
        if w >= omega:
            best = max(best, r - (w - omega))
        else:
            best = max(best, r)
    return best


def edge_profile(rng, n):
    """A table on the tolerance edges: flat runs, slope exactly 1, and rates
    that fall, or rise faster than slope 1, by less than ``_LIPSCHITZ_TOL``."""
    omegas = np.unique(np.round(np.sort(rng.uniform(-3.0, 3.0, size=n)), 9)).tolist()
    rates = [float(rng.uniform(0.5, 1.0))]
    for w0, w1 in zip(omegas, omegas[1:]):
        dw = w1 - w0
        step = [0.0, dw, -0.5e-12, dw + 0.5e-12][int(rng.integers(4))]
        rates.append(rates[-1] + step)
    return ResolventProfile.tabulated(list(zip(omegas, rates)))


def rate_queries(rng, profile):
    """Nodes, midpoints and random points between nodes, below the first and above the last."""
    ws = [w for w, _ in profile.table]
    (w0, r0), wn = profile.table[0], ws[-1]
    mids = [0.5 * (a + b) for a, b in zip(ws, ws[1:])]
    inner = rng.uniform(w0, wn, size=50).tolist()
    outer = [w0 - 0.5 * r0, w0 - 1e-9, wn + 1e-9, wn + 1.0, wn + 100.0]
    return ws + mids + inner + outer


class TestTwoNodeRate:
    def test_equals_the_scan_on_margin_tables(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 60, 300):
            for _ in range(5):
                profile, _, _ = chain_profile(rng, n)
                for w in rate_queries(rng, profile):
                    assert profile.rate(w) == scan_rate(profile.table, w)

    def test_never_above_the_scan_on_edge_tables(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 60):
            for _ in range(20):
                profile = edge_profile(rng, n)
                for w in rate_queries(rng, profile):
                    two_node, scan = profile.rate(w), scan_rate(profile.table, w)
                    assert two_node <= scan
                    assert scan - two_node <= 1e-11


class TestOmegaSet:
    def test_sorts_and_dedupes(self):
        assert OmegaSet.of([2.0, -1.0, 2.0]).values == (-1.0, 2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OmegaSet.of([])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OmegaSet((math.nan,)),
            lambda: OmegaSet((1.0, math.nan, 0.0)),
            lambda: OmegaSet((0.0, 1.0, math.nan)),
            lambda: OmegaSet.of([math.nan, 0.0, 1.0]),
            lambda: OmegaSet.of([0.0, math.nan]),
        ],
        ids=["alone", "between_unsorted", "last", "of_first", "of_last"],
    )
    def test_a_nan_abscissa_is_named(self, make):
        # a NaN compares false both ways, so an order check of b <= a lets it through
        with pytest.raises(ValueError, match="nan"):
            make()


class TestMinUpdate:
    def test_single_frequency_gives_wei(self):
        got = min_update(ONE, update_tails(ONE, [0.0], PROFILE_53))
        assert allclose(got, WEI, 1e-12)

    def test_two_frequencies_give_min_of_singles(self):
        got = min_update(ONE, update_tails(ONE, [0.0, -1.0], PROFILE_53))
        expected = probe_min(
            update_bound(ONE, OmegaRPair(0.0, 1.0)), update_bound(ONE, OmegaRPair(-1.0, 0.05))
        )
        assert got == expected
        assert got.breakpoints[-1] == pytest.approx(46.1344, abs=5e-3)

    def test_useless_frequencies_leave_bound_alone(self):
        profile = ResolventProfile.tabulated([(1.0, 0.5), (2.0, 1.0)])
        got = min_update(ONE, update_tails(ONE, [1.0, 2.0], profile))
        assert got == ONE


class TestUpdateChain:
    def test_slow_then_reference_is_plain_min(self):
        got = update_chain(ONE, [-1.0, 0.0], PROFILE_53)
        expected = min_update(ONE, update_tails(ONE, [0.0, -1.0], PROFILE_53))
        assert allclose(got, expected, 1e-12)

    def test_reference_then_slow_improves_tail(self):
        got = update_chain(ONE, [0.0, -1.0], PROFILE_53)
        assert got.slopes[-1] == -1.05
        assert got.intercepts[-1] == pytest.approx(3.8490, abs=5e-4)
        assert got.breakpoints[-1] == pytest.approx(45.5641, abs=5e-3)
        # strictly below the plain min for large t
        plain = min_update(ONE, update_tails(ONE, [0.0, -1.0], PROFILE_53))
        assert got.log_at(60.0) < plain.log_at(60.0)


class TestArgmin:
    def test_reference_pair_wins(self):
        # crossing pi/4 at omega = 0 beats 1.8464 at omega = -1
        assert argmin_abscissas(*pairs_and_crossings(ONE, [0.0, -1.0], PROFILE_53)) == (0.0,)

    def test_all_infinite_ties(self):
        profile = ResolventProfile.tabulated([(1.0, 0.5), (2.0, 1.0)])
        assert argmin_abscissas(*pairs_and_crossings(ONE, [1.0, 2.0], profile)) == (1.0, 2.0)


class TestIterate:
    def test_final_is_the_last_step_bound(self):
        trace = iterate(ONE, [0.0, -1.0], PROFILE_53, 5, (0.25, 240))
        assert len(trace.steps) > 1 and trace.final is trace.steps[-1].bound

    def test_fixed_point_stationary_at_zero(self):
        trace = iterate(WEI, OmegaSet.of([0.0]), PROFILE_53, 3, (0.25, 80))
        assert trace.stationary_at == 0

    def test_single_frequency_stationary_after_first_step(self):
        trace = iterate(ONE, OmegaSet.of([0.0]), PROFILE_53, 4, (0.25, 80))
        assert trace.stationary_at == 1
        assert trace.steps[2].grid.values == trace.steps[1].grid.values

    def test_two_frequencies_stationary_within_set_size(self):
        trace = iterate(ONE, OmegaSet.of([0.0, -1.0]), PROFILE_53, 5, (0.25, 240))
        assert trace.stationary_at is not None and trace.stationary_at <= 2

    def test_grids_non_increasing(self):
        trace = iterate(ONE, OmegaSet.of([0.0, -1.0]), PROFILE_53, 5, (0.25, 240))
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert all(b <= a + 1e-12 for a, b in zip(prev.grid.values, step.grid.values))

    def test_concave_matches_updates_only_on_grid(self):
        rng = np.random.default_rng(71)
        omegas = OmegaSet.of([0.0, -1.0])
        for _ in range(10):
            m = random_log_concave_bound(rng)
            if not m.is_normalized:
                continue
            with_env = iterate(m, omegas, PROFILE_53, 4, (0.5, 60))
            assert with_env == iterate(m, omegas, PROFILE_53, 4, (0.5, 60), envelope=False)

    def test_argmin_crossing_is_preserved_by_one_step(self):
        # at a minimizing frequency, the updated bound keeps the same crossing time
        omegas = OmegaSet.of([0.0, -1.0])
        best = min(
            first_crossing_time(ONE, PROFILE_53.pairs([w])[0]) for w in omegas
        )
        step = min_update(ONE, update_tails(ONE, omegas, PROFILE_53))
        for w in argmin_abscissas(*pairs_and_crossings(ONE, omegas, PROFILE_53)):
            assert first_crossing_time(step, PROFILE_53.pairs([w])[0]) == pytest.approx(best, abs=1e-9)

    def test_requires_normalized(self):
        shifted = PiecewiseLogAffineBound((0.0,), (0.0,), (0.5,))
        with pytest.raises(ValueError):
            iterate(shifted, OmegaSet.of([0.0]), PROFILE_53, 2, (0.5, 10))

    def test_shift_bounds_stay_above_the_norm_between_grid_points(self):
        # the shift on [0, 1] has ||S(t)|| = 1 for t < 1, so every emitted bound
        # needs log m >= 0 there; the start is valid and h = 0.15 does not divide 1,
        # where an interpolant of the grid envelope passed under the norm
        m0 = PiecewiseLogAffineBound((0.0, 0.3, 0.45), (0.0, 1.0, 0.0), (0.0, -0.3, 0.15))
        trace = iterate(m0, OmegaSet.of([-40.0, 0.0]), ResolventProfile(fn=diffop_rate), 3, (0.15, 40))
        for step in trace.steps:
            lowest = min(step.bound.log_at(k * 1e-3) for k in range(1000))
            assert lowest >= 0.0, f"step {step.index}: log m reaches {lowest:.3g} on [0, 1)"


def fresh_tails(m, pairs):
    return [update_tail(m, pair, first_crossing_time(m, pair)) for pair in pairs]


def step_after(prev, pairs, h, n, envelope):
    """The update of ``prev.bound`` and the step iterate builds from it, recomputed
    without the repeat rule: close the update on [0, h n] (with the envelope),
    sample it, walk every crossing of the new bound and take the argmin."""
    updated = min_update(prev.bound, fresh_tails(prev.bound, pairs))
    bound = _closure(updated, h * n) if envelope else updated
    crossings = [first_crossing_time(bound, pair) for pair in pairs]
    return updated, IterationStep(prev.index + 1, bound, GridBound.sample(bound, h, n), argmin_abscissas(pairs, crossings))


class TestRepeatedUpdate:
    """An update equal to the previous one repeats its step and ends the run as stationary."""

    @pytest.mark.parametrize("envelope", [True, False], ids=["envelope", "updates_only"])
    @pytest.mark.parametrize(
        "m",
        [
            PiecewiseLogAffineBound.from_slopes([1.2, 0.5, -0.4], [0.8, 2.0]),
            PiecewiseLogAffineBound.from_slopes([0.0, 1.0, 0.0], [0.3, 0.45]),
            PiecewiseLogAffineBound.from_slopes([0.2, 1.1, 0.3, 1.0], [1.5, 2.5, 3.5]),
        ],
        ids=["concave", "rise", "bumpy"],
    )
    def test_last_step_equals_the_recomputed_step(self, m, envelope):
        omegas, profile, h, n = OmegaSet.of([-5.0, 0.0]), ResolventProfile(fn=diffop_rate), 0.05, 200
        pairs = profile.pairs(omegas)
        trace = iterate(m, omegas, profile, 8, (h, n), envelope=envelope)
        *_, before, prev, last = trace.steps
        prev_update, prev_again = step_after(before, pairs, h, n, envelope)
        update, recomputed = step_after(prev, pairs, h, n, envelope)
        assert update == prev_update
        assert prev_again == prev and recomputed == last
        gap = np.max(np.abs(np.subtract(recomputed.grid.values, prev.grid.values)))
        assert gap <= 1e-10 and trace.stationary_at == prev.index
        assert last.bound is prev.bound and last.grid is prev.grid


@pytest.fixture
def closure_calls(monkeypatch):
    """The (input, result) of each call iterate makes to the subadditive closure."""
    calls = []

    def counted(f, horizon):
        calls.append((f, _closure(f, horizon)))
        return calls[-1][1]

    monkeypatch.setattr("sgbounds.iteration._closure", counted)
    return calls


class TestEnvelopeSkip:
    """The closure acts only on updates with a convex kink below the horizon."""

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_concave_normalized_start_skips_the_envelope(self, closure_calls, seed):
        m = random_log_concave_bound(np.random.default_rng(seed))
        assert m.intercepts[0] == 0.0
        h, n = 0.25, 240
        trace = iterate(m, OmegaSet.of([0.0, -1.0]), PROFILE_53, 5, (h, n))
        assert closure_calls and all(out is f for f, out in closure_calls)
        for step in trace.steps:
            assert step.grid == GridBound.sample(step.bound, h, n)
            excess = np.subtract(step.grid.values, subadditive_envelope(step.grid).values)
            assert 0.0 <= excess.min() and excess.max() <= 1e-12

    def test_rise_start_runs_the_envelope(self, closure_calls):
        m = PiecewiseLogAffineBound.from_slopes([0.1, 1.0, 2.0], [0.3, 1.2])
        omegas, profile, h, n = OmegaSet.of([-5.0, 0.0]), ResolventProfile(fn=diffop_rate), 0.05, 200
        updated = min_update(m, update_tails(m, omegas, profile))
        assert not log_concavity(updated).is_concave
        trace = iterate(m, omegas, profile, 3, (h, n))
        assert closure_calls[0] == (updated, trace.steps[1].bound) and trace.steps[1].bound is not updated
        sampled = GridBound.sample(updated, h, n)
        grid = trace.steps[1].grid
        assert grid == GridBound.sample(trace.steps[1].bound, h, n) and grid != sampled
        assert all(v <= e + 1e-12 for v, e in zip(grid.values, subadditive_envelope(sampled).values))

    def test_concave_start_below_one_at_zero_runs_the_envelope(self, closure_calls):
        # log m(0) < 0 and concave: no convex kink, so the closure returns its input
        m = PiecewiseLogAffineBound.from_slopes([0.5, -1.0], [2.0], -1e-13)
        assert m.is_normalized and log_concavity(m).is_concave
        trace = iterate(m, OmegaSet.of([0.0, -1.0]), PROFILE_53, 3, (0.25, 80))
        assert len(closure_calls) == len(trace.steps) - 1
        assert all(out is f for f, out in closure_calls)


class TestIterateUpdatesOnly:
    """iterate with envelope=False: every step is the set update of the one before."""

    def test_single_frequency_second_step_is_noop(self):
        trace = iterate(ONE, OmegaSet.of([0.0]), PROFILE_53, 4, (0.25, 80), envelope=False)
        assert trace.stationary_at == 1
        assert trace.steps[2].bound == trace.steps[1].bound

    def test_iterates_non_increasing(self):
        trace = iterate(ONE, OmegaSet.of([0.0, -1.0]), PROFILE_53, 5, (0.25, 320), envelope=False)
        ts = np.linspace(0.0, 80.0, 200)
        for prev, step in zip(trace.steps, trace.steps[1:]):
            for t in ts:
                assert step.bound.log_at(t) <= prev.bound.log_at(t) + 1e-12

    def test_non_concave_start_runs_no_envelope(self, closure_calls):
        m = PiecewiseLogAffineBound.from_slopes([0.1, 1.0, 2.0], [0.3, 1.2])
        assert not log_concavity(m).is_concave
        omegas, profile, h, n = OmegaSet.of([-5.0, 0.0]), ResolventProfile(fn=diffop_rate), 0.05, 200
        trace = iterate(m, omegas, profile, 3, (h, n), envelope=False)
        assert closure_calls == []
        assert len(trace.steps) > 1
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert step.bound == min_update(prev.bound, update_tails(prev.bound, omegas, profile))
            assert step.grid == GridBound.sample(step.bound, h, n)


def emitted_bounds(m, omegas, profile, h=0.15):
    """Every bound that update_bound, update_chain, min_update and iterate with
    and without the envelope, on a grid of step h up to T = 6, emit from m over
    the abscissas."""
    bounds = [update_bound(m, profile.pairs([w])[0]) for w in omegas]
    bounds += [update_chain(m, omegas, profile), min_update(m, update_tails(m, omegas, profile))]
    for envelope in (False, True):
        bounds += [step.bound for step in iterate(m, omegas, profile, 3, (h, round(6.0 / h)), envelope=envelope).steps]
    return bounds


@st.composite
def shift_starts(draw):
    """Normalized bounds of 1-4 pieces with log m >= 0 on [0, 1), concave or not."""
    n = draw(st.integers(1, 4))
    slopes = [draw(st.floats(0.0, 3.0))]
    for _ in range(n - 1):
        slopes.append(slopes[-1] + draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0])))
    widths = [draw(st.floats(0.05, 1.5)) for _ in range(n - 1)]
    m = PiecewiseLogAffineBound.from_slopes(slopes, np.cumsum(widths).tolist())
    # log m is continuous and piecewise affine: its minimum on [0, 1] is at a knot or at 1
    assume(min(m.log_at(t) for t in (*m.breakpoints, 1.0) if t <= 1.0) >= 0.0)
    return m


SHIFT_OMEGAS = st.sampled_from([-40.0, -30.0, -10.0]) | st.floats(-40.0, 5.0)
JORDAN3 = JordanBlockModel(3)
JORDAN_TS = np.linspace(0.0, 30.0, 601)
JORDAN_LOG_NORMS = [math.log(jordan_semigroup_norm(JORDAN3, t)) for t in JORDAN_TS]


class TestDomination:
    """Every emitted bound lies at or above the exact semigroup norm."""

    @settings(max_examples=60, deadline=None)
    @given(
        shift_starts(),
        st.lists(SHIFT_OMEGAS, min_size=1, max_size=4)
        | st.lists(SHIFT_OMEGAS, max_size=2).map(lambda ws: [-40.0, 0.0, *ws]),
        st.sampled_from([0.15, 0.3]),
    )
    @example(PiecewiseLogAffineBound.from_slopes([0.0, 1.0, 0.0], [0.3, 0.45]), [-40.0, 0.0], 0.15)
    def test_shift_bounds_stay_above_the_norm(self, m, omegas, h):
        # the shift on [0, 1] has ||S(t)|| = 1 for t < 1 and 0 from t = 1 on;
        # an Omega holding -40 and 0 with a grid step not dividing 1 is where
        # an interpolant of the grid envelope passed under it
        for bound in emitted_bounds(m, omegas, ResolventProfile(fn=diffop_rate), h):
            assert min(bound.log_at(k * 1e-3) for k in range(1000)) >= -1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.cos(math.pi / 4), 2.0),
        st.floats(-5.0, 1.5),
        st.integers(1, 6),
    )
    def test_jordan_bounds_stay_above_the_norm(self, c, lowest, count):
        # exp(c t) with c at least the numerical range's abscissa cos(pi/4) is valid
        omegas = np.exp(np.linspace(lowest, 1.5, count)).tolist()
        m = PiecewiseLogAffineBound.exponential(c)
        profile = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JORDAN3))
        for bound in emitted_bounds(m, omegas, profile):
            for t, log_norm in zip(JORDAN_TS, JORDAN_LOG_NORMS):
                assert bound.log_at(t) >= log_norm - 1e-9


def test_jordan_gaps_of_the_figure_stages_and_the_1001_chain():
    # the largest gap of log m over log ||S(t)|| for the size-3 Jordan block on
    # t = k / 1000, k = 1..20000: the figure's three bounds, then 1001
    # log-spaced abscissas chained from the 3-abscissa stage; more abscissas
    # narrow the gap only slightly, and every bound stays above the norm
    ts = np.arange(1, 20001) / 1000
    log_norms = np.log(jordan_semigroup_norm(JORDAN3, ts))
    profile = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JORDAN3))
    numrange, bound_3, bound_101 = jordan_figure_bounds()
    bound_1001 = update_chain(bound_3, [math.exp(-5.0 + k / 100) for k in range(1001)], profile)
    gaps = []
    for bound, expected in ((numrange, 8.8339), (bound_3, 5.0654), (bound_101, 3.4626), (bound_1001, 3.4614)):
        margins = _log_values(bound, ts) - log_norms
        assert margins.min() >= 0.0
        assert margins.max() == pytest.approx(expected, abs=5e-4)
        gaps.append(margins.max())
    assert gaps[3] < gaps[2]


def rebuilt_trace(m, pairs, max_steps, h, n, envelope, skip_confirming=True):
    """The trace of iterate rebuilt from scratch: each step from :func:`step_after`,
    which takes every tail and walks every crossing, until an update repeats the
    one before or two grids agree to 1e-10.  With ``skip_confirming``, a step
    after one that carried its update on repeats that step and stops when its
    fresh tails are ``==`` to the tails merged for it, as iterate does by
    min(min(m, T), T) = min(m, T); without it, every step merges."""
    crossings = [first_crossing_time(m, pair) for pair in pairs]
    steps = [IterationStep(0, m, GridBound.sample(m, h, n), argmin_abscissas(pairs, crossings))]
    last_updated = held = None
    for k in range(1, max_steps + 1):
        prev = steps[-1]
        tails = fresh_tails(prev.bound, pairs)
        updated, step = step_after(prev, pairs, h, n, envelope)
        if updated == last_updated or skip_confirming and tails == held:
            steps.append(IterationStep(k, prev.bound, prev.grid, prev.argmin_omegas))
            return IterationTrace(tuple(steps), k - 1)
        last_updated = updated
        held = tails if step.bound is updated else None
        steps.append(step)
        if np.max(np.abs(np.subtract(step.grid.values, prev.grid.values))) <= 1e-10:
            return IterationTrace(tuple(steps), k - 1)
    return IterationTrace(tuple(steps), None)


@st.composite
def family_starts(draw):
    """Normalized starts of 4-8 pieces: ``concave`` (slopes falling from 0.8-1.6),
    ``rise`` (flat, a rise before t = 0.5, then positive slopes, so the envelope
    acts) and ``bumpy`` (flat, a rise after t = 1, then a random walk of slopes)."""
    family = draw(st.sampled_from(["concave", "rise", "bumpy"]))
    n = draw(st.integers(4, 8))
    if family == "concave":
        slopes = [draw(st.floats(0.8, 1.6))]
        for _ in range(n - 1):
            slopes.append(slopes[-1] - draw(st.floats(0.1, 1.2)))
        widths = [draw(st.floats(0.2, 2.5)) for _ in range(n - 1)]
    else:
        slopes = [draw(st.floats(0.0, 0.3)), draw(st.floats(0.6, 1.5))]
        for _ in range(n - 2):
            if family == "rise":
                slopes.append(draw(st.floats(0.1, 3.0)))
            else:
                slopes.append(slopes[-1] + draw(st.floats(0.2, 1.5)) * draw(st.sampled_from([-1.0, 1.0])))
        widths = [draw(st.floats(0.1, 0.5) if family == "rise" else st.floats(1.0, 2.0))]
        widths += [draw(st.floats(0.2, 2.0)) for _ in range(n - 2)]
    return PiecewiseLogAffineBound.from_slopes(slopes, np.cumsum(widths).tolist())


@st.composite
def profiles_and_abscissas(draw):
    """The shift model with 20-60 abscissas in [-5, 5], at times with -40 and 0
    added, or the 3x3 Jordan block with 20-60 abscissas in [exp(-3), exp(1.5)]."""
    if draw(st.booleans()):
        omegas = draw(st.lists(st.floats(-5.0, 5.0), min_size=20, max_size=60, unique=True))
        if draw(st.booleans()):
            omegas += [-40.0, 0.0]
        return ResolventProfile(fn=diffop_rate), omegas
    logs = draw(st.lists(st.floats(-3.0, 1.5), min_size=20, max_size=60, unique=True))
    return ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JORDAN3)), np.exp(logs).tolist()


class TestFromScratchOracle:
    """iterate carries crossings over a step whose update it keeps, and repeats that
    step when the next tails are the ones merged into it; its trace must equal the
    one rebuilt from every crossing and every tail under that rule."""

    @settings(max_examples=40, deadline=None)
    @given(
        shift_starts() | family_starts(),
        profiles_and_abscissas(),
        st.sampled_from([0.05, 0.15, 0.3]),
        st.integers(1, 8),
        st.booleans(),
    )
    @example(*NEAR_ONE_POINT)
    def test_iterate_equals_the_rebuilt_trace(self, m, profile_and_omegas, h, max_steps, envelope):
        profile, omegas = profile_and_omegas
        n = round(8.0 / h)
        pairs = profile.pairs(OmegaSet.of(omegas))
        trace = iterate(m, omegas, profile, max_steps, (h, n), envelope=envelope)
        assert trace == rebuilt_trace(m, pairs, max_steps, h, n, envelope)

    def test_a_confirming_step_repeats_the_step_before(self):
        # the identity rule repeats the bound, and every step before it is the
        # every-merge step
        m, (profile, omegas), h, max_steps, envelope = NEAR_ONE_POINT
        n = round(8.0 / h)
        trace = iterate(m, omegas, profile, max_steps, (h, n), envelope=envelope)
        every_merge = rebuilt_trace(m, profile.pairs(OmegaSet.of(omegas)), max_steps, h, n, envelope, False)
        *before, prev, last = trace.steps
        assert (*before, prev) == every_merge.steps[: len(trace.steps) - 1]
        assert last.bound is prev.bound and last.grid is prev.grid
        assert trace.stationary_at == prev.index


class TestCarriedSteps:
    """What a step whose update is kept saves the next one."""

    def test_confirming_step_merges_no_tail_and_walks_few_crossings(self, monkeypatch):
        merged, walked = [], []

        def counted_update(m, tails):
            merged.append(list(tails))
            return min_update(m, tails)

        def counted_walk(m, pair):
            walked.append(pair)
            return first_crossing_time(m, pair)

        monkeypatch.setattr("sgbounds.iteration.min_update", counted_update)
        monkeypatch.setattr("sgbounds.iteration.first_crossing_time", counted_walk)
        m = PiecewiseLogAffineBound.from_slopes([1.2, 0.5, -0.4, -1.0], [0.8, 2.0, 3.5])
        omegas, profile, h, n = np.linspace(-5.0, 5.0, 200).tolist(), ResolventProfile(fn=diffop_rate), 0.05, 400
        trace = iterate(m, omegas, profile, 8, (h, n))
        assert trace.steps[-1].bound is trace.steps[-2].bound  # ended by the repeat rule
        assert len(merged) >= 1 and len(merged) == len(trace.steps) - 2  # the last step merges nothing
        assert len(walked) - 200 < 200
        monkeypatch.undo()
        assert trace == rebuilt_trace(m, profile.pairs(OmegaSet.of(omegas)), 8, h, n, True)


class TestAgreedUntil:
    """The time up to which two bounds hold the same pieces."""

    A = PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -1.0], [2.0, 3.0])

    def test_equal_bounds(self):
        assert _agreed_until(self.A, PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -1.0], [2.0, 3.0])) == math.inf

    def test_first_piece_differs(self):
        assert _agreed_until(self.A, PiecewiseLogAffineBound.from_slopes([1.5, -1.0], [2.0])) == 0.0

    @pytest.mark.parametrize(
        "other, agreed",
        [
            (PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -2.0], [2.0, 2.5]), 2.5),
            (PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -2.0], [2.0, 3.5]), 3.0),
            (PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -2.0], [2.0, 3.0]), 3.0),
        ],
        ids=["other_earlier", "other_later", "same_breakpoint"],
    )
    def test_smaller_breakpoint_where_pieces_first_differ(self, other, agreed):
        assert _agreed_until(self.A, other) == _agreed_until(other, self.A) == agreed

    def test_one_bound_with_more_pieces(self):
        more = PiecewiseLogAffineBound.from_slopes([1.0, -0.5, -1.0, -1.5], [2.0, 3.0, 4.0])
        assert _agreed_until(self.A, more) == _agreed_until(more, self.A) == 4.0


def test_trace_json_round_trip():
    trace = iterate(ONE, OmegaSet.of([0.0, -1.0]), PROFILE_53, 3, (0.5, 40))
    data = json.loads(json.dumps(trace.to_json_dict()))
    assert data["stationary_at"] == trace.stationary_at
    assert len(data["steps"]) == len(trace.steps)
    rebuilt = PiecewiseLogAffineBound.from_json_dict(data["steps"][-1]["bound"])
    assert rebuilt == trace.steps[-1].bound
