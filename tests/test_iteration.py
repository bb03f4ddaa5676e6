"""Profiles, set updates, chained updates and the iteration's stationarity."""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import chain_profile, pairs_and_crossings, random_log_concave_bound
from sgbounds import (
    GridBound,
    IterationStep,
    OmegaRPair,
    OmegaSet,
    PiecewiseLogAffineBound,
    ResolventProfile,
    allclose,
    argmin_abscissas,
    first_crossing_time,
    iterate,
    log_concavity,
    min_update,
    piecewise_interpolant,
    pointwise_min,
    subadditive_envelope,
    update_bound,
    update_chain,
)
from sgbounds.models import JordanBlockModel, diffop_rate, jordan_resolvent_rate, jordan_semigroup_norm

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


class TestMinUpdate:
    def test_single_frequency_gives_wei(self):
        got = min_update(ONE, *pairs_and_crossings(ONE, [0.0], PROFILE_53))
        assert allclose(got, WEI, 1e-12)

    def test_two_frequencies_give_min_of_singles(self):
        got = min_update(ONE, *pairs_and_crossings(ONE, [0.0, -1.0], PROFILE_53))
        expected = pointwise_min(
            update_bound(ONE, OmegaRPair(0.0, 1.0)), update_bound(ONE, OmegaRPair(-1.0, 0.05))
        )
        assert got == expected
        assert got.breakpoints[-1] == pytest.approx(46.1344, abs=5e-3)

    def test_useless_frequencies_leave_bound_alone(self):
        profile = ResolventProfile.tabulated([(1.0, 0.5), (2.0, 1.0)])
        got = min_update(ONE, *pairs_and_crossings(ONE, [1.0, 2.0], profile))
        assert got == ONE


class TestUpdateChain:
    def test_slow_then_reference_is_plain_min(self):
        got = update_chain(ONE, [-1.0, 0.0], PROFILE_53)
        expected = min_update(ONE, *pairs_and_crossings(ONE, [0.0, -1.0], PROFILE_53))
        assert allclose(got, expected, 1e-12)

    def test_reference_then_slow_improves_tail(self):
        got = update_chain(ONE, [0.0, -1.0], PROFILE_53)
        assert got.slopes[-1] == -1.05
        assert got.intercepts[-1] == pytest.approx(3.8490, abs=5e-4)
        assert got.breakpoints[-1] == pytest.approx(45.5641, abs=5e-3)
        # strictly below the plain min for large t
        plain = min_update(ONE, *pairs_and_crossings(ONE, [0.0, -1.0], PROFILE_53))
        assert got.log_at(60.0) < plain.log_at(60.0)


class TestArgmin:
    def test_reference_pair_wins(self):
        # crossing pi/4 at omega = 0 beats 1.8464 at omega = -1
        assert argmin_abscissas(*pairs_and_crossings(ONE, [0.0, -1.0], PROFILE_53)) == (0.0,)

    def test_all_infinite_ties(self):
        profile = ResolventProfile.tabulated([(1.0, 0.5), (2.0, 1.0)])
        assert argmin_abscissas(*pairs_and_crossings(ONE, [1.0, 2.0], profile)) == (1.0, 2.0)


class TestIterate:
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
        step = min_update(ONE, *pairs_and_crossings(ONE, omegas, PROFILE_53))
        for w in argmin_abscissas(*pairs_and_crossings(ONE, omegas, PROFILE_53)):
            assert first_crossing_time(step, PROFILE_53.pairs([w])[0]) == pytest.approx(best, abs=1e-9)

    def test_requires_normalized(self):
        shifted = PiecewiseLogAffineBound((0.0,), (0.0,), (0.5,))
        with pytest.raises(ValueError):
            iterate(shifted, OmegaSet.of([0.0]), PROFILE_53, 2, (0.5, 10))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known fault: iterate continues from the log-linear interpolant of the envelope "
        "grid, which passes under the shift's norm between the grid points 0.9 and 1.05",
    )
    def test_shift_bounds_stay_above_the_norm_between_grid_points(self):
        # the shift on [0, 1] has ||S(t)|| = 1 for t < 1, so every emitted bound
        # needs log m >= 0 there; the start is valid and h = 0.15 does not divide 1
        m0 = PiecewiseLogAffineBound((0.0, 0.3, 0.45), (0.0, 1.0, 0.0), (0.0, -0.3, 0.15))
        trace = iterate(m0, OmegaSet.of([-40.0, 0.0]), ResolventProfile(fn=diffop_rate), 3, (0.15, 40))
        for step in trace.steps:
            lowest = min(step.bound.log_at(k * 1e-3) for k in range(1000))
            assert lowest >= 0.0, f"step {step.index}: log m reaches {lowest:.3g} on [0, 1)"


def step_after(prev, pairs, h, n, envelope):
    """The update of ``prev.bound`` and the step iterate builds from it, recomputed
    without the repeat rule: sample the update, apply the envelope rule, walk
    every crossing of the new bound and take the argmin."""
    updated = min_update(prev.bound, pairs, [first_crossing_time(prev.bound, pair) for pair in pairs])
    sampled = GridBound.sample(updated, h, n)
    if not envelope or (log_concavity(updated).is_concave and updated.intercepts[0] >= 0.0):
        bound, grid = updated, sampled
    else:
        grid = subadditive_envelope(sampled)
        drift = np.max(np.abs(np.subtract(grid.values, sampled.values)))
        bound = updated if drift <= 1e-10 else piecewise_interpolant(grid)
    crossings = [first_crossing_time(bound, pair) for pair in pairs]
    return updated, IterationStep(prev.index + 1, bound, grid, argmin_abscissas(pairs, crossings))


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
def envelope_calls(monkeypatch):
    """Count the calls iterate makes to the grid subadditive envelope."""
    calls = []

    def counted(g):
        calls.append(g)
        return subadditive_envelope(g)

    monkeypatch.setattr("sgbounds.iteration.subadditive_envelope", counted)
    return calls


class TestEnvelopeSkip:
    """The envelope runs only on iterates it can act on: not log-concave, or log m(0) < 0."""

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_concave_normalized_start_skips_the_envelope(self, envelope_calls, seed):
        m = random_log_concave_bound(np.random.default_rng(seed))
        assert m.intercepts[0] == 0.0
        h, n = 0.25, 240
        trace = iterate(m, OmegaSet.of([0.0, -1.0]), PROFILE_53, 5, (h, n))
        assert envelope_calls == []
        for step in trace.steps:
            assert step.grid == GridBound.sample(step.bound, h, n)
            excess = np.subtract(step.grid.values, subadditive_envelope(step.grid).values)
            assert 0.0 <= excess.min() and excess.max() <= 1e-12

    def test_rise_start_runs_the_envelope(self, envelope_calls):
        m = PiecewiseLogAffineBound.from_slopes([0.1, 1.0, 2.0], [0.3, 1.2])
        omegas, profile, h, n = OmegaSet.of([-5.0, 0.0]), ResolventProfile(fn=diffop_rate), 0.05, 200
        updated = min_update(m, *pairs_and_crossings(m, omegas, profile))
        assert not log_concavity(updated).is_concave
        trace = iterate(m, omegas, profile, 3, (h, n))
        assert envelope_calls
        sampled = GridBound.sample(updated, h, n)
        assert trace.steps[1].grid == subadditive_envelope(sampled)
        assert trace.steps[1].grid != sampled

    def test_concave_start_below_one_at_zero_runs_the_envelope(self, envelope_calls):
        m = PiecewiseLogAffineBound.from_slopes([0.5, -1.0], [2.0], -1e-13)
        assert m.is_normalized and log_concavity(m).is_concave
        trace = iterate(m, OmegaSet.of([0.0, -1.0]), PROFILE_53, 3, (0.25, 80))
        assert len(envelope_calls) == len(trace.steps) - 1


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

    def test_non_concave_start_runs_no_envelope(self, envelope_calls):
        m = PiecewiseLogAffineBound.from_slopes([0.1, 1.0, 2.0], [0.3, 1.2])
        assert not log_concavity(m).is_concave
        omegas, profile, h, n = OmegaSet.of([-5.0, 0.0]), ResolventProfile(fn=diffop_rate), 0.05, 200
        trace = iterate(m, omegas, profile, 3, (h, n), envelope=False)
        assert envelope_calls == []
        assert len(trace.steps) > 1
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert step.bound == min_update(prev.bound, *pairs_and_crossings(prev.bound, omegas, profile))
            assert step.grid == GridBound.sample(step.bound, h, n)


def emitted_bounds(m, omegas, profile, h=0.15):
    """Every bound that update_bound, update_chain, min_update and iterate
    without the envelope, on a grid of step h up to T = 6, emit from m over
    the abscissas."""
    bounds = [update_bound(m, profile.pairs([w])[0]) for w in omegas]
    bounds += [update_chain(m, omegas, profile), min_update(m, *pairs_and_crossings(m, omegas, profile))]
    bounds += [step.bound for step in iterate(m, omegas, profile, 3, (h, round(6.0 / h)), envelope=False).steps]
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
        # the envelope's interpolant passes under it (the strict xfail above)
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


def test_trace_json_round_trip():
    trace = iterate(ONE, OmegaSet.of([0.0, -1.0]), PROFILE_53, 3, (0.5, 40))
    data = json.loads(json.dumps(trace.to_json_dict()))
    assert data["stationary_at"] == trace.stationary_at
    assert len(data["steps"]) == len(trace.steps)
    rebuilt = PiecewiseLogAffineBound.from_json_dict(data["steps"][-1]["bound"])
    assert rebuilt == trace.steps[-1].bound
