"""Subadditive closure and grid envelope: each against brute-force minima."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bounds_strategy,
    lattice_bounds_strategy,
    probe_min,
    random_bound,
    random_lattice_grid,
    random_log_concave_bound,
)
from sgbounds import (
    GridBound,
    PiecewiseLogAffineBound,
    piecewise_interpolant,
    subadditive_envelope,
)
from sgbounds import envelope
from sgbounds.envelope import _closure, _convex_kinks, _log_values, _shifted, _squared

WEI = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [math.pi / 2])


def brute_force_envelope(values):
    """Exact minimum over all compositions into positive parts, by full enumeration."""

    def compositions(k):
        if k == 0:
            yield ()
            return
        for first in range(1, k + 1):
            for rest in compositions(k - first):
                yield (first, *rest)

    out = [values[0]]
    for k in range(1, len(values)):
        out.append(min(sum(values[p] for p in parts) for parts in compositions(k)))
    return out


def loop_envelope(g):
    """The DP as one numpy minimum per grid index, kept as the reference for
    :func:`subadditive_envelope`, which must make the same sums and minima."""
    v = np.asarray(g.values, dtype=float)
    out = np.empty_like(v)
    out[0] = v[0]
    for k in range(1, len(out)):
        best = v[k]
        half = k // 2
        if half >= 1:
            best = min(best, np.min(out[1 : half + 1] + out[k - half : k][::-1]))
        out[k] = best
    return GridBound(g.h, tuple(out.tolist()))


def is_subadditive(g):
    """Whether g[i+j] <= g[i] + g[j] + 1e-10 for all positive i, j on the grid."""
    v = g.values
    for i in range(1, len(v)):
        for j in range(i, len(v) - i):
            if v[i + j] > v[i] + v[j] + 1e-10:
                return False
    return True


class TestSampling:
    def test_flat(self):
        g = GridBound.sample(PiecewiseLogAffineBound.constant(), 0.1, 10)
        assert g.values == tuple([0.0] * 11)

    def test_wei_on_coarse_grid(self):
        g = GridBound.sample(WEI, math.pi / 2, 2)
        assert g.values == pytest.approx((0.0, 0.0, -math.pi / 2), abs=1e-14)

    def test_tent(self):
        m = PiecewiseLogAffineBound.from_slopes([1.0, -1.0], [2.0])
        g = GridBound.sample(m, 1.0, 4)
        assert g.values == pytest.approx((0.0, 1.0, 2.0, 1.0, 0.0), abs=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            GridBound.sample(WEI, 0.0, 3)
        with pytest.raises(ValueError):
            GridBound.sample(WEI, 0.1, 0)
        with pytest.raises(ValueError):
            GridBound(0.1, (1.0, 0.0))  # nonzero value at t = 0

    def test_origin_is_exactly_zero(self):
        # every semigroup has log||S(0)|| = 0, whatever a normalized bound's
        # log m(0) within the continuity tolerance
        m = PiecewiseLogAffineBound.from_slopes([0.5, -1.0], [2.0], -5e-13)
        assert m.is_normalized
        g = GridBound.sample(m, 0.5, 8)
        assert g.values[0] == 0.0
        assert piecewise_interpolant(g).log_at(0.0) == 0.0
        with pytest.raises(ValueError):
            GridBound(0.5, (1e-13, 0.0))

    def test_step_count_numpy_cannot_hold_is_rejected(self):
        # np.arange returns an empty array for lengths near 2^63, not a short grid
        with pytest.raises(ValueError):
            GridBound.sample(PiecewiseLogAffineBound.constant(), 1.0, 2**63)

    def test_grid_that_overflows_names_the_step(self):
        # 2 * 1e308 is not a float: the step and the count are named before any time is built
        with pytest.raises(ValueError, match="2 grid steps of h = 1e\\+308"):
            GridBound.sample(PiecewiseLogAffineBound.constant(), 1e308, 2)
        # a count too large for a float is named too, not converted
        with pytest.raises(ValueError, match="grid steps of h = 1.0 reach past the largest float"):
            GridBound.sample(PiecewiseLogAffineBound.constant(), 1.0, 10**400)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_non_finite_step_is_rejected(self, h):
        # the step is named, not the values that an infinite step would turn into NaN
        with pytest.raises(ValueError, match=f"grid step must be positive and finite, got h = {h!r}"):
            GridBound(h, (0.0,))
        with pytest.raises(ValueError, match=f"grid step must be positive and finite, got h = {h!r}"):
            GridBound.sample(PiecewiseLogAffineBound.constant(), h, 4)


def log_at_loop(m, h, n):
    return (0.0, *(m.log_at(k * h) for k in range(1, n + 1)))


class TestSamplingMatchesLogAt:
    def test_random_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            m = random_bound(rng, 6) if rng.random() < 0.5 else random_log_concave_bound(rng, 6)
            h = float(rng.uniform(0.01, 1.0))
            n = int(rng.integers(1, 400))
            assert GridBound.sample(m, h, n).values == log_at_loop(m, h, n)

    def test_breakpoints_on_grid_times(self):
        rng = np.random.default_rng(31)
        for h in (0.05, 0.1, 0.15, 0.3, 1.0 / 3.0):
            ks = np.sort(rng.choice(np.arange(1, 200), size=5, replace=False))
            slopes = rng.uniform(-2.0, 2.0, size=6).tolist()
            m = PiecewiseLogAffineBound.from_slopes(slopes, [int(k) * h for k in ks])
            assert set(m.breakpoints[1:]) <= {k * h for k in range(1, 201)}
            assert GridBound.sample(m, h, 250).values == log_at_loop(m, h, 250)

    def test_interpolant_of_many_pieces(self):
        rng = np.random.default_rng(37)
        values = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.05, 0.04, size=1500))])
        m = piecewise_interpolant(GridBound(0.02, tuple(values.tolist())))
        assert len(m.breakpoints) >= 1000
        for h, n in ((0.02, 2000), (0.013, 2500), (0.05, 700)):
            assert GridBound.sample(m, h, n).values == log_at_loop(m, h, n)


@settings(max_examples=300, deadline=None)
@given(bounds_strategy(max_pieces=8) | lattice_bounds_strategy(max_pieces=8), st.randoms(use_true_random=False))
def test_grid_values_equal_log_at(m, random):
    """The one-lookup evaluation of a time array is log_at at each time: at 0, on
    each breakpoint and one ulp either side of it, and far past the last one."""
    near = (x for t in m.breakpoints[1:] for x in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)))
    ts = [0.0, 1e-300, *near]
    last = m.breakpoints[-1]
    ts += [last + 1.0, 2.0 * last + 1e3, 1e12, 1e300]
    random.shuffle(ts)
    assert _log_values(m, np.array(ts)).tolist() == [m.log_at(t) for t in ts]


class TestEnvelope:
    def test_pair_recursion_spot(self):
        g = GridBound(1.0, (0.0, -1.0, 1.0))
        out = subadditive_envelope(g)
        assert out.values[2] == min(g.values[2], 2 * out.values[1]) == -2.0

    def test_concave_samples_unchanged(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = GridBound.sample(random_log_concave_bound(rng), 0.3, 25)
            assert subadditive_envelope(g).values == pytest.approx(g.values, abs=1e-12)

    def test_hand_examples(self):
        assert subadditive_envelope(GridBound(1.0, (0.0, 1.0, -3.0))).values == (0.0, 1.0, -3.0)
        assert subadditive_envelope(GridBound(1.0, (0.0, -1.0, 1.0))).values == (0.0, -1.0, -2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_lattice_grid(rng)
            assert list(subadditive_envelope(g).values) == brute_force_envelope(g.values)

    def test_output_subadditive(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            assert is_subadditive(subadditive_envelope(random_lattice_grid(rng)))


class TestEnvelopeMatchesLoop:
    def test_random_grids(self):
        rng = np.random.default_rng(41)
        for n in (*rng.integers(1, 400, size=25), 2000):
            values = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.05, 0.04, size=int(n)))])
            g = GridBound(0.05, tuple(values.tolist()))
            assert subadditive_envelope(g).values == loop_envelope(g).values

    def test_ties_and_short_grids(self):
        rng = np.random.default_rng(43)
        grids = [(0.0,), (0.0, -1.0), (0.0, 1.0), (0.0, -1.0, -2.0), (0.0, 1.0, -3.0), (0.0, -1.0, 1.0)]
        grids += [(0.0, *(0.25 * rng.integers(-2, 3, size=int(n))).tolist()) for n in rng.integers(1, 40, 200)]
        for values in grids:
            g = GridBound(1.0, values)
            assert subadditive_envelope(g).values == loop_envelope(g).values


class TestSubadditivityCheck:
    def test_envelope_is_fixed_point(self):
        g = subadditive_envelope(GridBound(1.0, (0.0, -1.0, 1.0, 4.0)))
        assert is_subadditive(g)
        assert subadditive_envelope(g).values == g.values

    def test_detects_violation(self):
        assert not is_subadditive(GridBound(1.0, (0.0, -1.0, 1.0)))

    def test_concave_samples_pass(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            assert is_subadditive(GridBound.sample(random_log_concave_bound(rng), 0.25, 30))


lattice_values = st.lists(
    st.integers(-8, 8).map(lambda k: 0.25 * k), min_size=2, max_size=12
).map(lambda vs: (0.0, *vs[1:]))


@settings(max_examples=100, deadline=None)
@given(lattice_values)
def test_envelope_dominated_and_idempotent(values):
    g = GridBound(0.5, values)
    out = subadditive_envelope(g)
    assert all(o <= v for o, v in zip(out.values, g.values))
    assert subadditive_envelope(out).values == out.values


@settings(max_examples=100, deadline=None)
@given(lattice_values, lattice_values)
def test_envelope_monotone_and_subdistributive(v1, v2):
    n = min(len(v1), len(v2))
    g1 = GridBound(0.5, v1[:n])
    g2 = GridBound(0.5, v2[:n])
    low = GridBound(0.5, tuple(min(a, b) for a, b in zip(g1.values, g2.values)))
    e1, e2, elow = subadditive_envelope(g1), subadditive_envelope(g2), subadditive_envelope(low)
    if all(a <= b for a, b in zip(g1.values, g2.values)):
        assert all(a <= b for a, b in zip(e1.values, e2.values))
    assert all(c <= min(a, b) for c, a, b in zip(elow.values, e1.values, e2.values))


def test_interpolant_matches_grid_and_extends():
    g = GridBound(0.5, (0.0, -0.5, -0.75, -1.0))
    m = piecewise_interpolant(g)
    for k, v in enumerate(g.values):
        assert m.log_at(k * g.h) == pytest.approx(v, abs=1e-12)
    assert m.log_at(3.0) == pytest.approx(-1.75, abs=1e-12)  # last slope carried on


def closure_times(f, horizon, count=241):
    """A uniform grid on [0, horizon] with every breakpoint of f below it and every
    sum of two, where the closure's pieces meet."""
    bps = [b for b in f.breakpoints if b <= horizon]
    sums = [a + b for a in bps for b in bps if a + b <= horizon]
    return sorted({*np.linspace(0.0, horizon, count).tolist(), *bps, *sums})


CLOSURE_STARTS = bounds_strategy(max_pieces=5) | lattice_bounds_strategy(max_pieces=5)
# log m rises 0.3 by t = 0.45, then stays: its closure on [0, 6] is the line 0
RISE = PiecewiseLogAffineBound.from_slopes([0.0, 1.0, 0.0], [0.3, 0.45])
# like the shift benchmark's anchor start: slope about 0.07 until t = 0.22, then rising
ANCHOR_LIKE = PiecewiseLogAffineBound.from_slopes([0.073, 1.43, 0.34, 0.24, 0.75, 2.06], [0.22, 1.35, 2.23, 3.32, 5.02])


def unseeded_closure(f, horizon):
    """The closure that squares f itself, not min(f, f's first line): the oracle for
    the seed."""
    kinks = _convex_kinks(f, horizon)
    if not kinks:
        return f
    g = f
    for _ in range(math.ceil(math.log2(horizon) - math.log2(kinks[0])) + 2):
        g, before = _squared(g, horizon), g
        if g == before:
            break
    return probe_min(f, _shifted(g, f, horizon))


def closed_or_error(closure, f, horizon):
    try:
        return closure(f, horizon)
    except ValueError as error:
        return str(error)


def pieces_below(m, horizon):
    return [p for p in zip(m.breakpoints, m.slopes, m.intercepts) if p[0] < horizon]


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(CLOSURE_STARTS, st.floats(0.5, 12.0))
    @example(RISE, 6.0)
    def test_closure_round_matches_the_brute_force_minimum(self, f, horizon):
        # s -> f(s) + f(t - s) is piecewise affine, so its minimum over [0, t] is at
        # s = 0, at a breakpoint b of f or at t - b; one round takes it from the
        # convex kinks alone
        square = _squared(f, horizon)
        for t in closure_times(f, horizon):
            ss = [0.0, t, *(x for b in f.breakpoints if b <= t for x in (b, t - b))]
            brute = min(f.log_at(s) + f.log_at(t - s) for s in ss)
            assert square.log_at(t) == pytest.approx(brute, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(CLOSURE_STARTS, st.sampled_from([2.0, 6.0]))
    @example(RISE, 6.0)
    def test_closure_is_at_most_its_input(self, f, horizon):
        closed = _closure(f, horizon)
        for t in [*closure_times(f, 3.0 * horizon), *closed.breakpoints]:
            assert closed.log_at(t) <= f.log_at(t) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(CLOSURE_STARTS, st.sampled_from([2.0, 6.0]))
    @example(RISE, 6.0)
    def test_closure_past_the_horizon_is_at_least_the_longer_closure(self, f, horizon):
        # past T the closure goes on as min(f, g(T) + f(t - T)), a valid bound, so
        # never below the closure taken on [0, 3T]
        closed, longer = _closure(f, horizon), _closure(f, 3.0 * horizon)
        for t in closure_times(f, 3.0 * horizon):
            assert closed.log_at(t) >= longer.log_at(t) - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(CLOSURE_STARTS, st.sampled_from([0.25, 0.3, 0.5]))
    @example(RISE, 0.15)
    def test_closure_is_at_most_the_grid_envelope(self, f, h):
        # the grid envelope minimizes over decompositions into grid times only; the
        # closure's own samples are subadditive on the grid
        n = round(6.0 / h)
        sampled = GridBound.sample(_closure(f, h * n), h, n)
        envelope = subadditive_envelope(GridBound.sample(f, h, n))
        assert all(c <= e + 1e-12 for c, e in zip(sampled.values, envelope.values))
        assert is_subadditive(sampled)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4),
        st.lists(st.floats(5e-4, 2e-3), min_size=4, max_size=4),
        st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    )
    def test_closure_of_a_convex_bound_is_its_first_line(self, a0, rises, widths, horizon):
        # with f(0) = 0, a convex f lies above its first line a0 t, which is additive,
        # and n f(t / n) = a0 t once t / n is inside the first piece; the seed is that
        # line, so below the horizon the closure is its one piece, exactly, also with
        # kinks near 1e-3 and horizons up to 1e4, where translates would round far out
        f = PiecewiseLogAffineBound.from_slopes([a0, *(a0 + np.cumsum(rises))], np.cumsum(widths[: len(rises)]).tolist())
        assert pieces_below(_closure(f, horizon), horizon) == [(0.0, a0, 0.0)]

    @settings(max_examples=60, deadline=None)
    @given(CLOSURE_STARTS, st.sampled_from([0.0, -5e-13, 5e-13]), st.sampled_from([2.0, 6.0]))
    @example(RISE, 0.0, 6.0)
    @example(ANCHOR_LIKE, 0.0, 6.0)
    def test_seeded_closure_matches_the_unseeded_squaring(self, f, log_at_zero, horizon):
        # min(f, f's first line) has f's closure when that line starts at or below 0;
        # above 0 the squaring starts from f itself, as the oracle does.  Translates of
        # a start with log m(0) != 0 jump by log m(0) where they begin, and on some
        # starts the squaring compounds those jumps past the continuity slack and
        # raises; the seed may close such a start, never fail where the oracle closes,
        # and its result is then held to the start moved to log m(0) = 0
        start = PiecewiseLogAffineBound.from_slopes(f.slopes, f.breakpoints[1:], log_at_zero)
        closed, oracle = (closed_or_error(c, start, horizon) for c in (_closure, unseeded_closure))
        if log_at_zero > 0.0:
            if isinstance(oracle, str):  # the closure names log m(0) in place of the squaring's message
                oracle = f"cannot close a bound whose log m(0) is {log_at_zero!r}, not 0"
            assert closed == oracle
            return
        if isinstance(oracle, str):
            if isinstance(closed, str):
                return
            oracle = unseeded_closure(f, horizon)
        assert not isinstance(closed, str)
        for t in closure_times(f, 3.0 * horizon):
            assert closed.log_at(t) == pytest.approx(oracle.log_at(t), abs=1e-11)

    @pytest.mark.parametrize(
        "f, horizon",
        [
            (RISE, 6.0),
            (ANCHOR_LIKE, 100.0),
            (PiecewiseLogAffineBound.from_slopes([0.5, 1.0, 2.5], [1e-3, 2.2e-3]), 1e4),
        ],
        ids=["rise", "anchor_like", "kinks_near_1e-3"],
    )
    def test_a_first_line_start_closes_in_one_round(self, f, horizon, monkeypatch):
        # f lies above its first line on [0, horizon], so the seed is that line: it has
        # no convex kink there, and its first square returns it unchanged
        rounds = []
        monkeypatch.setattr(envelope, "_squared", lambda g, h: rounds.append(h) or _squared(g, h))
        closed = _closure(f, horizon)
        assert len(rounds) <= 1
        assert pieces_below(closed, horizon) == [(0.0, f.slopes[0], f.intercepts[0])]

    def test_no_convex_kink_below_the_horizon_returns_the_bound(self):
        concave = PiecewiseLogAffineBound.from_slopes([1.0, -0.5], [2.0])
        assert _closure(concave, 6.0) is concave
        assert _closure(RISE, 0.3) is RISE
        assert _closure(RISE, 0.31) is not RISE

    def test_a_closed_bound_with_a_convex_kink_is_returned(self):
        # log f = t up to 1, flat to 2, rising to 2 at 3, then flat: 1-Lipschitz with
        # f(s) = s for s <= 1 and f <= 2, so f(s + t) <= f(s) + f(t) already holds.  No
        # translate goes below f, so each minimum returns f itself
        f = PiecewiseLogAffineBound.from_slopes([1.0, 0.0, 1.0, 0.0], [1.0, 2.0, 3.0])
        assert _convex_kinks(f, 6.0) == [2.0]
        assert _closure(f, 6.0) is f
        assert unseeded_closure(f, 6.0) == f
