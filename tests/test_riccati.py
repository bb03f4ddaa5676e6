"""Riccati closed forms against an independent integrator, plus the bound update
and the weighted-norm estimates against quadrature."""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from conftest import bounds_strategy, probe_min, random_bound, random_log_concave_bound
from sgbounds import (
    MuSegment,
    OmegaRPair,
    PiecewiseLogAffineBound,
    PoleError,
    crossing_candidate,
    first_crossing_time,
    gp_log_bound,
    log_concavity,
    log_weighted_inv_norm_sq,
    normalized_crossing_time,
    propagate,
    state_at,
    update_bound,
)
from sgbounds import riccati
from sgbounds.bounds import splice

ONE = PiecewiseLogAffineBound.constant()
WEI = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [math.pi / 2])
PAIR_53 = OmegaRPair(-1.0, 0.05)


def integrate_flow(mu: float, start: float, b: float) -> float:
    """Reference solution of u' = u^2 + 2 mu u + 1 via a high-order integrator."""
    sol = solve_ivp(
        lambda _, y: y * y + 2.0 * mu * y + 1.0,
        (0.0, b),
        [start],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    assert sol.success
    return float(sol.y[0][-1])


class TestPropagate:
    def test_reference_tangent_value(self):
        assert propagate(math.pi / 4, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_branch(self):
        assert propagate(3.0, -1.0, 1.0) == 1.0
        assert propagate(0.0, 0.3, 0.5) == 0.5
        # mu = -1.25 has the equilibria -mu -+ sqrt(mu^2 - 1) = 0.5 and 2
        assert propagate(1.0, -1.25, 2.0) == 2.0

    def test_large_mu_value(self):
        assert propagate(0.05 * math.pi / 2, 20.0, 0.0) == pytest.approx(0.5597, abs=5e-4)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            propagate(2.0, 0.0, 0.0)  # tangent pole at pi/2
        with pytest.raises(PoleError):
            propagate(2.0, 1.0, 0.5)  # parabolic pole at 1/(start+mu)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            propagate(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            propagate(1.0, 0.0, -0.5)

    def test_against_integrator_sample(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            mu = float(rng.uniform(-3.0, 3.0))
            start = float(rng.uniform(0.0, 0.999))
            seg = MuSegment(0.0, math.inf, mu)
            b_max = min(crossing_candidate(seg, start, 1.0), 5.0)
            b = float(rng.uniform(0.0, b_max))
            assert propagate(b, mu, start) == pytest.approx(integrate_flow(mu, start, b), abs=1e-8)

    def test_extreme_mu_self_consistency(self):
        # at rates of order exp(-|omega|) the driving coefficient reaches 1e16;
        # propagating to the predicted crossing time must still give state 1
        for mu in (1e4, 1e8, 1e12, 1e16):
            for start in (0.0, 0.3, 0.9):
                seg = MuSegment(0.0, math.inf, mu)
                b = crossing_candidate(seg, start, 1.0)
                assert propagate(b, mu, start) == pytest.approx(1.0, abs=1e-9)
        for mu in (-1e4, -1e8, -1e16):
            assert crossing_candidate(MuSegment(0.0, math.inf, mu), 0.5, 1.0) == math.inf
            value = propagate(1e6, mu, 0.5)  # pinned near the equilibrium
            assert 0.0 <= value < 1.0

    def test_blow_up_above_equilibrium(self):
        # starting above the upper equilibrium of u' = u^2 + 2 mu u + 1 with
        # mu = -10 blows up near b = 0.0549; values before the pole match the
        # integrator, beyond it the closed form refuses
        assert propagate(0.02, -10.0, 30.0) == pytest.approx(
            integrate_flow(-10.0, 30.0, 0.02), rel=1e-9
        )
        with pytest.raises(PoleError):
            propagate(5.0, -10.0, 30.0)

    def test_case_boundary_continuity(self):
        for start in (0.0, 0.3, 0.9):
            for b in (0.05, 0.2):
                below = propagate(b, 1.0 - 1e-9, start)
                above = propagate(b, 1.0 + 1e-9, start)
                assert abs(below - above) <= 1e-6
                below = propagate(b, -1.0 - 1e-9, start)
                above = propagate(b, -1.0 + 1e-9, start)
                assert abs(below - above) <= 1e-6

    def test_reciprocal_satisfies_decreasing_riccati(self):
        # Psi = 1/Phi solves Psi' = -(Psi^2 + 2 mu Psi + 1); check with central differences
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = float(rng.uniform(-2.0, 2.0))
            b_star = normalized_crossing_time(mu)
            if not math.isfinite(b_star):
                b_star = 3.0
            h = 1e-6
            for frac in (0.3, 0.6, 0.9):
                b = frac * min(b_star, 3.0)
                if b <= h:
                    continue
                psi = 1.0 / propagate(b, mu, 0.0)
                dpsi = (1.0 / propagate(b + h, mu, 0.0) - 1.0 / propagate(b - h, mu, 0.0)) / (2 * h)
                assert dpsi == pytest.approx(-(psi * psi + 2 * mu * psi + 1.0), abs=1e-6 * max(1.0, psi * psi))


def knife_edge_cases(seed: int, count: int = 30):
    """(omega, rate, first slope, c0): c0 is the crossing of the one-piece bound
    of that first slope, for first mu in [-0.5, 3] and rates in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        omega, rate = float(rng.uniform(-1.0, 0.5)), float(rng.uniform(0.5, 2.0))
        a0 = omega + float(rng.uniform(-0.5, 3.0)) * rate
        c0 = first_crossing_time(PiecewiseLogAffineBound.exponential(a0), OmegaRPair(omega, rate))
        assert math.isfinite(c0)
        yield omega, rate, a0, c0


@pytest.mark.parametrize(
    "probe",
    [
        lambda: propagate(math.nan, 0.5, 0.0),
        lambda: propagate(1.0, math.nan, 0.0),
        lambda: propagate(1.0, 0.5, math.nan),
        lambda: normalized_crossing_time(math.nan),
        lambda: crossing_candidate(MuSegment(0.0, 1.0, math.nan), 0.0, 1.0),
        lambda: crossing_candidate(MuSegment(0.0, 1.0, 0.0), 0.0, math.nan),
        lambda: state_at(WEI, PAIR_53, math.nan),
        lambda: riccati.update_tail(WEI, PAIR_53, math.nan),
        lambda: WEI.log_at(math.nan),
    ],
    ids=[
        "propagate_b", "propagate_mu", "propagate_start", "normalized_crossing_time", "candidate_mu",
        "candidate_rate", "state_at", "update_tail", "log_at",
    ],
)
def test_a_nan_argument_is_named(probe):
    # not a NaN result, an infinite crossing or a PoleError, which read as numbers or numeric failures
    with pytest.raises(ValueError, match="nan"):
        probe()


def test_an_infinite_rate_is_named():
    # OmegaRPair rejects it too; the candidate gave a crossing at the segment start
    with pytest.raises(ValueError, match="inf"):
        crossing_candidate(MuSegment(0.0, 1.0, 0.0), 0.0, math.inf)


class TestCrossingTimes:
    def test_candidate_rejects_bad_start(self):
        seg = MuSegment(0.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            crossing_candidate(seg, 1.0, 1.0)
        with pytest.raises(ValueError):
            crossing_candidate(seg, -0.1, 1.0)
        with pytest.raises(ValueError):
            crossing_candidate(seg, 0.5, 0.0)

    def test_trivial_bound_reference(self):
        for r in (0.5, 1.0, 2.0):
            assert first_crossing_time(ONE, OmegaRPair(0.0, r)) == pytest.approx(
                math.pi / (4 * r), abs=1e-12
            )

    def test_no_crossing_when_rate_below_omega(self):
        assert first_crossing_time(ONE, OmegaRPair(1.0, 1.0)) == math.inf
        assert first_crossing_time(ONE, OmegaRPair(2.0, 0.5)) == math.inf

    def test_slow_pair_on_trivial_bound(self):
        assert first_crossing_time(ONE, PAIR_53) == pytest.approx(1.8464, abs=5e-4)

    def test_slow_pair_on_wei_bound(self):
        assert first_crossing_time(WEI, PAIR_53) == pytest.approx(7.0741, abs=5e-4)

    def test_crossing_state_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = random_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-2, 1)), float(rng.uniform(0.1, 2.0)))
            crossing = first_crossing_time(m, pair)
            if math.isfinite(crossing):
                assert state_at(m, pair, crossing) == pytest.approx(1.0, abs=1e-10)

    def test_slope_whose_mu_overflows_raises(self):
        # |mu| beyond about 1.34e154 overflows mu * mu, so the closed form gives
        # NaN; the walk must not fall through to the unbounded-piece assertion
        with pytest.raises(OverflowError, match=r"slope 1e\+155, omega = 0.0, rate 1.5"):
            first_crossing_time(PiecewiseLogAffineBound.exponential(1e155), OmegaRPair(0.0, math.pi / 2))

    def test_huge_slope_below_the_overflow_crosses(self):
        crossing = first_crossing_time(PiecewiseLogAffineBound.exponential(1.3e154), OmegaRPair(0.0, math.pi / 2))
        assert math.isfinite(crossing) and 0.0 < crossing < 1e-150

    def test_phi_at_known_value(self):
        assert state_at(WEI, PAIR_53, math.pi / 2) == pytest.approx(0.5597, abs=5e-4)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_state_across_a_steep_ramp_tends_to_the_jump_rule(self, eps):
        # a ramp of height -0.5 and width eps drives mu down to -0.5/eps; as
        # eps -> 0 the state across it is multiplied by exp(2 * -0.5)
        m = PiecewiseLogAffineBound.from_slopes([0.0, -0.5 / eps, 0.0], [0.3, 0.3 + eps])
        pair = OmegaRPair(0.0, 1.0)
        ratio = state_at(m, pair, 0.3 + eps) / state_at(m, pair, 0.3)
        assert abs(ratio - math.exp(-1.0)) <= 4.0 * eps + 1e-8

    # two-piece bounds whose breakpoint sits at the first piece's own crossing
    # c0: a crossing counts only on the piece where it lands
    @pytest.mark.parametrize("mu_next", [-1.0, -2.0])
    def test_no_crossing_just_before_a_piece_that_cannot_reach_one(self, mu_next):
        for omega, rate, a0, c0 in knife_edge_cases(71):
            m = PiecewiseLogAffineBound.from_slopes([a0, omega + mu_next * rate], [c0 * (1.0 - 1e-13)])
            assert first_crossing_time(m, OmegaRPair(omega, rate)) == math.inf

    def test_crossing_just_before_a_slower_piece_lands_on_it(self):
        for omega, rate, a0, c0 in knife_edge_cases(73):
            bp = c0 * (1.0 - 1e-13)
            m = PiecewiseLogAffineBound.from_slopes([a0, omega - 0.5 * rate], [bp])
            pair = OmegaRPair(omega, rate)
            crossing = first_crossing_time(m, pair)
            assert bp < crossing <= bp + 1e-11
            assert state_at(m, pair, crossing) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("mu_next", [-2.0, -1.0, -0.5])
    def test_breakpoints_within_ulps_of_the_crossing(self, mu_next):
        for omega, rate, a0, c0 in knife_edge_cases(79):
            for direction in (0.0, math.inf):
                bp = c0
                for _ in range(5):
                    m = PiecewiseLogAffineBound.from_slopes([a0, omega + mu_next * rate], [bp])
                    crossing = first_crossing_time(m, OmegaRPair(omega, rate))
                    if math.isinf(crossing):
                        assert bp < c0
                    else:
                        assert abs(crossing - c0) <= 1e-12
                    bp = math.nextafter(bp, direction)


def crossing_by_event_integration(m, pair, t_max=80.0):
    """Independent first-crossing oracle: integrate the driven flow segment by
    segment (discontinuities handled exactly) with a terminal event at 1."""
    state = 0.0
    breakpoints = [*m.breakpoints, t_max]
    for j, a in enumerate(m.slopes):
        lo = breakpoints[j]
        hi = min(breakpoints[j + 1] if j + 1 < len(m.breakpoints) else t_max, t_max)
        if hi <= lo:
            break
        mu = (a - pair.omega) / pair.rate

        def rhs(_, y, mu=mu):
            return pair.rate * (y[0] * y[0] + 2.0 * mu * y[0] + 1.0)

        def hit_one(_, y):
            return y[0] - 1.0

        hit_one.terminal = True
        hit_one.direction = 1.0
        sol = solve_ivp(
            rhs, (lo, hi), [state], events=hit_one, method="DOP853", rtol=1e-11, atol=1e-12
        )
        assert sol.success
        if sol.t_events[0].size:
            return float(sol.t_events[0][0])
        state = float(sol.y[0][-1])
    return math.inf


class TestCrossingOracle:
    def test_walk_matches_event_integration(self):
        rng = np.random.default_rng(61)
        compared = 0
        for _ in range(40):
            m = random_bound(rng) if rng.random() < 0.5 else random_log_concave_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-2.0, 1.0)), float(rng.uniform(0.1, 2.0)))
            closed = first_crossing_time(m, pair)
            oracle = crossing_by_event_integration(m, pair)
            if math.isfinite(closed) and closed < 75.0:
                assert closed == pytest.approx(oracle, abs=1e-7)
                compared += 1
            else:
                assert oracle == math.inf
        assert compared >= 10  # the sweep must actually exercise finite crossings

    def test_worked_example_against_event_integration(self):
        oracle = crossing_by_event_integration(WEI, PAIR_53)
        assert first_crossing_time(WEI, PAIR_53) == pytest.approx(oracle, abs=1e-8)


class TestNormalizedCrossing:
    def test_constant_profiles(self):
        assert normalized_crossing_time(0.0) == pytest.approx(math.pi / 4, abs=1e-12)
        assert normalized_crossing_time(-1.0) == math.inf
        eta = math.sqrt(399.0)
        expected = math.log(20.0 + eta) / (2.0 * eta)  # closed-form rescale of the slow pair
        assert normalized_crossing_time(20.0) == pytest.approx(expected, abs=1e-12)
        assert normalized_crossing_time(20.0) == pytest.approx(0.05 * 1.8464, abs=2.5e-5)

    def test_segments_match_physical_rescaling(self):
        # stretching time by r and the slopes to (a_j - omega) / r gives the
        # normalized flow (omega 0, rate 1), whose crossing is r times m's
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-2, 1)), float(rng.uniform(0.1, 2.0)))
            scaled = PiecewiseLogAffineBound.from_slopes(
                [(a - pair.omega) / pair.rate for a in m.slopes],
                [pair.rate * t for t in m.breakpoints[1:]],
            )
            b_star = first_crossing_time(scaled, OmegaRPair(0.0, 1.0))
            a_star = first_crossing_time(m, pair)
            if math.isfinite(a_star):
                assert b_star == pytest.approx(pair.rate * a_star, abs=1e-9)
            else:
                assert b_star == math.inf


class TestUpdateBound:
    def test_wei_shape(self):
        for r in (0.5, 1.0, 2.0):
            u = update_bound(ONE, OmegaRPair(0.0, r))
            assert u.breakpoints == pytest.approx((0.0, math.pi / (2 * r)), abs=1e-12)
            assert u.slopes == (0.0, -r)
            assert u.log_at(0.0) == 0.0

    def test_no_improvement_when_rate_below_omega(self):
        assert update_bound(ONE, OmegaRPair(1.0, 0.5)) == ONE

    def test_two_pair_tail(self):
        u = update_bound(WEI, PAIR_53)
        assert u.slopes[-1] == -1.05
        assert u.intercepts[-1] == pytest.approx(3.8490, abs=5e-4)
        assert u.breakpoints[-1] == pytest.approx(45.5641, abs=5e-3)

    def test_reapplying_reference_pair_is_bitwise_noop(self):
        # the regenerated tail coincides with the existing one; the minimum
        # keeps the original pieces, so the fixed point is exact
        assert update_bound(WEI, OmegaRPair(0.0, 1.0)) == WEI

    def test_domination(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = random_log_concave_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-3, 2)), float(rng.uniform(0.05, 3.0)))
            u = update_bound(m, pair)
            for t in rng.uniform(0.0, 50.0, size=50):
                assert u.log_at(t) <= m.log_at(t) + 1e-12

    def test_concavity_preserved_spot(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_log_concave_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-3, 2)), float(rng.uniform(0.05, 3.0)))
            assert log_concavity(update_bound(m, pair)).is_concave

    def test_requires_normalized(self):
        shifted = PiecewiseLogAffineBound((0.0,), (0.0,), (1.0,))
        with pytest.raises(ValueError):
            update_bound(shifted, OmegaRPair(0.0, 1.0))

    def test_rise_then_fall_splices_at_twice_the_crossing(self):
        # log m rises with slope 2 then falls: concave, so m(2a*) <= m(a*)^2 and
        # the tail starts on m at twice the crossing a*, where it is spliced
        m = PiecewiseLogAffineBound.from_slopes([2.0, -1.0], [4.0])
        pair = OmegaRPair(0.0, 1.0)
        start, slope, intercept = riccati.update_tail(m, pair, first_crossing_time(m, pair))
        assert start == 2.0 * first_crossing_time(m, pair)
        tail = PiecewiseLogAffineBound((0.0,), (slope,), (intercept,))
        assert update_bound(m, pair) == splice(m, probe_min(m, tail), start)

    @staticmethod
    def _almost_submultiplicative(g):
        # flat up to pi/2 - 2g, then rising: with the pair (0, 1) the crossing
        # is pi/4, and the tail lies about g below m at twice the crossing
        m = PiecewiseLogAffineBound.from_slopes([0.0, 0.5], [math.pi / 2 - 2.0 * g])
        pair = OmegaRPair(0.0, 1.0)
        crossing = first_crossing_time(m, pair)
        slope = pair.omega - pair.rate
        tail = PiecewiseLogAffineBound((0.0,), (slope,), (2.0 * m.log_at(crossing) - 2.0 * slope * crossing,))
        return m, pair, tail, 2.0 * crossing

    @pytest.mark.parametrize("g", [1e-11, 1e-10, 5e-10])
    def test_gap_above_the_continuity_slack_leaves_m_unchanged(self, g):
        m, pair, tail, start = self._almost_submultiplicative(g)
        assert tail.log_at(start) < m.log_at(start) - 1e-12
        assert riccati.update_tail(m, pair, first_crossing_time(m, pair)) is None
        assert update_bound(m, pair) is m

    def test_gap_within_the_slack_splices_and_a_larger_one_keeps_m(self):
        m, pair, tail, start = self._almost_submultiplicative(1e-13)
        assert update_bound(m, pair) == splice(m, probe_min(m, tail), start)
        m, pair, _, _ = self._almost_submultiplicative(2e-9)
        assert update_bound(m, pair) is m


class TestMonotonicityProperties:
    def test_crossing_decreases_in_rate(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = random_log_concave_bound(rng)
            omega = float(rng.uniform(-2.0, 1.0))
            r1, r2 = sorted(rng.uniform(0.05, 3.0, size=2))
            if r2 - r1 < 1e-6:
                continue
            a1 = first_crossing_time(m, OmegaRPair(omega, r1))
            a2 = first_crossing_time(m, OmegaRPair(omega, r2))
            assert a1 >= a2 - 1e-12
            if math.isfinite(a1) and math.isfinite(a2):
                assert a1 > a2

    def test_crossing_increases_in_omega(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = random_log_concave_bound(rng)
            rate = float(rng.uniform(0.1, 3.0))
            w1, w2 = sorted(rng.uniform(-3.0, 2.0, size=2))
            a1 = first_crossing_time(m, OmegaRPair(w1, rate))
            a2 = first_crossing_time(m, OmegaRPair(w2, rate))
            assert a1 <= a2 + 1e-12

    def test_normalized_crossing_decreases_in_shift(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            mu = float(rng.uniform(-0.99, 3.0))
            theta1, theta2 = sorted(rng.uniform(0.0, 2.0, size=2))
            b1 = normalized_crossing_time(mu + theta1)
            b2 = normalized_crossing_time(mu + theta2)
            assert b2 <= b1 + 1e-12

    def test_state_derivative_in_rate_positive(self):
        rng = np.random.default_rng(43)
        step = 1e-5
        for _ in range(50):
            m = random_log_concave_bound(rng)
            omega = float(rng.uniform(-2.0, 0.5))
            rate = float(rng.uniform(0.2, 2.0))
            crossing = first_crossing_time(m, OmegaRPair(omega, rate))
            horizon = min(crossing, 10.0)
            for frac in (0.25, 0.6, 1.0):
                t = frac * horizon
                if t <= 0.0:
                    continue
                hi = state_at(m, OmegaRPair(omega, rate + step), t)
                lo = state_at(m, OmegaRPair(omega, rate - step), t)
                assert (hi - lo) / (2 * step) > -1e-8


class TestWeightedNorm:
    def test_flat_bound_exact(self):
        assert log_weighted_inv_norm_sq(ONE, 0.0, 3.0) == math.log(3.0)

    def test_pure_exponential_symbolic(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            w0 = float(rng.uniform(-1.0, 1.5))
            omega = w0 - float(rng.uniform(0.1, 2.0))
            c = float(rng.uniform(0.5, 5.0))
            m = PiecewiseLogAffineBound.exponential(w0)
            expected = (1.0 - math.exp(2.0 * (omega - w0) * c)) / (2.0 * (w0 - omega))
            got = math.exp(log_weighted_inv_norm_sq(m, omega, c))
            assert got == pytest.approx(expected, rel=1e-12)
            oracle, err = quad(lambda s: math.exp(2 * omega * s - 2 * w0 * s), 0.0, c, epsabs=1e-13)
            assert got == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_wei_bound_against_quadrature(self):
        got = math.exp(log_weighted_inv_norm_sq(WEI, -1.0, 3.0))
        oracle, err = quad(
            lambda s: math.exp(-2.0 * s) * math.exp(-2.0 * WEI.log_at(s)),
            0.0,
            3.0,
            points=[math.pi / 2],
            epsabs=1e-13,
        )
        assert got == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_degenerate_slope_branch(self):
        m = PiecewiseLogAffineBound.exponential(-0.75)
        assert math.exp(log_weighted_inv_norm_sq(m, -0.75, 4.0)) == pytest.approx(4.0, rel=1e-13)

    def test_nearly_flat_exponent_keeps_its_sign(self):
        # the integral of exp(2 kappa s) over [0, 3] is 3 (1 + 3 kappa + ...), so
        # its log is log 3 + 3 kappa to within 1e-26 at kappa = +-1e-14
        for kappa in (1e-14, -1e-14):
            value = log_weighted_inv_norm_sq(ONE, kappa, 3.0)
            assert (value > math.log(3.0)) == (kappa > 0.0)
            assert abs(value - (math.log(3.0) + 3.0 * kappa)) <= 1e-15

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            log_weighted_inv_norm_sq(ONE, 0.0, 0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_requires_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match=f"got {horizon!r}$"):
            log_weighted_inv_norm_sq(ONE, 0.0, horizon)

    def test_huge_positive_weight_stays_finite(self):
        # the norm itself, (exp(1000) - 1) / 2, overflows a float; its log does not
        value = log_weighted_inv_norm_sq(ONE, 1.0, 500.0)
        assert value == pytest.approx(1000.0 - math.log(2.0), abs=1e-12)
        value = gp_log_bound(ONE, OmegaRPair(1.0, 0.5), 500.0, 500.0, 1000.0)
        assert math.isfinite(value)


class TestGpBound:
    def test_matches_exponential_closed_form(self):
        # m = M exp(w0 t), windows a = b = t/2: the bound collapses to
        # 2 M^2 (w0 - w) exp(w t) / (r (1 - exp((w - w0) t)))
        big_m, w0 = 1.7, 0.3
        m = PiecewiseLogAffineBound((0.0,), (w0,), (math.log(big_m),))
        for t in (1.0, 4.0, 9.0):
            for omega, rate in ((-0.5, 0.8), (-2.0, 0.3)):
                got = gp_log_bound(m, OmegaRPair(omega, rate), t / 2, t / 2, t, with_decay=False)
                expected = math.log(
                    2.0
                    * big_m**2
                    * (w0 - omega)
                    * math.exp(omega * t)
                    / (rate * (1.0 - math.exp((omega - w0) * t)))
                )
                assert got == pytest.approx(expected, abs=1e-10)

    def test_flat_bound_closed_form(self):
        a, b, t, r = 1.5, 2.5, 6.0, 0.7
        got = gp_log_bound(ONE, OmegaRPair(0.0, r), a, b, t)
        expected = -r * (t - a - b) - math.log(r * math.sqrt(a * b))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_decay_window(self):
        # at t = a + b the decay factor drops out entirely
        a, b = 1.0, 2.0
        pair = OmegaRPair(-0.5, 0.4)
        with_decay = gp_log_bound(ONE, pair, a, b, a + b)
        without = gp_log_bound(ONE, pair, a, b, a + b, with_decay=False)
        assert with_decay == without
        expected = (
            -0.5 * (a + b)
            - math.log(0.4)
            - 0.5 * math.log(1.0 - math.exp(-a))
            - 0.5 * math.log(1.0 - math.exp(-b))
        )
        assert with_decay == pytest.approx(expected, abs=1e-12)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            gp_log_bound(ONE, OmegaRPair(0.0, 1.0), 2.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "a, t, named", [(1.0, math.inf, "t = inf"), (1.0, math.nan, "t = nan"), (math.inf, math.inf, "t = inf")]
    )
    def test_rejects_non_finite_time(self, a, t, named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            gp_log_bound(ONE, OmegaRPair(0.0, 1.0), a, 1.0, t)

    def test_decay_factor_only_helps(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            m = random_log_concave_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-2, 1)), float(rng.uniform(0.1, 2)))
            a, b = rng.uniform(0.5, 3.0, size=2)
            t = a + b + float(rng.uniform(0.1, 10.0))
            strict = gp_log_bound(m, pair, a, b, t)
            plain = gp_log_bound(m, pair, a, b, t, with_decay=False)
            assert strict <= plain + 1e-12


def exact_gp_log_bound(m: PiecewiseLogAffineBound, omega: float, rate: float, a: float, b: float, t: float):
    """gp_log_bound with decay in 50-digit arithmetic, each piece integrated in closed form."""
    with mpmath.workdps(50):
        bps = [mpmath.mpf(x) for x in m.breakpoints]

        def log_norm(horizon):
            total = mpmath.mpf(0)
            for j, (lo, slope, intercept) in enumerate(zip(bps, m.slopes, m.intercepts)):
                if lo >= horizon:
                    break
                hi = min(bps[j + 1], horizon) if j + 1 < len(bps) else horizon
                kappa, c = mpmath.mpf(omega) - mpmath.mpf(slope), mpmath.mpf(intercept)
                if kappa == 0:
                    total += (hi - lo) * mpmath.exp(-2 * c)
                else:
                    total += (mpmath.exp(2 * kappa * hi - 2 * c) - mpmath.exp(2 * kappa * lo - 2 * c)) / (2 * kappa)
            return mpmath.log(total)

        a, b, t, omega, rate = map(mpmath.mpf, (a, b, t, omega, rate))
        return omega * t - mpmath.log(rate) - rate * (t - a - b) - log_norm(a) / 2 - log_norm(b) / 2


class TestGpLargeOmega:
    """omega t and the norms' 2 omega a and 2 omega b cancel before they are formed,
    so gp values keep their relative precision at any omega."""

    @pytest.mark.parametrize("m", [ONE, PiecewiseLogAffineBound.from_slopes([0.5, -1.0, 0.25], [1.0, 2.5])])
    @pytest.mark.parametrize("omega", [-1e8, -3.0, 0.0, 2.5, 1e8, 1e12, 1e16, 1e18])
    @pytest.mark.parametrize("window", [(1.0, 1.0, 2.0), (0.3, 0.7, 1.0), (1.2, 2.8, 5.0)])
    def test_against_mpmath(self, m, omega, window):
        got = gp_log_bound(m, OmegaRPair(omega, 0.5), *window)
        exact = exact_gp_log_bound(m, omega, 0.5, *window)
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))

    @pytest.mark.parametrize("omega", [1e308, -1e308, math.nan, math.inf])
    def test_norm_that_overflows_names_omega(self, omega):
        with pytest.raises(ValueError, match=re.escape(f"omega = {omega!r}") + "|" + re.escape(f"got {omega!r}")):
            log_weighted_inv_norm_sq(ONE, omega, 1.0)


def reference_log_norm(m: PiecewiseLogAffineBound, omega: float, horizon: float) -> float:
    """log_weighted_inv_norm_sq as one sum over the pieces that start before the
    horizon, each piece integrated on its own relative to its right end hi and
    shifted by 2 omega (hi - horizon), and 2 omega horizon added back."""
    bps, terms = m.breakpoints, []
    for j, a in enumerate(m.slopes):
        if bps[j] >= horizon:
            break
        hi = min(bps[j + 1] if j + 1 < len(bps) else math.inf, horizon)
        term = riccati._piece_integral_log(omega - a, a, m.intercepts[j], bps[j], hi)
        terms.append(term + omega * (2.0 * (hi - horizon)))
    return riccati._logsumexp(terms) + omega * (2.0 * horizon)


@st.composite
def gp_times(draw, m: PiecewiseLogAffineBound):
    """Times in any order, with repeats, that fall on breakpoints, on twice a
    breakpoint (so a window of split 0.5 ends on one) and past the last one."""
    inner = [t for bp in m.breakpoints[1:] for t in (bp, 2.0 * bp)]
    last = m.breakpoints[-1]
    pick = st.sampled_from(inner) if inner else st.nothing()
    free = st.floats(0.01, 3.0 * last + 10.0)
    times = draw(st.lists(pick | free | st.floats(last + 0.01, 4.0 * last + 50.0), min_size=1, max_size=12))
    return times + draw(st.lists(st.sampled_from(times), max_size=3))


class TestGpSharedTerms:
    """The gp rows share the terms of the pieces that lie wholly inside their
    windows; every value is bit for bit the one-time estimate."""

    @settings(max_examples=300, deadline=None)
    @given(
        bounds_strategy(max_pieces=8),
        st.floats(-3.0, 3.0),
        st.floats(0.05, 3.0),
        st.sampled_from([0.5, 0.5, 0.3, 0.7]) | st.floats(0.05, 0.95),
        st.booleans(),
        st.data(),
    )
    @example(PiecewiseLogAffineBound.from_slopes([0.5, -1.0, 0.25], [1.0, 2.5]), 0.0, 1.0, 0.5, True, None)
    def test_rows_equal_per_time_estimate(self, m, omega, rate, split, with_decay, data):
        times = [5.0, 2.0, 5.0, 1.0, 0.5, 40.0] if data is None else data.draw(gp_times(m))
        pair = OmegaRPair(omega, rate)
        windows = [(split * t, t - split * t, t) for t in times]
        windows = [(a, b, max(t, a + b)) for a, b, t in windows]  # a + b can round above t
        rows = list(riccati._gp_log_bounds(m, pair, windows, with_decay))
        assert rows == [gp_log_bound(m, pair, a, b, t, with_decay) for a, b, t in windows]
        horizons = [h for a, b, _ in windows for h in (a, b)]
        assert [log_weighted_inv_norm_sq(m, omega, h) for h in horizons] == [
            reference_log_norm(m, omega, h) for h in horizons
        ]

    def test_full_pieces_are_integrated_once(self, monkeypatch):
        m = PiecewiseLogAffineBound.from_slopes(
            [1.0 - 0.3 * j for j in range(12)], [0.5 + 0.75 * j for j in range(11)]
        )
        calls = []
        integral = riccati._piece_integral_log
        monkeypatch.setattr(riccati, "_piece_integral_log", lambda *args: calls.append(args) or integral(*args))
        times = np.linspace(0.5, 40.0, 50).tolist()
        list(riccati._gp_log_bounds(m, OmegaRPair(-0.5, 0.8), [(0.5 * t, t - 0.5 * t, t) for t in times]))
        assert len(calls) <= 12 + 50

    def test_bad_window_raises_as_per_time(self):
        pair = OmegaRPair(0.0, 1.0)
        with pytest.raises(ValueError, match="need t >= a \\+ b"):
            list(riccati._gp_log_bounds(WEI, pair, [(1.0, 1.0, 2.0), (2.0, 2.0, 3.0)]))
        with pytest.raises(ValueError, match="integration horizon"):
            log_weighted_inv_norm_sq(WEI, 0.0, math.nan)


# -- the parabolic band |mu^2 - 1| < BRANCH_TOL against 60-digit closed forms ----


def exact_state(mu: float, start: float, b: float):
    """u(b) for u' = (u + mu)^2 - (mu^2 - 1), u(0) = start; None past a pole."""
    mu, start, b = mpmath.mpf(mu), mpmath.mpf(start), mpmath.mpf(b)
    d, w0 = mu * mu - 1, start + mu
    if d < 0:
        eta = mpmath.sqrt(-d)
        x = eta * b + mpmath.atan(w0 / eta)
        return None if x >= mpmath.pi / 2 else eta * mpmath.tan(x) - mu
    if d == 0:
        return None if w0 > 0 and b >= 1 / w0 else w0 / (1 - w0 * b) - mu
    eta = mpmath.sqrt(d)
    if abs(w0) < eta:
        return -eta * mpmath.tanh(eta * b + mpmath.atanh(-w0 / eta)) - mu
    x = eta * b + mpmath.acoth(-w0 / eta)
    return None if w0 > eta and x >= 0 else -eta * mpmath.coth(x) - mu


def exact_time_to_one(mu: float, start: float):
    """The travel time of the same flow from start to 1; inf when it never gets there."""
    mu, start = mpmath.mpf(mu), mpmath.mpf(start)
    d, w0, w1 = mu * mu - 1, start + mu, 1 + mu
    if mu <= -1:
        return mpmath.inf
    if d < 0:
        eta = mpmath.sqrt(-d)
        return (mpmath.atan(w1 / eta) - mpmath.atan(w0 / eta)) / eta
    if d == 0:
        return 1 / w0 - 1 / w1
    eta = mpmath.sqrt(d)
    return (mpmath.log((w1 - eta) / (w1 + eta)) - mpmath.log((w0 - eta) / (w0 + eta))) / (2 * eta)


BAND_MUS = sorted({s * (1.0 + k * e) for s in (1.0, -1.0) for k in range(5) for e in (1e-11, -1e-11)})
BAND_STARTS = [0.0, 0.1, 0.5, 0.9, 0.99999, 1.0 - 1e-11, 1.0 - 1e-13]


class TestBranchBand:
    """Near mu = +-1 the closed forms follow a flow nowhere faster than the true
    one: crossings come at or after the exact ones and states at or below them,
    up to a few ulps of the values summed."""

    @pytest.mark.parametrize("mu", BAND_MUS)
    def test_crossing_times_are_not_early(self, mu):
        assert abs(mu * mu - 1.0) < riccati.BRANCH_TOL
        with mpmath.workdps(60):
            for start in BAND_STARTS:
                got, exact = riccati._time_to_one(mu, start), exact_time_to_one(mu, start)
                if exact == mpmath.inf:
                    assert got == math.inf
                    continue
                # the formula subtracts terms of size up to 1 / (start + mu)
                scale = 1.0 / (start + mu) if start + mu > 0.0 else 1.0
                assert got >= exact - 4 * math.ulp(max(1.0, scale)), (start, got, float(exact))

    @pytest.mark.parametrize("mu", BAND_MUS)
    def test_states_are_not_high(self, mu):
        with mpmath.workdps(60):
            for start in BAND_STARTS:
                for b in (1e-6, 0.01, 0.3, 1.0, 10.0, 1e3, 1e6):
                    exact = exact_state(mu, start, b)
                    try:
                        got = propagate(b, mu, start)
                    except PoleError:
                        assert exact is None, (start, b)  # the slower flow's pole is not early
                        continue
                    if exact is not None:
                        assert got <= exact + 4 * math.ulp(max(1.0, abs(float(exact)))), (start, b, got, float(exact))

    def test_crossing_after_a_piece_just_past_mu_minus_one(self):
        m = PiecewiseLogAffineBound.from_slopes([-1.0 - 4e-11, 0.0], [1000.0])
        assert first_crossing_time(m, OmegaRPair(0.0, 1.0)) >= 1000.00049976342325
