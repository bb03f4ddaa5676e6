"""Riccati closed forms against an independent integrator, plus the bound update
and the weighted-norm estimates against quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from conftest import random_bound, random_log_concave_bound
from sgbounds import (
    MuSegment,
    OmegaRPair,
    PiecewiseLogAffineBound,
    PoleError,
    crossing_candidate,
    first_crossing_time,
    gp_log_bound,
    log_concavity,
    normalized_crossing_time,
    propagate,
    solve_crossing,
    state_at,
    update_bound,
    weighted_inv_norm_sq,
)

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

    def test_solution_states_stay_in_unit_interval(self):
        sol = solve_crossing(WEI, PAIR_53)
        assert sol.states[0] == 0.0
        assert all(0.0 <= s < 1.0 for s in sol.states)
        assert sol.segments[0].mu == pytest.approx(20.0)

    def test_phi_at_known_value(self):
        assert state_at(WEI, PAIR_53, math.pi / 2) == pytest.approx(0.5597, abs=5e-4)


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
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = random_bound(rng)
            pair = OmegaRPair(float(rng.uniform(-2, 1)), float(rng.uniform(0.1, 2.0)))
            segs = []
            for j, a in enumerate(m.slopes):
                t0 = m.breakpoints[j]
                t1 = m.breakpoints[j + 1] if j + 1 < len(m.breakpoints) else math.inf
                segs.append(
                    MuSegment(pair.rate * t0, pair.rate * t1, (a - pair.omega) / pair.rate)
                )
            b_star = normalized_crossing_time(segs)
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

    def test_non_subadditive_bound_gets_continuous_majorant(self):
        # log m rises with slope 2 then falls: m(2a*) > m(a*)^2, so the exact
        # update would jump down at the splice; the result must stay continuous,
        # sound and below m
        m = PiecewiseLogAffineBound.from_slopes([2.0, -1.0], [4.0])
        pair = OmegaRPair(0.0, 1.0)
        u = update_bound(m, pair)
        for t in np.linspace(0.0, 30.0, 301):
            assert u.log_at(t) <= m.log_at(t) + 1e-12


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
        assert weighted_inv_norm_sq(ONE, 0.0, 3.0) == 3.0

    def test_pure_exponential_symbolic(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            w0 = float(rng.uniform(-1.0, 1.5))
            omega = w0 - float(rng.uniform(0.1, 2.0))
            c = float(rng.uniform(0.5, 5.0))
            m = PiecewiseLogAffineBound.exponential(w0)
            expected = (1.0 - math.exp(2.0 * (omega - w0) * c)) / (2.0 * (w0 - omega))
            got = weighted_inv_norm_sq(m, omega, c)
            assert got == pytest.approx(expected, rel=1e-12)
            oracle, err = quad(lambda s: math.exp(2 * omega * s - 2 * w0 * s), 0.0, c, epsabs=1e-13)
            assert got == pytest.approx(oracle, abs=max(1e-10, 10 * err))

    def test_wei_bound_against_quadrature(self):
        got = weighted_inv_norm_sq(WEI, -1.0, 3.0)
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
        assert weighted_inv_norm_sq(m, -0.75, 4.0) == pytest.approx(4.0, rel=1e-13)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            weighted_inv_norm_sq(ONE, 0.0, 0.0)

    def test_huge_positive_weight_saturates(self):
        assert weighted_inv_norm_sq(ONE, 1.0, 500.0) == math.inf
        # the log-scale route used by the resolvent bound stays finite
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
