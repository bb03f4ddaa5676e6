"""Model operators: secular roots, rates, true norms, Jordan blocks, and the
independent discretization / linear-algebra oracles behind them."""

from __future__ import annotations

import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgbounds import OmegaRPair, PiecewiseLogAffineBound, ResolventProfile, first_crossing_time, models, update_bound
from sgbounds.models import (
    ConvergenceError,
    JordanBlockModel,
    diffop_eigenroot,
    diffop_rate,
    diffop_semigroup_norm,
    improvement_region_thresholds,
    jordan_matrix_exponential,
    jordan_numerical_range_slope,
    jordan_resolvent_rate,
    jordan_semigroup_norm,
    rate_for_crossing_time,
)

ONE = PiecewiseLogAffineBound.constant()


def residual(nu_sq: float, omega: float) -> float:
    """Defect of the secular equation -nu cot(nu) = omega at the signed nu^2."""
    if nu_sq > 0.0:
        nu = math.sqrt(nu_sq)
        return -nu / math.tan(nu) - omega
    if nu_sq < 0.0:
        eta = math.sqrt(-nu_sq)
        return -eta / math.tanh(eta) - omega
    return -1.0 - omega


class TestEigenroot:
    def test_branch_junction(self):
        assert diffop_eigenroot(-1.0) == 0.0

    def test_reference_root(self):
        assert math.sqrt(diffop_eigenroot(0.0)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_deep_hyperbolic_root(self):
        eta = math.sqrt(-diffop_eigenroot(-20.0))
        assert eta == pytest.approx(20.0 * (1.0 - 2.0 * math.exp(-40.0)), abs=1e-12)

    def test_residuals_small(self):
        for w in np.linspace(-30.0, 30.0, 121):
            assert abs(residual(diffop_eigenroot(float(w)), float(w))) <= 1e-12

    def test_hyperbolic_root_lies_in_the_proven_bracket(self):
        # eta < eta coth(eta) < eta + 1 puts the root of eta coth(eta) = -omega
        # in [max(0, -omega - 1), -omega]: the bisection needs no bracket search;
        # sqrt(eta^2) may round one ulp out of it.
        near = np.linspace(-1.313, -1.0, 4001)[1:-1]
        tiny = [-1.0 - 10.0**-k for k in range(1, 16)]
        deep = np.linspace(-354.0, -2.0, 3521)
        ws = [*map(float, near), *tiny, *map(float, deep)]
        for w, nu_sq in zip(ws, diffop_eigenroot(np.array(ws)).tolist()):
            eta = math.sqrt(-nu_sq)
            lo = max(0.0, -w - 1.0)
            assert lo - math.ulp(lo) <= eta <= -w + math.ulp(-w), w
            assert abs(residual(nu_sq, w)) <= 1e-12, w


class TestRate:
    def test_reference_values(self):
        assert diffop_rate(0.0) == pytest.approx(math.pi / 2, abs=1e-10)
        assert diffop_rate(-1.0) == pytest.approx(1.0, abs=1e-10)

    def test_deep_asymptotics(self):
        got = diffop_rate(-20.0)
        assert abs(got / (2.0 * 20.0 * math.exp(-20.0)) - 1.0) <= 1e-6

    def test_strictly_increasing(self):
        ws = np.linspace(-30.0, 30.0, 241)
        rates = [diffop_rate(float(w)) for w in ws]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_alternative_formulas_agree(self):
        for w in np.linspace(-0.99, 30.0, 60):
            nu = math.sqrt(diffop_eigenroot(float(w)))
            assert abs(diffop_rate(float(w)) - nu / math.sin(nu)) <= 1e-10
        for w in np.linspace(-30.0, -1.01, 60):
            eta = math.sqrt(-diffop_eigenroot(float(w)))
            assert abs(diffop_rate(float(w)) - eta / math.sinh(eta)) <= 1e-10

    def test_drift_below_zero_and_half_angle_form(self):
        # omega - r(omega) equals -nu cot(nu/2), continued by -eta coth(eta/2),
        # and takes the value -2 at omega = -1
        for w in np.linspace(-10.0, 10.0, 81):
            w = float(w)
            drift = w - diffop_rate(w)
            assert drift < 0.0
            if abs(w + 1.0) < 1e-9:
                continue
            nu_sq = diffop_eigenroot(w)
            if nu_sq > 0.0:
                nu = math.sqrt(nu_sq)
                expected = -nu / math.tan(nu / 2.0)
            else:
                eta = math.sqrt(-nu_sq)
                expected = -eta / math.tanh(eta / 2.0)
            assert drift == pytest.approx(expected, abs=1e-10)
        assert -1.0 - diffop_rate(-1.0) == pytest.approx(-2.0, abs=1e-12)


def diffop_oracle(omega: float):
    """r(omega) from a 50-digit root of the secular equation, refined from the
    bisection's root; on the trigonometric branch inside a bracket within
    ]0, pi[, which the secant solver can leave for large omega."""
    with mpmath.workdps(50):
        x = mpmath.mpf(omega)
        if omega == -1.0:
            return mpmath.mpf(1)
        nu_sq = mpmath.mpf(diffop_eigenroot(omega))
        if omega > -1.0:
            nu0 = mpmath.sqrt(nu_sq)
            eps = mpmath.mpf("1e-12")
            bracket = (nu0 * (1 - eps), min(nu0 * (1 + eps), mpmath.pi * (1 - mpmath.mpf("1e-40"))))
            nu = mpmath.findroot(lambda v: -v * mpmath.cot(v) - x, bracket, solver="anderson")
            return mpmath.sqrt(x * x + nu * nu)
        eta = mpmath.findroot(lambda e: -e * mpmath.coth(e) - x, mpmath.sqrt(-nu_sq))
        return mpmath.sqrt(2 * eta / mpmath.expm1(2 * eta) * (eta - x))


def jordan_oracle(n: int, omega: float):
    """sigma_min(omega I - J) from a 60-digit SVD."""
    with mpmath.workdps(60):
        a = mpmath.matrix(n, n)
        for i in range(n):
            a[i, i] = mpmath.mpf(omega)
            if i + 1 < n:
                a[i, i + 1] = -1
        return min(mpmath.svd_r(a, compute_uv=False))


def assert_rounded_down(rate: float, exact) -> None:
    """rate <= exact and rate >= exact * (1 - 1e-13), with exact a high-precision value."""
    with mpmath.workdps(50):
        assert mpmath.mpf(rate) <= exact, (rate, exact)
        assert mpmath.mpf(rate) >= exact * (1 - mpmath.mpf("1e-13")), (rate, exact)


# the hyperbolic branch to the overflow near -354.9, the band around eta = 19
# where tanh starts to round to 1, the lo halving band, and omega > -1
DIFFOP_OMEGAS = np.concatenate([
    np.random.default_rng(89).uniform(-354.8, -1.0, 200),
    np.random.default_rng(90).uniform(-21.0, -17.0, 80),
    np.random.default_rng(91).uniform(-1.3131, -1.0, 60),
    np.random.default_rng(92).uniform(-1.0, 40.0, 160),
    [-1.0, 0.0],
])


# abscissas that share one array: random ones from the overflow to 100, and
# omega = -1 +- 10^-k, where the computed secular function is flat over many
# ulps of the root
SHARED_OMEGAS = np.concatenate([
    np.random.default_rng(95).uniform(-354.8, 100.0, 1980),
    [-1.0 + sign * 10.0**-k for k in range(1, 10) for sign in (1.0, -1.0)],
    [-354.8, 100.0],
])


class TestRoundedDown:
    def test_diffop_rates_against_mpmath(self):
        for w, rate in zip(DIFFOP_OMEGAS.tolist(), diffop_rate(DIFFOP_OMEGAS).tolist()):
            assert_rounded_down(rate, diffop_oracle(w))

    def test_diffop_rates_for_large_omega_against_mpmath(self):
        # log-uniform in [1, 1e15]: nu lies about pi / omega below pi
        ws = np.exp(np.random.default_rng(96).uniform(0.0, math.log(1e15), 200))
        for w, rate in zip(ws.tolist(), diffop_rate(ws).tolist()):
            assert_rounded_down(rate, diffop_oracle(w))

    def test_jordan_rates_against_mpmath(self):
        rng = np.random.default_rng(93)
        for n in (2, 3, 5, 8):
            ws = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 100))
            for w, rate in zip(ws.tolist(), jordan_resolvent_rate(JordanBlockModel(n), ws).tolist()):
                assert_rounded_down(rate, jordan_oracle(n, w))


class TestArrayPath:
    @pytest.mark.parametrize(
        "fn, scale",
        [(diffop_eigenroot, 1.0), (diffop_rate, 1.0), (functools.partial(rate_for_crossing_time, math.pi / 8), 4.0 / math.pi)],
        ids=["eigenroot", "rate", "rate_for_crossing_time"],
    )
    def test_a_float_is_a_one_element_array(self, fn, scale):
        # one path: a float gets the float of the one-element array, bit for bit;
        # the scale maps the abscissas to the ones the rate is taken at, 2 alpha omega
        ws = scale * np.concatenate([DIFFOP_OMEGAS, np.random.default_rng(94).uniform(-354.8, 100.0, 2000)])
        for w in ws.tolist():
            got = fn(w)
            assert type(got) is float and got == fn(np.array([w]))[0], w

    def test_jordan_array_equals_the_float_path(self):
        rng = np.random.default_rng(95)
        for n in (1, 2, 3, 5, 8):
            model = JordanBlockModel(n)
            ws = np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 400))
            assert jordan_resolvent_rate(model, ws).tolist() == [jordan_resolvent_rate(model, w) for w in ws.tolist()]

    def test_a_rate_does_not_depend_on_its_array(self):
        # each abscissa gets the same rate alone, in the whole set and in a
        # shuffled copy: no element's narrowing may depend on the others
        ws = SHARED_OMEGAS
        rates = diffop_rate(ws)
        order = np.random.default_rng(96).permutation(len(ws))
        assert diffop_rate(ws[order]).tolist() == rates[order].tolist()
        assert [diffop_rate(np.array([w]))[0] for w in ws.tolist()] == rates.tolist()

    def test_the_finishing_bisection_is_short(self, monkeypatch):
        # the Newton narrowing leaves brackets that the bisection closes to
        # adjacent floats in a few masked steps, on the whole set at once
        steps, bisect_array = [], models._bisect_array

        def counting(f, lo, hi, increasing):
            def counted(x):
                steps[-1] += 1
                return f(x)

            steps.append(0)
            return bisect_array(counted, lo, hi, increasing)

        monkeypatch.setattr(models, "_bisect_array", counting)
        diffop_rate(SHARED_OMEGAS)
        assert len(steps) == 2 and max(steps) <= 12, steps

    def test_empty_array(self):
        assert diffop_rate(np.array([])).shape == (0,)
        assert jordan_resolvent_rate(JordanBlockModel(3), np.array([])).shape == (0,)

    @pytest.mark.parametrize(
        "rate, omegas, error, named",
        [
            (diffop_rate, [0.0, -5.0, -400.0, -800.0], OverflowError, "-400.0"),
            (diffop_rate, [0.0, math.inf, math.nan], ValueError, "inf"),
            (diffop_eigenroot, [-2.0, math.nan], ValueError, "nan"),
            (diffop_rate, [0.0, 1e17, 2e17], ConvergenceError, "1e+17"),
            (functools.partial(jordan_resolvent_rate, JordanBlockModel(3)), [1.0, math.nan], ValueError, "nan"),
            (functools.partial(jordan_resolvent_rate, JordanBlockModel(3)), [1.0, -2.0, 0.0], ValueError, "-2.0"),
        ],
        ids=["overflow", "non_finite", "eigenroot_non_finite", "bracket", "jordan_non_finite", "jordan_nonpositive"],
    )
    def test_errors_name_the_first_offending_omega(self, rate, omegas, error, named):
        with pytest.raises(error, match=re.escape(f"omega = {named}")) as array_error:
            rate(np.array(omegas))
        with pytest.raises(error) as float_error:
            rate(float(named))
        assert str(float_error.value) == str(array_error.value)


class TestResolventNorm:
    def test_reference_values(self):
        assert 1 / diffop_rate(0.0) == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert 1 / diffop_rate(-1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_finite_difference_oracle(self):
        # upwind discretization of the derivative with the boundary row removed;
        # its smallest singular value converges at rate O(1/n)
        def fd_sigma_min(z_re: float, n: int) -> float:
            delta = 1.0 / n
            a = (np.eye(n - 1, k=1) - np.eye(n - 1)) / delta
            return float(np.linalg.svd(z_re * np.eye(n - 1) - a, compute_uv=False)[-1])

        for z_re in (5.0, 0.0, -0.5):
            oracle = 1.0 / fd_sigma_min(z_re, 2000)
            assert 1 / diffop_rate(z_re) == pytest.approx(oracle, rel=1e-3)


class TestTrueNorm:
    def test_values(self):
        assert diffop_semigroup_norm(0.0) == 1.0
        assert diffop_semigroup_norm(0.5) == 1.0
        assert diffop_semigroup_norm(1.0) == 0.0
        assert diffop_semigroup_norm(2.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            diffop_semigroup_norm(-0.1)

    def test_wei_bound_valid_and_optimal(self):
        r0 = math.pi / 2
        for t in np.linspace(0.0, 3.0, 301):
            assert diffop_semigroup_norm(float(t)) <= math.exp(r0 - r0 * t) + 1e-12
        sup = max(
            math.exp(r0 * t) * diffop_semigroup_norm(t) for t in (0.9, 0.99, 1 - 1e-6, 1 - 1e-9)
        )
        assert sup >= math.exp(r0) - 1e-6


class TestCrossingHalf:
    def test_all_branches(self):
        # omega = -1 exercises the parabolic branch, omega < -1 the hyperbolic
        # one, omega > -1 the trigonometric one
        for w in (-10.0, -1.0, -0.5, 0.0, 3.0):
            assert first_crossing_time(ONE, OmegaRPair(w, diffop_rate(w))) == pytest.approx(0.5, abs=1e-10)

    def test_scaled_model(self):
        # gamma A + delta has rate gamma r((omega - delta) / gamma) and, from the
        # bound exp(delta t), crossing time 1 / (2 gamma) at every omega
        for gamma, delta, w, expected in ((1.0, 0.0, 0.7, 0.5), (2.0, 0.0, -3.0, 0.25), (0.5, 1.0, 0.0, 1.0)):
            pair = OmegaRPair(w, gamma * diffop_rate((w - delta) / gamma))
            got = first_crossing_time(PiecewiseLogAffineBound.exponential(delta), pair)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_rate_for_crossing_time_identity(self):
        assert rate_for_crossing_time(0.5, 2.2) == pytest.approx(diffop_rate(2.2), abs=1e-12)
        assert rate_for_crossing_time(math.pi / 4, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_rate_for_crossing_time_consistency_sweep(self):
        rng = np.random.default_rng(83)
        for w in rng.uniform(-5.0, 5.0, size=20):
            rate = rate_for_crossing_time(math.pi / 4, float(w))
            got = first_crossing_time(ONE, OmegaRPair(float(w), rate))
            assert got == pytest.approx(math.pi / 4, abs=1e-8)

    def test_updated_trivial_bound_tail_is_extremal(self):
        # the update of the trivial bound under the model's own rate starts its
        # tail exactly where the semigroup dies (t = 1), with the smallest
        # admissible constant exp(-(omega - r)) for that slope
        for w in (-3.0, -1.0, 0.0, 2.0):
            rate = diffop_rate(w)
            u = update_bound(ONE, OmegaRPair(w, rate))
            assert u.breakpoints == pytest.approx((0.0, 1.0), abs=1e-9)
            assert u.slopes[-1] == pytest.approx(w - rate, abs=1e-12)
            assert u.intercepts[-1] == pytest.approx(-(w - rate), abs=1e-8)

    def test_vanishing_limit_of_updates(self):
        # with omega -> -inf the updated trivial bound collapses past t = 1
        previous = 0.0
        for w in (-5.0, -10.0, -20.0, -40.0):
            bound = update_bound(ONE, OmegaRPair(w, diffop_rate(w)))
            value = bound.log_at(2.0)
            assert value < previous
            previous = value
        assert previous < -30.0  # exp of this is numerically zero


class TestImprovementThresholds:
    def test_signs_and_ordering(self):
        lower, upper = improvement_region_thresholds()
        assert -1.0 < lower < 0.0
        assert upper > 1.0
        # the matched-rate curves are ordered by crossing time on both sides
        for w in (-0.5, 0.0, 2.0):
            fast = rate_for_crossing_time(math.pi / 8, w)
            mid = rate_for_crossing_time(math.pi / 4, w)
            slow = rate_for_crossing_time(math.pi / 2, w)
            assert fast > mid > slow

    def test_pinned_values(self):
        assert improvement_region_thresholds() == (-0.8891841364925259, 4.739105903257762)


class TestJordanExponential:
    def test_nilpotent_series(self):
        e = jordan_matrix_exponential(JordanBlockModel(3), 2.0)
        assert np.allclose(e, [[1.0, 2.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])

    def test_norm_at_zero_and_scalar(self):
        assert jordan_semigroup_norm(JordanBlockModel(3), 0.0) == pytest.approx(1.0, abs=1e-12)
        assert jordan_semigroup_norm(JordanBlockModel(1), 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_norm_against_cubic_characteristic_oracle(self):
        e = jordan_matrix_exponential(JordanBlockModel(3), 2.0)
        gram = e.T @ e
        # characteristic polynomial of the 3x3 Gram matrix, solved directly
        c2 = -np.trace(gram)
        c1 = 0.5 * (np.trace(gram) ** 2 - np.trace(gram @ gram))
        c0 = -np.linalg.det(gram)
        top = max(np.roots([1.0, c2, c1, c0]).real)
        assert jordan_semigroup_norm(JordanBlockModel(3), 2.0) == pytest.approx(
            math.sqrt(top), rel=1e-10
        )

    def test_norm_negative_time_rejected(self):
        with pytest.raises(ValueError):
            jordan_semigroup_norm(JordanBlockModel(2), -1.0)

    @pytest.mark.parametrize("ts", [[0.0, 1.0, -1e-300, 2.0], [-1.0], [[0.0, 1.0], [2.0, -3.0]]])
    def test_a_negative_time_anywhere_in_an_array_is_rejected(self, ts):
        with pytest.raises(ValueError, match="nonnegative"):
            jordan_semigroup_norm(JordanBlockModel(3), np.array(ts))

    def test_a_float_is_a_one_element_array(self):
        for n in (1, 3, 8):
            model = JordanBlockModel(n)
            for t in (0.0, 1e-3, 0.7, 5.0, 20.0):
                got = jordan_semigroup_norm(model, t)
                assert type(got) is float and got == jordan_semigroup_norm(model, np.array([t]))[0]
                assert (jordan_matrix_exponential(model, t) == jordan_matrix_exponential(model, np.array([t]))[0]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_stacked_norms_equal_the_per_time_loop(self, n):
        # one stacked SVD gives, bit for bit, what one exponential and one
        # 2-norm per time give, t = 0 included
        def per_time(t: float) -> float:
            out, coeff = np.zeros((n, n)), 1.0
            for d in range(n):
                if d > 0:
                    coeff *= t / d
                out += coeff * np.eye(n, k=d)
            return float(np.linalg.norm(out, 2))

        ts = np.linspace(0.0, 20.0, 2001)
        assert jordan_semigroup_norm(JordanBlockModel(n), ts).tolist() == [per_time(t) for t in ts.tolist()]


class TestNumericalRange:
    def test_known_values(self):
        assert jordan_numerical_range_slope(JordanBlockModel(3)) == pytest.approx(1 / math.sqrt(2))
        assert jordan_numerical_range_slope(JordanBlockModel(1)) == pytest.approx(0.0, abs=1e-16)
        assert jordan_numerical_range_slope(JordanBlockModel(7)) == pytest.approx(math.cos(math.pi / 8))

    def test_against_rayleigh_maximization(self):
        # max Re of the numerical range is the top eigenvalue of the Hermitian
        # part; certify it two-sided with eigvalsh and refined random Rayleigh
        # quotients
        for n in (3, 7):
            j = JordanBlockModel(n).matrix()
            herm = 0.5 * (j + j.T)
            formula = jordan_numerical_range_slope(JordanBlockModel(n))
            assert formula == pytest.approx(float(np.linalg.eigvalsh(herm)[-1]), abs=1e-12)
            rng = np.random.default_rng(97)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(200):  # power iteration on the shifted Hermitian part
                v = (herm + np.eye(n)) @ v
                v /= np.linalg.norm(v)
            rayleigh = float(np.real(np.conj(v) @ j @ v))
            assert formula >= rayleigh - 1e-10
            assert abs(formula - rayleigh) <= 1e-3


class TestJordanRate:
    def test_scalar_block_is_linear(self):
        for w in (0.5, 1.0, 2.5):
            assert jordan_resolvent_rate(JordanBlockModel(1), w) == pytest.approx(w, abs=1e-12)

    def test_against_dense_scan(self):
        model = JordanBlockModel(3)
        got = jordan_resolvent_rate(model, 1.0)
        ys = np.arange(0.0, 10.0, 1e-3)
        j = model.matrix()
        dense = min(
            np.linalg.svd(complex(1.0, y) * np.eye(3) - j, compute_uv=False)[-1] for y in ys
        )
        assert got <= dense + 1e-8
        assert got == pytest.approx(dense, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.floats(1e-2, 50.0),
        st.floats(-50.0, 50.0),
    )
    def test_closed_form_attains_the_sup(self, n, omega, y):
        # the closed form is sigma_min at z = omega; no z on Re z = omega may go lower
        model = JordanBlockModel(n)
        shifted = complex(omega, y) * np.eye(n) - model.matrix()
        sigma_min = np.linalg.svd(shifted, compute_uv=False)[-1]
        assert sigma_min >= jordan_resolvent_rate(model, omega) * (1.0 - 1e-12)

    def test_monotone_in_omega(self):
        model = JordanBlockModel(3)
        rates = [jordan_resolvent_rate(model, w) for w in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            jordan_resolvent_rate(JordanBlockModel(3), 0.0)
        with pytest.raises(ValueError):
            jordan_resolvent_rate(JordanBlockModel(2), -1.0)

    def test_profile_domain(self):
        profile = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, JordanBlockModel(3)))
        with pytest.raises(ValueError):
            profile.rate(-1.0)


class TestJordanSoundness:
    def test_updates_stay_above_true_norm(self):
        model = JordanBlockModel(3)
        profile = ResolventProfile(fn=functools.partial(jordan_resolvent_rate, model))
        numrange = PiecewiseLogAffineBound.exponential(jordan_numerical_range_slope(model))
        ts = np.arange(0.0, 20.0 + 1e-9, 0.1)
        for w in (0.5, 1.0, 2.0):
            bound = update_bound(numrange, profile.pairs([w])[0])
            for t in ts:
                true_norm = jordan_semigroup_norm(model, float(t))
                assert true_norm <= math.exp(bound.log_at(float(t))) + 1e-9


def test_diffop_profile_matches_rate():
    profile = ResolventProfile(fn=diffop_rate)
    assert profile.rate(0.3) == diffop_rate(0.3)
    assert profile.pairs([-2.0])[0].rate == diffop_rate(-2.0)
