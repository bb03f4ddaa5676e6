"""Grid subadditive envelope: DP against brute-force composition enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bound, random_lattice_grid, random_log_concave_bound
from sgbounds import (
    GridBound,
    PiecewiseLogAffineBound,
    piecewise_interpolant,
    subadditive_envelope,
)

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
