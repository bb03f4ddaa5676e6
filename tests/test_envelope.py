"""Grid subadditive envelope: DP against brute-force composition enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_lattice_grid, random_log_concave_bound
from sgbounds import (
    GridBound,
    PiecewiseLogAffineBound,
    is_subadditive,
    piecewise_interpolant,
    subadditive_envelope,
    subadditive_envelope_capped,
)

WEI = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [math.pi / 2])


def brute_force_envelope(values, cap_idx=None):
    """Exact minimum over all compositions into positive parts, by full enumeration."""

    def compositions(k):
        if k == 0:
            yield ()
            return
        for first in range(1, k + 1):
            if cap_idx is not None and first > cap_idx:
                continue
            for rest in compositions(k - first):
                yield (first, *rest)

    out = [values[0]]
    for k in range(1, len(values)):
        out.append(min(sum(values[p] for p in parts) for parts in compositions(k)))
    return out


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


class TestCappedEnvelope:
    def test_inactive_cap_reduces_to_plain(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_lattice_grid(rng)
            cap = g.h * (len(g.values) - 1)
            assert subadditive_envelope_capped(g, cap).values == subadditive_envelope(g).values

    def test_unit_cap_forces_single_part_splits(self):
        g = GridBound(1.0, (0.0, -1.0, 5.0))
        assert subadditive_envelope_capped(g, 1.0).values == (0.0, -1.0, -2.0)

    def test_matches_brute_force_with_cap(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            g = random_lattice_grid(rng)
            cap_idx = int(rng.integers(1, len(g.values)))
            got = subadditive_envelope_capped(g, cap_idx * g.h)
            assert list(got.values) == brute_force_envelope(g.values, cap_idx)

    def test_stable_under_plain_envelope(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = random_lattice_grid(rng)
            cap = g.h * max(1, (len(g.values) - 1) // 2)
            direct = subadditive_envelope_capped(g, cap)
            through = subadditive_envelope_capped(subadditive_envelope(g), cap)
            assert through.values == pytest.approx(direct.values, abs=1e-12)

    def test_rejects_caps_off_grid(self):
        g = GridBound(0.5, (0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            subadditive_envelope_capped(g, 0.3)
        with pytest.raises(ValueError):
            subadditive_envelope_capped(g, 0.4)


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
