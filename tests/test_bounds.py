"""Piecewise log-affine bound algebra: evaluation, minima, concavity, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import bounds_strategy, lattice_bounds_strategy, random_log_concave_bound
from sgbounds import (
    PiecewiseLogAffineBound,
    allclose,
    canonicalize,
    log_concavity,
    pointwise_min,
    splice,
)
from sgbounds.bounds import _BP_MERGE_TOL

WEI = PiecewiseLogAffineBound.from_slopes([0.0, -1.0], [math.pi / 2])


class TestEval:
    def test_constant(self):
        m = PiecewiseLogAffineBound.constant()
        assert m.log_at(7.0) == 0.0

    def test_wei_bound_at_pi(self):
        # flat until pi/2, then slope -1 through exp(pi/2 - t)
        assert WEI.log_at(math.pi) == pytest.approx(-math.pi / 2, abs=1e-14)

    def test_two_piece_hand_value(self):
        m = PiecewiseLogAffineBound((0.0, 2.0), (1.0, -1.0), (0.0, 4.0))
        assert m.log_at(3.0) == pytest.approx(1.0, abs=1e-14)
        # cross-check with a scalar interpolation oracle through the knots
        oracle = np.interp(3.0, [0.0, 2.0, 4.0], [0.0, 2.0, 0.0])
        assert m.log_at(3.0) == pytest.approx(oracle, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLogAffineBound.constant().log_at(-0.1)

    def test_right_continuous_at_breakpoints(self):
        m = PiecewiseLogAffineBound((0.0, 2.0), (1.0, -1.0), (0.0, 4.0))
        assert m.log_at(2.0) == m.slopes[1] * 2.0 + m.intercepts[1]


class TestConstruction:
    def test_requires_zero_first_breakpoint(self):
        with pytest.raises(ValueError):
            PiecewiseLogAffineBound((1.0,), (0.0,), (0.0,))

    def test_rejects_discontinuity(self):
        with pytest.raises(ValueError):
            PiecewiseLogAffineBound((0.0, 1.0), (0.0, 1.0), (0.0, 5.0))

    def test_rejects_equal_adjacent_slopes(self):
        with pytest.raises(ValueError):
            PiecewiseLogAffineBound((0.0, 1.0), (1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize(
        "pieces, message",
        [
            (((), (), ()), "breakpoints, slopes and intercepts must have equal nonzero length"),
            (((0.0, 1.0), (0.0,), (0.0, 0.0)), "breakpoints, slopes and intercepts must have equal nonzero length"),
            (((1.0,), (0.0,), (0.0,)), "first breakpoint must be 0"),
            (((0.0, 2.0, 1.0), (0.0, 1.0, -1.0), (0.0, -2.0, 0.0)), "breakpoints must increase strictly"),
            (((0.0, math.nan), (0.0, 1.0), (0.0, 0.0)), "breakpoints must increase strictly"),
            (((0.0, math.inf), (0.0, 1.0), (0.0, 0.0)), "bound data must be finite"),
            (((0.0,), (math.nan,), (0.0,)), "bound data must be finite"),
            (((0.0, 1.0), (0.0, -1.0), (0.0, -math.inf)), "bound data must be finite"),
            (((0.0, 1.0), (1.0, 1.0), (0.0, 0.0)), "adjacent pieces 0, 1 share a slope; not canonical"),
            (((0.0, 1.0), (0.0, 1.0), (0.0, 5.0)), "discontinuity -6 at breakpoint 1"),
            (
                ((0.0, 1.0, 1.0 + 1e-13), (1.0, -1.0, 0.5), (0.0, 2.0, 0.5)),
                "breakpoints 1.0 and 1.0000000000001 lie within 1e-12; not canonical",
            ),
        ],
    )
    def test_each_fault_has_its_message(self, pieces, message):
        with pytest.raises(ValueError) as info:
            PiecewiseLogAffineBound(*pieces)
        assert str(info.value) == message

    def test_fault_precedence(self):
        # the first input has four faults: a jump at t = 1, a slope shared by
        # pieces 1 and 2, a last breakpoint out of order and a last intercept
        # not finite; each next input repairs the fault reported before, so the
        # order fault wins although it comes last, and the jump beats the later
        # shared slope
        slopes = (0.0, 1.0, 1.0, -1.0)
        for bps, intercepts, message in [
            ((0.0, 1.0, 2.0, 2.0), (0.0, 5.0, 5.0, math.inf), "breakpoints must increase strictly"),
            ((0.0, 1.0, 2.0, 3.0), (0.0, 5.0, 5.0, math.inf), "bound data must be finite"),
            ((0.0, 1.0, 2.0, 3.0), (0.0, 5.0, 5.0, 8.0), "discontinuity -6 at breakpoint 1"),
            ((0.0, 1.0, 2.0, 3.0), (0.0, -1.0, -1.0, 8.0), "adjacent pieces 1, 2 share a slope; not canonical"),
        ]:
            with pytest.raises(ValueError) as info:
                PiecewiseLogAffineBound(bps, slopes, intercepts)
            assert str(info.value) == message

    def test_from_knots_extends_last_slope(self):
        m = PiecewiseLogAffineBound.from_knots([0.0, 1.0, 2.0], [0.0, -1.0, -3.0])
        assert m.log_at(4.0) == pytest.approx(-7.0, abs=1e-12)

    def test_close_breakpoints_are_merged_on_read(self):
        # the later piece takes the shared start, as canonicalize gives it
        data = {"breakpoints": [0.0, 1.0, 1.0 + 1e-13], "slopes": [1.0, -1.0, 0.5], "intercepts": [0.0, 2.0, 0.5]}
        merged = PiecewiseLogAffineBound((0.0, 1.0), (1.0, 0.5), (0.0, 0.5))
        assert PiecewiseLogAffineBound.from_json_dict(data) == merged
        built = PiecewiseLogAffineBound.from_slopes([1.0, -1.0, 0.5], [1.0, 1.0 + 1e-13])
        assert (built.breakpoints, built.slopes) == ((0.0, 1.0), (1.0, 0.5))
        assert allclose(built, merged, 1e-12)

    def test_canonicalize_merges_equal_slopes(self):
        m = canonicalize((0.0, 1.0, 2.0), (0.0, 0.0, -1.0), (0.0, 0.0, 2.0))
        assert m.slopes == (0.0, -1.0)
        assert m.breakpoints == (0.0, 2.0)


class TestPointwiseMin:
    def test_idempotent_exact(self):
        m = PiecewiseLogAffineBound((0.0, 2.0), (1.0, -1.0), (0.0, 4.0))
        assert pointwise_min(m, m) == m

    def test_min_with_one_is_wei(self):
        one = PiecewiseLogAffineBound.constant()
        assert pointwise_min(one, WEI) == WEI
        assert pointwise_min(WEI, one) == WEI

    def test_two_pair_crossing_location(self):
        # second bound: flat until twice the crossing time of the slow pair,
        # then slope -1.05; the curves meet near t = 46.1344
        eta = math.sqrt(399.0)
        a_star = math.log(20.0 + eta) / (2.0 * 0.05 * eta)
        m2 = PiecewiseLogAffineBound.from_slopes([0.0, -1.05], [2.0 * a_star])
        merged = pointwise_min(WEI, m2)
        t2 = (1.05 * 2.0 * a_star - math.pi / 2) / 0.05
        assert merged.breakpoints[-1] == pytest.approx(t2, abs=1e-9)
        assert merged.breakpoints[-1] == pytest.approx(46.1344, abs=5e-3)
        assert merged.slopes == (0.0, -1.0, -1.05)

    def test_keeps_left_piece_on_ties(self):
        a = PiecewiseLogAffineBound.constant()
        b = PiecewiseLogAffineBound((0.0,), (0.0,), (0.0,))
        assert pointwise_min(a, b) == a


class TestConcavity:
    def test_constant_concave(self):
        report = log_concavity(PiecewiseLogAffineBound.constant())
        assert report.is_concave and report.first_violation is None

    def test_wei_concave(self):
        assert log_concavity(WEI).is_concave

    def test_increasing_slopes_flagged(self):
        m = PiecewiseLogAffineBound.from_slopes([-1.0, 0.0], [1.0])
        report = log_concavity(m)
        assert not report.is_concave
        assert report.first_violation == 0


class TestSplice:
    def test_splice_at_zero_returns_right(self):
        one = PiecewiseLogAffineBound.constant()
        assert splice(WEI, one, 0.0) == one

    def test_splice_midway(self):
        line = PiecewiseLogAffineBound((0.0,), (-1.0,), (math.pi / 2,))
        m = splice(PiecewiseLogAffineBound.constant(), line, math.pi / 2)
        assert allclose(m, WEI, 1e-12)


@settings(max_examples=100, deadline=None)
@given(bounds_strategy(), bounds_strategy())
def test_min_matches_scalar_min(m1, m2):
    rng = np.random.default_rng(0)
    merged = pointwise_min(m1, m2)
    for t in rng.uniform(0.0, 100.0, size=1000):
        expected = min(m1.log_at(t), m2.log_at(t))
        assert abs(merged.log_at(t) - expected) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(lattice_bounds_strategy(), lattice_bounds_strategy())
def test_min_commutative_exact(m1, m2):
    assert pointwise_min(m1, m2) == pointwise_min(m2, m1)


@settings(max_examples=200, deadline=None)
@given(lattice_bounds_strategy(), lattice_bounds_strategy(), lattice_bounds_strategy())
def test_min_associative_exact(m1, m2, m3):
    left = pointwise_min(pointwise_min(m1, m2), m3)
    right = pointwise_min(m1, pointwise_min(m2, m3))
    assert left == right


@settings(max_examples=200, deadline=None)
@given(lattice_bounds_strategy())
def test_min_idempotent_exact(m):
    assert pointwise_min(m, m) == m


def _many_piece_bound(rng, breakpoints):
    slopes = rng.uniform(-3.0, 3.0, size=len(breakpoints) + 1).tolist()
    return PiecewiseLogAffineBound.from_slopes(slopes, breakpoints, float(rng.uniform(-1.0, 1.0)))


def _near_coinciding_pairs(rng):
    """Pairs of 50-300 pieces whose breakpoints, or whose crossings with each
    other, lie within _BP_MERGE_TOL of a breakpoint of the first bound."""
    for kind in ("shifted_breakpoints", "line_through_breakpoint", "crossings_at_breakpoints"):
        for _ in range(8):
            n = int(rng.integers(50, 301))
            bps = np.cumsum(rng.uniform(0.05, 1.0, size=n - 1))
            m1 = _many_piece_bound(rng, bps.tolist())
            near = bps + rng.uniform(-1.0, 1.0, size=n - 1) * _BP_MERGE_TOL
            if kind == "shifted_breakpoints":
                yield m1, _many_piece_bound(rng, near.tolist())
            elif kind == "line_through_breakpoint":
                c = float(near[rng.integers(n - 1)])
                slope = float(rng.uniform(-3.0, 3.0))
                yield m1, PiecewiseLogAffineBound((0.0,), (slope,), (m1.log_at(c) - slope * c,))
            else:
                # knots alternately on, above and below m1 make it cross m1 at each knot on it
                cs = near[:: max(1, n // 20)]
                ts, vs = [0.0], [m1.log_at(0.0) + 0.5]
                for k, (lo, hi) in enumerate(zip(cs, cs[1:])):
                    ts += [lo, 0.5 * (lo + hi)]
                    vs += [m1.log_at(lo), m1.log_at(0.5 * (lo + hi)) + (0.5 if k % 2 else -0.5)]
                yield m1, PiecewiseLogAffineBound.from_knots(ts, vs)


def test_min_many_pieces_near_coinciding_breakpoints():
    rng = np.random.default_rng(2024)
    for m1, m2 in _near_coinciding_pairs(rng):
        pts = sorted({*m1.breakpoints, *m2.breakpoints})
        probes = pts + [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
        probes += rng.uniform(0.0, pts[-1] + 10.0, size=1000).tolist()
        for a, b in ((m1, m2), (m2, m1)):
            merged = pointwise_min(a, b)
            for t in probes:
                assert abs(merged.log_at(t) - min(a.log_at(t), b.log_at(t))) <= 1e-10
            assert pointwise_min(a, a) == a


def test_canonicalization_preserves_values():
    # split pieces at sampled interior points and duplicate slopes, then recanonicalize
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_log_concave_bound(rng)
        bps, slopes, intercepts = list(m.breakpoints), list(m.slopes), list(m.intercepts)
        j = int(rng.integers(0, len(slopes)))
        hi = bps[j + 1] if j + 1 < len(bps) else bps[j] + 5.0
        cut = float(rng.uniform(bps[j] + 1e-3, hi - 1e-3)) if hi - bps[j] > 2e-3 else None
        if cut is not None:
            bps.insert(j + 1, cut)
            slopes.insert(j + 1, slopes[j])
            intercepts.insert(j + 1, intercepts[j])
        rebuilt = canonicalize(tuple(bps), tuple(slopes), tuple(intercepts))
        for t in rng.uniform(0.0, 30.0, size=1000):
            assert abs(rebuilt.log_at(t) - m.log_at(t)) <= 1e-12


def test_concave_normalized_is_subadditive():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = random_log_concave_bound(rng)
        for _ in range(20):
            s, t = rng.uniform(0.0, 20.0, size=2)
            assert m.log_at(s + t) <= m.log_at(s) + m.log_at(t) + 1e-9


class TestSerialization:
    def test_json_round_trip_bit_identical(self):
        m = PiecewiseLogAffineBound((0.0, 2.0), (1.0, -1.05), (0.0, 4.1))
        again = PiecewiseLogAffineBound.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
        assert again == m

    def test_json_schema_keys(self):
        data = json.loads(json.dumps(WEI.to_json_dict()))
        assert set(data) == {"breakpoints", "slopes", "intercepts"}

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            PiecewiseLogAffineBound.from_json_dict(
                json.loads('{"breakpoints": [0], "slopes": [0], "intercepts": [0], "x": 1}')
            )
