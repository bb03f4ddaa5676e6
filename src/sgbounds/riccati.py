"""Closed-form Riccati machinery for sharpening semigroup norm bounds.

Everything revolves around the scalar Riccati flow

    u'(b) = u(b)^2 + 2 mu u(b) + 1,        u(0) = u0 >= 0,

whose solutions are explicit elementary functions for constant mu
(:func:`propagate`).  The physical state phi(t) attached to a bound m, an
abscissa omega and a rate r is the rescaled flow driven by the piecewise
constant profile mu_j = (slope_j - omega) / r; its first crossing of 1
(:func:`first_crossing_time`) marks where the exponential sharpening of
:func:`update_bound` begins: the updated bound keeps m up to twice the
crossing time and afterwards takes the minimum with the line of slope
omega - r through twice the crossing value.  Crossing times come from
these closed forms piece by piece; nothing is integrated numerically, and
the walk over a bound's pieces stops at the piece where the crossing lands.

The module also provides the weighted integral norm of 1/m
(:func:`log_weighted_inv_norm_sq`) and the quantitative Gearhart-Pruss
estimate (:func:`gp_log_bound`) it enters; estimates at many times share the
integral of each piece that lies wholly inside their windows.

All formulas are arranged to stay accurate for very large |mu| (rates of
order exp(-|omega|) drive mu up to 1e17 in the model operators): differences
like mu - sqrt(mu^2 - 1) are always evaluated through their reciprocal
conjugates, and coth-type branches are written with expm1.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .bounds import _BP_MERGE_TOL, CONTINUITY_TOL, PiecewiseLogAffineBound, _continuity_slack, min_with_tails

__all__ = [
    "BRANCH_TOL",
    "MuSegment",
    "OmegaRPair",
    "PoleError",
    "crossing_candidate",
    "first_crossing_time",
    "gp_log_bound",
    "log_weighted_inv_norm_sq",
    "normalized_crossing_time",
    "propagate",
    "state_at",
    "update_bound",
    "update_tail",
]

# |mu^2 - 1| below this uses parabolic formulas: the trigonometric and
# hyperbolic branches lose precision as eta -> 0, and a parabolic flow that
# is nowhere faster than the true one (see propagate) errs only late.
BRANCH_TOL = 1e-10


class PoleError(ArithmeticError):
    """The closed-form solution blows up before the requested time."""


@dataclass(frozen=True)
class OmegaRPair:
    """An abscissa omega together with a valid resolvent rate 0 < r <= r(omega)."""

    omega: float
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and math.isfinite(self.rate)):
            raise ValueError("omega and rate must be finite")
        if self.rate <= 0.0:
            raise ValueError(f"rate must be positive, got {self.rate!r}")


@dataclass(frozen=True)
class MuSegment:
    """A time interval on which the driving coefficient mu is constant."""

    t_start: float
    t_end: float
    mu: float

    def __post_init__(self) -> None:
        if not self.t_start < self.t_end:
            raise ValueError("segment must have positive length")


# -- constant-mu closed forms ----------------------------------------------


def _eta_minus_mu(mu: float, eta: float) -> float:
    # eta = sqrt(mu^2 - 1): (mu - eta)(mu + eta) = 1 gives a cancellation-free
    # route on the side where the direct difference collapses
    return -1.0 / (mu + eta) if mu > 0.0 else eta - mu


def _eta_plus_mu(mu: float, eta: float) -> float:
    return eta + mu if mu > 0.0 else 1.0 / (mu - eta)


def propagate(b: float, mu: float, start: float) -> float:
    """Value at time b of the normalized flow u' = u^2 + 2 mu u + 1, u(0) = start.

    ``start`` must be nonnegative.  Raises :class:`PoleError` when the
    solution blows up at or before b.
    """
    if b < 0.0:
        raise ValueError("time must be nonnegative")
    if start < 0.0:
        raise ValueError("initial state must be nonnegative")
    if b == 0.0:
        return start
    d = mu * mu - 1.0
    if abs(d) < BRANCH_TOL:
        # a flow u' = (u + c)^2 nowhere faster than the true (u + mu)^2 + 1 - mu^2 at u >= 0: c = 1
        # for mu > 1, mu for mu^2 <= 1, and mu + eta for mu < -1 below the equilibrium -c
        c = min(mu, 1.0) if mu >= -1.0 else mu + math.sqrt((mu - 1.0) * (mu + 1.0))
        u0 = start + c
        if u0 == 0.0 or (u0 > 0.0 and mu < -1.0):
            return min(start, -c)  # on or above -c, which the true state stays on or falls toward
        denom = b - 1.0 / u0
        if u0 > 0.0 and denom >= 0.0:
            raise PoleError(f"blow-up at b = {1.0 / u0:g} <= {b:g}")
        return -1.0 / denom - c
    if d < 0.0:
        eta = math.sqrt(-d)
        x = eta * b + math.atan((start + mu) / eta)
        if x >= 0.5 * math.pi:
            raise PoleError("tangent branch leaves its period before b")
        return eta * math.tan(x) - mu
    eta = math.sqrt(d)
    # branch on u0 - eta and u0 + eta computed through the conjugates
    # 1/(mu +- eta), so huge |mu| (where eta rounds to |mu|) stays exact
    d0 = start - _eta_minus_mu(mu, eta)  # = u0 - eta
    s0 = start + _eta_plus_mu(mu, eta)  # = u0 + eta
    if d0 == 0.0 or s0 == 0.0:
        return start  # started on an equilibrium of the flow
    if d0 > 0.0:
        # u = eta coth(c - eta b) - mu, growing, pole at c / eta
        c = 0.5 * math.log(s0 / d0)
        x = c - eta * b
        if x <= 0.0:
            raise PoleError("coth branch reaches its pole before b")
        return _eta_minus_mu(mu, eta) + 2.0 * eta / math.expm1(2.0 * x)
    if s0 < 0.0:
        # mirrored coth branch, monotone towards -(eta + mu), no pole for b >= 0
        y = eta * b - 0.5 * math.log(s0 / d0)
        correction = 0.0 if y > 350.0 else 2.0 * eta / math.expm1(2.0 * y)
        return -_eta_plus_mu(mu, eta) - correction
    # -eta < u0 < eta (only reachable for mu < -1): u = eta tanh(c - eta b) - mu,
    # monotone, no pole; assembled so that the limit value -mu - eta keeps its
    # tiny size 1/(|mu| + eta)
    x = 0.5 * math.log(s0 / -d0) - eta * b
    correction = 0.0 if x < -350.0 else 2.0 * eta / (1.0 + math.exp(-2.0 * x))
    return -_eta_plus_mu(mu, eta) + correction


def crossing_candidate(segment: MuSegment, start: float, rate: float) -> float:
    """First time >= segment.t_start at which the driven state reaches 1.

    ``start`` is the state at the segment start and must lie in [0, 1[.  The
    candidate ignores the segment's right end; the caller decides acceptance.
    Returns +inf when the state cannot reach 1 on this mu (mu <= -1).
    """
    if not 0.0 <= start < 1.0:
        raise ValueError(f"state at segment start must be in [0, 1[, got {start!r}")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    dt = _time_to_one(segment.mu, start)
    return segment.t_start + dt / rate if math.isfinite(dt) else math.inf


def _time_to_one(mu: float, start: float) -> float:
    """Normalized (rate 1) travel time of the flow from ``start`` to 1."""
    d = mu * mu - 1.0
    if abs(d) < BRANCH_TOL:
        # the flow of propagate, at or after the true time; for mu < -1 the state stays below 1
        u0 = start + min(mu, 1.0)
        return 1.0 / u0 - 1.0 / (1.0 + min(mu, 1.0)) if mu >= -1.0 and u0 > 0.0 else math.inf
    if mu <= -1.0:
        return math.inf
    if d < 0.0:
        eta = math.sqrt(-d)
        return (math.atan((1.0 + mu) / eta) - math.atan((start + mu) / eta)) / eta
    # mu > 1: arccoth difference, assembled from conjugate-stable factors
    eta = math.sqrt(d)
    inv = -_eta_minus_mu(mu, eta)  # = mu - eta = 1/(mu + eta)
    num = (start + mu + eta) * (1.0 + inv)
    den = (start + inv) * (1.0 + mu + eta)
    return 0.5 * math.log(num / den) / eta


# -- the crossing walk ------------------------------------------------------


def first_crossing_time(m: PiecewiseLogAffineBound, pair: OmegaRPair) -> float:
    """First t with phi(t) = 1 for the flow driven by m, omega and r; +inf if none.

    Walks m's pieces with mu_j = (slope_j - omega) / r.  A crossing counts
    only on the piece where it lands, and a state that reaches 1 by a piece's
    end crosses at that end; the last piece extends to +inf, so its candidate
    (finite or +inf) ends the walk.  A candidate that is NaN, as when |mu|
    beyond about 1.34e154 overflows mu * mu, raises OverflowError naming the
    slope, omega and rate.
    """
    bps = m.breakpoints
    omega, rate = pair.omega, pair.rate
    last = len(bps) - 1
    state = 0.0
    for j, (a, t0) in enumerate(zip(m.slopes, bps)):
        mu = (a - omega) / rate
        t1 = bps[j + 1] if j < last else math.inf
        crossing = t0 + _time_to_one(mu, state) / rate
        if crossing <= t1:
            return crossing
        if math.isnan(crossing):
            raise OverflowError(
                f"crossing time overflows at slope {a!r}, omega = {omega!r}, rate {rate!r} (mu = {mu:g})"
            )
        state = max(propagate(rate * (t1 - t0), mu, state), 0.0)
        if state >= 1.0:
            return t1
    raise AssertionError("final piece is unbounded")


# ``perfbench/spans.py`` traces the walk under this name and wraps every module
# attribute that is the same object, so the alias keeps the trace complete.
solve_crossing = first_crossing_time


def state_at(m: PiecewiseLogAffineBound, pair: OmegaRPair, t: float) -> float:
    """The driven state phi(t), propagated piece by piece from phi(0) = 0.

    Valid past the crossing as long as the flow has not blown up; raises
    :class:`PoleError` beyond the blow-up time.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    bps = m.breakpoints
    state = 0.0
    for j, a in enumerate(m.slopes):
        mu = (a - pair.omega) / pair.rate
        t1 = bps[j + 1] if j + 1 < len(bps) else math.inf
        if t <= t1:
            return propagate(pair.rate * (t - bps[j]), mu, state)
        state = propagate(pair.rate * (t1 - bps[j]), mu, state)
    raise AssertionError("final piece is unbounded")


def normalized_crossing_time(mu: float) -> float:
    """First b > 0 with u(b) = 1 for u' = u^2 + 2 mu u + 1, u(0) = 0, with
    constant mu; +inf when u never reaches 1."""
    return _time_to_one(float(mu), 0.0)


# -- the bound update -------------------------------------------------------


def update_bound(m: PiecewiseLogAffineBound, pair: OmegaRPair) -> PiecewiseLogAffineBound:
    """Sharpened bound: m kept up to twice the crossing time, then the minimum
    of m with the exponential tail of slope omega - r through the squared
    crossing value.  Returns m unchanged when the state never reaches 1, or
    when the tail starts below m (see :func:`update_tail`).
    """
    tail = update_tail(m, pair, first_crossing_time(m, pair))
    return m if tail is None else min_with_tails(m, [tail])


def update_tail(
    m: PiecewiseLogAffineBound, pair: OmegaRPair, crossing: float
) -> tuple[float, float, float] | None:
    """The tail ``(start, slope, intercept)`` that :func:`update_bound` takes the
    minimum with from ``start`` on, given m's first crossing time for the pair;
    None when the update leaves m unchanged, as it does where the tail starts
    below m at twice the crossing c by more than the jump a bound can store, so
    that the exact update would jump down: that needs m(2c) > m(c)^2, which no
    subadditive log m has.  A tail that starts within ``_BP_MERGE_TOL`` of 0
    would take over m's first piece from t = 0, so one whose log there is not 0
    raises ArithmeticError: m rises too steeply for its update to stay normalized.
    """
    if not m.is_normalized:
        raise ValueError("update requires a normalized bound (m(0) = 1)")
    if not math.isfinite(crossing):
        return None
    if crossing < 0.0:
        raise ValueError(f"bound evaluated at negative time {crossing!r}")
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    i = bisect.bisect_right(bps, crossing) - 1
    slope = pair.omega - pair.rate
    intercept = 2.0 * (slopes[i] * crossing + intercepts[i]) - slope * 2.0 * crossing
    start = 2.0 * crossing
    j = bisect.bisect_right(bps, start) - 1
    a, b = slopes[j], intercepts[j]
    gap = (slope * start + intercept) - (a * start + b)
    # the slack is never below CONTINUITY_TOL
    if gap < -CONTINUITY_TOL and gap < -_continuity_slack(start, a, b, slope, intercept):
        return None
    if start <= _BP_MERGE_TOL and abs(intercept) > CONTINUITY_TOL:
        raise ArithmeticError(
            f"update tail for omega = {pair.omega!r} starts at t = {start:g}, so the update has log m(0) = {intercept:.4g}"
        )
    return start, slope, intercept


# -- weighted norms and the Gearhart-Pruss estimate -------------------------


def _piece_integral_log(kappa: float, slope: float, intercept: float, lo: float, hi: float) -> float:
    """log of the integral of exp(2 omega s) / m(s)^2 over [lo, hi], less 2 omega hi, where
    log m = slope s + intercept there and kappa = omega - slope: -2 log m(hi) plus the log
    of the integral of exp(-2 kappa u) over [0, hi - lo].  No term grows with omega, and
    2 kappa is never formed, so it cannot overflow."""
    width = hi - lo
    z = kappa * width
    term = -2.0 * (slope * hi + intercept)
    if abs(z) < sys.float_info.min:
        # z zero or subnormal: the integral is the width to rounding
        return term + math.log(width)
    if abs(z) < 350.0:
        # (1 - exp(-2 z)) / (2 z) > 0 for either sign of z
        return term + math.log(-math.expm1(-2.0 * z) / (2.0 * z) * width)
    if z > 0.0:  # exp(-2 z) is below 1e-304
        return term - math.log(2.0) - math.log(kappa)
    return term - 2.0 * z - math.log(2.0) - math.log(-kappa)


def _logsumexp(terms: Sequence[float]) -> float:
    top = max(terms)
    if math.isinf(top):
        return top
    return top + math.log(sum(math.exp(x - top) for x in terms))


def _log_norms_sq(m: PiecewiseLogAffineBound, omega: float) -> Callable[[float], float]:
    """horizon -> :func:`log_weighted_inv_norm_sq` (m, omega, horizon) - 2 omega horizon.
    Each piece's term is taken at its right end hi and shifted by 2 omega (hi - horizon).
    The term of a piece that lies wholly inside a horizon is computed once, for every
    horizon that reaches past it, so a horizon adds only its last, partial piece's term."""
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    two_omega = 2.0 * omega  # inf for |omega| near the largest float, so each shift is -inf or inf
    full: list[float] = []

    def log_norm(horizon: float) -> float:
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"integration horizon must be positive and finite, got {horizon!r}")
        k = bisect.bisect_left(bps, horizon) - 1  # the last piece that starts before the horizon
        for j in range(len(full), k):
            full.append(_piece_integral_log(omega - slopes[j], slopes[j], intercepts[j], bps[j], bps[j + 1]))
        terms = [x + two_omega * (hi - horizon) for x, hi in zip(full[:k], bps[1:])]  # hi < horizon
        terms.append(_piece_integral_log(omega - slopes[k], slopes[k], intercepts[k], bps[k], horizon))
        return _logsumexp(terms)

    return log_norm


def log_weighted_inv_norm_sq(m: PiecewiseLogAffineBound, omega: float, horizon: float) -> float:
    """log of the squared weighted norm of 1/m: the integral of
    exp(2 omega s) / m(s)^2 over [0, horizon].

    Summed piece by piece in log scale from the exact exponential
    antiderivative, each piece relative to its right end, so it neither
    overflows nor underflows short of the result itself; only a piece whose
    exponent omega - slope times its width is 0 or subnormal takes the
    linear formula.  A non-finite omega, or a result that overflows, raises
    ValueError.
    """
    value = _log_norms_sq(m, omega)(horizon) + omega * (2.0 * horizon)
    if not math.isfinite(value):
        raise ValueError(f"weighted norm overflows at omega = {omega!r}")
    return value


def _gp_log_bounds(
    m: PiecewiseLogAffineBound, pair: OmegaRPair, windows: Iterable, with_decay: bool = True
) -> Iterator[float]:
    """:func:`gp_log_bound` at each ``(a, b, t)`` of ``windows`` in turn, all from one :func:`_log_norms_sq`.

    omega t is split as omega (t - a - b), summed exactly, plus omega a and omega b, which
    cancel against the norms' 2 omega a and 2 omega b before they are formed, so no term
    grows with omega."""
    omega = pair.omega
    log_norm = _log_norms_sq(m, omega)
    for a, b, t in windows:
        if a <= 0.0 or b <= 0.0:
            raise ValueError("window lengths must be positive")
        if t < a + b:
            raise ValueError(f"need t >= a + b, got t = {t!r} < {a + b!r}")
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got t = {t!r}")
        gap = math.fsum((t, -a, -b))
        value = omega * gap - math.log(pair.rate)
        if with_decay:
            value -= pair.rate * gap
        log_a = log_norm(a)
        value = value - 0.5 * log_a - 0.5 * (log_a if b == a else log_norm(b))
        if not math.isfinite(value):
            raise ValueError(f"Gearhart-Pruss bound overflows at omega = {omega!r}")
        yield value


def gp_log_bound(
    m: PiecewiseLogAffineBound,
    pair: OmegaRPair,
    a: float,
    b: float,
    t: float,
    with_decay: bool = True,
) -> float:
    """Logarithm of the quantitative Gearhart-Pruss bound on the semigroup norm
    at time t >= a + b, built from the weighted norms of 1/m over [0, a] and
    [0, b].  ``with_decay`` keeps the extra factor exp(-r (t - a - b)) of the
    strengthened estimate; dropping it recovers the plain version.
    """
    return next(_gp_log_bounds(m, pair, [(a, b, t)], with_decay))
