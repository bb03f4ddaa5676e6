"""Two fully computable model operators as plain rate and norm functions.

Each function takes an abscissa or a time and returns a float; nothing here
builds a profile.  The rate functions and ``jordan_semigroup_norm`` are
elementwise, with one path each: an array of abscissas (or times) gets the
array of values, from brackets narrowed by Newton steps
(:func:`_narrow_by_newton`) or from one stacked SVD, and a float goes through
the same path as a one-element array and gets a float.  Every root here, the
thresholds' too, is closed by :func:`_close`: sectioning, then one masked
numpy bisection.  A caller wraps a rate in ``ResolventProfile(fn=...)``, for
the Jordan block with ``functools.partial(jordan_resolvent_rate, model)``.

Differentiation operator: A = d/dx on L2(0, 1) with boundary condition
u(1) = 0.  Its semigroup is the left shift, which is the identity in norm
until t = 1 and exactly zero afterwards.  The resolvent rate depends only on
Re z and satisfies r(w) = sqrt(w^2 + nu(w)^2) where nu solves the secular
equation -nu cot(nu) = w; nu is real in (0, pi) for w > -1 and imaginary
(nu = i eta with eta coth(eta) = -w) for w < -1.  For very negative w the
rate collapses like 2 |w| exp(-|w|), so the hyperbolic branch is evaluated
through cancellation-free factorizations rather than the raw w^2 + nu^2.

Jordan block of size n: nilpotent generator, exponential computed exactly
from the terminating series, norms as largest singular values, the numerical
range line of slope cos(pi / (n + 1)), and the exact resolvent rate
r(w) = sigma_min(w I - J).  (z - J)^{-1} = sum_k z^{-(k+1)} J^k is unitarily
similar, via D = diag(e^{i j theta}) with z = |z| e^{i theta}, to
(|z| - J)^{-1}, whose entries are nonnegative and decrease in |z|; so the sup
of the resolvent norm over Re z >= w is attained at z = w.

Rounding.  The Riccati update is sound only with a rate at or below the exact
one, and both rates come out of root finding or an SVD whose result can land
on either side of it.  Each rate is therefore multiplied by
1 - ``_RATE_MARGIN``, with ``_RATE_MARGIN`` = 3e-14, because:

* Jordan: w I - J is bidiagonal, and LAPACK computes the singular values of a
  bidiagonal matrix to high relative accuracy; for n <= 8 they lie within
  5e-16 of a 60-digit SVD.
* Shift, w >= -1: r = sqrt(w^2 + nu^2) is well conditioned in nu, and the
  bisection leaves nu within a few ulps of the root, so r errs by a few 1e-16.
* Shift, w < -1: r^2 = a (eta - w) with a = 2 eta / expm1(2 eta).  An absolute
  error d in eta moves r by the relative amount -d (1 - 3 / (4 eta)), so
  exp(-2 eta) turns a rounding of eta into about 2 eta times as large a
  relative error of a, which a constant few ulps would not cover.  Where
  tanh(eta) rounds to 1 (eta above about 19), the computed
  g(eta) = -eta - w is exact and changes sign exactly at the float -w, which
  lies above the root -w - a (a < 1e-15).  There eta errs only upward, which
  lowers r, by up to one ulp of w (5.7e-14 near w = -354).  Below that, the
  roundings of tanh and of g (whose slope is about -1) move eta by a few ulps
  of w, with |w| < 20, and the bracket adds one ulp of eta: less than 2e-14 in
  all.

So the margin covers every upward error with room to spare, and every rate
stays within 1e-13 below the exact one: the margin plus the 5.7e-14 that the
deep hyperbolic branch can lose.  The Newton narrowing and the sectioning
before each bisection change none of this: they move a bracket end only to a
point where the computed f has that end's sign and never return a probe, so each
root is still the midpoint of adjacent floats across a sign change of the same
computed f, which is all the argument above uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "JordanBlockModel",
    "diffop_eigenroot",
    "diffop_rate",
    "diffop_semigroup_norm",
    "improvement_region_thresholds",
    "jordan_matrix_exponential",
    "jordan_numerical_range_slope",
    "jordan_resolvent_rate",
    "jordan_semigroup_norm",
    "rate_for_crossing_time",
]

_BISECT_MAX_ITER = 200
_NEWTON_MAX_ITER = 8
_NEWTON_PROBES = np.array([[-1.0], [0.0], [1.0]])
_CLOSE_ULPS = 1024
_SECTIONS = np.arange(1.0, 64.0)[:, None] / 64.0
_RATE_MARGIN = 3e-14


class ConvergenceError(RuntimeError):
    """A root find failed to converge."""


# -- differentiation operator ------------------------------------------------


def _bisect_array(f, lo: np.ndarray, hi: np.ndarray, increasing: bool) -> np.ndarray:
    """Bisection on arrays of brackets: each element moves lo or hi to its
    midpoint by the sign of f there, and stops once its own midpoint no longer
    falls inside its bracket."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        up = (f(mid) < 0.0) == increasing
        lo = np.where(inside & up, mid, lo)
        hi = np.where(inside & ~up, mid, hi)
    return 0.5 * (lo + hi)


def _narrow(f, w, lo, hi, points, increasing: bool):
    """Move each end of the brackets [lo, hi] to the nearest of the points
    (stacked on axis 0) strictly inside it where f(., w) has that end's sign,
    classified as in :func:`_bisect_array`."""
    points = np.clip(points, lo, hi)
    up = (f(points, w) < 0.0) == increasing
    inside = (lo < points) & (points < hi)
    hi = np.where(inside & ~up, points, hi).min(axis=0)
    lo = np.where(inside & up & (points < hi), points, lo).max(axis=0)
    return lo, hi


def _narrow_by_newton(f, newton, w, lo, hi, x, increasing: bool):
    """Narrow the brackets for :func:`_close`, each element on its own.

    Newton steps from x, with ``newton(x, w)`` giving f and its slope, run
    until the step is below the width within which rounding of f hides the
    root, the Newton point leaves the bracket, or ``_NEWTON_MAX_ITER`` steps.
    Then f is probed at the last point and at that point plus and minus the
    last step or that width, whichever is larger.
    """
    w_ulp = np.spacing(np.abs(w))
    active = np.ones(len(w), dtype=bool)
    reach = np.zeros_like(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if not active.any():
                break
            fx, slope = newton(x, w)
            step = fx / slope
            x_new = x - step
            blur = 4.0 * (np.spacing(np.abs(x_new)) + w_ulp / np.abs(slope))
            active &= np.isfinite(blur) & (lo <= x_new) & (x_new <= hi)
            x = np.where(active, x_new, x)
            reach = np.where(active, np.maximum(np.abs(step), blur), reach)
            active &= np.abs(step) > blur
    return _narrow(f, w, lo, hi, x + reach * _NEWTON_PROBES, increasing)


def _close(f, w, lo, hi, increasing: bool) -> np.ndarray:
    """The roots of f(., w) in the brackets [lo, hi], each element on its own.

    Brackets still wider than ``_CLOSE_ULPS`` ulps are cut into 64 equal
    parts per round (near omega = -1 the computed secular function is flat
    over up to 2^50 ulps of the root, which no Newton step can see into), and
    one :func:`_bisect_array` closes them all.
    """
    wide = hi - lo > _CLOSE_ULPS * np.spacing(np.abs(hi))
    for _ in range(_BISECT_MAX_ITER):
        if not wide.any():
            break
        i = np.flatnonzero(wide)
        lo[i], hi[i] = _narrow(f, w[i], lo[i], hi[i], lo[i] + (hi[i] - lo[i]) * _SECTIONS, increasing)
        wide[i] = hi[i] - lo[i] > _CLOSE_ULPS * np.spacing(np.abs(hi[i]))
    return _bisect_array(lambda x: f(x, w), lo, hi, increasing)


# the secular functions of the two branches, and each with its slope for Newton


def _trig(nu, w):
    return -nu / np.tan(nu) - w


def _trig_newton(nu, w):
    t = np.tan(nu)
    return -nu / t - w, (nu * (t * t + 1.0) - t) / (t * t)


def _hyp(eta, w):
    return -eta / np.tanh(eta) - w


def _hyp_newton(eta, w):
    t = np.tanh(eta)
    return -eta / t - w, (eta * (1.0 - t * t) - t) / (t * t)


def _first(omegas: np.ndarray, mask: np.ndarray) -> float:
    """The first abscissa where mask holds, as a float for messages."""
    return float(omegas[mask].flat[0])


def _nu(w: np.ndarray) -> np.ndarray:
    """The roots nu in ]0, pi[ of -nu cot(nu) = w for abscissas w > -1."""
    # f(nu) = -nu cot(nu) - w increases from -1 - w to +inf on ]0, pi[.  Newton
    # starts from the smaller of two estimates: the inverted series
    # -nu cot(nu) = -1 + nu^2 / 3 + nu^4 / 45 + ..., close near w = -1, and
    # pi - e with (pi / 3) e^2 + (1 + w) e = pi, close for large w.
    lo, hi = np.full_like(w, 1e-12), np.full_like(w, math.nextafter(math.pi, 0.0))
    failed = (_trig(lo, w) > 0.0) | (_trig(hi, w) < 0.0)
    if failed.any():
        raise ConvergenceError(f"secular bracket failed at omega = {_first(w, failed)!r}")
    s = 1.0 + w
    series = np.sqrt(3.0 * s - 0.6 * s * s + 12.0 / 175.0 * s**3)
    far = math.pi - 2.0 * math.pi / (s + np.sqrt(s * s + 4.0 * math.pi**2 / 3.0))
    lo, hi = _narrow_by_newton(_trig, _trig_newton, w, lo, hi, np.minimum(series, far), increasing=True)
    return _close(_trig, w, lo, hi, increasing=True)


def _eta(w: np.ndarray) -> np.ndarray:
    """The roots eta > 0 of eta coth(eta) = -w for abscissas w < -1."""
    # g(eta) = -eta coth(eta) - w decreases from -1 - w > 0 to -inf.  As
    # eta < eta coth(eta) < eta + 1, the root lies in [max(0, -w - 1), -w]:
    # g(-w + 1) < -1 never rounds above 0, and g(max(1, -w - 1)) >= 0 unless w
    # lies in ]-coth(1), -1[ (coth(1) = 1.3130...).  There lo is halved, which
    # stops above 1e-8, since g(lo) = -1 - w > 0 once tanh(lo) rounds to lo.
    # Newton starts from the smaller of two estimates: the inverted series
    # eta coth(eta) = 1 + eta^2 / 3 - eta^4 / 45 + ..., close near w = -1,
    # and -w (1 - 2 exp(2 w)), close for large -w.
    lo = np.maximum(1.0, -w - 1.0)
    while (short := _hyp(lo, w) < 0.0).any():
        lo = np.where(short, 0.5 * lo, lo)
    s = -1.0 - w
    with np.errstate(over="ignore"):  # the series is inf where far is the start
        series = np.sqrt(3.0 * s + 0.6 * s * s + 12.0 / 175.0 * s**3)
        far = -w * (1.0 - 2.0 * np.exp(2.0 * w))
    lo, hi = _narrow_by_newton(_hyp, _hyp_newton, w, lo, -w + 1.0, np.minimum(series, far), increasing=False)
    return _close(_hyp, w, lo, hi, increasing=False)


def diffop_eigenroot(omega):
    """Solve -nu cot(nu) = omega for the branch continuous through nu(-1) = 0.

    Returns the signed nu^2: nu^2 > 0 for the real root nu in ]0, pi[
    (omega > -1), -eta^2 < 0 for the imaginary root nu = i eta (omega < -1),
    and 0 at omega = -1; below -sqrt of the largest float -eta^2 overflows,
    which raises an ``OverflowError`` naming omega.  Elementwise: an array of
    abscissas gets the array of roots, and a float is solved as a one-element
    array and gets a float.
    Each branch narrows its brackets with :func:`_narrow_by_newton` and closes
    them with one :func:`_close`; a root does not depend on which other
    abscissas share its array.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    bad = ~np.isfinite(omegas)
    if bad.any():
        raise ValueError(f"omega must be finite, got omega = {_first(omegas, bad)!r}")
    nu_sq = np.zeros_like(omegas)
    trig, hyp = omegas > -1.0, omegas < -1.0
    if trig.any():
        nu = _nu(omegas[trig])
        nu_sq[trig] = nu * nu
    if hyp.any():
        huge = omegas < -1.3407807929942596e154  # -sqrt of the largest float; eta rounds to -omega below it
        if huge.any():
            raise OverflowError(f"diffop eigenroot -eta^2 overflows at omega = {_first(omegas, huge)!r}")
        eta = _eta(omegas[hyp])
        nu_sq[hyp] = -eta * eta
    return nu_sq if np.ndim(omega) else float(nu_sq[0])


def diffop_rate(omega):
    """Resolvent rate r(omega) = sqrt(omega^2 + nu(omega)^2) of the shift model,
    rounded down by the relative margin ``_RATE_MARGIN``.

    For omega < -1 the two squares cancel almost exactly, so the value is
    assembled from omega + eta = -2 eta / expm1(2 eta), which the secular
    equation provides without subtraction.  expm1(2 eta) overflows for omega
    below about -354.9, which raises an ``OverflowError`` naming omega.

    Elementwise, as :func:`diffop_eigenroot`: an array of abscissas gets the
    array of rates from Newton-narrowed brackets and one masked numpy
    bisection per branch, and a float goes through the same path as a
    one-element array and gets a float.  A float call costs a few dozen numpy
    calls, about 0.3 ms on a shared 2-vCPU host against about 1 ms for 400
    abscissas, so a loop over abscissas should pass them as one array.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    nu_sq = diffop_eigenroot(omegas)
    rates = np.ones_like(omegas)
    trig, hyp = omegas > -1.0, omegas < -1.0
    w = omegas[trig]
    rates[trig] = np.sqrt(w * w + nu_sq[trig])
    w, eta = omegas[hyp], np.sqrt(-nu_sq[hyp])
    with np.errstate(over="ignore"):
        grown = np.expm1(2.0 * eta)
    overflow = np.isinf(grown)
    if overflow.any():
        raise OverflowError(f"diffop rate overflows at omega = {_first(w, overflow)!r}")
    rates[hyp] = np.sqrt(2.0 * eta / grown * (eta - w))
    rates *= 1.0 - _RATE_MARGIN
    return rates if np.ndim(omega) else float(rates[0])


def diffop_semigroup_norm(t: float) -> float:
    """Exact norm of the shift semigroup: 1 before time 1, 0 from time 1 on."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got t = {t!r}")
    return 1.0 if t < 1.0 else 0.0


def rate_for_crossing_time(alpha, omega):
    """The rate that makes the trivial bound's crossing time equal alpha.

    For the shift model this is r(2 alpha omega) / (2 alpha), by the scaling
    of the model under gamma A + delta.  Elementwise in alpha and omega, as
    :func:`diffop_rate`.
    """
    if np.min(alpha) <= 0.0:
        raise ValueError("crossing time must be positive")
    return diffop_rate(2.0 * alpha * omega) / (2.0 * alpha)


def improvement_region_thresholds() -> tuple[float, float]:
    """Abscissas where the matched-rate curves for crossing times pi/2 and pi/8
    meet the line r = omega + 1; they delimit where combining a second pair
    with the reference pair (0, 1) can pay off.  Both brackets are closed by
    one :func:`_close`, with the crossing times as its w."""
    f = lambda w, alpha: rate_for_crossing_time(alpha, w) - (w + 1.0)
    alpha, lo, hi = np.array([0.5 * math.pi, 0.125 * math.pi]), np.array([-1.0 + 1e-9, 1.0]), np.array([0.0, 10.0])
    f_lo, f_hi = f(np.stack([lo, hi]), alpha)
    failed = ~((f_lo > 0.0) & (f_hi < 0.0))
    if failed.any():
        raise ConvergenceError(f"{'lower' if failed[0] else 'upper'} threshold bracket failed")
    return tuple(_close(f, alpha, lo, hi, increasing=False).tolist())


# -- Jordan blocks ------------------------------------------------------------


@dataclass(frozen=True)
class JordanBlockModel:
    """A single nilpotent Jordan block of size n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("block size must be at least 1")

    def matrix(self) -> np.ndarray:
        return np.eye(self.n, k=1)


def jordan_matrix_exponential(model: JordanBlockModel, t):
    """exp(tJ) in closed form: the nilpotent series terminates after n terms.

    Elementwise in t: a float gets one n x n matrix, and an array of times the
    stack of exponentials, shape ``t.shape + (n, n)``, with the same float
    operations per time.
    """
    n = model.n
    ts = np.asarray(t, dtype=float)
    out = np.zeros(ts.shape + (n, n))
    coeff = np.ones_like(ts)
    for d in range(n):
        if d > 0:
            coeff = coeff * (ts / d)
        out += coeff[..., None, None] * np.eye(n, k=d)
    return out


def jordan_semigroup_norm(model: JordanBlockModel, t):
    """Largest singular value of exp(tJ).  Elementwise in t, as
    :func:`jordan_resolvent_rate` is in omega: a float gets a float, and an
    array of times the array of norms from one stacked SVD call."""
    ts = np.asarray(t, dtype=float)
    bad = ~((ts >= 0.0) & (ts < math.inf))
    if bad.any():
        raise ValueError(f"time must be nonnegative and finite, got t = {_first(ts, bad)!r}")
    norms = np.linalg.svd(jordan_matrix_exponential(model, ts), compute_uv=False)[..., 0]
    return norms if np.ndim(t) else float(norms)


def jordan_numerical_range_slope(model: JordanBlockModel) -> float:
    """Largest real part of the numerical range of J: cos(pi / (n + 1))."""
    return math.cos(math.pi / (model.n + 1))


def jordan_resolvent_rate(model: JordanBlockModel, omega):
    """Resolvent rate of the Jordan block at omega > 0: sigma_min(omega I - J),
    rounded down by the relative margin ``_RATE_MARGIN``.

    The resolvent norm on Re z >= omega peaks at z = omega (module docstring).
    A float gets a float and an array of abscissas the array of rates; either
    way one SVD call runs on the stack of shifted blocks.
    """
    w = np.asarray(omega, dtype=float)
    bad = ~np.isfinite(w)
    if bad.any():
        raise ValueError(f"Jordan rate needs a finite omega, got omega = {_first(w, bad)!r}")
    low = w <= 0.0
    if low.any():
        raise ValueError(
            f"the block's spectrum {{0}} leaves no positive rate for omega <= 0, got omega = {_first(w, low)!r}"
        )
    shifted = w[..., None, None] * np.eye(model.n) - model.matrix()
    rates = np.linalg.svd(shifted, compute_uv=False)[..., -1] * (1.0 - _RATE_MARGIN)
    return rates if np.ndim(omega) else float(rates)

