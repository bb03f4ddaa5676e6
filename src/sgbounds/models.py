"""Two fully computable model operators as plain rate and norm functions.

Each function takes an abscissa or a time and returns a float; nothing here
builds a profile.  The rate functions are elementwise, with one path each: an
array of abscissas gets the array of rates, from one masked numpy bisection
(:func:`_bisect_array`) or one stacked SVD, and a float goes through the same
path as a one-element array and gets a float.  A caller wraps a rate in
``ResolventProfile(fn=...)``, for the Jordan block with
``functools.partial(jordan_resolvent_rate, model)``.

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
deep hyperbolic branch can lose.
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


def _first(omegas: np.ndarray, mask: np.ndarray) -> float:
    """The first abscissa where mask holds, as a float for messages."""
    return float(omegas[mask].flat[0])


def diffop_eigenroot(omega):
    """Solve -nu cot(nu) = omega for the branch continuous through nu(-1) = 0.

    Returns the signed nu^2: nu^2 > 0 for the real root nu in ]0, pi[
    (omega > -1), -eta^2 < 0 for the imaginary root nu = i eta (omega < -1),
    and 0 at omega = -1.  Elementwise: an array of abscissas gets the array of
    roots from one :func:`_bisect_array` per branch, and a float is solved as
    a one-element array and gets a float.
    """
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    bad = ~np.isfinite(omegas)
    if bad.any():
        raise ValueError(f"omega must be finite, got omega = {_first(omegas, bad)!r}")
    nu_sq = np.zeros_like(omegas)
    trig, hyp = omegas > -1.0, omegas < -1.0
    # omega > -1: f(nu) = -nu cot(nu) increases from -1 to +inf on ]0, pi[
    w = omegas[trig]
    f = lambda nu: -nu / np.tan(nu) - w
    lo, hi = np.full_like(w, 1e-12), np.full_like(w, math.nextafter(math.pi, 0.0))
    failed = (f(lo) > 0.0) | (f(hi) < 0.0)
    if failed.any():
        raise ConvergenceError(f"secular bracket failed at omega = {_first(w, failed)!r}")
    nu = _bisect_array(f, lo, hi, increasing=True)
    nu_sq[trig] = nu * nu
    # omega < -1: g(eta) = -eta coth(eta) - omega decreases from -1 - omega > 0
    # to -inf.  As eta < eta coth(eta) < eta + 1, the root lies in
    # [max(0, -omega - 1), -omega]: g(-omega + 1) < -1 never rounds above 0,
    # and g(max(1, -omega - 1)) >= 0 unless omega lies in ]-coth(1), -1[
    # (coth(1) = 1.3130...).  There lo is halved, which stops above 1e-8,
    # since g(lo) = -1 - omega > 0 once tanh(lo) rounds to lo.
    w = omegas[hyp]
    g = lambda eta: -eta / np.tanh(eta) - w
    lo = np.maximum(1.0, -w - 1.0)
    while (short := g(lo) < 0.0).any():
        lo = np.where(short, 0.5 * lo, lo)
    eta = _bisect_array(g, lo, -w + 1.0, increasing=False)
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
    array of rates from one masked numpy bisection, and a float goes through
    the same path as a one-element array and gets a float.  A float call costs
    about as much as a short array (the bisection's numpy steps), so a loop
    over abscissas should pass them as one array.
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
    if t < 0.0:
        raise ValueError("time must be nonnegative")
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
    with the reference pair (0, 1) can pay off.  Both are solved in one
    :func:`_bisect_array` call."""
    alphas = np.array([0.5 * math.pi, 0.125 * math.pi])
    f = lambda w: rate_for_crossing_time(alphas, w) - (w + 1.0)
    lo, hi = np.array([-1.0 + 1e-9, 1.0]), np.array([0.0, 10.0])
    failed = ~((f(lo) > 0.0) & (f(hi) < 0.0))
    if failed.any():
        raise ConvergenceError(f"{'lower' if failed[0] else 'upper'} threshold bracket failed")
    lower, upper = _bisect_array(f, lo, hi, increasing=False).tolist()
    return lower, upper


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


def jordan_matrix_exponential(model: JordanBlockModel, t: float) -> np.ndarray:
    """exp(tJ) in closed form: the nilpotent series terminates after n terms."""
    n = model.n
    out = np.zeros((n, n))
    coeff = 1.0
    for d in range(n):
        if d > 0:
            coeff *= t / d
        out += coeff * np.eye(n, k=d)
    return out


def jordan_semigroup_norm(model: JordanBlockModel, t: float) -> float:
    """Largest singular value of exp(tJ)."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return float(np.linalg.norm(jordan_matrix_exponential(model, t), 2))


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

