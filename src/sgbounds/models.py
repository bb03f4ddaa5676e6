"""Two fully computable model operators as plain rate and norm functions.

Each function takes an abscissa or a time and returns a float; nothing here
builds a profile.  A caller wraps a rate in ``ResolventProfile(fn=...)``, for
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


class ConvergenceError(RuntimeError):
    """A root find failed to converge."""


# -- differentiation operator ------------------------------------------------


def _bisect(f, lo: float, hi: float, increasing: bool) -> float:
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (f(mid) < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def diffop_eigenroot(omega: float) -> float:
    """Solve -nu cot(nu) = omega for the branch continuous through nu(-1) = 0.

    Returns the signed nu^2: nu^2 > 0 for the real root nu in ]0, pi[
    (omega > -1), -eta^2 < 0 for the imaginary root nu = i eta (omega < -1),
    and 0 at omega = -1.
    """
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    if omega == -1.0:
        return 0.0
    if omega > -1.0:
        # f(nu) = -nu cot(nu) increases from -1 to +inf on ]0, pi[
        f = lambda nu: -nu / math.tan(nu) - omega
        lo, hi = 1e-12, math.nextafter(math.pi, 0.0)
        if f(lo) > 0.0 or f(hi) < 0.0:
            raise ConvergenceError(f"secular bracket failed at omega = {omega!r}")
        nu = _bisect(f, lo, hi, increasing=True)
        return nu * nu
    # omega < -1: g(eta) = -eta coth(eta) - omega decreases from -1 - omega > 0
    # to -inf.  As eta < eta coth(eta) < eta + 1, the root lies in
    # [max(0, -omega - 1), -omega]: g(-omega + 1) < -1 never rounds above 0,
    # and g(max(1, -omega - 1)) >= 0 unless omega lies in ]-coth(1), -1[
    # (coth(1) = 1.3130...).  There lo is halved, which stops above 1e-8,
    # since g(lo) = -1 - omega > 0 once tanh(lo) rounds to lo.
    g = lambda eta: -eta / math.tanh(eta) - omega
    lo = max(1.0, -omega - 1.0)
    while g(lo) < 0.0:
        lo *= 0.5
    eta = _bisect(g, lo, -omega + 1.0, increasing=False)
    return -eta * eta


def diffop_rate(omega: float) -> float:
    """Resolvent rate r(omega) = sqrt(omega^2 + nu(omega)^2) of the shift model.

    For omega < -1 the two squares cancel almost exactly, so the value is
    assembled from omega + eta = -2 eta / expm1(2 eta), which the secular
    equation provides without subtraction.  expm1(2 eta) overflows for omega
    below about -354.9, which raises an ``OverflowError`` naming omega.
    """
    if omega == -1.0:
        return 1.0
    nu_sq = diffop_eigenroot(omega)
    if omega > -1.0:
        return math.sqrt(omega * omega + nu_sq)
    eta = math.sqrt(-nu_sq)
    try:
        minus_omega_plus_eta = 2.0 * eta / math.expm1(2.0 * eta)
    except OverflowError:
        raise OverflowError(f"diffop rate overflows at omega = {omega!r}") from None
    return math.sqrt(minus_omega_plus_eta * (eta - omega))


def diffop_semigroup_norm(t: float) -> float:
    """Exact norm of the shift semigroup: 1 before time 1, 0 from time 1 on."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return 1.0 if t < 1.0 else 0.0


def rate_for_crossing_time(alpha: float, omega: float) -> float:
    """The rate that makes the trivial bound's crossing time equal alpha.

    For the shift model this is r(2 alpha omega) / (2 alpha), by the scaling
    of the model under gamma A + delta.
    """
    if alpha <= 0.0:
        raise ValueError("crossing time must be positive")
    return diffop_rate(2.0 * alpha * omega) / (2.0 * alpha)


def improvement_region_thresholds() -> tuple[float, float]:
    """Abscissas where the matched-rate curves for crossing times pi/2 and pi/8
    meet the line r = omega + 1; they delimit where combining a second pair
    with the reference pair (0, 1) can pay off."""
    f = lambda w: rate_for_crossing_time(0.5 * math.pi, w) - (w + 1.0)
    g = lambda w: rate_for_crossing_time(0.125 * math.pi, w) - (w + 1.0)
    if not (f(-1.0 + 1e-9) > 0.0 > f(0.0)):
        raise ConvergenceError("lower threshold bracket failed")
    if not (g(1.0) > 0.0 > g(10.0)):
        raise ConvergenceError("upper threshold bracket failed")
    lower = _bisect(f, -1.0 + 1e-9, 0.0, increasing=False)
    upper = _bisect(g, 1.0, 10.0, increasing=False)
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


def jordan_resolvent_rate(model: JordanBlockModel, omega: float) -> float:
    """Resolvent rate of the Jordan block at omega > 0: sigma_min(omega I - J).

    The resolvent norm on Re z >= omega peaks at z = omega (module docstring).
    """
    if not math.isfinite(omega):
        raise ValueError(f"Jordan rate needs a finite omega, got {omega!r}")
    if omega <= 0.0:
        raise ValueError("the block's spectrum {0} leaves no positive rate for omega <= 0")
    shifted = omega * np.eye(model.n) - model.matrix()
    return float(np.linalg.svd(shifted, compute_uv=False)[-1])

