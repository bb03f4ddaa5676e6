"""Iterated sharpening over a finite set of abscissas with a validated profile.

A :class:`ResolventProfile` supplies, for each abscissa omega, a rate r that
is safe to use in the Riccati update (any r below the true resolvent rate is
sound).  Tabulated profiles are validated against monotonicity and the
1-Lipschitz consistency r(w') >= r(w) - (w - w'), and are interpolated by the
conservative lower envelope these inequalities imply.

Two iterations are provided.  :func:`iterate` alternates the best update over
the whole abscissa set with the grid subadditive envelope; the envelope is a
no-op on log-concave iterates, in which case the exact piecewise form is kept,
and otherwise the iteration continues from the piecewise interpolant of the
grid.  :func:`iterate_updates_only` stays entirely in the exact representation
and requires a log-concave start, which the update preserves.  Order-sensitive
single passes are available as :func:`update_chain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import PiecewiseLogAffineBound, allclose, log_concavity, pointwise_min
from .envelope import GridBound, piecewise_interpolant, subadditive_envelope
from .riccati import OmegaRPair, first_crossing_time, update_bound

__all__ = [
    "IterationStep",
    "IterationTrace",
    "OmegaSet",
    "ResolventProfile",
    "argmin_abscissas",
    "iterate",
    "iterate_updates_only",
    "min_update",
    "update_chain",
]

_STATIONARY_TOL = 1e-10
_ARGMIN_TOL = 1e-9
_LIPSCHITZ_TOL = 1e-12


@dataclass(frozen=True)
class ResolventProfile:
    """A map omega -> r(omega), either tabulated or backed by a model callable."""

    table: tuple[tuple[float, float], ...] = ()
    fn: Callable[[float], float] | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)

    @classmethod
    def tabulated(cls, pairs: Sequence[tuple[float, float]]) -> "ResolventProfile":
        table = tuple(sorted((float(w), float(r)) for w, r in pairs))
        if not table:
            raise ValueError("tabulated profile needs at least one pair")
        for w, r in table:
            if r <= 0.0:
                raise ValueError(f"tabulated rate at omega = {w!r} must be positive")
        for (w0, r0), (w1, r1) in zip(table, table[1:]):
            if w1 <= w0:
                raise ValueError("tabulated abscissas must be distinct")
            if r1 < r0 - _LIPSCHITZ_TOL:
                raise ValueError(f"rates must be non-decreasing, violated at omega = {w1!r}")
            if r0 < r1 - (w1 - w0) - _LIPSCHITZ_TOL:
                raise ValueError(f"1-Lipschitz consistency violated between {w0!r} and {w1!r}")
        lo = min(w - r for w, r in table)
        return cls(table=table, domain=(lo, math.inf))

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], domain: tuple[float, float] = (-math.inf, math.inf)
    ) -> "ResolventProfile":
        return cls(fn=fn, domain=domain)

    def rate(self, omega: float) -> float:
        """A sound rate at omega: exact for models, conservative between table nodes.

        Between tabulated nodes the value is the lower envelope
        max(r_i - (w_i - omega), r at the nearest node below), which the
        tabulated inequalities guarantee to underestimate the true rate.
        """
        lo, hi = self.domain
        if not lo < omega < hi:
            raise ValueError(f"omega = {omega!r} outside profile domain ]{lo:g}, {hi:g}[")
        if self.fn is not None:
            return self.fn(omega)
        best = -math.inf
        for w, r in self.table:
            if w >= omega:
                best = max(best, r - (w - omega))
            else:
                best = max(best, r)
        if best <= 0.0:
            raise ValueError(f"no positive rate available at omega = {omega!r}")
        return best

    def pair(self, omega: float) -> OmegaRPair:
        return OmegaRPair(omega, self.rate(omega))


@dataclass(frozen=True)
class OmegaSet:
    """A finite set of abscissas, kept sorted and distinct."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("abscissa set must be non-empty")
        for a, b in zip(self.values, self.values[1:]):
            if b <= a:
                raise ValueError("abscissas must be sorted and distinct")

    @classmethod
    def of(cls, omegas: Sequence[float]) -> "OmegaSet":
        return cls(tuple(sorted(set(map(float, omegas)))))

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IterationStep:
    index: int
    bound: PiecewiseLogAffineBound
    grid: GridBound | None
    argmin_omegas: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "bound": self.bound.to_json_dict(),
            "grid": None if self.grid is None else {"h": self.grid.h, "values": list(self.grid.values)},
            "argmin_omegas": list(self.argmin_omegas),
        }


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]
    stationary_at: int | None

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "stationary_at": self.stationary_at,
        }

    @property
    def final(self) -> PiecewiseLogAffineBound:
        return self.steps[-1].bound


def argmin_abscissas(
    m: PiecewiseLogAffineBound,
    omegas: OmegaSet,
    profile: ResolventProfile,
) -> tuple[float, ...]:
    """The abscissas whose crossing time attains the minimum over the set, to within 1e-9."""
    crossings = {w: first_crossing_time(m, profile.pair(w)) for w in omegas}
    best = min(crossings.values())
    if math.isinf(best):
        return tuple(omegas)
    return tuple(w for w in omegas if crossings[w] <= best + _ARGMIN_TOL)


def min_update(
    m: PiecewiseLogAffineBound, omegas: OmegaSet, profile: ResolventProfile
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of the Riccati updates over all abscissas in the set."""
    out = None
    for w in omegas:
        u = update_bound(m, profile.pair(w))
        out = u if out is None else pointwise_min(out, u)
    assert out is not None
    return out


def update_chain(
    m: PiecewiseLogAffineBound, omegas: Sequence[float], profile: ResolventProfile
) -> PiecewiseLogAffineBound:
    """Apply single-abscissa updates successively, in the order given.

    The order matters: each update sees the bound produced by the previous
    one.  This is the one-pass counterpart of the set-based iteration.
    """
    for w in omegas:
        m = update_bound(m, profile.pair(w))
    return m


def iterate(
    m: PiecewiseLogAffineBound,
    omegas: OmegaSet | Sequence[float],
    profile: ResolventProfile,
    max_steps: int,
    grid: tuple[float, int],
) -> IterationTrace:
    """Iterate (envelope o best-update) from a normalized bound.

    Each step applies :func:`min_update` exactly on the piecewise form, then
    the grid subadditive envelope.  If the envelope leaves the sampled values
    unchanged (log-concave case) the exact piecewise form is carried to the
    next step; otherwise the iteration continues from the interpolant of the
    envelope grid.  Stops early once two successive grid snapshots agree to
    1e-10 in sup norm, recording the earlier index in ``stationary_at``.
    """
    if not m.is_normalized:
        raise ValueError("iteration requires a normalized bound")
    if max_steps < 1:
        raise ValueError("need at least one step")
    omegas = omegas if isinstance(omegas, OmegaSet) else OmegaSet.of(omegas)
    h, n_steps = grid
    cur = m
    cur_grid = GridBound.sample(m, h, n_steps)
    steps = [IterationStep(0, m, cur_grid, argmin_abscissas(m, omegas, profile))]
    stationary_at = None
    for k in range(1, max_steps + 1):
        updated = min_update(cur, omegas, profile)
        sampled = GridBound.sample(updated, h, n_steps)
        enveloped = subadditive_envelope(sampled)
        drift = float(np.max(np.abs(np.subtract(enveloped.values, sampled.values))))
        cur = updated if drift <= _STATIONARY_TOL else piecewise_interpolant(enveloped)
        steps.append(IterationStep(k, cur, enveloped, argmin_abscissas(cur, omegas, profile)))
        gap = float(np.max(np.abs(np.subtract(enveloped.values, cur_grid.values))))
        cur_grid = enveloped
        if gap <= _STATIONARY_TOL:
            stationary_at = k - 1
            break
    return IterationTrace(tuple(steps), stationary_at)


def iterate_updates_only(
    m: PiecewiseLogAffineBound,
    omegas: OmegaSet | Sequence[float],
    profile: ResolventProfile,
    max_steps: int,
) -> IterationTrace:
    """Iterate the best update alone, entirely in the exact piecewise form.

    Requires a log-concave start: concavity makes the bound subadditive, so
    the envelope step would be a no-op anyway, and every iterate stays
    log-concave because the update preserves concavity and minima of concave
    functions are concave.
    """
    if not log_concavity(m).is_concave:
        raise ValueError("updates-only iteration requires a log-concave bound")
    if max_steps < 1:
        raise ValueError("need at least one step")
    omegas = omegas if isinstance(omegas, OmegaSet) else OmegaSet.of(omegas)
    steps = [IterationStep(0, m, None, argmin_abscissas(m, omegas, profile))]
    stationary_at = None
    cur = m
    for k in range(1, max_steps + 1):
        new = min_update(cur, omegas, profile)
        steps.append(IterationStep(k, new, None, argmin_abscissas(new, omegas, profile)))
        if allclose(new, cur, _STATIONARY_TOL):
            stationary_at = k - 1
            break
        cur = new
    return IterationTrace(tuple(steps), stationary_at)
