"""Iterated sharpening over a finite set of abscissas with a validated profile.

A :class:`ResolventProfile` supplies, for each abscissa omega, a rate r that
is safe to use in the Riccati update (any r below the true resolvent rate is
sound).  A profile is either ``ResolventProfile.tabulated(pairs)`` or
``ResolventProfile(fn=rate, domain=(lo, hi))`` around a model's rate function
such as ``models.diffop_rate``, which is elementwise on an array of abscissas.
Tabulated profiles are validated against monotonicity and the 1-Lipschitz
consistency r(w') >= r(w) - (w - w'), and are interpolated by the conservative
lower envelope these inequalities imply.  :meth:`ResolventProfile.pairs` gives
the pairs of a whole abscissa set from one domain check and one ``fn`` call or
one table lookup; :meth:`ResolventProfile.rate` is the rate of a one-element
set, so one abscissa never gets two rates.

The set update :func:`min_update` takes the pointwise minimum of the
single-abscissa updates of m, given the pairs (omega, r) and m's crossing time
for each, which :func:`argmin_abscissas` shares.  Each update keeps m up to its
splice point and then takes the minimum with its tail line, so the minimum
over the set is one sweep over m and all the tails, each counted from its own
splice point on.  The sweep scans only the tails' lower envelope from the
current point on, which holds few of a large set's tails.

The iteration :func:`iterate` alternates the best update over the whole
abscissa set with the grid subadditive envelope.  The envelope runs only where
it can act: a log-concave iterate f = log m with f(0) >= 0 is already
subadditive, since concavity gives f(a) + f(b) >= f(a + b) + f(0) >= f(a + b),
so its sampled grid is kept as the envelope grid and the exact piecewise form
is carried on (the dynamic program could only lower grid values by rounding,
so skipping it errs toward the larger bound).  A normalized iterate with f(0)
in [-CONTINUITY_TOL, 0) keeps the envelope.  Otherwise the exact form is kept
when the envelope moves no grid value by more than 1e-10, and the iteration
continues from the piecewise interpolant of the grid when it does.  With
``envelope=False`` the envelope never runs: every iterate is a
:func:`min_update` of the one before, in exact form, and its sampled grid is
the step's grid.  The rates of the set come from one ``pairs`` call, and the
crossing times of each iterate are computed once, shared by its argmin report
and the next update.  A step is a function of its update alone, so an update
equal to the previous one repeats its step, objects and all, as stationary.
Order-sensitive single passes are available as :func:`update_chain`, whose
rates come from one ``pairs`` call too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bounds import PiecewiseLogAffineBound, log_concavity, min_with_tails
from .envelope import GridBound, piecewise_interpolant, subadditive_envelope
from .riccati import OmegaRPair, first_crossing_time, update_bound, update_tail

__all__ = [
    "IterationStep",
    "IterationTrace",
    "OmegaSet",
    "ResolventProfile",
    "argmin_abscissas",
    "iterate",
    "min_update",
    "update_chain",
]

_STATIONARY_TOL = 1e-10
_ARGMIN_TOL = 1e-9
_LIPSCHITZ_TOL = 1e-12


@dataclass(frozen=True)
class ResolventProfile:
    """A map omega -> r(omega), either tabulated or backed by a model callable.

    ``fn`` is elementwise: it maps a float to a float and a 1-D array of
    abscissas to the array of their rates, as the rate functions of
    :mod:`~sgbounds.models` do.
    """

    table: tuple[tuple[float, float], ...] = ()
    fn: Callable | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)

    @classmethod
    def tabulated(cls, pairs: Sequence[tuple[float, float]]) -> "ResolventProfile":
        table = tuple(sorted((float(w), float(r)) for w, r in pairs))
        if not table:
            raise ValueError("tabulated profile needs at least one pair")
        for w, r in table:
            if not (math.isfinite(w) and math.isfinite(r)):
                raise ValueError(f"tabulated pair ({w!r}, {r!r}) must be finite")
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

    def pairs(self, omegas: Iterable[float]) -> list[OmegaRPair]:
        """The pairs (omega, r(omega)) in the order given: one domain check, then
        one ``fn`` call on the array of abscissas, or one table lookup.

        For a table each rate is the lower envelope max(r_i for w_i < omega,
        r_i - (w_i - omega) for w_i >= omega), which the tabulated inequalities
        keep below the true rate.  As the r_i are non-decreasing and the
        r_i - w_i non-increasing, the last node below omega and the first at or
        above it attain the max; on a table admitted only within
        ``_LIPSCHITZ_TOL`` these two may fall up to about 1e-12 below it, which
        only enlarges the bound.  Rates come back as floats.
        """
        ws = np.fromiter(omegas, dtype=float)
        lo, hi = self.domain
        outside = ~((lo < ws) & (ws < hi))
        if outside.any():
            raise ValueError(f"omega = {float(ws[outside][0])!r} outside profile domain ]{lo:g}, {hi:g}[")
        if self.fn is not None:
            rates = np.asarray(self.fn(ws), dtype=float)
        else:
            nodes, node_rates = np.array(self.table).T
            i = np.searchsorted(nodes, ws)
            j = np.minimum(i, len(nodes) - 1)
            below = np.where(i > 0, node_rates[i - 1], -math.inf)
            rates = np.maximum(below, np.where(i < len(nodes), node_rates[j] - (nodes[j] - ws), -math.inf))
            if (rates <= 0.0).any():
                raise ValueError(f"no positive rate available at omega = {float(ws[rates <= 0.0][0])!r}")
        return list(map(OmegaRPair, ws.tolist(), rates.tolist()))

    def rate(self, omega: float) -> float:
        """A sound rate at omega, the rate of :meth:`pairs` on ``[omega]``; a set's
        rates should come from one :meth:`pairs` call."""
        return self.pairs([omega])[0].rate


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
    grid: GridBound
    argmin_omegas: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "bound": self.bound.to_json_dict(),
            "grid": self.grid.to_json_dict(),
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


def _crossings(m: PiecewiseLogAffineBound, pairs: Sequence[OmegaRPair]) -> list[float]:
    return [first_crossing_time(m, pair) for pair in pairs]


def argmin_abscissas(pairs: Sequence[OmegaRPair], crossings: Sequence[float]) -> tuple[float, ...]:
    """The abscissas of the pairs whose crossing time, ``crossings[i]`` for
    ``pairs[i]``, is within 1e-9 of the earliest; all of them when none crosses."""
    best = min(crossings)
    if math.isinf(best):
        return tuple(pair.omega for pair in pairs)
    return tuple(pair.omega for pair, c in zip(pairs, crossings) if c <= best + _ARGMIN_TOL)


def min_update(
    m: PiecewiseLogAffineBound, pairs: Sequence[OmegaRPair], crossings: Sequence[float]
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of the Riccati updates of m over the pairs: one sweep
    over m and the tails (:func:`~sgbounds.bounds.min_with_tails`).

    Requires ``crossings[i] == first_crossing_time(m, pairs[i])``.  With one
    pair this is :func:`~sgbounds.riccati.update_bound`.
    """
    tails = [update_tail(m, pair, c) for pair, c in zip(pairs, crossings)]
    return min_with_tails(m, [tail for tail in tails if tail is not None])


def update_chain(
    m: PiecewiseLogAffineBound, omegas: Sequence[float], profile: ResolventProfile
) -> PiecewiseLogAffineBound:
    """Apply single-abscissa updates successively, in the order given.

    The order matters: each update sees the bound produced by the previous
    one.  This is the one-pass counterpart of the set-based iteration.
    """
    for pair in profile.pairs(omegas):
        m = update_bound(m, pair)
    return m


def iterate(
    m: PiecewiseLogAffineBound,
    omegas: OmegaSet | Sequence[float],
    profile: ResolventProfile,
    max_steps: int,
    grid: tuple[float, int],
    envelope: bool = True,
) -> IterationTrace:
    """Iterate (envelope o best-update) from a normalized bound.

    Each step applies :func:`min_update` exactly on the piecewise form and
    samples it on the grid.  A log-concave update with log m(0) >= 0 is
    subadditive, so its samples are the step's grid and the exact form is
    carried to the next step without running the envelope; with
    ``envelope=False`` every update is treated so, from any normalized start.
    Any other update goes through the grid subadditive envelope: if that
    moves no grid value by more than 1e-10 the exact form is carried on,
    otherwise the iteration continues from the interpolant of the envelope
    grid.  Stops early once two successive grid snapshots agree to 1e-10 in
    sup norm, recording the earlier index in ``stationary_at``.  An update
    ``==`` to the previous one repeats its step (the same objects) and stops.
    """
    if not m.is_normalized:
        raise ValueError("iteration requires a normalized bound")
    if max_steps < 1:
        raise ValueError("need at least one step")
    omegas = omegas if isinstance(omegas, OmegaSet) else OmegaSet.of(omegas)
    pairs = profile.pairs(omegas)
    h, n_steps = grid
    cur = m
    cur_grid = GridBound.sample(m, h, n_steps)
    crossings = _crossings(m, pairs)
    steps = [IterationStep(0, m, cur_grid, argmin_abscissas(pairs, crossings))]
    stationary_at = last_updated = None
    for k in range(1, max_steps + 1):
        updated = min_update(cur, pairs, crossings)
        if updated == last_updated:
            steps.append(IterationStep(k, cur, cur_grid, steps[-1].argmin_omegas))
            stationary_at = k - 1
            break
        last_updated = updated
        sampled = GridBound.sample(updated, h, n_steps)
        if not envelope or (log_concavity(updated).is_concave and updated.intercepts[0] >= 0.0):
            cur, enveloped = updated, sampled
        else:
            enveloped = subadditive_envelope(sampled)
            drift = float(np.max(np.abs(np.subtract(enveloped.values, sampled.values))))
            cur = updated if drift <= _STATIONARY_TOL else piecewise_interpolant(enveloped)
        crossings = _crossings(cur, pairs)
        steps.append(IterationStep(k, cur, enveloped, argmin_abscissas(pairs, crossings)))
        gap = float(np.max(np.abs(np.subtract(enveloped.values, cur_grid.values))))
        cur_grid = enveloped
        if gap <= _STATIONARY_TOL:
            stationary_at = k - 1
            break
    return IterationTrace(tuple(steps), stationary_at)
