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
single-abscissa updates of m, given the tail of each, which the caller builds
once per pair from m's crossing time (shared with :func:`argmin_abscissas`).
Each update keeps m up to its splice point and then takes the minimum with
its tail line, so the minimum over the set is that of m and the tails' lower
envelope, each tail counted from its own splice point on: the envelope is
taken first, and one walk then goes over m and the envelope together.  The
envelope holds few of a large set's tails.

The iteration :func:`iterate` alternates the best update over the whole
abscissa set with its subadditive closure on [0, T], T the grid's horizon
(:func:`~sgbounds.envelope._closure`); a log-concave update with f(0) = 0 is
already subadditive and is its own closure.  With ``envelope=False`` every
iterate is a :func:`min_update` of the one before.  A step's grid samples its
bound.  The rates of the set come from one ``pairs`` call, and the crossing
times of each iterate are shared by its argmin report and the next update.  A
crossing before :func:`_agreed_until` of a bound and the one it came from is
kept, since the walk reads only the pieces up to the one where it lands.  When
the bound is the update itself and every tail of the next step equals the one
merged for its pair, the next update is that bound, as min(min(m, T), T) =
min(m, T) in exact arithmetic; a merge would give it again only up to
rounding, so the step is repeated without one.  An update equal to the
previous one repeats its step, objects and all.
Order-sensitive single passes are available as :func:`update_chain`, whose
rates come from one ``pairs`` call too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bounds import PiecewiseLogAffineBound, min_with_tails
from .envelope import GridBound, _closure
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
            if not b > a:  # false for a NaN too
                raise ValueError(f"abscissas must be sorted and distinct numbers, got {a!r} before {b!r}")
        if math.isnan(self.values[0]):  # a one-element set has no pair to compare
            raise ValueError("abscissa nan is not a number")

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


def _agreed_until(m1: PiecewiseLogAffineBound, m2: PiecewiseLogAffineBound) -> float:
    """The time up to which m1 and m2 hold the same pieces: at the first index
    where their (breakpoint, slope, intercept) differ, the smaller of the two
    breakpoints there, +inf for a bound with no piece there (0 when the first
    piece differs); +inf when the bounds are equal."""
    pieces1 = zip(m1.breakpoints, m1.slopes, m1.intercepts)
    pieces2 = zip(m2.breakpoints, m2.slopes, m2.intercepts)
    for j, (p1, p2) in enumerate(zip(pieces1, pieces2)):
        if p1 != p2:
            return min(m1.breakpoints[j], m2.breakpoints[j])
    j = min(len(m1.breakpoints), len(m2.breakpoints))
    return min(bps[j] if j < len(bps) else math.inf for bps in (m1.breakpoints, m2.breakpoints))


def argmin_abscissas(pairs: Sequence[OmegaRPair], crossings: Sequence[float]) -> tuple[float, ...]:
    """The abscissas of the pairs whose crossing time, ``crossings[i]`` for
    ``pairs[i]``, is within 1e-9 of the earliest; all of them when none crosses."""
    best = min(crossings)
    if math.isinf(best):
        return tuple(pair.omega for pair in pairs)
    return tuple(pair.omega for pair, c in zip(pairs, crossings) if c <= best + _ARGMIN_TOL)


def min_update(
    m: PiecewiseLogAffineBound, tails: Sequence[tuple[float, float, float] | None]
) -> PiecewiseLogAffineBound:
    """Pointwise minimum of the Riccati updates of m whose tails are given: the
    tails' lower envelope, then one walk with m (:func:`~sgbounds.bounds.min_with_tails`).

    Each tail is ``update_tail(m, pair, first_crossing_time(m, pair))`` for a
    pair, built once by the caller; a None tail leaves m unchanged.  With one
    pair this is :func:`~sgbounds.riccati.update_bound`.
    """
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
    """Iterate (closure o best-update) from a normalized bound.

    Each step applies :func:`min_update` exactly on the piecewise form and
    continues from its subadditive closure on [0, h * n_steps], or from the
    update itself with ``envelope=False``; the step's grid samples that bound.
    Stops early once two successive grids agree to 1e-10 in sup norm,
    recording the earlier index in ``stationary_at``.  An update ``==`` to the
    previous one repeats its step (the same objects) and stops, and so does
    one whose tails are all ``==`` to those merged into the bound before.
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
    crossings = [first_crossing_time(m, pair) for pair in pairs]
    held = None  # the tails merged into cur, while cur is the update itself
    steps = [IterationStep(0, m, cur_grid, argmin_abscissas(pairs, crossings))]
    stationary_at = last_updated = None
    for k in range(1, max_steps + 1):
        tails = [update_tail(cur, pair, c) for pair, c in zip(pairs, crossings)]
        updated = cur if tails == held else min_update(cur, tails)  # min(min(m, T), T) = min(m, T)
        if updated == last_updated:
            steps.append(IterationStep(k, cur, cur_grid, steps[-1].argmin_omegas))
            stationary_at = k - 1
            break
        last_updated = updated
        closed = _closure(updated, h * n_steps) if envelope else updated
        agreed = _agreed_until(cur, closed)
        crossings = [c if c < agreed else first_crossing_time(closed, pair) for pair, c in zip(pairs, crossings)]
        cur, held = closed, tails if closed is updated else None
        prev_grid, cur_grid = cur_grid, GridBound.sample(cur, h, n_steps)
        steps.append(IterationStep(k, cur, cur_grid, argmin_abscissas(pairs, crossings)))
        if np.max(np.abs(np.subtract(cur_grid.values, prev_grid.values))) <= _STATIONARY_TOL:
            stationary_at = k - 1
            break
    return IterationTrace(tuple(steps), stationary_at)
