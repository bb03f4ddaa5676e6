"""Command-line front end: run updates and iterations, emit CSV/JSON curves.

Subcommands
    wei      the classical sharpening of the trivial bound at omega = 0
    update   single and chained updates driven by a JSON config
    iterate  the full envelope/update iteration, exported as a trace
    figure   data behind the standard plots (omegar, jordan3, diffop_r)
    profile  a resolvent-rate sweep for a model

CSV output uses the columns t,value,label with floats at 17 significant
digits, so files diff cleanly and round-trip losslessly.  Exit codes:
0 success, 2 configuration error (an --out path that cannot be written is
one), 3 numeric failure (on the shift model, "diffop", an emitted bound below
the exact norm is one).
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import models
from .bounds import PiecewiseLogAffineBound
from .envelope import _closure, _log_values
from .iteration import IterationTrace, OmegaSet, ResolventProfile, iterate, min_update, update_chain
from .models import ConvergenceError, JordanBlockModel
from .riccati import OmegaRPair, _gp_log_bounds, first_crossing_time, update_bound, update_tail

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


# -- row assembly -------------------------------------------------------------


def _rows_csv(rows: list[tuple[float, float, str]]) -> str:
    """The header, then one ``t,value,label`` line per row, all formatted in one ``%`` call."""
    return "t,value,label\n" + ("%.17g,%.17g,%s\n" * len(rows)) % tuple(itertools.chain.from_iterable(rows))


def _rows_json(rows: list[tuple[float, float, str]]) -> str:
    return json.dumps([{"t": t, "value": v, "label": label} for t, v, label in rows]) + "\n"


def _write(text: str, out: str | None, suffix: str = "") -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out + suffix).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out + suffix}: {exc}") from exc


def _emit_rows(rows: list[tuple[float, float, str]], args) -> None:
    fmt = args.format or "csv"
    _write(_rows_csv(rows) if fmt == "csv" else _rows_json(rows), args.out)


def _emit_report(
    report_json: Callable[[], str],
    labelled: list[tuple[PiecewiseLogAffineBound, str]],
    grid: tuple[float, int],
    args,
) -> None:
    """The JSON report (``report_json()``, its one-line text) or the CSV rows to
    stdout (JSON unless --format csv); with --out, the .json and .csv files, or
    only the one --format names.  The rows (each bound's log value at t = k h,
    k = 0..n) are built only for a CSV, from one :func:`_log_values` call per
    bound.  Every text is built before the first file is written, so a failure
    while building leaves no file behind."""
    fmt = args.format

    def csv() -> str:
        ts = _grid_times(*grid)
        t_list = ts.tolist()
        return _rows_csv([(t, v, label) for b, label in labelled for t, v in zip(t_list, _log_values(b, ts).tolist())])

    if args.out is None:
        _write(csv() if fmt == "csv" else report_json() + "\n", None)
        return
    texts = {}
    if fmt in (None, "json"):
        texts[".json"] = report_json() + "\n"
    if fmt in (None, "csv"):
        texts[".csv"] = csv()
    for suffix, text in texts.items():
        _write(text, args.out, suffix)


def _step_count(span: float, step: float) -> int:
    """round(span / step); a ratio not finite or too large for np.arange is a ConfigError."""
    ratio = span / step
    if not (math.isfinite(ratio) and ratio < np.iinfo(np.intp).max):
        raise ConfigError(f"{span!r} / {step!r} steps is not a count an array can hold")
    return int(round(ratio))


def _grid_times(step: float, n: int) -> np.ndarray:
    """k * step for k = 0..n; numpy refuses a count too large to allocate at once."""
    return np.arange(n + 1) * step


def _time_grid(t_max: float, step: float) -> np.ndarray:
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step must be positive and finite, got {step!r}")
    if t_max < 0.0:
        raise ConfigError(f"sweep span must not be negative, got {t_max!r}")
    return _grid_times(step, _step_count(t_max, step))


def _linspace(a: float, b: float, count: int) -> list[float]:
    ks = np.arange(count)  # empty, not an error, for counts near 2^63
    if len(ks) != count:
        raise ConfigError(f"count {count!r} is not a count an array can hold")
    with np.errstate(over="ignore", invalid="ignore"):
        xs = a + (b - a) * ks / (count - 1) if count > 1 else np.array([a])
    if not np.isfinite(xs).all():
        raise ConfigError(f"omega grid from {a!r} to {b!r} with count {count} leaves the float range")
    return xs.tolist()


# -- config parsing -----------------------------------------------------------


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _required(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing key {key!r} in {where}")
    return data[key]


def _parse(convert, value, where: str):
    """convert(value), with a value of the wrong type, form or size reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {where} {value!r}: {exc}") from exc


def _integer(value, where: str) -> int:
    """An integral JSON number (3 or 3.0); a bool, a string or a fraction is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _flag(spec: dict, key: str, default: bool, where: str) -> bool:
    """spec[key] (default when absent), which must be a JSON boolean."""
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _floats(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list")
    return [_parse(float, x, where) for x in values]


def _load_config(path: str) -> tuple:
    """(config, model spec, profile, grid, initial bound, abscissas) of the config
    at path, built and checked in this order."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require_keys(config, {"model", "initial_bound", "omega_set", "grid", "iteration", "update", "gp"}, "config")
    model = config.get("model", "diffop")
    profile, grid = _build_profile(model), _build_grid(config.get("grid", {"h": 0.1, "T": 20.0}))
    m0, omegas = _build_bound(config.get("initial_bound")), _build_omegas(config.get("omega_set", []))
    return config, model, profile, grid, m0, omegas


def _build_profile(spec) -> ResolventProfile:
    if spec == "diffop":
        return ResolventProfile(fn=models.diffop_rate)
    if isinstance(spec, dict):
        _require_keys(spec, {"jordan", "tabulated"}, "model")
        if "jordan" in spec:
            block = spec["jordan"]
            _require_keys(block, {"n"}, "model.jordan")
            n = _integer(_required(block, "n", "model.jordan"), "model.jordan.n")
            return ResolventProfile(fn=functools.partial(models.jordan_resolvent_rate, JordanBlockModel(n)))
        block = _required(spec, "tabulated", "model")
        _require_keys(block, {"pairs", "path"}, "model.tabulated")
        if "path" in block:
            try:
                pairs = json.loads(Path(block["path"]).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read model.tabulated.path: {exc}") from exc
        else:
            pairs = _required(block, "pairs", "model.tabulated")
        table = _parse(lambda ps: [(float(w), float(r)) for w, r in ps], pairs, "model.tabulated.pairs")
        return ResolventProfile.tabulated(table)
    raise ConfigError(f"unsupported model spec {spec!r}")


def _build_bound(spec) -> PiecewiseLogAffineBound:
    if spec in (None, "one"):
        return PiecewiseLogAffineBound.constant()
    if isinstance(spec, dict):
        if set(spec) == {"exp"}:
            return PiecewiseLogAffineBound.exponential(_parse(float, spec["exp"], "initial_bound.exp"))
        try:
            return PiecewiseLogAffineBound.from_json_dict(spec)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad initial_bound: {exc}") from exc
    raise ConfigError(f"unsupported initial_bound {spec!r}")


def _build_omegas(spec) -> list[float]:
    if isinstance(spec, list):
        if not spec:
            raise ConfigError("omega_set must be non-empty")
        return _floats(spec, "omega_set")
    if isinstance(spec, dict):
        _require_keys(spec, {"from", "to", "count", "log_spaced"}, "omega_set")
        count = _integer(_required(spec, "count", "omega_set"), "omega_set.count")
        if count < 1:
            raise ConfigError("omega_set.count must be positive")
        a, b = (_parse(float, _required(spec, k, "omega_set"), f"omega_set.{k}") for k in ("from", "to"))
        xs = _linspace(a, b, count)
        if _flag(spec, "log_spaced", False, "omega_set"):
            try:
                xs = [math.exp(x) for x in xs]
            except OverflowError as exc:
                raise ConfigError(f"log_spaced omega_set up to exp({b!r}) overflows") from exc
        return xs
    raise ConfigError(f"unsupported omega_set {spec!r}")


def _build_grid(spec) -> tuple[float, int]:
    _require_keys(spec, {"h", "T"}, "grid")
    h = _parse(float, _required(spec, "h", "grid"), "grid.h")
    t_max = _parse(float, _required(spec, "T", "grid"), "grid.T")
    if h <= 0.0 or t_max < h:
        raise ConfigError("grid needs h > 0 and T >= h")
    return h, _step_count(t_max, h)


# -- validity of emitted bounds -------------------------------------------------

_MARGIN_TOL = 1e-12


def _shift_margin(m: PiecewiseLogAffineBound) -> tuple[float, float]:
    """(margin, t): the smallest log m(t) - log||S(t)|| on the shift and a time
    where it is reached.  ||S(t)|| = 1 on [0, 1) and 0 after, and log m is affine
    on each piece, so the smallest value lies at a breakpoint before t = 1 or at
    the left limit at t = 1."""
    bps, slopes, intercepts = m.breakpoints, m.slopes, m.intercepts
    k = bisect.bisect_left(bps, 1.0)
    return min(
        *((slopes[j] * bps[j] + intercepts[j], bps[j]) for j in range(k)),
        (slopes[k - 1] + intercepts[k - 1], 1.0),
    )


def _check_shift_bounds(named: Iterable[tuple[str, PiecewiseLogAffineBound]]) -> None:
    """Raise ArithmeticError (a numeric failure) at the first named bound whose
    log lies more than 1e-12 below the shift's exact norm somewhere."""
    for name, m in named:
        margin, t = _shift_margin(m)
        if margin < -_MARGIN_TOL:
            raise ArithmeticError(f"{name}: log m = {margin:.3g} is below log||S(t)|| = 0 at t = {t:g}")


# -- subcommands ---------------------------------------------------------------


def _dumped_once(dump: Callable[[object], str]) -> Callable[[object], str]:
    """``dump(obj)`` of a bound or grid, made once per object (by id: the caller
    keeps every object it passes alive)."""
    texts: dict[int, str] = {}

    def once(obj) -> str:
        if id(obj) not in texts:
            texts[id(obj)] = dump(obj)
        return texts[id(obj)]

    return once


class _FloatTexts(dict):
    """``json.dumps(x)`` of each float x, made once.  Zero is never stored, since
    0.0 and -0.0 are one key with two texts."""

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x) if math.isfinite(x) else json.dumps(x)
        if x:
            self[x] = text
        return text


def _update_report_json(updates: dict, combined: PiecewiseLogAffineBound, gp: dict | None) -> str:
    """The text of ``json.dumps(report)`` for the update report: the rows of
    ``updates["singles"]`` and ``updates["chain"]`` as (omega, pair, crossing,
    bound), the bound ``combined`` under "min_update" when there are rows, and
    ``gp``.  Every float of the rows and bounds is formatted once per value
    (zeros each time, to keep the sign of -0.0), and rows that hold the same
    bound object share its text: m0 in the singles, the previous bound in the
    chain.  Items are joined with ", " and ": " as json.dumps joins them."""
    floats = _FloatTexts()

    def bound_json(b: PiecewiseLogAffineBound) -> str:
        lists = [", ".join(map(floats.__getitem__, xs)) for xs in (b.breakpoints, b.slopes, b.intercepts)]
        return '{"breakpoints": [%s], "slopes": [%s], "intercepts": [%s]}' % tuple(lists)

    dump = _dumped_once(bound_json)

    def row_json(w: float, pair: OmegaRPair, crossing: float, bound: PiecewiseLogAffineBound) -> str:
        head = f'"omega": {floats[w]}, "rate": {floats[pair.rate]}, "first_crossing": {floats[crossing]}'
        return f'{{{head}, "bound": {dump(bound)}}}'

    fields = {key: "[" + ", ".join(row_json(*row) for row in rows) + "]" for key, rows in updates.items()}
    if updates:
        fields["min_update"] = dump(combined)
    if gp is not None:
        fields["gp"] = json.dumps(gp)
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


def _iterate_report_json(trace: IterationTrace) -> str:
    """The text of ``json.dumps(trace.to_json_dict())``, each bound and grid object dumped once."""
    dump = _dumped_once(lambda obj: json.dumps(obj.to_json_dict()))
    steps = ", ".join(
        f'{{"index": {step.index}, "bound": {dump(step.bound)}, "grid": {dump(step.grid)}, '
        f'"argmin_omegas": {json.dumps(list(step.argmin_omegas))}}}'
        for step in trace.steps
    )
    return f'{{"steps": [{steps}], "stationary_at": {json.dumps(trace.stationary_at)}}}'


def _cmd_wei(args) -> int:
    pair = OmegaRPair(0.0, args.rate)
    bound = update_bound(PiecewiseLogAffineBound.constant(), pair)
    t_max = args.t_max if args.t_max is not None else 4.0 * math.pi / args.rate
    ts = _time_grid(t_max, args.step)
    rows = [(t, v, "wei") for t, v in zip(ts.tolist(), _log_values(bound, ts).tolist())]
    _emit_rows(rows, args)
    return 0


def _cmd_update(args) -> int:
    config, model, profile, grid, m0, omegas = _load_config(args.config)
    update_spec = config.get("update", {})
    _require_keys(update_spec, {"order"}, "update")
    order = _floats(update_spec.get("order", sorted(omegas)), "update.order")

    updates = {}
    cur = combined = m0
    if m0.is_normalized:
        cur = m0 = _closure(m0, grid[0] * grid[1])  # closed on [0, T]: no tail starting there is below m0
        # one rate per distinct abscissa, one crossing walk per bound and abscissa;
        # rows keep their bound objects, so the report dumps each one once
        distinct = OmegaSet.of(omegas)
        keys = list(dict.fromkeys([*distinct, *order]))
        pairs = dict(zip(keys, profile.pairs(keys)))
        set_pairs = [pairs[w] for w in distinct]
        crossings = [first_crossing_time(m0, pair) for pair in set_pairs]
        tails = [update_tail(m0, pair, c) for pair, c in zip(set_pairs, crossings)]
        singles = [
            (w, pair, c, min_update(m0, [tail]))
            for w, pair, c, tail in zip(distinct, set_pairs, crossings, tails)
        ]
        chain = []
        for w in order:
            crossing = first_crossing_time(cur, pairs[w])
            cur = min_update(cur, [update_tail(cur, pairs[w], crossing)])
            chain.append((w, pairs[w], crossing, cur))
        combined = min_update(m0, tails)
        updates = {"singles": singles, "chain": chain}
    elif config.get("gp") is None:
        raise ConfigError("updates need a normalized initial_bound (log value 0 at t = 0)")

    gp = None
    gp_spec = config.get("gp")
    if gp_spec is not None:
        _require_keys(gp_spec, {"omega", "times", "split"}, "gp")
        w = _parse(float, _required(gp_spec, "omega", "gp"), "gp.omega")
        pair = profile.pairs([w])[0]
        split = _parse(float, gp_spec.get("split", 0.5), "gp.split")
        if not 0.0 < split < 1.0:
            raise ConfigError(f"gp.split must lie in ]0, 1[, got {split!r}")
        times = _floats(_required(gp_spec, "times", "gp"), "gp.times")
        if not all(map(math.isfinite, times)):
            raise ConfigError(f"gp.times must be finite, got {times!r}")
        windows = [(split * t, t - split * t, t) for t in times]
        # a + b can round one ulp above t; a shorter window b only enlarges the bound
        windows = [(a, b if a + b <= t else math.nextafter(b, 0.0), t) for a, b, t in windows]
        rows = [{"t": t, "log_bound": v} for t, v in zip(times, _gp_log_bounds(m0, pair, windows))]
        gp = {"omega": w, "rate": pair.rate, "rows": rows}

    labelled = [(combined, "min_update"), (cur, "chain")]
    if model == "diffop":
        for key, rows in updates.items():
            _check_shift_bounds((f"{key} row {i} (omega = {w!r})", b) for i, (w, _, _, b) in enumerate(rows))
        _check_shift_bounds((label, b) for b, label in labelled)
    _emit_report(lambda: _update_report_json(updates, combined, gp), labelled, grid, args)
    return 0


def _cmd_iterate(args) -> int:
    config, model, profile, grid, m0, omegas = _load_config(args.config)
    iter_spec = config.get("iteration", {})
    _require_keys(iter_spec, {"max_steps", "use_semigroupize"}, "iteration")
    max_steps = _integer(iter_spec.get("max_steps", 8), "iteration.max_steps")
    use_envelope = _flag(iter_spec, "use_semigroupize", True, "iteration")

    trace = iterate(m0, omegas, profile, max_steps, grid, envelope=use_envelope)
    labelled = [(step.bound, f"step{step.index}") for step in trace.steps]
    if model == "diffop":
        _check_shift_bounds((f"step {step.index}", step.bound) for step in trace.steps)
    _emit_report(lambda: _iterate_report_json(trace), labelled, grid, args)
    return 0


def _omega_grid(args) -> list[float]:
    return [w + args.omega_min for w in _time_grid(args.omega_max - args.omega_min, args.omega_step).tolist()]


def _figure_omegar(args) -> list[tuple[float, float, str]]:
    omegas = _omega_grid(args)
    matched = [
        (models.rate_for_crossing_time(math.pi / k, np.array(omegas)).tolist(), f"matched_rate_pi_{k}")
        for k in (4, 2, 8)
    ]
    rows = []
    for i, w in enumerate(omegas):
        rows += [(w, w, "r_eq_omega"), (w, w + 1.0, "r_eq_omega_plus_1")]
        rows += [(w, rates[i], label) for rates, label in matched]
    lower, upper = models.improvement_region_thresholds()
    rows += [(lower, lower + 1.0, "threshold_lower"), (upper, upper + 1.0, "threshold_upper")]
    return rows


def jordan_figure_bounds() -> tuple[
    PiecewiseLogAffineBound, PiecewiseLogAffineBound, PiecewiseLogAffineBound
]:
    """The three upper bounds of the size-3 Jordan block comparison.

    Returns (numerical-range bound, 3-abscissa stage, 101-abscissa stage).
    The stages are cumulative: three updates sharpen the numerical-range
    bound, then the 101 log-spaced abscissas sharpen the result further, so
    each stage is everywhere at most its predecessor.
    """
    profile = _build_profile({"jordan": {"n": 3}})
    numrange = PiecewiseLogAffineBound.exponential(models.jordan_numerical_range_slope(JordanBlockModel(3)))
    omegas_3 = [0.5, 1.0, 2.0]
    omegas_101 = [math.exp(-5.0 + 0.1 * k) for k in range(101)]
    bound_3 = update_chain(numrange, omegas_3, profile)
    bound_101 = update_chain(bound_3, omegas_101, profile)
    return numrange, bound_3, bound_101


def _figure_jordan3(args) -> list[tuple[float, float, str]]:
    model = JordanBlockModel(3)
    numrange, bound_3, bound_101 = jordan_figure_bounds()
    grid = _time_grid(args.t_max, args.step)
    ts = grid.tolist()
    norms = models.jordan_semigroup_norm(model, grid).tolist()
    rows = [(t, math.log(norm), "true_norm") for t, norm in zip(ts, norms)]
    for bound, label in ((numrange, "numerical_range"), (bound_3, "bound_3_omegas"), (bound_101, "bound_101_omegas")):
        rows += [(t, v, label) for t, v in zip(ts, _log_values(bound, grid).tolist())]
    return rows


def _figure_diffop_r(args) -> list[tuple[float, float, str]]:
    omegas = _omega_grid(args)
    return [(w, r, "diffop_rate") for w, r in zip(omegas, models.diffop_rate(np.array(omegas)).tolist())]


_FIGURES = {"omegar": _figure_omegar, "jordan3": _figure_jordan3, "diffop_r": _figure_diffop_r}


def _cmd_figure(args) -> int:
    _emit_rows(_FIGURES[args.name](args), args)
    return 0


def _cmd_profile(args) -> int:
    if args.count < 1:
        raise ConfigError(f"count must be at least 1, got {args.count!r}")
    rate = _build_profile("diffop" if args.model == "diffop" else {"jordan": {"n": args.n}}).fn
    omegas = _linspace(args.omega_min, args.omega_max, args.count)
    rows = [(w, r, "rate") for w, r in zip(omegas, rate(np.array(omegas)).tolist())]
    _emit_rows(rows, args)
    return 0


# -- entry point ---------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sgbounds",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("wei", help="sharpen the trivial bound at omega = 0")
    p.add_argument("rate", type=float)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--step", type=float, default=0.1)
    common(p)
    p.set_defaults(run=_cmd_wei)

    p = sub.add_parser("update", help="single and chained updates from a config")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(run=_cmd_update)

    p = sub.add_parser("iterate", help="envelope/update iteration from a config")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(run=_cmd_iterate)

    p = sub.add_parser("figure", help="emit the data behind a standard figure")
    p.add_argument("name", choices=tuple(_FIGURES))
    p.add_argument("--omega-min", type=float, default=-3.0)
    p.add_argument("--omega-max", type=float, default=6.0)
    p.add_argument("--omega-step", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--step", type=float, default=0.1)
    common(p)
    p.set_defaults(run=_cmd_figure)

    p = sub.add_parser("profile", help="sweep a model's resolvent rate")
    p.add_argument("--model", choices=("diffop", "jordan"), default="diffop")
    p.add_argument("--n", type=int, default=3, help="Jordan block size")
    p.add_argument("--omega-min", type=float, default=-5.0)
    p.add_argument("--omega-max", type=float, default=5.0)
    p.add_argument("--count", type=int, default=101)
    common(p)
    p.set_defaults(run=_cmd_profile)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: out of memory ({exc})", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
