"""Command-line front end: run updates and iterations, emit CSV/JSON curves.

Subcommands
    wei      the classical sharpening of the trivial bound at omega = 0
    update   single and chained updates driven by a JSON config
    iterate  the full envelope/update iteration, exported as a trace
    figure   data behind the standard plots (omegar, jordan3, diffop_r)
    profile  a resolvent-rate sweep for a model

CSV output uses the columns t,value,label with floats at 17 significant
digits, so files diff cleanly and round-trip losslessly.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from . import models
from .bounds import PiecewiseLogAffineBound
from .iteration import OmegaSet, ResolventProfile, iterate, iterate_updates_only, min_update, update_chain
from .models import ConvergenceError, JordanBlockModel
from .riccati import OmegaRPair, PoleError, first_crossing_time, gp_log_bound, update_bound

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


# -- row assembly -------------------------------------------------------------


def _rows_csv(rows: list[tuple[float, float, str]]) -> str:
    lines = ["t,value,label"]
    for t, v, label in rows:
        lines.append(f"{t:.17g},{v:.17g},{label}")
    return "\n".join(lines) + "\n"


def _rows_json(rows: list[tuple[float, float, str]]) -> str:
    return json.dumps([{"t": t, "value": v, "label": label} for t, v, label in rows], indent=1) + "\n"


def _write(text: str, out: str | None, suffix: str = "") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out + suffix).write_text(text)


def _emit_rows(rows: list[tuple[float, float, str]], args) -> None:
    fmt = args.format or "csv"
    _write(_rows_csv(rows) if fmt == "csv" else _rows_json(rows), args.out)


def _emit_report(report: dict, rows: list[tuple[float, float, str]], args) -> None:
    """The JSON report or the CSV rows to stdout (JSON unless --format csv);
    with --out, the .json and .csv files, or only the one --format names."""
    fmt = args.format
    if args.out is None:
        _write(_rows_csv(rows) if fmt == "csv" else json.dumps(report, indent=1) + "\n", None)
        return
    if fmt in (None, "json"):
        _write(json.dumps(report, indent=1) + "\n", args.out, ".json")
    if fmt in (None, "csv"):
        _write(_rows_csv(rows), args.out, ".csv")


def _time_grid(t_max: float, step: float) -> list[float]:
    if not step > 0.0:
        raise ConfigError(f"step must be positive, got {step!r}")
    n = int(round(t_max / step))
    return [k * step for k in range(n + 1)]


def _linspace(a: float, b: float, count: int) -> list[float]:
    return [a + (b - a) * k / (count - 1) if count > 1 else a for k in range(count)]


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
    """convert(value), with a value of the wrong type or form reported as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} {value!r}: {exc}") from exc


def _floats(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list")
    return [_parse(float, x, where) for x in values]


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _require_keys(
        data,
        {"model", "initial_bound", "omega_set", "grid", "iteration", "update", "gp", "output"},
        "config",
    )
    return data


def _build_profile(spec) -> ResolventProfile:
    if spec == "diffop":
        return models.diffop_profile()
    if isinstance(spec, dict):
        _require_keys(spec, {"jordan", "tabulated"}, "model")
        if "jordan" in spec:
            block = spec["jordan"]
            _require_keys(block, {"n"}, "model.jordan")
            n = _parse(int, _required(block, "n", "model.jordan"), "model.jordan.n")
            return models.jordan_profile(JordanBlockModel(n))
        block = _required(spec, "tabulated", "model")
        _require_keys(block, {"pairs", "path"}, "model.tabulated")
        if "path" in block:
            try:
                pairs = json.loads(Path(block["path"]).read_text())
            except OSError as exc:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial_bound: {exc}") from exc
    raise ConfigError(f"unsupported initial_bound {spec!r}")


def _build_omegas(spec) -> list[float]:
    if isinstance(spec, list):
        if not spec:
            raise ConfigError("omega_set must be non-empty")
        return _floats(spec, "omega_set")
    if isinstance(spec, dict):
        _require_keys(spec, {"from", "to", "count", "log_spaced"}, "omega_set")
        count = _parse(int, _required(spec, "count", "omega_set"), "omega_set.count")
        if count < 1:
            raise ConfigError("omega_set.count must be positive")
        a, b = (_parse(float, _required(spec, k, "omega_set"), f"omega_set.{k}") for k in ("from", "to"))
        xs = _linspace(a, b, count)
        if spec.get("log_spaced", False):
            xs = [math.exp(x) for x in xs]
        return xs
    raise ConfigError(f"unsupported omega_set {spec!r}")


def _build_grid(spec) -> tuple[float, int]:
    _require_keys(spec, {"h", "T"}, "grid")
    h = _parse(float, _required(spec, "h", "grid"), "grid.h")
    t_max = _parse(float, _required(spec, "T", "grid"), "grid.T")
    if h <= 0.0 or t_max < h:
        raise ConfigError("grid needs h > 0 and T >= h")
    return h, int(round(t_max / h))


# -- subcommands ---------------------------------------------------------------


def _cmd_wei(args) -> int:
    if args.rate <= 0.0:
        raise ConfigError("rate must be positive")
    pair = OmegaRPair(0.0, args.rate)
    bound = update_bound(PiecewiseLogAffineBound.constant(), pair)
    t_max = args.t_max if args.t_max is not None else 4.0 * math.pi / args.rate
    rows = [(t, bound.log_at(t), "wei") for t in _time_grid(t_max, args.step)]
    _emit_rows(rows, args)
    return 0


def _cmd_update(args) -> int:
    config = _load_config(args.config)
    profile = _build_profile(config.get("model", "diffop"))
    m0 = _build_bound(config.get("initial_bound"))
    omegas = _build_omegas(config.get("omega_set", []))
    update_spec = config.get("update", {})
    _require_keys(update_spec, {"order"}, "update")
    order = _floats(update_spec.get("order", sorted(omegas)), "update.order")

    report = {}
    cur = m0
    combined = m0
    if m0.is_normalized:
        singles = []
        for w in sorted(set(omegas)):
            pair = profile.pair(w)
            singles.append(
                {
                    "omega": w,
                    "rate": pair.rate,
                    "first_crossing": first_crossing_time(m0, pair),
                    "bound": update_bound(m0, pair).to_json_dict(),
                }
            )
        chain_steps = []
        for w in order:
            pair = profile.pair(w)
            crossing = first_crossing_time(cur, pair)
            cur = update_bound(cur, pair)
            chain_steps.append(
                {
                    "omega": w,
                    "rate": pair.rate,
                    "first_crossing": crossing,
                    "bound": cur.to_json_dict(),
                }
            )
        combined = min_update(m0, OmegaSet.of(omegas), profile)
        report = {
            "singles": singles,
            "chain": chain_steps,
            "min_update": combined.to_json_dict(),
        }
    elif config.get("gp") is None:
        raise ConfigError("updates need a normalized initial_bound (log value 0 at t = 0)")

    gp_spec = config.get("gp")
    if gp_spec is not None:
        _require_keys(gp_spec, {"omega", "times", "split"}, "gp")
        w = _parse(float, _required(gp_spec, "omega", "gp"), "gp.omega")
        pair = profile.pair(w)
        split = _parse(float, gp_spec.get("split", 0.5), "gp.split")
        gp_rows = []
        for t in _floats(_required(gp_spec, "times", "gp"), "gp.times"):
            a = split * t
            gp_rows.append({"t": t, "log_bound": gp_log_bound(m0, pair, a, t - a, t)})
        report["gp"] = {"omega": w, "rate": pair.rate, "rows": gp_rows}

    h, n_steps = _build_grid(config.get("grid", {"h": 0.1, "T": 20.0}))
    rows = [(k * h, combined.log_at(k * h), "min_update") for k in range(n_steps + 1)]
    rows += [(k * h, cur.log_at(k * h), "chain") for k in range(n_steps + 1)]

    _emit_report(report, rows, args)
    return 0


def _cmd_iterate(args) -> int:
    config = _load_config(args.config)
    profile = _build_profile(config.get("model", "diffop"))
    m0 = _build_bound(config.get("initial_bound"))
    omegas = OmegaSet.of(_build_omegas(config.get("omega_set", [])))
    iter_spec = config.get("iteration", {})
    _require_keys(iter_spec, {"max_steps", "use_semigroupize"}, "iteration")
    max_steps = _parse(int, iter_spec.get("max_steps", 8), "iteration.max_steps")
    use_envelope = bool(iter_spec.get("use_semigroupize", True))
    h, n_steps = _build_grid(config.get("grid", {"h": 0.1, "T": 20.0}))

    if use_envelope:
        trace = iterate(m0, omegas, profile, max_steps, (h, n_steps))
    else:
        trace = iterate_updates_only(m0, omegas, profile, max_steps)

    rows = []
    for step in trace.steps:
        rows += [
            (k * h, step.bound.log_at(k * h), f"step{step.index}") for k in range(n_steps + 1)
        ]
    _emit_report(trace.to_json_dict(), rows, args)
    return 0


def _figure_omegar(args) -> list[tuple[float, float, str]]:
    rows = []
    for w in _time_grid(args.omega_max - args.omega_min, args.omega_step):
        w += args.omega_min
        rows.append((w, w, "r_eq_omega"))
        rows.append((w, w + 1.0, "r_eq_omega_plus_1"))
        for alpha, label in (
            (math.pi / 4.0, "matched_rate_pi_4"),
            (math.pi / 2.0, "matched_rate_pi_2"),
            (math.pi / 8.0, "matched_rate_pi_8"),
        ):
            rows.append((w, models.rate_for_crossing_time(alpha, w), label))
    lower, upper = models.improvement_region_thresholds()
    rows.append((lower, lower + 1.0, "threshold_lower"))
    rows.append((upper, upper + 1.0, "threshold_upper"))
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
    model = JordanBlockModel(3)
    profile = models.jordan_profile(model)
    numrange = PiecewiseLogAffineBound.exponential(models.jordan_numerical_range_slope(model))
    omegas_3 = [0.5, 1.0, 2.0]
    omegas_101 = [math.exp(-5.0 + 0.1 * k) for k in range(101)]
    bound_3 = update_chain(numrange, omegas_3, profile)
    bound_101 = update_chain(bound_3, omegas_101, profile)
    return numrange, bound_3, bound_101


def _figure_jordan3(args) -> list[tuple[float, float, str]]:
    model = JordanBlockModel(3)
    numrange, bound_3, bound_101 = jordan_figure_bounds()
    ts = _time_grid(args.t_max, args.step)
    rows = []
    for t in ts:
        norm = models.jordan_semigroup_norm(model, t)
        rows.append((t, math.log(norm), "true_norm"))
    rows += [(t, numrange.log_at(t), "numerical_range") for t in ts]
    rows += [(t, bound_3.log_at(t), "bound_3_omegas") for t in ts]
    rows += [(t, bound_101.log_at(t), "bound_101_omegas") for t in ts]
    return rows


def _figure_diffop_r(args) -> list[tuple[float, float, str]]:
    rows = []
    for w in _time_grid(args.omega_max - args.omega_min, args.omega_step):
        w += args.omega_min
        rows.append((w, models.diffop_rate(w), "diffop_rate"))
    return rows


_FIGURES = {"omegar": _figure_omegar, "jordan3": _figure_jordan3, "diffop_r": _figure_diffop_r}


def _cmd_figure(args) -> int:
    _emit_rows(_FIGURES[args.name](args), args)
    return 0


def _cmd_profile(args) -> int:
    if args.model == "diffop":
        rate = models.diffop_rate
    else:
        model = JordanBlockModel(args.n)
        rate = lambda w: models.jordan_resolvent_rate(model, w)
    rows = [(w, rate(w), "rate") for w in _linspace(args.omega_min, args.omega_max, args.count)]
    _emit_rows(rows, args)
    return 0


# -- entry point ---------------------------------------------------------------


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, PoleError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
