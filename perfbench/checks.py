"""Output checks that use numpy and this directory's code, never ``sgbounds``.

Each check returns a list of problems; an empty list means the output
passed.  Tolerances, and the direction in which each one errs:

===============  =======  ======================================================
name             value    meaning
===============  =======  ======================================================
``VALID_TOL``    1e-9     a bound may dip this far below the exact norm (log
                          scale) before it counts as invalid; rounding only
``ORDER_TOL``    1e-9     slack of every "a <= b" between two emitted bounds
``NORM_TOL``     1e-10    |log of emitted true norm - log of our own norm|
``RATE_UP_REL``  1e-12    a Jordan rate may exceed sigma_min(omega I - J) by
                          this relative amount (SVD rounding); never more
``RATE_LOW_REL`` 1e-6     a Jordan rate may fall this far below sigma_min; a
                          rate rounded down further is sound but flagged
``SECULAR_TOL``  1e-8     relative defect of the secular equation at a diffop
                          rate
``REF_TOL``      1e-8     distance to ``reference.json`` on sampled log values
===============  =======  ======================================================
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

VALID_TOL = 1e-9
ORDER_TOL = 1e-9
NORM_TOL = 1e-10
RATE_UP_REL = 1e-12
RATE_LOW_REL = 1e-6
SECULAR_TOL = 1e-8
REF_TOL = 1e-8

# where the shift semigroup has norm exactly 1
SHIFT_FINE = np.arange(0.0, 1.0, 1e-3)


def log_values(bound: dict, ts: np.ndarray) -> np.ndarray:
    """log m at times ts for a serialized piecewise log-affine bound."""
    bps = np.asarray(bound["breakpoints"], dtype=float)
    j = np.searchsorted(bps, ts, side="right") - 1
    j = np.clip(j, 0, len(bps) - 1)
    return np.asarray(bound["slopes"], dtype=float)[j] * ts + np.asarray(bound["intercepts"], dtype=float)[j]


def read_rows(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """CLI CSV rows grouped by label: label -> (t column, value column)."""
    groups: dict[str, tuple[list[float], list[float]]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["t", "value", "label"]:
            raise ValueError(f"{path.name}: unexpected CSV header")
        for t, v, label in reader:
            ts, vs = groups.setdefault(label, ([], []))
            ts.append(float(t))
            vs.append(float(v))
    return {k: (np.array(ts), np.array(vs)) for k, (ts, vs) in groups.items()}


# -- shift-iterate ---------------------------------------------------------------


def check_iterate(trace: dict) -> list[str]:
    """Every step bound and grid is >= the exact shift norm 1 on [0, 1), and
    the grids never increase from one step to the next."""
    problems = []
    steps = trace["steps"]
    if not steps:
        return ["trace has no steps"]
    prev = None
    for step in steps:
        k = step["index"]
        low = float(np.min(log_values(step["bound"], SHIFT_FINE)))
        if low < -VALID_TOL:
            problems.append(f"step {k}: bound has log m = {low:.3g} < 0 on [0, 1)")
        grid = step["grid"]
        values = np.asarray(grid["values"], dtype=float)
        ts = grid["h"] * np.arange(len(values))
        head = values[ts < 1.0]
        if head.size and float(np.min(head)) < -VALID_TOL:
            problems.append(f"step {k}: grid has log m = {float(np.min(head)):.3g} < 0 on [0, 1)")
        if prev is not None and len(prev) == len(values):
            rise = float(np.max(values - prev))
            if rise > ORDER_TOL:
                problems.append(f"step {k}: grid rose by {rise:.3g} over step {k - 1}")
        prev = values
    stationary = trace["stationary_at"]
    if stationary is not None and not (isinstance(stationary, int) and 0 <= stationary < len(steps)):
        problems.append(f"stationary_at = {stationary!r} is not a step index")
    return problems


# -- update-chain ------------------------------------------------------------------


def check_update(config: dict, report: dict, rows: dict) -> list[str]:
    """min_update <= each single update and the chain <= the start, at sampled
    times; the CSV rows match the reported bounds on the grid."""
    problems = []
    horizon = 2.0 * max(report["min_update"]["breakpoints"][-1], config["grid"]["T"], 10.0)
    ts = np.linspace(0.0, horizon, 400)
    start = log_values(config["initial_bound"], ts)
    best = log_values(report["min_update"], ts)
    for single in report["singles"]:
        excess = float(np.max(best - log_values(single["bound"], ts)))
        if excess > ORDER_TOL:
            problems.append(f"min_update exceeds the single update at omega = {single['omega']!r} by {excess:.3g}")
            break
        if float(np.max(log_values(single["bound"], ts) - start)) > ORDER_TOL:
            problems.append(f"single update at omega = {single['omega']!r} exceeds the start")
            break
    prev = start
    for step in report["chain"]:
        cur = log_values(step["bound"], ts)
        excess = float(np.max(cur - prev))
        if excess > ORDER_TOL:
            problems.append(f"chain step at omega = {step['omega']!r} rose by {excess:.3g}")
            break
        prev = cur
    if len(report["chain"]) != len(config["update"]["order"]):
        problems.append("chain length differs from the configured order")
    for label, bound in (("min_update", report["min_update"]), ("chain", report["chain"][-1]["bound"])):
        t, v = rows.get(label, (np.array([]), np.array([])))
        if t.size != int(round(config["grid"]["T"] / config["grid"]["h"])) + 1:
            problems.append(f"CSV has {t.size} {label} rows")
        elif float(np.max(np.abs(v - log_values(bound, t)))) > ORDER_TOL:
            problems.append(f"CSV {label} rows disagree with the JSON bound")
    gp_rows = report["gp"]["rows"]
    if len(gp_rows) != len(config["gp"]["times"]) or not all(math.isfinite(r["log_bound"]) for r in gp_rows):
        problems.append("gp rows missing or not finite")
    return problems


# -- model-sweeps ------------------------------------------------------------------


def jordan_exp(n: int, t: float) -> np.ndarray:
    """exp(tJ) from the terminating series sum_{d < n} (t^d / d!) J^d."""
    out = np.zeros((n, n))
    coeff = 1.0
    for d in range(n):
        if d:
            coeff *= t / d
        out += coeff * np.eye(n, k=d)
    return out


def jordan_sigma_min(n: int, omega: float) -> float:
    return float(np.linalg.svd(omega * np.eye(n) - np.eye(n, k=1), compute_uv=False)[-1])


def check_jordan3(rows: dict) -> list[str]:
    """true <= 101-stage <= 3-stage <= numerical range; true_norm exact."""
    problems = []
    labels = ("true_norm", "bound_101_omegas", "bound_3_omegas", "numerical_range")
    if any(label not in rows for label in labels):
        return [f"missing labels, got {sorted(rows)}"]
    ts = rows["true_norm"][0]
    curves = [rows[label][1] for label in labels]
    if any(not np.array_equal(rows[label][0], ts) for label in labels):
        return ["curves are sampled at different times"]
    for i in range(len(labels) - 1):
        excess = float(np.max(curves[i] - curves[i + 1]))
        if excess > ORDER_TOL:
            problems.append(f"{labels[i]} exceeds {labels[i + 1]} by {excess:.3g}")
    exact = np.array([math.log(np.linalg.norm(jordan_exp(3, t), 2)) for t in ts])
    err = float(np.max(np.abs(exact - curves[0])))
    if err > NORM_TOL:
        problems.append(f"true_norm differs from norm(exp(tJ), 2) by {err:.3g} in log")
    slope = math.cos(math.pi / 4.0)
    if float(np.max(np.abs(curves[3] - slope * ts))) > NORM_TOL:
        problems.append("numerical_range is not exp(cos(pi/4) t)")
    return problems


def check_jordan_rates(n: int, rows: dict, count: int) -> list[str]:
    """Each rate is at most sigma_min(omega I - J), and not far below it."""
    omegas, rates = rows.get("rate", (np.array([]), np.array([])))
    if omegas.size != count:
        return [f"expected {count} rates, got {omegas.size}"]
    problems = []
    for w, r in zip(omegas, rates):
        exact = jordan_sigma_min(n, w)
        if r > exact * (1.0 + RATE_UP_REL) + 1e-300:
            problems.append(f"n = {n}: rate {r!r} at omega = {w!r} exceeds sigma_min = {exact!r}")
        elif r < exact * (1.0 - RATE_LOW_REL):
            problems.append(f"n = {n}: rate {r!r} at omega = {w!r} is far below sigma_min = {exact!r}")
    return problems


def secular_defect(omega: float, rate: float) -> float:
    """Relative defect of -nu cot(nu) = omega at nu^2 = rate^2 - omega^2.

    For omega < -1 the root is nu = i eta and the equation reads
    a = 2 eta / expm1(2 eta) with a = -omega - eta = rate^2 / (-omega + eta),
    which keeps every quantity free of cancellation.
    """
    if omega == -1.0:
        return abs(rate - 1.0)
    if omega > -1.0:
        nu_sq = rate * rate - omega * omega
        if not nu_sq > 0.0:
            return math.inf
        nu = math.sqrt(nu_sq)
        if nu >= math.pi:
            return math.inf
        return abs(-nu / math.tan(nu) - omega) / max(1.0, abs(omega))
    if not 0.0 < rate < -omega:
        return math.inf
    a = rate * rate / (-omega + math.sqrt(omega * omega - rate * rate))
    eta = -omega - a
    return abs(a - 2.0 * eta / math.expm1(2.0 * eta)) / a


def check_diffop_rates(rows: dict, label: str) -> list[str]:
    omegas, rates = rows.get(label, (np.array([]), np.array([])))
    if omegas.size == 0:
        return [f"no {label} rows"]
    for w, r in zip(omegas, rates):
        defect = secular_defect(float(w), float(r))
        if not defect <= SECULAR_TOL:
            return [f"rate {r!r} at omega = {w!r} misses the secular equation (defect {defect:.3g})"]
    return []


# -- dispatch ----------------------------------------------------------------------


def check_job(job) -> list[str]:
    """Check one job's output files; ``job`` is a ``workloads.Job``."""
    missing = [p.name for p in job.outputs if not p.exists()]
    if missing:
        return [f"missing outputs {missing}"]
    if job.kind == "iterate":
        return check_iterate(json.loads(job.outputs[0].read_text()))
    if job.kind == "update":
        config = json.loads(Path(job.argv[job.argv.index("--config") + 1]).read_text())
        report = json.loads(job.outputs[0].read_text())
        return check_update(config, report, read_rows(job.outputs[1]))
    rows = read_rows(job.outputs[0])
    if job.kind == "jordan3":
        return check_jordan3(rows)
    if job.kind == "jordan_profile":
        return check_jordan_rates(job.meta["n"], rows, int(job.argv[job.argv.index("--count") + 1]))
    if job.kind == "diffop_rates":
        label = "diffop_rate" if job.argv[0] == "figure" else "rate"
        return check_diffop_rates(rows, label)
    raise ValueError(f"no check for job kind {job.kind!r}")


# -- reference outputs of the anchor jobs ------------------------------------------


def digest(job) -> dict:
    """The part of an anchor job's output that reference.json pins."""
    if job.kind == "iterate":
        trace = json.loads(job.outputs[0].read_text())
        ts = np.linspace(0.0, 100.0, 201)
        return {
            "stationary_at": trace["stationary_at"],
            "steps": len(trace["steps"]),
            "final": log_values(trace["steps"][-1]["bound"], ts).tolist(),
            "final_grid": trace["steps"][-1]["grid"]["values"][::20],
        }
    if job.kind == "update":
        report = json.loads(job.outputs[0].read_text())
        ts = np.linspace(0.0, 40.0, 201)
        return {
            "min_update": log_values(report["min_update"], ts).tolist(),
            "chain": log_values(report["chain"][-1]["bound"], ts).tolist(),
            "gp": [r["log_bound"] for r in report["gp"]["rows"]],
        }
    if job.kind == "jordan3":
        rows = read_rows(job.outputs[0])
        return {label: v[::10].tolist() for label, (_, v) in sorted(rows.items())}
    raise ValueError(f"no digest for job kind {job.kind!r}")


def compare_digest(got: dict, want: dict) -> list[str]:
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, list):
            if not isinstance(val, list) or len(val) != len(ref):
                problems.append(f"reference {key}: length {len(val or [])} != {len(ref)}")
            elif float(np.max(np.abs(np.subtract(val, ref)), initial=0.0)) > REF_TOL:
                problems.append(f"reference {key}: off by {float(np.max(np.abs(np.subtract(val, ref)))):.3g}")
        elif val != ref:
            problems.append(f"reference {key}: {val!r} != {ref!r}")
    return problems
