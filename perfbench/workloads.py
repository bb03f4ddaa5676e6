"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation, ``sgbounds.cli.main(argv)``.  The generator
writes every config into a fresh run directory and gives each job an
output prefix of its own under ``out/``, apart from the configs under
``cfg/``: ``--out X`` writes ``X.json``, so a prefix equal to a config path
would overwrite the config.  No job passes ``--threads``.

Each workload also runs one *anchor* job whose config depends on neither
the seed nor the size.  Its output is compared with ``reference.json``,
recorded at the commit that introduced the benchmark (see
``record_reference.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import log_values

WORKLOADS = ("shift-iterate", "update-chain", "model-sweeps")

# seed of the anchor jobs; fixed so that reference.json stays valid
ANCHOR_SEED = 20230321


@dataclass
class Job:
    """One CLI invocation and what its output check needs to know."""

    name: str
    kind: str
    argv: list[str]
    outputs: list[Path]
    meta: dict = field(default_factory=dict)
    anchor: bool = False


@dataclass(frozen=True)
class Size:
    """How much work one pass holds; ``FULL`` is what the benchmark measures."""

    shift_rise: int  # seeded starts whose envelope step changes the grid
    shift_concave: int
    shift_bumpy: int  # non-log-concave starts the first update repairs
    shift_omegas: int
    shift_T: float
    chain_jobs: int
    chain_table: int
    chain_omegas: int
    chain_gp_times: int
    sweep_count: int


FULL = Size(1, 12, 4, 200, 100.0, 30, 300, 225, 50, 25)
TINY = Size(1, 1, 1, 30, 10.0, 2, 40, 12, 5, 4)
SIZES = {"full": FULL, "tiny": TINY}


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))


def _bound_dict(slopes: list[float], breakpoints: list[float]) -> dict:
    """Serialized bound with log m(0) = 0, intercepts fixed by continuity."""
    bps = [0.0, *breakpoints]
    intercepts = [0.0]
    for j in range(1, len(slopes)):
        t = bps[j]
        intercepts.append(slopes[j - 1] * t + intercepts[j - 1] - slopes[j] * t)
    return {"breakpoints": bps, "slopes": slopes, "intercepts": intercepts}


def _valid_for_shift(bound: dict) -> bool:
    """log m >= 0 on [0, 1): checking the kinks and t = 1 suffices."""
    pts = np.array([t for t in bound["breakpoints"] if t < 1.0] + [1.0])
    return bool(np.min(log_values(bound, pts)) >= 0.0)


# -- shift-iterate -------------------------------------------------------------


def shift_start(rng: np.random.Generator, family: str, pieces: int) -> dict:
    """A start of ``pieces`` pieces that bounds the shift semigroup.

    ``concave``: slopes decrease, so log m is concave.  The first slope is
    at least 0.8; flatter starts make the updates much more expensive, and
    mixing both would make the median job time swing with the seed.
    ``rise``: flat, then an early rise before t = 0.5 and positive slopes
    after it; the updated bound is not subadditive on the grid, so the
    envelope changes it and the iteration continues from the grid
    interpolant.  (Starts whose slopes turn negative take the same path at
    up to twice the cost, which would make the pass time swing with the
    seed.)  ``bumpy``: flat, then a rise after t = 1 and a random walk of
    slopes, which the first update removes.
    """
    while True:
        if family == "concave":
            slopes = [float(rng.uniform(0.8, 1.6))]
            for _ in range(pieces - 1):
                slopes.append(slopes[-1] - float(rng.uniform(0.1, 1.2)))
            bps = np.cumsum(rng.uniform(0.2, 2.5, size=pieces - 1)).tolist()
        else:
            slopes = [float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.6, 1.5))]
            for _ in range(pieces - 2):
                if family == "rise":
                    slopes.append(float(rng.uniform(0.1, 3.0)))
                else:
                    step = float(rng.uniform(0.2, 1.5))
                    slopes.append(slopes[-1] + (step if rng.random() < 0.3 else -step))
            first = float(rng.uniform(0.1, 0.5) if family == "rise" else rng.uniform(1.0, 2.0))
            bps = [first, *(first + np.cumsum(rng.uniform(0.2, 2.0, size=pieces - 2))).tolist()]
        if any(a == b for a, b in zip(slopes, slopes[1:])):
            continue
        bound = _bound_dict(slopes, bps)
        if _valid_for_shift(bound):
            return bound


def _shift_job(run_dir: Path, name: str, rng: np.random.Generator, family: str, pieces: int, size: Size) -> Job:
    omegas = sorted(set(float(w) for w in rng.uniform(-5.0, 5.0, size=size.shift_omegas)))
    start = shift_start(rng, family, pieces)
    cfg = {
        "model": "diffop",
        "initial_bound": start,
        "omega_set": omegas,
        "grid": {"h": 0.05, "T": size.shift_T},
        "iteration": {"max_steps": 8, "use_semigroupize": True},
    }
    cfg_path = run_dir / "cfg" / f"{name}.json"
    _write_json(cfg_path, cfg)
    out = run_dir / "out" / name
    return Job(
        name,
        "iterate",
        ["iterate", "--config", str(cfg_path), "--out", str(out), "--format", "json"],
        [out.with_name(name + ".json")],
    )


def shift_iterate(run_dir: Path, seed: int, size: Size) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    anchor = _shift_job(run_dir, "anchor", np.random.default_rng([ANCHOR_SEED, 1]), "rise", 6, FULL)
    anchor.anchor = True
    jobs = [anchor]
    slots = [("rise", size.shift_rise), ("concave", size.shift_concave), ("bumpy", size.shift_bumpy)]
    for family, count in slots:
        for i in range(count):
            pieces = 4 + int(rng.integers(0, 5))
            jobs.append(_shift_job(run_dir, f"{family}{i}", rng, family, pieces, size))
    return jobs


# -- update-chain ----------------------------------------------------------------


def tabulated_profile(rng: np.random.Generator, n: int) -> list[list[float]]:
    """n pairs (omega, r): r positive, non-decreasing and 1-Lipschitz."""
    omegas = np.sort(rng.uniform(-3.0, 3.0, size=n))
    omegas = np.unique(np.round(omegas, 9))
    rates = [float(rng.uniform(0.05, 0.5))]
    for w0, w1 in zip(omegas, omegas[1:]):
        rates.append(rates[-1] + float(rng.uniform(0.0, 0.9)) * float(w1 - w0))
    return [[float(w), r] for w, r in zip(omegas, rates)]


def concave_start(rng: np.random.Generator, pieces: int) -> dict:
    slopes = [float(rng.uniform(-1.0, 2.0))]
    for _ in range(pieces - 1):
        slopes.append(slopes[-1] - float(rng.uniform(0.05, 0.8)))
    bps = np.cumsum(rng.uniform(0.1, 1.5, size=pieces - 1)).tolist()
    return _bound_dict(slopes, bps)


def _chain_job(run_dir: Path, name: str, rng: np.random.Generator, size: Size) -> Job:
    pairs = tabulated_profile(rng, size.chain_table)
    lo = pairs[0][0]
    hi = pairs[-1][0]
    omegas = sorted(set(float(w) for w in rng.uniform(lo, hi, size=size.chain_omegas)))
    order = list(omegas)
    rng.shuffle(order)
    times = np.sort(rng.uniform(0.5, 40.0, size=size.chain_gp_times)).tolist()
    cfg = {
        "model": {"tabulated": {"pairs": pairs}},
        "initial_bound": concave_start(rng, int(rng.integers(3, 21))),
        "omega_set": omegas,
        "update": {"order": order},
        "gp": {"omega": float(rng.uniform(lo, hi)), "times": times, "split": 0.5},
        "grid": {"h": 0.1, "T": 20.0},
    }
    cfg_path = run_dir / "cfg" / f"{name}.json"
    _write_json(cfg_path, cfg)
    out = run_dir / "out" / name
    return Job(
        name,
        "update",
        ["update", "--config", str(cfg_path), "--out", str(out)],
        [out.with_name(name + ".json"), out.with_name(name + ".csv")],
    )


def update_chain(run_dir: Path, seed: int, size: Size) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    anchor = _chain_job(run_dir, "anchor", np.random.default_rng([ANCHOR_SEED, 2]), FULL)
    anchor.anchor = True
    return [anchor] + [_chain_job(run_dir, f"chain{i}", rng, size) for i in range(size.chain_jobs)]


# -- model-sweeps ----------------------------------------------------------------


def _csv_job(run_dir: Path, name: str, kind: str, argv: list[str], meta: dict | None = None) -> Job:
    out = run_dir / "out" / name
    return Job(name, kind, [*argv, "--out", str(out), "--format", "csv"], [out], meta or {})


def model_sweeps(run_dir: Path, seed: int, size: Size) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    count = str(size.sweep_count)
    jobs = [_csv_job(run_dir, "anchor", "jordan3", ["figure", "jordan3"])]
    jobs[0].anchor = True
    for n in (2, 3, 5):
        lo = float(rng.uniform(0.05, 0.5))
        hi = lo + float(rng.uniform(3.0, 6.0))
        argv = ["profile", "--model", "jordan", "--n", str(n), "--omega-min", repr(lo), "--omega-max", repr(hi), "--count", count]
        jobs.append(_csv_job(run_dir, f"jordan{n}", "jordan_profile", argv, {"n": n}))
    lo = float(rng.uniform(-10.0, -6.0))
    hi = float(rng.uniform(4.0, 10.0))
    argv = ["figure", "diffop_r", "--omega-min", repr(lo), "--omega-max", repr(hi), "--omega-step", "0.05"]
    jobs.append(_csv_job(run_dir, "diffop_r", "diffop_rates", argv))
    lo = float(rng.uniform(-8.0, -2.0))  # omega < -1: the hyperbolic branch
    hi = float(rng.uniform(1.0, 8.0))
    argv = ["profile", "--model", "diffop", "--omega-min", repr(lo), "--omega-max", repr(hi), "--count", "401"]
    jobs.append(_csv_job(run_dir, "diffop_profile", "diffop_rates", argv))
    return jobs


GENERATORS = {"shift-iterate": shift_iterate, "update-chain": update_chain, "model-sweeps": model_sweeps}


def generate(workload: str, run_dir: Path, seed: int, size: Size = FULL) -> list[Job]:
    """The job list of one workload, with its configs written under run_dir."""
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](run_dir, seed, size)
