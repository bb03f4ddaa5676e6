"""Benchmark of the sgbounds CLI: seeded workloads, output checks, traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shift-iterate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process drives ``sgbounds.cli.main`` in-process, single-threaded, in a
closed loop: one job at a time, the next job starting when the previous one
returns.  A pass is one run through the workload's fixed job list; passes
repeat until ``--seconds`` have gone by, and every job's output is checked
after each pass.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with tracing off.  Their times
are scaled to a reference host speed (see ``scale_to_reference``).
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced passes plus ``trace.overhead_s``, and writes the
spans to ``.bench_out/``.  ``--workload all`` runs every workload in its
own process and prints a table.  Exit code 2 means the checkout holds no
``src/sgbounds`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SETUP_CODE = "import sys, time; sys.path.insert(0, sys.argv[1]); import sgbounds.cli; print(time.monotonic_ns())"

# Host speed.  On a shared host the CPU speed drifts by up to a third over
# tens of seconds, and every time metric drifts with it.  A fixed loop of
# interpreter work and numpy calls, like the program's own mix, is timed
# between jobs.  On a shared 2-vCPU host its 10-second means correlated
# 0.8-0.9 with job times, and scaling by it cut the spread of pass times
# across ten runs from 0.13-0.21 raw to 0.035-0.12 (perfbench/README.md).
# So the end-to-end job and pass times are reported in seconds of a host on
# which this loop takes CALIBRATION_REF_S: each pass is scaled by
# CALIBRATION_REF_S over the loop's mean time around its jobs, weighted by
# the jobs' durations.  Standard error shows the raw pass times and the
# scale factors.
CALIBRATION_REF_S = 0.025
CALIBRATION_EVERY_S = 0.5  # one more loop after a job per this much job time
_CAL_SMALL = np.linspace(0.0, 1.0, 64)
_CAL_MID = np.linspace(0.0, 1.0, 2000)


def calibration_loop() -> float:
    """Seconds taken by one run of the fixed calibration loop."""
    small, mid = _CAL_SMALL, _CAL_MID
    s = 0.0
    t0 = time.perf_counter()
    for i in range(30000):
        s += i * 0.5
        if i % 16 == 0:
            s += float(np.minimum(small, 0.5).sum())
    for i in range(300):
        x = np.minimum(mid, i * 1e-3)
        np.cumsum(x)
        np.searchsorted(mid, x)
    return time.perf_counter() - t0


def scale_to_reference(loops: list[list[float]], durations: list[float]) -> float:
    """CALIBRATION_REF_S over the loop time while ``durations`` went by.

    The loops in ``loops[i]`` ran before ``durations[i]`` and those in
    ``loops[i + 1]`` after it; each duration is given the mean of both
    groups, and the durations weight the result.
    """
    around = [statistics.fmean(a + b) for a, b in zip(loops, loops[1:])]
    return CALIBRATION_REF_S * sum(durations) / sum(t * w for t, w in zip(around, durations))


def import_cli():
    """Import ``sgbounds.cli`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sgbounds.cli

    if Path(sgbounds.cli.__file__).resolve().parent != (SRC / "sgbounds").resolve():
        raise ImportError(f"imported sgbounds from {sgbounds.cli.__file__}, not from {SRC}")
    return sgbounds.cli


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_setup() -> float:
    """Median time from starting a fresh interpreter until ``import sgbounds.cli`` returns."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):  # the first run writes the bytecode caches
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(samples[1:])


class Runner:
    """Runs passes over one job list and records times and failures."""

    def __init__(self, workload: str, jobs: list, cli) -> None:
        self.jobs = jobs
        self.cli = cli
        self.reference = json.loads((HERE / "reference.json").read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: spans.Tracer | None = None) -> tuple[float, list[float], int, float]:
        """One pass: (pass wall time, per-job wall times, bytes written, scale).

        ``scale`` turns the pass's times into seconds at the reference host
        speed (see ``scale_to_reference``).

        The pass wall time leaves out the calibration loops run between jobs.
        """
        gc.collect()
        times = []
        errors = {}
        bytes_out = 0
        clock = time.perf_counter
        start = clock()
        loops = [[calibration_loop()]]
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.current_job = i
            t0 = clock()
            try:
                code = self.cli.main(job.argv)
            except (Exception, SystemExit):
                code = None
                errors[job.name] = traceback.format_exc(limit=3)
            times.append(clock() - t0)
            if code not in (0, None):
                errors[job.name] = f"exit code {code}"
            if tracer is not None:
                bytes_out += sum(p.stat().st_size for p in job.outputs if p.exists())
            loops.append([calibration_loop() for _ in range(1 + int(times[-1] / CALIBRATION_EVERY_S))])
        wall = clock() - start - sum(map(sum, loops))
        self.check(errors)
        return wall, times, bytes_out, scale_to_reference(loops, times)

    def check(self, errors: dict[str, str]) -> None:
        for job in self.jobs:
            self.attempted += 1
            problems = [errors[job.name]] if job.name in errors else checks.check_job(job)
            if not problems and job.anchor:
                problems = checks.compare_digest(checks.digest(job), self.reference)
            if problems:
                self.failed += 1
                self.problems.extend(f"{job.name}: {p}" for p in problems)


def measure(runner: Runner, seconds: float, traced: bool) -> tuple[dict, int, list[spans.Tracer]]:
    """Passes for about ``seconds``: (metrics of the mode, rounds, tracers).

    With tracing, each round is an untraced pass followed by a traced one.
    """
    walls, job_times, scales, traced_walls, tracers, layer = [], [], [], [], [], []
    begin = time.perf_counter()
    while True:
        wall, times, _, scale = runner.run_pass()
        walls.append(wall)
        job_times.append(statistics.median(times))
        scales.append(scale)
        if traced:
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                wall, _, bytes_out, _ = runner.run_pass(tracer)
            finally:
                uninstall()
            traced_walls.append(wall)
            tracers.append(tracer)
            layer.append(tracer.metrics(len(runner.jobs), bytes_out))
        elapsed = time.perf_counter() - begin
        # stop when one more round would end well past the time asked for
        if elapsed + elapsed / len(walls) > 1.15 * seconds or runner.failed:
            break
    print("pass walls: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print("scale to reference: " + " ".join(f"{v:.3f}" for v in scales), file=sys.stderr)
    if not traced:
        metrics = {
            "wall_s": statistics.median(w * v for w, v in zip(walls, scales)),
            "job_p50_s": statistics.median(t * v for t, v in zip(job_times, scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return metrics, len(walls), tracers
    metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return metrics, len(walls), tracers


def design_checks(workload: str, m: dict) -> list[tuple[str, bool]]:
    """Whether the traced run separates the layers as the workloads intend."""
    layer_self = {layer: m[f"{layer}.self_s"] for layer in spans.LAYERS}
    total = sum(layer_self.values())
    if workload == "shift-iterate":
        share = (layer_self["bounds"] + layer_self["riccati"]) / total if total else 0.0
        return [(f"bounds + riccati hold most self time ({share:.0%})", share > 0.5)]
    top = max(layer_self, key=layer_self.get)
    out = [("no envelope calls", m["envelope.subadditive_envelope.calls"] == 0)]
    if workload == "model-sweeps":
        out.append((f"models has the largest self time (largest: {top})", top == "models"))
    return out


def run_workload(args) -> int:
    if not (SRC / "sgbounds" / "__init__.py").is_file():
        print(f"no sgbounds sources under {SRC}", file=sys.stderr)
        return 2
    cli = import_cli()
    size = workloads.SIZES[args.size]
    setup_s = None if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir()
    try:
        jobs = workloads.generate(args.workload, run_dir, args.seed, size)
        runner = Runner(args.workload, jobs, cli)
        measured, rounds, tracers = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        spans.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz", tracers)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared_units("per_layer").items()}
        for label, ok in design_checks(args.workload, measured):
            print(f"design check {args.workload}: {label}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    else:
        measured["setup_s"] = setup_s
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared_units("end_to_end").items()}
    error_rate = runner.failed / runner.attempted
    print(f"{args.workload}: {rounds} rounds of {len(jobs)} jobs, error_rate {error_rate:.4g} "
          f"({runner.failed}/{runner.attempted})", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; prints every metric by name and unit."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        print(f"{workload}  correct={result['correct']}  error_rate={rate:.4g} ratio "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="job-list size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
