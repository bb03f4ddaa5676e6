"""Tests of the benchmark itself: smoke runs and one negative case per check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sgbounds import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0  # error_rate
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((HERE / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, "perfbench/run.py", "--workload", "update-chain", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_and_keeps_outputs_apart_from_configs(workload, tmp_path):
    a = workloads.generate(workload, tmp_path / "a", 7, workloads.TINY)
    b = workloads.generate(workload, tmp_path / "b", 7, workloads.TINY)
    for ja, jb in zip(a, b, strict=True):
        assert [x.replace(str(tmp_path / "a"), "") for x in ja.argv] == [
            x.replace(str(tmp_path / "b"), "") for x in jb.argv
        ]
        if "--config" in ja.argv:
            cfg = Path(ja.argv[ja.argv.index("--config") + 1])
            assert cfg.read_text() == Path(jb.argv[jb.argv.index("--config") + 1]).read_text()
            assert all(out != cfg for out in ja.outputs)
        assert "--threads" not in ja.argv
    assert sum(job.anchor for job in a) == 1


def test_shift_starts_bound_the_shift():
    rng = np.random.default_rng(0)
    for family in ("concave", "rise", "bumpy"):
        for pieces in range(4, 9):
            bound = workloads.shift_start(rng, family, pieces)
            assert len(bound["breakpoints"]) == pieces
            assert np.min(checks.log_values(bound, checks.SHIFT_FINE)) >= 0.0


# -- negative cases: each check rejects a corrupted output -----------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Outputs of tiny jobs, one of each kind, keyed by job kind."""
    run_dir = tmp_path_factory.mktemp("run")
    picked = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.generate(workload, run_dir / workload, 3, workloads.TINY):
            if job.kind in picked or (job.anchor and job.kind != "jordan3"):
                continue
            assert cli.main(job.argv) == 0
            assert checks.check_job(job) == []
            picked[job.kind] = job
    return picked


def test_iterate_check_rejects_a_bound_below_the_exact_norm(outputs):
    trace = json.loads(outputs["iterate"].outputs[0].read_text())
    bad = copy.deepcopy(trace)
    bad["steps"][-1]["bound"]["intercepts"] = [b - 0.1 for b in bad["steps"][-1]["bound"]["intercepts"]]
    assert any("bound has log m" in p for p in checks.check_iterate(bad))
    bad = copy.deepcopy(trace)
    bad["steps"][0]["grid"]["values"][5] -= 0.1
    assert any("grid has log m" in p for p in checks.check_iterate(bad))


def test_iterate_check_rejects_a_grid_that_rises(outputs):
    trace = json.loads(outputs["iterate"].outputs[0].read_text())
    trace["steps"][-1]["grid"]["values"][-1] = trace["steps"][-2]["grid"]["values"][-1] + 0.1
    assert any("rose" in p for p in checks.check_iterate(trace))


def test_update_check_rejects_a_raised_min_update(outputs):
    job = outputs["update"]
    config = json.loads(Path(job.argv[job.argv.index("--config") + 1]).read_text())
    report = json.loads(job.outputs[0].read_text())
    rows = checks.read_rows(job.outputs[1])
    bad = copy.deepcopy(report)
    bad["min_update"]["intercepts"] = [b + 0.1 for b in bad["min_update"]["intercepts"]]
    assert any("min_update exceeds" in p for p in checks.check_update(config, bad, rows))
    bad = copy.deepcopy(report)
    bad["chain"][-1]["bound"]["intercepts"] = [b + 0.1 for b in bad["chain"][-1]["bound"]["intercepts"]]
    assert any("chain step" in p for p in checks.check_update(config, bad, rows))


def test_jordan3_check_rejects_broken_ordering_and_norms(outputs):
    rows = checks.read_rows(outputs["jordan3"].outputs[0])
    bad = copy.deepcopy(rows)
    t, v = bad["bound_101_omegas"]
    bad["bound_101_omegas"] = (t, v + 0.1)
    assert any("bound_101_omegas exceeds" in p for p in checks.check_jordan3(bad))
    bad = copy.deepcopy(rows)
    t, v = bad["true_norm"]
    bad["true_norm"] = (t, v - 1e-6)
    assert any("true_norm differs" in p for p in checks.check_jordan3(bad))


def test_jordan_rate_check_rejects_a_raised_rate(outputs):
    job = outputs["jordan_profile"]
    rows = checks.read_rows(job.outputs[0])
    count = int(job.argv[job.argv.index("--count") + 1])
    omegas, rates = rows["rate"]
    raised = rates.copy()
    raised[-1] *= 1.01
    assert checks.check_jordan_rates(job.meta["n"], {"rate": (omegas, raised)}, count)


@pytest.mark.parametrize("branch", ["hyperbolic", "trigonometric"])
def test_diffop_rate_check_rejects_a_raised_rate(outputs, branch):
    rows = checks.read_rows(outputs["diffop_rates"].outputs[0])
    label = next(iter(rows))
    omegas, rates = rows[label]
    k = int(np.argmax(omegas < -1.0)) if branch == "hyperbolic" else len(omegas) - 1
    assert (omegas[k] < -1.0) == (branch == "hyperbolic")
    raised = rates.copy()
    raised[k] *= 1.01
    assert checks.check_diffop_rates({label: (omegas, raised)}, label)


def test_reference_comparison_rejects_a_changed_output():
    reference = json.loads((HERE / "reference.json").read_text())
    want = reference["shift-iterate"]
    got = copy.deepcopy(want)
    assert checks.compare_digest(got, want) == []
    got["stationary_at"] = want["stationary_at"] + 1
    assert checks.compare_digest(got, want)
    got = copy.deepcopy(want)
    got["final"][10] += 1e-6
    assert checks.compare_digest(got, want)


# -- the host-speed scale ----------------------------------------------------------


def test_scale_to_reference_weights_loops_by_the_durations_between_them():
    ref = run.CALIBRATION_REF_S
    assert run.scale_to_reference([[ref], [ref, ref]], [3.0]) == pytest.approx(1.0)
    assert run.scale_to_reference([[2 * ref], [2 * ref]], [1.0]) == pytest.approx(0.5)
    # the first job ran at loop time ref, the second at 3 ref and took three times as long
    loops = [[ref], [ref], [3 * ref]]
    assert run.scale_to_reference(loops, [1.0, 3.0]) == pytest.approx(4.0 / (1.0 + 3.0 * 2.0))
