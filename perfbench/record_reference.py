"""Record reference.json: the pinned outputs of each workload's anchor job.

Run from the root of a source checkout, at the commit whose outputs the
benchmark should hold later commits to:

    python3 perfbench/record_reference.py

The anchor configs depend on neither the seed nor the size, so one
recording serves every run.  ``checks.REF_TOL`` is the tolerance.
"""

from __future__ import annotations

import json
import shutil

from run import HERE, WORK, import_cli
import checks
import workloads


def main() -> int:
    cli = import_cli()
    run_dir = WORK / "record-reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            anchor = next(j for j in workloads.generate(workload, run_dir / workload, 0) if j.anchor)
            if cli.main(anchor.argv) != 0:
                raise RuntimeError(f"{workload}: anchor job failed")
            problems = checks.check_job(anchor)
            if problems:
                raise RuntimeError(f"{workload}: anchor output fails its check: {problems}")
            reference[workload] = checks.digest(anchor)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
