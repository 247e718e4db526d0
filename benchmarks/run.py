"""Benchmark driver for onlinenorm.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there. Each workload process starts fresh, with BLAS and OpenMP
pinned to one thread:

* ``--trace 0``: one process repeats the workload's round for about T
  seconds and reports ``round_cal`` (the median over rounds of the round's
  wall time divided by the time of a fixed calibration loop run on either
  side of it) and ``peak_rss_mb``. Then SETUP_PROBES processes each import
  the package and build the workload's inputs once; ``setup_s`` is their
  median.
* ``--trace 1``: one process reports the per-layer metrics of a traced pass
  (see ``workload.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the detail, including the machine block. The exit code is 0 when a
result was printed, whether or not every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workload import END_TO_END, ROOT, THREAD_VARS, WORKLOADS  # noqa: E402

SOURCE = ROOT / "src"
WORKLOAD = HERE / "workload.py"
SETUP_PROBES = 5
# The whole run, child processes included, must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and parse its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process {args} printed nothing")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="onlinenorm benchmark driver")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE / "onlinenorm" / "__init__.py").is_file():
        print(f"error: no package source at {SOURCE / 'onlinenorm'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        result = run_child(
            ["--phase", "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        metrics = result["metrics"]
        if not args.trace:
            probes = [run_child(["--phase", "setup", *common], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            result["detail"]["setup_s"] = probes
            values = dict(metrics, setup_s=statistics.median(probes))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    print(json.dumps({"workload": args.workload, "trace": args.trace, "failures": failures,
                      "detail": result["detail"], "machine": result["machine"]}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
