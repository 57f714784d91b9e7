#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|campaign_hard|campaign_soft \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the simulator from ../src) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
program. BENCHMARK.json at the repository root is the one list of metric
names and units: the program's metrics are checked against it, and a
per-layer metric the workload does not exercise reads 0. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Build output goes to standard error. Exits non-zero, without a
result line, if the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "campaign_hard", "campaign_soft")


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def complete(result, sheet, fill):
    """Checks the program's result line against `sheet` (BENCHMARK.json's
    end_to_end or per_layer list) and returns it with the metrics in sheet
    order. A sheet metric the program did not report reads 0 when `fill`,
    and is an error otherwise. Returns None, with a message on standard
    error, on any mismatch."""
    measured = result.get("metrics", {})
    units = {m["name"]: m["unit"] for m in sheet}
    metrics = {}
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            print(f"perfbench: metric {name} ({metric['unit']}) is not in "
                  "BENCHMARK.json with that unit", file=sys.stderr)
            return None
        if not math.isfinite(metric["value"]):
            print(f"perfbench: metric {name} is not finite", file=sys.stderr)
            return None
    for name, unit in units.items():
        if name in measured:
            metrics[name] = measured[name]
        elif fill:
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            print(f"perfbench: metric {name} was not measured",
                  file=sys.stderr)
            return None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found beside perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        sheet = json.load(f)["per_layer" if args.trace else "end_to_end"]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    # A terminated wrapper stops the benchmark too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        lines = child.communicate()[0].splitlines()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
    if child.returncode or not lines:
        return child.returncode or 1
    print("\n".join(lines[:-1]), flush=True)
    result = complete(json.loads(lines[-1]), sheet, fill=bool(args.trace))
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
