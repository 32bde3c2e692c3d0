#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the
library and the benchmark binary (perfbench/CMakeLists.txt) into
.bench_build; later calls reuse that build. NAME is one of the
workloads in BENCHMARK.json, or "all" to run every workload in turn.

The binary prints a human-readable report, then this script prints, as
its last line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics. A
per-layer metric the workload never exercises reads 0. The exit code is
0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure and build the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a full checkout")
    binary_dir = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", binary_dir, "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "perfbench")


def run_workload(binary, build_dir, spec, workload, seed, seconds, trace):
    """Run one workload; return (exit code, selected result object)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", os.path.join(build_dir, "run")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{workload}: benchmark binary printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"{workload}: benchmark binary did not end with a JSON result")

    measured = result["metrics"]
    selected = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{workload}: {name} measured in "
                     f"{measured[name]['unit']}, declared in {unit}")
            selected[name] = measured[name]
        elif trace:
            selected[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{workload}: end-to-end metric {name} missing")
    return proc.returncode, {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": selected,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {names} or all")

    build_dir = os.path.join(ROOT, ".bench_build")
    binary = build(build_dir)
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    exit_code = 0
    for workload in workloads:
        code, result = run_workload(binary, build_dir, spec, workload,
                                    args.seed, seconds, args.trace)
        exit_code = exit_code or code
        results[workload] = result

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
