#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig6_staggered --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its log to stderr. The driver's report is passed through, and its last
line is narrowed to the metrics BENCHMARK.json declares for the mode:
end_to_end for --trace 0, per_layer for --trace 1. A per-layer metric the
workload does not produce reads 0, because that layer was idle. An end-to-end
metric that is missing, in the wrong unit or not positive counts as a failed
check. The exit code is nonzero when the build fails, the sources are
missing, or a check fails.
"""

import json
import os
import shutil
import subprocess
import sys


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    steps = []
    # Once configured, `cmake --build` re-runs the configure step by itself
    # whenever a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] +
                     (["-G", "Ninja"] if shutil.which("ninja") else []))
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def narrow(result, declared, trace):
    """Keeps the declared metrics of `result`, in declared order."""
    metrics = {}
    for spec in declared:
        got = result["metrics"].get(spec["name"])
        if got is None and trace:
            got = {"value": 0.0, "unit": spec["unit"]}
        problem = None
        if got is None:
            problem = "not measured"
        elif got["unit"] != spec["unit"]:
            problem = f"unit {got['unit']}, declared {spec['unit']}"
        elif not trace and not got["value"] > 0:
            problem = f"value {got['value']} is not positive"
        if problem:
            print(f"CHECK FAILED: {spec['name']}: {problem}")
            result["attempted"] += 1
            result["failed"] += 1
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    args = sys.argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no reproduction sources under {root}/src; run from a full checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    declared = bench["per_layer"] if trace else bench["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)
    done = subprocess.run([os.path.join(build_dir, "perfbench")] + args, cwd=root,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    final = narrow(result, declared, trace)
    print(json.dumps(final))
    sys.exit(done.returncode if done.returncode != 0 else (0 if final["correct"] else 1))


if __name__ == "__main__":
    main()
