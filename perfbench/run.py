#!/usr/bin/env python3
"""Repo benchmark entry point: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload fp_ingest --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
the rs library and the perfbench binary into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs reuse that build. An untraced
run (--trace 0) reports the end-to-end metrics, with set-up time taken as
the median over SETUP_PROBES fresh processes; a traced run (--trace 1)
reports the per-layer metrics and writes its spans next to the build.
The last line of standard output is the result as one JSON object.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fp_ingest", "f0_adaptive", "checkpoint")
# Fresh processes timed for setup_s: each pays the fleet's CreateStream
# calls and the process-wide lazy tables they build. Half run before the
# measured run and half after, so the median spans the host's state over
# the whole run.
SETUP_PROBES = 11
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(directory, deadline):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "rs" / "runtime" / "stream_hub.h").is_file():
        fail(f"no rs sources under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (directory / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(directory), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(directory), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return directory / "perfbench"


def run_json(cmd, deadline):
    """Runs the binary; returns (stdout lines before the result, result)."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no result line from {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    directory = build_dir()
    # The run that builds the binary may use the longer first-run allowance.
    first_build = not (directory / "perfbench").is_file()
    binary = build(directory, start + BUILD_BUDGET_S)
    deadline = start + (BUILD_BUDGET_S if first_build else RUN_BUDGET_S)

    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        spans = directory / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        lines, result = run_json(base + ["--seconds", str(args.seconds),
                                         "--trace", "1", "--spans", str(spans)],
                                 deadline)
        lines.append(f"# spans: {spans}")
    else:
        def setup_probes(count):
            return [run_json(base + ["--setup-probe"], deadline)[1]
                    for _ in range(count)]

        probes = setup_probes(SETUP_PROBES // 2 + 1)
        lines, result = run_json(base + ["--seconds", str(args.seconds),
                                         "--trace", "0"], deadline)
        probes += setup_probes(SETUP_PROBES // 2)
        setup = [p["metrics"]["setup_s"]["value"] for p in probes]
        lines.append(f"# setup_s: median of {len(setup)} fresh processes: "
                     + ", ".join(f"{s:.6f}" for s in setup))
        result["metrics"] = {"setup_s": {"value": statistics.median(setup),
                                         "unit": "s"},
                             **result["metrics"]}
        for probe in probes:
            result["correct"] = result["correct"] and probe["correct"]
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]

    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
