#!/usr/bin/env python3
"""Builds and runs the truthcast perfbench.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench (Release) into .bench_build/perfbench; later calls only re-run
the incremental build. The benchmark's result object is the last line of
standard output. Any failed correctness gate, invalid run or build error
exits non-zero without printing a result.

--smoke runs every workload at tiny sizes, traced and untraced, checks that
every metric BENCHMARK.json names is printed with its unit, and checks that
a deliberately perturbed payment makes each workload fail.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("fleet-zipf", "engine-churn", "price-scale")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(args):
    """Runs perfbench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.strip().splitlines()


def parse_result(lines):
    """The result object on the last line, or None when it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if result["correct"] is not True or result["attempted"] < 1:
        return None
    for metric in result["metrics"].values():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None
    return result


def bench_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--git-sha", git_sha()]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{workload}-seed{seed}-trace.json")]
    return args + list(extra)


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_binary(
                bench_args(workload, 1, 2, trace, ["--tiny"]))
            result = parse_result(lines) if code == 0 else None
            tag = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{tag}: no valid result (exit {code})")
                continue
            got = result["metrics"]
            for name, unit in wanted[trace].items():
                if name not in got:
                    problems.append(f"{tag}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{tag}: metric {name} has unit "
                                    f"{got[name]['unit']}, want {unit}")
            print(f"smoke {tag}: {len(got)} metrics, attempted "
                  f"{result['attempted']}", flush=True)
        code, lines = run_binary(
            bench_args(workload, 1, 2, 0, ["--tiny", "--perturb"]))
        if code == 0 or parse_result(lines) is not None:
            problems.append(f"{workload}: a perturbed payment did not fail")
        else:
            print(f"smoke {workload} --perturb: failed as required "
                  f"(exit {code})", flush=True)
    code, lines = run_binary(
        bench_args("price-scale", 1, 2, 1, ["--tiny", "--perturb"]))
    if code == 0 or parse_result(lines) is not None:
        problems.append("traced run: a perturbed payment did not fail")
    for p in problems:
        log(f"SMOKE FAILED {p}")
    if not problems:
        print("smoke: all workloads emit every metric; perturbed payments "
              "fail", flush=True)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload + metric checks")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, lines = run_binary(
        bench_args(args.workload, args.seed, args.seconds, args.trace))
    if code != 0:
        log(f"perfbench exited {code}; no result")
        return code
    if parse_result(lines) is None:
        log("perfbench printed no valid result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
