#!/usr/bin/env python3
"""Build and run the serving benchmark; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench.exe with dune (into $CARGO_TARGET_DIR, default
.bench_build), then starts it as a fresh process and relays its report.
The last line of stdout is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def dune():
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def build():
    """Build the benchmark from the checkout's sources; return the exe path."""
    rel = os.path.relpath(HERE)
    cmd = dune() + ["build", "--root", ".", "--build-dir", build_dir(),
                    "--profile", "release", "--display", "quiet",
                    os.path.join(".", rel, "perfbench.exe")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.exit(f"perfbench: build failed (exit {proc.returncode})")
    return os.path.join(build_dir(), "default", rel, "perfbench.exe")


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(exe, args):
    """One fresh benchmark process; returns (stdout, result)."""
    out = os.path.join(build_dir(), "perfbench-run")
    os.makedirs(out, exist_ok=True)
    proc = subprocess.Popen([exe, "--out", out] + args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        sys.exit(f"perfbench: run failed (exit {proc.returncode})")
    return stdout, json.loads(lines[-1])


def check_names(result, trace):
    """Every metric BENCHMARK.json names, with its unit, and nothing else."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [] if got == want else [f"metrics {sorted(got.items())} != {sorted(want.items())}"]


def self_test(exe):
    """Toy-size runs: all metrics present with units, clean runs correct,
    and a deliberately falsified store answer rejected."""
    problems = []
    for workload in ("point", "versioned_scan", "replicated"):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--toy"]
        for trace in (0, 1):
            _, result = run_once(exe, base + ["--trace", str(trace)])
            problems += [f"{workload} trace={trace}: {p}" for p in check_names(result, trace)]
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: clean run not correct: {result}")
        _, result = run_once(exe, base + ["--trace", "0", "--falsify", "1"])
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a falsified answer was not caught: {result}")
        print(f"self-test {workload}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["point", "versioned_scan", "replicated"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("need --workload, --seed, --seconds and --trace (or --self-test)")
    exe = build()
    if a.self_test:
        sys.exit(self_test(exe))
    stdout, result = run_once(exe, ["--workload", a.workload, "--seed", str(a.seed),
                                    "--seconds", str(a.seconds), "--trace", str(a.trace)])
    problems = check_names(result, a.trace == 1)
    if problems:
        sys.stderr.write(stdout)
        sys.exit("perfbench: " + "; ".join(problems))
    sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
