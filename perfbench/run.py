#!/usr/bin/env python3
"""Build and run one workload of the cf2df source-to-result benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile_mix --seed 1 --seconds 10 --trace 0

builds `perfbench/` (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, runs the workload and prints its result as the last line of
standard output: with `--trace 0` every end-to-end metric of BENCHMARK.json,
with `--trace 1` every per-layer metric, the spans going to
`perfbench/out/`. The line before it records the run: host parallelism,
pool width, git revision, rustc, profile, seed, error rate.

Steadiness report: `--repeat K` runs the workload on seeds seed .. seed+K-1
and prints, per metric, the median, quartiles, min, max and the spread
(quartile distance over median) against the metric's bound.

Exits non-zero, printing no result, if the build fails, a result differs
from the vonneumann oracle, a count fails to repeat, or the run overruns.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_revision():
    """The checkout's commit, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return Path(target_dir) / "release" / "perfbench"


def run_once(binary, args, seed, rustc):
    """Run one workload; return its run record and result."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", git_revision(), "--rustc", rustc]
    if args.trace:
        out = Path("perfbench/out")
        out.mkdir(exist_ok=True)
        cmd += ["--spans", str(out / f"spans-{args.workload}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} seed {seed} overran {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} seed {seed} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{args.workload} seed {seed} printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result, declared):
    """The result must carry exactly the declared metrics, in their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        fail(f"malformed result: {result}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
            fail(f"metric {name} has no numeric value: {m}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}")


def steadiness(args, results, declared):
    bounds = {m["name"]: m.get("bound") for m in declared}
    seeds = f"{args.seed}..{args.seed + args.repeat - 1}"
    print(f"## {args.workload}, trace {args.trace}, {args.seconds} s runs, seeds {seeds}")
    print()
    print("| metric | unit | median | q1 | q3 | min | max | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    spreads = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        spreads[m["name"]] = spread
        bound = bounds[m["name"]]
        print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} "
              f"| {min(values):.6g} | {max(values):.6g} | {spread:.4f} "
              f"| {'-' if bound is None else bound} |")
    print()
    print(json.dumps({"workload": args.workload, "trace": args.trace, "spreads": spreads}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()

    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                               text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"

    if args.repeat <= 0:
        record, result = run_once(binary, args, args.seed, rustc)
        check_result(result, declared)
        print(json.dumps(record))
        print(json.dumps(result))
        return
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        record, result = run_once(binary, args, seed, rustc)
        check_result(result, declared)
        print(json.dumps(record), file=sys.stderr)
        print(json.dumps(result), file=sys.stderr)
        results.append(result)
    steadiness(args, results, declared)


if __name__ == "__main__":
    main()
