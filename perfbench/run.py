#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build), relative to the checkout root; build output goes to stderr.
The last stdout line is the benchmark's JSON result; it is printed only when
its metric names and units match BENCHMARK.json.  Exit codes: the
benchmark's own (0 ok, 1 wrong output or invalid run), 2 when the program
cannot be built or the environment would change what is measured.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configures (once) and builds the perfbench targets; returns the dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/; run from a full checkout")
    bd = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (bd / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bd),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bd), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bd


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("OSS_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set")

    bd = build()
    cmd = [str(bd / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(bd / f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode == 2 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}", proc.returncode or 1)

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result line", 1)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        fail(f"metrics or units differ from BENCHMARK.json: {diff}", 1)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
