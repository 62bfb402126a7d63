#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is compiled with CMake from perfbench/CMakeLists.txt, which pulls
in the simulator sources under src/. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
current directory); compiler temporaries stay inside it. Build output and the
driver's human-readable report go to stderr. The last line on stdout is the
driver's JSON result, after its metric names were checked against
BENCHMARK.json. The exit code is the driver's: 0 only when every
correctness check passed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (first time) and builds the driver; returns its path."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return build_dir / "perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not (ROOT / "src").is_dir():
        log(f"simulator sources not found at {ROOT / 'src'}")
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target.resolve() / "perfbench")
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"driver printed no result (exit {done.returncode})")
        return done.returncode or 4
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        log(f"metric names disagree with BENCHMARK.json: missing {missing}, extra {extra}")
        return 5
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
