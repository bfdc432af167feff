#!/usr/bin/env python3
"""Run one workload of the aurv benchmark and print its result.

    python3 perfbench/run.py --workload census_light --seed 7 --seconds 20 --trace 0

Run from the repository root. The harness (perfbench/src, a CMake package
of its own) is built from the repository's src/ tree into .bench_build/ on
first use; later runs rebuild only what changed. Workloads, metrics and
their meaning are listed in BENCHMARK.json and perfbench/metrics.json.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (its Chrome trace lands in .bench_build/out/).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; every line before it is a readable report. Exit status
0 when every output check passed, nonzero otherwise (failed check, build
failure, missing sources, timeout).

--workload all runs every workload in turn, each report followed by its
result line. --scale small shrinks every workload for the self-test
(perfbench/selftest.py).
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
OUT_DIR = BUILD_ROOT / "out"
BINARY = BUILD_DIR / "aurv_perfbench"

BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds: float) -> float:
    """A run measures for about `seconds` plus one repeat, set-up and the traced
    pass's geometry replay; twice the request plus a minute covers a host that
    runs at half speed."""
    return 2 * seconds + 60


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "small"])
    return parser.parse_args()


def load_benchmark() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def check_sources() -> None:
    """The harness measures the program in src/; without it there is nothing to run."""
    src = ROOT / "src"
    if not src.is_dir() or not any(src.rglob("*.cpp")):
        fail(f"no program sources under {src}; run from a full checkout")


def source_digest() -> str:
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HARNESS):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def build() -> None:
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HARNESS), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def run_workload(benchmark: dict, workload: str, args: argparse.Namespace) -> int:
    """Runs one workload, prints its report and result line; returns the exit status."""
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale,
               "--out-dir", str(OUT_DIR), "--commit", commit(),
               "--source-digest", source_digest()]
    timeout = run_timeout_s(args.seconds)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s", 4)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {done.returncode})", 5)
    try:
        produced = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} ended without a result line (exit {done.returncode})", 5)
    for line in lines[:-1]:
        print(line)

    # The harness reports name -> value; each unit comes from BENCHMARK.json.
    listed = benchmark["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for metric in listed:
        value = produced["metrics"].get(metric["name"])
        if value is None:
            fail(f"{workload} did not report {metric['name']}", 6)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    result = {"correct": produced["correct"], "attempted": produced["attempted"],
              "failed": produced["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and produced["correct"] else 1


def main() -> None:
    args = parse_args()
    benchmark = load_benchmark()
    workloads = [w["name"] for w in benchmark["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(workloads):
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}, all")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    check_sources()
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    sys.exit(max(run_workload(benchmark, workload, args) for workload in chosen))


if __name__ == "__main__":
    main()
