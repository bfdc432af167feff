#!/usr/bin/env python3
"""Small-size self-test of the aurv benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks that perfbench/metrics.json and
BENCHMARK.json name the same workloads and metrics, then runs every workload with --scale small, untraced and
traced, and checks that each run passes every output check and emits
every metric BENCHMARK.json lists for its mode. Takes about a minute after
the harness is built. Exit status 0 when everything holds.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    problems = []

    workloads = [w["name"] for w in benchmark["workloads"]]
    if sorted(workloads) != sorted(manifest["workloads"]):
        problems.append(f"workloads differ: {workloads} vs {sorted(manifest['workloads'])}")
    for kind in ("end_to_end", "per_layer"):
        described = {name: entry for name, entry in manifest[kind].items()
                     if not entry.get("reported_only")}
        listed = {m["name"] for m in benchmark[kind]}
        if listed != set(described):
            problems.append(f"{kind}: BENCHMARK.json lists {sorted(listed - set(described))} "
                            f"not in metrics.json, metrics.json lists "
                            f"{sorted(set(described) - listed)} not in BENCHMARK.json")
        if kind == "per_layer":
            for name, entry in described.items():
                if entry["layer"] not in manifest["layers"]:
                    problems.append(f"{name}: unknown layer {entry['layer']!r}")

    for workload in workloads:
        for trace in ("0", "1"):
            command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", trace, "--scale", "small"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(done.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {done.returncode})\n"
                                f"{done.stderr[-2000:]}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: exit {done.returncode}, correct {result['correct']}, "
                                f"failed {result['failed']}\n{done.stdout[-2000:]}")
            listed = benchmark["per_layer" if trace == "1" else "end_to_end"]
            missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{label}: metrics missing: {missing}")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"{len(result['metrics'])} metrics", flush=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
