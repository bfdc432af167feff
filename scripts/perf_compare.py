#!/usr/bin/env python3
"""Compare two revisions on the end-to-end benchmark, in one session.

    python3 scripts/perf_compare.py <base-rev> [<head-rev>] [--workdir DIR]

Run from inside the repository. Each revision (head defaults to HEAD) is
exported with `git archive` into its own directory under a work directory
(a new temporary one unless --workdir names one; an export found there is
reused only if it finished). Each export's perfbench harness is built by a
small warm-up run; every perfbench run re-runs the incremental build, so a
build that was cut short is completed, not reused. Then, for each of 10
pairs and every workload of BENCHMARK.json, one `perfbench/run.py --trace 0`
run of each side (seed 7, the benchmark's `run_seconds`) follows the
other; the side that goes first alternates from pair to pair so that drift
over the session (thermal, other tenants) falls on both sides alike.

For each workload and end-to-end metric the report lists both sides'
median and interquartile range, the number of pairs the head won, the
metric's bound, and a verdict:

  better      every head run beats every base run, or the head's median
              beats the base's by more than the bound
  worse       the head's median is worse than the base's by more than the
              bound (with a zero base median: every head run is worse)
  unresolved  either side's IQR exceeds the bound (relative to the base
              median), so the runs cannot tell
  same        otherwise

It needs no network and no CI, and changes nothing in the repository. The
exit status is 1 when any metric reads `worse` or any run failed its output
checks, 0 otherwise.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEED = 7


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path) -> None:
    """A plain tree of `rev` (no .git): perfbench builds only from its files.
    It is unpacked beside `dest` and renamed into place once complete."""
    partial = dest.with_name(dest.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(partial)], input=archive.stdout, check=True)
    partial.rename(dest)


def run_bench(tree: pathlib.Path, workload: str, seconds: float,
              scale: str = "full") -> dict:
    """One perfbench run; returns its result line (correct, failed, metrics)."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
               "--scale", scale]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"perf_compare: {tree.name} {workload}: no output "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list, head: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * h for h in head) > max(sign * b for b in base):
        return "better"
    b1, base_median, b3 = quartiles(base)
    h1, head_median, h3 = quartiles(head)
    if base_median == 0:  # no scale for a relative change: only separation decides
        if head_median == 0:
            return "same"
        if max(sign * h for h in head) < min(sign * b for b in base):
            return "worse"
        return "unresolved"
    if max(b3 - b1, h3 - h1) / abs(base_median) > bound:
        return "unresolved"
    change = sign * (head_median - base_median) / abs(base_median)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def head_wins(base: list, head: list, better: str) -> int:
    if better == "higher":
        return sum(h > b for b, h in zip(base, head))
    return sum(h < b for b, h in zip(base, head))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--workdir", help="where the exports go (default: a new temp dir)")
    args = parser.parse_args()

    revs = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "head": git("rev-parse", "--verify", args.head + "^{commit}")}
    work = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="perf_compare_")).resolve()
    trees = {side: work / f"{side}-{rev[:12]}" for side, rev in revs.items()}
    for side, tree in trees.items():
        if not tree.exists():
            export(revs[side], tree)
    benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    for side, tree in trees.items():  # builds .bench_build/ in each export
        print(f"building {side} {revs[side][:12]} in {tree}", file=sys.stderr, flush=True)
        warm = run_bench(tree, workloads[0], 1, scale="small")
        if warm["exit"] != 0:
            raise SystemExit(f"perf_compare: the {side} warm-up run failed")

    samples = {w: {"base": [], "head": []} for w in workloads}
    failures = 0
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                result = run_bench(trees[side], workload, seconds)
                if result["exit"] != 0 or not result["correct"] or result["failed"]:
                    failures += 1
                samples[workload][side].append(
                    {name: entry["value"] for name, entry in result["metrics"].items()})
                print(f"pair {pair + 1}/{PAIRS} {workload} {side} done",
                      file=sys.stderr, flush=True)

    print(f"base {revs['base'][:12]}  head {revs['head'][:12]}  "
          f"{PAIRS} alternating pairs, --seconds {seconds:g}, --seed {SEED}")
    header = (f"{'workload':<14} {'metric':<16} {'base median':>12} {'base IQR':>10} "
              f"{'head median':>12} {'head IQR':>10} {'head wins':>9} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            base = [s[name] for s in samples[workload]["base"]]
            head = [s[name] for s in samples[workload]["head"]]
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            call = verdict(base, head, metric["better"], metric["bound"])
            worse += call == "worse"
            print(f"{workload:<14} {name:<16} {bm:>12.4g} {b3 - b1:>10.3g} {hm:>12.4g} "
                  f"{h3 - h1:>10.3g} {head_wins(base, head, metric['better']):>5}/{len(head):<3} "
                  f"{metric['bound']:>6.2f}  {call}")
    if failures:
        print(f"{failures} run(s) failed their output checks")
    sys.exit(1 if worse or failures else 0)


if __name__ == "__main__":
    main()
