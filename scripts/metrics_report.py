#!/usr/bin/env python3
"""Inspect aurv_sweep --metrics-out snapshots.

Subcommands:

    python3 scripts/metrics_report.py show metrics.json
        Pretty-print one snapshot: run manifest, phase timings, and the
        counter/gauge/histogram tables grouped by subsystem prefix.

    python3 scripts/metrics_report.py diff before.json after.json \
            [--fail-on NAME=PCT ...]
        Counter deltas and timing ratios between two snapshots of the
        same scenario (e.g. before/after an optimisation, or 1-thread
        vs 4-thread). Counters are expected to be thread-count-invariant;
        a nonzero counter delta between thread configurations is a
        determinism smell worth chasing.

        Each --fail-on NAME=PCT turns a drift into a hard failure: the
        command exits nonzero when counter NAME moved by more than PCT
        percent of its before value (in either direction; PCT=0 demands
        exact equality, and any growth from a zero baseline trips the
        threshold). Designed for CI gates, e.g.
        --fail-on vfs.retries=0 --fail-on engine.events=5.

    python3 scripts/metrics_report.py validate metrics.json
        Check the snapshot against scripts/metrics_schema.json (schema
        version, required manifest fields, value shapes). Exits nonzero
        with a diagnostic on the first violation. Used by the CI
        metrics-smoke job.

Stdlib-only on purpose: the validator is a hand-rolled checker driven by
the committed schema file, not a jsonschema dependency.
"""

import json
import pathlib
import sys

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent / "metrics_schema.json"


def load(path: str) -> dict:
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"{path}: {error}")
    if not isinstance(snapshot, dict):
        raise SystemExit(f"{path}: top level is not a JSON object")
    return snapshot


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def is_uint(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_scalar(path: str, where: str, shape: str, value) -> None:
    ok = is_uint(value) if shape == "uint" else is_int(value)
    if not ok:
        raise SystemExit(f"{path}: {where} = {value!r} is not a {shape}")


def validate(path: str) -> dict:
    with SCHEMA_PATH.open() as handle:
        schema = json.load(handle)
    snapshot = load(path)

    for key in schema["required_top"]:
        if key not in snapshot:
            raise SystemExit(f"{path}: missing top-level key {key!r}")
    if snapshot["schema"] != schema["schema"]:
        raise SystemExit(f"{path}: schema {snapshot['schema']!r}, expected {schema['schema']}")
    if snapshot["kind"] != schema["kind"]:
        raise SystemExit(f"{path}: kind {snapshot['kind']!r}, expected {schema['kind']!r}")

    run = snapshot["run"]
    for key in schema["required_run"]:
        if key not in run:
            raise SystemExit(f"{path}: missing run.{key}")
    for key in schema["required_build"]:
        if key not in run["build"]:
            raise SystemExit(f"{path}: missing run.build.{key}")
    if run["kind"] not in schema["run_kinds"]:
        raise SystemExit(f"{path}: run.kind {run['kind']!r} not in {schema['run_kinds']}")
    if not is_uint(run["threads"]) or run["threads"] < 1:
        raise SystemExit(f"{path}: run.threads = {run['threads']!r} is not a positive integer")
    wall_ms = snapshot["wall_ms"]
    if not isinstance(wall_ms, (int, float)) or isinstance(wall_ms, bool) or wall_ms < 0:
        raise SystemExit(f"{path}: wall_ms = {wall_ms!r} is not a non-negative number")

    for family, shape in schema["families"].items():
        section = snapshot[family]
        if not isinstance(section, dict):
            raise SystemExit(f"{path}: {family} is not an object")
        for name, value in section.items():
            where = f"{family}.{name}"
            if isinstance(shape, str):
                check_scalar(path, where, shape, value)
                continue
            # Structured entry (histograms / timers): a dict of named fields.
            if not isinstance(value, dict):
                raise SystemExit(f"{path}: {where} is not an object")
            for field, field_shape in shape.items():
                if field not in value:
                    raise SystemExit(f"{path}: {where} missing field {field!r}")
                if field_shape == "uint-map":
                    if not isinstance(value[field], dict):
                        raise SystemExit(f"{path}: {where}.{field} is not an object")
                    for bucket, count in value[field].items():
                        check_scalar(path, f"{where}.{field}[{bucket}]", "uint", count)
                else:
                    check_scalar(path, f"{where}.{field}", field_shape, value[field])
    return snapshot


# ---------------------------------------------------------------------------
# show
# ---------------------------------------------------------------------------


def group_by_prefix(section: dict) -> dict:
    groups: dict = {}
    for name in sorted(section):
        prefix = name.split(".", 1)[0]
        groups.setdefault(prefix, []).append(name)
    return groups


def format_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.2f} us"
    return f"{ns} ns"


def show(path: str) -> None:
    snapshot = load(path)
    run = snapshot.get("run", {})
    build = run.get("build", {})
    print(f"{path}: {run.get('kind', '?')} of {run.get('spec', '?')}")
    print(f"  fingerprint {run.get('fingerprint', '?')}, threads {run.get('threads', '?')}, "
          f"{build.get('compiler', '?')} {build.get('build_type', '?')}")
    if "config" in run:
        pairs = ", ".join(f"{k}={v}" for k, v in run["config"].items())
        print(f"  config: {pairs}")
    print(f"  wall: {snapshot.get('wall_ms', 0):.1f} ms")

    counters = snapshot.get("counters", {})
    if counters:
        print("\ncounters:")
        for prefix, names in group_by_prefix(counters).items():
            print(f"  [{prefix}]")
            for name in names:
                print(f"    {name:<28} {counters[name]:>14,}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        print("\ngauges:")
        for name in sorted(gauges):
            print(f"    {name:<28} {gauges[name]:>14,}")
    timers = snapshot.get("timers", {})
    if timers:
        print("\ntimers:")
        for name in sorted(timers):
            entry = timers[name]
            total, count = entry["ns"], entry["count"]
            mean = format_ns(total // count) if count else "-"
            print(f"    {name:<28} {format_ns(total):>12}  x{count}  (mean {mean})")
    histograms = snapshot.get("histograms", {})
    if histograms:
        print("\nhistograms:")
        for name in sorted(histograms):
            entry = histograms[name]
            print(f"    {name}: count {entry['count']:,}, sum {entry['sum']:,}")
            buckets = entry.get("buckets", {})
            peak = max(buckets.values(), default=0)
            for lower in sorted(buckets, key=int):
                count = buckets[lower]
                bar = "#" * max(1, round(40 * count / peak)) if peak else ""
                print(f"      >= {lower:<12} {count:>12,} {bar}")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def parse_fail_on(spec: str) -> tuple:
    """Parses one NAME=PCT threshold; returns (counter_name, pct)."""
    name, equals, pct_text = spec.partition("=")
    if not equals or not name:
        raise SystemExit(f"--fail-on {spec!r}: expected NAME=PCT")
    try:
        pct = float(pct_text)
    except ValueError:
        raise SystemExit(f"--fail-on {spec!r}: {pct_text!r} is not a number")
    if pct < 0:
        raise SystemExit(f"--fail-on {spec!r}: PCT must be >= 0")
    return name, pct


def diff(before_path: str, after_path: str, fail_on=()) -> None:
    before, after = load(before_path), load(after_path)
    b_run, a_run = before.get("run", {}), after.get("run", {})
    print(f"before: {before_path} ({b_run.get('kind', '?')}, threads {b_run.get('threads', '?')})")
    print(f"after : {after_path} ({a_run.get('kind', '?')}, threads {a_run.get('threads', '?')})")
    if b_run.get("fingerprint") != a_run.get("fingerprint"):
        print("note  : different spec fingerprints — counter deltas compare different work")

    b_counters = before.get("counters", {})
    a_counters = after.get("counters", {})
    changed = []
    for name in sorted(set(b_counters) | set(a_counters)):
        b_value, a_value = b_counters.get(name, 0), a_counters.get(name, 0)
        if b_value != a_value:
            changed.append((name, b_value, a_value))
    if changed:
        print("\ncounter deltas:")
        for name, b_value, a_value in changed:
            print(f"    {name:<28} {b_value:>14,} -> {a_value:<14,} ({a_value - b_value:+,})")
    else:
        print("\ncounters identical (as expected for the same spec at any thread count)")

    b_wall, a_wall = before.get("wall_ms", 0), after.get("wall_ms", 0)
    if b_wall and a_wall:
        print(f"\nwall_ms: {b_wall:.1f} -> {a_wall:.1f}  ({a_wall / b_wall:.2f}x)")
    b_timers, a_timers = before.get("timers", {}), after.get("timers", {})
    shared = sorted(set(b_timers) & set(a_timers))
    if shared:
        print("timer ratios (after/before, total ns):")
        for name in shared:
            b_ns, a_ns = b_timers[name]["ns"], a_timers[name]["ns"]
            ratio = f"{a_ns / b_ns:.2f}x" if b_ns else "-"
            print(f"    {name:<28} {format_ns(b_ns):>12} -> {format_ns(a_ns):<12} {ratio}")

    # Threshold gates: each violation is reported, then one nonzero exit.
    violations = []
    for name, pct in fail_on:
        b_value, a_value = b_counters.get(name, 0), a_counters.get(name, 0)
        delta = abs(a_value - b_value)
        if delta == 0:
            continue
        if b_value == 0:
            violations.append(f"{name}: {b_value:,} -> {a_value:,} "
                              f"(grew from a zero baseline; threshold {pct:g}%)")
        elif delta * 100.0 > pct * b_value:
            violations.append(f"{name}: {b_value:,} -> {a_value:,} "
                              f"({delta * 100.0 / b_value:.2f}% > {pct:g}%)")
    if violations:
        print("\nFAIL: counter thresholds exceeded:")
        for violation in violations:
            print(f"    {violation}")
        raise SystemExit(1)
    if fail_on:
        print(f"\nall {len(fail_on)} --fail-on threshold(s) satisfied")


def main() -> None:
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    command, arguments = sys.argv[1], sys.argv[2:]
    if command == "show" and len(arguments) == 1:
        show(arguments[0])
    elif command == "diff" and len(arguments) >= 2:
        positional, fail_on, k = [], [], 0
        while k < len(arguments):
            if arguments[k] == "--fail-on":
                if k + 1 >= len(arguments):
                    raise SystemExit("--fail-on needs a NAME=PCT value")
                fail_on.append(parse_fail_on(arguments[k + 1]))
                k += 2
            else:
                positional.append(arguments[k])
                k += 1
        if len(positional) != 2:
            raise SystemExit(__doc__)
        diff(positional[0], positional[1], fail_on)
    elif command == "validate" and len(arguments) == 1:
        validate(arguments[0])
        print(f"{arguments[0]}: valid metrics-snapshot (schema 1)")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main()
