#!/usr/bin/env python3
"""Validates calcdb metrics JSON against tools/metrics_schema.json.

The engine exports metrics in two forms, both accepted here:

  * one JSON object per file — the bench binaries' --metrics_out dumps
    (bench/bench_common.h ExportMetricsJson);
  * one JSON object per line (JSONL) — obs::StatsReporter period dumps.

Checks, per snapshot object:

  * the four top-level sections (meta/counters/gauges/histograms) exist
    and are objects;
  * every metric name matches the schema's name_pattern (the
    "calcdb.<layer>.<name>" convention, docs/OBSERVABILITY.md);
  * counters are non-negative integers, gauges are integers;
  * histograms carry exactly the summary fields the exporter writes,
    with p50 <= p99 <= p999 <= max whenever count > 0;
  * the schema's required_* metric names are present (CI's smoke-run
    guard: an instrumentation layer that silently stops exporting fails
    the build rather than flat-lining a dashboard);
  * a name in the schema's known_counters, when present, is a counter
    (the layer may not have run, so absence is fine).

Stdlib only — runs anywhere CI has a python3.

Usage:
    validate_metrics.py [--schema SCHEMA.json] FILE [FILE...]
    validate_metrics.py --self-test
Exit status: 0 valid, 1 findings (or self-test failure).
"""

import json
import os
import re
import sys

HISTOGRAM_FIELDS = ("count", "mean_us", "p50_us", "p99_us", "p999_us",
                    "max_us")


def default_schema_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "metrics_schema.json")


def load_snapshots(path):
    """Returns ([snapshot_dict, ...], [error, ...]) for a file that is
    either a single JSON object or JSONL."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return [json.loads(text)], []
    except json.JSONDecodeError:
        pass
    snapshots, errors = [], []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            snapshots.append(json.loads(line))
        except json.JSONDecodeError as e:
            errors.append(f"line {i}: not valid JSON ({e.msg})")
    if not snapshots and not errors:
        errors.append("file holds no JSON object")
    return snapshots, errors


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return is_int(v) or isinstance(v, float)


def validate_snapshot(snap, schema, where):
    errors = []

    def err(msg):
        errors.append(f"{where}: {msg}")

    if not isinstance(snap, dict):
        err("snapshot is not a JSON object")
        return errors
    for section in ("meta", "counters", "gauges", "histograms"):
        if section not in snap:
            err(f"missing top-level section '{section}'")
        elif not isinstance(snap[section], dict):
            err(f"section '{section}' is not an object")
    if errors:
        return errors

    name_re = re.compile(schema["name_pattern"])

    def check_name(section, name):
        if not name_re.match(name):
            err(f"{section} name '{name}' does not match "
                f"{schema['name_pattern']}")

    for name, value in snap["counters"].items():
        check_name("counter", name)
        if not is_int(value) or value < 0:
            err(f"counter '{name}' must be a non-negative integer, "
                f"got {value!r}")
    for name, value in snap["gauges"].items():
        check_name("gauge", name)
        if not is_int(value):
            err(f"gauge '{name}' must be an integer, got {value!r}")
    for name, h in snap["histograms"].items():
        check_name("histogram", name)
        if not isinstance(h, dict):
            err(f"histogram '{name}' is not an object")
            continue
        missing = [f for f in HISTOGRAM_FIELDS if f not in h]
        extra = [f for f in h if f not in HISTOGRAM_FIELDS]
        if missing:
            err(f"histogram '{name}' missing fields {missing}")
        if extra:
            err(f"histogram '{name}' has unknown fields {extra}")
        if missing or extra:
            continue
        fields_ok = True
        for f in HISTOGRAM_FIELDS:
            if f == "mean_us":
                if not is_number(h[f]) or h[f] < 0:
                    err(f"histogram '{name}.{f}' must be a number >= 0, "
                        f"got {h[f]!r}")
                    fields_ok = False
            elif not is_int(h[f]) or h[f] < 0:
                err(f"histogram '{name}.{f}' must be a non-negative "
                    f"integer, got {h[f]!r}")
                fields_ok = False
        if not fields_ok:
            continue
        if h["count"] > 0 and not (
                h["p50_us"] <= h["p99_us"] <= h["p999_us"] <= h["max_us"]):
            err(f"histogram '{name}' percentiles out of order: "
                f"p50={h['p50_us']} p99={h['p99_us']} "
                f"p999={h['p999_us']} max={h['max_us']}")

    for name in schema.get("required_counters", ()):
        if name not in snap["counters"]:
            err(f"required counter '{name}' absent")
    for name in schema.get("required_gauges", ()):
        if name not in snap["gauges"]:
            err(f"required gauge '{name}' absent")
    for name in schema.get("required_histograms", ()):
        if name not in snap["histograms"]:
            err(f"required histogram '{name}' absent")
    for name in schema.get("known_counters", {}).get("names", ()):
        for section in ("gauges", "histograms"):
            if name in snap[section]:
                err(f"known counter '{name}' exported as a "
                    f"{section[:-1]}")
    return errors


def validate_file(path, schema):
    snapshots, errors = load_snapshots(path)
    errors = [f"{path}: {e}" for e in errors]
    for i, snap in enumerate(snapshots):
        where = path if len(snapshots) == 1 else f"{path} (snapshot {i})"
        errors.extend(validate_snapshot(snap, schema, where))
    return errors


# --------------------------------------------------------------------------
# Self-test: the validator must accept a known-good document and reject
# each seeded corruption. Keeps CI's gate honest.
# --------------------------------------------------------------------------

GOOD = {
    "meta": {"bench": "fig2_full_microbench", "ts_us": "12345"},
    "counters": {"calcdb.txn.committed": 100, "calcdb.log.appends": 100,
                 "calcdb.ckpt.CALC.cycles": 2,
                 "calcdb.recovery.entries_skipped": 7},
    "gauges": {"calcdb.memory.value_bytes": 4096,
               "calcdb.log.resident_bytes": 262144},
    "histograms": {
        "calcdb.txn.lock_wait_us":
            {"count": 100, "mean_us": 1.5, "p50_us": 1, "p99_us": 9,
             "p999_us": 12, "max_us": 15},
    },
}

SELF_TEST_CASES = [
    # (should_pass, mutation applied to a deep copy of GOOD)
    (True, lambda d: d),
    (False, lambda d: (d.pop("counters"), d)[1]),
    (False, lambda d: (d["counters"].pop("calcdb.txn.committed"), d)[1]),
    (False, lambda d: (d["counters"].update(
        {"calcdb.txn.committed": -1}), d)[1]),
    (False, lambda d: (d["counters"].update({"not a metric": 1}), d)[1]),
    (False, lambda d: (d["gauges"].update(
        {"calcdb.memory.value_bytes": "big"}), d)[1]),
    (False, lambda d: (d["histograms"]["calcdb.txn.lock_wait_us"].pop(
        "p999_us"), d)[1]),
    (False, lambda d: (d["histograms"]["calcdb.txn.lock_wait_us"].update(
        {"p50_us": 99}), d)[1]),
    (False, lambda d: (d["histograms"].pop("calcdb.txn.lock_wait_us"), d)[1]),
    (False, lambda d: (d["gauges"].pop("calcdb.log.resident_bytes"), d)[1]),
    (True, lambda d: (d["counters"].pop(
        "calcdb.recovery.entries_skipped"), d)[1]),
    (False, lambda d: (d["gauges"].update(
        {"calcdb.recovery.validate_us": 5}), d)[1]),
]


def self_test():
    import copy
    import tempfile

    with open(default_schema_path(), encoding="utf-8") as f:
        schema = json.load(f)
    failures = []
    for idx, (should_pass, mutate) in enumerate(SELF_TEST_CASES):
        doc = mutate(copy.deepcopy(GOOD))
        errors = validate_snapshot(doc, schema, f"case{idx}")
        if should_pass and errors:
            failures.append(f"case {idx}: expected valid, got: {errors}")
        if not should_pass and not errors:
            failures.append(f"case {idx}: corruption not detected")
    # JSONL round-trip through a real file.
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        f.write(json.dumps(GOOD) + "\n" + json.dumps(GOOD) + "\n")
        path = f.name
    try:
        errors = validate_file(path, schema)
        if errors:
            failures.append(f"jsonl case: expected valid, got: {errors}")
    finally:
        os.unlink(path)
    if failures:
        print("validate_metrics self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"validate_metrics self-test: {len(SELF_TEST_CASES) + 1} "
          "cases ok")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    schema_path = default_schema_path()
    files = []
    i = 0
    while i < len(argv):
        if argv[i] == "--schema":
            if i + 1 >= len(argv):
                print("--schema needs a path", file=sys.stderr)
                return 1
            schema_path = argv[i + 1]
            i += 2
            continue
        files.append(argv[i])
        i += 1
    if not files:
        print(__doc__, file=sys.stderr)
        return 1
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)
    all_errors = []
    for path in files:
        all_errors.extend(validate_file(path, schema))
    for e in all_errors:
        print(e)
    if all_errors:
        print(f"validate_metrics: {len(all_errors)} finding(s) in "
              f"{len(files)} file(s)")
        return 1
    print(f"validate_metrics: {len(files)} file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
