#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke scale, untraced and
traced, through the same correctness gate a full run uses.

Run from the root of a checkout:

    python3 ckptbench/smoke_test.py

Each run must report correct == true (recovered digest equals the live
digest, TPC-C condition 1 holds on both states, the open-loop schedule was
kept) and no failed operation, and must print exactly the metrics
BENCHMARK.json names, with their units. A stray CALCDB_* auto-knob
variable must make the binary refuse to run. Exit status 0 on success.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check_run(binary, workload, trace, spec, errors):
    ran = run.run_binary(binary, workload, seed=7, seconds=2, trace=trace,
                         smoke=True)
    label = f"{workload} trace={int(trace)}"
    before = len(errors)
    if ran is None:
        errors.append(f"{label}: run failed")
        return
    _, result, _ = ran
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        errors.append(f"{label}: metrics {got} != BENCHMARK.json {want}")
    if not trace:
        for name, m in result["metrics"].items():
            if not m["value"] > 0:
                errors.append(f"{label}: {name} = {m['value']}")
    print(f"{'ok' if len(errors) == before else 'FAIL'}  {label}",
          flush=True)


def check_env_guard(binary, errors):
    env = dict(os.environ, CALCDB_REPLAY_THREADS="2")
    proc = subprocess.run(
        [str(binary), "--workload=micro-calc", "--seed=1", "--seconds=1",
         "--trace=0", "--smoke",
         f"--work_dir={run.build_dir() / 'ckptbench-work' / 'env-guard'}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("a set CALCDB_* auto-knob variable did not stop the run")


def main():
    spec = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    if binary is None:
        print("FAIL: build", file=sys.stderr)
        return 1
    errors = []
    check_env_guard(binary, errors)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            check_run(binary, workload, trace, spec, errors)
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print("smoke test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
