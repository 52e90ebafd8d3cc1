#!/usr/bin/env python3
"""Builds and runs the checkpoint-cycle benchmark (ckptbench).

Usage, from the root of a checkout:

    python3 ckptbench/run.py --workload micro-calc --seed 1 --seconds 10 \
        --trace 0

Workloads: micro-calc, tpcc-pcalc, zipf-open (see BENCHMARK.json for why
each was chosen). The binary is built from ../src with CMake into the
directory named by $CARGO_TARGET_DIR (default .bench_build), beside a
scratch directory for checkpoints and command logs, which is removed after
the run, and the Chrome trace of a traced run.

--trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
runs an untraced and a traced pass, prints the per-layer span table, the
per-layer metrics, tools/trace_summary.py's view of the written trace and
trace.overhead_pct. The last line of stdout is always the JSON result
{"correct", "attempted", "failed", "metrics"}; a build or run failure
exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir() / "ckptbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "--target", "ckptbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"ckptbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = out / "ckptbench"
    return binary if binary.is_file() else None


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one benchmark invocation; returns (stdout lines, parsed
    result, trace path or None), or None on failure."""
    root = build_dir()
    work_dir = root / "ckptbench-work" / f"{workload}-{os.getpid()}"
    trace_out = root / "ckptbench-traces" / f"{workload}-seed{seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds:g}", f"--trace={1 if trace else 0}",
           f"--work_dir={work_dir}", f"--trace_out={trace_out}"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ckptbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"ckptbench: exited with {proc.returncode}", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("ckptbench: no result line", file=sys.stderr)
        return None
    return lines, result, (trace_out if trace and trace_out.is_file()
                           else None)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    ran = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1, smoke=args.smoke)
    if ran is None:
        return 1
    lines, _, trace_path = ran
    print("\n".join(lines[:-1]))
    summary_tool = REPO_ROOT / "tools" / "trace_summary.py"
    if trace_path is not None and summary_tool.is_file():
        print(f"\n$ tools/trace_summary.py {trace_path.name}", flush=True)
        subprocess.run([sys.executable, str(summary_tool), str(trace_path),
                        "--cat", "checkpoint"], stderr=sys.stderr)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
