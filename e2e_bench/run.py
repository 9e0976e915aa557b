#!/usr/bin/env python3
"""End-to-end host-cost benchmark: build e2e_core from source, run it.

One workload:
    python3 e2e_bench/run.py --workload fig6-mftl-20k --seed 1 \
        --seconds 10 --trace 0
prints the program's report; its last stdout line is the JSON result
({"correct", "attempted", "failed", "metrics"}). The exit code is the
program's: 0 when every output check passed.

Every workload, end-to-end and traced (the one command of README.md):
    python3 e2e_bench/run.py --all [--seed N] [--seconds S]

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, under
the repository root (Release, configured on first use). Each run also
writes a self-describing result document to <build>/results/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fig6-mftl-20k", "fig6-mftl-2m", "fig8-dram-3x3-ro"]
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (once) and build e2e_core; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: simulator sources (src/) not found next to %s"
            % BENCH_DIR)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("error: cmake configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "e2e_core",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("error: build failed")
        return None
    return os.path.join(out, "e2e_core")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace, tiny, rev):
    """Run one workload; return (exit code, stdout)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d%s.json"
                       % (workload, seed, trace, "-tiny" if tiny else ""))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out, "--git-rev", rev]
    if tiny:
        cmd.append("--tiny")
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    sys.stderr.write(res.stderr)
    return res.returncode, res.stdout


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(binary, args, rev):
    """Every workload, end-to-end then traced; non-zero on any failure."""
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_one(binary, workload, args.seed,
                                   args.seconds, trace, args.tiny, rev)
            # Keep the per-run report, but not its JSON line, so the
            # summary below stays the only machine-readable block.
            print("\n".join(stdout.strip().splitlines()[:-1]))
            res = result_line(stdout)
            ok = code == 0 and res is not None and res["correct"]
            if not ok:
                failed.append("%s trace=%d" % (workload, trace))
            if res is not None:
                print("%s trace=%d: correct=%s attempted=%d failed=%d\n"
                      % (workload, trace, res["correct"], res["attempted"],
                         res["failed"]))
    print("summary: %d runs, %d failed%s"
          % (2 * len(WORKLOADS), len(failed),
             "" if not failed else ": " + ", ".join(failed)))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, end-to-end and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small key spaces and windows (smoke runs)")
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("--workload or --all is required")
    if not math.isfinite(args.seconds) or args.seconds < 0:
        p.error("--seconds must be a finite number >= 0")

    binary = build()
    if binary is None:
        return 2
    rev = git_rev()
    if args.all:
        return run_all(binary, args, rev)
    code, stdout = run_one(binary, args.workload, args.seed, args.seconds,
                           args.trace, args.tiny, rev)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
