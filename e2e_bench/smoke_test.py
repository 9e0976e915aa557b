#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark, in seconds.

Runs every workload at tiny sizes (--tiny: 1/100 of the keys, at
least 2,000, and short windows), end-to-end and traced, and asserts
that each run passes its output checks and reports attempted and
failed operations, and every metric BENCHMARK.json names, finite,
with the declared unit.

    python3 e2e_bench/smoke_test.py
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check_result(res, declared, what):
    errors = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in res:
            errors.append("%s: no %r" % (what, key))
    if errors:
        return errors
    if res["correct"] is not True:
        errors.append("%s: correct is %r" % (what, res["correct"]))
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            errors.append("%s: %s is not a whole number" % (what, key))
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        errors.append("%s: attempted < 1" % what)
    metrics = res["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (what, m["name"]))
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s = %r is not finite"
                          % (what, m["name"], value))
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r, declared %r"
                          % (what, m["name"], got.get("unit"), m["unit"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append("%s: undeclared metrics %s" % (what, sorted(extra)))
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("FAIL: build")
        return 1
    errors = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            what = "%s trace=%d" % (workload, trace)
            code, stdout = run.run_one(binary, workload, seed=1, seconds=0,
                                       trace=trace, tiny=True, rev="smoke")
            res = run.result_line(stdout)
            if code != 0 or res is None:
                errors.append("%s: exit %d, result %r" % (what, code, res))
                continue
            found = check_result(res, declared, what)
            errors += found
            print("%-32s %s" % (what, "ok" if not found else "FAILED"))
    for e in errors:
        print("FAIL:", e)
    print("smoke test %s" % ("passed" if not errors else "FAILED"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
