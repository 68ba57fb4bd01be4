#!/usr/bin/env python3
"""The benchmark's own test: every workload in smoke mode, on two seeds.

    python3 perfbench/smoke_test.py

For each workload it runs the smoke mode (tiny inputs, a fixed amount of
work) untraced on seeds 1 and 2 and traced on seed 1, and checks that

  * every run exits 0 and reports correct, with no failed operation;
  * the JSON line carries exactly the metrics BENCHMARK.json lists, with
    their units (end-to-end untraced, per-layer traced), and no end-to-end
    metric reads 0;
  * both seeds give the same deterministic fields: plan iteration times,
    solver work counts, verdicts, memo hit ratio, executed bytes and
    messages.

Exits 0 when all checks hold.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["compile_cold", "replan_warm", "serve_mixed", "exec_train"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    deterministic = json.loads(lines[-2])["deterministic"]
    return proc.returncode, result, deterministic, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL: " + what)

    for workload in WORKLOADS:
        runs = {}
        for seed, trace in [(1, 0), (2, 0), (1, 1)]:
            code, result, deterministic, stdout = run(workload, seed, trace)
            tag = "%s seed %d trace %d" % (workload, seed, trace)
            runs[(seed, trace)] = deterministic
            expect(code == 0, tag + ": exit code %d\n%s" % (code, stdout))
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1, tag + ": not correct: " + json.dumps(result))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == listed[trace], tag + ": metric names/units differ from BENCHMARK.json")
            if trace == 0:
                zero = [name for name, m in result["metrics"].items() if m["value"] == 0]
                expect(not zero, tag + ": end-to-end metrics read 0: %s" % zero)
            print("ok   %s (%d checks)" % (tag, result["attempted"]))
        expect(runs[(1, 0)] == runs[(2, 0)],
               workload + ": deterministic fields differ across seeds:\n  %s\n  %s" %
               (runs[(1, 0)], runs[(2, 0)]))
        expect(len(runs[(1, 0)]) > 0, workload + ": no deterministic fields reported")
        if workload == "replan_warm":
            expect(runs[(1, 0)].get("intra.memo_hit_ratio", {}).get("value") == 1,
                   workload + ": warm re-plans missed the ILP memo")

    print("smoke_test: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
