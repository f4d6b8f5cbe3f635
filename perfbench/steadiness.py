#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark on one commit.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads figs,serve,routed] [--traced]

Run from the root of a source checkout. Runs perfbench/run.py --runs
times per workload, each with another seed, and prints for every
end-to-end metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json, plus the share of failed
operations. It exits non-zero when a spread exceeds its bound, a run's
outputs are wrong or the failed share differs between runs. With --traced it also makes one traced run per workload and
prints the traced end-to-end figures next to the untraced medians, which
is the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


TRACED_E2E = "perfbench: traced end-to-end: "


def run_once(workload, seed, seconds, trace):
    """One run's result object; a traced run's also carries, under
    "traced_end_to_end", the end-to-end figures it measured with spans
    on."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                   out.returncode))
    result = json.loads(lines[-1])
    for line in out.stderr.splitlines():
        if line.startswith(TRACED_E2E):
            result["traced_end_to_end"] = json.loads(
                line[len(TRACED_E2E):])["metrics"]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, bench["run_seconds"], 0)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
            runs.append(r)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("\n%s: failed share %s, all correct: %s" %
              (w, ", ".join("%.6g" % s for s in shares), correct))
        if not correct or len(shares) > 1:
            ok = False
        print("  %-18s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        medians = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound:
                mark, ok = "  OVER", False
            elif bound is not None and spread > bound / 3:
                mark = "  >1/3"
            print("  %-18s %12.5g %12.5g %12.5g %8.4f %6.3f%s" %
                  (name, med, q1, q3, spread, bound or 0, mark))
            medians[name] = med
        if args.traced:
            t = run_once(w, args.first_seed, bench["run_seconds"], 1)
            print("  traced run, per-layer: %s" % ", ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in t["metrics"].items()))
            # Tracing overhead: traced end-to-end figures against the
            # untraced medians.
            traced = t.get("traced_end_to_end", {})
            print("  traced run, end-to-end (vs untraced median): %s" %
                  ", ".join("%s=%.5g (%+.1f%%)" % (
                      k, v["value"],
                      100 * (v["value"] / medians[k] - 1))
                      for k, v in traced.items() if medians.get(k)))
        print(flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
