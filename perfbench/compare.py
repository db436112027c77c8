#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares two of them.

    python3 perfbench/compare.py collect OUT.jsonl [--runs 10] [--seed0 1]
                                 [--workloads a,b] [--trace 0|1]
    python3 perfbench/compare.py compare A.jsonl B.jsonl

`collect` runs perfbench/run.py once per (workload, seed), seeds seed0,
seed0+1, ..., and appends one JSON line per run to OUT.jsonl:
{"workload", "seed", "trace", "result"}. Run it from the repository root.

`compare` reports, per workload and end-to-end metric, each set's median,
first and third quartiles (statistics.quantiles, n=4) and spread (the
interquartile distance as a share of the median), then whether the two
sets agree within the metric's bound in BENCHMARK.json:
  * each set's spread is within the bound (not required of setup_s);
  * B's median is not worse than A's by more than the bound;
  * the share of failed operations is exactly the same in both sets.
It exits 1 if any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as out:
        for name in names:
            for i in range(args.runs):
                seed = args.seed0 + i
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr[-2000:])
                    sys.exit("run failed: %s seed %d" % (name, seed))
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                    name, seed, result["correct"], result["attempted"],
                    result["failed"]), file=sys.stderr)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(args):
    bench = load_benchmark()
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    ok = True
    header = "%-16s %-14s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %5s  %s" % (
        "workload", "metric", "A median", "A q1", "A q3", "A sprd",
        "B median", "B q1", "B q3", "B sprd", "B-A", "bound", "verdict")
    print(header)
    print("-" * len(header))
    for w in bench["workloads"]:
        name = w["name"]
        a, b = a_runs.get(name, []), b_runs.get(name, [])
        if len(a) < 2 or len(b) < 2:
            print("%-16s needs at least two runs in each set" % name)
            ok = False
            continue
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            av = [r["metrics"][metric]["value"] for r in a]
            bv = [r["metrics"][metric]["value"] for r in b]
            am, aq1, aq3, asp = summary(av)
            bm, bq1, bq3, bsp = summary(bv)
            worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
            problems = []
            if metric != "setup_s" and asp > bound:
                problems.append("A spread")
            if metric != "setup_s" and bsp > bound:
                problems.append("B spread")
            if worse > bound:
                problems.append("B worse")
            verdict = "agree" if not problems else "DIFFER: " + ", ".join(problems)
            ok = ok and not problems
            print("%-16s %-14s %12.6g %12.6g %12.6g %6.1f%% | %12.6g %12.6g %12.6g %6.1f%% | %+6.1f%% %4.0f%%  %s" % (
                name, metric, am, aq1, aq3, 100 * asp, bm, bq1, bq3,
                100 * bsp, 100 * worse, 100 * bound, verdict))
        af = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        bf = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        correct = all(r["correct"] for r in a + b)
        same = af == bf and correct
        ok = ok and same
        print("%-16s failed share A=%.6g B=%.6g, all correct=%s: %s" % (
            name, af, bf, correct, "agree" if same else "DIFFER"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, default=0, choices=(0, 1))
    k = sub.add_parser("compare")
    k.add_argument("a")
    k.add_argument("b")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
