#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload once per seed, for two sets of seeds taken interleaved
(set A run, set B run, set A run, ...), and prints, per set and per
end-to-end metric, the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), plus how far set B's median
sits from set A's. The metrics of the run line (decision percentiles and
simulated outcomes) are summarized the same way, marked "(run)". Run from
the repository root after building once with perfbench/run.sh:

    python3 perfbench/spread.py --seeds 10 --seconds 10 --out .bench_build/spread.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ["paper-sweep", "manycore-1024", "fleet-brownout", "fullsim-xcheck"]


def run(workload, seed, seconds):
    cmd = [".bench_build/perfbench", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run:\n" + "\n".join(lines[:-1]))
    values = {k: v["value"] for k, v in res["metrics"].items()}
    for k, v in json.loads(lines[-2])["run"].get("metrics", {}).items():
        values[k + " (run)"] = v["value"]
    return values


def summarize(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": abs(q[2] - q[0]) / abs(med) if med else None,
            "min": min(values), "max": max(values), "n": len(values), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    report = {}
    for w in args.workloads.split(","):
        sets = {"A": {}, "B": {}}
        t0 = time.time()
        for i in range(args.seeds):
            for name, seed in (("A", 1 + i), ("B", 101 + i)):
                for k, v in run(w, seed, args.seconds).items():
                    sets[name].setdefault(k, []).append(v)
        report[w] = {"wall_s": time.time() - t0}
        print(f"{w}  ({report[w]['wall_s']:.0f} s)")
        for k in sorted(sets["A"]):
            a, b = summarize(sets["A"][k]), summarize(sets["B"][k])
            shift = (b["median"] - a["median"]) / a["median"] if a["median"] else None
            report[w][k] = {"A": a, "B": b, "median_shift": shift}
            fmt = lambda x: "-" if x is None else f"{x:7.4f}"
            print(f"  {k:24s} A {a['median']:12.5g} iqr {fmt(a['iqr_share'])}   "
                  f"B {b['median']:12.5g} iqr {fmt(b['iqr_share'])}   B/A-1 {fmt(shift)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
