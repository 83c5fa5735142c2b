#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record it.

Runs every workload (or those named) once per seed with tracing off and
writes, per workload and end-to-end metric, the median, the quartiles and
the interquartile range as a share of the median, next to the host
fingerprint and the bounds in BENCHMARK.json. Before each run it times a
fixed pure-Python loop; that loop's spread is the host's own noise floor.
Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness-1.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    host = next((l[len("host: "):] for l in proc.stderr.splitlines() if l.startswith("host: ")), None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), (json.loads(host) if host else None)


def calibrate():
    """Seconds a fixed pure-Python loop takes: the host's own speed, which
    drifts with the load of whatever shares the machine."""
    t = time.perf_counter()
    s = 0
    for i in range(2_000_000):
        s += i * i % 7
    return time.perf_counter() - t


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    listed = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or listed
    record = {"run_seconds": seconds, "runs": args.runs, "host": None,
              "measured": time.strftime("%Y-%m-%d"), "workloads": {}}
    host_loop = []
    for w in workloads:
        per_metric = {}
        for i in range(args.runs):
            seed = i + 1
            host_loop.append(calibrate())
            result, host = run_once(w, seed, seconds)
            record["host"] = record["host"] or host
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed} was not correct: {result}")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary = {}
        for name, values in per_metric.items():
            s = summarize(values)
            s["bound"] = bounds.get(name)
            summary[name] = s
            flag = ""
            if s["bound"] and name != "setup_s" and s["iqr_share"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w:16} {name:24} median {s['median']:>14.6g}  "
                  f"iqr/median {s['iqr_share']:.4f}  bound {s['bound']}{flag}", flush=True)
        record["workloads"][w] = {"in_benchmark": w in listed, "metrics": summary}
    record["host_loop_s"] = summarize(host_loop)
    print(f"host calibration loop  median {record['host_loop_s']['median']:.4f} s  "
          f"iqr/median {record['host_loop_s']['iqr_share']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
