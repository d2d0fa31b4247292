#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartiles of
its values, as a share of their median.

Run it from the root of the repository, e.g.

    python3 perfbench/steadiness.py --workloads tenants-churn --seeds 1 2 3 4 5 --out runs.json

Each run is `bash perfbench/run.sh --workload W --seed S --seconds N --trace 0`.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="write every run's metrics and the spreads here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": seconds, "workloads": {}}
    ok = True
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                ok = False
            runs.append({"seed": seed, "correct": res["correct"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in sorted(runs[-1]["metrics"].items())), flush=True)
        spreads = {}
        for name in bounds:
            vals = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spreads[name] = (q3 - q1) / statistics.median(vals)
            flag = "" if spreads[name] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:20s} median {statistics.median(vals):12.6g}  spread {spreads[name]:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        report["workloads"][w] = {"runs": runs, "spreads": spreads}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if not ok:
        sys.exit("some run failed its output checks")


if __name__ == "__main__":
    main()
