#!/usr/bin/env python3
"""Run the benchmark several times per workload and print each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--seconds 15] [--trace 0]
                                [--first-seed 1] [--workloads codec_serial,served]

Each run uses another seed. For every end-to-end metric it prints the median
of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for wl in args.workloads.split(","):
        values = {}
        units = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.monotonic()
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", wl,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", args.trace],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - t0)
            if r.returncode != 0:
                print(f"{wl} seed {seed}: exit {r.returncode}")
                ok = False
                continue
            res = json.loads(r.stdout.strip().split("\n")[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} failed")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {wl} ({args.runs} runs, {args.seconds:g} s each; "
              f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        print(f"  {'metric':32} {'median':>12} {'unit':>12} {'IQR/median':>11} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            b = bounds.get(name)
            print(f"  {name:32} {med:12.5g} {units[name]:>12} {spread:11.4f} "
                  f"{'' if b is None else b:>6}")
            if args.values:
                print("    " + " ".join(f"{v:.4g}" for v in vs))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
