#!/usr/bin/env python3
"""A/A summary: `aa.py BENCHMARK.json <dir>` reads the result lines
`run.sh --repeat N` left in <dir>/aa-<workload>-<trace>.jsonl and prints,
per metric and workload, the median, the quartiles, and whether the
spread (interquartile distance over the median) sits inside the metric's
bound. Per-layer metrics have no bound; their spread is printed only."""
import glob
import json
import os
import statistics
import sys


def main(bench_path, out_dir):
    bench = json.load(open(bench_path))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<20}{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread%':>9}{'bound%':>8}  inside")
    worst = 0.0
    for path in sorted(glob.glob(os.path.join(out_dir, "aa-*.jsonl"))):
        workload = os.path.basename(path)[3:-8]
        runs = [json.loads(line) for line in open(path) if line.strip()]
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = abs(q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            if bound is None:
                verdict, shown = "", "-"
            else:
                verdict = "yes" if spread <= bound else "NO"
                shown = f"{100 * bound:.0f}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            if bound is not None or med:
                print(f"{workload:<20}{name:<34}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{100 * spread:>9.2f}{shown:>8}  {verdict}")
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: {len(bad)} of {len(runs)} runs failed an output check or an operation")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
