"""Repeat benchmark runs with interleaved workloads and report their spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads desk-tft,desk-qtft]
                                [--trace 0] [--out FILE]

Runs ``run.py`` once per (seed, workload), one process at a time, cycling
through the workloads for each seed so that slow drift of the host hits
every workload alike.  For each end-to-end metric it prints the median
and the interquartile range as a share of the median, the figure the
bounds in ``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, BENCHMARK_JSON, ROOT


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) with ``statistics.quantiles(n=4)``."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="FIRST-LAST, inclusive")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = p.parse_args(argv)

    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    failures = 0
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                failures += 1
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                if '"correct"' not in proc.stdout:
                    continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            result["seed"] = seed
            results[w].append(result)
            print(f"{w:12s} seed {seed:3d} wall {wall:6.1f} s  correct {result['correct']}",
                  flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for w, runs in results.items():
        if not runs:
            continue
        print(f"\n== {w}: {len(runs)} runs, wall median {statistics.median(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                print(f"  {name:40s} missing in some run")
                continue
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
            print(f"  {name:40s} median {med:12.6g}  iqr/median {rel:7.4f}  "
                  f"bound {bound if bound is not None else '-'}  {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
