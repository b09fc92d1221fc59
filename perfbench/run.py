"""qtft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk-qtft --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The run generates its input CSV from
the seed, times set-up in fresh interpreters, then trains, forecasts and
predicts through qtft's public API.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-module split from a traced run.  Every run
passes the correctness gate or exits non-zero.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from workloads import (BENCH_DIR, OUT_DIR, SRC, WORKLOADS, metric_units, pin_threads,
                       tiny, use_source_tree)
import gendata

SETUP_PROBES = 9
RUN_LIMIT_S = 170    # the whole run, set-up probes included


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: least work per phase, for the benchmark's own tests")
    return p.parse_args(argv)


def setup_probes(workload_name: str, csv_path: str, count: int) -> dict[str, float]:
    """Median of each raw set-up timing over ``count`` fresh interpreters.

    ``setup_s`` is also given normalised: each probe divided by the mean
    of the import controls run just before and after it (``hostcal``).
    """
    import hostcal     # imports numpy, which the probes' interpreters do not share

    env = dict(os.environ)
    runs = []
    before = hostcal.import_control(env)
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload_name, csv_path],
            env=env, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr}")
        run = json.loads(out.stdout.strip().splitlines()[-1])
        after = hostcal.import_control(env)
        run["import_factor"] = (before + after) / (2.0 * hostcal.IMPORT_REFERENCE_S)
        run["normalised_setup_s"] = run["setup_s"] / run["import_factor"]
        before = after
        runs.append(run)
    qtft_file = os.path.realpath(runs[0]["qtft_file"])
    if not qtft_file.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"qtft imported from {qtft_file}, not from {SRC}")
    return {k: statistics.median(r[k] for r in runs) for k in runs[0] if k != "qtft_file"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtft", "__init__.py")):
        print(f"error: no qtft sources under {SRC}", file=sys.stderr)
        return 2
    signal.alarm(RUN_LIMIT_S)
    pin_threads(os.environ)   # before anything imports numpy, here or in a child
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = tiny(workload)
    run_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    csv_path = os.path.join(run_dir, "input.csv")
    gendata.write_csv(csv_path, args.seed, workload.csv_rows)

    try:
        setup = setup_probes(workload.name, csv_path, 1 if args.size == "tiny" else SETUP_PROBES)
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    use_source_tree()
    import measure     # imports qtft, so only after the line above
    from checks import Ledger

    inputs = measure.Inputs(workload, csv_path)
    ledger = Ledger()
    if args.trace:
        metrics, missing, info, tracer = measure.run_traced(inputs, args.seconds, args.seed, ledger)
        metrics.update({
            "data_io.load_csv_s": setup["load_csv_s"],
            "forecasting.build_windows_s": setup["build_windows_s"],
            "forecasting.build_model_s": setup["build_model_s"],
        })
        tracer.write(os.path.join(run_dir, "trace.json"))
        units = metric_units("per_layer")
    else:
        metrics, info = measure.run_untraced(inputs, args.seconds, args.seed, ledger)
        metrics["setup_s"] = setup["normalised_setup_s"]
        missing = []
        units = metric_units("end_to_end")

    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if name in missing or value is None:
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            out[name] = {"value": value, "unit": unit}
    correct = ledger.failed == 0 and all(metrics.get(n) is not None for n in units
                                         if n not in missing)
    info.update(setup=setup, workload=workload.describe(), missing=missing,
                error_rate=ledger.failed / max(ledger.attempted, 1),
                failures=ledger.failures)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": out, "info": info}, fh, indent=1)

    report(out, info, ledger, args)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0 if correct else 1


def report(metrics, info, ledger, args) -> None:
    """Human-readable lines ahead of the JSON result."""
    import measure

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(info['workload'])}")
    for name, m in metrics.items():
        label = " (computed from circuit shapes)" if name in measure.COMPUTED else ""
        value = "MISSING (hook never fired)" if m.get("missing") else f"{m['value']:.6g}"
        print(f"{name:40s} {value} {m['unit']}{label}")
    if "rounds" in info:
        print(f"predict_ms_tail is p{info['predict_tail_percentile']:.4g} of all "
              f"{info['predict_samples']} predicts of the run ({info['rounds']} rounds)")
    print(f"error_rate {info['error_rate']:.6g} ({ledger.failed} failed of "
          f"{ledger.attempted} operations and checks)")


if __name__ == "__main__":
    sys.exit(main())
