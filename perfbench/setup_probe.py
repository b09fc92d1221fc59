"""Time one set-up in a fresh interpreter and print it as one JSON line.

Set-up is what a user waits for before training can start: ``import
qtft``, ``data_io.load_csv``, ``forecasting.build_stock_windows`` and
``forecasting.build_model``.  ``run.py`` starts this script several times
per run and reports the median, because ``import`` only costs anything
in a process that has not imported the package yet.  Times are raw wall
time; the host factor (see ``hostcal``) is printed alongside but not
divided out, because set-up time does not follow it: over 60 probes the
factor ranged from 0.9 to 2.0 while raw set-up stayed within 0.13-0.20 s,
and dividing by it widened the spread.

    python3 perfbench/setup_probe.py WORKLOAD CSV_PATH
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from workloads import FEATURES, TARGET, WORKLOADS, pin_threads, use_source_tree


def main(argv: list[str]) -> int:
    workload = WORKLOADS[argv[0]]
    csv_path = argv[1]
    pin_threads(os.environ)
    use_source_tree()

    t0 = time.perf_counter()
    import qtft  # noqa: F401  (the import is what is timed)
    from qtft import data_io, forecasting
    t1 = time.perf_counter()
    table = data_io.load_csv(csv_path, FEATURES, TARGET)
    t2 = time.perf_counter()
    train_w, _ = forecasting.build_stock_windows(
        table.rows, table.column_index(TARGET), workload.train_config())
    t3 = time.perf_counter()
    forecasting.build_model(workload.train_config(), train_w[0].past.shape[1],
                            train_w[0].future_known.shape[1], train_w[0].static.shape[0])
    t4 = time.perf_counter()
    import hostcal   # only now: it imports numpy, whose import is part of set-up

    print(json.dumps({
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "load_csv_s": t2 - t1,
        "build_windows_s": t3 - t2,
        "build_model_s": t4 - t3,
        "host_factor": statistics.median(hostcal.control() for _ in range(3))
        / hostcal.REFERENCE_S,
        "qtft_file": qtft.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
