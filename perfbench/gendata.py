"""Seeded NSE-style daily stock table for the benchmark workloads.

The header has the same fifteen columns as ``data/axis_bank_2000.csv``.
Close follows a mean-reverting random walk in log price around 27.0, the
level of that file's first rows, so every seed gives prices of the same
scale and the losses stay comparable across seeds.  Only the standard
library is used, so the same seed writes the same bytes everywhere.
"""

from __future__ import annotations

import datetime
import math
import random

HEADER = ("Date,Symbol,Series,Prev Close,Open,High,Low,Last,Close,VWAP,Volume,"
          "Turnover,Trades,Deliverable Volume,%Deliverble")
LEVEL = 27.0
REVERSION = 0.2      # share of the log-distance to LEVEL closed per day
VOLATILITY = 0.02    # daily log-return standard deviation


def _tick(price: float) -> float:
    """Round to the exchange's 0.05 price tick."""
    return round(price * 20.0) / 20.0


def rows(seed: int, count: int) -> list[str]:
    """``count`` CSV data lines (no header) for one seed."""
    rng = random.Random(seed)
    day = datetime.date(2000, 1, 3)
    log_level = math.log(LEVEL)
    x = log_level + rng.gauss(0.0, VOLATILITY)
    prev_close = _tick(math.exp(x))
    lines = []
    for _ in range(count):
        x += REVERSION * (log_level - x) + rng.gauss(0.0, VOLATILITY)
        close = _tick(math.exp(x))
        open_ = _tick(prev_close * (1.0 + rng.gauss(0.0, 0.004)))
        high = _tick(max(open_, close) * (1.0 + abs(rng.gauss(0.0, 0.01))))
        low = _tick(min(open_, close) * (1.0 - abs(rng.gauss(0.0, 0.01))))
        last = _tick(min(high, max(low, close + rng.choice((-0.05, 0.0, 0.05)))))
        vwap = round((high + low + close) / 3.0, 2)
        volume = rng.randint(150_000, 240_000)
        trades = rng.randint(900, 2_000)
        deliverable = volume // 2
        lines.append(
            f"{day.isoformat()},SYNTH,EQ,{prev_close:.2f},{open_:.2f},{high:.2f},"
            f"{low:.2f},{last:.2f},{close:.2f},{vwap:.2f},{volume},"
            f"{volume * vwap:.2f},{trades},{deliverable},{deliverable / volume:.4f}")
        prev_close = close
        day += datetime.timedelta(days=3 if day.weekday() == 4 else 1)
    return lines


def write_csv(path: str, seed: int, count: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for line in rows(seed, count):
            fh.write(line + "\n")
