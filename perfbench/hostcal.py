"""Host-speed control used to normalise the benchmark's timings.

On the 2-vCPU hosts this benchmark runs on, the speed of interpreter-bound
code swings by up to 2x, for a second to several minutes at a time, while
CPU time keeps pace with wall time: the host, not this process, sets the
pace.  :func:`control` is a fixed piece of the same kind of work as qtft's
hot path (a reverse-mode tape of closures over 2-element numpy vectors,
then small complex state updates), written here and never touching qtft,
so a change to qtft cannot move it.  Each timed call is divided by the
host factor ``control() / REFERENCE_S`` measured around it.  Over 90 s of
desk-qtft predicts the raw per-5-second medians varied by 26% and the
normalised ones by 9%.

Set-up time is mostly ``import numpy`` in a fresh interpreter, which
follows that factor poorly (correlation 0.5 over 40 probes).  It has its
own control, :func:`import_control`: ``import numpy`` timed in a fresh
interpreter, correlation 0.82 with set-up over the same probes.
Dividing by it cut the spread of single probes from 14% to 6%.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import numpy as np

# Control time on the reference host (2-vCPU Xeon, numpy 2.4) in its fast
# state.  It sets the scale of normalised times and nothing else.
REFERENCE_S = 1.5e-3
# The same for :func:`import_control`.
IMPORT_REFERENCE_S = 0.075

_IMPORT_CONTROL = ("import time; t0 = time.perf_counter(); import numpy; "
                   "print(time.perf_counter() - t0)")


def _tape(steps: int) -> None:
    nodes = []
    x = np.array([0.3, -0.2])
    for _ in range(steps):
        y = np.tanh(x * 1.01 + 0.1)
        nodes.append((x, y, lambda u, y=y: u * (1.0 - y * y)))
        x = y
    u = np.ones(2)
    for _, _, rule in reversed(nodes):
        u = rule(u)
    a = np.zeros(4, dtype=complex)
    a[0] = 1.0
    for _ in range(steps // 5):
        a = (np.flip(a.reshape(2, 2), 1) * (0.6 + 0.8j)).reshape(-1)


def control() -> float:
    """Seconds taken by the fixed control work.

    A short untimed pass goes first and the collector is off: right after
    a large call the first pass can run several times slower (garbage to
    collect, memory to fault back in), which is not the host's pace.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _tape(60)
        t0 = time.perf_counter()
        _tape(300)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_control(env) -> float:
    """Seconds a fresh interpreter with ``env`` takes to ``import numpy``."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CONTROL], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


class HostClock:
    """Times calls and divides each by the host factor measured around it."""

    def __init__(self):
        self._last = control()
        self.factors: list[float] = []

    def time(self, fn, *args):
        """``(fn(*args), raw seconds, normalised seconds)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = control()
        factor = (self._last + after) / (2.0 * REFERENCE_S)
        self._last = after
        self.factors.append(factor)
        return result, raw, raw / factor
