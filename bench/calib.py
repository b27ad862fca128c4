"""Fixed loops that gauge how fast the machine runs right now.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
20-70% over minutes as other tenants come and go.  The drift slows these
loops and the dsgd_lab workloads alike, so each timed sample is taken next
to a calibration, in the same process, and reported as

    calibrated = raw * NOMINAL_S[kind] / loop time at the sample

that is, in seconds of a machine that runs the loop in NOMINAL_S[kind].
The loops are part of the benchmark, not of the program, so a change to
dsgd_lab moves the calibrated time exactly as it moves the raw one.

Two loops, bound by different resources, because a drift that slows one
kind of work need not slow another as much:

* ``python``: integer arithmetic in the interpreter, for work bound by the
  interpreter (stationary-gauss, theory-session, and every set-up);
* ``memory``: filling a freshly allocated 64 MB array, for array-bound
  work that streams through memory and faults in new pages (rr-sto).  On
  back-to-back rr-sto operations, the spread of per-operation calibrated
  times was 0.06 with this loop and 0.10 with the python one.
"""

from __future__ import annotations

import time

REPEATS = 5
# each loop's time on an idle 2.1-GHz Xeon vCPU under CPython 3.11 and
# numpy 2.4
NOMINAL_S = {"python": 0.021, "memory": 0.017}


def _python_once() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t0


def _memory_once() -> float:
    import numpy as np

    t0 = time.perf_counter()
    a = np.ones(8_000_000)
    a *= 1.5
    del a
    return time.perf_counter() - t0


_LOOPS = {"python": _python_once, "memory": _memory_once}


def loop_s(kind: str) -> float:
    """Median time of REPEATS runs of the `kind` loop, in seconds."""
    return sorted(_LOOPS[kind]() for _ in range(REPEATS))[REPEATS // 2]


def calibrated(raw_s: float, cal_s: float, kind: str) -> float:
    return raw_s * NOMINAL_S[kind] / cal_s
