"""Op timing scaled to a reference machine speed.

The shared 2-core host this benchmark was built on runs the same Python code
at two speeds about 1.8x apart, switching every one to several seconds, so
one run of 15-30 s catches an arbitrary mix of fast and slow phases and raw
timings of identical runs spread by 15-40 %.  Each op is therefore also
timed against a fixed calibration loop run right next to it, on the same
CPU: the reported time is the raw time times CAL_REF_S over the mean of the
calibrations bracketing the op.  On a machine where the loop takes
CAL_REF_S the two agree; the raw figures are kept in the run's `info`.

Ops as short as a scheduler time slice (reduce-stream's 0.1-3 ms) are timed
on the thread's CPU clock, calibrations too, so that an op another process
preempts does not read as slow: one preemption doubles such an op, and on a
shared host the tail percentile otherwise counts the neighbours' load.
"""

from __future__ import annotations

import gc
from time import perf_counter

CAL_ITERS = 3000
CAL_REF_S = 1.0e-3


def calibrate(timer=perf_counter) -> float:
    """Seconds on `timer` for a fixed loop of dict, tuple and small-integer
    work, the kind of work sl2weyl does; the collector is kept out of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = timer()
        d = {}
        for i in range(CAL_ITERS):
            k = (i & 63, i & 7)
            d[k] = d.get(k, 0) + i * 7 % 11
        return timer() - t0
    finally:
        if enabled:
            gc.enable()


class OpClock:
    """Raw op latencies, with a calibration after every `every` ops and
    any taken while an op ran; `timer` is the clock the ops are timed on
    (perf_counter, or thread_time for CPU time)."""

    def __init__(self, every: int = 1, timer=perf_counter):
        self.every = every
        self.timer = timer
        self.raw: list[float] = []
        self.during: list[tuple] = []  # calibrations taken while each op ran
        self.marks = [(0, calibrate(timer))]  # (ops recorded before it, seconds)

    def add(self, seconds: float, during=()) -> None:
        self.raw.append(seconds)
        self.during.append(tuple(during))
        if len(self.raw) % self.every == 0:
            self.marks.append((len(self.raw), calibrate(self.timer)))

    def close(self) -> None:
        """Calibrate after the last op; call when the timed ops end."""
        if self.marks[-1][0] < len(self.raw):
            self.marks.append((len(self.raw), calibrate(self.timer)))

    def scaled(self) -> list[float]:
        """The latencies at reference speed, in the order recorded."""
        self.close()
        marks = self.marks
        out = []
        for (i0, c0), (i1, c1) in zip(marks, marks[1:]):
            for x, during in zip(self.raw[i0:i1], self.during[i0:i1]):
                cals = (c0, c1, *during)
                out.append(x * CAL_REF_S * len(cals) / sum(cals))
        return out


def scaled_call(fn, *args) -> tuple[object, float, float]:
    """(fn(*args), raw seconds, seconds at reference speed) for one long
    call, bracketed by calibrations."""
    c0 = calibrate()
    t0 = perf_counter()
    result = fn(*args)
    raw = perf_counter() - t0
    return result, raw, raw * CAL_REF_S / ((c0 + calibrate()) / 2)
