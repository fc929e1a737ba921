"""A fixed computation, independent of qf, that tracks how fast the host runs.

The host's speed drifts by up to 2x over minutes: identical ``verify-tables``
jobs took 1.07 s in one minute and 2.0 s in the next. This sparse integer row
elimination (the dict and set churn that dominates qf's SNF, validation and
enumeration) slowed by the same factor in the same minutes (correlation 0.86
over 10-job blocks), where a plain arithmetic loop over-reacted.
``HostSampler`` times it at even intervals while qf runs, and ``run.py``
rescales the end-to-end times by the mean, so that runs made at different
host speeds can be compared.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Median seconds per pass on the shared 2-core x86-64 VM the benchmark was
# tuned on; rescaled times are in seconds of that host at that speed.
NOMINAL_S = 0.0065
INTERVAL_S = 0.2

_RNG = random.Random(1)
_ROWS = tuple({c: _RNG.choice((1, -1, 2)) for c in _RNG.sample(range(400), 6)} for _ in range(300))


def work() -> int:
    """One pass: eliminate with every third row of a fixed 300x400 matrix on
    that row's first two columns."""
    rows = [dict(r) for r in _ROWS]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    fill = 0
    for p in range(0, len(rows), 3):
        prow = rows[p]
        for c in list(prow)[:2]:
            for r in list(col_rows.get(c, ())):
                if r == p:
                    continue
                row = rows[r]
                f = row.get(c, 0)
                for cc, v in prow.items():
                    new = row.get(cc, 0) - f * v
                    if new:
                        row[cc] = new
                    else:
                        row.pop(cc, None)
                fill += len(row)
    return fill


class HostSampler:
    """Times one pass of ``work`` every INTERVAL_S of wall time, from a SIGALRM
    handler, so that the host's speed is sampled evenly through the jobs and
    not only between them. ``spent`` is the time the passes took, which the
    caller takes out of the times it measures."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        work()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.spent += seconds

    def slowdown(self) -> float:
        """Mean pass time over NOMINAL_S: above 1 when the host ran slower than nominal."""
        return statistics.fmean(self.samples) / NOMINAL_S

    def __enter__(self) -> "HostSampler":
        self.tick()  # at least one sample, however short the measured span
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
