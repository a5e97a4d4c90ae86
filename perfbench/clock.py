"""Wall times scaled to a reference CPU speed.

On a shared host the same Python work can run up to 1.6x slower for spells
of seconds to minutes, because other tenants load the machine.  Whole runs
fall into such spells, so a median of wall times follows the host's load as
much as the program.  A `Clock` measures the host's current speed by timing
`calibrate`, a fixed piece of dict, tuple and string work like the program's
own, at least every EVERY_S seconds between operations, and scales each wall
time by REF_S over the median of its last WINDOW calibrations.  A scaled time
is the time the operation would take on a CPU on which `calibrate` takes
REF_S: it moves with the program's cost, and much less than a wall time
with the host's load.
"""

from __future__ import annotations

import gc
import statistics
import time

#: `calibrate` takes this long on the reference CPU.
REF_S = 0.004
#: Calibrate at least this often, between operations.
EVERY_S = 0.05
#: The speed in use is the median of the last WINDOW calibrations.
WINDOW = 5


def calibrate() -> float:
    """Seconds taken by a fixed piece of work.  The cyclic garbage collector
    is off meanwhile: its cost grows with the program's heap, which would
    make the calibration, and so every scaled time, depend on the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[tuple[str, int], int] = {}
        for i in range(3500):
            key = ("s%d" % (i % 700), i % 13)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Clock:
    def __init__(self) -> None:
        self.cals: list[float] = []
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self) -> None:
        self.cals.append(calibrate())
        self.factor = REF_S / statistics.median(self.cals[-WINDOW:])
        self._next = time.perf_counter() + EVERY_S

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def tick(self) -> None:
        """Calibrate if due; call it between operations, right after one ends."""
        if self.due():
            self.calibrate()

    def scale(self, wall_s: float) -> float:
        return wall_s * self.factor
