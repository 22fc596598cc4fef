"""Host-speed calibration: turns wall time into reference-host time.

The benchmark shares two cores with other tenants, and the host's speed
moves a lot: on the development host the same simulation took 193–402 ms
within one minute of one process, in slow and fast spells of 5–15 s, and
processes a few minutes apart differed by up to 40% in throughput (CPU time
tracked wall time, so this is how fast the host runs, not preemption).  A
run of 30 s cannot average that away.

So every run also times a fixed pure-Python loop (`_work`, interpreter-bound
like the simulator: slotted objects, a dict, a heap) about twice a second,
between simulations.  Each simulation's wall time is scaled by
`REFERENCE_S / c`, where `c` is the mean of the calibrations just before
and just after it: the time it would have taken on a host that runs the
loop in `REFERENCE_S`.  The loop never calls the simulator, so a change to
the simulator moves the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import gc
import heapq
import time

REFERENCE_S = 0.016   # median loop time on the development host
EVERY_S = 0.5         # calibrate once this much time has passed since the last


class _Entry:
    __slots__ = ("seq", "key")

    def __init__(self, seq: int, key: int) -> None:
        self.seq = seq
        self.key = key


def _work(n: int = 12_000) -> int:
    live: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(n):
        e = _Entry(i, (i * 0x9E3779B1) & 1023)
        live[e.key] = live.get(e.key, 0) + 1
        heapq.heappush(heap, (e.key, e.seq))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        acc ^= (e.seq << 3) | (e.key & 7)
    return acc + len(live)


class HostClock:
    """Calibration times taken during a measurement, in order.  Work done
    between calibration k and k + 1 belongs to segment k."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        # no collection inside the loop: its cost would depend on how much
        # the simulator keeps alive
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.calibrate()

    @property
    def segment(self) -> int:
        return len(self.samples) - 1

    def scale(self, segment: int) -> float:
        """Factor from wall seconds in `segment` to reference seconds; the
        segment must be closed by a later calibration."""
        c = (self.samples[segment] + self.samples[segment + 1]) / 2
        return REFERENCE_S / c
