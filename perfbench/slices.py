"""Cut a measured phase into short wall-time slices and keep the least disturbed.

The machines this runs on change speed from second to second and from
minute to minute (shared cores, frequency changes): a fixed pure-Python
loop, timed every half second for eight minutes, ran at 0.48 to 1.0 of
its best speed, and the median speed of 25 s stretches spread by 20-25%
(interquartile range over median).  The fastest tenth of the half-seconds
of each 25 s stretch spread by 9-10%, because most stretches hold some
undisturbed moments.  So the end-to-end metrics come from the run's least
disturbed slices: the tenth of the slices that used the least CPU time
per payload byte, pooled (run.py names the workloads that pool them
all).  A slower program is slower in those slices too.
"""

from __future__ import annotations

import time
from typing import Callable, List

#: Wall-time length of one slice (s).  A slice closes at the first
#: finished transfer (UDP pull, DES cycle or run) after this much time.
SLICE_S = 0.5

#: Share of the slices the end-to-end metrics are computed from.
BEST_SHARE = 0.1


class Slicer:
    """Accumulates work per slice; a slice closes once it is long enough."""

    def __init__(self, seconds: float, cpu_s: Callable[[], float]):
        self._seconds = seconds
        self._cpu_s = cpu_s
        self.slices: List[dict] = []
        self.start = time.perf_counter()
        self._open(self.start, cpu_s())
        self.wall_s = 0.0

    def _open(self, now: float, cpu_s: float) -> None:
        self._began = now
        self._cpu_began = cpu_s
        self._bytes = 0
        self._transfers = 0
        self._latencies: List[float] = []

    def _close(self, now: float) -> float:
        cpu_s = self._cpu_s()
        self.slices.append({
            "wall_s": now - self._began,
            "cpu_s": cpu_s - self._cpu_began,
            "bytes": self._bytes,
            "transfers": self._transfers,
            "latencies_s": self._latencies,
        })
        return cpu_s

    @property
    def running(self) -> bool:
        return time.perf_counter() - self.start < self._seconds

    def record(self, nbytes: int, transfers: int, latencies_s) -> None:
        """Count finished work; closes the slice when its time is up."""
        self._bytes += nbytes
        self._transfers += transfers
        self._latencies.extend(latencies_s)
        now = time.perf_counter()
        if now - self._began >= SLICE_S:
            self._open(now, self._close(now))

    def finish(self) -> List[dict]:
        """Close the last slice if it holds at least half a slice of work."""
        now = time.perf_counter()
        if self._transfers and (not self.slices
                                or now - self._began >= SLICE_S / 2):
            self._close(now)
        self.wall_s = now - self.start
        return self.slices


def best_slices(slices: List[dict], share: float) -> List[dict]:
    """The ``share`` of the slices with the least CPU time per byte.

    Slices that verified no payload are left out.  At least one slice is
    kept.
    """
    useful = sorted((s for s in slices if s["bytes"]),
                    key=lambda s: s["cpu_s"] / s["bytes"])
    return useful[:max(1, round(len(useful) * share))]
