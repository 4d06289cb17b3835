"""Machine-speed calibration for timings taken on a shared host.

The host the benchmark runs on is shared: its speed changes by up to a
half, in stretches from a second to minutes, for reasons the guest cannot
see. A Speed samples the current speed by timing a fixed kernel (the
least of KERNEL_RUNS runs) when it is created, at the caller's tick()
points once PERIOD_S has passed since the last sample, and at finish().
A time taken between two samples is scaled by the kernel's nominal_ns
over the mean of those two samples, so it reads as it would at nominal
speed. nominal_ns is the kernel's least time on an idle 2-core x86-64
host with CPython 3.11 and SQLite 3.40; it fixes the scale only.

Slow stretches do not slow all code alike, so each side is sampled with a
kernel like its own work (see the README for the trials behind this).
PYTHON builds and reads a dict of strs and calls small functions that
read slots and dicts, as the engine does; SQLITE scans a table in
SQLite's VM, as the emitted link triggers do.

No kernel allocates an object the garbage collector tracks, so sampling
does not move the points at which collections fire in the code being
timed.
"""

from __future__ import annotations

import sqlite3
import time
from array import array
from dataclasses import dataclass
from typing import Callable

KERNEL_RUNS = 5
PERIOD_S = 0.1


class _Row:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


_ROWS = [_Row(i, str(i)) for i in range(500)]


def _look(row: _Row, index: dict[int, int]) -> int:
    return index.get(row.key, 0) + len(row.name)


def _python_work() -> None:
    table = {}
    for i in range(1500):
        table[i] = str(i)
    total = 0
    for i in range(1500):
        total += len(table[i])
    index = {}
    for i in range(0, 500, 3):
        index[i] = i
    for _ in range(6):
        for row in _ROWS:
            total += _look(row, index)


def _scan_cursor() -> sqlite3.Cursor:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (x INTEGER PRIMARY KEY, a INTEGER NOT NULL, b TEXT NOT NULL)")
    connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, i % 97, f"color-{i % 48:02d}") for i in range(1, 3001)],
    )
    return connection.cursor()


# Built once, here, so that no pass pays for it.
_SCAN = _scan_cursor()


def _sqlite_work() -> None:
    # No row matches, so the scan builds no result tuple.
    _SCAN.execute("SELECT x FROM t WHERE b = 'none' AND a <> 3")


@dataclass(frozen=True)
class Kernel:
    work: Callable[[], None]
    nominal_ns: int

    def least_ns(self) -> int:
        """Least time of KERNEL_RUNS runs, in ns."""
        best = None
        for _ in range(KERNEL_RUNS):
            start = time.perf_counter_ns()
            self.work()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best


PYTHON = Kernel(_python_work, 484_000)
SQLITE = Kernel(_sqlite_work, 113_000)


class Speed:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[int] = []
        self._edges: list[tuple[float, float]] = []
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        ns = self.kernel.least_ns()
        self._edges.append((start, time.perf_counter()))
        self.samples.append(ns)

    @property
    def interval(self) -> int:
        """Index of the interval now running, for factor()."""
        return len(self.samples) - 1

    def tick(self) -> None:
        if time.perf_counter() - self._edges[-1][1] >= PERIOD_S:
            self._sample()

    def finish(self) -> None:
        self._sample()

    def scale(self, times_ns: list[int], intervals: list[int]) -> array:
        """Take a last sample and scale each time to nominal speed.

        intervals[i] is the interval in which times_ns[i] was taken.
        """
        self.finish()
        return array("d", (ns * self.factor(i) for ns, i in zip(times_ns, intervals)))

    def factor(self, interval: int) -> float:
        """Scale from wall time to nominal time within one interval."""
        nominal = self.kernel.nominal_ns
        return 2 * nominal / (self.samples[interval] + self.samples[interval + 1])

    def _gaps(self) -> list[float]:
        return [
            self._edges[i + 1][0] - self._edges[i][1] for i in range(len(self._edges) - 1)
        ]

    def seconds(self) -> float:
        """Wall time from the first sample to the last, sampling excluded,
        at nominal speed."""
        return sum(gap * self.factor(i) for i, gap in enumerate(self._gaps()))
