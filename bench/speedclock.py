"""Times in reference-speed seconds.

On a shared host the speed of one core swings by up to 2x, within a second
and for minutes at a time (the other tenant on its SMT sibling comes and
goes), so raw times of the same code spread far beyond any useful bound.  This
clock measures the program's time in units of a fixed reference program:
every PERIOD_S a SIGALRM handler runs `reference_chunk` and times it.  After
the run, each raw interval between two chunks is scaled by NOMINAL_S over the
mean duration of the chunks on either side of it, so a second spent while the
core runs at half speed counts as half a second.  The chunks' own time is
left out.

A code change that makes the program do more work shows in full, since the
reference chunk never changes; a host that runs everything slower does not.

The chunk mixes tuple arithmetic, hashing into a large table, frozensets, a
sort and a plain integer loop.  Of the chunks tried against real operations
of the three workloads, this mix followed their slowdowns best: it left an
operation's time spreading 7-19 % (IQR over median) across the host's
phases, against 12-21 % for a chunk of small tuples and dicts alone and
33-48 % raw.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.01
# duration of one reference chunk at nominal speed: about its median on the
# 2-CPU host the benchmark was tuned on, so reference-speed seconds read close
# to that host's typical seconds
NOMINAL_S = 0.0003
START_CHUNKS = 3


def reference_tables():
    """The chunk's data; built in start(), off both clocks."""
    small = tuple(tuple((i * k + 3) % 13 for k in range(4)) for i in range(64))
    table = [tuple((i * k + 3) % 101 for k in range(4)) for i in range(8192)]
    return small, table, {row: i for i, row in enumerate(table)}


def reference_chunk(small, table, index) -> int:
    seen, j, total = set(), 0, 0
    for i in range(100):
        j = (j * 1103 + 12345) % 8192
        row = table[j]
        total += index[row]
        seen.add(frozenset((x + y) % 13 for x, y in zip(row, small[i % 64])))
    total += len(sorted(table[j : j + 64]))
    x = 0
    for i in range(900):
        x = (x * 31 + i) & 0xFFFF
    return total + len(seen) + x


class SpeedClock:
    """Reference-speed time of intervals of this process's run.

    start() .. stop() brackets the run; the intervals to convert are raw
    time.monotonic() readings taken in between.  Conversion happens after
    stop(), when the chunks on both sides of every interval are known.
    """

    def __init__(self):
        self.chunks: list[tuple[float, float, float, float]] = []  # w0, w1, c0, c1

    def _measure(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the chunk's time
        w0, c0 = time.monotonic(), time.process_time()
        reference_chunk(*self._tables)
        w1, c1 = time.monotonic(), time.process_time()
        if enabled:
            gc.enable()
        self.chunks.append((w0, w1, c0, c1))

    def _tick(self, signum, frame) -> None:
        self._measure()

    def start(self) -> None:
        self.started = time.monotonic()
        self.cpu_at_start = time.process_time()
        self._tables = reference_tables()
        # the first chunks run before the interpreter has specialised their
        # code; only the last of them times the first interval
        for _ in range(START_CHUNKS):
            self._measure()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._measure()  # the last interval gets a chunk on its far side too
        chunks = self.chunks[START_CHUNKS - 1 :]
        speed = [NOMINAL_S / max(w1 - w0, 1e-9) for w0, w1, _, _ in chunks]
        # interval i runs from the end of chunk i to the start of chunk i + 1
        self._factors = [(speed[i] + speed[i + 1]) / 2 for i in range(len(chunks) - 1)]
        self._wall_ends = [c[1] for c in chunks]
        self._cpu_ends = [c[3] for c in chunks]
        self._wall_at = self._accumulate(chunks, 0, 1)
        self._cpu_at = self._accumulate(chunks, 2, 3)
        self.reference_s = sum(w1 - w0 for w0, w1, _, _ in self.chunks)

    def _accumulate(self, chunks, begin: int, end: int) -> list[float]:
        """Reference-speed time at the end of each chunk, from the first."""
        at = [0.0]
        for i, factor in enumerate(self._factors):
            at.append(at[-1] + (chunks[i + 1][begin] - chunks[i][end]) * factor)
        return at

    def _reading(self, t: float, ends: list[float], at: list[float]) -> float:
        i = max(0, bisect.bisect_right(ends, t) - 1)
        return at[i] + (t - ends[i]) * self._factors[i]

    def between(self, a: float, b: float) -> float:
        """Reference-speed seconds between raw time.monotonic() readings a <= b."""
        at = self._wall_at
        return self._reading(b, self._wall_ends, at) - self._reading(a, self._wall_ends, at)

    def since(self, origin: float, t: float) -> float:
        """Seconds from a raw reading `origin` taken before start() (in the
        parent process) to a raw reading t: raw up to start(), reference-speed
        seconds after it.  What runs before start() is mostly the
        interpreter's own start-up, not Python code, and does not follow the
        chunk's speed (in a fast phase of the host the chunk ran 1.6-1.9x
        faster, the start-up about 1.3x)."""
        return (self.started - origin) + self._reading(t, self._wall_ends, self._wall_at)

    def cpu(self, c: float) -> float:
        """CPU seconds of this process up to its raw time.process_time() c:
        raw up to start(), reference-speed seconds after it."""
        return self.cpu_at_start + self._reading(c, self._cpu_ends, self._cpu_at)
