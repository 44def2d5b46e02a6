"""Host-speed gauge: what the timed numbers are normalised by.

The benchmark's host is a few vCPUs of a machine shared with other tenants.
How fast those vCPUs run moves by up to 2x from one second to the next and
drifts by tens of percent over minutes, and the program's own CPU time moves
with it.  A run's raw seconds therefore measure the host as much as the
program.

The gauge runs a fixed, program-independent probe from a ``SIGALRM`` interval
timer while the measured region runs, so its samples are spread evenly over
the region's wall time.  The probe has the two kinds of work the program does:
interpreter work (generator resumes, a heap, dict updates: what the
simulator's hot loop does) and streaming writes to a large buffer (what the
numpy pattern fills and checks do).  Each part's time is taken relative to its
fixed time on the quiet reference host, and the sample's speed is the inverse
of the two relative times mixed in the proportions of the measured work
(``write_share``: the share of its wall that the workload spends filling and
checking buffers).  A region's seconds are rescaled by the mean of its
samples' speeds (a time-weighted mean, so a slow stretch of the region counts
for as long as it lasted), after the gauge's own time is taken out: the result
is the region's time in reference-host seconds.

Sweep workers forked while the gauge is on sample themselves: the timer is
restarted in each child (timers are not inherited across ``fork``) and the
child adds its samples to its own slot of an anonymous shared map, which the
parent reads after the workers were reaped.  When workers did the region's
work, their samples give its speed; the parent only waits for them then, and
its own samples would measure how it shares the CPUs with them.

The program never sees the gauge: the kernel touches none of its state and
interrupted system calls are retried by the interpreter.
"""

from __future__ import annotations

import heapq
import mmap
import os
import signal
import statistics
import struct
import time

#: seconds between samples (wall time)
INTERVAL_S = 0.05
#: the two parts' median times on the quiet reference host; fixed constants,
#: so normalised seconds stay comparable across commits
REF_KERNEL_S = 0.8e-3
REF_WRITE_S = 1.0e-3
KERNEL_ROUNDS = 700
WRITE_BYTES = 8 << 20
#: forked children with a slot of their own; later forks go unsampled
CHILD_SLOTS = 64
#: per child: samples, sum of their speeds, seconds in the handler
_SLOT = struct.Struct("ddd")


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """The probe's interpreter work, independent of the program under test."""

    def agent(k):
        x = k
        while True:
            x = (yield x) ^ k

    agents = [agent(k) for k in range(8)]
    for a in agents:
        next(a)
    heap, table = [], {}
    acc = 0
    for i in range(rounds):
        v = agents[i & 7].send(i)
        heapq.heappush(heap, ((v * 2654435761) & 1023, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        table[i & 127] = table.get(v & 63, 0) + 1
    return acc + len(table)


def _speed(kernel_rel: float, write_rel: float, write_share: float) -> float:
    return 1.0 / ((1.0 - write_share) * kernel_rel + write_share * write_rel)


class Gauge:
    """Samples the probe every ``INTERVAL_S`` seconds of wall time while on.

    ``write_share`` weighs the buffer writes in the samples of forked
    children; the parent keeps both parts of each sample, and
    :meth:`region` weighs them as asked.
    """

    def __init__(self, write_share: float):
        self.write_share = write_share
        #: the parent's samples: each part's time relative to the reference
        self.parts: list[tuple[float, float]] = []
        #: seconds spent in the timer handler, all samples together
        self.spent = 0.0
        self._spent_at: list[float] = []
        self._old = None
        self._on = False
        self._forks = 0
        self._slot = None  # set in a forked child
        self._shared = mmap.mmap(-1, CHILD_SLOTS * _SLOT.size)
        # a never-written source reads as the zero page: only the
        # destination costs memory
        self._src = bytes(WRITE_BYTES)
        self._dst = memoryview(bytearray(WRITE_BYTES))
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._dst[:] = self._src
        t2 = time.perf_counter()
        rel = ((t1 - t0) / REF_KERNEL_S, (t2 - t1) / REF_WRITE_S)
        if self._slot is not None:
            n, total, spent = _SLOT.unpack_from(self._shared, self._slot)
            _SLOT.pack_into(self._shared, self._slot, n + 1,
                            total + _speed(*rel, self.write_share),
                            spent + time.perf_counter() - t0)
            return
        self.parts.append(rel)
        self.spent += time.perf_counter() - t0
        self._spent_at.append(self.spent)

    def _before_fork(self) -> None:
        if self._on and self._slot is None:
            self._forks += 1

    def _in_child(self) -> None:
        if self._on and self._slot is None and self._forks <= CHILD_SLOTS:
            self._slot = (self._forks - 1) * _SLOT.size
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:  # a child's own children, or out of slots: not sampled
            self._on = False
            self._slot = None

    def start(self) -> "Gauge":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._on = True
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self._on = False

    def mark(self) -> int:
        """A point between regions: pass two marks to :meth:`region`."""
        return len(self.parts)

    def region(self, begin: int, end: int | None = None,
               write_share: float | None = None) -> dict:
        """Speed and gauge overhead of the samples in ``[begin, end)``.

        The parent's samples are weighed by ``write_share`` (default: the
        gauge's).  Every child forked so far counts for the region: fork
        them in one region only, and ask for it after they were reaped.
        When they took samples, their samples give the speed; the handler
        time of the busiest child is added to the parent's (``spent_s``),
        and that of all children to ``cpu_spent_s``.
        """
        share = self.write_share if write_share is None else write_share
        end = len(self.parts) if end is None else end
        xs = [_speed(k, w, share) for k, w in self.parts[begin:end]]
        spent_before = self._spent_at[begin - 1] if begin else 0.0
        spent_after = self._spent_at[end - 1] if end else 0.0
        spent = spent_after - spent_before
        speed = statistics.fmean(xs) if xs else 1.0
        kids = [_SLOT.unpack_from(self._shared, i * _SLOT.size)
                for i in range(min(self._forks, CHILD_SLOTS))]
        n_kids = sum(c[0] for c in kids)
        if n_kids:
            speed = sum(c[1] for c in kids) / n_kids
        return {
            "samples": len(xs) + int(n_kids),
            # mean speed relative to the reference host; 1.0 without samples
            "speed": speed,
            "spent_s": spent + max((c[2] for c in kids), default=0.0),
            "cpu_spent_s": spent + sum(c[2] for c in kids),
        }


def normalise(seconds: float, region: dict, spent: str = "spent_s") -> float:
    """``seconds`` of a region without the gauge's time (``region[spent]``),
    in reference-host seconds."""
    return max(seconds - region[spent], 0.0) * region["speed"]
