"""Machine-speed reference: a fixed loop timed between the measured operations.

The benchmark runs on shared machines whose speed drifts by 20-30% over tens
of seconds, as long as a whole run, and every timing of a run moves with it.
To take that drift out, the untraced run times this fixed pure-Python loop
between consecutive measured operations and scales each operation's wall
time by how fast the loop ran around it:

    reported time = wall time * NOMINAL_S / (mean of the probes before and after)

A reported time is therefore the time the operation would take on a machine
where one chunk of the loop takes ``NOMINAL_S``: its median on the 2-core
shared Xeon (2.1 GHz) virtual machine where the bounds were set. The loop is
part of the benchmark, not of the program, so a change to the program moves
the reported times exactly as it moves the wall times. The raw wall times
and the probe times are kept in the run's meta line.
"""

from __future__ import annotations

import statistics
import time

CHUNK_ITERATIONS = 200_000
CHUNKS = 3
NOMINAL_S = 0.014


def probe() -> float:
    """Wall time of one chunk of the reference loop, in seconds.

    The median over a few chunks, so that one preemption does not count.
    """
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        total = 0
        for i in range(CHUNK_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Probes the machine's speed between measured intervals.

    ``interval()`` closes the interval that began at the previous probe and
    returns the factor that scales its wall times to the nominal machine.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.probes = [self.last]

    def interval(self) -> float:
        now = probe()
        scale = NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        self.probes.append(now)
        return scale
