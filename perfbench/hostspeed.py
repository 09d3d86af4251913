"""How fast the host runs right now, from a fixed probe timed during the items.

On a shared host the same work takes up to about 1.9x as long from one
spell to the next (each spell lasts seconds to minutes; CPU time tracks
wall time, so it is contention on the core, not stolen time). The
benchmark therefore times a fixed probe every PROBE_INTERVAL_S while items
run, from a SIGALRM handler in the benchmark's own process, and scales
item times by the probe's mean speed: ``norm = raw * mean(PROBE_REF_S / probe)``,
the time the same work would take at the reference machine's speed.

The probe mixes the three kinds of work the workloads do: numpy calls on
small bit matrices (codec and mds decodes), XOR of Python integers of
hundreds of bits (gf2.invert's packed rows) and plain dict and integer
bytecode (the glue). It calls nothing in sncindex, so a change to the
package cannot move it. Probe time is subtracted from the item it
interrupted.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Seconds between probes while items run.
PROBE_INTERVAL_S = 0.1
#: Median probe duration on the reference machine (reference.json): speed 1.
PROBE_REF_S = 2.2e-3

_BITS = np.random.default_rng(0).integers(0, 2, size=(24, 24), dtype=np.uint8)
_WIDE = [random.Random(0).getrandbits(800) for _ in range(64)]


def probe() -> int:
    """The fixed work whose duration measures the host's speed."""
    acc = 0
    for i in range(120):
        acc += int(np.bitwise_xor.reduce(_BITS[:, [i % 24, (i + 5) % 24]], axis=1).sum())
    v = 0
    rows: dict[int, int] = {}
    for i in range(2000):
        w = _WIDE[i & 63]
        v = v ^ w if v.bit_length() > w.bit_length() else (v << 1) ^ w
        rows[i & 31] = v
    for i in range(3000):
        rows[i & 63] = acc
        acc += i * i % 7
    return acc + len(rows)


class HostSpeed:
    """Probe speeds sampled while armed, and the probe time they took."""

    def __init__(self):
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self._remaining = PROBE_INTERVAL_S

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        dt = perf_counter() - t0
        self.speeds.append(PROBE_REF_S / dt)
        self.probe_s += dt

    @contextmanager
    def sampling(self):
        """Probe every PROBE_INTERVAL_S inside the block; the interval
        carries over from one block to the next, so short items are
        sampled in proportion to their time too."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._remaining, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            self._remaining = signal.setitimer(signal.ITIMER_REAL, 0)[0] or PROBE_INTERVAL_S
            signal.signal(signal.SIGALRM, previous)

    @property
    def speed(self) -> float:
        """Mean probe speed relative to the reference machine; 1.0 unsampled."""
        return statistics.fmean(self.speeds) if self.speeds else 1.0
