"""Summary statistics and failure counting for the benchmark."""

from __future__ import annotations

import math
from collections import Counter

#: Candidate percentiles for the tail of a timing distribution, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # 1-based nearest rank; the tolerance keeps 99.9% of 10000 at 9990
    return max(1, math.ceil(p * n / 100 - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence (p in (0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    return xs[_rank(len(xs), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it
    (fewer than 20 samples).
    """
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


class Tally:
    """Attempted and failed operations, by kind.

    Kinds used by the workloads: ``decode`` (one receiver recovering one
    message), ``verdict`` (one checked answer such as a decodability
    vector or a plan table), ``exit_code`` (one CLI call returning the
    code it must), ``control`` (the negative control being detected) and
    ``error`` (an item that raised or was not run in time).
    """

    MAX_DETAILS = 20

    def __init__(self):
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.details: list[str] = []

    def record(self, kind: str, attempted: int = 1, failed: int = 0, detail: str = "") -> None:
        attempted, failed = int(attempted), int(failed)
        if not 0 <= failed <= attempted:
            raise ValueError(f"need 0 <= failed <= attempted, got {failed}/{attempted}")
        self.attempted[kind] += attempted
        self.failed[kind] += failed
        if failed and len(self.details) < self.MAX_DETAILS:
            self.details.append(f"{kind}: {detail}" if detail else kind)

    def check(self, kind: str, ok: bool, detail: str = "") -> bool:
        """Record one operation that passed iff ok; returns ok."""
        self.record(kind, 1, 0 if ok else 1, detail)
        return ok

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def error_rate(self) -> float:
        """Failed over attempted operations of every kind; 0 when nothing ran."""
        total = self.total_attempted
        return self.total_failed / total if total else 0.0
