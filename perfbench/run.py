"""Benchmark for sncindex: three closed-loop workloads, checked end to end.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload sweep-k40 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``sweep-k40``: library calls on a stratified seeded sample of the 5949
  valid (K, D, U) with K <= 40: code_for, roundtrip_sim at 100 trials,
  check_decodable, extract_plan, and a 50-trial GF(p) baseline round trip.
- ``paper-k827``: CLI commands (`verify`, `plan`, `analyze`, `air --verify`,
  `sweep --paper-table`) on the paper's (827, 23, U) rate table.
- ``oracle-search``: CLI `oracle mais`, `oracle decodable` and
  `oracle minrank --cap` exhaustive searches, K from 9 to 20.

A run generates a fixed list of items from (seed, seconds), so two runs
with equal arguments do the same work on any commit; the input digest and
the operation counts printed before the result show it. The gated times
are scaled to the reference machine's speed by a probe timed during the
items (hostspeed.py); the raw times print too. Every answer is
checked; a failed check, or a negative control (`verify --corrupt`) that
goes undetected, makes the run exit 1. With ``--trace 1`` half as many items
each run twice, alternately with and without timing spans around the public
functions of every module, and the per-layer metrics are reported.

Lines starting ``metric`` give every metric as name, value and unit. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics that
BENCHMARK.json gates (untraced) or the per-layer metrics (traced).
Traced runs also write their spans to .perfbench_out/trace-<workload>.npz.

reference.json records the reference machine and the medians measured on
it. Seed 2718 is held out: use it only to confirm a gain measured on
others. The benchmark's own tests: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from stats import Tally, percentile, tail_percentile
from tracer import Tracer

HERE = Path(__file__).resolve().parent
#: Fresh-interpreter set-ups per run, spread evenly over the timed phase.
SETUP_SAMPLES = 16
#: setup_s is this nearest-rank percentile of the samples, scaled by the host
#: speed like the item times: import and input generation have a floor that
#: a slow spell of the host only raises.
SETUP_PERCENTILE = 10
#: No new item starts after this many seconds of timed phase, so a much
#: slower program still exits well inside the 180 s a run may take.
TIMED_LIMIT_S = 140.0
TRACE_DIR = Path(".perfbench_out")

SETUP_PROBE = """\
import sys
from pathlib import Path
from time import perf_counter
sys.path[:0] = [{src!r}, {here!r}]
t0 = perf_counter()
import workloads
workloads.setup({name!r}, {seed!r}, {seconds!r}, Path({root!r}))
print(perf_counter() - t0)
"""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-k40", "paper-k827", "oracle-search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def setup_schedule(n_items: int) -> Counter[int]:
    """Item index -> set-up samples to take before it, SETUP_SAMPLES in all,
    spread evenly over the items so they meet the host's slow and fast spells."""
    return Counter(n_items * j // SETUP_SAMPLES for j in range(SETUP_SAMPLES))


def measure_setup(root: Path, src: Path, args) -> float:
    """Import plus input generation, once in a fresh interpreter."""
    code = SETUP_PROBE.format(src=str(src), here=str(HERE), name=args.workload,
                              seed=args.seed, seconds=args.seconds, root=str(root))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


class Runner:
    """Runs items one at a time, timing each; stops at TIMED_LIMIT_S.

    With a HostSpeed, items run while it samples, and its probe time is
    taken out of the item it interrupted.
    """

    def __init__(self, workloads, tally, checker, host: HostSpeed | None = None):
        self.workloads = workloads
        self.tally = tally
        self.checker = checker
        self.host = host
        self.started = perf_counter()

    def run(self, item) -> float | None:
        """Seconds the item took, or None if it was not run."""
        if perf_counter() - self.started > TIMED_LIMIT_S:
            self.tally.record("error", 1, 1, f"not run within {TIMED_LIMIT_S} s: {item}")
            return None
        if self.host is None:
            return self._timed(item)
        probed = self.host.probe_s
        with self.host.sampling():
            seconds = self._timed(item)
        return seconds - (self.host.probe_s - probed)

    def _timed(self, item) -> float:
        t0 = perf_counter()
        try:
            self.workloads.run_item(item, self.tally, self.checker)
        except Exception:  # one broken item must not hide the others' results
            self.tally.record("error", 1, 1, f"{item}: {traceback.format_exc(limit=3)}")
        return perf_counter() - t0


def report(name: str, value: float, unit: str) -> None:
    print(f"metric\t{name}\t{value:.6g}\t{unit}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "sncindex" / "__init__.py").is_file():
        print("perfbench: src/sncindex not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import sncindex
    import workloads

    if Path(sncindex.__file__).resolve().parent != (src / "sncindex").resolve():
        print(f"perfbench: imported {sncindex.__file__}, not ./src", file=sys.stderr)
        return 2
    try:
        # a traced run times every item twice, so it generates half the work
        seconds = args.seconds / 2 if args.trace else args.seconds
        items, checker = workloads.setup(args.workload, args.seed, seconds, root)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    tracer = Tracer()
    if args.trace:  # the control is CLI traffic too, and sweep-k40's only cli.main call
        tracer.install()
    try:
        workloads.negative_control(args.seed, tally)
    finally:
        tracer.uninstall()
    host = None if args.trace else HostSpeed()
    runner = Runner(workloads, tally, checker, host)
    print(f"perfbench\tworkload={args.workload}\tseed={args.seed}\ttrace={args.trace}"
          f"\titems={len(items)}\tdigest={digest(items)}")
    print(f"machine\tcores={os.cpu_count()}\tpython={platform.python_version()}"
          f"\tnumpy={np.__version__}\tsncindex={sncindex.__version__}\t{platform.platform()}")

    if args.trace:
        metrics = traced_phase(args, items, runner, tracer, root)
    else:
        metrics = timed_phase(items, runner, partial(measure_setup, root, src, args), tally, host)

    report("error_rate", tally.error_rate, "ratio")
    print("counts\t" + "\t".join(f"{k}={tally.attempted[k]}/{tally.failed[k]}"
                                   for k in sorted(tally.attempted)) + "\t(attempted/failed)")
    for detail in tally.details:
        print(f"failure\t{detail}", file=sys.stderr)
    correct = tally.total_failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def timed_phase(items, runner, sample_setup, tally, host) -> dict[str, tuple[float, str]]:
    """Every item once, untraced, with set-up samples taken between items
    (outside item times and probes); prints all end-to-end metrics, returns
    the gated ones."""
    schedule = setup_schedule(len(items))
    setup, times = [], []
    for i, item in enumerate(items):
        setup += [sample_setup() for _ in range(schedule[i])]
        times.append(runner.run(item))
    done = [(item, t) for item, t in zip(items, times) if t is not None]
    verify = [t for item, t in done if item[0] == "cli" and item[1][0] == "verify"]
    gated, extra = end_to_end(setup, done, tally.attempted["decode"], verify, host.speed)
    extra["probes"] = (len(host.speeds), "count")
    for name, (value, unit) in {**gated, **extra}.items():
        report(name, value, unit)
    return gated


def per_instance(done) -> list[float]:
    """Mean time of each distinct item: repeats of one instance count once."""
    times: dict[str, list[float]] = {}
    for item, t in done:
        times.setdefault(json.dumps(item), []).append(t)
    return [statistics.fmean(ts) for ts in times.values()]


def end_to_end(setup, done, decodes, verify, speed):
    """(gated, printed-only) end-to-end metrics as name -> (value, unit).

    setup holds the set-up samples, done (item, seconds) per item run and
    speed the host's mean probe speed during the items, relative to the
    reference machine. BENCHMARK.json gates the first four: setup_s and
    the norm_ times are the raw ones scaled to the reference machine's
    speed, which removes most of the host's spells (see hostspeed.py; the
    set-up samples are spread over the same items). Instance times
    print raw, as the median and the highest percentile with at least ten
    samples beyond it, with the sample count; they are not gated, because
    one probe speed for a whole run does not fit every instance in it.
    """
    wall = sum(t for _, t in done)
    instances = per_instance(done)
    gated = {
        "setup_s": (percentile(setup, SETUP_PERCENTILE) * speed, "s"),
        "norm_wall_s": (wall * speed, "s"),
        "norm_instances_per_s": (len(done) / (wall * speed), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "setup_raw_s": (percentile(setup, SETUP_PERCENTILE), "s"),
        "wall_s": (wall, "s"),
        "instances_per_s": (len(done) / wall, "1/s"),
        "host_speed": (speed, "ratio"),
        "instances": (len(instances), "count"),
        "instance_p50_ms": (1e3 * statistics.median(instances), "ms"),
    }
    tail = tail_percentile(len(instances))
    if tail is not None and tail > 50:
        extra[f"instance_p{tail:g}_ms"] = (1e3 * percentile(instances, tail), "ms")
    if decodes:
        extra["decodes_per_s"] = (decodes / wall, "1/s")
    if verify:
        extra["verify_s"] = (statistics.median(verify), "s")
    return gated, extra


def traced_phase(args, items, runner, tracer, root: Path) -> dict[str, tuple[float, str]]:
    """Every item run untraced and traced, in alternating order.

    The tracer already holds the spans of the negative control (instance -1).
    """
    plain = traced = 0.0
    for i, item in enumerate(items):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                plain += runner.run(item) or 0.0
                continue
            tracer.current_instance = i
            tracer.install()
            try:
                traced += runner.run(item) or 0.0
            finally:
                tracer.uninstall()
    tracer.write(root / TRACE_DIR / f"trace-{args.workload}.npz")
    metrics = {name: (value, unit_of(name)) for name, value in tracer.metrics().items()}
    metrics["trace.overhead_ratio"] = (traced / plain if plain else 0.0, "ratio")
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith("_us"):
        return "us"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
