"""The benchmark's tracer wraps sncindex functions by name; each must exist,
and the benchmark's sweep item must pass on small instances.

perfbench/tracer.py and perfbench/workloads.py are loaded by path, so
deleting or renaming a traced function, or a library change that fails
the benchmark's own checks, fails this suite and not only a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from reference import all_instances

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_sncindex():
    targets = load_tracer().TARGETS
    assert targets
    for metric, owner, attr in targets:
        mod_name, _, cls_name = owner.partition(".")
        namespace = vars(importlib.import_module(f"sncindex.{mod_name}"))
        if cls_name:  # the tracer wraps a method where its class defines it
            namespace = vars(namespace[cls_name])
        assert callable(namespace.get(attr)), f"{metric}: sncindex.{owner}.{attr}"


def test_sweep_items_decode_and_check_every_small_instance(monkeypatch):
    # the benchmark's sweep-k40 item, on every valid (K, D, U) with K <= 8:
    # D = 0 and U + D = K - 1 included, nothing may fail
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tally = workloads.Tally()
    for inst in all_instances(8):
        workloads.run_instance(inst.k, inst.d, inst.u, inst.k * 100 + inst.d * 10 + inst.u, tally)
    assert tally.attempted["decode"] and tally.attempted["verdict"]
    assert sum(tally.failed.values()) == 0, tally.details
