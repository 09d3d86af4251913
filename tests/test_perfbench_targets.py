"""The benchmark's tracer wraps sncindex functions by name; each must exist.

perfbench/tracer.py is loaded by path, so deleting or renaming a traced
function fails this suite and not only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
