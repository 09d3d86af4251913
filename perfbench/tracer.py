"""Timing spans around the public functions of each sncindex module.

The tracer replaces each target function by a wrapper in every namespace
of the package that binds it (``codec.build_air`` as well as
``air.build_air``), so calls between modules are recorded too. Spans are
kept in flat in-memory arrays (name, start, end, parent, instance, and the
size of the call's first argument for the targets in SIZE_OF) and written
out once, when the run ends. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: Traced functions as (metric name, owner inside sncindex, attribute).
TARGETS = (
    ("cli.main", "cli", "main"),
    ("snc.analyze", "snc", "analyze"),
    ("snc.build_graph", "snc", "build_graph"),
    ("air.build_air", "air", "build_air"),
    ("air.first_deficient_window", "air", "first_deficient_window"),
    ("codec.build_code", "codec", "build_code"),
    ("codec.encode", "codec", "encode"),
    ("codec.decode", "codec", "decode"),
    ("codec.extract_plan", "codec", "extract_plan"),
    ("gf2.invert", "gf2", "invert"),
    ("gf2.vec_mat", "gf2", "vec_mat"),
    ("oracles.roundtrip_sim", "oracles", "roundtrip_sim"),
    ("oracles.check_decodable", "oracles", "check_decodable"),
    ("oracles.brute_mais", "oracles", "brute_mais"),
    ("oracles.brute_minrank2", "oracles", "brute_minrank2"),
    ("mds.build_mds", "mds", "build_mds"),
    ("mds.mds_encode", "mds", "mds_encode"),
    ("mds.mds_decode", "mds", "mds_decode"),
    ("gfp.invert", "gfp.PrimeField", "invert"),
)

#: Target -> size of its first argument, recorded per call: the matrix
#: order n of gf2.invert (gf2.invert.cells is Σn²) and the K of the graph
#: brute_mais scans (oracles.brute_mais.subsets is Σ2^K).
SIZE_OF = {
    "gf2.invert": ("a", len),
    "oracles.brute_mais": ("graph", lambda graph: graph.k),
}

#: (solver metric prefix, decoder span, solver span): solves under a decode.
SOLVERS = (
    ("codec", "codec.decode", "gf2.invert"),
    ("mds", "mds.mds_decode", "gfp.invert"),
)


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.size = array("i")
        self.current_instance = -1
        self._stack: list[int] = []
        self._installed: list | None = None

    def _wrap(self, metric: str, fn):
        nid = self._ids[metric]
        param, size_of = SIZE_OF.get(metric, (None, None))
        name, start, end, parent, instance, size = (
            self.name, self.start, self.end, self.parent, self.instance, self.size
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            instance.append(self.current_instance)
            size.append(size_of(args[0] if args else kwargs[param]) if size_of else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every binding of a target."""
        import sncindex

        namespaces = [sncindex] + [
            importlib.import_module(f"sncindex.{info.name}")
            for info in pkgutil.iter_modules(sncindex.__path__)
        ]
        patches = []
        for metric, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(".")
            mod = importlib.import_module(f"sncindex.{mod_name}")
            if cls_name:
                holder = getattr(mod, cls_name)
                original = holder.__dict__[attr]
                patches.append((holder, attr, original, self._wrap(metric, original)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(metric, original)
            for ns in namespaces:
                patches += [(ns, key, original, wrapper)
                            for key, value in vars(ns).items() if value is original]
        return patches

    def install(self) -> None:
        """Wrap every target in every sncindex namespace that binds it."""
        if self._installed is None:
            self._installed = self._patches()
        for holder, key, _, wrapper in self._installed:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._installed or ():
            setattr(holder, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        return layer_metrics(self.names, self.arrays())


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (single thread),
    so their durations add up to the part of the parent they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered[: len(duration)]


def has_ancestor(name: np.ndarray, parent: np.ndarray, ancestor_id: int) -> np.ndarray:
    """Per span: is some enclosing span named ancestor_id?"""
    found = np.zeros(len(name), dtype=bool)
    cur = parent.copy()
    while (cur >= 0).any():
        live = cur >= 0
        found[live] |= name[cur[live]] == ancestor_id
        nxt = np.full_like(cur, -1)
        nxt[live] = parent[cur[live]]
        cur = nxt
    return found


def layer_metrics(names, spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Calls, inclusive and self time per target, plus the derived counts.

    A workload that never reaches a target reports it as 0 calls and 0 s.
    The solver hit ratio is the share of decodes that built no solver:
    1 - builds / decodes, and 1.0 when no decode ran (none built one).
    """
    name = spans["name"]
    duration = spans["end"] - spans["start"]
    own = self_times(duration, spans["parent"])
    out: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, metric in enumerate(names):
        mask = name == i
        calls[metric] = int(mask.sum())
        out[f"{metric}.calls"] = calls[metric]
        out[f"{metric}.s"] = float(duration[mask].sum())
        out[f"{metric}.self_s"] = float(own[mask].sum())
    for metric in ("codec.decode", "mds.mds_decode"):
        mask = name == names.index(metric)
        out[f"{metric}.p50_us"] = float(np.median(duration[mask]) * 1e6) if mask.any() else 0.0
    for prefix, decoder, solver in SOLVERS:
        under = (name == names.index(solver)) & has_ancestor(
            name, spans["parent"], names.index(decoder)
        )
        builds = int(under.sum())
        decodes = calls[decoder]
        out[f"{prefix}.solver_builds"] = builds
        out[f"{prefix}.solver_warmup_s"] = float(duration[under].sum())
        out[f"{prefix}.solver_hit_ratio"] = 1 - builds / decodes if decodes else 1.0
    n = spans["size"][name == names.index("gf2.invert")].astype(np.int64)
    out["gf2.invert.cells"] = int((n * n).sum())
    k = spans["size"][name == names.index("oracles.brute_mais")]
    out["oracles.brute_mais.subsets"] = sum(1 << int(v) for v in k)
    return out
