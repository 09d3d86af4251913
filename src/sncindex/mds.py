"""Partial-clique baseline: a K x (K-D-U) Vandermonde code over GF(p), p >= K.

Each receiver misses exactly K-D-U messages, so cancelling the known ones
leaves a square Vandermonde system on distinct points, which is always
invertible. Lengths are compared against the main construction in symbols
per message; the two schemes use different alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import snc
from .gfp import PrimeField, smallest_prime_field
from .snc import SncInstance, SideInfoGraph, build_graph


@dataclass(frozen=True, eq=False)
class MdsCodeSpec:
    inst: SncInstance
    pf: PrimeField
    n: int
    generator: np.ndarray
    graph: SideInfoGraph
    _solvers: dict = field(default_factory=dict, repr=False)


def build_mds(inst: SncInstance) -> MdsCodeSpec:
    """Generator entry (i, t) is i**t mod p with the 0**0 == 1 convention."""
    k = inst.k
    pf = smallest_prime_field(k)
    n = snc.mds_code_length(inst)
    gen = np.array([[pow(i, t, pf.p) for t in range(n)] for i in range(k)], dtype=np.int64)
    gen.flags.writeable = False
    return MdsCodeSpec(inst, pf, n, gen, build_graph(inst))


def mds_encode(spec: MdsCodeSpec, x) -> np.ndarray:
    """c_t = sum_i i**t * x_i mod p."""
    xx = spec.pf._as_elems(x, 1)
    if xx.shape[0] != spec.inst.k:
        raise ValueError(f"expected {spec.inst.k} symbols, got {xx.shape[0]}")
    return (xx @ spec.generator) % spec.pf.p


def _unknown_solver(spec: MdsCodeSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    cached = spec._solvers.get(k)
    if cached is None:
        unknown = tuple(sorted(set(range(spec.inst.k)) - spec.graph.known_sets[k]))
        system = spec.generator[list(unknown)].T
        known_rows = spec.generator[list(spec.graph.known[k])]
        # only the inverse row that isolates x_k is ever needed
        cached = (spec.pf.invert(system)[unknown.index(k)], known_rows)
        spec._solvers[k] = cached
    return cached


def mds_decode(spec: MdsCodeSpec, k: int, c, side) -> int:
    """Subtract known contributions, solve the Vandermonde window, read x_k.

    Codeword and side values are reduced mod p by the arithmetic itself.
    """
    if not 0 <= k < spec.inst.k:
        raise ValueError(f"receiver index {k} out of range")
    cc = np.asarray(c, dtype=np.int64)
    if cc.shape != (spec.n,):
        raise ValueError(f"expected a codeword of {spec.n} symbols")
    known = spec.graph.known[k]
    if side.keys() != spec.graph.known_sets[k]:
        raise ValueError(f"side information must cover exactly the known set of receiver {k}")
    row, known_rows = _unknown_solver(spec, k)
    values = np.fromiter((side[j] for j in known), dtype=np.int64, count=len(known))
    c2 = cc - values @ known_rows
    return int((row @ c2) % spec.pf.p)


@dataclass(frozen=True)
class LengthComparison:
    gamma: int
    mds_length: int
    winner: str
    conjecture_value: int


def compare_lengths(inst: SncInstance) -> LengthComparison:
    """Which construction is shorter, in symbols per message; ties go to air."""
    gamma = snc.code_length(inst)
    mds_len = snc.mds_code_length(inst)
    winner = "air" if gamma <= mds_len else "mds"
    return LengthComparison(gamma, mds_len, winner, min(gamma, mds_len))
