"""Partial-clique baseline: a K x (K-D-U) Vandermonde code over GF(p), p >= K.

Each receiver misses exactly K-D-U messages, so cancelling the known ones
leaves a square Vandermonde system on distinct points, which is always
invertible; the inverse row that yields x_k is the coefficient vector of
the Lagrange polynomial that is 1 at k and 0 at the other unknown points.
Lengths are compared against the main construction in symbols per
message; the two schemes use different alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

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


def _unknown_solver(spec: MdsCodeSpec, k: int) -> tuple[np.ndarray, list[int]]:
    # row holds the coefficients of the polynomial L that is 1 at k and 0 at
    # the other unknown messages, so row . c = x_k + sum of L(j) x_j over the
    # known j: x_k = row . c - coef . side with coef = [L(j) for known j]
    cached = spec._solvers.get(k)
    if cached is None:
        p = spec.pf.p
        row, scale = np.ones(1, dtype=np.int64), 1
        for a in set(range(spec.inst.k)) - spec.graph.known_sets[k] - {k}:
            row = np.convolve(row, [-a % p, 1]) % p
            scale = scale * (k - a) % p
        row = row * spec.pf.inv(scale) % p
        known_rows = spec.generator[list(spec.graph.known[k])]
        cached = (row, ((known_rows @ row) % p).tolist())
        spec._solvers[k] = cached
    return cached


def mds_decode(spec: MdsCodeSpec, k: int, c, side) -> int:
    """Evaluate receiver k's precomputed row on the codeword and side information.

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
    row, coef = _unknown_solver(spec, k)
    known_part = sum(map(mul, coef, map(side.__getitem__, known)))
    return int((int(row @ cc) - known_part) % spec.pf.p)


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
