"""Partial-clique baseline: a K x (K-D-U) Vandermonde code over GF(p), p >= K.

Each receiver misses exactly K-D-U messages, so cancelling the known ones
leaves a square Vandermonde system on distinct points, which is always
invertible; the inverse row that yields x_k is the coefficient vector of
the Lagrange polynomial that is 1 at k and 0 at the other unknown points.
Lengths are compared against the main construction in symbols per
message; the two schemes use different alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from . import snc
from .gfp import PrimeField, smallest_prime_field
from .snc import SncInstance, SideInfoGraph, build_graph


@dataclass(frozen=True)
class DecoderTable:
    """Every receiver's GF(p) decoder; see decoder_table."""

    rows: np.ndarray
    side: np.ndarray
    known_side: tuple[list[int], ...]  # side[k] at graph.known[k]: what mds_decode sums


@dataclass(frozen=True, eq=False)
class MdsCodeSpec:
    """The decoder table is derived on first use; a replaced copy derives its own."""

    inst: SncInstance
    pf: PrimeField
    n: int
    generator: np.ndarray
    graph: SideInfoGraph

    @cached_property
    def _table(self) -> DecoderTable:
        return _build_table(self)


def build_mds(inst: SncInstance) -> MdsCodeSpec:
    """Generator entry (i, t) is i**t mod p with the 0**0 == 1 convention.

    Column 0 is all ones and column t is column t-1 times i, mod p.
    """
    k = inst.k
    pf = smallest_prime_field(k)
    n = snc.mds_code_length(inst)
    gen = np.ones((k, n), dtype=np.int64)
    for t in range(1, n):
        gen[:, t] = gen[:, t - 1] * np.arange(k) % pf.p
    gen.flags.writeable = False
    return MdsCodeSpec(inst, pf, n, gen, build_graph(inst))


def mds_encode(spec: MdsCodeSpec, x) -> np.ndarray:
    """c_t = sum_i i**t * x_i mod p."""
    xx = spec.pf._as_elems(x, 1)
    if xx.shape[0] != spec.inst.k:
        raise ValueError(f"expected {spec.inst.k} symbols, got {xx.shape[0]}")
    return (xx @ spec.generator) % spec.pf.p


def decoder_table(spec: MdsCodeSpec) -> DecoderTable:
    """Every receiver's Lagrange row and side coefficients, built once per spec."""
    return spec._table


def _build_table(spec: MdsCodeSpec) -> DecoderTable:
    """Build every receiver's decoder in one pass.

    rows[k] holds the coefficients, lowest power first, of the polynomial
    L_k that is 1 at k and 0 at k's other unknown points; side[k, j] is
    L_k(j) where k knows j, else 0. With c = x G, rows[k] . c sums
    L_k(i) x_i, so x_k = rows[k] . c - side[k] . x for every message x.
    All K polynomials are multiplied out together, one factor (z - a) per
    step with a the next unknown point of each receiver; one product with
    the generator then evaluates them at every message index, and the
    value at k is the scale that makes L_k(k) = 1.
    """
    k, n, p = spec.inst.k, spec.n, spec.pf.p
    ids = np.arange(k)
    known = np.array(spec.graph.known, dtype=np.intp)
    unknown = np.ones((k, k), dtype=bool)
    unknown[ids[:, None], known] = False
    points = np.nonzero(unknown & ~np.eye(k, dtype=bool))[1].reshape(k, n - 1)
    coef = np.zeros((n, k), dtype=np.int64)  # coef[t, r]: z**t in receiver r's polynomial
    coef[0] = 1
    for s, a in enumerate(points.T):
        coef[1:s + 2] = coef[:s + 1] - a * coef[1:s + 2]  # times (z - a)
        coef[0] *= -a
        coef[:s + 2] %= p
    values = (spec.generator @ coef).T % p
    scale = np.array([spec.pf.inv(v) for v in values.diagonal().tolist()], dtype=np.int64)
    rows = (coef * scale % p).T.copy()
    side = np.where(unknown, 0, values * scale[:, None] % p)
    rows.flags.writeable = side.flags.writeable = False
    return DecoderTable(rows, side, tuple(side[ids[:, None], known].tolist()))


def mds_decode(spec: MdsCodeSpec, k: int, c, side) -> int:
    """Evaluate receiver k's row of the decoder table on the codeword and side information.

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
    table = decoder_table(spec)
    known_part = sum(map(mul, table.known_side[k], map(side.__getitem__, known)))
    return int((int(table.rows[k].dot(cc)) - known_part) % spec.pf.p)


@dataclass(frozen=True)
class LengthComparison:
    gamma: int
    mds_length: int
    winner: str
    conjecture_value: int


def compare_lengths(inst: SncInstance) -> LengthComparison:
    """Which construction is shorter, in symbols per message; ties go to air.

    Not defined at U + D = K - 1, where the single parity serves (FullSideInfo)."""
    if inst.full_side_info:
        raise snc.FullSideInfo("U + D = K - 1 is served by the single-sum code")
    gamma = snc.code_length(inst)
    mds_len = snc.mds_code_length(inst)
    winner = "air" if gamma <= mds_len else "mds"
    return LengthComparison(gamma, mds_len, winner, min(gamma, mds_len))
