"""Partial-clique baseline: a K x (K-D-U) Vandermonde code over GF(p), p >= K.

Each receiver misses exactly K-D-U messages, so cancelling the known ones
leaves a square Vandermonde system on distinct points, which is always
invertible; the inverse row that yields x_k is the coefficient vector of
the Lagrange polynomial that is 1 at k and 0 at the other unknown points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index, mul

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
    """The decoder table and the evaluation slot are derived on first use;
    a replaced copy derives its own."""

    inst: SncInstance
    pf: PrimeField
    n: int
    generator: np.ndarray
    graph: SideInfoGraph

    @cached_property
    def _table(self) -> DecoderTable:
        return _build_table(self)

    @cached_property
    def _evaluated(self) -> list[tuple]:
        """One slot: (codeword bytes, rows . c mod p) for the codeword decoded last."""
        return [(None, None)]


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


def certify(spec: MdsCodeSpec) -> int | None:
    """The first receiver whose decoder is not exact, or None when every one is.

    Receiver k outputs rows[k] . c - known_side[k] . x[known[k]] with
    c = x G. That is x_k for all p^K messages iff row k of
    (rows G^T - side) mod p is row k of the identity, side[k] is 0 outside
    k's known set, and known_side[k], what mds_decode sums, is side[k] at
    known[k].
    """
    table = decoder_table(spec)
    k, p = spec.inst.k, spec.pf.p
    ids = np.arange(k)[:, None]
    known = np.array(spec.graph.known, dtype=np.intp)
    outside = np.ones((k, k), dtype=bool)
    outside[ids, known] = False
    product = (table.rows @ spec.generator.T - table.side) % p
    bad = (product != np.eye(k, dtype=np.int64)).any(axis=1)
    bad |= (outside & (table.side != 0)).any(axis=1)
    at_known = table.side[ids, known].tolist()
    bad |= [ks != s for ks, s in zip(table.known_side, at_known, strict=True)]
    failing = np.flatnonzero(bad)
    return int(failing[0]) if failing.size else None


def mds_decode(spec: MdsCodeSpec, k: int, c, side) -> int:
    """Receiver k's message: rows[k] . c minus the side term, mod p.

    Codeword symbols are reduced mod p before the product, so any int64
    representative decodes alike. Side values are taken as integers
    (operator.index, so numpy ints cannot wrap) and reduced exactly.

    Every receiver of a trial decodes the same codeword, so the first call
    on a codeword evaluates all K rows in one product and keeps the values
    in the spec's one slot, keyed by the codeword's bytes; later calls on
    that codeword, for any receiver, only read values[k]. The trade-off:
    one receiver of a fresh codeword costs a K x n product, not an n-long
    dot. No command or benchmark workload decodes that way at large K.
    """
    if not 0 <= k < spec.inst.k:
        raise ValueError(f"receiver index {k} out of range")
    try:
        cc = np.asarray(c, dtype=np.int64)
    except OverflowError:
        raise ValueError("codeword symbols must fit in 64 bits") from None
    if cc.shape != (spec.n,):
        raise ValueError(f"expected a codeword of {spec.n} symbols")
    known = spec.graph.known[k]
    if len(side) != len(known):
        raise _side_error(k)
    p, table, key = spec.pf.p, spec._table, cc.tobytes()
    last = spec._evaluated[0]
    if last[0] != key:
        last = spec._evaluated[0] = (key, (table.rows @ (cc % p) % p).tolist())
    try:
        known_part = sum(map(mul, table.known_side[k], map(index, map(side.__getitem__, known))))
    except KeyError:
        raise _side_error(k) from None
    except TypeError:
        if side.keys() != set(known):
            raise _side_error(k) from None
        raise ValueError("side information values must be integers") from None
    return int((last[1][k] - known_part) % p)


def _side_error(k: int) -> ValueError:
    return ValueError(f"side information must cover exactly the known set of receiver {k}")
