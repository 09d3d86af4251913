"""Partial-clique baseline: a K x (K-D-U) Vandermonde code over GF(p), p >= K.

Each receiver misses exactly K-D-U messages, so cancelling the known ones
leaves a square Vandermonde system on distinct points, which is always
invertible; the inverse row that yields x_k is the coefficient vector of
the Lagrange polynomial that is 1 at k and 0 at the other unknown points.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import index, mul

import numpy as np

from . import snc
from .gfp import PrimeField, smallest_prime_field
from .snc import SncInstance, SideInfoGraph, build_graph

_INT64 = np.dtype(np.int64)


@dataclass(frozen=True)
class DecoderTable:
    """Every receiver's GF(p) decoder; see decoder_table."""

    rows: np.ndarray
    side: tuple[list[int], ...]  # side[k][i] is L_k(graph.known[k][i])


@dataclass(frozen=True, eq=False)
class MdsCodeSpec:
    """The decoder table and mds_decode's state are derived on first use;
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
    def _decoder(self) -> tuple:
        """(p, rows, side, slot) from _table; the one slot holds (codeword
        bytes, rows . c mod p) for the codeword decoded last."""
        table = self._table
        return self.pf.p, table.rows, table.side, [(None, None)]


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
    xx = spec.pf.elements(x, 1)
    if xx.shape[0] != spec.inst.k:
        raise ValueError(f"expected {spec.inst.k} symbols, got {xx.shape[0]}")
    return (xx @ spec.generator) % spec.pf.p


def decoder_table(spec: MdsCodeSpec) -> DecoderTable:
    """Every receiver's Lagrange row and side coefficients, built once per spec."""
    return spec._table


def _build_table(spec: MdsCodeSpec) -> DecoderTable:
    """Build every receiver's decoder in one pass.

    rows[k] holds the coefficients, lowest power first, of the polynomial
    L_k that is 1 at k and 0 at k's other unknown points; side[k][i] is
    L_k(known[k][i]). With c = x G, rows[k] . c sums L_k(i) x_i, so
    x_k = rows[k] . c - side[k] . x[known[k]] for every message x.
    All K polynomials are multiplied out together, one factor (z - a) per
    step with a the next unknown point of each receiver; one product with
    the generator then evaluates them at every message index, and the
    value at k is the scale that makes L_k(k) = 1.
    """
    k, n, p = spec.inst.k, spec.n, spec.pf.p
    known = np.array(spec.graph.known, dtype=np.intp)
    unknown = ~np.eye(k, dtype=bool)
    np.put_along_axis(unknown, known, False, axis=1)
    points = np.nonzero(unknown)[1].reshape(k, n - 1)
    coef = np.zeros((n, k), dtype=np.int64)  # coef[t, r]: z**t in receiver r's polynomial
    coef[0] = 1
    for s, a in enumerate(points.T):
        coef[1:s + 2] = coef[:s + 1] - a * coef[1:s + 2]  # times (z - a)
        coef[0] *= -a
        coef[:s + 2] %= p
    values = (spec.generator @ coef).T % p
    scale = np.array([spec.pf.inv(v) for v in values.diagonal().tolist()], dtype=np.int64)
    rows = (coef * scale % p).T.copy()
    rows.flags.writeable = False
    side = np.take_along_axis(values, known, axis=1) * scale[:, None] % p
    return DecoderTable(rows, tuple(side.tolist()))


def certify(spec: MdsCodeSpec) -> int | None:
    """The first receiver whose decoder is not exact, or None when every one is.

    Receiver k outputs rows[k] . c - side[k] . x[known[k]] with c = x G.
    That is x_k for all p^K messages iff side[k] has one entry per known
    message and row k of rows G^T = I + S (mod p), where S puts side[k]
    at known[k] and 0 elsewhere.
    """
    table = decoder_table(spec)
    k, p = spec.inst.k, spec.pf.p
    dense = np.zeros((k, k), dtype=np.int64)
    bad = np.zeros(k, dtype=bool)
    for rec, (known, coefs) in enumerate(zip(spec.graph.known, table.side, strict=True)):
        if len(coefs) == len(known):
            dense[rec, list(known)] = coefs
        else:
            bad[rec] = True
    bad |= ((table.rows @ spec.generator.T - dense) % p != np.eye(k, dtype=np.int64)).any(axis=1)
    failing = np.flatnonzero(bad)
    return int(failing[0]) if failing.size else None


def mds_decode(spec: MdsCodeSpec, k: int, c, side: Mapping[int, int]) -> int:
    """Receiver k's message: rows[k] . c minus side[k] . the side values at known[k], mod p.

    k and side are checked by spec.graph, as codec.decode checks them. The
    codeword goes through PrimeField.elements with representatives, and its
    symbols are reduced mod p before the product, so any 64-bit
    representative, signed or unsigned, decodes alike. The side values are
    taken as integers and reduced exactly: _side_integers is the rule
    (operator.index, so numpy ints cannot wrap; numpy bools as Python
    bools). Each check has a fast path that accepts only what its rule
    accepts and hands anything else to the rule: an int receiver in
    range (in graph.receiver), an int64 vector (which elements returns as
    is), and side values read by bytes() in one C pass through __index__,
    which holds 0..255 and nothing else.

    Every receiver of a trial decodes the same codeword, so the first call
    on a codeword evaluates all K rows in one product and keeps the values
    in the spec's one slot, keyed by the codeword's bytes; later calls on
    that codeword, for any receiver, only read values[k]. The trade-off:
    one receiver of a fresh codeword costs a K x n product, not an n-long
    dot. No command or benchmark workload decodes that way at large K.
    """
    graph = spec.graph
    k = graph.receiver(k)
    if type(c) is not np.ndarray or c.dtype is not _INT64 or c.ndim != 1:
        c = spec.pf.elements(c, 1, representatives=True)
    if len(c) != spec.n:
        raise ValueError(f"expected a codeword of {spec.n} symbols")
    values = graph.side_values(k, side)
    p, rows, coefs, slot = spec._decoder
    key, last = c.tobytes(), slot[0]
    if last[0] != key:
        last = slot[0] = (key, (rows @ (c % p) % p).tolist())
    try:
        ints = bytes(values)
    except (TypeError, ValueError):
        ints = _side_integers(values)
    return (last[1][k] - sum(map(mul, coefs[k], ints))) % p


def _side_integers(values: tuple) -> list[int]:
    """Each side value through operator.index, numpy bools (no __index__) as Python bools."""
    try:
        return list(map(index, values))
    except TypeError:
        values = [bool(v) if isinstance(v, np.bool_) else v for v in values]
    try:
        return list(map(index, values))
    except TypeError:
        raise ValueError("side information values must be integers") from None
