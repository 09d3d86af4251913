"""Scalar linear encoder and decoder built on the stacked-identity matrices.

Messages are grouped into consecutive runs of U+1 (the last group may be
shorter), or into one group of all K when U + D = K - 1; each group's
parity is an extended symbol, and the extended vector is multiplied by a
K1 x N matrix whose cyclic windows are all invertible. Every receiver
recovers its message by adding a minimal set of code symbols and
cancelling the group parities it knows from side information. That
add-only schedule is one fixed GF(2) row per receiver. All rows of a spec
are built together, from one sliding pass of rank-one window-inverse
updates, and cached: decode and the round-trip simulator evaluate them on
every codeword, and the decoding plan prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import gf2
from .air import AirMatrix, build_air
from .snc import SideInfoGraph, SncInstance, build_graph


class LengthMismatchError(ValueError):
    """Input vector length does not match the instance."""


class SideInfoMismatchError(ValueError):
    """The supplied side information does not cover exactly the known set."""


class SystemSingularError(RuntimeError):
    """The decoding window was singular; indicates a construction bug."""


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Everything a transmitter and its receivers need for one instance.

    groups[j] lists the consecutive message indices whose parity is
    extended symbol j, and the receivers of group j cancel the d1 groups
    right after it. Everything else is derived from the fields on first
    use, so a spec copied with another air matrix derives its own:
    expanded replicates row group_of[k] of the encoding matrix so that the
    codeword is also a direct product with the raw message vector.
    """

    inst: SncInstance
    groups: tuple[tuple[int, ...], ...]
    d1: int
    air: AirMatrix
    graph: SideInfoGraph

    @property
    def k1(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        return self.air.n

    @cached_property
    def group_of(self) -> tuple[int, ...]:
        return tuple(j for j, members in enumerate(self.groups) for _ in members)

    @cached_property
    def expanded(self) -> np.ndarray:
        out = self.air.matrix[np.array(self.group_of)]
        out.flags.writeable = False
        return out

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([members[0] for members in self.groups])

    @cached_property
    def _rows(self) -> list[DecoderRow | None]:
        return _build_rows(self)


@dataclass(frozen=True, slots=True)
class DecoderRow:
    """The receiver's message as the parity of these code symbols and side-info messages.

    cancelled lists the groups whose parities the symbols carry besides
    the receiver's own; side holds their members and the rest of its group.
    """

    receiver: int
    symbols: tuple[int, ...]
    side: tuple[int, ...]
    cancelled: tuple[int, ...]


def _code(inst: SncInstance, groups: tuple[tuple[int, ...], ...], d1: int) -> CodeSpec:
    # one encoder row per group; each receiver's window leaves out the d1 it cancels
    k1 = len(groups)
    return CodeSpec(inst, groups, d1, build_air(k1, k1 - d1), build_graph(inst))


def build_code(inst: SncInstance) -> CodeSpec:
    """Groups of U+1, or one group of all K at U + D = K - 1; length is snc.code_length."""
    k, size = inst.k, inst.u + 1
    if inst.full_side_info:
        return _code(inst, (tuple(range(k)),), 0)
    groups = tuple(tuple(range(s, min(s + size, k))) for s in range(0, k, size))
    return _code(inst, groups, (inst.d - inst.u) // size)


#: Second name of build_code, kept for callers written against it.
code_for = build_code


def extend(spec: CodeSpec, x) -> np.ndarray:
    """Fold the K message bits into the K1 group parities."""
    xx = gf2.as_bits(x, ndim=1)
    if xx.shape[0] != spec.inst.k:
        raise LengthMismatchError(f"expected {spec.inst.k} bits, got {xx.shape[0]}")
    return np.bitwise_xor.reduceat(xx, spec._starts)


def encode(spec: CodeSpec, x) -> np.ndarray:
    """Codeword of length N: extended vector times the encoding matrix."""
    # extend validated x; uint8 sums wrap mod 256, which keeps their parity
    return (extend(spec, x) @ spec.air.matrix) & 1


def _window_inverses(spec: CodeSpec):
    """Each group j with its window's inverse as packed columns, None if singular.

    j's window is the n encoder rows its receivers solve for: all but the
    d1 groups right after j, which they cancel. Column p of the inverse is
    the code-symbol set whose sum meets only window row p, the row of group
    (j + d1 + 1 + p) % k1; the last column is j's own.
    """
    inverses = gf2.cyclic_window_inverses(gf2.pack_rows(spec.air.matrix), spec.n)
    for s, cols in enumerate(inverses):
        yield (s - spec.d1 - 1) % spec.k1, cols


def _build_rows(spec: CodeSpec) -> list[DecoderRow | None]:
    n, k1 = spec.n, spec.k1
    encoder = gf2.pack_rows(spec.air.matrix)
    rows: list[DecoderRow | None] = [None] * spec.inst.k
    for j, cols in _window_inverses(spec):
        if cols is None:
            continue
        members = spec.groups[j]
        first, *rest = (spec.graph.known[m] for m in members)
        common = set(first).intersection(*rest)
        usable = {g for g in {spec.group_of[m] for m in common}
                  if common.issuperset(spec.groups[g])}
        coset = [cols[-1]]
        for p in sorted((g - j - spec.d1 - 1) % k1 for g in usable):
            if p < n:
                coset += [s ^ cols[p] for s in coset]
        # fewest symbols, then the lexicographically smallest index tuple:
        # index 0 is the top bit, so that is the largest int
        best = min(coset, key=lambda s: (s.bit_count(), -s))
        symbols = tuple(t for t, bit in enumerate(format(best, f"0{n}b")) if bit == "1")
        cancelled = tuple(g for g in sorted(usable) if (encoder[g] & best).bit_count() & 1)
        known = [msg for g in cancelled for msg in spec.groups[g]]
        for rec in members:
            own = [msg for msg in members if msg != rec]
            rows[rec] = DecoderRow(rec, symbols, tuple(sorted(own + known)), cancelled)
    return rows


def decoder_row(spec: CodeSpec, k: int) -> DecoderRow:
    """Receiver k's minimal add-only schedule as one fixed GF(2) row.

    The usable cancellations of k's group j are the other groups fully
    known to every receiver of j; they include the d1 groups right after
    j, and every other encoder row lies in j's window. So the code-symbol
    sets whose sum is group j plus usable groups only are
    w + span{inv[:, p]}: inv is the window inverse, w its last column and
    p the window positions of usable groups. The row adds the smallest set
    of that coset, ordered by size and then lexicographically, and cancels
    the usable groups whose encoder row meets it an odd number of times;
    the other members of j are stripped last. The first call builds every
    receiver's row in one pass over the cyclic windows, each inverse a
    rank-one update of the one before (gf2.cyclic_window_inverses), and
    the spec keeps them. decode, roundtrip_sim and extract_plan all read
    these rows.
    """
    row = spec._rows[k]
    if row is None:
        raise SystemSingularError(
            f"window starting after group {spec.group_of[k]} is singular"
        )
    return row


def decode(spec: CodeSpec, k: int, c, side: Mapping[int, int]) -> int:
    """Recover message k from the codeword and the receiver's side information.

    Validates the inputs, then evaluates receiver k's decoder row: the
    parity of its code symbols and side-info messages.
    """
    if not 0 <= k < spec.inst.k:
        raise ValueError(f"receiver index {k} out of range")
    cc = gf2.as_bits(c, ndim=1)
    if cc.shape[0] != spec.n:
        raise LengthMismatchError(f"expected a codeword of {spec.n} bits")
    if side.keys() != set(spec.graph.known[k]):
        raise SideInfoMismatchError(
            f"side information must cover exactly the known set of receiver {k}"
        )
    if any(v not in (0, 1) for v in side.values()):
        raise ValueError("side information values must be bits")
    row = decoder_row(spec, k)
    bit = int(cc.take(row.symbols).sum() & 1)
    for msg in row.side:
        bit ^= side[msg]
    return bit


@dataclass(frozen=True)
class DecodePlan:
    entries: tuple[DecoderRow, ...]

    def table_rows(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Maximal runs of consecutive receivers sharing a symbol set."""
        rows = []
        for e in self.entries:
            if rows and rows[-1][2] == e.symbols:
                rows[-1] = (rows[-1][0], e.receiver, e.symbols)
            else:
                rows.append((e.receiver, e.receiver, e.symbols))
        return rows


def extract_plan(spec: CodeSpec) -> DecodePlan:
    """Every receiver's decoder row, in receiver order."""
    return DecodePlan(tuple(decoder_row(spec, k) for k in range(spec.inst.k)))
