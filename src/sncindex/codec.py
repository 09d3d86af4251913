"""Scalar linear encoder and decoder built on the stacked-identity matrices.

Messages are grouped into consecutive runs of U+1 (the last group may be
shorter), or into one group of all K when U + D = K - 1; each group's
parity is an extended symbol, and the extended vector is multiplied by a
K1 x N matrix whose cyclic windows are all invertible. Every receiver
recovers its message by adding a minimal set of code symbols and
cancelling group parities it knows: the d1 groups right after its own and
at most one more. That add-only schedule is one fixed GF(2) row per
receiver: the code symbols and side-info messages whose parity is its
message. All rows of a spec come from one pass of rank-one updates over
the encoder's cyclic windows and are cached; decode and the round-trip
simulator evaluate them, and the plan prints them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .air import AirMatrix, build_air
from .snc import SideInfoGraph, SideInfoMismatchError, SncInstance, build_graph


_BYTE = np.dtype(np.uint8)
_INT_TYPES = frozenset({int, bool})


class LengthMismatchError(ValueError):
    """Input vector length does not match the instance."""


class SystemSingularError(RuntimeError):
    """The decoding window was singular; indicates a construction bug."""


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Everything a transmitter and its receivers need for one instance.

    groups[j] lists the consecutive message indices whose parity is
    extended symbol j, as build_code groups them; the receivers of group j
    cancel the d1 groups after it and at most one more (decoder_row).
    Everything else is derived from the fields on first use, so a spec
    copied with another air matrix derives its own: expanded replicates
    row group_of[k] of the encoding matrix so that the codeword is also a
    direct product with the raw message vector.
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

    @cached_property
    def _masks(self) -> list[int]:
        """decode's mask for each receiver (see _mask), 0 until its first decode."""
        return [0] * self.inst.k


@dataclass(frozen=True, slots=True)
class DecoderRow:
    """The receiver's message as the parity of these code symbols and side-info messages.

    side holds the rest of the receiver's group and every member of the
    other groups whose parities the symbols carry.
    """

    receiver: int
    symbols: tuple[int, ...]
    side: tuple[int, ...]


def build_code(inst: SncInstance) -> CodeSpec:
    """Groups of U+1, or one group of all K at U + D = K - 1; length is snc.code_length.

    decoder_row's cancellation rule holds for these groupings only."""
    size = inst.k if inst.full_side_info else inst.u + 1
    groups = tuple(tuple(range(s, min(s + size, inst.k))) for s in range(0, inst.k, size))
    d1 = 0 if inst.full_side_info else (inst.d - inst.u) // size
    # one encoder row per group; each receiver's window leaves out the d1 it cancels
    return CodeSpec(inst, groups, d1, build_air(len(groups), len(groups) - d1), build_graph(inst))


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


def _build_rows(spec: CodeSpec) -> list[DecoderRow | None]:
    n, k1, groups = spec.n, spec.k1, spec.groups
    encoder = gf2.pack_rows(spec.air.matrix)
    # encoder column t with group g at bit k1-1-g: the sum of a symbol set's
    # columns holds the parity of every encoder row on that set
    by_symbol = gf2.pack_rows(np.ascontiguousarray(spec.air.matrix.T))
    rows: list[DecoderRow | None] = [None] * spec.inst.k
    for s, cols in enumerate(gf2.cyclic_window_inverses(encoder, n)):
        if cols is None:
            continue
        j = (s + n - 1) % k1  # window s opens with group s and ends with group j
        members = groups[j]
        opener = n > 1 and (groups[s][-1] - members[0]) % spec.inst.k <= spec.inst.d
        coset = [cols[-1], cols[-1] ^ cols[0]] if opener else [cols[-1]]
        # fewest symbols, then the lexicographically smallest index tuple:
        # index 0 is the top bit, so that is the largest int
        best = min(coset, key=lambda c: (c.bit_count(), -c))
        symbols, parity, rest = [], 0, best
        while rest:  # set bits from the top: symbol n - top
            top = rest.bit_length()
            symbols.append(n - top)
            parity ^= by_symbol[n - top]
            rest ^= 1 << (top - 1)
        # the usable groups j+1 .. j+span (mod k1), as bits in by_symbol's order
        span = spec.d1 + opener
        run, a = ((1 << span) - 1) << (k1 - span), (j + 1) % k1
        odd = (run >> a | run << (k1 - a)) & parity
        side = list(members)
        while odd:  # the usable groups that best meets an odd number of times
            top = odd.bit_length()
            side += groups[k1 - top]
            odd ^= 1 << (top - 1)
        side.sort()
        # members are consecutive and no cancelled group lies between them
        at, symbols = side.index(members[0]), tuple(symbols)
        for i, rec in enumerate(members, at):
            rows[rec] = DecoderRow(rec, symbols, tuple(side[:i] + side[i + 1:]))
    return rows


def _row(spec: CodeSpec, k: int) -> DecoderRow:
    if (row := spec._rows[k]) is None:
        raise SystemSingularError(f"window starting after group {spec.group_of[k]} is singular")
    return row


def decoder_row(spec: CodeSpec, k: int) -> DecoderRow:
    """Receiver k's minimal add-only schedule as one fixed GF(2) row.

    k's group j = a..b can cancel the groups all its receivers know whole
    (none at U + D = K - 1, where j is the only group). Otherwise they
    know just b+1..a+D and b-U..a-1, two arcs with a gap between, so such
    a group lies in one arc. The forward arc has D-(b-a) >= D-U messages:
    it holds the d1 groups after j, which span at most d1(U+1) <= D-U,
    and the next one, which window s opens with, iff that is not j (n > 1)
    and ends within a+D. It never holds the group after that (unless that
    is j): with j full the d1+2 groups after j, at most one short, span at
    least (d1+1)(U+1)+1 > D-U, and with j the short last group they span
    (d1+2)(U+1) > D. The backward arc has U-(b-a) messages: none when j
    is full, fewer than the full group before j when j is short.
    Window s holds groups s..j, n = k1 - d1 encoder rows, and every row
    outside it is usable; so the code-symbol sets summing to group j plus
    usable groups are the inverse's last column w, and w + inv[:, 0] if
    group s is usable: one or two sets. The row adds the smaller, by size,
    then lexicographically; its side messages are the rest of j and of the
    usable groups whose encoder row meets that set an odd number of times.
    The first call builds every receiver's row in one pass of rank-one
    updates over the cyclic windows (gf2.cyclic_window_inverses), window s
    ending with group (s + n - 1) % k1; the spec keeps the rows that
    decode, roundtrip_sim and extract_plan read. k is checked as decode
    checks it.
    """
    return _row(spec, spec.graph.receiver(k))


def decode(spec: CodeSpec, k: int, c, side: Mapping[int, int]) -> int:
    """Recover message k from the codeword and the receiver's side information.

    Validates the inputs, then evaluates receiver k's decoder row: the
    parity of its code symbols and side-info messages. The codeword and
    the side values become one byte per bit, and the row one mask over
    those bytes, made on the receiver's first decode, so the parity is one
    bit_count. A uint8 codeword and Python int or bool side values are
    checked in one C pass each; any other input takes the full rule.
    """
    k = spec.graph.receiver(k)
    word = _codeword_bytes(c)
    if len(word) != spec.n:
        raise LengthMismatchError(f"expected a codeword of {spec.n} bits")
    bits = _side_bits(spec.graph.side_values(k, side))
    masks = spec._masks
    if not (mask := masks[k]):
        mask = masks[k] = _mask(spec, k)
    return (int.from_bytes(word + bits, "little") & mask).bit_count() & 1


def _codeword_bytes(c) -> bytes:
    """c's bits as gf2.as_bits takes them, one byte each."""
    if type(c) is np.ndarray and c.dtype is _BYTE and c.ndim == 1:
        word = c.tobytes()
        if not word.translate(None, b"\0\1"):
            return word
    return gf2.as_bits(c, ndim=1).tobytes()


def _side_bits(values: tuple) -> bytes:
    """The side values, one byte each; ValueError unless every one is a Python
    or numpy int or bool equal to 0 or 1."""
    try:
        bits = bytes(values)  # one C pass through __index__; raises outside 0..255
    except (TypeError, ValueError):
        pass
    else:
        if not bits.translate(None, b"\0\1") and _INT_TYPES.issuperset(map(type, values)):
            return bits
    ints = all(issubclass(t, (int, np.integer, np.bool_)) for t in set(map(type, values)))
    if not (ints and set(values) <= {0, 1}):
        raise ValueError("side information values must be bits")
    return bytes(map(bool, values))


def _mask(spec: CodeSpec, k: int) -> int:
    """Receiver k's row over decode's bytes: bit 8t for code symbol t, and
    bit 8(n + i) for known[k][i] where the row holds that message."""
    row, known, n = _row(spec, k), spec.graph.known[k], spec.n
    at = {msg: i for i, msg in enumerate(known, n)}
    buf = bytearray(n + len(known))
    for i in (*row.symbols, *map(at.__getitem__, row.side)):
        buf[i] = 1
    return int.from_bytes(buf, "little")


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
    return DecodePlan(tuple(_row(spec, k) for k in range(spec.inst.k)))
