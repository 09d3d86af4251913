"""Scalar linear encoder and decoder built on the stacked-identity matrices.

Messages are grouped into consecutive runs of U+1 (the last group may be
shorter); each group's parity is an extended symbol, and the extended
vector is multiplied by a K1 x N matrix whose cyclic windows are all
invertible. Every receiver recovers its message by adding a minimal set
of code symbols and cancelling the group parities it knows from side
information. That add-only schedule is one fixed GF(2) row per receiver,
built once per spec: decode and the round-trip simulator evaluate it on
every codeword, and the decoding plan prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import gf2
from .air import AirMatrix, build_air
from .snc import FullSideInfo, SideInfoGraph, SncInstance, build_graph


class LengthMismatchError(ValueError):
    """Input vector length does not match the instance."""


class SideInfoMismatchError(ValueError):
    """The supplied side information does not cover exactly the known set."""


class SystemSingularError(RuntimeError):
    """The decoding window was singular; indicates a construction bug."""


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Everything a transmitter and its receivers need for one instance.

    groups[j] lists the message indices whose parity is extended symbol j;
    expanded replicates row group_of[k] of the encoding matrix so that the
    codeword is also a direct product with the raw message vector.
    """

    inst: SncInstance
    k1: int
    d1: int
    n: int
    groups: tuple[tuple[int, ...], ...]
    group_of: tuple[int, ...]
    air: AirMatrix
    expanded: np.ndarray
    graph: SideInfoGraph
    _rows: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, slots=True)
class DecoderRow:
    """Receiver k's message as the parity of these code symbols and side-info messages.

    cancelled lists the groups whose parities the symbols carry besides
    k's own; side holds their members and the rest of k's group.
    """

    symbols: tuple[int, ...]
    side: tuple[int, ...]
    cancelled: tuple[int, ...]


def build_code(inst: SncInstance) -> CodeSpec:
    """The general construction; length equals the code_length formula."""
    if inst.full_side_info:
        raise FullSideInfo("use single_sum_code when U + D = K - 1")
    k, d, u = inst.k, inst.d, inst.u
    k1 = -(-k // (u + 1))
    d1 = (d - u) // (u + 1)
    n = k1 - d1
    groups = tuple(
        tuple(range(j * (u + 1), min((j + 1) * (u + 1), k))) for j in range(k1)
    )
    group_of = tuple(x // (u + 1) for x in range(k))
    mat = build_air(k1, n)
    expanded = mat.matrix[np.array(group_of)]
    expanded.flags.writeable = False
    return CodeSpec(inst, k1, d1, n, groups, group_of, mat, expanded, build_graph(inst))


def single_sum_code(inst: SncInstance) -> CodeSpec:
    """One code symbol, the parity of all K messages (U + D = K - 1 only)."""
    if not inst.full_side_info:
        raise ValueError("single_sum_code requires U + D = K - 1")
    k = inst.k
    expanded = np.ones((k, 1), dtype=np.uint8)
    expanded.flags.writeable = False
    return CodeSpec(
        inst,
        k1=1,
        d1=0,
        n=1,
        groups=(tuple(range(k)),),
        group_of=(0,) * k,
        air=build_air(1, 1),
        expanded=expanded,
        graph=build_graph(inst),
    )


def code_for(inst: SncInstance) -> CodeSpec:
    """Whichever of the two constructions applies to the instance."""
    return single_sum_code(inst) if inst.full_side_info else build_code(inst)


def extend(spec: CodeSpec, x) -> np.ndarray:
    """Fold the K message bits into the K1 group parities."""
    xx = gf2.as_bits(x, ndim=1)
    if xx.shape[0] != spec.inst.k:
        raise LengthMismatchError(f"expected {spec.inst.k} bits, got {xx.shape[0]}")
    starts = np.array([g[0] for g in spec.groups])
    return np.bitwise_xor.reduceat(xx, starts)


def encode(spec: CodeSpec, x) -> np.ndarray:
    """Codeword of length N: extended vector times the encoding matrix."""
    return gf2.vec_mat(extend(spec, x), spec.air.matrix)


def _window(spec: CodeSpec, j: int) -> list[int]:
    # the n groups whose encoder rows group j's receivers solve for, j last:
    # all but the d1 groups right after j, which they cancel
    return [(j + spec.d1 + i) % spec.k1 for i in range(1, spec.n + 1)]


def _window_inverse(spec: CodeSpec, j: int) -> np.ndarray:
    try:
        return gf2.invert(spec.air.matrix[_window(spec, j)])
    except gf2.NotUniqueError as exc:
        raise SystemSingularError(f"window starting after group {j} is singular") from exc


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
    the other members of j are stripped last. A group's rows are built
    together, from one window inverse, and are cached per spec. decode,
    roundtrip_sim and extract_plan all read these rows.
    """
    row = spec._rows.get(k)
    if row is None:
        j = spec.group_of[k]
        members = spec.groups[j]
        common = frozenset.intersection(*(spec.graph.known_sets[m] for m in members))
        usable = {g for g in {spec.group_of[m] for m in common}
                  if common.issuperset(spec.groups[g])}
        inv = _window_inverse(spec, j)
        coset = [frozenset(np.flatnonzero(inv[:, -1]).tolist())]
        for p, g in enumerate(_window(spec, j)):
            if g in usable:
                col = frozenset(np.flatnonzero(inv[:, p]).tolist())
                coset += [s ^ col for s in coset]
        symbols = min((tuple(sorted(s)) for s in coset), key=lambda s: (len(s), s))
        odd = spec.air.matrix[:, symbols].sum(axis=1) & 1
        cancelled = tuple(g for g in sorted(usable) if odd[g])
        known = [msg for g in cancelled for msg in spec.groups[g]]
        for rec in members:
            own = [msg for msg in members if msg != rec]
            spec._rows[rec] = DecoderRow(symbols, tuple(sorted(own + known)), cancelled)
        row = spec._rows[k]
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
    if side.keys() != spec.graph.known_sets[k]:
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
class ReceiverPlan:
    """Code symbols to add, and the group parities cancelled afterwards."""

    receiver: int
    symbols: tuple[int, ...]
    cancelled: tuple[int, ...]


@dataclass(frozen=True)
class DecodePlan:
    entries: tuple[ReceiverPlan, ...]

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
    """Every receiver's decoder row as a table of symbols and cancelled groups."""
    rows = [decoder_row(spec, k) for k in range(spec.inst.k)]
    return DecodePlan(tuple(ReceiverPlan(k, r.symbols, r.cancelled) for k, r in enumerate(rows)))
