"""Scalar linear encoder and decoder built on the stacked-identity matrices.

Messages are grouped into consecutive runs of U+1 (the last group may be
shorter); each group's parity is an extended symbol, and the extended
vector is multiplied by a K1 x N matrix whose cyclic windows are all
invertible. Every receiver recovers its message by cancelling the
extended symbols it can compute from side information and solving the
remaining window; that whole procedure is one fixed GF(2) row per
receiver, built once per spec and evaluated on every codeword.
"""

from __future__ import annotations

import itertools
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
    """Receiver k's message as the parity of these code symbols and side-info messages."""

    symbols: tuple[int, ...]
    side: tuple[int, ...]


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


def _solver_vector(spec: CodeSpec, j: int) -> np.ndarray:
    # column of the inverted window that recovers group j's parity
    return _window_inverse(spec, j)[:, spec.n - 1]


def decoder_row(spec: CodeSpec, k: int) -> DecoderRow:
    """The fixed combination that recovers message k, built once per spec.

    The solver column w of k's window reads its group parity off the
    codeword once the d1 fully known groups after it are cancelled; a
    cancelled group g enters through its members exactly when row g of
    the encoder meets w an odd number of times. The other members of k's
    own group are stripped last. A group's rows are built together, from
    one window inverse, and share their symbols.
    """
    row = spec._rows.get(k)
    if row is None:
        j = spec.group_of[k]
        w = _solver_vector(spec, j)
        symbols = tuple(np.flatnonzero(w).tolist())
        cancelled = [(j + i) % spec.k1 for i in range(1, spec.d1 + 1)]
        odd = (spec.air.matrix[cancelled] & w).sum(axis=1) & 1
        known = [msg for g in itertools.compress(cancelled, odd) for msg in spec.groups[g]]
        for rec in spec.groups[j]:
            own = [msg for msg in spec.groups[j] if msg != rec]
            spec._rows[rec] = DecoderRow(symbols, tuple(sorted(own + known)))
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
    """Minimal add-only decoding schedules, one per message group.

    For each group j, the usable cancellations are the other groups fully
    known to every receiver of group j; they include the d1 groups right
    after j. Every other encoder row lies in j's decoding window, so the
    code-symbol sets whose sum is group j plus usable groups only are
    w + span{inv[:, p]}: w is the solver column of j's decoder row, inv
    the window inverse and p the window positions of usable groups. The
    plan is the smallest set of that coset, ordered by size and then
    lexicographically, so all receivers of a group share one schedule,
    and it cancels the groups whose encoder row meets it an odd number of
    times. The inverse is only needed when some p exists.
    """
    k1, known_sets = spec.k1, spec.graph.known_sets
    cols = gf2.pack_rows(spec.air.matrix.T)
    group_plans: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for j, members in enumerate(spec.groups):
        common = frozenset.intersection(*(known_sets[k] for k in members))
        usable = {g for g in {spec.group_of[m] for m in common}
                  if common.issuperset(spec.groups[g])}
        symbols = decoder_row(spec, members[0]).symbols
        free = [p for p, g in enumerate(_window(spec, j)) if g in usable]
        if free:
            inv = _window_inverse(spec, j)
            coset = [frozenset(symbols)]
            for p in free:
                col = frozenset(np.flatnonzero(inv[:, p]).tolist())
                coset += [s ^ col for s in coset]
            symbols = min((tuple(sorted(s)) for s in coset), key=lambda s: (len(s), s))
        hits = 0
        for t in symbols:
            hits ^= cols[t]
        cancelled = tuple(g for g in range(k1) if g != j and hits >> (k1 - 1 - g) & 1)
        group_plans.append((symbols, cancelled))

    entries = tuple(
        ReceiverPlan(k, *group_plans[spec.group_of[k]]) for k in range(spec.inst.k)
    )
    return DecodePlan(entries)
