"""Ground truth by exhaustive search and algebra, and the code's simulator.

brute_mais, brute_minrank2 and check_decodable are the independent checks:
they compute minima and memberships from definitions alone, reusing neither
the closed forms nor the code construction. roundtrip_sim checks the
construction's own decoder rows (codec.decoder_row) on every message at
once, and replays seeded trials only at receivers whose row is wrong.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from operator import xor

import numpy as np

from . import codec, gf2
from .snc import SideInfoGraph

MAIS_CAP = 20
#: brute_mais fills its subset table in blocks of 2^MAIS_BLOCK consecutive
#: masks, each one popcount layer of their low bits at a time.
MAIS_BLOCK = 12
MINRANK_CAP = 26


class TooLargeError(ValueError):
    """The enumeration would exceed the configured cap."""


def brute_mais(graph: SideInfoGraph, cap: int = MAIS_CAP) -> tuple[int, tuple[int, ...]]:
    """Largest vertex set inducing an acyclic subgraph, with one witness.

    A set is acyclic iff it is empty or its lowest sink (a vertex with no
    edges into the rest of the set) leaves an acyclic set when removed,
    since no cycle passes through a sink. The table over all 2^K subset
    bitmasks is filled in blocks of 2^MAIS_BLOCK consecutive masks, which
    share their high bits. One int64 bitmask per low pattern holds the
    vertices that are sinks as far as the low bits can tell; ANDed with the
    block's candidates, its lowest set bit is the mask's lowest sink.
    Inside a block, masks go in layers by the popcount of their low bits,
    one slice each of the low patterns sorted by popcount: a sink among the
    low bits points to a lower layer of the same block, any other sink to
    an earlier block. Subsets of an acyclic set are acyclic, so once a
    layer holds none, no higher layer does, and the rest of the block stays
    0. The witness is the first mask in increasing order that reaches the
    maximum size.
    """
    k = graph.k
    if k > cap:
        raise TooLargeError(f"K={k} exceeds the 2^K subset cap of {cap}")
    no_table = f"K={k}: the 2^K subset table does not fit in memory"
    if k >= 63:  # no array has 2^63 entries, and the sink masks are int64
        raise TooLargeError(no_table)
    try:
        acyclic = np.zeros(1 << k, dtype=np.uint8)
    except MemoryError:
        raise TooLargeError(no_table) from None
    acyclic[0] = 1
    out_mask = [0] * k
    for v in range(k):
        for w in graph.known[v]:
            out_mask[v] |= 1 << w
        out_mask[v] &= ~(1 << v)
    c = min(MAIS_BLOCK, k)

    def sinks_of(patterns: np.ndarray, own: range) -> np.ndarray:
        # bit v set when a pattern holds none of v's out-neighbours, and v if v in own
        bits = np.zeros(len(patterns), dtype=np.int64)
        for v in range(k):
            sink = (patterns & out_mask[v]) == 0
            if v in own:
                sink &= (patterns >> v & 1) == 1
            bits |= sink.astype(np.int64) << v
        return bits

    low = np.arange(1 << c, dtype=np.int64)
    low_size = np.zeros(1 << c, dtype=np.int64)
    for v in range(c):
        low_size += low >> v & 1
    order = np.argsort(low_size, kind="stable")  # low patterns, layer by layer
    ends = np.cumsum(np.bincount(low_size)).tolist()
    layers = list(zip(ends, ends[1:]))  # layers 1..c as slices of order
    # a mask's sinks, when its low bits are order[i] and its high bits base:
    # sinks[i] & cands[base >> c]
    sinks = sinks_of(low, range(c))[order]
    bases = range(0, 1 << k, 1 << c)
    cands = sinks_of(np.array(bases, dtype=np.int64), range(c, k)).tolist()
    high = (1 << k) - (1 << c)
    best, best_mask = 0, 0
    for base, cand in zip(bases, cands):
        if base:  # layer 0, the high bits alone: their lowest sink is in cand
            h = cand & high
            if not (h and acyclic[base ^ (h & -h)]):
                continue
            acyclic[base] = 1
        x = sinks & cand
        idx = order | base
        src = idx ^ (x & -x)  # a mask with no sink reads itself, still 0
        size, last = base.bit_count(), None
        for s, e in layers:
            row = acyclic[src[s:e]]
            if not row.any():
                break
            acyclic[idx[s:e]] = row
            size, last = size + 1, (idx[s:e], row)
        if size > best:
            best = size
            best_mask = base if last is None else int(last[0][last[1].argmax()])
    witness = tuple(v for v in range(k) if best_mask >> v & 1)
    return best, witness


def _row0_options(known) -> list[int]:
    # every fitting row 0: bit 0 plus any subset of known[0], most bits first
    options = [1]
    for j in known[0]:
        options += [v | 1 << j for v in options]
    return sorted(options, key=lambda v: (-v.bit_count(), v))


def _exists_rank_at_most(known, r: int, row0: list[int]) -> bool:
    # whether some fitting matrix with row 0 in row0 has rank <= r
    k = len(known)
    # reduced echelon basis of the rows so far: pivot bit -> row, each row 0
    # at every other pivot, so reducing is linear and canonical per coset
    rows: dict[int, int] = {}
    # bases below rank r from which no completion reaches rank <= r. A basis
    # reached after row i holds an option of every row before i, so the
    # answer is the same at every depth that reaches it: the key is the basis.
    dead = set()

    def unit(t: int) -> int:
        # the residue of e_t: e_t plus row t if t is a pivot
        return rows.get(t, 0) ^ 1 << t

    def residues(i: int) -> tuple[int, list[int]]:
        # row i's options e_i + subset(known[i]) reduce to off + span(gens);
        # off == 0 iff 0 is among them
        span = gf2.Basis(map(unit, known[i]))
        return span.reduce(unit(i)), list(span.pivots.values())

    def last_rank_fits(i: int, off: int, gens: list[int]) -> bool:
        # whether some red in off + span(gens), taken as the last rank, lets
        # every later row j fit: unit(j) in S_j, or red in unit(j) + S_j, with
        # S_j = span{unit(t) : t in known[j]}. Gens are tagged g << k | g, so
        # eliminating S_j and them from (unit(j) + off) << k leaves a bit above
        # k (no red fits) or the gens that move off onto a solution; the
        # tagged rows left without such bits span the gens still free.
        for j in range(i + 1, k):
            span = gf2.Basis(unit(t) << k for t in known[j])
            want = unit(j)
            if span.reduce(want << k) == 0:
                continue
            for g in gens:
                span.insert(g << k | g)
            rest = span.reduce((want ^ off) << k)
            if rest >> k:
                return False
            off ^= rest
            gens = [v for v in span.pivots.values() if v >> k == 0]
        return True

    def go(i: int, rank: int) -> bool:
        if i == k:
            return True
        key = 0  # the rows by pivot, k bits each
        for row in sorted(rows.values()):
            key = key << k | row
        if key in dead:
            return False
        if rank == r - 1:
            # a nonzero residue takes the last rank, and one system per
            # affine space decides all of them; only the zero residue recurses
            spaces = [(red, []) for red in row0] if i == 0 else [residues(i)]
            if any(last_rank_fits(i, off, gens) for off, gens in spaces):
                return True
            options = [0] if spaces[0][0] == 0 else []
        elif i == 0:
            options = row0  # the basis is empty, so each option is its own residue
        else:
            off, gens = residues(i)
            options = [off]  # every distinct residue once, the zero residue first
            for g in gens:
                options += [v ^ g for v in options]
        for red in options:
            if red == 0:
                found = go(i + 1, rank)
            else:
                p = red.bit_length() - 1
                touched = [q for q, row in rows.items() if row >> p & 1]
                for q in touched:
                    rows[q] ^= red
                rows[p] = red
                found = go(i + 1, rank + 1)
                del rows[p]
                for q in touched:
                    rows[q] ^= red
            if found:
                return True
        dead.add(key)
        return False

    return go(0, 0)


def _minrank_worker(args) -> bool:
    return _exists_rank_at_most(*args)


def brute_minrank2(
    graph: SideInfoGraph,
    early_stop: int | None = None,
    cap: int = MINRANK_CAP,
    jobs: int = 1,
) -> int:
    """Minimum GF(2) rank over all fitting matrices of the graph.

    A fitting matrix has 1s on the diagonal and support inside the side
    information otherwise. The search deepens a target rank r upward and
    picks rows in order, each only by its residue modulo the span of the
    rows before it, since options in one coset lead to the same subtree.
    The span is a reduced echelon basis, so residues are canonical and
    each coset is searched once; row i's residues form an affine space
    built from |known[i]| + 1 unit-vector reductions. The last rank is
    not branched on: after a nonzero residue red at rank r, a later row j
    fits iff its own residues reach 0, that is iff red(e_j) lies in S_j +
    span{red}, S_j the span of the residues of e_t for t in known[j]. So
    row j already fits, or red must lie in red(e_j) + S_j. Over the
    affine space of row i's residues that is one GF(2) system in the
    coefficients, solved row by row up to the first row it cannot meet;
    only the zero residue recurses at rank r - 1. Every basis below rank
    r that the search fails from is recorded and not searched again for
    that r. The first r admitting a complete assignment is the minimum.
    Passing early_stop starts at that target, which is exact whenever
    early_stop is a valid lower bound.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1 (got {jobs})")
    if early_stop is not None and early_stop > graph.k:
        raise ValueError(f"early_stop must be at most K={graph.k} (got {early_stop})")
    free_bits = sum(len(a) for a in graph.known)
    if free_bits > cap:
        raise TooLargeError(
            f"{free_bits} free positions exceed the 2^bits cap of {cap}"
        )
    row0 = _row0_options(graph.known)
    start = max(1, early_stop) if early_stop is not None else 1
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = [row0[i::jobs] for i in range(jobs) if row0[i::jobs]]
    pool = nullcontext()
    if len(chunks) > 1:  # imported here: it loads multiprocessing, which one job never uses
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(len(chunks))
    # one pool serves every target rank
    with pool as executor:
        run = map if executor is None else executor.map
        for r in range(start, graph.k + 1):
            if any(run(_minrank_worker, [(graph.known, r, ch) for ch in chunks])):
                return r
    raise AssertionError("identity always fits, so rank K must succeed")


def check_decodable(graph: SideInfoGraph, a) -> np.ndarray:
    """Per-receiver test that e_k lies in span(columns of a) + span(side info)."""
    mat = gf2.as_bits(a, ndim=2)
    k = graph.k
    if mat.shape[0] != k:
        raise ValueError("matrix must have one row per message")
    base = gf2.Basis(gf2.pack_rows(np.ascontiguousarray(mat.T)))
    out = np.zeros(k, dtype=bool)
    for rec in range(k):
        span = base.copy()
        for j in graph.known[rec]:
            span.insert(1 << (k - 1 - j))
        out[rec] = span.reduce(1 << (k - 1 - rec)) == 0
    return out


@dataclass(frozen=True)
class SimReport:
    """Outcome of a seeded encode/decode round-trip run."""

    trials: int
    seed: int
    decodes: int
    failures: int
    first_failure: tuple[int, int, str] | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def roundtrip_sim(spec: codec.CodeSpec, trials: int, seed: int) -> SimReport:
    """Encode seeded random messages and decode at every receiver.

    Decoding is linear, so each receiver's decoder row is evaluated once,
    on the K unit messages: message m is bit m of one int, group parities
    and code symbols are XORs of those ints, and the row's symbols, its
    side messages and the receiver's own message XOR to its error set.
    An empty error set proves the row right on all 2^K messages, so such
    receivers never fail. A singular receiver fails every trial. Only the
    receivers with a nonempty error set replay the seeded trials, one
    rng.integers(0, 2, size=K, dtype=np.uint8) draw each; a trial fails
    where its message meets the error set an odd number of times.
    """
    k, runs = spec.inst.k, max(trials, 0)
    parities = [reduce(xor, (1 << m for m in group), 0) for group in spec.groups]
    code = [reduce(xor, (parities[g] for g in np.flatnonzero(c)), 0) for c in spec.air.matrix.T]
    failures, first, errors = 0, None, {}
    for rec in range(k):
        try:
            row = codec.decoder_row(spec, rec)
        except codec.SystemSingularError as exc:
            if runs and first is None:
                first = (0, rec, f"decode error: {exc}")
            failures += runs
            continue
        known = reduce(xor, (1 << m for m in row.side), 1 << rec)
        err = reduce(xor, (code[t] for t in row.symbols), known)
        if err:
            errors[rec] = err
    if errors:
        rng = np.random.default_rng(seed)
        for t in range(runs):
            x = rng.integers(0, 2, size=k, dtype=np.uint8)
            msgs = int.from_bytes(np.packbits(x, bitorder="little").tobytes(), "little")
            for rec, err in errors.items():
                if (msgs & err).bit_count() & 1:
                    failures += 1
                    if first is None or (t, rec) < first[:2]:
                        want = msgs >> rec & 1
                        first = (t, rec, f"expected {want}, got {want ^ 1}")
    return SimReport(trials, seed, runs * k, failures, first)
