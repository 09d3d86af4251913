"""Plain reference implementations that only the tests use.

Each one follows its definition directly and shares no code path with
the package function it checks, except that cyclic_window_inverses,
the earlier one-sided window kernel, inverts its first window with
gf2.invert; decoder_rows takes its window inverses from that kernel;
and the two decoders take their codewords through the package's
codeword rules and their rows from the package's cached decoders.
The instance enumerator and the hypothesis strategy are the tests' one
copy of the validity rule K >= 2, 0 <= U <= D, U + D <= K - 1.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import index, mul

import numpy as np
from hypothesis import strategies as st

from sncindex import air, codec, gf2, gfp, mds, snc


def all_instances(k_max: int, full: bool = True):
    """Every valid (K, D, U) with K <= k_max, by K, then D, then U; with
    full=False, the U + D = K - 1 instances are left out."""
    for k in range(2, k_max + 1):
        for d in range(k):
            for u in range(min(d, k - 1 - d) + 1):
                if full or u + d < k - 1:
                    yield snc.SncInstance(k, d, u)


@st.composite
def random_instances(draw, k_max):
    """A valid instance with K <= k_max."""
    k = draw(st.integers(2, k_max))
    d = draw(st.integers(0, k - 1))
    u = draw(st.integers(0, min(d, k - 1 - d)))
    return snc.SncInstance(k, d, u)


def cyclic_window_inverses(rows: list[int], n: int):
    """gf2.cyclic_window_inverses by one-sided updates: a parity test per column.

    Same yield as the package kernel, from the inverse kept by slot
    columns only: with v the difference of the leaving and entering rows
    and u the leaving slot's column, every column c with v . cols[c] = 1
    gets u added, and v . u = 1 means the new window is singular. The
    package kernel gave way to a two-sided update; this one checks it
    where brute force per window is too slow.
    """
    m = len(rows)
    if not 1 <= n <= m:
        raise ValueError("window size must lie between 1 and the row count")
    cols = None
    for s in range(m):
        r = s % n
        if cols is None:
            try:
                inv = gf2.invert(gf2.unpack_rows([rows[(s + i) % m] for i in range(n)], n))
            except gf2.NotUniqueError:
                yield None
                continue
            by_position = gf2.pack_rows(np.ascontiguousarray(inv.T))
            cols = by_position[n - r:] + by_position[:n - r]
        elif v := rows[s - 1] ^ rows[(s - 1 + n) % m]:
            u = cols[(s - 1) % n]
            if (v & u).bit_count() & 1:
                cols = None
                yield None
                continue
            cols = [col ^ u if (v & col).bit_count() & 1 else col for col in cols]
        yield cols[r:] + cols[:r]


def paper_encoders() -> list[np.ndarray]:
    """The encoding matrices behind the paper's (827, 23, U) table, U = 1..10."""
    return [codec.build_code(snc.SncInstance(827, 23, u)).air.matrix for u in range(1, 11)]


def window_matrices(seed: int, count: int, m_max: int):
    """Seeded matrices for the window kernels, cycling through four kinds:
    dense random, sparse random, and AIR with one or with two rows zeroed."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        m = int(rng.integers(1, m_max + 1))
        n = int(rng.integers(1, m + 1))
        kind = trial % 4
        if kind == 0:
            mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        elif kind == 1:
            mat = (rng.random((m, n)) < 3 / n).astype(np.uint8)
        else:
            mat = air.build_air(m, n).matrix.copy()
            mat[rng.integers(0, m, size=kind - 1)] = 0
        yield mat


def usable_groups(spec: codec.CodeSpec) -> list[set[int]]:
    """For each group j, the other groups fully known to every receiver of j.

    The members' known sets from graph.known are intersected, and a group
    is usable when that intersection holds all of it. It never holds a
    member of j, since no receiver knows its own message.
    """
    usable = []
    for members in spec.groups:
        first, *rest = (spec.graph.known[m] for m in members)
        common = set(first).intersection(*rest)
        usable.append({g for g in {spec.group_of[m] for m in common}
                       if common.issuperset(spec.groups[g])})
    return usable


def decoder_rows(spec: codec.CodeSpec) -> list[codec.DecoderRow | None]:
    """Every receiver's decoder row, with the usable groups from usable_groups.

    The symbol sets that isolate group j are the last column of window s's
    inverse plus any sum of the columns at the window positions of j's
    usable groups; the row adds the smallest, by size and then
    lexicographically, and cancels the usable groups its symbols carry.
    None marks the receivers of a singular window. The usable groups come
    from graph.known for any grouping, so this checks codec's cancellation
    rule, which holds for build_code's groupings only, and the window
    inverses come from the one-sided kernel, so it checks codec's kernel too.
    """
    n, k1 = spec.n, spec.k1
    encoder = gf2.pack_rows(spec.air.matrix)
    usable_of = usable_groups(spec)
    rows: list[codec.DecoderRow | None] = [None] * spec.inst.k
    for s, cols in enumerate(cyclic_window_inverses(encoder, n)):
        if cols is None:
            continue
        j = (s + n - 1) % k1  # window s ends with group j's row, and group g is at (g - s) % k1
        members = spec.groups[j]
        usable = usable_of[j]
        coset = [cols[-1]]
        for p in sorted((g - s) % k1 for g in usable):
            if p < n:
                coset += [c ^ cols[p] for c in coset]
        # fewest symbols, then the lexicographically smallest index tuple:
        # index 0 is the top bit, so that is the largest int
        best = min(coset, key=lambda c: (c.bit_count(), -c))
        symbols = tuple(t for t, bit in enumerate(format(best, f"0{n}b")) if bit == "1")
        known = [m for g in usable if (encoder[g] & best).bit_count() & 1 for m in spec.groups[g]]
        for rec in members:
            own = [msg for msg in members if msg != rec]
            rows[rec] = codec.DecoderRow(rec, symbols, tuple(sorted(own + known)))
    return rows


def subset_search_plan(spec: codec.CodeSpec) -> list[tuple[int, tuple, tuple]]:
    """Minimal add-only decoding schedules by exhaustive search.

    For each group j, the usable cancellations are usable_groups(spec)[j].
    The smallest set of code symbols whose column sum hits group j plus
    only such groups is found by trying subsets, ordered by size and then
    lexicographically. Exponential in N.
    Returns (receiver, symbols, cancelled) for every receiver in order.
    """
    k1, n = spec.k1, spec.n
    cols = gf2.pack_rows(spec.air.matrix.T)
    fully_known = usable_groups(spec)

    group_plans: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for j in range(k1):
        target = 1 << (k1 - 1 - j)
        allowed = 0
        for i in fully_known[j]:
            allowed |= 1 << (k1 - 1 - i)
        found = None
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                t = 0
                for idx in combo:
                    t ^= cols[idx]
                if t & target and (t ^ target) & ~allowed == 0:
                    rest = t ^ target
                    cancelled = tuple(
                        i for i in range(k1) if rest >> (k1 - 1 - i) & 1
                    )
                    found = (combo, cancelled)
                    break
            if found:
                break
        assert found is not None, f"no combination isolates group {j}"
        group_plans.append(found)

    return [(k, *group_plans[spec.group_of[k]]) for k in range(spec.inst.k)]


def subset_search_bounded(k: int, d: int, u: int) -> bool:
    """Whether subset_search_plan finishes quickly: with U = 0, D >= 1 and
    N >= 15 it can try most subsets of the N symbols."""
    return not (u == 0 and d >= 1 and k - d >= 15)


def span_coefficients(v, basis) -> np.ndarray | None:
    """Coefficients expressing v over the basis list, or None if outside the span."""
    vv = gf2.as_bits(v, ndim=1)
    vecs = [gf2.as_bits(b, ndim=1) for b in basis]
    if any(b.shape != vv.shape for b in vecs):
        raise ValueError("all vectors must have the same length")
    k = len(vecs)
    *packed, target = gf2.pack_rows(np.array([*vecs, vv], dtype=np.uint8))
    # the low k bits of each row record which basis vectors it combines
    span = gf2.Basis((r << k) | (1 << (k - 1 - i)) for i, r in enumerate(packed))
    t = span.reduce(target << k)
    return None if t >> k else gf2.unpack_rows([t], k)[0]


def in_span(v, basis) -> bool:
    """True iff v is a GF(2) combination of the basis vectors."""
    return span_coefficients(v, basis) is not None


def prime_rank(field: gfp.PrimeField, a) -> int:
    """Row rank over GF(p) by Gauss-Jordan elimination."""
    aa = field.elements(a, 2).copy()
    p = field.p
    rows, cols = aa.shape
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if aa[i, col] % p), None)
        if piv is None:
            continue
        if piv != r:
            aa[[r, piv]] = aa[[piv, r]]
        aa[r] = (aa[r] * field.inv(int(aa[r, col]))) % p
        factors = aa[:, col].copy()
        factors[r] = 0
        aa -= np.outer(factors, aa[r])
        aa %= p
        r += 1
    return r


def dense_side(spec: mds.MdsCodeSpec, table: mds.DecoderTable) -> np.ndarray:
    """The K x K matrix S with table.side[k] at graph.known[k] and 0 elsewhere.

    Receiver k's output is rows[k] . c - S[k] . x, so whole blocks of
    trials decode at once as (C rows^T - X S^T) mod p.
    """
    k = spec.inst.k
    out = np.zeros((k, k), dtype=np.int64)
    for rec, js in enumerate(spec.graph.known):
        out[rec, list(js)] = table.side[rec]
    return out


def mds_table_certified(spec: mds.MdsCodeSpec, table: mds.DecoderTable) -> bool:
    """Whether the table decodes every one of the p^K messages.

    Receiver k outputs rows[k] . c - side[k] . x[known[k]] with c = x G,
    which is x . (G rows[k] - S[k]) for S = dense_side. That equals x_k
    for every x iff side[k] has one coefficient per known message and
    rows G^T = I + S (mod p).
    """
    k, p = spec.inst.k, spec.pf.p
    if [len(coefs) for coefs in table.side] != [len(js) for js in spec.graph.known]:
        return False
    product = (table.rows @ spec.generator.T - dense_side(spec, table)) % p
    return bool((product == np.eye(k, dtype=np.int64)).all())


def exists_rank_at_most(known, r: int, row0: list[int]) -> bool:
    """Whether some fitting matrix with row 0 in row0 has GF(2) rank <= r.

    The coset search that oracles.brute_minrank2 ran before it decided the
    last rank by one linear system: rows are picked in order by their
    residue modulo a reduced echelon basis of the rows before them, every
    option of the row that reaches rank r is searched, and at rank r each
    remaining row needs a zero residue. Failing bases below rank r are
    recorded and not searched again.
    """
    k = len(known)
    rows: dict[int, int] = {}
    dead = set()

    def residues(i: int) -> tuple[int, list[int]]:
        span = gf2.Basis(rows.get(t, 0) ^ 1 << t for t in known[i])
        return span.reduce(rows.get(i, 0) ^ 1 << i), list(span.pivots.values())

    def go(i: int, rank: int) -> bool:
        if i == k:
            return True
        if rank == r:
            return all(residues(j)[0] == 0 for j in range(i, k))
        key = 0
        for row in sorted(rows.values()):
            key = key << k | row
        if key in dead:
            return False
        if i == 0:
            options = row0
        else:
            off, gens = residues(i)
            options = [off]
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


def receiver(graph: snc.SideInfoGraph, k) -> int:
    """The receiver-index rule: operator.index, then the range test."""
    try:
        k = index(k)
    except TypeError:
        raise ValueError(f"receiver index must be an integer (got {k!r})") from None
    if not 0 <= k < graph.k:
        raise ValueError(f"receiver index {k} out of range")
    return k


def side_values(graph: snc.SideInfoGraph, k: int, side) -> list:
    """side's values in known[k] order, one lookup per key: the side-information
    rule, under which side's keys must be exactly known[k]."""
    known = graph.known[k]
    if type(side) is dict and len(side) == len(known):
        try:
            return [side[j] for j in known]
        except KeyError:
            pass
    elif isinstance(side, Mapping) and side.keys() == set(known):
        return [side[j] for j in known]
    raise snc.SideInfoMismatchError(
        f"side information must cover exactly the known set of receiver {k}"
    )


def decode(spec: codec.CodeSpec, k, c, side) -> int:
    """codec.decode by the rules one at a time: each side value's type
    and value are checked, and the row's parity is a numpy sum plus one
    mapping lookup per side message."""
    k = receiver(spec.graph, k)
    cc = gf2.as_bits(c, ndim=1)
    if cc.shape[0] != spec.n:
        raise codec.LengthMismatchError(f"expected a codeword of {spec.n} bits")
    values = side_values(spec.graph, k, side)
    ints = all(issubclass(t, (int, np.integer, np.bool_)) for t in set(map(type, values)))
    if not (ints and set(values) <= {0, 1}):
        raise ValueError("side information values must be bits")
    row = codec.decoder_row(spec, k)
    bit = int(cc.take(row.symbols).sum() & 1)
    for msg in row.side:
        bit ^= side[msg]
    return int(bit)


def mds_decode(spec: mds.MdsCodeSpec, k, c, side) -> int:
    """mds.mds_decode by the rules one at a time: rows[k] . c evaluated for
    this call alone, each side value through operator.index (numpy bools
    as bools)."""
    k = receiver(spec.graph, k)
    cc = spec.pf.elements(c, 1, representatives=True)
    if len(cc) != spec.n:
        raise ValueError(f"expected a codeword of {spec.n} symbols")
    values = side_values(spec.graph, k, side)
    table, p = mds.decoder_table(spec), spec.pf.p
    try:
        known_part = sum(map(mul, table.side[k], map(index, values)))
    except TypeError:
        values = [bool(v) if isinstance(v, np.bool_) else v for v in values]
        try:
            known_part = sum(map(mul, table.side[k], map(index, values)))
        except TypeError:
            raise ValueError("side information values must be integers") from None
    return int((int(table.rows[k] @ (cc % p)) - known_part) % p)
