"""Plain reference implementations that only the tests use.

Each one follows its definition directly and shares no code path with
the package function it checks. The instance enumerator and the
hypothesis strategy are the tests' one copy of the validity rule
K >= 2, 0 <= U <= D, U + D <= K - 1.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import strategies as st

from sncindex import codec, gf2, gfp, mds, snc


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


def subset_search_plan(spec: codec.CodeSpec) -> list[tuple[int, tuple, tuple]]:
    """Minimal add-only decoding schedules by exhaustive search.

    For each group j, the usable cancellations are the groups fully known
    to every receiver of group j. The smallest set of code symbols whose
    column sum hits group j plus only such groups is found by trying
    subsets, ordered by size and then lexicographically. Exponential in N.
    Returns (receiver, symbols, cancelled) for every receiver in order.
    """
    k1, n = spec.k1, spec.n
    cols = gf2.pack_rows(spec.air.matrix.T)
    group_sets = [frozenset(g) for g in spec.groups]

    fully_known: list[set[int]] = []
    for j in range(k1):
        shared = None
        for k in spec.groups[j]:
            known = set(spec.graph.known[k])
            mine = {i for i in range(k1) if i != j and group_sets[i] <= known}
            shared = mine if shared is None else shared & mine
        fully_known.append(shared or set())

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
    aa = field._as_elems(a, 2).copy()
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


def mds_table_certified(spec: mds.MdsCodeSpec, table: mds.DecoderTable) -> bool:
    """Whether the table decodes every one of the p^K messages.

    Receiver k outputs rows[k] . c - side[k] . x with c = x G, which is
    x . (G rows[k] - side[k]). That equals x_k for every x iff
    (rows G^T - side) mod p is the identity, and the receiver reads only
    messages it knows iff side[k] is 0 outside its known set. mds_decode
    sums known_side[k], which must be side[k] at k's known messages.
    """
    k, p = spec.inst.k, spec.pf.p
    known = np.zeros((k, k), dtype=bool)
    for rec, js in enumerate(spec.graph.known):
        known[rec, list(js)] = True
    exact = (table.rows @ spec.generator.T - table.side) % p == np.eye(k, dtype=np.int64)
    summed = all(
        table.known_side[rec] == [int(table.side[rec, j]) for j in js]
        for rec, js in enumerate(spec.graph.known)
    )
    return bool(exact.all()) and not table.side[~known].any() and summed


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
