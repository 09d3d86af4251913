from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncindex import mds, snc

from reference import mds_table_certified, prime_rank


def side_of(graph, x, k):
    return {j: int(x[j]) for j in graph.known[k]}


def test_build_examples():
    spec = mds.build_mds(snc.SncInstance(20, 9, 2))
    assert spec.pf.p == 23 and spec.n == 9
    clique = mds.build_mds(snc.SncInstance(5, 3, 1))
    assert clique.pf.p == 5 and clique.n == 1
    small = mds.build_mds(snc.SncInstance(4, 1, 0))
    assert small.pf.p == 5 and small.n == 3


def test_generator_entries_power_convention():
    spec = mds.build_mds(snc.SncInstance(4, 1, 0))
    # row i holds successive powers of i, with 0**0 == 1
    assert spec.generator.tolist() == [
        [1, 0, 0],
        [1, 1, 1],
        [1, 2, 4],
        [1, 3, 4],
    ]
    # every K <= 40 at the widest n (D = U = 0), and one paper-size K
    for inst in [*(snc.SncInstance(k, 0, 0) for k in range(2, 41)), snc.SncInstance(827, 1, 0)]:
        spec = mds.build_mds(inst)
        p = spec.pf.p
        want = [[pow(i, t, p) for t in range(spec.n)] for i in range(inst.k)]
        assert spec.generator.tolist() == want, inst


def test_encode_zero_and_known_value():
    spec = mds.build_mds(snc.SncInstance(3, 1, 0))
    assert spec.pf.p == 3 and spec.n == 2
    assert mds.mds_encode(spec, [0, 0, 0]).tolist() == [0, 0]
    assert mds.mds_encode(spec, [1, 0, 0]).tolist() == [1, 0]


def test_encode_linearity():
    spec = mds.build_mds(snc.SncInstance(7, 2, 1))
    p = spec.pf.p
    rng = np.random.default_rng(31)
    for _ in range(10):
        x1 = rng.integers(0, p, size=7)
        x2 = rng.integers(0, p, size=7)
        lhs = mds.mds_encode(spec, (x1 + x2) % p)
        rhs = (mds.mds_encode(spec, x1) + mds.mds_encode(spec, x2)) % p
        assert (lhs == rhs).all()


def test_encode_rejects_out_of_field():
    spec = mds.build_mds(snc.SncInstance(3, 1, 0))
    with pytest.raises(ValueError):
        mds.mds_encode(spec, [0, 3, 0])


def test_decode_round_trip_small():
    rng = np.random.default_rng(37)
    for k, d, u in [(4, 1, 0), (6, 2, 1), (9, 4, 2), (5, 3, 1)]:
        inst = snc.SncInstance(k, d, u)
        spec = mds.build_mds(inst)
        for _ in range(10):
            x = rng.integers(0, spec.pf.p, size=k)
            c = mds.mds_encode(spec, x)
            for rec in range(k):
                assert mds.mds_decode(spec, rec, c, side_of(spec.graph, x, rec)) == x[rec]


@pytest.mark.parametrize("k,d,u", [
    (4, 1, 0), (9, 4, 2), (13, 3, 1), (40, 5, 2), (40, 0, 0), (2, 1, 0), (3, 0, 0), (5, 3, 1),
])
def test_decoder_row_is_the_inverse_row(k, d, u):
    # the Lagrange coefficients equal the generic inverse of the unknown window
    spec = mds.build_mds(snc.SncInstance(k, d, u))
    table = mds.decoder_table(spec)
    assert table.rows.shape == (k, spec.n) and table.side.shape == (k, k)
    assert mds_table_certified(spec, table)
    for rec in range(k):
        unknown = sorted(set(range(k)) - spec.graph.known_sets[rec])
        inverse = spec.pf.invert(spec.generator[unknown].T)
        assert table.rows[rec].tolist() == inverse[unknown.index(rec)].tolist()
        assert table.known_side[rec] == table.side[rec, list(spec.graph.known[rec])].tolist()


@pytest.mark.parametrize("which", ["rows", "side"])
def test_certificate_rejects_a_changed_coefficient(which):
    spec = mds.build_mds(snc.SncInstance(13, 3, 1))
    table = mds.decoder_table(spec)
    assert mds_table_certified(spec, table)
    rng = np.random.default_rng(41)
    for _ in range(20):
        changed = getattr(table, which).copy()
        r, j = rng.integers(0, 13), rng.integers(0, changed.shape[1])
        changed[r, j] = (changed[r, j] + rng.integers(1, spec.pf.p)) % spec.pf.p
        assert not mds_table_certified(spec, replace(table, **{which: changed}))


@pytest.mark.parametrize("k,d,u", [(7, 2, 1), (20, 9, 2), (31, 0, 0), (12, 6, 5)])
def test_decode_matches_batched_product(k, d, u):
    # x_hat = (C rows^T - X side^T) mod p decodes every receiver of every trial
    spec = mds.build_mds(snc.SncInstance(k, d, u))
    table = mds.decoder_table(spec)
    x = np.random.default_rng(k * 100 + d * 10 + u).integers(0, spec.pf.p, size=(25, k))
    c = np.array([mds.mds_encode(spec, row) for row in x])
    batch = (c @ table.rows.T - x @ table.side.T) % spec.pf.p
    assert (batch == x).all()
    for t in range(len(x)):
        for rec in range(k):
            side = side_of(spec.graph, x[t], rec)
            assert mds.mds_decode(spec, rec, c[t], side) == batch[t, rec]


def test_replaced_copy_derives_its_own_table():
    spec = mds.build_mds(snc.SncInstance(9, 2, 1))
    table = mds.decoder_table(spec)
    copy = replace(spec, generator=2 * spec.generator % spec.pf.p)
    assert mds.decoder_table(copy) is not table
    assert mds.decoder_table(spec) is table
    x = np.random.default_rng(43).integers(0, copy.pf.p, size=9)
    c = mds.mds_encode(copy, x)
    for rec in range(9):
        assert mds.mds_decode(copy, rec, c, side_of(copy.graph, x, rec)) == x[rec]


def test_decode_clique_case_is_subtraction():
    inst = snc.SncInstance(5, 3, 1)
    spec = mds.build_mds(inst)
    x = np.array([3, 1, 4, 0, 2], dtype=np.int64)
    c = mds.mds_encode(spec, x)
    assert spec.n == 1
    assert c[0] == x.sum() % 5
    assert mds.mds_decode(spec, 2, c, side_of(spec.graph, x, 2)) == 4


def test_every_row_subset_invertible():
    inst = snc.SncInstance(12, 5, 3)
    spec = mds.build_mds(inst)
    assert spec.n == 4
    for rows in combinations(range(12), spec.n):
        assert prime_rank(spec.pf, spec.generator[list(rows)]) == spec.n


def test_decodable_over_prime_field():
    # e_k within the span of generator columns plus side-info indicators
    inst = snc.SncInstance(6, 2, 1)
    spec = mds.build_mds(inst)
    p = spec.pf
    for k in range(6):
        cols = [spec.generator[:, t] for t in range(spec.n)]
        cols += [np.eye(6, dtype=np.int64)[j] for j in spec.graph.known[k]]
        stacked = np.array(cols).T % p.p
        with_target = np.concatenate(
            [stacked, np.eye(6, dtype=np.int64)[k][:, None]], axis=1
        )
        assert prime_rank(p, stacked) == prime_rank(p, with_target)


def test_compare_lengths_examples():
    assert mds.compare_lengths(snc.SncInstance(20, 9, 2)) == mds.LengthComparison(5, 9, "air", 5)
    assert mds.compare_lengths(snc.SncInstance(10, 2, 1)) == mds.LengthComparison(5, 7, "air", 5)
    assert mds.compare_lengths(snc.SncInstance(6, 2, 2)) == mds.LengthComparison(2, 2, "air", 2)


def test_compare_lengths_rejects_full_side_info():
    with pytest.raises(snc.FullSideInfo):
        mds.compare_lengths(snc.SncInstance(5, 3, 1))


@st.composite
def instances(draw, k_max):
    k = draw(st.integers(2, k_max))
    d = draw(st.integers(0, k - 1))
    u = draw(st.integers(0, min(d, k - 1 - d)))
    return snc.SncInstance(k, d, u)


@settings(max_examples=30, deadline=None)
@given(inst=instances(60), seed=st.integers(0, 2**32 - 1))
def test_decode_recovers_every_symbol_property(inst, seed):
    spec = mds.build_mds(inst)
    x = np.random.default_rng(seed).integers(0, spec.pf.p, size=inst.k)
    c = mds.mds_encode(spec, x)
    for k in range(inst.k):
        assert mds.mds_decode(spec, k, c, side_of(spec.graph, x, k)) == x[k]
