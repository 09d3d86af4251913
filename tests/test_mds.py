from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncindex import mds, snc

from reference import mds_table_certified, prime_rank, random_instances


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


def test_values_beyond_int64_raise_value_error():
    spec = mds.build_mds(snc.SncInstance(5, 1, 0))
    for big in (2**70, -2**70):
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 5\)"):
            mds.mds_encode(spec, [1, 2, 3, 4, big])
    c = mds.mds_encode(spec, [1, 2, 3, 4, 0]).tolist()
    with pytest.raises(ValueError, match="codeword symbols must fit in 64 bits"):
        mds.mds_decode(spec, 0, [*c[:-1], 2**70], {1: 2})


def test_decode_reduces_any_int64_representative():
    # symbols shifted by a multiple of p near 2**61 used to overflow the dot product
    spec = mds.build_mds(snc.SncInstance(5, 1, 0))
    p, x = spec.pf.p, [1, 2, 3, 4, 0]
    c = mds.mds_encode(spec, x)
    big = p * (2**61 // p)
    for shifted in (c + big, c - big, c - p, c + 3 * p):
        for rec in range(5):
            assert mds.mds_decode(spec, rec, shifted, side_of(spec.graph, x, rec)) == x[rec]


def test_decode_takes_side_values_as_integers():
    # numpy int64 side values shifted by a multiple of p near 2**61 wrapped the side sum
    spec = mds.build_mds(snc.SncInstance(5, 1, 0))
    p, x = spec.pf.p, [1, 2, 3, 4, 0]
    c = mds.mds_encode(spec, x)
    big = p * (2**61 // p)
    for rec in range(5):
        side = {j: np.int64(x[j] + big) for j in spec.graph.known[rec]}
        assert mds.mds_decode(spec, rec, c, side) == x[rec]
    with pytest.raises(ValueError, match="^side information values must be integers$"):
        mds.mds_decode(spec, 0, c, {1: 2.0})
    # a wrong key set is reported as such, even after a non-integer value
    wide = mds.build_mds(snc.SncInstance(6, 2, 1))
    c = mds.mds_encode(wide, [0] * 6)
    assert wide.graph.known[0] == (5, 1, 2)
    with pytest.raises(ValueError, match="^side information must cover exactly the known set"):
        mds.mds_decode(wide, 0, c, {5: 0.5, 1: 0, 3: 0})


def test_decode_validates_every_input_in_order():
    spec = mds.build_mds(snc.SncInstance(5, 1, 0))
    x = [1, 2, 3, 4, 0]
    c = mds.mds_encode(spec, x).tolist()
    side = side_of(spec.graph, x, 0)
    (j,) = side
    cases = [
        ((5, c, side), "receiver index 5 out of range"),
        ((-1, [2**70] * 5, {}), "receiver index -1 out of range"),
        ((0, [2**70] * 5, {}), "codeword symbols must fit in 64 bits"),
        ((0, c[:-1], {}), "expected a codeword of 4 symbols"),
        ((0, c, {}), "side information must cover exactly the known set of receiver 0"),
        ((0, c, {**side, 4: 0}), "side information must cover exactly the known set of receiver 0"),
        ((0, c, {j + 1: 0}), "side information must cover exactly the known set of receiver 0"),
    ]
    for args, text in cases:
        with pytest.raises(ValueError) as info:
            mds.mds_decode(spec, *args)
        assert str(info.value) == text
    # a rejected call leaves the evaluated codeword usable
    assert mds.mds_decode(spec, 0, c, side) == x[0]


def test_decode_evaluates_each_codeword_by_its_contents():
    spec = mds.build_mds(snc.SncInstance(9, 3, 1))
    rng = np.random.default_rng(47)
    x1, x2 = rng.integers(0, spec.pf.p, size=(2, 9))
    c1, c2 = mds.mds_encode(spec, x1), mds.mds_encode(spec, x2)
    for rec in range(9):  # receivers of two codewords, interleaved
        assert mds.mds_decode(spec, rec, c1, side_of(spec.graph, x1, rec)) == x1[rec]
        assert mds.mds_decode(spec, rec, c2, side_of(spec.graph, x2, rec)) == x2[rec]
    c = c1.copy()
    for rec in range(9):  # one array, rewritten in place between calls
        c[:] = c1
        assert mds.mds_decode(spec, rec, c, side_of(spec.graph, x1, rec)) == x1[rec]
        c[:] = c2
        assert mds.mds_decode(spec, rec, c, side_of(spec.graph, x2, rec)) == x2[rec]
    for rec in range(9):
        assert mds.mds_decode(spec, rec, c1.tolist(), side_of(spec.graph, x1, rec)) == x1[rec]


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
    assert mds_table_certified(spec, table) and mds.certify(spec) is None
    for rec in range(k):
        unknown = sorted(set(range(k)).difference(spec.graph.known[rec]))
        inverse = spec.pf.invert(spec.generator[unknown].T)
        assert table.rows[rec].tolist() == inverse[unknown.index(rec)].tolist()
        assert table.known_side[rec] == table.side[rec, list(spec.graph.known[rec])].tolist()


@pytest.mark.parametrize("which", ["rows", "side", "known_side"])
def test_certificate_rejects_a_changed_coefficient(which, monkeypatch):
    # certify names the receiver whose entry changed; the reference agrees
    spec = mds.build_mds(snc.SncInstance(13, 3, 1))
    table = mds.decoder_table(spec)
    assert mds_table_certified(spec, table) and mds.certify(spec) is None
    rng = np.random.default_rng(41)
    for _ in range(20):
        if which == "known_side":
            changed = [list(row) for row in table.known_side]
        else:
            changed = getattr(table, which).copy()
        r, j = int(rng.integers(0, 13)), int(rng.integers(0, len(changed[0])))
        changed[r][j] = (changed[r][j] + int(rng.integers(1, spec.pf.p))) % spec.pf.p
        bad = replace(table, **{which: changed})
        assert not mds_table_certified(spec, bad)
        monkeypatch.setattr(mds, "_build_table", lambda s: bad)
        assert mds.certify(replace(spec)) == r


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


def test_decode_matches_batched_product_up_to_k40(mds_specs_k40):
    # one codeword per instance, each symbol shifted by its own multiple of p
    for spec in mds_specs_k40:
        inst = spec.inst
        table = mds.decoder_table(spec)
        p = spec.pf.p
        rng = np.random.default_rng(inst.k * 10_000 + inst.d * 100 + inst.u)
        x = rng.integers(0, p, size=inst.k)
        c = mds.mds_encode(spec, x)
        batch = ((table.rows @ c - table.side @ x) % p).tolist()
        shifted = c + p * rng.integers(-(2**62 // p), 2**62 // p, size=spec.n)
        msgs = x.tolist()
        got = [mds.mds_decode(spec, rec, shifted, {j: msgs[j] for j in known})
               for rec, known in enumerate(spec.graph.known)]
        assert got == batch == msgs, inst


def test_replaced_copy_derives_its_own_table():
    spec = mds.build_mds(snc.SncInstance(9, 2, 1))
    table = mds.decoder_table(spec)
    copy = replace(spec, generator=2 * spec.generator % spec.pf.p)
    assert mds.decoder_table(copy) is not table
    assert mds.decoder_table(spec) is table
    x = np.random.default_rng(43).integers(0, copy.pf.p, size=9)
    c = mds.mds_encode(copy, x)
    # the same codeword decoded on both specs, interleaved: each evaluates its own rows
    want = (table.rows @ c - table.side @ x) % spec.pf.p
    for rec in range(9):
        side = side_of(copy.graph, x, rec)
        assert mds.mds_decode(copy, rec, c, side) == x[rec]
        assert mds.mds_decode(spec, rec, c, side) == want[rec]


def test_decode_clique_case_is_subtraction():
    inst = snc.SncInstance(5, 3, 1)
    spec = mds.build_mds(inst)
    x = np.array([3, 1, 4, 0, 2], dtype=np.int64)
    c = mds.mds_encode(spec, x)
    assert spec.n == 1
    assert c[0] == x.sum() % 5
    assert mds.mds_decode(spec, 2, c, side_of(spec.graph, x, 2)) == 4


def test_full_side_info_comparison_is_air_tie():
    # U + D = K - 1: both codes are one symbol long, and air wins the tie
    inst = snc.SncInstance(5, 3, 1)
    r = snc.analyze(inst)
    assert (r.gamma, r.mds_length, r.winner, r.conjecture_value) == (1, 1, "air", 1)
    assert mds.build_mds(inst).n == r.mds_length


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


@settings(max_examples=30, deadline=None)
@given(inst=random_instances(60), seed=st.integers(0, 2**32 - 1))
def test_decode_recovers_every_symbol_property(inst, seed):
    spec = mds.build_mds(inst)
    x = np.random.default_rng(seed).integers(0, spec.pf.p, size=inst.k)
    c = mds.mds_encode(spec, x)
    for k in range(inst.k):
        assert mds.mds_decode(spec, k, c, side_of(spec.graph, x, k)) == x[k]
