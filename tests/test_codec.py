import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sncindex import codec, gf2, snc

from reference import decoder_rows, random_instances, subset_search_bounded, subset_search_plan

K20 = snc.SncInstance(20, 9, 2)


@pytest.fixture(scope="module")
def spec20():
    return codec.build_code(K20)


def indicator(k, positions):
    x = np.zeros(k, dtype=np.uint8)
    x[list(positions)] = 1
    return x


def test_build_k20(spec20):
    assert (spec20.k1, spec20.d1, spec20.n) == (7, 2, 5)
    assert spec20.groups[0] == (0, 1, 2)
    assert spec20.groups[6] == (18, 19)
    assert spec20.n == snc.code_length(K20)


def test_build_9_5_2():
    spec = codec.build_code(snc.SncInstance(9, 5, 2))
    assert (spec.k1, spec.d1, spec.n) == (3, 1, 2)
    assert spec.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_build_one_sided_degenerates():
    spec = codec.build_code(snc.SncInstance(8, 3, 0))
    assert spec.k1 == 8 and spec.d1 == 3 and spec.n == 5
    assert all(len(g) == 1 for g in spec.groups)
    assert (spec.expanded == spec.air.matrix).all()


def test_groups_partition_and_sizes():
    for k, d, u in [(20, 9, 2), (21, 9, 2), (9, 5, 2), (14, 6, 3), (11, 4, 1)]:
        inst = snc.SncInstance(k, d, u)
        spec = codec.build_code(inst)
        flat = [x for g in spec.groups for x in g]
        assert flat == list(range(k))
        assert all(len(g) == u + 1 for g in spec.groups[:-1])
        assert 1 <= len(spec.groups[-1]) <= u + 1
        assert spec.n == snc.code_length(inst)


def test_expanded_replicates_rows(spec20):
    for k in range(20):
        assert (spec20.expanded[k] == spec20.air.matrix[spec20.group_of[k]]).all()


def test_build_full_side_info_is_one_group():
    spec = codec.build_code(snc.SncInstance(5, 3, 1))
    assert spec.groups == ((0, 1, 2, 3, 4),)
    assert (spec.k1, spec.d1, spec.n) == (1, 0, 1)


def test_extend_examples(spec20):
    assert codec.extend(spec20, indicator(20, [0])).tolist() == [1, 0, 0, 0, 0, 0, 0]
    # group sizes 3,3,3,3,3,3,2: the all-ones vector has even parity only in the last group
    assert codec.extend(spec20, np.ones(20, dtype=np.uint8)).tolist() == [1, 1, 1, 1, 1, 1, 0]
    spec9 = codec.build_code(snc.SncInstance(9, 5, 2))
    assert codec.extend(spec9, indicator(9, [3])).tolist() == [0, 1, 0]


def test_encode_known_combination(spec20):
    c = codec.encode(spec20, indicator(20, [0, 15]))
    assert c.tolist() == [0, 0, 1, 0, 1]


def test_encode_zero_and_linearity(spec20):
    assert not codec.encode(spec20, np.zeros(20, dtype=np.uint8)).any()
    rng = np.random.default_rng(9)
    for _ in range(20):
        x1 = rng.integers(0, 2, size=20, dtype=np.uint8)
        x2 = rng.integers(0, 2, size=20, dtype=np.uint8)
        lhs = codec.encode(spec20, x1 ^ x2)
        rhs = codec.encode(spec20, x1) ^ codec.encode(spec20, x2)
        assert (lhs == rhs).all()


def test_symbolic_code_symbols(spec20):
    # c0..c4 combine the groups {0,5}, {1,6}, {2,5}, {3,6}, {4,5,6}
    supports = [tuple(np.flatnonzero(spec20.air.matrix[:, t])) for t in range(5)]
    assert supports == [(0, 5), (1, 6), (2, 5), (3, 6), (4, 5, 6)]


def test_length_mismatch_errors(spec20):
    with pytest.raises(codec.LengthMismatchError):
        codec.extend(spec20, np.zeros(19, dtype=np.uint8))
    with pytest.raises(codec.LengthMismatchError):
        codec.decode(spec20, 0, np.zeros(4, dtype=np.uint8), {})


def side_of(graph, x, k):
    return {j: int(x[j]) for j in graph.known[k]}


def test_decode_round_trip_k20(spec20):
    rng = np.random.default_rng(41)
    for _ in range(25):
        x = rng.integers(0, 2, size=20, dtype=np.uint8)
        c = codec.encode(spec20, x)
        for k in range(20):
            assert codec.decode(spec20, k, c, side_of(spec20.graph, x, k)) == x[k]


def test_decode_round_trip_assorted():
    rng = np.random.default_rng(43)
    for k, d, u in [(9, 5, 2), (8, 3, 0), (14, 6, 3), (7, 3, 1), (2, 0, 0)]:
        spec = codec.build_code(snc.SncInstance(k, d, u))
        for _ in range(10):
            x = rng.integers(0, 2, size=k, dtype=np.uint8)
            c = codec.encode(spec, x)
            for rec in range(k):
                assert codec.decode(spec, rec, c, side_of(spec.graph, x, rec)) == x[rec]


def test_decode_receiver_index_validated(spec20):
    x = np.zeros(20, dtype=np.uint8)
    c = codec.encode(spec20, x)
    cases = [
        (20, "receiver index 20 out of range"),
        (-1, "receiver index -1 out of range"),
        (1.5, "receiver index must be an integer (got 1.5)"),
        (np.float64(2.0), f"receiver index must be an integer (got {np.float64(2.0)!r})"),
    ]
    for k, text in cases:
        with pytest.raises(ValueError) as info:
            codec.decode(spec20, k, c, {})
        assert str(info.value) == text
    for k in (1, np.int64(1), np.uint8(1), True):
        assert codec.decode(spec20, k, c, side_of(spec20.graph, x, 1)) == 0


def test_decode_side_info_mismatch(spec20):
    x = np.zeros(20, dtype=np.uint8)
    c = codec.encode(spec20, x)
    side = side_of(spec20.graph, x, 0)
    side.pop(next(iter(side)))
    with pytest.raises(codec.SideInfoMismatchError):
        codec.decode(spec20, 0, c, side)
    side = side_of(spec20.graph, x, 0)
    side[0] = 0  # receiver 0 may not hold its own message
    with pytest.raises(codec.SideInfoMismatchError):
        codec.decode(spec20, 0, c, side)
    # the right number of keys, one known message swapped for an unknown one
    side = side_of(spec20.graph, x, 0)
    unknown = next(m for m in range(1, 20) if m not in side)
    side[unknown] = side.pop(next(iter(side)))
    with pytest.raises(codec.SideInfoMismatchError,
                       match="^side information must cover exactly the known set of receiver 0$"):
        codec.decode(spec20, 0, c, side)


def test_decode_refuses_side_information_that_is_not_a_mapping():
    # a list used to end in an AttributeError
    spec = codec.build_code(snc.SncInstance(5, 1, 0))
    c = codec.encode(spec, [1, 0, 1, 1, 0])
    for side in ([0, 1, 1, 0], [0], (0,), np.array([0])):
        with pytest.raises(codec.SideInfoMismatchError,
                           match="^side information must cover exactly the known set of receiver 0$"):
            codec.decode(spec, 0, c, side)
    assert codec.decode(spec, 0, c, {1: 0}) == 1


def test_decoder_row_receiver_index_validated():
    # -1 returned receiver 6's row, 7 raised a bare IndexError and 1.5 a TypeError
    spec = codec.build_code(snc.SncInstance(7, 3, 1))
    cases = [
        (-1, "receiver index -1 out of range"),
        (7, "receiver index 7 out of range"),
        (1.5, "receiver index must be an integer (got 1.5)"),
        ("1", "receiver index must be an integer (got '1')"),
    ]
    for k, text in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            codec.decoder_row(spec, k)
    for k in (6, np.int64(6), np.uint8(6)):
        assert codec.decoder_row(spec, k) == codec.decoder_row(spec, 6)
        assert codec.decoder_row(spec, k).receiver == 6
    assert codec.decoder_row(spec, True).receiver == 1


def test_decode_rejects_side_values_that_are_not_integer_bits(spec20):
    # Python and numpy ints and bools decode to a Python int; floats, strings
    # and non-bits are ValueErrors
    x = np.random.default_rng(59).integers(0, 2, size=20, dtype=np.uint8)
    c = codec.encode(spec20, x)
    for rec in (0, 4, 19):
        for kind in (int, bool, np.uint8, np.int64, np.bool_):
            side = {j: kind(x[j]) for j in spec20.graph.known[rec]}
            bit = codec.decode(spec20, rec, c, side)
            assert type(bit) is int and bit == x[rec], kind
        for bad in (1.0, 0.0, np.float64(0), np.float64(1), 2, -1, "1", None):
            side = side_of(spec20.graph, x, rec)
            side[next(iter(side))] = bad
            with pytest.raises(ValueError, match="^side information values must be bits$"):
                codec.decode(spec20, rec, c, side)


def test_single_sum_code():
    spec = codec.build_code(snc.SncInstance(5, 3, 1))
    assert (spec.k1, spec.d1, spec.n) == (1, 0, 1)
    assert spec.expanded.tolist() == [[1]] * 5
    x = np.array([1, 1, 0, 1, 0], dtype=np.uint8)
    assert codec.encode(spec, x).tolist() == [1]
    for k in range(5):
        assert codec.decode(spec, k, [int(x.sum() % 2)], side_of(spec.graph, x, k)) == x[k]
    tiny = codec.build_code(snc.SncInstance(2, 1, 0))
    assert codec.encode(tiny, [1, 1]).tolist() == [0]
    mid = codec.build_code(snc.SncInstance(4, 2, 1))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.integers(0, 2, size=4, dtype=np.uint8)
        c = codec.encode(mid, x)
        for k in range(4):
            assert codec.decode(mid, k, c, side_of(mid.graph, x, k)) == x[k]


def test_code_for_dispatch():
    # a second name, so a tracer wrapping build_code sees calls through either
    assert codec.code_for is codec.build_code


def test_expanded_encodes_basis_vectors(spec20):
    # multiplying by the replicated matrix agrees with extend-then-encode
    for k in range(20):
        e = indicator(20, [k])
        assert (codec.encode(spec20, e) == spec20.expanded[k]).all()


def test_plan_reproduces_known_table(spec20):
    plan = codec.extract_plan(spec20)
    assert plan.table_rows() == [
        (0, 2, (0, 2)),
        (3, 5, (1, 3)),
        (6, 8, (2, 3, 4)),
        (9, 11, (3, 4)),
        (12, 14, (4,)),
        (15, 17, (0,)),
        (18, 19, (1,)),
    ]


def cancelled(spec, row):
    # the groups whose parities the row's symbols carry besides the receiver's own
    return tuple(sorted({spec.group_of[m] for m in row.side} - {spec.group_of[row.receiver]}))


def eval_plan_entry(spec, entry, x, c):
    # add the listed code symbols, cancel the other groups they carry, strip the own group
    k = entry.receiver
    j = spec.group_of[k]
    acc = 0
    for t in entry.symbols:
        acc ^= int(c[t])
    for g in cancelled(spec, entry):
        for msg in spec.groups[g]:
            acc ^= int(x[msg])
    for msg in spec.groups[j]:
        if msg != k:
            acc ^= int(x[msg])
    return acc


def test_plan_soundness(spec20):
    rng = np.random.default_rng(47)
    plan = codec.extract_plan(spec20)
    graph = spec20.graph
    for _ in range(25):
        x = rng.integers(0, 2, size=20, dtype=np.uint8)
        c = codec.encode(spec20, x)
        for entry in plan.entries:
            # everything a plan touches must be available to that receiver
            known = set(graph.known[entry.receiver])
            for g in cancelled(spec20, entry):
                assert set(spec20.groups[g]) <= known
            assert eval_plan_entry(spec20, entry, x, c) == x[entry.receiver]


def test_plan_soundness_assorted():
    rng = np.random.default_rng(53)
    # (40,5,0) and (60,3,0) are beyond any subset search: N = 35 and 57
    for k, d, u in [(9, 5, 2), (8, 3, 0), (14, 6, 3), (5, 3, 1), (40, 5, 0), (60, 3, 0)]:
        spec = codec.code_for(snc.SncInstance(k, d, u))
        plan = codec.extract_plan(spec)
        for _ in range(10):
            x = rng.integers(0, 2, size=k, dtype=np.uint8)
            c = codec.encode(spec, x)
            for entry in plan.entries:
                assert eval_plan_entry(spec, entry, x, c) == x[entry.receiver]


def test_plan_single_sum():
    spec = codec.build_code(snc.SncInstance(5, 3, 1))
    plan = codec.extract_plan(spec)
    assert plan.table_rows() == [(0, 4, (0,))]


def assert_plan_certificate(spec, plan):
    # each receiver's symbols sum to its own group plus the cancelled groups,
    # and it knows every message of those
    for e in plan.entries:
        odd = spec.air.matrix[:, list(e.symbols)].sum(axis=1) & 1
        assert set(np.flatnonzero(odd)) == {spec.group_of[e.receiver], *cancelled(spec, e)}
        for g in cancelled(spec, e):
            assert set(spec.groups[g]) <= set(spec.graph.known[e.receiver])


def plan_triples(spec, plan):
    return [(e.receiver, e.symbols, cancelled(spec, e)) for e in plan.entries]


def test_plan_matches_subset_search_up_to_k40(specs_k40):
    for spec in specs_k40:
        k, d, u = spec.inst.k, spec.inst.d, spec.inst.u
        plan = codec.extract_plan(spec)
        if subset_search_bounded(k, d, u):
            assert plan_triples(spec, plan) == subset_search_plan(spec), spec.inst
        else:  # too slow for the reference: check soundness instead
            assert_plan_certificate(spec, plan)


@st.composite
def short_code_instances(draw, k_max, n_max):
    # K beyond 40 and D close to K - 1 - U, so that N <= n_max
    k = draw(st.integers(41, k_max))
    u = draw(st.integers(0, 10))
    k1 = -(-k // (u + 1))
    d_min = max(u, u + (u + 1) * (k1 - n_max))
    assume(d_min <= k - 1 - u)
    return snc.SncInstance(k, draw(st.integers(d_min, k - 1 - u)), u)


@settings(max_examples=40, deadline=None)
@given(inst=short_code_instances(200, 12))
def test_plan_matches_subset_search_property(inst):
    spec = codec.code_for(inst)
    assert spec.n <= 12
    assert plan_triples(spec, codec.extract_plan(spec)) == subset_search_plan(spec)


def assert_decoder_certificate(spec):
    # decoding is linear, so x_k = (code symbols + side messages of the row)
    # for every one of the 2^K messages iff their coefficients sum to e_k;
    # and the row is the receiver's plan entry, so decode uses the plan
    k = spec.inst.k
    cols = gf2.pack_rows(np.ascontiguousarray(spec.expanded.T))
    plan = codec.extract_plan(spec)
    for rec in range(k):
        row = codec.decoder_row(spec, rec)
        assert row.symbols == plan.entries[rec].symbols, (spec.inst, rec)
        own = [m for m in spec.groups[spec.group_of[rec]] if m != rec]
        carried = [m for g in cancelled(spec, row) for m in spec.groups[g]]
        assert sorted(row.side) == sorted(own + carried), (spec.inst, rec)
        assert set(row.side) <= set(spec.graph.known[rec]), (spec.inst, rec)
        acc = 0
        for t in row.symbols:
            acc ^= cols[t]
        for msg in row.side:
            acc ^= 1 << (k - 1 - msg)
        assert acc == 1 << (k - 1 - rec), (spec.inst, rec)


def assert_rows_match_reference(spec):
    # the cancellation rule picks the same rows as the set-based usable groups
    rows = [codec.decoder_row(spec, rec) for rec in range(spec.inst.k)]
    assert rows == decoder_rows(spec), spec.inst


def test_decoder_rows_certified_up_to_k40(specs_k40):
    for spec in specs_k40:
        assert_decoder_certificate(spec)
        assert_rows_match_reference(spec)


@pytest.mark.parametrize("u", range(1, 11))
def test_decoder_rows_certified_paper_table(u):
    spec = codec.build_code(snc.SncInstance(827, 23, u))
    assert_decoder_certificate(spec)
    assert_rows_match_reference(spec)


def test_certificate_rejects_wrong_solver_column(monkeypatch):
    inverses = gf2.cyclic_window_inverses

    def flipped(rows, n):
        for s, cols in enumerate(inverses(rows, n)):
            if (s + n - 1) % len(rows) == 3:  # the window that ends with group 3
                cols = [*cols[:-1], cols[-1] ^ 1 << (n - 1)]
            yield cols

    monkeypatch.setattr(gf2, "cyclic_window_inverses", flipped)
    with pytest.raises(AssertionError):
        assert_decoder_certificate(codec.build_code(K20))


@settings(max_examples=40, deadline=None)
@given(inst=random_instances(300), seed=st.integers(0, 2**32 - 1))
def test_decode_recovers_every_message_property(inst, seed):
    spec = codec.code_for(inst)
    x = np.random.default_rng(seed).integers(0, 2, size=inst.k, dtype=np.uint8)
    c = codec.encode(spec, x)
    for k in range(inst.k):
        assert codec.decode(spec, k, c, side_of(spec.graph, x, k)) == x[k]


@settings(max_examples=40, deadline=None)
@given(inst=random_instances(2000))
def test_decoder_rows_certified_property(inst):
    spec = codec.code_for(inst)
    assert_decoder_certificate(spec)
    assert_rows_match_reference(spec)
