import copy
import functools
import pickle
from collections import OrderedDict, defaultdict
from dataclasses import fields
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sncindex import codec, mds, snc

from reference import all_instances


def kahn_acyclic(edges, vertices):
    # test-local acyclicity check, independent of the library helper
    vs = set(vertices)
    adj = {v: [w for w in edges[v] if w in vs] for v in vs}
    indeg = {v: 0 for v in vs}
    for v in vs:
        for w in adj[v]:
            indeg[w] += 1
    stack = [v for v in vs if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == len(vs)


def test_validation_messages_name_the_rule():
    with pytest.raises(ValueError, match="K must be at least 2"):
        snc.SncInstance(1, 0, 0)
    with pytest.raises(ValueError, match="0 <= U <= D"):
        snc.SncInstance(10, 2, 3)
    with pytest.raises(ValueError, match="0 <= U <= D"):
        snc.SncInstance(10, 2, -1)
    with pytest.raises(ValueError, match="U \\+ D <= K - 1"):
        snc.SncInstance(5, 4, 1)


def test_instance_parameters_must_be_integers():
    # floats constructed, then failed in analyze or build_code; a str raised a bare TypeError
    cases = [
        ((20.0, 9, 2), "K must be an integer (got 20.0)"),
        ((20.5, 9, 2), "K must be an integer (got 20.5)"),
        (("20", 9, 2), "K must be an integer (got '20')"),
        ((20, 9.0, 2), "D must be an integer (got 9.0)"),
        ((20, 9, 2.0), "U must be an integer (got 2.0)"),
    ]
    for args, text in cases:
        with pytest.raises(ValueError) as info:
            snc.SncInstance(*args)
        assert type(info.value) is ValueError and str(info.value) == text
    inst = snc.SncInstance(np.int64(20), np.uint8(9), 2)
    assert inst == snc.SncInstance(20, 9, 2) and hash(inst) == hash(snc.SncInstance(20, 9, 2))
    assert [type(v) for v in (inst.k, inst.d, inst.u)] == [int, int, int]
    assert snc.analyze(inst) == snc.analyze(snc.SncInstance(20, 9, 2))
    assert (codec.build_code(inst).n, mds.build_mds(inst).n) == (5, 9)


def test_validation_matches_rule_on_random_triples():
    import random

    rng = random.Random(0)
    for _ in range(500):
        k = rng.randint(-2, 12)
        d = rng.randint(-2, 12)
        u = rng.randint(-2, 12)
        valid = k >= 2 and 0 <= u <= d and u + d <= k - 1
        if valid:
            snc.SncInstance(k, d, u)
        else:
            with pytest.raises(ValueError):
                snc.SncInstance(k, d, u)


def test_broadcast_rate_examples():
    assert snc.broadcast_rate(snc.SncInstance(17, 6, 2)) == Fraction(13, 3)
    assert snc.broadcast_rate(snc.SncInstance(16, 3, 2)) == 5
    assert snc.broadcast_rate(snc.SncInstance(5, 3, 1)) == 1


def test_capacity_examples():
    assert snc.capacity(snc.SncInstance(17, 6, 2)) == Fraction(3, 13)
    assert snc.capacity(snc.SncInstance(5, 3, 1)) == 1
    assert snc.capacity(snc.SncInstance(20, 9, 2)) == Fraction(3, 13)


def test_mais_examples():
    assert snc.mais(snc.SncInstance(17, 6, 2)) == 4
    assert snc.mais(snc.SncInstance(16, 3, 2)) == 5
    for u in range(4):
        assert snc.mais(snc.SncInstance(9, 8 - u, u)) == 1


def test_mais_witness_examples():
    assert snc.mais_witness(snc.SncInstance(17, 6, 2)) == (0, 3, 6, 9)
    assert snc.mais_witness(snc.SncInstance(16, 3, 2)) == (0, 3, 6, 9, 12)
    assert snc.mais_witness(snc.SncInstance(4, 3, 0)) == (0,)


def test_mais_witness_always_acyclic():
    for inst in all_instances(60):
        graph = snc.build_graph(inst)
        witness = snc.mais_witness(inst)
        assert len(witness) == snc.mais(inst)
        assert kahn_acyclic(graph.known, witness)


def test_code_length_examples():
    assert snc.code_length(snc.SncInstance(20, 9, 2)) == 5
    assert snc.code_length(snc.SncInstance(827, 23, 4)) == 163
    for k, d in [(8, 3), (12, 7), (30, 1)]:
        assert snc.code_length(snc.SncInstance(k, d, 0)) == k - d


def test_code_length_full_side_info_is_one():
    assert snc.code_length(snc.SncInstance(5, 3, 1)) == 1


def test_full_side_info_values_are_one():
    # U + D = K - 1: the code is one parity, as long as the MDS code, and air wins the tie
    for k in range(2, 61):
        for u in range((k - 1) // 2 + 1):
            inst = snc.SncInstance(k, k - 1 - u, u)
            r = snc.analyze(inst)
            lengths = (codec.build_code(inst).n, snc.code_length(inst), r.gamma, r.mds_length,
                       r.minrank.lo, r.minrank.hi, r.conjecture_value)
            assert lengths == (1,) * 7, inst
            assert r.winner == "air", inst
            assert snc.length_slack(inst) == 0


def test_optimality_condition_examples():
    assert snc.optimality_condition(snc.SncInstance(20, 9, 2))
    assert not snc.optimality_condition(snc.SncInstance(16, 3, 2))
    assert snc.optimality_condition(snc.SncInstance(17, 6, 2))
    assert snc.optimality_condition(snc.SncInstance(7, 3, 1))


def test_minrank_status_examples():
    assert snc.minrank_status(snc.SncInstance(20, 9, 2)).exact == 5
    assert snc.minrank_status(snc.SncInstance(5, 3, 1)).exact == 1
    assert snc.minrank_status(snc.SncInstance(7, 3, 1)).exact == 3
    status = snc.minrank_status(snc.SncInstance(16, 3, 2))
    assert (status.lo, status.hi) == (5, 6)
    assert status.exact is None
    assert str(status) == "5..6"


def test_length_slack_examples():
    assert snc.length_slack(snc.SncInstance(827, 23, 1)) == Fraction(1, 2)
    assert snc.length_slack(snc.SncInstance(827, 23, 4)) == Fraction(7, 5)
    assert snc.length_slack(snc.SncInstance(12, 5, 0)) == 0


def test_length_slack_violation_raises(monkeypatch):
    # a RuntimeError, unlike an assert, survives python -O
    monkeypatch.setattr(snc, "code_length", lambda inst: 10**6)
    with pytest.raises(RuntimeError):
        snc.length_slack(snc.SncInstance(20, 9, 2))


def test_partial_clique_quantities():
    inst = snc.SncInstance(20, 9, 2)
    assert snc.partial_clique_kappa(inst) == 8
    assert snc.mds_code_length(inst) == 9
    assert snc.conjecture_value(inst) == 5
    clique = snc.SncInstance(5, 3, 1)
    assert snc.partial_clique_kappa(clique) == 0
    assert snc.mds_code_length(clique) == 1
    assert snc.conjecture_value(clique) == 1
    big = snc.SncInstance(827, 23, 10)
    assert snc.mds_code_length(big) == 794
    assert snc.conjecture_value(big) == 75


def test_build_graph_examples():
    assert snc.build_graph(snc.SncInstance(5, 2, 1)).known[0] == (4, 1, 2)
    g = snc.build_graph(snc.SncInstance(20, 9, 2))
    assert g.known[18] == (16, 17, 19, 0, 1, 2, 3, 4, 5, 6, 7)
    assert snc.build_graph(snc.SncInstance(4, 3, 0)).known[0] == (1, 2, 3)


def test_build_graph_matches_definition():
    # receiver v knows the U messages before it, then the D after it, each
    # run in ascending cyclic order
    for inst in all_instances(40):
        k, d, u = inst.k, inst.d, inst.u
        g = snc.build_graph(inst)
        want = tuple(
            tuple((v - u + j) % k for j in range(u)) + tuple((v + 1 + j) % k for j in range(d))
            for v in range(k)
        )
        assert g.k == k
        assert g.known == want
        assert all(type(row) is tuple for row in g.known)
    assert [f.name for f in fields(snc.SideInfoGraph)] == ["k", "known"]


def test_graph_regular_out_degree():
    for inst in all_instances(15):
        g = snc.build_graph(inst)
        assert all(len(row) == inst.u + inst.d for row in g.known)
        assert all(v not in row for v, row in enumerate(g.known))


def test_formula_ordering_sweep():
    # mais <= beta <= gamma < beta + 2, exact rational comparisons; the
    # minrank bounds are ceil(beta) (which mais never exceeds) and the
    # shorter construction
    for inst in all_instances(60):
        beta = snc.broadcast_rate(inst)
        gamma = snc.code_length(inst)
        ceil_beta = -(-beta.numerator // beta.denominator)
        assert snc.mais(inst) <= beta <= gamma
        assert gamma < beta + 2
        if snc.optimality_condition(inst):
            assert gamma == ceil_beta
        status = snc.minrank_status(inst)
        assert status.lo == max(snc.mais(inst), ceil_beta), inst
        assert status.hi == min(gamma, inst.k - inst.d - inst.u), inst


def test_analyze_report():
    r = snc.analyze(snc.SncInstance(17, 6, 2))
    assert r.beta == Fraction(13, 3)
    assert r.mais == 4
    assert r.gamma == 5
    assert r.optimality
    assert r.minrank.exact == 5
    full = snc.analyze(snc.SncInstance(5, 3, 1))
    assert full.gamma == 1 and full.minrank.exact == 1 and full.conjecture_value == 1


def test_winner_examples():
    # (gamma, mds_length, winner, conjecture_value); a tie goes to air
    for kdu, lengths in [
        ((20, 9, 2), (5, 9, "air", 5)),
        ((10, 2, 1), (5, 7, "air", 5)),
        ((6, 2, 2), (2, 2, "air", 2)),
        ((10, 4, 2), (4, 4, "air", 4)),
        ((30, 4, 1), (14, 25, "air", 14)),
        ((5, 2, 1), (3, 2, "mds", 2)),
    ]:
        r = snc.analyze(snc.SncInstance(*kdu))
        assert (r.gamma, r.mds_length, r.winner, r.conjecture_value) == lengths, kdu


OUT_OF_RANGE = "receiver index {} out of range"
NOT_AN_INDEX = "receiver index must be an integer (got {})"
MISMATCH = "side information must cover exactly the known set of receiver 0"


@pytest.mark.parametrize("receiver, make_side, error, text", [
    (-1, None, ValueError, OUT_OF_RANGE.format(-1)),
    (6, None, ValueError, OUT_OF_RANGE.format(6)),
    (1.5, None, ValueError, NOT_AN_INDEX.format(1.5)),
    ("1", None, ValueError, NOT_AN_INDEX.format("'1'")),
    (0, lambda: [0, 0, 0], codec.SideInfoMismatchError, MISMATCH),
    (0, lambda: (0, 0, 0), codec.SideInfoMismatchError, MISMATCH),
    (0, lambda: np.zeros(3, dtype=int), codec.SideInfoMismatchError, MISMATCH),
    (0, lambda: {5: 0, 1: 0}, codec.SideInfoMismatchError, MISMATCH),
    (0, lambda: {5: 0, 1: 0, 2: 0, 3: 0}, codec.SideInfoMismatchError, MISMATCH),
    (0, lambda: {5: 0, 1: 0, 3: 0}, codec.SideInfoMismatchError, MISMATCH),
    # mds_decode returned 0 here and added key 2 to the caller's dict
    (0, lambda: defaultdict(int, {5: 0, 1: 0, 3: 0}), codec.SideInfoMismatchError, MISMATCH),
], ids=["-1", "K", "float", "str", "list", "tuple", "ndarray", "missing", "extra", "swapped",
        "defaultdict"])
def test_both_decoders_share_the_receiver_and_side_contract(receiver, make_side, error, text):
    inst = snc.SncInstance(6, 2, 1)
    spec, baseline = codec.build_code(inst), mds.build_mds(inst)
    assert spec.graph.known[0] == baseline.graph.known[0] == (5, 1, 2)
    for encode, decode, s in ((codec.encode, codec.decode, spec),
                              (mds.mds_encode, mds.mds_decode, baseline)):
        side = make_side() if make_side else {5: 0, 1: 0, 2: 0}
        before = dict(side) if isinstance(side, dict) else None
        with pytest.raises(ValueError) as info:
            decode(s, receiver, encode(s, [0] * 6), side)
        assert (type(info.value), str(info.value)) == (error, text), decode.__name__
        if before is not None:
            assert side == before  # no key added


def test_both_decoders_take_a_read_only_mapping():
    inst = snc.SncInstance(6, 2, 1)
    spec, baseline = codec.build_code(inst), mds.build_mds(inst)
    x = [1, 0, 1, 1, 0, 1]
    c, cm = codec.encode(spec, x), mds.mds_encode(baseline, x)
    for rec, known in enumerate(spec.graph.known):
        side = MappingProxyType({j: x[j] for j in known})
        assert codec.decode(spec, rec, c, side) == mds.mds_decode(baseline, rec, cm, side) == x[rec]


class Index:
    """An integer to operator.index and to nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


class SubDict(dict):
    pass


#: Every side value kind whose acceptance the decoders' fast paths could change.
ODD_VALUES = [0, 1, True, False, np.bool_(True), np.bool_(False), np.int64(1), np.uint8(1),
              np.uint8(0), np.uint64(2**64 - 1), 255, 256, -1, 2**70, Index(1), Index(300),
              np.array(1), 1.0, 0.5, "1", None]
#: How the side values are built from the message symbols.
CONVERTERS = [int, bool, np.bool_, np.int64, np.uint8, Index]
MAPPINGS = [dict, lambda items: dict(items[::-1]), SubDict, OrderedDict,
            lambda items: defaultdict(int, items), lambda items: MappingProxyType(dict(items))]
#: Receivers with 0, 1 and several known messages.
AGREEMENT = [(2, 0, 0), (2, 1, 0), (3, 1, 0), (6, 2, 1), (9, 3, 1), (20, 9, 2), (13, 12, 0)]


@functools.cache
def both_codes(kdu):
    inst = snc.SncInstance(*kdu)
    return codec.build_code(inst), mds.build_mds(inst)


def outcome(decode, *args):
    try:
        return decode(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(kdu=st.sampled_from(AGREEMENT), data=st.data())
def test_decoders_agree_with_the_reference_property(kdu, data):
    # the same value, or the same exception type and text, as the rules one
    # at a time, with each odd side value in turn at one known position
    k = kdu[0]
    rec = data.draw(st.integers(0, k - 1))
    receiver = data.draw(st.sampled_from([rec, rec, np.int64(rec), rec == 1 if rec < 2 else rec,
                                          float(rec), rec + k, rec - k]))
    convert = data.draw(st.sampled_from(CONVERTERS))
    make = data.draw(st.sampled_from(MAPPINGS))
    keys = data.draw(st.sampled_from(["exact", "exact", "exact", "drop", "extra"]))
    for code, decode, check in ((0, codec.decode, reference.decode),
                                (1, mds.mds_decode, reference.mds_decode)):
        spec = both_codes(kdu)[code]
        top = spec.pf.p if code else 2
        x = data.draw(st.lists(st.integers(0, top - 1), min_size=k, max_size=k))
        c = mds.mds_encode(spec, x) if code else codec.encode(spec, x)
        base = [(j, convert(x[j])) for j in spec.graph.known[rec]]
        at = data.draw(st.integers(0, max(0, len(base) - 1)))
        for odd in [None, *ODD_VALUES] if base else [None]:
            items = list(base)
            if odd is not None:
                items[at] = (items[at][0], odd)
            if keys == "drop":
                items = items[1:]
            elif keys == "extra":
                items.append((rec, 0))
            sides = make(items), make(items)
            got = outcome(decode, spec, receiver, c, sides[0])
            assert got == outcome(check, spec, receiver, c, sides[1]), (kdu, receiver, items)
            assert dict(sides[0]) == dict(sides[1])  # no key added


@pytest.mark.parametrize("kdu", [(9, 0, 0), (9, 1, 0), (9, 3, 1)])
def test_decoded_specs_pickle_and_deepcopy(kdu):
    # what a decode caches on a spec or its graph must round-trip too
    inst = snc.SncInstance(*kdu)
    spec, baseline = codec.build_code(inst), mds.build_mds(inst)
    x = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    c, cm = codec.encode(spec, x), mds.mds_encode(baseline, x)

    def decoded(s, b):
        return ([codec.decode(s, rec, c, {j: x[j] for j in known})
                 for rec, known in enumerate(s.graph.known)],
                [mds.mds_decode(b, rec, cm, {j: x[j] for j in known})
                 for rec, known in enumerate(b.graph.known)])

    want = decoded(spec, baseline)
    assert want == (x, x)
    for clone in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy):
        s, b, graph = clone(spec), clone(baseline), clone(spec.graph)
        assert graph == spec.graph and graph.side_values(0, {j: 1 for j in graph.known[0]}) \
            == (1,) * len(graph.known[0])
        assert decoded(s, b) == want
