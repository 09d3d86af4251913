from dataclasses import fields
from fractions import Fraction

import pytest

from sncindex import codec, snc

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
