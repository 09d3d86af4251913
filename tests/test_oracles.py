import concurrent.futures
import math
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncindex import codec, gf2, oracles, snc

from reference import all_instances, exists_rank_at_most, in_span, random_instances


def kahn_acyclic(known, vertices):
    vs = set(vertices)
    indeg = {v: 0 for v in vs}
    for v in vs:
        for w in known[v]:
            if w in vs:
                indeg[w] += 1
    stack = [v for v, deg in indeg.items() if deg == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in known[v]:
            if w in vs:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
    return seen == len(vs)


def subset_scan_mais(graph):
    # maximally dumb reference: test every subset with Kahn directly
    best = 0
    for mask in range(1 << graph.k):
        vs = [v for v in range(graph.k) if mask >> v & 1]
        if len(vs) > best and kahn_acyclic(graph.known, vs):
            best = len(vs)
    return best


def test_brute_mais_matches_subset_scan():
    for inst in all_instances(7):
        graph = snc.build_graph(inst)
        order, witness = oracles.brute_mais(graph)
        assert order == subset_scan_mais(graph)
        assert len(witness) == order
        assert kahn_acyclic(graph.known, witness)


def test_brute_mais_complete_side_info():
    for k in range(2, 8):
        for u in range(k // 2):
            inst = snc.SncInstance(k, k - 1 - u, u)
            order, _ = oracles.brute_mais(snc.build_graph(inst))
            assert order == 1


def test_brute_mais_formula_small_sweep():
    for inst in all_instances(10):
        order, _ = oracles.brute_mais(snc.build_graph(inst))
        assert order == snc.mais(inst)


def test_brute_mais_cap():
    with pytest.raises(oracles.TooLargeError):
        oracles.brute_mais(snc.build_graph(snc.SncInstance(25, 2, 1)))


def scalar_brute_mais(graph):
    # the mask-by-mask loop brute_mais replaced: lowest sink, then the table
    k = graph.k
    out_mask = [0] * k
    for v in range(k):
        for w in graph.known[v]:
            out_mask[v] |= 1 << w
    acyclic = bytearray(1 << k)
    acyclic[0] = 1
    best, best_mask = 0, 0
    for mask in range(1, 1 << k):
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if out_mask[v] & mask & ~(1 << v) == 0:
                acyclic[mask] = acyclic[mask ^ (1 << v)]
                break
        if acyclic[mask]:
            size = mask.bit_count()
            if size > best:
                best, best_mask = size, mask
    witness = tuple(v for v in range(k) if best_mask >> v & 1)
    return best, witness


def test_brute_mais_matches_scalar_reference_up_to_12():
    for inst in all_instances(12):
        graph = snc.build_graph(inst)
        assert oracles.brute_mais(graph) == scalar_brute_mais(graph), inst


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_brute_mais_matches_scalar_reference_around_block(offset):
    k = oracles.MAIS_BLOCK + offset
    for d in range(k):
        for u in range(min(d, k - 1 - d) + 1):
            graph = snc.build_graph(snc.SncInstance(k, d, u))
            assert oracles.brute_mais(graph) == scalar_brute_mais(graph), (k, d, u)


@pytest.mark.parametrize("k", [16, 17, 18])
def test_brute_mais_matches_scalar_reference_seeded(k):
    rng = random.Random(f"mais/{k}")
    d = rng.randint(3, k - 3)
    inst = snc.SncInstance(k, d, rng.randint(0, min(d, k - 1 - d)))
    graph = snc.build_graph(inst)
    assert oracles.brute_mais(graph) == scalar_brute_mais(graph), inst


def random_digraphs():
    # not circulant: sinks, cycles and edge counts vary from vertex to vertex
    rng = random.Random(4)
    for k in [1, 2, 5, 9, 13, 14]:
        for density in [0.1, 0.3, 0.6]:
            known = tuple(
                tuple(w for w in range(k) if w != v and rng.random() < density)
                for v in range(k)
            )
            yield snc.SideInfoGraph(k, known)


def test_brute_mais_matches_scalar_reference_random_digraphs():
    for graph in random_digraphs():
        assert oracles.brute_mais(graph) == scalar_brute_mais(graph), graph.known


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_brute_mais_matches_scalar_reference_small_blocks(monkeypatch, block):
    # many blocks per table: lowest sinks among the high bits, blocks whose
    # high bits are cyclic or have no sink, and K = c, c - 1 and c + 1
    monkeypatch.setattr(oracles, "MAIS_BLOCK", block)
    graphs = [snc.build_graph(inst) for inst in all_instances(9)]
    for graph in graphs + list(random_digraphs()):
        assert oracles.brute_mais(graph) == scalar_brute_mais(graph), (block, graph.known)


def test_brute_mais_table_out_of_memory(monkeypatch, capsys):
    from sncindex import cli

    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        # refuses the 2^K table as an allocator would, allocates nothing large
        if np.prod(shape) > 1 << 24:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(oracles.np, "zeros", small_zeros)
    graph = snc.build_graph(snc.SncInstance(40, 3, 1))
    with pytest.raises(oracles.TooLargeError):
        oracles.brute_mais(graph, cap=40)
    assert cli.main(["oracle", "mais", "--k", "40", "--d", "3", "--u", "1", "--cap", "40"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: K=40: the 2^K subset table does not fit in memory\n"


def fitting_matrices(graph):
    # literal definition: every assignment of the free positions, as row ints
    k = graph.k
    adj = graph.known
    counts = [len(a) for a in adj]
    for pick in range(1 << sum(counts)):
        rows = []
        off = 0
        for v in range(k):
            row = 1 << v
            for i, j in enumerate(adj[v]):
                if pick >> (off + i) & 1:
                    row |= 1 << j
            rows.append(row)
            off += counts[v]
        yield rows


def fitting_minrank_by_enumeration(graph):
    return min(len(gf2.Basis(rows)) for rows in fitting_matrices(graph))


def random_graph(rng, k, free):
    # a side-information digraph on k vertices with `free` random edges, each
    # row's known set in random order: no rotation symmetry to lean on
    edges = rng.sample([(v, w) for v in range(k) for w in range(k) if v != w], free)
    known = tuple(tuple(w for v2, w in edges if v2 == v) for v in range(k))
    return snc.SideInfoGraph(k, known)


def random_graphs(seed, count=6):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(3, 7)
        most = min(14, k * (k - 1))
        yield random_graph(rng, k, rng.randint(most // 2, most))


@pytest.mark.parametrize("k,d,u", [(4, 2, 0), (4, 1, 1), (5, 2, 1), (5, 1, 1)])
def test_brute_minrank_matches_full_enumeration(k, d, u):
    graph = snc.build_graph(snc.SncInstance(k, d, u))
    assert oracles.brute_minrank2(graph) == fitting_minrank_by_enumeration(graph)


def test_brute_minrank_examples():
    assert oracles.brute_minrank2(snc.build_graph(snc.SncInstance(5, 3, 1))) == 1
    assert oracles.brute_minrank2(snc.build_graph(snc.SncInstance(4, 2, 0))) == 2
    assert oracles.brute_minrank2(snc.build_graph(snc.SncInstance(5, 1, 1))) == 3


def test_brute_minrank_early_stop_agrees():
    for k, d, u in [(5, 2, 1), (6, 2, 1), (7, 1, 1), (8, 2, 0)]:
        inst = snc.SncInstance(k, d, u)
        graph = snc.build_graph(inst)
        stop = max(snc.mais(inst), math.ceil(snc.broadcast_rate(inst)))
        assert oracles.brute_minrank2(graph, early_stop=stop) == oracles.brute_minrank2(graph)


def test_brute_minrank_jobs_partition_agrees():
    graph = snc.build_graph(snc.SncInstance(5, 2, 1))
    assert oracles.brute_minrank2(graph, jobs=2) == oracles.brute_minrank2(graph)


def test_import_loads_no_process_pool():
    # the pool module loads multiprocessing; only brute_minrank2 with jobs > 1 uses it
    probe = "import sys, sncindex; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def test_brute_minrank_jobs_clamped_to_cpu_count(monkeypatch):
    started = []

    class FakePool:
        # records the requested worker count and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [True]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    graph = snc.build_graph(snc.SncInstance(12, 6, 2))  # 2^8 candidates for row 0
    assert oracles.brute_minrank2(graph, cap=10**3, jobs=10**6) == 1
    assert started and max(started) <= (os.cpu_count() or 1)


def test_brute_minrank_opens_one_pool(monkeypatch):
    graph = snc.build_graph(snc.SncInstance(8, 2, 1))
    serial = oracles.brute_minrank2(graph)
    built = []

    class InlinePool:
        # counts the pools built and runs the workers in this process
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracles.os, "cpu_count", lambda: 2)
    assert oracles.brute_minrank2(graph, jobs=2) == serial
    assert serial > 1  # several target ranks were tried
    assert built == [2]


def assert_rank_search_matches_enumeration(graph):
    # every target rank and every --jobs slice of row 0's options, against
    # the ranks of all fitting matrices whose row 0 lies in the slice
    k = graph.k
    ranks = {}
    for rows in fitting_matrices(graph):
        ranks[rows[0]] = min(ranks.get(rows[0], k), len(gf2.Basis(rows)))
    row0 = oracles._row0_options(graph.known)
    assert sorted(row0) == sorted(ranks)
    for jobs in [1, 2, 3]:
        for chunk in (row0[i::jobs] for i in range(jobs) if row0[i::jobs]):
            for r in range(1, k + 1):
                want = min(ranks[row] for row in chunk) <= r
                assert oracles._exists_rank_at_most(graph.known, r, chunk) == want


@pytest.mark.parametrize("k,d,u", [(4, 2, 0), (4, 1, 1), (5, 1, 1), (6, 1, 1), (5, 2, 1)])
def test_rank_search_matches_enumeration_per_partition(k, d, u):
    assert_rank_search_matches_enumeration(snc.build_graph(snc.SncInstance(k, d, u)))


@pytest.mark.parametrize("seed", range(8))
def test_brute_minrank_matches_enumeration_on_random_graphs(seed):
    for graph in random_graphs(seed):
        assert oracles.brute_minrank2(graph, jobs=1) == fitting_minrank_by_enumeration(graph)
        assert_rank_search_matches_enumeration(graph)


def assert_rank_search_matches_reference(graph):
    # every target rank and every --jobs slice of row 0's options, against
    # the coset search that enumerates every option of the last rank
    row0 = oracles._row0_options(graph.known)
    for jobs in [1, 2, 3]:
        for chunk in (row0[i::jobs] for i in range(jobs) if row0[i::jobs]):
            for r in range(1, graph.k + 1):
                want = exists_rank_at_most(graph.known, r, chunk)
                assert oracles._exists_rank_at_most(graph.known, r, chunk) == want, (graph.known, r)


@pytest.mark.parametrize("seed", range(3))
def test_rank_search_matches_reference_on_random_graphs(seed):
    # 100 graphs a seed, K 3..9 with up to 14 free positions
    rng = random.Random(f"last-rank/{seed}")
    for _ in range(100):
        k = rng.randint(3, 9)
        assert_rank_search_matches_reference(random_graph(rng, k, rng.randint(0, min(14, k * (k - 1)))))


def test_rank_search_matches_reference_on_circulants():
    count = 0
    for inst in all_instances(20, full=False):
        if inst.k * (inst.d + inst.u) <= 20:
            assert_rank_search_matches_reference(snc.build_graph(inst))
            count += 1
    assert count == 55


@pytest.mark.parametrize("jobs", [0, -3])
def test_brute_minrank_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        oracles.brute_minrank2(snc.build_graph(snc.SncInstance(6, 2, 1)), jobs=jobs)


def test_brute_minrank_rejects_early_stop_above_k():
    graph = snc.build_graph(snc.SncInstance(6, 2, 1))
    with pytest.raises(ValueError, match="early_stop must be at most K=6"):
        oracles.brute_minrank2(graph, early_stop=7)
    assert oracles.brute_minrank2(graph, early_stop=6) == 6  # identity fits


def test_brute_minrank_cap():
    with pytest.raises(oracles.TooLargeError):
        oracles.brute_minrank2(snc.build_graph(snc.SncInstance(7, 3, 1)))
    assert oracles.brute_minrank2(
        snc.build_graph(snc.SncInstance(7, 3, 1)), early_stop=3, cap=28
    ) == 3


def test_minrank_bracketed_by_mais_and_constructions():
    # pure search (no early stop) on the small instances
    for inst in all_instances(9):
        if inst.k * (inst.u + inst.d) > oracles.MINRANK_CAP:
            continue
        graph = snc.build_graph(inst)
        rank = oracles.brute_minrank2(graph)
        order, _ = oracles.brute_mais(graph)
        assert order <= rank
        assert rank <= snc.code_length(inst)
        assert rank <= inst.k - inst.d - inst.u
        if snc.optimality_condition(inst):
            assert rank == snc.code_length(inst)


def test_minrank_bounds_full_in_cap_sweep():
    # every instance within the enumeration cap, with the default early stop
    count = 0
    for inst in all_instances(26, full=False):
        if inst.k * (inst.u + inst.d) > oracles.MINRANK_CAP:
            continue
        stop = max(snc.mais(inst), math.ceil(snc.broadcast_rate(inst)))
        rank = oracles.brute_minrank2(snc.build_graph(inst), early_stop=stop)
        assert stop <= rank <= min(snc.code_length(inst), inst.k - inst.d - inst.u)
        if snc.optimality_condition(inst):
            assert rank == snc.code_length(inst)
        count += 1
    assert count == 80


def test_check_decodable_expanded_matrix():
    spec = codec.build_code(snc.SncInstance(20, 9, 2))
    assert oracles.check_decodable(spec.graph, spec.expanded).all()


def test_check_decodable_identity_and_zero():
    inst = snc.SncInstance(6, 2, 1)
    graph = snc.build_graph(inst)
    assert oracles.check_decodable(graph, np.eye(6, dtype=np.uint8)).all()
    assert not oracles.check_decodable(graph, np.zeros((6, 1), dtype=np.uint8)).any()


def test_check_decodable_against_span_membership():
    # cross-check the incremental elimination with the generic span test
    inst = snc.SncInstance(8, 3, 1)
    graph = snc.build_graph(inst)
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.integers(0, 2, size=(8, 3), dtype=np.uint8)
        got = oracles.check_decodable(graph, a)
        for k in range(8):
            basis = [a[:, t] for t in range(3)]
            basis += [np.eye(8, dtype=np.uint8)[j] for j in graph.known[k]]
            assert got[k] == in_span(np.eye(8, dtype=np.uint8)[k], basis)


def test_roundtrip_sim_passes():
    spec = codec.build_code(snc.SncInstance(20, 9, 2))
    report = oracles.roundtrip_sim(spec, 100, seed=1234)
    assert report.passed and report.failures == 0
    assert report.decodes == 100 * 20
    assert report.seed == 1234


def test_roundtrip_sim_single_sum():
    spec = codec.build_code(snc.SncInstance(5, 3, 1))
    assert oracles.roundtrip_sim(spec, 10, seed=5).passed


def test_roundtrip_sim_detects_corruption():
    from sncindex.cli import _corrupted

    spec = codec.build_code(snc.SncInstance(20, 9, 2))
    assert oracles.roundtrip_sim(spec, 5, seed=5).passed  # caches healthy rows
    assert oracles.check_decodable(spec.graph, spec.expanded).all()
    bad = _corrupted(spec)
    report = oracles.roundtrip_sim(bad, 5, seed=5)
    assert not report.passed
    # the corrupted spec builds its own rows and meets the singular window
    assert report.first_failure[2].startswith("decode error: ")
    # and derives its expanded matrix from the broken encoder, not the cached one
    broken = spec.air.matrix.copy()
    broken[0] = 0
    assert np.array_equal(bad.expanded, broken[np.array(spec.group_of)])
    assert oracles.check_decodable(bad.graph, bad.expanded).tolist() == [False] * 3 + [True] * 17


def test_roundtrip_sim_deterministic():
    spec = codec.build_code(snc.SncInstance(9, 5, 2))
    a = oracles.roundtrip_sim(spec, 20, seed=99)
    b = oracles.roundtrip_sim(spec, 20, seed=99)
    assert a == b


def reference_sim(spec, trials, seed):
    # the plain loop: encode each trial, decode it at every receiver
    k = spec.inst.k
    rng = np.random.default_rng(seed)
    decodes, failures, first = 0, 0, None
    for t in range(trials):
        x = rng.integers(0, 2, size=k, dtype=np.uint8)
        c = codec.encode(spec, x)
        for rec in range(k):
            side = {j: int(x[j]) for j in spec.graph.known[rec]}
            decodes += 1
            try:
                got = codec.decode(spec, rec, c, side)
                detail = None if got == x[rec] else f"expected {int(x[rec])}, got {got}"
            except codec.SystemSingularError as exc:
                detail = f"decode error: {exc}"
            if detail is not None:
                failures += 1
                if first is None:
                    first = (t, rec, detail)
    return oracles.SimReport(trials, seed, decodes, failures, first)


def wrong_solver_spec(inst, *groups):
    # decoder rows built from window inverses whose solver column (the
    # last) has one flipped entry in the given groups: wrong answers, no
    # singular window
    spec = codec.build_code(inst)
    inverses = gf2.cyclic_window_inverses

    def flipped(rows, n):
        for s, cols in enumerate(inverses(rows, n)):
            j = (s + n - 1) % len(rows)  # the group whose window this is
            if j in groups:
                cols = [*cols[:-1], cols[-1] ^ 1 << (n - 1 - j % n)]
            yield cols

    with mock.patch.object(gf2, "cyclic_window_inverses", flipped):
        for k in range(inst.k):
            codec.decoder_row(spec, k)
    return spec


@pytest.mark.parametrize("k,d,u", [(20, 9, 2), (9, 5, 3), (12, 3, 0), (40, 10, 3), (2, 0, 0)])
def test_roundtrip_sim_matches_reference_healthy(k, d, u):
    spec = codec.code_for(snc.SncInstance(k, d, u))
    report = oracles.roundtrip_sim(spec, 30, seed=k + d + u)
    assert report == reference_sim(spec, 30, seed=k + d + u)
    assert report.passed


def test_roundtrip_sim_matches_reference_wrong_answers():
    spec = wrong_solver_spec(snc.SncInstance(20, 9, 2), 1, 3)
    report = oracles.roundtrip_sim(spec, 40, seed=0)
    assert report == reference_sim(spec, 40, seed=0)
    # group 3 (receivers 9-11) fails at an earlier trial than group 1 (3-5)
    assert report.first_failure[:2] == (1, 9)
    assert report.first_failure[2].startswith("expected ")
    assert 0 < report.failures < report.decodes


def test_roundtrip_sim_matches_reference_corrupted():
    from sncindex.cli import _corrupted

    for inst in [snc.SncInstance(20, 9, 2), snc.SncInstance(12, 3, 0), snc.SncInstance(9, 5, 3)]:
        spec = _corrupted(codec.code_for(inst))
        report = oracles.roundtrip_sim(spec, 25, seed=8)
        assert report == reference_sim(spec, 25, seed=8)
        assert report.first_failure[2].startswith("decode error: ")


@pytest.mark.parametrize("trials", [-1, 0, 1, 1023, 1024, 1025])
def test_roundtrip_sim_matches_reference_across_slices(trials):
    healthy = codec.build_code(snc.SncInstance(6, 2, 1))
    wrong = wrong_solver_spec(snc.SncInstance(7, 3, 0), 2)
    for spec in (healthy, wrong):
        assert oracles.roundtrip_sim(spec, trials, seed=7) == reference_sim(spec, trials, seed=7)


@settings(max_examples=40, deadline=None)
@given(inst=random_instances(40), trials=st.integers(-1, 40), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_roundtrip_sim_matches_reference_property(inst, trials, seed, data):
    from sncindex.cli import _corrupted

    healthy = codec.build_code(inst)
    groups = data.draw(st.sets(st.integers(0, healthy.k1 - 1), min_size=1, max_size=3))
    for spec in (healthy, _corrupted(healthy), wrong_solver_spec(inst, *groups)):
        assert oracles.roundtrip_sim(spec, trials, seed) == reference_sim(spec, trials, seed)


def test_roundtrip_sim_certifies_without_sampling():
    # every row is exact, so no trial is drawn: a trillion trials cost one pass over the rows
    spec = codec.build_code(snc.SncInstance(20, 9, 2))
    report = oracles.roundtrip_sim(spec, 10**12, seed=3)
    assert report.passed and report.first_failure is None
    assert report.decodes == 20 * 10**12
