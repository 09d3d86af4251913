import numpy as np
import pytest

import tracer
from sncindex import codec, snc


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    own = tracer.self_times(end - start, parent)
    assert own.tolist() == [4.0, 2.0, 3.0, 1.0]


def test_has_ancestor_walks_the_whole_chain():
    name = np.array([0, 1, 2, 2])
    parent = np.array([-1, 0, 1, -1])
    assert tracer.has_ancestor(name, parent, 0).tolist() == [False, True, True, False]


def test_layer_metrics_sum_by_name_and_count_solves_under_decode():
    names = [n for n, _, _ in tracer.TARGETS]
    dec, inv = names.index("codec.decode"), names.index("gf2.invert")
    spans = {
        "name": np.array([dec, inv, dec, inv], dtype=np.int32),
        "start": np.array([0.0, 1.0, 10.0, 20.0]),
        "end": np.array([4.0, 2.0, 12.0, 23.0]),
        "parent": np.array([-1, 0, -1, -1], dtype=np.int32),
        "instance": np.zeros(4, dtype=np.int32),
        "size": np.array([0, 2, 0, 3], dtype=np.int32),
    }
    m = tracer.layer_metrics(names, spans)
    assert m["codec.decode.calls"] == 2
    assert m["codec.decode.s"] == pytest.approx(6.0)
    assert m["codec.decode.self_s"] == pytest.approx(5.0)
    assert m["gf2.invert.s"] == pytest.approx(4.0)
    assert m["codec.solver_builds"] == 1
    assert m["codec.solver_warmup_s"] == pytest.approx(1.0)
    assert m["codec.solver_hit_ratio"] == pytest.approx(0.5)
    assert m["codec.decode.p50_us"] == pytest.approx(3e6)
    assert m["gf2.invert.cells"] == 2 * 2 + 3 * 3
    assert m["oracles.brute_mais.subsets"] == 0
    # no mds decode ran, so none built a solver
    assert (m["mds.mds_decode.calls"], m["mds.solver_builds"]) == (0, 0)
    assert m["mds.solver_hit_ratio"] == 1.0


def test_tracer_wraps_every_binding_and_restores_it():
    from sncindex import air

    original = air.build_air
    t = tracer.Tracer()
    t.current_instance = 7
    t.install()
    try:
        assert codec.build_air is air.build_air is not original
        spec = codec.code_for(snc.SncInstance(20, 9, 2))
        x = np.zeros(20, dtype=np.uint8)
        side = {j: 0 for j in spec.graph.known[0]}
        assert codec.decode(spec, 0, codec.encode(spec, x), side) == 0
    finally:
        t.uninstall()
    assert codec.build_air is original and air.build_air is original
    m = t.metrics()
    assert m["air.build_air.calls"] == 1  # called from codec's namespace
    assert m["codec.build_code.calls"] == 1
    assert m["codec.solver_builds"] == 1  # one window inverted for receiver 0's group
    assert m["gf2.invert.cells"] == spec.n ** 2
    assert set(t.arrays()["instance"].tolist()) == {7}


def test_brute_mais_subsets_count_two_to_the_k_per_call():
    from sncindex import cli, oracles

    t = tracer.Tracer()
    t.install()
    try:
        oracles.brute_mais(snc.build_graph(snc.SncInstance(6, 2, 1)))
        oracles.brute_mais(graph=snc.build_graph(snc.SncInstance(5, 1, 0)))
    finally:
        t.uninstall()
    assert cli.oracles.brute_mais is oracles.brute_mais
    m = t.metrics()
    assert m["oracles.brute_mais.calls"] == 2
    assert m["oracles.brute_mais.subsets"] == 2**6 + 2**5
