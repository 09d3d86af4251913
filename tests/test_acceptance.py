"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`; each line ends with
the criterion's wall time.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from sncindex import air, codec, gf2, mds, oracles, snc
from sncindex.cli import main, truncated_rate

from reference import all_instances, dense_side

GOLDEN = Path(__file__).parent / "data" / "rate_table_golden.tsv"


_started = [0.0]


@pytest.fixture(autouse=True)
def _clock():
    _started[0] = time.perf_counter()
    yield


def report(name, detail=""):
    elapsed = time.perf_counter() - _started[0]
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip() + f" [{elapsed:.1f} s]")


def test_criterion_01_air_7x5_exact():
    built = gf2.format_matrix(air.build_air(7, 5).matrix)
    expected = "10000\n01000\n00100\n00010\n00001\n10101\n01011\n"
    assert built == expected
    report("01 air 7x5 byte-identical")


def test_criterion_02_cyclic_windows_exhaustive_64():
    checked = 0
    for m in range(1, 65):
        for n in range(1, m + 1):
            a = air.build_air(m, n)
            assert air.first_deficient_window(a.matrix) is None, (m, n)
            checked += 1
    assert checked == 64 * 65 // 2
    report("02 cyclic window rank", f"({checked} shapes)")


def test_criterion_03_mais_formula_vs_brute():
    swept = 0
    for inst in all_instances(14):
        order, witness = oracles.brute_mais(snc.build_graph(inst))
        assert order == snc.mais(inst), inst
        assert len(witness) == order
        swept += 1
    for k, d, u, expected in [(17, 6, 2, 4), (16, 3, 2, 5)]:
        inst = snc.SncInstance(k, d, u)
        assert snc.mais(inst) == expected
        order, _ = oracles.brute_mais(snc.build_graph(inst))
        assert order == expected
    report("03 mais formula == brute force", f"({swept} instances + 2 spot checks)")


def test_criterion_04_k20_reproduction():
    inst = snc.SncInstance(20, 9, 2)
    assert snc.code_length(inst) == 5
    spec = codec.build_code(inst)
    # each code symbol combines these group parities
    supports = [tuple(np.flatnonzero(spec.air.matrix[:, t])) for t in range(5)]
    assert supports == [(0, 5), (1, 6), (2, 5), (3, 6), (4, 5, 6)]
    assert codec.extract_plan(spec).table_rows() == [
        (0, 2, (0, 2)),
        (3, 5, (1, 3)),
        (6, 8, (2, 3, 4)),
        (9, 11, (3, 4)),
        (12, 14, (4,)),
        (15, 17, (0,)),
        (18, 19, (1,)),
    ]
    report("04 (20,9,2) code and decoding table")


def test_criterion_05_rate_table_sweep(capsys):
    expected_pairs = [
        ("402.5", 403), ("268.6", 269), ("201.7", 202), ("161.6", 163),
        ("134.8", 135), ("115.7", 117), ("101.3", 102), ("90.2", 91),
        ("81.3", 82), ("74.0", 75),
    ]
    for u, (beta_str, gamma) in zip(range(1, 11), expected_pairs):
        inst = snc.SncInstance(827, 23, u)
        assert truncated_rate(snc.broadcast_rate(inst)) == beta_str
        assert snc.code_length(inst) == gamma
    assert main(["sweep", "--paper-table"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == GOLDEN.read_bytes()
    with capsys.disabled():
        report("05 K=827 rate table (10 rows, golden bytes)")


def test_criterion_06_roundtrip_sweep_k40(specs_k40):
    built = 0
    decodes = 0
    for spec in specs_k40:
        inst = spec.inst
        if inst.full_side_info:
            continue
        seed = inst.k * 100_000 + inst.d * 100 + inst.u
        rep = oracles.roundtrip_sim(spec, 100, seed=seed)
        assert rep.passed, (inst, rep.first_failure)
        assert oracles.check_decodable(spec.graph, spec.expanded).all(), inst
        built += 1
        decodes += rep.decodes
    report("06 round-trip K<=40", f"({built} instances, {decodes} decodes)")


def test_criterion_07_length_within_two_of_rate():
    swept = 0
    for inst in all_instances(200, full=False):
        beta = snc.broadcast_rate(inst)
        gamma = snc.code_length(inst)
        assert snc.mais(inst) <= beta <= gamma < beta + 2, inst
        if snc.optimality_condition(inst):
            assert gamma == math.ceil(beta), inst
        swept += 1
    # full side information trivially satisfies the gap as well
    assert snc.analyze(snc.SncInstance(9, 5, 3)).gamma == 1
    report("07 mais <= beta <= gamma < beta + 2 exact", f"({swept} instances)")


def test_criterion_08_minrank_oracle():
    inst = snc.SncInstance(7, 3, 1)
    assert snc.optimality_condition(inst)
    got = oracles.brute_minrank2(snc.build_graph(inst), early_stop=3, cap=28)
    assert got == 3 == snc.code_length(inst)

    one_sided = snc.SncInstance(4, 2, 0)
    assert oracles.brute_minrank2(snc.build_graph(one_sided)) == 2
    assert snc.code_length(one_sided) == 4 - 2 == 2

    swept = []
    for inst in all_instances(26, full=False):
        if inst.k * (inst.u + inst.d) > oracles.MINRANK_CAP:
            continue
        if not snc.optimality_condition(inst):
            continue
        stop = max(snc.mais(inst), math.ceil(snc.broadcast_rate(inst)))
        got = oracles.brute_minrank2(snc.build_graph(inst), early_stop=stop)
        assert got == snc.code_length(inst), inst
        swept.append((inst.k, inst.d, inst.u))
    assert (5, 1, 1) in swept
    report("08 minrank oracle == gamma", f"({len(swept)} in-cap instances + 2 spots)")


def test_criterion_09_expanded_matrix_identity(specs_k40):
    swept = 0
    for spec in specs_k40:
        inst = spec.inst
        if inst.full_side_info:
            continue
        for k in range(inst.k):
            e = np.zeros(inst.k, dtype=np.uint8)
            e[k] = 1
            assert (codec.encode(spec, e) == spec.expanded[k]).all(), (inst, k)
        swept += 1
    report("09 expanded-matrix identity on basis vectors", f"({swept} instances)")


def test_criterion_10_mds_baseline(mds_specs_k40):
    swept = 0
    for spec in mds_specs_k40:
        inst = spec.inst
        table = mds.decoder_table(spec)
        # exact: every receiver decodes all p^K messages
        assert mds.certify(spec) is None, inst
        rng = np.random.default_rng(inst.k * 100_000 + inst.d * 100 + inst.u)
        x = np.array([rng.integers(0, spec.pf.p, size=inst.k) for _ in range(50)])
        c = np.array([mds.mds_encode(spec, trial) for trial in x])
        # every receiver of every trial at once: x_k = rows[k] . c - S[k] . x
        decoded = (c @ table.rows.T - x @ dense_side(spec, table).T) % spec.pf.p
        assert (decoded == x).all(), inst
        first = x[0].tolist()
        for rec in range(inst.k):
            side = {j: first[j] for j in spec.graph.known[rec]}
            assert mds.mds_decode(spec, rec, c[0], side) == first[rec], (inst, rec)
        swept += 1
    r = snc.analyze(snc.SncInstance(20, 9, 2))
    assert (r.gamma, r.mds_length, r.winner, r.conjecture_value) == (5, 9, "air", 5)
    report("10 mds baseline round-trip", f"({swept} instances)")
