import types

import pytest

import run
import workloads
from conftest import ROOT
from sncindex import codec, snc
from stats import Tally


def test_inputs_depend_only_on_the_seed():
    for generate in workloads.WORKLOADS.values():
        assert generate(5, 20) == generate(5, 20)
        assert generate(5, 20) != generate(6, 20)
    assert len(workloads.sweep_pool()) == 5949


def test_ground_truth_matches_the_definitions():
    graph = snc.build_graph(snc.SncInstance(20, 9, 2))
    assert [workloads.known_list(20, 9, 2, r) for r in range(20)] == [list(g) for g in graph.known]
    assert workloads.code_length_value(20, 9, 2) == 5
    assert workloads.mais_value(17, 6, 2) == 4
    assert str(workloads.rate(827, 23, 1)) == "805/2"


def test_plan_check_accepts_criterion_04_and_rejects_a_wrong_symbol():
    spec = codec.build_code(snc.SncInstance(20, 9, 2))
    table = workloads.parse_plan_table(workloads.PLAN_K20_OUTPUT, 20)
    assert all(workloads.plan_is_valid(spec.air.matrix, 20, 9, 2, r, s) for r, s in enumerate(table))
    assert not workloads.plan_is_valid(spec.air.matrix, 20, 9, 2, 0, (1,))
    assert workloads.parse_plan_table("receivers\tsymbols\n1-19\tc0\n", 20) is None


def test_instance_counts_every_checked_decode():
    tally = Tally()
    workloads.run_instance(7, 3, 1, 11, tally)
    assert tally.attempted["decode"] == (workloads.SIM_TRIALS + 1 + workloads.MDS_TRIALS) * 7
    assert tally.attempted["verdict"] == 2
    assert tally.total_failed == 0


def test_negative_control_is_detected():
    tally = Tally()
    workloads.negative_control(3, tally)
    assert (tally.attempted["control"], tally.failed["control"]) == (1, 0)


def test_wrong_cli_output_counts_as_a_failed_verdict():
    checker = workloads.Checker(ROOT)
    tally = Tally()
    checker.sweep((), (ROOT / workloads.GOLDEN_RATE_TABLE).read_text(), tally)
    checker.plan_k20((), workloads.PLAN_K20_OUTPUT.replace("c4\n", "c3\n"), tally)
    flags = ("--k", "20", "--d", "9", "--u", "2")
    wrong_gamma = "K\tD\tU\tbeta\tmais\tgamma\tkappa\tmds_length\n20\t9\t2\t13/3\t4\t6\t8\t9\n"
    checker.analyze(flags, wrong_gamma, tally)
    checker.analyze(flags, wrong_gamma.replace("\t6\t8", "\t5\t8"), tally)
    assert (tally.total_attempted, tally.total_failed) == (4, 2)


def test_oracle_verdicts_are_checked_against_the_definitions():
    checker = workloads.Checker(ROOT)
    tally = Tally()
    flags = ("--k", "11", "--d", "2", "--u", "1")
    checker.oracle_mais(flags, "mais\tformula=5\tbrute=5\tPASS\n", tally)
    checker.oracle_mais(flags, "mais\tformula=6\tbrute=6\tPASS\n", tally)
    # minrank of (11, 2, 1) lies in [5, 6]
    checker.oracle_minrank(flags, "minrank\tbrute=6\texpected=5..6\tPASS\n", tally)
    checker.oracle_minrank(flags, "minrank\tbrute=7\texpected=5..7\tPASS\n", tally)
    checker.oracle_decodable(flags, "decodable\tpass=11/11\tPASS\n", tally)
    checker.oracle_decodable(flags, "decodable\tpass=10/11\tFAIL\n", tally)
    assert (tally.total_attempted, tally.total_failed) == (6, 3)


def test_oracle_search_runs_clean_on_one_cycle():
    tally = Tally()
    checker = workloads.Checker(ROOT)
    for item in workloads.generate_oracle(4, 1):
        if workloads._flag(item[1][1], "--k") >= 19:  # seconds each; K <= 18 checks the same code
            continue
        workloads.run_item(item, tally, checker)
    assert tally.total_failed == 0 and tally.attempted["exit_code"] == 10


def test_a_raising_item_is_one_failed_operation():
    def broken(item, tally, checker):
        raise RuntimeError("boom")

    tally = Tally()
    runner = run.Runner(types.SimpleNamespace(run_item=broken), tally, None)
    assert runner.run(("cli", "sweep")) >= 0
    assert (tally.attempted["error"], tally.failed["error"]) == (1, 1)
    assert tally.error_rate == 1.0


def test_benchmark_json_names_what_the_runs_report():
    import json

    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated, _ = run.end_to_end([0.2], [(("cli",), 0.1)], decodes=5, verify=[], speed=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in gated.items()
    }
    names = [n for n, _, _ in tracer.TARGETS]
    layer = tracer.layer_metrics(names, tracer.Tracer().arrays())
    reported = {name: run.unit_of(name) for name in [*layer, "trace.overhead_ratio"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_repeats_of_one_instance_count_once_with_their_mean():
    done = [(("cli", "a"), 1.0), (("cli", "b"), 5.0), (("cli", "a"), 3.0)]
    assert sorted(run.per_instance(done)) == [2.0, 5.0]
    gated, extra = run.end_to_end([0.3, 0.1, 0.2], done, decodes=6, verify=[], speed=0.5)
    assert extra["setup_raw_s"][0] == 0.1  # nearest-rank 10th percentile of three samples
    assert gated["setup_s"][0] == pytest.approx(0.05)
    assert extra["wall_s"][0] == pytest.approx(9.0)
    assert extra["instances_per_s"][0] == pytest.approx(3 / 9.0)
    # half the reference speed: the same work takes half as long there
    assert gated["norm_wall_s"][0] == pytest.approx(4.5)
    assert gated["norm_instances_per_s"][0] == pytest.approx(3 / 4.5)
    assert extra["instances"][0] == 2
    assert extra["instance_p50_ms"][0] == pytest.approx(3500.0)
    assert extra["decodes_per_s"][0] == pytest.approx(6 / 9.0)
    assert "verify_s" not in extra and "instance_p90_ms" not in extra


def test_setup_samples_spread_over_the_items():
    schedule = run.setup_schedule(32)
    assert sum(schedule.values()) == run.SETUP_SAMPLES
    assert sorted(schedule) == list(range(0, 32, 2))
    few = run.setup_schedule(3)
    assert sum(few.values()) == run.SETUP_SAMPLES and set(few) == {0, 1, 2}
