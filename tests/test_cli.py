import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sncindex import codec, mds
from sncindex.cli import main, truncated_rate
from fractions import Fraction

GOLDEN = Path(__file__).parent / "data" / "rate_table_golden.tsv"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_air_prints_exact_matrix(capsys):
    code, out, _ = run(capsys, "air", "--rows", "7", "--cols", "5")
    assert code == 0
    assert out == "10000\n01000\n00100\n00010\n00001\n10101\n01011\n"


def test_air_square(capsys):
    code, out, _ = run(capsys, "air", "--rows", "5", "--cols", "5")
    assert code == 0
    assert out.splitlines() == ["10000", "01000", "00100", "00010", "00001"]


def test_air_verify_and_chain(capsys):
    code, out, _ = run(capsys, "air", "--rows", "8", "--cols", "3", "--verify", "--chain")
    assert code == 0
    lines = out.splitlines()
    assert "lambda\t3,5,3,2,1" in lines
    assert "windows\tPASS" in lines


def test_air_usage_error(capsys):
    code, _, err = run(capsys, "air", "--rows", "3", "--cols", "5")
    assert code == 1
    assert "error" in err


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_truncated_rate_rounds_toward_zero():
    assert truncated_rate(Fraction(805, 2)) == "402.5"
    assert truncated_rate(Fraction(806, 3)) == "268.6"
    assert truncated_rate(Fraction(807, 4)) == "201.7"
    assert truncated_rate(Fraction(74)) == "74.0"


def test_sweep_paper_table_matches_golden_bytes(capsys):
    code, out, _ = run(capsys, "sweep", "--paper-table")
    assert code == 0
    assert out.encode() == GOLDEN.read_bytes()


def test_sweep_custom_range(capsys):
    code, out, _ = run(capsys, "sweep", "--k", "20", "--d", "9", "--u-from", "2", "--u-to", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K\tD\tU\tbeta\tgamma"
    assert lines[1] == "20\t9\t2\t4.3\t5"


def test_sweep_rejects_reversed_range(capsys):
    code, out, err = run(capsys, "sweep", "--k", "10", "--d", "3", "--u-from", "2", "--u-to", "1")
    assert (code, out, err) == (1, "", "error: --u-from must be at most --u-to (got 2 > 1)\n")
    code, out, err = run(capsys, "sweep", "--k", "10", "--d", "3", "--u-from", "2", "--u-to", "2")
    assert (code, out, err) == (0, "K\tD\tU\tbeta\tgamma\n10\t3\t2\t3.0\t4\n", "")


@pytest.mark.parametrize("flags", [("--k", "5"), ("--d", "3"), ("--u-from", "0"),
                                   ("--u-to", "3"), ("--k", "827", "--d", "23")], ids=" ".join)
def test_sweep_paper_table_rejects_instance_flags(capsys, flags):
    code, out, err = run(capsys, "sweep", "--paper-table", *flags)
    assert (code, out) == (1, "")
    assert err == "error: --paper-table takes no --k, --d, --u-from or --u-to\n"


def test_analyze_tsv(capsys):
    code, out, _ = run(capsys, "analyze", "--k", "17", "--d", "6", "--u", "2")
    assert code == 0
    header, row = out.splitlines()
    fields = dict(zip(header.split("\t"), row.split("\t")))
    assert fields["beta"] == "13/3"
    assert fields["mais"] == "4"
    assert fields["gamma"] == "5"
    assert fields["optimality"] == "true"
    assert fields["minrank"] == "5"


def test_analyze_json(capsys):
    # the same keys in the same order; --json keeps ints and bools as JSON
    # types, and the TSV writes bools in lower case
    code, out, err = run(capsys, "analyze", "--k", "16", "--d", "3", "--u", "2", "--json")
    assert (code, out, err) == (0, (
        '{"K": 16, "D": 3, "U": 2, "beta": "5", "capacity": "1/5", "mais": 5, "gamma": 6, '
        '"optimality": false, "minrank": "5..6", "kappa": 10, "mds_length": 11, '
        '"conjecture_value": 6}\n'), "")
    keys = list(json.loads(out))
    code, out, err = run(capsys, "analyze", "--k", "16", "--d", "3", "--u", "2")
    assert (code, out, err) == (0, (
        "K\tD\tU\tbeta\tcapacity\tmais\tgamma\toptimality\tminrank\tkappa\tmds_length\t"
        "conjecture_value\n16\t3\t2\t5\t1/5\t5\t6\tfalse\t5..6\t10\t11\t6\n"), "")
    assert out.splitlines()[0].split("\t") == keys


def test_analyze_rejects_invalid_instance(capsys):
    code, _, err = run(capsys, "analyze", "--k", "5", "--d", "4", "--u", "1")
    assert code == 1
    assert "U + D <= K - 1" in err


def test_encode_decode_round_trip(capsys):
    msgs = "10110100101101001011"
    code, out, _ = run(capsys, "encode", "--k", "20", "--d", "9", "--u", "2", "--messages", msgs)
    assert code == 0
    cw = out.strip()
    assert cw == "10000"
    known = [(4 + j) % 20 for j in range(-2, 0)] + [(4 + j) % 20 for j in range(1, 10)]
    side = "".join(msgs[i] if i in known else "?" for i in range(20))
    code, out, _ = run(
        capsys, "decode", "--k", "20", "--d", "9", "--u", "2",
        "--receiver", "4", "--code", cw, "--sideinfo", side,
    )
    assert code == 0
    assert out.strip() == msgs[4]


def test_decode_rejects_bad_mask(capsys):
    code, _, err = run(
        capsys, "decode", "--k", "4", "--d", "1", "--u", "0",
        "--receiver", "0", "--code", "100", "--sideinfo", "??0?",
    )
    assert code == 1


@pytest.mark.parametrize("argv,err", [
    (("encode", "--k", "5", "--d", "2", "--u", "1", "--messages", "101"),
     "error: expected 5 message bits\n"),
    (("decode", "--k", "4", "--d", "1", "--u", "0", "--receiver", "0", "--code", "100",
      "--sideinfo", "?1x?"), "error: --sideinfo must be 4 characters of 0/1/?\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode", "1,2,3,4,-1"),
     "error: entries must lie in [0, 5)\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode",
      "1,2,3,4,99999999999999999999"), "error: entries must lie in [0, 5)\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode", "1,2,3,4,0",
      "--compare"), "error: --encode and --compare cannot be combined\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode", ""),
     "error: --encode takes comma-separated integers (got '')\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode", "1,,2"),
     "error: --encode takes comma-separated integers (got '')\n"),
    (("baseline", "mds", "--k", "5", "--d", "1", "--u", "0", "--encode", "1.5,2,3,4,0"),
     "error: --encode takes comma-separated integers (got '1.5')\n"),
    (("oracle", "mais", "--k", "63", "--d", "3", "--u", "1", "--cap", "64"),
     "error: K=63: the 2^K subset table does not fit in memory\n"),
    (("oracle", "mais", "--k", "64", "--d", "3", "--u", "1", "--cap", "64"),
     "error: K=64: the 2^K subset table does not fit in memory\n"),
    (("oracle", "decodable", "--k", "20", "--d", "9", "--u", "2", "--cap", "1"),
     "error: --cap does not apply to decodable\n"),
], ids=["encode-length", "decode-sideinfo", "mds-encode-negative", "mds-encode-beyond-int64",
        "mds-encode-and-compare", "mds-encode-empty", "mds-encode-empty-entry",
        "mds-encode-fraction", "mais-k63", "mais-k64", "decodable-cap"])
def test_validation_errors_exit_1(capsys, argv, err):
    assert run(capsys, *argv) == (1, "", err)


def test_plan_table(capsys):
    code, out, _ = run(capsys, "plan", "--k", "20", "--d", "9", "--u", "2")
    assert code == 0
    assert out == (
        "receivers\tsymbols\n"
        "0-2\tc0,c2\n"
        "3-5\tc1,c3\n"
        "6-8\tc2,c3,c4\n"
        "9-11\tc3,c4\n"
        "12-14\tc4\n"
        "15-17\tc0\n"
        "18-19\tc1\n"
    )


def test_plan_paper_size(capsys):
    code, out, err = run(capsys, "plan", "--k", "827", "--d", "23", "--u", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "receivers\tsymbols"
    covered = []
    for line in lines[1:]:
        rng, symbols = line.split("\t")
        start, _, end = rng.partition("-")
        covered += range(int(start), int(end or start) + 1)
        assert symbols
    assert covered == list(range(827))


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "20", "--d", "9", "--u", "2", "--trials", "20")
    assert code == 0
    assert "roundtrip\tPASS" in out
    assert "decodable\tPASS" in out


def test_verify_trial_count(capsys):
    code, out, err = run(capsys, "verify", "--k", "5", "--d", "2", "--u", "1", "--trials", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --trials must be non-negative (got -1)\n"
    code, out, err = run(capsys, "verify", "--k", "5", "--d", "2", "--u", "1", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: --seed must be non-negative (got -1)\n")
    code, out, err = run(capsys, "verify", "--k", "5", "--d", "2", "--u", "1", "--trials", "0")
    assert (code, out, err) == (0, "roundtrip\tPASS\ttrials=0\tseed=0\ndecodable\tPASS\n", "")


def test_verify_with_oracles(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "12", "--d", "4", "--u", "1", "--trials", "10", "--with-oracles"
    )
    assert code == 0
    assert "oracle_mais\tPASS" in out


def test_verify_corrupt_hook_fails(capsys):
    for k, d, u in [(20, 9, 2), (5, 3, 1)]:
        code, out, err = run(
            capsys, "verify", "--k", str(k), "--d", str(d), "--u", str(u), "--trials", "5",
            "--corrupt",
        )
        assert (code, err) == (2, ""), (k, d, u)
        assert out == (
            "roundtrip\tFAIL\ttrial=0\treceiver=0\t"
            "detail=decode error: window starting after group 0 is singular\n"
            "decodable\tFAIL\treceiver=0\n"
        ), (k, d, u)


def test_oracle_mais(capsys):
    code, out, _ = run(capsys, "oracle", "mais", "--k", "12", "--d", "4", "--u", "1")
    assert code == 0
    assert out.startswith("mais\tformula=4\tbrute=4\tPASS")


def test_oracle_minrank(capsys):
    code, out, _ = run(capsys, "oracle", "minrank", "--k", "5", "--d", "1", "--u", "1")
    assert code == 0
    assert "brute=3" in out


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_oracle_minrank_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "oracle", "minrank", "--k", "6", "--d", "2", "--u", "1",
                         "--jobs", jobs)
    assert (code, out, err) == (1, "", f"error: jobs must be at least 1 (got {jobs})\n")


def test_oracle_cap_errors(capsys):
    code, _, err = run(capsys, "oracle", "mais", "--k", "22", "--d", "2", "--u", "1")
    assert code == 1
    assert "cap" in err


def test_oracle_decodable(capsys):
    code, out, _ = run(capsys, "oracle", "decodable", "--k", "20", "--d", "9", "--u", "2")
    assert code == 0
    assert "pass=20/20" in out


def test_baseline_generator_and_compare(capsys):
    code, out, _ = run(capsys, "baseline", "mds", "--k", "4", "--d", "1", "--u", "0")
    assert code == 0
    assert out == "1 0 0\n1 1 1\n1 2 4\n1 3 4\n"
    code, out, _ = run(capsys, "baseline", "mds", "--k", "20", "--d", "9", "--u", "2", "--compare")
    assert code == 0
    assert out.splitlines()[1] == "5\t9\tair\t5"


def test_baseline_compare_builds_no_code(capsys, monkeypatch):
    def no_build(inst):
        raise AssertionError("--compare needs no generator")

    monkeypatch.setattr(mds, "build_mds", no_build)
    code, out, err = run(capsys, "baseline", "mds", "--k", "20", "--d", "9", "--u", "2", "--compare")
    assert (code, out, err) == (0, "gamma\tmds_length\twinner\tconjecture_value\n5\t9\tair\t5\n", "")


def test_baseline_compare_full_side_info(capsys):
    # U + D = K - 1: one parity, as long as the MDS code; air wins the tie
    code, out, err = run(capsys, "baseline", "mds", "--k", "5", "--d", "3", "--u", "1", "--compare")
    assert (code, out, err) == (0, "gamma\tmds_length\twinner\tconjecture_value\n1\t1\tair\t1\n", "")


def test_baseline_encode(capsys):
    code, out, _ = run(
        capsys, "baseline", "mds", "--k", "3", "--d", "1", "--u", "0", "--encode", "1,0,0"
    )
    assert code == 0
    assert out.strip() == "1,0"
    # int() parses each entry, so spaces around one are allowed
    spaced = run(capsys, "baseline", "mds", "--k", "5", "--d", "1", "--u", "0",
                 "--encode", " 1, 2,3,4,0")
    assert spaced == (0, "0,0,0,4\n", "")


def test_commands_are_deterministic(capsys):
    first = run(capsys, "analyze", "--k", "20", "--d", "9", "--u", "2")
    second = run(capsys, "analyze", "--k", "20", "--d", "9", "--u", "2")
    assert first == second


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # main reuses one parser; each call must still behave as in a new process
    calls = [
        ("verify", "--k", "7", "--d", "3", "--u", "1", "--trials", "20", "--with-oracles"),
        ("verify", "--k", "7", "--d", "3", "--u", "1", "--trials", "20"),
        ("oracle", "minrank", "--k", "7", "--d", "3"),  # usage error: --u missing
        ("analyze", "--k", "7", "--d", "3", "--u", "1"),
        ("sweep", "--k", "10", "--d", "3", "--u-from", "2", "--u-to", "1"),
        ("oracle", "minrank", "--k", "7", "--d", "2", "--u", "1", "--jobs", "1"),
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    script = "import sys; from sncindex.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [subprocess.Popen([sys.executable, "-c", script, *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for argv in calls]
    for argv, proc in zip(calls, fresh):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        out, err = proc.communicate()
        assert (code, got.out, got.err) == (proc.returncode, out, err), argv


@pytest.mark.parametrize("argv,target,exc", [
    (("decode", "--k", "20", "--d", "9", "--u", "2", "--receiver", "4", "--code", "10000",
      "--sideinfo", "??11?100101101??????"), "decode", codec.SystemSingularError),
    (("plan", "--k", "20", "--d", "9", "--u", "2"), "gf2.cyclic_window_inverses",
     codec.SystemSingularError),
    (("verify", "--k", "20", "--d", "9", "--u", "2"), "build_code", codec.SystemSingularError),
])
def test_construction_faults_exit_2(capsys, monkeypatch, argv, target, exc):
    def fault(*args, **kwargs):
        raise exc("construction fault")

    monkeypatch.setattr(f"sncindex.codec.{target}", fault)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: construction fault\n")
