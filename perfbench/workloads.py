"""The benchmark's workloads: seeded inputs, calls into sncindex, checks.

Every workload is a closed loop with one client: one item runs after the
previous one has finished, in one process, with no concurrency. A
workload turns (seed, seconds) into a fixed list of items, so two runs
with the same arguments do the same work on any commit. Answers are
checked against ground truth computed here from the definitions (side
information sets, the closed forms of the paper, the acceptance golden
files), never against the package's own closed forms.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from sncindex import air, cli, codec, mds, oracles, snc

from stats import Tally

GOLDEN_RATE_TABLE = Path("tests") / "data" / "rate_table_golden.tsv"

# --- ground truth from the definitions --------------------------------------


def known_list(k: int, d: int, u: int, rec: int) -> list[int]:
    """Messages receiver rec holds: U cyclically before it, D after it."""
    return [(rec + j) % k for j in range(-u, 0)] + [(rec + j) % k for j in range(1, d + 1)]


def groups(k: int, d: int, u: int) -> list[range]:
    """Messages behind each group parity; one group when U + D = K - 1."""
    if u + d == k - 1:
        return [range(k)]
    return [range(j, min(j + u + 1, k)) for j in range(0, k, u + 1)]


def rate(k: int, d: int, u: int) -> Fraction:
    return Fraction(1) if u + d == k - 1 else Fraction(k - d + u, u + 1)


def mais_value(k: int, d: int, u: int) -> int:
    return (k - d + u) // (u + 1)


def code_length_value(k: int, d: int, u: int) -> int:
    if u + d == k - 1:
        return 1
    return -(-k // (u + 1)) - (d - u) // (u + 1)


def encoder_shape(k: int, d: int, u: int) -> tuple[int, int]:
    """(K1, N): group count and code length of the general construction."""
    k1 = -(-k // (u + 1))
    return k1, k1 - (d - u) // (u + 1)


def plan_is_valid(matrix: np.ndarray, k: int, d: int, u: int, rec: int, symbols) -> bool:
    """Adding the code symbols leaves rec's group parity plus known parities only."""
    if not symbols:
        return False
    parts = groups(k, d, u)
    mine = 0 if len(parts) == 1 else rec // (u + 1)
    support = np.flatnonzero(np.bitwise_xor.reduce(matrix[:, list(symbols)], axis=1))
    if mine not in support:
        return False
    known = set(known_list(k, d, u, rec))
    return all(g == mine or known.issuperset(parts[g]) for g in support)


def parse_plan_table(text: str, k: int) -> list[tuple[int, ...]] | None:
    """Per-receiver symbol lists from `plan` output, or None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "receivers\tsymbols":
        return None
    per_receiver: list[tuple[int, ...]] = []
    for line in lines[1:]:
        rng, _, syms = line.partition("\t")
        start, _, end = rng.partition("-")
        lo, hi = int(start), int(end or start)
        if lo != len(per_receiver) or hi < lo:
            return None
        symbols = tuple(int(s.removeprefix("c")) for s in syms.split(","))
        per_receiver.extend([symbols] * (hi - lo + 1))
    return per_receiver if len(per_receiver) == k else None


# --- sweep-k40: library calls on many small instances ------------------------

SWEEP_K_MAX = 40
SIM_TRIALS = 100  # acceptance criterion 06
MDS_TRIALS = 50  # acceptance criterion 10
#: Nominal sweep-k40 instances per second; sizes a run to about --seconds.
SWEEP_ITEMS_PER_S = 7.5


def sweep_pool(k_max: int = SWEEP_K_MAX) -> list[tuple[int, int, int]]:
    """Every valid (K, D, U) with K <= k_max, full side information included."""
    return [
        (k, d, u)
        for k in range(2, k_max + 1)
        for d in range(k)
        for u in range(min(d, k - 1 - d) + 1)
    ]


def plan_search_bounded(k: int, d: int, u: int) -> bool:
    """Whether extract_plan's exhaustive subset search finishes quickly.

    With U = 0, D >= 1 and N >= 15 the search can try most subsets of N
    symbols (seconds to minutes per instance at K <= 40), which would make
    a run's length depend on the seed; those instances skip the plan step.
    """
    return not (u == 0 and d >= 1 and k - d >= 15)


def stratified(rng: random.Random, pool: list, n: int) -> list:
    """One seeded draw from each of n equal slices of the sorted pool, so
    every seed mixes small and large cases alike."""
    return [pool[rng.randrange(i * len(pool) // n, (i + 1) * len(pool) // n)] for i in range(n)]


def generate_sweep(seed: int, seconds: float) -> list[tuple]:
    rng = random.Random(f"sweep-k40/{seed}")
    n = max(1, round(seconds * SWEEP_ITEMS_PER_S))
    items = [("instance", k, d, u, rng.randrange(2**32))
             for k, d, u in stratified(rng, sweep_pool(), n)]
    rng.shuffle(items)
    return items


def run_instance(k: int, d: int, u: int, seed: int, tally: Tally) -> None:
    where = f"({k},{d},{u}) seed={seed}"
    inst = snc.SncInstance(k, d, u)
    known = [known_list(k, d, u, rec) for rec in range(k)]

    spec = codec.code_for(inst)
    rep = oracles.roundtrip_sim(spec, SIM_TRIALS, seed)
    expected = SIM_TRIALS * k
    missing = max(0, expected - rep.decodes)
    tally.record("decode", expected, min(expected, rep.failures + missing),
                 f"roundtrip_sim {where}: {rep.decodes} decodes, first failure {rep.first_failure}")

    # one more trial decoded here, with side information built from the definition
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=k, dtype=np.uint8)
    c = codec.encode(spec, x)
    bad = sum(
        codec.decode(spec, rec, c, {j: int(x[j]) for j in known[rec]}) != x[rec]
        for rec in range(k)
    )
    tally.record("decode", k, bad, f"codec.decode {where}")

    ok = oracles.check_decodable(spec.graph, spec.expanded)
    tally.check("verdict", ok.shape == (k,) and bool(ok.all()), f"check_decodable {where}")

    if plan_search_bounded(k, d, u):
        plan = codec.extract_plan(spec)
        matrix = spec.air.matrix
        valid = len(plan.entries) == k and all(
            e.receiver == rec and plan_is_valid(matrix, k, d, u, rec, e.symbols)
            for rec, e in enumerate(plan.entries)
        )
        tally.check("verdict", valid, f"extract_plan {where}")

    ms = mds.build_mds(inst)
    p = ms.pf.p
    bad = 0
    for _ in range(MDS_TRIALS):
        x = rng.integers(0, p, size=k)
        c = mds.mds_encode(ms, x)
        for rec in range(k):
            side = {j: int(x[j]) for j in known[rec]}
            bad += mds.mds_decode(ms, rec, c, side) != x[rec]
    tally.record("decode", MDS_TRIALS * k, bad, f"mds_decode {where}")


# --- CLI workloads -------------------------------------------------------------


def call_cli(argv) -> tuple[int, str]:
    """Run `sncindex <argv>` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _instance_flags(k: int, d: int, u: int) -> tuple[str, ...]:
    return ("--k", str(k), "--d", str(d), "--u", str(u))


PAPER_K, PAPER_D = 827, 23
PAPER_US = range(1, 11)
#: `verify` runs on the widest window, U = 1: 414 cold inverses of
#: 403 x 403 windows, about 25 s.
VERIFY_U = 1
VERIFY_TRIALS = 10
#: `plan` only where the exhaustive plan search finishes (0.1-0.4 s each).
PLAN_US = range(5, 11)
#: Nominal seconds of one paper-k827 cycle: one `verify` and one round of
#: the other commands.
PAPER_CYCLE_S = 26.5

PLAN_K20_ARGV = ("plan", "--k", "20", "--d", "9", "--u", "2")
#: The (20, 9, 2) decoding table of acceptance criterion 04.
PLAN_K20_OUTPUT = (
    "receivers\tsymbols\n0-2\tc0,c2\n3-5\tc1,c3\n6-8\tc2,c3,c4\n9-11\tc3,c4\n"
    "12-14\tc4\n15-17\tc0\n18-19\tc1\n"
)


def paper_round() -> list[tuple]:
    """`analyze`, `air --verify` and `plan` on the (827, 23, U) rate table,
    the (20, 9, 2) plan of criterion 04 and `sweep --paper-table`."""
    k, d = PAPER_K, PAPER_D
    cmds = []
    for u in PAPER_US:
        rows, cols = encoder_shape(k, d, u)
        cmds.append(("analyze", "analyze", *_instance_flags(k, d, u)))
        cmds.append(("air", "air", "--rows", str(rows), "--cols", str(cols), "--verify"))
    for u in PLAN_US:
        cmds.append(("plan", "plan", *_instance_flags(k, d, u)))
    cmds.append(("plan_k20", *PLAN_K20_ARGV))
    cmds.append(("sweep", "sweep", "--paper-table"))
    return cmds


def generate_paper(seed: int, seconds: float) -> list[tuple]:
    """As many cycles as fill the run: each a `verify` at U = 1 with a
    seeded message seed and one round of the other commands; seeded order."""
    rng = random.Random(f"paper-k827/{seed}")
    cmds = []
    for _ in range(max(1, round(seconds / PAPER_CYCLE_S))):
        cmds.append(("verify", "verify", *_instance_flags(PAPER_K, PAPER_D, VERIFY_U),
                     "--trials", str(VERIFY_TRIALS), "--seed", str(rng.randrange(2**31))))
        cmds += paper_round()
    rng.shuffle(cmds)
    return [("cli", (cmd[0], cmd[1:])) for cmd in cmds]


#: `oracle mais` (and `oracle decodable`) on one seeded instance per K: the
#: 2^K subset scan takes 0.17 s at K = 16 and doubles with each K.
ORACLE_KS = range(16, 21)
#: Instances above the default minrank cap of 26 free positions, searched
#: with --cap raised to their K * (D + U) free positions; 0.4-1.1 s each.
MINRANK_INSTANCES = ((11, 2, 1), (9, 4, 1), (12, 2, 1), (17, 1, 1))
#: Nominal seconds of one oracle-search cycle: every K once, every
#: minrank instance once.
ORACLE_CYCLE_S = 9.5


def oracle_instance(rng: random.Random, k: int) -> tuple[int, int, int]:
    """A seeded (K, D, U) with 3 <= D <= K - 3. There brute_mais's time
    varies by about 14 % between instances of one K; D <= 2 is up to 4x
    cheaper, so drawing it would make a run's work depend on the seed."""
    d = rng.randint(3, k - 3)
    return k, d, rng.randint(0, min(d, k - 1 - d))


def generate_oracle(seed: int, seconds: float) -> list[tuple]:
    """As many cycles as fill the run, in seeded order: `oracle mais` and
    `oracle decodable` on a seeded instance for each K in ORACLE_KS, and
    `oracle minrank --cap` on MINRANK_INSTANCES, all with --jobs 1."""
    rng = random.Random(f"oracle-search/{seed}")
    cmds = []
    for _ in range(max(1, round(seconds / ORACLE_CYCLE_S))):
        for k in ORACLE_KS:
            flags = _instance_flags(*oracle_instance(rng, k))
            cmds.append(("oracle_mais", "oracle", "mais", *flags, "--jobs", "1"))
            cmds.append(("oracle_decodable", "oracle", "decodable", *flags))
        for k, d, u in MINRANK_INSTANCES:
            cmds.append(("oracle_minrank", "oracle", "minrank", *_instance_flags(k, d, u),
                         "--cap", str(k * (d + u)), "--jobs", "1"))
    rng.shuffle(cmds)
    return [("cli", (cmd[0], cmd[1:])) for cmd in cmds]


def _flag(argv, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _kdu(argv) -> tuple[int, int, int]:
    return _flag(argv, "--k"), _flag(argv, "--d"), _flag(argv, "--u")


class Checker:
    """Checks CLI output against ground truth; holds the golden files."""

    def __init__(self, root: Path):
        self.rate_table = (root / GOLDEN_RATE_TABLE).read_bytes()
        self._matrices: dict[tuple[int, int], np.ndarray] = {}

    def _matrix(self, rows: int, cols: int) -> np.ndarray:
        # the encoder itself; `air --verify` commands check its windows
        key = (rows, cols)
        if key not in self._matrices:
            self._matrices[key] = air.build_air(rows, cols).matrix
        return self._matrices[key]

    def verify(self, argv, out: str, tally: Tally) -> None:
        k = _flag(argv, "--k")
        trials, seed = _flag(argv, "--trials"), _flag(argv, "--seed")
        lines = out.splitlines()
        passed = f"roundtrip\tPASS\ttrials={trials}\tseed={seed}" in lines
        tally.record("decode", trials * k, 0 if passed else trials * k, f"verify {argv}")
        tally.check("verdict", "decodable\tPASS" in lines, f"verify decodable {argv}")

    def analyze(self, argv, out: str, tally: Tally) -> None:
        k, d, u = _kdu(argv)
        lines = out.splitlines()
        got = dict(zip(lines[0].split("\t"), lines[1].split("\t"))) if len(lines) == 2 else {}
        want = {
            "K": str(k), "D": str(d), "U": str(u), "beta": str(rate(k, d, u)),
            "mais": str(mais_value(k, d, u)), "gamma": str(code_length_value(k, d, u)),
            "kappa": str(k - d - u - 1), "mds_length": str(k - d - u),
        }
        tally.check("verdict", all(got.get(key) == v for key, v in want.items()),
                    f"analyze {argv}: {got}")

    def air(self, argv, out: str, tally: Tally) -> None:
        rows, cols = _flag(argv, "--rows"), _flag(argv, "--cols")
        lines = out.splitlines()
        matrix = lines[:-1]
        identity_top = all(
            matrix[i] == "0" * i + "1" + "0" * (cols - 1 - i) for i in range(min(cols, len(matrix)))
        )
        ok = (
            len(matrix) == rows
            and all(len(r) == cols and set(r) <= {"0", "1"} for r in matrix)
            and identity_top
            and lines[-1:] == ["windows\tPASS"]
        )
        tally.check("verdict", ok, f"air {argv}")

    def plan(self, argv, out: str, tally: Tally) -> None:
        k, d, u = _kdu(argv)
        table = parse_plan_table(out, k)
        ok = table is not None
        if ok:
            matrix = self._matrix(*encoder_shape(k, d, u))
            ok = all(plan_is_valid(matrix, k, d, u, rec, s) for rec, s in enumerate(table))
        tally.check("verdict", ok, f"plan {argv}")

    def plan_k20(self, argv, out: str, tally: Tally) -> None:
        tally.check("verdict", out == PLAN_K20_OUTPUT, "plan (20,9,2) table differs from criterion 04")

    def sweep(self, argv, out: str, tally: Tally) -> None:
        tally.check("verdict", out.encode() == self.rate_table,
                    "sweep --paper-table differs from the golden rate table")

    def oracle_mais(self, argv, out: str, tally: Tally) -> None:
        want = mais_value(*_kdu(argv))
        tally.check("verdict", out == f"mais\tformula={want}\tbrute={want}\tPASS\n",
                    f"oracle {argv}: {out!r}")

    def oracle_minrank(self, argv, out: str, tally: Tally) -> None:
        """The brute-force minrank lies between the lower bounds (MAIS and
        the rate) and the upper ones (the code's length and K - D - U)."""
        k, d, u = _kdu(argv)
        fields = out.rstrip("\n").split("\t")
        ok = len(fields) == 4 and fields[0] == "minrank" and fields[3] == "PASS"
        if ok:
            brute = int(fields[1].removeprefix("brute="))
            lo = max(mais_value(k, d, u), math.ceil(rate(k, d, u)))
            ok = lo <= brute <= min(code_length_value(k, d, u), k - d - u)
        tally.check("verdict", ok, f"oracle {argv}: {out!r}")

    def oracle_decodable(self, argv, out: str, tally: Tally) -> None:
        k = _flag(argv, "--k")
        tally.check("verdict", out == f"decodable\tpass={k}/{k}\tPASS\n",
                    f"oracle {argv}: {out!r}")


def run_cli_item(check: str, argv: tuple[str, ...], tally: Tally, checker: Checker) -> None:
    rc, out = call_cli(argv)
    tally.check("exit_code", rc == 0, f"{' '.join(argv)}: exit {rc}")
    getattr(checker, check)(argv, out, tally)


def run_item(item: tuple, tally: Tally, checker: Checker) -> None:
    """An `instance` item is one sweep-k40 instance, a `cli` item one
    (check, argv) command."""
    if item[0] == "instance":
        run_instance(*item[1:], tally)
    else:
        check, argv = item[1]
        run_cli_item(check, argv, tally, checker)


def negative_control(seed: int, tally: Tally) -> None:
    """`verify --corrupt` breaks the encoder; both checks must fail, exit 2."""
    argv = ("verify", "--k", "20", "--d", "9", "--u", "2", "--trials", "5",
            "--seed", str(seed), "--corrupt")
    rc, out = call_cli(argv)
    lines = out.splitlines()
    detected = (
        rc == 2
        and any(line.startswith("roundtrip\tFAIL") for line in lines)
        and any(line.startswith("decodable\tFAIL") for line in lines)
    )
    tally.check("control", detected, f"negative control not detected: exit {rc}, {out!r}")


#: Workload name -> input generator.
WORKLOADS = {
    "sweep-k40": generate_sweep,
    "paper-k827": generate_paper,
    "oracle-search": generate_oracle,
}


def setup(name: str, seed: int, seconds: float, root: Path) -> tuple[list[tuple], Checker]:
    """Input generation: the run's items and the checker with its golden files."""
    return WORKLOADS[name](seed, seconds), Checker(root)
