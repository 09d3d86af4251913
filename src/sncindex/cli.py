"""Command-line front end: construction, analysis, codec, oracles, sweeps.

Exit codes: 0 success, 1 usage or validation error, 2 verification
mismatch or a construction fault (a singular decoding window).
All tables are TSV with a single header line; analyze --json mirrors
the same fields (no other command has --json).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import air, codec, gf2, gfp, mds, oracles, snc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _instance(args) -> snc.SncInstance:
    return snc.SncInstance(args.k, args.d, args.u)


def _add_instance_flags(p) -> None:
    p.add_argument("--k", type=int, required=True, help="number of messages")
    p.add_argument("--d", type=int, required=True, help="side info after the wanted message")
    p.add_argument("--u", type=int, required=True, help="side info before the wanted message")


def truncated_rate(beta: Fraction) -> str:
    """One decimal, rounded toward zero."""
    tenths = (10 * beta.numerator) // beta.denominator
    return f"{tenths // 10}.{tenths % 10}"


def _cmd_air(args) -> int:
    a = air.build_air(args.rows, args.cols)
    sys.stdout.write(gf2.format_matrix(a.matrix))
    if args.chain:
        print("lambda\t" + ",".join(str(x) for x in a.chain.lambdas))
        print("beta\t" + ",".join(str(x) for x in a.chain.betas))
    if args.verify:
        bad = air.first_deficient_window(a.matrix)
        if bad is None:
            print("windows\tPASS")
        else:
            print(f"windows\tFAIL\tstart={bad}")
            return 2
    return 0


def _report_fields(report: snc.AnalysisReport) -> dict:
    """K, D, U, then every report field in declaration order; ints and bools
    stay as they are for --json, and every other value becomes its str."""
    inst = report.inst
    fields = {"K": inst.k, "D": inst.d, "U": inst.u}
    for f in dataclasses.fields(report)[1:]:  # every field after inst
        value = getattr(report, f.name)
        fields[f.name] = value if isinstance(value, int) else str(value)
    return fields


def _cmd_analyze(args) -> int:
    report = snc.analyze(_instance(args))
    fields = _report_fields(report)
    if args.json:
        print(json.dumps(fields))
    else:
        print("\t".join(fields))
        print("\t".join(str(v).lower() if isinstance(v, bool) else str(v) for v in fields.values()))
    return 0


def _cmd_sweep(args) -> int:
    if args.paper_table:
        if (args.k, args.d, args.u_from, args.u_to) != (None,) * 4:
            raise ValueError("--paper-table takes no --k, --d, --u-from or --u-to")
        k, d, u_values = 827, 23, range(1, 11)
    else:
        if args.k is None or args.d is None:
            raise ValueError("provide --k and --d (or --paper-table)")
        u_from, u_to = args.u_from or 0, args.u_to or 0
        if u_from > u_to:
            raise ValueError(f"--u-from must be at most --u-to (got {u_from} > {u_to})")
        u_values = range(u_from, u_to + 1)
        k, d = args.k, args.d
    reports = [snc.analyze(snc.SncInstance(k, d, u)) for u in u_values]
    print("K\tD\tU\tbeta\tgamma")
    for r in reports:
        print(f"{k}\t{d}\t{r.inst.u}\t{truncated_rate(r.beta)}\t{r.gamma}")
    return 0


def _cmd_encode(args) -> int:
    inst = _instance(args)
    x = gf2.parse_bits(args.messages)
    if x.shape[0] != inst.k:
        raise ValueError(f"expected {inst.k} message bits")
    spec = codec.build_code(inst)
    print(gf2.format_bits(codec.encode(spec, x)))
    return 0


def _cmd_decode(args) -> int:
    inst = _instance(args)
    spec = codec.build_code(inst)
    c = gf2.parse_bits(args.code)
    raw = args.sideinfo.strip()
    if len(raw) != inst.k or any(ch not in "01?" for ch in raw):
        raise ValueError(f"--sideinfo must be {inst.k} characters of 0/1/?")
    side = {i: int(ch) for i, ch in enumerate(raw) if ch != "?"}
    print(codec.decode(spec, args.receiver, c, side))
    return 0


def _cmd_plan(args) -> int:
    spec = codec.build_code(_instance(args))
    plan = codec.extract_plan(spec)
    print("receivers\tsymbols")
    for start, end, symbols in plan.table_rows():
        rng = str(start) if start == end else f"{start}-{end}"
        print(f"{rng}\t" + ",".join(f"c{t}" for t in symbols))
    return 0


def _corrupted(spec: codec.CodeSpec) -> codec.CodeSpec:
    # test hook: zero the first encoder row so group 0 becomes undecodable
    broken = spec.air.matrix.copy()
    broken[0] = 0
    return dataclasses.replace(spec, air=dataclasses.replace(spec.air, matrix=broken))


def _cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative (got {args.trials})")
    inst = _instance(args)
    spec = codec.build_code(inst)
    if args.corrupt:
        spec = _corrupted(spec)
    status = 0

    report = oracles.roundtrip_sim(spec, args.trials, args.seed)
    if report.passed:
        print(f"roundtrip\tPASS\ttrials={args.trials}\tseed={args.seed}")
    else:
        t, rec, detail = report.first_failure
        print(f"roundtrip\tFAIL\ttrial={t}\treceiver={rec}\tdetail={detail}")
        status = 2

    decodable = oracles.check_decodable(spec.graph, spec.expanded)
    if decodable.all():
        print("decodable\tPASS")
    else:
        bad = int(np.argmin(decodable))
        print(f"decodable\tFAIL\treceiver={bad}")
        status = 2

    if args.with_oracles:
        for which in ("mais", "minrank"):
            try:
                ok, fields = _oracle_check(which, inst, spec.graph)
            except oracles.TooLargeError:
                print(f"oracle_{which}\tSKIP\treason=cap")
                continue
            print(f"oracle_{which}\t{'PASS' if ok else 'FAIL'}\t{fields}")
            if not ok:
                status = 2
    return status


def _oracle_check(which: str, inst, graph, cap=None, jobs=1) -> tuple[bool, str]:
    """Brute-force oracle against the closed form: (agrees, key=value fields).

    Raises oracles.TooLargeError when the search exceeds cap (the oracle's
    default when None).
    """
    if which == "mais":
        brute, _ = oracles.brute_mais(graph, cap=oracles.MAIS_CAP if cap is None else cap)
        formula = snc.mais(inst)
        return brute == formula, f"formula={formula}\tbrute={brute}"
    expected = snc.minrank_status(inst)
    cap = oracles.MINRANK_CAP if cap is None else cap
    brute = oracles.brute_minrank2(graph, early_stop=expected.lo, cap=cap, jobs=jobs)
    return expected.lo <= brute <= expected.hi, f"brute={brute}\texpected={expected}"


def _cmd_oracle(args) -> int:
    inst = _instance(args)
    graph = snc.build_graph(inst)
    if args.which == "decodable":
        decodable = oracles.check_decodable(graph, codec.build_code(inst).expanded)
        ok = bool(decodable.all())
        fields = f"pass={int(decodable.sum())}/{inst.k}"
    else:
        ok, fields = _oracle_check(args.which, inst, graph, args.cap, args.jobs)
    print(f"{args.which}\t{fields}\t{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_baseline(args) -> int:
    inst = _instance(args)
    if args.encode is not None:
        x = [int(tok) for tok in args.encode.split(",")]
        c = mds.mds_encode(mds.build_mds(inst), x)
        print(",".join(str(int(v)) for v in c))
        return 0
    if args.compare:
        r = snc.analyze(inst)
        print("gamma\tmds_length\twinner\tconjecture_value")
        print(f"{r.gamma}\t{r.mds_length}\t{r.winner}\t{r.conjecture_value}")
        return 0
    sys.stdout.write(gfp.format_matrix(mds.build_mds(inst).generator))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing keeps no state in it."""
    parser = _Parser(prog="sncindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("air", help="print an m x n stacked-identity matrix")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check every cyclic row window")
    p.add_argument("--chain", action="store_true", help="print the division chain")
    p.set_defaults(func=_cmd_air)

    p = sub.add_parser("analyze", help="closed-form report for one instance")
    _add_instance_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="rate table over a range of U values")
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--u-from", type=int)  # None when not given, which --paper-table checks
    p.add_argument("--u-to", type=int)
    p.add_argument("--paper-table", action="store_true",
                   help="preset K=827, D=23, U=1..10")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("encode", help="encode a K-bit message string")
    _add_instance_flags(p)
    p.add_argument("--messages", required=True, help="K bits, index 0 leftmost")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode one receiver's message")
    _add_instance_flags(p)
    p.add_argument("--receiver", type=int, required=True)
    p.add_argument("--code", required=True, help="codeword bits")
    p.add_argument("--sideinfo", required=True,
                   help="K characters, '?' at unknown positions")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("plan", help="add-only decoding table per receiver range")
    _add_instance_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="round-trip and decodability checks")
    _add_instance_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-oracles", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="test hook: break the encoder and expect failure")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force comparison against the formulas")
    p.add_argument("which", choices=["mais", "minrank", "decodable"])
    _add_instance_flags(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for minrank (mais and decodable ignore it)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("baseline", help="Vandermonde scheme over GF(p)")
    p.add_argument("which", choices=["mds"])
    _add_instance_flags(p)
    p.add_argument("--encode", default=None, help="comma-separated field elements")
    p.add_argument("--compare", action="store_true")
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except codec.SystemSingularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
