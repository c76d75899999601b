"""Command-line front end: verification runs and their JSON reports.

A command resolves each file it reads once and passes the path to the layer's
loader, and to `codec.refuse` with each layer call that may refuse a field
of that file, so the refusal names the file.  Each check is a detail row
noted with its verdict, and a row noted as failed is the only thing that
fails a run.  Exit codes: 0 = every row passed, 1 = some row failed, 2 =
input error (an unreadable or malformed file, a bad argument, or a refusal
over budget).
A run's report is the plain dict it writes, its keys in the order
`_report` gives them; `main` sets its `wall_time_s` and encodes it once with
`codec.encode`, for text, `--json` and `--out` alike.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter

from . import assets, codec
from .arith import _PM1_SQUARINGS, RHO_ITERATIONS, is_probable_prime
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .certify import build_standard_cases, check_exclusion, load_case
from .construct import (build_erdos_class, build_two_prime_class,
                        check_divisibility_mechanics, erdos_witness_primes,
                        load_two_prime_data)
from .covers import load_cover, verify_cover
from .lucas import LucasSpec, period_mod, rank_of_apparition
from .mersenne import (MERSENNE, cyclotomic_mersenne, find_primitive_divisors,
                       load_prime_table, verify_prime_table)

REPORT_SCHEMA = "coverlab.report/1"


def _report(command: str, inputs: dict) -> dict:
    """A new run's report; its outcome is pass, fail or partial."""
    return {"schema": REPORT_SCHEMA, "command": command, "inputs": inputs,
            "outcome": "pass", "detail": [], "wall_time_s": 0.0, "asset_checksums": {}}


def _note(report: dict, passed: bool = True, **row) -> None:
    """Append a detail row; a row that did not pass fails the run."""
    report["detail"].append(row)
    if not passed:
        report["outcome"] = "fail"


def _cmd_verify_cover(args) -> dict:
    report = _report("verify-cover", {"path": str(args.path)})
    report["asset_checksums"] = {str(args.path): assets.checksum(args.path)}
    system = load_cover(args.path)
    result = codec.refuse(args.path, verify_cover, system, args.budget)
    _note(report, label=system.label, classes=len(system.classes),
          lcm=result.lcm, is_cover=result.is_cover,
          min_multiplicity=result.min_multiplicity,
          max_multiplicity=result.max_multiplicity)
    if not result.is_cover:
        _note(report, passed=False, uncovered_witness=result.uncovered_witness)
    return report


def _cmd_primitive(args) -> dict:
    lucas = args.lucas_c is not None
    spec = LucasSpec(args.lucas_c) if lucas else MERSENNE
    report = _report("primitive", {"lucas_c": args.lucas_c} if lucas
                     else {"base": args.base})
    report["inputs"]["n"] = args.n
    witnesses, complete = find_primitive_divisors(args.n, args.factor_budget, spec)
    for w in witnesses:
        _note(report, p=w.p, alpha=w.alpha)
    if not complete:
        report["outcome"] = "partial"
        # what the listed primes leave of the primitive part
        _note(report, unresolved_cofactor=cyclotomic_mersenne(args.n, spec)
              // math.prod(w.p**w.alpha for w in witnesses))
    return report


def _asset_paths(report: dict, args, *names: str) -> list:
    """The path of each asset a target reads, resolved once; every checksum
    goes into the report before the target loads anything."""
    paths = [assets.asset_path(name, args.assets) for name in names]
    report["asset_checksums"] = {name: assets.checksum(path)
                                 for name, path in zip(names, paths)}
    return paths


def _reproduce_thm11(args, report: dict) -> None:
    # imported here, the one place that needs it, so that no other command
    # pays at start-up for compiling the module and building its two records
    from .pocklington import check_certificate, load_certificates
    cover_path, table_path, certificates_path = _asset_paths(
        report, args, assets.COVER_ODD173, assets.PRIME_TABLE, assets.PRIME_CERTIFICATES)
    cover = load_cover(cover_path)
    cover_result = codec.refuse(cover_path, verify_cover, cover, args.budget)
    passed = (cover_result.is_cover and cover_result.lcm == 675675
              and len(cover.classes) == 173)
    _note(report, passed=passed, check="cover", classes=len(cover.classes),
          lcm=cover_result.lcm, is_cover=cover_result.is_cover)
    if not passed:
        return
    table = load_prime_table(table_path)
    certificates = load_certificates(certificates_path)
    # a failed certificate fails the run but not its row, which falls back
    # to the Miller-Rabin test: it must never set off the errata search
    proven = set()
    for p, certificate in certificates.items():
        reason = check_certificate(certificate)
        if reason:
            _note(report, passed=False, check="prime-certificate", p=p, ok=False,
                  reason=reason)
        else:
            proven.add(p)
    audit = verify_prime_table(cover, table, frozenset(proven))
    # the table's shape decides this row; each failing row has an erratum row
    shaped = not (audit.count_mismatches or audit.duplicates) and audit.omitted_consistent
    _note(report, passed=shaped, check="prime-table", entries=len(table.all_primes()),
          failing_rows=len(audit.errata), duplicates=len(audit.duplicates),
          count_mismatches=len(audit.count_mismatches),
          omitted_consistent=audit.omitted_consistent)
    levels = Counter(row.proof for row in audit.rows)
    _note(report, check="prime-proofs", deterministic=levels["deterministic"],
          certified=levels["certified"], probable=levels["probable"],
          probable_n=[row.n for row in audit.rows if row.proof == "probable"])
    for row, replacement in audit.errata:
        found = replacement is not None
        _note(report, passed=found, erratum_n=row.n, bad_value=row.p, reason=row.reason,
              replacement=replacement, replacement_verified=found)
    for w in audit.wieferich:
        _note(report, check="wieferich", n=w.n, p=w.p, alpha=w.alpha)


def _reproduce_thm13(args, report: dict) -> None:
    [path] = _asset_paths(report, args, assets.TWO_PRIME_CLASS)
    combined, checks = _two_prime_class(args, report, path, load_two_prime_data(path))
    _note(report, checks=len(checks), failures=sum(not row.ok for row in checks))
    _note(report, a=combined.a, M=combined.n)


def _two_prime_class(args, report: dict, path, data):
    """Build the two-prime class and note every check with its verdict."""
    combined, checks = codec.refuse(path, build_two_prime_class, data, args.budget)
    for row in checks:
        _note(report, passed=row.ok, check=row.name, ok=row.ok, detail=row.detail)
    return combined, checks


def _reproduce_cases(args, report: dict) -> None:
    [path] = _asset_paths(report, args, assets.TWO_PRIME_CLASS)
    data = load_two_prime_data(path)
    _two_prime_class(args, report, path, data)
    certificates = [check_exclusion(case) for case in build_standard_cases(data)]
    for c in certificates:
        _note(report, passed=c.valid, case=c.label, valid=c.valid, combinations=c.combinations)
    valid = sum(1 for c in certificates if c.valid)
    _note(report, valid_cases=f"{valid}/{len(certificates)}")


def _reproduce_erdos(args, report: dict) -> None:
    [path] = _asset_paths(report, args, assets.COVER_ERDOS)
    cover = load_cover(path)
    primes = codec.refuse(path, erdos_witness_primes, cover)
    cover_result = codec.refuse(path, verify_cover, cover, args.budget)
    _note(report, passed=cover_result.is_cover, check="cover",
          classes=len(cover.classes), lcm=cover_result.lcm, is_cover=cover_result.is_cover)
    cls = build_erdos_class(cover)
    _note(report, a=cls.a, M=cls.n)
    window = range(0, 2001)
    failures = check_divisibility_mechanics(cls, cover, primes, n_range=window)
    _note(report, passed=not failures and cls.a % 2 == 1 and cls.a % 31 == 3,
          mechanics_checked=len(window), mechanics_failures=len(failures),
          odd=cls.a % 2 == 1, mod31=cls.a % 31)


def _reproduce_lemma41(args, report: dict) -> None:
    for c in range(1, 7):
        spec = LucasSpec(c)
        for n in (2, 6, 10, 14):
            witnesses, complete = find_primitive_divisors(n, spec=spec)
            # Lemma 4.1: a primitive prime p of U_n has rank n and U mod p has
            # period exactly n.  A listed number that is not prime fails, and
            # an unfactored cofactor may hide a primitive prime never checked.
            failed = (not complete) + sum(
                not is_probable_prime(w.p) or rank_of_apparition(spec, w.p, n) != n
                or period_mod(spec, w.p, max_steps=n) != n
                for w in witnesses)
            _note(report, passed=not failed, c=c, n=n, primitive_primes=len(witnesses),
                  failures=failed)


_REPRODUCE = {
    "thm11": _reproduce_thm11,
    "thm13": _reproduce_thm13,
    "cases": _reproduce_cases,
    "erdos": _reproduce_erdos,
    "lemma41": _reproduce_lemma41,
}


def _cmd_reproduce(args) -> dict:
    report = _report("reproduce", {"target": args.target})
    _REPRODUCE[args.target](args, report)
    return report


def _cmd_certify(args) -> dict:
    report = _report("certify", {"case_file": str(args.case_file)})
    report["asset_checksums"] = {str(args.case_file): assets.checksum(args.case_file)}
    case = load_case(args.case_file)
    certificate = codec.refuse(args.case_file, check_exclusion, case, args.budget)
    _note(report, passed=certificate.valid, **certificate.to_dict())
    return report


def _text(value) -> str:
    """A detail value for text output: strings as is, anything else as compact JSON."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def _emit(report: dict, args) -> None:
    """Print an encoded report, as JSON or as one line per detail row."""
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{report['command']}: {report['outcome']}")
        for row in report["detail"]:
            print("  " + "  ".join(f"{k}={_text(v)}" for k, v in row.items()))
        print(f"  ({report['wall_time_s']:.2f}s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlab",
        description="Covering systems with odd moduli and their prime-divisor "
                    "certificates: verification and reproduction runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    output.add_argument("--out", help="also write the JSON report here")

    p_cover = sub.add_parser("verify-cover", parents=[output],
                             help="sieve a cover file over one period")
    p_cover.set_defaults(run=_cmd_verify_cover)
    p_cover.add_argument("path")
    p_cover.add_argument("--budget", type=int, default=10**8,
                         help="largest lcm the sieve will enumerate")

    p_prim = sub.add_parser("primitive", parents=[output],
                            help="primitive prime divisors of 2^n-1 or of a "
                                 "Lucas sequence term")
    p_prim.set_defaults(run=_cmd_primitive)
    family = p_prim.add_mutually_exclusive_group(required=True)
    family.add_argument("--base", type=int, choices=[2],
                        help="search divisors of base^n - 1 (base 2 only)")
    family.add_argument("--lucas-c", type=int, metavar="C",
                        help="search primitive divisors of U_n for this c")
    p_prim.add_argument("--n", type=int, required=True)
    p_prim.add_argument("--factor-budget", type=int, default=RHO_ITERATIONS,
                        help="most steps of each rho attempt (at least 1; "
                             "default 10^7); below "
                             f"{_PM1_SQUARINGS:,} P-1 does not run; the "
                             "primes up to 4096 are always divided out")

    p_rep = sub.add_parser("reproduce", parents=[output],
                           help="run a full verification target")
    p_rep.set_defaults(run=_cmd_reproduce)
    p_rep.add_argument("target", choices=_REPRODUCE)
    p_rep.add_argument("--assets", default=None,
                       help="asset directory (default: packaged assets)")
    p_rep.add_argument("--budget", type=int, default=10**8,
                       help="largest lcm a sieve will enumerate")

    p_cert = sub.add_parser("certify", parents=[output],
                            help="check one exclusion-case file")
    p_cert.set_defaults(run=_cmd_certify)
    p_cert.add_argument("case_file")
    p_cert.add_argument("--budget", type=int, default=10**9,
                        help="largest (n, sign, b) combination count, and "
                             "largest period of u_n mod an auxiliary prime")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "primitive":
        if args.n < 2:
            parser.error("--n must be at least 2")
        if args.factor_budget < 1:
            parser.error("--factor-budget must be at least 1")
    elif args.budget < 1:
        parser.error("--budget must be at least 1")
    started = time.perf_counter()
    try:
        report = args.run(args)
        report["wall_time_s"] = round(time.perf_counter() - started, 3)
        report = codec.encode(report)
        if args.out:                    # written before anything is printed
            codec.dump(report, args.out)
    except (codec.FormatError, OSError) as exc:
        print(f"coverlab: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"coverlab: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; that is not a failed check.  Point
        # stdout at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["outcome"] == "pass" else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
