"""Command-line front end: asset loading, verification runs, JSON reports.

Exit codes: 0 = all checks passed, 1 = a verification failed, 2 = input
error (unreadable/malformed file or bad arguments).  All reports carry a
schema version and decimal-string bigints so they survive any JSON reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from . import assets, codec
from .arith import FactorBudget
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .certify import certify_all_cases, check_exclusion, load_case
from .construct import (build_erdos_class, build_two_prime_class,
                        check_divisibility_mechanics, erdos_witness_primes)
from .covers import load_cover, verify_cover
from .lucas import LucasSpec, check_rank_periodicity
from .mersenne import (MERSENNE, cyclotomic_mersenne, find_primitive_divisors,
                       verify_prime_table)

REPORT_SCHEMA = "coverlab.report/1"


@dataclass
class RunReport:
    command: str
    inputs: dict
    outcome: str = "pass"                 # pass | fail | partial
    detail: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0
    asset_checksums: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "outcome": self.outcome,
            "detail": self.detail,
            "wall_time_s": round(self.wall_time_s, 3),
            "asset_checksums": self.asset_checksums,
        }

    @property
    def exit_code(self) -> int:
        return 0 if self.outcome == "pass" else 1


def _note(report: RunReport, **kw) -> None:
    """Append a detail row: bools as "true"/"false", other ints as decimals."""
    report.detail.append({
        k: ("true" if v else "false") if isinstance(v, bool)
        else str(v) if isinstance(v, int) else v
        for k, v in kw.items()})


def _cmd_verify_cover(args) -> RunReport:
    report = RunReport("verify-cover", {"path": str(args.path)})
    report.asset_checksums = {str(args.path): assets.checksum(args.path)}
    system = load_cover(args.path)
    result = verify_cover(system, enumeration_budget=args.budget)
    _note(report, label=system.label, classes=len(system.classes),
          lcm=result.lcm, is_cover=result.is_cover,
          min_multiplicity=result.min_multiplicity,
          max_multiplicity=result.max_multiplicity)
    if not result.is_cover:
        _note(report, uncovered_witness=result.uncovered_witness)
        report.outcome = "fail"
    return report


def _cmd_primitive(args) -> RunReport:
    budget = FactorBudget()
    if args.factor_budget is not None:
        budget = FactorBudget(trial_bound=args.factor_budget,
                              rho_iterations=10 * args.factor_budget)
    lucas = args.lucas_c is not None
    spec = LucasSpec(args.lucas_c) if lucas else MERSENNE
    report = RunReport("primitive", {"lucas_c": str(args.lucas_c)} if lucas
                       else {"base": "2"})
    report.inputs["n"] = str(args.n)
    witnesses, complete = find_primitive_divisors(args.n, budget, spec)
    for w in witnesses:
        _note(report, p=w.p, **({"rank": args.n} if lucas else {"alpha": w.alpha}))
    if not complete:
        report.outcome = "partial"
        if lucas:   # what the listed primes leave of the primitive part
            _note(report, unresolved_cofactor=cyclotomic_mersenne(args.n, spec)
                  // math.prod(w.p**w.alpha for w in witnesses))
        else:
            _note(report, note="factorization incomplete within budget")
    return report


def _checksums(names, override) -> dict:
    return {name: assets.checksum(assets.asset_path(name, override))
            for name in names}


def _reproduce_thm11(args, report: RunReport) -> None:
    # imported here, the one place that needs it, so that no other command
    # pays for loading the module at start-up
    from .pocklington import check_certificate, load_certificates
    report.asset_checksums = _checksums(
        [assets.COVER_ODD173, assets.PRIME_TABLE, assets.PRIME_CERTIFICATES],
        args.assets)
    cover = assets.odd_cover_173(args.assets)
    cover_result = verify_cover(cover, enumeration_budget=args.budget)
    _note(report, check="cover", classes=len(cover.classes),
          lcm=cover_result.lcm, is_cover=cover_result.is_cover)
    if not (cover_result.is_cover and cover_result.lcm == 675675
            and len(cover.classes) == 173):
        report.outcome = "fail"
        return
    table = assets.prime_table(args.assets)
    certificates = load_certificates(
        assets.asset_path(assets.PRIME_CERTIFICATES, args.assets))
    # a failed certificate fails the run but not its row, which falls back
    # to the Miller-Rabin test: it must never set off the errata search
    proven = set()
    for p, certificate in certificates.items():
        reason = check_certificate(certificate)
        if reason:
            _note(report, check="prime-certificate", p=p, ok=False, reason=reason)
            report.outcome = "fail"
        else:
            proven.add(p)
    audit = verify_prime_table(cover, table, frozenset(proven))
    _note(report, check="prime-table", entries=len(table.all_primes()),
          failing_rows=len(audit.failing_rows),
          duplicates=len(audit.duplicates),
          count_mismatches=len(audit.count_mismatches),
          omitted_consistent=audit.omitted_consistent)
    levels = Counter(row.proof for row in audit.rows)
    _note(report, check="prime-proofs", deterministic=levels["deterministic"],
          certified=levels["certified"], probable=levels["probable"],
          probable_n=[str(row.n) for row in audit.rows if row.proof == "probable"])
    for erratum in audit.errata:
        _note(report, erratum_n=erratum.n, bad_value=erratum.bad_value,
              reason=erratum.reason,
              replacement=erratum.replacement,
              replacement_verified=erratum.verified)
    for w in audit.wieferich:
        _note(report, check="wieferich", n=w.n, p=w.p, alpha=w.alpha)
    if args.out_errata:
        codec.dump([asdict(e) for e in audit.errata], args.out_errata)
    if not audit.passed:
        report.outcome = "fail"


def _reproduce_thm13(args, report: RunReport) -> None:
    report.asset_checksums = _checksums([assets.TWO_PRIME_CLASS], args.assets)
    data = assets.two_prime_data(args.assets)
    combined, checks = _two_prime_class(args, report, data)
    _note(report, checks=len(checks), failures=sum(not row.ok for row in checks))
    _note(report, a=combined.a, M=combined.n)


def _two_prime_class(args, report: RunReport, data):
    """Build the two-prime class; note every check, and fail the run on any."""
    combined, checks = build_two_prime_class(data, enumeration_budget=args.budget)
    for row in checks:
        _note(report, check=row.name, ok=row.ok, detail=row.detail)
        if not row.ok:
            report.outcome = "fail"
    return combined, checks


def _reproduce_cases(args, report: RunReport) -> None:
    report.asset_checksums = _checksums([assets.TWO_PRIME_CLASS], args.assets)
    data = assets.two_prime_data(args.assets)
    _two_prime_class(args, report, data)
    certificates = certify_all_cases(data)
    valid = sum(1 for c in certificates if c.valid)
    if valid < len(certificates):
        report.outcome = "fail"
    for c in certificates:
        _note(report, case=c.label, valid=c.valid,
              combinations=c.combinations)
    _note(report, valid_cases=f"{valid}/{len(certificates)}")


def _reproduce_erdos(args, report: RunReport) -> None:
    report.asset_checksums = _checksums([assets.COVER_ERDOS], args.assets)
    cover = assets.erdos_cover(args.assets)
    cover_result = verify_cover(cover, enumeration_budget=args.budget)
    _note(report, check="cover", classes=len(cover.classes),
          lcm=cover_result.lcm, is_cover=cover_result.is_cover)
    cls = build_erdos_class(cover)
    _note(report, a=cls.a, M=cls.n)
    ok = cls.a % 2 == 1 and cls.a % 31 == 3
    window = range(0, 2001)
    failures = check_divisibility_mechanics(cls, cover, erdos_witness_primes(cover),
                                            n_range=window)
    _note(report, mechanics_checked=len(window), mechanics_failures=len(failures),
          odd=cls.a % 2 == 1, mod31=cls.a % 31)
    if not (ok and not failures and cover_result.is_cover):
        report.outcome = "fail"


def _reproduce_lemma41(args, report: RunReport) -> None:
    failures = 0
    for c in range(1, 7):
        spec = LucasSpec(c)
        for n in (2, 6, 10, 14):
            witnesses, _ = find_primitive_divisors(n, spec=spec)
            primitive = [w.p for w in witnesses]
            bad = [p for p in primitive if not check_rank_periodicity(spec, n, p)]
            failures += len(bad)
            _note(report, c=c, n=n, primitive_primes=len(primitive),
                  failures=len(bad))
    if failures:
        report.outcome = "fail"


_REPRODUCE = {
    "thm11": _reproduce_thm11,
    "thm13": _reproduce_thm13,
    "cases": _reproduce_cases,
    "erdos": _reproduce_erdos,
    "lemma41": _reproduce_lemma41,
}


def _cmd_reproduce(args) -> RunReport:
    report = RunReport("reproduce", {"target": args.target})
    _REPRODUCE[args.target](args, report)
    return report


def _cmd_certify(args) -> RunReport:
    report = RunReport("certify", {"case_file": str(args.case_file)})
    report.asset_checksums = {str(args.case_file): assets.checksum(args.case_file)}
    case = load_case(args.case_file)
    certificate = check_exclusion(case, combination_budget=args.budget)
    report.detail.append(certificate.to_dict())
    if not certificate.valid:
        report.outcome = "fail"
    return report


def _text(value) -> str:
    """A detail value for text output: strings as is, anything else as compact JSON."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def _write_out(report: RunReport, path: str) -> None:
    """Write the JSON report to the --out file, before anything is printed."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


def _emit(report: RunReport, args) -> None:
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{report.command}: {report.outcome}")
        for row in report.detail:
            print("  " + "  ".join(f"{k}={_text(v)}" for k, v in row.items()))
        print(f"  ({report.wall_time_s:.2f}s)")


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
    p_prim.add_argument("--base", type=int, choices=[2], default=None,
                        help="search divisors of base^n - 1 (base 2 only)")
    p_prim.add_argument("--lucas-c", type=int, default=None,
                        help="search primitive divisors of U_n for this c")
    p_prim.add_argument("--n", type=int, required=True)
    p_prim.add_argument("--factor-budget", type=int, default=None,
                        help="largest trial divisor of the factoring step (at "
                             "least 1); rho then runs up to 10 times this many "
                             "iterations per attempt (default: the FactorBudget "
                             "defaults, 4096 and 10^7)")

    p_rep = sub.add_parser("reproduce", parents=[output],
                           help="run a full verification target")
    p_rep.set_defaults(run=_cmd_reproduce)
    p_rep.add_argument("target", choices=_REPRODUCE)
    p_rep.add_argument("--assets", default=None,
                       help="asset directory (default: packaged assets; "
                            "COVERLAB_ASSETS overrides)")
    p_rep.add_argument("--budget", type=int, default=10**8)
    p_rep.add_argument("--out-errata", default=None,
                       help="write discovered prime-table errata to this file "
                            "(always written, [] when there are none)")

    p_cert = sub.add_parser("certify", parents=[output],
                            help="check one exclusion-case file")
    p_cert.set_defaults(run=_cmd_certify)
    p_cert.add_argument("case_file")
    p_cert.add_argument("--budget", type=int, default=10**9,
                        help="largest (n, sign, b) combination count")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "primitive":
        if (args.base is None) == (args.lucas_c is None):
            parser.error("pass exactly one of --base 2 or --lucas-c C")
        if args.n < 2:
            parser.error("--n must be at least 2")
        if args.factor_budget is not None and args.factor_budget < 1:
            parser.error("--factor-budget must be at least 1")
    elif args.budget < 1:
        parser.error("--budget must be at least 1")
    started = time.perf_counter()
    try:
        report = args.run(args)
        report.wall_time_s = time.perf_counter() - started
        if args.out:
            _write_out(report, args.out)
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
    return report.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
