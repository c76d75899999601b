import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest

from coverlab import cli, codec
from coverlab.assets import SAMPLE_CASE, TWO_PRIME_CLASS, asset_path
import coverlab.certify as certify
from coverlab.certify import (DEFAULT_Q_POOL, AuxEvidence, AuxPrime,
                              CertificateReport, ExclusionCase,
                              build_standard_cases, check_exclusion, load_case)
from coverlab.construct import TwoPrimeData, build_two_prime_class, load_two_prime_data
from coverlab.covers import CoveringSystem, ResidueClass
from coverlab.lucas import LucasSpec, iter_terms_mod, period_mod, u_term_mod

U4 = LucasSpec(4)


def test_sample_case_is_valid():
    case = load_case(asset_path(SAMPLE_CASE))
    report = check_exclusion(case)
    assert report.valid
    assert report.counterexample is None
    assert report.aux_evidence[0].q == 31


def test_sample_case_residue_sets_match_hand_derivation():
    # x = 14 (mod 31): x^2 - u_n for n = 12 (mod 14) takes exactly the
    # values {6, 20, 10, 0, 14} mod 31, while +-29^b only reaches
    # {1, 2, 4, 8, 16} and their negations.
    terms = iter_terms_mod(U4, 31, 1000)
    period = 10
    lhs = {(14 * 14 - terms[n]) % 31 for n in range(12, 12 + 70, 14)}
    assert lhs == {6, 20, 10, 0, 14}
    rhs = set()
    for b in range(5):
        v = pow(29, b, 31)
        rhs.add(v)
        rhs.add(31 - v)
    # 29 = -2 has order 10 mod 31; the ten powers are exactly +-{1,2,4,8,16}
    assert {pow(29, b, 31) for b in range(10)} == rhs
    assert not lhs & rhs
    assert terms[12 + period] == terms[12]


def test_case_with_trivial_power_residue():
    # 31249 = 1 (mod 31), so every power collapses to +-1 mod 31
    case = ExclusionCase(label="trivial-powers", r=18, m=42, p=31249,
                         aux=(AuxPrime(31, 14),))
    report = check_exclusion(case)
    assert report.valid
    assert dict((e.q, e.order) for e in report.aux_evidence) == {31: 1}


def test_empty_aux_is_invalid():
    case = ExclusionCase(label="empty", r=5, m=14, p=29, aux=())
    report = check_exclusion(case)
    assert not report.valid
    assert report.counterexample == (5, 1, 0)
    assert report.combinations == 2
    assert report.aux_evidence == ()


def test_aux_dividing_target_rejected():
    case = ExclusionCase(label="bad", r=1, m=2, p=31,
                         aux=(AuxPrime(31, 14),))
    with pytest.raises(ValueError, match="divides the target"):
        check_exclusion(case)


def test_repeated_aux_prime_rejected():
    # two residues for one q pin x to no class, so no combination survives
    # and the case would pass vacuously
    case = ExclusionCase(label="d", r=0, m=2, p=3,
                         aux=(AuxPrime(11, 1), AuxPrime(11, 2)))
    with pytest.raises(ValueError, match="auxiliary prime 11 is repeated"):
        check_exclusion(case)


def test_combination_budget(tmp_path, capsys):
    # u_n mod 31 has period 10 and 29 has order 10 mod 31: lcm(14, 10) / 14
    # = 5 residues of n, 2 signs and 10 exponents b make 100 combinations
    case = ExclusionCase(label="tight", r=12, m=14, p=29,
                         aux=(AuxPrime(31, 14),))
    with pytest.raises(ValueError, match="exceed"):
        check_exclusion(case, combination_budget=5)    # stops the period walk
    for budget in (10, 99):
        with pytest.raises(ValueError,
                           match=f"^100 combinations exceed the budget {budget}$"):
            check_exclusion(case, combination_budget=budget)
    assert check_exclusion(case, combination_budget=100).combinations == 100
    # the command line turns the refusal into exit 2 and one line on stderr
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({"label": "tight", "r": "12", "m": "14", "p": "29",
                                "aux": [{"q": "31", "x_mod_q": "14"}]}))
    assert cli.main(["certify", str(path), "--budget", "99"]) == 2
    assert capsys.readouterr().err == "coverlab: 100 combinations exceed the budget 99\n"


def test_combination_budget_caps_the_period_walk(tmp_path):
    # for a large q the budget must stop the period walk, not only the
    # enumeration after it (uncapped, the walk runs for minutes), and a
    # large progression modulus m must not lift that cap
    path = tmp_path / "large_q.json"
    src = str(pathlib.Path(certify.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for m in ("2", str(10**30)):
        path.write_text(json.dumps({"r": "1", "m": m, "p": "3",
                                    "aux": [{"q": "1000000007", "x_mod_q": "1"}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "coverlab.cli", "certify", str(path), "--budget", "1000"],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2, m
        assert "exceed the budget 1000" in proc.stderr


def test_monotonicity_of_aux_sets():
    data = load_two_prime_data(asset_path(TWO_PRIME_CLASS))
    residue_of = {r.n: r.a for r in data.residues}
    base = ExclusionCase(label="base", r=12, m=14, p=29,
                         aux=(AuxPrime(31, residue_of[31]),))
    assert check_exclusion(base).valid
    for extra in ((11,), (11, 19), (11, 19, 71, 181)):
        grown = ExclusionCase(
            label="grown", r=12, m=14, p=29,
            aux=base.aux + tuple(AuxPrime(q, residue_of[q]) for q in extra))
        assert check_exclusion(grown).valid


def test_reports_are_deterministic():
    case = load_case(asset_path(SAMPLE_CASE))
    first = json.dumps(check_exclusion(case).to_dict(), sort_keys=True)
    second = json.dumps(check_exclusion(case).to_dict(), sort_keys=True)
    assert first == second


def test_standard_cases_shape():
    data = load_two_prime_data(asset_path(TWO_PRIME_CLASS))
    cases = build_standard_cases(data)
    assert len(cases) == 25
    assert (cases[0].r, cases[0].m, cases[0].p) == (1, 2, 2)
    assert (cases[5].r, cases[5].m, cases[5].p) == (12, 14, 29)
    for case in cases:
        assert all(aux.q != case.p for aux in case.aux)
    # targets drawn from the pool lose exactly that one auxiliary
    sizes = {case.p: len(case.aux) for case in cases}
    for q in DEFAULT_Q_POOL:
        assert sizes[q] == len(DEFAULT_Q_POOL) - 1


# (label, r, m, p) of the 25 standard cases, as the hand-written doubling
# 1(2), 2b_t(2m_t) produced them before the cases came from the cover layer
STANDARD_CASES = [
    ("t00 p=2 n=1(mod 2)", 1, 2, 2),
    ("t01 p=19 n=2(mod 6)", 2, 6, 19),
    ("t02 p=31 n=4(mod 10)", 4, 10, 31),
    ("t03 p=11 n=6(mod 10)", 6, 10, 11),
    ("t04 p=211 n=8(mod 14)", 8, 14, 211),
    ("t05 p=29 n=12(mod 14)", 12, 14, 29),
    ("t06 p=5779 n=0(mod 18)", 0, 18, 5779),
    ("t07 p=541 n=10(mod 30)", 10, 30, 541),
    ("t08 p=181 n=22(mod 30)", 22, 30, 181),
    ("t09 p=31249 n=18(mod 42)", 18, 42, 31249),
    ("t10 p=1009 n=24(mod 42)", 24, 42, 1009),
    ("t11 p=767131 n=2(mod 70)", 2, 70, 767131),
    ("t12 p=21211 n=28(mod 70)", 28, 70, 21211),
    ("t13 p=911 n=48(mod 70)", 48, 70, 911),
    ("t14 p=71 n=58(mod 70)", 58, 70, 71),
    ("t15 p=119611 n=12(mod 90)", 12, 90, 119611),
    ("t16 p=42391 n=30(mod 90)", 30, 90, 42391),
    ("t17 p=271 n=58(mod 90)", 58, 90, 271),
    ("t18 p=811 n=60(mod 90)", 60, 90, 811),
    ("t19 p=379 n=10(mod 126)", 10, 126, 379),
    ("t20 p=912871 n=46(mod 126)", 46, 126, 912871),
    ("t21 p=85429 n=88(mod 126)", 88, 126, 85429),
    ("t22 p=631 n=132(mod 210)", 132, 210, 631),
    ("t23 p=69931 n=42(mod 630)", 42, 630, 69931),
    ("t24 p=17011 n=178(mod 630)", 178, 630, 17011),
]


def test_standard_cases_golden():
    cases = build_standard_cases(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
    assert [(c.label, c.r, c.m, c.p) for c in cases] == STANDARD_CASES


def test_certify_all_cases_valid():
    cases = build_standard_cases(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
    reports = [check_exclusion(case) for case in cases]
    assert len(reports) == 25
    assert all(r.valid for r in reports)


def test_certify_all_cases_reports_invalid_on_weak_pool(monkeypatch):
    monkeypatch.setattr(certify, "DEFAULT_Q_POOL", (19,))
    cases = build_standard_cases(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
    reports = [check_exclusion(case) for case in cases]
    assert len(reports) == 25
    assert any(not r.valid for r in reports)


def test_pool_primes_must_carry_residues(monkeypatch):
    # 23 is no modulus of the data, so it is no auxiliary of any case;
    # 11 is one, and the case with target 11 loses it
    monkeypatch.setattr(certify, "DEFAULT_Q_POOL", (11, 23))
    cases = build_standard_cases(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
    assert len(cases) == 25
    for case in cases:
        want = () if case.p == 11 else (11,)
        assert tuple(aux.q for aux in case.aux) == want, case.label


def members_exceed_2(data):
    _, checks = build_two_prime_class(data)
    return next(c.ok for c in checks if c.name == "members-exceed-2")


def test_nonzero_guard():
    # the cases only rule out x^2 - u_n = +-p^b; x^2 = u_n itself is left to
    # the members-exceed-2 row, checked here on one-class instances mod 2p
    def one_class(a, p):
        return TwoPrimeData(cover=CoveringSystem([ResidueClass(0, 1)]),
                            primes=[2, p],
                            residues=[ResidueClass(1, 2), ResidueClass(a, p)],
                            expected_a=0, expected_m=0)

    assert members_exceed_2(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
    assert not members_exceed_2(one_class(1, 5))    # 1 is a member
    assert not members_exceed_2(one_class(6, 7))    # -1 = 13 (mod 14) is a member
    assert members_exceed_2(one_class(3, 7))        # members 3, -11, 17, ...
    assert members_exceed_2(one_class(0, 7))        # members 7, -7, 21, ...


def test_quoted_intermediates():
    # the hand-proof facts the engine generalizes
    assert pow(2, 5, 31) == 1
    assert pow(2, 5, 11) == 10                   # i.e. -1 (mod 11)
    assert 211 % 31 == 5 * 5 % 31                # 211 = 5^2 (mod 31)
    assert pow(5, 3, 31) == 1
    # x^2 - u_n = -8 (mod 29) along n = 2 (mod 70), for x = 5 (mod 29)
    terms = iter_terms_mod(U4, 29, 3000)
    for n in range(2, 2002, 70):
        assert (5 * 5 - terms[n]) % 29 == (-8) % 29
    sympy = pytest.importorskip("sympy")
    assert sympy.jacobi_symbol(-2, 71) == -1     # -2 is not a square mod 71


def _report_by_direct_enumeration(case):
    """The report from a literal loop over one full (sign, b, n) period.

    The first survivor in sign, then b, then n order is the least b of the
    first sign that has one, with the least n for it.
    """
    periods = {}
    orders = {}
    for a in case.aux:
        periods[a.q] = period_mod(U4, a.q)
        d, x = 1, case.p % a.q
        while x != 1:
            x = x * (case.p % a.q) % a.q
            d += 1
        orders[a.q] = d
    n_span = math.lcm(case.m, *periods.values())
    b_span = math.lcm(*orders.values())
    r0 = case.r % case.m
    terms = {a.q: iter_terms_mod(U4, a.q, r0 + n_span) for a in case.aux}
    ns = range(r0, r0 + n_span, case.m)
    lhs = [tuple((a.x_mod_q * a.x_mod_q - terms[a.q][n]) % a.q for a in case.aux)
           for n in ns]

    def first_survivor():
        for sign in (1, -1):
            for b in range(b_span):
                rhs = tuple(sign * pow(case.p, b, a.q) % a.q for a in case.aux)
                for n, key in zip(ns, lhs):
                    if key == rhs:
                        return n, sign, b
        return None

    counterexample = first_survivor()
    return CertificateReport(
        label=case.label, valid=counterexample is None,
        combinations=len(ns) * 2 * b_span, counterexample=counterexample,
        aux_evidence=tuple(sorted(
            (AuxEvidence(q, periods[q], orders[q]) for q in periods),
            key=lambda e: e.q)))


def test_case_file_roundtrip(tmp_path):
    # a case written field for field as the case-file layout reads back equal
    case = ExclusionCase(label="rt", r=8, m=14, p=211,
                         aux=(AuxPrime(29, 5), AuxPrime(31, 14)))
    path = tmp_path / "case.json"
    codec.dump({"label": case.label, "r": case.r, "m": case.m, "p": case.p,
                "aux": [{"q": a.q, "x_mod_q": a.x_mod_q} for a in case.aux]}, path)
    assert load_case(path) == case


def test_tables_span_one_period(tmp_path, monkeypatch):
    # n = r (mod 2*10^7) meets a period of u mod 11 once: 10 combinations,
    # but tables sized by the whole progression span would hold 2*10^7 terms
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"r": "19999999", "m": "20000000", "p": "3",
                                "aux": [{"q": "11", "x_mod_q": "1"}]}))
    real = certify.iter_terms_mod

    def one_period(spec, q, count):
        assert count <= period_mod(U4, q), (q, count)
        return real(spec, q, count)

    monkeypatch.setattr(certify, "iter_terms_mod", one_period)
    report = check_exclusion(load_case(path))
    assert report.valid and report.combinations == 10


def test_check_exclusion_agrees_with_direct_enumeration():
    rng = random.Random(31)
    targets = [2, 3, 5, 7, 11, 19, 29, 31, 71, 181, 541, 1009]
    checked_valid = checked_invalid = 0
    for _ in range(200):
        m = rng.randrange(1, 71)
        r = rng.randrange(-3 * m, 3 * m)
        p = rng.choice(targets)
        aux = tuple(AuxPrime(q, rng.randrange(0, q))
                    for q in rng.sample(DEFAULT_Q_POOL, rng.randrange(0, 4)) if q != p)
        case = ExclusionCase(label="fuzz", r=r, m=m, p=p, aux=aux)
        report = check_exclusion(case)
        assert report == _report_by_direct_enumeration(case), case
        if not aux:
            assert report.counterexample == (r % m, 1, 0)
        checked_valid += report.valid
        checked_invalid += not report.valid
    assert checked_valid and checked_invalid   # both outcomes were exercised

    cases = (build_standard_cases(load_two_prime_data(asset_path(TWO_PRIME_CLASS)))
             + [load_case(asset_path(SAMPLE_CASE))])
    for case in cases:
        assert (check_exclusion(case).to_dict()
                == _report_by_direct_enumeration(case).to_dict()), case.label


def test_large_b_span_is_solved_not_enumerated():
    # 7 is a primitive root mod 10007 and mod 10039, so b runs over
    # lcm(10006, 10038) = 50,220,114 classes, and m is a multiple of both
    # sequence periods, so a single n stands for the whole progression.
    # b = e_q (mod q - 1) is solvable iff the e_q agree mod 2, i.e. iff the
    # two deficits are both squares or both non-squares; q = 3 (mod 4) makes
    # -1 a non-square mod each q, so the sign flips both and changes nothing.
    qs = (10007, 10039)
    m = math.lcm(*(period_mod(U4, q) for q in qs))
    r = 12345
    seen = set()
    for x in ((1, 1), (2, 5), (3, 4), (100, 200)):
        case = ExclusionCase(label="large-b", r=r, m=m, p=7,
                             aux=tuple(AuxPrime(q, xq) for q, xq in zip(qs, x)))
        report = check_exclusion(case)
        assert report.combinations == 2 * 50_220_114 >= 10**8
        deficits = [(xq * xq - u_term_mod(U4, r, q)) % q for q, xq in zip(qs, x)]
        squares = {pow(d, (q - 1) // 2, q) == 1 for q, d in zip(qs, deficits)}
        assert report.valid == (0 in deficits or len(squares) == 2), x
        seen.add(report.valid)
        if not report.valid:
            n, sign, b = report.counterexample
            assert (n, sign) == (r, 1) and 0 <= b < 50_220_114
            for q, xq in zip(qs, x):
                assert (xq * xq - u_term_mod(U4, n, q)) % q == sign * pow(7, b, q) % q
    assert seen == {True, False}


def test_discrete_log_tables_wait_for_a_key_that_can_be_solved():
    # 3 has order 200,004 mod 400,009, and m = pi_q leaves one key, 1 - u_1 = 0,
    # which no sign makes a power of 3: the case is valid without any table,
    # where a table of all 200,004 powers takes about 28 MiB
    q = 400_009
    m = period_mod(U4, q)
    assert m == 66_668
    case = ExclusionCase(label="one-key", r=1, m=m, p=3, aux=(AuxPrime(q, 1),))
    tracemalloc.start()
    try:
        report = check_exclusion(case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.valid and report.combinations == 2 * 200_004
    assert peak < 8 * 2**20, peak
