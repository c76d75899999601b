"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time
from contextlib import contextmanager

from coverlab import cli
from coverlab.arith import factor, is_probable_prime, jacobi
from coverlab.assets import (erdos_cover, generalized_demo, odd_cover_24,
                             odd_cover_173, prime_table, two_prime_data)
from coverlab.certify import certify_all_cases
from coverlab.construct import (ERDOS_WITNESS_PRIMES, build_erdos_class,
                                build_generalized_erdos, build_two_prime_class,
                                check_divisibility_mechanics,
                                erdos_witness_primes, pow_root_mod_prime_power)
from coverlab.covers import build_doubled_cover, verify_cover
from coverlab.lucas import (LucasSpec, check_rank_periodicity, check_u_identity,
                            iter_terms_mod, rank_of_apparition, u_term)
from coverlab.mersenne import (find_primitive_divisors, mersenne_valuation,
                               verify_prime_table, wieferich_test)

U4 = LucasSpec(4)

EXPECTED_OMITTED = [1485, 3003, 3465, 3861, 5005, 5775, 6435, 10395, 675675]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


def test_criterion_01_odd_cover_verifies():
    with criterion("1: 173-class odd cover, lcm 675675, < 5 s"):
        cover = odd_cover_173()
        assert len(cover.classes) == 173
        started = time.perf_counter()
        report = verify_cover(cover)
        elapsed = time.perf_counter() - started
        assert report.is_cover
        assert report.lcm == 675675
        assert report.uncovered_witness is None
        assert elapsed < 5.0, f"cover sieve took {elapsed:.2f}s"
        assert cli.main(["reproduce", "thm11"]) == 0


def test_criterion_02_prime_table_audit():
    with criterion("2: prime table audit with explained errata, < 10 min"):
        cover = odd_cover_173()
        table = prime_table()
        started = time.perf_counter()
        report = verify_prime_table(cover, table)
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"table audit took {elapsed:.2f}s"
        assert not report.count_mismatches
        assert not report.duplicates
        assert report.omitted == EXPECTED_OMITTED
        assert report.omitted_consistent
        # the single expected transcription artifact, explained and replaced
        assert [(r.n, r.p) for r in report.failing_rows] == [(1755, 196911)]
        assert len(report.errata) == 1
        erratum = report.errata[0]
        assert erratum.replacement == 1969111 and erratum.verified
        assert report.passed, "unexplained failures remain"


def test_criterion_03_doubled_cover():
    with criterion("3: 24 odd classes double to a 25-class cover, lcm 630"):
        odd = odd_cover_24()
        assert len(odd.classes) == 24
        doubled = build_doubled_cover(odd)
        assert len(doubled.classes) == 25
        report = verify_cover(doubled)
        assert report.is_cover and report.lcm == 630


def test_criterion_04_ranks_of_apparition():
    with criterion("4: rank of every target prime is exactly 2*m_t, < 10 s"):
        data = two_prime_data()
        started = time.perf_counter()
        moduli = [1] + [c.n for c in data.cover.classes]
        for p, m in zip(data.primes, moduli):
            assert rank_of_apparition(U4, p, search_bound=2 * m) == 2 * m, p
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"rank scan took {elapsed:.2f}s"


def test_criterion_05_golden_constants():
    with criterion("5: CRT reproduces the 80-digit class digit-for-digit"):
        data = two_prime_data()
        combined, report = build_two_prime_class(data)
        assert combined.a == data.expected_a
        assert combined.n == data.expected_m
        assert combined.n == math.prod(data.primes)
        assert report.passed, [c.name for c in report.failures()]


def test_criterion_06_square_residue_transfer():
    with criterion("6: x^2 tracks the sequence residues for 500 members"):
        data = two_prime_data()
        combined, _ = build_two_prime_class(data)
        a, M = combined.a, combined.n
        assert a % 2 == 1
        targets = []
        for t in range(1, 25):
            p = data.primes[t]
            b_t = data.cover.classes[t - 1].a
            terms = iter_terms_mod(U4, p, 2 * b_t + 1)
            want = terms[2 * b_t] if b_t else 0
            assert a * a % p == want, t
            targets.append((p, want))
        rng = random.Random(20260810)
        for _ in range(500):
            x = a + rng.randrange(0, 10**30) * M
            for p, want in targets:
                assert x * x % p == want


def test_criterion_07_case_engine():
    with criterion("7: all 25 exclusion cases certify, < 60 s"):
        data = two_prime_data()
        started = time.perf_counter()
        reports = certify_all_cases(data)
        elapsed = time.perf_counter() - started
        assert len(reports) == 25
        assert all(r.valid for r in reports)
        assert elapsed < 60.0, f"case engine took {elapsed:.2f}s"
        _, build = build_two_prime_class(data)
        assert [c.ok for c in build.checks if c.name == "members-exceed-2"] == [True]
        # quoted intermediate facts reproduced by the primitives
        assert pow(2, 5, 31) == 1
        assert jacobi(-2, 71) == -1
        terms29 = iter_terms_mod(U4, 29, 2100)
        for n in range(2, 2002, 70):
            assert (5 * 5 - terms29[n]) % 29 == (-8) % 29


def test_criterion_08_brute_force_window():
    with criterion("8: no x^2 - u_n = +-p^b for n <= 2000, b <= 60"):
        data = two_prime_data()
        combined, _ = build_two_prime_class(data)
        x = combined.a
        exact = [0, 1]
        while len(exact) < 2002:
            exact.append(4 * exact[-1] + exact[-2])
        progressions = [(1, 2, 2)] + [
            (2 * c.a, 2 * c.n, p)
            for c, p in zip(data.cover.classes, data.primes[1:])]
        xx = x * x
        for r, m, p in progressions:
            powers = set()
            v = 1
            for _ in range(61):
                powers.add(v)
                powers.add(-v)
                v *= p
            for n in range(r, 2001, m):
                assert xx - exact[n] not in powers, (r, m, p, n)


def test_criterion_09_erdos_construction():
    with criterion("9: witness primes divide x - 2^n for all n <= 2000, < 5 s"):
        started = time.perf_counter()
        cover = erdos_cover()
        cls = build_erdos_class(cover)
        assert cls.a % 2 == 1
        assert cls.a % 31 == 3
        primes = erdos_witness_primes(cover)
        assert sorted(primes) == [3, 5, 7, 13, 17, 241]
        report = check_divisibility_mechanics(cls, cover, primes, n_range=range(0, 2001))
        elapsed = time.perf_counter() - started
        assert report.checked == 2001 and report.all_ok
        assert elapsed < 5.0, f"mechanics took {elapsed:.2f}s"
        # the exponent classes really cover Z
        assert verify_cover(cover).is_cover


def test_criterion_10_wieferich_scan():
    with criterion("10: exactly {1093, 3511} below 1e5; valuation check, < 2 min"):
        started = time.perf_counter()
        limit = 10**5
        flags = bytearray([1]) * limit
        flags[0:2] = b"\x00\x00"
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                flags[i * i::i] = bytearray(len(flags[i * i::i]))
        hits = [p for p in range(3, limit) if flags[p] and wieferich_test(p)]
        elapsed = time.perf_counter() - started
        assert hits == [1093, 3511]
        assert mersenne_valuation(3511, 1755) == 2
        assert elapsed < 120.0, f"scan took {elapsed:.2f}s"


def test_criterion_11_periodicity_suite():
    with criterion("11: periodicity suite for c in 1..6 and the u identity"):
        for c in range(1, 7):
            spec = LucasSpec(c)
            for n in (2, 6, 10, 14):
                value = u_term(spec, n)
                if value <= 1:
                    continue
                for p in factor(value).primes():
                    if p < 10**6 and rank_of_apparition(spec, p, n) == n:
                        assert check_rank_periodicity(spec, n, p), (c, n, p)
        for n in range(201):
            assert check_u_identity(n)


def test_criterion_12_generalized_construction_surrogates():
    with criterion("12: degenerate demo, root re-powering, companion discovery"):
        # (b) re-powering holds on 1000 seeded solvable instances
        rng = random.Random(58081)
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 241, 1093]
        for _ in range(1000):
            p = rng.choice(primes)
            e = rng.randrange(1, 4)
            k = 1 << rng.randrange(0, 4)
            pe = p**e
            z = rng.randrange(1, pe)
            while z % p == 0:
                z = rng.randrange(1, pe)
            a = pow(z, k, pe)
            x = pow_root_mod_prime_power(k, a, p, e)
            assert pow(x, k, pe) == a

        # (c) the 7-class companion comes from really factoring 2^49 - 1
        f = factor(2**49 - 1)
        assert f.complete and dict(f.factors) == {127: 1, 4432676798593: 1}
        witnesses, complete = find_primitive_divisors(49)
        assert complete and [w.p for w in witnesses] == [4432676798593]
        q = witnesses[0].p
        assert is_probable_prime(q)
        assert pow(2, 49, q) == 1 and pow(2, 7, q) != 1

        # (a) the shipped power-1 instance degenerates to the classical class
        demo = generalized_demo()
        erdos = build_erdos_class(erdos_cover())
        built = build_generalized_erdos(demo)
        assert built.a % 2 == 1 == erdos.a % 2
        for p in ERDOS_WITNESS_PRIMES.values():
            assert built.a % p == erdos.a % p, p
