import itertools
import math
import random

import pytest

from coverlab.arith import factor, is_probable_prime
from coverlab.assets import erdos_cover, two_prime_data
from coverlab.construct import (ERDOS_WITNESS_PRIMES, build_erdos_class,
                                build_two_prime_class,
                                check_divisibility_mechanics,
                                erdos_witness_primes, prime_power_hits)
from coverlab.covers import CoveringSystem, ResidueClass
from coverlab.lucas import LucasSpec, u_term_mod, u_terms
from coverlab.mersenne import find_primitive_divisors


def test_build_erdos_class_residues():
    cls = build_erdos_class(erdos_cover())
    assert cls.n == 2 * 3 * 5 * 7 * 13 * 17 * 31 * 241
    assert cls.a % 2 == 1
    assert cls.a % 31 == 3
    assert cls.a % 3 == 1          # 2^0
    assert cls.a % 7 == 1          # 2^0
    assert cls.a % 5 == 2          # 2^1
    assert cls.a % 17 == pow(2, 3, 17)
    assert cls.a % 13 == pow(2, 7, 13)
    assert cls.a % 241 == pow(2, 23, 241)


def test_erdos_mechanics_window():
    cover = erdos_cover()
    cls = build_erdos_class(cover)
    primes = erdos_witness_primes(cover)
    assert check_divisibility_mechanics(cls, cover, primes, n_range=range(0, 2001)) == []
    # independent spot check: the witness really divides x - 2^n
    for n in (0, 1, 17, 100, 1999):
        assert any((cls.a - 2**n) % p == 0 for p in primes)


def test_mechanics_flags_uncovered():
    cls = build_erdos_class(erdos_cover())
    cover = CoveringSystem([ResidueClass(0, 2)])       # evens only
    failures = check_divisibility_mechanics(cls, cover, [3], n_range=range(0, 10))
    bad = [n for n, why in failures if why == "not covered by any class"]
    assert bad == [1, 3, 5, 7, 9]


def test_mechanics_tests_the_witness_prime_not_its_power():
    # 3^2 | 2^6 - 1, but the construction pins x mod 3 only: x = 4 (mod 9)
    # has 3 | x - 2^n along 0(6) while x != 2^n (mod 9)
    cover = CoveringSystem([ResidueClass(0, 6)])
    assert check_divisibility_mechanics(ResidueClass(4, 9), cover, [3],
                                        n_range=range(6, 30, 6)) == []


def test_mechanics_rejects_a_witness_that_is_not_a_prime_of_2n_minus_1():
    cover = CoveringSystem([ResidueClass(0, 6)])
    with pytest.raises(ValueError, match="9 is not prime"):
        check_divisibility_mechanics(ResidueClass(4, 9), cover, [9], range(6))
    with pytest.raises(ValueError, match="5 does not divide 2"):
        check_divisibility_mechanics(ResidueClass(4, 9), cover, [5], range(6))


def test_build_two_prime_class_golden():
    data = two_prime_data()
    combined, checks = build_two_prime_class(data)
    assert [c for c in checks if not c.ok] == []
    assert combined.a == data.expected_a
    assert combined.n == data.expected_m
    assert combined.n == math.prod(data.primes)
    assert len(str(combined.a)) == 80 and len(str(combined.n)) == 80
    assert str(combined.a).endswith("864275")
    assert str(combined.n).endswith("850778")


def test_two_prime_square_residues_and_members():
    data = two_prime_data()
    combined, _ = build_two_prime_class(data)
    a, M = combined.a, combined.n
    assert a % 2 == 1
    spec = LucasSpec(4)
    rng = random.Random(500)
    members = [a + rng.randrange(0, 10**40) * M for _ in range(500)]
    for t in range(1, len(data.primes)):
        p = data.primes[t]
        b_t = data.cover.classes[t - 1].a
        want = u_term_mod(spec, 2 * b_t, p)
        assert a * a % p == want
        for x in members:
            assert x * x % p == want
    # the quoted spot values
    assert a % 5779 == 0
    assert a % 31 == 14 and 14 * 14 % 31 == 10 == u_term_mod(spec, 4, 31)


def test_build_two_prime_class_link_rows():
    _, checks = build_two_prime_class(two_prime_data())
    rows = {c.name: c for c in checks}
    assert len(checks) == 82
    assert rows["odd-cover"].ok and rows["odd-cover"].detail == "lcm 315"
    assert rows["doubled-cover"].ok and rows["doubled-cover"].detail == "lcm 630"
    periods = [c for c in checks if c.name.startswith("period t=")]
    assert [c.name for c in periods] == [f"period t={t}" for t in range(25)]
    assert all(c.ok for c in periods)
    assert periods[0].detail == "u_n mod 2 has period 2, modulus 2"
    assert periods[24].detail == "u_n mod 17011 has period 630, modulus 630"
    ranks = [c for c in checks if c.name.startswith("rank t=")]
    assert [c.name for c in ranks] == [f"rank t={t}" for t in range(25)]
    assert all(c.ok for c in ranks)
    assert ranks[1].detail == "rank of 19 is 6, modulus 6"
    assert rows["brute-force-window"].ok
    assert rows["brute-force-window"].detail == \
        "no x^2 - u_n = +-p_t^b for n <= 2000, b <= 60"


def test_prime_power_hits_finds_planted_powers():
    # u_1 = 1, u_3 = 17, u_5 = 305: with x = 2, x^2 - u_1 = 3, and with
    # x = 5, x^2 - u_3 = 8 = 2^3 and x^2 - u_5 = -280 is no prime power
    spec = LucasSpec(4)
    odd = ResidueClass(1, 2)
    assert prime_power_hits(spec, 2, [(3, odd)], n_max=10, b_max=5) == [(1, 3)]
    assert prime_power_hits(spec, 5, [(2, odd)], n_max=10, b_max=5) == [(3, 2)]
    assert prime_power_hits(spec, 5, [(2, odd)], n_max=10, b_max=2) == []
    assert prime_power_hits(spec, 5, [(2, ResidueClass(0, 2))], n_max=10, b_max=5) == []
    assert prime_power_hits(spec, 5, [(2, odd)], n_max=2, b_max=5) == []
    # b = 0: x^2 - u_n = +-1 at x = 1, u_0 = 0 and x = 0, u_1 = 1
    assert prime_power_hits(spec, 1, [(7, ResidueClass(0, 3))], n_max=9, b_max=0) == [(0, 7)]
    assert prime_power_hits(spec, 0, [(7, ResidueClass(4, 3))], n_max=9, b_max=0) == [(1, 7)]
    # d = x^2 - u_n taken from u_terms: the hit shows at n and not at n + 1
    for n in (0, 7, 100, 2000):
        u_n = next(itertools.islice(u_terms(spec), n, None))
        x = math.isqrt(u_n) + 1
        d = x * x - u_n
        assert prime_power_hits(spec, x, [(d, ResidueClass(n, 2001))],
                                n_max=2000, b_max=1) == [(n, d)]
        assert prime_power_hits(spec, x, [(d, ResidueClass(n + 1, 2002))],
                                n_max=2001, b_max=1) == []


def test_erdos_witness_primes_have_exact_order():
    for n, p in ERDOS_WITNESS_PRIMES.items():
        assert pow(2, n, p) == 1
        assert all(pow(2, d, p) != 1 for d in range(1, n))
    assert erdos_witness_primes(erdos_cover()) == [3, 7, 5, 17, 13, 241]
    with pytest.raises(ValueError, match=r"moduli \[5, 7\]"):
        erdos_witness_primes(CoveringSystem([ResidueClass(0, 7), ResidueClass(0, 5),
                                             ResidueClass(0, 2)]))


def test_build_two_prime_class_validation():
    data = two_prime_data()
    data.primes = data.primes[:-1]
    with pytest.raises(ValueError):
        build_two_prime_class(data)
    data = two_prime_data()
    data.residues[3] = ResidueClass(1, 7)
    with pytest.raises(ValueError, match="modulus"):
        build_two_prime_class(data)


def test_build_two_prime_class_reports_mismatch():
    data = two_prime_data()
    data.expected_a += 1
    _, checks = build_two_prime_class(data)
    assert [c.name for c in checks if not c.ok] == ["a-digit-exact"]


def test_companion_discovery_for_7():
    # the prime of order 49 = 7^2 comes from actually factoring 2^49 - 1
    f = factor(2**49 - 1)
    assert f.complete and dict(f.factors) == {127: 1, 4432676798593: 1}
    witnesses, complete = find_primitive_divisors(49)
    assert complete and [w.p for w in witnesses] == [4432676798593]
    q = witnesses[0].p
    assert is_probable_prime(q)
    assert pow(2, 49, q) == 1 and pow(2, 7, q) != 1   # order exactly 49 = 7^2
