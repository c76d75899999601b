import math
import random

import pytest

from coverlab.arith import FactorBudget, factor, is_probable_prime
from coverlab.assets import erdos_cover, generalized_demo, two_prime_data
from coverlab.construct import (ERDOS_WITNESS_PRIMES, GeneralizedErdosClass,
                                GeneralizedErdosInstance, MissingCompanionError,
                                build_erdos_class, build_generalized_erdos,
                                build_two_prime_class,
                                check_divisibility_mechanics,
                                erdos_witness_primes,
                                pow_root_mod_prime_power, solve_b)
from coverlab.covers import CoveringSystem, ResidueClass
from coverlab.lucas import LucasSpec, u_term_mod
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
    report = check_divisibility_mechanics(cls, cover, primes, n_range=range(0, 2001))
    assert report.checked == 2001
    assert report.all_ok
    # independent spot check: the witness really divides x - 2^n
    for n in (0, 1, 17, 100, 1999):
        assert any((cls.a - 2**n) % p == 0 for p in primes)


def test_mechanics_flags_uncovered():
    cls = build_erdos_class(erdos_cover())
    cover = CoveringSystem([ResidueClass(0, 2)])       # evens only
    report = check_divisibility_mechanics(cls, cover, [3], n_range=range(0, 10))
    bad = [row for row in report.failures if row.note == "not covered by any class"]
    assert [row.n for row in bad] == [1, 3, 5, 7, 9]


def test_solve_b_examples():
    assert solve_b(1, 17, 5) == 2
    assert solve_b(5, 1, 9) == 2
    assert solve_b(5, 0, 3) == 0
    with pytest.raises(ValueError):
        solve_b(6, 1, 9)
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 200)
        m0 = rng.randrange(1, 200)
        if math.gcd(m0, n) != 1:
            continue
        a = rng.randrange(0, 500)
        b = solve_b(m0, a, n)
        assert 0 <= b < max(n, 1)
        assert (m0 * b - a) % n == 0


def test_pow_root_examples():
    r = pow_root_mod_prime_power(2, 2, 7, 1)
    assert r in (3, 4)
    assert r * r % 7 == 2

    for a in (5, 123, 2):
        assert pow_root_mod_prime_power(1, a, 17, 3) == a % 17**3

    x = pow_root_mod_prime_power(2, 2, 17, 3)
    assert pow(x, 2, 17**3) == 2
    assert 6 * 6 % 17 == 2     # a square root of 2 mod 17 exists, so mod 17^3 too


def test_pow_root_unsolvable():
    # 3 is a quadratic nonresidue mod 7
    with pytest.raises(ValueError, match="solvability"):
        pow_root_mod_prime_power(2, 3, 7, 1)
    with pytest.raises(ValueError):
        pow_root_mod_prime_power(3, 2, 7, 1)    # degree not a power of two
    with pytest.raises(ValueError):
        pow_root_mod_prime_power(2, 14, 7, 2)   # base not a unit


def test_pow_root_random_repowering():
    rng = random.Random(4096)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 97, 113, 241, 257, 3511]
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
        assert pow(x, k, pe) == a, (k, a, p, e)


def test_pow_root_property():
    # the solver has no search fallback: the one Tonelli-Shanks pass mod p^e
    # alone must solve every solvable instance
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    primes = [p for p in range(3, 10**4, 2) if is_probable_prime(p)]

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(st.sampled_from(primes), st.integers(1, 3),
                      st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 10**12))
    def check(p, e, k, z):
        pe = p**e
        x = z % pe
        if x % p == 0:
            x += 1
        a = pow(x, k, pe)
        root = pow_root_mod_prime_power(k, a, p, e)
        assert pow(root, k, pe) == a

    check()


def test_pow_root_odd_order_path():
    # the order of 2 mod 7^3 is odd, so the root is a plain power of 2
    x = pow_root_mod_prime_power(4, 2, 7, 3)
    assert pow(x, 4, 343) == 2


def test_pow_root_exhaustive_equivalence():
    # oracle: Euler's criterion decides solvability for every unit base
    for p in (3, 5, 7, 13, 17):
        for e in (1, 2):
            pe = p**e
            phi = pe // p * (p - 1)
            for k in (1, 2, 4, 8):
                g = math.gcd(k, phi)
                for a in range(1, pe):
                    if a % p == 0:
                        continue
                    if pow(a, phi // g, pe) == 1:
                        x = pow_root_mod_prime_power(k, a, p, e)
                        assert pow(x, k, pe) == a, (k, a, p, e)
                    else:
                        with pytest.raises(ValueError):
                            pow_root_mod_prime_power(k, a, p, e)


def test_pow_root_deep_two_sylow():
    # p - 1 = 2^16 and 2^23 * 119: the 2-part of the group order far exceeds
    # the degree, so the discrete log runs over many bits
    rng = random.Random(65537)
    for p in (65537, 998244353):
        for e in (1, 2):
            pe = p**e
            phi = pe // p * (p - 1)
            for k in (1, 2, 4, 8, 16, 32, 64):
                g = math.gcd(k, phi)
                for i in range(40):
                    a = rng.randrange(1, pe)
                    while a % p == 0:
                        a = rng.randrange(1, pe)
                    if i % 2:
                        a = pow(a, k, pe)       # half the bases are k-th powers
                    if pow(a, phi // g, pe) == 1:
                        x = pow_root_mod_prime_power(k, a, p, e)
                        assert pow(x, k, pe) == a, (k, a, p, e)
                    else:
                        with pytest.raises(ValueError, match="solvability"):
                            pow_root_mod_prime_power(k, a, p, e)


def test_build_two_prime_class_golden():
    data = two_prime_data()
    combined, report = build_two_prime_class(data)
    assert report.passed, report.failures()
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
    _, report = build_two_prime_class(two_prime_data())
    rows = {c.name: c for c in report.checks}
    assert len(report.checks) == 56
    assert rows["odd-cover"].ok and rows["odd-cover"].detail == "lcm 315"
    assert rows["doubled-cover"].ok and rows["doubled-cover"].detail == "lcm 630"
    periods = [c for c in report.checks if c.name.startswith("period t=")]
    assert [c.name for c in periods] == [f"period t={t}" for t in range(25)]
    assert all(c.ok for c in periods)
    assert periods[0].detail == "u_n mod 2 has period 2, modulus 2"
    assert periods[24].detail == "u_n mod 17011 has period 630, modulus 630"


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
    _, report = build_two_prime_class(data)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["a-digit-exact"]


def test_companion_discovery_for_7():
    # the companion for 7 comes from actually factoring 2^49 - 1
    f = factor(2**49 - 1)
    assert f.complete and dict(f.factors) == {127: 1, 4432676798593: 1}
    witnesses, complete = find_primitive_divisors(49)
    assert complete and [w.p for w in witnesses] == [4432676798593]
    q = witnesses[0].p
    assert is_probable_prime(q)
    assert pow(2, 49, q) == 1 and pow(2, 7, q) != 1   # order exactly 49 = 7^2


def test_generalized_single_class_alpha0():
    instance = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=2, p=3, q=73)], m=1, bound=1)
    cls = build_generalized_erdos(instance)
    # L = 5 is the least with 2^L - 1 > max(16, 3^2)
    assert cls.n == 2**10 * 27 * 73
    assert cls.a % 2**10 == (1 + 3 * 2**5) % 2**10
    assert cls.a % 27 == 1      # x = 2^b with b = 0
    assert cls.a % 73 == 1


def test_generalized_power_two_instance():
    # m = 2 exercises the even-power path against the 7 / 4432676798593 pair
    instance = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=1, n=3, p=7, q=4432676798593)],
        m=2, bound=2)
    cls = build_generalized_erdos(instance)
    assert cls.a % 2 == 1
    assert pow(cls.a, 2, 7) == 2 % 7          # x^2 = 2^(b=1) mod 7
    assert pow(cls.a, 2, 343) == 2
    assert pow(cls.a, 2, 4432676798593) == 2
    # members' squares minus 2^n vanish mod 7 along the covered progression
    for n in (1, 4, 7, 10):
        assert (pow(cls.a, 2, 7) - pow(2, n, 7)) % 7 == 0


def test_generalized_missing_companion():
    instance = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=2, p=3, q=None),
                 GeneralizedErdosClass(a=0, n=3, p=7, q=None)],
        m=1, bound=1)
    with pytest.raises(MissingCompanionError) as err:
        build_generalized_erdos(instance)
    assert err.value.missing == [3, 7]


def test_generalized_validation():
    bad_prime = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=6, p=7, q=73)], m=1, bound=1)
    with pytest.raises(ValueError, match="primitive"):
        build_generalized_erdos(bad_prime)
    shared_factor = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=2, p=3, q=73)], m=2, bound=2)
    with pytest.raises(ValueError, match="shares a factor"):
        build_generalized_erdos(shared_factor)
    bad_companion = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=2, p=3, q=127)], m=1, bound=1)
    with pytest.raises(ValueError, match="does not divide"):
        build_generalized_erdos(bad_companion)
    untied = GeneralizedErdosInstance(
        classes=[GeneralizedErdosClass(a=0, n=2, p=3, q=3)], m=1, bound=1)
    with pytest.raises(ValueError, match="not tied"):
        build_generalized_erdos(untied)


def test_generalized_demo_asset_matches_erdos():
    """The shipped m=1 instance degenerates to the classical congruences."""
    instance = generalized_demo()
    erdos = build_erdos_class(erdos_cover())
    cls = build_generalized_erdos(instance)
    assert cls.a % 2 == erdos.a % 2 == 1
    for p in ERDOS_WITNESS_PRIMES.values():
        assert cls.a % p == erdos.a % p


def test_demo_companions_are_as_documented():
    """Five companions have order p^2; the one for 241 has order 241."""
    instance = generalized_demo()
    by_p = {c.p: c.q for c in instance.classes}
    for p, q in by_p.items():
        assert is_probable_prime(q)
    for p in (3, 5, 7, 13, 17):
        q = by_p[p]
        assert pow(2, p * p, q) == 1 and pow(2, p, q) != 1
    q241 = by_p[241]
    assert q241 == 22000409
    assert pow(2, 241, q241) == 1     # order is exactly the prime 241
    # and the library's own scan can rediscover it from the primitive part
    witnesses, _ = find_primitive_divisors(
        241, budget=FactorBudget(trial_bound=10**4, rho_iterations=0,
                                 rho_attempts=0),
        candidate_bound=50_000)
    assert 22000409 in [w.p for w in witnesses]
