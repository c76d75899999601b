import math
import random

import pytest

from coverlab import arith
from coverlab.arith import (FactorBudget, Factorization, crt_combine, factor,
                            is_probable_prime, jacobi, order_dividing,
                            prime_divisors)
from coverlab.covers import ResidueClass


def test_order_dividing_examples():
    assert order_dividing(2, 31, 5) == 5
    assert order_dividing(2, 19, 18) == 18
    assert order_dividing(2, 7, 6) == 3


def test_order_dividing_contract():
    with pytest.raises(ValueError):
        order_dividing(6, 9, 4)
    with pytest.raises(ValueError):
        order_dividing(2, 1, 4)
    # a^n != 1 reports None rather than raising
    assert order_dividing(2, 9, 5) is None


def test_prime_divisors(monkeypatch):
    assert prime_divisors(1) == []
    assert prime_divisors(1755) == [3, 5, 13]
    assert prime_divisors(2**20) == [2]
    # an exponent factor() gives up on must raise, not yield a partial list
    monkeypatch.setattr(arith, "factor",
                        lambda n: Factorization.of_known({3: 1}, cofactor=n // 3))
    with pytest.raises(ValueError, match="could not fully factor exponent 1755"):
        prime_divisors(1755)


def test_order_dividing_property():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randrange(3, 500)
        a = rng.randrange(2, m)
        if math.gcd(a, m) != 1:
            continue
        n = 1
        x = a % m
        while x != 1:
            x = x * a % m
            n += 1
        d = order_dividing(a, m, n)
        assert d == n
        assert pow(a, d, m) == 1
        for ell in set(factor(d).primes()):
            assert pow(a, d // ell, m) != 1


def test_order_dividing_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m + 1)
        if math.gcd(a, m) != 1:
            continue
        order = int(sympy.n_order(a, m))
        assert order_dividing(a, m, order * rng.randrange(1, 60)) == order
        n = rng.randrange(1, 10**4)
        assert order_dividing(a, m, n) == (order if n % order == 0 else None)


def test_crt_combine_examples():
    got = crt_combine([ResidueClass(1, 2), ResidueClass(2, 19), ResidueClass(14, 31)])
    # oracle: the unique solution in one period, by linear scan
    expected = [x for x in range(2 * 19 * 31)
                if x % 2 == 1 and x % 19 == 2 and x % 31 == 14]
    assert expected == [1161]
    assert got == ResidueClass(1161, 1178)
    assert crt_combine([ResidueClass(0, 3), ResidueClass(0, 3)]) == ResidueClass(0, 3)
    assert crt_combine([]) == ResidueClass(0, 1)


def test_crt_combine_noncoprime_and_conflict():
    assert crt_combine([ResidueClass(1, 4), ResidueClass(3, 6)]) == ResidueClass(9, 12)
    with pytest.raises(ValueError, match=r"0\(4\).*2\(4\)|2\(4\).*0\(4\)"):
        crt_combine([ResidueClass(0, 4), ResidueClass(2, 4)])
    with pytest.raises(ValueError, match="inconsistent"):
        crt_combine([ResidueClass(0, 2), ResidueClass(1, 4)])


def test_crt_combine_names_nonadjacent_conflict():
    classes = [ResidueClass(0, 2), ResidueClass(1, 3), ResidueClass(3, 4)]
    with pytest.raises(ValueError, match=r"0\(2\) and 3\(4\)"):
        crt_combine(classes)


def test_crt_combine_random_consistent():
    rng = random.Random(7)
    for _ in range(300):
        moduli = [rng.randrange(1, 60) for _ in range(rng.randrange(1, 6))]
        x = rng.randrange(0, 10**6)
        classes = [ResidueClass(x % n, n) for n in moduli]
        combined = crt_combine(classes)
        assert combined.n == math.lcm(*moduli)
        for c in classes:
            assert combined.a % c.n == c.a


SIEVE_LIMIT = 20000


def sieve_primes(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit) if flags[i]]


def test_is_probable_prime_small_agreement():
    primes = set(sieve_primes(SIEVE_LIMIT))
    for n in range(SIEVE_LIMIT):
        assert is_probable_prime(n) == (n in primes), n


def test_is_probable_prime_examples():
    assert is_probable_prime(5779)
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    # digit sum 27, so divisible by 9; trial division as the oracle
    assert 196911 % 3 == 0
    assert not is_probable_prime(196911)


def test_is_probable_prime_notorious_composites():
    assert not is_probable_prime(561)            # Carmichael
    assert not is_probable_prime(3215031751)     # strong pseudoprime to 2,3,5,7
    assert not is_probable_prime((1 << 128) - 1)
    assert not is_probable_prime((2**127 - 1) * (2**89 - 1))


def test_is_probable_prime_large_primes():
    assert is_probable_prime(2**127 - 1)
    assert is_probable_prime(2**521 - 1)
    assert is_probable_prime(2**521 - 1, rounds=64)


def test_factor_examples():
    f = factor(2**24 - 1)
    assert f.complete
    assert dict(f.factors) == {3: 2, 5: 1, 7: 1, 13: 1, 17: 1, 241: 1}
    # every prime of the classical exponent-cover list shows up
    for p in (3, 7, 5, 17, 13, 241):
        assert p in f.primes()
    assert dict(factor(63).factors) == {3: 2, 7: 1}
    f49 = factor(2**49 - 1)
    assert f49.complete
    assert dict(f49.factors) == {127: 1, 4432676798593: 1}
    assert is_probable_prime(4432676798593)


def test_factor_rho_splits_beyond_trial_range():
    p, q = 1000003, 1000033        # both just above the default trial bound
    f = factor(p * q)
    assert f.complete
    assert dict(f.factors) == {p: 1, q: 1}


def test_factor_budget_exhaustion_is_a_state():
    semiprime = (2**127 - 1) * (2**89 - 1)
    f = factor(semiprime, FactorBudget(trial_bound=100, rho_iterations=10,
                                       rho_attempts=1))
    assert not f.complete
    assert math.prod(p**e for p, e in f.factors) * f.cofactor == semiprime
    assert not is_probable_prime(f.cofactor)


def test_factor_reassembly_exhaustive():
    # spot the full range once; product reassembly must be exact
    for n in range(1, 10**6 + 1):
        f = factor(n)
        assert f.complete
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == n


def test_factor_reassembly_random_64bit():
    rng = random.Random(64)
    for _ in range(1000):
        n = rng.getrandbits(64) + 1
        f = factor(n)
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == n
        for p, _ in f.factors:
            assert is_probable_prime(p)


def test_jacobi_examples():
    assert jacobi(-2, 71) == -1
    for n in (3, 9, 15, 21, 675675):
        assert jacobi(1, n) == 1
    assert jacobi(2, 17) == 1
    assert pow(6, 2, 17) == 2      # 2 really is a square mod 17
    with pytest.raises(ValueError):
        jacobi(5, 8)
    with pytest.raises(ValueError):
        jacobi(5, 1)


def test_jacobi_euler_criterion():
    for p in sieve_primes(1000):
        if p == 2:
            continue
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicativity():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 500) * 2 + 1
        if n < 3:
            continue
        a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
