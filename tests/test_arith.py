import math
import random

import pytest

from coverlab import arith
from coverlab.arith import (FactorBudget, Factorization, crt_combine, factor,
                            is_probable_prime, order_dividing, prime_divisors)
from coverlab.covers import ResidueClass
from coverlab.mersenne import cyclotomic_mersenne


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
    assert is_probable_prime(2**607 - 1)


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
    # 4099 and 4111 are the first primes above the default trial bound 4096
    for p, q in ((4099, 4111), (1000003, 1000033)):
        f = factor(p * q)
        assert f.complete
        assert dict(f.factors) == {p: 1, q: 1}


def test_factor_matches_sympy_at_the_trial_bound():
    sympy = pytest.importorskip("sympy")
    # p and q are the first primes above the bound: trial division misses
    # them, so the remainder must not be taken for prime unchecked
    for bound in (0, 1, 2, 3, 10, 4096, 10**5):
        p = sympy.nextprime(bound)
        q = sympy.nextprime(p)
        for n in (p * p, p * q, p**3, 2 * p * q, p):
            f = factor(n, FactorBudget(trial_bound=bound))
            assert f.complete and dict(f.factors) == sympy.factorint(n), (bound, n)


def test_factor_matches_sympy_random_128bit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(128)
    for _ in range(300):
        # a few primes below 2^20 (rho's reach) times one up to 2^64
        n = sympy.randprime(2, 2**rng.randrange(2, 65))
        while n.bit_length() < 108 and rng.random() < 0.8:
            n *= sympy.randprime(2, 2**rng.randrange(2, 21))
        f = factor(n)
        assert f.complete and dict(f.factors) == sympy.factorint(n), n
    # uniform draws under a starved rho: whatever is listed is exact
    budget = FactorBudget(rho_iterations=2000, rho_attempts=2)
    for _ in range(300):
        n = rng.getrandbits(rng.randrange(1, 129)) + 1
        f = factor(n, budget)
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == n
        for p, e in f.factors:
            assert sympy.isprime(p) and (n // p**e) % p != 0, (n, p)
            assert f.cofactor % p != 0, (n, p)
        assert f.cofactor == 1 or not sympy.isprime(f.cofactor), n


def test_factor_step_never_changes_the_result():
    # a step that the primes do not satisfy only changes the rho walk
    rng = random.Random(50)
    for _ in range(200):
        m = rng.randrange(1, 2**50)
        expected = factor(m)
        for s in (4, 6, 10, 202):
            assert factor(m, None, s) == expected, (m, s)


def test_factor_step_with_a_prime_off_the_progression():
    # 11 divides Phi_110(2) but is not = 1 (mod 110); with trial division
    # stopping at 10 it reaches rho, which must still split it out
    value = cyclotomic_mersenne(110)
    budget = FactorBudget(trial_bound=10)
    f = factor(value, budget, step=110)
    assert f.complete and 11 in f.primes()
    assert f == factor(value, budget)


def test_factor_step_walk_has_no_dead_attempts():
    # 2^67 - 1 = 193707721 * 761838257287, both = 1 (mod 134).  From y = 2
    # the walk y^134 + 1 would stay on 2, since 2^134 = 1; the walk starts
    # at 3, so the first attempt alone splits it
    m = 2**67 - 1
    f = factor(m, FactorBudget(rho_attempts=1), step=134)
    assert f.complete and dict(f.factors) == {193707721: 1, 761838257287: 1}


def test_factor_step_budget_counts_squarings():
    # a cofactor of Phi_125(2), both primes = 1 (mod 250).  An x^250 + c
    # step is charged 7 squarings: attempt c = 5 splits after 7,366 steps,
    # 51,562 squarings.  Budgets below P-1's cost leave the split to rho
    pq = 269089806001 * 4710883168879506001
    for budget in (10_000, 50_000):
        assert not factor(pq, FactorBudget(rho_iterations=budget), step=250).complete
    assert factor(pq, FactorBudget(rho_iterations=60_000), step=250).complete


def test_rho_attempt_overruns_its_budget_by_at_most_one_batch(monkeypatch):
    # count the x^250 + c steps of one attempt on the Phi_125(2) cofactor;
    # a step is charged 7 squarings, and attempt c = 1 splits after 99,326
    pq = 269089806001 * 4710883168879506001
    steps = 0

    def counting_pow(base, e, m=None):
        nonlocal steps
        if e == 250 and m == pq:
            steps += 1
        return pow(base, e, m)

    monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
    for budget in (7, 1000, 9_999, 100_000, 200_001, 695_282):
        steps = 0
        d = arith._rho_split(pq, FactorBudget(rho_iterations=budget, rho_attempts=1), 250)
        limit = budget // 7
        assert steps <= limit + 128, (budget, steps)
        if d is None:
            assert steps == limit, (budget, steps)   # the whole budget, no more
        else:
            assert d == 269089806001 and limit >= 99_326 - 128, (budget, steps)


def test_pm1_splits_the_phi_101_cofactor():
    # 2^101 - 1 = 7432339208719 * 341117531003194129, both = 1 (mod 202);
    # (7432339208719 - 1)/202 = 3 * 44029 * 278557 needs stage 2
    p, q = 7432339208719, 341117531003194129
    assert p * q == 2**101 - 1
    assert arith._pm1_split(p * q, 202) in (p, q)


def test_pm1_puts_the_step_into_its_exponent():
    # s = 2 * 1049603, a prime above B2 = 2^20.  p - 1 = s * 2 * 3 * 5 * 7 * 11
    # is found only through the known factor s; (q - 1)/s = 2 * 3 * 2106173
    # is out of reach
    s, p, q = 2 * 1049603, 4849165861, 26527745991829
    assert is_probable_prime(p) and is_probable_prime(q)
    assert (p - 1) // s == 2 * 3 * 5 * 7 * 11 and (q - 1) // s == 2 * 3 * 2106173
    assert arith._pm1_split(p * q, s) == p


def test_pm1_splits_2_67_minus_1():
    # 2^67 - 1 = 193707721 * 761838257287.  (p - 1)/134 is 2^2 * 3^3 * 5 * 2677
    # and 3^2 * 29 * 2551 * 8539: stage 1 finds 193707721 in the block of
    # (2048, 4096], two blocks before 761838257287 joins at 8539
    assert arith._pm1_split(2**67 - 1, 134) == 193707721


def test_pm1_replays_a_block_whose_gcd_is_n():
    # (p - 1)/134 = 3^4 * 7 * 13 * 17 * 65519 and (q - 1)/134 = 2^10 * 3 * 41 * 65521:
    # both primes enter in the last block, (2^15, 2^16], so its gcd is the
    # whole number.  Replayed one prime power at a time, the block finds p at
    # 65519, before q joins at 65521
    s, p, q = 134, 1100138570623, 1105835132929
    assert (p - 1) // s == 3**4 * 7 * 13 * 17 * 65519
    assert (q - 1) // s == 2**10 * 3 * 41 * 65521
    assert pow(3, (p - 1) // 65519, p) != 1 and pow(3, (q - 1) // 65521, q) != 1
    assert arith._pm1_split(p * q, s) == p


def test_factor_falls_back_to_rho_when_pm1_finds_every_prime(monkeypatch):
    # (p - 1)/134 = 2^10 * 3 * 41 * 65521 and (q - 1)/134 = 2^4 * 7^3 * 23 * 65521.
    # Neither 3^((p - 1)/65521) nor 3^((q - 1)/65521) is 1, so both primes
    # enter at 65521, the last prime power of stage 1: its gcd is the whole
    # number, and rho splits it
    s, r, p, q = 134, 65521, 1105835132929, 1108223242337
    assert (p - 1) // s == 2**10 * 3 * 41 * r and (q - 1) // s == 2**4 * 7**3 * 23 * r
    assert pow(3, (p - 1) // r, p) != 1 and pow(3, (q - 1) // r, q) != 1
    assert arith._pm1_split(p * q, s) is None
    rho_calls = 0
    rho_split = arith._rho_split

    def counting_rho(*args):
        nonlocal rho_calls
        rho_calls += 1
        return rho_split(*args)

    monkeypatch.setattr(arith, "_rho_split", counting_rho)
    f = factor(p * q, step=s)
    assert f.complete and dict(f.factors) == {p: 1, q: 1}
    assert rho_calls == 1


def test_pm1_splits_the_cofactors_where_stage_1_used_to_find_every_prime():
    # the cofactors of Phi_n(2) left after the progression prescan and trial
    # division; all of stage 1 at once found both primes of each
    sympy = pytest.importorskip("sympy")
    cofactors = {
        67: 147573952589676412927,
        71: 10334355636337793,
        91: 2612585917490982161,
        111: 8388782398254169,
        116: 57646075230342349,
        119: 8257410955834335790279,
    }
    for n, c in cofactors.items():
        step = 2 * n if n % 2 else n
        assert cyclotomic_mersenne(n) % c == 0
        d = arith._pm1_split(c, step)
        assert d is not None and 1 < d < c and c % d == 0, n
        assert dict(factor(c, step=step).factors) == sympy.factorint(c), n


def test_pm1_matches_sympy_on_semiprimes_of_the_progression():
    sympy = pytest.importorskip("sympy")
    b1, b2 = arith._PM1_B1, arith._PM1_B2
    powers = {}                          # stage 1's prime powers, in order
    for q in sympy.primerange(2, b1 + 1):
        power = q
        while power * q <= b1:
            power *= q
        powers[q] = power
    position = {q: i for i, q in enumerate(powers)}
    exponent = math.prod(powers.values())

    def entry(p, s):
        # (1, i) when stage 1 of P-1 at step s finds the prime p at the i-th
        # prime power, (2, j) when stage 2 finds it in its j-th sieve
        # segment, None when neither does.  P-1 returns the prime with the
        # earlier entry, and None when both enter together or not at all
        order = sympy.n_order(pow(3, s, p), p)
        primes = sympy.factorint(order)
        if all(ell <= b1 and ell**k <= powers[ell] for ell, k in primes.items()):
            return 1, max((position[ell] for ell in primes), default=0)
        rest = order // math.gcd(order, exponent)
        if b1 < rest <= b2 and sympy.isprime(rest):
            return 2, (rest - b1 - 1) // (2 * arith._SIEVE_SEGMENT)
        return None

    def progression_prime(s, k, r=1):
        # the least prime s * r * k' + 1 with k' >= k
        while not sympy.isprime(s * r * k + 1):
            k += 1
        return s * r * k + 1

    def planted_prime(s, r, rng):
        # a prime that stage 1 finds at the prime power of r
        while True:
            p = progression_prime(s, rng.randrange(2**39 // (s * r), 2**40 // (s * r)), r)
            if entry(p, s) == (1, position[r]):
                return p

    rng = random.Random(40)
    seen = {1: 0, 2: 0, None: 0}
    for s in (6, 134, 250):
        pairs = []
        for _ in range(4):
            p = progression_prime(s, rng.randrange(2**39 // s, 2**40 // s))
            q = p
            while q == p:
                q = progression_prime(s, rng.randrange(2**39 // s, 2**40 // s))
            pairs.append((p, q))
        # planted pairs in the last block, (2^15, 2^16]: one that enters
        # together at 65521, the last prime power, and one that enters at
        # 65519 and 65521, so that the block's gcd is n and its replay splits
        for r1, r2 in ((65521, 65521), (65519, 65521)):
            p = planted_prime(s, r1, rng)
            q = p
            while q == p:
                q = planted_prime(s, r2, rng)
            pairs.append((p, q))
        for p, q in pairs:
            ep, eq = entry(p, s), entry(q, s)
            if ep == eq:
                expected = None
            elif eq is None or (ep is not None and ep < eq):
                expected = p
            else:
                expected = q
            assert arith._pm1_split(p * q, s) == expected, (p, q, s, ep, eq)
            seen[None if expected is None else min(filter(None, (ep, eq)))[0]] += 1
            f = factor(p * q, step=s)
            # p and q passed sympy.isprime, so this is sympy.factorint(p * q)
            assert f.complete and dict(f.factors) == {p: 1, q: 1}, (p, q, s)
    assert all(seen.values()), seen


def test_factor_rejects_step_below_2():
    with pytest.raises(ValueError, match="step >= 2"):
        factor(15, None, 1)


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

