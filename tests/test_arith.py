import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from coverlab import arith
from coverlab.arith import (Factorization, crt_combine, factor,
                            is_probable_prime, order_dividing, prime_divisors)
from coverlab.covers import ResidueClass
from coverlab.mersenne import cyclotomic_mersenne, find_primitive_divisors


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
                        lambda n: Factorization(((3, 1),), n // 3))
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
        for ell in [p for p, _ in factor(d).factors]:
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


# psi_1..psi_11 (OEIS A014233), the least strong pseudoprime to the first k
# primes; psi_9 = psi_10 = psi_11 is below 2^64.  psi_12 and psi_13 lie above.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_is_probable_prime_notorious_composites():
    assert not is_probable_prime(561)            # Carmichael
    assert not is_probable_prime((1 << 128) - 1)
    assert not is_probable_prime((2**127 - 1) * (2**89 - 1))
    for n in sorted(set(PSI)) + [PSI_12, PSI_13]:
        assert not is_probable_prime(n), n


def test_is_probable_prime_large_primes():
    assert is_probable_prime(2**127 - 1)
    assert is_probable_prime(2**521 - 1)
    assert is_probable_prime(2**607 - 1)


def test_is_probable_prime_near_psi_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for psi in sorted(set(PSI)):
        for n in range(psi - 10**4, psi + 10**4 + 1):
            assert is_probable_prime(n) == sympy.isprime(n), n


def test_is_probable_prime_log_uniform_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2047)
    for _ in range(10**5):
        bits = rng.randint(2, 64)
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        assert is_probable_prime(n) == sympy.isprime(n), n


def spy_on_pow(monkeypatch) -> list[int]:
    """Record the base of every pow() that arith calls from now on."""
    bases: list[int] = []

    def counted(a, *args):
        bases.append(a)
        return pow(a, *args)

    monkeypatch.setattr(arith, "pow", counted, raising=False)
    return bases


def test_is_probable_prime_bases_at_and_above_2_64(monkeypatch):
    n = 2**127 - 1
    rng = random.Random(n)
    expected = list(SMALL_PRIMES) + [rng.randrange(2, n - 1) for _ in range(28)]
    bases = spy_on_pow(monkeypatch)
    assert is_probable_prime(n)
    assert bases == expected


def test_is_probable_prime_draws_bases_only_after_the_fixed_ones_pass(monkeypatch):
    # base 2 rejects (2^127 - 1)(2^89 - 1), so no RNG is made; psi_12 passes
    # the 12 fixed bases and a drawn one rejects it; 2^127 - 1 passes all 40
    seeds = []
    rng_class = random.Random

    def counted(seed):
        seeds.append(seed)
        return rng_class(seed)

    monkeypatch.setattr(arith.random, "Random", counted)
    bases = spy_on_pow(monkeypatch)
    assert not is_probable_prime((2**127 - 1) * (2**89 - 1))
    assert bases == [2] and seeds == []
    assert not is_probable_prime(PSI_12)
    assert seeds == [PSI_12]
    assert is_probable_prime(2**127 - 1)
    assert seeds == [PSI_12, 2**127 - 1]


def test_is_probable_prime_takes_k_bases_below_psi_k(monkeypatch):
    bases = spy_on_pow(monkeypatch)
    # the largest prime below each distinct psi_k, and below 2^64
    for p, k in [(2039, 1), (1373639, 2), (25325981, 3), (3215031749, 4),
                 (2152302898729, 5), (3474749660329, 6), (341550071728289, 7),
                 (3825123056546412979, 9), (2**64 - 59, 12)]:
        assert k == 1 + sum(psi <= p for psi in PSI) and p < 2**64
        bases.clear()
        assert is_probable_prime(p), p
        assert bases == list(SMALL_PRIMES[:k]), p


def test_factor_examples():
    f = factor(2**24 - 1)
    assert f.complete
    assert dict(f.factors) == {3: 2, 5: 1, 7: 1, 13: 1, 17: 1, 241: 1}
    # every prime of the classical exponent-cover list shows up
    for p in (3, 7, 5, 17, 13, 241):
        assert p in [q for q, _ in f.factors]
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
    # p and q are the first primes above the trial bound 4096: trial
    # division misses them, so the remainder must not be taken for prime
    # unchecked.  4091 and 4093 are the last primes it divides out; their
    # product is below 4097^2, so a loop stopping short would keep it whole
    p = sympy.nextprime(arith._TRIAL_BOUND)
    q = sympy.nextprime(p)
    for n in (p * p, p * q, p**3, 2 * p * q, p, 4093 * p * q, 4093**2 * p**2, 4091 * 4093):
        f = factor(n)
        assert f.complete and dict(f.factors) == sympy.factorint(n), n


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
    for _ in range(300):
        n = rng.getrandbits(rng.randrange(1, 129)) + 1
        f = factor(n, rho_iterations=2000)
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == n
        for p, e in f.factors:
            assert sympy.isprime(p) and (n // p**e) % p != 0, (n, p)
            assert f.cofactor % p != 0, (n, p)
        assert f.cofactor == 1 or not sympy.isprime(f.cofactor), n


def test_factor_step_never_changes_the_result():
    # a step that the primes do not satisfy only changes what P-1 tries
    rng = random.Random(50)
    for _ in range(200):
        m = rng.randrange(1, 2**50)
        expected = factor(m)
        for s in (4, 6, 10, 202):
            assert factor(m, step=s) == expected, (m, s)


def test_factor_step_with_a_prime_off_the_progression():
    # neither prime is = 1 (mod 110), and each p - 1 is 2 times a prime
    # above 2^20, so P-1 at step 110 splits nothing; rho must still split them
    p, q = 2097779, 2097983
    f = factor(p * q, step=110)
    assert f.complete and dict(f.factors) == {p: 1, q: 1}
    assert f == factor(p * q)


def test_factor_runs_pm1_only_from_its_largest_cost(monkeypatch):
    # a cofactor of Phi_125(2), both primes = 1 (mod 250).  P-1 at step 250
    # splits it; rho walks x^2 + c whatever the step, and its best attempt
    # needs 462,075 steps.  Below P-1's cost the step is not used at all
    pq = 269089806001 * 4710883168879506001
    assert factor(pq, 60_000, step=250) == factor(pq, 60_000) == Factorization((), pq)
    pm1_calls = 0
    pm1_split = arith._pm1_split

    def counting_pm1(*args):
        nonlocal pm1_calls
        pm1_calls += 1
        return pm1_split(*args)

    monkeypatch.setattr(arith, "_pm1_split", counting_pm1)
    monkeypatch.setattr(arith, "_rho_split", lambda n, limit: None)
    assert not factor(pq, arith._PM1_SQUARINGS - 1, step=250).complete
    assert pm1_calls == 0
    f = factor(pq, arith._PM1_SQUARINGS, step=250)
    assert f.complete and dict(f.factors) == {269089806001: 1, 4710883168879506001: 1}
    assert pm1_calls == 1


def _brent_reductions(steps):
    """The reductions mod n in `steps` steps of the rho walk: in each round
    r = 1, 2, 4, ... y first moves r steps past x, one reduction each, then
    r more steps each also reduce the product of the |x - y|."""
    total, r = 0, 1
    while steps:
        ahead = min(r, steps)
        batched = min(r, steps - ahead)
        total += ahead + 2 * batched
        steps -= ahead + batched
        r *= 2
    return total


def test_rho_attempt_overruns_its_budget_by_at_most_one_batch(monkeypatch):
    # count the reductions mod 2^67 - 1 = 193707721 * 761838257287 of one
    # attempt, x^2 + 1; it splits after 13,718 steps
    class Counted(int):
        reductions = 0

        def __rmod__(self, other):
            Counted.reductions += 1
            return int.__rmod__(self, other)

    monkeypatch.setattr(arith, "_RHO_ATTEMPTS", 1)
    for budget in (1, 2, 3, 1000, 13_717, 13_718, 20_001):
        Counted.reductions = 0
        d = arith._rho_split(Counted(2**67 - 1), budget)
        if d is None:   # the whole budget, no more
            assert budget < 13_718
            assert Counted.reductions == _brent_reductions(budget), budget
        else:           # at most one replayed batch more
            assert d == 193707721 and budget >= 13_718
            assert Counted.reductions <= _brent_reductions(budget) + 128, budget
    # on 1009 * 1069 both cycles close in one batch of 32 steps, so its gcd
    # is the whole number; the replay of that batch splits out 1009
    assert arith._rho_split(1009 * 1069, 10**6) == 1009


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
    # composite cofactors of Phi_n(2) whose primes are all = 1 (mod step);
    # all of stage 1 at once found both primes of each
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
    # the plans below put a split in each round and stage of this schedule
    assert arith._PM1_ROUNDS == ((2**10, 2**16), (2**16, 2**20))
    rounds = []
    for b1, b2 in arith._PM1_ROUNDS:
        powers = {}                      # stage 1's prime powers, in order
        for q in sympy.primerange(2, b1 + 1):
            power = q
            while power * q <= b1:
                power *= q
            powers[q] = power
        position = {q: i for i, q in enumerate(powers)}
        rounds.append((b1, b2, powers, position, math.prod(powers.values())))

    def entry(p, s, b1, b2, powers, position, exponent):
        # (1, i) when stage 1 of the round with bounds (b1, b2) finds the
        # prime p at the i-th prime power, (2, q) when its stage 2 finds p
        # at the prime q, None when neither does
        order = sympy.n_order(pow(3, s, p), p)
        primes = sympy.factorint(order)
        if all(ell <= b1 and ell**k <= powers[ell] for ell, k in primes.items()):
            return 1, max((position[ell] for ell in primes), default=0)
        rest = order // math.gcd(order, exponent)
        if b1 < rest <= b2 and sympy.isprime(rest):
            return 2, rest
        return None

    def outcome(p, q, s):
        # (divisor, (round, stage)), or (None, None).  A round returns the
        # prime with the earlier entry, and nothing when both enter at the
        # same prime power or prime q, or not at all; P-1 returns the first
        # round's divisor
        for number, bounds in enumerate(rounds, 1):
            ep, eq = entry(p, s, *bounds), entry(q, s, *bounds)
            if ep != eq:
                if eq is None or (ep is not None and ep < eq):
                    return p, (number, ep[0])
                return q, (number, eq[0])
        return None, None

    # planted pairs at s = 134 whose primes enter stage 2 of the first round
    # at q = 1201 and 3001, in different windows of 210; at 1201 and 1213,
    # in one window, so that its gcd is n and its replay splits; and both at
    # 1201.  All six primes enter in the first sieve segment
    first = rounds[0]
    for p, q, qp, qq in ((3638625524819, 13773981031079, 1201, 3001),
                         (3638625524819, 24974960111159, 1201, 1213),
                         (17434813375319, 11051626334663, 1201, 1201)):
        assert entry(p, 134, *first) == (2, qp) and entry(q, 134, *first) == (2, qq)
        assert arith._pm1_round(p * q, 134, *first[:2]) == (p if qp < qq else None)
        assert arith._pm1_split(p * q, 134) == outcome(p, q, 134)[0], (p, q)

    def progression_prime(s, k, r=1):
        # the least prime s * r * k' + 1 with k' >= k
        while not sympy.isprime(s * r * k + 1):
            k += 1
        return s * r * k + 1

    def random_prime(s, rng):
        return progression_prime(s, rng.randrange(2**39 // s, 2**40 // s))

    def planted_prime(s, r, rng):
        # a prime that stage 1 of the last round finds at the prime power of r
        last = rounds[-1]
        while True:
            p = progression_prime(s, rng.randrange(2**39 // (s * r), 2**40 // (s * r)), r)
            if entry(p, s, *last) == (1, last[3][r]):
                return p

    small = list(sympy.primerange(3, 1 << 10))

    def smooth_prime(s, big, rng):
        # a prime s * m + 1 of at least 40 bits, m the product of the primes
        # of `big` and of at least one of the distinct odd primes below 2^10
        while True:
            m = math.prod(big)
            for ell in rng.sample(small, len(small)):
                m *= ell
                if s * m >= 2**39:
                    break
            if sympy.isprime(s * m + 1):
                return s * m + 1

    def between(lo, hi, rng):
        return sympy.nextprime(rng.randrange(lo, hi - 200))

    # the primes of (p - 1)/s above 2^10 that put p's split in each round
    # and stage: none, one up to 2^16, two up to 2^16, one up to 2^16 and
    # one above it
    plans = {(1, 1): lambda rng: [],
             (1, 2): lambda rng: [between(2**10, 2**16, rng)],
             (2, 1): lambda rng: [between(2**10, 2**15, rng), between(2**15, 2**16, rng)],
             (2, 2): lambda rng: [between(2**10, 2**16, rng), between(2**16, 2**18, rng)]}
    rng = random.Random(40)
    seen = dict.fromkeys([*plans, None], 0)
    for s in (6, 134, 250):
        pairs = []
        for _ in range(4):
            p = random_prime(s, rng)
            q = p
            while q == p:
                q = random_prime(s, rng)
            pairs.append((p, q))
        # planted pairs in the last block of the last round, (2^15, 2^16]:
        # one that enters together at 65521, the last prime power, and one
        # that enters at 65519 and 65521, so that the block's gcd is n and
        # its replay splits
        for r1, r2 in ((65521, 65521), (65519, 65521)):
            p = planted_prime(s, r1, rng)
            q = p
            while q == p:
                q = planted_prime(s, r2, rng)
            pairs.append((p, q))
        # one pair split in each round and stage, by a planted p
        for plan, big in plans.items():
            while True:
                p, q = smooth_prime(s, big(rng), rng), random_prime(s, rng)
                if outcome(p, q, s) == (p, plan):
                    break
            pairs.append((p, q))
        for p, q in pairs:
            expected, where = outcome(p, q, s)
            assert arith._pm1_split(p * q, s) == expected, (p, q, s, where)
            seen[where] += 1
            f = factor(p * q, step=s)
            # p and q passed sympy.isprime, so this is sympy.factorint(p * q)
            assert f.complete and dict(f.factors) == {p: 1, q: 1}, (p, q, s)
    assert all(seen.values()), seen


def test_pm1_second_round_runs_only_where_the_first_splits_nothing(monkeypatch):
    # over the benchmark's sweep n = 2..136 the round with B1 = 2^16 runs
    # only for the four exponents whose cofactor the first round leaves
    # whole.  At n = 71 the primes 212885833 and 48544121 enter the first
    # round's stage 2 at q = 7349 and 17093: one sieve segment, but
    # different windows, so the first round splits it
    reached = []
    pm1_round = arith._pm1_round

    def spy(c, step, b1, b2):
        if b1 == 2**16:
            reached.append(n)
        return pm1_round(c, step, b1, b2)

    monkeypatch.setattr(arith, "_pm1_round", spy)
    for n in range(2, 137):
        find_primitive_divisors(n)
    assert reached == [101, 103, 108, 124]


# Of the 123 exponents n = 137..259, the 85 whose Phi_n(2) leaves a composite
# cofactor of at most 200 bits after trial division to 4096, and the 7 of
# those where P-1 at the step of n returns no proper divisor.  Measured with
# the single round (2^16, 2^20) that P-1 ran before it had two; a schedule
# that narrows the last round splits fewer
_PM1_REACH_EXPONENTS = 85
_PM1_REACH_MISSES = (137, 149, 185, 199, 206, 219, 256)


def test_pm1_reach_past_the_benchmark_sweep():
    trial = arith._primes_up_to(arith._TRIAL_BOUND)
    exponents, misses = 0, []
    for n in range(137, 260):
        c = cyclotomic_mersenne(n)
        for p in trial:
            while c % p == 0:
                c //= p
        if c == 1 or is_probable_prime(c) or c.bit_length() > 200:
            continue
        exponents += 1
        d = arith._pm1_split(c, 2 * n if n % 2 else n)
        if d is None:
            misses.append(n)
        else:
            assert 1 < d < c and c % d == 0, n
    assert exponents == _PM1_REACH_EXPONENTS
    assert tuple(misses) == _PM1_REACH_MISSES


def test_factor_matches_sympy_on_products_of_the_trial_primes():
    # trial division takes one gcd with the product of the primes up to
    # 4096 and divides out only the primes of that gcd.  Exponents up to 12
    # put the gcd both below 2^20, where the least-factor table splits it,
    # and above; the factor past 4096 is none, a prime just above it, its
    # square, or a 64-bit prime
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4096)
    small = list(sympy.primerange(2, arith._TRIAL_BOUND + 1))
    above = sympy.nextprime(arith._TRIAL_BOUND)
    big = sympy.nextprime(rng.getrandbits(63) | 1 << 63)
    gcds = set()
    for _ in range(400):
        primes = rng.sample(small, rng.randrange(1, 7))
        n = math.prod(p ** rng.randint(1, 12) for p in primes)
        n *= rng.choice((1, above, above**2, big))
        if n >= arith._TABLE_LIMIT:
            gcds.add(math.prod(primes) < arith._TABLE_LIMIT)
        f = factor(n)
        assert f.complete and dict(f.factors) == sympy.factorint(n), n
    assert gcds == {True, False}


def test_factor_rejects_step_below_2():
    with pytest.raises(ValueError, match="step >= 2"):
        factor(15, step=1)


def test_factor_and_the_cyclotomic_layer_refuse_0():
    for call, why in ((factor, "needs n >= 1"), (cyclotomic_mersenne, "need n >= 1"),
                      (find_primitive_divisors, "exponent must be >= 1")):
        with pytest.raises(ValueError, match=why):
            call(0)


def test_factor_budget_exhaustion_is_a_state():
    semiprime = (2**127 - 1) * (2**89 - 1)
    f = factor(semiprime, rho_iterations=10)
    assert not f.complete
    assert math.prod(p**e for p, e in f.factors) * f.cofactor == semiprime
    assert not is_probable_prime(f.cofactor)


def test_factor_reassembly_exhaustive():
    # every n up to 2^20, the least-factor table's whole range and its
    # first number above, against a plain sieve of least prime factors
    limit = 1 << 20
    least = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if least[p] == 0:
            least[p] = p
            for m in range(p * p, limit + 1, p):
                if least[m] == 0:
                    least[m] = p
    for n in range(1, limit + 1):
        pairs = []
        m = n
        while m > 1:
            p, e = least[m], 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        f = factor(n)
        assert f.factors == tuple(pairs) and f.cofactor == 1, n


def test_odd_prime_segments_match_a_plain_sieve(monkeypatch):
    # the striking loop the least-factor table shares: segments of a few
    # cells whose last number is a prime's square, and the squares of the
    # odd primes at index 254 and 255 and above, which all strike with 255
    limit = 3 * 10**6
    plain = bytearray([1]) * (limit + 1)
    plain[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if plain[p]:
            plain[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    odd = [p for p in range(3, math.isqrt(limit) + 1) if plain[p]]
    ranges = [(0, 2000), (8, 9), (24, 49), (1019**2 - 50, 1021**2), (limit - 2000, limit)]
    ranges += [(odd[k] ** 2 - 100, odd[k] ** 2) for k in (254, 255, 256)]
    for segment in (1, 3, 7, 1 << 14):
        monkeypatch.setattr(arith, "_SIEVE_SEGMENT", segment)
        for lo, hi in ranges:
            got = [list(primes) for primes in arith._odd_prime_segments(lo, hi)]
            assert all(len(primes) <= segment for primes in got), (segment, lo, hi)
            expected = [p for p in range(max(lo + 1, 3), hi + 1) if plain[p]]
            assert list(itertools.chain.from_iterable(got)) == expected, (segment, lo, hi)


def test_factor_by_table_agrees_with_trial_division_at_the_gate():
    # below 2^20 factor() reads the least-factor table, from 2^20 on it runs
    # the trial loop: n * 2^20 must have the odd primes of n, and neither
    # side needs rho or depends on the step
    rng = random.Random(27)
    edges = [1, 2, 2**19, 2**20 - 1, 2**20, 2**20 + 1, 1021**2, 1019 * 1021, 1048573,
             4093**2, 4093 * 4099]
    for n in edges + [rng.randrange(1, 2**20) for _ in range(10**4)]:
        expected = factor(n)
        odd = tuple(pe for pe in expected.factors if pe[0] != 2)
        twos = (n & -n).bit_length() - 1
        loop = factor(n << 20, rho_iterations=0)
        assert loop == Factorization(((2, twos + 20),) + odd), n
        assert factor(n, rho_iterations=0) == expected and expected.complete, n
        for s in (4, 6, 110):
            assert factor(n, step=s) == expected, (n, s)


def test_factor_by_table_builds_only_the_segments_it_reads():
    # the table is sieved one segment of 2^15 numbers at a time, on demand
    arith._least_factor_segment.cache_clear()
    assert factor(2 * 3 * 5 * 1021) == Factorization(((2, 1), (3, 1), (5, 1), (1021, 1)))
    assert arith._least_factor_segment.cache_info().currsize == 1


def test_factor_by_table_holds_the_segments_it_reads_not_the_table():
    # the whole table is 32 segments of 16 KiB.  These calls reach 11 of
    # them, not two: the quotient left after a least factor lands in
    # another segment.  tracemalloc cannot see what was allocated before it
    # starts, and this process may hold the table already, so the calls run
    # in a fresh interpreter, where the traced peak is 195 KiB
    code = """if True:
        import itertools, tracemalloc
        from coverlab import arith
        tracemalloc.start()
        complete = all(arith.factor(n).complete for n in
                       itertools.chain(range(2**20 - 4096, 2**20), range(1, 4096)))
        print(complete, arith._least_factor_segment.cache_info().currsize,
              tracemalloc.get_traced_memory()[1])
    """
    home = str(pathlib.Path(arith.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": home}, check=True)
    complete, segments, peak = done.stdout.split()
    assert (complete, segments) == ("True", "11")
    assert int(peak) < 512 * 1024, peak


def test_factor_reassembly_random_64bit():
    rng = random.Random(64)
    for _ in range(1000):
        n = rng.getrandbits(64) + 1
        f = factor(n)
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == n
        for p, _ in f.factors:
            assert is_probable_prime(p)

