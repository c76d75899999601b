"""Arbitrary-precision integer and modular arithmetic primitives.

Everything here is a pure function on Python ints (which are unbounded);
decimal strings are used at every file-format boundary, never fixed-width
types.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .covers import ResidueClass

# The first 12 primes are a complete strong-pseudoprime witness set for
# n < 3.317e24 (Sorenson-Webster), which comfortably includes all of 2^64.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64
_MR_ROUNDS = 40   # Miller-Rabin bases in all at and above 2^64

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Factorization:
    """prime-power factors, a leftover cofactor, and what they multiply to.

    Invariants: every listed prime passes is_probable_prime, exponents are
    positive, and product(p^e) * cofactor == the factored value.  The
    factorization is complete exactly when the cofactor is 1.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    @staticmethod
    def of_known(pairs: dict[int, int] | list[tuple[int, int]],
                 cofactor: int = 1) -> "Factorization":
        items = sorted(dict(pairs).items())
        return Factorization(tuple(items), cofactor)


@dataclass(frozen=True)
class FactorBudget:
    """Effort limits for factor().

    trial_bound is the largest number trial division tries: every prime up
    to it is divided out before rho starts.  rho_iterations caps the work
    of one Brent-Pollard rho attempt, counted in modular squarings (an
    x^2 + c step is one), and rho_attempts the number of attempts (one
    polynomial offset each) on every composite cofactor.  When factor() is
    given a step above 2 and rho_iterations is at least P-1's largest cost,
    about 2.5 * 10^5 squarings, one P-1 run comes before rho on every
    composite cofactor; that run is not charged to any attempt.
    """

    trial_bound: int = 1 << 12
    rho_iterations: int = 10**7
    rho_attempts: int = 8


_DEFAULT_BUDGET = FactorBudget()   # built once: factor() is called per small n in tight loops

# Pollard P-1 bounds.  Stage 1's exponent has about 1.44 * B1 bits and
# stage 2 takes two multiplications per prime in (B1, B2], 75,483 of them,
# so a call that splits nothing costs about 2.5 * 10^5 squarings, its
# largest cost; a call stops at its first split.
_PM1_B1 = 1 << 16
_PM1_B2 = 1 << 20
_PM1_SQUARINGS = 250_000
_SIEVE_SEGMENT = 1 << 14     # odd numbers per segment of the prime sieve


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, strong-pseudoprime above.

    Below 2^64 the fixed 12-prime witness set decides exactly.  Above, the
    witnesses are the same 12 primes plus pseudorandom bases drawn from an
    RNG seeded by n itself, 40 bases in total, so results are reproducible.
    No prime is ever rejected; a composite slips through with probability at
    most 4**-40.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses: list[int] = list(_SMALL_WITNESSES)
    if n >= _DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        while len(witnesses) < _MR_ROUNDS:
            witnesses.append(rng.randrange(2, n - 1))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending; raises if factor(n) stops short."""
    f = factor(n)
    if not f.complete:
        raise ValueError(f"could not fully factor exponent {n}")
    return f.primes()


def order_dividing(a: int, m: int, n: int) -> int | None:
    """Least d | n with a^d = 1 (mod m), or None when a^n is not 1.

    Works by stripping the prime divisors of n while the congruence
    persists.  The exponent n is factored here, by prime_divisors(n); m - 1
    is never factored.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise ValueError(f"gcd({a % m}, {m}) != 1; order undefined")
    if pow(a, n, m) != 1:
        return None
    d = n
    for ell in prime_divisors(n):
        while d % ell == 0 and pow(a, d // ell, m) == 1:
            d //= ell
    return d


def crt_combine(classes: list[ResidueClass]) -> ResidueClass:
    """Intersect residue classes into a single class a(M), M = lcm of moduli.

    Moduli need not be pairwise coprime; an empty intersection raises with a
    conflicting pair named.  No constraints at all yields 0(1), i.e. Z.
    """
    a, n = 0, 1
    for i, c in enumerate(classes):
        g = math.gcd(n, c.n)
        if (c.a - a) % g != 0:
            raise ValueError(_conflict_message(classes, i))
        t = (c.a - a) // g * pow(n // g, -1, c.n // g) % (c.n // g)
        a += n * t
        n = n // g * c.n
        a %= n
    return ResidueClass(a, n)


def _conflict_message(classes: list[ResidueClass], bad_index: int) -> str:
    later = classes[bad_index]
    for earlier in classes[:bad_index]:
        g = math.gcd(earlier.n, later.n)
        if (later.a - earlier.a) % g != 0:
            return (f"inconsistent residue classes: {earlier} and {later} "
                    f"share no integer")
    return f"residue class {later} is inconsistent with the preceding ones"


def factor(n: int, budget: FactorBudget | None = None,
           step: int = 2) -> Factorization:
    """Factor n by trial division, then Pollard P-1 and rho, within the budget.

    Trial division tries the primes up to budget.trial_bound.  A remainder
    with no prime factor below s and smaller than s^2 is itself prime, so it
    is recorded without a primality test; any other remainder goes to
    is_probable_prime and rho.  Every extracted factor is therefore proven
    by trial division or passes is_probable_prime.  When the budget runs out
    the remaining (composite) cofactor is reported and complete is False;
    incompleteness is a result state, not an error.

    `step` is a fact the caller states: every prime factor of n left after
    trial division is = 1 (mod step).  The default 2 holds for every odd
    prime.  A larger step changes the rho walk, to y -> y^step + c, which
    finds such a prime p in about sqrt(p/step) steps instead of sqrt(p).
    It also runs Pollard's P-1 method on each composite cofactor before
    rho, when budget.rho_iterations is at least its largest cost of about
    2.5 * 10^5 squarings (tens of milliseconds, paid only when it splits
    nothing): P-1 finds p when (p - 1)/step is 2^16-smooth apart from at
    most one prime up to 2^20, stopping at the first block of primes that
    splits n, and otherwise leaves the cofactor to rho.  A wrong step never
    yields a wrong factor: every split is still a gcd divisor of n and
    every factor still passes the same checks.  It can cost time, and under
    a finite budget it can change how much of n is factored before the
    budget runs out.
    """
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    if step < 2:
        raise ValueError(f"factor() needs step >= 2, got {step}")
    if budget is None:
        budget = _DEFAULT_BUDGET
    found: dict[int, int] = {}
    rest = n
    least = budget.trial_bound + 1   # least prime factor rest can still have
    for p in _primes_up_to(budget.trial_bound):
        if p * p > rest:
            least = p
            break
        while rest % p == 0:
            found[p] = found.get(p, 0) + 1
            rest //= p
    if rest < least * least:
        if rest > 1:
            found[rest] = 1
        return Factorization.of_known(found)

    pending = [rest]
    leftover = 1
    pm1 = step > 2 and budget.rho_iterations >= _PM1_SQUARINGS
    while pending:
        c = pending.pop()
        if c == 1:
            continue
        if is_probable_prime(c):
            found[c] = found.get(c, 0) + 1
            continue
        d = _pm1_split(c, step) if pm1 else None
        if d is None:
            d = _rho_split(c, budget, step)
        if d is None:
            leftover *= c
            continue
        pending.append(d)
        pending.append(c // d)
    return Factorization.of_known(found, cofactor=leftover)


@functools.lru_cache(maxsize=8)   # a few bounds are in use; a one-off one is not pinned
def _primes_up_to(bound: int) -> tuple[int, ...]:
    """The primes <= bound, ascending."""
    if bound < 2:
        return ()
    return (2, *itertools.chain.from_iterable(_odd_prime_segments(2, bound)))


def _odd_prime_segments(lo: int, hi: int):
    """The odd primes p with lo < p <= hi, ascending, one segment of the
    sieve of Eratosthenes at a time.

    Each segment is an iterator over its primes.  The sieve holds one byte
    per odd number, _SIEVE_SEGMENT of them at a time, so P-1 never holds
    the 82,025 primes below 2^20 at once.
    """
    small = _primes_up_to(math.isqrt(hi))[1:]
    start = (lo + 1) | 1                 # the least odd number above lo
    while start <= hi:
        size = min(_SIEVE_SEGMENT, (hi - start) // 2 + 1)
        cells = bytearray([1]) * size    # cell i stands for start + 2*i
        for p in small:
            m = max(p * p, -(-start // p) * p)
            if m % 2 == 0:
                m += p                   # the first odd multiple to strike
            i = (m - start) // 2
            cells[i::p] = bytes(len(range(i, size, p)))
        if start == 1:
            cells[0] = 0                 # 1 is not prime
        yield itertools.compress(range(start, start + 2 * size, 2), cells)
        start += 2 * size


@functools.lru_cache(maxsize=1)
def _pm1_blocks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """Stage 1's prime powers q^floor(log_q B1), one block per prime range
    (2^(k-1), 2^k] for k = 1..16, each block with the product of its powers.

    The block of q = 2 holds B1 = 2^16 itself.  All the products together
    have about 1.44 * B1 bits.
    """
    blocks = [(_PM1_B1,)]                # B1 is a power of 2
    primes = itertools.chain.from_iterable(_odd_prime_segments(2, _PM1_B1))
    for _, group in itertools.groupby(primes, int.bit_length):
        powers = []
        for q in group:
            power = q
            while power * q <= _PM1_B1:
                power *= q
            powers.append(power)
        blocks.append(tuple(powers))
    return tuple((powers, math.prod(powers)) for powers in blocks)


def _pm1_split(n: int, step: int) -> int | None:
    """Pollard's P-1 method with the factor `step` of p - 1 known; a proper
    divisor of the composite n, or None.

    Stage 1 starts from a = 3^step and raises a to the prime powers of
    _pm1_blocks(), a block at a time, with gcd(a - 1, n) after each block:
    it finds each prime p of n = 1 (mod step) whose (p - 1)/step has no
    prime power above B1, in the first block that completes its order.  A
    block whose gcd is n is replayed one prime power at a time from its
    start, and the first gcd other than 1 is returned; it is None only when
    one prime power brings in every prime of n.  Stage 2 adds the p whose
    (p - 1)/step has one more prime q with B1 < q <= B2: it walks a^q from
    prime to prime by a table of a^gap for the even gaps and takes one gcd
    of the product of the a^q - 1 per sieve segment (Pollard 1974, Proc.
    Cambridge Philos. Soc. 76).  A stage-2 gcd of n, where every prime of n
    is found in the same segment, gives None, and rho takes over.  The base
    is 3 because 2 has order dividing step modulo every prime of Phi_m(2)
    for m | step, so base 2 would always give n.

    The work stops at the first block that splits n, so its cost follows
    the largest prime of (p - 1)/step, not B1.  A run that splits nothing
    costs about _PM1_SQUARINGS modular squarings, P-1's largest cost.
    """
    a = pow(3, step, n)
    for powers, product in _pm1_blocks():
        b = pow(a, product, n)
        g = math.gcd(b - 1, n)
        if g == 1:
            a = b
            continue
        if g != n:
            return g
        for power in powers:             # replay the block from its start
            a = pow(a, power, n)
            g = math.gcd(a - 1, n)
            if g != 1:
                return g if g != n else None
    gaps = [1, a * a % n]                # gaps[k] = a^(2k)
    for _ in range(63):                  # every gap below 2^20 is at most 114
        gaps.append(gaps[-1] * gaps[1] % n)
    prev = _PM1_B1 - 1                   # odd, so every gap to a prime is even
    aq = pow(a, prev, n)
    acc = 1
    for segment in _odd_prime_segments(_PM1_B1, _PM1_B2):
        for q in segment:
            aq = aq * gaps[(q - prev) >> 1] % n
            acc = acc * (aq - 1) % n
            prev = q
        g = math.gcd(acc, n)
        if g != 1:
            return g if g != n else None
    return None


def _rho_split(n: int, budget: FactorBudget, e: int) -> int | None:
    """Brent-cycle Pollard rho with batched gcds; deterministic offsets.

    The walk is y -> y^e + c.  When every prime p of n is = 1 (mod e), the
    image of x^e mod p has about p/e elements, so a cycle closes in about
    sqrt(p/e) steps (Brent and Pollard 1981, Math. Comp. 36).  The x^2 + c
    walk starts at y = 2; any other starts at y = 3, because on a divisor
    of Phi_m(2) with e a multiple of m, 2^e = 1 and the offsets c = 1, 3
    and 7 would land on the fixed points 2, 4 and 8.

    budget.rho_iterations counts squarings: an x^e + c step costs about
    e.bit_length() - 1 of them (one for x^2 + c), so an attempt that finds
    nothing takes about as long whatever e is.  Every step is counted, the
    ones that move y ahead of the saved point x as well as the batched
    ones, in batches of at most 128 that end at the limit, so an attempt
    stops inside a doubling round.  A batch whose gcd is n is replayed one
    step at a time, at most one batch more.

    https://en.wikipedia.org/wiki/Pollard%27s_rho_algorithm
    """
    if n % 2 == 0:
        return 2
    square = e == 2
    limit = budget.rho_iterations // (e.bit_length() - 1)
    for attempt in range(1, budget.rho_attempts + 1):
        c = attempt  # polynomial x^e + c, a distinct offset per attempt
        y, r, q = 2 if square else 3, 1, 1
        g = 1
        x = ys = y
        count = batch = 0
        while g == 1 and count < limit:
            x = y
            k = 0
            while k < r and count < limit:          # move y r steps past x
                batch = min(128, r - k, limit - count)
                for _ in range(batch):
                    y = (y * y + c) % n if square else pow(y, e, n) + c
                k += batch
                count += batch
            k = 0
            while k < r and g == 1 and count < limit:
                ys = y
                batch = min(128, r - k, limit - count)
                for _ in range(batch):
                    y = (y * y + c) % n if square else pow(y, e, n) + c
                    q = q * abs(x - y) % n
                k += batch
                count += batch
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            # replay the last batch one step at a time from its start
            for _ in range(batch):
                ys = (ys * ys + c) % n if square else pow(ys, e, n) + c
                g = math.gcd(abs(x - ys), n)
                if g != 1:
                    break
        if 1 < g < n:
            return g
    return None

