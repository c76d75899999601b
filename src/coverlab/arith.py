"""Arbitrary-precision integer and modular arithmetic primitives.

Everything here is a pure function on Python ints (which are unbounded);
decimal strings are used at every file-format boundary, never fixed-width
types.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from typing import NamedTuple

from .covers import ResidueClass

# psi_k, the least strong pseudoprime to the first k primes (OEIS A014233;
# Jaeschke 1993, Sorenson-Webster 2017): every n < psi_k is decided exactly
# by the first k primes as bases.  psi_9 = psi_10 = psi_11 is a strong
# pseudoprime to 2..31, so the repeats stay.  The 12 primes below are
# complete only below psi_12 = 318665857834031151167461 (about 3.19e23),
# which passes all 12, so throughout 2^64.  The often-quoted 3.317e24 is
# psi_13, the bound for the first 13 primes, through 41.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051)
DETERMINISTIC_LIMIT = 1 << 64
_MR_ROUNDS = 40   # Miller-Rabin bases in all at and above 2^64

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Factorization(NamedTuple):
    """prime-power factors, a leftover cofactor, and what they multiply to.

    Invariants: every listed prime passes is_probable_prime, primes are in
    increasing order, exponents are positive, and product(p^e) * cofactor ==
    the factored value.  The factorization is complete exactly when the
    cofactor is 1.  It is a tuple (factors, cofactor): it unpacks, and it
    compares equal to a plain tuple of the same two fields.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


RHO_ITERATIONS = 10**7   # factor()'s default cap on the steps of one rho attempt
_RHO_ATTEMPTS = 8   # rho attempts per composite cofactor, offsets c = 1..8

# Pollard P-1 runs in two rounds of bounds (B1, B2), each from 3^step.
# Stage 1's exponent has about 1.44 * B1 bits; stage 2 takes one
# multiplication per prime in (B1, B2], one per giant step of _PM1_WHEEL
# and 105 for its table.  The rounds take about 8,300 and 174,700 of
# these, so a call that splits nothing costs about 1.9 * 10^5 squarings,
# its largest cost; a call stops at its first split.
_PM1_ROUNDS = ((1 << 10, 1 << 16), (1 << 16, 1 << 20))
_PM1_WHEEL = 210
_PM1_SQUARINGS = 190_000
_SIEVE_SEGMENT = 1 << 14     # odd numbers per segment of the prime sieve
_TRIAL_BOUND = 4096          # factor() divides out every prime up to it
# factor() reads the least prime factor of n < 2^20 from a table sieved by
# the odd primes up to 1021, the largest prime below sqrt(2^20)
_TABLE_LIMIT = 1 << 20
_TABLE_BOUND = 1021


def is_probable_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, strong-pseudoprime above.

    Below 2^64 the first k primes decide exactly, for the least k with
    n < psi_k (_PSI): n < 2047 takes base 2 alone, and n from psi_11 up
    all 12 of _SMALL_WITNESSES.  At and above 2^64 the witnesses are the
    12 primes plus pseudorandom bases drawn from an RNG seeded by n itself,
    40 bases in total, so results are reproducible.  No prime is ever
    rejected.  Only the 28 drawn bases carry the bound of 1/4 per round,
    so a composite slips through with probability at most 4**-28.
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
    witnesses = list(_SMALL_WITNESSES[:bisect.bisect(_PSI, n) + 1])
    if n >= DETERMINISTIC_LIMIT:
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
    return [p for p, _ in f.factors]


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
    # the classes before bad_index meet pairwise; were each of them also to
    # meet the later class, all would meet pairwise and so jointly, which
    # they do not: some earlier class alone conflicts with the later one
    later = classes[bad_index]
    earlier = next(c for c in classes[:bad_index]
                   if (later.a - c.a) % math.gcd(c.n, later.n) != 0)
    return f"inconsistent residue classes: {earlier} and {later} share no integer"


def factor(n: int, rho_iterations: int = RHO_ITERATIONS,
           step: int = 2) -> Factorization:
    """Factor n by trial division, then Pollard P-1 and rho.

    Trial division divides out every prime up to _TRIAL_BOUND = 4096: one
    gcd of n with the product of the 564 such primes, built once, names the
    primes of n among them, and only those are divided out.  A remainder
    with no prime factor up to 4096 and smaller than 4097^2 is itself prime,
    so it is recorded without a primality test; any other remainder goes to
    is_probable_prime and rho.  Below 2^20, trial division is a lookup in a
    table of least prime factors, sieved one segment of 2^15 numbers at a
    time as calls reach it, with the same result: every odd composite below
    2^20 has a prime factor up to 1021; the table also splits a gcd below
    2^20.  Every extracted factor is therefore proven by trial division or
    by the sieve, or passes is_probable_prime.

    `rho_iterations` caps the steps of one Brent-Pollard rho attempt; an
    x^2 + c step is one modular squaring, and every composite cofactor gets
    _RHO_ATTEMPTS attempts.  When they all fail the remaining (composite)
    cofactor is reported and complete is False; incompleteness is a result
    state, not an error.

    `step` is a fact the caller states: every prime factor of n left after
    trial division is = 1 (mod step).  The default 2 holds for every odd
    prime.  Only Pollard's P-1 method uses a larger step: it runs on each
    composite cofactor before rho, when rho_iterations is at least its
    largest cost of about 1.9 * 10^5 squarings (tens of milliseconds, paid
    only when it splits nothing), and that run is not charged to any rho
    attempt.  P-1 runs two rounds of bounds, (2^10, 2^16) and then
    (2^16, 2^20), and finds p when (p - 1)/step is 2^16-smooth apart from at
    most one prime up to 2^20, stopping at the first block or segment of
    primes that splits n; stage 2 takes one multiplication per prime (see
    _pm1_round).  Otherwise it leaves the cofactor to rho, which walks x^2 + c
    whatever the step.  A wrong step never yields a wrong factor: every
    split is still a gcd divisor of n and every factor still passes the
    same checks.  It can cost time, and under a small rho_iterations it can
    change how much of n is factored.
    """
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    if step < 2:
        raise ValueError(f"factor() needs step >= 2, got {step}")
    if n < _TABLE_LIMIT:
        return _factor_by_table(n)
    found: dict[int, int] = {}
    rest = n
    for p in _trial_primes_of(math.gcd(n, _trial_product())):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        found[p] = e
    if rest < (_TRIAL_BOUND + 1) ** 2:   # no prime factor up to the bound: 1 or prime
        if rest > 1:
            found[rest] = 1
        return Factorization(tuple(found.items()))   # ascending: rest exceeds every p

    pending = [rest]
    leftover = 1
    pm1 = step > 2 and rho_iterations >= _PM1_SQUARINGS
    while pending:
        c = pending.pop()
        if is_probable_prime(c):
            found[c] = found.get(c, 0) + 1
            continue
        d = _pm1_split(c, step) if pm1 else None
        if d is None:
            d = _rho_split(c, rho_iterations)
        if d is None:
            leftover *= c
            continue
        pending.append(d)
        pending.append(c // d)
    return Factorization(tuple(sorted(found.items())), leftover)


def _product(factors) -> int:
    """The product of the ints `factors`, by a balanced tree of multiplications."""
    xs = list(factors)
    while len(xs) > 1:
        xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0] if xs else 1


@functools.lru_cache(maxsize=1)
def _trial_product() -> int:
    """The product of the 564 primes up to _TRIAL_BOUND, 5,811 bits."""
    return _product(_primes_up_to(_TRIAL_BOUND))


def _trial_primes_of(g: int) -> list[int]:
    """The primes of g, a divisor of _trial_product(), ascending."""
    if g < _TABLE_LIMIT:
        return [p for p, _ in _factor_by_table(g).factors]
    return [p for p in _primes_up_to(_TRIAL_BOUND) if g % p == 0]


# the bounds are fixed: _TRIAL_BOUND, _TABLE_BOUND, P-1's two B1 and the
# square roots the sieve takes of the ends of its ranges; the ones that
# recur stay cached
@functools.lru_cache(maxsize=8)
def _primes_up_to(bound: int) -> tuple[int, ...]:
    """The primes <= bound, ascending."""
    if bound < 2:
        return ()
    return (2, *itertools.chain.from_iterable(_odd_prime_segments(2, bound)))


def _odd_prime_segments(lo: int, hi: int):
    """The odd primes p with lo < p <= hi, ascending, one segment of
    _odd_prime_flags at a time, each as an iterator over its primes."""
    for start, flags in _odd_prime_flags(lo, hi):
        yield itertools.compress(range(start, start + 2 * len(flags), 2), flags)


def _odd_prime_flags(lo: int, hi: int):
    """The odd numbers m with lo < m <= hi, one segment of the sieve of
    Eratosthenes at a time: pairs (start, flags), with flags[i] 1 when
    start + 2*i is prime and 0 otherwise.

    flags marks the cells that _strike leaves 0.  The sieve holds one byte
    per odd number, _SIEVE_SEGMENT of them at a time, so P-1 never holds the
    82,025 primes below 2^20 at once.
    """
    small = _primes_up_to(math.isqrt(hi))[1:]
    start = (lo + 1) | 1                 # the least odd number above lo
    while start <= hi:
        size = min(_SIEVE_SEGMENT, (hi - start) // 2 + 1)
        cells = _strike(start, size, small)
        if start == 1:
            cells[0] = 1                 # 1 is not prime
        yield start, cells.translate(_ZERO_CELLS)
        start += 2 * size


_ZERO_CELLS = bytes([1]) + bytes(255)   # translate table: 0 -> 1, the rest -> 0
_MARKS = tuple(bytes((v,)) for v in range(256))   # the one-byte strings, by value


def _strike(start: int, size: int, small: tuple[int, ...]) -> bytearray:
    """One segment of the sieve of Eratosthenes: a byte for each odd number
    start + 2*i, i < size, with start odd and `small` ascending odd primes.

    Each p of small strikes its odd multiples from p^2 on, from the largest
    p to the least, so a struck cell ends with 1 + the index in small of the
    least p that struck it, capped at 255.  A cell is left 0 when no p of
    small has p | m and p^2 <= m for its number m: with every odd prime up
    to sqrt(start + 2*size) in small, when m is 1 or prime.
    """
    cells = bytearray(size)              # cell i stands for start + 2*i
    last = start + 2 * (size - 1)
    # a p whose square is past the segment's last number strikes nothing
    for k in range(bisect.bisect(small, math.isqrt(last)) - 1, -1, -1):
        p = small[k]
        m = max(p * p, -(-start // p) * p)
        if m % 2 == 0:
            m += p                       # the first odd multiple to strike
        i = (m - start) // 2
        cells[i::p] = _MARKS[k + 1 if k < 255 else 255] * len(range(i, size, p))
    return cells


@functools.lru_cache(maxsize=None)   # at most 32 segments of 16 KiB
def _least_factor_segment(k: int) -> bytearray:
    """The table of least prime factors for the odd numbers of
    [k * 2^15, (k + 1) * 2^15): the cell of odd n, at (n >> 1) mod 2^14, is
    0 when n is 1 or prime, and otherwise the index in _primes_up_to(1021)
    of the least prime factor of n.  Below 2^20 < 1031^2, where it is read,
    the odd primes up to 1021 are all the sieve needs.
    """
    return _strike(2 * k * _SIEVE_SEGMENT + 1, _SIEVE_SEGMENT,
                   _primes_up_to(_TABLE_BOUND)[1:])


def _factor_by_table(n: int) -> Factorization:
    """factor(n) for 1 <= n < _TABLE_LIMIT, by least-factor lookups."""
    pairs = []
    twos = (n & -n).bit_length() - 1
    if twos:
        pairs.append((2, twos))
        n >>= twos
    primes = _primes_up_to(_TABLE_BOUND)
    while n > 1:
        # a segment holds 2^15 numbers, _SIEVE_SEGMENT of them odd
        cell = _least_factor_segment(n >> 15)[(n >> 1) & (_SIEVE_SEGMENT - 1)]
        if not cell:                     # n is prime
            pairs.append((n, 1))
            break
        p = primes[cell]
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        pairs.append((p, e))
    return Factorization(tuple(pairs))


@functools.lru_cache(maxsize=len(_PM1_ROUNDS))
def _pm1_blocks(b1: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Stage 1's prime powers q^floor(log_q b1), one block per prime range
    (2^(k-1), 2^k] for k = 1..log2(b1), each block with the product of its
    powers.

    b1 is a power of 2, and the block of q = 2 holds b1 itself.  A prime
    above sqrt(b1) is its own power.  All the products together have about
    1.44 * b1 bits.
    """
    blocks = [(b1,)]
    primes = itertools.chain.from_iterable(_odd_prime_segments(2, b1))
    for _, group in itertools.groupby(primes, int.bit_length):
        powers = list(group)
        if powers[0] ** 2 <= b1:         # a block up to sqrt(b1)
            for i, q in enumerate(powers):
                while powers[i] * q <= b1:
                    powers[i] *= q
        blocks.append(tuple(powers))
    return tuple((powers, _product(powers)) for powers in blocks)


def _pm1_split(n: int, step: int) -> int | None:
    """Pollard's P-1 method with the factor `step` of p - 1 known; a proper
    divisor of the composite n, or None.

    It runs _pm1_round for each (B1, B2) of _PM1_ROUNDS, (2^10, 2^16) and
    then (2^16, 2^20), and returns the first proper divisor.  The first
    round costs about 4% of the second and finds p when (p - 1)/step is
    2^10-smooth apart from at most one prime up to 2^16; the second starts
    afresh from 3^step and finds p when it is 2^16-smooth apart from at most
    one prime up to 2^20.  A run that splits nothing costs about
    _PM1_SQUARINGS modular squarings, P-1's largest cost.
    """
    for b1, b2 in _PM1_ROUNDS:
        d = _pm1_round(n, step, b1, b2)
        if d is not None:
            return d
    return None


def _pm1_round(n: int, step: int, b1: int, b2: int) -> int | None:
    """One round of P-1 with bounds b1 < b2, both powers of 2: a proper
    divisor of the composite n, or None.

    Stage 1 starts from a = 3^step and raises a to the prime powers of
    _pm1_blocks(b1), a block at a time, with gcd(a - 1, n) after each block:
    it finds each prime p of n = 1 (mod step) whose (p - 1)/step has no
    prime power above b1, in the first block that completes its order.  A
    block whose gcd is n is replayed one prime power at a time from its
    start, and the first gcd other than 1 is returned; it is None only when
    one prime power brings in every prime of n.  The base is 3 because 2 has
    order dividing step modulo every prime of Phi_m(2) for m | step, so base
    2 would always give n.

    Stage 2 adds the p whose (p - 1)/step has one more prime q with
    b1 < q <= b2, by baby steps and giant steps (Montgomery 1987, Math.
    Comp. 48): with w = _PM1_WHEEL, giant steps G = a^(kw) and a table of
    a^j for odd j < w, each prime q = kw - j multiplies a product by
    G - a^j = a^j (a^q - 1), one multiplication, and one gcd of the product
    is taken per sieve segment.  While 3 does not divide n, a^j is a unit,
    so every gcd is that of the product of the a^q - 1.  A stage-2 gcd of
    n, where every prime of n is found in the same segment, gives None.

    The work stops at the first block or segment that splits n, so its cost
    follows the largest prime of (p - 1)/step, not b1.
    """
    a = pow(3, step, n)
    for powers, product in _pm1_blocks(b1):
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
    w = _PM1_WHEEL
    baby = [0] * w                       # baby[w - j] = a^j for odd j < w
    aj, a2 = a, a * a % n
    for j in range(1, w, 2):
        baby[w - j] = aj
        aj = aj * a2 % n
    giant_step = pow(a, w, n)
    k = b1 // w                          # G = a^((k + 1) w) for kw < q < (k + 1) w
    giant = pow(a, (k + 1) * w, n)
    acc = 1
    for start, flags in _odd_prime_flags(b1, b2):
        i = 0
        while i < len(flags):            # one window (kw, (k + 1) w) at a time
            qk, first = divmod(start + 2 * i, w)
            while k < qk:
                giant = giant * giant_step % n
                k += 1
            end = i + (w - first + 1) // 2   # the window's cells from `first` on
            for r in itertools.compress(range(first, w, 2), flags[i:end]):
                acc = acc * (giant - baby[r]) % n
            i = end
        g = math.gcd(acc, n)
        if g != 1:
            return g if g != n else None
    return None


def _rho_split(n: int, limit: int) -> int | None:
    """Brent-cycle Pollard rho with batched gcds; deterministic offsets.

    The walk is y -> y^2 + c from y = 2, one attempt for each offset
    c = 1, 2, ..., _RHO_ATTEMPTS; it finds a prime p of n in about sqrt(p)
    steps.  n is odd: factor() has divided out every prime up to 4096.
    An attempt takes at most `limit` steps, counting the ones that move y
    ahead of the saved point x as well as those of the gcd loop.  The gcd
    loop takes one gcd per batch of at most 128 steps, and its batches end
    at the limit, so an attempt stops inside a doubling round.  A batch
    whose gcd is n is replayed one step at a time, at most one batch more.

    https://en.wikipedia.org/wiki/Pollard%27s_rho_algorithm
    """
    for c in range(1, _RHO_ATTEMPTS + 1):   # polynomial x^2 + c
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        count = batch = 0
        while g == 1 and count < limit:
            x = y
            steps = min(r, limit - count)           # move y r steps past x
            for _ in range(steps):
                y = (y * y + c) % n
            count += steps
            k = 0
            while k < r and g == 1 and count < limit:
                ys = y
                batch = min(128, r - k, limit - count)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += batch
                count += batch
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            # replay the last batch one step at a time from its start
            for _ in range(batch):
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                if g != 1:
                    break
        if 1 < g < n:
            return g
    return None
