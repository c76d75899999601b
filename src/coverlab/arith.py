"""Arbitrary-precision integer and modular arithmetic primitives.

Everything here is a pure function on Python ints (which are unbounded);
decimal strings are used at every file-format boundary, never fixed-width
types.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .covers import ResidueClass

# The first 12 primes are a complete strong-pseudoprime witness set for
# n < 3.317e24 (Sorenson-Webster), which comfortably includes all of 2^64.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64

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
    """Effort limits for factor(): trial division bound and rho caps."""

    trial_bound: int = 10**6
    rho_iterations: int = 10**7
    rho_attempts: int = 8


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Primality test: deterministic below 2^64, strong-pseudoprime above.

    Below 2^64 the fixed 12-prime witness set decides exactly.  Above, the
    witnesses are the same 12 primes plus pseudorandom bases drawn from an
    RNG seeded by n itself, `rounds` bases in total, so results are
    reproducible.  No prime is ever rejected; a composite slips through with
    probability at most 4**-rounds.
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
    if n >= _DETERMINISTIC_LIMIT and rounds > len(witnesses):
        rng = random.Random(n)
        while len(witnesses) < rounds:
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


def factor(n: int, budget: FactorBudget | None = None) -> Factorization:
    """Factor n by trial division then Pollard rho, within the given budget.

    Every extracted factor is certified by is_probable_prime.  When the
    budget runs out the remaining (composite) cofactor is reported and
    complete is False; incompleteness is a result state, not an error.
    """
    if n < 1:
        raise ValueError(f"factor() needs n >= 1, got {n}")
    if budget is None:
        budget = FactorBudget()
    found: dict[int, int] = {}
    rest = n
    for d in _trial_divisors(budget.trial_bound):
        if d * d > rest:
            break
        while rest % d == 0:
            found[d] = found.get(d, 0) + 1
            rest //= d
    if rest == 1:
        return Factorization.of_known(found)

    pending = [rest]
    leftover = 1
    while pending:
        c = pending.pop()
        if c == 1:
            continue
        if is_probable_prime(c):
            found[c] = found.get(c, 0) + 1
            continue
        d = _rho_split(c, budget)
        if d is None:
            leftover *= c
            continue
        pending.append(d)
        pending.append(c // d)
    return Factorization.of_known(found, cofactor=leftover)


def _trial_divisors(bound: int):
    yield 2
    yield 3
    d = 5
    while d <= bound:
        yield d
        yield d + 2
        d += 6


def _rho_split(n: int, budget: FactorBudget) -> int | None:
    """Brent-cycle Pollard rho with batched gcds; deterministic offsets.

    https://en.wikipedia.org/wiki/Pollard%27s_rho_algorithm
    """
    if n % 2 == 0:
        return 2
    for attempt in range(1, budget.rho_attempts + 1):
        c = attempt  # polynomial x^2 + c, a distinct offset per attempt
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        count = 0
        while g == 1 and count < budget.rho_iterations:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                count += min(128, r - k)
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # backtrack one step at a time from the last saved point
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 3; values in {-1, 0, 1}.

    Negative a is handled through (-1|n) = (-1)^((n-1)/2).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 3, got {n}")
    result = 1
    if a < 0:
        a = -a
        if n % 4 == 3:
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
