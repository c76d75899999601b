"""Primitive prime divisors of 2^n - 1 and the prime-table audit.

A prime p is a primitive divisor of 2^n - 1 when it divides 2^n - 1 but no
2^m - 1 with 0 < m < n; equivalently the multiplicative order of 2 mod p is
exactly n, i.e. `arith.order_dividing(2, p, n) == n`.  `is_primitive_divisor`
applies that rule; the table audit's row check applies the same rule and
also names why a row fails, and an errata replacement must pass that row
check; the audit also names each table prime that is a Wieferich prime.
All order and valuation work here runs modulo p, p^2, ... -- 2^n - 1
itself is never materialized for large n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import codec
from .arith import (FactorBudget, factor, is_probable_prime, order_dividing,
                    prime_divisors)
from .covers import CoveringSystem

# The primitive parts behind errata rows are far beyond rho range; the
# progression scan is what actually finds replacements.
_ERRATA_BUDGET = FactorBudget(trial_bound=10**5, rho_iterations=0, rho_attempts=0)


@dataclass(frozen=True)
class PrimitiveDivisorWitness:
    """(exponent n, prime p, valuation of p in 2^n - 1)."""

    n: int
    p: int
    alpha: int


@dataclass
class PrimeTable:
    """Claimed primitive prime divisors per exponent, plus omitted exponents.

    `entries` maps n to the ordered list of claimed primes; `omitted` lists
    exponents whose (single) primitive prime is not recorded.
    """

    entries: dict[int, list[int]]
    omitted: list[int]

    def all_primes(self) -> list[int]:
        return [p for primes in self.entries.values() for p in primes]


def load_prime_table(path) -> PrimeTable:
    """Read a prime table; an exponent listed twice is a FormatError."""
    raw = codec.load(path)
    entries: dict[int, list[int]] = {}
    for e in raw["entries"].list():
        n = e["n"].int()
        if n in entries:
            raise e["n"].error(f"duplicate exponent {n}")
        entries[n] = [p.int() for p in e["primes"].list()]
    omitted = [n.int() for n in raw.get("omitted", []).list()]
    return PrimeTable(entries=entries, omitted=omitted)


def is_primitive_divisor(p: int, n: int) -> bool:
    """True iff the order of 2 mod p is exactly n (so p | 2^n - 1 primitively)."""
    if n < 2:
        raise ValueError(f"exponent must be >= 2, got {n}")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    # p = 2 divides no 2^n - 1, and order_dividing rejects the non-unit 2 mod 2
    if pow(2, n, p) != 1:
        return False
    return order_dividing(2, p, n) == n


def mersenne_valuation(p: int, n: int) -> int:
    """Largest a with p^a | 2^n - 1, by lifting the modulus p, p^2, ...

    Returns 0 when p does not divide 2^n - 1 at all.
    """
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if pow(2, n, p) != 1:
        return 0
    a = 1
    mod = p * p
    while pow(2, n, mod) == 1:
        a += 1
        mod *= p
    return a


def cyclotomic_mersenne(n: int) -> int:
    """Value of the n-th cyclotomic polynomial at 2.

    Computed as prod over d | n of (2^d - 1)^moebius(n/d); moebius(n/d) is
    nonzero exactly when n/d is a product of a subset S of the distinct
    primes of n, with sign (-1)^|S|.  This carries exactly the prime factors
    of 2^n - 1 whose order is n, plus possibly one copy of the largest prime
    factor of n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    primes = prime_divisors(n)
    num = 1
    den = 1
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            term = (1 << (n // math.prod(subset))) - 1
            if size % 2:
                den *= term
            else:
                num *= term
    q, r = divmod(num, den)
    if r:
        raise AssertionError("cyclotomic product did not divide exactly")
    return q


def find_primitive_divisors(
    n: int,
    budget: FactorBudget | None = None,
    candidate_bound: int = 10_000,
) -> tuple[list[PrimitiveDivisorWitness], bool]:
    """All primitive prime divisors of 2^n - 1 reachable within the budget.

    Strategy: factor the cyclotomic value at 2 (the primitive part).  Any
    prime of order n is = 1 (mod 2n when n is odd, mod n otherwise), so an
    arithmetic-progression scan up to `candidate_bound` steps strips medium
    primes cheaply before trial division, P-1 and rho take over.  Both are
    told the same step.  At a budget of at least about 2.5 * 10^5 rho
    squarings (the default is 10^7), P-1 runs first on each composite
    cofactor and finds a prime p when (p - 1)/step is 2^16-smooth apart
    from one prime up to 2^20.  It stops at the first block of stage-1
    primes that splits the cofactor, so it costs milliseconds when the
    primes of (p - 1)/step are small and tens of milliseconds only when it
    splits nothing; it splits every composite cofactor for n <= 136.  Rho
    walks x^step + c and finds a prime p in about sqrt(p/step) steps.
    The boolean is True when the primitive part was factored completely,
    i.e. the witness list is provably exhaustive.
    """
    if n < 2:
        raise ValueError(f"exponent must be >= 2, got {n}")
    value = cyclotomic_mersenne(n)
    found: dict[int, int] = {}
    rest = value

    step = 2 * n if n % 2 else n
    for k in range(1, candidate_bound + 1):
        q = step * k + 1
        if q * q > rest:
            break
        if rest % q == 0 and is_probable_prime(q):
            while rest % q == 0:
                found[q] = found.get(q, 0) + 1
                rest //= q

    if rest > 1:
        sub = factor(rest, budget, step)
        for p, e in sub.factors:
            found[p] = found.get(p, 0) + e
        rest = sub.cofactor

    witnesses = []
    for p in sorted(found):
        if is_primitive_divisor(p, n):
            witnesses.append(
                PrimitiveDivisorWitness(n=n, p=p, alpha=mersenne_valuation(p, n)))
    return witnesses, rest == 1


@dataclass
class TableRow:
    n: int
    p: int
    ok: bool
    reason: str = ""


@dataclass
class Erratum:
    n: int
    bad_value: int
    reason: str
    replacement: int | None
    verified: bool


@dataclass
class PrimeTableReport:
    rows: list[TableRow]
    count_mismatches: list[tuple[int, int, int]]   # (n, listed, expected)
    duplicates: list[int]
    omitted: list[int]
    omitted_consistent: bool
    errata: list[Erratum]
    wieferich: list[PrimitiveDivisorWitness]   # passed rows with p^2 | 2^n - 1

    @property
    def failing_rows(self) -> list[TableRow]:
        return [r for r in self.rows if not r.ok]

    @property
    def passed(self) -> bool:
        if self.count_mismatches or self.duplicates or not self.omitted_consistent:
            return False
        explained = {(e.n, e.bad_value) for e in self.errata if e.verified}
        return all((r.n, r.p) in explained for r in self.failing_rows)


def _row_reason(n: int, p: int) -> str:
    """Why p cannot be a table prime for exponent n, or "" when it can."""
    if not is_probable_prime(p):
        return "not prime"
    if p <= 5:
        return "not greater than 5"
    if pow(2, n, p) != 1:
        return f"does not divide 2^{n}-1"
    order = order_dividing(2, p, n)
    if order != n:
        return f"order of 2 is {order}, not {n}"
    return ""


def verify_prime_table(cover: CoveringSystem, table: PrimeTable) -> PrimeTableReport:
    """Audit a claimed prime table against a cover with odd moduli.

    Checks, per exponent n occurring among the cover moduli: the table lists
    exactly as many primes as n occurs; every listed p is prime, greater
    than 5, and has order of 2 exactly n.  Globally, all listed primes must
    be pairwise distinct, and the omitted exponents must be exactly the
    moduli with no listed primes, each occurring once.  Failing entries are
    treated as transcription errata: for each one a replacement primitive
    prime is searched within the errata budget and must pass the same row
    check, never silently substituted.  Each row that passed is also tested
    for Wieferich's condition 2^(p-1) = 1 (mod p^2), in the cheaper form
    p^2 | 2^n - 1: the order of 2 mod p^2 is n or n*p, and p does not divide
    p - 1, so both say it is n.  A hit is recorded with its valuation.
    """
    multiplicity = Counter(c.n for c in cover.classes)

    rows: list[TableRow] = []
    count_mismatches: list[tuple[int, int, int]] = []
    for n, primes in table.entries.items():
        expected = multiplicity[n]
        if len(primes) != expected:
            count_mismatches.append((n, len(primes), expected))
        for p in primes:
            reason = _row_reason(n, p)
            rows.append(TableRow(n, p, not reason, reason))

    listed = table.all_primes()
    seen: set[int] = set()
    duplicates: list[int] = []
    for p in listed:
        if p in seen:
            duplicates.append(p)
        seen.add(p)

    expected_omitted = sorted(set(multiplicity) - set(table.entries))
    omitted_consistent = (
        sorted(table.omitted) == expected_omitted
        and all(multiplicity[n] == 1 for n in expected_omitted))

    errata: list[Erratum] = []
    taken = set(listed)
    for row in rows:
        if row.ok:
            continue
        witnesses, _ = find_primitive_divisors(row.n, budget=_ERRATA_BUDGET)
        replacement = None
        for w in witnesses:
            if w.p not in taken:
                replacement = w.p
                break
        verified = replacement is not None and not _row_reason(row.n, replacement)
        if replacement is not None:
            taken.add(replacement)
        errata.append(Erratum(n=row.n, bad_value=row.p, reason=row.reason,
                              replacement=replacement, verified=verified))

    wieferich = [PrimitiveDivisorWitness(r.n, r.p, mersenne_valuation(r.p, r.n))
                 for r in rows if r.ok and pow(2, r.n, r.p * r.p) == 1]

    return PrimeTableReport(
        rows=rows,
        count_mismatches=count_mismatches,
        duplicates=duplicates,
        omitted=sorted(table.omitted),
        omitted_consistent=omitted_consistent,
        errata=errata,
        wieferich=wieferich,
    )
