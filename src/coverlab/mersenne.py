"""Primitive prime divisors of Lucas sequences and the prime-table audit.

A prime p is a primitive divisor of U_n when it divides U_n but no U_m
with 0 < m < n, i.e. its rank of apparition is n.  2^n - 1 is the Lucas
sequence U_n(3, 2), `MERSENNE`, and there the rank is the multiplicative
order of 2 mod p.  `find_primitive_divisors` is the one finder for every
spec: it factors the primitive part of U_n.  The table audit's row check
applies the order rule on its own, with `arith.order_dividing`, and also
names why a row fails.  The errata search factors nothing: it walks the
progression q = 1 (mod step) that holds every prime of order n, testing
pow(2, n, q) before the row check, which each replacement must pass.  A
table prime whose prime certificate the caller has checked skips the
primality test.  The audit also names each table prime that is a Wieferich
prime.  Row checks compute orders modulo p; only a Wieferich row is lifted
to p^2, p^3, ... for its valuation.  The audit reports facts; `cli` decides
the verdicts.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple

from . import codec
from .arith import (DETERMINISTIC_LIMIT, RHO_ITERATIONS, factor, is_probable_prime,
                    order_dividing, prime_divisors)
from .covers import CoveringSystem
from .lucas import LucasSpec, rank_of_apparition, u_terms

MERSENNE = LucasSpec(3, 2)   # U_n = 2^n - 1

_ERRATA_STEPS = 10_000   # progression steps the errata walk takes


class PrimitiveDivisorWitness(NamedTuple):
    """(exponent n, prime p, valuation of p in U_n)."""

    n: int
    p: int
    alpha: int


class PrimeTable(NamedTuple):
    """Claimed primitive prime divisors per exponent, plus omitted exponents.

    `entries` maps n to the ordered list of claimed primes; `omitted` lists
    exponents whose (single) primitive prime is not recorded.
    """

    entries: dict[int, list[int]]
    omitted: list[int]

    def all_primes(self) -> list[int]:
        return [p for primes in self.entries.values() for p in primes]


def load_prime_table(path) -> PrimeTable:
    """Read a prime table; an exponent below 1 or listed twice is a FormatError."""
    raw = codec.load(path)
    entries: dict[int, list[int]] = {}
    for e in raw["entries"].list():
        n = e["n"].int()
        if n < 1:
            raise e["n"].error(f"exponent {n} < 1")
        if n in entries:
            raise e["n"].error(f"duplicate exponent {n}")
        entries[n] = [p.int() for p in e["primes"].list()]
    omitted = [n.int() for n in raw.get("omitted", []).list()]
    return PrimeTable(entries=entries, omitted=omitted)


def mersenne_valuation(p: int, n: int) -> int:
    """Largest a with p^a | 2^n - 1, by lifting the modulus p, p^2, ...

    Returns 0 when p does not divide 2^n - 1 at all.  The caller proves p prime.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
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


def cyclotomic_mersenne(n: int, spec: LucasSpec = MERSENNE) -> int:
    """The primitive part Phi_n of U_n: Phi_n(2) for the default spec.

    Computed as prod over d | n of U_d^moebius(n/d), in one pass of the
    recurrence up to U_n that keeps only those terms; moebius(n/d) is
    nonzero exactly when n/d is a product of a subset S of the distinct
    primes of n, with sign (-1)^|S|.  This carries exactly the prime factors
    of U_n whose rank of apparition is n, plus possibly primes that divide n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    primes = prime_divisors(n)
    odd = {n // math.prod(subset): size % 2   # index d -> is moebius(n/d) -1
           for size in range(len(primes) + 1) for subset in combinations(primes, size)}
    num = 1
    den = 1
    for d, term in zip(range(n + 1), u_terms(spec)):
        if d not in odd:
            continue
        if odd[d]:
            den *= term
        else:
            num *= term
    q, r = divmod(num, den)
    if r:
        raise AssertionError("cyclotomic product did not divide exactly")
    return q


def _step(n: int) -> int:
    """2n for odd n, n for even n: every odd prime of rank n is = +-1 mod it."""
    return 2 * n if n % 2 else n


def find_primitive_divisors(
    n: int,
    rho_iterations: int = RHO_ITERATIONS,
    spec: LucasSpec = MERSENNE,
) -> tuple[list[PrimitiveDivisorWitness], bool]:
    """All primitive prime divisors of U_n that factor() reaches with rho
    attempts of at most `rho_iterations` steps.

    Strategy: factor the primitive part Phi_n.  With D = c^2 - 4Q, an odd
    prime q of rank n that does not divide D has n | q - (D/q), so
    q = (D/q) (mod step), step = 2n for odd n and n otherwise: q = 1 when
    D is a square, as for 2^n - 1, and q = +-1 otherwise.  (2 has rank at
    most 3, and a prime of D has rank itself, so these few others are
    small.)  When D is a square, factor() is told the step: at the default
    rho_iterations it then runs P-1 before rho on each composite cofactor
    (for 2^n - 1 with n <= 136, P-1 splits all but two, a 36-bit one at
    n = 108 and a 26-bit one at n = 124, whose gcds give only the whole
    cofactor, so rho splits those).  Otherwise factor() gets
    step 2 and no P-1 runs.  Rho walks x^2 + c either way.

    A prime of Phi_n that does not divide n has rank exactly n (Carmichael
    1913, Annals 15); one that divides n is kept when rank_of_apparition
    says its rank is n.  Its alpha is its exponent in Phi_n, counted in the
    factorization and in any unfactored cofactor; a primitive prime divides
    no earlier term, so that is its valuation in U_n.  The boolean is True
    when the primitive part was factored completely, i.e. the witness list
    is provably exhaustive.  U_1 = 1 has no prime divisor, so n = 1 gives
    no witness and True.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    d = spec.c**2 - 4 * spec.Q
    square = math.isqrt(d) ** 2 == d
    sub = factor(cyclotomic_mersenne(n, spec), rho_iterations, _step(n) if square else 2)
    rest = sub.cofactor

    witnesses = []
    for p, alpha in sub.factors:
        if n % p == 0 and rank_of_apparition(spec, p, n) != n:
            continue
        while rest % p == 0:
            alpha += 1
            rest //= p
        witnesses.append(PrimitiveDivisorWitness(n=n, p=p, alpha=alpha))
    return witnesses, rest == 1


class TableRow(NamedTuple):
    """One audited table entry: `reason` is why it fails, "" if it passes;
    `proof` is how p's primality was decided: "deterministic" (below 2^64),
    "certified" (a checked Pocklington or N + 1 certificate) or "probable"
    (40 MR rounds)."""

    n: int
    p: int
    reason: str = ""
    proof: str = "deterministic"


class PrimeTableReport(NamedTuple):
    rows: list[TableRow]
    count_mismatches: list[tuple[int, int, int]]     # (n, listed, expected)
    duplicates: list[int]
    omitted_consistent: bool
    errata: list[tuple[TableRow, int | None]]        # (failing row, replacement)
    wieferich: list[PrimitiveDivisorWitness]         # passed rows with p^2 | 2^n - 1


def _row_reason(n: int, p: int, proven: frozenset[int] = frozenset()) -> str:
    """Why p cannot be a table prime for exponent n, or "" when it can.

    A p in `proven` is taken as prime without a primality test.
    """
    if p not in proven and not is_probable_prime(p):
        return "not prime"
    if p <= 5:
        return "not greater than 5"
    order = order_dividing(2, p, n)
    if order is None:
        return f"does not divide 2^{n}-1"
    if order != n:
        return f"order of 2 is {order}, not {n}"
    return ""


def _order_walk(n: int):
    """The primes q = k*step + 1, k = 1.._ERRATA_STEPS, that pass the row check at n.

    Every prime of order n is = 1 (mod step), so the walk yields, in
    increasing order, every table prime for n up to _ERRATA_STEPS * step + 1.
    pow(2, n, q) == 1 rejects most q before the primality test; neither
    Phi_n nor factor() is needed, so the cost does not grow with Phi_n.
    """
    step = _step(n)
    for q in range(step + 1, _ERRATA_STEPS * step + 2, step):
        if pow(2, n, q) == 1 and not _row_reason(n, q):
            yield q


def verify_prime_table(cover: CoveringSystem, table: PrimeTable,
                       proven: frozenset[int] = frozenset()) -> PrimeTableReport:
    """Audit a claimed prime table against a cover with odd moduli.

    Checks, per exponent n occurring among the cover moduli: the table lists
    exactly as many primes as n occurs; every listed p is prime, greater
    than 5, and has order of 2 exactly n.  Globally, all listed primes must
    be pairwise distinct, and the omitted exponents must be exactly the
    moduli with no listed primes, each occurring once.  Failing entries are
    treated as transcription errata: for each one the replacement is the
    least prime q = k*step + 1 with k <= _ERRATA_STEPS that passes the same
    row check and is not already listed or used, never silently substituted;
    where there is none the erratum's replacement is None.
    Each row that passed is also tested for Wieferich's condition
    2^(p-1) = 1 (mod p^2), in the cheaper form p^2 | 2^n - 1: the order of
    2 mod p^2 is n or n*p, and p does not divide p - 1, so both say it is n.
    A hit is recorded with its valuation.  A listed prime in `proven`,
    the primes whose certificates the caller has checked, skips the
    primality test; every other p at or above 2^64 takes its 40 rounds.
    The report holds these facts only; the caller decides what passes.
    """
    multiplicity = Counter(c.n for c in cover.classes)

    rows: list[TableRow] = []
    count_mismatches: list[tuple[int, int, int]] = []
    for n, primes in table.entries.items():
        expected = multiplicity[n]
        if len(primes) != expected:
            count_mismatches.append((n, len(primes), expected))
        for p in primes:
            reason = _row_reason(n, p, proven)
            proof = ("deterministic" if p < DETERMINISTIC_LIMIT
                     else "certified" if p in proven else "probable")
            rows.append(TableRow(n, p, reason, proof))

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

    errata = []
    taken = set(listed)
    for row in rows:
        if not row.reason:
            continue
        replacement = next((q for q in _order_walk(row.n) if q not in taken), None)
        if replacement is not None:
            taken.add(replacement)
        errata.append((row, replacement))

    wieferich = [PrimitiveDivisorWitness(r.n, r.p, mersenne_valuation(r.p, r.n))
                 for r in rows if not r.reason and pow(2, r.n, r.p * r.p) == 1]

    return PrimeTableReport(
        rows=rows,
        count_mismatches=count_mismatches,
        duplicates=duplicates,
        omitted_consistent=omitted_consistent,
        errata=errata,
        wieferich=wieferich,
    )
