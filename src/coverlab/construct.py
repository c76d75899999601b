"""CRT constructions of residue classes with controlled prime-divisor behavior.

Two builders live here:

* build_erdos_class -- the classical class of odd integers never of the form
  2^n + prime, pinned down by one congruence per class of the exponent cover
  plus the two side congruences mod 2 and mod 31; check_divisibility_mechanics
  confirms, along a window of exponents n, that the witness prime p_s of the
  first class containing n divides x - 2^n.
* build_two_prime_class -- the 25-prime intersection tracking the sequence
  u_n = F_{3n}/2: every member x satisfies x^2 = u_{2b_t} (mod p_t), which
  the certificate engine then turns into exclusion proofs.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import codec
from .arith import crt_combine, is_probable_prime
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .covers import (CoveringSystem, ResidueClass, build_doubled_cover, check_lcm,
                     read_classes, verify_cover)
from .lucas import LucasSpec, period_mod, rank_of_apparition, u_term_mod, u_terms

# The witness prime of each modulus n of the classical exponent cover: the
# (unique) prime of order exactly n, so it divides 2^a - 2^n on all of a(n).
ERDOS_WITNESS_PRIMES: dict[int, int] = {2: 3, 3: 7, 4: 5, 8: 17, 12: 13, 24: 241}


def erdos_witness_primes(cover: CoveringSystem) -> list[int]:
    """The witness prime of each class of an exponent cover, in class order.

    A modulus has one witness prime, and x is pinned modulo it by one class,
    so the first class whose modulus has no witness prime or repeats an
    earlier one is refused, as `$.classes[i].n` of the cover file."""
    unknown = sorted({c.n for c in cover.classes} - ERDOS_WITNESS_PRIMES.keys())
    for i, c in enumerate(cover.classes):
        if c.n in unknown:
            raise codec.Refusal(f"$.classes[{i}].n",
                                f"no witness prime for exponent moduli {unknown}")
        if any(d.n == c.n for d in cover.classes[:i]):
            raise codec.Refusal(f"$.classes[{i}].n", f"modulus {c.n} is repeated, so two "
                                f"classes share its witness prime {ERDOS_WITNESS_PRIMES[c.n]}")
    return [ERDOS_WITNESS_PRIMES[c.n] for c in cover.classes]


def build_erdos_class(cover: CoveringSystem, primes: list[int]) -> ResidueClass:
    """The classical class: x = 1 (mod 2), x = 3 (mod 31), x = 2^a (mod p).

    Any member x has p | x - 2^n for some cover prime p at every n >= 0,
    while x - 2^n = 3 - 2^n (mod 31) avoids every cover prime mod 31, so
    x - 2^n is never prime itself.  Class a(n) of `cover` gives one
    congruence, with p its prime in `primes` (`erdos_witness_primes(cover)`).
    """
    classes = [ResidueClass(1, 2), ResidueClass(3, 31)]
    classes += [ResidueClass(pow(2, c.a, p), p)
                for c, p in zip(cover.classes, primes, strict=True)]
    return crt_combine(classes)


# ---------------------------------------------------------------------------
# two-prime square class


class TwoPrimeData(NamedTuple):
    """Inputs of the 25-class intersection: odd cover, primes, residues.

    primes[0] = 2 pairs with the doubled cover's leading class 1(2);
    primes[t] for t >= 1 pairs with odd cover class b_t(m_t), and
    residues[t] is the constraint on x mod primes[t].
    """

    cover: CoveringSystem             # the 24 odd classes b_t(m_t)
    primes: list[int]                 # 25 pairwise distinct primes
    residues: list[ResidueClass]      # 25 classes r_t(p_t), aligned
    expected_a: int
    expected_m: int


def _check_two_prime(data: TwoPrimeData) -> None:
    """Refuse a two-prime file's first field that breaks a rule of the
    construction."""
    for i, c in enumerate(data.cover.classes):
        if c.n % 2 == 0:
            raise codec.Refusal(f"$.odd_cover[{i}].n",
                                f"modulus {c.n} is even; doubling needs odd moduli")
    if len(data.primes) != len(data.cover.classes) + 1:
        raise codec.Refusal("$.primes",
                            "need exactly one prime per cover class plus one for parity")
    if len(data.residues) != len(data.primes):
        raise codec.Refusal("$.residues", "need exactly one residue class per prime")
    for t, (p, r) in enumerate(zip(data.primes, data.residues)):
        if p in data.primes[:t]:
            raise codec.Refusal(f"$.primes[{t}]", f"prime {p} at position {t} is repeated")
        if not is_probable_prime(p):
            raise codec.Refusal(f"$.primes[{t}]", f"modulus {p} at position {t} is not prime")
        if r.n != p:
            raise codec.Refusal(f"$.residues[{t}].n",
                                f"residue class {t} has modulus {r.n}, expected {p}")


def load_two_prime_data(path) -> TwoPrimeData:
    raw = codec.load(path)
    return TwoPrimeData(
        cover=CoveringSystem(read_classes(raw["odd_cover"]), label=raw.get("label", "").str()),
        primes=[p.int() for p in raw["primes"].list()],
        residues=read_classes(raw["residues"]),
        expected_a=raw["expected_a"].int(),
        expected_m=raw["expected_m"].int(),
    )


class CheckRow(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _cover_row(name: str, system: CoveringSystem, budget: int) -> CheckRow:
    result = verify_cover(system, enumeration_budget=budget)
    detail = f"lcm {result.lcm}"
    if not result.is_cover:
        detail += f", {result.uncovered_witness} is uncovered"
    return CheckRow(name, result.is_cover, detail)


def build_two_prime_class(
    data: TwoPrimeData,
    enumeration_budget: int = 10**8,
) -> tuple[ResidueClass, list[CheckRow]]:
    """Intersect the 25 residue classes and verify the construction.

    Returns the class and one CheckRow per link of the proof, passed or
    not.  The rows: the odd classes cover Z, and so does their doubling
    {1(2)} + {2b_t(2m_t)} (`enumeration_budget` bounds both sieves); the
    period of u_n mod p_t divides the modulus of doubled class t, so u_n
    mod p_t is constant along that progression; and the rank of apparition
    of p_t is exactly that modulus.  Then: the computed class matches the
    expected a and M digit for digit; M is the product of the 25 primes; a
    is odd (so a^2 = u_1 = 1 mod 2); a^2 = u_{2b_t} (mod p_t) for every
    t >= 1; every member has absolute value > 2, so x^2 = u_n is
    impossible (the only squares with 2x^2 in the Fibonacci sequence are
    x = 0, 1, 2); and, by brute force, x = a has no x^2 - u_n = +-p_t^b
    with n <= 2000 on progression t and b <= 60.  Before anything is built,
    data that breaks a rule of `_check_two_prime` raises `codec.Refusal`, as
    does an odd cover whose lcm, or its doubling's, exceeds the budget: both
    name `$.odd_cover[t].n`, since class t + 1 of the doubling is odd class t.
    """
    _check_two_prime(data)
    doubled = build_doubled_cover(data.cover)
    for system in (data.cover, CoveringSystem(doubled.classes[1:])):   # 1(2) adds nothing
        check_lcm(system, enumeration_budget, field="$.odd_cover")

    spec = LucasSpec(4)
    pairs = list(zip(data.primes, doubled.classes))
    checks = [_cover_row("odd-cover", data.cover, enumeration_budget),
              _cover_row("doubled-cover", doubled, enumeration_budget)]
    for t, (p, c) in enumerate(pairs):
        # a period above c.n cannot divide it, so the walk stops there
        period = period_mod(spec, p, max_steps=c.n)
        checks.append(CheckRow(
            f"period t={t}", period is not None and c.n % period == 0,
            f"u_n mod {p} has period {period or f'> {c.n}'}, modulus {c.n}"))
    for t, (p, c) in enumerate(pairs):
        rank = rank_of_apparition(spec, p, c.n)
        checks.append(CheckRow(
            f"rank t={t}", rank == c.n,
            f"rank of {p} is {rank or f'> {c.n}'}, modulus {c.n}"))

    combined = crt_combine(data.residues)
    checks += [
        CheckRow("a-digit-exact", combined.a == data.expected_a, f"computed {combined.a}"),
        CheckRow("M-digit-exact", combined.n == data.expected_m, f"computed {combined.n}"),
        CheckRow("M-is-prime-product", combined.n == math.prod(data.primes)),
        CheckRow("a-odd", combined.a % 2 == 1, "x^2 = u_1 = 1 (mod 2) needs odd members"),
    ]
    for t, (p, c) in enumerate(pairs[1:], start=1):
        want = u_term_mod(spec, c.a, p)
        got = combined.a * combined.a % p
        checks.append(CheckRow(
            f"square-residue t={t}", got == want,
            f"a^2 = {got}, u_{c.a} = {want} (mod {p})"))
    smallest = min(combined.a % combined.n, combined.n - combined.a % combined.n)
    checks.append(CheckRow(
        "members-exceed-2", smallest > 2,
        f"smallest |member| is {smallest}"))
    hits = prime_power_hits(spec, combined.a, pairs, n_max=2000, b_max=60)
    checks.append(CheckRow(
        "brute-force-window", not hits,
        f"{len(hits)} hits, first x^2 - u_{hits[0][0]} = +-{hits[0][1]}^b" if hits
        else "no x^2 - u_n = +-p_t^b for n <= 2000, b <= 60"))
    return combined, checks


def prime_power_hits(spec: LucasSpec, x: int, pairs: list[tuple[int, ResidueClass]],
                     n_max: int, b_max: int) -> list[tuple[int, int]]:
    """Each (n, p) with x^2 - U_n = +-p^b for some 0 <= b <= b_max.

    A pair (p, c) tests the prime p at the indexes n <= n_max of the class
    c.  U_0..U_{n_max} are computed exactly in one pass of the recurrence
    and shared by all pairs.
    """
    terms = list(itertools.islice(u_terms(spec), n_max + 1))
    square = x * x
    hits = []
    for p, c in pairs:
        powers = {p**b for b in range(b_max + 1)}
        powers |= {-v for v in powers}
        hits += [(n, p) for n in range(c.a % c.n, n_max + 1, c.n)
                 if square - terms[n] in powers]
    return hits


# ---------------------------------------------------------------------------
# divisibility mechanics audit


def check_divisibility_mechanics(
    x_class: ResidueClass,
    cover: CoveringSystem,
    primes: list[int],
    n_range: range,
) -> list[tuple[int, str]]:
    """Each exponent n in `n_range` with no witness prime dividing x - 2^n,
    and why; [] when every n has one.

    For each n the first cover class a_s(n_s) containing n supplies its
    prime p_s; the check is p_s | x - 2^n, the premise of the construction
    (x = 2^{a_s} mod p_s with p_s | 2^{n_s} - 1).  The representative's
    x - 2^n is also compared exactly against 0 and +-p_s, ruling out the
    borderline cases where divisibility alone would not force compositeness.
    """
    if len(cover.classes) != len(primes):
        raise ValueError("need exactly one prime per cover class")
    for c, p in zip(cover.classes, primes):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if pow(2, c.n, p) != 1:
            raise ValueError(f"{p} does not divide 2^{c.n} - 1")
    failures = []
    for n in n_range:
        s = next((i for i, c in enumerate(cover.classes) if c.contains(n)), None)
        if s is None:
            failures.append((n, "not covered by any class"))
            continue
        p = primes[s]
        if (x_class.a - pow(2, n, p)) % p:
            failures.append((n, "congruence failed"))
        elif x_class.a - (1 << n) in (0, p, -p):
            failures.append((n, "difference equals the witness"))
    return failures
