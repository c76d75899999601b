"""CRT constructions of residue classes with controlled prime-divisor behavior.

Three builders live here:

* build_erdos_class -- the classical class of odd integers never of the form
  2^n + prime, pinned down by one congruence per class of the exponent cover
  plus the two side congruences mod 2 and mod 31.
* build_generalized_erdos -- the m-th-power generalization: from a cover with
  per-class primitive primes p_s and companion primes q_s (order of 2 equal
  to p_s^2), produce a class a(M) of odd x whose x^m - 2^n always keeps at
  least two distinct prime divisors.  Full scale is out of desk reach (the
  companions for large p_s are unobtainable); the shipped instance is the
  degenerate m=1 demo.
* build_two_prime_class -- the 25-prime intersection tracking the sequence
  u_n = F_{3n}/2: every member x satisfies x^2 = u_{2b_t} (mod p_t), which
  the certificate engine then turns into exclusion proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import codec
from .arith import crt_combine, is_probable_prime, jacobi
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .covers import CoveringSystem, ResidueClass, read_classes
from .lucas import LucasSpec, u_term_mod
from .mersenne import is_primitive_divisor, mersenne_valuation

# The classical exponent cover with its primitive primes: class a(n) of the
# exponent pairs with the (unique) prime of order exactly n.
ERDOS_EXPONENT_COVER: tuple[tuple[int, int, int], ...] = (
    (0, 2, 3),
    (0, 3, 7),
    (1, 4, 5),
    (3, 8, 17),
    (7, 12, 13),
    (23, 24, 241),
)


class MissingCompanionError(ValueError):
    """A generalized-Erdos instance lacks companion primes for some classes."""

    def __init__(self, missing: list[int]):
        self.missing = missing
        super().__init__(
            "missing companion prime q for p in "
            + ", ".join(str(p) for p in missing))


def build_erdos_class() -> ResidueClass:
    """The classical class: x = 1 (mod 2), x = 3 (mod 31), x = 2^a (mod p).

    Any member x has p | x - 2^n for some cover prime p at every n >= 0,
    while x - 2^n = 3 - 2^n (mod 31) avoids every cover prime mod 31, so
    x - 2^n is never prime itself.
    """
    classes = [ResidueClass(1, 2), ResidueClass(3, 31)]
    classes += [ResidueClass(pow(2, a, p), p) for a, _, p in ERDOS_EXPONENT_COVER]
    return crt_combine(classes)


def solve_b(m0: int, a_s: int, n_s: int) -> int:
    """Least b >= 0 with m0 * b = a_s (mod n_s); needs gcd(m0, n_s) = 1."""
    if n_s < 1:
        raise ValueError(f"modulus must be >= 1, got {n_s}")
    if math.gcd(m0, n_s) != 1:
        raise ValueError(f"gcd({m0}, {n_s}) != 1; no solution guaranteed")
    if n_s == 1:
        return 0
    return a_s * pow(m0, -1, n_s) % n_s


def _tonelli_sqrt(a: int, p: int) -> int | None:
    """One square root of a mod an odd prime p, or None if a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def pow_root_mod_prime_power(k: int, a: int, p: int, e: int) -> int:
    """Some x with x^k = a (mod p^e), for k a power of two and p an odd prime.

    Requires the solvability condition a^(phi/gcd(k, phi)) = 1 (mod p^e) with
    phi = p^(e-1)(p-1).  When the order of a is odd the root is a plain
    power of a; otherwise Tonelli-Shanks square roots are iterated (with the
    sign corrected so each intermediate stays a suitable power residue) and
    Hensel-lifted from p to p^e.
    """
    if k < 1 or k & (k - 1):
        raise ValueError(f"root degree must be a power of two, got {k}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if p < 3 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    pe = p**e
    a %= pe
    if k == 1:
        return a
    if a % p == 0:
        raise ValueError("base must be a unit modulo p")
    phi = pe // p * (p - 1)
    g = math.gcd(k, phi)
    if pow(a, phi // g, pe) != 1:
        raise ValueError(
            f"no {k}-th root of {a} modulo {p}^{e}: solvability condition fails")

    # odd-order fast path: x = a^(k^-1 mod w) whenever a^w = 1 for w the odd
    # part of phi
    w = phi
    while w % 2 == 0:
        w //= 2
    if pow(a, w, pe) == 1:
        x = pow(a, pow(k, -1, w), pe)
        return min(x, pe - x)

    alpha = k.bit_length() - 1
    cur = a % p
    for level in range(alpha):
        r = _tonelli_sqrt(cur, p)
        if r is None:
            raise ValueError(f"square-root chain failed for {a} modulo {p}")
        remaining = 1 << (alpha - level - 1)
        gr = math.gcd(remaining, p - 1)
        if pow(r, (p - 1) // gr, p) != 1:
            r = p - r
        cur = r
    x = cur
    # Hensel: f(x) = x^k - a has f'(x) = k x^(k-1), a unit mod p here
    prec = 1
    while prec < e:
        prec = min(2 * prec, e)
        mod = p**prec
        fx = (pow(x, k, mod) - a) % mod
        x = (x - fx * pow(k * pow(x, k - 1, mod) % mod, -1, mod)) % mod
    if pow(x, k, pe) != a:
        raise ValueError(f"root verification failed for {a} modulo {p}^{e}")
    return min(x, pe - x)


# ---------------------------------------------------------------------------
# two-prime square class


@dataclass
class TwoPrimeData:
    """Inputs of the 25-class intersection: odd cover, primes, residues.

    primes[0] = 2 pairs with the doubled cover's leading class 1(2);
    primes[t] for t >= 1 pairs with odd cover class b_t(m_t), and
    residues[t] is the constraint on x mod primes[t].
    """

    cover: CoveringSystem                 # the 24 odd classes b_t(m_t)
    primes: list[int]                     # 25 pairwise distinct primes
    residues: list[ResidueClass]          # 25 classes r_t(p_t), aligned
    expected_a: int
    expected_m: int
    label: str = ""


def load_two_prime_data(path) -> TwoPrimeData:
    raw = codec.load(path)
    label = raw.get("label", "").str()
    return TwoPrimeData(
        cover=CoveringSystem(read_classes(raw["odd_cover"]), label=label),
        primes=[p.int() for p in raw["primes"].list()],
        residues=read_classes(raw["residues"]),
        expected_a=raw["expected_a"].int(),
        expected_m=raw["expected_m"].int(),
        label=label,
    )


@dataclass
class CheckRow:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class TwoPrimeReport:
    checks: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckRow]:
        return [c for c in self.checks if not c.ok]


def build_two_prime_class(data: TwoPrimeData) -> tuple[ResidueClass, TwoPrimeReport]:
    """Intersect the 25 residue classes and verify the construction.

    The report asserts: the computed class matches the expected a and M
    digit for digit; M is the product of the 25 primes; a is odd (so
    a^2 = u_1 = 1 mod 2); a^2 = u_{2b_t} (mod p_t) for every t >= 1; and
    every member has absolute value > 2, so x^2 = u_n is impossible (the
    only squares with 2x^2 in the Fibonacci sequence are x = 0, 1, 2).
    """
    if len(data.primes) != len(data.cover.classes) + 1:
        raise ValueError("need exactly one prime per cover class plus one for parity")
    if len(data.residues) != len(data.primes):
        raise ValueError("need exactly one residue class per prime")
    if len(set(data.primes)) != len(data.primes):
        raise ValueError("the primes must be pairwise distinct")
    for t, (p, r) in enumerate(zip(data.primes, data.residues)):
        if r.n != p:
            raise ValueError(f"residue class {t} has modulus {r.n}, expected {p}")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} at position {t} is not prime")

    combined = crt_combine(data.residues)
    report = TwoPrimeReport()
    report.checks.append(CheckRow(
        "a-digit-exact", combined.a == data.expected_a,
        f"computed {combined.a}"))
    report.checks.append(CheckRow(
        "M-digit-exact", combined.n == data.expected_m,
        f"computed {combined.n}"))
    report.checks.append(CheckRow(
        "M-is-prime-product", combined.n == math.prod(data.primes)))
    report.checks.append(CheckRow(
        "a-odd", combined.a % 2 == 1,
        "x^2 = u_1 = 1 (mod 2) needs odd members"))
    spec = LucasSpec(4)
    for t in range(1, len(data.primes)):
        p = data.primes[t]
        b_t = data.cover.classes[t - 1].a
        want = u_term_mod(spec, 2 * b_t, p)
        got = combined.a * combined.a % p
        report.checks.append(CheckRow(
            f"square-residue t={t}", got == want,
            f"a^2 = {got}, u_{2 * b_t} = {want} (mod {p})"))
    smallest = min(combined.a % combined.n, combined.n - combined.a % combined.n)
    report.checks.append(CheckRow(
        "members-exceed-2", smallest > 2,
        f"smallest |member| is {smallest}"))
    return combined, report


# ---------------------------------------------------------------------------
# generalized construction for x^m - 2^n


@dataclass
class GeneralizedErdosClass:
    """One cover class a(n) with its primitive prime p and companion q.

    The companion must be a prime whose multiplicative order of 2 divides
    n * p^2 and is a multiple of p: then 2^n = 2^(m0*b) mod p^(a+2) forces
    the same congruence mod q, which is all the two-divisor argument uses.
    A primitive prime divisor of 2^(p^2) - 1 is the canonical choice; one
    of 2^p - 1 works equally and stays findable when p^2 is out of reach.
    q = None marks a companion that is not (yet) known.
    """

    a: int
    n: int
    p: int
    q: int | None


@dataclass
class GeneralizedErdosInstance:
    classes: list[GeneralizedErdosClass]
    m: int                  # the power being protected
    bound: int              # N: the construction serves all powers up to N
    label: str = ""


def load_generalized_erdos(path) -> GeneralizedErdosInstance:
    raw = codec.load(path)
    classes = []
    for c in raw["classes"].list():
        q = c.get("q", None)
        classes.append(GeneralizedErdosClass(
            a=c["a"].int(), n=c["n"].int(), p=c["p"].int(),
            q=None if q.value is None else q.int()))
    return GeneralizedErdosInstance(
        classes=classes, m=raw["m"].int(), bound=raw["bound"].int(),
        label=raw.get("label", "").str())


def build_generalized_erdos(instance: GeneralizedErdosInstance) -> ResidueClass:
    """CRT of 1+3*2^L (mod 2^2L) with x_s^b_s (mod p_s^(a_s+2)), y_s^b_s (mod q_s).

    Writing m = 2^alpha * m0 with m0 odd: b_s solves m0*b_s = a_s (mod n_s),
    x_s is a 2^alpha-th root of 2 mod p_s^(a_s+2), y_s one mod q_s, and L is
    the least integer with 2^L - 1 > max(16N, p_s^(a_s+1)).  Members x then
    satisfy x^m = 2^(m0 b_s) = 2^(a_s) times a unit pattern mod p_s^(a_s)
    for the class s covering n, which is what pins p_s | x^m - 2^n.
    """
    if instance.m < 1:
        raise ValueError("power m must be >= 1")
    if instance.bound < instance.m:
        raise ValueError("bound N must be at least m")
    missing = [c.p for c in instance.classes if c.q is None]
    if missing:
        raise MissingCompanionError(missing)

    alpha_m = (instance.m & -instance.m).bit_length() - 1
    m0 = instance.m >> alpha_m
    k = 1 << alpha_m

    alphas = []
    for c in instance.classes:
        if math.gcd(instance.m, c.n) != 1:
            raise ValueError(f"power m={instance.m} shares a factor with modulus {c.n}")
        if not is_primitive_divisor(c.p, c.n):
            raise ValueError(f"{c.p} is not a primitive divisor for exponent {c.n}")
        a_s = mersenne_valuation(c.p, c.n)
        alphas.append(a_s)
        if not is_probable_prime(c.q):
            raise ValueError(f"companion {c.q} is not prime")
        span = c.n * c.p * c.p
        if pow(2, span, c.q) != 1:
            raise ValueError(
                f"companion {c.q}: order of 2 does not divide {c.n}*{c.p}^2")
        # The order of 2 mod q divides n*p^2, and p does not divide n (n | p-1
        # for a primitive p), so p divides that order exactly when 2^n != 1.
        if pow(2, c.n, c.q) == 1:
            raise ValueError(
                f"companion {c.q} is not tied to {c.p}: 2^{c.n} = 1 (mod {c.q})")

    ceiling = max([16 * instance.bound]
                  + [c.p ** (a + 1) for c, a in zip(instance.classes, alphas)])
    L = 1
    while (1 << L) - 1 <= ceiling:
        L += 1

    parts = [ResidueClass((1 + 3 * (1 << L)) % (1 << (2 * L)), 1 << (2 * L))]
    for c, a_s in zip(instance.classes, alphas):
        b_s = solve_b(m0, c.a, c.n)
        pe = c.p ** (a_s + 2)
        x_s = pow_root_mod_prime_power(k, 2, c.p, a_s + 2)
        y_s = pow_root_mod_prime_power(k, 2 % c.q, c.q, 1)
        parts.append(ResidueClass(pow(x_s, b_s, pe), pe))
        parts.append(ResidueClass(pow(y_s, b_s, c.q), c.q))
    result = crt_combine(parts)
    expected_modulus = math.prod(part.n for part in parts)
    if result.n != expected_modulus:
        raise ValueError("CRT moduli were not pairwise coprime")
    return result


# ---------------------------------------------------------------------------
# divisibility mechanics audit


@dataclass
class MechanicsRow:
    n: int
    class_index: int | None
    prime: int | None
    congruence_ok: bool
    exact_ok: bool | None
    note: str = ""


@dataclass
class MechanicsReport:
    checked: int
    failures: list[MechanicsRow] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return not self.failures


def check_divisibility_mechanics(
    x_class: ResidueClass,
    cover: list[tuple[int, int]],
    primes: list[int],
    m: int,
    n_range: range,
) -> MechanicsReport:
    """Confirm, per exponent n, a witness prime dividing x^m - 2^n.

    For each n the first cover class a_s(n_s) containing n supplies its
    prime p_s; the check is x^m = 2^n (mod p_s^(alpha_s)) -- pure modular
    arithmetic, x^m is never materialized.  For m = 1 the representative is
    additionally compared exactly against 0 and +-p_s, ruling out the
    borderline cases where divisibility alone would not force compositeness.
    """
    if len(cover) != len(primes):
        raise ValueError("need exactly one prime per cover class")
    alphas = [mersenne_valuation(p, n_s) for (_, n_s), p in zip(cover, primes)]
    if any(a == 0 for a in alphas):
        bad = [p for p, a in zip(primes, alphas) if a == 0]
        raise ValueError(f"primes {bad} do not divide their 2^n - 1")
    moduli = [p**a for p, a in zip(primes, alphas)]
    report = MechanicsReport(checked=0)
    for n in n_range:
        report.checked += 1
        s = next((i for i, (a_s, n_s) in enumerate(cover) if (n - a_s) % n_s == 0),
                 None)
        if s is None:
            report.failures.append(MechanicsRow(
                n, None, None, False, None, "not covered by any class"))
            continue
        pa = moduli[s]
        cong = pow(x_class.a, m, pa) == pow(2, n, pa)
        exact: bool | None = None
        if m == 1:
            diff = x_class.a - (1 << n)
            exact = diff not in (0, primes[s], -primes[s])
        if not cong or exact is False:
            report.failures.append(MechanicsRow(
                n, s, primes[s], cong, exact,
                "congruence failed" if not cong else "difference equals the witness"))
    return report
