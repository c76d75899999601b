"""Second-order Lucas sequences U_0=0, U_1=1, U_{n+1} = c*U_n + U_{n-1}.

c=4 gives the halved every-third-Fibonacci sequence (2*U_n = F_{3n}) whose
terms the residue-class certificates track; c=1 is Fibonacci itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import FactorBudget, factor, is_probable_prime


@dataclass(frozen=True)
class LucasSpec:
    """Recurrence parameter c >= 1 of U_{n+1} = c*U_n + U_{n-1}."""

    c: int = 4

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"recurrence parameter must be >= 1, got {self.c}")


def u_term(spec: LucasSpec, n: int) -> int:
    """Exact U_n by plain iteration (terms stay small enough here)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    x, y = 0, 1
    for _ in range(n):
        x, y = y, spec.c * y + x
    return x


def iter_terms_mod(spec: LucasSpec, m: int, count: int) -> list[int]:
    """[U_0 mod m, ..., U_{count-1} mod m] by iteration."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    out = []
    x, y = 0, 1 % m
    for _ in range(count):
        out.append(x)
        x, y = y, (spec.c * y + x) % m
    return out


def u_term_mod(spec: LucasSpec, n: int, m: int) -> int:
    """U_n mod m in O(log n) steps via 2x2 matrix powering.

    [[c,1],[1,0]]^n = [[U_{n+1}, U_n], [U_n, U_{n-1}]], so the off-diagonal
    entry of the powered matrix is the answer.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 0
    a, b, c2, d = spec.c % m, 1 % m, 1 % m, 0   # the companion matrix
    r00, r01, r10, r11 = 1 % m, 0, 0, 1 % m     # identity
    e = n
    while e:
        if e & 1:
            r00, r01, r10, r11 = (
                (r00 * a + r01 * c2) % m, (r00 * b + r01 * d) % m,
                (r10 * a + r11 * c2) % m, (r10 * b + r11 * d) % m)
        a, b, c2, d = (
            (a * a + b * c2) % m, (a * b + b * d) % m,
            (c2 * a + d * c2) % m, (c2 * b + d * d) % m)
        e >>= 1
    return r01


def period_mod(spec: LucasSpec, m: int, max_steps: int | None = None) -> int:
    """Least pi > 0 with (U_pi, U_{pi+1}) = (0, 1) mod m, found by iteration.

    The step (x, y) -> (y, c*y + x) is the matrix [[0, 1], [1, c]] of
    determinant -1, a unit mod m, so it permutes the m^2 pair states; the
    walk from (0, 1) therefore returns to (0, 1), and the whole sequence
    repeats mod m with this period.  With max_steps set, the walk raises
    ValueError as soon as the period is known to exceed it.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    x, y, n = 1, spec.c % m, 1
    while x != 0 or y != 1:
        if max_steps is not None and n >= max_steps:
            raise ValueError(f"period of U mod {m} exceeds {max_steps}")
        x, y = y, (spec.c * y + x) % m
        n += 1
    return n


def rank_of_apparition(spec: LucasSpec, p: int, search_bound: int) -> int | None:
    """Least n > 0 with p | U_n, or None if none occurs up to the bound."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    x, y = 0, 1 % p
    for n in range(1, search_bound + 1):
        x, y = y, (spec.c * y + x) % p
        if x == 0:
            return n
    return None


def is_primitive_divisor_u(spec: LucasSpec, p: int, n: int) -> bool:
    """True iff p divides U_n but none of U_1..U_{n-1}, i.e. rank(p) == n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return rank_of_apparition(spec, p, search_bound=n) == n


def find_primitive_divisors_u(
    spec: LucasSpec,
    n: int,
    budget: FactorBudget | None = None,
) -> tuple[list[int], int]:
    """Primitive prime divisors of U_n found within the factoring budget.

    Returns the primes of U_n whose rank of apparition is exactly n, in
    increasing order, and the cofactor of U_n left unfactored (1 when the
    list is provably exhaustive).
    """
    fz = factor(u_term(spec, n), budget)
    return [p for p in fz.primes() if is_primitive_divisor_u(spec, p, n)], fz.cofactor


def check_rank_periodicity(spec: LucasSpec, n: int, p: int) -> bool:
    """Verify that U is purely periodic mod p with period exactly n.

    Preconditions (checked, violations raise): n = 2 (mod 4), p prime, and p
    divides U_n but none of U_1..U_{n-1}.  Then rank(p) = n divides the
    period of U mod p, so the claim U_{kn+r} = U_r (mod p) for every k and r
    holds exactly when the period, computed by period_mod, is n.
    """
    if n <= 0 or n % 4 != 2:
        raise ValueError(f"index {n} is not = 2 (mod 4)")
    rank = rank_of_apparition(spec, p, n)
    # U is a divisibility sequence: p | U_n exactly when rank(p) | n
    if rank is None or n % rank:
        raise ValueError(f"{p} does not divide U_{n}")
    if rank != n:
        raise ValueError(f"{p} divides U_{rank}, so it is not primitive at {n}")
    try:
        return period_mod(spec, p, max_steps=n) == n
    except ValueError:   # the period exceeds n
        return False
