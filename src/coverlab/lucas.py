"""Lucas sequences U_0=0, U_1=1, U_{n+1} = c*U_n - Q*U_{n-1}.

With Q = -1 (the default), c=4 gives the halved every-third-Fibonacci
sequence (2*U_n = F_{3n}) whose terms the residue-class certificates track,
and c=1 is Fibonacci itself.  (c, Q) = (3, 2) gives U_n = 2^n - 1, so the
primitive-divisor finder of `mersenne` serves both families.  u_term_mod
jumps to U_n by Lucas's doubling identities on the pair (U_k, U_{k+1}); the
other walks step the recurrence one term at a time.  The module imports
only the standard library; every modulus m >= 2 is allowed, prime or not.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator


class LucasSpec(namedtuple("LucasSpec", "c Q")):
    """Parameters c and Q of U_{n+1} = c*U_n - Q*U_{n-1}.

    c >= 1 and c^2 > 4Q keep U_1, U_2, ... positive; Q != 0 and
    gcd(c, Q) = 1 are what the primitive-divisor theory assumes.
    """

    __slots__ = ()

    def __new__(cls, c: int = 4, Q: int = -1):
        if c < 1 or Q == 0 or c**2 <= 4 * Q or math.gcd(c, Q) != 1:
            raise ValueError(f"need c >= 1, c^2 > 4Q, Q != 0 and gcd(c, Q) = 1, "
                             f"got c = {c}, Q = {Q}")
        return super().__new__(cls, c, Q)


def u_terms(spec: LucasSpec) -> Iterator[int]:
    """The exact terms U_0, U_1, U_2, ... by plain iteration, without end."""
    c, Q = spec
    x, y = 0, 1
    while True:
        yield x
        x, y = y, c * y - Q * x


def iter_terms_mod(spec: LucasSpec, m: int, count: int) -> list[int]:
    """[U_0 mod m, ..., U_{count-1} mod m] by iteration."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    c, Q = spec
    out = []
    x, y = 0, 1 % m
    for _ in range(count):
        out.append(x)
        x, y = y, (c * y - Q * x) % m
    return out


def u_term_mod(spec: LucasSpec, n: int, m: int) -> int:
    """U_n mod m in O(log n) steps by the doubling chain on (U_k, U_{k+1}).

    Lucas's identities U_2k = U_k(2U_{k+1} - cU_k) and U_{2k+1} =
    U_{k+1}^2 - QU_k^2 take k to 2k for each bit of n, from the top; where
    the bit is 1, one recurrence step then takes 2k to 2k + 1.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if n < 0:
        raise ValueError("index must be nonnegative")
    c, Q = spec
    x, y = 0, 1 % m                      # (U_k, U_{k+1}) at k = 0
    for bit in bin(n)[2:]:
        x, y = x * (2 * y - c * x) % m, (y * y - Q * x * x) % m
        if bit == "1":
            x, y = y, (c * y - Q * x) % m
    return x


def period_mod(spec: LucasSpec, m: int, max_steps: int | None = None) -> int | None:
    """Least pi > 0 with (U_pi, U_{pi+1}) = (0, 1) mod m, found by iteration.

    The step (x, y) -> (y, c*y - Q*x) is the matrix [[0, 1], [-Q, c]] of
    determinant Q.  When Q is a unit mod m (checked) it permutes the m^2
    pair states; the walk from (0, 1) therefore returns to (0, 1), and the
    whole sequence repeats mod m with this period.  With max_steps set, the
    walk returns None as soon as the period is known to exceed it.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    c, Q = spec
    if math.gcd(Q, m) != 1:
        raise ValueError(f"Q = {Q} is not a unit mod {m}")
    x, y, n = 1, c % m, 1
    while x != 0 or y != 1:
        if max_steps is not None and n >= max_steps:
            return None
        x, y = y, (c * y - Q * x) % m
        n += 1
    return n


def rank_of_apparition(spec: LucasSpec, p: int, search_bound: int) -> int | None:
    """Least n > 0 with p | U_n, for any modulus p >= 2 (15 first divides
    U_20 for c = 1 and c = 4), or None if none occurs up to the bound."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    c, Q = spec
    x, y = 0, 1 % p
    for n in range(1, search_bound + 1):
        x, y = y, (c * y - Q * x) % p
        if x == 0:
            return n
    return None

