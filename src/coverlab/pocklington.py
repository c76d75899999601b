"""Prime certificates: proofs that a large number is prime.

A Pocklington certificate for N names a base a and distinct primes q_i
with exponents e_i >= 1 such that F = prod q_i^e_i divides N - 1 and
F^2 > N.  When a^(N-1) = 1 (mod N) and gcd(a^((N-1)/q_i) - 1, N) = 1 for
every i, each q_i^e_i divides the order of a modulo every prime p of N, so
p = 1 (mod F) and p > F > sqrt(N): N is prime (Pocklington 1914;
Brillhart, Lehmer and Selfridge 1975, Math. Comp. 29, Theorem 4).

An N + 1 certificate names a Lucas parameter c in place of the base, for
U_n of LucasSpec(c, -1) with discriminant D = c^2 + 4, and the q_i^e_i
divide N + 1 with (F - 1)^2 > N.  When N is odd, gcd(N, D) = 1,
U_(N+1) = 0 (mod N) and gcd(U_((N+1)/q_i), N) = 1 for every i, each
q_i^e_i divides the rank of apparition of every prime p of N, which
divides p - (D/p); so p >= F - 1 > sqrt(N) and N is prime (Morrison 1975,
Math. Comp. 29; Brillhart, Lehmer and Selfridge 1975, Theorem 15).

Either way a q_i below 2^64 is proven by is_probable_prime, which is
deterministic there, and a q_i at or above 2^64 carries a nested
certificate of either kind.  A check costs 1 + k modular powerings, or
1 + k Lucas chains of three products per bit, for k primes q_i,
against 40 powerings for the Miller-Rabin test at and above 2^64.

`build_certificate` makes a Pocklington certificate from what factor(N - 1)
finds with a capped rho.  The shipped file of table-prime certificates is
regenerated (about 18 s) with

    PYTHONPATH=src python -m coverlab.pocklington

which keeps every certificate already in the file that still checks and
builds only the missing or failing ones, so a regeneration never drops a
proof it could not rebuild, and names each table prime it leaves
uncertified.  factor() cannot split N - 1 for the primes at n = 385, 455,
693, 715, 819 and the 142-bit prime at 825 within its rho caps; their
certificates were built the same way from sympy's factorint (ECM), outside
the package, in 0.4 to 64 s each on a 2 vCPU Xeon, and are kept by every
regeneration.  The N + 1 certificate of the 252-bit prime at n = 975 was
built outside the package too, from factorint(N + 1) in 4.7 s: its 151-bit
prime alone gives (F - 1)^2 > N and has a nested Pocklington certificate,
and c is the least c >= 1 that meets the conditions.  Only the checker is
trusted, never the factoring.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from . import codec
from .arith import DETERMINISTIC_LIMIT, factor, is_probable_prime
from .lucas import LucasSpec, u_term_mod

# Without a deadline in factor(), a smaller rho cap is what keeps the
# primes whose N - 1 will not split from running for minutes each.
_BUILD_RHO_ITERATIONS = 10**6


class Factor(NamedTuple):
    """q^e in the factored part of N - 1 or N + 1; `proof` certifies q >= 2^64."""

    q: int
    e: int
    proof: Certificate | None = None


class Certificate(NamedTuple):
    """A claimed proof that n is prime: a base and the factored part of
    n - 1, or, when lucas_c is set, c and the factored part of n + 1."""

    n: int
    base: int | None
    factors: tuple[Factor, ...]
    lucas_c: int | None = None


def check_certificate(cert: Certificate) -> str:
    """"" when `cert` proves cert.n prime, else the first condition that fails."""
    n = cert.n
    if n < 3:
        return f"N = {n} is below 3"
    plus = cert.lucas_c is not None
    if plus and n % 2 == 0:
        return f"N = {n} is even"
    side, name = (n + 1, "N + 1") if plus else (n - 1, "N - 1")
    seen: set[int] = set()
    part = 1
    for f in cert.factors:
        if f.q in seen:
            return f"q = {f.q} is listed twice"
        seen.add(f.q)
        if f.q < 2:
            return f"q = {f.q} is below 2"
        if f.e < 1:
            return f"q = {f.q} has exponent {f.e} < 1"
        # 2^e > side once e reaches its bit length: no need to build a huge q^e
        if f.e >= side.bit_length() or side % f.q**f.e:
            return f"{f.q}^{f.e} does not divide {name}"
        part *= f.q**f.e
    if plus and (part - 1)**2 <= n:
        return f"(F - 1)^2 <= N for F = {part}"
    if part * part <= n:
        return f"F^2 <= N for F = {part}"
    for f in cert.factors:
        why = _prime_proof_failure(f)
        if why:
            return why
    qs = [f.q for f in cert.factors]
    return _lucas_failure(n, cert.lucas_c, qs) if plus else _base_failure(n, cert.base, qs)


def _prime_proof_failure(f: Factor) -> str:
    """Why q is not proven prime, or "" when it is."""
    if f.proof is None:
        if f.q >= DETERMINISTIC_LIMIT:
            return f"q = {f.q} is at or above 2^64 and has no certificate"
        return "" if is_probable_prime(f.q) else f"q = {f.q} is not prime"
    if f.proof.n != f.q:
        return f"the certificate for q = {f.q} is for {f.proof.n}"
    why = check_certificate(f.proof)
    return f"q = {f.q}: {why}" if why else ""


def _base_failure(n: int, a: int, qs: list[int]) -> str:
    """Why base a fails Pocklington's conditions for N and the q_i, or ""."""
    if pow(a, n - 1, n) != 1:
        return f"base {a}: a^(N-1) is not 1 mod N"
    for q in qs:
        if math.gcd(pow(a, (n - 1) // q, n) - 1, n) != 1:
            return f"base {a}: gcd(a^((N-1)/{q}) - 1, N) is not 1"
    return ""


def _lucas_failure(n: int, c: int, qs: list[int]) -> str:
    """Why U of LucasSpec(c, -1) fails Morrison's conditions for N and the
    q_i, or ""."""
    if c < 1:
        return f"lucas_c = {c} is below 1"
    if math.gcd(n, c * c + 4) != 1:
        return f"lucas_c {c}: gcd(N, c^2 + 4) is not 1"
    spec = LucasSpec(c, -1)
    if u_term_mod(spec, n + 1, n):
        return f"lucas_c {c}: U_(N+1) is not 0 mod N"
    for q in qs:
        if math.gcd(u_term_mod(spec, (n + 1) // q, n), n) != 1:
            return f"lucas_c {c}: gcd(U_((N+1)/{q}), N) is not 1"
    return ""


def build_certificate(n: int) -> Certificate | None:
    """A certificate for the prime n, or None when factor(n - 1) finds too little.

    The primes of n - 1 that factor() finds with 10^6 rho iterations are taken
    largest first until F^2 > n; one at or above 2^64 is taken only when
    it gets a certificate of its own, built the same way.  The base is the
    least a >= 2 that meets the conditions, searched below 1000.
    """
    found = factor(n - 1, _BUILD_RHO_ITERATIONS)
    factors: list[Factor] = []
    part = 1
    for q, e in reversed(found.factors):
        if part * part > n:
            break
        proof = None
        if q >= DETERMINISTIC_LIMIT:
            proof = build_certificate(q)
            if proof is None:
                continue
        factors.append(Factor(q, e, proof))
        part *= q**e
    if part * part <= n:
        return None
    factors.reverse()
    qs = [f.q for f in factors]
    base = next((a for a in range(2, 1000) if not _base_failure(n, a, qs)), None)
    return None if base is None else Certificate(n, base, tuple(factors))


def load_certificates(path) -> dict[int, Certificate]:
    """Read a certificate file; an N certified twice is a FormatError."""
    raw = codec.load(path)
    out: dict[int, Certificate] = {}
    for entry in raw["certificates"].list():
        cert = _read(entry)
        if cert.n in out:
            raise entry["n"].error(f"N = {cert.n} is certified twice")
        out[cert.n] = cert
    return out


def _read(field: codec.Field) -> Certificate:
    factors = []
    for f in field["factors"].list():
        nested = f.get("certificate", None)
        factors.append(Factor(f["q"].int(), f["e"].int(),
                              None if nested.value is None else _read(nested)))
    n, c = field["n"].int(), field.get("lucas_c", None)
    if c.value is None:
        return Certificate(n, field["base"].int(), tuple(factors))
    return Certificate(n, None, tuple(factors), c.int())


def _layout(cert: Certificate) -> dict:
    factors = []
    for f in cert.factors:
        item = {"q": f.q, "e": f.e}
        if f.proof is not None:
            item["certificate"] = _layout(f.proof)
        factors.append(item)
    if cert.lucas_c is None:
        return {"n": cert.n, "base": cert.base, "factors": factors}
    return {"n": cert.n, "lucas_c": cert.lucas_c, "factors": factors}


def write_certificates(certs: list[Certificate], path) -> None:
    codec.dump({"certificates": [_layout(c) for c in certs]}, path)


def keep_or_build(primes: list[int],
                  current: dict[int, Certificate]) -> list[Certificate]:
    """Certificates for `primes`, in their order: a current one that checks is
    kept, any other is built afresh, and a prime neither gives is left out."""
    certs = []
    for p in primes:
        cert = current.get(p)
        if cert is None or check_certificate(cert):
            cert = build_certificate(p)
        if cert is not None:
            certs.append(cert)
    return certs


def _regenerate() -> None:
    """Certify every table prime at or above 2^64 that the budget allows,
    keeping each certificate of the current file that checks."""
    from . import assets
    from .mersenne import load_prime_table
    table = load_prime_table(assets.asset_path(assets.PRIME_TABLE))
    large = [(n, p) for n, ps in table.entries.items() for p in ps
             if p >= DETERMINISTIC_LIMIT]
    path = os.path.join(assets.asset_dir(), assets.PRIME_CERTIFICATES)
    current = load_certificates(path) if os.path.isfile(path) else {}
    certs = keep_or_build([p for _, p in large], current)
    write_certificates(certs, path)
    print(f"certified {len(certs)} of {len(large)} table primes at or above 2^64")
    certified = {c.n for c in certs}
    for n, p in large:
        if p not in certified:
            print(f"uncertified: n = {n}, {p.bit_length()} bits, p = {p}")


if __name__ == "__main__":
    _regenerate()
