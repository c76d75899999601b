"""Pocklington certificates: proofs that a large number is prime.

A certificate for N names a base a and distinct primes q_i with exponents
e_i >= 1 such that F = prod q_i^e_i divides N - 1 and F^2 > N.  When
a^(N-1) = 1 (mod N) and gcd(a^((N-1)/q_i) - 1, N) = 1 for every i, each
q_i^e_i divides the order of a modulo every prime p of N, so p = 1
(mod F) and p > F > sqrt(N): N is prime (Pocklington 1914; Brillhart,
Lehmer and Selfridge 1975, Math. Comp. 29, Theorem 4).  A q_i below 2^64
is proven by is_probable_prime, which is deterministic there; a q_i at or
above 2^64 carries a nested certificate of its own.  A check costs 1 + k
modular powerings for k primes q_i, against 40 for the Miller-Rabin test
at and above 2^64.

`build_certificate` makes one from what factor(N - 1) finds with a
capped rho.  The shipped file of table-prime certificates is regenerated
(about 30 s) with

    PYTHONPATH=src python -m coverlab.pocklington

which keeps every certificate already in the file that still checks and
builds only the missing or failing ones, so a regeneration never drops a
proof it could not rebuild.  factor() cannot split N - 1 for the primes at
n = 385, 455, 693, 715, 819 and the 142-bit prime at 825 within its
rho caps; their certificates were built the same way from sympy's
factorint (ECM), outside the package, in 0.4 to 64 s each on a 2 vCPU
Xeon, and are kept by every regeneration.  Only the checker is trusted,
never the factoring.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from . import codec
from .arith import DETERMINISTIC_LIMIT, factor, is_probable_prime

# Without a deadline in factor(), a smaller rho cap is what keeps the
# primes whose N - 1 will not split from running for minutes each.
_BUILD_RHO_ITERATIONS = 10**6


class Factor(NamedTuple):
    """q^e in the factored part of N - 1; `proof` certifies q >= 2^64."""

    q: int
    e: int
    proof: Certificate | None = None


class Certificate(NamedTuple):
    """A claimed proof that n is prime: a base and the factored part of n - 1."""

    n: int
    base: int
    factors: tuple[Factor, ...]


def check_certificate(cert: Certificate) -> str:
    """"" when `cert` proves cert.n prime, else the first condition that fails."""
    n = cert.n
    if n < 3:
        return f"N = {n} is below 3"
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
        # 2^e > N - 1 for e >= the bit length: no need to build a huge q^e
        if f.e >= n.bit_length() or (n - 1) % f.q**f.e:
            return f"{f.q}^{f.e} does not divide N - 1"
        part *= f.q**f.e
    if part * part <= n:
        return f"F^2 <= N for F = {part}"
    for f in cert.factors:
        why = _prime_proof_failure(f)
        if why:
            return why
    return _base_failure(n, cert.base, [f.q for f in cert.factors])


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
    return Certificate(field["n"].int(), field["base"].int(), tuple(factors))


def _layout(cert: Certificate) -> dict:
    factors = []
    for f in cert.factors:
        item = {"q": f.q, "e": f.e}
        if f.proof is not None:
            item["certificate"] = _layout(f.proof)
        factors.append(item)
    return {"n": cert.n, "base": cert.base, "factors": factors}


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
    primes = [p for p in table.all_primes() if p >= DETERMINISTIC_LIMIT]
    path = os.path.join(assets.asset_dir(), assets.PRIME_CERTIFICATES)
    current = load_certificates(path) if os.path.isfile(path) else {}
    certs = keep_or_build(primes, current)
    write_certificates(certs, path)
    print(f"certified {len(certs)} of {len(primes)} table primes at or above 2^64")


if __name__ == "__main__":
    _regenerate()
