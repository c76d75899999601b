import json
import random

import pytest

from coverlab import assets, codec, pocklington
from coverlab.mersenne import load_prime_table
from coverlab.arith import DETERMINISTIC_LIMIT, Factorization, factor, is_probable_prime
from coverlab.lucas import LucasSpec, u_term_mod
from coverlab.pocklington import (Certificate, Factor, build_certificate,
                                  check_certificate, keep_or_build,
                                  load_certificates, write_certificates)


def _shipped():
    return load_certificates(assets.asset_path(assets.PRIME_CERTIFICATES))


def _large_table_primes():
    table = load_prime_table(assets.asset_path(assets.PRIME_TABLE))
    return [p for p in table.all_primes() if p >= DETERMINISTIC_LIMIT]


def _nested():
    """A shipped Pocklington certificate whose one factor carries a nested
    certificate."""
    return next(c for c in _shipped().values() if c.lucas_c is None
                and len(c.factors) == 1 and c.factors[0].proof is not None)


def _plus():
    """The shipped N + 1 certificate, of the 252-bit table prime at n = 975."""
    [cert] = [c for c in _shipped().values() if c.lucas_c is not None]
    return cert


def _flat():
    """A shipped certificate with two factors below 2^64."""
    return next(c for c in _shipped().values()
                if len(c.factors) == 2 and all(f.proof is None for f in c.factors))


def test_every_shipped_certificate_checks():
    certs = _shipped()
    assert all(check_certificate(c) == "" for c in certs.values())
    large = _large_table_primes()
    assert len(large) == 44
    assert set(certs) <= set(large)
    assert len(certs) == 42


def test_every_shipped_certificate_is_for_a_sympy_prime():
    sympy = pytest.importorskip("sympy")

    def walk(cert):
        yield cert.n
        for f in cert.factors:
            yield f.q
            if f.proof is not None:
                yield from walk(f.proof)

    for cert in _shipped().values():
        assert all(sympy.isprime(x) for x in walk(cert))


def test_rebuilding_the_shipped_certificates_below_2_100_gives_them_exactly():
    small = [c for c in _shipped().values() if c.n < 1 << 100]
    assert len(small) >= 15
    for cert in small:
        assert build_certificate(cert.n) == cert


def test_build_certificate_skips_an_unproven_large_q_and_gives_up_on_too_little(monkeypatch):
    # N - 1 = 2^117 * q with q = 2^64 + 13 prime and 2^117 > q: with q - 1
    # left unsplit, q gets no certificate of its own and is skipped, and
    # 2^117 alone proves N
    q = DETERMINISTIC_LIMIT + 13
    n = (q << 117) + 1
    assert is_probable_prime(q) and is_probable_prime(n)
    monkeypatch.setattr(pocklington, "factor", lambda m, budget: (
        Factorization(((2, 117), (q, 1))) if m == n - 1 else Factorization((), m)))
    cert = build_certificate(n)
    assert cert.factors == (Factor(2, 117, None),) and check_certificate(cert) == ""
    # a factored part of N - 1 at most sqrt(N) gives no certificate
    monkeypatch.setattr(pocklington, "factor",
                        lambda m, budget: Factorization(((2, 1),), m // 2))
    assert build_certificate(n) is None


def test_repeated_q_rejected():
    # N - 1 = q * m with q exactly once and q^2 < N < q^4: listed once q
    # is too small, listed twice it would pass every other condition
    q = 1048583
    assert is_probable_prime(q)
    m = next(m for m in range(1 << 30, 1 << 31, 2)
             if m % q and is_probable_prime(q * m + 1))
    n = q * m + 1
    once = Certificate(n, 3, (Factor(q, 1),))
    assert check_certificate(once).startswith("F^2 <= N")
    twice = Certificate(n, 3, (Factor(q, 1), Factor(q, 1)))
    assert check_certificate(twice) == f"q = {q} is listed twice"


def test_exponent_that_does_not_divide_n_minus_1_rejected():
    cert = _flat()
    first = cert.factors[0]
    bumped = cert._replace(factors=(first._replace(e=first.e + 1), *cert.factors[1:]))
    assert check_certificate(bumped) == f"{first.q}^{first.e + 1} does not divide N - 1"
    zero = cert._replace(factors=(first._replace(e=0), *cert.factors[1:]))
    assert check_certificate(zero) == f"q = {first.q} has exponent 0 < 1"
    huge = cert._replace(factors=(first._replace(e=10**18), *cert.factors[1:]))
    assert check_certificate(huge) == f"{first.q}^{10**18} does not divide N - 1"
    for q in (0, 1, -1):
        low = cert._replace(factors=(first._replace(q=q), *cert.factors[1:]))
        assert check_certificate(low) == f"q = {q} is below 2"


def test_factored_part_at_most_sqrt_n_rejected():
    cert = _flat()
    short = cert._replace(factors=cert.factors[:1])
    assert check_certificate(short).startswith("F^2 <= N")


def test_base_that_fails_the_gcd_condition_rejected():
    cert = _flat()
    q = cert.factors[0].q
    # a q-th power is 1 when raised to (N-1)/q
    power = cert._replace(base=pow(5, q, cert.n))
    assert check_certificate(power).endswith(f"gcd(a^((N-1)/{q}) - 1, N) is not 1")
    # 2 has order n | (N-1)/q for a table prime of exponent n
    assert "gcd" in check_certificate(cert._replace(base=2))
    assert check_certificate(cert._replace(base=cert.n)) == (
        f"base {cert.n}: a^(N-1) is not 1 mod N")


def test_nested_certificate_for_the_wrong_number_rejected():
    cert = _nested()
    other = _nested_for_another_number(cert)
    f = cert.factors[0]
    swapped = cert._replace(factors=(f._replace(proof=other),))
    assert check_certificate(swapped) == (
        f"the certificate for q = {f.q} is for {other.n}")


def _nested_for_another_number(cert):
    return next(c.factors[0].proof for c in _shipped().values()
                if c.factors[0].proof is not None and c.factors[0].q != cert.factors[0].q)


def test_large_q_without_nested_certificate_rejected():
    cert = _nested()
    f = cert.factors[0]
    bare = cert._replace(factors=(f._replace(proof=None),))
    assert check_certificate(bare) == (
        f"q = {f.q} is at or above 2^64 and has no certificate")


def test_nested_failure_names_the_inner_condition():
    cert = _nested()
    f = cert.factors[0]
    broken = cert._replace(factors=(f._replace(proof=f.proof._replace(base=f.q)),))
    assert check_certificate(broken) == (
        f"q = {f.q}: base {f.q}: a^(N-1) is not 1 mod N")


def test_carmichael_number_with_a_forged_chain_rejected():
    # (6k+1)(12k+1)(18k+1) with all three prime is a Carmichael number:
    # a^(N-1) = 1 for every base prime to N, so only the gcd condition stands
    k = next(k for k in range(10**6, 10**7)
             if all(is_probable_prime(j * k + 1) for j in (6, 12, 18)))
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert not is_probable_prime(n)
    full = factor(n - 1)
    assert full.complete
    factors = tuple(Factor(q, e) for q, e in full.factors)
    for a in range(2, 300):
        if a % 2 and n % a:
            assert pow(a, n - 1, n) == 1
        assert check_certificate(Certificate(n, a, factors)) != ""
    # a composite q certified by a forged chain of its own
    m = next(m for m in range(2, 10**4, 2) if is_probable_prime(n * m + 1))
    outer = n * m + 1
    chain = Certificate(outer, 3, (Factor(n, 1, Certificate(n, 3, factors)),))
    assert check_certificate(chain).startswith(f"q = {n}: base 3: ")
    small = Certificate(561 * 2 + 1, 3, (Factor(561, 1),))
    assert check_certificate(small) == "q = 561 is not prime"


def test_n_below_3_rejected():
    assert check_certificate(Certificate(1, 2, ())) == "N = 1 is below 3"


def _sympy_factors(sympy, n):
    """The factors of n - 1 from sympy's trial division up to 2^16, each
    prime at or above 2^64 with its own certificate; None unless the
    division leaves a prime."""
    found = sympy.factorint(n - 1, limit=1 << 16, use_rho=False, use_pm1=False,
                            use_ecm=False)
    if not all(sympy.isprime(q) for q in found):
        return None
    factors = []
    for q, e in sorted(found.items()):
        proof = None
        if q >= DETERMINISTIC_LIMIT:
            inner = _sympy_factors(sympy, q)
            if inner is None:
                return None
            proof = Certificate(q, sympy.primitive_root(q), inner)
        factors.append(Factor(q, e, proof))
    return tuple(factors)


def test_sympy_built_certificates_pass_and_composites_never_do():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    primes = composites = 0
    while primes < 12:
        bits = rng.randint(70, 200)
        n = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        factors = _sympy_factors(sympy, n)
        if factors is not None:
            primes += 1
            # a primitive root meets every condition
            assert check_certificate(Certificate(n, sympy.primitive_root(n), factors)) == ""
    while composites < 12:
        bits = rng.randint(70, 200)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        factors = _sympy_factors(sympy, n)
        if factors is not None and not sympy.isprime(n):
            composites += 1
            # N - 1 is factored completely: only the base conditions can fail
            for a in rng.sample(range(2, 10**6), 20):
                assert check_certificate(Certificate(n, a, factors)) != ""


def test_the_shipped_n_plus_1_certificate_proves_the_975_prime():
    table = load_prime_table(assets.asset_path(assets.PRIME_TABLE))
    cert = _plus()
    assert cert.n in table.entries[975] and cert.n.bit_length() == 252
    assert (cert.base, cert.lucas_c) == (None, 5)
    [f] = cert.factors
    assert (f.q.bit_length(), f.e) == (151, 1) and f.proof.lucas_c is None
    assert check_certificate(cert) == ""
    # a Pocklington certificate may nest it: N' - 1 = k * N
    k = next(k for k in range(2, 10**4, 2) if is_probable_prime(k * cert.n + 1))
    outer = Certificate(k * cert.n + 1, None, (Factor(cert.n, 1, cert),))
    base = next(a for a in range(2, 100)
                if not check_certificate(outer._replace(base=a)))
    assert check_certificate(outer._replace(base=base)) == ""
    broken = outer._replace(base=base, factors=(
        Factor(cert.n, 1, cert._replace(lucas_c=cert.lucas_c + 1)),))
    assert check_certificate(broken).startswith(f"q = {cert.n}: lucas_c ")


def _sqrt_minus_1(n):
    """x with x^2 = -1 mod the prime n = 1 mod 4."""
    return next(x for x in (pow(a, (n - 1) // 4, n) for a in range(2, 100))
                if x * x % n == n - 1)


def _planted_n_plus_1_faults():
    """Each planted fault: (certificate, the condition it must fail)."""
    cert = _plus()
    n, [f] = cert.n, cert.factors
    # 41 + 1 = 6 * 7: F = 7 has F^2 > 41 but (F - 1)^2 = 36 <= 41
    assert is_probable_prime(41)
    # D = c^2 + 4 a square mod N: U_(N-1), not U_(N+1), is 0 mod N
    square = next(c for c in range(1, 100) if pow(c * c + 4, (n - 1) // 2, n) == 1)
    # the Fibonacci pseudoprime 323 = 17 * 19 has U_324 = 0 mod 323, and
    # F = 324 = 2^2 * 3^4 passes every size condition
    assert u_term_mod(LucasSpec(1, -1), 324, 323) == 0
    # c^2 = -4 mod N for c = 2 sqrt(-1)
    root = 2 * _sqrt_minus_1(n) % n
    return {
        "small F": (Certificate(41, None, (Factor(7, 1),), 1), "(F - 1)^2 <= N for F = 7"),
        "wrong c": (cert._replace(lucas_c=square),
                    f"lucas_c {square}: U_(N+1) is not 0 mod N"),
        "fibonacci pseudoprime": (Certificate(323, None, (Factor(2, 2), Factor(3, 4)), 1),
                                  "lucas_c 1: gcd(U_((N+1)/2), N) is not 1"),
        "q not dividing N + 1": (cert._replace(factors=(f, Factor(3, 1))),
                                 "3^1 does not divide N + 1"),
        "large q without certificate": (cert._replace(factors=(f._replace(proof=None),)),
                                        f"q = {f.q} is at or above 2^64 and has no certificate"),
        "c^2 + 4 not prime to N": (cert._replace(lucas_c=root),
                                   f"lucas_c {root}: gcd(N, c^2 + 4) is not 1"),
        "even N": (Certificate(8, None, (Factor(3, 2),), 1), "N = 8 is even"),
        "c below 1": (cert._replace(lucas_c=0), "lucas_c = 0 is below 1"),
    }


@pytest.mark.parametrize("fault", [
    "small F", "wrong c", "fibonacci pseudoprime", "q not dividing N + 1",
    "large q without certificate", "c^2 + 4 not prime to N", "even N", "c below 1"])
def test_n_plus_1_certificate_fault_names_its_condition(fault):
    cert, why = _planted_n_plus_1_faults()[fault]
    assert check_certificate(cert) == why


def _sympy_plus_factors(sympy, n):
    """The factors of n + 1 from sympy's trial division up to 2^16, each
    prime at or above 2^64 with a Pocklington certificate of its own; None
    unless the division leaves a prime.  For n = 1 mod 4 the factor 2 is
    left out: with Q = -1 a square mod a prime n, U_((n+1)/2) = 0 mod n for
    every c with (c^2 + 4 | n) = -1 (Euler's criterion for Lucas sequences),
    so no c could meet its gcd condition."""
    found = sympy.factorint(n + 1, limit=1 << 16, use_rho=False, use_pm1=False,
                            use_ecm=False)
    if not all(sympy.isprime(q) for q in found):
        return None
    factors = []
    for q, e in sorted(found.items()):
        if q == 2 and n % 4 == 1:
            continue
        proof = None
        if q >= DETERMINISTIC_LIMIT:
            inner = _sympy_factors(sympy, q)
            if inner is None:
                return None
            proof = Certificate(q, sympy.primitive_root(q), inner)
        factors.append(Factor(q, e, proof))
    return tuple(factors)


def test_sympy_built_n_plus_1_certificates_pass_and_composites_never_do():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(40)
    primes = composites = 0
    while primes < 12:
        bits = rng.randint(70, 200)
        n = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
        factors = _sympy_plus_factors(sympy, n)
        if factors is not None:
            primes += 1
            # some c below 1000 meets every condition for a prime
            assert any(check_certificate(Certificate(n, None, factors, c)) == ""
                       for c in range(1, 1000)), n
    while composites < 12:
        bits = rng.randint(70, 200)
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        factors = _sympy_plus_factors(sympy, n)
        if factors is not None and not sympy.isprime(n):
            composites += 1
            # N + 1 is factored but for 2: only the Lucas conditions can fail
            for c in [1, *rng.sample(range(2, 10**6), 20)]:
                assert check_certificate(Certificate(n, None, factors, c)).startswith(
                    f"lucas_c {c}: ")


def test_certificates_round_trip_through_the_file(tmp_path):
    certs = list(_shipped().values())
    path = tmp_path / "certs.json"
    write_certificates(certs, path)
    assert list(load_certificates(path).values()) == certs
    with open(assets.asset_path(assets.PRIME_CERTIFICATES), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_regeneration_keeps_every_checked_certificate_in_table_order(tmp_path, monkeypatch):
    # nothing can be rebuilt, and the file to regenerate from is in reverse
    # order: every shipped certificate is still kept, in table order, and
    # only the primes without one are sent to build_certificate
    asked = []
    monkeypatch.setattr(pocklington, "build_certificate", lambda n: asked.append(n))
    shipped = _shipped()
    path = tmp_path / "certs.json"
    write_certificates(list(reversed(shipped.values())), path)
    primes = _large_table_primes()
    write_certificates(keep_or_build(primes, load_certificates(path)), path)
    assert asked == [p for p in primes if p not in shipped]
    assert list(load_certificates(path)) == [p for p in primes if p in shipped]
    with open(assets.asset_path(assets.PRIME_CERTIFICATES), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_regeneration_rebuilds_or_drops_a_certificate_that_fails(tmp_path, monkeypatch):
    flat, nested = _flat(), _nested()
    rebuilt = {flat.n: flat}
    asked = []

    def build(n):
        asked.append(n)
        return rebuilt.get(n)

    monkeypatch.setattr(pocklington, "build_certificate", build)
    path = tmp_path / "certs.json"
    write_certificates([flat._replace(base=flat.n), nested._replace(base=nested.n)], path)
    current = load_certificates(path)
    assert all(check_certificate(c) for c in current.values())
    assert keep_or_build([nested.n, flat.n], current) == [flat]
    assert asked == [nested.n, flat.n]


def test_an_n_certified_twice_is_a_format_error(tmp_path):
    with open(assets.asset_path(assets.PRIME_CERTIFICATES), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["certificates"].append(raw["certificates"][0])
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(codec.FormatError,
                       match=r"certs\.json: \$\.certificates\[42\]\.n: .* twice"):
        load_certificates(path)
