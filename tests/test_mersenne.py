import math
import random
from collections import Counter

import pytest

from coverlab import arith, assets, codec, mersenne
from coverlab.arith import factor, is_probable_prime, order_dividing
from coverlab.assets import COVER_ODD173, PRIME_TABLE, asset_path
from coverlab.covers import CoveringSystem, ResidueClass, load_cover
from coverlab.mersenne import (PrimeTable, PrimitiveDivisorWitness,
                               cyclotomic_mersenne, find_primitive_divisors,
                               load_prime_table, mersenne_valuation,
                               verify_prime_table)
from coverlab.pocklington import load_certificates


def test_cyclotomic_values():
    assert cyclotomic_mersenne(1) == 1
    assert cyclotomic_mersenne(2) == 3
    assert cyclotomic_mersenne(6) == 3
    assert cyclotomic_mersenne(12) == 13
    assert cyclotomic_mersenne(24) == 241
    # the product over divisors reassembles 2^n - 1
    for n in (1, 2, 6, 12, 30, 24, 49):
        prod = 1
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= cyclotomic_mersenne(d)
        assert prod == 2**n - 1


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 301):
        assert cyclotomic_mersenne(n) == sympy.cyclotomic_poly(n, 2), n


def test_row_reason_matches_sympy():
    # the audit's row check accepts p > 5 at n exactly when 2 has order n
    sympy = pytest.importorskip("sympy")
    for p in [2] + list(sympy.primerange(3, 2000)):
        order = 0 if p == 2 else int(sympy.n_order(2, p))
        for n in range(2, 80):
            reason = mersenne._row_reason(n, p)
            if p <= 5:
                assert reason == "not greater than 5", (p, n)
            else:
                assert (reason == "") == (n == order), (p, n)
        if order >= 80:
            assert mersenne._row_reason(order, p) == ""
            assert mersenne._row_reason(2 * order, p) == \
                f"order of 2 is {order}, not {2 * order}"


def test_find_primitive_divisors_examples():
    witnesses, complete = find_primitive_divisors(24)
    assert complete and [w.p for w in witnesses] == [241]
    witnesses, complete = find_primitive_divisors(11)
    assert complete and [w.p for w in witnesses] == [23, 89]
    witnesses, complete = find_primitive_divisors(33)
    assert complete and 599479 in [w.p for w in witnesses]
    # 7 | 63 = 2^6 - 1 but the order of 2 is 3
    witnesses, complete = find_primitive_divisors(3)
    assert complete and [w.p for w in witnesses] == [7]
    witnesses, complete = find_primitive_divisors(6)
    assert complete and witnesses == []       # the classical exception


def test_find_primitive_divisors_small_scale():
    for n in range(2, 31):
        witnesses, complete = find_primitive_divisors(n)
        assert complete, n
        if n != 6:
            assert witnesses, n
        for w in witnesses:
            assert w.n == n
            assert pow(2, n, w.p) == 1
            assert order_dividing(2, w.p, n) == n
            assert (w.p - 1) % n == 0          # the order divides p - 1
            assert pow(2, n, w.p**w.alpha) == 1
            assert pow(2, n, w.p**(w.alpha + 1)) != 1


def test_order_walk_finds_3511_then_1969111():
    # the primes of order 1755 are = 1 (mod 3510): 3511 is the first on the
    # walk and 1969111 = 561*3510 + 1 the second
    walk = mersenne._order_walk(1755)
    assert next(walk) == 3511
    assert next(walk) == 1969111 == 561 * 3510 + 1


def test_order_walk_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in [*range(2, 81), 1755]:
        step = 2 * n if n % 2 else n
        # 2^n = 1 (mod q) follows from n_order(2, q) == n; testing it first
        # only spares sympy most of the 10^4 candidates
        want = [q for q in range(step + 1, mersenne._ERRATA_STEPS * step + 2, step)
                if pow(2, n, q) == 1 and q > 5 and sympy.isprime(q)
                and sympy.n_order(2, q) == n]
        assert list(mersenne._order_walk(n)) == want, n


def test_factor_with_step_matches_sympy_on_cyclotomic_values():
    sympy = pytest.importorskip("sympy")
    # every prime of Phi_n(2) above n is = 1 (mod 2n) for odd n, (mod n) for
    # even n; the intrinsic prime (at most n) falls to trial division
    for n in range(2, 137):
        value = cyclotomic_mersenne(n)
        f = factor(value, step=2 * n if n % 2 else n)
        assert f.complete and dict(f.factors) == sympy.factorint(value), n


def test_find_primitive_divisors_falls_back_to_rho_where_pm1_fails():
    # the two largest primes of Phi_161(2) and Phi_206(2): P-1 at the step
    # cannot split their product, and rho does
    cases = {161: ([1289, 3188767], [45076044553, 14808607715315782481]),
             206: ([], [415141630193, 8142767081771726171])}
    for n, (smaller, (p, q)) in cases.items():
        assert math.prod([*smaller, p, q]) == cyclotomic_mersenne(n), n
        assert arith._pm1_split(p * q, 2 * n if n % 2 else n) is None, n
        witnesses, complete = find_primitive_divisors(n)
        assert complete and [w.p for w in witnesses] == [*smaller, p, q], n
        assert all(w.alpha == 1 for w in witnesses), n


def _facts(report):
    """What the audit found: count mismatches, duplicates, whether the omitted
    exponents are consistent, and each erratum as (n, bad p, reason,
    replacement)."""
    return (report.count_mismatches, report.duplicates, report.omitted_consistent,
            [(row.n, row.p, row.reason, replacement) for row, replacement in report.errata])


CLEAN = ([], [], True, [])


def test_wieferich_examples():
    # 1093 and 3511 are the two known Wieferich primes, of orders 364 and 1755
    cover = CoveringSystem([ResidueClass(0, 3), ResidueClass(1, 364),
                            ResidueClass(2, 1755)])
    table = PrimeTable(entries={3: [7], 364: [1093], 1755: [3511]}, omitted=[])
    report = verify_prime_table(cover, table)
    assert _facts(report) == CLEAN
    assert report.wieferich == [PrimitiveDivisorWitness(364, 1093, 2),
                                PrimitiveDivisorWitness(1755, 3511, 2)]
    assert pow(2, 1092, 1093**2) == 1 and pow(2, 6, 49) != 1


def test_wieferich_contract():
    # only rows that passed are scanned: 1093 misplaced at n = 3 is not one
    cover = CoveringSystem([ResidueClass(0, 3)])
    report = verify_prime_table(cover, PrimeTable(entries={3: [1093]}, omitted=[]))
    assert [(row.n, row.p) for row, _ in report.errata] == [(3, 1093)]
    assert report.wieferich == []


def test_mersenne_valuation_examples():
    assert mersenne_valuation(3511, 1755) == 2
    assert mersenne_valuation(7, 3) == 1
    assert mersenne_valuation(3, 6) == 2      # 63 = 3^2 * 7
    assert mersenne_valuation(11, 12) == 0    # 11 does not divide 2^12 - 1
    assert mersenne_valuation(2, 5) == 0      # p = 2 is accepted: 2^n - 1 is odd
    assert mersenne_valuation(1093, 364) == 2
    assert mersenne_valuation(3511, 3510) == 2
    # cross-check by modular lifting
    assert pow(2, 3510, 3511**2) == 1
    assert pow(2, 3510, 3511**3) != 1
    # p is taken as prime, so 6 is lifted like any p: 6 does not divide 2^36 - 1
    assert mersenne_valuation(6, 36) == 0
    for p, n in ((1, 3), (0, 3), (3, 0)):
        with pytest.raises(ValueError):
            mersenne_valuation(p, n)
    # oracle: repeated division of 2^n - 1 itself
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13, 31, 127])
        n = rng.randrange(1, 200)
        a = mersenne_valuation(p, n)
        assert ((1 << n) - 1) % p**a == 0
        assert ((1 << n) - 1) % p**(a + 1) != 0


def test_prime_table_roundtrip(tmp_path):
    # the prime-table file layout: entries in exponent order, then omitted
    table = PrimeTable(entries={3: [7], 11: [23, 89]}, omitted=[675675])
    path = tmp_path / "table.json"
    codec.dump({"entries": [{"n": n, "primes": ps} for n, ps in table.entries.items()],
                "omitted": table.omitted}, path)
    back = load_prime_table(path)
    assert back.entries == table.entries
    assert back.omitted == table.omitted


def _tiny_cover_and_table():
    cover = CoveringSystem(
        [ResidueClass(0, 3), ResidueClass(7, 11), ResidueClass(8, 11)],
        label="tiny")
    table = PrimeTable(entries={3: [7], 11: [23, 89]}, omitted=[])
    return cover, table


def test_verify_prime_table_tiny_pass():
    cover, table = _tiny_cover_and_table()
    report = verify_prime_table(cover, table)
    assert _facts(report) == CLEAN
    assert [r.reason for r in report.rows] == ["", "", ""]


def test_proof_levels_leave_rows_and_errata_as_they_are():
    cover = load_cover(asset_path(COVER_ODD173))
    table = load_prime_table(asset_path(PRIME_TABLE))
    proven = frozenset(load_certificates(assets.asset_path(assets.PRIME_CERTIFICATES)))
    plain = verify_prime_table(cover, table)
    certified = verify_prime_table(cover, table, proven)
    strip = [(r.n, r.p, r.reason) for r in plain.rows]
    assert strip == [(r.n, r.p, r.reason) for r in certified.rows]
    assert _facts(plain) == _facts(certified) == (
        [], [], True, [(1755, 196911, "not prime", 1969111)])
    assert Counter(r.proof for r in plain.rows) == {"deterministic": 120,
                                                    "probable": 44}
    assert Counter(r.proof for r in certified.rows) == {
        "deterministic": 120, "certified": 42, "probable": 2}
    assert all((r.proof == "certified") == (r.p in proven) for r in certified.rows)
    # a proven p skips the primality test, and nothing else
    fake = verify_prime_table(cover, table, frozenset({196911}))
    assert [r.reason for r in fake.rows if r.reason] == ["does not divide 2^1755-1"]


def test_verify_prime_table_misplaced_prime():
    # moving 89 from n=11 to n=33 keeps distinctness but breaks primitivity
    cover = CoveringSystem(
        [ResidueClass(0, 3), ResidueClass(7, 11), ResidueClass(23, 33)])
    table = PrimeTable(entries={3: [7], 11: [23], 33: [89]}, omitted=[])
    report = verify_prime_table(cover, table)
    # the errata search still digs up the honest replacement
    assert _facts(report) == (
        [], [], True, [(33, 89, "order of 2 is 11, not 33", 599479)])
    assert [(r.n, r.p) for r in report.rows if r.reason] == [(33, 89)]


def test_verify_prime_table_detects_count_and_duplicates():
    cover, table = _tiny_cover_and_table()
    short = PrimeTable(entries={3: [7], 11: [23]}, omitted=[])
    report = verify_prime_table(cover, short)
    assert _facts(report) == ([(11, 1, 2)], [], True, [])

    doubled = PrimeTable(entries={3: [7], 11: [23, 23]}, omitted=[])
    report = verify_prime_table(cover, doubled)
    assert _facts(report) == ([], [23], True, [])


def test_verify_prime_table_omitted_consistency():
    cover = CoveringSystem([ResidueClass(0, 3), ResidueClass(1, 9)])
    table = PrimeTable(entries={3: [7]}, omitted=[9])
    assert verify_prime_table(cover, table).omitted_consistent
    table_bad = PrimeTable(entries={3: [7]}, omitted=[])
    assert not verify_prime_table(cover, table_bad).omitted_consistent


def test_errata_search_at_675675_factors_nothing(monkeypatch):
    # Phi_675675(2) has 259,200 bits; the audit must not build or factor it,
    # and no prime of order 675675 is k * 1351350 + 1 with k <= 10^4
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_prime_table built or factored Phi_n")

    for name in ("cyclotomic_mersenne", "factor", "find_primitive_divisors"):
        monkeypatch.setattr(mersenne, name, forbidden)
    cover = CoveringSystem([ResidueClass(0, 3), ResidueClass(1, 675675)])
    table = PrimeTable(entries={3: [7], 675675: [31]}, omitted=[])
    report = verify_prime_table(cover, table)
    assert _facts(report) == (
        [], [], True, [(675675, 31, "order of 2 is 5, not 675675", None)])


def test_verify_prime_table_real_assets():
    table = load_prime_table(asset_path(PRIME_TABLE))
    report = verify_prime_table(load_cover(asset_path(COVER_ODD173)), table)
    assert _facts(report) == ([], [], True, [(1755, 196911, "not prime", 1969111)])
    assert table.omitted == [1485, 3003, 3465, 3861, 5005, 5775, 6435, 10395, 675675]
    assert [(r.n, r.p) for r in report.rows if r.reason] == [(1755, 196911)]
    assert is_probable_prime(1969111)
    assert order_dividing(2, 1969111, 1755) == 1755
