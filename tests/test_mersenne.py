import random

import pytest

from coverlab.arith import FactorBudget, is_probable_prime
from coverlab.assets import odd_cover_173, prime_table
from coverlab.covers import CoveringSystem, ResidueClass
from coverlab.mersenne import (PrimeTable, cyclotomic_mersenne,
                               find_primitive_divisors, is_primitive_divisor,
                               load_prime_table, mersenne_valuation,
                               store_prime_table, verify_prime_table,
                               wieferich_test)


def test_is_primitive_divisor_examples():
    assert is_primitive_divisor(241, 24)
    assert not is_primitive_divisor(7, 6)     # 7 | 63 but the order of 2 is 3
    assert is_primitive_divisor(599479, 33)
    with pytest.raises(ValueError):
        is_primitive_divisor(15, 4)


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


def test_is_primitive_divisor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for p in [2] + list(sympy.primerange(3, 2000)):
        order = 0 if p == 2 else int(sympy.n_order(2, p))
        for n in range(2, 80):
            assert is_primitive_divisor(p, n) == (n == order), (p, n)
        if order >= 80:
            assert is_primitive_divisor(p, order)
            assert not is_primitive_divisor(p, 2 * order)


def test_find_primitive_divisors_examples():
    witnesses, complete = find_primitive_divisors(24)
    assert complete and [w.p for w in witnesses] == [241]
    witnesses, complete = find_primitive_divisors(11)
    assert complete and [w.p for w in witnesses] == [23, 89]
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
            assert is_primitive_divisor(w.p, n)
            assert (w.p - 1) % n == 0          # the order divides p - 1
            assert pow(2, n, w.p**w.alpha) == 1
            assert pow(2, n, w.p**(w.alpha + 1)) != 1


def test_find_primitive_divisors_progression_hit():
    # the scan reaches the medium prime 1969111 = 2*1755*561 + 1 without rho
    witnesses, complete = find_primitive_divisors(
        1755, budget=FactorBudget(trial_bound=10**4, rho_iterations=0,
                                  rho_attempts=0))
    assert not complete
    ps = [w.p for w in witnesses]
    assert 3511 in ps and 1969111 in ps
    w3511 = next(w for w in witnesses if w.p == 3511)
    assert w3511.alpha == 2


def test_wieferich_examples():
    assert wieferich_test(1093)
    assert wieferich_test(3511)
    assert not wieferich_test(3)
    assert not wieferich_test(1091)


def test_wieferich_contract():
    with pytest.raises(ValueError):
        wieferich_test(1099)
    with pytest.raises(ValueError):
        wieferich_test(2)
    with pytest.raises(ValueError):
        wieferich_test(561)


def test_mersenne_valuation_examples():
    assert mersenne_valuation(3511, 1755) == 2
    assert mersenne_valuation(7, 3) == 1
    assert mersenne_valuation(3, 6) == 2      # 63 = 3^2 * 7
    assert mersenne_valuation(11, 12) == 0    # 11 does not divide 2^12 - 1
    assert mersenne_valuation(1093, 364) == 2
    assert mersenne_valuation(3511, 3510) == 2
    # cross-check by modular lifting
    assert pow(2, 3510, 3511**2) == 1
    assert pow(2, 3510, 3511**3) != 1
    with pytest.raises(ValueError):
        mersenne_valuation(6, 36)
    with pytest.raises(ValueError):
        mersenne_valuation(3, 0)
    # oracle: repeated division of 2^n - 1 itself
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13, 31, 127])
        n = rng.randrange(1, 200)
        a = mersenne_valuation(p, n)
        assert ((1 << n) - 1) % p**a == 0
        assert ((1 << n) - 1) % p**(a + 1) != 0


def test_prime_table_roundtrip(tmp_path):
    table = PrimeTable(entries={3: [7], 11: [23, 89]}, omitted=[675675])
    path = tmp_path / "table.json"
    store_prime_table(table, path)
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
    assert report.passed
    assert not report.failing_rows
    assert report.omitted_consistent


def test_verify_prime_table_misplaced_prime():
    # moving 89 from n=11 to n=33 keeps distinctness but breaks primitivity
    cover = CoveringSystem(
        [ResidueClass(0, 3), ResidueClass(7, 11), ResidueClass(23, 33)])
    table = PrimeTable(entries={3: [7], 11: [23], 33: [89]}, omitted=[])
    report = verify_prime_table(cover, table)
    assert not report.duplicates
    bad = report.failing_rows
    assert len(bad) == 1 and bad[0].n == 33 and bad[0].p == 89
    assert "order of 2 is 11" in bad[0].reason
    # the errata search still digs up the honest replacement
    erratum = report.errata[0]
    assert erratum.replacement == 599479 and erratum.verified
    assert report.passed


def test_verify_prime_table_detects_count_and_duplicates():
    cover, table = _tiny_cover_and_table()
    short = PrimeTable(entries={3: [7], 11: [23]}, omitted=[])
    report = verify_prime_table(cover, short)
    assert report.count_mismatches == [(11, 1, 2)]
    assert not report.passed

    doubled = PrimeTable(entries={3: [7], 11: [23, 23]}, omitted=[])
    report = verify_prime_table(cover, doubled)
    assert report.duplicates == [23]
    assert not report.passed


def test_verify_prime_table_omitted_consistency():
    cover = CoveringSystem([ResidueClass(0, 3), ResidueClass(1, 9)])
    table = PrimeTable(entries={3: [7]}, omitted=[9])
    assert verify_prime_table(cover, table).omitted_consistent
    table_bad = PrimeTable(entries={3: [7]}, omitted=[])
    assert not verify_prime_table(cover, table_bad).omitted_consistent


def test_verify_prime_table_real_assets():
    report = verify_prime_table(odd_cover_173(), prime_table())
    assert report.passed
    assert not report.count_mismatches
    assert not report.duplicates
    assert report.omitted_consistent
    assert len(report.failing_rows) == 1
    row = report.failing_rows[0]
    assert (row.n, row.p) == (1755, 196911)
    assert row.reason == "not prime"
    erratum = report.errata[0]
    assert erratum.replacement == 1969111
    assert erratum.verified
    assert is_probable_prime(1969111)
    assert is_primitive_divisor(1969111, 1755)
