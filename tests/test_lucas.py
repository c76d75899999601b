import ast
import itertools
import pathlib

import pytest

from coverlab import mersenne
from coverlab.arith import Factorization, factor, is_probable_prime, order_dividing
from coverlab.lucas import (LucasSpec, iter_terms_mod, period_mod, rank_of_apparition,
                            u_term_mod, u_terms)
from coverlab.mersenne import (MERSENNE, PrimitiveDivisorWitness,
                               find_primitive_divisors)

U4 = LucasSpec(4)
FIB = LucasSpec(1)


LUCAS_SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "coverlab" / "lucas.py"


def test_lucas_imports_only_the_standard_library():
    # the Lucas layer stands alone: no relative import and no import of coverlab
    for node in ast.walk(ast.parse(LUCAS_SOURCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            modules = [node.module]
        else:
            continue
        assert all(m.split(".")[0] != "coverlab" for m in modules), ast.unparse(node)


def first_terms(spec, count):
    return list(itertools.islice(u_terms(spec), count))


def u_term(spec, n):
    return first_terms(spec, n + 1)[n]


def test_u_term_examples():
    assert u_term(U4, 0) == 0
    assert u_term(U4, 1) == 1
    assert u_term(U4, 5) == 305
    assert u_term(U4, 10) == 416020
    assert u_term(U4, 22) == 13888945017644
    assert (900 - u_term(U4, 22)) % 71 == 14
    assert first_terms(U4, 5) == [0, 1, 4, 17, 72]
    # Q = 2: U_n(3, 2) = 2^n - 1
    assert first_terms(MERSENNE, 65) == [2**n - 1 for n in range(65)]


def test_u_term_mod_examples():
    assert u_term_mod(U4, 8, 31) == 27          # = -4 (mod 31)
    assert u_term_mod(U4, 4, 11) == 6           # = -5 (mod 11)
    for spec in (U4, FIB, LucasSpec(3), MERSENNE):
        for m in (2, 7, 100):
            assert u_term_mod(spec, 0, m) == 0
    for m in range(2, 60):
        for n in range(200):
            assert u_term_mod(MERSENNE, n, m) == (2**n - 1) % m, (n, m)


def test_u_term_mod_agrees_with_exact():
    for c in (1, 4):
        spec = LucasSpec(c)
        exact = [u_term(spec, 0), u_term(spec, 1)]
        while len(exact) <= 500:
            exact.append(c * exact[-1] + exact[-2])
        for m in range(2, 201):
            for n in range(501):
                assert u_term_mod(spec, n, m) == exact[n] % m, (c, n, m)


def test_iter_terms_mod_matches_u_term_mod():
    terms = iter_terms_mod(U4, 31, 50)
    for n, t in enumerate(terms):
        assert t == u_term_mod(U4, n, 31)
    for m in (2, 7, 45):
        assert iter_terms_mod(MERSENNE, m, 100) == [(2**n - 1) % m for n in range(100)]


def test_period_examples():
    assert period_mod(FIB, 10) == 60     # the classical period mod 10
    assert period_mod(U4, 2) == 2
    pi31 = period_mod(U4, 31)
    assert pi31 % 10 == 0
    assert rank_of_apparition(U4, 31, 100) == 10
    # 2^n - 1 mod 7 has period 3, the order of 2; Q = 2 is no unit mod 2
    assert period_mod(MERSENNE, 7) == 3
    with pytest.raises(ValueError, match="not a unit"):
        period_mod(MERSENNE, 10)


def test_period_step_cap():
    pi31 = period_mod(U4, 31)
    assert period_mod(U4, 31, max_steps=pi31) == pi31
    assert period_mod(U4, 31, max_steps=pi31 - 1) is None
    # the walk stops at the cap instead of running through a long period
    assert period_mod(U4, 1000000007, max_steps=1000) is None


def test_fibonacci_periods_match_classical_table():
    # frozen from the classical period table for F mod m, m = 2..20
    classical = [3, 8, 6, 20, 24, 16, 12, 24, 60, 10,
                 24, 28, 48, 40, 24, 36, 24, 18, 60]
    for m, pi in zip(range(2, 21), classical):
        assert period_mod(FIB, m) == pi, m


def test_periodicity_property():
    for c in (1, 4):
        spec = LucasSpec(c)
        for m in range(2, 201):
            pi = period_mod(spec, m)
            terms = iter_terms_mod(spec, m, 4 * pi + 1)
            for n in range(3 * pi):
                assert terms[n + pi] == terms[n], (c, m, n)


def test_rank_examples():
    assert rank_of_apparition(U4, 19, 1000) == 6
    assert u_term(U4, 6) == 1292 == 2**2 * 17 * 19
    assert rank_of_apparition(U4, 29, 1000) == 14
    assert rank_of_apparition(U4, 2, 10) == 2
    # for (3, 2) the rank of an odd prime is the order of 2; 2 divides no term
    for p in range(3, 500):
        if is_probable_prime(p):
            assert rank_of_apparition(MERSENNE, p, p) == order_dividing(2, p, p - 1), p
    assert rank_of_apparition(MERSENNE, 2, 100) is None
    assert rank_of_apparition(U4, 1009, 3) is None   # bound too small
    # a composite modulus has a rank too: brute force over the exact terms
    for spec in (FIB, U4):
        assert rank_of_apparition(spec, 15, 100) == 20
        assert next(n for n, u in enumerate(u_terms(spec)) if n and u % 15 == 0) == 20
    # every walk refuses a modulus below 2, and u_term_mod an index below 0
    for m in (1, 0, -3):
        for walk, args in ((rank_of_apparition, (U4, m, 100)), (iter_terms_mod, (U4, m, 5)),
                           (u_term_mod, (U4, 5, m)), (period_mod, (U4, m))):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                walk(*args)
    with pytest.raises(ValueError, match="index must be nonnegative"):
        u_term_mod(U4, -1, 7)


def test_find_primitive_divisors_rank_rule():
    def primes(spec, n):
        witnesses, complete = find_primitive_divisors(n, spec=spec)
        assert complete
        return [(w.p, w.alpha) for w in witnesses]

    assert (5779, 1) in primes(U4, 18)
    assert primes(U4, 6) == [(19, 1)]
    # 17 divides u_3 = 17 already, so it is not primitive at index 6
    assert u_term(U4, 3) == 17
    assert primes(U4, 3) == [(17, 1)]
    # primes that divide n: each is primitive exactly when its rank is n
    assert primes(U4, 2) == [(2, 2)]                     # u_2 = 4
    assert primes(U4, 5) == [(5, 1), (61, 1)]            # u_5 = 305
    assert u_term(U4, 4) == 72 == 2**3 * 3**2           # 2 | u_2 = 4
    assert primes(U4, 4) == [(3, 2)]
    assert primes(MERSENNE, 6) == []                     # 3 | 2^2 - 1
    assert rank_of_apparition(MERSENNE, 3, 6) == 2


def test_divisibility_ladder():
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    for p in primes:
        rank = rank_of_apparition(U4, p, 300)
        terms = iter_terms_mod(U4, p, 301)
        for n in range(1, 301):
            divides = terms[n] == 0
            assert divides == (rank is not None and n % rank == 0), (p, n)


def test_fibonacci_examples():
    # c = 1 is the Fibonacci sequence itself
    assert u_term(FIB, 12) == 144
    assert u_term(FIB, 6) == 8
    assert u_term(FIB, 0) == 0 and u_term(FIB, 1) == 1
    seq = [0, 1]
    for n in range(2, 60):
        seq.append(seq[-1] + seq[-2])
        assert u_term(FIB, n) == seq[n]


def test_u_identity():
    # 2 u_n = F_{3n}, against sympy's Fibonacci numbers
    sympy = pytest.importorskip("sympy")
    for n in range(201):
        assert 2 * u_term(U4, n) == sympy.fibonacci(3 * n), n


def lemma41(spec, n, p):
    """The check `reproduce lemma41` makes of a primitive prime p of U_n:
    rank n, and period exactly n."""
    return rank_of_apparition(spec, p, n) == n and period_mod(spec, p, max_steps=n) == n


def test_rank_periodicity_examples():
    assert lemma41(FIB, 10, 11)
    assert (u_term(FIB, 12) - u_term(FIB, 2)) % 11 == 0
    assert lemma41(U4, 10, 31)
    assert not lemma41(U4, 10, 19)     # rank 6: 19 does not divide u_10
    assert not lemma41(U4, 6, 2)       # 2 | u_2 already


def test_rank_periodicity_suite():
    # every primitive prime below 1e6 at the small indexes = 2 (mod 4)
    for c in range(1, 7):
        spec = LucasSpec(c)
        for n in (2, 6, 10, 14):
            value = u_term(spec, n)
            if value <= 1:
                continue
            for p, _ in factor(value).factors:
                if p >= 10**6:
                    continue
                if rank_of_apparition(spec, p, n) == n:
                    assert lemma41(spec, n, p), (c, n, p)


def _window_periodic(spec, n, p, k_max=5):
    """U_{n+1} = 1 and U_{kn+r} = U_r (mod p) for all r < n, k <= k_max, by iteration."""
    terms = iter_terms_mod(spec, p, (k_max + 1) * n + 2)
    return terms[n + 1] == 1 % p and all(
        terms[k * n + r] == terms[r] for k in range(1, k_max + 1) for r in range(n))


def test_rank_periodicity_matches_brute_window():
    primes = [p for p in range(2, 10**4) if is_probable_prime(p)]
    checked = 0
    for c in range(1, 7):
        spec = LucasSpec(c)
        for p in primes:
            n = rank_of_apparition(spec, p, 58)
            if n is not None and n % 4 == 2:
                checked += 1
                assert lemma41(spec, n, p) == _window_periodic(spec, n, p), (c, n, p)
    assert checked > 50


def test_find_primitive_divisors_u_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for spec in [LucasSpec(c) for c in range(1, 7)] + [MERSENNE]:
        terms = first_terms(spec, 41)
        for n in range(2, 41):
            # oracle: primes of U_n dividing no earlier term
            want = [(p, sympy.multiplicity(p, terms[n]))
                    for p in sympy.primefactors(terms[n])
                    if all(terms[i] % p for i in range(1, n))]
            witnesses, complete = find_primitive_divisors(n, spec=spec)
            assert complete and [(w.p, w.alpha) for w in witnesses] == want, (spec, n)
    # rho attempts of at most 1000 steps: trial division finds 229 in the
    # primitive part 229 * 9349 * 95419 of U_38, and rho splits the rest,
    # so the list is complete
    witnesses, complete = find_primitive_divisors(38, 1000, U4)
    assert complete and [w.p for w in witnesses] == [229, 9349, 95419]
    # at n = 43 rho cannot split 39639893 * 433494437 in 1000 steps: the
    # listed primes keep their exact valuations in U_43
    witnesses, complete = find_primitive_divisors(43, 1000, U4)
    assert not complete and [w.p for w in witnesses] == [257, 5417, 8513]
    assert all(w.alpha == sympy.multiplicity(w.p, u_term(U4, 43)) for w in witnesses)


def test_find_primitive_divisors_counts_copies_left_in_the_cofactor(monkeypatch):
    # 191^2 divides the primitive part 191^2 * 4523 * 1021973 of U_38 for
    # c = 6.  A factorization that found one copy of 191 and left
    # 191 * 4523 * 1021973 unsplit still gives alpha = 2.
    spec = LucasSpec(6)
    assert u_term(spec, 38) % 191**2 == 0 and u_term(spec, 38) % 191**3
    monkeypatch.setattr(mersenne, "factor",
                        lambda n, budget, step: Factorization(((191, 1),), n // 191))
    witnesses, complete = find_primitive_divisors(38, spec=spec)
    assert not complete and witnesses == [PrimitiveDivisorWitness(38, 191, 2)]
