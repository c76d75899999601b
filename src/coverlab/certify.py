"""Exclusion certificates: x^2 - u_n is never +-p^b along a progression.

Each case fixes a progression n = r (mod m), a target prime p, and a set of
auxiliary primes q with the residue of x mod q pinned by the two-prime class
construction.  Everything in sight is eventually periodic: u_n mod q repeats
with the sequence period pi_q, p^b mod q with the multiplicative order o_q,
and x mod q is constant.  The engine therefore decides every combination of
one full period of (n mod lcm(m, pi_q), sign, b mod lcm(o_q)) -- no sampling
-- and declares the case valid exactly when each is contradicted by at least
one auxiliary prime.  It walks the n-side only: the residues of x^2 - u_n mod
each q form a key, and for each sign a key is solved for b exactly: one
power per q tests that it is a power of p at all, and only then one
discrete-log lookup per q and a CRT join of the classes b mod o_q follow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import codec
from .arith import crt_combine, is_probable_prime, order_dividing
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .construct import TwoPrimeData
from .covers import ResidueClass, build_doubled_cover
from .lucas import LucasSpec, iter_terms_mod, period_mod

DEFAULT_Q_POOL: tuple[int, ...] = (11, 19, 29, 31, 71, 181)

_U4 = LucasSpec(4)


class AuxPrime(NamedTuple):
    q: int
    x_mod_q: int


class ExclusionCase(NamedTuple):
    """Claim: x^2 - u_n != +-p^b for n = r (mod m), given x mod q for q in aux."""

    label: str
    r: int
    m: int
    p: int
    aux: tuple[AuxPrime, ...]


class AuxEvidence(NamedTuple):
    q: int
    period: int
    order: int


class CertificateReport(NamedTuple):
    label: str
    valid: bool
    combinations: int
    counterexample: tuple[int, int, int] | None   # (n residue, sign, b residue)
    aux_evidence: tuple[AuxEvidence, ...]

    def to_dict(self) -> dict:
        """The report row, in plain values; `codec.encode` writes them out."""
        return {
            "schema": "coverlab.certificate/1",
            "label": self.label,
            "valid": self.valid,
            "combinations": self.combinations,
            "counterexample": None if self.counterexample is None else dict(
                zip(("n_residue", "sign", "b_residue"), self.counterexample)),
            "aux": [{"q": e.q, "period": e.period, "order": e.order}
                    for e in self.aux_evidence],
        }


def _check_case(case: ExclusionCase) -> None:
    """Refuse a case file's first field that breaks a case rule.

    The modulus m is at least 1, p is prime, and the auxiliary q are primes
    not dividing p and distinct: two residues for one q would pin x to no
    class at all, and a claim about no x holds vacuously.
    """
    if case.m < 1:
        raise codec.Refusal("$.m", "progression modulus must be >= 1")
    if not is_probable_prime(case.p):
        raise codec.Refusal("$.p", f"target {case.p} is not prime")
    for i, aux in enumerate(case.aux):
        where = f"$.aux[{i}].q"
        if any(a.q == aux.q for a in case.aux[:i]):
            raise codec.Refusal(where, f"auxiliary prime {aux.q} is repeated")
        if not is_probable_prime(aux.q):
            raise codec.Refusal(where, f"auxiliary {aux.q} is not prime")
        if case.p % aux.q == 0:
            raise codec.Refusal(where, f"auxiliary {aux.q} divides the target {case.p}")


def check_exclusion(case: ExclusionCase, combination_budget: int = 10**9) -> CertificateReport:
    """Decide every combination of a full period of (n, sign, b).

    For each auxiliary prime q the engine recomputes the sequence period and
    the order of p from scratch.  A combination survives when every q sees
    (x_q^2 - u_n) = sign * p^b (mod q); the case is valid iff none survives.
    Each distinct key of residues (x_q^2 - u_n) mod q is solved for b rather
    than met by enumerating b: sign * key_q must be a power p^{e_q} mod q for
    every q, and the classes b = e_q (mod o_q) must meet (`crt_combine`), in
    exactly one b mod lcm(o_q).  The counterexample is the first sign with a
    survivor, its least b, and the least n of the key that b solves.
    A case that breaks a rule of `_check_case` raises `codec.Refusal`, as
    does a q whose period walk exceeds the budget (`$.aux[i].q`); too many
    combinations belong to no one field and raise a plain ValueError.
    """
    _check_case(case)

    # the period walk and the one-period table of u_n mod q below each cost
    # pi_q steps, so the budget caps pi_q itself, whatever the modulus m
    periods = {}
    orders = {}
    for i, aux in enumerate(case.aux):
        q = aux.q
        periods[q] = period_mod(_U4, q, max_steps=combination_budget)
        if periods[q] is None:
            raise codec.Refusal(
                f"$.aux[{i}].q", f"the period of u_n mod {q} and its walk exceed "
                f"the budget {combination_budget}")
        orders[q] = order_dividing(case.p % q, q, q - 1)

    n_span = math.lcm(case.m, *periods.values())
    n_count = n_span // case.m
    b_span = math.lcm(*orders.values())
    combinations = n_count * 2 * b_span
    if combinations > combination_budget:
        raise ValueError(
            f"{combinations} combinations exceed the budget {combination_budget}")

    # one period of each table serves the whole span: u_n mod q repeats
    # with pi_q and p^b mod q with o_q
    r0 = case.r % case.m
    aux_list = list(case.aux)
    sides = [(a.x_mod_q * a.x_mod_q, a.q, periods[a.q], iter_terms_mod(_U4, a.q, periods[a.q]))
             for a in aux_list]     # x_q^2, q, pi_q and u_n mod q for n < pi_q
    deficits: dict[tuple[int, ...], int] = {}
    for n in range(r0, r0 + case.m * n_count, case.m):
        key = tuple((square - terms[n % period]) % q for square, q, period, terms in sides)
        deficits.setdefault(key, n)

    # (Z/q)^* is cyclic, so sign * d is a power of p mod q exactly when its
    # o_q-th power is 1; the tables {p^b mod q: b} wait for a key that passes
    # at every q, which each q sends to the one class b mod o_q that reaches
    # it.  Those classes meet in at most one b mod b_span = lcm(o_q), and
    # distinct keys never share a b
    logs: dict[int, dict[int, int]] = {}
    counterexample = None
    for sign in (1, -1):
        hits = []
        for key, n in deficits.items():
            if any(pow(sign * d, orders[a.q], a.q) != 1 for a, d in zip(aux_list, key)):
                continue
            if not logs:
                logs = {a.q: {pow(case.p, b, a.q): b for b in range(orders[a.q])}
                        for a in aux_list}
            classes = [ResidueClass(logs[a.q][sign * d % a.q], orders[a.q])
                       for a, d in zip(aux_list, key)]
            try:
                hits.append((crt_combine(classes).a, n))
            except ValueError:
                pass
        if hits:
            b, n = min(hits)
            counterexample = (n, sign, b)
            break

    evidence = tuple(sorted(
        (AuxEvidence(q=a.q, period=periods[a.q], order=orders[a.q]) for a in aux_list),
        key=lambda e: e.q))
    return CertificateReport(
        label=case.label,
        valid=counterexample is None,
        combinations=combinations,
        counterexample=counterexample,
        aux_evidence=evidence,
    )


def build_standard_cases(data: TwoPrimeData) -> list[ExclusionCase]:
    """One exclusion case per class of the doubled cover.

    Case t is class t of `build_doubled_cover(data.cover)`, read as a
    progression of n, with target p_t: n = 1 (mod 2) with target 2, then
    n = 2*b_t (mod 2*m_t) with target p_t.  Auxiliary residues x mod q
    come from the construction data itself: each residue class of the data
    whose modulus is a prime of DEFAULT_Q_POOL, in data order, except the
    one of the case target, since powers of p tell nothing mod p.  A pool
    prime with no class in the data is no auxiliary of any case.
    """
    cases = []
    doubled = build_doubled_cover(data.cover)
    for t, (p, c) in enumerate(zip(data.primes, doubled.classes, strict=True)):
        aux = tuple(AuxPrime(r.n, r.a) for r in data.residues
                    if r.n in DEFAULT_Q_POOL and r.n != p)
        cases.append(ExclusionCase(
            label=f"t{t:02d} p={p} n={c.a}(mod {c.n})", r=c.a, m=c.n, p=p, aux=aux))
    return cases


def load_case(path) -> ExclusionCase:
    """Read a case file: {"label", "r", "m", "p", "aux": [{"q", "x_mod_q"}]};
    a case that breaks a rule of `_check_case` is refused naming the field."""
    raw = codec.load(path)
    aux = tuple(AuxPrime(q=e["q"].int(), x_mod_q=e["x_mod_q"].int())
                for e in raw.get("aux", []).list())
    case = ExclusionCase(label=raw.get("label", "").str(), r=raw["r"].int(),
                         m=raw["m"].int(), p=raw["p"].int(), aux=aux)
    codec.refuse(path, _check_case, case)
    return case
