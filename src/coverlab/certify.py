"""Exclusion certificates: x^2 - u_n is never +-p^b along a progression.

Each case fixes a progression n = r (mod m), a target prime p, and a set of
auxiliary primes q with the residue of x mod q pinned by the two-prime class
construction.  Everything in sight is eventually periodic: u_n mod q repeats
with the sequence period pi_q, p^b mod q with the multiplicative order o_q,
and x mod q is constant.  The engine therefore decides every combination of
one full period of (n mod lcm(m, pi_q), sign, b mod lcm(o_q)) -- no sampling
-- and declares the case valid exactly when each is contradicted by at least
one auxiliary prime.  It walks the n-side only: the residues of x^2 - u_n mod
each q form a key, and for each sign a key is solved for b exactly, by one
discrete-log lookup per q and a CRT join of the classes b mod o_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import codec
from .arith import crt_combine, is_probable_prime, order_dividing
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .construct import TwoPrimeData
from .covers import ResidueClass, build_doubled_cover
from .lucas import LucasSpec, iter_terms_mod, period_mod

DEFAULT_Q_POOL: tuple[int, ...] = (11, 19, 29, 31, 71, 181)

_U4 = LucasSpec(4)


@dataclass(frozen=True)
class AuxPrime:
    q: int
    x_mod_q: int


@dataclass(frozen=True)
class ExclusionCase:
    """Claim: x^2 - u_n != +-p^b for n = r (mod m), given x mod q for q in aux."""

    label: str
    r: int
    m: int
    p: int
    aux: tuple[AuxPrime, ...]


@dataclass(frozen=True)
class AuxEvidence:
    q: int
    period: int
    order: int


@dataclass(frozen=True)
class CertificateReport:
    label: str
    valid: bool
    combinations: int
    counterexample: tuple[int, int, int] | None   # (n residue, sign, b residue)
    aux_evidence: tuple[AuxEvidence, ...]

    def to_dict(self) -> dict:
        return {
            "schema": "coverlab.certificate/1",
            "label": self.label,
            "valid": self.valid,
            "combinations": str(self.combinations),
            "counterexample": None if self.counterexample is None else {
                "n_residue": str(self.counterexample[0]),
                "sign": self.counterexample[1],
                "b_residue": str(self.counterexample[2]),
            },
            "aux": [{"q": str(e.q), "period": str(e.period), "order": str(e.order)}
                    for e in self.aux_evidence],
        }


def _refusal(case: ExclusionCase) -> tuple[str, str]:
    """The JSON path of a case file's first field that breaks a case rule,
    and why; ("", "") when the case is accepted.

    The modulus m is at least 1, p is prime, and the auxiliary q are primes
    not dividing p and distinct: two residues for one q would pin x to no
    class at all, and a claim about no x holds vacuously.
    """
    if case.m < 1:
        return "$.m", "progression modulus must be >= 1"
    if not is_probable_prime(case.p):
        return "$.p", f"target {case.p} is not prime"
    for i, aux in enumerate(case.aux):
        where = f"$.aux[{i}].q"
        if any(a.q == aux.q for a in case.aux[:i]):
            return where, f"auxiliary prime {aux.q} is repeated"
        if not is_probable_prime(aux.q):
            return where, f"auxiliary {aux.q} is not prime"
        if case.p % aux.q == 0:
            return where, f"auxiliary {aux.q} divides the target {case.p}"
    return "", ""


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
    A case that breaks a rule of `_refusal` raises ValueError.
    """
    _, why = _refusal(case)
    if why:
        raise ValueError(why)

    # every period divides n_span = n_count * m, and combinations >= 2 * n_count,
    # so a period above combination_budget * m / 2 already breaks the budget
    step_cap = combination_budget * case.m // 2
    periods = {}
    orders = {}
    for aux in case.aux:
        q = aux.q
        periods[q] = period_mod(_U4, q, max_steps=step_cap)
        if periods[q] is None:
            raise ValueError(
                f"the period of u_n mod {q} exceeds {step_cap}, so the combinations "
                f"exceed the budget {combination_budget}")
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
    terms = {a.q: iter_terms_mod(_U4, a.q, periods[a.q]) for a in aux_list}
    deficits: dict[tuple[int, ...], int] = {}
    for j in range(n_count):
        n = r0 + case.m * j
        key = tuple((a.x_mod_q * a.x_mod_q - terms[a.q][n % periods[a.q]]) % a.q
                    for a in aux_list)
        deficits.setdefault(key, n)

    # p^b mod q repeats with o_q, so each q sends a residue to the one class
    # b mod o_q that reaches it; the classes of a key meet in at most one b
    # mod b_span = lcm(o_q), and distinct keys never share a b
    logs = {a.q: {pow(case.p, b, a.q): b for b in range(orders[a.q])} for a in aux_list}

    counterexample = None
    for sign in (1, -1):
        hits = []
        for key, n in deficits.items():
            classes = []
            for a, d in zip(aux_list, key):
                e = logs[a.q].get(sign * d % a.q)
                if e is None:
                    break
                classes.append(ResidueClass(e, orders[a.q]))
            else:
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


def certify_all_cases(data: TwoPrimeData) -> list[CertificateReport]:
    """Run every standard case and return its report, valid or not."""
    return [check_exclusion(case) for case in build_standard_cases(data)]


def load_case(path) -> ExclusionCase:
    """Read a case file: {"label", "r", "m", "p", "aux": [{"q", "x_mod_q"}]};
    a case that breaks a rule of `_refusal` is refused naming the field."""
    raw = codec.load(path)
    aux = tuple(AuxPrime(q=e["q"].int(), x_mod_q=e["x_mod_q"].int())
                for e in raw.get("aux", []).list())
    case = ExclusionCase(label=raw.get("label", "").str(), r=raw["r"].int(),
                         m=raw["m"].int(), p=raw["p"].int(), aux=aux)
    where, why = _refusal(case)
    if why:
        raise codec.FormatError(f"{path}: {where}: {why}")
    return case
