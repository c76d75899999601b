"""Exclusion certificates: x^2 - u_n is never +-p^b along a progression.

Each case fixes a progression n = r (mod m), a target prime p, and a set of
auxiliary primes q with the residue of x mod q pinned by the two-prime class
construction.  Everything in sight is eventually periodic: u_n mod q repeats
with the sequence period pi_q, p^b mod q with the multiplicative order o_q,
and x mod q is constant.  The engine therefore enumerates one full period of
(n mod lcm(m, pi_q), sign, b mod lcm(o_q)) exhaustively -- no sampling -- and
declares the case valid exactly when every combination is contradicted by at
least one auxiliary prime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import codec
from .arith import is_probable_prime, order_dividing
from .arith import factor  # noqa: F401 -- module attribute the perfbench tracer patches
from .construct import TwoPrimeData
from .lucas import LucasSpec, iter_terms_mod, period_mod

DEFAULT_Q_POOL: tuple[int, ...] = (11, 19, 29, 31, 71, 181)

_U4 = LucasSpec(4)


class CertificationError(RuntimeError):
    """Aggregate failure: one or more standard cases did not certify."""

    def __init__(self, invalid_labels: list[str], reports):
        self.invalid_labels = invalid_labels
        self.reports = reports
        super().__init__("invalid exclusion cases: " + ", ".join(invalid_labels))


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


def check_exclusion(case: ExclusionCase, combination_budget: int = 10**9) -> CertificateReport:
    """Exhaustively test one case over a full period of (n, sign, b).

    For each auxiliary prime q the engine recomputes the sequence period and
    the order of p from scratch.  A combination survives when every q sees
    (x_q^2 - u_n) = sign * p^b (mod q); the case is valid iff none survives.
    """
    if case.m < 1:
        raise ValueError("progression modulus must be >= 1")
    if not is_probable_prime(case.p):
        raise ValueError(f"target {case.p} is not prime")
    for aux in case.aux:
        if not is_probable_prime(aux.q):
            raise ValueError(f"auxiliary {aux.q} is not prime")
        if case.p % aux.q == 0:
            raise ValueError(f"auxiliary {aux.q} divides the target {case.p}")

    if not case.aux:
        # no evidence: the very first combination survives vacuously
        return CertificateReport(
            label=case.label, valid=False, combinations=2,
            counterexample=(case.r % case.m, 1, 0),
            aux_evidence=())

    periods = {}
    orders = {}
    for aux in case.aux:
        q = aux.q
        periods[q] = period_mod(_U4, q).period
        orders[q] = order_dividing(case.p % q, q, q - 1)

    n_span = math.lcm(case.m, *periods.values())
    n_count = n_span // case.m
    b_span = math.lcm(*orders.values())
    combinations = n_count * 2 * b_span
    if combinations > combination_budget:
        raise ValueError(
            f"{combinations} combinations exceed the budget {combination_budget}")

    r0 = case.r % case.m
    aux_list = list(case.aux)
    terms = {a.q: iter_terms_mod(_U4, a.q, r0 + n_span + 1) for a in aux_list}
    deficits: dict[tuple[int, ...], int] = {}
    for j in range(n_count):
        n = r0 + case.m * j
        key = tuple((a.x_mod_q * a.x_mod_q - terms[a.q][n]) % a.q for a in aux_list)
        deficits.setdefault(key, n)

    powers = {}
    for a in aux_list:
        row = []
        v = 1 % a.q
        for _ in range(b_span):
            row.append(v)
            v = v * (case.p % a.q) % a.q
        powers[a.q] = row

    counterexample = None
    for sign in (1, -1):
        for b in range(b_span):
            key = tuple(sign * powers[a.q][b] % a.q for a in aux_list)
            hit = deficits.get(key)
            if hit is not None:
                counterexample = (hit, sign, b)
                break
        if counterexample:
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


def build_standard_cases(
    data: TwoPrimeData,
    q_pool: tuple[int, ...] = DEFAULT_Q_POOL,
) -> list[ExclusionCase]:
    """One exclusion case per class of the doubled cover.

    Case 0 is the odd progression n = 1 (mod 2) with target 2; case t >= 1
    is n = 2*b_t (mod 2*m_t) with target p_t.  Auxiliary residues x mod q
    come from the construction data itself (each pool prime is one of the 25
    moduli); a pool prime equal to the case target is dropped, since powers
    of p tell nothing mod p.
    """
    residue_of = {r.n: r.a for r in data.residues}
    unknown = [q for q in q_pool if q not in residue_of]
    if unknown:
        raise ValueError(f"pool primes {unknown} carry no residue in the data")
    cases = []
    for t, p in enumerate(data.primes):
        if t == 0:
            r, m = 1, 2
        else:
            c = data.cover.classes[t - 1]
            r, m = 2 * c.a, 2 * c.n
        aux = tuple(AuxPrime(q, residue_of[q]) for q in q_pool if q != p)
        cases.append(ExclusionCase(
            label=f"t{t:02d} p={p} n={r}(mod {m})", r=r, m=m, p=p, aux=aux))
    return cases


def certify_all_cases(
    data: TwoPrimeData,
    q_pool: tuple[int, ...] = DEFAULT_Q_POOL,
) -> list[CertificateReport]:
    """Run every standard case; raise CertificationError if any is invalid."""
    reports = [check_exclusion(case) for case in build_standard_cases(data, q_pool)]
    invalid = [rep.label for rep in reports if not rep.valid]
    if invalid:
        raise CertificationError(invalid, reports)
    return reports


def load_case(path) -> ExclusionCase:
    """Read a case file: {"label", "r", "m", "p", "aux": [{"q", "x_mod_q"}]}."""
    raw = codec.load(path)
    aux = tuple(AuxPrime(q=e["q"].int(), x_mod_q=e["x_mod_q"].int())
                for e in raw.get("aux", []).list())
    return ExclusionCase(
        label=raw.get("label", "").str(), r=raw["r"].int(), m=raw["m"].int(),
        p=raw["p"].int(), aux=aux)


def store_case(case: ExclusionCase, path) -> None:
    codec.dump(asdict(case), path)
