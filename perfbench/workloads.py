"""The benchmark's workloads: seeded inputs for each pass and their oracles.

A workload turns a seeded RNG into the jobs of one pass; each job runs in
its own fresh interpreter (see worker.py).  `check` judges one output
against an oracle that does not use coverlab: sympy for primes, orders and
cyclotomic values, direct membership tests for covers, and the shipped asset
files read as plain JSON for the reproduction targets.  Checks run in the
parent, outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from functools import lru_cache
from pathlib import Path

ASSETS = Path("src") / "coverlab" / "assets"


class Reproduce:
    """All five `coverlab reproduce` targets through `cli.main`, one
    interpreter per target.  The seed has no effect."""

    TARGETS = ("thm11", "thm13", "cases", "erdos", "lemma41")

    def __init__(self, root: Path, seed: int) -> None:
        raw = json.loads((root / ASSETS / "two_prime_class.json").read_text())
        # Each dict must be contained in some detail row of the target's
        # JSON report; the report must also say outcome "pass".
        self.required = {
            "thm11": [{"check": "cover", "classes": "173", "lcm": "675675",
                       "is_cover": "true"},
                      {"erratum_n": "1755", "bad_value": "196911",
                       "replacement": "1969111", "replacement_verified": "true"}],
            "thm13": [{"a": raw["expected_a"], "M": raw["expected_m"]}],
            "cases": [{"valid_cases": "25/25"}],
            "erdos": [{"mechanics_failures": "0"}],
            "lemma41": [],
        }

    def jobs(self, rng: random.Random, index: int) -> list[dict]:
        return [{"kind": "reproduce", "operands": [t]} for t in self.TARGETS]

    def check(self, job: dict, i: int, output: dict) -> str | None:
        target = job["operands"][i]
        if output.get("exit") != 0 or "report" not in output:
            return f"{target}: exit {output.get('exit')} {output.get('error', '')}"
        report = output["report"]
        if report["outcome"] != "pass":
            return f"{target}: outcome {report['outcome']}"
        for want in self.required[target]:
            if not any(want.items() <= row.items() for row in report["detail"]):
                return f"{target}: no detail row with {want}"
        return None

    def details(self, passes: list[dict]) -> dict:
        out = {f"{t}_s": statistics.median(p["elapsed"][k] for p in passes)
               for k, t in enumerate(self.TARGETS)}
        out["reproduce_s"] = statistics.median(p["pass_s"] for p in passes)
        return out


@lru_cache(maxsize=None)
def _isprime(p: int) -> bool:
    from sympy import isprime
    return isprime(p)


@lru_cache(maxsize=None)
def _primorial(bound: int) -> int:
    """The product of all primes below `bound`, by a product tree."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    values = [p for p in range(bound) if sieve[p]]
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0]


def _stops_early(n: int) -> bool:
    """Is n 10^6-smooth apart from one prime below 10^12?

    Trial division to 10^6 ends early exactly on such n: their part free of
    primes below 10^6 is below 10^12.
    """
    g = math.gcd(n, _primorial(10**6))
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n < 10**12


def _u64(rng: random.Random, index: int, count: int = 20, early_share: float = 0.356):
    """Uniform 64-bit integers, the shape of the slow random Tier-1 test.

    Draws are stratified by `_stops_early`: each pass takes that stratum in
    its population share (0.356, from 28,000 draws) and the rest from the
    other, so the sample stays uniform but a pass's cost does not swing with
    how many cheap draws it happened to get.
    """
    def early_before(k):
        return round(early_share * count * k)

    early = early_before(index + 1) - early_before(index)
    quota = {True: early, False: count - early}
    out = []
    while len(out) < count:
        n = rng.getrandbits(64) + 1
        stratum = _stops_early(n)
        if quota[stratum]:
            quota[stratum] -= 1
            out.append(n)
    return out


def _semi(rng: random.Random, index: int, count: int = 12):
    """Products of two random 30-bit primes: trial division finds nothing."""
    from sympy import prevprime
    return [prevprime(rng.randrange(2**29 + 64, 2**30))
            * prevprime(rng.randrange(2**29 + 64, 2**30))
            for _ in range(count)]


def _small(rng: random.Random, index: int, blocks: int = 20, block: int = 1000):
    """Contiguous blocks below 10^6, one at a seeded offset in each of
    `blocks` equal strata, so every pass spans the whole range as the
    1..10^6 Tier-1 test does."""
    stride = 10**6 // blocks
    out = []
    for j in range(blocks):
        lo = j * stride + 1 + rng.randrange(stride - block)
        out.extend(range(lo, lo + block))
    return out


class Factor:
    """`arith.factor` on three seeded input classes, one interpreter each.

    The classes use factor() differently (trial division to 10^6, rho after
    a fruitless trial division, per-call overhead), so a change that helps
    one class and costs another shows in the per-class rates.
    """

    CLASSES = {"u64": _u64, "semi": _semi, "small": _small}

    def __init__(self, root: Path, seed: int) -> None:
        _primorial(10**6)   # build it before the timed passes start

    def jobs(self, rng: random.Random, index: int) -> list[dict]:
        return [{"kind": "factor", "class": name, "operands": draw(rng, index)}
                for name, draw in self.CLASSES.items()]

    def check(self, job: dict, i: int, output: dict) -> str | None:
        n = job["operands"][i]
        if "error" in output:
            return f"factor({n}) raised {output['error']}"
        if output["cofactor"] != 1:
            return f"factor({n}) incomplete, cofactor {output['cofactor']}"
        product = 1
        for p, e in output["factors"]:
            if e < 1 or not _isprime(p):
                return f"factor({n}) lists {p}^{e}"
            product *= p**e
        if product != n:
            return f"factor({n}) multiplies to {product}"
        return None

    def details(self, passes: list[dict]) -> dict:
        return {f"factor_{name}_per_s": statistics.median(
                    len(p["jobs"][k]["operands"]) / p["elapsed"][k] for p in passes)
                for k, name in enumerate(self.CLASSES)}


class Primitive:
    """`mersenne.find_primitive_divisors(n)` at the default budget for every
    n in 2..136, in a seeded order.

    Every exponent runs in each pass, so a pass costs the same whichever
    seed is drawn (n = 101 alone takes about 4 s of the 9 s).  Exponents that
    run unbounded at the default budget (n = 137 did not finish in 5 s,
    n = 1755 runs for over 10 min) stay out until FactorBudget has
    wall-clock deadlines.
    """

    EXPONENTS = range(2, 137)

    def __init__(self, root: Path, seed: int) -> None:
        pass

    def jobs(self, rng: random.Random, index: int) -> list[dict]:
        exponents = list(self.EXPONENTS)
        rng.shuffle(exponents)
        return [{"kind": "primitive", "operands": exponents}]

    def check(self, job: dict, i: int, output: dict) -> str | None:
        from sympy import cyclotomic_poly, n_order, primefactors
        n = job["operands"][i]
        if "error" in output:
            return f"primitive({n}) raised {output['error']}"
        if not output["complete"]:
            return f"primitive({n}) incomplete"
        product = 1
        for p, alpha in output["witnesses"]:
            if not _isprime(p) or n_order(2, p) != n or alpha < 1:
                return f"primitive({n}) lists {p}^{alpha}"
            product *= p**alpha
        # Phi_n(2) is the primitive part times possibly the largest prime
        # factor of n.
        quotient, rest = divmod(int(cyclotomic_poly(n, 2)), product)
        if rest or quotient not in (1, max(primefactors(n))):
            return f"primitive({n}) witnesses leave {quotient} of Phi_n(2)"
        return None

    def details(self, passes: list[dict]) -> dict:
        return {"primitive_s": statistics.median(p["pass_s"] for p in passes)}


def refine(classes, target, subcover):
    """Replace class a(n) by {a + n*b (n*m) : b(m) in subcover}."""
    a, n = target
    return [c for c in classes if c != target] + [(a + n * b, n * m) for b, m in subcover]


def _covered(x: int, classes) -> bool:
    return any((x - a) % n == 0 for a, n in classes)


class Sieve:
    """`covers.verify_cover` on the classical lcm-24 cover with one class
    refined by the 173-class odd cover, and on a non-cover twin.

    Refining 0(2) gives lcm 5,405,400 (the period, as a list, fits the L3
    cache) and refining 0(3) gives 16,216,200 (it does not).  The twins drop
    23(24) and so miss 23.  Even passes verify the small cover and the large
    twin, odd passes the small twin and the large cover, so every pass sieves
    21,621,600 cells; the seed shuffles each pass's class order.  Refining
    1(4), 3(8), 7(12) or 23(24) instead sieves up to 20% fewer class
    members, so letting the seed pick the refined class made a pass's cost
    swing with the draw.
    """

    REFINED = ((0, 2), (0, 3))
    LCMS = (5_405_400, 16_216_200)
    DROPPED, HOLE = (23, 24), 23

    def __init__(self, root: Path, seed: int) -> None:
        def load(name):
            raw = json.loads((root / ASSETS / name).read_text())
            return [(int(c["a"]), int(c["n"])) for c in raw["classes"]]

        classical, odd = load("cover_erdos.json"), load("cover_odd173.json")
        self.pairs = []           # per lcm: (cover, twin)
        for target, lcm in zip(self.REFINED, self.LCMS):
            cover = refine(classical, target, odd)
            twin = [c for c in cover if c != self.DROPPED]
            for classes in (cover, twin):
                if math.lcm(*(n for _, n in classes)) != lcm:
                    raise ValueError(f"refining {target} does not give lcm {lcm}")
            if _covered(self.HOLE, twin) or not _covered(self.HOLE, cover):
                raise ValueError(f"the twin does not miss {self.HOLE}")
            self.pairs.append((cover, twin))

    def jobs(self, rng: random.Random, index: int) -> list[dict]:
        (small, small_twin), (large, large_twin) = self.pairs
        chosen = [(small, True), (large_twin, False)] if index % 2 == 0 else \
            [(small_twin, False), (large, True)]
        operands = []
        for classes, _ in chosen:
            classes = list(classes)
            rng.shuffle(classes)
            operands.append(classes)
        return [{"kind": "sieve", "operands": operands,
                 "expect": [is_cover for _, is_cover in chosen]}]

    def check(self, job: dict, i: int, output: dict) -> str | None:
        classes, is_cover = job["operands"][i], job["expect"][i]
        lcm = math.lcm(*(n for _, n in classes))
        if "error" in output:
            return f"verify_cover raised {output['error']}"
        if output["is_cover"] != is_cover or output["lcm"] != lcm:
            return f"verify_cover says is_cover={output['is_cover']} lcm={output['lcm']}"
        witness = output["witness"]
        if is_cover:
            return None if witness is None else f"cover reports witness {witness}"
        if not isinstance(witness, int) or not 0 <= witness < lcm or _covered(witness, classes):
            return f"witness {witness} is covered or out of range"
        return None

    def details(self, passes: list[dict]) -> dict:
        cells = sum(self.LCMS)
        return {"sieve_cells_per_s": statistics.median(cells / p["pass_s"] for p in passes)}


WORKLOADS = {
    "reproduce": Reproduce,
    "factor": Factor,
    "primitive": Primitive,
    "sieve": Sieve,
}
