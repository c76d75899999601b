"""Residue classes, covering systems of the integers, and their verification.

A system {a_1(n_1), ..., a_k(n_k)} covers Z iff it covers one full period
0..lcm(n_1..n_k)-1, so coverage is decided by a counting sieve over that
period.  No inclusion-exclusion shortcut is used: every system this package
ships has a small lcm (24, 630, 675675) and the sieve is the transparent
check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import codec


@dataclass(frozen=True, order=True)
class ResidueClass:
    """The set {x in Z : x = a (mod n)}, written a(n)."""

    a: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be >= 1, got {self.n}")

    def contains(self, x: int) -> bool:
        return (x - self.a) % self.n == 0

    def normalized(self) -> "ResidueClass":
        return ResidueClass(self.a % self.n, self.n)

    def __str__(self) -> str:
        return f"{self.a}({self.n})"


@dataclass
class CoveringSystem:
    """An ordered, finite list of residue classes with a human label."""

    classes: list[ResidueClass]
    label: str = ""

    def __post_init__(self):
        if not self.classes:
            raise ValueError("a covering system needs at least one class")

    def lcm(self) -> int:
        return math.lcm(*(c.n for c in self.classes))

    def __len__(self) -> int:
        return len(self.classes)


@dataclass
class CoverReport:
    """Outcome of sieving a system over one full period."""

    is_cover: bool
    lcm: int
    uncovered_witness: int | None
    min_multiplicity: int
    max_multiplicity: int


def verify_cover(system: CoveringSystem, enumeration_budget: int = 10**8) -> CoverReport:
    """Sieve one full period and report coverage and multiplicity extremes.

    `enumeration_budget` bounds the lcm of the moduli; a larger lcm raises
    instead of silently grinding.
    """
    period = system.lcm()
    if period > enumeration_budget:
        raise ValueError(
            f"lcm of moduli is {period}, above the enumeration budget "
            f"{enumeration_budget}")
    counts = [0] * period
    for c in system.classes:
        for i in range(c.a % c.n, period, c.n):
            counts[i] += 1
    min_mult = min(counts)
    max_mult = max(counts)
    witness = counts.index(0) if min_mult == 0 else None
    return CoverReport(
        is_cover=min_mult >= 1,
        lcm=period,
        uncovered_witness=witness,
        min_multiplicity=min_mult,
        max_multiplicity=max_mult,
    )


def modulus_multiplicity(system: CoveringSystem) -> dict[int, int]:
    """Occurrence count of each distinct (normalized) modulus."""
    counts: dict[int, int] = {}
    for c in system.classes:
        counts[c.n] = counts.get(c.n, 0) + 1
    return counts


def build_doubled_cover(odd_cover: CoveringSystem) -> CoveringSystem:
    """Turn a cover with odd moduli into {1(2)} + {2b(2m) per input class b(m)}.

    The result covers Z iff the input does: odd integers land in 1(2) and an
    even integer 2y lands in 2b(2m) exactly when y lands in b(m).  All output
    moduli except the leading 2 are = 2 (mod 4).
    """
    for c in odd_cover.classes:
        if c.n % 2 == 0:
            raise ValueError(f"modulus {c.n} is even; doubling needs odd moduli")
    doubled = [ResidueClass(1, 2)]
    doubled += [ResidueClass((2 * c.a) % (2 * c.n), 2 * c.n) for c in odd_cover.classes]
    label = f"{odd_cover.label}-doubled" if odd_cover.label else "doubled"
    return CoveringSystem(doubled, label=label)


def read_classes(items: codec.Field) -> list[ResidueClass]:
    """Residue classes from a nonempty JSON list of {"a": dec, "n": dec}."""
    classes = []
    for item in items.list():
        n = item["n"].int()
        if n < 1:
            raise item["n"].error(f"modulus {n} < 1")
        classes.append(ResidueClass(item["a"].int(), n))
    if not classes:
        raise items.error("expected a nonempty list")
    return classes


def load_cover(path) -> CoveringSystem:
    """Read a cover file: {"label": str, "classes": [{"a": dec, "n": dec}]}."""
    raw = codec.load(path)
    return CoveringSystem(read_classes(raw["classes"]),
                          label=raw.get("label", "").str())


def store_cover(system: CoveringSystem, path) -> None:
    """Write a cover file; class order is preserved, bigints go as decimals."""
    codec.dump({"label": system.label,
                "classes": [asdict(c) for c in system.classes]}, path)
