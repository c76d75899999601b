import json
import math
import random
import tracemalloc

import pytest

from coverlab import covers
from coverlab.assets import COVER_ERDOS, COVER_ODD173, TWO_PRIME_CLASS, asset_path
from coverlab.codec import FormatError
from coverlab.construct import load_two_prime_data
from coverlab.covers import (CoveringSystem, ResidueClass, build_doubled_cover,
                             load_cover, verify_cover)


def test_verify_cover_erdos():
    report = verify_cover(load_cover(asset_path(COVER_ERDOS)))
    assert report.is_cover
    assert report.lcm == 24
    assert report.uncovered_witness is None
    assert report.min_multiplicity >= 1


def test_verify_cover_odd173():
    cover = load_cover(asset_path(COVER_ODD173))
    assert len(cover.classes) == 173
    assert cover.lcm() == 675675
    report = verify_cover(cover)
    assert report.is_cover and report.lcm == 675675


def test_verify_cover_noncover():
    system = CoveringSystem([ResidueClass(0, 3), ResidueClass(1, 3)])
    report = verify_cover(system)
    assert not report.is_cover
    assert report.uncovered_witness == 2
    assert report.min_multiplicity == 0


def test_verify_cover_budget():
    system = CoveringSystem([ResidueClass(0, 675675), ResidueClass(1, 2)])
    with pytest.raises(ValueError, match="1351350"):
        verify_cover(system, enumeration_budget=10**6)
    # the budget bounds the lcm inclusively: lcm 24 is sieved at budget 24
    erdos = load_cover(asset_path(COVER_ERDOS))
    assert verify_cover(erdos, enumeration_budget=24).is_cover
    with pytest.raises(ValueError, match="above the enumeration budget 23"):
        verify_cover(erdos, enumeration_budget=23)


def test_verify_cover_matches_direct_membership():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randrange(1, 7)
        classes = [ResidueClass(rng.randrange(0, 12), rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 12]))
                   for _ in range(k)]
        system = CoveringSystem(classes)
        period = system.lcm()
        if period > 10**4:
            continue
        report = verify_cover(system)
        counts = [sum(c.contains(x) for c in classes) for x in range(period)]
        assert report.is_cover == all(counts)
        assert report.min_multiplicity == min(counts)
        assert report.max_multiplicity == max(counts)
        if not report.is_cover:
            assert report.uncovered_witness == counts.index(0)


def test_verify_cover_counts_past_255():
    # cell 0 is hit 256 times and its byte wraps to 0; it must not read as
    # uncovered, and its count must not read as 0
    report = verify_cover(CoveringSystem([ResidueClass(0, 2)] * 256))
    assert not report.is_cover
    assert report.uncovered_witness == 1
    assert (report.min_multiplicity, report.max_multiplicity) == (0, 256)

    # every cell wraps
    report = verify_cover(CoveringSystem([ResidueClass(0, 1)] * 300 + [ResidueClass(1, 2)]))
    assert report.is_cover and report.uncovered_witness is None
    assert (report.min_multiplicity, report.max_multiplicity) == (300, 301)

    # 65,537 = 1 * 256^2 + 0 * 256 + 1 hits carry cell 0 into a third digit
    report = verify_cover(CoveringSystem([ResidueClass(0, 2)] * 65_537 + [ResidueClass(1, 2)]))
    assert report.is_cover and report.uncovered_witness is None
    assert (report.min_multiplicity, report.max_multiplicity) == (1, 65_537)


def _direct(classes):
    """(is_cover, min, max, witness) from the membership count of every cell."""
    counts = [sum(c.contains(x) for c in classes)
              for x in range(CoveringSystem(classes).lcm())]
    return all(counts), min(counts), max(counts), counts.index(0) if 0 in counts else None


def test_verify_cover_counts_modulus_1_classes_without_sieving_them():
    rng = random.Random(1)
    whole = ResidueClass(0, 1)
    systems = [[whole] * k for k in (1, 2, 255, 256, 300)]           # only 0(1)
    systems.append([whole] * 200 + [ResidueClass(0, 2)] * 100)        # 300 on evens
    systems.append([ResidueClass(1, 3)] * 255 + [whole, ResidueClass(5, 1)])
    for _ in range(30):
        classes = [ResidueClass(rng.randrange(-9, 9), rng.choice([1, 2, 3, 4, 6]))
                   for _ in range(rng.randrange(1, 6))]
        classes *= rng.choice([1, 60, 130])
        rng.shuffle(classes)
        systems.append(classes)
    for classes in systems:
        report = verify_cover(CoveringSystem(classes))
        assert (report.is_cover, report.min_multiplicity, report.max_multiplicity,
                report.uncovered_witness) == _direct(classes), classes


def test_verify_cover_matches_direct_counts_at_any_multiplicity():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    stacks = st.lists(st.tuples(st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 12]),
                                st.integers(1, 300)), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(stacks, st.randoms(use_true_random=False))
    def check(stack, rng):
        classes = [ResidueClass(a, n) for a, n, copies in stack for _ in range(copies)][:600]
        rng.shuffle(classes)
        system = CoveringSystem(classes)
        report = verify_cover(system)
        counts = [sum(c.contains(x) for c in classes) for x in range(system.lcm())]
        assert report.is_cover == all(counts)
        assert report.min_multiplicity == min(counts)
        assert report.max_multiplicity == max(counts)
        assert report.uncovered_witness == (counts.index(0) if 0 in counts else None)

    check()


def test_verify_cover_tiles_counts_and_wraps_across_period_steps():
    # classes are sieved in ascending modulus order on a period that grows
    # by several tile steps up to at most 630 as moduli come in; a class
    # stacked up to 300 times wraps its cells past 255 before the next step
    rng = random.Random(14)
    moduli = [2, 3, 5, 7, 9, 10, 14, 15]
    for _ in range(40):
        stack = [(ResidueClass(rng.randrange(-20, 20), n), rng.choice([1, 2, 90, 255, 256, 300]))
                 for n in rng.sample(moduli, rng.randrange(2, len(moduli) + 1))]
        classes = [c for c, copies in stack for _ in range(copies)]
        system = CoveringSystem(classes)
        period = system.lcm()
        counts = [0] * period
        for c in classes:
            for x in range(c.a % c.n, period, c.n):
                counts[x] += 1
        report = verify_cover(system)
        assert report.lcm == period
        assert report.is_cover == all(counts)
        assert (report.min_multiplicity, report.max_multiplicity) == (min(counts), max(counts))
        assert report.uncovered_witness == (counts.index(0) if 0 in counts else None)
        for _ in range(2):
            rng.shuffle(classes)
            assert verify_cover(CoveringSystem(classes)) == report


def test_verify_cover_refined_erdos_cover_at_scale():
    # the lcm-24 cover with a(n) replaced by (a + n*b)(n*m) for each b(m) of
    # the odd cover: x = a + n*y lies in the new class exactly when y is in b(m)
    erdos = load_cover(asset_path(COVER_ERDOS))
    odd = load_cover(asset_path(COVER_ODD173))
    for target, lcm, max_mult in ((ResidueClass(0, 3), 16_216_200, 7),
                                  (ResidueClass(0, 2), 5_405_400, 6)):
        a, n = target.a, target.n
        cover = CoveringSystem(
            [c for c in erdos.classes if c != target]
            + [ResidueClass((a + n * b.a) % (n * b.n), n * b.n) for b in odd.classes])
        report = verify_cover(cover)
        assert report.is_cover and report.uncovered_witness is None
        assert (report.lcm, report.min_multiplicity, report.max_multiplicity) == (lcm, 1, max_mult)

        twin = CoveringSystem([c for c in cover.classes if c != ResidueClass(23, 24)])
        report = verify_cover(twin)
        assert not report.is_cover and report.lcm == lcm
        assert report.uncovered_witness == 23 and report.min_multiplicity == 0


@pytest.mark.parametrize("segment", [1, 7, 64])
def test_verify_cover_segment_by_segment_matches_direct_counts(monkeypatch, segment):
    # with the segment shrunk to a few cells, every class whose modulus
    # takes the tile past it is sieved on each segment in turn
    monkeypatch.setattr(covers, "_SEGMENT", segment)
    R = ResidueClass
    systems = [
        # the tile's cell 0 wraps, so every even cell of every segment has
        # wrapped; 1(15) and 3(10) x 256 then wrap cells segment by segment
        [R(0, 2)] * 256 + [R(1, 15)] + [R(3, 10)] * 256,
        # 0(10) x 6 takes the tile's count of 250 past 255 in some segments
        [R(0, 2)] * 250 + [R(0, 10)] * 6 + [R(5, 9)],
        # every cell wraps, in the tile or in its segment
        [R(0, 2)] * 256 + [R(1, 2)] * 255 + [R(x, 10) for x in (1, 3, 5, 7, 9)]
        + [R(1, 6)] * 3,
        # every cell wraps in the tile and again in its segment, so no cell
        # of a tile cell's run is without wraps of its own
        [R(0, 2)] * 256 + [R(1, 2)] * 256 + [R(x, 8) for x in range(8)] * 256,
        # classes of modulus 1 are counted, not sieved, beside a wrap
        [R(0, 1)] * 2 + [R(1, 3)] * 256 + [R(7, 1), R(2, 9)],
        # tiles of 8 cells in segments of 64 cells over a period of 72
        [R(1, 2), R(0, 4), R(2, 8), R(6, 9)],
        # tiles of 3 cells in segments of 6 cells over a period of 15
        [R(0, 3), R(1, 5), R(2, 5)],
        # the only uncovered cell, 89, lies in the last segment
        [R(x, 90) for x in range(89)] + [R(0, 2)],
    ]
    rng = random.Random(segment)
    for _ in range(25):
        stack = [(R(rng.randrange(-20, 20), rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15])),
                  rng.choice([1, 1, 2, 255, 256, 300]))
                 for _ in range(rng.randrange(1, 6))]
        classes = [c for c, copies in stack for _ in range(copies)][:400]
        rng.shuffle(classes)
        systems.append(classes)
    for classes in systems:
        report = verify_cover(CoveringSystem(classes))
        assert report.lcm == CoveringSystem(classes).lcm()
        assert (report.is_cover, report.min_multiplicity, report.max_multiplicity,
                report.uncovered_witness) == _direct(classes), classes


def _traced_peak(system):
    tracemalloc.start()
    try:
        report = verify_cover(system)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_cover_holds_one_segment_not_the_period():
    # lcm 16,216,200: the whole period would be 16 MB of bytes
    erdos = load_cover(asset_path(COVER_ERDOS))
    odd = load_cover(asset_path(COVER_ODD173))
    cover = CoveringSystem(
        [c for c in erdos.classes if c != ResidueClass(0, 3)]
        + [ResidueClass(3 * b.a % (3 * b.n), 3 * b.n) for b in odd.classes])
    report, peak = _traced_peak(cover)
    assert report.is_cover and report.lcm == 16_216_200
    assert peak < 4 * 2**20

    # every even cell is hit 256 times, so its count carries into a second
    # plane: 1(10^7) is sieved on 10 segments of two planes each, one at a
    # time, and 1(2^20) on a tile of two planes of 2^20 cells
    for big in (10**7, 2**20):
        report, peak = _traced_peak(CoveringSystem([ResidueClass(0, 2)] * 256
                                                   + [ResidueClass(1, big)]))
        assert (report.is_cover, report.lcm, report.uncovered_witness,
                report.min_multiplicity, report.max_multiplicity) == (False, big, 3, 0, 256)
        assert peak < 4 * 2**20, big


def test_build_doubled_cover():
    odd = load_two_prime_data(asset_path(TWO_PRIME_CLASS)).cover
    doubled = build_doubled_cover(odd)
    assert len(doubled.classes) == 25
    assert doubled.classes == [ResidueClass(1, 2)] + [
        ResidueClass(2 * c.a % (2 * c.n), 2 * c.n) for c in odd.classes]
    assert doubled.label == f"{odd.label}-doubled"
    for c in doubled.classes[1:]:
        assert c.n % 4 == 2
    folded = 1
    for c in doubled.classes:   # oracle: pairwise fold of the moduli
        folded = folded * c.n // math.gcd(folded, c.n)
    assert doubled.lcm() == folded == 630
    report = verify_cover(doubled)
    assert report.is_cover and report.lcm == 630


def test_build_doubled_cover_examples():
    everything = CoveringSystem([ResidueClass(0, 1)])
    assert everything.lcm() == 1
    with pytest.raises(ValueError):
        CoveringSystem([])
    with pytest.raises(ValueError):
        ResidueClass(1, 0)
    doubled = build_doubled_cover(everything)
    assert doubled.classes == [ResidueClass(1, 2), ResidueClass(0, 2)]

    sparse = build_doubled_cover(CoveringSystem([ResidueClass(1, 3)]))
    assert sparse.classes == [ResidueClass(1, 2), ResidueClass(2, 6)]
    report = verify_cover(sparse)
    assert not report.is_cover
    assert report.uncovered_witness == 0   # 0 is even and 0/2 = 0 not in 1(3)

    with pytest.raises(ValueError):
        build_doubled_cover(CoveringSystem([ResidueClass(0, 2)]))


def test_doubling_membership_property():
    rng = random.Random(21)
    systems = [load_two_prime_data(asset_path(TWO_PRIME_CLASS)).cover]
    for _ in range(20):
        k = rng.randrange(1, 5)
        systems.append(CoveringSystem(
            [ResidueClass(rng.randrange(0, 15), rng.choice([1, 3, 5, 7, 9, 15]))
             for _ in range(k)]))
    for system in systems:
        doubled = build_doubled_cover(system)
        period = doubled.lcm()
        for x in range(period):
            in_doubled = any(c.contains(x) for c in doubled.classes)
            expected = x % 2 == 1 or any(c.contains(x // 2) for c in system.classes)
            assert in_doubled == expected, (system.label, x)


def test_load_cover_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"label": "x", "classes": []}))
    with pytest.raises(FormatError, match="classes"):
        load_cover(empty)

    broken = tmp_path / "broken.json"
    broken.write_text('{"label": "x", "classes": [{"a": "1"')
    with pytest.raises(FormatError, match="line"):
        load_cover(broken)

    missing_field = tmp_path / "field.json"
    missing_field.write_text(json.dumps({"label": "x", "classes": [{"a": "1"}]}))
    with pytest.raises(FormatError, match=r"classes\[0\]"):
        load_cover(missing_field)

    zero_mod = tmp_path / "zero.json"
    zero_mod.write_text(json.dumps({"label": "x",
                                    "classes": [{"a": "1", "n": "0"}]}))
    with pytest.raises(FormatError, match="modulus"):
        load_cover(zero_mod)


def test_perturbing_a_uniquely_covering_class_is_detected():
    cover = load_two_prime_data(asset_path(TWO_PRIME_CLASS)).cover
    period = cover.lcm()
    counts = [sum(c.contains(x) for c in cover.classes) for x in range(period)]
    x = counts.index(1)
    idx = next(i for i, c in enumerate(cover.classes) if c.contains(x))
    broken = list(cover.classes)
    broken[idx] = ResidueClass((broken[idx].a + 1) % broken[idx].n, broken[idx].n)
    report = verify_cover(CoveringSystem(broken, label="broken"))
    assert not report.is_cover

