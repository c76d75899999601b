"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every criterion runs `coverlab reproduce TARGET --json --out FILE` and
asserts on the named rows of the report it writes, so each claim checked
here is one that a plain `reproduce` run re-proves.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines as
they complete.
"""

import contextlib
import io
import json
import math

from coverlab import cli
from coverlab.assets import TWO_PRIME_CLASS, asset_path
from coverlab.construct import load_two_prime_data


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {label}")
        raise
    print(f"PASS criterion {label}")


def reproduce(target, tmp_path) -> dict:
    """The JSON report of a passing `coverlab reproduce TARGET` run."""
    out = tmp_path / f"{target}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce", target, "--json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0 and report["outcome"] == "pass", report["detail"]
    return report


def row(report, **want) -> dict:
    """The one detail row that holds every given key with the given value."""
    rows = [r for r in report["detail"] if want.items() <= r.items()]
    assert len(rows) == 1, (want, rows)
    return rows[0]


def checks(report, prefix) -> list[dict]:
    """The construction check rows whose name starts with `prefix`."""
    return [r for r in report["detail"] if r.get("check", "").startswith(prefix)]


def test_criterion_01_odd_cover_verifies(tmp_path):
    with criterion("1: 173-class odd cover, lcm 675675, < 5 s"):
        report = reproduce("thm11", tmp_path)
        row(report, check="cover", classes="173", lcm="675675", is_cover="true")
        assert report["wall_time_s"] < 5.0


def test_criterion_02_prime_table_audit(tmp_path):
    with criterion("2: prime table audit with explained errata, < 10 min"):
        report = reproduce("thm11", tmp_path)
        # the audited files are the ones the README lists, so the omitted
        # exponents are 1485, 3003, 3465, 3861, 5005, 5775, 6435, 10395, 675675
        assert report["asset_checksums"] == {
            "cover_odd173.json":
                "ef5b95a7f9b30d253c5e10d20a9487527c73e38d1d1474778c65629e7abbd241",
            "prime_table_odd173.json":
                "37ee6ddce2f435dcd0ae858e45e12f8d3250e23a3ad7b8f81c39e556da68c481",
            "prime_certificates.json":
                "f9c7e5d3b29538e6f05b64cd3fde0e7461db0c31bb5e6689b09ef7c144c0c465"}
        # 164 primes for 173 classes: the 9 omitted exponents occur once each
        row(report, check="prime-table", entries="164", failing_rows="1",
            duplicates="0", count_mismatches="0", omitted_consistent="true")
        # 120 primes below 2^64 decided exactly, 42 above by certificates
        row(report, check="prime-proofs", deterministic="120", certified="42",
            probable="2")
        # the single expected transcription artifact, explained and replaced
        errata = [r for r in report["detail"] if "erratum_n" in r]
        assert errata == [{"erratum_n": "1755", "bad_value": "196911",
                           "reason": "not prime", "replacement": "1969111",
                           "replacement_verified": "true"}]
        assert report["wall_time_s"] < 600.0


def test_criterion_03_doubled_cover(tmp_path):
    with criterion("3: 24 odd classes double to a 25-class cover, lcm 630"):
        report = reproduce("thm13", tmp_path)
        row(report, check="odd-cover", ok="true", detail="lcm 315")
        row(report, check="doubled-cover", ok="true", detail="lcm 630")
        periods = checks(report, "period t=")
        assert [r["check"] for r in periods] == [f"period t={t}" for t in range(25)]
        assert all(r["ok"] == "true" for r in periods)


def test_criterion_04_ranks_of_apparition(tmp_path):
    with criterion("4: rank of every target prime is exactly 2*m_t, < 10 s"):
        report = reproduce("thm13", tmp_path)
        data = load_two_prime_data(asset_path(TWO_PRIME_CLASS))
        moduli = [2] + [2 * c.n for c in data.cover.classes]
        ranks = checks(report, "rank t=")
        assert [r["check"] for r in ranks] == [f"rank t={t}" for t in range(25)]
        for r, p, m in zip(ranks, data.primes, moduli):
            assert r["ok"] == "true"
            assert r["detail"] == f"rank of {p} is {m}, modulus {m}"
        assert report["wall_time_s"] < 10.0


def test_criterion_05_golden_constants(tmp_path):
    with criterion("5: CRT reproduces the 80-digit class digit-for-digit"):
        report = reproduce("thm13", tmp_path)
        data = load_two_prime_data(asset_path(TWO_PRIME_CLASS))
        row(report, a=str(data.expected_a), M=str(data.expected_m))
        for name in ("a-digit-exact", "M-digit-exact", "M-is-prime-product"):
            row(report, check=name, ok="true")
        row(report, checks="82", failures="0")
        assert data.expected_m == math.prod(data.primes)


def test_criterion_06_square_residue_transfer(tmp_path):
    with criterion("6: a^2 tracks the sequence residue mod every p_t"):
        report = reproduce("thm13", tmp_path)
        row(report, check="a-odd", ok="true")
        squares = checks(report, "square-residue t=")
        assert [r["check"] for r in squares] == [
            f"square-residue t={t}" for t in range(1, 25)]
        assert all(r["ok"] == "true" for r in squares)


def test_criterion_07_case_engine(tmp_path):
    with criterion("7: all 25 exclusion cases certify, < 60 s"):
        report = reproduce("cases", tmp_path)
        cases = [r for r in report["detail"] if "case" in r]
        assert len(cases) == 25
        assert all(r["valid"] == "true" for r in cases)
        row(report, valid_cases="25/25")
        row(report, check="members-exceed-2", ok="true")
        assert report["wall_time_s"] < 60.0


def test_criterion_08_brute_force_window(tmp_path):
    with criterion("8: no x^2 - u_n = +-p^b for n <= 2000, b <= 60"):
        for target in ("thm13", "cases"):
            report = reproduce(target, tmp_path)
            row(report, check="brute-force-window", ok="true",
                detail="no x^2 - u_n = +-p_t^b for n <= 2000, b <= 60")


def test_criterion_09_erdos_construction(tmp_path):
    with criterion("9: witness primes divide x - 2^n for all n <= 2000, < 5 s"):
        report = reproduce("erdos", tmp_path)
        row(report, check="cover", classes="6", lcm="24", is_cover="true")
        # M = 2 * 31 * the witness primes 3, 5, 7, 13, 17, 241
        row(report, M=str(2 * 31 * 3 * 5 * 7 * 13 * 17 * 241))
        row(report, mechanics_checked="2001", mechanics_failures="0",
            odd="true", mod31="3")
        assert report["wall_time_s"] < 5.0


def test_criterion_10_wieferich_scan(tmp_path):
    with criterion("10: 3511 is the table's one Wieferich prime; 3511^2 | 2^1755 - 1"):
        report = reproduce("thm11", tmp_path)
        hits = [r for r in report["detail"] if r.get("check") == "wieferich"]
        assert hits == [{"check": "wieferich", "n": "1755", "p": "3511",
                         "alpha": "2"}]


def test_criterion_11_periodicity_suite(tmp_path):
    with criterion("11: periodicity suite for c in 1..6, n in 2, 6, 10, 14"):
        report = reproduce("lemma41", tmp_path)
        rows = [r for r in report["detail"] if "c" in r]
        assert [(r["c"], r["n"]) for r in rows] == [
            (str(c), str(n)) for c in range(1, 7) for n in (2, 6, 10, 14)]
        assert all(r["failures"] == "0" for r in rows)
        assert sum(int(r["primitive_primes"]) for r in rows) == 24
