import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import coverlab
from coverlab import arith, assets, certify, cli, codec, construct, mersenne
from coverlab.lucas import LucasSpec
from coverlab.mersenne import (MERSENNE, PrimitiveDivisorWitness, cyclotomic_mersenne,
                               load_prime_table)
from coverlab.pocklington import load_certificates


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def asset(name):
    return str(assets.asset_path(name))


def test_verify_cover_pass(capsys):
    code, out = run(["verify-cover", asset(assets.COVER_ODD173)], capsys)
    assert code == 0
    assert "lcm=675675" in out

    code, out = run(["verify-cover", asset(assets.COVER_ERDOS)], capsys)
    assert code == 0
    assert "lcm=24" in out


def test_verify_cover_fail(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "label": "gap",
        "classes": [{"a": "0", "n": "3"}, {"a": "1", "n": "3"}]}))
    code, out = run(["verify-cover", str(bad)], capsys)
    assert code == 1
    assert "uncovered_witness=2" in out


def test_verify_cover_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["verify-cover", str(bad)]) == 2
    assert cli.main(["verify-cover", str(tmp_path / "missing.json")]) == 2


def test_primitive_base2(capsys):
    code, out = run(["primitive", "--base", "2", "--n", "11"], capsys)
    assert code == 0
    assert "p=23" in out and "p=89" in out

    code, out = run(["primitive", "--base", "2", "--n", "6"], capsys)
    assert code == 0
    assert "p=" not in out


def test_primitive_lucas(capsys):
    # one row shape for both families: the rank is n, already in the inputs
    code, out = run(["primitive", "--lucas-c", "4", "--n", "14"], capsys)
    assert code == 0
    assert "p=29  alpha=1" in out and "rank=" not in out


def test_primitive_lucas_primitive_part(capsys):
    # the finder factors only the primitive part of U_58 for c = 6,
    # 2437 * 5463737727275520773, not all of U_58
    code, out = run(["primitive", "--lucas-c", "6", "--n", "58", "--json"], capsys)
    assert code == 0
    assert [r["p"] for r in json.loads(out)["detail"]] == ["2437", "5463737727275520773"]


def test_primitive_lucas_unresolved_cofactor(capsys):
    # the cofactor is what the listed primes leave of the primitive part;
    # trial division finds 257 and rho's 100 steps 5417 and 8513, not
    # 39639893 * 433494437
    code, out = run(["primitive", "--lucas-c", "4", "--n", "43",
                     "--factor-budget", "100", "--json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["outcome"] == "partial"
    *rows, last = report["detail"]
    assert rows == [{"p": p, "alpha": "1"} for p in ("257", "5417", "8513")]
    assert list(last) == ["unresolved_cofactor"]
    cofactor = int(last["unresolved_cofactor"])
    assert cofactor * 257 * 5417 * 8513 == cyclotomic_mersenne(43, LucasSpec(4))
    assert cofactor > 1 and all(cofactor % p for p in (257, 5417, 8513))


def test_primitive_incomplete_budget(capsys):
    # 2^137 - 1 is a semiprime of two 20-digit primes: out of reach here, so
    # the cofactor is all of the primitive part
    code, out = run(["primitive", "--base", "2", "--n", "137",
                     "--factor-budget", "1000", "--json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["outcome"] == "partial"
    *rows, last = report["detail"]
    assert all(set(r) == {"p", "alpha"} for r in rows)
    assert list(last) == ["unresolved_cofactor"]
    found = math.prod(int(r["p"]) ** int(r["alpha"]) for r in rows)
    assert int(last["unresolved_cofactor"]) * found == cyclotomic_mersenne(137)


def test_primitive_factor_budget_caps_rho_alone(capsys):
    # 3511^2 divides Phi_1755(2): trial division finds it at any budget,
    # even when a single rho step splits nothing else.  A budget below
    # arith._PM1_SQUARINGS (190,000) also turns P-1 off, which would find
    # the primitive prime 1969111
    code, out = run(["primitive", "--base", "2", "--n", "1755",
                     "--factor-budget", "1", "--json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["outcome"] == "partial"
    *rows, last = report["detail"]
    assert rows == [{"p": "3511", "alpha": "2"}]
    assert int(last["unresolved_cofactor"]) * 3511**2 == cyclotomic_mersenne(1755)


def test_primitive_factor_budget_default(monkeypatch):
    seen = []

    def spy(n, rho_iterations, spec):
        seen.append((rho_iterations, spec))
        return [], True

    monkeypatch.setattr(cli, "find_primitive_divisors", spy)
    assert cli.main(["primitive", "--base", "2", "--n", "11"]) == 0
    assert cli.main(["primitive", "--base", "2", "--n", "11",
                     "--factor-budget", "1000"]) == 0
    assert cli.main(["primitive", "--lucas-c", "4", "--n", "11"]) == 0
    assert seen == [(arith.RHO_ITERATIONS, MERSENNE), (1000, MERSENNE),
                    (arith.RHO_ITERATIONS, LucasSpec(4))]


def test_primitive_flag_validation(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["primitive", "--n", "11"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["primitive", "--base", "2", "--lucas-c", "4", "--n", "11"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["primitive", "--base", "2", "--n", "1"])
    assert err.value.code == 2
    for budget in ("0", "-5"):
        with pytest.raises(SystemExit) as err:
            cli.main(["primitive", "--base", "2", "--n", "67",
                      "--factor-budget", budget])
        assert err.value.code == 2
    # a Lucas sequence outside the primitive-divisor theory is refused
    assert cli.main(["primitive", "--lucas-c", "0", "--n", "5"]) == 2
    assert capsys.readouterr().err.endswith(
        "coverlab: need c >= 1, c^2 > 4Q, Q != 0 and gcd(c, Q) = 1, got c = 0, Q = -1\n")


def test_reproduce_thm11(capsys):
    code, out = run(["reproduce", "thm11"], capsys)
    assert code == 0
    assert "lcm=675675" in out
    assert "replacement=1969111" in out


def test_reproduce_thm13(capsys):
    code, out = run(["reproduce", "thm13"], capsys)
    assert code == 0
    assert "864275" in out and "850778" in out


def test_reproduce_cases(capsys):
    code, out = run(["reproduce", "cases"], capsys)
    assert code == 0
    assert "valid_cases=25/25" in out


def test_reproduce_cases_fails_on_weak_pool(capsys, monkeypatch):
    monkeypatch.setattr(certify, "DEFAULT_Q_POOL", (19,))
    code, out = run(["reproduce", "cases"], capsys)
    assert code == 1
    assert "reproduce: fail" in out
    assert "valid=false" in out and "valid_cases=25/25" not in out


def test_reproduce_erdos(capsys):
    code, out = run(["reproduce", "erdos"], capsys)
    assert code == 0
    assert "mechanics_failures=0" in out


def test_reproduce_lemma41_fails_on_an_incomplete_factorization(capsys, monkeypatch):
    # an unfactored cofactor may hide a primitive prime whose rank was never checked
    monkeypatch.setattr(cli, "find_primitive_divisors", lambda n, spec: ([], False))
    code, out = run(["reproduce", "lemma41"], capsys)
    assert code == 1
    assert "c=1  n=2  primitive_primes=0  failures=1" in out


def test_reproduce_lemma41_fails_on_a_prime_that_is_not_primitive(capsys, monkeypatch):
    # 3 first divides F_4 = 3, so it does not divide F_6 = 8: a finder that
    # lists it at c = 1, n = 6 fails that row, and the run is not refused
    found = cli.find_primitive_divisors

    def finder(n, spec):
        witnesses, complete = found(n, spec=spec)
        if (spec.c, n) == (1, 6):
            witnesses = witnesses + [PrimitiveDivisorWitness(6, 3, 1)]
        return witnesses, complete

    monkeypatch.setattr(cli, "find_primitive_divisors", finder)
    code, out = run(["reproduce", "lemma41"], capsys)
    assert code == 1
    assert "c=1  n=6  primitive_primes=1  failures=1" in out
    assert out.count("failures=0") == 23


def test_reproduce_lemma41_fails_on_a_listed_composite(capsys, monkeypatch):
    # 15 is not prime: the row fails (exit 1); the run is not refused (exit 2)
    found = cli.find_primitive_divisors

    def finder(n, spec):
        witnesses, complete = found(n, spec=spec)
        if (spec.c, n) == (1, 6):
            witnesses = witnesses + [PrimitiveDivisorWitness(6, 15, 1)]
        return witnesses, complete

    monkeypatch.setattr(cli, "find_primitive_divisors", finder)
    code, out = run(["reproduce", "lemma41"], capsys)
    assert code == 1
    assert "c=1  n=6  primitive_primes=1  failures=1" in out
    assert out.count("failures=0") == 23


def test_reproduce_lemma41(capsys):
    code, out = run(["reproduce", "lemma41"], capsys)
    assert code == 0


def test_certify_sample(capsys):
    code, out = run(["certify", asset(assets.SAMPLE_CASE)], capsys)
    assert code == 0


def test_certify_text_output_is_json_valued(capsys):
    code, out = run(["certify", asset(assets.SAMPLE_CASE)], capsys)
    assert code == 0
    assert "valid=true" in out
    assert 'aux=[{"q":"31","period":"10","order":"10"}]' in out
    assert "True" not in out and "None" not in out and "'" not in out


def test_certify_invalid_case(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(
        {"label": "no-evidence", "r": "1", "m": "2", "p": "2", "aux": []}))
    code, out = run(["certify", str(bare)], capsys)
    assert code == 1
    assert "valid=false" in out
    assert 'counterexample={"n_residue":"1","sign":"1","b_residue":"0"}' in out


def test_json_output_roundtrips(capsys):
    code, out = run(["reproduce", "thm13", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "coverlab.report/1"
    assert payload["command"] == "reproduce"
    assert payload["outcome"] == "pass"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(["verify-cover", asset(assets.COVER_ERDOS),
                   "--out", str(target)], capsys)
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["outcome"] == "pass"


def test_out_file_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert cli.main(["reproduce", "erdos", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("coverlab: input error: ")
    assert str(target) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify-cover", "COVER"], ["reproduce", "erdos"], ["certify", "CASE"]])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_1_is_rejected(capsys, argv, budget):
    argv = [{"COVER": asset(assets.COVER_ERDOS), "CASE": asset(assets.SAMPLE_CASE)}
            .get(a, a) for a in argv]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--budget", budget])
    assert err.value.code == 2
    assert "--budget must be at least 1" in capsys.readouterr().err


def test_out_file_is_the_json_report(tmp_path, capsys):
    # --out writes what --json prints, the erratum row included
    target = tmp_path / "report.json"
    code, out = run(["reproduce", "thm11", "--json", "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert _errata_rows(out) == [
        {"erratum_n": "1755", "bad_value": "196911", "reason": "not prime",
         "replacement": "1969111", "replacement_verified": "true"}]


def test_assets_dir_override(tmp_path, capsys):
    custom = tmp_path / "assets"
    custom.mkdir()
    for name in assets.ALL_ASSETS:
        shutil.copy(assets.asset_path(name), custom / name)
    code, _ = run(["reproduce", "thm13", "--assets", str(custom)], capsys)
    assert code == 0


def test_environment_does_not_redirect_the_assets(tmp_path, capsys, monkeypatch):
    # only --assets moves the asset directory; a variable left in the
    # environment cannot change what a run reads
    monkeypatch.setenv("COVERLAB_ASSETS", str(tmp_path / "nowhere"))
    code, _ = run(["reproduce", "thm13"], capsys)
    assert code == 0


def test_readme_asset_table_gives_the_checksum_of_every_shipped_file():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Data assets\n")[1]
    section = section.split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = {}
    for line in rows:
        match = re.fullmatch(r"\| `([^`]+)` \| [^|]+ \| `([0-9a-f]{64})` \|", line)
        assert match, line
        table[match[1]] = match[2]
    assert len(table) == len(rows)
    assert table == {name: assets.checksum(assets.asset_path(name))
                     for name in assets.ALL_ASSETS}


def _assets_copy(tmp_path):
    custom = tmp_path / "assets"
    custom.mkdir()
    for name in assets.ALL_ASSETS:
        shutil.copy(assets.asset_path(name), custom / name)
    return custom


@pytest.mark.parametrize("target, names", [
    ("thm11", [assets.COVER_ODD173, assets.PRIME_TABLE, assets.PRIME_CERTIFICATES]),
    ("thm13", [assets.TWO_PRIME_CLASS]),
    ("cases", [assets.TWO_PRIME_CLASS]),
    ("erdos", [assets.COVER_ERDOS]),
    ("lemma41", []),
])
def test_asset_checksums_name_each_file_a_target_reads(tmp_path, capsys, target, names):
    # a trailing newline makes every copied file differ from the packaged one,
    # so each checksum must come from the file in --assets
    custom = _assets_copy(tmp_path)
    for name in assets.ALL_ASSETS:
        (custom / name).write_text((custom / name).read_text() + "\n")
    code, out = run(["reproduce", target, "--assets", str(custom), "--json"], capsys)
    assert code == 0
    checksums = json.loads(out)["asset_checksums"]
    assert list(checksums) == names
    for name in names:
        digest = hashlib.sha256((custom / name).read_bytes()).hexdigest()
        assert checksums[name] == digest != assets.checksum(assets.asset_path(name))


def test_reproduce_thm13_fails_on_corrupted_expectation(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    target = custom / assets.TWO_PRIME_CLASS
    payload = json.loads(target.read_text())
    payload["expected_a"] = payload["expected_a"][:-1] + (
        "0" if payload["expected_a"][-1] != "0" else "1")
    target.write_text(json.dumps(payload))
    code, out = run(["reproduce", "thm13", "--assets", str(custom)], capsys)
    assert code == 1
    assert "a-digit-exact" in out


def test_corrected_table_has_no_erratum_row(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    table = custom / assets.PRIME_TABLE
    table.write_text(table.read_text().replace('"196911"', '"1969111"'))
    code, out = run(["reproduce", "thm11", "--assets", str(custom)], capsys)
    assert code == 0
    assert "erratum_n" not in out


def test_reproduce_thm11_fails_on_dropped_prime(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    target = custom / assets.PRIME_TABLE
    payload = json.loads(target.read_text())
    row = next(e for e in payload["entries"] if e["n"] == "11")
    row["primes"] = row["primes"][:1]       # count no longer matches
    target.write_text(json.dumps(payload))
    code, _ = run(["reproduce", "thm11", "--assets", str(custom)], capsys)
    assert code == 1


def test_reproduce_thm11_fails_on_a_cover_of_another_shape(tmp_path, capsys):
    # the Erdős cover is a cover, but not the 173-class one of lcm 675675:
    # its cover row fails the run, and the table is never read
    custom = _assets_copy(tmp_path)
    shutil.copy(custom / assets.COVER_ERDOS, custom / assets.COVER_ODD173)
    code, out = run(["reproduce", "thm11", "--assets", str(custom)], capsys)
    assert code == 1
    assert "check=cover  classes=6  lcm=24  is_cover=true" in out
    assert "prime-table" not in out


def test_reproduce_thm11_fails_on_an_erratum_without_replacement(monkeypatch, capsys):
    # with no progression steps the errata walk finds nothing: the erratum
    # row fails the run, and the table's shape still passes its own row
    monkeypatch.setattr(mersenne, "_ERRATA_STEPS", 0)
    code, out = run(["reproduce", "thm11", "--json"], capsys)
    assert code == 1
    assert _errata_rows(out) == [
        {"erratum_n": "1755", "bad_value": "196911", "reason": "not prime",
         "replacement": None, "replacement_verified": "false"}]
    table = next(row for row in json.loads(out)["detail"]
                 if row.get("check") == "prime-table")
    assert (table["failing_rows"], table["duplicates"], table["count_mismatches"],
            table["omitted_consistent"]) == ("1", "0", "0", "true")


def _errata_rows(out):
    return [row for row in json.loads(out)["detail"] if "erratum_n" in row]


def test_corrupted_certificate_fails_the_run_but_not_its_row(tmp_path, capsys):
    _, clean = run(["reproduce", "thm11", "--json"], capsys)
    custom = _assets_copy(tmp_path)
    path = custom / assets.PRIME_CERTIFICATES
    raw = json.loads(path.read_text())
    victim = raw["certificates"][0]
    victim["base"] = "2"
    path.write_text(json.dumps(raw))
    code, out = run(["reproduce", "thm11", "--assets", str(custom), "--json"], capsys)
    assert code == 1
    detail = json.loads(out)["detail"]
    assert {"check": "prime-certificate", "p": victim["n"], "ok": "false",
            "reason": f"base 2: gcd(a^((N-1)/{victim['factors'][0]['q']}) - 1, N) "
                      "is not 1"} in detail
    # the prime falls back to Miller-Rabin: no row fails, no erratum is added
    assert _errata_rows(out) == _errata_rows(clean) == [
        {"erratum_n": "1755", "bad_value": "196911", "reason": "not prime",
         "replacement": "1969111", "replacement_verified": "true"}]
    table = next(row for row in detail if row.get("check") == "prime-table")
    assert table["failing_rows"] == "1"
    proofs = next(row for row in detail if row.get("check") == "prime-proofs")
    assert (proofs["certified"], proofs["probable"]) == ("41", "3")


def test_corrupted_n_plus_1_certificate_fails_only_its_prime(tmp_path, capsys):
    _, clean = run(["reproduce", "thm11", "--json"], capsys)
    custom = _assets_copy(tmp_path)
    path = custom / assets.PRIME_CERTIFICATES
    raw = json.loads(path.read_text())
    [victim] = [c for c in raw["certificates"] if "lucas_c" in c]
    victim["lucas_c"] = "4"
    path.write_text(json.dumps(raw))
    code, out = run(["reproduce", "thm11", "--assets", str(custom), "--json"], capsys)
    assert code == 1
    detail = json.loads(out)["detail"]
    assert [row for row in detail if row.get("check") == "prime-certificate"] == [
        {"check": "prime-certificate", "p": victim["n"], "ok": "false",
         "reason": "lucas_c 4: U_(N+1) is not 0 mod N"}]
    assert _errata_rows(out) == _errata_rows(clean)
    proofs = next(row for row in detail if row.get("check") == "prime-proofs")
    assert (proofs["certified"], proofs["probable"]) == ("41", "3")
    assert proofs["probable_n"] == ["945", "975", "1155"]


def test_corrupted_certificate_deep_in_a_nested_chain_fails_only_its_prime(tmp_path, capsys):
    _, clean = run(["reproduce", "thm11", "--json"], capsys)
    table = load_prime_table(assets.asset_path(assets.PRIME_TABLE))
    [p] = [p for p in table.entries[693] if p >= arith.DETERMINISTIC_LIMIT]
    custom = _assets_copy(tmp_path)
    path = custom / assets.PRIME_CERTIFICATES
    raw = json.loads(path.read_text())
    # walk the chain of nested certificates down to its innermost one
    cert = next(c for c in raw["certificates"] if c["n"] == str(p))
    chain = [cert]
    while nested := [f["certificate"] for f in chain[-1]["factors"] if "certificate" in f]:
        [inner] = nested
        chain.append(inner)
    assert len(chain) == 4
    chain[-1]["base"] = chain[-1]["n"]
    path.write_text(json.dumps(raw))
    code, out = run(["reproduce", "thm11", "--assets", str(custom), "--json"], capsys)
    assert code == 1
    detail = json.loads(out)["detail"]
    prefix = "".join(f"q = {c['n']}: " for c in chain[1:])
    assert [row for row in detail if row.get("check") == "prime-certificate"] == [
        {"check": "prime-certificate", "p": str(p), "ok": "false",
         "reason": f"{prefix}base {chain[-1]['n']}: a^(N-1) is not 1 mod N"}]
    # the prime falls back to Miller-Rabin: its row passes, no erratum is added
    assert _errata_rows(out) == _errata_rows(clean)
    table_row = next(row for row in detail if row.get("check") == "prime-table")
    assert table_row["failing_rows"] == "1"
    proofs = next(row for row in detail if row.get("check") == "prime-proofs")
    assert (proofs["certified"], proofs["probable"]) == ("41", "3")
    assert "693" in proofs["probable_n"]


def test_missing_certificate_file_is_an_input_error(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    (custom / assets.PRIME_CERTIFICATES).unlink()
    assert cli.main(["reproduce", "thm11", "--assets", str(custom)]) == 2
    assert f"asset {assets.PRIME_CERTIFICATES} not found" in capsys.readouterr().err


def test_miller_rabin_above_2_64_runs_only_on_uncertified_primes(monkeypatch, capsys):
    original = arith.is_probable_prime
    large = []

    def counted(n):
        if n >= arith.DETERMINISTIC_LIMIT:
            large.append(n)
        return original(n)

    # every coverlab module that imported the function calls it by its own name
    for name, module in list(sys.modules.items()):
        if name.startswith("coverlab") and vars(module).get("is_probable_prime") is original:
            monkeypatch.setattr(module, "is_probable_prime", counted)
    assert cli.main(["reproduce", "thm11"]) == 0
    certified = set(load_certificates(assets.asset_path(assets.PRIME_CERTIFICATES)))
    table = load_prime_table(assets.asset_path(assets.PRIME_TABLE))
    uncertified = [p for p in table.all_primes()
                   if p >= arith.DETERMINISTIC_LIMIT and p not in certified]
    assert len(uncertified) == 2
    assert sorted(large) == sorted(uncertified)


def _edited_assets(tmp_path, name, edit):
    custom = _assets_copy(tmp_path)
    path = custom / name
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    return custom


def test_reproduce_names_a_broken_odd_cover(tmp_path, capsys):
    # 2(5) moved to 3(5): n = 2 is left uncovered, and 4 in the doubled cover
    def move(raw):
        assert raw["odd_cover"][1] == {"a": "2", "n": "5"}
        raw["odd_cover"][1]["a"] = "3"

    custom = _edited_assets(tmp_path, assets.TWO_PRIME_CLASS, move)
    for target in ("thm13", "cases"):
        code, out = run(["reproduce", target, "--assets", str(custom)], capsys)
        assert code == 1, target
        assert "check=odd-cover  ok=false  detail=lcm 315, 2 is uncovered" in out
        assert "check=doubled-cover  ok=false  detail=lcm 630, 4 is uncovered" in out


def test_reproduce_names_a_period_that_does_not_divide(tmp_path, capsys):
    # over the cover {0(1)} doubled class 1 is 0(2), but u_n mod 5 has period
    # 20: x^2 = u_0 (mod 5) says nothing about u_2, u_4, ...
    def one_class(raw):
        raw.update({"odd_cover": [{"a": "0", "n": "1"}], "primes": ["2", "5"],
                    "residues": [{"a": "1", "n": "2"}, {"a": "0", "n": "5"}],
                    "expected_a": "5", "expected_m": "10"})

    custom = _edited_assets(tmp_path, assets.TWO_PRIME_CLASS, one_class)
    code, out = run(["reproduce", "thm13", "--assets", str(custom)], capsys)
    assert code == 1
    assert "check=period t=1  ok=false  detail=u_n mod 5 has period > 2, modulus 2" in out
    # 5 first divides u_5 = 305, and x = 5 has x^2 - u_3 = 25 - 17 = 2^3
    assert "check=rank t=1  ok=false  detail=rank of 5 is > 2, modulus 2" in out
    assert "check=brute-force-window  ok=false  detail=2 hits, first x^2 - u_3 = +-2^b" in out
    assert "failures=3" in out


def test_reproduce_names_a_wrong_residue(tmp_path, capsys):
    # x = 15 instead of 14 (mod 31): 15^2 = 8, but u_4 = 10 (mod 31)
    def shift(raw):
        assert raw["residues"][2] == {"a": "14", "n": "31"}
        raw["residues"][2]["a"] = "15"

    custom = _edited_assets(tmp_path, assets.TWO_PRIME_CLASS, shift)
    for target in ("thm13", "cases"):
        code, out = run(["reproduce", target, "--assets", str(custom)], capsys)
        assert code == 1, target
        assert "check=square-residue t=2  ok=false  detail=a^2 = 8, u_4 = 10 (mod 31)" in out


def test_reproduce_erdos_names_a_broken_cover(tmp_path, capsys):
    def drop(raw):
        assert raw["classes"].pop() == {"a": "23", "n": "24"}

    custom = _edited_assets(tmp_path, assets.COVER_ERDOS, drop)
    code, out = run(["reproduce", "erdos", "--assets", str(custom)], capsys)
    assert code == 1
    assert "check=cover  classes=5  lcm=24  is_cover=false" in out


def test_reproduce_erdos_fails_on_its_cover_row_alone(capsys, monkeypatch):
    # a sieve that reports a gap at 5: the class and its mechanics stay right,
    # so the cover row is the only one that fails
    sieve = cli.verify_cover

    def gap(system, enumeration_budget):
        result = sieve(system, enumeration_budget=enumeration_budget)
        return result._replace(is_cover=False, uncovered_witness=5)

    monkeypatch.setattr(cli, "verify_cover", gap)
    code, out = run(["reproduce", "erdos"], capsys)
    assert code == 1
    assert "check=cover  classes=6  lcm=24  is_cover=false" in out
    assert "mechanics_failures=0" in out


def test_reproduce_erdos_fails_on_a_failed_mechanics_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_divisibility_mechanics",
                        lambda *args, **kwargs: [(7, "congruence failed")])
    code, out = run(["reproduce", "erdos"], capsys)
    assert code == 1
    assert "is_cover=true" in out and "mechanics_failures=1" in out


def test_reproduce_erdos_reads_the_cover_asset(capsys):
    code, out = run(["reproduce", "erdos", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["detail"][0] == {"check": "cover", "classes": "6",
                                    "lcm": "24", "is_cover": "true"}


def test_reproduce_rejects_unknown_erdos_modulus(tmp_path, capsys):
    def add(raw):
        raw["classes"].append({"a": "0", "n": "5"})

    custom = _edited_assets(tmp_path, assets.COVER_ERDOS, add)
    assert cli.main(["reproduce", "erdos", "--assets", str(custom)]) == 2
    assert (f"{custom / assets.COVER_ERDOS}: $.classes[6].n: "
            "no witness prime for exponent moduli [5]") in capsys.readouterr().err
    # the witness primes belong to the erdos target, not to the cover format
    assert cli.main(["verify-cover", str(custom / assets.COVER_ERDOS)]) == 0


def test_reproduce_rejects_even_two_prime_modulus(tmp_path, capsys):
    # doubling 1(6) would give 2(12), which is not the odd-cover construction
    def even(raw):
        raw["odd_cover"][0] = {"a": "1", "n": "6"}

    custom = _edited_assets(tmp_path, assets.TWO_PRIME_CLASS, even)
    for target in ("thm13", "cases"):
        assert cli.main(["reproduce", target, "--assets", str(custom)]) == 2
        assert "modulus 6 is even" in capsys.readouterr().err


# each input rule and every module that calls it by its own name
INPUT_RULES = {"_check_two_prime": (construct,), "_check_case": (certify,),
               "erdos_witness_primes": (cli, construct)}


@pytest.mark.parametrize("argv, rule, calls", [
    (["reproduce", "thm13"], "_check_two_prime", 1),
    (["reproduce", "cases"], "_check_two_prime", 1),
    (["reproduce", "erdos"], "erdos_witness_primes", 1),
    (["certify", asset(assets.SAMPLE_CASE)], "_check_case", 1),
    (["reproduce", "cases"], "_check_case", 25),    # one per standard case
], ids=["thm13", "cases", "erdos", "certify", "cases-certificates"])
def test_each_input_rule_runs_once_per_record(monkeypatch, capsys, argv, rule, calls):
    # the loader only parses; the layer that consumes the record refuses it
    original = getattr(INPUT_RULES[rule][0], rule)
    seen = []

    def counted(*args):
        seen.append(args)
        return original(*args)

    for module in INPUT_RULES[rule]:
        monkeypatch.setattr(module, rule, counted)
    assert cli.main(argv) == 0
    assert len(seen) == calls


def test_reproduce_budget_bounds_the_link_sieves(capsys):
    # the odd cover has lcm 315 and the Erdos cover lcm 24
    for target, budget in (("thm13", "314"), ("cases", "314"), ("erdos", "23")):
        assert cli.main(["reproduce", target, "--budget", budget]) == 2
        assert "above the enumeration budget" in capsys.readouterr().err


def test_reproduce_cases_budget_bounds_the_certificates(capsys):
    # the link sieves need lcm 630; the first standard case has 264,600
    # combinations, the most of the 25, and its certificate is refused
    assert cli.main(["reproduce", "cases", "--budget", "1000"]) == 2
    assert capsys.readouterr().err == "coverlab: 264600 combinations exceed the budget 1000\n"
    assert cli.main(["reproduce", "cases", "--budget", "264600"]) == 0


@pytest.mark.parametrize("target", ["thm13", "cases"])
@pytest.mark.parametrize("budget, lcm", [("314", 315), ("629", 630)])
def test_link_sieve_over_budget_names_the_odd_cover_class(capsys, target, budget, lcm):
    # odd class 5 (n = 9) takes the odd cover's running lcm to 315; doubled
    # class 6 (n = 18) is odd class 5 and takes the doubled cover's to 630
    assert cli.main(["reproduce", target, "--budget", budget]) == 2
    assert (f"{asset(assets.TWO_PRIME_CLASS)}: $.odd_cover[5].n: lcm of moduli is {lcm}, "
            f"above the enumeration budget {budget}") in capsys.readouterr().err


def test_lcm_over_budget_names_the_file_and_the_class(tmp_path, capsys):
    # 1925 -> 1926 = 2 * 3^2 * 107 takes the lcm from 675675 to 144594450
    def bump(raw):
        assert raw["classes"][145]["n"] == "1925"
        raw["classes"][145]["n"] = "1926"

    custom = _edited_assets(tmp_path, assets.COVER_ODD173, bump)
    refusal = (f"{custom / assets.COVER_ODD173}: $.classes[145].n: lcm of moduli "
               "is 144594450, above the enumeration budget 100000000")
    for argv in (["reproduce", "thm11", "--assets", str(custom)],
                 ["verify-cover", str(custom / assets.COVER_ODD173)]):
        assert cli.main(argv) == 2
        assert refusal in capsys.readouterr().err
    # the running lcm of 2, 3, 4 is 12, the first above 10
    assert cli.main(["verify-cover", asset(assets.COVER_ERDOS), "--budget", "10"]) == 2
    assert (f"{asset(assets.COVER_ERDOS)}: $.classes[2].n: lcm of moduli is 24, "
            "above the enumeration budget 10") in capsys.readouterr().err
    # 1,200 distinct 5-digit primes: 10007 * 10009 is past the budget, and
    # the lcm of all of them has more digits than str(int) writes
    primes = [p for p in range(10007, 100000, 2) if arith.is_probable_prime(p)][:1200]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"classes": [{"a": "0", "n": str(p)} for p in primes]}))
    assert cli.main(["verify-cover", str(wide)]) == 2
    lcm = codec.decimal(math.prod(primes))
    assert len(lcm) > 4300
    assert capsys.readouterr().err == (f"coverlab: input error: {wide}: $.classes[1].n: lcm of "
                                       f"moduli is {lcm}, above the enumeration budget 100000000\n")
    # the budget bounds the lcm inclusively, down to --budget 1
    assert cli.main(["verify-cover", asset(assets.COVER_ERDOS), "--budget", "23"]) == 2
    assert cli.main(["verify-cover", asset(assets.COVER_ERDOS), "--budget", "24"]) == 0
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps({"classes": [{"a": "0", "n": "1"}]}))
    assert cli.main(["verify-cover", str(whole), "--budget", "1"]) == 0


def test_reports_deterministic_apart_from_timing(capsys):
    code1, out1 = run(["certify", asset(assets.SAMPLE_CASE), "--json"], capsys)
    code2, out2 = run(["certify", asset(assets.SAMPLE_CASE), "--json"], capsys)
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_time_s")
    p2.pop("wall_time_s")
    assert p1 == p2


def _child_env():
    # the child imports the same coverlab as this process, installed or not
    src = str(pathlib.Path(coverlab.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv, code, stream, text", [
    (["verify-cover", asset(assets.COVER_ERDOS)], 0, "stdout", "verify-cover: pass"),
    (["primitive", "--lucas-c", "4", "--n", "43", "--factor-budget", "1"], 1,
     "stdout", "primitive: partial"),
    (["reproduce", "thm13", "--budget", "314"], 2,
     "stderr", "above the enumeration budget 314"),
], ids=["exit0", "exit1", "exit2"])
def test_console_entry_subprocess(argv, code, stream, text):
    # the `coverlab` console script calls entry(), which exits with main's code
    proc = subprocess.run(
        [sys.executable, "-c", "from coverlab.cli import entry; entry()", *argv],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == code
    assert text in getattr(proc, stream)


def test_closed_stdout_keeps_the_report_exit_code():
    # the reader of stdout is gone before the report is printed, as with
    # `coverlab reproduce cases | head -n 1` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coverlab.cli", "reproduce", "cases"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
