import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import coverlab
from coverlab import assets, certify, cli
from coverlab.arith import FactorBudget


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
    code, out = run(["primitive", "--lucas-c", "4", "--n", "14"], capsys)
    assert code == 0
    assert "p=29" in out and "rank=14" in out


def test_primitive_incomplete_budget(capsys):
    # 2^137 - 1 is a semiprime of two 20-digit primes: out of reach here
    code, out = run(["primitive", "--base", "2", "--n", "137",
                     "--factor-budget", "1000"], capsys)
    assert code == 1
    assert "incomplete" in out


def test_primitive_factor_budget_default(monkeypatch):
    seen = []

    def spy(n, budget):
        seen.append(budget)
        return [], True

    monkeypatch.setattr(cli, "find_primitive_divisors", spy)
    assert cli.main(["primitive", "--base", "2", "--n", "11"]) == 0
    assert cli.main(["primitive", "--base", "2", "--n", "11",
                     "--factor-budget", "1000"]) == 0
    assert seen == [FactorBudget(),
                    FactorBudget(trial_bound=1000, rho_iterations=10000)]


def test_primitive_flag_validation():
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
    assert "counterexample" in out


def test_json_output_roundtrips(capsys):
    code, out = run(["reproduce", "thm13", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "coverlab.report/1"
    assert payload["command"] == "reproduce"
    assert payload["outcome"] == "pass"
    assert assets.TWO_PRIME_CLASS in payload["asset_checksums"]


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


def test_errata_file(tmp_path, capsys):
    target = tmp_path / "errata.json"
    code, _ = run(["reproduce", "thm11", "--out-errata", str(target)], capsys)
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload == [{"n": "1755", "bad_value": "196911",
                        "reason": "not prime", "replacement": "1969111",
                        "verified": True}]


def test_assets_dir_override(tmp_path, capsys, monkeypatch):
    custom = tmp_path / "assets"
    custom.mkdir()
    for name in assets.ALL_ASSETS:
        shutil.copy(assets.asset_path(name), custom / name)
    code, _ = run(["reproduce", "thm13", "--assets", str(custom)], capsys)
    assert code == 0
    monkeypatch.setenv(assets.ENV_VAR, str(custom))
    code, _ = run(["reproduce", "thm13"], capsys)
    assert code == 0
    monkeypatch.setenv(assets.ENV_VAR, str(tmp_path / "nowhere"))
    assert cli.main(["reproduce", "thm13"]) == 2


def _assets_copy(tmp_path):
    custom = tmp_path / "assets"
    custom.mkdir()
    for name in assets.ALL_ASSETS:
        shutil.copy(assets.asset_path(name), custom / name)
    return custom


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


def test_errata_file_written_when_there_are_none(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    table = custom / assets.PRIME_TABLE
    table.write_text(table.read_text().replace('"196911"', '"1969111"'))
    target = tmp_path / "errata.json"
    target.write_text("stale")
    code, out = run(["reproduce", "thm11", "--assets", str(custom),
                     "--out-errata", str(target)], capsys)
    assert code == 0
    assert "erratum_n" not in out
    assert json.loads(target.read_text()) == []


def test_reproduce_thm11_fails_on_dropped_prime(tmp_path, capsys):
    custom = _assets_copy(tmp_path)
    target = custom / assets.PRIME_TABLE
    payload = json.loads(target.read_text())
    row = next(e for e in payload["entries"] if e["n"] == "11")
    row["primes"] = row["primes"][:1]       # count no longer matches
    target.write_text(json.dumps(payload))
    code, _ = run(["reproduce", "thm11", "--assets", str(custom)], capsys)
    assert code == 1


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


def test_reproduce_erdos_reads_the_cover_asset(capsys):
    code, out = run(["reproduce", "erdos", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload["asset_checksums"]) == [assets.COVER_ERDOS]
    assert payload["detail"][0] == {"check": "cover", "classes": "6",
                                    "lcm": "24", "is_cover": "true"}


def test_reproduce_rejects_unknown_erdos_modulus(tmp_path, capsys):
    def add(raw):
        raw["classes"].append({"a": "0", "n": "5"})

    custom = _edited_assets(tmp_path, assets.COVER_ERDOS, add)
    assert cli.main(["reproduce", "erdos", "--assets", str(custom)]) == 2
    assert "no witness prime for exponent moduli [5]" in capsys.readouterr().err


def test_reproduce_rejects_even_two_prime_modulus(tmp_path, capsys):
    # doubling 1(6) would give 2(12), which is not the odd-cover construction
    def even(raw):
        raw["odd_cover"][0] = {"a": "1", "n": "6"}

    custom = _edited_assets(tmp_path, assets.TWO_PRIME_CLASS, even)
    for target in ("thm13", "cases"):
        assert cli.main(["reproduce", target, "--assets", str(custom)]) == 2
        assert "modulus 6 is even" in capsys.readouterr().err


def test_reproduce_budget_bounds_the_link_sieves(capsys):
    # the odd cover has lcm 315 and the Erdos cover lcm 24
    for target, budget in (("thm13", "314"), ("cases", "314"), ("erdos", "23")):
        assert cli.main(["reproduce", target, "--budget", budget]) == 2
        assert "above the enumeration budget" in capsys.readouterr().err


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


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "coverlab.cli", "verify-cover",
         asset(assets.COVER_ERDOS)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "pass" in proc.stdout


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
