import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import coverlab
from coverlab import assets, cli


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


def test_reports_deterministic_apart_from_timing(capsys):
    code1, out1 = run(["certify", asset(assets.SAMPLE_CASE), "--json"], capsys)
    code2, out2 = run(["certify", asset(assets.SAMPLE_CASE), "--json"], capsys)
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_time_s")
    p2.pop("wall_time_s")
    assert p1 == p2


def test_console_entry_subprocess():
    # the child imports the same coverlab as this process, installed or not
    src = str(pathlib.Path(coverlab.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coverlab.cli", "verify-cover",
         asset(assets.COVER_ERDOS)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pass" in proc.stdout
