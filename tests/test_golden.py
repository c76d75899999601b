"""The outputs that must not change, held as golden files in tests/golden/.

Each invocation runs in process through `cli.main` and must give its exit
code.  A report run adds `--json`; only its `wall_time_s` is dropped, nothing
else is masked, and the JSON text is compared with `<name>.json`, so key
order counts.  Every report run has the packaged assets directory as its
working directory, and `certify` and `verify-cover` are given bare file
names, so no machine path enters `inputs` or `asset_checksums`.  A refusal
run reads a copy of the packaged assets, with at most one field edited, from
a temporary working directory by the relative path `--assets assets`; its
stderr is compared with `<name>.txt`.  tests/golden/ holds no other file.

Running this module as a script rewrites the golden files from the current
code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import tempfile

import pytest

from coverlab import assets, cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# name: (argv, exit code)
INVOCATIONS = {
    "reproduce-thm11": (["reproduce", "thm11"], 0),
    "reproduce-thm13": (["reproduce", "thm13"], 0),
    "reproduce-cases": (["reproduce", "cases"], 0),
    "reproduce-erdos": (["reproduce", "erdos"], 0),
    "reproduce-lemma41": (["reproduce", "lemma41"], 0),
    "certify-sample": (["certify", assets.SAMPLE_CASE], 0),
    "verify-cover-odd173": (["verify-cover", assets.COVER_ODD173], 0),
    "primitive-base2-n101": (["primitive", "--base", "2", "--n", "101"], 0),
    "primitive-base2-n206": (["primitive", "--base", "2", "--n", "206"], 0),
    "primitive-lucas6-n58": (["primitive", "--lucas-c", "6", "--n", "58"], 0),
    # partial: 257 alone, and the rest of the primitive part as the cofactor
    "primitive-lucas4-n43-budget1": (["primitive", "--lucas-c", "4", "--n", "43",
                                      "--factor-budget", "1"], 1),
}

# name: (argv, the asset to edit or None, the keys of its field, the new
# value); every refusal exits 2
REFUSALS = {
    "refuse-thm13-primes": (["reproduce", "thm13"], assets.TWO_PRIME_CLASS,
                            ("primes", 1), "4"),
    "refuse-thm13-odd-cover": (["reproduce", "thm13"], assets.TWO_PRIME_CLASS,
                               ("odd_cover", 14, "n"), "4"),
    "refuse-thm11-cover": (["reproduce", "thm11"], assets.COVER_ODD173,
                           ("classes", 145, "n"), "1926"),
    "refuse-erdos-cover": (["reproduce", "erdos"], assets.COVER_ERDOS,
                           ("classes", 3, "n"), "3"),
    "refuse-thm13-budget314": (["reproduce", "thm13", "--budget", "314"], None, (), None),
}


@contextlib.contextmanager
def _working_directory(path):
    here = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(here)


def report_text(argv: list[str]) -> tuple[int, str]:
    """The exit code and the `--json` report, without `wall_time_s`, of one
    run in the packaged assets directory."""
    stdout = io.StringIO()
    with _working_directory(assets.asset_dir()), contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--json"])
    report = json.loads(stdout.getvalue())
    del report["wall_time_s"]
    return code, json.dumps(report, indent=2) + "\n"


def refusal_text(argv: list[str], name, keys, value) -> tuple[int, str]:
    """The exit code and the stderr of one run on a copy of the packaged
    assets with the field `keys` of the asset `name` set to `value`."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(assets.asset_dir(), os.path.join(scratch, "assets"))
        if name is not None:
            path = os.path.join(scratch, "assets", name)
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            field = raw
            for key in keys[:-1]:
                field = field[key]
            field[keys[-1]] = value
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
        with _working_directory(scratch), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--assets", "assets"])
    return code, stderr.getvalue()


@pytest.mark.parametrize("name", INVOCATIONS)
def test_report_matches_its_golden_file(name):
    argv, expected = INVOCATIONS[name]
    code, text = report_text(argv)
    assert code == expected
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_matches_its_golden_file(name):
    code, text = refusal_text(*REFUSALS[name])
    assert code == 2
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_golden_directory_holds_one_file_per_case():
    expected = {f"{name}.json" for name in INVOCATIONS} | {f"{name}.txt" for name in REFUSALS}
    assert {path.name for path in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in INVOCATIONS.items():
        code, text = report_text(argv)
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}.json: exit {code}")
    for name, case in REFUSALS.items():
        code, text = refusal_text(*case)
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"{name}.txt: exit {code}")
