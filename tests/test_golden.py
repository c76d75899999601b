"""The reports that must not change, held as golden files in tests/golden/.

Each invocation runs in process through `cli.main(... "--json")`; only its
`wall_time_s` is dropped, nothing else is masked, and the JSON text is
compared, so key order counts.  Every run has the packaged assets directory
as its working directory, and `certify` and `verify-cover` are given bare
file names, so no machine path enters `inputs` or `asset_checksums`.

Running this module as a script rewrites the golden files from the current
code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from coverlab import assets, cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

INVOCATIONS = {
    "reproduce-thm11": ["reproduce", "thm11"],
    "reproduce-thm13": ["reproduce", "thm13"],
    "reproduce-cases": ["reproduce", "cases"],
    "reproduce-erdos": ["reproduce", "erdos"],
    "reproduce-lemma41": ["reproduce", "lemma41"],
    "certify-sample": ["certify", assets.SAMPLE_CASE],
    "verify-cover-odd173": ["verify-cover", assets.COVER_ODD173],
    "primitive-base2-n101": ["primitive", "--base", "2", "--n", "101"],
    "primitive-base2-n206": ["primitive", "--base", "2", "--n", "206"],
    "primitive-lucas6-n58": ["primitive", "--lucas-c", "6", "--n", "58"],
}


def report_text(argv: list[str]) -> tuple[int, str]:
    """The exit code and the `--json` report, without `wall_time_s`, of one
    run in the packaged assets directory."""
    stdout = io.StringIO()
    here = os.getcwd()
    os.chdir(assets.asset_dir())
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--json"])
    finally:
        os.chdir(here)
    report = json.loads(stdout.getvalue())
    del report["wall_time_s"]
    return code, json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("name", INVOCATIONS)
def test_report_matches_its_golden_file(name):
    code, text = report_text(INVOCATIONS[name])
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in INVOCATIONS.items():
        code, text = report_text(argv)
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}.json: exit {code}")
