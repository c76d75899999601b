import copy
import json
import re
import shutil

import pytest

from coverlab import assets, cli
from coverlab.certify import load_case
from coverlab.codec import FormatError
from coverlab.construct import load_generalized_erdos, load_two_prime_data
from coverlab.covers import load_cover
from coverlab.mersenne import load_prime_table

CASE = {"label": "x", "r": "12", "m": "14", "p": "29",
        "aux": [{"q": "31", "x_mod_q": "14"}]}


@pytest.mark.parametrize("doc, field", [
    ({**CASE, "aux": [1]}, "$.aux[0]"),
    ([CASE], "$"),
    ({**CASE, "r": True}, "$.r"),
    ({**CASE, "r": "1.5"}, "$.r"),
], ids=["aux-not-object", "top-level-list", "r-bool", "r-not-decimal"])
def test_certify_rejects_malformed_case(tmp_path, capsys, doc, field):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", str(path)]) == 2
    assert f"{path}: {field}: " in capsys.readouterr().err


def _edit_prime_table(raw):
    raw["omitted"] = "12"


def _drop_odd_cover(raw):
    del raw["odd_cover"]


@pytest.mark.parametrize("target, name, edit, field", [
    ("thm11", assets.PRIME_TABLE, _edit_prime_table, "$.omitted"),
    ("thm13", assets.TWO_PRIME_CLASS, _drop_odd_cover, "$.odd_cover"),
], ids=["omitted-string", "odd-cover-missing"])
def test_reproduce_rejects_malformed_asset(tmp_path, capsys, target, name, edit, field):
    shutil.copytree(assets.asset_dir(), tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    assert cli.main(["reproduce", target, "--assets", str(tmp_path)]) == 2
    assert f"{path}: {field}: " in capsys.readouterr().err


def test_thm11_rejects_repeated_exponent(tmp_path, capsys):
    # a dict built from the entries would keep only the last n=3 row and
    # never check the extra prime 11
    shutil.copytree(assets.asset_dir(), tmp_path, dirs_exist_ok=True)
    path = tmp_path / assets.PRIME_TABLE
    raw = json.loads(path.read_text())
    assert raw["entries"][0]["n"] == "3"
    raw["entries"].insert(0, {"n": "3", "primes": ["11"]})
    path.write_text(json.dumps(raw))
    assert cli.main(["reproduce", "thm11", "--assets", str(tmp_path)]) == 2
    assert f"{path}: $.entries[1].n: duplicate exponent 3" in capsys.readouterr().err


FORMATS = [
    (load_cover, assets.COVER_ODD24),
    (load_case, assets.SAMPLE_CASE),
    (load_prime_table, assets.PRIME_TABLE),
    (load_two_prime_data, assets.TWO_PRIME_CLASS),
    (load_generalized_erdos, assets.GENERALIZED_DEMO),
]

DROP = object()


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@pytest.mark.parametrize("loader, name", FORMATS)
def test_loaders_return_or_raise_format_error(tmp_path, loader, name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    original = json.loads(assets.asset_path(name).read_text())
    target = tmp_path / name
    junk = st.one_of(
        st.booleans(), st.floats(), st.none(),
        st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=2),
        st.text(max_size=6).filter(lambda s: not re.fullmatch(r"-?[0-9]+", s)))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(list(_paths(original))),
                      st.one_of(st.just(DROP), junk))
    def check(path, replacement):
        hypothesis.assume(path or replacement is not DROP)
        doc = copy.deepcopy(original)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if not path:
            doc = replacement
        elif replacement is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        target.write_text(json.dumps(doc))
        try:
            loader(target)
        except FormatError as exc:
            assert str(target) in str(exc)

    check()
