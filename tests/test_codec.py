import copy
import json
import re
import shutil

import pytest

from coverlab import assets, cli, codec
from coverlab.certify import AuxPrime, ExclusionCase, check_exclusion, load_case
from coverlab.codec import FormatError
from coverlab.construct import load_two_prime_data
from coverlab.covers import CoveringSystem, ResidueClass, load_cover
from coverlab.mersenne import load_prime_table
from coverlab.pocklington import load_certificates

CASE = {"label": "x", "r": "12", "m": "14", "p": "29",
        "aux": [{"q": "31", "x_mod_q": "14"}]}


@pytest.mark.parametrize("doc, field", [
    ({**CASE, "aux": [1]}, "$.aux[0]"),
    ([CASE], "$"),
    ({**CASE, "r": True}, "$.r"),
    ({**CASE, "r": "1.5"}, "$.r"),
    ({**CASE, "m": "0"}, "$.m"),
    ({"r": "1", "m": "2", "p": "3",
      "aux": [{"q": "11", "x_mod_q": "1"}, {"q": "11", "x_mod_q": "2"}]}, "$.aux[1].q"),
    ({**CASE, "p": "4"}, "$.p"),
    ({**CASE, "aux": [{"q": "1", "x_mod_q": "0"}]}, "$.aux[0].q"),
    ({**CASE, "p": "3", "aux": [{"q": "3", "x_mod_q": "1"}]}, "$.aux[0].q"),
], ids=["aux-not-object", "top-level-list", "r-bool", "r-not-decimal",
        "m-below-1", "aux-prime-repeated", "p-not-prime", "q-not-prime",
        "q-divides-p"])
def test_certify_rejects_malformed_case(tmp_path, capsys, doc, field):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["certify", str(path)]) == 2
    assert f"{path}: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("edit, field", [
    ({"m": "0"}, "$.m"),
    ({"p": "4"}, "$.p"),
    ({"aux": [{"q": "31", "x_mod_q": "1"}, {"q": "31", "x_mod_q": "2"}]}, "$.aux[1].q"),
    ({"aux": [{"q": "1", "x_mod_q": "0"}]}, "$.aux[0].q"),
    ({"p": "3", "aux": [{"q": "3", "x_mod_q": "1"}]}, "$.aux[0].q"),
], ids=["m-below-1", "p-not-prime", "q-repeated", "q-not-prime", "q-divides-p"])
def test_load_case_refuses_in_the_words_of_check_exclusion(tmp_path, edit, field):
    doc = {**CASE, **edit}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as loaded:
        load_case(path)
    prefix = f"{path}: {field}: "
    assert str(loaded.value).startswith(prefix)
    case = ExclusionCase(label=doc["label"], r=int(doc["r"]), m=int(doc["m"]), p=int(doc["p"]),
                         aux=tuple(AuxPrime(int(a["q"]), int(a["x_mod_q"])) for a in doc["aux"]))
    with pytest.raises(ValueError) as direct:
        check_exclusion(case)
    assert str(loaded.value).removeprefix(prefix) == str(direct.value)


def test_cover_roundtrip(tmp_path):
    # bigints leave as decimal strings and come back as ints, in class order
    system = CoveringSystem(
        [ResidueClass(583939, 675675), ResidueClass(0, 2),
         ResidueClass(3**200, 5**100 * 7)], label="roundtrip")
    path = tmp_path / "cover.json"
    codec.dump({"label": system.label,
                "classes": [{"a": c.a, "n": c.n} for c in system.classes]}, path)
    assert json.loads(path.read_text())["classes"][2]["n"] == str(5**100 * 7)
    back = load_cover(path)
    assert back.label == system.label
    assert back.classes == system.classes


def _edit_prime_table(raw):
    raw["omitted"] = "12"


def _drop_odd_cover(raw):
    del raw["odd_cover"]


def _edit_nested_certificate(raw):
    raw["certificates"][3]["factors"][0]["certificate"]["factors"][0]["q"] = "0x1f"


def _composite_prime(raw):
    raw["primes"][1] = "4"


def _residue_off_its_prime(raw):
    raw["residues"][1]["n"] = "23"


def _repeated_prime(raw):
    raw["primes"][2] = raw["primes"][1]


def _prime_short(raw):
    raw["primes"].pop()


def _even_odd_cover_modulus(raw):
    raw["odd_cover"][14]["n"] = "4"


def _repeated_erdos_modulus(raw):
    # 0(3) and 1(3) would pin x to two classes mod the one witness prime 7
    raw["classes"][2]["n"] = "3"


@pytest.mark.parametrize("target, name, edit, field", [
    ("thm11", assets.PRIME_TABLE, _edit_prime_table, "$.omitted"),
    ("thm13", assets.TWO_PRIME_CLASS, _drop_odd_cover, "$.odd_cover"),
    ("thm11", assets.PRIME_CERTIFICATES, _edit_nested_certificate,
     "$.certificates[3].factors[0].certificate.factors[0].q"),
    ("thm13", assets.TWO_PRIME_CLASS, _composite_prime, "$.primes[1]"),
    ("cases", assets.TWO_PRIME_CLASS, _residue_off_its_prime, "$.residues[1].n"),
    ("thm13", assets.TWO_PRIME_CLASS, _repeated_prime, "$.primes[2]"),
    ("cases", assets.TWO_PRIME_CLASS, _prime_short, "$.primes"),
    ("thm13", assets.TWO_PRIME_CLASS, _even_odd_cover_modulus, "$.odd_cover[14].n"),
    ("erdos", assets.COVER_ERDOS, _repeated_erdos_modulus, "$.classes[2].n"),
], ids=["omitted-string", "odd-cover-missing", "nested-q-not-decimal", "prime-composite",
        "residue-modulus-not-its-prime", "prime-repeated", "primes-one-short",
        "odd-cover-modulus-even", "erdos-modulus-repeated"])
def test_reproduce_rejects_malformed_asset(tmp_path, capsys, target, name, edit, field):
    shutil.copytree(assets.asset_dir(), tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    assert cli.main(["reproduce", target, "--assets", str(tmp_path)]) == 2
    assert f"{path}: {field}: " in capsys.readouterr().err


def _prime_table_with(tmp_path, row):
    """Copy the assets to tmp_path with `row` as the first prime-table entry;
    the table's path."""
    shutil.copytree(assets.asset_dir(), tmp_path, dirs_exist_ok=True)
    path = tmp_path / assets.PRIME_TABLE
    raw = json.loads(path.read_text())
    raw["entries"].insert(0, row)
    path.write_text(json.dumps(raw))
    return path


def test_thm11_rejects_repeated_exponent(tmp_path, capsys):
    # a dict built from the entries would keep only the last n=3 row and
    # never check the extra prime 11
    path = _prime_table_with(tmp_path, {"n": "3", "primes": ["11"]})
    assert json.loads(path.read_text())["entries"][1]["n"] == "3"
    assert cli.main(["reproduce", "thm11", "--assets", str(tmp_path)]) == 2
    assert f"{path}: $.entries[1].n: duplicate exponent 3" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-7"])
def test_thm11_rejects_exponent_below_1(tmp_path, capsys, n):
    # the audit would factor the exponent and fail naming no file
    path = _prime_table_with(tmp_path, {"n": n, "primes": ["11"]})
    assert cli.main(["reproduce", "thm11", "--assets", str(tmp_path)]) == 2
    assert f"{path}: $.entries[0].n: exponent {n} < 1" in capsys.readouterr().err


def test_thm11_row_at_exponent_1_is_an_erratum_without_replacement(tmp_path, capsys):
    # 2^1 - 1 = 1 has no prime divisor: the row fails, and the errata search
    # finds no replacement instead of raising
    _prime_table_with(tmp_path, {"n": "1", "primes": ["11"]})
    assert cli.main(["reproduce", "thm11", "--assets", str(tmp_path), "--json"]) == 1
    detail = json.loads(capsys.readouterr().out)["detail"]
    assert {"erratum_n": "1", "bad_value": "11", "reason": "does not divide 2^1-1",
            "replacement": None, "replacement_verified": "false"} in detail
    assert {"erratum_n": "1755", "bad_value": "196911", "reason": "not prime",
            "replacement": "1969111", "replacement_verified": "true"} in detail


def test_nesting_too_deep_to_parse_is_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: invalid JSON"):
        codec.load(path)


FORMATS = [
    (load_cover, assets.COVER_ERDOS),
    (load_case, assets.SAMPLE_CASE),
    (load_prime_table, assets.PRIME_TABLE),
    (load_two_prime_data, assets.TWO_PRIME_CLASS),
    (load_certificates, assets.PRIME_CERTIFICATES),
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
