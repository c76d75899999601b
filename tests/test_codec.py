import copy
import json
import re
import shutil

import pytest

from coverlab import assets, cli, codec
from coverlab.arith import crt_combine
from coverlab.certify import AuxPrime, ExclusionCase, check_exclusion, load_case
from coverlab.codec import FormatError
from coverlab.construct import build_two_prime_class, erdos_witness_primes, load_two_prime_data
from coverlab.covers import CoveringSystem, ResidueClass, load_cover, verify_cover
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


@pytest.mark.parametrize("m, why", [
    # Python 3.10 words it "(4300)", 3.11 "(4300 digits)"
    ("9" * 5000, "Exceeds the limit (4300"),
    ({}, "expected an integer as a decimal string, got an object"),
], ids=["m-past-the-digit-limit", "m-an-object"])
def test_certify_says_why_a_field_is_no_integer(tmp_path, capsys, m, why):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**CASE, "m": m}))
    assert cli.main(["certify", str(path)]) == 2
    assert f"{path}: $.m: {why}" in capsys.readouterr().err


def test_load_case_parses_a_case_that_check_exclusion_refuses(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**CASE, "p": "4"}))
    assert load_case(path).p == 4


def _refuses(where, why):
    raise codec.Refusal(where, why)


TIGHT = ExclusionCase(label="tight", r=12, m=14, p=29, aux=(AuxPrime(31, 14),))


@pytest.mark.parametrize("call, args, error, outcome", [
    (erdos_witness_primes, (CoveringSystem([ResidueClass(0, 2), ResidueClass(1, 4)]),),
     None, [3, 5]),
    (_refuses, ("$.x", "why"), FormatError, "F: $.x: why"),
    (crt_combine, ([ResidueClass(0, 2), ResidueClass(1, 4)],), ValueError,
     "inconsistent residue classes: 0(2) and 1(4) share no integer"),
    (check_exclusion, (TIGHT, 99), ValueError, "100 combinations exceed the budget 99"),
], ids=["accepted", "refused", "conflict", "combinations"])
def test_refuse_names_the_file_and_the_field(call, args, error, outcome):
    # refuse returns the call's value, names the file of a Refusal, and lets
    # any other ValueError through as it is, with no file and no field
    if error is None:
        assert codec.refuse("F", call, *args) == outcome
        return
    with pytest.raises(ValueError) as raised:
        codec.refuse("F", call, *args)
    assert type(raised.value) is error
    assert str(raised.value) == outcome


def _set(items, i, value):
    return items[:i] + [value] + items[i + 1:]


ERDOS = load_cover(assets.asset_path(assets.COVER_ERDOS))
DATA = load_two_prime_data(assets.asset_path(assets.TWO_PRIME_CLASS))
LARGE_Q = ExclusionCase(label="q", r=1, m=2, p=3, aux=(AuxPrime(1000000007, 1),))

# every input rule of the library: the call, the field it refuses (the path
# the command line prints after the file name) and the words of why
RULES = {
    "lcm": (verify_cover, (ERDOS, 10), "$.classes[2].n",
            "lcm of moduli is 24, above the enumeration budget 10"),
    "erdos-unknown": (erdos_witness_primes, (CoveringSystem(
        [ResidueClass(0, 7), ResidueClass(0, 5), ResidueClass(0, 2)]),),
        "$.classes[0].n", "no witness prime for exponent moduli [5, 7]"),
    "erdos-repeated": (erdos_witness_primes, (CoveringSystem(
        [ResidueClass(0, 2), ResidueClass(1, 2)]),),
        "$.classes[1].n", "modulus 2 is repeated, so two classes share its witness prime 3"),
    "odd-cover-even": (build_two_prime_class, (DATA._replace(cover=CoveringSystem(
        _set(DATA.cover.classes, 14, ResidueClass(1, 4)))),),
        "$.odd_cover[14].n", "modulus 4 is even; doubling needs odd moduli"),
    "primes-count": (build_two_prime_class, (DATA._replace(primes=DATA.primes[:-1]),),
                     "$.primes", "need exactly one prime per cover class plus one for parity"),
    "residues-count": (build_two_prime_class, (DATA._replace(residues=DATA.residues[:-1]),),
                       "$.residues", "need exactly one residue class per prime"),
    "prime-repeated": (build_two_prime_class, (DATA._replace(primes=_set(DATA.primes, 2, 19)),),
                       "$.primes[2]", "prime 19 at position 2 is repeated"),
    "prime-not-prime": (build_two_prime_class, (DATA._replace(primes=_set(DATA.primes, 1, 4)),),
                        "$.primes[1]", "modulus 4 at position 1 is not prime"),
    "residue-modulus": (build_two_prime_class, (DATA._replace(
        residues=_set(DATA.residues, 3, ResidueClass(1, 7))),),
        "$.residues[3].n", "residue class 3 has modulus 7, expected 11"),
    "m-below-1": (check_exclusion, (TIGHT._replace(m=0),), "$.m",
                  "progression modulus must be >= 1"),
    "p-not-prime": (check_exclusion, (TIGHT._replace(p=4),), "$.p", "target 4 is not prime"),
    "q-repeated": (check_exclusion, (TIGHT._replace(aux=(AuxPrime(31, 1), AuxPrime(31, 2))),),
                   "$.aux[1].q", "auxiliary prime 31 is repeated"),
    "q-not-prime": (check_exclusion, (TIGHT._replace(aux=(AuxPrime(1, 0),)),),
                    "$.aux[0].q", "auxiliary 1 is not prime"),
    "q-divides-p": (check_exclusion, (TIGHT._replace(p=31),),
                    "$.aux[0].q", "auxiliary 31 divides the target 31"),
    "q-period-walk": (check_exclusion, (LARGE_Q, 1000), "$.aux[0].q",
                      "the period of u_n mod 1000000007 and its walk exceed the budget 1000"),
    "odd-cover-lcm": (build_two_prime_class, (DATA, 314), "$.odd_cover[5].n",
                      "lcm of moduli is 315, above the enumeration budget 314"),
    "doubled-cover-lcm": (build_two_prime_class, (DATA, 629), "$.odd_cover[5].n",
                          "lcm of moduli is 630, above the enumeration budget 629"),
}


@pytest.mark.parametrize("name", RULES)
def test_every_input_rule_raises_a_refusal_naming_its_field(name):
    call, args, where, why = RULES[name]
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert type(raised.value) is codec.Refusal
    assert raised.value.where == where
    assert str(raised.value) == why
    with pytest.raises(FormatError) as located:
        codec.refuse("F", call, *args)
    assert str(located.value) == f"F: {where}: {why}"


# past the 4300 digits str(int) writes, with a chunk of zeros inside
LONG = [10**4000 - 1, 10**4000, 10**8000 + 7, -(3**9000)]


def _parse_by_chunks(text: str) -> int:
    """int(text) 1000 digits at a time, below str(int)'s 4300-digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return sign * value


def test_cover_roundtrip(tmp_path):
    # bigints leave as decimal strings and come back as ints, in class order;
    # a report-like field rides along, which the loader ignores
    system = CoveringSystem(
        [ResidueClass(583939, 675675), ResidueClass(0, 2),
         ResidueClass(3**200, 5**100 * 7)], label="roundtrip")
    path = tmp_path / "cover.json"
    codec.dump({"label": system.label,
                "classes": [{"a": c.a, "n": c.n} for c in system.classes],
                "row": {"ok": [True, False], "none": None, "wall_time_s": 0.25,
                        "nested": [(-7, {"p": 2**64})], "long": LONG}}, path)
    written = json.loads(path.read_text())
    long = written["row"].pop("long")
    assert long[2] == "1" + "0" * 7999 + "7"
    assert [_parse_by_chunks(text) for text in long] == LONG
    assert written["classes"][2]["n"] == str(5**100 * 7)
    assert written["row"] == {"ok": ["true", "false"], "none": None, "wall_time_s": 0.25,
                              "nested": [["-7", {"p": str(2**64)}]]}
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
    with open(assets.asset_path(name), encoding="utf-8") as fh:
        original = json.load(fh)
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


# each data file and the reproduce target that reads it
SWEPT = {assets.COVER_ODD173: "thm11", assets.PRIME_TABLE: "thm11",
         assets.PRIME_CERTIFICATES: "thm11", assets.TWO_PRIME_CLASS: "thm13",
         assets.COVER_ERDOS: "erdos"}
CHANGES = {"v+1": lambda v: v + 1, "v-1": lambda v: v - 1, "0": lambda v: 0,
           "-1": lambda v: -1, "4": lambda v: 4, "13": lambda v: 13,
           "2v": lambda v: 2 * v, "v^2+2": lambda v: v * v + 2}


def _decimal_fields(name):
    """The JSON path of every decimal field of the packaged asset `name`."""
    with open(assets.asset_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    fields = []
    for path in _paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
            fields.append(path)
    return fields


def test_reproduce_ends_in_a_pass_a_fail_or_a_named_refusal(tmp_path, capsys):
    # one decimal field of one asset changed: the run passes, fails with a
    # report, or refuses naming the file and the field, and never raises
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = {name: _decimal_fields(name) for name in SWEPT}
    chosen = st.sampled_from(sorted(SWEPT)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(fields[name])))

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
    @hypothesis.given(chosen, st.sampled_from(sorted(CHANGES)))
    # 1925 -> 1926 brings the lcm to 144594450, above the default budget
    @hypothesis.example((assets.COVER_ODD173, ("classes", 145, "n")), "v+1")
    def check(field, change):
        name, path = field
        shutil.copytree(assets.asset_dir(), tmp_path, dirs_exist_ok=True)
        target = tmp_path / name
        doc = json.loads(target.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = str(CHANGES[change](int(parent[path[-1]])))
        target.write_text(json.dumps(doc))
        code = cli.main(["reproduce", SWEPT[name], "--assets", str(tmp_path), "--json"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), code
        if code == 1:
            assert json.loads(out)["outcome"] == "fail"
        if code == 2:
            assert f"{target}: $." in err, err

    check()
