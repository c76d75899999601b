"""The record types: what they refuse, that they stay immutable, how they sort,
and that defining them costs `import coverlab.cli` no heavy module."""

import ast
import os
import pathlib
import random
import subprocess
import sys

import pytest

import coverlab
from coverlab.arith import Factorization
from coverlab.certify import AuxEvidence, AuxPrime, CertificateReport, ExclusionCase
from coverlab.construct import TwoPrimeData
from coverlab.covers import CoveringSystem, ResidueClass
from coverlab.lucas import LucasSpec
from coverlab.mersenne import PrimeTable, PrimeTableReport, PrimitiveDivisorWitness, TableRow
from coverlab.pocklington import Certificate, Factor

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "coverlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in modules, f"{path.name}: {ast.unparse(node)}"


def test_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses would bring inspect, ast, dis and tokenize into every
    # command's start-up, and pathlib is not needed to join asset paths;
    # -S keeps site-packages from loading them first, so the child is
    # pointed at the directory of the coverlab this process imported
    home = str(pathlib.Path(coverlab.__file__).parent.parent)
    code = ("import sys, coverlab.cli; print(coverlab.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": home}, check=True)
    imported, heavy = done.stdout.splitlines()
    assert imported.startswith(home + os.sep), imported
    assert heavy == "[]"


@pytest.mark.parametrize("build, message", [
    (lambda: ResidueClass(0, 0), "modulus must be >= 1, got 0"),
    (lambda: ResidueClass(a=3, n=-2), "modulus must be >= 1, got -2"),
    (lambda: CoveringSystem([]), "a covering system needs at least one class"),
    (lambda: CoveringSystem([], label="empty"), "a covering system needs at least one class"),
    (lambda: LucasSpec(2, 1),
     "need c >= 1, c^2 > 4Q, Q != 0 and gcd(c, Q) = 1, got c = 2, Q = 1"),
    (lambda: LucasSpec(c=0), "need c >= 1, c^2 > 4Q, Q != 0 and gcd(c, Q) = 1, got c = 0, Q = -1"),
    (lambda: LucasSpec(6, -3),
     "need c >= 1, c^2 > 4Q, Q != 0 and gcd(c, Q) = 1, got c = 6, Q = -3"),
])
def test_validating_records_refuse_in_the_same_words(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_validating_records_keep_their_defaults_and_fields():
    assert (LucasSpec().c, LucasSpec().Q) == (4, -1)
    assert (LucasSpec(3, 2).c, LucasSpec(3, 2).Q) == (3, 2)
    system = CoveringSystem([ResidueClass(0, 1)])
    assert (system.classes, system.label) == ([ResidueClass(0, 1)], "")
    assert CoveringSystem._fields == ("classes", "label")
    assert system == ([ResidueClass(0, 1)], "")


FORMERLY_FROZEN = [
    (ResidueClass(1, 2), "a n"),
    (LucasSpec(), "c Q"),
    (Factorization(((2, 3),), 5), "factors cofactor"),
    (AuxPrime(11, 3), "q x_mod_q"),
    (ExclusionCase("c", 1, 2, 3, (AuxPrime(11, 3),)), "label r m p aux"),
    (AuxEvidence(11, 10, 5), "q period order"),
    (CertificateReport("c", True, 4, None, (AuxEvidence(11, 10, 5),)),
     "label valid combinations counterexample aux_evidence"),
    (PrimitiveDivisorWitness(3, 7, 1), "n p alpha"),
    (Factor(3, 1), "q e proof"),
    (Certificate(7, 3, (Factor(3, 1),)), "n base factors lucas_c"),
]

# records that hold a list or a dict, and so are as unhashable as it is
HOLDING_CONTAINERS = [
    (CoveringSystem([ResidueClass(0, 1)], "all"), "classes label"),
    (TwoPrimeData(CoveringSystem([ResidueClass(0, 1)]), [2], [ResidueClass(1, 2)], 1, 2),
     "cover primes residues expected_a expected_m"),
    (PrimeTable({3: [7]}, [5]), "entries omitted"),
    (PrimeTableReport([TableRow(3, 7)], [(5, 0, 1)], [], False, [(TableRow(3, 6), None)],
                      [PrimitiveDivisorWitness(3, 7, 1)]),
     "rows count_mismatches duplicates omitted_consistent errata wieferich"),
]
RECORDS = FORMERLY_FROZEN + HOLDING_CONTAINERS


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_immutable_records_refuse_assignment(record, fields):
    names = fields.split()
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record)._fields == tuple(names)
    rebuilt = type(record)(*(getattr(record, n) for n in names))
    if any(isinstance(getattr(record, n), (list, dict)) for n in names):
        assert rebuilt == record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(rebuilt)


def test_residue_classes_sort_by_a_then_n():
    assert sorted([ResidueClass(3, 5), ResidueClass(-1, 4), ResidueClass(3, 4),
                   ResidueClass(0, 7), ResidueClass(0, 1), ResidueClass(-1, 2)]) == [
        ResidueClass(-1, 2), ResidueClass(-1, 4), ResidueClass(0, 1),
        ResidueClass(0, 7), ResidueClass(3, 4), ResidueClass(3, 5)]
    rng = random.Random(30)
    classes = [ResidueClass(rng.randrange(-20, 20), rng.randrange(1, 12)) for _ in range(300)]
    shuffled = classes[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == sorted(classes, key=lambda c: (c.a, c.n))
    assert ResidueClass(2, 9) < ResidueClass(3, 1) and ResidueClass(2, 3) < ResidueClass(2, 9)
