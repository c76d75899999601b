"""Every definition in the library is used by the library itself.

A top-level function or class, or a public method, that only tests reach is
dead weight: no `reproduce` run relies on it.  The scan reads
`src/coverlab` with `ast` and counts a definition as used when code outside
it refers to its name as a name, an attribute or an imported name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coverlab"


def _referenced(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
    return names


def _units():
    """(label, name, statement index, names referenced) for each unit.

    A top-level statement is one unit, except that each public method of a
    class is a unit of its own; the statement index ties a method to its
    class.  Definitions carry a label and a name, other units None.
    """
    index = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            index += 1
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield None, None, index, _referenced([node])
                continue
            label = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield label, node.name, index, _referenced([node])
                continue
            public = [item for item in node.body if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("_")]
            rest = [item for item in node.body if item not in public]
            yield label, node.name, index, _referenced(
                rest + node.bases + node.keywords + node.decorator_list)
            for item in public:
                yield f"{label}.{item.name}", item.name, index, _referenced([item])


def test_every_definition_is_used_outside_itself():
    units = list(_units())
    unused = []
    for k, (label, name, index, _) in enumerate(units):
        if label is None:
            continue
        is_method = label.count(".") == 2
        outside = [names for j, (_, _, other, names) in enumerate(units)
                   if (j != k if is_method else other != index)]
        if not any(name in names for names in outside):
            unused.append(label)
    assert unused == [], f"defined in src/coverlab but used only by tests: {unused}"
