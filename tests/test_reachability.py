"""Every public top-level definition of the library must be used outside tests.

A name counts as used when some module of the library other than
`__init__.py` and its own definition, a demo or a benchmark script names
it: as a variable, an attribute, an import or a string (the benchmark
tracer wraps layers by name).  Code that only tests reach belongs beside
the tests, in `tests/references.py`.
"""

import ast
import pathlib

import thermolim

LIB = pathlib.Path(thermolim.__file__).parent
ROOT = LIB.parent.parent


def _names(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_definition_is_reached_outside_the_tests():
    modules = [p for p in sorted(LIB.glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in modules + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        used |= _names(ast.parse(path.read_text()))
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.stem}.{n}" for n in names if not n.startswith("_") and n not in used]
    assert unused == [], "reached only by tests: " + ", ".join(unused)
