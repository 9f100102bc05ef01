"""Source hygiene of the package: no module imports a name it never uses,
and no top-level definition is left with no user outside the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rtcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The code a definition of the package may serve; the tests do not count.
USERS = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
# Kept with no user outside the tests, and why.
TEST_ONLY = {
    "theta_bar": "the paper's forest edge-product operator; the tests check it against the tree operator",
    "go_triangle": "the paper's all-grafted forest product; the tests check it against planted grafting",
}


def unused_imports(source: str):
    """Names bound by the import statements of ``source`` that occur nowhere
    else in it, as whole words.  A name that only a string uses, such as a
    type in a string annotation, counts as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in stmt.names]
            for k in range(stmt.lineno - 1, stmt.end_lineno):
                lines[k] = ""
    rest = "\n".join(lines)
    return [name for name in imported if not re.search(rf"\b{re.escape(name)}\b", rest)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_string_only_names():
    source = 'from typing import Iterable, Optional\nimport os.path\nx = "Iterable[int]"\n'
    assert unused_imports(source) == ["Optional", "os"]


def without_docstrings(source: str) -> str:
    """``source`` with every line of a docstring blanked; other strings,
    string annotations among them, stay."""
    lines = source.splitlines()
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(stmt, clean=False) is not None:
                doc = stmt.body[0]
                for k in range(doc.lineno - 1, doc.end_lineno):
                    lines[k] = ""
    return "\n".join(lines)


def top_level_definitions(source: str):
    """The top-level function and class statements of ``source``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [stmt for stmt in ast.parse(source).body if isinstance(stmt, defs)]


def unused_definitions(modules, others):
    """The top-level functions and classes of the sources ``modules`` whose
    names occur, as whole words, in no source of ``modules`` or ``others``
    outside their own definition and outside docstrings.  A definition
    that only calls itself, or that only a docstring names, is unused; a
    name that only another string uses, such as a string annotation,
    counts as used.  A source that defines a top-level function or class
    of the same name uses its own, so its occurrences do not count."""
    found = set()
    sources = [*modules, *others]
    stripped = {text: without_docstrings(text) for text in sources}
    defined = {text: {stmt.name for stmt in top_level_definitions(text)} for text in sources}
    for source in modules:
        lines = stripped[source].splitlines()
        for stmt in top_level_definitions(source):
            start = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
            rest = "\n".join(lines[: start - 1] + lines[stmt.end_lineno :])
            pattern = re.compile(rf"\b{re.escape(stmt.name)}\b")
            texts = [rest] + [
                stripped[other] for other in sources if other is not source and stmt.name not in defined[other]
            ]
            if not any(pattern.search(text) for text in texts):
                found.add(stmt.name)
    return found


def test_every_top_level_definition_has_a_user_outside_the_tests():
    package = [p.read_text() for p in MODULES]
    others = [p.read_text() for p in USERS if p not in MODULES]
    assert unused_definitions(package, others) == set(TEST_ONLY)


def test_the_definition_scan_sees_self_calls_and_string_only_names():
    module = (
        "import os\n\n"
        "@staticmethod\ndef loop(n):\n    return loop(n - 1)\n\n"
        "def used():\n    return os\n\n"
        "def quoted():\n    pass\n\n"
        "class Lonely:\n    pass\n\n"
        "def shadowed():\n    pass\n\n"
        "x = 'quoted'\n"
    )
    own_copy = "def shadowed():\n    pass\n\nshadowed()\n"
    assert unused_definitions([module, "import m\nm.used()\n"], [own_copy]) == {"loop", "Lonely", "shadowed"}


def test_the_definition_scan_skips_docstrings_but_not_string_annotations():
    module = (
        '"""Module text naming documented()."""\n\n'
        "def documented():\n    pass\n\n"
        "def annotated():\n    pass\n\n"
        'class Holder:\n    """Holder of documented."""\n\n    def get(self) -> "annotated":\n'
        '        """Also documented."""\n        return self\n\n'
        "def user():\n    return Holder()\n"
    )
    assert unused_definitions([module, '"""user()"""\nimport m\nm.user()\n'], []) == {"documented"}
