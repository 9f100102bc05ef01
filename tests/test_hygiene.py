"""Source hygiene of the package: no module imports a name it never uses."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rtcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
