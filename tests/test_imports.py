"""No module of csawitness, test or demo imports a name it never uses.

No linter runs on this code, so this parses each module (the package
__init__, which re-exports, aside), each file of tests/ and each demo, and
fails on any imported name that is not referenced in the file's code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csawitness"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) >= 15
    assert len(SCRIPTS) >= 25


def _file_id(path):
    """A module by its name, a test or demo by its path from the root."""
    return str(path.relative_to(PACKAGE if path.parent == PACKAGE else ROOT))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_file_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import os\nfrom json import dumps, loads as ld\nimport a.b\n\nprint(dumps, b)\n"
    assert unused_imports(source) == [(1, "os"), (2, "ld"), (3, "a")]
