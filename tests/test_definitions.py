"""Every function, method and class of csawitness is named somewhere else.

Code with no caller is deleted, not kept.  This parses src/, tests/,
perfbench/ and demos/, collects every identifier they mention (names,
attributes, imported names and identifier-shaped strings) and fails on any
definition in src/csawitness whose name appears only where it is defined.
Dunder methods, which Python calls implicitly, and click commands, which the
CLI reaches through their decorators, are exempt.  The definitions that only
tests name are pinned as a literal set, so a new one shows up in a diff.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csawitness"
SEARCHED = ("src", "tests", "perfbench", "demos")


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def definitions(tree):
    """(name, line) of every def and class that is neither a dunder nor a
    click command."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, kinds) and not node.name.startswith("__")
            and not _is_click_command(node)]


def mentions(tree):
    """Every identifier the code names, other than by defining it."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def unnamed_definitions(sources):
    """Definitions in sources (path -> text) under PACKAGE that no source
    mentions, as sorted (file name, line, name)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = Counter()
    for tree in trees.values():
        named.update(mentions(tree))
    return sorted((path.name, line, name)
                  for path, tree in trees.items() if path.parent == PACKAGE
                  for name, line in definitions(tree) if not named[name])


def test_every_definition_is_named():
    sources = {path: path.read_text() for top in SEARCHED
               for path in sorted((ROOT / top).rglob("*.py"))}
    assert len([p for p in sources if p.parent == PACKAGE]) >= 15
    assert unnamed_definitions(sources) == []


def test_only_tests_name_these_definitions():
    """The definitions in src/csawitness that tests name but no pipeline
    calls: neither src/ (its package exports aside), perfbench/ nor demos/
    mentions them.  A new test-only definition, or one that gains a caller,
    changes this set."""
    callers, tested = Counter(), Counter()
    defined = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if path.parent == PACKAGE:
                defined.update(name for name, _ in definitions(tree))
            if top == "tests":
                tested.update(mentions(tree))
            elif path.name != "__init__.py":
                callers.update(mentions(tree))
    test_only = {name for name in defined if tested[name] and not callers[name]}
    assert test_only == {
        "from_ints", "gaussian_binomial", "independent_ideals_check",
        "isotropic_two_planes", "minimal_polynomial", "multiplicity_free",
        "radical_is_regular_is_isotropic", "roots_in_field", "scheme_index_bound",
    }


def test_unused_definition_is_caught():
    source = (
        "import click\n"
        "class Used:\n"
        "    def __init__(self): pass\n"
        "    def called(self): pass\n"
        "    def orphan(self): pass\n"
        "def helper(): return Used().called()\n"
        "@click.command('run')\n"
        "def run(): helper()\n"
        "def dead(): pass\n"
        "getattr(Used, 'by_string')\n"
        "def by_string(): pass\n")
    got = unnamed_definitions({PACKAGE / "m.py": source})
    assert got == [("m.py", 5, "orphan"), ("m.py", 9, "dead")]
