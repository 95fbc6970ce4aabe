"""Every function, method and class of csawitness is named somewhere else.

Code with no caller is deleted, not kept.  This parses src/, tests/,
perfbench/ and demos/, collects every identifier they use (names,
attributes and identifier-shaped strings; a use of an alias from
`import x as y` names x) and fails on any definition in src/csawitness that
no use reaches.  An import on its own is not a use, nor is a definition's
mention of its own name, and a use inside a definition counts only once
that definition is reached itself, so code reached only from dead code is
dead too.  A class's bases and decorators are used where the class is
defined.  Dunder methods, which Python calls implicitly, and click
commands, which the CLI reaches through their decorators, are exempt.  The
definitions that only tests reach are pinned as a literal set, so a new one
shows up in a diff.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csawitness"
SEARCHED = ("src", "tests", "perfbench", "demos")
DEF_KINDS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def definitions(tree):
    """(name, line) of every def and class that is neither a dunder nor a
    click command."""
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, DEF_KINDS) and not node.name.startswith("__")
            and not _is_click_command(node)]


def uses(tree):
    """(name, scope) for every identifier the code uses, scope being the
    names of the definitions around the use."""
    aliases = {a.asname: a.name.rpartition(".")[2] for a in ast.walk(tree)
               if isinstance(a, ast.alias) and a.asname}
    out = []

    def visit(node, scope):
        if isinstance(node, DEF_KINDS):
            inner = scope | {node.name}
            for field, value in ast.iter_fields(node):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        visit(child, inner if field == "body" else scope)
            return
        if isinstance(node, ast.Name):
            out.append((aliases.get(node.id, node.id), scope))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, scope))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, frozenset())
    return out


def unreached(defined, used):
    """The names in defined that no (name, scope) in used reaches: a use
    does not reach a definition it sits in, and a use inside an unreached
    definition reaches nothing.  Iterated to a fixpoint."""
    dead = set()
    while True:
        live = {name for name, scope in used
                if name not in scope and not scope & dead}
        now = set(defined) - live
        if now == dead:
            return dead
        dead = now


def _uses_by_file(sources):
    """Uses in each of sources (path -> text).  Only definitions in
    PACKAGE are tracked, so scopes elsewhere are dropped."""
    return {path: [(name, scope if path.parent == PACKAGE else frozenset())
                   for name, scope in uses(ast.parse(text))]
            for path, text in sources.items()}


def unnamed_definitions(sources):
    """Definitions in sources (path -> text) under PACKAGE that no use in
    sources reaches, as sorted (file name, line, name)."""
    package = {path: definitions(ast.parse(text))
               for path, text in sources.items() if path.parent == PACKAGE}
    dead = unreached({name for defs in package.values() for name, _ in defs},
                     [u for found in _uses_by_file(sources).values() for u in found])
    return sorted((path.name, line, name) for path, defs in package.items()
                  for name, line in defs if name in dead)


def _all_sources():
    """Every searched file but this one, whose pinned names are no use."""
    return {path: path.read_text() for top in SEARCHED
            for path in sorted((ROOT / top).rglob("*.py"))
            if path != Path(__file__).resolve()}


def test_every_definition_is_named():
    sources = _all_sources()
    assert len([p for p in sources if p.parent == PACKAGE]) >= 15
    assert unnamed_definitions(sources) == []


def test_only_tests_name_these_definitions():
    """The definitions in src/csawitness that tests reach but no pipeline
    does: neither src/ (its package exports aside), perfbench/ nor demos/
    reaches them.  A new test-only definition, or one that gains a caller,
    changes this set."""
    sources = _all_sources()
    defined = {name for path, text in sources.items() if path.parent == PACKAGE
               for name, _ in definitions(ast.parse(text))}
    by_file = _uses_by_file(sources)
    tests = ROOT / "tests"
    callers = [u for path, found in by_file.items() if tests not in path.parents
               and path.name != "__init__.py" for u in found]
    everyone = [u for found in by_file.values() for u in found]
    test_only = unreached(defined, callers) - unreached(defined, everyone)
    reasons = {
        "multiplicity_free": "ROADMAP item 10's graph certificates use it",
        "gaussian_binomial": "ROADMAP item 9 matches Grassmannian vertex counts",
        "independent_ideals_check": "ROADMAP item 7's independence test for Psi",
        "isotropic_two_planes": "acceptance criterion 08's brute-force oracle",
        "from_ints": "a constructor that about 30 test lines use",
    }
    assert test_only == set(reasons)


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
        "def dead(): reached_only_from_dead()\n"
        "getattr(Used, 'by_string')\n"
        "def by_string(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def reached_only_from_dead(): pass\n"
        "def imported_only(): pass\n"
        "def aliased(): pass\n"
        "class Base: pass\n"
        "class Child(Base): pass\n")
    other = (
        "from csawitness.m import Child, aliased as renamed, imported_only\n"
        "renamed(Child)\n")
    got = unnamed_definitions({PACKAGE / "m.py": source,
                               ROOT / "tests" / "test_m.py": other})
    assert got == [("m.py", 5, "orphan"), ("m.py", 9, "dead"),
                   ("m.py", 12, "recursive"), ("m.py", 13, "reached_only_from_dead"),
                   ("m.py", 14, "imported_only")]
