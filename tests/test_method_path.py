"""Whole pipelines on the field-method path give the integer core's output.

Over F_p and Q the package forks to an integer core wherever a function
tests `isinstance(field, INTEGER_CORE)` (tests/test_integer_forks.py pins
those forks).  This test binds INTEGER_CORE to () in every module of the
package that binds the name, found by AST as test_integer_forks.py finds
forks, so that every fork takes its field-method branch and a new module
cannot escape the switch.  On that path it requires what the suite pins
for the core: the seed-1 benchmark digests of tests/test_bench_digests.py
and the outputs of tests/test_golden.py.  It also counts the integer
kernels, Algebra._int_mul, linalg._int_echelon and every function of the
package named int_* or _int_*, and requires that none of them ran.

Every patch goes on a module global or a class, never on a shared field
instance such as fields.QQ, so undoing it leaves nothing behind.
"""

import ast
import functools
import importlib
import inspect

import pytest

import test_bench_digests as bench
import test_golden as golden

PACKAGE = bench.PERFBENCH.parent / "src" / "csawitness"


def binds_integer_core(source):
    """The module assigns or imports the name INTEGER_CORE."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(
                (alias.asname or alias.name) == "INTEGER_CORE" for alias in node.names):
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "INTEGER_CORE" for t in node.targets):
            return True
    return False


def core_modules():
    return [importlib.import_module(f"csawitness.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))
            if binds_integer_core(path.read_text())]


def _is_int_kernel(name):
    return name.startswith(("int_", "_int_"))


def int_kernels():
    """(owner, name) of every int kernel of the package: each binding of a
    module-level function and each method, so that a kernel imported by
    name into another module is counted there too."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"csawitness.{path.stem}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and _is_int_kernel(value.__name__):
                found.append((module, name))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                found += [(value, attr) for attr, member in vars(value).items()
                          if inspect.isfunction(member) and _is_int_kernel(attr)]
    return found


@pytest.fixture
def method_path(monkeypatch):
    """Switch the integer core off; the value is the count of int-kernel
    calls, by kernel, which every test using it requires to stay empty."""
    modules = core_modules()
    assert {m.__name__ for m in modules} >= {
        "csawitness.fields", "csawitness.linalg", "csawitness.algebra"}
    for module in modules:
        monkeypatch.setattr(module, "INTEGER_CORE", ())
    calls = {}

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    kernels = int_kernels()
    assert any(name == "_int_mul" for _, name in kernels)
    assert any(name == "_int_echelon" for _, name in kernels)
    for owner, name in kernels:
        fn = vars(owner)[name]
        monkeypatch.setattr(owner, name, counted(f"{owner.__name__}.{name}", fn))
    return calls


@pytest.mark.parametrize("name", sorted(bench.SEED_1_DIGESTS))
def test_seed_1_digest_on_the_method_path(name, method_path, monkeypatch, tmp_path):
    run = bench.load_run(monkeypatch)
    run.workloads.load_package()
    kinds, ctx = run.setup(name, 1, tmp_path)
    _, attempted, failed, outputs = run.run_loop(name, 1, kinds, ctx, cycles=2)
    assert attempted and failed == 0
    assert run.workloads.digest(outputs) == bench.SEED_1_DIGESTS[name]
    assert method_path == {}


def golden_cases():
    """(test function, keyword arguments) of every test of test_golden.py,
    one per parameter value."""
    for name, fn in sorted(vars(golden).items()):
        if not (name.startswith("test_") and inspect.isfunction(fn)):
            continue
        marks = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
        if not marks:
            yield fn, {}
            continue
        (mark,) = marks
        argname, values = mark.args
        for value in values:
            yield fn, {argname: value}


def test_golden_outputs_on_the_method_path(method_path, tmp_path):
    cases = list(golden_cases())
    assert len(cases) >= 10
    for i, (fn, kwargs) in enumerate(cases):
        params = inspect.signature(fn).parameters
        workdir = tmp_path / str(i)
        workdir.mkdir()
        with pytest.MonkeyPatch.context() as mp:
            given = {"tmp_path": workdir, "monkeypatch": mp, **kwargs}
            fn(**{k: v for k, v in given.items() if k in params})
    assert method_path == {}
