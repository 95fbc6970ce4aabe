"""Whole pipelines on the field-method path give the integer core's output.

Over F_p and Q the package forks to an integer core wherever a function
tests `isinstance(field, INTEGER_CORE)` (tests/test_integer_forks.py pins
those forks).  This test binds INTEGER_CORE to () in every module of the
package that binds the name, found by AST as test_integer_forks.py finds
forks, so that every fork takes its field-method branch and a new module
cannot escape the switch.  On that path it requires what the suite pins
for the core: the seed-1 benchmark digests of tests/test_bench_digests.py
and the outputs of tests/test_golden.py, and the verify reports of
witnesses of every kind, tampered copies included, so that failing checks
are compared too.  It also counts the integer kernels, Algebra._int_mul,
linalg._int_echelon and every function of the package named int_* or
_int_*, and requires that none of them ran.

Every patch goes on a module global or a class, never on a shared field
instance such as fields.QQ, so undoing it leaves nothing behind.
"""

import ast
import functools
import importlib
import inspect
import random

import pytest

import test_bench_digests as bench
import test_golden as golden
from csawitness import serialize
from csawitness.algebra import make_matrix_algebra
from csawitness.etale import random_balanced_pair_subalgebra, random_maximal_etale
from csawitness.fields import QQ, PrimeField, standard_extension
from csawitness.ideals import random_flag, random_ideal
from csawitness.poly import Poly
from csawitness.quadrics import QuadraticForm
from csawitness.witness import (
    VECTOR, VECTORS, PencilWitness, WitnessChain, connect_exp2, connect_flags,
    connect_ideals, connect_max_etale, connect_quadric_points, verify_witness,
)

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


def _witnesses():
    """(name, witness), built with the integer core on: per field of F_2,
    F_3, F_5, F_7, F_9 and Q an ideal pencil and a flag pencil on M_3 and
    an etale line on M_2; an exp-2 chain on M_4(F_5); a conic chain over
    F_3."""
    out = []
    for name, f in (("F2", PrimeField(2)), ("F3", PrimeField(3)), ("F5", PrimeField(5)),
                    ("F7", PrimeField(7)), ("F9", standard_extension(3, 2)), ("Q", QQ)):
        rng = random.Random(name)
        A2, A3 = make_matrix_algebra(f, 2), make_matrix_algebra(f, 3)
        out += [
            (f"ideals_{name}", connect_ideals(random_ideal(A3, 1, rng), random_ideal(A3, 1, rng))),
            (f"flags_{name}", connect_flags(random_flag(A3, (1, 2), rng),
                                            random_flag(A3, (1, 2), rng))),
            (f"etale_{name}", connect_max_etale(random_maximal_etale(A2, rng),
                                                random_maximal_etale(A2, rng))),
        ]
    A, rng = make_matrix_algebra(PrimeField(5), 4), random.Random("exp2")
    out.append(("exp2_F5", connect_exp2(random_balanced_pair_subalgebra(A, rng),
                                        random_balanced_pair_subalgebra(A, rng), rng_seed=1)))
    f = PrimeField(3)
    form = QuadraticForm(f, 3, {(0, 2): f.one, (1, 1): f.from_int(2)})
    out.append(("conic_F3", connect_quadric_points(form, (1, 0, 0), (0, 0, 1))))
    return out


def _bumped(w):
    """w with one pencil scalar plus 1: the first scalar of the first data
    key of its first segment (a pencil vector, a generator or a coordinate
    polynomial)."""
    seg = w.segments[0] if isinstance(w, WitnessChain) else w
    f = seg.field
    key, shape = seg.record.keys[0]
    value = seg.data[key]
    if shape == VECTORS:
        first = value[0]
        value = [(f.add(first[0], f.one), *first[1:]), *value[1:]]
    elif shape == VECTOR:
        value = (f.add(value[0], f.one), *value[1:])
    else:  # the coordinate polynomials of a conic segment
        coeffs = list(value[0].coeffs) or [f.zero]
        value = [Poly(f, [f.add(coeffs[0], f.one)] + coeffs[1:]), *value[1:]]
    bumped = PencilWitness(seg.kind, seg.start, seg.end, seg.validity,
                           dict(seg.data, **{key: value}), algebra=seg.algebra,
                           form=seg.form, meta=seg.meta)
    return WitnessChain([bumped, *w.segments[1:]]) if isinstance(w, WitnessChain) else bumped


@pytest.fixture(scope="module")
def core_reports():
    """Per witness of _witnesses and its _bumped copy: its JSON and the
    checks of verifying that JSON loaded, with the integer core on.  The
    fixture is module-scoped, so it runs before method_path switches the
    core off."""
    out = {}
    for name, w in _witnesses():
        for label, v in ((name, w), (f"{name}+1", _bumped(w))):
            data = serialize.witness_to_json(v)
            out[label] = data, verify_witness(serialize.witness_from_json(data)).checks
    return out


def test_verify_reports_on_the_method_path(core_reports, method_path):
    # every witness passes and every tampered copy fails, so failing
    # reports are compared as well as passing ones
    assert {label: all(ok for _, ok, _ in checks)
            for label, (_, checks) in core_reports.items()} == {
        label: not label.endswith("+1") for label in core_reports}
    for label, (data, checks) in core_reports.items():
        assert verify_witness(serialize.witness_from_json(data)).checks == checks, label
    assert method_path == {}
