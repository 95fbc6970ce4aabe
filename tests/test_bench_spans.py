"""The span names perfbench/run.py reads must name traced csawitness callables.

The tracer names a span after what it wrapped: `layer.function`,
`layer.Class` (its __init__) or `layer.Class.method`.  If the package
renames one of them, run.py still reads the old name and the per-layer
metric silently reads 0; this test fails instead.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# spans the benchmark records around its own calls, not the tracer
BENCHMARK_SPANS = {"cli.invoke"}


class RecordingCounter(Counter):
    """An empty Counter that records every key it is asked for."""

    def __init__(self, asked):
        super().__init__()
        self.asked = asked

    def __missing__(self, key):
        self.asked.add(key)
        return 0


class StubTracer:
    def __init__(self):
        self.spans = set()

    def summary(self):
        calls = RecordingCounter(self.spans)
        selfs = RecordingCounter(self.spans)
        return calls, selfs, Counter(), Counter()


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("run", None)
    return importlib.import_module("run")


def is_traced_callable(name):
    """True when the tracer wraps a public callable under this span name."""
    layer, _, rest = name.partition(".")
    mod = importlib.import_module(f"csawitness.{layer}")
    head, _, attr = rest.partition(".")
    obj = vars(mod).get(head)
    if head.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if inspect.isclass(obj):
        member = vars(obj).get(attr or "__init__")
        return inspect.isfunction(member) and not attr.startswith("_")
    return not attr and inspect.isfunction(obj)


def test_layer_metric_spans_resolve(monkeypatch):
    run = load_run(monkeypatch)
    tracer = StubTracer()
    run.layer_metrics(tracer, 1.0)
    names = tracer.spans - BENCHMARK_SPANS
    assert {"polyrings.pencil_min_poly", "polyrings.polymat_det",
            "algebra.Algebra.mul", "linalg.rref"} <= names
    assert [n for n in sorted(names) if not is_traced_callable(n)] == []


def test_stale_span_name_is_caught():
    assert not is_traced_callable("polyrings.solve_poly_linear")
    assert not is_traced_callable("algebra.Algebra._check_shape")
    assert is_traced_callable("ideals.RightIdeal")
