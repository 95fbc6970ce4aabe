"""Per-layer tracing of csawitness from outside the package.

`Tracer.install` replaces every public function of each layer module, and
every public method (and `__init__`) of the classes those modules define,
with a wrapper that records a span: (span id, parent span id, operation id,
name, start, end).  It rebinds each function at every site that holds it:
the defining module, every module that did `from .linalg import rref`, the
package namespace, and the callbacks of the `csaw` click commands.  Methods
of the field classes are counted, not timed, because they are called
millions of times; their time lands in the self time of their callers.
Private helpers (leading underscore), operators and properties are not
wrapped either, so their time also lands in their caller's self time.

A span's self time is its duration minus the durations of its child spans;
with one thread, children nest inside their parent and do not overlap.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter, defaultdict

# package modules, bottom layer first; `arith` and `errors` are not traced
LAYERS = ("fields", "poly", "linalg", "algebra", "involutions", "ideals", "etale",
          "polyrings", "quadrics", "witness", "pointcount", "serialize", "cli")
FIELD_CLASSES = {"Rationals": "q", "PrimeField": "prime", "ExtensionField": "ext"}


def _count_rref_cells(counts, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    if rows:
        counts["linalg.rref.cells"] += len(rows) * len(rows[0])


def _count_verify(counts, args, kwargs, report):
    if hasattr(args[0], "segments"):
        return  # a chain: its segments are counted by the recursive calls
    samples = args[1] if len(args) > 1 else kwargs.get("samples")
    checked = sum(1 for name, _, _ in report.checks if name.startswith("membership@"))
    counts["witness.verify.membership_checks"] += checked
    if samples is not None:
        counts["witness.verify.skipped_samples"] += len(samples) - checked


def _count_bytes_read(counts, args, kwargs, result):
    counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_edges(counts, args, kwargs, report):
    counts["pointcount.edges"] += len(report.edges)


# hooks run after a successful call while the tracer is active; they must
# not call into csawitness
HOOKS = {
    "linalg.rref": _count_rref_cells,
    "witness.verify_witness": _count_verify,
    "serialize.load_json": _count_bytes_read,
    "pointcount.link_graph": _count_edges,
}


def package_modules(package):
    """The package followed by each of its modules, imported."""
    return [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]


def self_times(spans):
    """Per span name: (number of spans, total self time in seconds)."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        child_time[parent] += end - start
    calls = Counter()
    selfs = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        calls[name] += 1
        selfs[name] += (end - start) - child_time[sid]
    return calls, selfs


class Tracer:
    """Spans and counters for one process.  Inactive wrappers cost one
    attribute test and then call straight through."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op_id = 0
        self.spans = []
        self.counts = Counter()
        self._stack = [0]
        self._next_id = 1
        self._restore = []     # (owner, attribute, original value)
        self._wrappers = {}    # id(original function) -> (original, wrapper)

    # -- recording ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            stack = tracer._stack
            parent = stack[-1]
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op_id, name, start, end))
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, key, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name, fn, *args, **kwargs):
        """Record a span around one call made by the benchmark itself."""
        return self._span_wrapper(name, fn)(*args, **kwargs)

    # -- installing ---------------------------------------------------------

    def _wrap(self, fn, make):
        entry = self._wrappers.get(id(fn))
        if entry is None:
            entry = self._wrappers[id(fn)] = (fn, make(fn))
        return entry[1]

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls):
        field_kind = FIELD_CLASSES.get(cls.__name__) if layer == "fields" else None
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if field_kind is not None:
                key = f"fields.{field_kind}.{attr}_calls"
                make = functools.partial(self._count_wrapper, key)
            else:
                name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
                make = functools.partial(self._span_wrapper, name)
            if inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, make))
            elif isinstance(value, (staticmethod, classmethod)):
                self._set(cls, attr, type(value)(self._wrap(value.__func__, make)))

    def install(self, package):
        """Wrap the layers of `package` (the imported csawitness module)."""
        modules = package_modules(package)
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._wrap(obj, functools.partial(self._span_wrapper, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, name, entry[1])
        for command in self.click_commands(package):
            self._set(command, "callback", self._wrap(
                command.callback,
                functools.partial(self._span_wrapper, f"cli.{command.callback.__name__}")))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self._wrappers.clear()

    @staticmethod
    def click_commands(package):
        pending = [importlib.import_module(f"{package.__name__}.cli").main]
        found = []
        while pending:
            command = pending.pop()
            found.append(command)
            pending.extend(getattr(command, "commands", {}).values())
        return found

    def leaks(self, package):
        """Binding sites that still hold an original, unwrapped function:
        module globals, class attributes and click command callbacks."""
        def original(obj):
            entry = self._wrappers.get(id(obj))
            return entry is not None and entry[0] is obj

        found = []
        for mod in package_modules(package):
            for name, obj in vars(mod).items():
                if original(obj):
                    found.append(f"{mod.__name__}.{name}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, value in vars(obj).items():
                        if original(getattr(value, "__func__", value)):
                            found.append(f"{mod.__name__}.{name}.{attr}")
        for command in self.click_commands(package):
            if original(command.callback):
                found.append(f"click command {command.name}")
        return found

    # -- reporting ----------------------------------------------------------

    def summary(self):
        """Span counts, self times and layer totals, plus the raw counters."""
        calls, selfs = self_times(self.spans)
        layer_self = defaultdict(float)
        for name, value in selfs.items():
            layer_self[name.partition(".")[0]] += value
        return calls, selfs, layer_self, self.counts
