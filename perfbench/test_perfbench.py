"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import contextlib
import inspect
import io
import json
import os

import pytest

import run
import stats
import steady
import workloads
from tracer import LAYERS, Tracer, package_modules, self_times

csawitness = workloads.load_package()
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def binding_sites():
    """Every (where, object) a caller can reach a function through: module
    globals, attributes of the package's classes, click command callbacks."""
    for mod in package_modules(csawitness):
        for name, obj in vars(mod).items():
            yield f"{mod.__name__}.{name}", obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, value in vars(obj).items():
                    yield f"{mod.__name__}.{name}.{attr}", getattr(value, "__func__", value)
    for command in Tracer.click_commands(csawitness):
        yield f"command {command.name}", command.callback


def traced_originals():
    """The functions the tracer must replace, found without its help: public
    functions of each layer module, public methods and __init__ of the
    classes defined there, and the click command callbacks."""
    found = {}
    for mod in package_modules(csawitness):
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                found[id(obj)] = obj
            elif inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    fn = getattr(value, "__func__", value)
                    if inspect.isfunction(fn) and (not attr.startswith("_")
                                                   or attr in ("__init__", "__call__")):
                        found[id(fn)] = fn
    for command in Tracer.click_commands(csawitness):
        found[id(command.callback)] = command.callback
    return found


def test_tracer_leaves_no_original_reachable():
    originals = traced_originals()
    before = dict(binding_sites())
    assert len(originals) > 300
    tracer = Tracer()
    tracer.install(csawitness)
    try:
        leaked = [where for where, obj in binding_sites()
                  if id(obj) in originals and originals[id(obj)] is obj]
        assert leaked == []
        assert tracer.leaks(csawitness) == []
        from csawitness import linalg, witness
        assert witness.rref is linalg.rref and id(linalg.rref) not in originals
    finally:
        tracer.uninstall()
    after = dict(binding_sites())
    assert all(after[where] is obj for where, obj in before.items())


def test_self_time_of_nested_spans():
    # op 1: a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7];
    # op 2: a [20, 21] with no children
    spans = [(3, 2, 1, "c", 2.0, 3.0), (2, 1, 1, "b", 1.0, 4.0), (4, 1, 1, "d", 5.0, 7.0),
             (1, 0, 1, "a", 0.0, 10.0), (5, 0, 2, "a", 20.0, 21.0)]
    calls, selfs = self_times(spans)
    assert dict(calls) == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert selfs == pytest.approx({"a": 5.0 + 1.0, "b": 2.0, "c": 1.0, "d": 2.0})


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._span_wrapper("linalg.rref", lambda field, rows: len(rows))
    outer = tracer._span_wrapper("ideals.RightIdeal", lambda: inner(None, [[1, 2, 3]] * 2))
    outer()                      # inactive: no span
    tracer.active = True
    tracer.op_id = 7
    outer()
    (sid_in, parent_in, op_in, name_in, _, _), (sid_out, parent_out, _, _, _, _) = tracer.spans
    assert (name_in, parent_in, op_in, parent_out) == ("linalg.rref", sid_out, 7, 0)
    assert tracer.counts["linalg.rref.cells"] == 6


def test_tail_percentile():
    values = list(range(1, 201))
    assert stats.tail_percentile(values) == (190, 95.0, 200)
    assert stats.tail_percentile(values[:100]) == (90, 90.0, 100)
    assert stats.tail_percentile(values[:10]) == (None, None, 10)
    kinds = [("fast", v) for v in range(50)] + [("slow", 100 + v) for v in range(20)]
    assert stats.quantile_kinds(kinds) == ("fast", "slow")
    # a lone fast outlier at the tail sample does not make the tail "fast" ...
    outlier = kinds + [("fast", 109.5)]
    assert stats.tail_percentile([v for _, v in outlier])[0] == 109.5
    assert stats.quantile_kinds(outlier) == ("fast", "slow")
    # ... but a tail on the boundary between two kinds shows as the other kind
    boundary = [("fast", v) for v in range(64)] + [("slow", 100 + v) for v in range(10)]
    assert stats.quantile_kinds(boundary) == ("fast", "fast")


def expected_samples(kinds):
    cycle_s = sum(k.count * k.nominal_ms for k in kinds) / 1000.0
    return BENCHMARK["run_seconds"] / cycle_s * sum(k.count for k in kinds)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quantiles_fall_inside_one_kind(name):
    """With the fixed mix, the median and the tail sample sit at least three
    samples away from a boundary between kinds, for runs from half to twice
    the nominal number of samples, and on the kinds QUANTILE_KINDS expects."""
    kinds = workloads.WORKLOADS[name][1]()
    total = sum(k.count for k in kinds)
    mix = [(k.name, k.count / total, k.nominal_ms) for k in kinds]
    n = expected_samples(kinds)
    for scale in (0.5, 1.0, 2.0):
        margins = stats.mix_margins(mix, int(n * scale))
        assert margins["median"][1] >= 3, (scale, margins)
        assert margins["tail"][1] >= 3, (scale, margins)
        assert margins["median"][0] in workloads.QUANTILE_KINDS[name]["median"]
        assert margins["tail"][0] in workloads.QUANTILE_KINDS[name]["tail"]


def test_unexpected_quantile_kind_fails_a_run():
    run_ = {"workload": "build_q",
            "detail": {"median_kind": "etale_m2q", "tail_kind": "exp2_hxs"}}
    assert steady.quantile_kinds_ok(run_)
    run_["detail"]["tail_kind"] = "ideals_m2h"
    assert not steady.quantile_kinds_ok(run_)


def test_layer_metrics_leave_out_undefined_ratio():
    rows, _ = run.layer_metrics(Tracer(), 1.0)
    names = [metric for metric, _, _ in rows]
    assert "pointcount.edge_yield" not in names
    assert set(names) - run.PRINTED_ONLY == {m["name"] for m in BENCHMARK["per_layer"]}


def test_run_survives_a_leftover_work_directory():
    """A killed run leaves its work directory behind; a later run in a
    process with the same pid must still set up."""
    leftover = workloads.ROOT / ".perfbench_work" / str(os.getpid())
    leftover.mkdir(parents=True, exist_ok=True)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", "build_fp", "--seed", "1", "--setup-only"]) == 0
        assert out.getvalue().startswith("setup_s ")
        assert leftover.is_dir()
    finally:
        leftover.rmdir()
        with contextlib.suppress(OSError):
            leftover.parent.rmdir()


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_run_matches_untraced_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "audit_cli", "--seed", "3", "--trace", "1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail "):])
    assert result["correct"] and result["failed"] == 0
    assert detail["output_digest"] == detail["untraced_digest"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["cli.invoke.calls"]["value"] == 2 * sum(
        k.count for k in workloads.kinds_audit_cli())
