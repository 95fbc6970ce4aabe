"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build_fp --seed 1 --seconds 25 --trace 0

A closed loop with one client and one thread: each operation starts when the
previous one has finished.  With --trace 0 the loop runs for --seconds and
the last line of stdout is a JSON object with the end-to-end metrics.  With
--trace 1 the first TRACE_CYCLES cycles of the same operation sequence run
twice, untraced and then traced, and the JSON object holds the per-layer
metrics; the run length is fixed so that counts repeat exactly.  Run from
the root of a checkout; the program under test is imported from src/.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TRACE_CYCLES = 2    # cycles in the traced run; also the cycles the digest covers
REFERENCE_S = 0.00106   # median reference_seconds() on the tuning host when quiet
SETUP_REPEATS = 16  # extra set-ups, each in a fresh process, for the setup_s median
CHILD_TIMEOUT = 120

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _reference_work():
    acc = 0
    row = list(range(48))
    for i in range(24):
        row = [(x * 7 + i) % 1009 for x in row]
        acc += row[i]
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 1) * Fraction(1, i)
    table = {}
    for i in range(200):
        table[i % 17, i % 5] = table.get((i % 17, i % 5), 0) + i
    return acc, f, len(table)


def reference_seconds():
    """Time a fixed piece of pure-Python work (list, int, Fraction and dict
    operations, like the library's own) that does not touch csawitness.

    The host this benchmark was tuned on changes speed by +-25 % within
    seconds, and CPU time moves with wall time, so it is contention rather
    than scheduling.  Every operation is timed between two reference runs,
    and its latency is scaled by REFERENCE_S / (their mean): times are
    reported in seconds of a host running at the reference speed.  Wall
    times are printed beside them.  The garbage collector is held off so that
    garbage left by the operation is not collected on the reference's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_loop(name, seed, kinds, ctx, seconds=None, cycles=TRACE_CYCLES, tracer=None):
    """Run whole cycles of the workload's mix.

    With `seconds`, keep going until that much time has passed and at least
    `cycles` cycles are done; the samples of an unfinished last cycle are
    dropped, so every run measures the exact mix.  Returns (samples of whole
    cycles as (kind, wall latency, host-speed factor, ok), attempted, failed,
    digest outputs); latency * factor is the latency at the reference speed."""
    order = workloads.cycle_order(kinds)
    index = Counter()
    samples, outputs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_samples = []
        for kind in order:
            if cycle >= cycles and (seconds is None or time.perf_counter() - start >= seconds):
                return samples, attempted, failed, outputs
            inp = kind.make(workloads.op_rng(seed, kind.name, index[kind.name]), ctx)
            index[kind.name] += 1
            reference = reference_seconds()
            if tracer is not None:
                tracer.op_id += 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = kind.run(inp, ctx)
                error = None
            except Exception as exc:  # a failed operation is counted, not raised
                error = exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            factor = 2 * REFERENCE_S / (reference + reference_seconds())
            if error is None:
                try:
                    ok, out = kind.check(inp, result, ctx)
                except Exception as exc:
                    ok, out, error = False, b"", exc
            else:
                ok, out = False, b""
            attempted += 1
            if not ok:
                failed += 1
                print(f"failed: {name} {kind.name} #{index[kind.name] - 1}: "
                      f"{repr(error) if error else 'check failed'}", file=sys.stderr)
            if cycle < TRACE_CYCLES:
                outputs.append((kind.name, out))
            cycle_samples.append((kind.name, latency, factor, ok))
        samples.extend(cycle_samples)
        cycle += 1


def setup(name, seed, workdir):
    setup_fn, kinds_fn = workloads.WORKLOADS[name]
    ctx = {"workdir": str(workdir), "call": plain_call}
    setup_fn(ctx, seed)
    return kinds_fn(), ctx


def scaled_setup(raw_s):
    """Set-up time at the reference speed, from five reference runs made
    right after set-up."""
    reference = statistics.median(reference_seconds() for _ in range(5))
    return raw_s * REFERENCE_S / reference


def child_setup_seconds(name, seed):
    """Set up the workload again in a fresh process; returns (scaled, wall)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    scaled, wall = proc.stdout.split()[-2:]
    return float(scaled), float(wall)


def latency_figures(samples, scaled):
    """ops_per_s, median and tail latency of (kind, wall, factor, ok) samples,
    at the reference speed or in wall time."""
    latencies = [lat * factor if scaled else lat for _, lat, factor, _ in samples]
    completed = sum(1 for _, _, _, ok in samples if ok)
    tail, tail_pct, n = stats.tail_percentile(latencies)
    return {"ops_per_s": completed / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_tail_ms": tail * 1000.0}, tail_pct, n


def end_to_end(name, seed, seconds, kinds, ctx, setup_s):
    samples, attempted, failed, outputs = run_loop(name, seed, kinds, ctx, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [child_setup_seconds(name, seed) for _ in range(SETUP_REPEATS)]

    metrics, tail_pct, n = latency_figures(samples, scaled=True)
    wall, _, _ = latency_figures(samples, scaled=False)
    metrics["setup_s"] = statistics.median(scaled for scaled, _ in setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    wall["setup_s"] = statistics.median(w for _, w in setups)
    median_kind, tail_kind = stats.quantile_kinds(
        [(k, lat * factor) for k, lat, factor, _ in samples])
    per_kind = {}
    for kind in kinds:
        lats = [lat * factor for k, lat, factor, _ in samples if k == kind.name]
        per_kind[kind.name] = {"count": len(lats), "median_ms": statistics.median(lats) * 1000.0}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "latency_tail_percentile": tail_pct, "latency_samples": n,
        "median_kind": median_kind, "tail_kind": tail_kind,
        "output_digest": workloads.digest(outputs),
        "mix": {kind.name: kind.count for kind in kinds},
        "per_kind": per_kind, "setup_runs_s": setups, "wall": wall,
        "host_speed": statistics.median(factor for _, _, factor, _ in samples),
    }
    print("times at the reference speed; wall-clock figures in parentheses")
    for key, value in metrics.items():
        extra = f"  ({wall[key]:.4f})" if key in wall else ""
        print(f"{key:<18} {value:12.4f} {END_TO_END_UNITS[key]:<4}{extra}")
    print(f"{'fail_ratio':<18} {detail['fail_ratio']:12.4f} -     ({failed}/{attempted})")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {n} samples; median kind {median_kind}, "
          f"tail kind {tail_kind}; host speed {detail['host_speed']:.3f} of reference")
    print(f"output_digest      {detail['output_digest']}")
    for kind_name, row in per_kind.items():
        print(f"  {kind_name:<22} {row['count']:5d} ops  median {row['median_ms']:9.2f} ms")
    return metrics, END_TO_END_UNITS, attempted, failed, detail


# Which per-layer figures go into the result line.  Counts always do: they
# are exact, and a count of 0 is measured (the workload never called it).
# A time must be a measured duration on every workload, since the result may
# not hold a time that reads the same on every run; these self times are
# exactly 0 on a workload that never enters the layer (cli on build_fp and
# build_q, index_evidence on build_fp and audit_cli, ...).  A ratio must be
# defined: edge_yield is 0/0 where QuadricCurves.link is never called, so the
# result holds its two terms, pointcount.edges and pointcount.link.calls.
# The traced run prints these and puts them in its detail line.
PRINTED_ONLY = {"algebra.index_evidence.self_s", "involutions.self_s", "quadrics.self_s",
                "pointcount.self_s", "cli.self_s", "pointcount.edge_yield"}


def layer_metrics(tracer, overhead):
    calls, selfs, layer_self, counts = tracer.summary()
    construct = [n for n in calls if n.startswith("witness.connect_")]
    link_calls = calls["pointcount.QuadricCurves.link"]
    rows = [
        ("fields.prime.mul_calls", counts["fields.prime.mul_calls"], "count"),
        ("fields.prime.inv_calls", counts["fields.prime.inv_calls"], "count"),
        ("fields.q.mul_calls", counts["fields.q.mul_calls"], "count"),
        ("fields.q.div_calls", counts["fields.q.div_calls"], "count"),
        ("fields.ext.mul_calls", counts["fields.ext.mul_calls"], "count"),
        ("fields.ext.inv_calls", counts["fields.ext.inv_calls"], "count"),
        ("algebra.mul.calls", calls["algebra.Algebra.mul"], "count"),
        ("algebra.mul.self_s", selfs["algebra.Algebra.mul"], "s"),
        ("algebra.inverse.calls", calls["algebra.Algebra.inverse"], "count"),
        ("algebra.self_s", layer_self["algebra"], "s"),
        ("algebra.index_evidence.self_s", selfs["algebra.index_evidence"], "s"),
        ("linalg.rref.calls", calls["linalg.rref"], "count"),
        ("linalg.rref.cells", counts["linalg.rref.cells"], "count"),
        ("linalg.rref.self_s", selfs["linalg.rref"], "s"),
        ("linalg.in_row_space.calls", calls["linalg.in_row_space"], "count"),
        ("linalg.charpoly.calls", calls["linalg.charpoly"], "count"),
        ("linalg.kernel.calls", calls["linalg.kernel"], "count"),
        ("linalg.self_s", layer_self["linalg"], "s"),
        ("ideals.RightIdeal.calls", calls["ideals.RightIdeal"], "count"),
        ("ideals.RightIdeal.self_s", selfs["ideals.RightIdeal"], "s"),
        ("ideals.module_presentation.calls", calls["ideals.ModulePresentation"], "count"),
        ("ideals.self_s", layer_self["ideals"], "s"),
        ("polyrings.polymat_det.calls", calls["polyrings.polymat_det"], "count"),
        ("polyrings.pencil_min_poly.calls", calls["polyrings.pencil_min_poly"], "count"),
        ("polyrings.self_s", layer_self["polyrings"], "s"),
        ("poly.factor.calls", calls["poly.factor"], "count"),
        ("poly.self_s", layer_self["poly"], "s"),
        ("etale.generate_etale.calls", calls["etale.generate_etale"], "count"),
        ("etale.self_s", layer_self["etale"], "s"),
        ("involutions.self_s", layer_self["involutions"], "s"),
        ("witness.construct.calls", sum(calls[n] for n in construct), "count"),
        ("witness.construct.self_s", sum(selfs[n] for n in construct), "s"),
        ("witness.verify.calls", calls["witness.verify_witness"], "count"),
        ("witness.verify.self_s", selfs["witness.verify_witness"], "s"),
        ("witness.verify.membership_checks", counts["witness.verify.membership_checks"], "count"),
        ("witness.verify.skipped_samples", counts["witness.verify.skipped_samples"], "count"),
        ("quadrics.self_s", layer_self["quadrics"], "s"),
        ("pointcount.link.calls", link_calls, "count"),
        ("pointcount.edges", counts["pointcount.edges"], "count"),
        ("pointcount.self_s", layer_self["pointcount"], "s"),
        ("serialize.witness_from_json.calls", calls["serialize.witness_from_json"], "count"),
        ("serialize.bytes_read", counts["serialize.bytes_read"], "count"),
        ("serialize.self_s", layer_self["serialize"], "s"),
        ("cli.invoke.calls", calls["cli.invoke"], "count"),
        ("cli.self_s", layer_self["cli"], "s"),
        ("trace.overhead", overhead, "ratio"),
    ]
    if link_calls:
        rows.append(("pointcount.edge_yield", counts["pointcount.edges"] / link_calls, "ratio"))
    return rows, layer_self


def traced(name, seed, kinds, ctx, package):
    """The first TRACE_CYCLES cycles untraced, then the same cycles traced."""
    samples, attempted, failed, outputs = run_loop(name, seed, kinds, ctx)
    untraced_s = sum(lat * factor for _, lat, factor, _ in samples)
    tracer = Tracer()
    tracer.install(package)
    ctx["call"] = tracer.call
    try:
        leaks = tracer.leaks(package)
        t_samples, t_attempted, t_failed, t_outputs = run_loop(name, seed, kinds, ctx,
                                                               tracer=tracer)
    finally:
        tracer.uninstall()
        ctx["call"] = plain_call
    traced_s = sum(lat * factor for _, lat, factor, _ in t_samples)
    rows, layer_self = layer_metrics(tracer, traced_s / untraced_s)
    digest, t_digest = workloads.digest(outputs), workloads.digest(t_outputs)
    for metric, value, unit in rows:
        print(f"{metric:<36} {value:>16.6g} {unit}")
    total = sum(layer_self.values())
    print(f"self time by layer over {len(t_samples)} traced operations "
          f"({len(tracer.spans)} spans):")
    for layer, value in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {value:10.4f} s  {100.0 * value / total:5.1f} %")
    print(f"output_digest untraced {digest}")
    print(f"output_digest traced   {t_digest}")
    if leaks:
        print(f"unwrapped bindings: {leaks}", file=sys.stderr)
    detail = {"workload": name, "seed": seed, "output_digest": t_digest,
              "untraced_digest": digest, "leaks": leaks, "spans": len(tracer.spans),
              "printed_only": {metric: value for metric, value, _ in rows
                               if metric in PRINTED_ONLY}}
    metrics = {metric: value for metric, value, _ in rows if metric not in PRINTED_ONLY}
    units = {metric: unit for metric, _, unit in rows}
    ok = digest == t_digest and not leaks
    return metrics, units, attempted + t_attempted, failed + t_failed + (not ok), detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit (used for the setup_s median)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        package = workloads.load_package()
    except workloads.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (workloads.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workloads.ROOT / ".perfbench_work"))
    try:
        kinds, ctx = setup(args.workload, args.seed, workdir)
        wall_setup_s = time.perf_counter() - PROCESS_START
        setup_s = (scaled_setup(wall_setup_s), wall_setup_s)
        if args.setup_only:
            print(f"setup_s {setup_s[0]!r} {setup_s[1]!r}")
            return 0
        print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, 1 thread")
        if args.trace:
            metrics, units, attempted, failed, detail = traced(
                args.workload, args.seed, kinds, ctx, package)
        else:
            metrics, units, attempted, failed, detail = end_to_end(
                args.workload, args.seed, args.seconds, kinds, ctx, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
