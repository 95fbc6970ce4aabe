"""Repeat benchmark runs and judge their spread against BENCHMARK.json.

    python3 perfbench/steady.py run --seeds 1-10 --out a.json
    python3 perfbench/steady.py compare a.json b.json
    python3 perfbench/steady.py holdout --seed 9001 --reference a.json
    python3 perfbench/steady.py traced --seed 1

Every run lasts BENCHMARK.json's run_seconds.  `run` runs each workload
once per seed, one run at a time, and prints the median, quartiles and
interquartile range (as a share of the median) of every end-to-end metric
next to the metric's bound.  `compare` prints how far each median of the
second set moved from the first, as a share of the first, worse direction
positive.  `holdout` runs every workload on a seed not used in tuning and
checks that no operation failed and that the operation mix is that of the
reference runs.  `run` and `holdout` also fail when a run's median or tail
sample falls on an operation kind outside the kind or tier expected for its
workload (workloads.QUANTILE_KINDS).  `traced` runs every workload traced
twice and checks that the counts and the output digest repeat and that the
digest equals the untraced one.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]),
            "detail": detail}


def quantile_kinds_ok(run):
    """Whether the run's median and tail samples fell on the expected kinds."""
    expected = workloads.QUANTILE_KINDS[run["workload"]]
    return (run["detail"]["median_kind"] in expected["median"]
            and run["detail"]["tail_kind"] in expected["tail"])


def summarize(runs, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in mine)
        attempted = sum(r["result"]["attempted"] for r in mine)
        kinds_ok = all(quantile_kinds_ok(r) for r in mine)
        print(f"{workload}: {len(mine)} runs, fail_ratio {failed}/{attempted}, "
              f"tail kinds {sorted({r['detail']['tail_kind'] for r in mine})}, "
              f"median kinds {sorted({r['detail']['median_kind'] for r in mine})}"
              f"{'' if kinds_ok else ' UNEXPECTED KIND'}")
        ok = ok and failed == 0 and kinds_ok
        for name, metric in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med, q1, q3, share = stats.spread(values)
            verdict = ("steady" if share < metric["bound"] / 3 else
                       "within bound" if share <= metric["bound"] else "TOO WIDE")
            if name != "setup_s":
                ok = ok and share <= metric["bound"]
            print(f"  {name:<16} median {med:12.4f} {metric['unit']:<4} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {share:6.3f} bound {metric['bound']:.3f} {verdict}")
    return ok


def compare(first, second, bench):
    ok = True
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        for workload in dict.fromkeys(r["workload"] for r in first):
            a = [r["result"]["metrics"][name]["value"] for r in first if r["workload"] == workload]
            b = [r["result"]["metrics"][name]["value"] for r in second
                 if r["workload"] == workload]
            if not b:
                continue
            ma, mb = stats.spread(a)[0], stats.spread(b)[0]
            worse = sign * (mb - ma) / ma
            ok = ok and worse <= metric["bound"]
            print(f"{workload:<10} {name:<16} {ma:12.4f} -> {mb:12.4f}  worse by {worse:+.3f} "
                  f"(bound {metric['bound']:.3f}) {'ok' if worse <= metric['bound'] else 'WORSE'}")
    return ok


def holdout(seed, reference, seconds):
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in reference):
        ref = next(r for r in reference if r["workload"] == workload)
        got = run_once(workload, seed, seconds)
        mix, ref_mix = got["detail"]["mix"], ref["detail"]["mix"]
        counts = {k: v["count"] for k, v in got["detail"]["per_kind"].items()}
        cycles = {counts[k] // n for k, n in mix.items()}
        whole = len(cycles) == 1 and all(counts[k] % n == 0 for k, n in mix.items())
        kinds_ok = quantile_kinds_ok(got)
        good = got["result"]["failed"] == 0 and mix == ref_mix and whole and kinds_ok
        ok = ok and good
        print(f"{workload:<10} seed {seed}: failed {got['result']['failed']}/"
              f"{got['result']['attempted']}, mix {'same' if mix == ref_mix else 'DIFFERENT'}, "
              f"whole cycles {whole}, median kind {got['detail']['median_kind']}, "
              f"tail kind {got['detail']['tail_kind']}{'' if kinds_ok else ' UNEXPECTED'}, "
              f"digest {got['detail']['output_digest'][:16]} {'ok' if good else 'FAIL'}")
    return ok


def traced_twice(seed, names):
    ok = True
    for workload in names:
        first, second = (run_once(workload, seed, 0, trace=1) for _ in range(2))
        counts = [{k: v["value"] for k, v in run["result"]["metrics"].items()
                   if v["unit"] == "count"} for run in (first, second)]
        digests = {first["detail"]["output_digest"], second["detail"]["output_digest"],
                   first["detail"]["untraced_digest"]}
        good = (counts[0] == counts[1] and len(digests) == 1
                and first["result"]["correct"] and second["result"]["correct"])
        ok = ok and good
        same_counts = "equal" if counts[0] == counts[1] else "DIFFER"
        same_digest = "equal" if len(digests) == 1 else "DIFFER"
        print(f"{workload:<10} seed {seed}: counts {same_counts}, digests {same_digest} "
              f"{'ok' if good else 'FAIL'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_hold = sub.add_parser("holdout")
    p_hold.add_argument("--seed", type=int, required=True)
    p_hold.add_argument("--reference", required=True)
    p_trace = sub.add_parser("traced")
    p_trace.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = spec()
    seconds = bench["run_seconds"]

    if args.command == "run":
        runs = []
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in parse_seeds(args.seeds):
                runs.append(run_once(workload, seed, seconds))
                Path(args.out).write_text(json.dumps(runs, indent=1))
        return 0 if summarize(runs, bench) else 1
    if args.command == "compare":
        first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
        return 0 if compare(first, second, bench) else 1
    if args.command == "traced":
        return 0 if traced_twice(args.seed, [w["name"] for w in bench["workloads"]]) else 1
    reference = json.loads(Path(args.reference).read_text())
    return 0 if holdout(args.seed, reference, seconds) else 1


if __name__ == "__main__":
    sys.exit(main())
