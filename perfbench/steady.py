"""Steadiness check: two sets of seeded runs per workload, compared.

    python3 perfbench/steady.py [--workloads smash,cli]
    python3 perfbench/steady.py --trace-check [--workloads ...]

The default mode runs each workload in two sets of ten runs, with seeds
1-10 and 1001-1010.  For each end-to-end metric it prints, per set, the
median, the quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, and whether the metric is steady: that
spread within the metric's bound in `BENCHMARK.json`, and the two sets'
medians apart by no more than the bound, in either direction.  It also
compares the share of failed operations between the sets.

`--trace-check` runs each workload traced twice, with seeds 1 and 2,
reports any per-layer count that differs between the two, and the tracing
overhead: traced pass time against the untraced one of the same seed.
Raw results are written to `.bench_work/steady.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS, RUNS, FIRST_SEED = 2, 10, 1


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode not in (0, 1):   # 1: a result with correct false
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    m = re.search(r"wall_s ([0-9.]+)", proc.stderr)
    result["stderr_wall_s"] = float(m.group(1)) if m else None
    return result


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(args, spec) -> bool:
    metrics = spec["end_to_end"]
    results = {}
    for s in range(SETS):
        for w in args.workloads:
            for i in range(RUNS):
                seed = FIRST_SEED + 1000 * s + i
                r = run_once(spec, w, seed, 0)
                results.setdefault(w, [[] for _ in range(SETS)])[s].append(r)
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                    file=sys.stderr, flush=True)
    all_ok = True
    print(f"{'workload':14} {'metric':13} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for w, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][name]["value"]
                                          for r in runs])
                ok = sp <= bound
                if first is None:
                    first = med
                else:
                    ok = ok and abs(med / first - 1) <= bound
                all_ok &= ok
                print(f"{w:14} {name:13} {s + 1:>3} {med:>10.5g} {q1:>10.5g} "
                      f"{q3:>10.5g} {sp:>7.2%} {bound:>6.2f}  "
                      f"{'steady' if ok else 'NOT STEADY'}"
                      f"{'  (> bound/3)' if sp > bound / 3 else ''}")
        print(f"{w:14} failed share {sorted(shares)}, correct {correct}"
              f"{'' if len(shares) == 1 and correct else '  NOT STEADY'}")
        all_ok &= len(shares) == 1 and correct
    save({"steadiness": results})
    return all_ok


def trace_check(args, spec) -> bool:
    ok = True
    out = {}
    for w in args.workloads:
        seeds = (FIRST_SEED, FIRST_SEED + 1)
        traced = [run_once(spec, w, seed, 1) for seed in seeds]
        plain = run_once(spec, w, seeds[0], 0)
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if v["unit"] in ("count", "bytes")} for t in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        ok &= not differ
        overhead = traced[0]["stderr_wall_s"] / plain["metrics"]["wall_s"]["value"]
        print(f"{w}: counts {'repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"; traced pass {traced[0]['stderr_wall_s']:.3f} s vs untraced "
              f"{plain['metrics']['wall_s']['value']:.3f} s "
              f"(overhead {overhead - 1:+.0%})")
        out[w] = {"traced": traced, "untraced": plain}
    save({"trace_check": out})
    return ok


def save(obj):
    path = os.path.join(ROOT, ".bench_work", "steady.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def main() -> int:
    spec = bench_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=lambda s: s.split(","),
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()
    ok = trace_check(args, spec) if args.trace_check else steadiness(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
