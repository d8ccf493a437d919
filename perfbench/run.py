"""Benchmark of rbhopf: four closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload smash|search|tensor_square|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from the
checkout's `src/`, with no install step, and the command exits with code 2
without a result when there is none.  A run sets up its workload, then
runs whole passes of the workload's operations until the passes add up to
S seconds, timing further set-ups in fresh interpreters between the passes
(for `setup_s`), then checks every output against the independent oracles
in `oracle.py` and runs the seeded negative control.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, from a run
with every layer wrapped by `tracer.py`.  A summary goes to standard error.
`correct` is true only if no operation failed and the negative control was
rejected; when it is false the command exits with code 1 after the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 21  # one in this process, the rest in fresh interpreters


def timed_setup(wl):
    t0 = perf_counter()
    ctx = wl.setup()
    return perf_counter() - t0, ctx


def setup_in_child(name: str) -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--setup-probe", name], cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Outputs:
    """Distinct output copies of each operation, with how often each came back.

    Every pass recomputes the same outputs, so the oracle checks each
    distinct copy once, after the timed passes.
    """

    def __init__(self):
        self.by_op: dict = {}
        self.errors: list[tuple[str, str]] = []

    def add(self, op, ok: bool, plain):
        entries = self.by_op.setdefault(op, [])
        for entry in entries:
            if entry[0] == ok and entry[1] == plain:
                entry[2] += 1
                return
        entries.append([ok, plain, 1])


def run(args) -> dict:
    import workloads
    import tracer as tracing

    wl = workloads.make(args.workload, ROOT, SRC, bool(args.trace))
    rng = random.Random(args.seed)
    setup0, ctx = timed_setup(wl)
    setups = [setup0]

    def probe_setups(share: float):
        """Time set-ups in fresh interpreters, spread evenly over the run."""
        target = 0 if args.trace else 1 + (SETUP_SAMPLES - 1) * min(share, 1)
        while len(setups) < target:
            setups.append(setup_in_child(args.workload))

    tracer = None
    if args.trace and wl.traced_in_process:
        tracer = tracing.Tracer()
        tracer.install()

    outputs = Outputs()
    op_times: dict = {}
    walls, largest, layer_passes = [], [], []
    attempted = 0
    measured = 0.0
    while measured < args.seconds or not walls:
        if walls:
            ctx = None   # free the last pass's fixtures before building anew
            probe_setups(measured / args.seconds)
            ctx = wl.setup()
        order = wl.order(rng)
        wl.begin_pass(ctx, len(walls))
        if tracer is not None:
            tracer.reset()
        times = {}
        for op in order:
            gc.collect()   # no operation collects another's garbage
            t0 = perf_counter()
            try:
                raw = wl.run(ctx, op)
            except Exception:
                raw = None
                error = traceback.format_exc()
            times[op] = perf_counter() - t0
            attempted += 1
            if raw is None:
                outputs.errors.append((op, error))
                continue
            ok, plain = wl.extract(ctx, op, raw)
            del raw
            outputs.add(op, ok, plain)
        if args.trace:
            layer_passes.append(tracer.raw() if tracer is not None
                                else wl.pass_trace(ctx))
        wl.end_pass(ctx)
        for op, t in times.items():
            op_times.setdefault(op, []).append(t)
        walls.append(sum(times.values()))
        largest.append(times[wl.largest] if wl.largest else max(times.values()))
        measured += walls[-1]

    probe_setups(1.0)
    peak_kib = wl.peak_rss_kib()
    if peak_kib is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_spans(os.path.join(ROOT, ".bench_work", "spans",
                                        args.workload))
        tracer.uninstall()
    ctx = wl.setup()   # the oracles read the fixtures' structure constants

    failed = 0
    for op, error in outputs.errors:
        failed += 1
        print(f"FAILED {op}: raised\n{error}", file=sys.stderr)
    for op, entries in outputs.by_op.items():
        for ok, plain, count in entries:
            fails = ([] if ok else ["the program's own verdict failed"])
            fails += wl.check(ctx, op, plain)
            if fails:
                failed += count
                print(f"FAILED {op} (x{count}): " + "; ".join(fails),
                      file=sys.stderr)

    # Negative control: one seeded corruption must be rejected by the oracle.
    nrng = random.Random(f"negative-control:{args.seed}")
    candidates = [op for op in workloads.NEGATIVE_CONTROL_OPS.get(
        wl.name, wl.ops) if outputs.by_op.get(op)]
    rejected = False
    if candidates:
        op = candidates[nrng.randrange(len(candidates))]
        bad = wl.corrupt(nrng, op, outputs.by_op[op][0][1])
        fails = wl.check(ctx, op, bad)
        rejected = bool(fails)
        print(f"negative control on {op}: "
              f"{'rejected: ' + fails[0] if rejected else 'NOT REJECTED'}",
              file=sys.stderr)

    print(f"{wl.name}: seed {args.seed}, {len(walls)} passes, {attempted} "
          f"operations, {failed} failed, wall_s {statistics.median(walls):.4f}"
          f"{' (traced)' if args.trace else ''}", file=sys.stderr)

    if args.trace:
        per_pass = [tracing.layer_metrics(raw) for raw in layer_passes]
        metrics = {name: {"value": statistics.median_low(
                              [m[name] for m in per_pass]),
                          "unit": tracing.UNITS[name]}
                   for name in tracing.UNITS}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            # the median over operations of each one's median over passes
            "op_p50_s": statistics.median(
                statistics.median(ts) for ts in op_times.values()),
            "largest_s": statistics.median(largest),
            "peak_rss_mib": peak_kib / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                 "largest_s": "s", "peak_rss_mib": "MiB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return {"correct": rejected and failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("smash", "search",
                                               "tensor_square", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rbhopf", "__init__.py")):
        print(f"error: no rbhopf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import workloads
        t, _ = timed_setup(workloads.make(args.setup_probe, ROOT, SRC, False))
        print(json.dumps({"setup_s": t}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
