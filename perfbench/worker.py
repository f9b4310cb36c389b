"""One process of an in-process workload (`exact` or `series`).

Started by run.py.  It imports the package, does the seeded set-up and
one checked warm-up task of each kind, prints `READY`, then runs whole
blocks of tasks until `--seconds` have passed and at least the
workload's minimum block count is done, and prints one JSON line with
what it measured.  With `--setup-only` it stops after `READY`; run.py
starts a few of those to take the median set-up time.

A Speedometer (probe.py) runs from before the package is imported.  The
`READY` line carries the time spent probing so far and the probe's
slowdown during set-up; each task's latency is taken without the probing
inside it and is also reported divided by the slowdown of the samples
around it.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from time import perf_counter

import common
from probe import Speedometer


def run_task(kind, inputs):
    """(output, ok, raised); a task never aborts the run."""
    try:
        out = kind.run(inputs)
        return out, bool(kind.check(inputs, out)), False
    except Exception:  # counted as a failed task; the run goes on
        traceback.print_exc()
        return None, False, True


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import tasks
    speed = Speedometer(tasks.WORKLOADS[args.workload].probe)
    speed.start()
    common.use_checkout_sources()
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = tasks.WORKLOADS[args.workload](tiny=args.tiny)
    wl.prepare()
    attempted = failed = wrong = 0
    for kind, inputs in wl.warmups(args.seed):
        _, ok, raised = run_task(kind, inputs)
        attempted += 1
        failed += not ok
        wrong += not ok and not raised
    ready = {"probing": speed.probing, "slowdown": speed.slowdown(0.0, perf_counter())}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        speed.stop()
        return 0

    n_prefix = wl.min_blocks * wl.block_size
    latencies, windows, records = [], [], []
    t_start = perf_counter()
    deadline = t_start + args.seconds
    b = 0
    while b < wl.min_blocks or perf_counter() < deadline:
        for i, (kind, inputs) in enumerate(wl.block(args.seed, b)):
            task_id = b * wl.block_size + i
            if tracer is not None:
                tracer.task = task_id
            p0, t0 = speed.probing, perf_counter()
            out, ok, raised = run_task(kind, inputs)
            t1, p1 = perf_counter(), speed.probing
            latencies.append(t1 - t0 - (p1 - p0))
            windows.append((t0, t1))
            attempted += 1
            failed += not ok
            wrong += not ok and not raised
            if task_id < n_prefix:
                records.append(None if out is None else wl.canonical(kind, inputs, out))
        b += 1
    wall = perf_counter() - t_start
    speed.sample()  # the last task's window may end after the last tick
    speed.stop()
    scaled = [dt / speed.slowdown(t0, t1) for dt, (t0, t1) in zip(latencies, windows)]

    result = {"attempted": attempted, "failed": failed, "wrong": wrong,
              "tasks": len(latencies), "wall": wall, "latencies": latencies,
              "scaled": scaled, "probing": speed.probing,
              "digest": tasks.digest(records), "header": common.header(args.seed, common.blas_threads())}
    if tracer is not None:
        from tracer import cli_metrics, layer_metrics
        caches = tracer.cache_stats()
        per_layer = layer_metrics(
            tracer.spans, n_prefix, lambda t: 0 <= t < n_prefix,
            lambda t: t < 0, caches)
        per_layer.update(cli_metrics([]))
        per_layer["trace.tasks_per_s"] = len(latencies) / sum(result["scaled"])
        result["per_layer"] = per_layer
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
