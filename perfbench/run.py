"""The octavia benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {exact,series,cli_cold} --seed N \
        --seconds S --trace {0,1}

Workloads (each a closed loop: one client, the next task starts when the
previous one has ended; see NOTES.md for why each was chosen):

- exact:    Hurwitz and octavian Euclid chains with their coset words,
            and W+(E8) normal-form round trips, warm caches.
- series:   Hurwitz and octavian Eisenstein/Poincare series and Hurwitz
            Fourier coefficients at seeded points, warm caches.
- cli_cold: fresh `python -m octavia.cli` processes, one at a time,
            every cache cold.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Lines before it,
starting with `#`, give the run header and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median
from time import perf_counter

import common
from common import BENCH, OUT, Failure, p90, run_child

SETUP_SAMPLES = 3
END_TO_END = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
    "task_p90_ms": "ms", "peak_rss_mb": "MB",
}


def in_process(args):
    """exact and series: set-up samples, then one measured worker."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"

    def start(extra):
        ready = []

        def on_line(line, t):
            if line.startswith("READY ") and not ready:
                ready.append((t, json.loads(line[len("READY "):])))
        t0 = perf_counter()
        rc, out, err, _, rss = run_child(cmd + extra, on_line)
        if rc != 0 or not ready:
            raise Failure(f"worker exited with {rc}:\n{err[-4000:]}")
        sys.stderr.write(err)
        t, speed = ready[0]
        raw = t - t0 - speed["probing"]
        return (raw, raw / speed["slowdown"]), out, rss

    setups = []
    if not args.trace:
        for _ in range((1 if args.tiny else SETUP_SAMPLES) - 1):
            setups.append(start(["--setup-only"])[0])
    setup, out, rss = start(["--trace-out", str(trace_out)] if args.trace else [])
    setups.append(setup)
    res = json.loads(out.strip().splitlines()[-1])

    correct = res["wrong"] == 0
    notes = {"digest": res["digest"], "tasks": res["tasks"],
             "setup_samples_s": setups, "probing_s": res["probing"]}
    golden = load_golden()
    if args.workload == "exact" and not args.tiny and str(args.seed) in golden:
        notes["digest_golden"] = res["digest"] == golden[str(args.seed)]
        correct &= notes["digest_golden"]
    raw, lat = res["latencies"], res["scaled"]
    notes["raw"] = {"setup_s": median(r for r, _ in setups),
                    "tasks_per_s": res["tasks"] / res["wall"],
                    "task_p50_ms": 1e3 * median(raw), "task_p90_ms": 1e3 * p90(raw)}
    metrics = {
        "setup_s": median(scaled for _, scaled in setups),
        "tasks_per_s": len(lat) / sum(lat),
        "task_p50_ms": 1e3 * median(lat),
        "task_p90_ms": 1e3 * p90(lat),
        "peak_rss_mb": rss,
    }
    return (res["header"], correct, res["attempted"], res["failed"],
            res.get("per_layer") if args.trace else metrics, notes)


def load_golden():
    path = BENCH / "golden_exact.json"
    return json.loads(path.read_text())["digests"] if path.is_file() else {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact", "series", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest task sizes, for the self-test only")
    args = ap.parse_args(argv)
    if not common.package_present():
        sys.stderr.write(f"error: no octavia sources under {common.SRC}; "
                         "run from the root of a checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "cli_cold":
            import cli_cold
            result = cli_cold.run(args)
        else:
            result = in_process(args)
    except Failure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    head, correct, attempted, failed, metrics, notes = result

    if args.trace:
        from tracer import UNITS
        units = {k: u for k, (u, _) in UNITS.items()}
    else:
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 1
    print("# header " + json.dumps(head))
    print("# notes " + json.dumps(notes))
    print(f"# failed_frac = {failed / attempted!r} 1 ({failed} of {attempted})")
    print(f"# task latency samples = {notes['tasks']} (task_p50_ms, task_p90_ms)")
    for name in units:
        print(f"# {name} = {metrics[name]!r} {units[name]}")
    line = {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    text = json.dumps(line)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"header": head, "notes": notes, **line}, indent=1))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
