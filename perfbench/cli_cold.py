"""The `cli_cold` workload: fresh CLI processes, one at a time.

Every call pays interpreter start, `import octavia` and every cache
miss, as a user of the command line does.  A round is six calls; a run
measures whole rounds until its time is up, at least one.  Outputs are
checked after the round, so the checks' own imports cost the calls
nothing.

`verify --suite all` exits 1 at the commit that defined the benchmark
(two of its checks use bounds tighter than the test suite's); that call
counts as failed, and stays in the round so that the fix shows.
"""

from __future__ import annotations

import json
import math
import random
import sys
from statistics import median
from time import perf_counter

import common
from common import BENCH, OUT, Failure, p90, run_child

W_E8_ORDER = 240 * 120 * 12096
SETUP_SAMPLES = 3


def calls(seed, tiny):
    """The round's calls as (subcommand, argv), inputs drawn from seed."""
    from octavia import algebra, rings
    rng = random.Random(f"cli:{seed}")
    a = rings.random_element(rings.OCTAVIAN, rng)
    c = rings.random_element(rings.OCTAVIAN, rng)
    while c.is_zero():
        c = rings.random_element(rings.OCTAVIAN, rng)
    z = ",".join(f"{rng.uniform(-0.5, 0.5)!r}" for _ in range(4))
    z += f";{rng.uniform(0.8, 1.5)!r}"
    if tiny:
        return [
            ("verify", ["verify", "--suite", "algebra"]),
            ("group", ["group", "--which", "d4"]),
            ("euclid", ["euclid", "--ring", "octavian", "--a", algebra.to_text(a),
                        "--c", algebra.to_text(c)]),
            ("coset", ["coset", "--ring", "z", "--bound", "1", "--words"]),
            ("eisenstein", ["eisenstein", "--ring", "hurwitz", "--radius", "2", f"--z={z}"]),
            ("fourier", ["fourier", "--ring", "hurwitz", "--mu", "1,1,0,0",
                         "--radius", "1", "--grid", "2"]),
        ]
    return [
        ("verify", ["verify", "--suite", "all"]),
        ("group", ["group", "--which", "e8"]),
        ("euclid", ["euclid", "--ring", "octavian", "--a", algebra.to_text(a),
                    "--c", algebra.to_text(c)]),
        ("coset", ["coset", "--ring", "hurwitz", "--bound", "2", "--words"]),
        ("eisenstein", ["eisenstein", "--ring", "hurwitz", "--radius", "16", f"--z={z}"]),
        ("fourier", ["fourier", "--ring", "hurwitz", "--mu", "1,1,0,0",
                     "--radius", "4", "--grid", "4"]),
    ]


# -- output checks -----------------------------------------------------------


def _rel(x):
    return 1e-12 * max(1.0, abs(x))


def _elem(d):
    from octavia.algebra import AlgElem
    return AlgElem.from_coords2(d["dim"], d["coords2"])


def _word(ring, toks):
    from octavia import hyperweyl as hw
    out = []
    for t in toks:
        if t == "inv":
            out.append(hw.Inv())
        elif "trans" in t:
            out.append(hw.Trans(_elem(t["trans"])))
        else:
            out.append(hw.Rot(_elem(t["rot"])))
    return hw.GroupWord(ring, tuple(out))


def check(cmd, argv, data):
    """True when the JSON a call printed is right."""
    from octavia import algebra, hyperweyl, rings
    if cmd == "verify":
        return data["passed"] is True and all(c["passed"] for c in data["checks"])
    if cmd == "group":
        expect = {"e8": W_E8_ORDER, "d4": 96}[argv[argv.index("--which") + 1]]
        return data["order"] == expect
    if cmd == "euclid":
        ring = rings.ring_by_name(data["ring"])
        tr = rings.EuclTrace(data["side"], ring,
                             tuple(_elem(x) for x in data["inputs"]),
                             tuple(_elem(q) for q in data["quotients"]),
                             tuple(_elem(r) for r in data["remainders"]))
        sent = (algebra.from_text(argv[argv.index("--a") + 1]),
                algebra.from_text(argv[argv.index("--c") + 1]))
        return (tr.inputs == sent and tr.replay_ok()
                and data["coprime"] == (algebra.norm_sq(tr.last_divisor) == 1))
    if cmd == "coset":
        ring = rings.ring_by_name(data["ring"])
        reps = data["representatives"]
        base = (algebra.zero(ring.dim), algebra.one(ring.dim))
        for rep in reps:
            c, d = _elem(rep["c"]), _elem(rep["d"])
            row = hyperweyl.row_act(base, _word(ring, rep["word"]))
            if row != (c, d) and row != (-c, -d):
                return False
        return data["count"] == len(reps) > 0
    if cmd == "eisenstein":
        e = complex(data["value"]["re"], data["value"]["im"])
        return all(data[k] <= _rel(e) for k in ("residual_inv", "residual_rot",
                                                "residual_conj"))
    if cmd == "fourier":
        c = complex(data["coefficient"]["re"], data["coefficient"]["im"])
        return abs(c.imag) <= _rel(c) and math.isfinite(data["error_estimate"])
    raise ValueError(f"no check for {cmd}")


# -- the run -------------------------------------------------------------------


def scaled_time(wall, err):
    """The call's wall time less its probing, at reference speed; None
    when the child ended without its `#probe` line (it was killed)."""
    last = err.rstrip().rsplit("\n", 1)[-1]
    if not last.startswith("#probe "):
        return None
    slowdown, probing = json.loads(last[len("#probe "):])
    return (wall - probing) / slowdown


def run(args):
    common.use_checkout_sources()
    round_calls = calls(args.seed, args.tiny)
    child = [sys.executable, str(BENCH / "cli_child.py")]

    setups = []  # (raw, scaled) seconds of a bare `octavia units --ring Z`
    if not args.trace:
        for _ in range(1 if args.tiny else SETUP_SAMPLES):
            rc, _, err, wall, _ = run_child(child + ["units", "--ring", "Z"])
            scaled = scaled_time(wall, err)
            if rc != 0 or scaled is None:
                raise Failure(f"octavia units exited with {rc}:\n{err[-4000:]}")
            setups.append((wall, scaled))

    done = []
    t_start = perf_counter()
    while not done or perf_counter() - t_start < args.seconds:
        for cmd, argv in round_calls:
            trace_out = OUT / f"cli-{args.seed}-{len(done)}.json"
            full = list(child)
            if args.trace:
                full += ["--trace", str(trace_out)]
            trace_out.unlink(missing_ok=True)
            rc, out, err, wall, rss = run_child(full + argv)
            scaled = scaled_time(wall, err)
            done.append({"command": cmd, "argv": argv, "rc": rc, "out": out,
                         "err": err, "wall": wall, "peak_rss_mb": rss,
                         "probed": scaled is not None,
                         # a killed call is timed as it ran, unscaled
                         "scaled": wall if scaled is None else scaled,
                         "trace": trace_out if args.trace else None})
    total = perf_counter() - t_start

    failed = wrong = 0
    for call in done:
        ok = False
        try:
            data = json.loads(call["out"])
            if call["command"] == "verify":
                call["checks_failed"] = sum(not c["passed"] for c in data["checks"])
            ok = (call["rc"] == 0 and call["probed"]
                  and check(call["command"], call["argv"], data))
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            sys.stderr.write(f"{call['command']}: bad output: {exc!r}\n")
        if not ok:
            failed += 1
            # a nonzero exit is a failed operation; a wrong answer is
            # printed with exit code 0
            wrong += call["rc"] == 0
            sys.stderr.write(f"{call['command']} failed (exit {call['rc']}):\n"
                             f"{call['err'][-2000:]}\n")

    times = [c["scaled"] for c in done]
    notes = {"tasks": len(done),
             "calls": [[c["command"], c["rc"], c["wall"], c["scaled"]] for c in done],
             "setup_samples_s": setups,
             "raw": {"setup_s": median(r for r, _ in setups) if setups else None,
                     "tasks_per_s": len(done) / total}}
    head = common.header(args.seed)
    if args.trace:
        metrics = traced_metrics(done, args.seed)
        metrics["trace.tasks_per_s"] = len(done) / sum(times)
    else:
        metrics = {
            "setup_s": median(scaled for _, scaled in setups),
            "tasks_per_s": len(done) / sum(times),
            "task_p50_ms": 1e3 * median(times),
            # nearest rank: with six calls a round this is the slowest call
            "task_p90_ms": 1e3 * p90(times),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in done),
        }
    return head, wrong == 0, len(done), failed, metrics, notes


def traced_metrics(done, seed):
    from tracer import cli_metrics, layer_metrics
    spans, caches, per_call = [], {}, []
    for task, call in enumerate(done):
        try:
            data = json.loads(call["trace"].read_text())
        except (OSError, ValueError):  # the call died before writing it
            continue
        base = len(spans)
        for name, t0, t1, parent, _, ctr in data["spans"]:
            spans.append([name, t0, t1, parent + base if parent >= 0 else -1, task, ctr])
        for k, (h, m) in data["caches"].items():
            acc = caches.setdefault(k, [0, 0])
            acc[0] += h
            acc[1] += m
        main_s = next((t1 - t0 for name, t0, t1, *_ in data["spans"]
                       if name == f"cli.{call['command']}"), 0.0)
        per_call.append({"command": call["command"], "import_s": data["import_s"],
                         "main_s": main_s, "peak_rss_mb": call["peak_rss_mb"],
                         "checks_failed": call.get("checks_failed", 0)})
    metrics = layer_metrics(spans, len(done), lambda t: True, lambda t: True, caches)
    metrics.update(cli_metrics(per_call))
    with open(OUT / f"trace-cli_cold-seed{seed}.json", "w") as fh:
        json.dump({"spans": spans, "caches": caches, "calls": per_call}, fh)
    return metrics
