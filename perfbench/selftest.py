"""Smoke test of the benchmark at the smallest task sizes (about a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

It checks that
- every workload prints, as its last line, the contract's JSON object
  with every metric named in BENCHMARK.json and that metric's unit, for
  both trace settings, after a header line;
- a wrong value handed to a checker counts as a failed task, in an
  in-process workload and in `cli_cold`;
- a CLI child that is killed counts as a failed call, and the run still
  prints its result;
- the benchmark fails, printing no result, where there are no sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import common
from common import BENCH, OUT, ROOT


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics_printed(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            expect(p.returncode == 0, f"{what} exits 0")
            res = last_json(p.stdout)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} prints the result keys")
            expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
                   and isinstance(res["failed"], int), f"{what} counts tasks")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{what} prints every {section} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()), f"{what} values are numbers")
            head = next(line for line in p.stdout.splitlines() if line.startswith("# header "))
            head = json.loads(head[len("# header "):])
            expect({"git_sha", "nproc", "seed", "python", "numpy", "scipy",
                    "blas_threads"} <= set(head), f"{what} prints the run header")


def check_wrong_value_in_process():
    """Corrupt one output of the series workload before its check."""
    common.use_checkout_sources()
    import tasks
    import worker

    real = tasks.Series.eis_task

    def corrupted(self, z):
        e, ei = real(self, z)
        return e, ei * (1 + 1e-6)
    tasks.Series.eis_task = corrupted
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            worker.main(["--workload", "series", "--seed", "3", "--seconds", "0", "--tiny"])
    finally:
        tasks.Series.eis_task = real
    res = last_json(buf.getvalue())
    # one Eisenstein task per tiny block, plus its warm-up
    n = tasks.Series.min_blocks + 1
    expect(res["failed"] == n and res["wrong"] == n,
           "a wrong series value counts as a failed task")

    wl = tasks.Exact(tiny=True)
    from octavia import rings
    from octavia.algebra import one
    kind = wl.kinds[0]
    inputs = (rings.HURWITZ, rings.units(rings.HURWITZ)[0] * 3, one(4) * 2)
    out = kind.run(inputs)
    expect(kind.check(inputs, out), "an exact pair task passes its check")
    tr = out["trace"]
    out["trace"] = rings.EuclTrace(tr.side, tr.ring, tr.inputs,
                                   (tr.quotients[0] + one(4),) + tr.quotients[1:],
                                   tr.remainders)
    _, ok, raised = worker.run_task(
        tasks.Kind(kind.name, 1, lambda _: out, kind.check), inputs)
    expect(not ok and not raised, "a wrong Euclid trace fails its check")


def check_wrong_value_cli():
    """Corrupt the printed Fourier coefficient of a tiny cli_cold round."""
    import cli_cold
    import run

    real = cli_cold.check

    def corrupted(cmd, argv, data):
        if cmd == "fourier":
            data["coefficient"]["im"] = 1.0
        return real(cmd, argv, data)
    cli_cold.check = corrupted
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", "cli_cold", "--seed", "3", "--seconds", "0",
                           "--trace", "0", "--tiny"])
    finally:
        cli_cold.check = real
    res = last_json(buf.getvalue())
    expect(rc == 0 and res["failed"] == 1 and res["correct"] is False,
           "a wrong CLI value counts as a failed call")


def check_killed_cli_child():
    """Kill the Fourier child of a tiny traced cli_cold round at once."""
    import cli_cold
    import run

    real = cli_cold.run_child

    def killing(argv, on_line=None):
        return real(argv, on_line, timeout=0.01 if "fourier" in argv else 170)
    cli_cold.run_child = killing
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", "cli_cold", "--seed", "3", "--seconds", "0",
                           "--trace", "1", "--tiny"])
    finally:
        cli_cold.run_child = real
    res = last_json(buf.getvalue())
    expect(rc == 0 and res is not None and res["failed"] == 1,
           "a killed CLI child counts as a failed call")


def check_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "exact",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without sources the benchmark fails and prints no result")


def main():
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_wrong_value_in_process()
    check_wrong_value_cli()
    check_killed_cli_child()
    check_metrics_printed(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
