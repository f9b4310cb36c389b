"""One cold `octavia` CLI call, as `python -m octavia.cli` makes it.

Usage: python3 perfbench/cli_child.py [--trace OUT] SUBCOMMAND [ARGS...]

It imports `octavia.cli` and calls its `main`, which is all that the
module's `__main__` block does.  A numpy Speedometer (probe.py) samples
during the call, once the call has imported numpy, and a few times after
it.  The last line of standard error is `#probe [slowdown, seconds spent
probing]`, from which cli_cold.py reports the call at reference speed.
Apart from the probe it imports nothing before the call, so the call
stays as cold as a user's.  With --trace it wraps the package with the
tracer after the import, runs the call inside a `cli.<subcommand>` span
and writes the spans, the cache counts and the import time to OUT.
Exits with the CLI's code.
"""

import sys
from time import perf_counter

from probe import Speedometer

AFTER_SAMPLES = 5


def main():
    argv = sys.argv[1:]
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    speed = Speedometer("numpy")
    speed.start()
    sys.argv = ["octavia"] + argv
    tracer = None
    try:
        t0 = perf_counter()
        import octavia.cli
        import_s = perf_counter() - t0
        if trace_out:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            tracer.task = 0
            with tracer.span(f"cli.{argv[0]}"):
                rc = octavia.cli.main(argv)
        else:
            rc = octavia.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # as `python -m` would: traceback, exit code 1
        import traceback
        traceback.print_exc()
        rc = 1
    speed.stop()
    sys.stdout.flush()
    for _ in range(AFTER_SAMPLES):  # short calls end after few ticks
        speed.sample()
    if tracer is not None:
        tracer.dump(trace_out, {"import_s": import_s, "command": argv[0], "rc": rc})
    slowdown = speed.slowdown(0.0, perf_counter())
    sys.stderr.write(f"\n#probe [{slowdown!r}, {speed.probing!r}]\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
