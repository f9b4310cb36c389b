"""Helpers shared by the benchmark's parent and child processes."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # traces and reports; ignored by git


class Failure(RuntimeError):
    """The benchmark cannot produce a result."""


def package_present() -> bool:
    return (SRC / "octavia" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment that imports `octavia` from this checkout's sources.
    Everything else, the BLAS thread settings too, is left as the caller
    has it, so the program is measured as its users run it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def use_checkout_sources() -> None:
    sys.path.insert(0, str(SRC))


def p90(xs):
    """Nearest-rank 90th percentile; it has ten samples beyond it once
    there are at least 100."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def blas_threads():
    """Thread count the BLAS bundled with numpy is using right now, read
    from the library itself (environment variables set after numpy was
    imported have no effect on it).  None when it cannot be read."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """Commit of the checkout, read from .git without running git; the
    benchmark also runs from exported trees, which have none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def header(seed, blas=None):
    """Run header.  blas is the BLAS thread count of the measured process
    when the caller is that process; otherwise it is read in a child
    started as a CLI call is, after `import octavia.cli`."""
    import numpy
    import scipy
    if blas is None:
        read_blas = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import octavia.cli; "
                     "import common; print(common.blas_threads())")
        rc, out, _, _, _ = run_child([sys.executable, "-c", read_blas])
        blas = int(out) if rc == 0 and out.strip() != "None" else None
    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": "unknown" if blas is None else blas,
        "OCTAVIA_THREADS": os.environ.get("OCTAVIA_THREADS"),
    }


def run_child(argv, on_line=None, timeout=170):
    """Run one child process to the end.

    Returns (returncode, stdout, stderr, wall seconds, peak RSS in MB from
    the child's own rusage).  on_line, if given, sees each stdout line as
    it arrives, with the time it arrived.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    out, err = [], []

    def drain_err():
        err.append(proc.stderr.read())

    reader = threading.Thread(target=drain_err)
    reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if on_line is not None:
                on_line(line, time.perf_counter())
            out.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        reader.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, "".join(out), "".join(err), wall, usage.ru_maxrss / 1024.0
