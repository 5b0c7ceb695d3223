"""Memory figures of code under test: minor page faults and peak-RSS growth
of a code snippet, taken in a fresh interpreter, and the traced peak of a
call in this one.

glibc malloc raises its mmap and trim thresholds as a process frees large
chunks (mallopt(3)), so a count taken inside the test session depends on
what earlier tests allocated: only a fresh process shows what a run from
the command line pays, and only a fresh process has a peak resident set
of its own.  The child inherits no malloc setting, so that a developer's
shell can neither hide nor fake a figure, and its BLAS thread count is
pinned, one thread unless a test asks for more, since each BLAS thread
faults in buffers of its own.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the variables through which glibc malloc's thresholds are set from outside
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
              "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="counts glibc malloc's page faults")
proc_status_only = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                      reason="reads the peak RSS from /proc/self/status")

# Python expressions the child evaluates before and after the measured code
_MINOR_FAULTS = "_resource.getrusage(_resource.RUSAGE_SELF).ru_minflt"
# VmHWM, not ru_maxrss: Linux carries a process's peak RSS over an exec into
# the ru_maxrss of the program it starts, so a child of the test session
# reports at least the session's own peak, and the growth of any smaller run
# reads 0.  VmHWM is the peak of the child's own memory.
_PEAK_RSS_KIB = ("int(next(line for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:')).split()[1])")


def fresh_interpreter(code: str, blas_threads: int = 1) -> str:
    """The last line `code` prints, run in a fresh interpreter with `src` on
    the path, no malloc setting and `blas_threads` BLAS threads."""
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def _growth(setup: str, code: str, probe: str) -> int:
    """Growth of `probe` over `code`, run once after `setup` in a fresh
    interpreter.

    All three are Python source, run in one namespace; `probe` is an
    expression taken before and after `code`.
    """
    return int(fresh_interpreter("\n".join([
        textwrap.dedent(setup),
        "import resource as _resource",
        f"_before = {probe}",
        textwrap.dedent(code),
        f"print({probe} - _before)",
    ])))


def minor_faults(setup: str, code: str) -> int:
    """`ru_minflt` taken by `code`, run once after `setup` in a fresh interpreter."""
    return _growth(setup, code, _MINOR_FAULTS)


def peak_rss_growth(setup: str, code: str) -> int:
    """KiB by which `code`, run once after `setup` in a fresh interpreter,
    raises the process's peak resident set."""
    return _growth(setup, code, _PEAK_RSS_KIB)


def traced_peak(f) -> int:
    """Bytes f() allocates at its peak beyond what was live when it started.

    Taken with tracemalloc in this process, to which numpy reports its
    array buffers: unlike the RSS, it counts what a call holds, whatever
    the heap's state.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
