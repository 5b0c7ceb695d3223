"""Minor page faults of a code snippet, counted in a fresh interpreter.

glibc malloc raises its mmap and trim thresholds as a process frees large
chunks (mallopt(3)), so a count taken inside the test session depends on
what earlier tests allocated: only a fresh process shows what a run from
the command line pays.  The child inherits no malloc setting, so that a
developer's shell can neither hide nor fake a count, and its BLAS thread
count is pinned, since each BLAS thread faults in buffers of its own.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the variables through which glibc malloc's thresholds are set from outside
MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
              "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="counts glibc malloc's page faults")


def minor_faults(setup: str, code: str) -> int:
    """`ru_minflt` taken by `code`, run once after `setup` in a fresh interpreter.

    Both are Python source, run in one namespace with `src` on the path;
    only `code` is counted.
    """
    script = "\n".join([
        textwrap.dedent(setup),
        "import resource as _resource",
        "_before = _resource.getrusage(_resource.RUSAGE_SELF).ru_minflt",
        textwrap.dedent(code),
        "print(_resource.getrusage(_resource.RUSAGE_SELF).ru_minflt - _before)",
    ])
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.strip().splitlines()[-1])
