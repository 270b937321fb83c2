"""Run `cactus45` in a child process, with its time and peak RSS.

A child's peak RSS counts its parent's resident size at the exec, so
the CLI is started from a small launcher, which reads the CLI's peak
with getrusage(RUSAGE_CHILDREN) and writes it, in kilobytes, to stderr.
"""

import os
import subprocess
import sys
import time
from typing import NamedTuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:]).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


class CliRun(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: str
    seconds: float
    peak_mb: float


def run_cli(*args: str) -> CliRun:
    """`python -m cactus45 *args` from the launcher, on this checkout's
    package; its standard output is kept as bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "cactus45", *args],
        capture_output=True, env=env, timeout=120,
    )
    seconds = time.perf_counter() - start
    stderr = child.stderr.decode()
    peak_mb = int(stderr.split()[-1]) / 1024
    return CliRun(child.returncode, child.stdout, stderr, seconds, peak_mb)
