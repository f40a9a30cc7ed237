"""Session-wide guards: tier-1 must run in under 1 GB of resident memory and
leave no thread but the main thread alive.  It runs BLAS and OpenMP on one
thread unless the environment says otherwise."""

import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest

# read once, when numpy loads its BLAS, so set before any test module imports numpy;
# the sweep's worker processes inherit them
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

PEAK_RSS_LIMIT_BYTES = 1 << 30


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def pytest_sessionfinish(session, exitstatus):
    writer = session.config.get_terminal_writer()
    peak = _peak_rss_bytes()
    line = f"peak RSS of the pytest process: {peak / 2**20:.0f} MB"
    if peak > PEAK_RSS_LIMIT_BYTES:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        line += f", above the {PEAK_RSS_LIMIT_BYTES / 2**20:.0f} MB limit: FAIL"
    writer.line(line)
    stray = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if stray:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        writer.line(f"threads still alive at the end of the session: {', '.join(stray)}: FAIL")


# appended to each script: the BLAS thread count the process ran, 0 where numpy's
# BLAS is not its bundled OpenBLAS
_REPORT_BLAS_THREADS = """
from etslam.harness import _openblas
getter = _openblas("get")
print(getter() if getter is not None else 0)
"""


@pytest.fixture
def stdout_under_blas_threads():
    """Runs a Python script in two fresh processes whose OpenBLAS runs 1 and 2 threads
    (set explicitly: the default above applies only where the environment sets none)
    and returns ``{threads: stdout}``, each checked to have run no more threads."""
    import etslam  # after the defaults above are set

    src = str(Path(etslam.__file__).resolve().parents[1])

    def run(script: str) -> dict:
        out = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script + _REPORT_BLAS_THREADS], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            *lines, reported = proc.stdout.splitlines()
            assert int(reported) <= threads  # OpenBLAS runs no more threads than cores
            out[threads] = "\n".join(lines)
        return out

    return run
