"""Session-wide guard: tier-1 must run in under 1 GB of resident memory."""

import resource
import sys

import pytest

PEAK_RSS_LIMIT_BYTES = 1 << 30


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def pytest_sessionfinish(session, exitstatus):
    peak = _peak_rss_bytes()
    line = f"peak RSS of the pytest process: {peak / 2**20:.0f} MB"
    if peak > PEAK_RSS_LIMIT_BYTES:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        line += f", above the {PEAK_RSS_LIMIT_BYTES / 2**20:.0f} MB limit: FAIL"
    session.config.get_terminal_writer().line(line)
