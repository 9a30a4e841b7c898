"""A time limit for every test, from the standard library alone.

A fault that makes the hull engine's integers grow without bound (a wrong
plane feeds the next one) does not end in any time a test run can wait
for; with the limit it ends as one failed test, and the run goes on.
"""

import signal

import pytest


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeoutError in a test that runs for over 120 s; the slowest
    test takes a few seconds.  Where SIGALRM does not exist, as on Windows,
    there is no limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = 120

    def expire(signum, frame):
        raise TimeoutError(f"test ran over its time limit of {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
