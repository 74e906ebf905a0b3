"""A per-test time limit, so that a loop that never ends fails its test.

Every test runs under ``time_limit(TIME_LIMIT_S)``.  The slowest test takes
a few seconds, so the limit only trips on a hang, such as a max-flow that
stops making progress.  The limit raises ``TimeLimitExceeded``, a
``BaseException``: the ``except Exception`` and ``except OSError`` clauses of
the code under test (``cli.main`` turns an ``OSError`` into exit 2) cannot
swallow it.  Nor does Hypothesis, which catches ``Exception`` and
``pytest.fail``'s exception to replay and shrink the failing example, and
would run those replays with no limit armed; pytest reports it as a failure.
"""

import signal
import threading
import time
from contextlib import contextmanager

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """The body of a ``time_limit`` ran past its limit."""


@contextmanager
def time_limit(seconds):
    """Fail the running test once the body has run ``seconds`` of wall time.

    Arms ``ITIMER_REAL`` and restores the previous SIGALRM handler and timer
    (less the time spent) on exit, so limits nest.  Does nothing where
    ``signal.setitimer`` is missing or off the main thread, where a signal
    handler cannot be set.
    """
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"time limit of {seconds} s exceeded")

    start = time.monotonic()
    handler = signal.signal(signal.SIGALRM, expire)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if delay:
            left = max(delay - (time.monotonic() - start), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, interval)


@pytest.fixture(autouse=True)
def _per_test_time_limit():
    with time_limit(TIME_LIMIT_S):
        yield
