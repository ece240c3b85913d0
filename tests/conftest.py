"""Every test runs under a time limit, so a walk that never ends fails its
test instead of hanging the suite.  The slowest test takes a few seconds."""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised by the alarm.  It derives from BaseException, not Exception,
    so neither hypothesis nor an `except Exception` in the code under test
    catches it, and hypothesis does not re-run the example to shrink it."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"the test ran longer than {TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
