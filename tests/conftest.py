"""Suite-wide hooks, standard library only.

A test's set-up and its call each run under a wall-clock bound of
TIME_BOUND seconds, far above the slowest test (about 9 s).  A phase
that runs past it fails or errors under the test's own name with a
TimeoutError naming the function it was in, and the run goes on: a
lattice walk that never ends is a failure, not a hung suite.

Failure reports are built with Python's limit on int-to-str digits
lifted, and the limit is restored at once, so a report prints in full
an integer of more than 4,300 digits that it formats itself, such as
an exception's message or a function's arguments.  Tests run under the
limit as it was, so a rewritten assert, which formats its operands as
it fails, shows such an integer as a failed repr.
"""

import signal
import sys

import pytest

TIME_BOUND = 300


class _Expired(Exception):
    pass


def _bounded(item):
    def expire(signum, frame):
        code = frame.f_code
        raise _Expired(f"{item.nodeid} ran past the {TIME_BOUND} s bound in {code.co_name} ({code.co_filename})")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        return (yield)
    except _Expired as exc:
        # Raised by a signal handler, the exception's traceback can hold an
        # entry with no line number, which pytest cannot print.
        raise TimeoutError(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _bounded(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _bounded(item))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return (yield)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return (yield)
    finally:
        sys.set_int_max_str_digits(limit)
