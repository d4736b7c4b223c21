"""Isolation for the runtime tests.

A failure path drops its pool without waiting (a hung worker must not
hang the caller), so the pool's manager thread and workers keep running
into the next test, and that test's pool would fork its workers from a
process with other threads still alive.  Each test here waits for the
threads it started before the next one begins.
"""

import threading

import pytest

#: how long a test's leftover threads may take to finish
DRAIN_S = 60.0


@pytest.fixture(autouse=True)
def drained_threads():
    before = set(threading.enumerate())
    yield
    for thread in set(threading.enumerate()) - before:
        if not thread.daemon:
            thread.join(DRAIN_S)
