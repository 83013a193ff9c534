"""Suite hygiene: no test may leave a thread running."""

import threading
import time

import pytest

#: How long a test's threads get to finish after it ends.
THREAD_EXIT_GRACE_SECONDS = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Every thread a test started must be gone shortly after it ends.

    Pins that ``HttpServer.stop()`` joins its workers and its overflow
    thread, and that the suite's raw fake servers shut down their own
    accept and connection threads.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_EXIT_GRACE_SECONDS
    while True:
        leaked = [thread for thread in threading.enumerate() if thread not in before]
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    assert not leaked, "threads outlived the test: " + ", ".join(
        sorted(thread.name for thread in leaked)
    )
