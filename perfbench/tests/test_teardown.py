"""No process a run starts outlives it."""

import multiprocessing
import os
import time
from multiprocessing import resource_tracker, shared_memory

from perfbench.run import stop_children


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_stop_children_ends_children_and_the_resource_tracker():
    # A shared segment starts the tracker, as the shard plane's do.
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None and alive(tracker)
    child = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,), daemon=True)
    child.start()

    stop_children()

    assert not child.is_alive()
    assert not alive(tracker)
