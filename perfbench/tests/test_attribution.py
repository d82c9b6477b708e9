"""A slowdown injected into one layer is attributed to that layer."""

import dataclasses
import time

import pytest

from perfbench import workloads
from repro.core import BatchLookup

DELAY = 0.002


def traced_read_burst(tmp_path, label):
    workdir = tmp_path / label
    workdir.mkdir()
    raw = workloads.execute("read-burst", seed=5, seconds=1.5, trace=True,
                            workdir=str(workdir))
    assert raw["failed"] == 0, raw["failures"]
    return raw["layers"]


@pytest.fixture
def small_run(monkeypatch):
    shape = workloads.SHAPES["read-burst"]
    monkeypatch.setitem(workloads.SHAPES, "read-burst", dataclasses.replace(
        shape, after_updates=100))
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "TABLE_SIZE", 2000)


def test_injected_core_delay_is_attributed_to_core(tmp_path, monkeypatch,
                                                   small_run):
    baseline = traced_read_burst(tmp_path, "baseline")
    original = BatchLookup.lookup_batch

    def delayed(self, keys):
        time.sleep(DELAY)
        return original(self, keys)

    monkeypatch.setattr(BatchLookup, "lookup_batch", delayed)
    slowed = traced_read_burst(tmp_path, "slowed")

    core_gain = (slowed["core.batch_us_per_call"]
                 - baseline["core.batch_us_per_call"])
    serve_gain = (slowed["serve.lookup_self_us_per_call"]
                  - baseline["serve.lookup_self_us_per_call"])
    assert core_gain >= 0.8 * DELAY * 1e6
    assert abs(serve_gain) < 0.2 * DELAY * 1e6
    assert slowed["core.batch_calls"] > 0
    assert slowed["core.scalar_lookups"] == 0
