import pytest

from perfbench.openloop import OpenLoop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_a_stall_raises_the_latency_of_updates_queued_behind_it():
    clock = FakeClock()
    sched = OpenLoop(100.0, clock)  # one update due every 10 ms
    sched.start()

    def apply(index):
        clock.now += 0.050 if index == 0 else 0.001

    # Only update 0 was due, but 1..5 came due during its 50 ms stall;
    # each is timed from its own due time, not from when the client got
    # round to it.
    assert sched.run_due(apply) == 6
    assert sched.latencies[0] == pytest.approx(0.050)
    assert sched.latencies[1] == pytest.approx(0.051 - 0.010)
    assert sched.latencies[5] == pytest.approx(0.055 - 0.050)
    assert sched.lateness[1] == pytest.approx(0.040)
    assert sched.backlog_max == 5
    assert sched.service == pytest.approx(0.055)


def test_paused_time_is_off_the_schedule():
    clock = FakeClock()
    sched = OpenLoop(100.0, clock)
    sched.start()
    sched.run_due(lambda index: None)
    with sched.paused():
        clock.now += 1.0                      # bookkeeping: 100 periods
    assert sched.due_count() == 0
    clock.now += 0.010
    assert sched.due_count() == 1


def test_zero_rate_is_a_clock_only():
    clock = FakeClock()
    sched = OpenLoop(0.0, clock)
    sched.start()
    clock.now += 5.0
    assert sched.due_count() == 0
    assert sched.now() == 5.0


def test_back_to_back_latency_is_each_calls_own_time():
    clock = FakeClock()
    sched = OpenLoop(0.0, clock)
    sched.start()

    def apply(index):
        clock.now += 0.003 if index % 2 else 0.001

    def between():
        with sched.paused():
            clock.now += 0.5                  # bookkeeping is off the clock
        return sched.issued < 4

    sched.run_back_to_back(apply, between)
    assert sched.latencies == pytest.approx([0.001, 0.003, 0.001, 0.003])
    assert sched.service == pytest.approx(0.008)
    assert sched.now() == pytest.approx(0.008)
