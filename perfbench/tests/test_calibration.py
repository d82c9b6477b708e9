import pytest

from perfbench.calibration import NEIGHBOURS, Calibration


def test_timings_are_scaled_by_the_kernel_time_around_them():
    calib = Calibration()
    # A host that is twice as slow for the second half of the run.
    calib.times = [float(second) for second in range(40)]
    calib.durations = [0.001] * 20 + [0.002] * 20
    assert calib.calibrated([2.0, 35.0], [0.005, 0.010]) == pytest.approx(
        [5.0, 5.0])


def test_one_outlying_sample_does_not_move_the_scale():
    calib = Calibration()
    calib.times = [float(second) for second in range(NEIGHBOURS)]
    calib.durations = [0.001] * NEIGHBOURS
    calib.durations[4] = 0.1
    assert calib.scale_at([4.0]) == [0.001]


def test_a_sample_times_the_kernel():
    calib = Calibration()
    calib.sample()
    calib.maybe_sample()          # too soon after the first: skipped
    assert len(calib.durations) == 1 and calib.durations[0] > 0
