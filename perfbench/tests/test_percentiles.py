import pytest

from perfbench.percentiles import TooFewSamples, blocked_percentile, percentile


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989


def test_median_needs_twenty_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def test_percentile_is_nearest_rank_of_unsorted_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(samples, 90) == 5.0
    assert percentile(samples, 50) == 3.0


def test_rejects_percentiles_outside_the_open_interval():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 100)


def test_blocked_percentile_keeps_a_stall_inside_its_block():
    samples = [1.0] * 5000
    samples[1000:1100] = [50.0] * 100     # one stall, in the second block
    assert percentile(samples, 99) == 50.0
    assert blocked_percentile(samples, 99, 1000) == 1.0


def test_blocked_percentile_needs_every_block_sampled():
    with pytest.raises(TooFewSamples):
        blocked_percentile(list(range(999)), 99, 1000)
    assert blocked_percentile(list(range(1999)), 99, 1000) == 1979
