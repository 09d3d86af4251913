import numpy as np
import pytest

from stats import Tally, percentile, samples_beyond, tail_percentile


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_error_rate_counts_every_kind():
    tally = Tally()
    tally.record("decode", 1000, 3, "three wrong bits")
    assert tally.check("verdict", True)
    assert not tally.check("exit_code", False, "exit 1")
    tally.record("control", 1)
    assert tally.total_attempted == 1003
    assert tally.total_failed == 4
    assert tally.error_rate == pytest.approx(4 / 1003)
    assert tally.details == ["decode: three wrong bits", "exit_code: exit 1"]


def test_error_rate_of_nothing_is_zero_and_counts_are_ints():
    tally = Tally()
    assert tally.error_rate == 0.0
    tally.record("decode", np.int64(5), np.bool_(True))
    assert type(tally.total_failed) is int and tally.total_failed == 1


def test_failed_cannot_exceed_attempted():
    with pytest.raises(ValueError):
        Tally().record("decode", 1, 2)
