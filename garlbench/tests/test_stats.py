import pytest

from garlbench.stats import (MIN_TAIL, blocked_tail, median, percentile,
                             quiet_median)


def test_median_reports_its_sample_count():
    assert median([3.0, 1.0, 2.0]) == pytest.approx(median([1, 2, 3]))
    m = median([4.0, 1.0, 3.0, 2.0])
    assert (m.value, m.n) == (2.5, 4)
    assert median([]) is None


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(range(999), 99) is None  # 9.99 samples beyond
    p = percentile(range(1000), 99)
    assert p is not None and p.n == 1000 and p.value == 989.0


def test_p90_refused_on_a_train_sized_sample():
    assert percentile(range(20), 90) is None
    assert percentile(range(100), 90).value == 89.0


def test_median_percentile_needs_one_sample():
    p = percentile([7.0], 50)
    assert (p.value, p.n) == (7.0, 1)


@pytest.mark.parametrize("q", [0, 100, -1, 101])
def test_out_of_range_q_raises(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_min_tail_is_ten():
    assert MIN_TAIL == 10


def test_blocked_tail_ignores_a_burst_in_one_block():
    calm = [1.0] * 980 + [2.0] * 20
    burst = [1.0] * 900 + [50.0] * 100
    values = calm + burst + calm
    assert percentile(values, 99).value == 50.0
    tail = blocked_tail(values, 99)
    assert (tail.value, tail.n) == (2.0, 3000)


def test_blocked_tail_uses_only_supported_blocks():
    assert blocked_tail(range(999), 99) is None
    assert blocked_tail(range(1999), 99).value == percentile(range(1999), 99).value
    two = blocked_tail(range(2000), 99)
    assert two.value == pytest.approx((989.0 + 1989.0) / 2)


def test_blocked_tail_caps_the_block_count():
    values = list(range(7000))
    tail = blocked_tail(values, 99)  # five blocks of 1400, not seven
    assert tail.n == 7000
    assert tail.value == percentile(values[2800:4200], 99).value
    assert blocked_tail(values, 99, max_blocks=1).value == percentile(values, 99).value


def test_quiet_median_keeps_values_between_quiet_probes():
    quiet, busy = 1.0, 1.6
    samples = ([(quiet, 2.0, quiet)] * 3 + [(busy, 3.2, busy)] * 5
               + [(quiet, 3.0, busy), (quiet, 5.0, quiet)])
    p = quiet_median(samples, tol=1.2, min_kept=1)
    assert (p.value, p.n) == (2.0, 4)  # the slow value between quiet probes stays
    assert median(v for _, v, _ in samples).value == 3.2  # the busy level


def test_quiet_median_falls_back_to_the_quietest_values():
    samples = [(1.0 + i, float(i), 1.0 + i) for i in range(10)]
    p = quiet_median(samples, tol=1.1, min_kept=3)
    assert (p.value, p.n) == (1.0, 3)
    assert quiet_median([]) is None
