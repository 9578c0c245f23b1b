import subprocess
import sys

import pytest

from measure import Snapshot, high_percentile, median, quartiles, summarize, usage_between


def test_median_and_quartiles():
    values = [5, 1, 9, 3, 7, 2, 8, 4, 6]
    assert median(values) == 5
    assert quartiles(values) == (2.5, 5, 7.5)


def test_quartiles_of_one_value():
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize(
    "count, percentile",
    [(10, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_high_percentile_needs_ten_samples_beyond(count, percentile):
    tail = high_percentile([float(i) for i in range(count)])
    if percentile is None:
        assert tail is None
    else:
        assert tail[0] == percentile
        beyond = sum(1 for i in range(count) if i > tail[1])
        assert beyond >= 10


def test_high_percentile_value():
    p, value = high_percentile([float(i) for i in range(1, 101)])
    assert p == 90.0
    assert 90.0 <= value <= 91.0


def test_summarize_reports_the_tail_only_when_supported():
    assert set(summarize([1.0, 2.0, 3.0])) == {"count", "q1", "median", "q3"}
    assert "p90" in summarize([float(i) for i in range(150)])


def test_cpu_includes_child_processes():
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
    start = Snapshot.take()
    subprocess.run([sys.executable, "-c", burn], check=True)
    end = Snapshot.take()
    usage = usage_between(start, end)
    own = (end.own.ru_utime + end.own.ru_stime) - (start.own.ru_utime + start.own.ru_stime)
    assert own < 0.2
    assert usage.cpu_s >= 0.29
    assert usage.peak_rss_mb > 0
