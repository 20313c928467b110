"""The percentile rule and self-time arithmetic."""

import math

import pytest

from perfbench.stats import (
    MIN_BEYOND,
    percentile,
    rank,
    summarize,
    tail_percentile,
    tree_self_times,
)


@pytest.mark.parametrize(
    ("n", "expected"),
    [(1, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - rank(expected, n) >= MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0


def test_summary_reports_median_always_and_tail_only_when_allowed():
    few = summarize([1.0, 2.0, 3.0])
    assert few == {"n": 3, "p50": 2.0}
    many = summarize([float(i) for i in range(100)])
    assert many["tail_p"] == 90.0 and many["tail"] == 89.0 and many["n"] == 100


def test_failed_operation_misses_every_limit():
    values = [0.1] * 95 + [math.inf] * 5
    summary = summarize(values)
    assert summary["p50"] == 0.1
    assert summary["tail"] == 0.1  # p90 is below the five failures
    assert summarize([0.1] * 80 + [math.inf] * 20)["tail"] == math.inf


def test_self_time_nested_spans():
    nodes = [("a", None, 0.0, 10.0, 0), ("b", "a", 2.0, 5.0, 0), ("c", "b", 3.0, 4.0, 0)]
    assert tree_self_times(nodes) == [7.0, 2.0, 1.0]


def test_self_time_sibling_spans_overlap_counted_once():
    nodes = [
        ("p", None, 0.0, 10.0, 0),
        ("x", "p", 1.0, 3.0, 0),
        ("y", "p", 2.0, 6.0, 0),
        ("z", "p", 7.0, 8.0, 0),
        ("w", "p", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert tree_self_times(nodes)[0] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)


def test_self_time_ignores_descendants_on_other_threads():
    nodes = [
        ("http", None, 0.0, 4.0, "handler"),
        ("wait", "http", 1.0, 2.0, "worker"),
        ("exec", "wait", 2.0, 9.0, "worker"),
        ("stage", "exec", 3.0, 8.0, "worker"),
    ]
    http, wait, execute, stage = tree_self_times(nodes)
    assert http == 4.0 and wait == 1.0 and execute == 2.0 and stage == 5.0
