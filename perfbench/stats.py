"""Small statistics helpers shared by the benchmark's workloads.

Percentiles are nearest-rank.  A tail percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it; the median is always
reported.  A failed or refused operation enters a latency sample as
``math.inf``, so it misses every latency limit.
"""

from __future__ import annotations

import math
import re
import statistics

#: Tail percentiles considered, lowest first.
PERCENTILE_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10

#: The grammar every metric name obeys.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """True when ``name`` is a legal metric name."""
    return METRIC_NAME.fullmatch(name) is not None


def rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` in ``n`` samples."""
    if n <= 0:
        raise ValueError("rank of an empty sample")
    return max(1, math.ceil(round(p * n / 100.0, 9)))  # 99.9% of 10000 is 9990


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def median(values: list[float]) -> float:
    """Median of ``values`` (``math.inf`` entries sort last)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n > 0 and n - rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def summarize(values: list[float]) -> dict:
    """Median, the highest reportable tail percentile, and the sample count."""
    out: dict = {"n": len(values)}
    if not values:
        return out
    out["p50"] = median(values)
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def format_summary(summary: dict) -> str:
    """``p50=… p90=… (n=…)`` for a :func:`summarize` result."""
    if "p50" not in summary:
        return f"n={summary['n']}"
    text = f"p50={summary['p50']:.4f}"
    if "tail" in summary:
        text += f" p{summary['tail_p']:g}={summary['tail']:.4f}"
    return text + f" (n={summary['n']})"


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """``end - start`` minus the part of that interval the child intervals cover."""
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return max(end - start - covered, 0.0)


def tree_self_times(nodes: list[tuple]) -> list[float]:
    """Self time of every node of a span tree.

    ``nodes`` holds ``(id, parent_id, start, end, thread)`` tuples.  A
    span's self time is its duration minus the part of its interval that
    its descendants *on the same thread* cover.  On one thread this is the
    usual "minus its children"; across threads it keeps a parent that
    handed work to another thread (an HTTP handler admitting a job that a
    worker thread then runs) from being charged for that work.
    """
    children: dict = {}
    for node in nodes:
        children.setdefault(node[1], []).append(node)
    out = []
    for node_id, _, start, end, thread in nodes:
        covering = []
        stack = list(children.get(node_id, ()))
        while stack:
            child = stack.pop()
            if child[4] == thread:
                covering.append((child[2], child[3]))
            stack.extend(children.get(child[0], ()))
        out.append(self_time(start, end, covering))
    return out
