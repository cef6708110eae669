"""Pure helpers: percentiles, open-loop schedules, span self time, ingest lag.

Nothing here touches the network or the repository's code, so the rules
the benchmark reports by can be unit-tested on their own
(``python -m pytest perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail_percentile(n: int, want: float = 99.0) -> float | None:
    """Highest percentile ``<= want`` with at least 10 samples beyond it.

    Percentiles use the nearest-rank rule: percentile ``q`` of ``n``
    sorted samples is the one at rank ``ceil(q * n / 100)``, leaving
    ``n - ceil(q * n / 100)`` samples beyond it.  ``None`` when ``n`` is
    too small for any percentile to have 10 samples beyond.
    """
    if n <= TAIL_BEYOND:
        return None
    supported = 100.0 * (n - TAIL_BEYOND) / n
    return min(want, supported)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize(values: Iterable[float], want: float = 99.0) -> dict:
    """Median, mean and the supported tail of ``values``, with the count.

    ``tail_q`` is the percentile actually reported; it is below ``want``
    when the sample is too small for ``want`` to have 10 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "mean": None, "tail_q": None, "tail": None}
    q = tail_percentile(n, want)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "mean": statistics.fmean(ordered),
        "tail_q": q,
        "tail": percentile(ordered, q) if q is not None else None,
    }


# ----------------------------------------------------------------------
# open-loop schedule
# ----------------------------------------------------------------------
def open_loop_schedule(rate: float, duration: float, start: float = 0.0) -> list[float]:
    """Due times of an evenly spaced open-loop phase.

    ``rate * duration`` requests (rounded down), the first due at
    ``start`` and each next one ``1 / rate`` seconds later, whatever the
    server does.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    count = int(rate * duration + 1e-9)
    return [start + i / rate for i in range(count)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late each request left the generator relative to its due time.

    Early sends (which the generator never makes) clamp to 0.
    """
    if len(due) != len(sent):
        raise ValueError("due and sent differ in length")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def latencies_from_due(due: Sequence[float], done: Sequence[float]) -> list[float]:
    """Open-loop latency: completion minus the time the request was due.

    Timing from the due time, not the send time, charges a stall to
    every request it delays, not just to the one that was in flight.
    """
    if len(due) != len(done):
        raise ValueError("due and done differ in length")
    return [d1 - d0 for d0, d1 in zip(due, done)]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover.

    Each span is a dict with ``id``, ``start``, ``end`` and ``parent``
    (``None`` for a root).  Children are clipped to their parent's
    interval, and overlapping children count once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"])
        - _union_length(children.get(span["id"], []))
        for span in spans
    }


# ----------------------------------------------------------------------
# ingest lag
# ----------------------------------------------------------------------
def ingest_lags(
    acks: Sequence[tuple[float, float]],
    polls: Sequence[tuple[float, float]],
) -> tuple[list[float], int]:
    """Lag from each ``/ingest`` ack until the refit counter covers it.

    ``acks`` are ``(ack_time, fixes_acked_so_far)`` in send order;
    ``polls`` are ``(poll_time, serve_refit_fixes_total)`` in time order.
    An ack is covered by the first poll at or after its time whose total
    reaches its cumulative count.  Returns the lags of covered acks and
    the number never covered.
    """
    lags: list[float] = []
    uncovered = 0
    start = 0
    for ack_time, needed in acks:
        while start < len(polls) and polls[start][0] < ack_time:
            start += 1
        for poll_time, total in polls[start:]:
            if total >= needed:
                lags.append(poll_time - ack_time)
                break
        else:
            uncovered += 1
    return lags, uncovered

