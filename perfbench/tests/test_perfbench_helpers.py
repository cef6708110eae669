"""Tests for the benchmark's own helpers.

    python -m pytest perfbench/tests -q
"""

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    ingest_lags,
    latencies_from_due,
    lateness,
    open_loop_schedule,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)


# ----------------------------------------------------------------------
# percentile with at least 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, want, expected",
    [(1000, 99.0, 99.0), (2000, 99.0, 99.0), (500, 99.0, 98.0), (100, 99.0, 90.0),
     (40, 99.0, 75.0), (11, 99.0, 100.0 / 11)],
)
def test_tail_percentile_leaves_ten_beyond(n, want, expected):
    q = tail_percentile(n, want)
    assert q == pytest.approx(expected)
    values = list(range(n))
    rank = values.index(percentile(values, q)) + 1
    assert n - rank >= 10
    # one step further would leave fewer than 10 beyond, unless capped
    if q < want:
        assert n - (rank + 1) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(10) is None
    assert summarize(range(10))["tail"] is None


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0


def test_summarize_reports_count_median_and_tail():
    summary = summarize([float(v) for v in range(1, 1001)])
    assert summary["n"] == 1000
    assert summary["p50"] == 500.5
    assert summary["tail_q"] == 99.0
    assert summary["tail"] == 990.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span(span_id, start, end, parent=None):
    return {"id": span_id, "name": f"s{span_id}", "start": start, "end": end,
            "parent": parent}


def test_self_time_subtracts_children():
    spans = [_span(1, 0, 100), _span(2, 10, 30, 1), _span(3, 40, 70, 1),
             _span(4, 45, 50, 3)]
    assert self_times(spans) == {1: 50, 2: 20, 3: 25, 4: 5}


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [_span(1, 0, 100), _span(2, 10, 50, 1), _span(3, 30, 60, 1),
             _span(4, 90, 130, 1)]
    # children cover [10, 60) and [90, 100) of the parent
    assert self_times(spans)[1] == 100 - 50 - 10


def test_self_time_of_root_without_children_is_its_duration():
    assert self_times([_span(1, 5, 17), _span(2, 0, 3, parent=99)]) == {1: 12, 2: 3}


# ----------------------------------------------------------------------
# open-loop schedule and lateness
# ----------------------------------------------------------------------
def test_open_loop_schedule_is_evenly_spaced():
    due = open_loop_schedule(rate=200.0, duration=2.0, start=10.0)
    assert len(due) == 400
    assert due[0] == 10.0
    assert due[1] - due[0] == pytest.approx(0.005)
    assert due[-1] == pytest.approx(10.0 + 399 / 200.0)


def test_open_loop_schedule_rejects_empty_phase():
    with pytest.raises(ValueError):
        open_loop_schedule(0.0, 1.0)


def test_lateness_and_latency_run_from_the_due_time():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 1.9]
    done = [0.1, 1.6, 2.4]
    assert lateness(due, sent) == [0.0, 0.5, 0.0]
    # the stalled second request is charged from when it was due
    assert latencies_from_due(due, done) == pytest.approx([0.1, 0.6, 0.4])


# ----------------------------------------------------------------------
# ingest lag
# ----------------------------------------------------------------------
def test_ingest_lag_waits_for_the_cumulative_count():
    acks = [(1.0, 48), (2.0, 96), (3.0, 144)]
    polls = [(0.5, 48), (1.2, 0), (1.4, 48), (2.1, 48), (2.5, 144), (3.2, 144)]
    lags, uncovered = ingest_lags(acks, polls)
    # a poll before the ack never counts, even when its total is high enough
    assert lags == pytest.approx([0.4, 0.5, 0.2])
    assert uncovered == 0


def test_ingest_lag_counts_acks_never_covered():
    lags, uncovered = ingest_lags([(1.0, 48), (2.0, 96)], [(1.5, 48), (2.5, 48)])
    assert lags == pytest.approx([0.5])
    assert uncovered == 1


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
def test_tracer_links_nested_sync_and_async_spans():
    tracer = Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap_sync("inner", inner)

    async def outer():
        return traced_inner() + 1

    traced_outer = tracer.wrap_async("outer", outer)
    assert asyncio.run(traced_outer()) == 2
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None
    assert by_name["outer"][2] <= by_name["inner"][2] <= by_name["inner"][3] <= by_name["outer"][3]


def test_tracer_links_batch_execute_to_its_submit():
    tracer = Tracer()

    def execute(service, key, requests):
        return [r * 2 for r in requests]

    traced_execute = tracer.wrap_execute("execute", execute)

    async def submit(batcher, key, request):
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(None, traced_execute, None, key, [request])
        return results[0]

    traced_submit = tracer.wrap_submit("submit", submit)
    assert asyncio.run(traced_submit(None, "obj", 21)) == 42
    by_name = {span[1]: span for span in tracer.spans}
    submit_span, execute_span = by_name["submit"], by_name["execute"]
    assert execute_span[4] == submit_span[0]
    assert submit_span[5] == {"execute": execute_span[0]}
    assert execute_span[5] == {"batch": 1}
