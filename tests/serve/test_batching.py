"""Unit tests for group-commit batching.

Tests that need a batch to stay running gate the executor on a
``threading.Event`` instead of relying on wall-clock timing.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.batching import RequestBatcher


class Recorder:
    """A batch executor that records every (key, requests) pass."""

    def __init__(self, fail=False):
        self.calls = []
        self.fail = fail

    def __call__(self, key, requests):
        self.calls.append((key, list(requests)))
        if self.fail:
            raise RuntimeError("boom")
        return [f"{key}:{r}" for r in requests]


class GatedRecorder(Recorder):
    """A recorder whose passes block until ``release`` is set.

    ``started`` is set once the first pass is on the executor.
    """

    def __init__(self, fail_first=False):
        super().__init__()
        self.fail_first = fail_first
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, key, requests):
        self.started.set()
        assert self.release.wait(timeout=10.0), "gate never released"
        if self.fail_first and not self.calls:
            self.calls.append((key, list(requests)))
            raise RuntimeError("boom")
        return super().__call__(key, requests)


class RecordingExecutor(ThreadPoolExecutor):
    """A thread pool that records each ``(key, requests)`` handed to it."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(tuple(args))
        return super().submit(fn, *args, **kwargs)


def run(coro):
    return asyncio.run(coro)


async def turns(n=5):
    """Give the event loop ``n`` iterations."""
    for _ in range(n):
        await asyncio.sleep(0)


async def wait_started(recorder):
    """Wait (off the loop thread) until the gated pass has begun."""
    started = await asyncio.get_running_loop().run_in_executor(
        None, recorder.started.wait, 10.0
    )
    assert started, "the first batch never reached the executor"


class TestCoalescing:
    def test_concurrent_distinct_requests_share_one_pass(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            return await asyncio.gather(
                *(batcher.submit("obj", f"r{i}") for i in range(5))
            )

        results = run(scenario())
        assert results == [f"obj:r{i}" for i in range(5)]
        assert len(recorder.calls) == 1
        assert recorder.calls[0] == ("obj", [f"r{i}" for i in range(5)])

    def test_identical_requests_deduplicate(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            results = await asyncio.gather(
                *(batcher.submit("obj", "same") for _ in range(8))
            )
            return batcher, results

        batcher, results = run(scenario())
        assert results == ["obj:same"] * 8
        # One unique request computed once; seven waiters coalesced.
        assert recorder.calls == [("obj", ["same"])]
        assert batcher.coalesced == 7
        assert batcher.submitted == 8

    def test_keys_batch_independently(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            await asyncio.gather(
                batcher.submit("a", "r"), batcher.submit("b", "r")
            )

        run(scenario())
        assert sorted(key for key, _ in recorder.calls) == ["a", "b"]

    def test_max_batch_flushes_early(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=2)
            return await asyncio.gather(
                batcher.submit("obj", "r1"), batcher.submit("obj", "r2")
            )

        assert run(scenario()) == ["obj:r1", "obj:r2"]
        assert len(recorder.calls) == 1

    def test_requests_after_flush_start_a_new_batch(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = await batcher.submit("obj", "r1")
            second = await batcher.submit("obj", "r2")
            return first, second

        assert run(scenario()) == ("obj:r1", "obj:r2")
        assert len(recorder.calls) == 2

    def test_executor_failure_propagates_to_all_waiters(self):
        recorder = Recorder(fail=True)

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            results = await asyncio.gather(
                batcher.submit("obj", "r1"),
                batcher.submit("obj", "r2"),
                return_exceptions=True,
            )
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_result_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = RequestBatcher(lambda key, requests: [], max_batch=10)
            with pytest.raises(RuntimeError, match="returned 0 results"):
                await batcher.submit("obj", "r1")

        run(scenario())

    def test_drain_flushes_pending_batches(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            pending = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await asyncio.sleep(0)  # let submit enqueue
            await batcher.drain()
            return await pending

        assert run(scenario()) == "obj:r1"
        assert len(recorder.calls) == 1

    def test_validation(self):
        execute = lambda key, requests: []
        with pytest.raises(ValueError):
            RequestBatcher(execute, max_batch=0)


class TestGroupCommit:
    def test_lone_submit_executes_without_waiting(self):
        recorder = Recorder()
        executor = RecordingExecutor()

        async def scenario():
            asyncio.get_running_loop().set_default_executor(executor)
            batcher = RequestBatcher(recorder, max_batch=10)
            pending = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await turns()
            # The pass is on the executor already: no timer held it.
            handed_over = list(executor.submitted)
            return handed_over, await pending

        assert run(scenario()) == ([("obj", ["r1"])], "obj:r1")

    def test_arrivals_during_a_running_batch_form_one_next_batch(self):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await wait_started(recorder)
            rest = [
                asyncio.ensure_future(batcher.submit("obj", r))
                for r in ("r2", "r3")
            ]
            await turns()
            recorder.release.set()
            return await asyncio.gather(first, *rest)

        assert run(scenario()) == ["obj:r1", "obj:r2", "obj:r3"]
        assert [requests for _, requests in recorder.calls] == [
            ["r1"],
            ["r2", "r3"],
        ]

    def test_max_batch_splits_a_queue_into_successive_batches(self):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=2)
            first = asyncio.ensure_future(batcher.submit("obj", "r0"))
            await wait_started(recorder)
            rest = [
                asyncio.ensure_future(batcher.submit("obj", f"r{i}"))
                for i in range(1, 6)
            ]
            await turns()
            recorder.release.set()
            return await asyncio.gather(first, *rest)

        assert run(scenario()) == [f"obj:r{i}" for i in range(6)]
        assert [requests for _, requests in recorder.calls] == [
            ["r0"],
            ["r1", "r2"],
            ["r3", "r4"],
            ["r5"],
        ]

    def test_twins_dedupe_in_a_queued_batch_but_never_join_a_running_one(
        self,
    ):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "same"))
            await wait_started(recorder)
            twins = [
                asyncio.ensure_future(batcher.submit("obj", "same"))
                for _ in range(3)
            ]
            await turns()
            recorder.release.set()
            results = await asyncio.gather(first, *twins)
            return batcher, results

        batcher, results = run(scenario())
        assert results == ["obj:same"] * 4
        # The executing request is computed once, the three queued twins
        # once more between them.
        assert [requests for _, requests in recorder.calls] == [
            ["same"],
            ["same"],
        ]
        assert batcher.coalesced == 2

    def test_same_tick_gather_shares_one_pass(self):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            pending = asyncio.gather(
                *(batcher.submit("obj", f"r{i}") for i in range(4))
            )
            await wait_started(recorder)
            recorder.release.set()
            return await pending

        assert run(scenario()) == [f"obj:r{i}" for i in range(4)]
        assert [requests for _, requests in recorder.calls] == [
            ["r0", "r1", "r2", "r3"]
        ]

    def test_failed_batch_does_not_stop_the_next_one(self):
        recorder = GatedRecorder(fail_first=True)

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await wait_started(recorder)
            second = asyncio.ensure_future(batcher.submit("obj", "r2"))
            await turns()
            recorder.release.set()
            return await asyncio.gather(first, second, return_exceptions=True)

        failed, answered = run(scenario())
        assert isinstance(failed, RuntimeError)
        assert answered == "obj:r2"

    def test_drain_waits_for_queued_batches(self):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await wait_started(recorder)
            second = asyncio.ensure_future(batcher.submit("obj", "r2"))
            await turns()
            drained = asyncio.ensure_future(batcher.drain())
            await turns()
            assert not drained.done()
            recorder.release.set()
            await drained
            # Both batches had run by the time drain returned.
            executed = len(recorder.calls)
            return executed, await asyncio.gather(first, second)

        assert run(scenario()) == (2, ["obj:r1", "obj:r2"])

    def test_idle_until_every_queued_and_running_batch_is_done(self):
        recorder = GatedRecorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            seen = [batcher.idle("obj")]
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await turns(1)
            seen.append(batcher.idle("obj"))  # queued, not yet running
            await wait_started(recorder)
            second = asyncio.ensure_future(batcher.submit("obj", "r2"))
            await turns()
            seen.append(batcher.idle("obj"))  # running, one batch queued
            seen.append(batcher.idle("other"))
            recorder.release.set()
            await asyncio.gather(first, second)
            await batcher.drain()
            seen.append(batcher.idle("obj"))
            return seen

        assert run(scenario()) == [True, False, False, True, True]
