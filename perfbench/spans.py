"""In-memory spans around the public functions of each serving layer.

:func:`install` patches the functions listed in :data:`LAYER_FUNCTIONS`
with timing wrappers *inside a server process started by the
benchmark's own launcher* (``perfbench/server_proc.py --trace-out``).
Nothing under ``src/`` is edited: the wrappers replace module and class
attributes at start-up, before the service objects that bind them exist.

A span is ``(id, name, start_ns, end_ns, parent_id, extra)``.  The
parent is the span open in the calling context (a ``ContextVar``, so it
follows both asyncio tasks and executor threads).  Batch executions run
on an executor thread that does not inherit the submitting task's
context, so their parent is looked up explicitly: the ``submit`` span of
the batch's first request.  Spans are appended to a list and written as
JSON when the server exits.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from pathlib import Path

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: span name -> "module:attribute" or "module:Class.method" it wraps
LAYER_FUNCTIONS = {
    "serve.route": "repro.serve.server:route",
    "serve.batching.submit": "repro.serve.batching:RequestBatcher.submit",
    "serve.batching.execute": "repro.serve.server:PredictionService._execute_batch",
    "core.plan.prepare": "repro.core.model:HybridPredictionModel.prepare",
    "core.plan.predict_prepared": "repro.core.model:HybridPredictionModel.predict_prepared",
    "core.scorekernel.prime": "repro.serve.server:prime_plan_queries",
    "serve.refit.request": "repro.serve.refit:RefitScheduler.request",
    "serve.refit.execute": "repro.serve.server:PredictionService._execute_refit",
    "core.online.flush": "repro.core.online:OnlineTracker.flush_updates",
    "core.refit.commit": "repro.core.model:HybridPredictionModel.commit_update",
    "snapshot.load": "repro.core.persistence:load_fleet",
    "snapshot.load_shard": "repro.serve.shard.worker:load_fleet",
    "snapshot.prewarm": "repro.core.model:HybridPredictionModel.prewarm_locate_cache",
    "shard.router.handle": "repro.serve.shard.router:RouterService.handle",
    "shard.forward": "repro.serve.shard.forwarding:ShardForwarder.submit",
}


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out once."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        # (object_id, request) -> id of the first submit span carrying it
        self._submits: dict = {}
        # (object_id, request) -> id of the execute span that answered it
        self._executed: dict = {}
        # object_id -> monotonic ns of the first unserved refit request
        self._refit_requested: dict = {}

    # -- generic wrappers ----------------------------------------------
    def wrap_sync(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent, None)
                )

        return wrapper

    def wrap_async(self, name, fn, path_arg: int | None = None):
        """``path_arg`` names the positional argument holding the HTTP
        path, kept on the span so request kinds can be told apart."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.monotonic_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                extra = None if path_arg is None else {"path": args[path_arg]}
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent, extra)
                )

        return wrapper

    # -- wrappers that link spans across the executor hop ----------------
    def wrap_submit(self, name, fn):
        """``RequestBatcher.submit``: remember which span carried each
        request, and afterwards which execute span answered it."""

        @functools.wraps(fn)
        async def wrapper(batcher, key, request):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            link = (key, request)
            self._submits.setdefault(link, span_id)
            start = time.monotonic_ns()
            try:
                return await fn(batcher, key, request)
            finally:
                _CURRENT.reset(token)
                if self._submits.get(link) == span_id:
                    del self._submits[link]
                executed = self._executed.pop(link, None)
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent,
                     {"execute": executed})
                )

        return wrapper

    def wrap_execute(self, name, fn):
        """``PredictionService._execute_batch`` on the executor thread."""

        @functools.wraps(fn)
        def wrapper(service, object_id, requests):
            span_id = next(self._ids)
            parent = self._submits.get((object_id, requests[0])) if requests else None
            token = _CURRENT.set(span_id)
            start = time.monotonic_ns()
            try:
                return fn(service, object_id, requests)
            finally:
                _CURRENT.reset(token)
                for request in requests:
                    self._executed[(object_id, request)] = span_id
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent,
                     {"batch": len(requests)})
                )

        return wrapper

    def wrap_refit_request(self, name, fn):
        """``RefitScheduler.request``: note when an object first asked."""

        @functools.wraps(fn)
        def wrapper(scheduler, object_id, payload):
            self._refit_requested.setdefault(object_id, time.monotonic_ns())
            return fn(scheduler, object_id, payload)

        return wrapper

    def wrap_refit_execute(self, name, fn):
        """``PredictionService._execute_refit``: queue time = start minus
        the first request not yet served by a run."""

        @functools.wraps(fn)
        async def wrapper(service, object_id, tracker):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.monotonic_ns()
            requested = self._refit_requested.pop(object_id, None)
            queued = None if requested is None else start - requested
            try:
                return await fn(service, object_id, tracker)
            finally:
                _CURRENT.reset(token)
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent,
                     {"queue_ns": queued})
                )

        return wrapper

    def wrap_flush(self, name, fn):
        """``OnlineTracker.flush_updates``: keep the fixes it flushed."""

        @functools.wraps(fn)
        def wrapper(tracker):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.monotonic_ns()
            flushed = None
            try:
                flushed = fn(tracker)
                return flushed
            finally:
                _CURRENT.reset(token)
                self.spans.append(
                    (span_id, name, start, time.monotonic_ns(), parent,
                     {"fixes": flushed})
                )

        return wrapper

    # -- output ------------------------------------------------------------
    def dump(self, path: str | Path) -> None:
        rows = [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                **({"extra": extra} if extra else {}),
            }
            for span_id, name, start, end, parent, extra in self.spans
        ]
        Path(path).write_text(json.dumps(rows))


#: spans that keep the request path: (service, method, path, body) and
#: (router service / forwarder, method, path, body)
_PATH_ARG = {"serve.route": 2, "shard.router.handle": 2, "shard.forward": 2}

_SPECIAL = {
    "serve.batching.submit": Tracer.wrap_submit,
    "serve.batching.execute": Tracer.wrap_execute,
    "serve.refit.request": Tracer.wrap_refit_request,
    "serve.refit.execute": Tracer.wrap_refit_execute,
    "core.online.flush": Tracer.wrap_flush,
}


def install(tracer: Tracer) -> None:
    """Patch every function of :data:`LAYER_FUNCTIONS` with a span wrapper.

    Must run before the service, server or router objects are built:
    they bind some of these functions at construction.
    """
    import asyncio
    import importlib

    for name, target in LAYER_FUNCTIONS.items():
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        special = _SPECIAL.get(name)
        if special is not None:
            wrapped = special(tracer, name, fn)
        elif asyncio.iscoroutinefunction(fn):
            wrapped = tracer.wrap_async(name, fn, _PATH_ARG.get(name))
        else:
            wrapped = tracer.wrap_sync(name, fn)
        setattr(owner, attr, wrapped)
