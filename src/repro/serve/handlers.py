"""The JSON-over-HTTP API surface: routing, parsing, wire format.

Kept separate from the socket machinery in :mod:`repro.serve.server` so
the API can be unit-tested without a network and so the serialization is
canonical in one place: :func:`render_predict_body` is the *single*
producer of prediction payloads, which makes "served bytes == direct
in-process predict bytes" a testable invariant (the end-to-end test
compares the HTTP body against this function applied to a direct
``model.predict`` call).

Endpoints
----------
* ``POST /predict``  — ``{"object_id", "query_time", "k"?, "recent"?,
  "deadline_ms"?}``; ``recent`` is ``[[t, x, y], ...]`` (chronological)
  and may be omitted when the object has an ingest-fed tracker window.
  Responds with the top-k predictions; the ``X-Cache`` header says
  ``hit`` or ``miss``.  An answer is cached on its query's second
  sighting, so a repeated query reads ``miss`` twice and ``hit`` from
  the third time on.  ``deadline_ms`` bounds the model pass — on
  expiry the answer degrades (stale cache or motion-only, marked
  ``"degraded": true`` and ``X-Degraded: true``; ``X-Cache: stale``
  for the stale rung) rather than blocking past the deadline.
* ``POST /ingest``   — ``{"object_id", "fixes": [[t, x, y], ...]}``;
  streams fixes into the object's tracker, invalidates its cache
  entries, and schedules a background refit when enough data accrued.
* ``POST /predict_all`` — ``{"query_time", "recents"?}``; top-1
  predictions for many objects in one call.  ``recents`` maps object id
  to ``[[t, x, y], ...]``; when omitted, every object with an
  ingest-fed tracker window is scored.  The endpoint is lenient: ids
  the fleet doesn't know land in a sorted ``"unknown"`` list (present
  only when non-empty) instead of failing the batch, which lets the
  shard router scatter a request across workers and merge the pieces
  byte-identically.
* ``GET /objects``   — per-object model/tracker summary.
* ``GET /healthz``   — liveness.
* ``GET /metrics``   — Prometheus-style text exposition.
* ``GET /metrics.json`` — the registry's full mergeable state
  (:meth:`~repro.serve.metrics.MetricsRegistry.dump`), which the shard
  router aggregates into its fleet-wide ``/metrics`` view.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from ..core.prediction import Prediction

__all__ = [
    "ApiError",
    "encode_json",
    "prediction_to_dict",
    "render_predict_body",
    "render_predict_all_body",
    "route",
]

_JSON = "application/json"


class ApiError(Exception):
    """An error with an HTTP status, rendered as ``{"error": ...}``.

    ``retry_after`` (seconds) adds a ``Retry-After`` response header —
    used by the overload paths (503) so well-behaved clients back off.
    """

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def encode_json(payload: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def prediction_to_dict(prediction: Prediction) -> dict:
    """One prediction on the wire: location, method, ranking score."""
    return {
        "x": prediction.location.x,
        "y": prediction.location.y,
        "method": prediction.method,
        "score": prediction.score,
    }


def render_predict_body(
    object_id: str,
    query_time: int,
    predictions: Sequence[Prediction],
    degraded: bool = False,
) -> bytes:
    """The canonical ``POST /predict`` response body.

    ``degraded`` marks answers produced by the overload fallback ladder
    (stale cache / motion-only); the key is absent from full-quality
    responses, keeping them byte-identical to direct predict calls.
    """
    payload: dict = {
        "object_id": object_id,
        "query_time": query_time,
        "predictions": [prediction_to_dict(p) for p in predictions],
    }
    if degraded:
        payload["degraded"] = True
    return encode_json(payload)


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------
def _parse_body(body: bytes) -> dict:
    if not body:
        raise ApiError(400, "empty request body; expected JSON")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ApiError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "JSON body must be an object")
    return payload


def _object_id(payload: dict) -> str:
    object_id = payload.get("object_id", "default")
    if not isinstance(object_id, str) or not object_id:
        raise ApiError(400, "object_id must be a non-empty string")
    return object_id


def _parse_fixes(payload: dict, field: str) -> list[tuple[int, float, float]]:
    raw = payload.get(field)
    if not isinstance(raw, list) or not raw:
        raise ApiError(400, f"{field} must be a non-empty list of [t, x, y]")
    fixes = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ApiError(400, f"bad {field} entry {entry!r}; expected [t, x, y]")
        t, x, y = entry
        try:
            fixes.append((int(t), float(x), float(y)))
        except (TypeError, ValueError):
            raise ApiError(
                400, f"bad {field} entry {entry!r}; expected numbers"
            ) from None
    return fixes


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
async def _handle_predict(service, body: bytes):
    payload = _parse_body(body)
    object_id = _object_id(payload)
    query_time = payload.get("query_time")
    if not isinstance(query_time, int):
        raise ApiError(400, "query_time must be an integer")
    k = payload.get("k")
    if k is not None and (not isinstance(k, int) or k < 1):
        raise ApiError(400, "k must be a positive integer")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or deadline_ms <= 0
    ):
        raise ApiError(400, "deadline_ms must be a positive number")
    recent = (
        _parse_fixes(payload, "recent") if payload.get("recent") is not None else None
    )
    predictions, cached, degraded = await service.predict(
        object_id, recent, query_time, k, deadline_ms=deadline_ms
    )
    headers = {"X-Cache": "hit" if cached else "miss"}
    if degraded:
        headers["X-Cache"] = "stale" if cached else "miss"
        headers["X-Degraded"] = "true"
    return (
        200,
        _JSON,
        render_predict_body(object_id, query_time, predictions, degraded),
        headers,
    )


async def _handle_ingest(service, body: bytes):
    payload = _parse_body(body)
    object_id = _object_id(payload)
    fixes = _parse_fixes(payload, "fixes")
    result = await service.ingest(object_id, fixes)
    return 200, _JSON, encode_json(result), {}


def render_predict_all_body(
    query_time: int,
    results: "dict[str, Prediction]",
    unknown: Sequence[str] = (),
) -> bytes:
    """The canonical ``POST /predict_all`` response body.

    Results are sorted by object id, so a scatter-gathered response
    (each shard rendering its slice through this same function, the
    router merging and re-rendering) is byte-identical to a
    single-process answer.
    """
    payload: dict = {
        "query_time": query_time,
        "results": [
            {
                "object_id": object_id,
                "prediction": prediction_to_dict(results[object_id]),
            }
            for object_id in sorted(results)
        ],
    }
    if unknown:
        payload["unknown"] = sorted(unknown)
    return encode_json(payload)


async def _handle_predict_all(service, body: bytes):
    payload = _parse_body(body)
    query_time = payload.get("query_time")
    if not isinstance(query_time, int):
        raise ApiError(400, "query_time must be an integer")
    raw_recents = payload.get("recents")
    recents = None
    if raw_recents is not None:
        if not isinstance(raw_recents, dict):
            raise ApiError(400, "recents must map object ids to [[t, x, y], ...]")
        recents = {}
        for object_id, fixes in raw_recents.items():
            if not isinstance(object_id, str) or not object_id:
                raise ApiError(400, "recents keys must be non-empty strings")
            recents[object_id] = _parse_fixes({"recent": fixes}, "recent")
    results, unknown = await service.predict_all(recents, query_time)
    return (
        200,
        _JSON,
        render_predict_all_body(query_time, results, unknown),
        {},
    )


async def _handle_objects(service, body: bytes):
    return 200, _JSON, encode_json({"objects": service.objects_summary()}), {}


async def _handle_healthz(service, body: bytes):
    return (
        200,
        _JSON,
        encode_json({"status": "ok", "objects": len(service.fleet)}),
        {},
    )


async def _handle_metrics(service, body: bytes):
    text = service.metrics.render_text()
    return 200, "text/plain; version=0.0.4", text.encode("utf-8"), {}


async def _handle_metrics_json(service, body: bytes):
    return 200, _JSON, encode_json(service.metrics.dump()), {}


_ROUTES = {
    ("POST", "/predict"): _handle_predict,
    ("POST", "/ingest"): _handle_ingest,
    ("POST", "/predict_all"): _handle_predict_all,
    ("GET", "/objects"): _handle_objects,
    ("GET", "/healthz"): _handle_healthz,
    ("GET", "/metrics"): _handle_metrics,
    ("GET", "/metrics.json"): _handle_metrics_json,
}


async def route(
    service, method: str, path: str, body: bytes
) -> tuple[int, str, bytes, dict[str, str]]:
    """Dispatch one request; always returns a renderable response."""
    path = path.split("?", 1)[0]
    handler = _ROUTES.get((method, path))
    if handler is None:
        known_paths = {p for _, p in _ROUTES}
        if path in known_paths:
            return 405, _JSON, encode_json({"error": "method not allowed"}), {}
        return 404, _JSON, encode_json({"error": f"no route {path}"}), {}
    try:
        return await handler(service, body)
    except ApiError as exc:
        extra = {}
        if exc.retry_after is not None:
            extra["Retry-After"] = (
                str(int(exc.retry_after))
                if float(exc.retry_after).is_integer()
                else f"{exc.retry_after:.3f}"
            )
        return exc.status, _JSON, encode_json({"error": exc.message}), extra
    except KeyError as exc:
        # Unknown object ids surface as KeyError from the fleet.
        return 404, _JSON, encode_json({"error": str(exc.args[0])}), {}
    except ValueError as exc:
        return 400, _JSON, encode_json({"error": str(exc)}), {}
