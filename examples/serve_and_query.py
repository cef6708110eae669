"""Serve predictions over HTTP and query them — all in one process.

Fits the quickstart commuter model, stands up the asyncio prediction
service (:mod:`repro.serve`) on an ephemeral port, then plays a full
client session against it: stream fixes into ``/ingest``, ask
``/predict`` three times (an answer is cached on its second sighting:
miss, miss, then hit), fire a small load burst, and
read the scoreboard from ``/metrics``.

Run:  python examples/serve_and_query.py
"""

import asyncio
import json

import numpy as np

from repro import FleetPredictionModel, HPMConfig, Trajectory
from repro.serve import (
    HttpClient,
    PredictionServer,
    PredictionService,
    ServeConfig,
    build_workload,
    ingest_stream,
    run_loadgen,
)

PERIOD = 24


def build_history(num_days: int = 40) -> tuple[Trajectory, np.ndarray]:
    """The quickstart route: east along an avenue, then north."""
    rng = np.random.default_rng(7)
    base = np.zeros((PERIOD, 2))
    for t in range(PERIOD):
        if t < PERIOD // 2:
            base[t] = [400.0 * t, 0.0]
        else:
            base[t] = [400.0 * (PERIOD // 2), 400.0 * (t - PERIOD // 2)]
    days = [base + rng.normal(0, 20.0, base.shape) for _ in range(num_days)]
    return Trajectory(np.vstack(days)), base


async def main() -> None:
    history, base = build_history()
    config = HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=8,
        recent_window=4,
    )
    fleet = FleetPredictionModel(config)
    fleet.fit({"commuter": history})
    print(f"fitted 1 object: {fleet.total_patterns()} trajectory patterns")

    service = PredictionService(fleet, ServeConfig(update_after=50))
    server = PredictionServer(service)  # port=0 -> ephemeral
    await server.start()
    print(f"serving on http://127.0.0.1:{server.port}\n")

    # --- a new day begins: stream the commuter's fixes in -------------
    now = len(history)
    fixes = [
        (now + i, float(base[i][0]) + 2.0, float(base[i][1]) - 1.0)
        for i in range(4)
    ]
    accepted = await ingest_stream(
        "127.0.0.1", server.port, "commuter", fixes
    )
    print(f"ingested {accepted} fixes via POST /ingest")

    # --- predict from the tracker window (no recent needed) -----------
    client = HttpClient("127.0.0.1", server.port)
    query = {"object_id": "commuter", "query_time": now + 8}
    for attempt in ("first", "second", "third"):
        status, headers, body = await client.request(
            "POST", "/predict", query
        )
        answer = json.loads(body)["predictions"][0]
        print(
            f"{attempt} query (t={query['query_time']}): "
            f"({answer['x']:.0f}, {answer['y']:.0f}) via "
            f"{answer['method'].upper()} — X-Cache: {headers['x-cache']}"
        )

    # --- a burst of traffic -------------------------------------------
    workload = build_workload(
        history, object_id="commuter", requests=300, distinct=40
    )
    report = await run_loadgen("127.0.0.1", server.port, workload)
    print(f"\nload burst: {report.format()}")

    # --- the operator's view ------------------------------------------
    _, _, metrics = await client.request("GET", "/metrics")
    wanted = (
        "serve_http_requests_total ",
        "serve_cache_hits_total",
        "serve_batches_total",
        "model_predict_seconds_count",
        'serve_http_request_seconds_quantile{q="p95"}',
    )
    print("\nGET /metrics (excerpt):")
    for line in metrics.decode("utf-8").splitlines():
        if any(line.startswith(w) for w in wanted):
            print(f"  {line}")

    await client.close()
    await server.close()


if __name__ == "__main__":
    asyncio.run(main())
