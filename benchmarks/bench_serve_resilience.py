"""Resilience drill: the hardened serve stack under a committed fault plan.

Two passes over the same fitted commuter model:

* **Baseline** (default ``ServeConfig``, chaos off) — proves the
  hardening layer is invisible when nothing is wrong: zero shed, zero
  rate-limited, zero degraded, zero errors, and every distinct query's
  HTTP body byte-identical to the canonical direct-predict rendering
  (fingerprinted with SHA-256).
* **Fault drill** — the committed plan from the robustness issue: seeded
  injected latency, 5% synthetic handler errors, and connection drops,
  fired at twice the admission capacity with a per-request deadline.
  The service must *shed and degrade instead of crashing*: zero
  unhandled task exceptions on the event loop, admission depth bounded
  by the configured capacities throughout, and >= 80% goodput
  (full-quality, in-deadline 200s).

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_serve_resilience.py --smoke   # CI-sized

Writes ``BENCH_serve_resilience.json`` with both passes' breakdowns,
the fault plan, and the gate results.  Exits 1 if any gate fails.  The
drill's goodput follows how much CPU the host takes from this machine,
so the drill records the host's steal share over its run
(``drill.host.steal``, from ``/proc/stat``; ``null`` where that file
does not exist) and the gate line prints it beside ``drill_goodput``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro import FleetPredictionModel, HPMConfig, Trajectory
from repro.serve import (
    ChaosConfig,
    HttpClient,
    PredictionServer,
    PredictionService,
    ServeConfig,
    build_workload,
    render_predict_body,
    run_loadgen,
)
from repro.trajectory.point import TimedPoint

PERIOD = 24
GOODPUT_FLOOR = 0.80

#: the committed fault plan (see module docstring) — seeded, so the
#: injected fault sequence replays identically run to run
FAULT_PLAN = ChaosConfig(
    seed=2008,
    latency_probability=0.25,
    latency_ms=20.0,
    error_probability=0.05,
    drop_probability=0.02,
)

#: drill admission capacity; the workload runs at 2x this concurrency
DRILL_CAPACITY = 4


def commuter_history(num_days: int = 40) -> Trajectory:
    rng = np.random.default_rng(7)
    base = np.zeros((PERIOD, 2))
    for t in range(PERIOD):
        if t < PERIOD // 2:
            base[t] = [400.0 * t, 0.0]
        else:
            base[t] = [400.0 * (PERIOD // 2), 400.0 * (t - PERIOD // 2)]
    days = [base + rng.normal(0, 20.0, base.shape) for _ in range(num_days)]
    return Trajectory(np.vstack(days))


def fitted_fleet(history: Trajectory) -> FleetPredictionModel:
    config = HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=8,
        recent_window=4,
    )
    fleet = FleetPredictionModel(config)
    fleet.fit({"default": history})
    return fleet


def report_summary(report) -> dict:
    return {
        "requests": report.requests,
        "errors": report.errors,
        "throughput_rps": round(report.throughput, 1),
        "latency_ms": {
            "p50": round(report.percentile(50), 2),
            "p95": round(report.percentile(95), 2),
            "p99": round(report.percentile(99), 2),
        },
        "status_counts": {
            str(status): count
            for status, count in sorted(report.status_counts.items())
        },
        "cache_hits": report.cache_hits,
        "shed": report.shed,
        "rate_limited": report.rate_limited,
        "degraded": report.degraded,
        "transport_errors": report.transport_errors,
        "deadline_misses": report.deadline_misses,
        "goodput_ratio": round(report.goodput_ratio, 4),
    }


# ----------------------------------------------------------------------
# baseline: chaos off, defaults — invisible hardening + byte identity
# ----------------------------------------------------------------------
async def run_baseline(fleet, history, requests: int, distinct: int) -> dict:
    service = PredictionService(fleet, ServeConfig())
    server = PredictionServer(service)
    await server.start()
    try:
        workload = build_workload(
            history,
            requests=requests,
            window=4,
            max_horizon=5,
            distinct=distinct,
            rng=np.random.default_rng(0),
        )
        report = await run_loadgen(
            "127.0.0.1", server.port, workload, concurrency=8
        )
        # Byte identity: every distinct query's served body must equal
        # the canonical rendering of a direct in-process predict call.
        digest = hashlib.sha256()
        mismatches = 0
        client = HttpClient("127.0.0.1", server.port)
        try:
            for query in {q.recent: q for q in workload}.values():
                _, _, body = await client.request(
                    "POST", "/predict", query.payload()
                )
                window = [TimedPoint(t, x, y) for t, x, y in query.recent]
                direct = fleet["default"].predict(
                    window, query.query_time, query.k
                )
                expected = render_predict_body(
                    query.object_id, query.query_time, direct
                )
                if body != expected:
                    mismatches += 1
                digest.update(body)
        finally:
            await client.close()
    finally:
        await server.close()
    return {
        **report_summary(report),
        "byte_mismatches": mismatches,
        "fingerprint": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# fault drill: the committed plan at 2x admission capacity
# ----------------------------------------------------------------------
def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from ``/proc/stat``, or ``None`` off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_share(before, after) -> float | None:
    """The share of CPU time the host took between two :func:`cpu_ticks`."""
    if before is None or after is None:
        return None
    return (after[0] - before[0]) / max(1, after[1] - before[1])


async def run_drill(
    fleet, history, requests: int, distinct: int, deadline_ms: float
) -> dict:
    unhandled: list[dict] = []
    loop = asyncio.get_running_loop()
    default_handler = loop.get_exception_handler()

    def count_unhandled(loop, context) -> None:
        unhandled.append({"message": context.get("message", "")})

    loop.set_exception_handler(count_unhandled)
    # Production configuration (cache + batching on) with the admission
    # capacity squeezed to DRILL_CAPACITY: cache-miss bursts overflow the
    # slots and must shed cleanly while the hit path keeps goodput up.
    config = ServeConfig(
        max_inflight_predict=DRILL_CAPACITY,
        max_inflight_ingest=DRILL_CAPACITY,
        high_watermark=3 * DRILL_CAPACITY,
        low_watermark=DRILL_CAPACITY,
        chaos=FAULT_PLAN,
    )
    depth_bound = (
        config.max_inflight_predict
        + config.max_inflight_ingest
        + config.refit_concurrency
    )
    service = PredictionService(fleet, config)
    server = PredictionServer(service)
    await server.start()
    max_depth = 0
    sampling = True

    async def sample_depth() -> None:
        nonlocal max_depth
        while sampling:
            max_depth = max(max_depth, service.admission.depth())
            await asyncio.sleep(0.002)

    sampler = asyncio.create_task(sample_depth())
    try:
        workload = build_workload(
            history,
            requests=requests,
            window=4,
            max_horizon=5,
            distinct=distinct,
            deadline_ms=deadline_ms,
            rng=np.random.default_rng(1),
        )
        report = await run_loadgen(
            "127.0.0.1",
            server.port,
            workload,
            concurrency=2 * DRILL_CAPACITY,
        )
    finally:
        sampling = False
        await sampler
        await server.close()
        loop.set_exception_handler(default_handler)
    snapshot = service.metrics.snapshot()
    return {
        **report_summary(report),
        "deadline_ms": deadline_ms,
        "concurrency": 2 * DRILL_CAPACITY,
        "capacity": DRILL_CAPACITY,
        "injected": service.chaos.stats(),
        "unhandled_task_exceptions": len(unhandled),
        "max_admission_depth": max_depth,
        "admission_depth_bound": depth_bound,
        "server_counters": {
            name: snapshot[name]["value"]
            for name in (
                "serve_shed_total",
                "serve_rate_limited_total",
                "serve_degraded_total",
                "serve_deadline_timeouts_total",
                "serve_http_errors_total",
                "serve_idle_timeouts_total",
            )
            if name in snapshot
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--distinct", type=int, default=60)
    parser.add_argument("--deadline-ms", type=float, default=500.0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small workload, same fault plan and gates",
    )
    parser.add_argument("--output", default="BENCH_serve_resilience.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests, args.distinct = 150, 30

    history = commuter_history()
    fleet = fitted_fleet(history)
    print(
        f"serve resilience: {args.requests} requests, fault plan "
        f"seed={FAULT_PLAN.seed} latency={FAULT_PLAN.latency_probability:.0%}/"
        f"{FAULT_PLAN.latency_ms:.0f}ms errors="
        f"{FAULT_PLAN.error_probability:.0%} drops="
        f"{FAULT_PLAN.drop_probability:.0%} at 2x capacity "
        f"({DRILL_CAPACITY} slots) ..."
    )

    baseline = asyncio.run(
        run_baseline(fleet, history, args.requests, args.distinct)
    )
    print(
        f"  baseline: {baseline['throughput_rps']} req/s, "
        f"errors={baseline['errors']} shed={baseline['shed']} "
        f"degraded={baseline['degraded']} "
        f"byte_mismatches={baseline['byte_mismatches']}"
    )
    ticks = cpu_ticks()
    drill = asyncio.run(
        run_drill(fleet, history, args.requests, args.distinct, args.deadline_ms)
    )
    drill["host"] = {"steal": steal_share(ticks, cpu_ticks())}
    print(
        f"  drill:    {drill['throughput_rps']} req/s, "
        f"goodput={drill['goodput_ratio']:.1%} shed={drill['shed']} "
        f"degraded={drill['degraded']} transport_errors="
        f"{drill['transport_errors']} unhandled="
        f"{drill['unhandled_task_exceptions']} "
        f"depth={drill['max_admission_depth']}/{drill['admission_depth_bound']}"
    )

    gates = {
        "baseline_clean": (
            baseline["errors"] == 0
            and baseline["shed"] == 0
            and baseline["rate_limited"] == 0
            and baseline["degraded"] == 0
        ),
        "baseline_byte_identical": baseline["byte_mismatches"] == 0,
        "drill_goodput": drill["goodput_ratio"] >= GOODPUT_FLOOR,
        "drill_no_unhandled_exceptions": (
            drill["unhandled_task_exceptions"] == 0
        ),
        "drill_depth_bounded": (
            drill["max_admission_depth"] <= drill["admission_depth_bound"]
        ),
    }
    report = {
        "benchmark": "serve_resilience",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "requests": args.requests,
        "distinct": args.distinct,
        "goodput_floor": GOODPUT_FLOOR,
        "fault_plan": dataclasses.asdict(FAULT_PLAN),
        "baseline": baseline,
        "drill": drill,
        "gates": gates,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    failed = [name for name, passed in gates.items() if not passed]
    steal = drill["host"]["steal"]
    notes = {
        "drill_goodput": f" ({drill['goodput_ratio']:.1%} at host steal "
        + ("n/a" if steal is None else f"{steal:.1%}")
        + ")"
    }
    print(
        "gates: "
        + ", ".join(f"{k}={v}{notes.get(k, '')}" for k, v in gates.items())
    )
    print(f"wrote {args.output}")
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
