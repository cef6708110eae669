"""Extension — offline fleet training: serial vs process-parallel fit.

The paper fits one object; a deployment fits thousands, and each fit
(DBSCAN over every offset group plus the rule lattice) is independent
pure-Python work — embarrassingly parallel.  This bench builds a
synthetic fleet from ``repro.datagen`` (the paper's four scenarios,
round-robin, one seed per object), fits it twice — serially and with a
``ProcessPoolExecutor`` — and A/Bs wall-clock time while proving the
two fleets answer every probe query byte-identically.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet_fit.py            # 64 objects, 4 workers
    PYTHONPATH=src python benchmarks/bench_fleet_fit.py --smoke    # CI-sized

Writes ``BENCH_fleet_fit.json``: sizes, wall-clock per mode, speedup,
prediction fingerprints, and the host's CPU budget.  The speedup is
bounded by the CPUs the process may run on: with fewer CPUs than
workers the pool only time-slices, so the ratio measures the host, not
the parallel path, and is written as ``null`` with a
``speedup_not_applicable`` reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro import FleetPredictionModel, HPMConfig, TimedPoint
from repro.datagen import SCENARIO_NAMES, make_dataset

PROBE_HORIZONS = (1, 5, 17)
PROBE_WINDOW = 3


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_histories(num_objects: int, subtrajectories: int, period: int) -> dict:
    histories = {}
    for i in range(num_objects):
        scenario = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
        dataset = make_dataset(scenario, subtrajectories, period, seed=i)
        histories[f"obj{i:03d}"] = dataset.trajectory
    return histories


def fit_config(period: int) -> HPMConfig:
    return HPMConfig(
        period=period,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=max(1, period // 5),
        recent_window=PROBE_WINDOW + 1,
    )


def timed_fit(config, histories, **fit_kwargs) -> tuple[FleetPredictionModel, float]:
    fleet = FleetPredictionModel(config)
    start = time.perf_counter()
    fleet.fit(histories, **fit_kwargs)
    return fleet, time.perf_counter() - start


def fingerprint(fleet: FleetPredictionModel, histories: dict, period: int) -> str:
    """SHA-256 over the exact repr of every probe prediction."""
    digest = hashlib.sha256()
    for object_id in fleet.object_ids():
        positions = histories[object_id].positions
        t0 = 10 * period
        recent = [
            TimedPoint(t0 + j, float(x), float(y))
            for j, (x, y) in enumerate(positions[:PROBE_WINDOW])
        ]
        for horizon in PROBE_HORIZONS:
            predictions = fleet.predict(
                object_id, recent, t0 + PROBE_WINDOW + horizon, k=3
            )
            digest.update(f"{object_id}:{horizon}:{predictions!r}\n".encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--subtrajectories", type=int, default=30)
    parser.add_argument("--period", type=int, default=96)
    parser.add_argument(
        "--executor", choices=["process", "thread"], default="process"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 8 objects, 2 workers (still exercises the pool)",
    )
    parser.add_argument("--output", default="BENCH_fleet_fit.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.objects, args.workers = 8, 2
        args.subtrajectories, args.period = 8, 24

    config = fit_config(args.period)
    print(
        f"building {args.objects}-object fleet "
        f"({args.subtrajectories} sub-trajectories x T={args.period}) ..."
    )
    histories = build_histories(args.objects, args.subtrajectories, args.period)

    print("serial fit ...")
    serial_fleet, serial_seconds = timed_fit(config, histories)
    print(f"  {serial_seconds:.2f}s")
    print(f"{args.executor}-parallel fit ({args.workers} workers) ...")
    parallel_fleet, parallel_seconds = timed_fit(
        config, histories, max_workers=args.workers, executor=args.executor
    )
    print(f"  {parallel_seconds:.2f}s")

    serial_fp = fingerprint(serial_fleet, histories, args.period)
    parallel_fp = fingerprint(parallel_fleet, histories, args.period)
    identical = serial_fp == parallel_fp
    cpus = available_cpus()
    speedup = None
    if cpus >= args.workers and parallel_seconds:
        speedup = round(serial_seconds / parallel_seconds, 2)

    report = {
        "benchmark": "fleet_fit",
        "objects": args.objects,
        "subtrajectories": args.subtrajectories,
        "period": args.period,
        "workers": args.workers,
        "executor": args.executor,
        "smoke": args.smoke,
        "cpus": cpus,
        "python": sys.version.split()[0],
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": speedup,
        "identical_predictions": identical,
        "fingerprint": serial_fp,
        "total_patterns": serial_fleet.total_patterns(),
    }
    if speedup is None:
        report["speedup_not_applicable"] = (
            f"{args.workers} workers on {cpus} CPU(s): the pool time-slices"
        )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    ratio = "n/a" if speedup is None else f"{speedup:.2f}x"
    print(
        f"speedup {ratio} on {cpus} CPU(s); "
        f"predictions byte-identical: {identical}; wrote {args.output}"
    )
    if not identical:
        print("FAIL: parallel fit diverged from serial fit", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
