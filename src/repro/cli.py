"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the library's operational loop:

* ``synth``    — generate one of the paper's scenario datasets to CSV;
* ``fit``      — fit a fleet (one object per trajectory CSV, object id =
  file stem) in parallel and write a fleet snapshot directory;
* ``predict``  — answer a predictive query for one object of a snapshot;
* ``evaluate`` — run an HPM-vs-RMF accuracy comparison on a dataset CSV;
* ``serve``    — run the asyncio prediction service over a fleet
  snapshot (see :mod:`repro.serve`);
* ``loadgen``  — replay a trajectory workload against a running server
  and report throughput/latency.

Sharded serving (see :mod:`repro.serve.shard`) adds three more, and
``snapshot-stat`` prints a snapshot's layout:

* ``shard-serve``    — consistent-hash router + N shard-worker
  processes over one fleet snapshot, one listening port;
* ``shard-worker``   — a single shard worker (spawned by
  ``shard-serve``; also usable standalone for debugging);
* ``shard-snapshot`` — split a fleet snapshot into per-shard snapshots
  along the same ring, or merge a sharded snapshot back.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .datagen.names import SCENARIO_NAMES
from .trajectory.point import TimedPoint

if TYPE_CHECKING:
    from .core.config import HPMConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid Prediction Model for moving objects (ICDE 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a scenario dataset CSV")
    synth.add_argument("scenario", choices=SCENARIO_NAMES)
    synth.add_argument("-o", "--output", required=True, help="output CSV path")
    synth.add_argument("--subtrajectories", type=int, default=80)
    synth.add_argument("--period", type=int, default=300)
    synth.add_argument("--seed", type=int, default=None)

    fit = sub.add_parser(
        "fit", help="fit a fleet from trajectory CSVs (parallel) to a snapshot"
    )
    fit.add_argument(
        "inputs",
        nargs="+",
        help="trajectory CSVs (t,x,y), one object per file; object id = file stem",
    )
    fit.add_argument(
        "-o", "--output", required=True, help="fleet snapshot output directory"
    )
    fit.add_argument("--period", type=int, required=True)
    fit.add_argument("--eps", type=float, default=30.0)
    fit.add_argument("--min-pts", type=int, default=4)
    fit.add_argument("--min-confidence", type=float, default=0.3)
    fit.add_argument("--distant-threshold", type=int, default=None)
    fit.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel fit workers (default: serial)",
    )
    fit.add_argument(
        "--executor",
        choices=["process", "thread", "serial"],
        default="process",
        help="worker pool kind; 'thread' when fork is unavailable",
    )

    predict = sub.add_parser("predict", help="query one object of a fleet snapshot")
    predict.add_argument("snapshot", help="fleet snapshot directory from `repro fit`")
    predict.add_argument("--object-id", required=True,
                         help="object to query (the trajectory CSV's file stem)")
    predict.add_argument(
        "--recent",
        required=True,
        help="recent movements as 't:x:y,t:x:y,...' (chronological)",
    )
    predict.add_argument("--time", type=int, required=True, help="query time tq")
    predict.add_argument("-k", type=int, default=1, help="number of answers")

    evaluate = sub.add_parser(
        "evaluate", help="HPM vs RMF accuracy on a trajectory CSV"
    )
    evaluate.add_argument("input", help="trajectory CSV (t,x,y)")
    evaluate.add_argument("--period", type=int, required=True)
    evaluate.add_argument("--training", type=int, required=True,
                          help="number of training sub-trajectories")
    evaluate.add_argument("--length", type=int, default=50,
                          help="prediction length")
    evaluate.add_argument("--queries", type=int, default=30)
    evaluate.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the asyncio prediction service over a fleet snapshot"
    )
    serve.add_argument("snapshot", help="fleet snapshot directory from `repro fit`")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--cache-entries", type=int, default=4096,
                       help="LRU capacity of the prediction cache")
    serve.add_argument("--cache-ttl", type=float, default=30.0,
                       help="seconds a cached answer stays valid (0 disables caching)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most distinct predicts one batched model pass holds")
    serve.add_argument("--update-after", type=int, default=None,
                       help="refit an object after this many ingested fixes")
    serve.add_argument("--refit-mode", choices=("delta", "full"), default=None,
                       help="override the models' refit mode (default: model config, "
                            "normally delta — incremental re-mine)")
    serve.add_argument("--refit-full-every", type=int, default=None,
                       help="override the models' staleness budget: a full re-mine "
                            "after this many delta refits per object")
    serve.add_argument("--gap-policy", choices=("reject", "pad"), default="reject",
                       help="non-contiguous ingested fixes: reject the flush or pad "
                            "gaps with the last known position")
    serve.add_argument("--warmup-workers", type=int, default=None,
                       help="parallel workers for fleet-snapshot warm-up")
    serve.add_argument("--max-inflight-predict", type=int, default=256,
                       help="predict requests in flight before shedding (503)")
    serve.add_argument("--max-inflight-ingest", type=int, default=128,
                       help="ingest requests in flight before shedding (503)")
    serve.add_argument("--client-rate", type=float, default=0.0,
                       help="per-client rate limit in req/s (0 disables; 429 beyond it)")
    serve.add_argument("--client-burst", type=float, default=20.0,
                       help="per-client token-bucket burst allowance")
    serve.add_argument("--deadline-ms", type=float, default=10000.0,
                       help="default predict deadline in ms (0 disables)")
    serve.add_argument("--idle-timeout", type=float, default=60.0,
                       help="seconds before an idle/slow connection is reaped (0 disables)")
    serve.add_argument("--max-body-bytes", type=int, default=1_048_576,
                       help="request body budget in bytes (413 beyond it)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-injection seed (with the --chaos-* probabilities)")
    serve.add_argument("--chaos-latency", type=float, default=0.0,
                       help="probability of injected pre-handler latency")
    serve.add_argument("--chaos-errors", type=float, default=0.0,
                       help="probability of injected handler errors")
    serve.add_argument("--chaos-drops", type=float, default=0.0,
                       help="probability of injected connection drops")

    shard_serve = sub.add_parser(
        "shard-serve",
        help="route traffic across N shard-worker processes over a snapshot",
    )
    shard_serve.add_argument(
        "snapshot", help="fleet snapshot directory (plain or pre-split)"
    )
    shard_serve.add_argument("--shards", type=int, required=True,
                             help="number of shard-worker processes")
    shard_serve.add_argument("--host", default="127.0.0.1")
    shard_serve.add_argument("--port", type=int, default=8080,
                             help="router listening port")
    shard_serve.add_argument("--replicas", type=int, default=96,
                             help="consistent-hash virtual nodes per shard")
    shard_serve.add_argument("--salt", default="hpm-ring",
                             help="consistent-hash namespace")
    shard_serve.add_argument("--run-dir", default=None,
                             help="directory for worker logs/ready files (default: temp)")
    shard_serve.add_argument("--queue-depth", type=int, default=128,
                             help="bounded forwarding-queue depth per shard")
    shard_serve.add_argument("--forward-timeout", type=float, default=15.0,
                             help="seconds before a forwarded request fails over")
    shard_serve.add_argument("--probe-interval", type=float, default=0.25,
                             help="seconds between per-shard health probes")
    shard_serve.add_argument("--probe-fail-threshold", type=int, default=3,
                             help="consecutive probe failures before a shard is down")
    shard_serve.add_argument("--warmup-workers", type=int, default=None,
                             help="parallel warm-up workers inside each shard")
    shard_serve.add_argument("--grace", type=float, default=5.0,
                             help="drain grace on shutdown, router and workers")
    shard_serve.add_argument("--worker-arg", action="append", default=[],
                             help="extra flag passed to every shard worker (repeatable)")

    shard_worker = sub.add_parser(
        "shard-worker",
        help="serve one shard of a snapshot (spawned by shard-serve)",
    )
    shard_worker.add_argument("snapshot")
    shard_worker.add_argument("--shard-id", type=int, required=True)
    shard_worker.add_argument("--shards", type=int, required=True)
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument("--port", type=int, default=0,
                              help="0 binds an ephemeral port (see --ready-file)")
    shard_worker.add_argument("--ready-file", default=None,
                              help="file to write the bound port into once accepting")
    shard_worker.add_argument("--replicas", type=int, default=96)
    shard_worker.add_argument("--salt", default="hpm-ring")
    shard_worker.add_argument("--grace", type=float, default=5.0,
                              help="drain grace on SIGTERM")
    shard_worker.add_argument("--warmup-workers", type=int, default=None)
    shard_worker.add_argument("--cache-ttl", type=float, default=30.0)
    shard_worker.add_argument("--update-after", type=int, default=None)
    shard_worker.add_argument("--refit-mode", choices=("delta", "full"), default=None)
    shard_worker.add_argument("--refit-full-every", type=int, default=None)
    shard_worker.add_argument("--gap-policy", choices=("reject", "pad"),
                              default="reject")

    shard_snapshot = sub.add_parser(
        "shard-snapshot",
        help="split a fleet snapshot into per-shard snapshots, or merge back",
    )
    ss_sub = shard_snapshot.add_subparsers(
        dest="shard_snapshot_command", required=True
    )
    ss_split = ss_sub.add_parser("split", help="fleet snapshot -> sharded snapshot")
    ss_split.add_argument("source", help="fleet snapshot directory")
    ss_split.add_argument("-o", "--output", required=True,
                          help="sharded snapshot output directory")
    ss_split.add_argument("--shards", type=int, required=True)
    ss_split.add_argument("--replicas", type=int, default=96)
    ss_split.add_argument("--salt", default="hpm-ring")
    ss_merge = ss_sub.add_parser("merge", help="sharded snapshot -> fleet snapshot")
    ss_merge.add_argument("source", help="sharded snapshot directory")
    ss_merge.add_argument("-o", "--output", required=True,
                          help="fleet snapshot output directory")

    stat = sub.add_parser(
        "snapshot-stat",
        help="print a fleet snapshot's layout summary as JSON",
    )
    stat.add_argument("source", help="fleet snapshot directory")

    loadgen = sub.add_parser(
        "loadgen", help="replay a trajectory workload against a running server"
    )
    loadgen.add_argument("target", help="server address as host:port")
    loadgen.add_argument("--input", help="trajectory CSV to sample queries from")
    loadgen.add_argument("--scenario", choices=SCENARIO_NAMES,
                         help="synthesise the workload source instead of --input")
    loadgen.add_argument("--subtrajectories", type=int, default=40,
                         help="scenario size when using --scenario")
    loadgen.add_argument("--period", type=int, default=300,
                         help="scenario period when using --scenario")
    loadgen.add_argument("--object-id", default="default")
    loadgen.add_argument("--requests", type=int, default=500)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--window", type=int, default=4,
                         help="recent-movement window length per query")
    loadgen.add_argument("--horizon", type=int, default=5,
                         help="maximum steps ahead a query asks about")
    loadgen.add_argument("--distinct", type=int, default=50,
                         help="distinct queries in the pool (cache hit control)")
    loadgen.add_argument("-k", type=int, default=None)
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="per-query deadline in ms (the goodput bar)")
    loadgen.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth(args) -> int:
    from .datagen.scenarios import make_dataset
    from .trajectory.io import save_trajectory

    dataset = make_dataset(
        args.scenario, args.subtrajectories, args.period, seed=args.seed
    )
    save_trajectory(dataset.trajectory, args.output)
    print(
        f"wrote {args.output}: {args.scenario}, "
        f"{dataset.num_subtrajectories} sub-trajectories x T={dataset.period}"
    )
    return 0


def _config_from(args) -> HPMConfig:
    from .core.config import HPMConfig

    distant = args.distant_threshold
    if distant is None:
        distant = max(1, min(60, args.period // 5))
    return HPMConfig(
        period=args.period,
        eps=args.eps,
        min_pts=args.min_pts,
        min_confidence=args.min_confidence,
        distant_threshold=distant,
    )


def _cmd_fit(args) -> int:
    from .core.fleet import FleetFitError, FleetPredictionModel
    from .core.persistence import save_fleet
    from .trajectory.io import load_trajectory

    histories = {}
    for input_path in args.inputs:
        object_id = Path(input_path).stem
        if object_id in histories:
            raise SystemExit(
                f"duplicate object id {object_id!r}; file stems must be unique"
            )
        histories[object_id] = load_trajectory(input_path)

    def progress(object_id: str, done: int, total: int) -> None:
        print(f"[{done}/{total}] fitted {object_id}")

    fleet = FleetPredictionModel(_config_from(args))
    try:
        fleet.fit(
            histories,
            max_workers=args.workers,
            executor=args.executor,
            progress=progress,
        )
    except FleetFitError as exc:
        for object_id, error in sorted(exc.failures.items()):
            print(f"error: {object_id}: {error}", file=sys.stderr)
        return 1
    save_fleet(fleet, args.output)
    print(
        f"wrote {args.output}: {len(fleet)} object(s), "
        f"{fleet.total_patterns()} trajectory patterns"
    )
    print(_fit_phase_line(fleet.fit_phase_totals()))
    return 0


def _fit_phase_line(totals: dict[str, float]) -> str:
    """Human-readable per-phase fit time for `repro fit` output."""
    parts = ", ".join(
        f"{phase}={totals[phase]:.2f}s"
        for phase in ("cluster", "mine", "index")
        if phase in totals
    )
    return f"fit phases: {parts}"


def _parse_recent(spec: str) -> list[TimedPoint]:
    samples = []
    for chunk in spec.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise SystemExit(
                f"bad --recent entry {chunk!r}; expected t:x:y"
            )
        samples.append(TimedPoint(int(parts[0]), float(parts[1]), float(parts[2])))
    return samples


def _cmd_predict(args) -> int:
    from .core.persistence import load_fleet

    fleet = load_fleet(args.snapshot, object_ids=[args.object_id])
    model = fleet[args.object_id]
    recent = _parse_recent(args.recent)
    predictions = model.predict(recent, args.time, k=args.k)
    for rank, p in enumerate(predictions, 1):
        extra = f" score={p.score:.3f}" if p.score is not None else ""
        pattern = f" pattern={p.pattern}" if p.pattern is not None else ""
        print(
            f"#{rank} ({p.location.x:.1f}, {p.location.y:.1f}) "
            f"method={p.method}{extra}{pattern}"
        )
    return 0


def _cmd_evaluate(args) -> int:
    import numpy as np

    from .core.model import HybridPredictionModel
    from .evalx.harness import evaluate_hpm, evaluate_rmf
    from .evalx.workloads import generate_queries
    from .trajectory.dataset import TrajectoryDataset
    from .trajectory.io import load_trajectory

    trajectory = load_trajectory(args.input)
    dataset = TrajectoryDataset(
        name=Path(args.input).stem, trajectory=trajectory, period=args.period
    )

    class _A:  # reuse the fit-config plumbing
        period = args.period
        eps = 30.0
        min_pts = 4
        min_confidence = 0.3
        distant_threshold = None

    model = HybridPredictionModel(_config_from(_A))
    model.fit(dataset.training_split(args.training))
    workload = generate_queries(
        dataset,
        prediction_length=args.length,
        num_queries=args.queries,
        num_training_subtrajectories=args.training,
        rng=np.random.default_rng(args.seed),
    )
    hpm = evaluate_hpm(model, workload)
    rmf = evaluate_rmf(workload)
    print(f"patterns: {model.pattern_count}")
    print(f"HPM: mean error {hpm.mean_error:.1f} ({hpm.mean_query_ms:.2f} ms/query)")
    print(f"RMF: mean error {rmf.mean_error:.1f} ({rmf.mean_query_ms:.2f} ms/query)")
    print(f"HPM answered via: {hpm.method_counts}")
    return 0


def _refit_policy(args) -> dict:
    """``--refit-mode``/``--refit-full-every`` as config overrides (the
    ones given)."""
    policy = {"refit_mode": args.refit_mode, "refit_full_every": args.refit_full_every}
    return {name: value for name, value in policy.items() if value is not None}


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import (
        ChaosConfig,
        PredictionServer,
        PredictionService,
        ServeConfig,
    )

    chaos = None
    if args.chaos_latency > 0 or args.chaos_errors > 0 or args.chaos_drops > 0:
        chaos = ChaosConfig(
            seed=args.chaos_seed,
            latency_probability=args.chaos_latency,
            error_probability=args.chaos_errors,
            drop_probability=args.chaos_drops,
        )
    config = ServeConfig(
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl if args.cache_ttl > 0 else None,
        max_batch=args.max_batch,
        update_after=args.update_after,
        gap_policy=args.gap_policy,
        enable_cache=args.cache_ttl > 0,
        max_inflight_predict=args.max_inflight_predict,
        max_inflight_ingest=args.max_inflight_ingest,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        default_deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        max_body_bytes=args.max_body_bytes,
        chaos=chaos,
    )
    service = PredictionService.from_snapshot(
        args.snapshot, config, warmup_workers=args.warmup_workers
    )
    service.fleet.override_refit_policy(**_refit_policy(args))
    server = PredictionServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        print(
            f"serving {len(service.fleet)} object(s) on "
            f"http://{args.host}:{server.port} (Ctrl-C to stop)"
        )
        await server.run_forever(handle_signals=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_shard_serve(args) -> int:
    import asyncio

    from .serve.shard import (
        RouterConfig,
        RouterServer,
        RouterService,
        ShardCluster,
    )

    router_config = RouterConfig(
        num_shards=args.shards,
        replicas=args.replicas,
        salt=args.salt,
        queue_depth=args.queue_depth,
        forward_timeout=args.forward_timeout,
        probe_interval=args.probe_interval,
        probe_fail_threshold=args.probe_fail_threshold,
    )
    worker_args = list(args.worker_arg)
    if args.warmup_workers is not None:
        worker_args += ["--warmup-workers", str(args.warmup_workers)]
    worker_args += ["--grace", str(args.grace)]

    async def run() -> None:
        service = RouterService(router_config)
        cluster = ShardCluster(
            args.snapshot,
            args.shards,
            host=args.host,
            replicas=args.replicas,
            salt=args.salt,
            run_dir=args.run_dir,
            worker_args=worker_args,
            on_ready=service.attach_shard,
            on_down=service.detach_shard,
        )
        await cluster.start()
        server = RouterServer(service, host=args.host, port=args.port)
        try:
            await server.start()
            print(
                f"router on http://{args.host}:{server.port} over "
                f"{args.shards} shard worker(s) (Ctrl-C to stop)"
            )
            await server.run_forever(handle_signals=True, grace=args.grace)
        finally:
            await cluster.stop(grace=args.grace + 5.0)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_shard_worker(args) -> int:
    import asyncio

    from .serve import ServeConfig
    from .serve.shard import run_worker

    config = ServeConfig(
        cache_ttl=args.cache_ttl if args.cache_ttl > 0 else None,
        enable_cache=args.cache_ttl > 0,
        update_after=args.update_after,
        gap_policy=args.gap_policy,
    )
    try:
        return asyncio.run(
            run_worker(
                args.snapshot,
                args.shard_id,
                args.shards,
                host=args.host,
                port=args.port,
                ready_file=args.ready_file,
                replicas=args.replicas,
                salt=args.salt,
                config=config,
                grace=args.grace,
                max_workers=args.warmup_workers,
                refit_policy=_refit_policy(args),
            )
        )
    except KeyboardInterrupt:
        return 0


def _cmd_shard_snapshot(args) -> int:
    from .serve.shard import merge_snapshot, split_snapshot

    if args.shard_snapshot_command == "split":
        placement = split_snapshot(
            args.source,
            args.output,
            args.shards,
            replicas=args.replicas,
            salt=args.salt,
        )
        total = sum(len(ids) for ids in placement.values())
        print(
            f"wrote {args.output}: {total} object(s) split over "
            f"{args.shards} shard(s)"
        )
        for shard_id, ids in sorted(placement.items()):
            print(f"  shard {shard_id}: {len(ids)} object(s)")
    else:
        merged = merge_snapshot(args.source, args.output)
        print(f"wrote {args.output}: merged {len(merged)} object(s)")
    return 0


def _cmd_snapshot_stat(args) -> int:
    import json as _json

    from .core.persistence import snapshot_stat

    print(_json.dumps(snapshot_stat(args.source), indent=2))
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    import numpy as np

    from .datagen.scenarios import make_dataset
    from .serve.loadgen import build_workload, run_loadgen
    from .trajectory.io import load_trajectory

    host, _, port_text = args.target.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"bad target {args.target!r}; expected host:port")
    if args.input:
        trajectory = load_trajectory(args.input)
    elif args.scenario:
        dataset = make_dataset(
            args.scenario, args.subtrajectories, args.period, seed=args.seed
        )
        trajectory = dataset.trajectory
    else:
        raise SystemExit("loadgen needs --input or --scenario")
    workload = build_workload(
        trajectory,
        object_id=args.object_id,
        requests=args.requests,
        window=args.window,
        max_horizon=args.horizon,
        distinct=args.distinct,
        k=args.k,
        deadline_ms=args.deadline_ms,
        rng=np.random.default_rng(args.seed),
    )
    report = asyncio.run(
        run_loadgen(host, int(port_text), workload, concurrency=args.concurrency)
    )
    print(report.format())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "evaluate": _cmd_evaluate,
        "serve": _cmd_serve,
        "shard-serve": _cmd_shard_serve,
        "shard-worker": _cmd_shard_worker,
        "shard-snapshot": _cmd_shard_snapshot,
        "snapshot-stat": _cmd_snapshot_stat,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
