"""Sustained-ingest refit benchmark: delta vs full re-mine.

Simulates the paper's dynamic-data path under write traffic: a model is
fitted on a seed history, then successive rounds of new fixes are folded
in with ``HybridPredictionModel.update``.  Two engines run the same
ingest schedule —

* **delta** — ``refit="delta"``: re-cluster only dirty offsets, re-score
  only rules touching changed regions, then pack the new score kernel;
* **full** — ``refit="full"``: the legacy whole-history re-mine.

After every round *both* engines are checked against a fit-from-scratch
oracle over the concatenated history via SHA-256 fitted-state
fingerprints (same methodology as BENCH_fit.json; see
``repro.core.fingerprint``).  A final prediction fingerprint over a
query grid checks end-to-end answers, full ties included.

The committed report (BENCH_refit.json) records per-round refit latency
percentiles (p50/p95/p99), sustained fixes/sec, and the delta-vs-full
speedup over the late rounds, where the accumulated history makes the
full re-mine most expensive.  Each timed ``update`` starts from a
collected heap and runs with the cyclic garbage collector off (it is
re-enabled right after), for both engines: the scratch-fit oracle of
every round leaves tens of thousands of dead pattern objects behind,
and a full collection landing inside an arbitrary round would otherwise
be timed as refit work.  Non-smoke runs fail if delta is not at
least 3x faster than full at >= 10 accumulated rounds, or if any
fingerprint diverges.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro import HPMConfig
from repro.core.fingerprint import model_fingerprint, prediction_fingerprint
from repro.core.model import HybridPredictionModel
from repro.datagen import make_dataset
from repro.trajectory.point import TimedPoint
from repro.trajectory.trajectory import Trajectory

# Speedup gate for non-smoke runs, measured over rounds >= GATE_AFTER.
SPEEDUP_GATE = 3.0
GATE_AFTER = 10

#: how the cyclic collector is handled around each timed ``update``
GC_POLICY = "gc.collect() before each timed update; collector disabled during it"


def build_config(period: int) -> HPMConfig:
    # Same shape as bench_fit's config so the corpora are comparable.
    return HPMConfig(
        period=period,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=max(2, period // 5),
        recent_window=4,
    )


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "rounds": len(latencies),
        "p50_ms": round(percentile(ordered, 0.50) * 1000, 3),
        "p95_ms": round(percentile(ordered, 0.95) * 1000, 3),
        "p99_ms": round(percentile(ordered, 0.99) * 1000, 3),
        "total_seconds": round(sum(latencies), 3),
    }


def query_grid(positions, config: HPMConfig, n_windows: int = 8):
    """(recent, query_time) pairs spread over the history for the e2e check."""
    window = config.recent_window
    n = positions.shape[0]
    queries = []
    for w in range(n_windows):
        start = (w * (n - window - 1)) // n_windows
        recent = [
            TimedPoint(n + t, float(positions[start + t, 0]), float(positions[start + t, 1]))
            for t in range(window)
        ]
        t_now = recent[-1].t
        for horizon in (1, config.distant_threshold // 2, config.distant_threshold + 5):
            queries.append((recent, t_now + max(1, horizon)))
    return queries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed-subtrajectories", type=int, default=20)
    parser.add_argument("--period", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--chunk", type=int, default=30,
                        help="fixes ingested per round")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small corpus, few rounds")
    parser.add_argument("--output", default="BENCH_refit.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seed_subtrajectories, args.period = 10, 48
        args.rounds, args.chunk = 6, 12

    config = build_config(args.period)
    extra_rows = args.rounds * args.chunk
    total_subs = args.seed_subtrajectories + (
        (extra_rows + args.period - 1) // args.period
    )
    dataset = make_dataset("bike", total_subs, args.period, seed=0)
    positions = dataset.trajectory.positions
    seed_rows = args.seed_subtrajectories * args.period
    if seed_rows + extra_rows > positions.shape[0]:
        raise SystemExit("dataset too small for the requested schedule")

    print(
        f"refit A/B: bike dataset, seed {args.seed_subtrajectories} subs x "
        f"T={args.period}, {args.rounds} rounds x {args.chunk} fixes ..."
    )
    seed = Trajectory(positions[:seed_rows].copy(), 0)
    engines = {
        "delta": HybridPredictionModel(config).fit(seed),
        "full": HybridPredictionModel(config).fit(seed),
    }
    latencies: dict[str, list[float]] = {"delta": [], "full": []}
    index_outcomes: dict[str, dict[str, int]] = {"delta": {}, "full": {}}
    divergences: list[str] = []

    for round_no in range(1, args.rounds + 1):
        lo = seed_rows + (round_no - 1) * args.chunk
        hi = lo + args.chunk
        chunk = positions[lo:hi]
        for mode, model in engines.items():
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                model.update(chunk, refit=mode)
                latencies[mode].append(time.perf_counter() - start)
            finally:
                gc.enable()
            stats = model.last_refit_stats_
            outcomes = index_outcomes[mode]
            outcomes[stats.index] = outcomes.get(stats.index, 0) + 1
        # Oracle: fit-from-scratch over the concatenated history.
        oracle = HybridPredictionModel(config).fit(
            Trajectory(positions[:hi].copy(), 0)
        )
        oracle_fp = model_fingerprint(oracle)
        for mode, model in engines.items():
            fp = model_fingerprint(model)
            if fp != oracle_fp:
                divergences.append(f"round {round_no}: {mode} != scratch")
        print(
            f"  round {round_no:>2}: delta {latencies['delta'][-1] * 1000:7.1f}ms  "
            f"full {latencies['full'][-1] * 1000:7.1f}ms  "
            f"(oracle {'ok' if not divergences else 'DIVERGED'})"
        )

    queries = query_grid(positions[: seed_rows + extra_rows], config)
    oracle = HybridPredictionModel(config).fit(
        Trajectory(positions[: seed_rows + extra_rows].copy(), 0)
    )
    oracle_pred_fp = prediction_fingerprint(oracle, queries)
    prediction_identical = True
    for mode, model in engines.items():
        if prediction_fingerprint(model, queries) != oracle_pred_fp:
            prediction_identical = False
            divergences.append(f"final predictions: {mode} != scratch")

    late = slice(GATE_AFTER - 1, None) if args.rounds >= GATE_AFTER else slice(None)
    delta_late = latencies["delta"][late]
    full_late = latencies["full"][late]
    speedup_late = (
        (sum(full_late) / len(full_late)) / (sum(delta_late) / len(delta_late))
        if delta_late and sum(delta_late) > 0
        else 0.0
    )
    identical = not divergences

    report = {
        "benchmark": "refit",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "period": args.period,
        "seed_subtrajectories": args.seed_subtrajectories,
        "rounds": args.rounds,
        "chunk": args.chunk,
        "gc_policy": GC_POLICY,
        "delta": {
            **latency_summary(latencies["delta"]),
            "fixes_per_second": round(
                extra_rows / sum(latencies["delta"]), 1
            ),
            "index_outcomes": index_outcomes["delta"],
        },
        "full": {
            **latency_summary(latencies["full"]),
            "fixes_per_second": round(
                extra_rows / sum(latencies["full"]), 1
            ),
            "index_outcomes": index_outcomes["full"],
        },
        "speedup_late_rounds": round(speedup_late, 2),
        "speedup_measured_from_round": (
            GATE_AFTER if args.rounds >= GATE_AFTER else 1
        ),
        "identical_state": identical,
        "identical_predictions": prediction_identical,
        "divergences": divergences,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"delta p50 {report['delta']['p50_ms']}ms vs full p50 "
        f"{report['full']['p50_ms']}ms; late-round speedup "
        f"{report['speedup_late_rounds']}x; identical: {identical}; "
        f"wrote {args.output}"
    )
    if not identical:
        print("FAIL: incremental refit diverged from fit-from-scratch",
              file=sys.stderr)
        return 1
    if not args.smoke and args.rounds >= GATE_AFTER and speedup_late < SPEEDUP_GATE:
        print(
            f"FAIL: delta refit only {speedup_late:.2f}x faster than full "
            f"re-mine over rounds >= {GATE_AFTER} (gate {SPEEDUP_GATE}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
