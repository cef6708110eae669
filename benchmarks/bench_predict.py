"""Query-path A/B: the served engine vs the pre-overhaul algorithm.

The served query path answers from :class:`repro.core.plan.PreparedQuery`
plans (per-window work hoisted out of the per-query loop), cached
premise-weight tables, an exact block scan for region locate and the
vectorized score kernel — all under a byte-identity contract.  This
bench holds the contract to account: a ``LegacyPredictor`` re-implements
the per-call algorithm (uncached region mapping via per-region scans,
inline weight recomputation, a brute-force two-part Intersect over the
whole pattern table per round, a fresh motion fit per query, full sort +
slice with the canonical pattern identity as the last key) and both
engines answer the same workloads;
their prediction streams are fingerprinted with SHA-256 and must match
bit for bit.

Three modes are measured:

* **single-query** — independent ``predict(recent, tq, k=3)`` calls over a
  pool of windows and mixed FQP/BQP/motion horizons (the serve hot path);
* **trajectory-sweep** — ``predict_trajectory`` over a horizon crossing
  the distant-time threshold (the ``/predict_trajectory`` and eval paths);
* **predict_all** — a 40-object ``Fleet.predict_all`` with cross-object
  batching (its reference is a per-object legacy loop).

Fingerprints are verified on an untimed pass *before* any timing is
reported.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_predict.py            # full size
    PYTHONPATH=src python benchmarks/bench_predict.py --smoke    # CI-sized

Writes ``BENCH_predict_kernel.json``: p50/p95 latency, qps and speedup
per mode, plus the fingerprints.  Exits 1 if the engines disagree on any
byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import HPMConfig, TimedPoint
from repro.core.fleet import FleetPredictionModel
from repro.core.model import HybridPredictionModel
from repro.core.plan import Prediction
from repro.core.similarity import (
    WEIGHT_FUNCTIONS,
    bqp_score,
    consequence_similarity,
    fqp_score,
)
from repro.datagen import make_dataset
from repro.motion.linear import LinearMotionFunction
from repro.signature import bitset

SINGLE_K = 3


# ----------------------------------------------------------------------
# the legacy engine: the pre-overhaul per-call algorithm, verbatim
# ----------------------------------------------------------------------
def legacy_premise_weights(num_ones: int, kind: str) -> list[float]:
    """The old uncached ``premise_weights`` body — recomputed every call."""
    raw = WEIGHT_FUNCTIONS[kind]
    values = [raw(i) for i in range(1, num_ones + 1)]
    total = sum(values)
    return [v / total for v in values]


def legacy_premise_similarity(rk: int, rkq: int, kind: str) -> float:
    """Equation 1 without weight-table caching (the old hot-path cost)."""
    n = bitset.size(rk)
    if n == 0:
        return 0.0
    weights = legacy_premise_weights(n, kind)
    common = rk & rkq
    score = 0.0
    for bit_index in bitset.iter_set_bits(common):
        rank = bitset.position_of_bit(rk, bit_index)
        score += weights[rank - 1]
    return score


class LegacyPredictor:
    """The query path as it was before the overhaul.

    Per call: the recent window is re-mapped to regions with uncached
    per-region scans, the premise key re-encoded, candidates fetched by
    a brute-force Intersect scan of the pattern table (per BQP
    enlargement round), similarities scored with freshly recomputed
    weight vectors, ranked by full sort + slice — score, confidence and
    support descending, then the pattern identity ``(key value,
    consequence region id)`` ascending — and the motion fallback
    refitted from scratch.
    """

    def __init__(self, model: HybridPredictionModel):
        predictor = model.predictor_
        assert predictor is not None, "bench needs a pattern-bearing model"
        self.regions = predictor.regions
        self.codec = predictor.codec
        # Keys are encoded once, as the old engine's tree stored them.
        self.keyed = [(p, self.codec.encode_pattern(p)) for p in model.patterns_]
        self.config = predictor.config
        self.motion_factory = predictor.motion_factory

    def predict(
        self, recent: Sequence[TimedPoint], query_time: int, k: int | None = None
    ) -> list[Prediction]:
        recent = list(recent)
        if not recent:
            raise ValueError("recent movements must be non-empty")
        k = self.config.top_k if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        tc = recent[-1].t
        if query_time <= tc:
            raise ValueError(
                f"query time {query_time} must be after the current time {tc}"
            )
        if query_time - tc >= self.config.distant_threshold:
            return self.backward_query(recent, query_time, k)
        return self.forward_query(recent, query_time, k)

    def map_recent_to_regions(self, recent: Sequence[TimedPoint]) -> list:
        window = list(recent)[-self.config.recent_window :]
        seen: list = []
        for sample in window:
            region = self.locate(sample.x, sample.y, sample.t % self.config.period)
            if region is not None and region not in seen:
                seen.append(region)
        return seen

    def locate(self, x: float, y: float, offset: int):
        """Density membership, one region at a time: each region's
        closest member at ``np.sqrt(dx*dx + dy*dy)``, and the closest
        region within ``eps`` — the later region on a tie."""
        best, best_dist = None, self.regions.eps
        for region in self.regions.at_offset(offset):
            dx = region.points[:, 0] - x
            dy = region.points[:, 1] - y
            dist = np.sqrt(dx * dx + dy * dy).min()
            if dist <= best_dist:
                best, best_dist = region, dist
        return best

    def forward_query(
        self, recent: Sequence[TimedPoint], query_time: int, k: int
    ) -> list[Prediction]:
        recent_regions = self.map_recent_to_regions(recent)
        query_key = self.codec.encode_query(
            recent_regions, query_time % self.config.period
        )
        premise_length = self.codec.premise_length
        q_rk = query_key.value & ((1 << premise_length) - 1)
        q_ck = query_key.value >> premise_length
        candidates = self._scan(
            lambda sig: sig & q_rk != 0 and (sig >> premise_length) & q_ck != 0
        )
        if not candidates:
            return [self._motion_prediction(recent, query_time)]
        kind = self.config.weight_function
        scored = []
        for pattern, key in candidates:
            sr = legacy_premise_similarity(key.premise_key, query_key.premise_key, kind)
            scored.append((fqp_score(sr, pattern.confidence), pattern, key))
        return [
            Prediction(
                location=pattern.consequence.center,
                method="fqp",
                score=score,
                pattern=pattern,
            )
            for score, pattern in self._rank(scored, k)
        ]

    def backward_query(
        self, recent: Sequence[TimedPoint], query_time: int, k: int
    ) -> list[Prediction]:
        tc = recent[-1].t
        recent_regions = self.map_recent_to_regions(recent)
        query_key = self.codec.encode_query(
            recent_regions, query_time % self.config.period
        )
        kind = self.config.weight_function
        period = self.config.period
        t_eps = self.config.time_relaxation
        i = 1
        while True:
            relaxation = i * t_eps
            offsets = {
                t % period
                for t in range(query_time - relaxation, query_time + relaxation + 1)
            }
            mask = self.codec.consequence_mask(offsets)
            shift = self.codec.premise_length
            candidates = self._scan(lambda sig: (sig >> shift) & mask != 0)
            if candidates:
                horizon = query_time - tc
                scored = []
                for pattern, key in candidates:
                    sr = legacy_premise_similarity(
                        key.premise_key, query_key.premise_key, kind
                    )
                    diff = abs(pattern.consequence_offset - query_time % period) % period
                    sc = consequence_similarity(min(diff, period - diff), relaxation)
                    scored.append(
                        (
                            bqp_score(
                                sr,
                                sc,
                                pattern.confidence,
                                self.config.distant_threshold,
                                horizon,
                            ),
                            pattern,
                            key,
                        )
                    )
                return [
                    Prediction(
                        location=pattern.consequence.center,
                        method="bqp",
                        score=score,
                        pattern=pattern,
                    )
                    for score, pattern in self._rank(scored, k)
                ]
            i += 1
            if query_time - i * t_eps <= tc:
                return [self._motion_prediction(recent, query_time)]

    def _scan(self, predicate) -> list:
        """Brute-force scan: ``(pattern, key)`` per pattern whose key value
        satisfies ``predicate``."""
        return [(pattern, key) for pattern, key in self.keyed if predicate(key.value)]

    def _rank(self, scored: list, k: int) -> list:
        """Full sort of ``(score, pattern, key)``, then the top ``k``."""
        region_id = self.regions.region_id
        scored.sort(
            key=lambda spk: (
                -spk[0],
                -spk[1].confidence,
                -spk[1].support,
                spk[2].value,
                region_id(spk[1].consequence),
            )
        )
        return [(score, pattern) for score, pattern, _key in scored[:k]]

    def _motion_prediction(
        self, recent: Sequence[TimedPoint], query_time: int
    ) -> Prediction:
        window = list(recent)[-self.config.recent_window :]
        try:
            func = self.motion_factory()
            func.fit(window)
            return Prediction(location=func.predict(query_time), method="motion")
        except ValueError:
            pass
        if len(window) >= 2:
            try:
                linear = LinearMotionFunction()
                linear.fit(window)
                return Prediction(location=linear.predict(query_time), method="motion")
            except ValueError:
                pass
        return Prediction(location=window[-1].point, method="motion")

    def predict_trajectory(
        self, recent: Sequence[TimedPoint], t_from: int, t_to: int, step: int = 1
    ) -> list[tuple[int, Prediction]]:
        return [
            (t, self.predict(recent, t, k=1)[0])
            for t in range(t_from, t_to + 1, step)
        ]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def build_model(subtrajectories: int, period: int) -> HybridPredictionModel:
    dataset = make_dataset("bike", subtrajectories, period, seed=0)
    config = HPMConfig(
        period=period,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=max(2, period // 5),
        recent_window=4,
    )
    model = HybridPredictionModel(config).fit(dataset.trajectory)
    assert model.predictor_ is not None, "dataset produced no patterns"
    return model


def build_windows(
    model: HybridPredictionModel, count: int
) -> list[list[TimedPoint]]:
    """Recent windows cut from the training trajectory at varied phases.

    Timestamps are aligned so sample offsets match the source positions
    (the history length is a multiple of the period).
    """
    positions = model.history_.positions
    width = model.config.recent_window
    windows = []
    for w in range(count):
        start = (w * 7) % (len(positions) - width)
        t0 = len(positions) + start
        windows.append(
            [
                TimedPoint(t0 + j, float(x), float(y))
                for j, (x, y) in enumerate(positions[start : start + width])
            ]
        )
    return windows


def build_fleet_windows(
    model: HybridPredictionModel, count: int
) -> dict[str, list[TimedPoint]]:
    """Per-object recent windows sharing one current time ``tc``.

    ``predict_all`` answers every object at a single query time, so all
    windows must end together; each object rides a different same-phase
    slice of the training history (timestamps stay offset-aligned because
    the history length is a multiple of the period).
    """
    positions = model.history_.positions
    period = model.config.period
    width = model.config.recent_window
    t0 = len(positions)  # offset 0, like the history's first row
    slices = (len(positions) - width) // period
    windows: dict[str, list[TimedPoint]] = {}
    for w in range(count):
        start = (w % slices) * period
        windows[f"obj{w:03d}"] = [
            TimedPoint(t0 + j, float(x), float(y))
            for j, (x, y) in enumerate(positions[start : start + width])
        ]
    return windows


def run_predict_all(predict_all, recents, horizons, repeats: int):
    """Time ``predict_all`` over a horizon mix; fingerprint the first pass."""
    tc = next(iter(recents.values()))[-1].t
    latencies: list[float] = []
    chunks = []
    start = time.perf_counter()
    for r in range(repeats):
        for h in horizons:
            t1 = time.perf_counter()
            result = predict_all(recents, tc + h)
            latencies.append(time.perf_counter() - t1)
            if r == 0:
                chunks.append(sorted(result.items()))
    elapsed = time.perf_counter() - start
    return latencies, elapsed, fingerprint(chunks)


def single_query_workload(
    model: HybridPredictionModel, windows: list[list[TimedPoint]]
) -> list[tuple[list[TimedPoint], int]]:
    d = model.config.distant_threshold
    horizons = (1, 2, max(1, d - 1), d, d + 3, 2 * d + 1, 4 * d)
    return [(w, w[-1].t + h) for w in windows for h in horizons]


def fingerprint(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(repr(chunk).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_single(engine_predict, workload, repeats: int):
    latencies: list[float] = []
    chunks = []
    start = time.perf_counter()
    for r in range(repeats):
        for recent, tq in workload:
            t1 = time.perf_counter()
            result = engine_predict(recent, tq, SINGLE_K)
            latencies.append(time.perf_counter() - t1)
            if r == 0:
                chunks.append(result)
    elapsed = time.perf_counter() - start
    return latencies, elapsed, fingerprint(chunks)


def run_sweeps(engine_sweep, windows, sweep_len: int, repeats: int):
    latencies: list[float] = []
    chunks = []
    start = time.perf_counter()
    for r in range(repeats):
        for recent in windows:
            tc = recent[-1].t
            t1 = time.perf_counter()
            result = engine_sweep(recent, tc + 1, tc + sweep_len)
            latencies.append(time.perf_counter() - t1)
            if r == 0:
                chunks.append(result)
    elapsed = time.perf_counter() - start
    return latencies, elapsed, fingerprint(chunks)


def summarize(latencies: list[float], elapsed: float, queries: int) -> dict:
    return {
        "p50_ms": round(statistics.median(latencies) * 1e3, 4),
        "p95_ms": round(
            statistics.quantiles(latencies, n=20)[-1] * 1e3
            if len(latencies) >= 20
            else max(latencies) * 1e3,
            4,
        ),
        "total_seconds": round(elapsed, 3),
        "qps": round(queries / elapsed, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subtrajectories", type=int, default=40)
    parser.add_argument("--period", type=int, default=96)
    parser.add_argument("--windows", type=int, default=24)
    parser.add_argument("--sweep-len", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--objects",
        type=int,
        default=40,
        help="fleet size for the predict_all A/B",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small corpus, few windows, one repeat",
    )
    parser.add_argument("--output", default="BENCH_predict_kernel.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.subtrajectories, args.period = 10, 24
        args.windows, args.sweep_len, args.repeats = 6, 30, 1
        args.objects = 8
    return run_bench(args)


def run_bench(args) -> int:
    print(
        f"fitting model ({args.subtrajectories} sub-trajectories x "
        f"T={args.period}) ..."
    )
    model = build_model(args.subtrajectories, args.period)
    legacy = LegacyPredictor(model)
    windows = build_windows(model, args.windows)
    workload = single_query_workload(model, windows)
    fleet_windows = build_fleet_windows(model, args.objects)
    d = model.config.distant_threshold
    fleet_horizons = (1, 2, max(1, d - 1), d + 3)

    fleet = FleetPredictionModel(model.config)
    for object_id in fleet_windows:
        fleet.adopt_object(object_id, model)

    def legacy_predict_all(recents, query_time):
        # The per-object loop predict_all's batching must reproduce.
        return {
            object_id: legacy.predict(recent, query_time, 1)[0]
            for object_id, recent in recents.items()
        }

    # Verification pass first — untimed, so a mismatch can never hide
    # behind a speedup headline.
    print("verifying kernel == legacy fingerprints (untimed) ...")
    checks = {}
    _, _, legacy_fp = run_single(legacy.predict, workload, 1)
    _, _, kernel_fp = run_single(model.predict, workload, 1)
    checks["single_query"] = (legacy_fp, kernel_fp)
    _, _, legacy_fp = run_sweeps(
        legacy.predict_trajectory, windows, args.sweep_len, 1
    )
    _, _, kernel_fp = run_sweeps(model.predict_trajectory, windows, args.sweep_len, 1)
    checks["trajectory_sweep"] = (legacy_fp, kernel_fp)
    _, _, legacy_fp = run_predict_all(
        legacy_predict_all, fleet_windows, fleet_horizons, 1
    )
    _, _, kernel_fp = run_predict_all(
        fleet.predict_all, fleet_windows, fleet_horizons, 1
    )
    checks["predict_all"] = (legacy_fp, kernel_fp)
    for mode, (want, got) in checks.items():
        if want != got:
            print(
                f"FAIL: kernel diverged from legacy on {mode} "
                f"({got} != {want})",
                file=sys.stderr,
            )
            return 1
    print("  all modes byte-identical")

    def ab(legacy_run, kernel_run, queries):
        legacy_lat, legacy_s, _ = legacy_run()
        kernel_lat, kernel_s, fp = kernel_run()
        result = {
            "legacy": summarize(legacy_lat, legacy_s, queries),
            "kernel": summarize(kernel_lat, kernel_s, queries),
            "speedup": round(legacy_s / kernel_s, 2) if kernel_s else 0.0,
            "identical_predictions": True,
            "fingerprint": fp,
        }
        print(
            f"  legacy {legacy_s:.2f}s vs kernel {kernel_s:.2f}s "
            f"-> {result['speedup']}x"
        )
        return result

    print(
        f"single-query A/B: {len(workload)} queries x {args.repeats} repeats ..."
    )
    queries = len(workload) * args.repeats
    single = {
        "queries": queries,
        "k": SINGLE_K,
        **ab(
            lambda: run_single(legacy.predict, workload, args.repeats),
            lambda: run_single(model.predict, workload, args.repeats),
            queries,
        ),
    }

    print(
        f"trajectory-sweep A/B: {len(windows)} sweeps of {args.sweep_len} steps "
        f"x {args.repeats} repeats ..."
    )
    sweeps = len(windows) * args.repeats
    sweep = {
        "sweeps": sweeps,
        "steps_per_sweep": args.sweep_len,
        **ab(
            lambda: run_sweeps(
                legacy.predict_trajectory, windows, args.sweep_len, args.repeats
            ),
            lambda: run_sweeps(
                model.predict_trajectory, windows, args.sweep_len, args.repeats
            ),
            sweeps * args.sweep_len,
        ),
    }

    print(
        f"predict_all A/B: {len(fleet_windows)} objects x "
        f"{len(fleet_horizons)} horizons x {args.repeats} repeats ..."
    )
    calls = len(fleet_horizons) * args.repeats
    predict_all = {
        "objects": len(fleet_windows),
        "horizons": list(fleet_horizons),
        **ab(
            lambda: run_predict_all(
                legacy_predict_all, fleet_windows, fleet_horizons, args.repeats
            ),
            lambda: run_predict_all(
                fleet.predict_all, fleet_windows, fleet_horizons, args.repeats
            ),
            calls * len(fleet_windows),
        ),
    }

    report = {
        "benchmark": "predict_kernel",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "subtrajectories": args.subtrajectories,
        "period": args.period,
        "distant_threshold": d,
        "num_patterns": len(model.patterns_),
        "windows": len(windows),
        "single_query": single,
        "trajectory_sweep": sweep,
        "predict_all": predict_all,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"single {single['speedup']}x, sweep {sweep['speedup']}x, "
        f"predict_all {predict_all['speedup']}x; byte-identical: True; "
        f"wrote {args.output}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
