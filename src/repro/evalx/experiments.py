"""Experiment runners — one per table/figure of the paper's Section VII.

Every runner returns plain row dictionaries so the benchmark harness can
print them and EXPERIMENTS.md can record them.  The paper's full sweep
sizes are expensive in pure Python; :class:`ExperimentScale` captures the
protocol knobs, with :func:`quick_scale` (default for the benches) and
:func:`paper_scale` (the paper's exact 60-training/50-query protocol,
enabled with ``REPRO_FULL=1``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.config import HPMConfig
from ..core.keys import KeyCodec
from ..core.model import HybridPredictionModel
from ..core.patterns import (
    TrajectoryPattern,
    count_rules_unpruned,
    region_visit_masks,
)
from ..core.prediction import HybridPredictor
from ..core.regions import FrequentRegion, RegionSet
from ..core.scorekernel import ScoreKernel
from ..core.tpt import TrajectoryPatternTree
from ..trajectory.dataset import TrajectoryDataset
from ..trajectory.point import BoundingBox, Point
from .harness import evaluate_hpm, evaluate_rmf
from .workloads import generate_queries

__all__ = [
    "ExperimentScale",
    "quick_scale",
    "paper_scale",
    "scale_from_env",
    "fit_model",
    "full_sweeps_enabled",
    "run_baseline_comparison",
    "run_chooseleaf_ablation",
    "run_fanout_ablation",
    "run_prediction_length",
    "run_subtrajectories",
    "run_eps",
    "run_minpts",
    "run_confidence",
    "run_query_time",
    "run_tpt_scaling",
    "run_pruning_ablation",
    "run_weight_functions",
    "run_time_relaxation",
    "run_top_k",
    "synthesize_regions",
    "synthesize_patterns",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Protocol knobs shared by the accuracy/cost experiments."""

    dataset_subtrajectories: int = 80
    training_subtrajectories: int = 60
    num_queries: int = 50
    period: int = 300
    seed: int = 123

    def __post_init__(self) -> None:
        if self.training_subtrajectories >= self.dataset_subtrajectories:
            raise ValueError(
                "need held-out sub-trajectories: training "
                f"{self.training_subtrajectories} >= dataset "
                f"{self.dataset_subtrajectories}"
            )


def quick_scale() -> ExperimentScale:
    """Reduced protocol for routine benchmark runs."""
    return ExperimentScale(
        dataset_subtrajectories=45,
        training_subtrajectories=30,
        num_queries=20,
    )


def paper_scale() -> ExperimentScale:
    """The paper's protocol: 60 training sub-trajectories, 50 queries."""
    return ExperimentScale(
        dataset_subtrajectories=80,
        training_subtrajectories=60,
        num_queries=50,
    )


def scale_from_env() -> ExperimentScale:
    """``paper_scale`` when ``REPRO_FULL=1`` is set, else ``quick_scale``."""
    return paper_scale() if os.environ.get("REPRO_FULL") == "1" else quick_scale()


def full_sweeps_enabled() -> bool:
    """Whether benches should run the paper's full parameter grids."""
    return os.environ.get("REPRO_FULL") == "1"


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
def fit_model(
    dataset: TrajectoryDataset,
    scale: ExperimentScale,
    **config_overrides,
) -> HybridPredictionModel:
    """Fit an HPM on the dataset's training split under ``scale``.

    The paper's d = 60 only makes sense for T = 300; for smaller periods
    (test-scale datasets) the distant threshold defaults to T/5 instead.
    """
    if "distant_threshold" not in config_overrides:
        config_overrides["distant_threshold"] = max(1, min(60, dataset.period // 5))
    config = HPMConfig(period=dataset.period, **config_overrides)
    model = HybridPredictionModel(config)
    model.fit(dataset.training_split(scale.training_subtrajectories))
    return model


def _workload(
    dataset: TrajectoryDataset,
    prediction_length: int,
    scale: ExperimentScale,
    recent_window: int,
    seed_offset: int = 0,
):
    rng = np.random.default_rng(scale.seed + seed_offset)
    return generate_queries(
        dataset,
        prediction_length=prediction_length,
        num_queries=scale.num_queries,
        num_training_subtrajectories=scale.training_subtrajectories,
        recent_window=recent_window,
        rng=rng,
    )


# ----------------------------------------------------------------------
# Fig. 5 — effect of prediction length
# ----------------------------------------------------------------------
def run_prediction_length(
    dataset: TrajectoryDataset,
    lengths: list[int],
    scale: ExperimentScale,
    **config_overrides,
) -> list[dict]:
    """HPM vs RMF average error for each prediction length (Fig. 5)."""
    model = fit_model(dataset, scale, **config_overrides)
    rows: list[dict] = []
    for length in lengths:
        workload = _workload(
            dataset, length, scale, model.config.recent_window, seed_offset=length
        )
        hpm = evaluate_hpm(model, workload)
        rmf = evaluate_rmf(workload)
        rows.append(
            {
                "dataset": dataset.name,
                "prediction_length": length,
                "hpm_error": hpm.mean_error,
                "rmf_error": rmf.mean_error,
                "hpm_methods": dict(hpm.method_counts),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 6 — effect of the number of training sub-trajectories
# ----------------------------------------------------------------------
def run_subtrajectories(
    dataset: TrajectoryDataset,
    counts: list[int],
    scale: ExperimentScale,
    prediction_length: int = 50,
    **config_overrides,
) -> list[dict]:
    """HPM vs RMF error as the training corpus grows (Fig. 6)."""
    rows: list[dict] = []
    for count in counts:
        sub_scale = ExperimentScale(
            dataset_subtrajectories=scale.dataset_subtrajectories,
            training_subtrajectories=count,
            num_queries=scale.num_queries,
            period=scale.period,
            seed=scale.seed,
        )
        model = fit_model(dataset, sub_scale, **config_overrides)
        workload = _workload(
            dataset,
            prediction_length,
            sub_scale,
            model.config.recent_window,
            seed_offset=count,
        )
        hpm = evaluate_hpm(model, workload)
        rmf = evaluate_rmf(workload)
        rows.append(
            {
                "dataset": dataset.name,
                "num_subtrajectories": count,
                "hpm_error": hpm.mean_error,
                "rmf_error": rmf.mean_error,
                "num_patterns": model.pattern_count,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figs. 7/8 — effect of the DBSCAN parameters
# ----------------------------------------------------------------------
def run_eps(
    dataset: TrajectoryDataset,
    eps_values: list[float],
    scale: ExperimentScale,
    prediction_length: int = 50,
    **config_overrides,
) -> list[dict]:
    """Pattern count and error as Eps varies (Fig. 7)."""
    rows: list[dict] = []
    for eps in eps_values:
        model = fit_model(dataset, scale, eps=eps, **config_overrides)
        workload = _workload(
            dataset,
            prediction_length,
            scale,
            model.config.recent_window,
            seed_offset=int(eps),
        )
        hpm = evaluate_hpm(model, workload)
        rows.append(
            {
                "dataset": dataset.name,
                "eps": eps,
                "num_patterns": model.pattern_count,
                "hpm_error": hpm.mean_error,
            }
        )
    return rows


def run_minpts(
    dataset: TrajectoryDataset,
    minpts_values: list[int],
    scale: ExperimentScale,
    prediction_length: int = 50,
    **config_overrides,
) -> list[dict]:
    """Pattern count and error as MinPts varies (Fig. 8)."""
    rows: list[dict] = []
    for min_pts in minpts_values:
        model = fit_model(dataset, scale, min_pts=min_pts, **config_overrides)
        workload = _workload(
            dataset,
            prediction_length,
            scale,
            model.config.recent_window,
            seed_offset=min_pts,
        )
        hpm = evaluate_hpm(model, workload)
        rows.append(
            {
                "dataset": dataset.name,
                "min_pts": min_pts,
                "num_patterns": model.pattern_count,
                "hpm_error": hpm.mean_error,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — effect of minimum confidence
# ----------------------------------------------------------------------
def run_confidence(
    dataset: TrajectoryDataset,
    confidence_values: list[float],
    scale: ExperimentScale,
    prediction_length: int = 50,
    **config_overrides,
) -> list[dict]:
    """Pattern count and error as the confidence threshold varies (Fig. 9).

    Mines once at confidence 0 and filters per threshold — same corpus the
    paper would get from re-mining, without re-running DBSCAN/Apriori.
    """
    base_model = fit_model(dataset, scale, min_confidence=0.0, **config_overrides)
    all_patterns = base_model.patterns_
    rows: list[dict] = []
    for threshold in confidence_values:
        kept = [p for p in all_patterns if p.confidence >= threshold]
        predictor = _predictor_from_patterns(
            base_model.regions_, kept, base_model.config
        )
        workload = _workload(
            dataset,
            prediction_length,
            scale,
            base_model.config.recent_window,
            seed_offset=int(threshold * 100),
        )
        if predictor is None:
            # No patterns survive: every query falls back to the motion
            # function, equivalent to evaluating RMF.
            result = evaluate_rmf(workload)
        else:
            result = _evaluate_predictor(predictor, workload)
        rows.append(
            {
                "dataset": dataset.name,
                "min_confidence": threshold,
                "num_patterns": len(kept),
                "hpm_error": result.mean_error,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 10 — query response time
# ----------------------------------------------------------------------
def run_query_time(
    dataset: TrajectoryDataset,
    counts: list[int],
    scale: ExperimentScale,
    prediction_length: int = 50,
    num_queries: int = 30,
    **config_overrides,
) -> list[dict]:
    """HPM vs RMF mean query latency as the training corpus grows (Fig. 10).

    The paper averages 30 queries; HPM's cost falls with more patterns
    because fewer queries fall back to (expensive) RMF fitting.
    """
    rows: list[dict] = []
    for count in counts:
        sub_scale = ExperimentScale(
            dataset_subtrajectories=scale.dataset_subtrajectories,
            training_subtrajectories=count,
            num_queries=num_queries,
            period=scale.period,
            seed=scale.seed,
        )
        model = fit_model(dataset, sub_scale, **config_overrides)
        workload = _workload(
            dataset,
            prediction_length,
            sub_scale,
            model.config.recent_window,
            seed_offset=1000 + count,
        )
        hpm = evaluate_hpm(model, workload)
        rmf = evaluate_rmf(workload)
        rows.append(
            {
                "dataset": dataset.name,
                "num_subtrajectories": count,
                "hpm_ms": hpm.mean_query_ms,
                "rmf_ms": rmf.mean_query_ms,
                "motion_fallbacks": hpm.method_counts.get("motion", 0),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 11 — TPT storage and search cost at scale
# ----------------------------------------------------------------------
def synthesize_regions(
    num_regions: int, period: int, rng: np.random.Generator
) -> RegionSet:
    """A synthetic region universe for index-scaling experiments.

    Regions are spread uniformly over the period's offsets with random
    single-point geometry — enough structure for key encoding without a
    mining run.
    """
    if num_regions < 2:
        raise ValueError(f"num_regions must be >= 2, got {num_regions}")
    regions: list[FrequentRegion] = []
    per_offset: dict[int, int] = {}
    for i in range(num_regions):
        offset = int((i * period) / num_regions) % period
        index = per_offset.get(offset, 0)
        per_offset[offset] = index + 1
        center = rng.uniform(0.0, 10000.0, 2)
        points = center[None, :].repeat(2, axis=0)
        regions.append(
            FrequentRegion(
                offset=offset,
                index=index,
                center=Point(float(center[0]), float(center[1])),
                points=points,
                bbox=BoundingBox(
                    float(center[0]), float(center[1]), float(center[0]), float(center[1])
                ),
                subtrajectory_ids=(0, 1),
            )
        )
    return RegionSet(regions, period=period, eps=30.0)


def synthesize_patterns(
    regions: RegionSet,
    num_patterns: int,
    rng: np.random.Generator,
    max_premise_length: int = 2,
) -> list[TrajectoryPattern]:
    """Random trajectory patterns over a synthetic region universe."""
    if num_patterns < 1:
        raise ValueError(f"num_patterns must be >= 1, got {num_patterns}")
    all_regions = list(regions)
    all_regions.sort(key=lambda r: (r.offset, r.index))
    patterns: list[TrajectoryPattern] = []
    while len(patterns) < num_patterns:
        length = int(rng.integers(1, max_premise_length + 1))
        picks = sorted(
            rng.choice(len(all_regions), size=length + 1, replace=False).tolist()
        )
        chosen = [all_regions[i] for i in picks]
        offsets = [r.offset for r in chosen]
        if len(set(offsets)) != len(offsets):
            continue  # premise/consequence offsets must be distinct
        patterns.append(
            TrajectoryPattern(
                premise=tuple(chosen[:-1]),
                consequence=chosen[-1],
                support=int(rng.integers(4, 60)),
                confidence=float(rng.uniform(0.3, 1.0)),
            )
        )
    return patterns


def run_tpt_scaling(
    pattern_counts: list[int],
    region_counts: list[int],
    period: int = 300,
    num_queries: int = 200,
    seed: int = 7,
) -> list[dict]:
    """TPT storage and search cost vs corpus size (Figs. 11a/11b).

    For each (patterns, regions) combination: build the TPT, estimate its
    storage analytically from node geometry, and time an Intersect search
    against the TPT and against a brute-force scan of the same corpus.
    """
    rows: list[dict] = []
    for num_regions in region_counts:
        rng = np.random.default_rng(seed + num_regions)
        regions = synthesize_regions(num_regions, period, rng)
        for num_patterns in pattern_counts:
            patterns = synthesize_patterns(regions, num_patterns, rng)
            codec = KeyCodec.from_patterns(regions, patterns)
            tree = TrajectoryPatternTree(codec)
            tree.bulk_load_patterns(patterns)
            stats = tree.stats()
            storage_mb = stats.storage_bytes() / (1024.0 * 1024.0)

            encoded = [(codec.encode_pattern(p), p) for p in patterns]
            query_keys = [
                codec.encode_query(
                    encoded[int(rng.integers(len(encoded)))][1].premise,
                    encoded[int(rng.integers(len(encoded)))][1].consequence_offset,
                )
                for _ in range(num_queries)
            ]

            start = time.perf_counter()
            for qk in query_keys:
                tree.search_candidates(qk)
            tpt_ms = 1000.0 * (time.perf_counter() - start) / num_queries

            start = time.perf_counter()
            for qk in query_keys:
                [p for key, p in encoded if key.intersects(qk)]
            brute_ms = 1000.0 * (time.perf_counter() - start) / num_queries

            rows.append(
                {
                    "num_regions": num_regions,
                    "num_patterns": num_patterns,
                    "storage_mb": storage_mb,
                    "tpt_ms": tpt_ms,
                    "brute_ms": brute_ms,
                    "tree_height": stats.height,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Text-claim ablations
# ----------------------------------------------------------------------
def run_pruning_ablation(
    dataset: TrajectoryDataset, scale: ExperimentScale, **config_overrides
) -> dict:
    """Pruned vs unpruned rule counts (Section IV reports a 58 % reduction)."""
    model = fit_model(dataset, scale, **config_overrides)
    pruned = model.pattern_count
    stats = model.mining_stats_
    # Reuse the mining run's vertical masks when they were counted over
    # the same transaction universe; rebuild them from the fitted regions
    # otherwise, so the ablation always counts through the shipped bitmap
    # path (never the subset-scan fallback).
    masks = (
        stats.region_masks
        if stats.num_transactions == scale.training_subtrajectories
        else region_visit_masks(model.regions_, scale.training_subtrajectories)
    )
    unpruned = count_rules_unpruned(
        model.patterns_,
        model.regions_,
        scale.training_subtrajectories,
        model.config.min_confidence,
        masks=masks,
    )
    reduction = 0.0 if unpruned == 0 else 100.0 * (1.0 - pruned / unpruned)
    return {
        "dataset": dataset.name,
        "pruned_patterns": pruned,
        "unpruned_rules": unpruned,
        "reduction_pct": reduction,
    }


def run_weight_functions(
    dataset: TrajectoryDataset,
    scale: ExperimentScale,
    prediction_length: int = 30,
    **config_overrides,
) -> list[dict]:
    """Error per premise-weight family (Section VI-A: linear/quadratic best).

    The weight family only affects query-time ranking, so the corpus is
    mined once and re-queried under each family on the *same* workload
    (paired comparison).  Longer premises (length 3) are mined so the
    families actually have room to disagree — with the default length-2
    premises every intersecting candidate tends to tie at S_r = 1.
    """
    config_overrides.setdefault("max_premise_length", 3)
    config_overrides.setdefault("max_premise_span", 4)
    model = fit_model(dataset, scale, **config_overrides)
    workload = _workload(
        dataset, prediction_length, scale, model.config.recent_window
    )
    rows: list[dict] = []
    for kind in ("linear", "quadratic", "exponential", "factorial"):
        predictor = _requery_predictor(model, weight_function=kind)
        result = (
            _evaluate_predictor(predictor, workload)
            if predictor is not None
            else evaluate_rmf(workload)
        )
        rows.append(
            {
                "dataset": dataset.name,
                "weight_function": kind,
                "hpm_error": result.mean_error,
            }
        )
    return rows


def run_time_relaxation(
    dataset: TrajectoryDataset,
    scale: ExperimentScale,
    relaxations: list[int] = [1, 2, 3, 5, 8],
    prediction_length: int = 100,
    **config_overrides,
) -> list[dict]:
    """Distant-query error per time relaxation t_eps (Section VI-C: 1–3 best).

    t_eps only affects BQP's interval retrieval, so the corpus is mined
    once and every relaxation is evaluated on the same workload.
    """
    model = fit_model(dataset, scale, **config_overrides)
    workload = _workload(
        dataset, prediction_length, scale, model.config.recent_window
    )
    rows: list[dict] = []
    for t_eps in relaxations:
        predictor = _requery_predictor(model, time_relaxation=t_eps)
        result = (
            _evaluate_predictor(predictor, workload)
            if predictor is not None
            else evaluate_rmf(workload)
        )
        rows.append(
            {
                "dataset": dataset.name,
                "time_relaxation": t_eps,
                "hpm_error": result.mean_error,
            }
        )
    return rows


def _requery_predictor(
    model: HybridPredictionModel, **query_overrides
) -> HybridPredictor | None:
    """A predictor over the model's mined corpus with query-time overrides.

    Returns ``None`` for pattern-free models (caller falls back to RMF).
    """
    kernel = model.kernel_
    if kernel is None:
        return None
    config = model.config.with_overrides(**query_overrides)
    if kernel.kind != config.weight_function:
        kernel = ScoreKernel.from_patterns(
            model.regions_, model.patterns_, config.weight_function
        )
    return HybridPredictor(
        regions=model.regions_, codec=model.codec_, kernel=kernel, config=config
    )


# ----------------------------------------------------------------------
# top-k accuracy (the paper returns k results but never sweeps k)
# ----------------------------------------------------------------------
def run_top_k(
    dataset: TrajectoryDataset,
    ks: list[int],
    scale: ExperimentScale,
    prediction_length: int = 50,
    **config_overrides,
) -> list[dict]:
    """Best-of-k error vs k on one shared workload.

    Error@k is the distance from the *closest* of the k returned
    locations to the truth — the metric a UI showing k candidate
    destinations cares about.  Monotone non-increasing in k by
    construction.

    Since many patterns share a consequence region, raw top-k patterns
    (the paper's output) collapse onto few distinct places; candidates
    are deduplicated by location here so each of the k slots carries new
    information.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"ks must be positive, got {ks}")
    model = fit_model(dataset, scale, **config_overrides)
    workload = _workload(
        dataset, prediction_length, scale, model.config.recent_window
    )
    ks = sorted(ks)
    max_k = ks[-1]
    per_query_distinct: list[list[float]] = []
    for query in workload.queries:
        # Over-fetch ranked patterns, keep the first occurrence of each
        # distinct predicted location.
        predictions = model.predict(
            list(query.recent), query.query_time, k=max_k * 8
        )
        distinct: list[float] = []
        seen: set[tuple[float, float]] = set()
        for p in predictions:
            spot = (p.location.x, p.location.y)
            if spot not in seen:
                seen.add(spot)
                distinct.append(p.location.distance_to(query.truth))
            if len(distinct) >= max_k:
                break
        per_query_distinct.append(distinct)

    rows: list[dict] = []
    for k in ks:
        errors = [min(d[:k]) for d in per_query_distinct]
        rows.append(
            {
                "dataset": dataset.name,
                "k": k,
                "error_at_k": float(np.mean(errors)),
            }
        )
    return rows


# ----------------------------------------------------------------------
# index-design ablations (DESIGN.md decisions)
# ----------------------------------------------------------------------
def run_chooseleaf_ablation(
    num_patterns: int = 20000,
    num_regions: int = 300,
    period: int = 300,
    num_queries: int = 200,
    seed: int = 5,
) -> dict:
    """Paper's Algorithm-1 ChooseLeaf vs the generic signature-tree rule.

    The paper's insertion additionally prefers entries whose keys
    *Intersect* the new key on both parts ("This condition is useful for
    efficient query processing ... cannot be achieved by the construction
    algorithm of signature tree").  The ablation builds the same corpus
    under both policies and compares nodes visited per Intersect query.
    """

    class GenericChooseLeafTPT(TrajectoryPatternTree):
        """TPT with the base signature-tree ChooseLeaf (no Intersect case)."""

        def _choose_subtree(self, node, signature):  # noqa: D401
            from ..signature.signature_tree import SignatureTree

            return SignatureTree._choose_subtree(self, node, signature)

    rng = np.random.default_rng(seed)
    regions = synthesize_regions(num_regions, period, rng)
    patterns = synthesize_patterns(regions, num_patterns, rng)
    codec = KeyCodec.from_patterns(regions, patterns)

    trees = {
        "algorithm1": TrajectoryPatternTree(codec),
        "generic": GenericChooseLeafTPT(codec),
    }
    for tree in trees.values():
        for p in patterns:  # identical insert order for both policies
            tree.insert_pattern(p)

    query_keys = []
    for _ in range(num_queries):
        probe = patterns[int(rng.integers(len(patterns)))]
        query_keys.append(codec.encode_query(probe.premise, probe.consequence_offset))

    result: dict = {"num_patterns": num_patterns, "num_regions": num_regions}
    for name, tree in trees.items():
        shift = codec.premise_length
        premise_mask = (1 << shift) - 1
        visited_total = 0
        hits_total = 0
        for qk in query_keys:
            q_rk = qk.value & premise_mask
            q_ck = qk.value >> shift

            def predicate(sig: int) -> bool:
                return (sig & premise_mask) & q_rk != 0 and (sig >> shift) & q_ck != 0

            hits, visited = tree.search_stats(predicate)
            visited_total += visited
            hits_total += len(hits)
        result[f"{name}_nodes_per_query"] = visited_total / num_queries
        result[f"{name}_hits"] = hits_total
    return result


def run_fanout_ablation(
    fanouts: list[int] = [8, 16, 32, 64, 128],
    num_patterns: int = 20000,
    num_regions: int = 300,
    period: int = 300,
    num_queries: int = 200,
    seed: int = 6,
) -> list[dict]:
    """TPT node capacity vs build time, storage and search cost."""
    rng = np.random.default_rng(seed)
    regions = synthesize_regions(num_regions, period, rng)
    patterns = synthesize_patterns(regions, num_patterns, rng)
    codec = KeyCodec.from_patterns(regions, patterns)
    probes = [
        codec.encode_query(p.premise, p.consequence_offset)
        for p in (patterns[int(rng.integers(len(patterns)))] for _ in range(num_queries))
    ]

    rows: list[dict] = []
    for fanout in fanouts:
        tree = TrajectoryPatternTree(codec, max_entries=fanout)
        start = time.perf_counter()
        tree.bulk_load_patterns(patterns)
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        for qk in probes:
            tree.search_candidates(qk)
        search_ms = 1000.0 * (time.perf_counter() - start) / num_queries
        stats = tree.stats()
        rows.append(
            {
                "fanout": fanout,
                "build_s": build_s,
                "search_ms": search_ms,
                "height": stats.height,
                "storage_mb": stats.storage_bytes() / (1024.0 * 1024.0),
            }
        )
    return rows


# ----------------------------------------------------------------------
# extended baseline comparison (beyond the paper's HPM-vs-RMF)
# ----------------------------------------------------------------------
def run_baseline_comparison(
    dataset: TrajectoryDataset,
    scale: ExperimentScale,
    prediction_lengths: list[int] = [20, 100],
    **config_overrides,
) -> list[dict]:
    """HPM vs RMF vs linear vs periodic mean vs last position.

    The periodic-mean baseline isolates the value of the rule machinery:
    it exploits periodicity (like HPM) but knows nothing about alternative
    routes or recent movements.  Last-position is the floor.
    """
    from ..motion.linear import LinearMotionFunction
    from ..motion.polynomial import PolynomialMotionFunction
    from .baselines import LastPositionPredictor, PeriodicMeanPredictor
    from .harness import evaluate_baseline, evaluate_motion_function

    model = fit_model(dataset, scale, **config_overrides)
    training = dataset.training_split(scale.training_subtrajectories)
    periodic = PeriodicMeanPredictor(dataset.period).fit(training)
    last = LastPositionPredictor()

    rows: list[dict] = []
    for length in prediction_lengths:
        workload = _workload(
            dataset, length, scale, model.config.recent_window, seed_offset=length
        )
        rows.append(
            {
                "dataset": dataset.name,
                "prediction_length": length,
                "hpm": evaluate_hpm(model, workload).mean_error,
                "rmf": evaluate_rmf(workload).mean_error,
                "linear": evaluate_motion_function(
                    LinearMotionFunction, workload, name="linear"
                ).mean_error,
                "polynomial": evaluate_motion_function(
                    PolynomialMotionFunction, workload, name="polynomial"
                ).mean_error,
                "periodic_mean": evaluate_baseline(
                    periodic, workload, "periodic_mean"
                ).mean_error,
                "last_position": evaluate_baseline(
                    last, workload, "last_position"
                ).mean_error,
            }
        )
    return rows


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------
def _predictor_from_patterns(
    regions: RegionSet, patterns: list[TrajectoryPattern], config: HPMConfig
) -> HybridPredictor | None:
    if not patterns:
        return None
    return HybridPredictor(
        regions=regions,
        codec=KeyCodec.from_patterns(regions, patterns),
        kernel=ScoreKernel.from_patterns(regions, patterns, config.weight_function),
        config=config,
    )


def _evaluate_predictor(predictor: HybridPredictor, workload):
    """Evaluate a bare predictor (no model facade) over a workload."""
    from ..trajectory.metrics import summarize_errors
    import time as _time

    errors = []
    start = _time.perf_counter()
    for query in workload.queries:
        prediction = predictor.predict(list(query.recent), query.query_time, k=1)[0]
        errors.append(prediction.location.distance_to(query.truth))
    elapsed = _time.perf_counter() - start
    from .harness import EvaluationResult

    summary = summarize_errors(errors)
    return EvaluationResult(
        predictor="hpm",
        errors=tuple(errors),
        mean_error=summary.mean,
        summary=summary,
        mean_query_ms=1000.0 * elapsed / max(len(errors), 1),
        method_counts=dict(predictor.stats),
    )
