"""Fit-path A/B: vectorized training pipeline vs the pre-overhaul algorithm.

PR 5 rebuilt the training hot path on array/bitmap kernels — batched CSR
ε-neighbourhoods consumed by a level-synchronous DBSCAN, one-pass offset
grouping with array-sliced region assembly, and bulk pattern-key encoding —
all under the same byte-identity contract as the PR 4 query-path overhaul.
This bench holds the contract to account: a ``LegacyFit`` re-implements the
old pipeline exactly (Python-loop grid build, n per-point neighbourhood
probes, deque BFS, per-offset-group masking passes, ``from_points`` bbox
loops, per-pattern key encoding) and both engines fit the same generated
dataset end-to-end (datagen → fit); the fitted state — frequent regions,
mined patterns, key-table geometry and every pattern key (the old engine's
TPT entries; the new engine packs the score kernel instead of a tree) — is
fingerprinted with SHA-256 and must match bit for bit.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_fit.py           # full
    PYTHONPATH=src python benchmarks/bench_fit.py --smoke   # CI-sized

Writes ``BENCH_fit.json``: per-phase seconds (cluster / mine / index;
the old index phase bulk-loads a TPT with node capacity 32, the new one
packs the score kernel),
end-to-end speedup and the fingerprints.  Exits 1 if the fitted states
disagree on any byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

import numpy as np

from repro import HPMConfig
from repro.core.fingerprint import fitted_state_fingerprint
from repro.core.keys import KeyCodec
from repro.core.model import HybridPredictionModel
from repro.core.patterns import TrajectoryPattern
from repro.core.regions import FrequentRegion, RegionSet
from repro.core.tpt import TrajectoryPatternTree
from repro.clustering.dbscan import NOISE, DBSCANResult
from repro.datagen import make_dataset
from repro.trajectory.point import BoundingBox, Point
from repro.trajectory.trajectory import Trajectory

_UNVISITED = -2


# ----------------------------------------------------------------------
# the legacy engine: the pre-PR-5 fit pipeline, verbatim
# ----------------------------------------------------------------------
class LegacyGridIndex:
    """The old grid: Python-loop cell build, one probe per query point."""

    __slots__ = ("_points", "_eps", "_cells")

    def __init__(self, points: np.ndarray, eps: float):
        self._points = np.asarray(points, dtype=np.float64)
        self._eps = float(eps)
        cells: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, (x, y) in enumerate(self._points):
            cells[self._cell_of(x, y)].append(i)
        self._cells = dict(cells)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self._eps)), int(math.floor(y / self._eps)))

    def neighbors(self, index: int) -> np.ndarray:
        x, y = self._points[index]
        cx, cy = self._cell_of(float(x), float(y))
        candidates: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if bucket:
                    candidates.extend(bucket)
        if not candidates:
            return np.empty(0, dtype=np.int64)
        cand = np.asarray(candidates, dtype=np.int64)
        diffs = self._points[cand] - np.array([float(x), float(y)], dtype=np.float64)
        dist2 = np.einsum("ij,ij->i", diffs, diffs)
        return cand[dist2 <= self._eps * self._eps]


def legacy_dbscan(points: np.ndarray, eps: float, min_pts: int) -> DBSCANResult:
    """The old DBSCAN: n Python-level probes + a deque BFS per cluster."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    if n == 0:
        return DBSCANResult(labels=labels, num_clusters=0, core_mask=core_mask)

    index = LegacyGridIndex(points, eps)
    neighborhoods = [index.neighbors(i) for i in range(n)]
    core_mask = np.array([len(nb) >= min_pts for nb in neighborhoods], dtype=bool)

    cluster_id = 0
    for seed in range(n):
        if labels[seed] != _UNVISITED:
            continue
        if not core_mask[seed]:
            labels[seed] = NOISE
            continue
        labels[seed] = cluster_id
        queue: deque[int] = deque(int(j) for j in neighborhoods[seed])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster_id
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster_id
            if core_mask[j]:
                queue.extend(int(k) for k in neighborhoods[j])
        cluster_id += 1

    labels[labels == _UNVISITED] = NOISE
    return DBSCANResult(labels=labels, num_clusters=cluster_id, core_mask=core_mask)


def legacy_discover_frequent_regions(
    trajectory: Trajectory, period: int, eps: float, min_pts: int
) -> RegionSet:
    """The old discovery loop: one masking pass and bbox loop per group."""
    regions: list[FrequentRegion] = []
    for group in trajectory.offset_groups(period):
        if len(group) == 0:
            continue
        result = legacy_dbscan(group.positions, eps=eps, min_pts=min_pts)
        for j in range(result.num_clusters):
            member_idx = result.members(j)
            points = group.positions[member_idx]
            centroid = points.mean(axis=0)
            regions.append(
                FrequentRegion(
                    offset=group.offset,
                    index=j,
                    center=Point(float(centroid[0]), float(centroid[1])),
                    points=points,
                    bbox=BoundingBox.from_points(
                        [(float(x), float(y)) for x, y in points]
                    ),
                    subtrajectory_ids=tuple(
                        int(s) for s in group.subtrajectory_ids[member_idx]
                    ),
                )
            )
    return RegionSet(regions, period=period, eps=eps)


def legacy_region_visit_masks(
    regions: RegionSet, num_subtrajectories: int
) -> dict[FrequentRegion, int]:
    masks: dict[FrequentRegion, int] = {}
    for region in regions:
        mask = 0
        for sub_id in set(region.subtrajectory_ids):
            if 0 <= sub_id < num_subtrajectories:
                mask |= 1 << sub_id
        masks[region] = mask
    return masks


def legacy_mine_trajectory_patterns(
    regions: RegionSet,
    num_subtrajectories: int,
    min_support: int,
    min_confidence: float,
    max_premise_length: int,
    max_premise_span: int,
    max_consequence_gap: int | None,
    far_premise_stride: int,
) -> list[TrajectoryPattern]:
    """The old miner: set-loop masks + validating pattern construction."""
    masks = legacy_region_visit_masks(regions, num_subtrajectories)
    frequent_items = [
        (region, mask)
        for region, mask in masks.items()
        if mask.bit_count() >= min_support
    ]
    frequent_items.sort(key=lambda rm: (rm[0].offset, rm[0].index))

    premises = [((region,), mask) for region, mask in frequent_items]
    all_premises = list(premises)
    for _level in range(2, max_premise_length + 1):
        extended = []
        for premise, mask in premises:
            first_offset = premise[0].offset
            last_offset = premise[-1].offset
            for region, region_mask in frequent_items:
                if region.offset <= last_offset:
                    continue
                if region.offset - first_offset > max_premise_span:
                    break
                joint = mask & region_mask
                if joint.bit_count() >= min_support:
                    extended.append((premise + (region,), joint))
        all_premises.extend(extended)
        premises = extended
        if not premises:
            break

    patterns: list[TrajectoryPattern] = []
    for premise, premise_mask in all_premises:
        premise_support = premise_mask.bit_count()
        last_offset = premise[-1].offset
        far_eligible = (
            len(premise) == 1 and premise[0].offset % far_premise_stride == 0
        )
        for region, region_mask in frequent_items:
            if region.offset <= last_offset:
                continue
            if (
                max_consequence_gap is not None
                and not far_eligible
                and region.offset - last_offset > max_consequence_gap
            ):
                break
            joint = premise_mask & region_mask
            support = joint.bit_count()
            if support < min_support:
                continue
            confidence = support / premise_support
            if confidence >= min_confidence:
                patterns.append(
                    TrajectoryPattern(
                        premise=premise,
                        consequence=region,
                        support=support,
                        confidence=confidence,
                    )
                )
    return patterns


def legacy_fit(trajectory: Trajectory, config: HPMConfig):
    """The full old pipeline; returns (regions, patterns, codec, tree, phases)."""
    phases: dict[str, float] = {}
    start = time.perf_counter()
    regions = legacy_discover_frequent_regions(
        trajectory, period=config.period, eps=config.eps, min_pts=config.min_pts
    )
    mine_start = time.perf_counter()
    phases["cluster"] = mine_start - start
    num_subs = (len(trajectory) + config.period - 1) // config.period
    patterns = legacy_mine_trajectory_patterns(
        regions,
        num_subtrajectories=num_subs,
        min_support=config.effective_min_support,
        min_confidence=config.min_confidence,
        max_premise_length=config.max_premise_length,
        max_premise_span=config.max_premise_span,
        max_consequence_gap=config.effective_max_consequence_gap,
        far_premise_stride=config.far_premise_stride,
    )
    index_start = time.perf_counter()
    phases["mine"] = index_start - mine_start
    codec = KeyCodec.from_patterns(regions, patterns)
    tree = TrajectoryPatternTree(codec, max_entries=32)
    # The old bulk_load_patterns: one PatternKey object per pattern.
    tree.bulk_load([(codec.encode_pattern(p).value, p) for p in patterns])
    phases["index"] = time.perf_counter() - index_start
    return regions, patterns, codec, tree, phases


# ----------------------------------------------------------------------
# fingerprints over the fitted state
# ----------------------------------------------------------------------
def legacy_fingerprint(regions, patterns, codec, tree) -> str:
    """:func:`fitted_state_fingerprint` of the old engine's output, once
    its TPT is checked to index exactly each pattern under its key."""
    if tree is not None:
        indexed = sorted((e.signature, id(e.payload)) for e in tree.all_entries())
        encoded = sorted(zip(codec.encode_values(patterns), map(id, patterns)))
        if indexed != encoded:
            raise AssertionError("the old TPT indexes other entries than its patterns")
    return fitted_state_fingerprint(regions, patterns, codec)


# ----------------------------------------------------------------------
# the A/B
# ----------------------------------------------------------------------
def build_config(period: int) -> HPMConfig:
    return HPMConfig(
        period=period,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=max(2, period // 5),
        recent_window=4,
    )


def run_legacy(subtrajectories: int, period: int, config: HPMConfig):
    start = time.perf_counter()
    dataset = make_dataset("bike", subtrajectories, period, seed=0)
    datagen_s = time.perf_counter() - start
    fit_start = time.perf_counter()
    regions, patterns, codec, tree, phases = legacy_fit(dataset.trajectory, config)
    fit_s = time.perf_counter() - fit_start
    fp = legacy_fingerprint(regions, patterns, codec, tree)
    return datagen_s, fit_s, phases, fp, len(patterns)


def run_new(subtrajectories: int, period: int, config: HPMConfig):
    start = time.perf_counter()
    dataset = make_dataset("bike", subtrajectories, period, seed=0)
    datagen_s = time.perf_counter() - start
    fit_start = time.perf_counter()
    model = HybridPredictionModel(config).fit(dataset.trajectory)
    fit_s = time.perf_counter() - fit_start
    fp = fitted_state_fingerprint(model.regions_, model.patterns_, model.codec_)
    return datagen_s, fit_s, model.fit_phase_seconds_, fp, model.pattern_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subtrajectories", type=int, default=40)
    parser.add_argument("--period", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small corpus, one repeat",
    )
    parser.add_argument("--output", default="BENCH_fit.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.subtrajectories, args.period, args.repeats = 10, 48, 1

    config = build_config(args.period)
    print(
        f"fit A/B: bike dataset, {args.subtrajectories} sub-trajectories x "
        f"T={args.period}, {args.repeats} repeat(s) ..."
    )

    legacy_runs, new_runs = [], []
    legacy_fp = new_fp = None
    legacy_phases: dict[str, float] = {}
    new_phases: dict[str, float] = {}
    num_patterns = 0
    for r in range(args.repeats):
        datagen_s, fit_s, phases, fp, num_patterns = run_legacy(
            args.subtrajectories, args.period, config
        )
        legacy_runs.append((datagen_s, fit_s))
        if r == 0:
            legacy_fp, legacy_phases = fp, phases
        print(f"  legacy  run {r + 1}: datagen {datagen_s:.2f}s fit {fit_s:.2f}s")
        datagen_s, fit_s, phases, fp, _ = run_new(
            args.subtrajectories, args.period, config
        )
        new_runs.append((datagen_s, fit_s))
        if r == 0:
            new_fp, new_phases = fp, phases
        print(f"  new     run {r + 1}: datagen {datagen_s:.2f}s fit {fit_s:.2f}s")

    legacy_fit_s = min(fit for _, fit in legacy_runs)
    new_fit_s = min(fit for _, fit in new_runs)
    legacy_e2e_s = min(dg + fit for dg, fit in legacy_runs)
    new_e2e_s = min(dg + fit for dg, fit in new_runs)
    identical = legacy_fp == new_fp

    report = {
        "benchmark": "fit",
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "subtrajectories": args.subtrajectories,
        "period": args.period,
        "num_patterns": num_patterns,
        "repeats": args.repeats,
        "legacy": {
            "fit_seconds": round(legacy_fit_s, 3),
            "end_to_end_seconds": round(legacy_e2e_s, 3),
            "phases": {k: round(v, 3) for k, v in legacy_phases.items()},
        },
        "new": {
            "fit_seconds": round(new_fit_s, 3),
            "end_to_end_seconds": round(new_e2e_s, 3),
            "phases": {k: round(v, 3) for k, v in new_phases.items()},
        },
        "fit_speedup": round(legacy_fit_s / new_fit_s, 2) if new_fit_s else 0.0,
        "end_to_end_speedup": (
            round(legacy_e2e_s / new_e2e_s, 2) if new_e2e_s else 0.0
        ),
        "identical_fit": identical,
        "fingerprint": new_fp,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"fit {report['fit_speedup']}x, end-to-end "
        f"{report['end_to_end_speedup']}x; byte-identical: {identical}; "
        f"wrote {args.output}"
    )
    print(
        "  phases (legacy -> new): "
        + ", ".join(
            f"{k} {legacy_phases.get(k, 0.0):.2f}s -> {new_phases.get(k, 0.0):.2f}s"
            for k in ("cluster", "mine", "index")
        )
    )
    if not identical:
        print("FAIL: new fit path diverged from the legacy path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
