"""Walkthrough of the paper's running example (Fig. 3, Tables I-III, §VI-B).

Reconstructs Jane's five frequent regions and four trajectory patterns,
prints the region-key / consequence-key / pattern-key tables exactly as
the paper shows them, builds the TPT and searches it for the Section VI-B
query ("recent movements R_0^0 and R_1^0, tq = 2"), then answers that
query, whose candidate scores the paper computes as 0.5 (Work) and 0.132
(Beach).

Run:  python examples/paper_walkthrough.py
"""

import numpy as np

from repro.core import HPMConfig, HybridPredictor, KeyCodec, TrajectoryPattern
from repro.core.regions import FrequentRegion, RegionSet
from repro.core.scorekernel import ScoreKernel
from repro.core.tpt import TrajectoryPatternTree
from repro.evalx import format_series
from repro.trajectory import BoundingBox, Point, TimedPoint


def make_region(offset: int, index: int, cx: float, cy: float) -> FrequentRegion:
    points = np.array([[cx - 1, cy], [cx + 1, cy], [cx, cy - 1], [cx, cy + 1]])
    return FrequentRegion(
        offset=offset,
        index=index,
        center=Point(cx, cy),
        points=points,
        bbox=BoundingBox(cx - 1, cy - 1, cx + 1, cy + 1),
        subtrajectory_ids=(0, 1, 2, 3),
    )


def main() -> None:
    # Fig. 3: Home (t=0), City / Shopping center (t=1), Work / Beach (t=2).
    home = make_region(0, 0, 0.0, 0.0)
    city = make_region(1, 0, 100.0, 0.0)
    shopping = make_region(1, 1, 0.0, 100.0)
    work = make_region(2, 0, 200.0, 0.0)
    beach = make_region(2, 1, 0.0, 200.0)
    regions = RegionSet([home, city, shopping, work, beach], period=3, eps=5.0)

    patterns = [
        TrajectoryPattern((home,), city, support=9, confidence=0.9),
        TrajectoryPattern((home,), shopping, support=8, confidence=0.8),
        TrajectoryPattern((home, city), work, support=5, confidence=0.5),
        TrajectoryPattern((home, shopping), beach, support=4, confidence=0.4),
    ]
    print("Trajectory patterns (Fig. 3):")
    for p in patterns:
        print(f"  {p}")

    codec = KeyCodec.from_patterns(regions, patterns)
    print(
        format_series(
            "Table I: region keys",
            ["frequent region", "region id", "region key"],
            codec.region_key_table(),
        )
    )
    print(
        format_series(
            "Table II: consequence keys",
            ["time offset", "time id", "consequence key"],
            codec.consequence_key_table(),
        )
    )
    print(
        format_series(
            "Table III: pattern keys",
            ["trajectory pattern", "pattern key"],
            [[str(p), codec.encode_pattern(p).to_bit_string()] for p in patterns],
        )
    )

    tree = TrajectoryPatternTree(codec, max_entries=4)
    tree.bulk_load_patterns(patterns)

    # Section VI-B query: Jane was at Home (t=0) then the City (t=1); where
    # is she at tq = 2?
    config = HPMConfig(
        period=3, eps=5.0, distant_threshold=2, time_relaxation=1, recent_window=3
    )
    kernel = ScoreKernel.from_patterns(regions, patterns, config.weight_function)
    predictor = HybridPredictor(regions, codec, kernel, config)
    recent = [TimedPoint(30, 0.0, 0.0), TimedPoint(31, 100.0, 0.0)]
    query_key = codec.encode_query(
        predictor.map_recent_to_regions(recent), query_offset=2
    )
    print(f"query pattern key (paper: 1000011): {query_key.to_bit_string()}")
    print("TPT Intersect search (Section V-C):")
    for pattern, key in tree.search_candidates(query_key):
        print(f"  {pattern}  key {key.to_bit_string()}")

    results = predictor.forward_query(recent, query_time=32, k=2)
    print("FQP ranking (paper: Work 0.5 > Beach 0.132):")
    for r in results:
        print(
            f"  {r.pattern.consequence.label} at "
            f"({r.location.x:.0f}, {r.location.y:.0f})  S_p = {r.score:.3f}"
        )


if __name__ == "__main__":
    main()
