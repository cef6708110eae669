"""Integration checks for the README's quickstart claims.

The README promises a specific API surface; these tests pin it so doc
drift fails loudly.
"""

import numpy as np
import pytest


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        for name in (
            "HybridPredictionModel",
            "HPMConfig",
            "FleetPredictionModel",
            "Trajectory",
            "TimedPoint",
            "Point",
            "RecursiveMotionFunction",
            "LinearMotionFunction",
            "TrajectoryPattern",
            "TrajectoryPatternTree",
            "save_fleet",
            "load_fleet",
        ):
            assert hasattr(repro, name), f"README-advertised {name} missing"

    def test_readme_quickstart_compiles_and_runs(self):
        import repro
        from repro import HPMConfig, HybridPredictionModel, TimedPoint, Trajectory

        rng = np.random.default_rng(0)
        period = 20
        base = np.column_stack(
            [40.0 * np.arange(period), np.zeros(period)]
        )
        positions = np.vstack(
            [base + rng.normal(0, 1, base.shape) for _ in range(15)]
        )

        model = HybridPredictionModel(
            HPMConfig(
                period=period,
                eps=5.0,
                min_pts=4,
                min_confidence=0.3,
                distant_threshold=8,
            )
        )
        model.fit(Trajectory(positions))

        recent = [TimedPoint(300 + t, base[t][0], base[t][1]) for t in range(3)]
        predictions = model.predict(recent, 310, k=1)
        assert predictions[0].method in ("fqp", "bqp", "motion")
        assert hasattr(predictions[0].location, "x")

    def test_version_string(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_cli_module_invocable(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["synth", "bike", "-o", "/tmp/x.csv"])
        assert args.command == "synth"
