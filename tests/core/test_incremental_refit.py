"""Incremental (delta) refit: byte-identity with fit-from-scratch.

The contract under test (DESIGN.md §11): for ANY split of a history into
``fit(prefix)`` followed by ``update(chunk_1) ... update(chunk_n)`` — in
delta mode, full mode, or across the drift/staleness fallback boundary —
the resulting model state and its predictions are byte-identical to one
``fit`` over the concatenated history — full ties included, since both
rank equal-score candidates by the same canonical pattern identity.
"""

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.fingerprint import model_fingerprint, prediction_fingerprint
from repro.core.model import HybridPredictionModel
from repro.core import model as model_module
from repro.core.refit import StaleUpdateError, diff_pattern_corpus
from repro.datagen import make_dataset
from repro.trajectory import TimedPoint, Trajectory

PERIOD = 12


def make_config(**overrides) -> HPMConfig:
    params = dict(
        period=PERIOD, eps=5.0, min_pts=4, distant_threshold=5, recent_window=4
    )
    params.update(overrides)
    return HPMConfig(**params)


def make_route(num_blocks: int, seed: int = 0, displaced: int = 0) -> np.ndarray:
    """``num_blocks`` noisy periods along a line; the last ``displaced``
    blocks run a brand-new route (forces new frequent regions)."""
    rng = np.random.default_rng(seed)
    base = np.column_stack([70.0 * np.arange(PERIOD), 20.0 * np.arange(PERIOD)])
    blocks = []
    for b in range(num_blocks):
        block = base + rng.normal(0, 0.6, base.shape)
        if b >= num_blocks - displaced:
            block = block + 4000.0
        blocks.append(block)
    return np.vstack(blocks)


def queries(positions: np.ndarray, config: HPMConfig):
    n = positions.shape[0]
    window = config.recent_window
    out = []
    for start in (0, n // 3, n // 2):
        recent = [
            TimedPoint(n + t, float(positions[start + t, 0]), float(positions[start + t, 1]))
            for t in range(window)
        ]
        t_now = recent[-1].t
        out.append((recent, t_now + 2))
        out.append((recent, t_now + config.distant_threshold + 3))
    return out


def scratch(positions: np.ndarray, config: HPMConfig) -> HybridPredictionModel:
    return HybridPredictionModel(config).fit(Trajectory(positions.copy(), 0))


class TestSplitIdentity:
    """(fit, update*) == fit(concat), for any split."""

    @pytest.mark.parametrize(
        "chunks",
        [
            [144],  # one big update
            [5, 17, 7, 40, 23, 52],  # ragged, period-misaligned
            [1] * 10 + [134],  # pathological single-fix updates
        ],
    )
    def test_delta_updates_match_scratch(self, chunks):
        config = make_config()
        positions = make_route(26, seed=1)
        seed_rows = 14 * PERIOD
        assert sum(chunks) == positions.shape[0] - seed_rows
        model = scratch(positions[:seed_rows], config)
        at = seed_rows
        for chunk in chunks:
            model.update(positions[at : at + chunk], refit="delta")
            at += chunk
        oracle = scratch(positions, config)
        assert model_fingerprint(model) == model_fingerprint(oracle)
        q = queries(positions, config)
        assert prediction_fingerprint(model, q) == prediction_fingerprint(oracle, q)

    def test_full_updates_match_scratch(self):
        config = make_config()
        positions = make_route(20, seed=2)
        seed_rows = 16 * PERIOD
        model = scratch(positions[:seed_rows], config)
        model.update(positions[seed_rows : seed_rows + 30], refit="full")
        model.update(positions[seed_rows + 30 :], refit="full")
        oracle = scratch(positions, config)
        assert model_fingerprint(model) == model_fingerprint(oracle)

    def test_identity_across_rebuild_fallback(self):
        """A chunk introducing brand-new frequent regions forces the
        rebuild fallback mid-sequence; identity must hold across it."""
        config = make_config()
        positions = make_route(26, seed=3, displaced=5)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        indices = []
        for at in range(seed_rows, positions.shape[0], 36):
            model.update(positions[at : at + 36], refit="delta")
            indices.append(model.last_refit_stats_.index)
        assert "rebuilt" in indices  # the displaced route drifted the keys
        oracle = scratch(positions, config)
        assert model_fingerprint(model) == model_fingerprint(oracle)
        q = queries(positions, config)
        assert prediction_fingerprint(model, q) == prediction_fingerprint(oracle, q)

    def test_mixed_modes_match_scratch(self):
        config = make_config()
        positions = make_route(24, seed=4)
        seed_rows = 15 * PERIOD
        model = scratch(positions[:seed_rows], config)
        modes = ["delta", "full", "delta", "delta"]
        chunk = (positions.shape[0] - seed_rows) // len(modes)
        at = seed_rows
        for mode in modes:
            hi = min(at + chunk, positions.shape[0])
            model.update(positions[at:hi], refit=mode)
            at = hi
        assert model_fingerprint(model) == model_fingerprint(scratch(positions, config))


class TestTiedAnswerIdentity:
    """Delta-refitted answers equal a scratch fit's at k = 1..3, where
    equal-score candidates must be ranked the same way."""

    DAY = 48
    CONFIG = HPMConfig(
        period=DAY, eps=60.0, min_pts=4, min_confidence=0.3,
        distant_threshold=DAY // 5, recent_window=4,
    )

    @pytest.fixture(scope="class")
    def positions(self):
        dataset = make_dataset("airplane", 16, self.DAY, seed=3)
        return np.asarray(dataset.trajectory.positions, dtype=float)

    @pytest.mark.parametrize("days", [[1] * 6, [4, 1, 1]])
    def test_delta_answers_match_scratch_for_top_three(self, positions, days):
        day = self.DAY
        model = scratch(positions[: 8 * day], self.CONFIG)
        at = 8 * day
        for count in days:
            model.update(positions[at : at + count * day], refit="delta")
            at += count * day
        assert model.last_refit_stats_.mode == "delta"
        oracle = scratch(positions[:at], self.CONFIG)
        tied = 0
        for row in range(at + 3, at + day):
            recent = [TimedPoint(t, *positions[t]) for t in range(row - 3, row + 1)]
            for horizon in (2, 5, 8, 12, 18, 26, 36):
                want = oracle.predict(recent, row + horizon, 3)
                for k in (1, 2, 3):
                    got = model.predict(recent, row + horizon, k)
                    assert repr(got) == repr(want[:k]), (row, horizon, k)
                scores = [p.score for p in want]
                tied += len(set(scores)) < len(scores)
        assert tied > 0  # the comparison must actually meet full ties


class TestChurnFreeUpdate:
    """New rows that qualify nothing (DBSCAN noise) must not touch the
    installed score kernel."""

    def test_noise_only_update_keeps_kernel_untouched(self):
        config = make_config()
        positions = make_route(20, seed=5)
        model = scratch(positions, config)
        kernel_before = model.kernel_
        patterns_before = list(model.patterns_)
        # One scattered block far off-route: every point is noise at its
        # offset (one visit < min_pts), so no region gains or loses members.
        rng = np.random.default_rng(6)
        noise = rng.uniform(90000, 95000, (PERIOD, 2))
        model.update(noise, refit="delta")

        stats = model.last_refit_stats_
        assert stats.mode == "delta"
        assert stats.index == "kept"
        assert stats.changed_regions == 0
        assert (stats.patterns_added, stats.patterns_removed, stats.patterns_replaced) == (0, 0, 0)
        assert stats.patterns_kept == len(patterns_before)
        assert model.kernel_ is kernel_before
        assert all(a is b for a, b in zip(model.patterns_, patterns_before))
        # ... and the untouched state is still exactly what a scratch fit
        # over history + noise would produce.
        oracle = scratch(np.vstack([positions, noise]), config)
        assert model_fingerprint(model) == model_fingerprint(oracle)


class TestStalenessBudget:
    def test_refit_full_every_forces_full(self):
        config = make_config(refit_full_every=2)
        positions = make_route(24, seed=7)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        seen = []
        for at in range(seed_rows, positions.shape[0], 18):
            model.update(positions[at : at + 18])
            stats = model.last_refit_stats_
            seen.append((stats.mode, stats.fallback))
        # Budget of 2: two deltas, then a forced full, then the counter
        # restarts.
        assert seen[:3] == [
            ("delta", None),
            ("delta", None),
            ("full", "staleness"),
        ]
        assert seen[3] == ("delta", None)

    def test_explicit_full_resets_budget(self):
        config = make_config(refit_full_every=2)
        positions = make_route(22, seed=8)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        model.update(positions[seed_rows : seed_rows + 12])
        model.update(positions[seed_rows + 12 : seed_rows + 24], refit="full")
        model.update(positions[seed_rows + 24 : seed_rows + 36])
        assert model.last_refit_stats_.mode == "delta"
        assert model.last_refit_stats_.fallback is None


class TestCorpusDeltaOps:
    def test_miner_ops_agree_with_diff(self, monkeypatch):
        """The delta miner's op lists must equal an explicit corpus diff."""
        config = make_config()
        positions = make_route(22, seed=9)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        old_patterns = list(model.patterns_)
        mined = []
        miner = model_module.delta_mine_trajectory_patterns

        def recording_miner(*args, **kwargs):
            mined.append(miner(*args, **kwargs))
            return mined[-1]

        monkeypatch.setattr(
            model_module, "delta_mine_trajectory_patterns", recording_miner
        )
        staged = model.prepare_update(positions[seed_rows : seed_rows + 30])
        assert staged.refit.index == "patched"
        (_patterns, _stats, delta), = mined
        inserts, removes, added, replaced, kept = diff_pattern_corpus(
            old_patterns, list(staged.patterns)
        )
        assert staged.refit.patterns_added == added
        assert staged.refit.patterns_replaced == replaced
        assert staged.refit.patterns_removed == len(removes) - replaced
        assert staged.refit.patterns_kept == kept
        assert {id(p) for p in delta.inserts} | {
            id(new) for _, new in delta.rebinds
        } == {id(p) for p in inserts}
        assert {id(p) for p in delta.removes} | {
            id(old) for old, _ in delta.rebinds
        } == {id(p) for p in removes}


class TestStagedUpdateLifecycle:
    def test_commit_after_concurrent_update_raises(self):
        config = make_config()
        positions = make_route(22, seed=11)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        staged = model.prepare_update(positions[seed_rows : seed_rows + 12])
        model.update(positions[seed_rows : seed_rows + 12])
        with pytest.raises(StaleUpdateError):
            model.commit_update(staged)

    def test_commit_twice_raises(self):
        config = make_config()
        positions = make_route(22, seed=12)
        seed_rows = 18 * PERIOD
        model = scratch(positions[:seed_rows], config)
        staged = model.prepare_update(positions[seed_rows : seed_rows + 12])
        model.commit_update(staged)
        with pytest.raises(StaleUpdateError):
            model.commit_update(staged)

    def test_update_validation(self):
        model = scratch(make_route(20, seed=13), make_config())
        with pytest.raises(ValueError, match="shape"):
            model.update(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="empty"):
            model.update(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="refit"):
            model.update(np.zeros((3, 2)), refit="bogus")
