"""Tests for the vectorized query kernel (``repro.core.scorekernel``).

The contract under test: the packed-numpy kernel, the only candidate
scorer, answers every FQP/BQP query **bit-identically** to the
per-candidate reference in ``tests/core/legacy_reference.py`` — same
floats, same patterns, same tie order — while kernel errors propagate
to the caller instead of being answered by another path, the per-plan
FQP memo stays bounded, and the kernel's one bucket-major block, packed
in canonical pattern order whatever order the table is in, serves every
bucket and BQP mask without per-mask state.
"""

import pickle
from heapq import nsmallest
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HPMConfig
from repro.core.fleet import FleetPredictionModel
from repro.core.model import HybridPredictionModel
from repro.core.patterns import TrajectoryPattern
from repro.core.scorekernel import (
    KERNEL_BATCH_BUCKETS,
    ScoreKernel,
    canonical_order,
    pack_premise_ids,
    premise_scores,
    prime_plan_queries,
    top_indices,
)
from repro.core.similarity import PremiseScorer
from repro.signature import bitset
from repro.serve.metrics import MetricsRegistry
from repro.trajectory import TimedPoint, Trajectory
from tests.core.legacy_reference import legacy_predict, legacy_trajectory

PERIOD = 16
CFG_KW = dict(period=PERIOD, eps=5.0, min_pts=4, distant_threshold=6, recent_window=3)


def build_model(num_subs=25, **overrides) -> HybridPredictionModel:
    """A fitted model over a noisy periodic route (same world as the
    prepared-query suite: FQP, BQP and motion all fire)."""
    rng = np.random.default_rng(0)
    base = np.column_stack([70.0 * np.arange(PERIOD), 35.0 * np.arange(PERIOD)])
    blocks = [base + rng.normal(0, 0.8, base.shape) for _ in range(num_subs)]
    cfg = HPMConfig(**{**CFG_KW, **overrides})
    return HybridPredictionModel(cfg).fit(Trajectory(np.vstack(blocks)))


def make_window(tc: int, length: int = 3) -> list[TimedPoint]:
    """A recent window riding the noiseless base route up to time ``tc``."""
    return [
        TimedPoint(t, 70.0 * (t % PERIOD), 35.0 * (t % PERIOD))
        for t in range(tc - length + 1, tc + 1)
    ]


@pytest.fixture(scope="module")
def kernel_model():
    return build_model()


# ----------------------------------------------------------------------
# kernel == per-candidate scan reference, end to end
# ----------------------------------------------------------------------
class TestKernelScanEquivalence:
    def test_kernel_backend_is_active(self, kernel_model):
        window = make_window(401)
        plan = kernel_model.prepare(window)
        assert plan._kernel is kernel_model.kernel_
        assert plan._kernel.kind == kernel_model.config.weight_function
        assert plan.premise_key != 0
        assert np.flatnonzero(plan._qvec).tolist() == [
            bit for bit in range(plan._qvec.size) if plan.premise_key >> bit & 1
        ]

    def test_point_queries_bit_identical(self, kernel_model):
        methods = set()
        for tc in (401, 407, 412):
            window = make_window(tc)
            kplan = kernel_model.prepare(window)
            horizons = list(range(1, 2 * PERIOD)) + [3 * PERIOD, 4 * PERIOD + 1]
            for h in horizons:
                for k in (1, 3, 8):
                    got = kplan.predict(tc + h, k)
                    want = legacy_predict(kernel_model, window, tc + h, k)
                    assert repr(got) == repr(want), (tc, h, k)
                    methods.update(p.method for p in got)
        # The sweep must actually exercise every path, or the comparison
        # is vacuous.
        assert methods == {"fqp", "bqp", "motion"}

    def test_trajectory_sweeps_identical(self, kernel_model):
        for tc, step in ((401, 1), (407, 3)):
            window = make_window(tc)
            got = kernel_model.predict_trajectory(window, tc + 1, tc + 40, step)
            want = legacy_trajectory(kernel_model, window, tc + 1, tc + 40, step)
            assert repr(got) == repr(want)

    def test_pattern_free_model_has_no_kernel(self):
        # Too sparse to mine any pattern: the model and the plan have no
        # kernel to prime and answer by motion.
        rng = np.random.default_rng(3)
        model = HybridPredictionModel(HPMConfig(**CFG_KW)).fit(
            Trajectory(rng.uniform(0, 1e6, (2 * PERIOD, 2)))
        )
        assert model.kernel_ is None
        plan = model.prepare(make_window(101))
        assert plan._kernel is None
        assert plan.prime_sweep(102, 140) == 0
        assert plan.predict(103)[0].method == "motion"


# ----------------------------------------------------------------------
# property tests: kernel primitives vs scalar references
# ----------------------------------------------------------------------
KINDS = ("linear", "quadratic", "exponential", "factorial")


@st.composite
def scoring_cases(draw):
    length = draw(st.integers(min_value=1, max_value=24))
    full = (1 << length) - 1
    keys = draw(
        st.lists(st.integers(min_value=0, max_value=full), min_size=1, max_size=16)
    )
    # Query masks: arbitrary, plus the empty and saturated edge cases.
    qkey = draw(
        st.one_of(
            st.just(0),
            st.just(full),
            st.integers(min_value=0, max_value=full),
        )
    )
    kind = draw(st.sampled_from(KINDS))
    return length, keys, qkey, kind


class TestScoringProperties:
    @settings(max_examples=60, deadline=None)
    @given(scoring_cases())
    def test_packed_scores_match_scalar_scorer(self, case):
        length, keys, qkey, kind = case
        scorer = PremiseScorer(kind)
        rows = [bitset.to_indices(rk)[::-1] for rk in keys]
        width = max(len(row) for row in rows) + 1  # always one -1 column
        premise_ids = np.array([row + [-1] * (width - len(row)) for row in rows])
        cols, weights = pack_premise_ids(premise_ids, kind)
        packed = [
            [(int(c), float(w)) for c, w in zip(col_row, weight_row) if w]
            for col_row, weight_row in zip(cols, weights)
        ]
        assert packed == [list(scorer.table(rk)) for rk in keys]
        qvec = np.zeros(length, dtype=np.float64)
        for bit in range(length):
            if qkey >> bit & 1:
                qvec[bit] = 1.0
        pack = SimpleNamespace(bit_cols=cols, bit_weights=weights)
        got = premise_scores(pack, qvec)
        want = [scorer.score(rk, qkey) for rk in keys]
        # Bit-identical, not approximately equal.
        assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(
                    st.sampled_from([0.3, 0.6, 0.9]), min_size=n, max_size=n
                ),
                st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n),
                st.integers(min_value=1, max_value=n + 5),
            )
        )
    )
    def test_top_indices_matches_nsmallest(self, case):
        scores, confidences, supports, k = case
        n = len(scores)
        # The reference's exact ordering: score desc, confidence desc,
        # support desc, then row position (the canonical identity).
        want = nsmallest(
            k,
            range(n),
            key=lambda i: (-scores[i], -confidences[i], -supports[i], i),
        )
        got = top_indices(
            np.array(scores),
            np.array(confidences),
            np.array(supports, dtype=np.int64),
            k,
        )
        assert got.tolist() == want


# ----------------------------------------------------------------------
# memo bound (satellite: hostile query streams must not grow plans)
# ----------------------------------------------------------------------
class TestForwardMemoBound:
    def test_hostile_query_stream_stays_within_period(self, kernel_model):
        plan = kernel_model.prepare(make_window(401))
        # forward() skips the distant-time validation, so this walks
        # every offset many times over.
        for qt in range(402, 402 + 5 * PERIOD):
            plan.forward(qt, 1)
        assert len(plan._fqp_scored) <= PERIOD

    def test_store_forward_evicts_oldest(self, kernel_model):
        plan = kernel_model.prepare(make_window(401))
        for fake_offset in range(3 * PERIOD):
            plan._store_forward(fake_offset, None)
        assert len(plan._fqp_scored) == PERIOD
        # FIFO: the surviving keys are the most recent PERIOD stores.
        assert min(plan._fqp_scored) == 2 * PERIOD


# ----------------------------------------------------------------------
# refit, pickling
# ----------------------------------------------------------------------
class TestKernelInvalidation:
    def test_delta_refit_keeps_backends_identical(self):
        # A delta refit installs the kernel of the new table: it answers
        # like the reference over that table, and holds the block a
        # scratch pack of the same table holds.
        kernel = build_model(num_subs=15)
        rng = np.random.default_rng(7)
        base = np.column_stack([70.0 * np.arange(PERIOD), 35.0 * np.arange(PERIOD)])
        new_rows = np.vstack([base + rng.normal(0, 0.8, base.shape) for _ in range(2)])
        before = kernel.kernel_
        kernel.update(new_rows, refit="delta")
        assert kernel.last_refit_stats_.index == "patched"
        assert kernel.kernel_ is not before
        fresh = ScoreKernel.from_patterns(
            kernel.regions_, kernel.patterns_, kernel.config.weight_function
        )
        assert_same_kernel(kernel.kernel_, fresh)
        tc = kernel._history.end_time
        window = make_window(tc)
        for h in list(range(1, 2 * PERIOD)) + [3 * PERIOD]:
            got = kernel.predict(window, tc + h, 3)
            want = legacy_predict(kernel, window, tc + h, 3)
            assert repr(got) == repr(want), h

    def test_pickle_round_trip_keeps_the_kernel(self, kernel_model):
        window = make_window(401)
        loaded = pickle.loads(pickle.dumps(kernel_model))
        block = loaded.kernel_.block
        assert block.n == kernel_model.kernel_.block.n
        # Rows still name the loaded model's own pattern objects.
        assert set(map(id, block.patterns)) == set(map(id, loaded.patterns_))
        for h in (1, 3, 8, 20):
            got = loaded.predict(window, 401 + h, 3)
            want = legacy_predict(kernel_model, window, 401 + h, 3)
            assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# kernel errors propagate (no silent second path)
# ----------------------------------------------------------------------
class ScoringError(Exception):
    pass


class ExplodingVector:
    """A query vector every kernel use of which raises."""

    def __getitem__(self, index):
        raise ScoringError

    @property
    def shape(self):
        raise ScoringError


def sabotaged_plan(model, tc=401):
    plan = model.prepare(make_window(tc))
    plan._qvec = ExplodingVector()
    return plan


class TestKernelErrorsPropagate:
    def test_fqp_error_raises_from_predict(self, kernel_model):
        with pytest.raises(ScoringError):
            sabotaged_plan(kernel_model).predict(403, 3)

    def test_bqp_error_raises_from_predict(self, kernel_model):
        with pytest.raises(ScoringError):
            sabotaged_plan(kernel_model).predict(421, 3)

    def test_single_plan_priming_raises(self, kernel_model):
        with pytest.raises(ScoringError):
            prime_plan_queries([(sabotaged_plan(kernel_model), 403)])

    def test_batched_priming_raises(self, kernel_model):
        healthy = kernel_model.prepare(make_window(401))
        with pytest.raises(ScoringError):
            prime_plan_queries([(healthy, 403), (sabotaged_plan(kernel_model), 403)])


# ----------------------------------------------------------------------
# cross-object / cross-query batching
# ----------------------------------------------------------------------
FLEET_PERIOD = 10


def make_fleet_history(route_y: float, seed: int) -> Trajectory:
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [80.0 * np.arange(FLEET_PERIOD), np.full(FLEET_PERIOD, route_y)]
    )
    return Trajectory(
        np.vstack([base + rng.normal(0, 0.8, base.shape) for _ in range(15)])
    )


@pytest.fixture(scope="module")
def fleet_world():
    histories = {f"obj{i}": make_fleet_history(400.0 * i, seed=i) for i in range(4)}
    recents = {
        f"obj{i}": [TimedPoint(200 + t, 80.0 * t, 400.0 * i) for t in range(3)]
        for i in range(4)
    }
    cfg = HPMConfig(
        period=FLEET_PERIOD, eps=5.0, min_pts=4, distant_threshold=4, recent_window=3
    )
    kernel_fleet = FleetPredictionModel(cfg).fit(histories)
    return kernel_fleet, recents


class TestCrossObjectBatching:
    def test_predict_all_matches_scan_and_per_object(self, fleet_world):
        kernel_fleet, recents = fleet_world
        registry = MetricsRegistry()
        kernel_fleet.bind_metrics(registry)
        try:
            for query_time in (203, 205):
                batched = kernel_fleet.predict_all(recents, query_time)
                scan = {
                    oid: legacy_predict(kernel_fleet[oid], recent, query_time, 1)[0]
                    for oid, recent in recents.items()
                }
                assert repr(batched) == repr(scan)
                per_object = {
                    oid: kernel_fleet.predict(oid, recents[oid], query_time, 1)[0]
                    for oid in recents
                }
                assert repr(batched) == repr(per_object)
            hist = registry.histogram(
                "predict_kernel_batch_size", buckets=KERNEL_BATCH_BUCKETS
            )
            assert hist.count >= 1
            assert hist.total >= len(recents)
        finally:
            kernel_fleet.bind_metrics(None)

    def test_prime_plan_queries_is_pure_memoisation(self, kernel_model):
        windows = [make_window(tc) for tc in (401, 407, 412)]
        primed_plans = [kernel_model.prepare(w) for w in windows]
        query_time = 414
        primed = prime_plan_queries((p, query_time) for p in primed_plans)
        for plan, window in zip(primed_plans, windows):
            if plan.current_time < query_time < plan.current_time + 6:
                assert plan.fqp_prime_offset(query_time) is None  # memo hit
            fresh = kernel_model.prepare(window)
            if query_time > fresh.current_time:
                assert repr(plan.predict(query_time, 3)) == repr(
                    fresh.predict(query_time, 3)
                )
        assert primed >= 1

    def test_prime_sweep_fills_fqp_offsets(self, kernel_model):
        window = make_window(401)
        plan = kernel_model.prepare(window)
        primed = plan.prime_sweep(402, 440)
        # FQP horizon is (tc, tc + d): offsets 402..406 inclusive.
        assert primed == 5
        assert sorted(plan._fqp_scored) == sorted(t % PERIOD for t in range(402, 407))
        got = plan.predict_trajectory(402, 440)
        want = legacy_trajectory(kernel_model, window, 402, 440)
        assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# locate-cache prewarm (cold-start satellite)
# ----------------------------------------------------------------------
def count_uncached_locates(model, window) -> int:
    regions = model._regions
    original = regions.locate_uncached
    calls = {"n": 0}

    def counting(point, offset):
        calls["n"] += 1
        return original(point, offset)

    regions.locate_uncached = counting
    try:
        model.prepare(window)
    finally:
        del regions.locate_uncached
    return calls["n"]


class TestLocatePrewarm:
    def history_tail_window(self, model, length=3):
        history = model._history
        positions = history.positions
        n = positions.shape[0]
        return [
            TimedPoint(
                history.start_time + i, float(positions[i, 0]), float(positions[i, 1])
            )
            for i in range(n - length, n)
        ]

    def test_prewarm_makes_tail_windows_cache_hits(self, kernel_model):
        window = self.history_tail_window(kernel_model)
        cold = pickle.loads(pickle.dumps(kernel_model))
        assert count_uncached_locates(cold, window) > 0

        warmed = pickle.loads(pickle.dumps(kernel_model))
        probes = warmed.prewarm_locate_cache(512)
        assert probes > 0
        assert count_uncached_locates(warmed, window) == 0

    def test_prewarm_limit_zero_probes_nothing(self, kernel_model):
        cold = pickle.loads(pickle.dumps(kernel_model))
        assert cold.prewarm_locate_cache(0) == 0
        assert len(cold._regions._locate_cache) == 0

    def test_from_snapshot_prewarms_every_object(self, fleet_world, tmp_path):
        from repro.core.persistence import save_fleet
        from repro.serve import PredictionService

        kernel_fleet, _recents = fleet_world
        snapshot = tmp_path / "snapshot"
        save_fleet(kernel_fleet, snapshot)

        service = PredictionService.from_snapshot(snapshot)
        for oid in service.fleet.object_ids():
            assert len(service.fleet[oid]._regions._locate_cache) > 0

        cold = PredictionService.from_snapshot(snapshot, prewarm_locate=0)
        for oid in cold.fleet.object_ids():
            assert len(cold.fleet[oid]._regions._locate_cache) == 0


# ----------------------------------------------------------------------
# one bucket-major block: canonical order, no per-mask state, row views
# ----------------------------------------------------------------------
PACK_FIELDS = (
    "bit_cols",
    "bit_weights",
    "confidences",
    "supports",
    "cons_offsets",
    "patterns",
)


def tied_across_buckets_model(reverse: bool) -> HybridPredictionModel:
    """Two fully tied BQP candidates in adjacent consequence buckets.

    Both share premise, confidence and support, and their consequences
    sit one offset either side of the query offset 8, so Eq. 5 gives
    them the same score.  ``reverse`` lists them in the table in the
    opposite order (as a refit may).
    """
    model = build_model(num_subs=15)
    regions = model._regions
    premise = (regions.at_offset(2)[0],)
    early, late = (
        TrajectoryPattern(premise, regions.at_offset(o)[0], 3, 0.5) for o in (7, 9)
    )
    model._patterns = [late, early] if reverse else [early, late]
    model._build_index()
    return model


def kernel_footprint(kernel) -> dict:
    """Every kernel attribute's size: array bytes, container length."""
    sizes = {}
    for name, value in vars(kernel).items():
        if name == "block":
            for field in PACK_FIELDS:
                sizes[f"block.{field}"] = getattr(value, field).nbytes
        elif isinstance(value, np.ndarray):
            sizes[name] = value.nbytes
        elif hasattr(value, "__len__"):
            sizes[name] = len(value)
        else:
            sizes[name] = value
    return sizes


def assert_same_kernel(got, want):
    """Byte-identical blocks, rows and buckets, the same pattern objects."""
    for field in PACK_FIELDS[:-1]:
        a, b = getattr(got.block, field), getattr(want.block, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert [id(p) for p in got.block.patterns] == [id(p) for p in want.block.patterns]
    assert got._bounds == want._bounds
    assert got.consequence_offsets() == want.consequence_offsets()


class TestBucketMajorBlock:
    def test_bqp_full_ties_follow_identity_across_buckets(self):
        window = make_window(401)
        answers = []
        for reverse in (False, True):
            model = tied_across_buckets_model(reverse)
            for k in (1, 2, 3):
                got = model.predict(window, 408, k)
                want = legacy_predict(model, window, 408, k)
                assert {p.method for p in got} == {"bqp"}
                assert got[0].score == got[-1].score
                assert repr(got) == repr(want), k
            answers.append(repr(model.predict(window, 408, 2)))
            # The lower pattern key (earlier consequence time-id) wins.
            assert model.predict(window, 408, 1)[0].pattern.consequence.offset == 7
        assert answers[0] == answers[1]

    def test_shuffled_table_packs_the_same_block(self, kernel_model):
        patterns = kernel_model.patterns_
        kind = kernel_model.config.weight_function
        want = ScoreKernel.from_patterns(kernel_model.regions_, patterns, kind)
        rng = np.random.default_rng(11)
        for _ in range(3):
            shuffled = [patterns[i] for i in rng.permutation(len(patterns))]
            got = ScoreKernel.from_patterns(kernel_model.regions_, shuffled, kind)
            for field in PACK_FIELDS[:-1]:
                a, b = getattr(got.block, field), getattr(want.block, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            assert list(got.block.patterns) == list(want.block.patterns)
            assert got._bounds == want._bounds

    def test_updated_kernel_equals_a_fresh_pack(self, kernel_model):
        """Removing, re-scoring and adding patterns on a kernel gives the
        kernel a fresh pack of the resulting table gives."""
        regions = kernel_model.regions_
        kind = kernel_model.config.weight_function
        patterns = kernel_model.patterns_
        rng = np.random.default_rng(3)
        picks = rng.permutation(len(patterns))
        before = [patterns[i] for i in sorted(picks[: len(patterns) * 3 // 4])]
        removed = before[::5]
        replaced = [
            (old, TrajectoryPattern._unchecked(
                old.premise, old.consequence, old.support + 1, old.confidence / 2
            ))
            for old in before[1::5]
        ]
        added = [patterns[i] for i in picks[len(patterns) * 3 // 4 :]]
        gone = {id(p) for p in removed} | {id(old) for old, _new in replaced}
        after = [p for p in before if id(p) not in gone]
        after += [new for _old, new in replaced] + added
        kernel = ScoreKernel.from_patterns(regions, before, kind)
        assert_same_kernel(
            kernel.updated(regions, removed, replaced, added),
            ScoreKernel.from_patterns(regions, after, kind),
        )
        # A pattern object the kernel does not hold is refused, even an
        # equal copy.
        stranger = TrajectoryPattern._unchecked(
            removed[0].premise, removed[0].consequence,
            removed[0].support, removed[0].confidence,
        )
        with pytest.raises(KeyError):
            kernel.updated(regions, [stranger], [], [])
        # Re-scoring alone keeps every row where it was.
        only = kernel.updated(regions, [], replaced, [])
        rescored = {id(old): new for old, new in replaced}
        assert_same_kernel(
            only,
            ScoreKernel.from_patterns(
                regions, [rescored.get(id(p), p) for p in before], kind
            ),
        )

    def test_block_rows_ascend_in_pattern_identity(self, kernel_model):
        codec = kernel_model.codec_
        region_id = kernel_model.regions_.region_id
        rows = [
            (codec.encode_pattern(p).value, region_id(p.consequence))
            for p in kernel_model.kernel_.block.patterns
        ]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)  # the identity is unique
        # canonical_order on the raw id columns agrees with the bigint keys.
        premise_ids = np.array([[3, -1], [1, 4], [4, -1], [0, 4]])
        consequence_ids = np.array([5, 5, 6, 5])
        offsets = np.array([0, 0, 1, 1, 1, 2, 2])
        assert canonical_order(premise_ids, consequence_ids, offsets).tolist() == [
            0, 2, 3, 1,
        ]

    def test_row_ranges_cover_exactly_the_masked_buckets(self, kernel_model):
        kernel = kernel_model.kernel_
        offsets = kernel_model.codec_.consequence_offsets()
        length = len(offsets)
        time_ids = [offsets.index(o) for o in kernel.block.cons_offsets.tolist()]
        rng = np.random.default_rng(5)
        masks = [0, (1 << length) - 1] + rng.integers(
            0, 1 << length, size=200
        ).tolist()
        for mask in masks:
            ranges = kernel.row_ranges(mask)
            rows = [r for start, end in ranges for r in range(start, end)]
            want = [r for r, t in enumerate(time_ids) if mask >> t & 1]
            assert rows == want
            # Ascending, disjoint and not touching: at most one range per
            # run of non-empty buckets.
            flat = [bound for pair in ranges for bound in pair]
            assert all(a < b for a, b in zip(flat, flat[1:]))

    def test_distinct_masks_leave_kernel_size_unchanged(self, kernel_model):
        kernel = kernel_model.kernel_
        plan = kernel_model.prepare(make_window(401))
        before = kernel_footprint(kernel)
        answered = 0
        for mask in range(1, 501):
            answered += plan._backward_kernel(mask, 2, 421, 3) is not None
        assert answered > 400
        assert kernel_footprint(kernel) == before

    def test_fqp_buckets_are_views_of_the_block(self, kernel_model):
        kernel = kernel_model.kernel_
        block = kernel.block
        seen = 0
        for offset in kernel_model.codec_.consequence_offsets():
            pack = kernel.block_for_offset(offset)
            if pack is None:
                continue
            seen += 1
            for field in PACK_FIELDS:
                assert np.shares_memory(getattr(pack, field), getattr(block, field))
        assert seen > 1
