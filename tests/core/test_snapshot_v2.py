"""Fleet snapshots: packed columnar blocks, read-only mmap loads.

The contract: a load — whole fleet or ring slice, direct or through a
shard split and merge — yields models whose state AND prediction
fingerprints are byte-identical to the fitted fleet, with each score
kernel assembled from its stored cells; a delta refit on a loaded model
stays byte-identical to a fit from scratch; and saving over a snapshot
never changes a fleet already loaded from it.
"""

import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HPMConfig
from repro.core.fingerprint import model_fingerprint, prediction_fingerprint
from repro.core.fleet import FleetPredictionModel
from repro.core.model import HybridPredictionModel
from repro.core.persistence import load_fleet, save_fleet, snapshot_stat
from repro.core.scorekernel import ScoreKernel
from repro.trajectory import TimedPoint, Trajectory

PERIOD = 12


def make_config(**overrides) -> HPMConfig:
    params = dict(
        period=PERIOD, eps=5.0, min_pts=4, distant_threshold=5, recent_window=4
    )
    params.update(overrides)
    return HPMConfig(**params)


def make_route(num_blocks: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [70.0 * np.arange(PERIOD), 20.0 * np.arange(PERIOD)]
    )
    return np.vstack(
        [base + rng.normal(0, 0.6, base.shape) for _ in range(num_blocks)]
    )


def queries(model):
    positions = np.asarray(model.history_.positions)
    window = model.config.recent_window
    n = positions.shape[0]
    out = []
    for start in (0, n // 3):
        recent = [
            TimedPoint(
                n + t,
                float(positions[start + t, 0]),
                float(positions[start + t, 1]),
            )
            for t in range(window)
        ]
        t_now = recent[-1].t
        out.append((recent, t_now + 2))
        out.append((recent, t_now + model.config.distant_threshold + 3))
    return out


def fleet_fingerprints(fleet) -> list[tuple[str, str, str]]:
    return [
        (
            oid,
            model_fingerprint(fleet[oid]),
            prediction_fingerprint(fleet[oid], queries(fleet[oid])),
        )
        for oid in fleet.object_ids()
    ]


def mapping_base(arr: np.ndarray) -> np.ndarray:
    """The last ndarray on ``arr``'s base chain."""
    while isinstance(getattr(arr, "base", None), np.ndarray):
        arr = arr.base
    return arr


@pytest.fixture(scope="module")
def fitted_fleet():
    fleet = FleetPredictionModel(make_config())
    fleet.fit(
        {
            f"obj{i}": Trajectory(make_route(12, seed=i), 0)
            for i in range(3)
        }
    )
    return fleet


@pytest.fixture(scope="module")
def snapshots(fitted_fleet, tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    save_fleet(fitted_fleet, root / "v2")
    return root


class TestRoundTripIdentity:
    def test_load_matches_original(self, fitted_fleet, snapshots):
        reference = fleet_fingerprints(fitted_fleet)
        assert fleet_fingerprints(load_fleet(snapshots / "v2")) == reference

    def test_mmap_matches_materialized(self, fitted_fleet, snapshots):
        """Private copies of a mapped fleet (pickled, as the process
        executor ships models) answer byte-identically."""
        mmapped = load_fleet(snapshots / "v2")
        materialized = FleetPredictionModel(mmapped.config)
        for oid in mmapped.object_ids():
            materialized.adopt_object(oid, pickle.loads(pickle.dumps(mmapped[oid])))
        assert fleet_fingerprints(mmapped) == fleet_fingerprints(materialized)

    def test_kernel_primed_on_load(self, fitted_fleet, snapshots):
        """The loaded kernel is the fitted one: same rows, same cells."""
        fleet = load_fleet(snapshots / "v2")
        for oid in fleet.object_ids():
            loaded = fleet[oid].kernel_.block
            fitted = fitted_fleet[oid].kernel_.block
            for field in ("bit_cols", "bit_weights", "confidences", "supports"):
                assert np.array_equal(getattr(loaded, field), getattr(fitted, field))
            assert [repr(p) for p in loaded.patterns] == [
                repr(p) for p in fitted.patterns
            ]

    def test_region_points_are_mmap_views(self, snapshots):
        fleet = load_fleet(snapshots / "v2")
        model = fleet[fleet.object_ids()[0]]
        points = np.asarray(model.regions_[0].points)
        base = points
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)

    def test_loaded_arrays_are_plain_readonly_mmap_views(self, snapshots):
        """Loaded kernel cells and region arrays are plain ndarrays (no
        per-slice ``np.memmap`` hooks) over a mapping, and stay read-only."""
        fleet = load_fleet(snapshots / "v2")
        for oid in fleet.object_ids():
            model = fleet[oid]
            block = model.kernel_.block
            arrays = [block.bit_cols, block.bit_weights]
            arrays += [region.points for region in model.regions_]
            for arr in arrays:
                assert type(arr) is np.ndarray
                assert not arr.flags.writeable
                assert isinstance(mapping_base(arr), np.memmap)

    def test_loaded_kernel_block_views_mapped_cells(self, snapshots):
        fleet = load_fleet(snapshots / "v2")
        for oid in fleet.object_ids():
            block = fleet[oid].kernel_.block
            for field, name in (
                ("bit_cols", "kernel_cells_cols"),
                ("bit_weights", "kernel_cells_weights"),
            ):
                cells = mapping_base(getattr(block, field))
                assert isinstance(cells, np.memmap)
                assert Path(cells.filename).name == f"block_{name}.npy"
                assert np.shares_memory(getattr(block, field), cells)

    def test_subset_load(self, fitted_fleet, snapshots):
        wanted = fitted_fleet.object_ids()[:2]
        fleet = load_fleet(snapshots / "v2", object_ids=wanted)
        assert fleet.object_ids() == wanted
        with pytest.raises(ValueError, match="not in the snapshot manifest"):
            load_fleet(snapshots / "v2", object_ids=["nope"])

    def test_parallel_save_identical_to_serial(
        self, fitted_fleet, snapshots, tmp_path
    ):
        save_fleet(fitted_fleet, tmp_path / "par", max_workers=3)
        serial = sorted((snapshots / "v2").iterdir())
        parallel = sorted((tmp_path / "par").iterdir())
        assert [p.name for p in serial] == [p.name for p in parallel]
        for a, b in zip(serial, parallel):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_snapshot_stat(self, snapshots):
        stat = snapshot_stat(snapshots / "v2")
        assert stat["format_version"] == 3
        assert stat["objects"] == 3
        assert stat["kernel_objects"] == 3
        assert stat["total_block_bytes"] > 0


class TestCorruptionPaths:
    def _copy(self, snapshots, tmp_path):
        dest = tmp_path / "snap"
        shutil.copytree(snapshots / "v2", dest)
        return dest

    def test_unknown_format_version_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        manifest_path = dest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported fleet format 99"):
            load_fleet(dest)
        # The retired one-.npz-per-object layout is named and refused.
        manifest["format_version"] = 1
        manifest["objects"] = {"obj0": "object_0000.npz"}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            ValueError, match="unsupported fleet format 1; only format 3 loads"
        ):
            load_fleet(dest)

    def test_format_2_snapshot_rejected_by_name(self, snapshots, tmp_path):
        """A format-2 directory (tree blocks and a tree-ordered kernel
        table) is refused, naming its format, before any block is read."""
        dest = self._copy(snapshots, tmp_path)
        manifest_path = dest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 2
        manifest["sig_bytes"] = 1
        for name in ("tree_entry_sigs", "tree_node_sigs", "kernel_rows"):
            manifest["blocks"][name] = [0, 1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            ValueError, match="unsupported fleet format 2; only format 3 loads"
        ):
            load_fleet(dest)

    def test_truncated_block_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        block = dest / "block_pattern_rows.npy"
        block.write_bytes(block.read_bytes()[: block.stat().st_size // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_fleet(dest)

    def test_missing_block_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        (dest / "block_region_points.npy").unlink()
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_fleet(dest)

    def test_manifest_shape_mismatch_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        manifest_path = dest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["blocks"]["history"][0] += 7
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match"):
            load_fleet(dest)


class TestCopyOnWriteRefit:
    def test_mmap_blocks_are_readonly(self, snapshots):
        fleet = load_fleet(snapshots / "v2")
        model = fleet[fleet.object_ids()[0]]
        points = np.asarray(model.regions_[0].points)
        with pytest.raises((ValueError, RuntimeError)):
            points[0, 0] = 1.0

    def test_delta_refit_on_v2_model_matches_scratch(self, tmp_path):
        config = make_config()
        positions = make_route(12, seed=7)
        prefix, tail = positions[: 9 * PERIOD], positions[9 * PERIOD :]

        fleet = FleetPredictionModel(config)
        fleet.fit({"obj": Trajectory(prefix.copy(), 0)})
        save_fleet(fleet, tmp_path / "snap")

        reloaded = load_fleet(tmp_path / "snap")["obj"]
        reloaded.update(tail, refit="delta")

        oracle = HybridPredictionModel(config).fit(
            Trajectory(positions.copy(), 0)
        )
        assert model_fingerprint(reloaded) == model_fingerprint(oracle)
        q = queries(oracle)
        assert prediction_fingerprint(reloaded, q) == prediction_fingerprint(
            oracle, q
        )


class TestKernelCells:
    def test_stored_order_names_each_kernel_row(self, fitted_fleet, snapshots):
        """``kernel_order`` maps every kernel row to its mining-order
        pattern row, and rebuilding the kernel from the loaded table packs
        the stored cells exactly."""
        fleet = load_fleet(snapshots / "v2")
        for oid in fleet.object_ids():
            model = fleet[oid]
            fresh = ScoreKernel.from_patterns(
                model.regions_, model.patterns_, model.config.weight_function
            )
            assert np.array_equal(model.kernel_.block.bit_cols, fresh.block.bit_cols)
            assert np.array_equal(
                model.kernel_.block.bit_weights, fresh.block.bit_weights
            )
            assert list(model.kernel_.block.patterns) == list(fresh.block.patterns)
        manifest = json.loads((snapshots / "v2" / "manifest.json").read_text())
        assert set(manifest["blocks"]) == {
            "history",
            "region_rows",
            "region_geo",
            "region_points",
            "region_sub_ids",
            "pattern_rows",
            "pattern_conf",
            "kernel_order",
            "kernel_cells_cols",
            "kernel_cells_weights",
        }


class TestResaveOverLoadedSnapshot:
    def test_live_fleet_unchanged_and_fresh_load_sees_new_fleet(
        self, fitted_fleet, tmp_path
    ):
        """Saving a different fleet over a loaded snapshot leaves the live
        (mapped) models alone; only a fresh load returns the new fleet."""
        snapshot = tmp_path / "snap"
        save_fleet(fitted_fleet, snapshot)
        live = load_fleet(snapshot)
        before = fleet_fingerprints(live)

        # The same routes shifted by 1 m: every block keeps its shape, so
        # an in-place rewrite would change the live pages, not truncate.
        other = FleetPredictionModel(make_config())
        other.fit(
            {
                f"obj{i}": Trajectory(make_route(12, seed=i) + 1.0, 0)
                for i in range(3)
            }
        )
        save_fleet(other, snapshot)

        assert fleet_fingerprints(live) == before
        assert fleet_fingerprints(load_fleet(snapshot)) == fleet_fingerprints(
            other
        )
        assert not list(snapshot.glob("*.tmp"))


class TestProperty:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_blocks=st.integers(min_value=8, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_save_load_roundtrip_identity(
        self, tmp_path_factory, num_blocks, seed
    ):
        tmp_path = tmp_path_factory.mktemp("prop")
        fleet = FleetPredictionModel(make_config())
        fleet.fit({"obj": Trajectory(make_route(num_blocks, seed=seed), 0)})
        save_fleet(fleet, tmp_path / "snap")
        assert fleet_fingerprints(load_fleet(tmp_path / "snap")) == (
            fleet_fingerprints(fleet)
        )
