"""End-to-end CLI tests: synth -> fit -> predict / serve -> evaluate."""

import pytest

from repro.cli import main
from repro.trajectory.io import load_trajectory


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bike.csv"
    code = main(
        [
            "synth",
            "bike",
            "-o",
            str(path),
            "--subtrajectories",
            "20",
            "--period",
            "60",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def snapshot(data_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "snapshot"
    code = main(
        [
            "fit",
            str(data_csv),
            "-o",
            str(path),
            "--period",
            "60",
            "--eps",
            "30",
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_loadable_csv(self, data_csv):
        trajectory = load_trajectory(data_csv)
        assert len(trajectory) == 20 * 60

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "cow", "-o", str(out), "--subtrajectories", "4",
                  "--period", "30", "--seed", "9"])
        assert a.read_text() == b.read_text()

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth", "submarine", "-o", str(tmp_path / "x.csv")])


class TestPredict:
    def test_predicts_from_saved_model(self, snapshot, data_csv, capsys):
        trajectory = load_trajectory(data_csv)
        t0 = 18 * 60  # a held-out-ish day
        recent = ",".join(
            f"{t0 + i}:{trajectory.positions[t0 + i][0]:.1f}"
            f":{trajectory.positions[t0 + i][1]:.1f}"
            for i in range(4)
        )
        code = main(
            [
                "predict",
                str(snapshot),
                "--object-id",
                "bike",
                "--recent",
                recent,
                "--time",
                str(t0 + 8),
                "-k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("#1 (")
        assert "method=" in out

    def test_bad_recent_spec(self, snapshot):
        with pytest.raises(SystemExit, match="t:x:y"):
            main(["predict", str(snapshot), "--object-id", "bike",
                  "--recent", "1:2", "--time", "99"])

    def test_unknown_object_rejected(self, snapshot):
        with pytest.raises(ValueError, match="not in the snapshot manifest"):
            main(["predict", str(snapshot), "--object-id", "car",
                  "--recent", "1:2:3", "--time", "99"])


class TestServe:
    def test_serves_snapshot(self, snapshot, monkeypatch):
        import repro.serve

        served = {}

        class _Server:
            def __init__(self, service, host, port):
                served["service"] = service
                self.port = port

            async def start(self):
                pass

            async def run_forever(self, handle_signals):
                pass

        monkeypatch.setattr(repro.serve, "PredictionServer", _Server)
        assert main(["serve", str(snapshot), "--port", "0"]) == 0
        fleet = served["service"].fleet
        assert fleet.object_ids() == ["bike"]


class TestEvaluate:
    def test_reports_comparison(self, data_csv, capsys):
        code = main(
            [
                "evaluate",
                str(data_csv),
                "--period",
                "60",
                "--training",
                "15",
                "--length",
                "10",
                "--queries",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HPM: mean error" in out
        assert "RMF: mean error" in out


class TestFit:
    @pytest.fixture(scope="class")
    def fleet_csvs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fit")
        paths = []
        for scenario, seed in (("bike", 1), ("cow", 2)):
            path = directory / f"{scenario}.csv"
            code = main(
                ["synth", scenario, "-o", str(path), "--subtrajectories",
                 "15", "--period", "30", "--seed", str(seed)]
            )
            assert code == 0
            paths.append(path)
        return paths

    def test_writes_loadable_snapshot(self, fleet_csvs, tmp_path, capsys):
        from repro.core.persistence import load_fleet

        snapshot = tmp_path / "snapshot"
        code = main(
            ["fit", *map(str, fleet_csvs), "-o", str(snapshot), "--period",
             "30", "--workers", "2", "--executor", "thread"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[2/2]" in out  # progress hook reached the last object
        assert "2 object(s)" in out
        fleet = load_fleet(snapshot, max_workers=2)
        assert fleet.object_ids() == ["bike", "cow"]
        assert fleet.total_patterns() > 0

    def test_bad_trajectory_names_object(self, fleet_csvs, tmp_path, capsys):
        short = tmp_path / "stunted.csv"
        short.write_text("t,x,y\n0,0.0,0.0\n1,1.0,1.0\n")
        code = main(
            ["fit", str(fleet_csvs[0]), str(short), "-o",
             str(tmp_path / "snap"), "--period", "30", "--workers", "2",
             "--executor", "thread"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stunted" in err
        assert not (tmp_path / "snap").exists()

    def test_duplicate_stems_rejected(self, fleet_csvs, tmp_path):
        with pytest.raises(SystemExit, match="unique"):
            main(
                ["fit", str(fleet_csvs[0]), str(fleet_csvs[0]), "-o",
                 str(tmp_path / "snap"), "--period", "30"]
            )


class TestSnapshotTools:
    @pytest.fixture(scope="class")
    def fleet_snapshot(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("snaptools")
        csv = directory / "bike.csv"
        assert main(
            ["synth", "bike", "-o", str(csv), "--subtrajectories", "15",
             "--period", "30", "--seed", "5"]
        ) == 0
        snapshot = directory / "snapshot"
        assert main(
            ["fit", str(csv), "-o", str(snapshot), "--period", "30",
             "--workers", "1", "--executor", "thread"]
        ) == 0
        return snapshot

    def test_stat_reports_format_3(self, fleet_snapshot, capsys):
        import json

        assert main(["snapshot-stat", str(fleet_snapshot)]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["format_version"] == 3
        assert stat["objects"] == 1
        assert stat["total_block_bytes"] > 0
