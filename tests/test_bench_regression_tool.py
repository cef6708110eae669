"""``tools/check_bench_regression.py``: ratios a bench marks not
applicable, and the exit code of identity flips vs timing findings."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_bench_regression.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_null_speedup_is_skipped_on_either_side():
    tool = load_tool()
    assert tool.compare({"speedup": None}, {"speedup": 0.23}, 0.5) == []
    assert tool.compare({"speedup": 1.9}, {"speedup": None}, 0.5) == []


def test_a_real_speedup_drop_is_still_reported():
    tool = load_tool()
    findings = tool.compare({"speedup": 0.5}, {"speedup": 1.9}, 0.5)
    assert len(findings) == 1 and findings[0].startswith("speedup:")


@pytest.fixture
def reports(tmp_path):
    def write(current: dict, baseline: dict) -> list[str]:
        paths = tmp_path / "current.json", tmp_path / "baseline.json"
        for path, report in zip(paths, (current, baseline)):
            path.write_text(json.dumps(report))
        return [str(paths[0]), "--baseline", str(paths[1])]

    return write


@pytest.mark.parametrize("flag", [[], ["--fail"]])
def test_an_identity_flip_fails_in_every_mode(reports, capsys, flag):
    tool = load_tool()
    args = reports(
        {"identical_predictions": False, "gates": {"ok": True}},
        {"identical_predictions": True, "gates": {"ok": True}},
    )
    assert tool.main(args + flag) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_a_timing_finding_only_warns_unless_asked_to_fail(reports, capsys):
    tool = load_tool()
    args = reports(
        {"speedup": 0.5, "identical_state": True},
        {"speedup": 1.9, "identical_state": True},
    )
    assert tool.main(args) == 0
    assert "warning" in capsys.readouterr().out
    assert tool.main(args + ["--fail"]) == 1
