"""``tools/check_bench_regression.py``: ratios a bench marks not applicable."""

import importlib.util
from pathlib import Path

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
