"""Compare a bench smoke run against the committed BENCH_*.json baseline.

The committed baselines are full-scale runs; CI re-runs each bench in
``--smoke`` mode on shared runners, so absolute numbers are incomparable
— but *ratios* (speedups, goodput fractions) and invariants (fingerprint
identity flags) should hold within a tolerance.  This tool flattens both
JSON reports, keeps the numeric fields they share, classifies each by
name (higher-is-better for ``speedup``/``goodput``/``throughput``/
``ops_per_sec``-style fields, lower-is-better for ``latency``/``_ms``/
``_seconds``/``rss``-style fields, others skipped), and reports every
field that regressed beyond ``--tolerance`` (a fraction: 0.5 means a
smoke speedup may be up to 50% below baseline before it counts).

Boolean fields ending in ``identical``/``ok``/``passed``, or named
``identical_*`` (``BENCH_refit``'s ``identical_state`` and
``identical_predictions``), must not flip from true to false regardless
of tolerance.  A ``null`` on either side
is a ratio the bench declared not applicable (``BENCH_fleet_fit``'s
speedup with fewer CPUs than workers) and is skipped.

Such a flip is a broken identity or gate, not noise: it always exits
non-zero.  Timing and ratio findings only warn by default (exit 0), so
CI noise never blocks a merge; ``--fail`` turns them into a non-zero
exit too, for local gating.

    python tools/check_bench_regression.py BENCH_snapshot.json \
        --baseline path/to/committed/BENCH_snapshot.json --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HIGHER_BETTER = ("speedup", "goodput", "throughput", "ops_per_sec", "qps")
LOWER_BETTER = (
    "latency",
    "_ms",
    "_seconds",
    "_s",
    "rss",
    "p50",
    "p95",
    "p99",
)
MUST_HOLD = ("identical", "ok", "passed")
FLIPPED = "flipped true -> false"


def _flatten(value, prefix: str = "") -> dict[str, object]:
    """``{"a": {"b": 1}} -> {"a.b": 1}``; lists are indexed."""
    out: dict[str, object] = {}
    if isinstance(value, dict):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten(item, path))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}[{index}]"))
    else:
        out[prefix] = value
    return out


def direction(field: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 not comparable."""
    name = field.lower()
    if any(tag in name for tag in HIGHER_BETTER):
        return 1
    if any(name.endswith(tag) or tag in name for tag in LOWER_BETTER):
        return -1
    return 0


def compare(
    current: dict, baseline: dict, tolerance: float
) -> list[str]:
    cur, base = _flatten(current), _flatten(baseline)
    findings: list[str] = []
    for field in sorted(cur.keys() & base.keys()):
        c, b = cur[field], base[field]
        if c is None or b is None:
            continue  # not applicable on that host
        if isinstance(c, bool) or isinstance(b, bool):
            leaf = field.lower().rsplit(".", 1)[-1]
            if leaf.endswith(MUST_HOLD) or leaf.startswith("identical_"):
                if bool(b) and not bool(c):
                    findings.append(f"{field}: {FLIPPED}")
            continue
        if not isinstance(c, (int, float)) or not isinstance(b, (int, float)):
            continue
        sign = direction(field)
        if sign == 0 or b == 0:
            continue
        if sign > 0 and c < b * (1.0 - tolerance):
            findings.append(
                f"{field}: {c:.4g} is more than {tolerance:.0%} below "
                f"baseline {b:.4g}"
            )
        elif sign < 0 and c > b * (1.0 + tolerance):
            findings.append(
                f"{field}: {c:.4g} is more than {tolerance:.0%} above "
                f"baseline {b:.4g}"
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="bench JSON from the current run")
    parser.add_argument(
        "--baseline",
        help="committed baseline JSON (default: same filename in repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional drift before a field counts as regressed "
        "(default: 0.5 — smoke runs on shared runners are noisy)",
    )
    parser.add_argument(
        "--fail",
        action="store_true",
        help="exit non-zero on findings instead of warning",
    )
    args = parser.parse_args(argv)

    current_path = Path(args.current)
    baseline_path = Path(
        args.baseline
        if args.baseline
        else Path(__file__).resolve().parent.parent / current_path.name
    )
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 0
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())

    findings = compare(current, baseline, args.tolerance)
    if not findings:
        print(
            f"{current_path.name}: no regressions vs {baseline_path} "
            f"(tolerance {args.tolerance:.0%})"
        )
        return 0
    failed = args.fail
    for finding in findings:
        flipped = finding.endswith(FLIPPED)
        failed = failed or flipped
        label = "REGRESSION" if args.fail or flipped else "warning"
        print(f"{label}: {current_path.name}: {finding}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
