"""SHA-256 fingerprints of fitted model state (oracle checks).

The BENCH_* benchmarks and the incremental-refit test suite prove
optimised paths safe by comparing fingerprints against a reference
engine.  :func:`fitted_state_fingerprint` covers everything a fit
produces — regions, pattern corpus, key-table geometry, and every
pattern's encoded key (the content of the paper's TPT leaf entries,
``<pk, c, p>``), hashed as ``(key value, pattern)`` pairs in sorted
order.

:func:`prediction_fingerprint` is the end-to-end check: hash the full
prediction output over a grid of query windows and times.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from ..trajectory.point import TimedPoint
from .keys import KeyCodec
from .patterns import TrajectoryPattern
from .regions import RegionSet

__all__ = [
    "fitted_state_fingerprint",
    "model_fingerprint",
    "prediction_fingerprint",
]


def _pattern_repr(p: TrajectoryPattern) -> tuple:
    return (
        tuple(r.label for r in p.premise),
        p.consequence.label,
        p.support,
        p.confidence.hex(),
    )


def fitted_state_fingerprint(
    regions: RegionSet,
    patterns: Sequence[TrajectoryPattern],
    codec: KeyCodec | None,
) -> str:
    """SHA-256 over the complete fitted state, key entries canonicalised."""
    digest = hashlib.sha256()
    for r in regions:
        digest.update(
            repr(
                (
                    r.offset,
                    r.index,
                    r.center.x.hex(),
                    r.center.y.hex(),
                    r.points.shape,
                    r.points.dtype.str,
                    r.bbox.min_x.hex(),
                    r.bbox.min_y.hex(),
                    r.bbox.max_x.hex(),
                    r.bbox.max_y.hex(),
                    r.subtrajectory_ids,
                )
            ).encode()
        )
        digest.update(r.points.tobytes())
    for p in patterns:
        digest.update(repr(_pattern_repr(p)).encode())
    if codec is not None:
        digest.update(
            repr(
                (
                    codec.premise_length,
                    codec.consequence_length,
                    codec.consequence_offsets(),
                )
            ).encode()
        )
        entries = sorted(
            zip(codec.encode_values(patterns), map(_pattern_repr, patterns))
        )
        for item in entries:
            digest.update(repr(item).encode())
    return digest.hexdigest()


def model_fingerprint(model) -> str:
    """:func:`fitted_state_fingerprint` of a fitted model's components."""
    return fitted_state_fingerprint(model.regions_, model.patterns_, model.codec_)


def prediction_fingerprint(
    model,
    queries: Iterable[tuple[Sequence[TimedPoint], int]],
    k: int | None = None,
) -> str:
    """SHA-256 over full prediction output for ``(recent, query_time)`` pairs."""
    digest = hashlib.sha256()
    for recent, query_time in queries:
        for p in model.predict(list(recent), query_time, k):
            digest.update(
                repr(
                    (
                        query_time,
                        p.location.x.hex(),
                        p.location.y.hex(),
                        p.method,
                        None if p.score is None else float(p.score).hex(),
                    )
                ).encode()
            )
    return digest.hexdigest()
