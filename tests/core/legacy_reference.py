"""The per-candidate reference for the query path: brute-force Intersect
+ uncached similarity + full sort.

Production scores candidates only with the packed kernel
(``repro.core.scorekernel``), whose rows are the pattern table in
canonical order.  These functions re-implement Section V-C and
Algorithms 2 and 3 the straightforward way — candidates from a scan of
the whole pattern table with the paper's two-part ``Intersect``, Eq. 1
recomputed per candidate, Eq. 2 / Eq. 5 via the scalar scoring
functions, ranking by a full sort + slice whose last key is the
canonical pattern identity ``(pattern key value, consequence region
id)``, computed explicitly — so tests can hold the kernel to byte
identity.
"""

from repro.core.plan import Prediction, PreparedQuery
from repro.core.similarity import (
    bqp_score,
    consequence_similarity,
    fqp_score,
    premise_similarity,
)


def brute_force(codec, patterns, predicate):
    """``(pattern, key)`` for every pattern whose key value satisfies
    ``predicate``, in table order."""
    out = []
    for pattern in patterns:
        key = codec.encode_pattern(pattern)
        if predicate(key.value):
            out.append((pattern, key))
    return out


def brute_candidates(codec, patterns, query_key):
    """FQP retrieval: patterns whose key Intersects the query key on both
    the premise and the consequence part."""
    shift = codec.premise_length
    q_rk = query_key.value & ((1 << shift) - 1)
    q_ck = query_key.value >> shift
    return brute_force(
        codec,
        patterns,
        lambda value: value & q_rk != 0 and (value >> shift) & q_ck != 0,
    )


def brute_by_consequence(codec, patterns, consequence_mask):
    """BQP retrieval: patterns whose consequence part hits
    ``consequence_mask``, the premise part ignored."""
    shift = codec.premise_length
    return brute_force(
        codec, patterns, lambda value: (value >> shift) & consequence_mask != 0
    )


def rank(codec, scored, k):
    """Full sort of ``(score, pattern, key)``: score, confidence and
    support descending, then the canonical identity ascending."""
    region_id = codec.regions.region_id
    scored.sort(
        key=lambda spk: (
            -spk[0],
            -spk[1].confidence,
            -spk[1].support,
            spk[2].value,
            region_id(spk[1].consequence),
        )
    )
    return [
        (score, pattern.consequence.center, pattern)
        for score, pattern, _key in scored[:k]
    ]


def legacy_forward(predictor, patterns, recent, query_time, k):
    """Algorithm 2 over the pattern table ``patterns`` (any order)."""
    codec = predictor.codec
    recent_regions = predictor.map_recent_to_regions(recent)
    query_key = codec.encode_query(
        recent_regions, query_time % predictor.config.period
    )
    candidates = brute_candidates(codec, patterns, query_key)
    if not candidates:
        return None
    scored = []
    for pattern, key in candidates:
        sr = premise_similarity(
            key.premise_key, query_key.premise_key, predictor.config.weight_function
        )
        scored.append((fqp_score(sr, pattern.confidence), pattern, key))
    return rank(codec, scored, k)


def legacy_backward(predictor, patterns, recent, query_time, k):
    """Algorithm 3 over the pattern table ``patterns`` (any order)."""
    codec = predictor.codec
    tc = recent[-1].t
    recent_regions = predictor.map_recent_to_regions(recent)
    query_key = codec.encode_query(
        recent_regions, query_time % predictor.config.period
    )
    t_eps = predictor.config.time_relaxation
    i = 1
    while True:
        relaxation = i * t_eps
        offsets = {
            t % predictor.config.period
            for t in range(query_time - relaxation, query_time + relaxation + 1)
        }
        mask = codec.consequence_mask(offsets)
        candidates = brute_by_consequence(codec, patterns, mask)
        if candidates:
            horizon = query_time - tc
            scored = []
            for pattern, key in candidates:
                sr = premise_similarity(
                    key.premise_key,
                    query_key.premise_key,
                    predictor.config.weight_function,
                )
                sc = consequence_similarity(
                    predictor._offset_distance(pattern.consequence_offset, query_time),
                    relaxation,
                )
                score = bqp_score(
                    sr,
                    sc,
                    pattern.confidence,
                    predictor.config.distant_threshold,
                    horizon,
                )
                scored.append((score, pattern, key))
            return rank(codec, scored, k)
        i += 1
        if query_time - i * t_eps <= tc:
            return None


def legacy_predict(model, recent, query_time, k):
    """``model.predict`` on the reference: FQP below the distant-time
    threshold, BQP at or beyond it, the motion fallback when neither
    finds a candidate."""
    recent = list(recent)
    predictor = model.predictor_
    hits = None
    if predictor is not None:
        args = (predictor, model.patterns_, recent, query_time, k)
        if query_time - recent[-1].t >= model.config.distant_threshold:
            method, hits = "bqp", legacy_backward(*args)
        else:
            method, hits = "fqp", legacy_forward(*args)
    if hits is None:
        # A pattern-free plan answers by motion only, and its private
        # stats leave the model's path counters untouched.
        plan = PreparedQuery(
            None, None, None, model.config, model.motion_factory, recent
        )
        return [plan.motion_prediction(query_time)]
    return [
        Prediction(location=location, method=method, score=score, pattern=pattern)
        for score, location, pattern in hits
    ]


def legacy_trajectory(model, recent, t_from, t_to, step=1):
    """``model.predict_trajectory`` on the reference: independent top-1
    point queries."""
    return [
        (t, legacy_predict(model, recent, t, 1)[0])
        for t in range(t_from, t_to + 1, step)
    ]
