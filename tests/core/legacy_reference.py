"""The per-candidate reference for the query path: descent + uncached
similarity + full sort.

Production retrieves candidates only from the TPT's consequence-offset
index and scores them only with the packed kernel
(``repro.core.scorekernel``).  These functions re-implement Section V-C
and Algorithms 2 and 3 the straightforward way — candidates from a
pruned depth-first tree descent, Eq. 1 recomputed per candidate,
Eq. 2 / Eq. 5 via the scalar scoring functions, ranking by a full sort +
slice — so tests can hold the index and the kernel to byte identity.
"""

from repro.core.plan import Prediction, PreparedQuery
from repro.core.similarity import (
    bqp_score,
    consequence_similarity,
    fqp_score,
    premise_similarity,
)


def descent(tree, predicate):
    """``(pattern, key)`` for every entry a pruned tree descent accepts."""
    return [
        (entry.payload, tree.codec.wrap(entry.signature))
        for entry in tree.search(predicate)
    ]


def descent_candidates(tree, query_key):
    """FQP retrieval by descent: entries whose key Intersects the query
    key on both the premise and the consequence part."""
    shift = tree.codec.premise_length
    q_rk = query_key.value & ((1 << shift) - 1)
    q_ck = query_key.value >> shift
    return descent(
        tree, lambda sig: sig & q_rk != 0 and (sig >> shift) & q_ck != 0
    )


def descent_by_consequence(tree, consequence_mask):
    """BQP retrieval by descent: entries whose consequence part hits
    ``consequence_mask``, the premise part ignored."""
    shift = tree.codec.premise_length
    return descent(tree, lambda sig: (sig >> shift) & consequence_mask != 0)


def legacy_forward(predictor, recent, query_time, k):
    recent_regions = predictor.map_recent_to_regions(recent)
    query_key = predictor.codec.encode_query(
        recent_regions, query_time % predictor.config.period
    )
    candidates = descent_candidates(predictor.tree, query_key)
    if not candidates:
        return None
    scored = []
    for pattern, key in candidates:
        sr = premise_similarity(
            key.premise_key, query_key.premise_key, predictor.config.weight_function
        )
        scored.append((fqp_score(sr, pattern.confidence), pattern))
    scored.sort(key=lambda sp: (-sp[0], -sp[1].confidence, -sp[1].support))
    return [
        (score, pattern.consequence.center, pattern)
        for score, pattern in scored[:k]
    ]


def legacy_backward(predictor, recent, query_time, k):
    tc = recent[-1].t
    recent_regions = predictor.map_recent_to_regions(recent)
    query_key = predictor.codec.encode_query(
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
        mask = predictor.codec.consequence_mask(offsets)
        candidates = descent_by_consequence(predictor.tree, mask)
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
                scored.append((score, pattern))
            scored.sort(key=lambda sp: (-sp[0], -sp[1].confidence, -sp[1].support))
            return [
                (score, pattern.consequence.center, pattern)
                for score, pattern in scored[:k]
            ]
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
        if query_time - recent[-1].t >= model.config.distant_threshold:
            method, hits = "bqp", legacy_backward(predictor, recent, query_time, k)
        else:
            method, hits = "fqp", legacy_forward(predictor, recent, query_time, k)
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
