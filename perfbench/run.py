"""The repository benchmark: served prediction, ingest under refit, the router hop.

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/repro`` and
starts servers through ``perfbench/server_proc.py``).  One run:

1. builds its inputs (``inputs.py``): object histories from
   ``repro.datagen.make_dataset`` over the four paper scenarios, split
   into training and held-out days, and a query stream drawn by ``--seed``;
2. fits the fleet and writes a v2 snapshot (``build_s``);
3. launches the server(s) on the snapshot several times, timing launch
   to first ``/healthz`` answer (``setup_s``), and keeps the last;
4. checks correctness before any timing: the verification answers must
   hash to the in-process fleet's answers rendered the same way;
5. runs the workload's timed phases (``--seconds`` in total) from one
   generator process on at most two connections;
6. checks correctness again where the workload defines it, then prints
   the metrics by name and unit, and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same workload once untraced and once with span wrappers installed in the
server processes (``spans.py``), and reports the per-layer metrics plus
the tracing overhead.  Full results with host metadata go to
``.perfbench_run/results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import random
import signal
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from client import (
    Connection, IngestLog, closed_loop, drain_polls, ingest_stream, now, open_loop,
)
from stats import (
    ingest_lags, latencies_from_due, lateness, open_loop_schedule, percentile,
    self_times, summarize,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

#: server launches and fleet builds timed before and after the workload;
#: setup_s and build_s are their medians.  The speed of a shared host
#: drifts over tens of seconds, so the samples are spread over the run.
#: One launch varies by up to half its time, so setup_s takes more.
SETUPS_BEFORE, SETUPS_AFTER = 3, 4
BUILDS_BEFORE, BUILDS_AFTER = 1, 2
#: verification queries (correctness gate and error_m); the same in every
#: run, drawn from the first VERIFY_CANDIDATES of a fixed shuffle
VERIFY_QUERIES = 256
VERIFY_CANDIDATES = 1024
#: held-out days kept for ingest_refit's queries, never streamed
VERIFY_DAYS = 2
#: distinct queries ingest_refit's predicts cycle through
POOL_QUERIES = 192
#: generator lateness (p99) beyond which a run is marked invalid
LATE_LIMIT_MS = 10.0
#: seconds to wait for refits to cover every acknowledged ingest
DRAIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    role: str  # "single" or "routed"
    objects: int
    train_days: int
    held_days: int
    #: open-loop predict rate (requests/s); a quarter or less of the
    #: saturation rate on a 2-core host, so that a host slowed by other
    #: tenants still does not queue
    predict_rate: float
    #: /ingest posts per second, one whole period of one object each
    ingest_rate: float
    #: share of --seconds for the open-loop / closed-loop predict phases;
    #: serve workloads give the rest to an ingest-only phase, ingest_refit
    #: streams ingests beside its open loop the whole time
    open_share: float
    closed_share: float
    connections: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_unique", "single", objects=16, train_days=12, held_days=10,
            predict_rate=50.0, ingest_rate=5.0, open_share=0.7,
            closed_share=0.1, connections=2,
        ),
        Workload(
            "ingest_refit", "single", objects=16, train_days=8, held_days=12,
            predict_rate=30.0, ingest_rate=2.0, open_share=1.0,
            closed_share=0.0, connections=1,
        ),
        Workload(
            "routed_unique", "routed", objects=16, train_days=12, held_days=10,
            predict_rate=50.0, ingest_rate=5.0, open_share=0.7,
            closed_share=0.1, connections=2,
        ),
    )
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
class Servers:
    """The server processes of one launch; stopped and reaped on close."""

    def __init__(self, workdir: Path, spawned: list[subprocess.Popen]):
        self.workdir = workdir
        self.spawned = spawned  # every process of the run, for the last sweep
        self.procs: list[subprocess.Popen] = []
        self.port = 0
        self.trace_files: list[Path] = []
        self._logs = []

    def _spawn(self, tag: str, args: list[str], trace: bool) -> tuple[subprocess.Popen, Path]:
        ready = self.workdir / f"{tag}.ready"
        ready.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "server_proc.py"), *args,
                   "--ready-file", str(ready)]
        if trace:
            out = self.workdir / f"{tag}.spans.json"
            out.unlink(missing_ok=True)
            command += ["--trace-out", str(out)]
            self.trace_files.append(out)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        log_handle = open(self.workdir / f"{tag}.log", "ab")
        self._logs.append(log_handle)
        proc = subprocess.Popen(
            command, stdout=log_handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        self.procs.append(proc)
        self.spawned.append(proc)
        return proc, ready

    @staticmethod
    async def _wait_ready(proc: subprocess.Popen, ready: Path, tag: str) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if ready.is_file():
                text = ready.read_text().strip()
                if text:
                    return int(text)
            if proc.poll() is not None:
                raise RuntimeError(f"{tag} server exited with {proc.returncode}")
            await asyncio.sleep(0.005)
        raise TimeoutError(f"{tag} server not ready within 60 s")

    async def launch(self, role: str, snapshot: Path, update_after: int, trace: bool) -> float:
        """Start the servers; returns seconds from launch to ``/healthz``."""
        from client import Connection

        started = time.monotonic()
        extra = ["--update-after", str(update_after)]
        if role == "single":
            proc, ready = self._spawn("single", ["single", str(snapshot), *extra], trace)
            self.port = await self._wait_ready(proc, ready, "single")
        else:
            proc, ready = self._spawn("worker", ["worker", str(snapshot), *extra], trace)
            worker_port = await self._wait_ready(proc, ready, "worker")
            proc, ready = self._spawn(
                "router", ["router", "--worker-port", str(worker_port)], trace
            )
            self.port = await self._wait_ready(proc, ready, "router")
        conn = Connection("127.0.0.1", self.port)
        try:
            while True:
                status, _, body = await conn.request("GET", "/healthz")
                if status == 200 and json.loads(body).get("status") == "ok":
                    return time.monotonic() - started
                await asyncio.sleep(0.005)
        finally:
            await conn.close()

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the live server processes."""
        total_kb = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        # Router first, so it never forwards to a worker that is gone.
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.procs.clear()
        for handle in self._logs:
            handle.close()
        self._logs.clear()


# ----------------------------------------------------------------------
# one pass over a workload against one launch
# ----------------------------------------------------------------------
def digest(bodies) -> str:
    h = hashlib.sha256()
    for body in bodies:
        h.update(len(body).to_bytes(8, "little"))
        h.update(body)
    return h.hexdigest()


async def fetch_metrics_json(port: int) -> dict:

    conn = Connection("127.0.0.1", port)
    try:
        status, _, body = await conn.request("GET", "/metrics.json")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics.json answered {status}")
    return json.loads(body)


async def send_all(port: int, bodies: list[bytes]) -> list:
    """Send ``bodies`` one at a time; returns the outcomes in order."""

    conn = Connection("127.0.0.1", port)
    try:
        due = [0.0] * len(bodies)
        return await open_loop([conn], "/predict", bodies, due, keep_bodies=True)
    finally:
        await conn.close()


class GateFailure(Exception):
    """An output did not match its reference; the run reports no numbers."""


async def run_pass(ctx, servers: Servers, seconds: float) -> dict:
    """Gate, timed phases and (ingest_refit) the flush identity check."""

    port = servers.port
    out: dict = {}

    if ctx["workload"].name != "ingest_refit":
        verify = await send_all(port, [q.body for q in ctx["verify"]])
        got = digest(o.body for o in verify)
        if got != ctx["verify_digest"]:
            raise GateFailure(
                f"verification answers hash {got}, in-process fleet {ctx['verify_digest']}"
            )
        out["verify"] = verify

    conns = [Connection("127.0.0.1", port) for _ in range(2)]
    rng = random.Random(ctx["seed"])
    # The generator's own collector must not stall the schedule: its heap
    # (inputs, in-process fleet) is large, and a full collection in a
    # timed phase would show up as server latency.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        await _timed_phases(ctx, port, conns, rng, seconds, out)
    finally:
        gc.enable()
        gc.unfreeze()
        for conn in conns:
            await conn.close()
    if ctx["workload"].name == "ingest_refit":
        out["verify"] = await flush_and_verify(ctx, port, out["ingest"])
    return out


async def _timed_phases(ctx, port, conns, rng, seconds, out: dict) -> None:

    w: Workload = ctx["workload"]
    ingest_log = IngestLog()
    before = await fetch_metrics_json(port)
    t_start = now()
    open_seconds = seconds * w.open_share
    closed_seconds = seconds * w.closed_share
    predict_conns = conns[: w.connections]
    pool = ctx["pool"]

    def ingest_plan(duration: float, start: float):
        due = open_loop_schedule(w.ingest_rate, duration, start)
        if len(due) > len(ctx["ingest_bodies"]):
            raise RuntimeError("ingest stream longer than its prepared bodies")
        return ctx["ingest_bodies"][: len(due)], due

    if w.name == "ingest_refit":
        pool_bodies = [q.body for q in pool]
        open_due = open_loop_schedule(w.predict_rate, open_seconds, t_start + 0.05)
        open_bodies = [pool_bodies[i % len(pool_bodies)] for i in range(len(open_due))]
        ingest_bodies, ingest_due = ingest_plan(seconds, t_start + 0.05)

        (open_out, _) = await asyncio.gather(
            open_loop(predict_conns, "/predict", open_bodies, open_due),
            ingest_stream(conns[1], ingest_bodies, ingest_due, rng, ingest_log),
        )
        closed_out, closed_elapsed = [], 0.0
        t_end = now()
    else:
        open_due = open_loop_schedule(w.predict_rate, open_seconds, t_start + 0.05)
        open_out = await open_loop(
            predict_conns, "/predict", [q.body for q in pool[: len(open_due)]],
            open_due, keep_bodies=True,
        )
        rest = [q.body for q in pool[len(open_due):]]
        closed_out, closed_elapsed = await closed_loop(
            predict_conns, "/predict", rest, closed_seconds, keep_bodies=True
        )
        for o in closed_out:
            o.index += len(open_due)
        t_mid = now()
        ingest_bodies, ingest_due = ingest_plan(
            seconds - open_seconds - closed_seconds, t_mid + 0.05
        )
        await ingest_stream(conns[1], ingest_bodies, ingest_due, rng, ingest_log)
        t_end = now()

    acked = ingest_log.acks[-1][1] if ingest_log.acks else 0.0
    drained = await drain_polls(conns[1], ingest_log, acked, rng, DRAIN_TIMEOUT)
    after = await fetch_metrics_json(port)
    if not drained:
        raise GateFailure("refits did not cover every acknowledged ingest")

    out.update(
        t_start=t_start, t_end=t_end, open=open_out, open_due=open_due,
        closed=closed_out, closed_elapsed=closed_elapsed, ingest=ingest_log,
        metrics_before=before, metrics_after=after,
    )


async def flush_and_verify(ctx, port: int, ingest_log) -> list:
    """After the stream: the served answers must equal a scratch fit's.

    Every ``/ingest`` post is one whole period and a refit flushes all
    of an object's pending fixes, so once the refit counter covers every
    ack nothing may be pending.  The served answers must then equal those
    of a fleet fitted from scratch on each object's training plus
    ingested rows (the delta-refit identity).  The comparison uses the
    queries whose scratch-fit top two scores differ: on tied candidates a
    delta refit and a scratch fit may pick different winners.
    """
    from inputs import PERIOD, expected_bodies, fit_fleet, make_query

    data = ctx["data"]
    ids = ctx["object_ids"]
    rows = dict.fromkeys(ids, ctx["workload"].train_days * PERIOD)
    for outcome in ingest_log.outcomes:
        if outcome.status == 200:
            rows[ids[outcome.index % len(ids)]] += PERIOD
    conn = Connection("127.0.0.1", port)
    try:
        _, _, body = await conn.request("GET", "/objects")
    finally:
        await conn.close()
    pending = {r["object_id"]: r["pending"] for r in json.loads(body)["objects"]}
    if any(pending.values()):
        raise GateFailure(f"fixes still pending after the stream: {pending}")

    scratch = fit_fleet(data, rows)
    wide = expected_bodies(
        scratch, [make_query(data, c, k=2) for c in ctx["verify_candidates"]]
    )
    verify = []
    for candidate, answer in zip(ctx["verify_candidates"], wide):
        scores = [p["score"] for p in json.loads(answer)["predictions"]]
        if len(set(scores)) == len(scores):
            verify.append(make_query(data, candidate, k=1))
    verify = verify[:VERIFY_QUERIES]
    ctx["verify"] = verify
    served = await send_all(port, [q.body for q in verify])
    want = digest(expected_bodies(scratch, verify))
    got = digest(o.body for o in served)
    if got != want:
        raise GateFailure(
            f"after the full flush the server answers hash {got}, a scratch fit {want}"
        )
    return served


# ----------------------------------------------------------------------
# inputs and build
# ----------------------------------------------------------------------
def timed_build(data, rows: int, snapshot: Path):
    """Histories -> fitted fleet -> v2 snapshot on disk, timed."""
    from inputs import fit_fleet
    from repro.core.persistence import save_fleet

    shutil.rmtree(snapshot, ignore_errors=True)
    # The benchmark's own heap (inputs, earlier fleets, the load's
    # outcomes) is frozen out of the collector, so that a build costs the
    # same before and after the workload.
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        fleet = fit_fleet(data, rows)
        t1 = time.perf_counter()
        save_fleet(fleet, snapshot)
        t2 = time.perf_counter()
    finally:
        gc.unfreeze()
    return fleet, {"build_s": t2 - t0, "save_s": t2 - t1,
                   "phases": fleet.fit_phase_totals()}


def prepare_inputs(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    from inputs import (
        PERIOD, day_fixes, expected_bodies, histories, make_query, query_candidates,
    )

    rng = random.Random(seed)
    days = w.train_days + w.held_days
    if w.name == "ingest_refit":
        stream_seconds = seconds
        query_first = days - VERIFY_DAYS  # never streamed
        stream_cap = w.held_days - VERIFY_DAYS
    else:
        stream_seconds = seconds * (1.0 - w.open_share - w.closed_share)
        query_first = w.train_days
        stream_cap = w.held_days
    ingest_posts = int(w.ingest_rate * stream_seconds) + 1
    if -(-ingest_posts // w.objects) + 1 > stream_cap:  # +1: the top-up day
        raise RuntimeError("run too long for the held-out days of this workload")
    data = histories(w.objects, days)

    snapshot = workdir / "snapshot"
    builds = []
    for _ in range(BUILDS_BEFORE):
        fleet, build = timed_build(data, w.train_days * PERIOD, snapshot)
        builds.append(build)
    snapshot_bytes = sum(p.stat().st_size for p in snapshot.rglob("*") if p.is_file())

    # The verification set is the same in every run (so error_m repeats
    # exactly); the load stream is drawn from the rest by the run seed.
    candidates = query_candidates(data, query_first, days, random.Random(0))
    rest = candidates[VERIFY_CANDIDATES:]
    rng.shuffle(rest)
    if w.name == "ingest_refit":
        # The verification set is chosen after the stream (flush_and_verify).
        # The predict pool asks for k=2 so that its cache entries stay apart
        # from the verification queries' (k=1).
        verify = []
        pool = [make_query(data, c, k=2) for c in rest[:POOL_QUERIES]]
    else:
        verify = [make_query(data, c) for c in candidates[:VERIFY_QUERIES]]
        need = int(w.predict_rate * seconds * w.open_share) + int(
            seconds * w.closed_share * 3000
        )
        if len(rest) < need:
            raise RuntimeError("not enough distinct queries for this run length")
        pool = [make_query(data, c) for c in rest[:need]]
    verify_digest = digest(expected_bodies(fleet, verify))

    # /ingest posts: one whole held-out day of one object each, round robin.
    # The stream is the same for every seed, so every run refits the same
    # (object, day) pairs.
    object_ids = sorted(data)
    ingest_bodies = []
    for i in range(ingest_posts):
        object_id = object_ids[i % len(object_ids)]
        fixes = day_fixes(data[object_id], w.train_days + i // len(object_ids))
        body = json.dumps({"object_id": object_id, "fixes": fixes}).encode()
        ingest_bodies.append((body, len(fixes)))
    return {
        "workload": w, "seed": seed, "data": data, "fleet": fleet,
        "snapshot": snapshot, "snapshot_bytes": snapshot_bytes, "builds": builds,
        "verify": verify, "verify_digest": verify_digest, "pool": pool,
        "verify_candidates": candidates[:VERIFY_CANDIDATES],
        "ingest_bodies": ingest_bodies, "object_ids": object_ids,
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def delta(before: dict, after: dict, name: str, field: str = "value") -> float:
    """Change of one instrument field between two ``/metrics.json`` dumps."""
    return float(after.get(name, {}).get(field, 0.0)) - float(
        before.get(name, {}).get(field, 0.0)
    )


def ok(outcomes) -> int:
    return sum(1 for o in outcomes if o.status == 200 and not o.degraded)


def failures(outcomes) -> int:
    return sum(1 for o in outcomes if o.status != 200 or o.degraded)


def end_to_end(ctx, result: dict, setups: list[float], rss_mb: float) -> dict:
    from inputs import top1_error

    open_lat = latencies_from_due(
        [o.due for o in result["open"]], [o.done for o in result["open"]]
    )
    open_sum = summarize([x * 1000 for x in open_lat])
    if result["closed"]:
        completed = ok(result["closed"]) / result["closed_elapsed"]
    else:
        # Open loop only (ingest_refit): the completed rate over the phase,
        # which falls below the offered rate when a backlog builds.
        opened = result["open"]
        completed = ok(opened) / (max(o.done for o in opened) - opened[0].due)
    ingest = result["ingest"]
    ingest_sum = summarize([(o.done - o.due) * 1000 for o in ingest.outcomes])
    lags, uncovered = ingest_lags(ingest.acks, ingest.polls)
    errors = [
        top1_error(o.body, q, ctx["data"]) for o, q in zip(result["verify"], ctx["verify"])
    ]
    ordered = sorted(x * 1000 for x in open_lat)
    open_sum["p90"] = percentile(ordered, 90)
    open_sum["p95"] = percentile(ordered, 95)
    open_sum["largest"] = ordered[:-16:-1]
    return {
        "predict_p50_ms": (open_sum["p50"], "ms"),
        "predict_p95_ms": (open_sum["p95"], "ms"),
        "predict_rps": (completed, "1/s"),
        "ingest_p50_ms": (ingest_sum["p50"], "ms"),
        "ingest_lag_s": (statistics.median(lags), "s"),
        "error_m": (statistics.fmean(errors), "m"),
        "setup_s": (statistics.median(setups), "s"),
        "build_s": (statistics.median(b["build_s"] for b in ctx["builds"]), "s"),
        "rss_mb": (rss_mb, "MB"),
    }, {
        "predict_open": open_sum,
        "ingest_ack": ingest_sum,
        "ingest_lag": summarize(lags),
        "ingest_uncovered": uncovered,
        "refit_seconds_mean": delta(result["metrics_before"], result["metrics_after"],
                                    "serve_refit_seconds", "sum")
        / max(1.0, delta(result["metrics_before"], result["metrics_after"],
                         "serve_refit_seconds", "count")),
    }


def ns(seconds: float) -> int:
    return int(seconds * 1e9)


def span_ms(spans: list[dict]) -> list[float]:
    return [(s["end"] - s["start"]) / 1e6 for s in spans]


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(ctx, result: dict, spans: list[dict], overhead_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus a detail record.

    Span-derived timings cover the timed window (phases plus the refit
    drain); counters are differences of ``/metrics.json`` across it.  A
    layer that does no work on a workload (the router on a single
    server) reports 0.
    """

    w: Workload = ctx["workload"]
    t0, t1 = ns(result["t_start"]), ns(result["t_end"])
    window = [s for s in spans if t0 <= s["start"] <= t1]
    named: dict[str, list[dict]] = {}
    for span in window:
        named.setdefault(span["name"], []).append(span)

    def path_spans(name: str, path: str) -> list[dict]:
        return [s for s in named.get(name, []) if s.get("extra", {}).get("path") == path]

    before, after = result["metrics_before"], result["metrics_after"]

    def d(name: str, field: str = "value") -> float:
        return delta(before, after, name, field)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    predicts = [o for o in result["open"] + result["closed"] if o.status == 200]
    client_ms = mean([(o.done - o.sent) * 1000 for o in predicts])
    routes = span_ms(path_spans("serve.route", "/predict"))
    forwards = span_ms(path_spans("shard.forward", "/predict"))
    route_sum = summarize(routes)

    execs = {s["id"]: s for s in named.get("serve.batching.execute", [])}
    waits = []
    for s in named.get("serve.batching.submit", []):
        ex = execs.get(s.get("extra", {}).get("execute"))
        if ex is not None:
            waits.append(((s["end"] - s["start"]) - (ex["end"] - ex["start"])) / 1e6)
    exec_sum = summarize(span_ms(list(execs.values())))
    flushes = named.get("core.online.flush", [])
    flush_sum = summarize(span_ms(flushes), want=90.0)
    flushed = [s["extra"]["fixes"] for s in flushes if s.get("extra", {}).get("fixes")]
    commit_sum = summarize(span_ms(named.get("core.refit.commit", [])), want=90.0)
    queue_ms = [
        s["extra"]["queue_ns"] / 1e6
        for s in named.get("serve.refit.execute", [])
        if s.get("extra", {}).get("queue_ns") is not None
    ]
    paths = {m: d(f"predict_path_total_{m}") for m in ("fqp", "bqp", "motion")}
    index_modes = {
        name[len("serve_refit_index_total_"):]: d(name)
        for name in after
        if name.startswith("serve_refit_index_total_")
    }
    loads = [s for s in spans if s["name"] in ("snapshot.load", "snapshot.load_shard")]
    prewarms = [s for s in spans if s["name"] == "snapshot.prewarm"]
    build = ctx["builds"][-1]

    if w.role == "routed":
        http_self = mean(forwards) - mean(routes)
        router_self = client_ms - mean(forwards)
    else:
        http_self = client_ms - mean(routes)
        router_self = 0.0

    metrics = {
        "serve.http.self_ms": (http_self, "ms"),
        "serve.route_ms.p50": (route_sum["p50"] or 0.0, "ms"),
        "serve.route_ms.p99": (route_sum["tail"] or 0.0, "ms"),
        "serve.admission.refused": (d("serve_shed_total") + d("serve_rate_limited_total"), "count"),
        "serve.cache.hit_ratio": (
            ratio(d("serve_cache_hits_total"),
                  d("serve_cache_hits_total") + d("serve_cache_misses_total")), "ratio"),
        "serve.cache.invalidations": (d("serve_cache_invalidations_total"), "count"),
        "serve.batching.wait_ms.p50": (p50(waits), "ms"),
        "serve.batching.execute_ms.p50": (exec_sum["p50"] or 0.0, "ms"),
        "serve.batching.execute_ms.p99": (exec_sum["tail"] or 0.0, "ms"),
        "serve.batching.batch_size.mean": (
            mean([s["extra"]["batch"] for s in execs.values()]), "count"),
        "core.plan.prepare_ms.p50": (p50(span_ms(named.get("core.plan.prepare", []))), "ms"),
        "core.plan.predict_prepared_ms.p50": (
            p50(span_ms(named.get("core.plan.predict_prepared", []))), "ms"),
        **{
            f"core.plan.path_share.{m}": (ratio(paths[m], sum(paths.values())), "ratio")
            for m in paths
        },
        "core.scorekernel.prime_ms.p50": (
            p50(span_ms(named.get("core.scorekernel.prime", []))), "ms"),
        "core.scorekernel.batch_size.mean": (
            ratio(d("predict_kernel_batch_size", "sum"),
                  d("predict_kernel_batch_size", "count")), "count"),
        "core.scorekernel.fallbacks": (d("predict_kernel_fallback_total"), "count"),
        "core.online.flush_ms.p50": (flush_sum["p50"] or 0.0, "ms"),
        "core.online.flush_ms.p90": (flush_sum["tail"] or 0.0, "ms"),
        "core.refit.fixes_per_flush.mean": (mean(flushed), "count"),
        "core.refit.patched_ratio": (
            ratio(index_modes.get("patched", 0.0), sum(index_modes.values())), "ratio"),
        "core.refit.commit_ms.p90": (commit_sum["tail"] or 0.0, "ms"),
        "serve.refit.queue_ms.p50": (p50(queue_ms), "ms"),
        "serve.refit.retries": (d("serve_refit_retries_total"), "count"),
        "fit.cluster_s": (build["phases"].get("cluster", 0.0), "s"),
        "fit.mine_s": (build["phases"].get("mine", 0.0), "s"),
        "fit.index_s": (build["phases"].get("index", 0.0), "s"),
        "snapshot.save_s": (build["save_s"], "s"),
        "snapshot.bytes": (float(ctx["snapshot_bytes"]), "bytes"),
        "snapshot.load_s": (sum(span_ms(loads)) / 1000, "s"),
        "snapshot.prewarm_s": (sum(span_ms(prewarms)) / 1000, "s"),
        "shard.forward_ms.p50": (p50(forwards), "ms"),
        "shard.router.self_ms": (router_self, "ms"),
        "shard.forward_retries": (d("router_forward_retries_total"), "count"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for span in window:
        by_name.setdefault(span["name"], []).append(selfs[span["id"]] / 1e6)
    detail = {
        "self_ms_mean": {name: mean(v) for name, v in sorted(by_name.items())},
        "spans_in_window": {name: len(v) for name, v in sorted(named.items())},
        "tails": {"route": route_sum, "execute": exec_sum, "flush": flush_sum,
                  "commit": commit_sum},
        "client_ms_mean": client_ms,
    }
    return metrics, detail


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def check_load_answers(ctx, result: dict) -> None:
    """Every 200 answer of the timed predict phases equals the in-process
    fleet's answer (serve workloads: the fleet does not change there)."""
    from inputs import expected_bodies

    sent = [(o, ctx["pool"][o.index]) for o in result["open"] + result["closed"]
            if o.status == 200 and not o.degraded]
    want = expected_bodies(ctx["fleet"], [q for _, q in sent])
    bad = sum(1 for (o, _), body in zip(sent, want) if o.body != body)
    if bad:
        raise GateFailure(f"{bad} of {len(sent)} load answers differ from the in-process fleet")


async def launch_timed(ctx, workdir: Path, launches: int, trace: bool = False,
                       keep: bool = True) -> tuple[Servers, list[float]]:
    """Launch ``launches`` times, timing each; with ``keep`` the last one
    stays up and is returned."""
    from inputs import PERIOD

    w: Workload = ctx["workload"]
    setups = []
    for i in range(launches):
        servers = Servers(workdir, ctx["spawned"])
        try:
            setups.append(await servers.launch(w.role, ctx["snapshot"], PERIOD, trace))
        except BaseException:
            servers.close()
            raise
        if not keep or i < launches - 1:
            servers.close()
    return servers, setups


async def run_workload(ctx, seconds: float, trace: bool, workdir: Path) -> dict:
    from inputs import PERIOD

    servers, setups = await launch_timed(ctx, workdir, 1 if trace else SETUPS_BEFORE)
    try:
        result = await run_pass(ctx, servers, seconds)
        rss = servers.peak_rss_mb()
    finally:
        servers.close()
    if ctx["workload"].name != "ingest_refit":
        check_load_answers(ctx, result)
    out = {"result": result, "setups": setups, "rss_mb": rss}
    if trace:
        servers, _ = await launch_timed(ctx, workdir, 1, trace=True)
        try:
            out["traced"] = await run_pass(ctx, servers, seconds)
        finally:
            servers.close()
        spans = []
        for path in servers.trace_files:
            spans.extend(json.loads(path.read_text()))
        out["spans"] = spans
    else:
        _, more = await launch_timed(ctx, workdir, SETUPS_AFTER, keep=False)
        setups.extend(more)
        rows = ctx["workload"].train_days * PERIOD
        for _ in range(BUILDS_AFTER):
            ctx["builds"].append(timed_build(ctx["data"], rows, workdir / "rebuild")[1])
    return out


def reap(procs: list[subprocess.Popen]) -> None:
    """Last sweep: stop and wait for any server a run left running."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def tally(result: dict) -> tuple[int, int]:
    outcomes = result["open"] + result["closed"] + result["ingest"].outcomes + result["verify"]
    return len(outcomes), failures(outcomes)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from ``/proc/stat``: how much CPU the host
    took from this machine, for reading a run's numbers."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def host_metadata(args, w: Workload) -> dict:
    import numpy as np

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "rates": {
            "predict_open_rps": w.predict_rate,
            "predict_connections": w.connections,
            "ingest_posts_per_s": w.ingest_rate,
            "open_s": args.seconds * w.open_share,
            "closed_s": args.seconds * w.closed_share,
        },
        "objects": w.objects,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no source tree at {SRC}: run from the root of a checkout")
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    # A terminated run unwinds normally, so every server it started is
    # stopped by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawned: list[subprocess.Popen] = []

    # The JSON result carries the metrics BENCHMARK.json bounds; the others
    # measured are printed and kept in the results file.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]

    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    results_dir = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    meta = host_metadata(args, w)
    ticks_before = cpu_ticks()
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    try:
        ctx = prepare_inputs(w, args.seed, args.seconds, workdir)
        ctx["spawned"] = spawned
        try:
            run = asyncio.run(run_workload(ctx, args.seconds, bool(args.trace), workdir))
        except GateFailure as exc:
            log(f"correctness gate failed: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        reap(spawned)
        shutil.rmtree(workdir, ignore_errors=True)


    ticks_after = cpu_ticks()
    meta["host_steal_share"] = (ticks_after[0] - ticks_before[0]) / max(
        1, ticks_after[1] - ticks_before[1]
    )
    result = run["result"]
    e2e, detail = end_to_end(ctx, result, run["setups"], run["rss_mb"])
    late = summarize(
        [x * 1000 for x in lateness([o.due for o in result["open"]],
                                    [o.queued for o in result["open"]])]
    )
    meta["gen_late_ms"] = late
    meta["valid"] = late["tail"] is not None and late["tail"] <= LATE_LIMIT_MS
    meta["summaries"] = detail
    meta["setups_s"] = run["setups"]
    meta["builds"] = ctx["builds"]
    attempted, failed = tally(result)
    metrics = e2e
    if args.trace:
        traced = run["traced"]
        traced_e2e, traced_detail = end_to_end(ctx, traced, [0.0], 0.0)
        overhead = traced_e2e["predict_p50_ms"][0] - e2e["predict_p50_ms"][0]
        metrics, layer_detail = per_layer(ctx, traced, run["spans"], overhead)
        meta["trace"] = layer_detail
        meta["traced_summaries"] = traced_detail
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(run["spans"]))
        a2, f2 = tally(traced)
        attempted, failed = attempted + a2, failed + f2
    meta["attempted"], meta["failed"] = attempted, failed
    meta["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (results_dir / f"{stem}.json").write_text(json.dumps(meta, indent=1, default=str))

    if not meta["valid"]:
        log(f"WARNING: generator fell behind (late p{late['tail_q']} = {late['tail']} ms)")
    for name, (value, unit) in metrics.items():
        note = "" if name in bounded else "  (measured, not bounded)"
        print(f"{name:36s} {value:14.6g} {unit}{note}")
    tail = detail["predict_open"]
    print(f"predict open loop: n={tail['n']}, p{tail['tail_q']:g} = {tail['tail']:.3f} ms; "
          f"ingest posts n={detail['ingest_ack']['n']}; "
          f"gen_late_ms.p{late['tail_q']:g} = {late['tail']:.3f}; "
          f"host steal {meta['host_steal_share']:.1%}; valid={meta['valid']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in bounded},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
