"""The load generator: keep-alive HTTP/1.1 connections and the three loops.

* :func:`open_loop` — requests due on a fixed schedule, whatever the
  server does; a dispatcher hands each one, at its due time, to the
  first free connection.  Latency runs from the due time.
* :func:`closed_loop` — each connection sends its next request when the
  previous answer arrives.
* :func:`ingest_stream` — one connection posts ``/ingest`` bodies on a
  fixed schedule and, while waiting for the next one, polls ``/metrics``
  so the benchmark can tell when the refits have covered each ack.

The client is the benchmark's own rather than ``repro.serve.loadgen``'s,
so that a change to the program cannot change the instrument.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

now = time.monotonic

#: mean seconds between ``/metrics`` polls on the ingest connection
POLL_INTERVAL = 0.02


class Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length framing only)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, str], bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self._reader.readexactly(int(headers.get("content-length", 0)))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None


@dataclass
class Outcome:
    """One request's fate: times are monotonic seconds."""

    index: int
    due: float
    queued: float  # handed to a connection by the generator
    sent: float  # written to the socket
    done: float
    status: int  # 0 = transport error
    degraded: bool
    body: bytes = b""


async def _send(conn: Connection, path: str, body: bytes) -> tuple[int, bool, bytes]:
    try:
        status, headers, payload = await conn.request("POST", path, body)
    except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
        await conn.close()
        return 0, False, b""
    return status, headers.get("x-degraded") == "true", payload


async def open_loop(
    conns: list[Connection],
    path: str,
    bodies: list[bytes],
    due: list[float],
    keep_bodies: bool = False,
) -> list[Outcome]:
    """Send ``bodies[i]`` due at ``due[i]`` (monotonic seconds)."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome | None] = [None] * len(due)

    async def dispatch() -> None:
        for index, when in enumerate(due):
            delay = when - now()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, now()))
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, queued = item
            sent = now()
            status, degraded, payload = await _send(conn, path, bodies[index])
            outcomes[index] = Outcome(
                index, due[index], queued, sent, now(), status, degraded,
                payload if keep_bodies else b"",
            )

    await asyncio.gather(dispatch(), *(work(conn) for conn in conns))
    return outcomes  # type: ignore[return-value]


async def closed_loop(
    conns: list[Connection],
    path: str,
    bodies: list[bytes],
    duration: float,
    keep_bodies: bool = False,
) -> tuple[list[Outcome], float]:
    """Keep every connection busy for ``duration`` seconds.

    Connections take bodies in order from one shared cursor; returns the
    outcomes and the elapsed time until the last answer.
    """
    cursor = iter(range(len(bodies)))
    outcomes: list[Outcome] = []
    start = now()
    deadline = start + duration

    async def work(conn: Connection) -> None:
        while now() < deadline:
            index = next(cursor, None)
            if index is None:
                raise RuntimeError("closed loop ran out of distinct queries")
            sent = now()
            status, degraded, payload = await _send(conn, path, bodies[index])
            outcomes.append(
                Outcome(index, sent, sent, sent, now(), status, degraded,
                        payload if keep_bodies else b"")
            )

    await asyncio.gather(*(work(conn) for conn in conns))
    return outcomes, now() - start


def parse_counter(text: str, name: str) -> float:
    """Value of one un-labelled counter in a ``/metrics`` exposition."""
    prefix = name + " "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


@dataclass
class IngestLog:
    outcomes: list[Outcome] = field(default_factory=list)
    acks: list[tuple[float, float]] = field(default_factory=list)
    polls: list[tuple[float, float]] = field(default_factory=list)


async def poll_refit_fixes(conn: Connection) -> tuple[float, float]:
    _, _, text = await conn.request("GET", "/metrics")
    return now(), parse_counter(text.decode(), "serve_refit_fixes_total")


async def ingest_stream(
    conn: Connection,
    bodies: list[tuple[bytes, int]],
    due: list[float],
    rng: random.Random,
    log: IngestLog,
) -> None:
    """Post ``bodies[i] = (body, fixes)`` at ``due[i]``; poll in between.

    Polls are spaced by a seeded uniform draw in ``[0.5, 1.5] *
    POLL_INTERVAL`` so that the lag samples do not lock onto one phase
    of the poll grid.
    """
    acked = 0.0
    for index, (body, fixes) in enumerate(bodies):
        while True:
            wait = due[index] - now()
            if wait <= 0:
                break
            step = POLL_INTERVAL * (0.5 + rng.random())
            if step < wait:
                await asyncio.sleep(step)
                log.polls.append(await poll_refit_fixes(conn))
            else:
                await asyncio.sleep(wait)
        sent = now()
        status, degraded, _ = await _send(conn, "/ingest", body)
        done = now()
        log.outcomes.append(
            Outcome(index, due[index], sent, sent, done, status, degraded)
        )
        if status == 200:
            acked += fixes
            log.acks.append((done, acked))


async def drain_polls(
    conn: Connection,
    log: IngestLog,
    target: float,
    rng: random.Random,
    timeout: float,
) -> bool:
    """Keep polling until the refit counter reaches ``target``."""
    deadline = now() + timeout
    while now() < deadline:
        sample = await poll_refit_fixes(conn)
        log.polls.append(sample)
        if sample[1] >= target:
            return True
        await asyncio.sleep(POLL_INTERVAL * (0.5 + rng.random()))
    return False
