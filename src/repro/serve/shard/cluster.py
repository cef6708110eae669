"""Worker lifecycle: spawn, readiness, crash restart, graceful stop.

:class:`ShardCluster` supervises ``num_shards`` worker *processes*
(``python -m repro shard-worker``) the way an init system would:

* **spawn** — each worker gets the snapshot path, its shard id, the
  ring parameters, ``--port 0`` and a private ready-file; stdout/stderr
  land in per-shard log files under the run directory.
* **readiness** — the supervisor polls for the ready-file the worker
  writes *after* binding; its content is the bound ephemeral port.  A
  worker that dies before becoming ready fails ``start()`` with the
  tail of its log, not a timeout mystery.
* **crash restart** — a supervisor task notices exits, reports the
  shard down (the router flips it to the degradation ladder), respawns
  with exponential backoff, and reports the new address once ready
  (the router attaches a fresh forwarder to the new port).
* **graceful stop** — SIGTERM to every worker (they drain in-flight
  batches and refits via the server's graceful-shutdown path), a grace
  period, then SIGKILL for stragglers.

Restart recovery cost is dominated by the snapshot reload.  Each
worker memory-maps the snapshot's shared blocks read-only and loads
only its ring slice's pages, so co-located workers share the page
cache; ``BENCH_snapshot.json`` records the restart drill's slice load
and first prediction.

The ``on_ready(shard_id, host, port)`` / ``on_down(shard_id)``
callbacks are how the cluster and a
:class:`~repro.serve.shard.router.RouterService` compose without either
importing the other.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .ring import DEFAULT_REPLICAS

__all__ = ["WorkerHandle", "ShardCluster"]


@dataclass
class WorkerHandle:
    """One supervised worker process and its bookkeeping."""

    shard_id: int
    process: subprocess.Popen
    ready_file: Path
    log_path: Path
    port: int | None = None
    restarts: int = 0
    log_handle: object = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class ShardCluster:
    """Spawn and supervise the shard-worker fleet for one snapshot."""

    def __init__(
        self,
        snapshot: str | Path,
        num_shards: int,
        *,
        host: str = "127.0.0.1",
        replicas: int = DEFAULT_REPLICAS,
        salt: str = "hpm-ring",
        run_dir: str | Path | None = None,
        worker_args: list[str] | tuple[str, ...] = (),
        python: str = sys.executable,
        ready_timeout: float = 60.0,
        restart_backoff: float = 0.5,
        max_backoff: float = 10.0,
        on_ready: Callable[[int, str, int], None] | None = None,
        on_down: Callable[[int], None] | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.snapshot = Path(snapshot)
        self.num_shards = num_shards
        self.host = host
        self.replicas = replicas
        self.salt = salt
        self.worker_args = list(worker_args)
        self.python = python
        self.ready_timeout = ready_timeout
        self.restart_backoff = restart_backoff
        self.max_backoff = max_backoff
        self.on_ready = on_ready
        self.on_down = on_down
        if run_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
            self.run_dir = Path(self._tmp.name)
        else:
            self._tmp = None
            self.run_dir = Path(run_dir)
            self.run_dir.mkdir(parents=True, exist_ok=True)
        self.workers: dict[int, WorkerHandle] = {}
        self._supervisor: asyncio.Task | None = None
        self._stopping = False

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int, restarts: int = 0) -> WorkerHandle:
        ready_file = self.run_dir / f"shard_{shard_id}.ready"
        ready_file.unlink(missing_ok=True)
        log_path = self.run_dir / f"shard_{shard_id}.log"
        command = [
            self.python,
            "-m",
            "repro",
            "shard-worker",
            str(self.snapshot),
            "--shard-id",
            str(shard_id),
            "--shards",
            str(self.num_shards),
            "--host",
            self.host,
            "--port",
            "0",
            "--ready-file",
            str(ready_file),
            "--replicas",
            str(self.replicas),
            "--salt",
            self.salt,
            *self.worker_args,
        ]
        # The workers must import *this* repro, wherever the supervisor
        # loaded it from, regardless of the caller's cwd/PYTHONPATH.
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src_dir + ((":" + env["PYTHONPATH"]) if env.get("PYTHONPATH") else "")
        )
        log_handle = open(log_path, "ab")
        process = subprocess.Popen(
            command,
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,  # a Ctrl-C aimed at the router stays there
        )
        return WorkerHandle(
            shard_id=shard_id,
            process=process,
            ready_file=ready_file,
            log_path=log_path,
            restarts=restarts,
            log_handle=log_handle,
        )

    async def _wait_ready(self, handle: WorkerHandle) -> None:
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            if handle.ready_file.is_file():
                text = handle.ready_file.read_text().strip()
                if text:
                    handle.port = int(text)
                    return
            if not handle.alive:
                raise RuntimeError(
                    f"shard {handle.shard_id} worker exited with "
                    f"{handle.process.returncode} before becoming ready\n"
                    f"--- log tail ({handle.log_path}) ---\n"
                    f"{self._log_tail(handle)}"
                )
            if asyncio.get_running_loop().time() > deadline:
                raise TimeoutError(
                    f"shard {handle.shard_id} worker not ready within "
                    f"{self.ready_timeout}s\n"
                    f"--- log tail ({handle.log_path}) ---\n"
                    f"{self._log_tail(handle)}"
                )
            await asyncio.sleep(0.05)

    @staticmethod
    def _log_tail(handle: WorkerHandle, lines: int = 20) -> str:
        try:
            text = handle.log_path.read_text(errors="replace")
        except OSError:
            return "(no log)"
        return "\n".join(text.splitlines()[-lines:])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker, wait until all are ready, begin supervising."""
        if self.workers:
            raise RuntimeError("cluster already started")
        for shard_id in range(self.num_shards):
            self.workers[shard_id] = self._spawn(shard_id)
        try:
            await asyncio.gather(
                *(self._wait_ready(h) for h in self.workers.values())
            )
        except BaseException:
            await self.stop(grace=1.0)
            raise
        for handle in self.workers.values():
            if self.on_ready is not None:
                self.on_ready(handle.shard_id, self.host, handle.port)
        self._supervisor = asyncio.ensure_future(self._supervise())

    async def _supervise(self) -> None:
        while not self._stopping:
            await asyncio.sleep(0.2)
            for shard_id, handle in list(self.workers.items()):
                if handle.alive or self._stopping:
                    continue
                if self.on_down is not None:
                    self.on_down(shard_id)
                self._close_log(handle)
                backoff = min(
                    self.restart_backoff * (2**handle.restarts),
                    self.max_backoff,
                )
                await asyncio.sleep(backoff)
                if self._stopping:
                    return
                replacement = self._spawn(shard_id, restarts=handle.restarts + 1)
                self.workers[shard_id] = replacement
                try:
                    await self._wait_ready(replacement)
                except (RuntimeError, TimeoutError):
                    # Exited again before ready: the next sweep retries
                    # with a longer backoff.
                    continue
                if self.on_ready is not None:
                    self.on_ready(shard_id, self.host, replacement.port)

    def kill_worker(self, shard_id: int, sig: int = signal.SIGKILL) -> None:
        """Failure drill: kill one worker and let supervision recover it."""
        handle = self.workers[shard_id]
        if handle.alive:
            handle.process.send_signal(sig)

    async def stop(self, grace: float = 10.0) -> dict[int, int]:
        """SIGTERM everyone, wait up to ``grace``, SIGKILL stragglers.

        Returns each shard's final exit code.
        """
        self._stopping = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for handle in self.workers.values():
            if handle.alive:
                handle.process.terminate()
        deadline = asyncio.get_running_loop().time() + grace
        while any(h.alive for h in self.workers.values()):
            if asyncio.get_running_loop().time() > deadline:
                for handle in self.workers.values():
                    if handle.alive:
                        handle.process.kill()
                break
            await asyncio.sleep(0.05)
        codes: dict[int, int] = {}
        for shard_id, handle in sorted(self.workers.items()):
            codes[shard_id] = handle.process.wait()
            self._close_log(handle)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        return codes

    @staticmethod
    def _close_log(handle: WorkerHandle) -> None:
        if handle.log_handle is not None:
            try:
                handle.log_handle.close()
            except OSError:
                pass
            handle.log_handle = None

    def addresses(self) -> dict[int, tuple[str, int]]:
        """Shard id → (host, port) for every worker that reached ready."""
        return {
            shard_id: (self.host, handle.port)
            for shard_id, handle in sorted(self.workers.items())
            if handle.port is not None
        }
