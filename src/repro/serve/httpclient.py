"""A minimal keep-alive HTTP/1.1 client, standard library only.

The shard router forwards requests and probes workers through it, the
load generator and the tests drive servers with it.  It imports nothing
beyond :mod:`asyncio` and :mod:`json`, so a router process that uses it
never loads numpy or the model stack.
"""

from __future__ import annotations

import asyncio
import json

__all__ = ["HttpClient"]


class HttpClient:
    """Minimal keep-alive HTTP/1.1 client over one asyncio connection."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer already dropped the connection
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict[str, str] | None = None,
        send_delay_s: float = 0.0,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one JSON request; returns ``(status, headers, body)``.

        ``headers`` adds extra request headers (e.g. ``X-Client-Id``).
        ``send_delay_s > 0`` makes this a *slow client*: the head and the
        body go out as separate writes with that delay in between, which
        is what the server's idle-read reaper has to tolerate (fast
        enough senders) or kill (actual slow-loris).
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        return await self.request_raw(
            method, path, body, headers=headers, send_delay_s=send_delay_s
        )

    async def request_raw(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
        send_delay_s: float = 0.0,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send pre-encoded body bytes verbatim.

        The shard router forwards requests through this method so the
        bytes a worker sees — and therefore the bytes it answers with —
        are exactly the bytes the client sent.
        """
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        extra = ""
        for name, value in (headers or {}).items():
            extra += f"{name}: {value}\r\n"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        if send_delay_s > 0 and body:
            self._writer.write(head)
            await self._writer.drain()
            await asyncio.sleep(send_delay_s)
            self._writer.write(body)
        else:
            self._writer.write(head + body)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        response_body = (
            await self._reader.readexactly(length) if length else b""
        )
        return status, headers, response_body
