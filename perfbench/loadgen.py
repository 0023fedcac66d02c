"""Closed-loop HTTP load generator for the fleet workload.

One process, a fixed number of keep-alive connections; each connection
sends its next request only after the previous answer arrived.  The client
is written here, against raw sockets, so the harness shares no code with
the gateway it measures.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field


def post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


class Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def exchange(self, request: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        self.writer.write(request)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


@dataclass
class RoundResult:
    """Per request: latency in seconds and predictions (``None`` = failed)."""

    latencies: list[float] = field(default_factory=list)
    answers: list[list[str] | None] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)


async def run_round(connections: list[Connection], requests: list[bytes]) -> RoundResult:
    """Send every request once, in order, over the connections; closed loop."""
    result = RoundResult(latencies=[0.0] * len(requests), answers=[None] * len(requests))
    cursor = iter(range(len(requests)))

    async def worker(connection: Connection) -> None:
        for index in cursor:
            start = time.perf_counter()
            try:
                status, body = await connection.exchange(requests[index])
                if status == 200:
                    result.answers[index] = json.loads(body)["predictions"]
                else:
                    result.errors.append(f"HTTP {status}: {body[:200]!r}")
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError, KeyError) as error:
                result.errors.append(f"{type(error).__name__}: {error}")
                await connection.close()
            result.latencies[index] = time.perf_counter() - start

    start = time.perf_counter()
    await asyncio.gather(*(worker(connection) for connection in connections))
    result.window = (start, time.perf_counter())
    return result


async def drive(host: str, port: int, warmup: list[bytes], make_round, seconds: float,
                n_connections: int) -> list[RoundResult]:
    """Warm up, then run whole rounds until the measured time reaches ``seconds``.

    ``make_round(index)`` builds round ``index``'s request bodies; it runs
    between rounds, outside the measured time.
    """
    connections = [Connection(host, port) for _ in range(n_connections)]
    try:
        for connection in connections:
            await connection.open()
        await run_round(connections, warmup)
        rounds: list[RoundResult] = []
        measured = 0.0
        while measured < seconds:
            requests = make_round(len(rounds))
            rounds.append(await run_round(connections, requests))
            measured += rounds[-1].window[1] - rounds[-1].window[0]
        return rounds
    finally:
        for connection in connections:
            await connection.close()
