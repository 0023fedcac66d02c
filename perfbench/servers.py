"""Start, probe and stop the serving processes of the fleet workload.

The fleet runs as users run it: ``python -m repro.fleet`` with its default
settings apart from the bundle, the port and one replica.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from perfbench import machine

HOST = "127.0.0.1"
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
STATS_KEYS = ("mean_batch_size", "batches", "cache_hits", "cache_misses",
              "results_cache_hits", "results_cache_misses", "dispatches")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def command(bundle: Path, port: int) -> list[str]:
    return [sys.executable, "-m", "repro.fleet", "--bundle", str(bundle),
            "--host", HOST, "--port", str(port), "--replicas", "1"]


def _get(port: int, path: str) -> tuple[int, bytes]:
    with socket.create_connection((HOST, port), timeout=5.0) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
                     .encode("latin-1"))
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _ready(port: int) -> bool:
    """``/healthz`` answers 200 and every replica (if any) is up."""
    try:
        status, body = _get(port, "/healthz")
    except OSError:
        return False
    if status != 200:
        return False
    replicas = json.loads(body).get("replicas", {})
    return all(info.get("state") == "up" for info in replicas.values())


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """One fleet process tree; :meth:`start` returns once it can answer."""

    def __init__(self, bundle: Path, env: dict, log: Path):
        self.bundle, self.env, self.log = bundle, env, log
        self.port = free_port()
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        """Launch and wait for readiness; returns the set-up time in seconds."""
        with self.log.open("ab") as log:
            start = time.perf_counter()
            self.process = subprocess.Popen(
                command(self.bundle, self.port), env=self.env,
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        while not _ready(self.port):
            if self.process.poll() is not None:
                raise RuntimeError(f"fleet exited with {self.process.returncode}; "
                                   f"see {self.log.name}:\n{self.log_tail()}")
            if time.perf_counter() - start > READY_TIMEOUT_S:
                raise RuntimeError(f"fleet not ready after {READY_TIMEOUT_S}s")
            time.sleep(0.002)
        return time.perf_counter() - start

    def stats(self) -> dict:
        """A few of the server's own ``/stats`` counters (reported, not checked)."""
        status, body = _get(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}: {body[:200]!r}")
        payload = json.loads(body)
        return {key: value for part in (payload["gateway"], payload["service"])
                for key, value in part.items() if key in STATS_KEYS}

    def pids(self) -> list[int]:
        return [self.process.pid, *machine.descendants(self.process.pid)]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill whatever is left."""
        if self.process is None:
            return
        tree = self.pids()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.process = None

    def log_tail(self, lines: int = 20) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
