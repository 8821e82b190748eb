"""The load generator: a server process and a keep-alive HTTP load.

One client process, one thread: an asyncio loop drives exactly
``connections`` persistent HTTP/1.1 connections. The open-loop phase
sends each op at its scheduled time (an op due while every connection
is busy waits in a FIFO queue, and its latency still counts from its
due time); the closed-loop phase keeps every connection busy back to
back. Timestamps are ``time.perf_counter`` readings, which on Linux
share one monotonic clock with the server process.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import re
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field
from time import perf_counter

REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 150.0
_SERVING = re.compile(rb"on http://([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """A ``repro.serve serve`` process launched from ``argv``.

    ``setup_s`` is measured from the launch to the first 200 on
    ``/healthz``: imports, graph build and warmup included.
    """

    def __init__(self, argv: list[str], env: dict, log_path: str) -> None:
        self._log = open(log_path, "ab")
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        try:
            self.host, self.port = self._await_listening(started)
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - started

    def _await_listening(self, started: float) -> tuple[str, int]:
        out = self.proc.stdout.fileno()
        seen = b""
        while perf_counter() - started < START_TIMEOUT_S:
            ready, _, _ = select.select([out], [], [], 0.05)
            if ready:
                chunk = os.read(out, 65536)
                if not chunk:
                    break
                seen += chunk
                match = _SERVING.search(seen)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}): "
            f"{seen.decode(errors='replace')[-400:]}"
        )

    def _await_healthy(self) -> None:
        deadline = perf_counter() + START_TIMEOUT_S
        while perf_counter() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.01)
            finally:
                conn.close()
        raise RuntimeError("server never answered /healthz")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> bytes:
        """SIGINT (the CLI's clean shutdown), then wait; returns stdout."""
        out = b""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self._log.close()
        return out or b""


# ----------------------------------------------------------------------
# keep-alive HTTP/1.1 over asyncio streams
# ----------------------------------------------------------------------
class Connection:
    """One persistent HTTP/1.1 connection; requests go one at a time."""

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def request(self, method: str, path: str,
                      body: bytes | None = None) -> tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if body is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        # one write: the request never straddles two segments
        self.writer.write(head.encode() + b"\r\n" + (body or b""))
        try:
            header = await self.reader.readuntil(b"\r\n\r\n")
            status = int(header.split(b" ", 2)[1])
            length = 0
            for line in header.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            payload = await self.reader.readexactly(length)
        except BaseException:
            self.close()  # a half-read reply poisons the connection
            raise
        return status, payload


@dataclass
class Result:
    """What happened to one op."""

    op: object
    conn: int = -1
    due: float = 0.0  # scheduled send (closed loop: actual send)
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: bytes = b""
    lag: float = 0.0  # generator lateness: enqueue time - due time
    backlog: int = 0  # ops already waiting when this one fell due

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoadClient:
    """Sends ops over ``connections`` persistent connections."""

    host: str
    port: int
    connections: int
    mutations: list = field(default_factory=list)  # Results, send order

    def __post_init__(self) -> None:
        self.conns = [Connection(i, self.host, self.port)
                      for i in range(self.connections)]
        self._mutate_lock = asyncio.Lock()

    async def open(self) -> None:
        for conn in self.conns:
            await conn.open()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    async def _send(self, conn: Connection, result: Result) -> None:
        op = result.op
        result.conn = conn.index
        path = "/top_k" if op.kind == "top_k" else "/mutate"
        try:
            if op.kind == "mutate":
                # one write in flight at a time, in schedule order, so
                # the mutation log replays as one linear history
                async with self._mutate_lock:
                    result.sent = perf_counter()
                    self.mutations.append(result)
                    result.status, result.payload = await asyncio.wait_for(
                        conn.request("POST", path, op.body()),
                        REQUEST_TIMEOUT_S)
            else:
                result.sent = perf_counter()
                result.status, result.payload = await asyncio.wait_for(
                    conn.request("POST", path, op.body()),
                    REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError, IndexError) as exc:
            result.status = -1
            result.payload = repr(exc).encode()
        result.done = perf_counter()

    async def open_loop(self, ops: list) -> list[Result]:
        """Send ``ops`` at ``start + op.at``; FIFO when all are busy."""
        queue: asyncio.Queue = asyncio.Queue()
        results = [Result(op) for op in ops]
        start = perf_counter() + 0.005

        async def worker(conn: Connection) -> None:
            while (result := await queue.get()) is not None:
                await self._send(conn, result)

        workers = [asyncio.ensure_future(worker(c)) for c in self.conns]
        for result in results:
            result.due = start + result.op.at
            delay = result.due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lag = perf_counter() - result.due
            result.backlog = queue.qsize()
            queue.put_nowait(result)
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return results

    async def closed_loop(self, stream, seconds: float) -> tuple[
            list[Result], float]:
        """Keep every connection busy for ``seconds``; (results, span)."""
        results: list[Result] = []
        start = perf_counter()
        stop_at = start + seconds

        async def worker(conn: Connection) -> None:
            while perf_counter() < stop_at:
                result = Result(stream.next())
                results.append(result)
                result.due = perf_counter()
                await self._send(conn, result)

        await asyncio.gather(*(worker(c) for c in self.conns))
        return results, max(r.done for r in results) - start

    async def get(self, path: str) -> bytes:
        """A GET over the first load connection (between phases)."""
        status, payload = await asyncio.wait_for(
            self.conns[0].request("GET", path), REQUEST_TIMEOUT_S)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return payload


def connection_count() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))
