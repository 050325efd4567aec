"""The benchmark's own seeded HTTP load generator.

It talks raw HTTP/1.1 over at most two keep-alive connections, one thread
each, so the generator uses no more than the host's two cores and adds no
asyncio or HTTP-library overhead of its own.

- :func:`poisson_schedule` draws an open-loop arrival schedule from a seed;
  the rate is a constant the caller passes, never a measured one.
- :func:`open_loop` sends each request when it is due, or as soon as a
  connection frees up after that, and times it from its *scheduled* send
  time, so a stall also delays every request queued behind it.  The
  generator's own lateness (how late a free connection woke for a due
  request) is kept apart as ``lag_s``.
- :func:`closed_loop` has each connection send its next request as soon
  as the previous reply arrived (callers that wait for their reply).

Every attempt yields one :class:`Outcome`; refused connections, timeouts
and non-200 replies are outcomes too, so they count as attempted.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Connection",
    "LoadResult",
    "Outcome",
    "closed_loop",
    "error_rate",
    "open_loop",
    "poisson_schedule",
]

#: request bytes for one POST /v1/infer; the body is appended
_POST = (
    "POST /v1/infer HTTP/1.1\r\nHost: {host}\r\n"
    "Content-Type: application/x-tw-tensor\r\nContent-Length: {n}\r\n\r\n"
)


def poisson_schedule(rate: float, duration_s: float, seed: int) -> np.ndarray:
    """Send offsets (seconds from the start) of a Poisson process at ``rate``.

    Deterministic per ``(rate, duration_s, seed)``.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be positive")
    rng = np.random.default_rng(seed)
    chunk = max(16, int(rate * duration_s * 1.2) + 16)
    gaps = rng.exponential(1.0 / rate, size=chunk)
    times = np.cumsum(gaps)
    while times[-1] < duration_s:
        more = np.cumsum(rng.exponential(1.0 / rate, size=chunk)) + times[-1]
        times = np.concatenate([times, more])
    return times[times < duration_s]


@dataclass
class Outcome:
    """One attempted request."""

    index: int
    scheduled: float  # perf_counter time it was due (closed loop: when sent)
    sent: float
    done: float
    status: int  # HTTP status; 0 = refused, reset or timed out
    rows: int = 0
    server_latency_ms: float = math.nan
    queue_wait_ms: float = math.nan
    rid: int | None = None  # the server's X-Request-Id

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency_s(self) -> float:
        """From scheduled send to reply; ``inf`` for a failed request."""
        return self.done - self.scheduled if self.ok else math.inf


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)
    dropped: int = 0  # due requests never sent before the cut-off
    start: float = 0.0
    end: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def latencies_s(self) -> list[float]:
        return [o.latency_s() for o in self.outcomes]

    def chunk_rates(self) -> list[tuple[float, float]]:
        """``(requests/s, rows/s)`` over consecutive chunks of ok replies.

        A chunk is about one second's worth of replies (``k`` of them): its
        rate is ``k`` replies, and their rows, over the time from the reply
        before the chunk to its last one.
        """
        ok = sorted((o.done, o.rows) for o in self.outcomes if o.ok)
        k = max(2, round(len(ok) / max(1.0, self.end - self.start)))
        rates = []
        for i in range(0, len(ok) - k, k):
            dt = ok[i + k][0] - ok[i][0]
            rows = sum(r for _, r in ok[i + 1 : i + k + 1])
            rates.append((k / dt, rows / dt))
        return rates


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after an error."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self._sock: socket.socket | None = None
        self._reader = None

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._reader = None

    def request(self, head: bytes, body: bytes = b"") -> tuple[int, dict[str, str], bytes]:
        """Send one request; return ``(status, headers, body)``.

        Raises ``OSError`` (refused, reset, timed out) after closing the
        connection, so the next request starts on a fresh one.
        """
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(head + body)
            status_line = self._reader.readline()
            if not status_line:
                raise ConnectionResetError("server closed the connection")
            status = int(status_line.split(b" ", 2)[1])
            headers: dict[str, str] = {}
            while True:
                line = self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            n = int(headers.get("content-length", "0"))
            payload = self._reader.read(n) if n else b""
            if len(payload) != n:
                raise ConnectionResetError("short body")
            if headers.get("connection", "").lower() == "close":
                self.close()
            return status, headers, payload
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            if isinstance(exc, OSError):
                raise
            raise ConnectionError(f"malformed reply: {exc}") from None

    def get(self, path: str) -> tuple[int, dict[str, str], bytes]:
        head = f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
        return self.request(head)

    def post_tensor(self, body: bytes) -> tuple[int, dict[str, str], bytes]:
        head = _POST.format(host=self.host, n=len(body)).encode()
        return self.request(head, body)


#: request index -> (encoded body, rows)
RequestFn = Callable[[int], tuple[bytes, int]]
#: (request index, reply body) -> None; called on every 200 reply
CheckFn = Callable[[int, bytes], object]


def _attempt(conn: Connection, i: int, scheduled: float, request: RequestFn,
             check: CheckFn, clock: Callable[[], float] = time.perf_counter) -> Outcome:
    body, rows = request(i)
    sent = clock()
    try:
        status, headers, payload = conn.post_tensor(body)
    except OSError:
        return Outcome(i, scheduled, sent, clock(), 0, rows)
    done = clock()
    out = Outcome(i, scheduled, sent, done, status, rows)
    if status == 200:
        out.server_latency_ms = float(headers.get("x-latency-ms", "nan"))
        out.queue_wait_ms = float(headers.get("x-queue-wait-ms", "nan"))
        out.rid = int(headers["x-request-id"]) if "x-request-id" in headers else None
        check(i, payload)
    return out


def _run_threads(conns: list[Connection], target) -> None:
    threads = [threading.Thread(target=target, args=(c,), daemon=True) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(conns: list[Connection], offsets: np.ndarray, request: RequestFn,
              check: CheckFn, *, drain_s: float,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> LoadResult:
    """Send request ``j`` at ``start + offsets[j]``.

    A request still unsent ``drain_s`` after the last scheduled send is
    dropped (counted in ``dropped``, not attempted), which bounds the run
    when the server falls behind the schedule.
    """
    result = LoadResult(start=clock())
    due = result.start + np.asarray(offsets, dtype=float)
    cutoff = (due[-1] if len(due) else result.start) + drain_s
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                j = cursor[0]
                cursor[0] += 1
            if j >= len(due):
                return
            now = clock()
            if now > cutoff:
                with lock:
                    result.dropped += 1
                continue
            if due[j] > now:
                sleep(due[j] - now)
                lag = clock() - due[j]
                with lock:
                    result.lag_s.append(lag)
            out = _attempt(conn, j, due[j], request, check, clock)
            with lock:
                result.outcomes.append(out)

    _run_threads(conns, worker)
    result.end = clock()
    result.outcomes.sort(key=lambda o: o.index)
    return result


def closed_loop(conns: list[Connection], duration_s: float, request: RequestFn,
                check: CheckFn) -> LoadResult:
    """Each connection sends back-to-back for ``duration_s``."""
    result = LoadResult(start=time.perf_counter())
    stop_at = result.start + duration_s
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: Connection) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            out = _attempt(conn, i, time.perf_counter(), request, check)
            with lock:
                result.outcomes.append(out)

    _run_threads(conns, worker)
    result.end = time.perf_counter()
    result.outcomes.sort(key=lambda o: o.index)
    return result


def error_rate(results: list[LoadResult]) -> float:
    """Non-ok over attempted, across ``results`` (refused and timed-out
    requests are attempted and not ok)."""
    attempted = sum(r.attempted for r in results)
    return sum(r.failed for r in results) / attempted if attempted else 0.0
