"""High-throughput TW model serving (ROADMAP north star: many requests).

The paper compacts and reorganises the weights once, offline (§VI
pre-processing); after that, inference only runs the tiled GEMM.
:class:`TWModelServer` is the online half of that split: it serves a
:class:`~repro.api.CompiledTWModel`, whose compact
:class:`~repro.formats.tiled.TiledTWMatrix` formats and per-device
:class:`~repro.runtime.scheduler.ExecutionPlan`\\ s ``compile()`` already
built, so every request only pays the batched GEMMs:

- **Compiled steps**: every wave executes the model's own
  :meth:`~repro.api.CompiledTWModel.wave_steps` — the same step objects
  ``run()`` executes, each layer's format (or mask-expanded weight), plan
  per device slot, epilogue and live input rows.  Nothing is compacted
  or planned while serving.
- **Micro-batching**: concurrent requests' activations stack into one
  matrix, so each layer runs *one* batched GEMM for the whole wave instead
  of one per request (``submit`` + ``flush``; ``serve`` is the
  single-request convenience).
- **Multi-device placement**: the model's
  :class:`~repro.runtime.placement.Placement` spreads work over several
  :class:`~repro.gpu.device.DeviceSpec`\\ s — ``replicated`` round-robins
  waves across full-model replicas, ``layer_sharded`` splits the layer
  stack so each wave flows shard to shard.
- **Pluggable execution**: the placement emits a device→work
  mapping (:meth:`~repro.runtime.placement.Placement.wave_slots`) and an
  :class:`~repro.runtime.executor.Executor` — ``inline`` (the sequential
  oracle) or ``threaded`` (one worker thread per device slot, bounded
  wave pipeline) — decides how those device-tagged work items overlap in
  wall-time.  Outputs are bit-identical across executors; only wall-time
  and the measured occupancy stats change.  :meth:`TWModelServer.close`
  tears the executor down.
- **Stats**: per-request latency, per-flush batch sizes, rows/s and
  requests/s throughput, per-device busy time/GEMM counts and measured
  flush wall-time (``wall_time_s`` / ``parallel_efficiency()``).
- **Fault tolerance & SLOs**: every submitted request reaches a
  *terminal* :attr:`ServedRequest.status` — ``ok``, ``failed`` (poison
  isolated after retries/bisection), ``shed`` (backpressure) or
  ``expired`` (deadline passed before execution).  ``flush()`` retries
  failed waves up to ``max_retries`` and bisects deterministically
  failing waves so one poison request cannot take down its wave-mates.
  ``ServerConfig(faults=...)`` wires a deterministic
  :class:`~repro.runtime.faults.FaultInjector` through every wave for
  chaos testing and recovery benchmarks.

Each TW layer runs as one GEMM over the tiles of its compiled plan
(:func:`~repro.kernels.masked.tw_gemm`); the plan's stream order is what
the cost model prices, not an execution order.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.executor import EXECUTORS, WaveTask, resolve_executor
from repro.runtime.faults import FaultInjector, resolve_faults

if TYPE_CHECKING:
    from repro.api import CompiledTWModel

__all__ = [
    "QueueFullError",
    "ServerConfig",
    "ServedRequest",
    "ServerStats",
    "TWModelServer",
]


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when ``max_queue_rows`` is hit under the
    ``reject`` shed policy (or when a single request can never fit)."""


@dataclass(frozen=True)
class ServerConfig:
    """Serving configuration for one server instance.

    What to serve — formats, plans, placement, dtypes — comes from the
    compiled model; this only says how waves are formed, executed and
    protected.

    Attributes
    ----------
    max_wave_rows:
        Row cap per micro-batch wave; larger queues split into successive
        waves (requests never split across waves).
    executor:
        How placed waves execute in wall-time — an
        :data:`~repro.runtime.executor.EXECUTORS` registry name
        (``inline``/``threaded``).  ``inline`` is the sequential oracle;
        ``threaded`` runs one worker thread per device slot so replicated
        waves and layer-sharded pipeline stages overlap wherever the GIL
        allows.  Outputs are bit-identical in every case.
    workers:
        Worker-thread cap for ``threaded`` (``None`` = one per device
        slot).  Passing it with an executor that has no workers
        (``inline``) is an error, not a silent no-op.
    max_retries:
        Re-execution budget per failed wave group in ``flush()`` (``0`` =
        no retries, failures go straight to bisection/poison handling).
    retry_backoff_s:
        Base sleep before a failed group re-runs, doubled per attempt
        (``backoff × 2^(attempt-1)``).  ``0`` (default) retries
        immediately.
    max_queue_rows:
        Backpressure bound on queued activation rows (``0`` =
        unbounded).  When a ``submit`` would exceed it, ``shed_policy``
        decides: ``reject`` raises :class:`QueueFullError`; ``shed_oldest``
        drops the oldest queued requests (they surface from the next
        ``flush`` with ``status="shed"``) to make room.
    shed_policy:
        ``"reject"`` (default) or ``"shed_oldest"`` — see
        ``max_queue_rows``.
    watchdog_s:
        Per-wave stall bound forwarded to the executor (``None`` =
        executor default, 60s for ``threaded``).  Only meaningful for
        executors with watchdogs; setting it with ``inline`` is an error.
    faults:
        Deterministic fault schedule for chaos testing — a
        :class:`~repro.runtime.faults.FaultInjector`, a spec string
        (``"exception:wave=1;latency:rate=0.1"``), or ``None`` (default).
        Attached to every wave so both executors replay the same seeded
        schedule.
    """

    max_wave_rows: int = 8192
    executor: str = "inline"
    workers: int | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.0
    max_queue_rows: int = 0
    shed_policy: str = "reject"
    watchdog_s: float | None = None
    faults: FaultInjector | str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_wave_rows, int) or self.max_wave_rows <= 0:
            raise ValueError(
                f"max_wave_rows must be a positive int, got {self.max_wave_rows!r}"
            )
        if not isinstance(self.executor, str):
            raise TypeError(
                f"executor must be a registry name string, got "
                f"{type(self.executor).__name__}"
            )
        object.__setattr__(self, "executor", EXECUTORS.canonical(self.executor))
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ValueError(
                f"workers must be a positive int or None, got {self.workers!r}"
            )
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        if not np.isfinite(self.retry_backoff_s) or self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be finite and non-negative, "
                f"got {self.retry_backoff_s!r}"
            )
        if not isinstance(self.max_queue_rows, int) or self.max_queue_rows < 0:
            raise ValueError(
                f"max_queue_rows must be a non-negative int (0 = unbounded), "
                f"got {self.max_queue_rows!r}"
            )
        if self.shed_policy not in ("reject", "shed_oldest"):
            raise ValueError(
                f"shed_policy must be 'reject' or 'shed_oldest', "
                f"got {self.shed_policy!r}"
            )
        if self.watchdog_s is not None and (
            not np.isfinite(self.watchdog_s) or self.watchdog_s < 0
        ):
            raise ValueError(
                f"watchdog_s must be finite and >= 0 or None, got {self.watchdog_s!r}"
            )
        # normalise once so the server (and repeated flushes) always see a
        # ready injector; spec strings parse here, at configuration time
        object.__setattr__(self, "faults", resolve_faults(self.faults))


@dataclass
class ServedRequest:
    """One *terminal* request: output (when served) plus observed latency.

    ``status`` is the terminal disposition every submitted request is
    guaranteed to reach under ``flush()``:

    - ``"ok"``      — served; ``output`` holds the result rows.
    - ``"failed"``  — the request failed deterministically even alone
      (poison, isolated by retry + bisection); ``error`` holds the last
      failure, ``output`` is ``None``.
    - ``"shed"``    — dropped by ``max_queue_rows`` backpressure under the
      ``shed_oldest`` policy; ``output`` is ``None``.
    - ``"expired"`` — its ``deadline_s`` passed before any GEMM ran;
      ``output`` is ``None``.

    ``latency_s`` is enqueue→terminal wall-time in every case — anchored
    at the *enqueue* timestamp (``submit(..., enqueued_at=)``) when the
    request arrived through an ingress queue, so time spent backlogged
    before admission counts.  For ``"ok"`` requests it splits as
    ``latency_s == queue_wait_s + service_s``: ``queue_wait_s`` is
    enqueue→wave-launch (ingress backlog + server queue + any retry
    churn before the wave that finally served it) and ``service_s`` is
    that wave's executor service (GEMM wall time).  Non-``ok`` requests
    never complete a wave, so the whole latency is queue wait
    (``service_s == 0``).  ``batch_id`` is the last wave that ran (or
    tried to run) the request, ``-1`` if it never entered a wave.
    """

    request_id: int
    output: np.ndarray | None
    rows: int
    latency_s: float
    batch_id: int
    status: str = "ok"
    error: BaseException | None = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0


#: per-request latencies retained for percentile-style inspection; older
#: entries age out so a long-lived server's stats stay O(1) memory
LATENCY_WINDOW = 4096


@dataclass
class ServerStats:
    """Running counters; throughput is derived from GEMM busy time."""

    requests: int = 0
    rows: int = 0
    batches: int = 0
    gemms: int = 0
    #: wave steps executed, each reading a compiled format and plan (every
    #: wave contributes one per layer, retried waves included)
    steps: int = 0
    busy_s: float = 0.0
    #: measured wall-clock seconds spent inside executor runs (``flush``);
    #: with a concurrent executor this is *less* than ``busy_s`` — the
    #: difference is realised overlap, not modeled headroom
    wall_time_s: float = 0.0
    latency_total_s: float = 0.0
    #: wave-group re-executions after a failure
    retries: int = 0
    #: requests put back in the work queue by a retry or bisection
    requeues: int = 0
    #: requests dropped by ``max_queue_rows`` backpressure (``shed_oldest``)
    shed: int = 0
    #: requests shed because their ``deadline_s`` passed before execution
    expired: int = 0
    #: requests isolated as poison (terminal ``status="failed"``)
    poisoned: int = 0
    latencies_s: deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    #: GEMM busy seconds attributed to each placement slot (``name#index``;
    #: two replicas of the same device model are distinct slots)
    device_busy_s: dict[str, float] = field(default_factory=dict)
    #: GEMM launches attributed to each placement slot (``name#index``)
    device_gemms: dict[str, int] = field(default_factory=dict)

    def rows_per_s(self) -> float:
        """Activation rows served per second of GEMM busy time."""
        return self.rows / self.busy_s if self.busy_s > 0 else 0.0

    def requests_per_s(self) -> float:
        """Requests completed per second of GEMM busy time."""
        return self.requests / self.busy_s if self.busy_s > 0 else 0.0

    def mean_latency_s(self) -> float:
        """Mean per-request latency (queueing + execution) over all requests."""
        return self.latency_total_s / self.requests if self.requests else 0.0

    def critical_path_s(self) -> float:
        """Busiest single device's GEMM time — the sharded makespan bound.

        With perfect overlap across shards/replicas, wall time approaches
        this instead of :attr:`busy_s` (the sum over devices); the ratio
        ``busy_s / critical_path_s`` is the placement's parallel headroom.
        """
        return max(self.device_busy_s.values(), default=0.0)

    def measured_speedup(self) -> float:
        """Measured wall-time speedup over serial execution.

        ``busy_s / wall_time_s``: how much faster the executor ran the
        work than executing every slot's occupancy back to back.  ``1.0``
        for the ``inline`` executor (up to timing noise).
        """
        return self.busy_s / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def parallel_efficiency(self) -> float:
        """Measured speedup as a fraction of the modeled headroom.

        The modeled headroom is ``busy_s / critical_path_s()`` (perfect
        overlap); the measured speedup is ``busy_s / wall_time_s``.  Their
        ratio collapses to ``critical_path_s() / wall_time_s``: ``1.0``
        means wall-time hit the modeled bound, ``~0.5`` means a 2-device
        placement ran effectively serially (e.g. under ``inline``).
        """
        if self.wall_time_s <= 0:
            return 0.0
        return self.critical_path_s() / self.wall_time_s

    def percentile_latency_s(self, q: float) -> float:
        """Latency percentile over the retained window (0.0 when empty).

        Computed from :attr:`latencies_s`, the rolling
        :data:`LATENCY_WINDOW`-deep deque of per-request enqueue→terminal
        latencies — a long-lived server reports *recent* percentiles, not
        lifetime ones.
        """
        if not self.latencies_s:
            return 0.0
        window = np.fromiter(self.latencies_s, dtype=np.float64)
        return float(np.percentile(window, q))

    def p50_latency_s(self) -> float:
        return self.percentile_latency_s(50.0)

    def p95_latency_s(self) -> float:
        return self.percentile_latency_s(95.0)

    def p99_latency_s(self) -> float:
        return self.percentile_latency_s(99.0)

    def record(self) -> dict:
        """JSON-ready snapshot of every counter and derived metric.

        The structured twin of the CLI's stats table: plain dicts of
        numbers (no numpy scalars), safe to ``json.dump`` as-is.  The
        server adds queue/wave/topology context on top of this in
        :meth:`TWModelServer.stats_record`.
        """
        wall = self.wall_time_s
        # every step reads the compiled format and plan: the cache section
        # keeps its historical shape, with nothing ever missed
        hit_rate = 1.0 if self.steps else 0.0
        return {
            "requests": self.requests,
            "rows": self.rows,
            "gemms": self.gemms,
            "rows_per_s": round(self.rows_per_s(), 2),
            "requests_per_s": round(self.requests_per_s(), 2),
            "latency_ms": {
                "mean": round(self.mean_latency_s() * 1e3, 3),
                "p50": round(self.p50_latency_s() * 1e3, 3),
                "p95": round(self.p95_latency_s() * 1e3, 3),
                "p99": round(self.p99_latency_s() * 1e3, 3),
                "window": len(self.latencies_s),
            },
            "busy_s": round(self.busy_s, 6),
            "wall_time_s": round(wall, 6),
            "measured_speedup": round(self.measured_speedup(), 3),
            "parallel_efficiency": round(self.parallel_efficiency(), 3),
            "device_busy_pct": {
                label: round(100.0 * busy / wall, 1) if wall > 0 else 0.0
                for label, busy in sorted(self.device_busy_s.items())
            },
            "device_gemms": dict(sorted(self.device_gemms.items())),
            "cache": {
                "format_hits": self.steps,
                "format_misses": 0,
                "format_hit_rate": hit_rate,
                "plan_hits": self.steps,
                "plan_misses": 0,
                "plan_hit_rate": hit_rate,
            },
            "slo": {
                "retries": self.retries,
                "requeues": self.requeues,
                "shed": self.shed,
                "expired": self.expired,
                "poisoned": self.poisoned,
            },
        }


@dataclass
class _Pending:
    """One queued request: activations plus its admission metadata.

    ``deadline_at`` is an absolute ``perf_counter`` timestamp (``None`` =
    no deadline); ``attempts`` counts failed wave executions this request
    has been part of since its group last (re)formed — reset on bisection
    so each half gets a fresh budget.
    """

    rid: int
    x: np.ndarray
    submitted_at: float
    deadline_at: float | None = None
    attempts: int = 0


class TWModelServer:
    """Serve a compiled model's layer stack with micro-batched waves.

    Every executable compilation serves: TW layers run ``tw_gemm`` and
    dense or mask-only layers their mask-expanded weight.  A request's
    activations flow through every layer in order.  Outputs are
    bit-identical to :meth:`repro.api.CompiledTWModel.run` on the same
    rows.
    """

    def __init__(
        self, model: CompiledTWModel, config: ServerConfig | None = None
    ) -> None:
        model._require_weights("serve")
        # build the first wave's steps now: a model that cannot execute
        # (layers that do not chain) fails here, not on every request
        model.wave_steps(0)
        self.model = model
        self.config = config or ServerConfig()
        self.placement = model.placement
        self.model_k = model.layers[0].shape[0]
        self._dtype = model.activation_dtype
        self.executor = resolve_executor(
            self.config.executor,
            workers=self.config.workers,
            watchdog_s=self.config.watchdog_s,
        )
        self.stats = ServerStats()
        self._closed = False
        self._pending: deque[_Pending] = deque()
        self._queued_rows = 0
        #: requests shed at submit time (``shed_oldest``), surfaced by the
        #: next ``flush`` so every request still reaches a terminal status
        self._shed_buffer: list[ServedRequest] = []
        self._next_id = 0
        self._batch_id = 0

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def submit(
        self,
        x: np.ndarray,
        *,
        deadline_s: float | None = None,
        enqueued_at: float | None = None,
    ) -> int:
        """Queue one request's activations (``rows × K``); returns its id.

        ``deadline_s`` is an optional latency budget, relative to the
        request's enqueue time: a request whose deadline passes before it
        executes is *shed* at the next ``flush`` (terminal
        ``status="expired"``, no GEMM runs for it), and waves assemble
        shortest-deadline-first.

        ``enqueued_at`` is an optional ``perf_counter`` timestamp of when
        the request *arrived* (defaults to now).  An ingress layer that
        backlogs requests before admitting them passes its arrival stamp
        here so reported latency includes ingress queue wait and the
        deadline budget starts ticking at arrival, not admission.

        When ``max_queue_rows`` is configured and this submit would
        exceed it, the ``shed_policy`` applies: ``reject`` raises
        :class:`QueueFullError`; ``shed_oldest`` drops the oldest queued
        requests to make room (they surface from the next ``flush`` with
        ``status="shed"``).
        """
        x = np.atleast_2d(np.asarray(x))
        if x.shape[1] != self.model_k:
            raise ValueError(f"request K={x.shape[1]} != model K={self.model_k}")
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if not np.isfinite(deadline_s) or deadline_s < 0:
                raise ValueError(
                    f"deadline_s must be finite and non-negative, got {deadline_s!r}"
                )
        now = time.perf_counter()
        arrival = now
        if enqueued_at is not None:
            arrival = float(enqueued_at)
            if arrival > now:
                raise ValueError("enqueued_at must not be in the future")
        rows = x.shape[0]
        bound = self.config.max_queue_rows
        if bound:
            if rows > bound:
                raise QueueFullError(
                    f"request of {rows} rows can never fit max_queue_rows={bound}"
                )
            if self._queued_rows + rows > bound:
                if self.config.shed_policy == "reject":
                    raise QueueFullError(
                        f"queue holds {self._queued_rows} rows; admitting "
                        f"{rows} more would exceed max_queue_rows={bound}"
                    )
                while self._pending and self._queued_rows + rows > bound:
                    victim = self._pending.popleft()
                    self._queued_rows -= victim.x.shape[0]
                    self.stats.shed += 1
                    self._shed_buffer.append(
                        ServedRequest(
                            request_id=victim.rid,
                            output=None,
                            rows=victim.x.shape[0],
                            latency_s=now - victim.submitted_at,
                            batch_id=-1,
                            status="shed",
                            queue_wait_s=now - victim.submitted_at,
                        )
                    )
        rid = self._next_id
        self._next_id += 1
        self._pending.append(
            _Pending(
                rid=rid,
                x=x,
                submitted_at=arrival,
                deadline_at=None if deadline_s is None else arrival + deadline_s,
            )
        )
        self._queued_rows += rows
        return rid

    def flush(self) -> list[ServedRequest]:
        """Run every queued request as micro-batched GEMMs (one per layer).

        Waves larger than ``max_wave_rows`` split into successive
        micro-batches; requests never split across waves, and waves
        assemble shortest-deadline-first (FIFO among requests without
        deadlines).  The placement maps every wave's layers to device
        slots (:meth:`~repro.runtime.placement.Placement.wave_slots`) and
        the configured executor runs the whole wave list — sequentially
        under ``inline``, overlapped across slots under ``threaded``.
        Outputs are bit-identical across executors.

        Every queued request reaches a terminal
        :attr:`ServedRequest.status` and nothing raises: expired requests
        are shed before any GEMM runs for them; a failed wave retries up
        to ``max_retries`` (with exponential ``retry_backoff_s``); a wave
        still failing after its budget is *bisected* so a
        deterministically-failing poison request terminates alone with
        ``status="failed"`` instead of taking down its wave-mates.
        Retried waves get *fresh* wave indices, so transient faults
        (wave-pinned injections, flaky workers) clear on retry; total work
        is bounded by ``O(n · max_retries · log n)`` wave executions.
        Results are returned sorted by request id.
        """
        served: list[ServedRequest] = list(self._shed_buffer)
        self._shed_buffer.clear()
        if not self._pending:
            served.sort(key=lambda r: r.request_id)
            return served
        # drain the queue into wave groups: shortest-deadline-first; the
        # sort is stable, so deadline-free traffic keeps its FIFO order
        ordered = sorted(
            self._pending,
            key=lambda p: (
                p.deadline_at if p.deadline_at is not None else math.inf
            ),
        )
        self._pending.clear()
        self._queued_rows = 0
        work: deque[list[_Pending]] = deque()
        group: list[_Pending] = []
        rows = 0
        for p in ordered:
            r = p.x.shape[0]
            if group and rows + r > self.config.max_wave_rows:
                work.append(group)
                group, rows = [], 0
            group.append(p)
            rows += r
        if group:
            work.append(group)
        while work:
            waves, results, build_failures = self._run_waves(work, served)
            for (g, batch_id), result in zip(waves, results):
                self._merge_accounting(result)
                if result.error is None:
                    self._emit_ok(g, batch_id, result, served)
                    continue
                self._handle_failed_group(
                    g, result.error, batch_id, result.done_at, work, served
                )
            for g, exc in build_failures:
                self._handle_failed_group(g, exc, -1, 0.0, work, served)
        served.sort(key=lambda r: r.request_id)
        return served

    def _run_waves(
        self, work: deque[list[_Pending]], served: list[ServedRequest]
    ) -> tuple[list, list, list]:
        """One executor pass over the current work queue (lazy stream).

        Waves are built as the executor admits them: requests leave
        ``work`` one group at a time (bounded peak memory), and when
        execution fails the executor stops pulling — the unconsumed tail
        stays on ``work`` for the caller.  Expired requests are shed into
        ``served`` before their wave forms.  Returns the ``(group, wave
        index)`` of every executed wave, their results, and the
        ``(group, error)`` of every group whose wave could not be
        assembled.  Waves are built on the driver thread inside
        ``_wave_task``, so ``busy_s`` times GEMM execution only.
        """
        waves: list[tuple[list[_Pending], int]] = []
        build_failures: list[tuple[list[_Pending], BaseException]] = []

        def task_stream():
            while work:
                g = self._shed_expired(work.popleft(), served)
                if not g:
                    continue
                try:
                    task = self._wave_task(g)
                except Exception as exc:
                    # wave assembly itself failed (e.g. a malformed
                    # request breaks the concatenate): route the group
                    # through the failure handling instead of blowing up
                    # the whole flush
                    build_failures.append((g, exc))
                    continue
                waves.append((g, task.index))
                yield task

        stream = task_stream()
        first = next(stream, None)
        if first is None:  # everything left had expired or failed to build
            return waves, [], build_failures
        t0 = time.perf_counter()
        results = self.executor.run(itertools.chain((first,), stream))
        self.stats.wall_time_s += time.perf_counter() - t0
        return waves, results, build_failures

    def _handle_failed_group(
        self,
        g: list[_Pending],
        error: BaseException,
        batch_id: int,
        done_at: float,
        work: deque[list[_Pending]],
        served: list[ServedRequest],
    ) -> None:
        """Retry, bisect, or poison-isolate one failed wave group."""
        for p in g:
            p.attempts += 1
        attempts = g[0].attempts
        if attempts <= self.config.max_retries:
            self.stats.retries += 1
            self.stats.requeues += len(g)
            backoff = self.config.retry_backoff_s
            if backoff > 0.0:
                time.sleep(backoff * (2 ** (attempts - 1)))
            work.append(g)
        elif len(g) > 1:
            # deterministic failure: bisect to isolate the poison; each
            # half gets a fresh attempt budget
            mid = len(g) // 2
            self.stats.requeues += len(g)
            for half in (g[:mid], g[mid:]):
                for p in half:
                    p.attempts = 0
                work.append(half)
        else:
            p = g[0]
            self.stats.poisoned += 1
            latency = (done_at or time.perf_counter()) - p.submitted_at
            served.append(
                ServedRequest(
                    request_id=p.rid,
                    output=None,
                    rows=p.x.shape[0],
                    latency_s=latency,
                    batch_id=batch_id,
                    status="failed",
                    error=error,
                    queue_wait_s=latency,
                )
            )

    def _merge_accounting(self, result) -> None:
        """Merge one wave's measured occupancy — including a failed wave's
        pre-failure work — so stats never lose busy time."""
        for label, busy in result.busy_by_label.items():
            self.stats.device_busy_s[label] = (
                self.stats.device_busy_s.get(label, 0.0) + busy
            )
            self.stats.busy_s += busy
        for label, n in result.gemms_by_label.items():
            self.stats.device_gemms[label] = (
                self.stats.device_gemms.get(label, 0) + n
            )
            self.stats.gemms += n

    def _emit_ok(
        self,
        group: list[_Pending],
        batch_id: int,
        result,
        served: list[ServedRequest],
    ) -> None:
        """Slice one successful wave's output back into per-request results."""
        self.stats.batches += 1
        offset = 0
        service = max(0.0, result.done_at - result.started_at)
        for p in group:
            r = p.x.shape[0]
            latency = result.done_at - p.submitted_at
            self.stats.requests += 1
            self.stats.rows += r
            self.stats.latency_total_s += latency
            self.stats.latencies_s.append(latency)
            served.append(
                ServedRequest(
                    request_id=p.rid,
                    output=result.output[offset : offset + r],
                    rows=r,
                    latency_s=latency,
                    batch_id=batch_id,
                    queue_wait_s=max(0.0, latency - service),
                    service_s=service,
                )
            )
            offset += r

    def _shed_expired(
        self, group: list[_Pending], served: list[ServedRequest]
    ) -> list[_Pending]:
        """Drop already-expired requests from a group before any GEMM runs."""
        now = time.perf_counter()
        keep: list[_Pending] = []
        for p in group:
            if p.deadline_at is not None and now >= p.deadline_at:
                self.stats.expired += 1
                served.append(
                    ServedRequest(
                        request_id=p.rid,
                        output=None,
                        rows=p.x.shape[0],
                        latency_s=now - p.submitted_at,
                        batch_id=-1,
                        status="expired",
                        queue_wait_s=now - p.submitted_at,
                    )
                )
            else:
                keep.append(p)
        return keep

    def serve(self, x: np.ndarray) -> ServedRequest:
        """Submit one request and flush immediately."""
        rid = self.submit(x)
        for req in self.flush():
            if req.request_id == rid:
                return req
        raise RuntimeError(f"request {rid} did not reach a terminal status")

    def stats_record(self) -> dict:
        """Structured observability snapshot (ROADMAP item 5c, JSON-ready).

        :meth:`ServerStats.record` plus the server-level context the bare
        counters can't see: current queue depth, realised wave occupancy
        (mean admitted rows vs ``max_wave_rows``), and the
        executor/placement topology.  Safe to call at any quiescent point;
        when an ingress loop polls it while a flush runs on another
        thread, the snapshot is advisory (counters mid-update), which is
        fine for dashboards and periodic logs.
        """
        st = self.stats
        rec = st.record()
        rec["queue"] = {
            "depth_requests": len(self._pending),
            "depth_rows": self._queued_rows,
            "max_queue_rows": self.config.max_queue_rows,
        }
        mean_wave_rows = st.rows / st.batches if st.batches else 0.0
        rec["waves"] = {
            "count": st.batches,
            "mean_rows": round(mean_wave_rows, 2),
            "max_wave_rows": self.config.max_wave_rows,
            "occupancy": (
                round(mean_wave_rows / self.config.max_wave_rows, 4)
                if self.config.max_wave_rows
                else 0.0
            ),
        }
        rec["executor"] = self.executor.describe()
        rec["placement"] = f"{self.placement.kind} x{self.placement.n_devices}"
        return rec

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Tear the server down (idempotent): closes the executor."""
        if self._closed:
            return
        self._closed = True
        self.executor.close()

    def __enter__(self) -> "TWModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wave_task(self, wave: list[_Pending]) -> WaveTask:
        """One wave as device-tagged work items.

        The steps are the model's own
        :meth:`~repro.api.CompiledTWModel.wave_steps` for this wave, so
        every executor, segment split and ``run()`` execute the same
        format, plan and live input rows per layer.
        """
        batch = np.concatenate([p.x for p in wave], axis=0)
        steps = self.model.wave_steps(self._batch_id)
        self.stats.steps += len(steps)
        task = WaveTask(
            index=self._batch_id,
            batch=batch.astype(self._dtype, copy=False),
            steps=steps,
            faults=self.config.faults,
        )
        self._batch_id += 1
        return task
