"""Pluggable wave executors: how placed work actually runs (ISSUE 4).

:class:`~repro.runtime.placement.Placement` decides *where* each layer of a
micro-batch wave runs (the device→work mapping,
:meth:`~repro.runtime.placement.Placement.wave_slots`); an :class:`Executor`
decides *how* that mapping executes in wall-time:

- ``inline``   — every wave's layers run sequentially on the calling
  thread.  This is the historical server behaviour, kept as the
  bit-identity oracle the concurrent executors are tested against.
- ``threaded`` — one worker thread per device slot, with a bounded
  in-flight wave window.  Waves bound for different slots (``replicated``)
  run concurrently, and under ``layer_sharded`` successive waves *stream*
  through the shard pipeline — wave ``i+1`` occupies shard 0 while wave
  ``i`` runs on shard 1 — instead of marching lock-step.  NumPy GEMMs
  release the GIL, so on a multi-core host the overlap is real compute
  overlap.

Oracle contract (standing, ISSUE 4/7)
-------------------------------------
``inline`` **is and remains the bit-identity oracle**: every concurrent
executor — ``threaded`` and any future registry entry — must produce
byte-identical outputs to an ``inline`` run of the same waves, with and
without injected faults.  ``inline`` itself must never grow concurrency
or be "optimised"; it is the simplest possible semantics the others are
measured against (``tests/test_executor.py``/``tests/test_faults.py``
enforce this).

Executors are resolved through :data:`EXECUTORS` — the same
:class:`~repro.patterns.registry.Registry` class as patterns, engines and
placements — so a new execution strategy (async, remote) is a registry
entry, not a new dispatch path in the server.

Determinism contract
--------------------
Outputs are **bit-identical across executors**: each wave's layer chain is
a fixed sequence of GEMMs on the same operands, plans and ``rows``
regardless of which thread runs them, and waves never share mutable state
(the operand memos on frozen weights are value-deterministic, so racing
builders write identical entries).  Only *wall-time* and the measured
busy stats differ.  ``rows`` — the input features a step's GEMM reduces
over — and ``cols`` — the packed columns it writes — are static per step:
:meth:`repro.api.CompiledTWModel.wave_steps` fixes them on each
:class:`WaveStep`, and executors only pass them through.  They must never
be derived from how a wave is split into per-worker segments: a segment
that restarted the chain with ``rows=None`` would sum over a different
``K`` than ``inline`` and change the output bits.

Fault tolerance (ISSUE 6)
-------------------------
A :class:`WaveTask` may carry a
:class:`~repro.runtime.faults.FaultInjector`; both executors consult it
before every step, so a seeded fault schedule replays identically across
executors.  Failures — injected or genuine — are *recorded* on the wave's
:class:`WaveResult` rather than raised, and the hardened ``threaded``
driver additionally runs a **watchdog**: a wave that fails to finish
within ``watchdog_s`` (e.g. a stalled worker) is failed with
:class:`TimeoutError` and its worker is respawned, so ``run`` — and
therefore ``TWModelServer.flush`` — never hangs on a dead thread.  Worker
loops survive arbitrary errors (including non-``Exception``
``BaseException``\\ s): any error in a wave's bookkeeping fails that wave
visibly instead of silently killing the thread.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.fusion import EpilogueSpec, apply_epilogue
from repro.kernels.masked import host_gemm, tw_gemm
from repro.patterns.registry import Registry
from repro.runtime.faults import FaultInjector
from repro.runtime.scheduler import ExecutionPlan

__all__ = [
    "EXECUTORS",
    "Executor",
    "InlineExecutor",
    "ThreadedExecutor",
    "WaveStep",
    "WaveTask",
    "WaveResult",
    "available_executors",
    "resolve_executor",
]

EXECUTORS = Registry("executor")

#: what ``ThreadedExecutor.close()`` puts on each worker queue
_STOP = object()
#: bound on how long ``ThreadedExecutor.close()`` waits for its workers
_CLOSE_JOIN_S = 5.0


@dataclass(frozen=True)
class WaveStep:
    """One layer of one wave, tagged with the device slot that runs it.

    Built only by :meth:`repro.api.CompiledTWModel.wave_steps`; ``run()``
    and every executor consume the same steps.  A dense or mask-only
    layer carries its mask-expanded ``weight`` (``tw``/``plan`` are
    ``None``) and runs as one :func:`~repro.kernels.masked.host_gemm`.
    """

    layer: int
    tw: TiledTWMatrix | None
    plan: ExecutionPlan | None
    slot: int
    label: str
    #: optional fused non-GEMM consumer applied right after this step's
    #: GEMM, inside the wave task (the step's input activations serve as
    #: the residual stream); its time counts in the slot's busy accounting
    epilogue: EpilogueSpec | None = None
    #: the input features this step's GEMM reduces over
    #: (:func:`~repro.kernels.masked.live_rows` of the previous layer;
    #: ``None`` = all of ``K``), fixed when the step is built.  When the
    #: previous step wrote packed (its ``cols`` are these rows) the input
    #: holds just these columns
    rows: np.ndarray | None = None
    #: the output columns this step writes, packed into an ``M × len(cols)``
    #: array (``tw_gemm(..., cols=)``): the next step's ``rows``, set only
    #: when the next step is a TW GEMM that reads nothing else.  The
    #: ``epilogue`` vectors are already sliced to them.  ``None`` = all ``N``
    cols: np.ndarray | None = None
    #: the mask-expanded dense weight of a layer without a TW format
    weight: np.ndarray | None = None


@dataclass(frozen=True)
class WaveTask:
    """One micro-batch wave: stacked activations + its device-tagged steps.

    ``faults`` optionally carries the server's
    :class:`~repro.runtime.faults.FaultInjector`: attaching the schedule
    to the task (rather than the executor) keeps executors config-free and
    guarantees both executors consult the same schedule at the same
    ``(wave index, layer, slot)`` sites.
    """

    index: int
    batch: np.ndarray
    steps: tuple[WaveStep, ...]
    faults: FaultInjector | None = None


@dataclass
class WaveResult:
    """One executed wave: output + measured per-slot occupancy.

    ``busy_by_label``/``gemms_by_label`` are keyed by the placement's slot
    labels (``name#slot``); ``started_at``/``done_at`` are ``perf_counter``
    timestamps bracketing the wave's executor service — ``started_at`` is
    set when the wave is launched into its executor (first GEMM imminent),
    so the server can split request latency (``done_at - submit time``)
    into queue wait (``started_at - submit time``) and wave service
    (``done_at - started_at``).

    ``error`` records a step failure instead of raising from the
    executor: the caller (the server) can then account the work that
    *did* complete — including this wave's pre-failure steps, whose
    busy/gemm numbers are already merged in — before surfacing the error.
    """

    output: np.ndarray
    busy_by_label: dict[str, float] = field(default_factory=dict)
    gemms_by_label: dict[str, int] = field(default_factory=dict)
    started_at: float = 0.0
    done_at: float = 0.0
    error: BaseException | None = None


def _execute_steps(
    a: np.ndarray,
    steps,
    result: WaveResult,
    *,
    wave_index: int = 0,
    faults: FaultInjector | None = None,
) -> np.ndarray:
    """Run ``steps`` sequentially on ``a``, timing slot occupancy.

    Shared by both executors so the math — and therefore the output bits —
    cannot diverge between them; it is the per-step math of
    :meth:`repro.api.CompiledTWModel.run`, plus timing and fault sites.
    The optional fault injector is consulted *inside* the timed region
    before each GEMM: an injected exception fires before the math runs (a
    failing kernel launch), and an injected latency spike shows up in the
    slot's busy accounting like any real slow step would.
    """
    for step in steps:
        t0 = time.perf_counter()
        if faults is not None:
            faults.before_step(wave_index, step.layer, step.slot)
        if step.tw is None:
            y = host_gemm(a, step.weight)
        else:
            y = tw_gemm(a, step.tw, plan=step.plan, rows=step.rows, cols=step.cols)
        if step.epilogue is not None:
            y = apply_epilogue(y, step.epilogue, residual=a)
        a = y
        dt = time.perf_counter() - t0
        result.busy_by_label[step.label] = (
            result.busy_by_label.get(step.label, 0.0) + dt
        )
        result.gemms_by_label[step.label] = (
            result.gemms_by_label.get(step.label, 0) + 1
        )
    return a


class Executor:
    """Interface: run waves, return per-wave results in submission order.

    ``tasks`` may be any iterable — executors pull from it *lazily*, so a
    caller can materialise each wave's (potentially large) batch only
    when the executor is ready to admit it.  A step failure is recorded
    on its :attr:`WaveResult.error` (executors do not raise for it) and
    stops further pulling, leaving the iterable's unconsumed tail
    untouched for the caller to retry; the returned list covers exactly
    the consumed prefix, so completed work is never lost to one bad wave.
    """

    name = "base"

    def run(self, tasks) -> list[WaveResult]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for CLI/stats reporting."""
        return self.name

    def close(self) -> None:
        """Release executor-owned resources (idempotent).

        A no-op for ``inline``, which runs on the calling thread;
        ``threaded`` stops and joins its workers.  The server calls this
        from ``TWModelServer.close()``.
        """


class InlineExecutor(Executor):
    """Sequential execution on the calling thread (the bit-identity oracle).

    Exactly the pre-executor server behaviour: waves run one after
    another, each wave's layers in order.  ``critical_path_s()`` remains a
    *modeled* bound here — wall-time equals the summed busy time.
    """

    name = "inline"

    def run(self, tasks) -> list[WaveResult]:
        results = []
        for task in tasks:  # lazy: one wave materialised at a time
            result = WaveResult(output=task.batch, started_at=time.perf_counter())
            results.append(result)
            try:
                result.output = _execute_steps(
                    task.batch,
                    task.steps,
                    result,
                    wave_index=task.index,
                    faults=task.faults,
                )
            except (KeyboardInterrupt, SystemExit):
                raise  # never swallow an interpreter-level shutdown
            except BaseException as exc:
                result.error = exc
                result.done_at = time.perf_counter()
                break  # stop pulling; the caller keeps the tail queued
            result.done_at = time.perf_counter()
        return results


class ThreadedExecutor(Executor):
    """One worker thread per device slot; waves pipeline through slots.

    Each wave's steps are grouped into contiguous per-worker *segments*
    (``layer_sharded`` → one segment per shard; ``replicated``/``single``
    → one segment).  A wave enters the pipeline at its first segment's
    worker; finishing a segment forwards the intermediate activations to
    the next segment's queue.  The driver admits at most ``inflight``
    waves at once (a bounded work-queue), so ``layer_sharded`` streams
    successive waves through the shards — shard 0 starts wave ``i+1``
    while shard 1 still runs wave ``i`` — without unbounded buffering.

    Waves are pulled from the input iterable **lazily**: the driver
    admits a wave only when the in-flight window has room, so a caller
    feeding a generator keeps at most ``inflight`` materialised batches
    alive at once, and when a wave errors the driver stops pulling — the
    iterable's unconsumed tail is left for the caller (the server keeps
    those requests queued for a retry flush).

    Worker threads are **persistent** on the executor instance (daemon
    threads, spawned on first use of a worker index and reused across
    ``run`` calls), so a serving loop flushing per request does not pay
    thread creation/teardown inside the wall-times it is measuring.
    :meth:`close` stops and joins them.

    Parameters
    ----------
    workers:
        Cap on worker threads.  ``None`` (default) = one per device slot
        seen in the submitted waves (threads spawn on first use of a
        slot).  Fewer workers than slots folds slots onto workers
        round-robin (their work serialises).
    inflight:
        Bound on concurrently admitted waves (default ``2 ×`` the workers
        active in the run): enough to keep every pipeline stage busy,
        small enough to bound memory.
    watchdog_s:
        Wall-time bound on any single wave (default 60s).  A wave that has
        not finished this long after launch is failed with
        :class:`TimeoutError`, its worker thread is abandoned and a fresh
        one is respawned on the same queue — so the driver never hangs on
        a stalled or dead worker.  ``None``/``0`` disables the watchdog
        (the historical unbounded wait).
    """

    name = "threaded"

    def __init__(
        self,
        workers: int | None = None,
        inflight: int | None = None,
        watchdog_s: float | None = 60.0,
    ):
        problems: list[str] = []
        _check_positive_int(problems, "workers", workers)
        _check_positive_int(problems, "inflight", inflight)
        watchdog_s = _check_watchdog(problems, watchdog_s)
        _raise_option_problems(self.name, problems)
        self.workers = workers
        self.inflight = inflight
        self.watchdog_s = watchdog_s or None  # 0 → disabled
        self._queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._spawn_lock = threading.Lock()

    def describe(self) -> str:
        w = self.workers if self.workers is not None else "per-slot"
        return f"threaded(workers={w})"

    def _worker_loop(self, q: queue.SimpleQueue) -> None:
        # stateless: every item carries its run's state, so one persistent
        # thread serves any number of (even interleaved) run() calls
        me = threading.current_thread()
        while me in self._threads:  # a respawn or close() retires it
            item = q.get()
            if item is _STOP:
                return
            try:
                state, ti, seg_idx, a = item
            except (TypeError, ValueError):
                continue  # malformed item: drop it, keep the worker alive
            try:
                state.step(ti, seg_idx, a)
            except BaseException as exc:
                # step() guards the math itself; anything escaping here is
                # a bookkeeping error — fail the wave visibly instead of
                # letting it kill the thread silently (ISSUE 6 satellite)
                try:
                    state.fail(ti, exc)
                except BaseException:
                    pass  # never let error handling kill the worker

    def _ensure_workers(self, n: int) -> None:
        with self._spawn_lock:
            while len(self._threads) < n:
                q: queue.SimpleQueue = queue.SimpleQueue()
                t = threading.Thread(
                    target=self._worker_loop, args=(q,), daemon=True
                )
                self._queues.append(q)
                self._threads.append(t)
                t.start()

    def _respawn(self, worker_idx: int) -> None:
        """Replace an abandoned worker with a fresh thread on the same queue.

        The stalled thread is left to run out as a daemon; any late writes
        it attempts are discarded by the terminal-wave guard in
        :class:`_ThreadedRun`.  Queued items survive on the ``SimpleQueue``,
        so work behind the stall is picked up by the replacement.
        """
        with self._spawn_lock:
            if worker_idx >= len(self._queues):
                return
            t = threading.Thread(
                target=self._worker_loop,
                args=(self._queues[worker_idx],),
                daemon=True,
            )
            self._threads[worker_idx] = t
            t.start()

    def close(self) -> None:
        """Stop every worker and join it, for at most :data:`_CLOSE_JOIN_S`.

        Each queue gets a stop sentinel behind the work already on it, so
        a worker finishes what it holds first.  A thread the watchdog
        abandoned is no longer listed; it exits when its stalled step
        returns.  Idempotent, and the executor stays usable: the next
        ``run`` spawns fresh workers.
        """
        with self._spawn_lock:
            queues, threads = self._queues, self._threads
            self._queues, self._threads = [], []
        for q in queues:
            q.put(_STOP)
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))

    def run(self, tasks) -> list[WaveResult]:
        state = _ThreadedRun(self)
        worker_of: dict[int, int] = {}

        def worker_for(slot: int) -> int:
            hit = worker_of.get(slot)
            if hit is not None:
                return hit
            idx = len(worker_of)
            wi = idx if self.workers is None else idx % self.workers
            self._ensure_workers(wi + 1)
            worker_of[slot] = wi
            return wi

        it = iter(tasks)
        while True:  # lazy: pulls the next wave only when admitted
            if state.failed.is_set():
                break  # leave the iterable's tail to the caller
            # the failure check precedes the pull: a pulled task is always
            # launched, so every task the iterable hands out gets a result
            # (a task pulled then dropped would be silently lost work)
            task = next(it, None)
            if task is None:
                break
            segs: list[tuple[int, list[WaveStep]]] = []
            for step in task.steps:
                w = worker_for(step.slot)
                if not segs or segs[-1][0] != w:
                    segs.append((w, []))
                segs[-1][1].append(step)
            n_active = max(1, min(len(worker_of), self.workers or len(worker_of)))
            state.admit(self.inflight or 2 * n_active)
            state.launch(task, segs)
        for ev in state.done:
            # bounded wait: if a wave exceeds the watchdog it is failed
            # (TimeoutError) and its event set by abandon_stalled(), so
            # this loop — and the server's flush() above it — cannot hang
            while not ev.wait(timeout=self.watchdog_s):
                state.abandon_stalled()
        return state.results


class _ThreadedRun:
    """Per-``run`` state shared between the driver and the worker pool.

    Driver-owned lists are append-only, and workers only index entries
    appended before their queue item was put (the queue provides the
    happens-before edge).  A small lock guards the *terminal* flags and
    result merging: once the watchdog abandons a wave, any late writes
    from its (still running) original thread are discarded, so an
    abandoned thread can never corrupt a result the server already read.
    """

    def __init__(self, executor: ThreadedExecutor) -> None:
        self.executor = executor
        self.segments: list[list[tuple[int, list[WaveStep]]]] = []
        self.results: list[WaveResult] = []
        self.done: list[threading.Event] = []
        self.tasks: list[WaveTask] = []
        self.launched_at: list[float] = []
        self.on_worker: list[int | None] = []
        self.terminal: list[bool] = []
        self.failed = threading.Event()
        self._lock = threading.Lock()
        self._window = threading.Condition()
        self._in_flight = 0

    def admit(self, limit: int) -> None:
        """Block until the bounded in-flight wave window has room.

        The wait is watchdog-bounded: a stalled wave holding the window
        open is abandoned (failed + worker respawned) instead of
        deadlocking the driver before it ever reaches the final waits.
        """
        wd = self.executor.watchdog_s
        while True:
            with self._window:
                if self._in_flight < limit:
                    self._in_flight += 1
                    return
                self._window.wait(timeout=wd)
                if self._in_flight < limit:
                    self._in_flight += 1
                    return
            if wd:
                self.abandon_stalled()

    def launch(self, task: WaveTask, segs: list[tuple[int, list[WaveStep]]]) -> None:
        ti = len(self.results)
        launched = time.perf_counter()
        self.segments.append(segs)
        self.results.append(WaveResult(output=task.batch, started_at=launched))
        self.done.append(threading.Event())
        self.tasks.append(task)
        self.launched_at.append(launched)
        self.on_worker.append(segs[0][0] if segs else None)
        self.terminal.append(False)
        if segs:
            self.executor._queues[segs[0][0]].put((self, ti, 0, task.batch))
        else:  # degenerate zero-layer wave: pass the batch through
            self.finish(ti)

    def step(self, ti: int, seg_idx: int, a) -> None:
        """Execute one wave segment on a worker thread; forward or finish.

        Accounting accumulates into a thread-local scratch result and is
        merged under the lock only while the wave is non-terminal — an
        abandoned thread's late merge is dropped on the floor.
        """
        _, steps = self.segments[ti][seg_idx]
        task = self.tasks[ti]
        scratch = WaveResult(output=a)
        error: BaseException | None = None
        try:
            a = _execute_steps(
                a, steps, scratch, wave_index=task.index, faults=task.faults
            )
        except BaseException as exc:  # recorded; the caller decides to raise
            error = exc
        with self._lock:
            if self.terminal[ti]:
                return  # watchdog already failed this wave; discard quietly
            result = self.results[ti]
            for label, busy in scratch.busy_by_label.items():
                result.busy_by_label[label] = (
                    result.busy_by_label.get(label, 0.0) + busy
                )
            for label, n in scratch.gemms_by_label.items():
                result.gemms_by_label[label] = (
                    result.gemms_by_label.get(label, 0) + n
                )
            if error is not None:
                result.error = error
        if error is not None:
            self.finish(ti)
            return
        if seg_idx + 1 < len(self.segments[ti]):
            nxt = self.segments[ti][seg_idx + 1][0]
            with self._lock:
                if self.terminal[ti]:
                    return
                self.on_worker[ti] = nxt
            self.executor._queues[nxt].put((self, ti, seg_idx + 1, a))
        else:
            self.results[ti].output = a
            self.finish(ti)

    def fail(self, ti: int, exc: BaseException) -> None:
        """Record an error that escaped ``step``'s own guard, then finish."""
        with self._lock:
            if self.terminal[ti]:
                return
            self.results[ti].error = exc
        self.finish(ti)

    def finish(self, ti: int) -> None:
        """Mark a wave terminal exactly once (idempotent under the lock)."""
        with self._lock:
            if self.terminal[ti]:
                return
            self.terminal[ti] = True
            if self.results[ti].error is not None:
                self.failed.set()
        self.results[ti].done_at = time.perf_counter()
        self.done[ti].set()
        with self._window:
            self._in_flight -= 1
            self._window.notify()

    def abandon_stalled(self) -> None:
        """Fail every wave older than the watchdog; respawn its worker.

        Called from the driver when a bounded wait times out.  The stalled
        wave gets a :class:`TimeoutError` and is marked terminal *before*
        its event is set, so the original thread — still sleeping inside
        the stalled step — finds ``terminal`` set when it eventually wakes
        and discards its work.
        """
        wd = self.executor.watchdog_s
        if not wd:
            return
        now = time.perf_counter()
        stalled: list[tuple[int, int | None]] = []
        with self._lock:
            for ti in range(len(self.results)):
                if self.terminal[ti] or now - self.launched_at[ti] <= wd:
                    continue
                self.terminal[ti] = True
                self.results[ti].error = TimeoutError(
                    f"wave {self.tasks[ti].index} stalled past the "
                    f"{wd:g}s watchdog on worker {self.on_worker[ti]}"
                )
                self.failed.set()
                stalled.append((ti, self.on_worker[ti]))
        respawned: set[int] = set()
        for ti, worker in stalled:
            self.results[ti].done_at = now
            self.done[ti].set()
            with self._window:
                self._in_flight -= 1
                self._window.notify()
            if worker is not None and worker not in respawned:
                respawned.add(worker)
                self.executor._respawn(worker)


def _check_positive_int(problems: list[str], name: str, value) -> None:
    if value is not None and (not isinstance(value, int) or value < 1):
        problems.append(f"{name} must be a positive int or None, got {value!r}")


def _check_watchdog(problems: list[str], watchdog_s) -> float | None:
    if watchdog_s is None:
        return None
    try:
        watchdog_s = float(watchdog_s)
    except (TypeError, ValueError):
        problems.append(
            f"watchdog_s must be finite and >= 0 (0/None disables), "
            f"got {watchdog_s!r}"
        )
        return None
    if not np.isfinite(watchdog_s) or watchdog_s < 0:
        problems.append(
            f"watchdog_s must be finite and >= 0 (0/None disables), "
            f"got {watchdog_s!r}"
        )
        return None
    return watchdog_s


def _raise_option_problems(name: str, problems: list[str]) -> None:
    """Raise ONE error naming every invalid option value (ISSUE 7 satellite).

    The old per-option checks raised on the first bad value, so a caller
    fixing ``workers`` would only then learn ``inflight`` was bad too.
    """
    if problems:
        raise ValueError(
            f"invalid options for executor {name!r}: " + "; ".join(problems)
        )


def _reject_options(name: str, options: dict) -> None:
    """Fail loudly on options an executor does not accept.

    The old ``**kw`` factories silently swallowed them —
    ``EXECUTORS.create("inline", workers=3)`` looked like it worked while
    the knob did nothing (ISSUE 6 satellite).
    """
    extra = {k: v for k, v in options.items() if v is not None}
    if extra:
        opts = ", ".join(f"{k}={v!r}" for k, v in sorted(extra.items()))
        raise ValueError(f"executor {name!r} does not accept options: {opts}")


def _make_inline(**options) -> InlineExecutor:
    _reject_options("inline", options)
    return InlineExecutor()


def _make_threaded(
    workers: int | None = None,
    inflight: int | None = None,
    watchdog_s: float | None = 60.0,
    **options,
) -> ThreadedExecutor:
    _reject_options("threaded", options)
    return ThreadedExecutor(workers=workers, inflight=inflight, watchdog_s=watchdog_s)


EXECUTORS.register("inline", _make_inline, aliases=("serial",))
EXECUTORS.register("threaded", _make_threaded, aliases=("threads",))


def available_executors() -> list[str]:
    """Canonical executor names."""
    return EXECUTORS.names()


def resolve_executor(
    executor: "Executor | str | None",
    *,
    workers: int | None = None,
    inflight: int | None = None,
    watchdog_s: float | None = None,
) -> Executor:
    """Normalise an ``executor=`` argument to a ready :class:`Executor`.

    Accepts a ready instance (``workers``/``inflight``/``watchdog_s``
    must then be ``None`` — they belong to the instance), a registry
    name, or ``None`` (inline).  Only the options actually given are
    forwarded, and factories reject options they do not accept —
    ``resolve_executor("inline", workers=3)`` is an error, not a no-op.
    """
    if executor is None:
        executor = "inline"
    if isinstance(executor, Executor):
        if workers is not None or inflight is not None or watchdog_s is not None:
            raise ValueError(
                "pass workers/inflight/watchdog_s to the Executor "
                "constructor, not alongside a ready instance"
            )
        return executor
    if isinstance(executor, str):
        options = {
            k: v
            for k, v in (
                ("workers", workers),
                ("inflight", inflight),
                ("watchdog_s", watchdog_s),
            )
            if v is not None
        }
        return EXECUTORS.create(executor, **options)
    raise TypeError(
        f"executor must be an Executor instance, a registry name "
        f"({', '.join(available_executors())}) or None, "
        f"got {type(executor).__name__}"
    )
