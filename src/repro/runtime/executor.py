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
  overlap; paced runs (see below) overlap their simulated device dwell on
  any host.
- ``process``  — one worker *process* per device slot (ISSUE 7): the
  non-BLAS portions of a wave escape the GIL too, so multi-core hosts see
  *unpaced* measured speedup.  Weights travel through shared-memory
  arenas (:mod:`repro.runtime.arena`) — only small wave descriptors cross
  the pickle boundary — and each worker's BLAS pools are pinned
  (``blas_threads``, default 1) so workers do not oversubscribe cores.
  A killed or crashed worker fails its wave visibly
  (:class:`WorkerCrashed`), is respawned, and the server's retry path
  re-runs the requests.

Oracle contract (standing, ISSUE 4/7)
-------------------------------------
``inline`` **is and remains the bit-identity oracle**: every concurrent
executor — ``threaded``, ``process``, and any future registry entry —
must produce byte-identical outputs to an ``inline`` run of the same
waves, with and without injected faults.  ``inline`` itself must never
grow concurrency or be "optimised"; it is the simplest possible
semantics the others are measured against
(``tests/test_executor.py``/``tests/test_faults.py`` enforce this).

Executors are resolved through :data:`EXECUTORS` — the same
:class:`~repro.patterns.registry.Registry` class as patterns, engines and
placements — so a new execution strategy (process pool, async, remote) is
a registry entry, not a new dispatch path in the server.

Determinism contract
--------------------
Outputs are **bit-identical across executors**: each wave's layer chain is
a fixed sequence of :func:`~repro.kernels.masked.tw_gemm` calls on the
same operands and plans regardless of which thread runs them, and waves
never share mutable state (the group-operand memos on frozen weights are
value-deterministic, so racing builders write identical entries).  Only
*wall-time* and the measured busy/dwell stats differ.

Pacing (simulated device time)
------------------------------
Every :class:`WaveStep` may carry ``dwell_s``: a minimum wall-time the
step occupies its device slot, derived by the server from the cost model's
predicted device time (``tw_gemm_cost``).  The host GEMM computes the real
(bit-exact) output; the slot then stays busy until the dwell elapses.
Sleeping releases the GIL, so paced slots overlap in *measured* wall-time
exactly as the simulated devices would — which is what turns the modeled
``critical_path_s()`` bound into an observable quantity even on
single-core CI hosts where concurrent compute cannot speed up.

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

import contextlib
import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.fusion import EpilogueSpec, apply_epilogue
from repro.kernels.masked import tw_gemm
from repro.patterns.registry import Registry
from repro.runtime.arena import ArenaRef
from repro.runtime.arena import attach as _arena_attach
from repro.runtime.arena import detach_all as _arena_detach_all
from repro.runtime.faults import FaultInjector, WorkerKilled
from repro.runtime.scheduler import ExecutionPlan

__all__ = [
    "EXECUTORS",
    "Executor",
    "InlineExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "WorkerCrashed",
    "WaveStep",
    "WaveTask",
    "WaveResult",
    "available_executors",
    "resolve_executor",
]

EXECUTORS = Registry("executor")


@dataclass(frozen=True)
class WaveStep:
    """One layer of one wave, tagged with the device slot that runs it.

    The placement emits the ``(layer, slot)`` mapping; the server resolves
    the cached format/plan and the optional pacing dwell; the executor
    only ever consumes these finished work items.
    """

    layer: int
    tw: TiledTWMatrix
    plan: ExecutionPlan
    slot: int
    label: str
    #: minimum wall-time this step occupies its slot (0 = unpaced)
    dwell_s: float = 0.0
    #: shared-memory handle for this step's weights (``process`` executor):
    #: when set, workers attach the arena instead of unpickling ``tw``
    arena: ArenaRef | None = None
    #: optional fused non-GEMM consumer applied right after this step's
    #: GEMM, inside the wave task (the step's input activations serve as
    #: the residual stream); its time counts in the slot's busy accounting
    epilogue: EpilogueSpec | None = None


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
    cannot diverge between them.  The optional fault injector is consulted
    *inside* the timed region before each GEMM: an injected exception
    fires before the math runs (a failing kernel launch), and an injected
    latency spike shows up in the slot's busy accounting like any real
    slow step would.
    """
    for step in steps:
        t0 = time.perf_counter()
        if faults is not None:
            faults.before_step(wave_index, step.layer, step.slot)
        y = tw_gemm(a, step.tw, plan=step.plan)
        if step.epilogue is not None:
            y = apply_epilogue(y, step.epilogue, residual=a)
        a = y
        if step.dwell_s > 0.0:
            remaining = step.dwell_s - (time.perf_counter() - t0)
            if remaining > 0.0:
                time.sleep(remaining)
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
    #: executors whose workers live in other processes set this so the
    #: server places weights in shared-memory arenas at cache-fill time
    needs_arenas = False

    def run(self, tasks) -> list[WaveResult]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner for CLI/stats reporting."""
        return self.name

    def close(self) -> None:
        """Release executor-owned resources (worker processes, pipes).

        Idempotent; a no-op for executors without out-of-process state
        (``inline``'s calling thread, ``threaded``'s daemon threads die
        with the interpreter).  The server calls this from
        ``TWModelServer.close()``.
        """

    def warm(self) -> None:
        """Bring executor workers fully up before measured work begins.

        A no-op for in-process executors.  ``process`` overrides this to
        spawn every worker and block until each answers a handshake —
        a spawned interpreter takes hundreds of milliseconds to import,
        and without the handshake that boot cost lands inside whichever
        later run first touches the cold worker (its pipe cannot drain
        until the import finishes).  ``TWModelServer.warm()`` calls this.
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
        while True:
            item = q.get()
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


class WorkerCrashed(RuntimeError):
    """A worker *process* died mid-wave (SIGKILL, segfault, OOM-kill).

    Recorded on the dead worker's wave like any step failure: the server's
    graceful ``flush()`` retries the wave's requests (a crash is transient
    unless a layer-pinned ``kill`` fault keeps reproducing it, in which
    case bisection isolates the poison).  The worker itself is respawned
    with fresh pipes before the driver continues.
    """


#: environment variables that cap the common BLAS/OpenMP thread pools —
#: exported around ``spawn`` so the child's NumPy import sees them
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@contextlib.contextmanager
def _pinned_blas_env(n: int | None):
    """Temporarily export BLAS thread caps (the spawn-plumbing pin path)."""
    if not n:
        yield
        return
    saved = {k: os.environ.get(k) for k in _BLAS_ENV_VARS}
    os.environ.update({k: str(n) for k in _BLAS_ENV_VARS})
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _pin_blas_in_worker(n: int | None) -> None:
    """Best-effort in-process pin: ``threadpoolctl`` when available.

    The env-var plumbing above already pinned ``spawn`` children (the
    vars were exported before the child imported NumPy); ``threadpoolctl``
    additionally covers ``fork`` children, whose BLAS pools were sized
    before the fork.  Its absence is fine — it is optional by contract.
    """
    if not n:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except Exception:
        pass


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_segment(item):
    """Execute one wave segment inside a worker process.

    ``item`` is the wave descriptor the driver sent: activations, step
    specs (arena refs for weights — the payloads themselves never cross
    the pipe), the wave index and the pickled fault-injector snapshot.
    Returns the reply tuple; never raises except for an injected
    :class:`~repro.runtime.faults.WorkerKilled`, which hard-kills the
    process (simulating a crash that never reports back).
    """
    ti, seg_idx, wave_index, a, specs, faults = item
    scratch = WaveResult(output=a)
    snapshot = faults.snapshot_fires() if faults is not None else None
    error: BaseException | None = None
    try:
        steps = tuple(
            WaveStep(
                layer=layer,
                tw=_arena_attach(ref) if ref is not None else tw,
                plan=plan,
                slot=slot,
                label=label,
                dwell_s=dwell_s,
                epilogue=epilogue,
            )
            for layer, slot, label, dwell_s, ref, tw, plan, epilogue in specs
        )
        a = _execute_steps(
            a, steps, scratch, wave_index=wave_index, faults=faults
        )
    except WorkerKilled:
        # the `kill` fault: die like a segfault would — no reply, no
        # cleanup, the parent finds a corpse via the process sentinel
        os.kill(os.getpid(), signal.SIGKILL)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        error = _picklable_error(exc)
    fires = faults.fires_since(snapshot) if faults is not None else None
    payload = a if error is None else error
    return (
        ti, seg_idx, error is None, payload,
        scratch.busy_by_label, scratch.gemms_by_label, fires,
    )


def _process_worker_main(in_conn, out_conn, blas_threads: int | None) -> None:
    """Worker process entry point: recv segment → execute → send reply.

    Top-level (picklable) so it works under the ``spawn`` start method.
    The loop exits on the ``None`` sentinel or a closed pipe; arena
    mappings are dropped on the way out (the owner, not the worker,
    unlinks segments — a worker can never leak ``/dev/shm`` entries).
    """
    _pin_blas_in_worker(blas_threads)
    try:
        while True:
            try:
                item = in_conn.recv()
            except (EOFError, OSError):
                break
            if item is None:
                break
            try:
                out_conn.send(_run_segment(item))
            except (BrokenPipeError, OSError):
                break  # driver went away; nothing left to report to
    finally:
        _arena_detach_all()


class ProcessExecutor(Executor):
    """One worker process per device slot: real multi-core parallelism.

    The same :class:`WaveTask` protocol and per-slot segment pipelining as
    :class:`ThreadedExecutor`, but each slot's worker is an OS process, so
    the wave's *whole* step — operand lookup, output scatter, Python
    bookkeeping — runs outside the parent's GIL.  Combined with the
    shared-memory weight arenas (the server places compacted formats and
    their GEMM operands once; workers map them zero-copy and each wave message
    carries only rows + step specs) this is what turns the paper's
    "independent batched GEMMs" into measured, unpaced speedup on
    multi-core hosts.

    Protocol: each worker owns a pair of one-way pipes and holds **at most
    one outstanding segment** at a time (the driver queues further work
    parent-side), so a send can never deadlock against an unread reply.
    The driver multiplexes replies and process-death sentinels through
    :func:`multiprocessing.connection.wait`.

    Failure semantics route PR 6 through the process boundary: a wave
    stalled past ``watchdog_s`` is failed with :class:`TimeoutError` and
    its worker killed + respawned; a worker that *dies* mid-wave (the
    ``kill`` chaos fault, a real segfault/OOM) fails its wave with
    :class:`WorkerCrashed` and is respawned with fresh pipes — the
    server's retry/bisection then re-runs the requests.  Either way
    ``run`` returns a result for every consumed wave and never hangs.

    Parameters
    ----------
    workers:
        Cap on worker processes (``None`` = one per device slot, spawned
        on first use; fewer workers than slots folds slots round-robin).
    inflight:
        Bound on concurrently admitted waves (default ``2 ×`` active
        workers), exactly as for ``threaded``.
    watchdog_s:
        Per-wave stall bound (default 60s; ``0``/``None`` disables).
    blas_threads:
        BLAS/OpenMP thread cap *per worker* (default ``1``: workers are
        the parallelism, so each GEMM stays single-threaded and ``N``
        workers never oversubscribe ``N`` cores).  ``0`` leaves the pools
        unpinned.  Applied via ``threadpoolctl`` inside the worker when
        available, else via env vars exported around the ``spawn``.
    start_method:
        ``multiprocessing`` start method (default ``"spawn"``: children
        import NumPy under the pinned env and inherit no thread/lock
        state).  ``"fork"`` starts faster but its children keep the
        parent's BLAS pool size unless ``threadpoolctl`` is installed.
    """

    name = "process"
    needs_arenas = True

    def __init__(
        self,
        workers: int | None = None,
        inflight: int | None = None,
        watchdog_s: float | None = 60.0,
        blas_threads: int | None = None,
        start_method: str = "spawn",
    ):
        problems: list[str] = []
        _check_positive_int(problems, "workers", workers)
        _check_positive_int(problems, "inflight", inflight)
        watchdog_s = _check_watchdog(problems, watchdog_s)
        if blas_threads is not None and (
            not isinstance(blas_threads, int) or blas_threads < 0
        ):
            problems.append(
                f"blas_threads must be a non-negative int or None (0 = "
                f"unpinned), got {blas_threads!r}"
            )
        if start_method not in multiprocessing.get_all_start_methods():
            problems.append(
                f"start_method must be one of "
                f"{multiprocessing.get_all_start_methods()}, got {start_method!r}"
            )
        _raise_option_problems(self.name, problems)
        self.workers = workers
        self.inflight = inflight
        self.watchdog_s = watchdog_s or None  # 0 → disabled
        self.blas_threads = 1 if blas_threads is None else blas_threads
        self.start_method = start_method
        self._ctx = None
        self._procs: list = []
        self._to: list = []    # parent → worker send ends
        self._from: list = []  # worker → parent recv ends

    def describe(self) -> str:
        w = self.workers if self.workers is not None else "per-slot"
        pin = self.blas_threads or "unpinned"
        return f"process(workers={w}, blas_threads={pin})"

    # -------------------------------------------------------------- #
    # worker pool management
    # -------------------------------------------------------------- #
    def _context(self):
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(self.start_method)
        return self._ctx

    def _spawn(self, w: int) -> None:
        """(Re)create worker ``w``: fresh process, fresh pipe pair.

        Fresh pipes per (re)spawn are what make crash recovery safe: a
        SIGKILLed worker can leave a pipe mid-message, so the replacement
        never reuses its predecessor's channels (unlike the threaded
        executor, whose queues survive because threads die cleanly).
        """
        ctx = self._context()
        from_worker, to_parent = ctx.Pipe(duplex=False)
        to_worker, to_worker_send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_process_worker_main,
            args=(to_worker, to_parent, self.blas_threads),
            daemon=True,
            name=f"repro-process-worker-{w}",
        )
        with _pinned_blas_env(self.blas_threads):
            proc.start()
        # close the parent's copies of the child ends so EOF propagates
        to_parent.close()
        to_worker.close()
        if w == len(self._procs):
            self._procs.append(proc)
            self._to.append(to_worker_send)
            self._from.append(from_worker)
        else:
            self._procs[w] = proc
            self._to[w] = to_worker_send
            self._from[w] = from_worker

    def _ensure_workers(self, n: int) -> None:
        while len(self._procs) < n:
            self._spawn(len(self._procs))

    def _respawn(self, w: int) -> None:
        """Kill worker ``w`` (if still alive) and replace it wholesale."""
        proc = self._procs[w]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)
        for conn in (self._to[w], self._from[w]):
            try:
                conn.close()
            except OSError:
                pass
        self._spawn(w)

    def close(self) -> None:
        """Shut the pool down: sentinel, join, escalate, drop the pipes."""
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._to[w].send(None)
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in (*self._to, *self._from):
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._to.clear()
        self._from.clear()

    def warm(self) -> None:
        """Spawn the full pool and handshake every worker (blocking).

        Each worker gets a zero-step segment — the smallest message the
        worker protocol admits — and the call returns only once every
        echo is back, i.e. once every interpreter has finished booting.
        Workers that die during the handshake are left for the next
        ``run``'s corpse detection to respawn; lazy spawn still covers
        callers that never warm.  Requires a bounded pool (``workers``
        set); with ``workers=None`` the pool size is discovered per run,
        so there is nothing to pre-boot.
        """
        if self.workers is None:
            return
        self._ensure_workers(self.workers)
        probe = np.empty((0, 0))
        pending = []
        for w in range(self.workers):
            try:
                self._to[w].send((0, 0, 0, probe, (), None))
                pending.append(w)
            except (BrokenPipeError, OSError):
                continue  # corpse: the next run replaces it
        for w in pending:
            try:
                self._from[w].recv()
            except (EOFError, OSError):
                continue

    def run(self, tasks) -> list[WaveResult]:
        # eager spawn: boot the whole pool on first use instead of lazily
        # per slot.  A spawned worker takes ~hundreds of ms to import its
        # interpreter; booting all of them during the first (warm-up) run
        # keeps that cost out of later runs — otherwise the first
        # multi-wave flush would block mid-measurement on a cold worker
        # whose pipe cannot drain until its import finishes.
        if self.workers is not None:
            self._ensure_workers(self.workers)
        return _ProcessRun(self).drive(tasks)


class _ProcessRun:
    """Per-``run`` driver state for :class:`ProcessExecutor`.

    Single-threaded: the driver alone touches this state, multiplexing
    worker replies through ``multiprocessing.connection.wait`` — no locks,
    no races, and a dead worker is an *event* (its sentinel) rather than a
    hung join.  Mirrors :class:`_ThreadedRun`'s contracts: lazy pulling,
    bounded in-flight window, stop-pulling-on-failure, late results for
    terminal (watchdog-failed) waves are discarded.
    """

    def __init__(self, executor: ProcessExecutor) -> None:
        self.ex = executor
        self.tasks: list[WaveTask] = []
        self.results: list[WaveResult] = []
        self.segments: list[list[tuple[int, list[WaveStep]]]] = []
        self.launched_at: list[float] = []
        self.terminal: list[bool] = []
        self.worker_of: dict[int, int] = {}  # slot -> worker
        self.ready: dict[int, deque] = {}    # worker -> queued segments
        self.outstanding: dict[int, tuple[int, int] | None] = {}
        self.in_flight = 0
        self.failed = False

    # -------------------------------------------------------------- #
    def worker_for(self, slot: int) -> int:
        hit = self.worker_of.get(slot)
        if hit is not None:
            return hit
        idx = len(self.worker_of)
        w = idx if self.ex.workers is None else idx % self.ex.workers
        self.ex._ensure_workers(w + 1)
        self.worker_of[slot] = w
        self.ready.setdefault(w, deque())
        self.outstanding.setdefault(w, None)
        return w

    def limit(self) -> int:
        if self.ex.inflight:
            return self.ex.inflight
        return 2 * max(1, len(set(self.worker_of.values())))

    def drive(self, tasks) -> list[WaveResult]:
        it = iter(tasks)
        exhausted = False
        while True:
            while (
                not exhausted and not self.failed
                and self.in_flight < self.limit()
            ):
                task = next(it, None)
                if task is None:
                    exhausted = True
                    break
                self.launch(task)
            if self.in_flight == 0:
                if exhausted or self.failed:
                    return self.results
                continue
            self.poll()

    def launch(self, task: WaveTask) -> None:
        ti = len(self.results)
        segs: list[tuple[int, list[WaveStep]]] = []
        for step in task.steps:
            w = self.worker_for(step.slot)
            if not segs or segs[-1][0] != w:
                segs.append((w, []))
            segs[-1][1].append(step)
        ti_launched = time.perf_counter()
        self.tasks.append(task)
        self.results.append(WaveResult(output=task.batch, started_at=ti_launched))
        self.segments.append(segs)
        self.launched_at.append(ti_launched)
        self.terminal.append(False)
        self.in_flight += 1
        if segs:
            self.enqueue(segs[0][0], ti, 0, task.batch)
        else:  # degenerate zero-layer wave: pass the batch through
            self.finish(ti)

    # -------------------------------------------------------------- #
    def enqueue(self, w: int, ti: int, seg_idx: int, a) -> None:
        self.ready[w].append((ti, seg_idx, a))
        self.pump(w)

    def pump(self, w: int) -> None:
        """Send the worker its next segment iff it is idle (≤1 in pipe)."""
        while self.outstanding[w] is None and self.ready[w]:
            ti, seg_idx, a = self.ready[w].popleft()
            if self.terminal[ti]:
                continue  # watchdog already failed this wave; skip stale work
            task = self.tasks[ti]
            specs = tuple(
                (s.layer, s.slot, s.label, s.dwell_s, s.arena,
                 None if s.arena is not None else s.tw, s.plan, s.epilogue)
                for s in self.segments[ti][seg_idx][1]
            )
            try:
                self.ex._to[w].send(
                    (ti, seg_idx, task.index, a, specs, task.faults)
                )
            except (BrokenPipeError, OSError):
                # found a corpse at send time: requeue the item, replace
                # the worker, and let crash() re-pump on the fresh pipe
                self.ready[w].appendleft((ti, seg_idx, a))
                self.crash(w, None)
                return
            self.outstanding[w] = (ti, seg_idx)

    def finish(self, ti: int) -> None:
        if self.terminal[ti]:
            return
        self.terminal[ti] = True
        self.results[ti].done_at = time.perf_counter()
        if self.results[ti].error is not None:
            self.failed = True
        self.in_flight -= 1

    def crash(self, w: int, error: BaseException | None) -> None:
        """Replace a dead (or condemned) worker; fail its in-flight wave."""
        out = self.outstanding[w]
        self.outstanding[w] = None
        self.ex._respawn(w)
        if out is not None and not self.terminal[out[0]]:
            ti = out[0]
            self.results[ti].error = error or WorkerCrashed(
                f"worker {w} died while running wave {self.tasks[ti].index}"
            )
            self.finish(ti)
        self.pump(w)

    def handle(self, w: int, msg) -> None:
        ti, seg_idx, ok, payload, busy, gemms, fires = msg
        self.outstanding[w] = None
        task = self.tasks[ti]
        if fires is not None and task.faults is not None:
            # fold the worker's fire counts back into the parent injector
            # so `fired_by_kind` observability spans the process boundary
            task.faults.merge_fires(fires)
        if not self.terminal[ti]:
            result = self.results[ti]
            for label, t in busy.items():
                result.busy_by_label[label] = (
                    result.busy_by_label.get(label, 0.0) + t
                )
            for label, n in gemms.items():
                result.gemms_by_label[label] = (
                    result.gemms_by_label.get(label, 0) + n
                )
            if not ok:
                result.error = payload
                self.finish(ti)
            elif seg_idx + 1 < len(self.segments[ti]):
                nxt = self.segments[ti][seg_idx + 1][0]
                self.enqueue(nxt, ti, seg_idx + 1, payload)
            else:
                result.output = payload
                self.finish(ti)
        self.pump(w)

    def poll(self) -> None:
        """One multiplexed wait: replies, corpses, then the watchdog."""
        waitables = []
        owner: dict[object, int] = {}
        for w, out in self.outstanding.items():
            if out is None:
                continue
            conn = self.ex._from[w]
            waitables.append(conn)
            owner[conn] = w
            sentinel = self.ex._procs[w].sentinel
            waitables.append(sentinel)
            owner[sentinel] = w
        if not waitables:
            return
        crashed: list[int] = []
        for ev in multiprocessing.connection.wait(waitables, timeout=0.1):
            w = owner[ev]
            if ev is self.ex._from[w]:
                try:
                    msg = ev.recv()
                except (EOFError, OSError):
                    crashed.append(w)
                    continue
                self.handle(w, msg)
            else:
                crashed.append(w)  # process sentinel fired
        for w in set(crashed):
            if self.ex._procs[w].is_alive():
                continue  # stale sentinel: the reply landed and was handled
            if self.outstanding[w] is None:
                continue  # idle corpse: the next send detects and respawns
            ti = self.outstanding[w][0]
            self.crash(w, WorkerCrashed(
                f"worker {w} died (exitcode "
                f"{self.ex._procs[w].exitcode}) while running wave "
                f"{self.tasks[ti].index}"
            ))
        self.watchdog()

    def watchdog(self) -> None:
        """Fail every wave older than the watchdog; kill stalled workers."""
        wd = self.ex.watchdog_s
        if not wd:
            return
        now = time.perf_counter()
        for ti in range(len(self.results)):
            if self.terminal[ti] or now - self.launched_at[ti] <= wd:
                continue
            err = TimeoutError(
                f"wave {self.tasks[ti].index} stalled past the {wd:g}s "
                f"watchdog"
            )
            stalled_on = next(
                (w for w, out in self.outstanding.items()
                 if out is not None and out[0] == ti),
                None,
            )
            if stalled_on is not None:
                self.crash(stalled_on, err)  # kills + respawns the worker
            else:
                # queued parent-side behind a stalled sibling: fail it in
                # place; pump() discards its stale queue entries
                self.results[ti].error = err
                self.finish(ti)


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


def _make_process(
    workers: int | None = None,
    inflight: int | None = None,
    watchdog_s: float | None = 60.0,
    blas_threads: int | None = None,
    start_method: str = "spawn",
    **options,
) -> ProcessExecutor:
    _reject_options("process", options)
    return ProcessExecutor(
        workers=workers,
        inflight=inflight,
        watchdog_s=watchdog_s,
        blas_threads=blas_threads,
        start_method=start_method,
    )


EXECUTORS.register("inline", _make_inline, aliases=("serial",))
EXECUTORS.register("threaded", _make_threaded, aliases=("threads",))
EXECUTORS.register("process", _make_process, aliases=("mp",))


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
