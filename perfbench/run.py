"""The repo benchmark: one command, three workloads, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline-bert --seed 1 --seconds 30 --trace 0

Every workload runs one model: a full-size BERT-base encoder block, float32,
``pattern="tw"``, sparsity 0.75, G=64, weights drawn from ``--seed``.

``offline-bert``
    One caller runs ``CompiledTWModel.run`` on M=128 activations, call by
    call interleaved with the same weights compiled as ``pattern="dense"``.
``http-small``
    Loopback HTTP to ``serve_http`` (``inline`` executor, ``single``
    placement), requests of 1-16 rows: open-loop Poisson arrivals at the
    constant rate ``SMALL_RATE`` over two connections (timed from each
    request's *scheduled* send time; reported in the info line and used by
    the traced run), then a closed loop on the same two connections.
``http-bulk``
    Closed loop over HTTP: two callers, each waiting for its reply, send
    128-row requests to a model carrying BERT's FFN epilogues.

End-to-end metrics (``--trace 0``), defined on every workload:

``setup_s``
    Weights to warm and ready, median of several set-ups in the run.
    offline: both compiles plus one warm call of each model.  serving:
    ``compile()`` and ``serve_http`` up to the first ``/healthz`` 200,
    plus a fixed warm-up of requests (the first-wave cost lands here, not
    in the latency tail).
``rows_per_s``, ``max_rate_rps``
    Rows and requests answered per second by callers that send as soon as
    their last reply arrived: offline, one caller, from the median call
    time; serving, the closed loop on two connections, median over chunks
    of about one second of replies (a stall from a neighbour on the host
    moves a few chunks, not the median).
``speedup_vs_dense``
    Dense over TW ``run()`` time, median over call pairs on the same
    input, interleaved in one process.  offline: the timed loop itself.
    serving: in-process ``run()`` on the workload's own requests (a served
    dense baseline does not exist yet).
``latency_p50_ms``
    offline: per ``run()`` call.  serving: per request of the closed loop.
    A failed request counts as infinitely late.  The info line before the
    result adds p90, p95 and p99 with the sample count.
``success_rate``
    ok requests (or calls) over attempted; refused and timed-out requests
    are attempted and not ok.  (The complement of an error rate, so that
    the metric is never zero.)
``peak_rss_mb``
    Peak RSS of the process that runs the model (the server for serving).

Why no latency tail, no rate ladder and no open-loop latency among them:
on a 2-core host shared with other tenants (CPU steal from 4% to 20%),
p90 and p99 moved 2-5x between identical runs, so did the ladder rung
where p99 crosses a limit, and the open loop's p50 moved 2x (two
connections turn each stall into a queue), while closed-loop latency and
throughput stayed within the bounds in ``BENCHMARK.json``.

``--trace 1`` instead reports the per-layer metrics of :mod:`perfbench.layers`:
the run measures half its time untraced and half traced, and
``trace.overhead_frac`` is the traced median latency over the untraced
one, minus 1.

Every output is checked: offline TW ``run()`` against a float64 chain of
``masked_dense()`` and dense ``run()`` against a float64 ``x @ W`` chain;
every ok HTTP reply against ``run()`` on the same request.  A mismatch
prints ``"correct": false`` and exits 1.  Without ``src/repro`` next to
this directory the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import select
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import common  # noqa: E402
from perfbench.common import median, percentile  # noqa: E402

WORKLOADS = ("offline-bert", "http-small", "http-bulk")
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "speedup_vs_dense": "x",
    "latency_p50_ms": "ms",
    "max_rate_rps": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
}

OFFLINE_M = 128
OFFLINE_POOL = 8
OFFLINE_SETUPS = 7

SERVING_SETUPS = 5
CONNECTIONS = 2
SMALL_ROWS = (1, 16)
SMALL_POOL = 512
SMALL_WARMUP = 32
#: offered rate of http-small's open loop (requests/s), a constant
SMALL_RATE = 80.0
#: share of http-small's traffic time that is open loop (reported in the
#: info line and traced); the rest is the closed loop the metrics come from
SMALL_OPEN_SHARE = 0.5
BULK_ROWS = 128
BULK_POOL = 16
BULK_WARMUP = 4
#: share of a serving run's seconds spent on the in-process TW-vs-dense ratio
SPEEDUP_SHARE = 0.06
_FRAME = struct.Struct("<3sB8sII")  # magic, version, dtype, rows, cols


# --------------------------------------------------------------------- #
# wire frames, written and read here so the check does not trust the codec
# --------------------------------------------------------------------- #
def encode_frame(x: np.ndarray) -> bytes:
    x = np.ascontiguousarray(x)
    return _FRAME.pack(b"TWT", 1, x.dtype.str.encode().ljust(8, b"\0"), *x.shape) + x.tobytes()


def decode_frame(body: bytes) -> np.ndarray | None:
    if len(body) < _FRAME.size:
        return None
    magic, _version, dtype, rows, cols = _FRAME.unpack_from(body)
    dt = np.dtype(dtype.rstrip(b"\0").decode())
    if magic != b"TWT" or len(body) != _FRAME.size + rows * cols * dt.itemsize:
        return None
    return np.frombuffer(body, dtype=dt, offset=_FRAME.size).reshape(rows, cols)


# --------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------- #
class Checks:
    """Counts of checked outputs; any mismatch makes the run incorrect."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0

    def record(self, ok: bool) -> bool:
        self.checked += 1
        self.wrong += not ok
        return ok

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def interleaved(runs, inputs, seconds: float, check=None) -> list[list[float]]:
    """Time ``runs[0]`` and ``runs[1]`` on each of ``inputs`` in turn.

    Each input is a call pair, and the pairs alternate which model goes
    first; at least one pair runs.  ``check(k, i, y)`` sees every output
    ``y`` of ``runs[k]`` on ``inputs[i]`` outside the timed call.  Returns
    each model's call times.
    """
    times: list[list[float]] = [[], []]
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        p = i % len(inputs)
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            y = runs[k](inputs[p])
            times[k].append(time.perf_counter() - t0)
            if check is not None:
                check(k, p, y)
        i += 1
    return times


def speedup(tw_times, dense_times) -> float:
    """Median over call pairs of dense time over TW time (same input)."""
    return median([d / t for t, d in zip(tw_times, dense_times)])


# --------------------------------------------------------------------- #
# offline-bert
# --------------------------------------------------------------------- #
def offline_bert(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers
    from perfbench.tracing import Tracer

    weights, names = common.bert_block(seed)
    rng = np.random.default_rng([seed, 1])
    pool = [rng.standard_normal((OFFLINE_M, weights[0].shape[0])).astype(common.DTYPE)
            for _ in range(OFFLINE_POOL)]

    def setup():
        tw = common.compile_model(weights, names)
        dn = common.compile_model(weights, names, pattern="dense")
        tw.run(pool[0])
        dn.run(pool[0])
        return tw, dn

    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.wrap_setup(tracer)
    setup_times = []
    for _ in range(1 if trace else OFFLINE_SETUPS):
        t0 = time.perf_counter()
        tw, dn = setup()
        setup_times.append(time.perf_counter() - t0)

    # oracles: float64 chains over the masked and the raw weights
    masked = [l.masked_dense() for l in tw.layers]
    want_tw = [common.float64_chain(x, masked) for x in pool]
    want_dn = [common.float64_chain(x, weights) for x in pool]
    thr_tw = [common.row_threshold(w) for w in want_tw]
    thr_dn = [common.row_threshold(w) for w in want_dn]
    checks = Checks()

    def check(k: int, p: int, y) -> None:
        want, thr = (want_tw, thr_tw) if k == 0 else (want_dn, thr_dn)
        checks.record(common.matches(y, want[p], thr[p]))

    result = {"attempted": 0, "failed": 0}
    if not trace:
        tw_times, dn_times = interleaved((tw.run, dn.run), pool, seconds, check)
        tw_med = median(tw_times)
        result["metrics"] = {
            "setup_s": median(setup_times),
            "rows_per_s": OFFLINE_M / tw_med,
            "speedup_vs_dense": speedup(tw_times, dn_times),
            "latency_p50_ms": 1e3 * tw_med,
            "max_rate_rps": 1.0 / tw_med,
            "success_rate": 1.0,
            "peak_rss_mb": common.peak_rss_mb(),
        }
        samples = {"tw_calls": len(tw_times), "dense_calls": len(dn_times),
                   "tw_latency": latency_stats(tw_times)}
    else:
        base_tw, base_dn = interleaved((tw.run, dn.run), pool, seconds / 2, check)
        layers.wrap_offline(tracer)
        traced = (lambda x: tracer.span("api.run", tw.run, x, rows=x.shape[0]),
                  lambda x: tracer.span("kernels.dense", dn.run, x, rows=x.shape[0]))
        tw_times, dn_times = interleaved(traced, pool, seconds / 2, check)
        tracer.unwrap_all()
        metrics = layers.span_metrics(tracer.spans)
        metrics["trace.kernel_share"] = layers.kernel_share(
            tracer.spans, total_s=sum(tw_times) + sum(dn_times)
        )
        metrics["trace.overhead_frac"] = median(tw_times) / median(base_tw) - 1.0
        result["metrics"] = metrics
        tracer.dump(str(common.OUT_DIR / f"spans-offline-bert-{seed}.jsonl"))
        tw_times, dn_times = tw_times + base_tw, dn_times + base_dn
        samples = {"tw_calls": len(tw_times), "dense_calls": len(dn_times)}
    result["attempted"] = len(tw_times) + len(dn_times)
    result["correct"] = checks.correct
    result["info"] = {"samples": samples, "checked": checks.checked, "wrong": checks.wrong,
                      "setup_times_s": setup_times}
    return result


# --------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------- #
class ServerProcess:
    """``serve_model.py`` in its own process; stopped by SIGTERM, then killed."""

    def __init__(self, seed: int, epilogues: bool, trace_path: str = "") -> None:
        cmd = [sys.executable, str(HERE / "serve_model.py"), "--seed", str(seed)]
        if epilogues:
            cmd.append("--epilogues")
        if trace_path:
            cmd += ["--trace", trace_path]
        self._log = open(common.OUT_DIR / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log,
                                     cwd=str(HERE.parent))
        first = self._readline(timeout_s=120.0)
        hello = json.loads(first)
        self.port, self.t0 = int(hello["port"]), float(hello["t0"])

    def _readline(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise RuntimeError("model server did not start; see perfbench/_out/server.log")
        return line.decode()

    def stop(self, timeout_s: float = 60.0) -> dict:
        """SIGTERM, wait for the drain, return the server's exit report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout_s)
        finally:
            self.kill()
        lines = [l for l in out.decode().splitlines() if l.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"model server exited {self.proc.returncode}; see perfbench/_out/server.log")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


class Pool:
    """Seeded request inputs, their encoded bodies and ``run()`` references."""

    def __init__(self, seed: int, model, sizes: list[int]) -> None:
        rng = np.random.default_rng([seed, 2])
        k = model.layers[0].shape[0]
        self.rows = sizes
        self.inputs = [rng.standard_normal((r, k)).astype(common.DTYPE) for r in sizes]
        self.bodies = [encode_frame(x) for x in self.inputs]
        self.want = [model.run(x) for x in self.inputs]
        self.thr = [common.row_threshold(w).astype(common.DTYPE) for w in self.want]
        self.order = rng.permutation(len(sizes))
        self.checks = Checks()

    def entry(self, i: int) -> int:
        return int(self.order[i % len(self.order)])

    def request(self, i: int) -> tuple[bytes, int]:
        p = self.entry(i)
        return self.bodies[p], self.rows[p]

    def check(self, i: int, body: bytes) -> bool:
        p = self.entry(i)
        got = decode_frame(body)
        return self.checks.record(got is not None and common.matches(got, self.want[p], self.thr[p]))


def launch(seed: int, epilogues: bool, pool: Pool, warmup: int, trace_path: str = ""):
    """Start a server, wait for ``/healthz`` 200 and warm it; return it, its
    connections and its set-up time (weights in hand to warm)."""
    from perfbench.loadgen import Connection

    server = ServerProcess(seed, epilogues, trace_path)
    try:
        conns = [Connection("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
        deadline = time.monotonic() + 120.0
        while conns[0].get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("model server never became ready")
            time.sleep(0.01)
        for i in range(-1, -1 - warmup, -1):  # negative indexes: not the measured requests
            status, _, body = conns[i % CONNECTIONS].post_tensor(pool.request(i)[0])
            if status == 200:
                pool.check(i, body)
            else:
                pool.checks.record(False)
        return server, conns, time.monotonic() - server.t0
    except BaseException:
        server.kill()
        raise


def shutdown(server: ServerProcess, conns) -> dict:
    for c in conns:
        c.close()
    return server.stop()


def latency_stats(latencies_s) -> dict:
    """Percentiles in ms and the sample count; ``inf`` entries are failures."""
    stats = {f"p{q}_ms": 1e3 * percentile(latencies_s, q) for q in (50, 90, 95, 99)}
    return dict(stats, n=len(latencies_s))


def http_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers, loadgen
    from perfbench.tracing import Tracer

    bulk = name == "http-bulk"
    weights, names = common.bert_block(seed)
    model = common.compile_model(weights, names, epilogues=bulk)
    rng = np.random.default_rng([seed, 3])
    if bulk:
        sizes = [BULK_ROWS] * BULK_POOL
    else:
        sizes = [int(r) for r in rng.integers(SMALL_ROWS[0], SMALL_ROWS[1] + 1, SMALL_POOL)]
    pool = Pool(seed, model, sizes)
    warmup = BULK_WARMUP if bulk else SMALL_WARMUP
    info: dict = {}

    def traffic(conns, duration: float):
        """The workload's own traffic: open-loop Poisson or closed loop."""
        if bulk:
            return loadgen.closed_loop(conns, duration, pool.request, pool.check)
        offsets = loadgen.poisson_schedule(SMALL_RATE, duration, seed)
        return loadgen.open_loop(conns, offsets, pool.request, pool.check, drain_s=1.0)

    if trace:
        server, conns, _ = launch(seed, bulk, pool, warmup)
        try:
            base = traffic(conns, seconds / 2)
        finally:
            shutdown(server, conns)
        spans = str(common.OUT_DIR / f"spans-{name}-{seed}.jsonl")
        server, conns, _ = launch(seed, bulk, pool, warmup, trace_path=spans)
        try:
            res = traffic(conns, seconds / 2)
        finally:
            report = shutdown(server, conns)
        client = Tracer()  # the client's side of each request, same clock and rid
        client.spans = [("client.request", o.sent, o.done, None, o.rid, o.rows, None)
                        for o in res.outcomes]
        client.dump(spans.replace(".jsonl", "-client.jsonl"))
        base_lat, lat = latency_stats(base.latencies_s()), latency_stats(res.latencies_s())
        metrics = dict(report["layers"])
        metrics.update(layers.server_stats_metrics(report["stats"]))
        metrics.update(layers.client_metrics(res.outcomes, res.lag_s))
        metrics["trace.overhead_frac"] = lat["p50_ms"] / base_lat["p50_ms"] - 1.0
        runs = [base, res]
        info["latency"] = {"untraced": base_lat, "traced": lat}
    else:
        setup_times = []
        for rep in range(SERVING_SETUPS):
            server, conns, setup_s = launch(seed, bulk, pool, warmup)
            setup_times.append(setup_s)
            if rep < SERVING_SETUPS - 1:
                shutdown(server, conns)
        try:
            dense = common.compile_model(weights, names, pattern="dense", epilogues=bulk)
            ratio = speedup(*interleaved((model.run, dense.run), pool.inputs,
                                         SPEEDUP_SHARE * seconds))
            load_s = (1.0 - SPEEDUP_SHARE) * seconds
            runs = []
            if not bulk:
                runs.append(traffic(conns, SMALL_OPEN_SHARE * load_s))
                load_s *= 1.0 - SMALL_OPEN_SHARE
            sat = loadgen.closed_loop(conns, load_s, pool.request, pool.check)
            runs.append(sat)
        finally:
            report = shutdown(server, conns)
        lat = latency_stats(sat.latencies_s())
        chunks = sat.chunk_rates()
        metrics = {
            "setup_s": median(setup_times),
            "rows_per_s": median([rows for _, rows in chunks]),
            "speedup_vs_dense": ratio,
            "latency_p50_ms": lat["p50_ms"],
            "max_rate_rps": median([n for n, _ in chunks]),
            "success_rate": 1.0 - loadgen.error_rate(runs),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        info["server_blas_threads"] = report["blas_threads"]
        info["latency"] = lat
        info["setup_times_s"] = setup_times
        if not bulk:
            opened = runs[0]
            info["open_loop"] = dict(latency_stats(opened.latencies_s()), rate=SMALL_RATE,
                                     lag_p99_ms=1e3 * percentile(opened.lag_s, 99))
    return {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "correct": pool.checks.correct,
        "metrics": metrics,
        "info": dict(info, checked=pool.checks.checked, wrong=pool.checks.wrong,
                     dropped=sum(r.dropped for r in runs)),
    }


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="TW sparse model benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    common.import_repro()
    common.OUT_DIR.mkdir(exist_ok=True)
    from perfbench import layers

    if args.workload == "offline-bert":
        result = offline_bert(args.seed, args.seconds, bool(args.trace))
    else:
        result = http_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        metrics = layers.complete(result["metrics"])
    else:
        metrics = {k: {"value": float(result["metrics"][k]), "unit": u}
                   for k, u in END_TO_END.items()}
    info = dict(result["info"], workload=args.workload, trace=args.trace,
                seconds=args.seconds, host=common.host_facts(args.seed))
    line = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    out = common.OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": line, "info": info}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
