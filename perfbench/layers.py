"""Which program callables the traced run wraps, and the per-layer metrics.

The layers are the program's modules.  Each is wrapped at the name the
program looks it up by, so the call sites in ``src/`` stay untouched:

==================  ==========================================  ==================
span                wrapped callable                            layer
==================  ==========================================  ==================
core.prune          ``repro.api.tw_prune_step``                 core
formats.build       ``TiledTWMatrix.from_masks``                formats
scheduler.plan      ``repro.api.build_execution_plan``          runtime.scheduler
api.run             ``CompiledTWModel.run`` (benchmark call)    api
kernels.tw_gemm     ``tw_gemm`` in ``repro.api`` / ``executor`` kernels.masked
kernels.epilogue    ``apply_epilogue`` in the same two modules  kernels.fusion
kernels.dense       dense ``CompiledTWModel.run`` (benchmark)   dense baseline
executor.run        ``InlineExecutor.run``                      runtime.executor
server.submit       ``TWModelServer.submit`` (span rid: its id)  runtime.server
server.flush        ``TWModelServer.flush``                     runtime.server
wire.encode/decode  ``repro.runtime.wire.encode/decode_tensor`` runtime.wire
==================  ==========================================  ==================

``runtime.ingress`` and ``runtime.netserve`` are measured from the reply
headers (``X-Queue-Wait-Ms``, ``X-Latency-Ms``) and the server's
``stats_record()``.  Times named ``*.self_ms`` are a mean per call, in
milliseconds, of the span minus its children.
"""

from __future__ import annotations

import numpy as np

from perfbench.common import percentile
from perfbench.tracing import Tracer, summarize

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("core.prune_s", "s", "lower"),
    ("formats.build_s", "s", "lower"),
    ("scheduler.plan_s", "s", "lower"),
    ("api.run.calls", "count", "higher"),
    ("api.run.self_ms", "ms", "lower"),
    ("kernels.tw_gemm.calls", "count", "higher"),
    ("kernels.tw_gemm.self_ms", "ms", "lower"),
    ("kernels.tw_gemm.rows_per_call", "rows", "higher"),
    ("kernels.tw_gemm.useful_work_ratio", "ratio", "higher"),
    ("kernels.tw_gemm.bytes_moved", "bytes", "lower"),
    ("kernels.tw_gemm.modeled_device_us", "us", "lower"),
    ("kernels.dense.calls", "count", "higher"),
    ("kernels.dense.self_ms", "ms", "lower"),
    ("kernels.epilogue.calls", "count", "higher"),
    ("kernels.epilogue.self_ms", "ms", "lower"),
    ("executor.run.calls", "count", "higher"),
    ("executor.run.self_ms", "ms", "lower"),
    ("server.flush.calls", "count", "higher"),
    ("server.flush.self_ms", "ms", "lower"),
    ("server.rows_per_wave", "rows", "higher"),
    ("server.cache_hit_ratio", "ratio", "higher"),
    ("server.retries", "count", "lower"),
    ("ingress.queue_wait_p50_ms", "ms", "lower"),
    ("ingress.queue_wait_p99_ms", "ms", "lower"),
    ("ingress.waves", "count", "higher"),
    ("wire.encode_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("netserve.overhead_p50_ms", "ms", "lower"),
    ("netserve.overhead_p99_ms", "ms", "lower"),
    ("netserve.status_200", "count", "higher"),
    ("netserve.status_other", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.kernel_share", "ratio", "higher"),
]

_GEMM = ("kernels.tw_gemm", "kernels.epilogue", "kernels.dense")


def _gemm_args(args):
    """(rows, weight) of a ``tw_gemm(a, weight, plan)`` call."""
    return int(np.shape(args[0])[0]), args[1]


def _rows(args):
    return int(np.shape(args[0])[0]), None


def wrap_setup(tracer: Tracer) -> None:
    """Compile-time layers: pruning, format build, execution planning."""
    from repro.formats.tiled import TiledTWMatrix

    tracer.wrap("repro.api", "tw_prune_step", "core.prune")
    tracer.wrap(TiledTWMatrix, "from_masks", "formats.build")
    tracer.wrap("repro.api", "build_execution_plan", "scheduler.plan")


def wrap_offline(tracer: Tracer) -> None:
    """The kernels ``CompiledTWModel.run`` calls."""
    tracer.wrap("repro.api", "tw_gemm", "kernels.tw_gemm", describe=_gemm_args)
    tracer.wrap("repro.api", "apply_epilogue", "kernels.epilogue", describe=_rows)


def wrap_server(tracer: Tracer) -> None:
    """The serving path below the socket: wire, server, executor, kernels."""
    from repro.runtime.executor import InlineExecutor
    from repro.runtime.server import TWModelServer

    tracer.wrap("repro.runtime.executor", "tw_gemm", "kernels.tw_gemm", describe=_gemm_args)
    tracer.wrap("repro.runtime.executor", "apply_epilogue", "kernels.epilogue", describe=_rows)
    tracer.wrap(InlineExecutor, "run", "executor.run")
    tracer.wrap(TWModelServer, "submit", "server.submit", result_is_rid=True)
    tracer.wrap(TWModelServer, "flush", "server.flush")
    tracer.wrap("repro.runtime.wire", "encode_tensor", "wire.encode")
    tracer.wrap("repro.runtime.wire", "decode_tensor", "wire.decode")


def gemm_static(tw) -> dict:
    """Work and traffic of one ``tw_gemm`` weight, from its compiled format.

    ``nnz`` multiply-adds per activation row are useful; ``padded`` are the
    ones the depth-padded group operands execute (``K`` x the summed kept
    width).  Bytes per call at ``m`` rows are computed from tensor sizes:
    each width group reads the ``m x K`` activations, the operands are read
    once and the ``m x N`` output is written once.
    """
    from repro.runtime.batching import batching_plan

    tiles = [t for t in tw.tiles if t.kept_k and t.kept_n]
    k, n = tw.shape
    width = sum(t.kept_n for t in tiles)
    return {
        "nnz": sum(t.kept_k * t.kept_n for t in tiles),
        "padded": k * width,
        "groups": sum(
            1 for g in batching_plan(tw)
            if any(tw.tiles[i].kept_k and tw.tiles[i].kept_n for i in g.tile_ids)
        ),
        "k": k,
        "n": n,
        "width": width,
        "itemsize": np.dtype(tw.dtype).itemsize,
    }


def kernel_metrics(spans) -> dict[str, float]:
    """``kernels.tw_gemm.*`` computed from the GEMM spans' rows and weights."""
    from repro.gpu.tw_kernel import tw_gemm_cost

    statics: dict[int, dict] = {}
    modeled: dict[tuple[int, int], float] = {}
    useful = padded = bytes_moved = modeled_us = 0.0
    calls = 0
    for s in spans:
        if s is None or s[0] != "kernels.tw_gemm":
            continue
        m, tw = s[5], s[6]
        st = statics.get(id(tw))
        if st is None:
            st = statics[id(tw)] = gemm_static(tw)
        key = (m, id(tw))
        if key not in modeled:
            modeled[key] = tw_gemm_cost(m, tw).total_us
        calls += 1
        useful += m * st["nnz"]
        padded += m * st["padded"]
        bytes_moved += st["itemsize"] * (
            st["groups"] * m * st["k"] + st["k"] * st["width"] + m * st["n"]
        )
        modeled_us += modeled[key]
    if not calls:
        return {}
    return {
        "kernels.tw_gemm.useful_work_ratio": useful / padded if padded else 0.0,
        "kernels.tw_gemm.bytes_moved": bytes_moved / calls,
        "kernels.tw_gemm.modeled_device_us": modeled_us / calls,
    }


def span_metrics(spans) -> dict[str, float]:
    """Calls, mean self time and rows per call for every traced layer."""
    agg = summarize(spans)
    out: dict[str, float] = {}
    for name, a in agg.items():
        calls = a["calls"]
        if name in ("core.prune", "formats.build", "scheduler.plan"):
            out[f"{name}_s"] = a["span_s"]
        elif name.startswith("wire."):
            out[f"{name}_ms"] = 1e3 * a["self_s"] / calls
        else:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = 1e3 * a["self_s"] / calls
        if name == "kernels.tw_gemm":
            out["kernels.tw_gemm.rows_per_call"] = a["rows"] / calls
    out.update(kernel_metrics(spans))
    return out


def kernel_share(spans, denominator: str | None = None, total_s: float | None = None) -> float:
    """Kernel self time over ``total_s`` or the summed spans named ``denominator``."""
    agg = summarize(spans)
    kernels = sum(agg[n]["self_s"] for n in _GEMM if n in agg)
    if total_s is None:
        total_s = agg.get(denominator, {}).get("span_s", 0.0)
    return kernels / total_s if total_s else 0.0


def server_stats_metrics(record: dict) -> dict[str, float]:
    """``server.*``/``ingress.waves`` from a ``ServingLoop.stats_record()``."""
    cache = record["cache"]
    hits = cache["format_hits"] + cache["plan_hits"]
    total = hits + cache["format_misses"] + cache["plan_misses"]
    waves = record["waves"]["count"]
    return {
        "server.rows_per_wave": record["rows"] / waves if waves else 0.0,
        "server.cache_hit_ratio": hits / total if total else 0.0,
        "server.retries": record["slo"]["retries"],
        "ingress.waves": record["ingress"]["waves_admitted"],
    }


def client_metrics(outcomes, lag_s) -> dict[str, float]:
    """``ingress``/``netserve``/``loadgen`` metrics seen from the client.

    The netserve overhead of a request is its round trip on the wire
    (sent to reply) minus the server's own ``X-Latency-Ms``.
    """
    ok = [o for o in outcomes if o.ok]
    waits = [o.queue_wait_ms for o in ok]
    over = [1e3 * (o.done - o.sent) - o.server_latency_ms for o in ok]
    return {
        "ingress.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
        "ingress.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "netserve.overhead_p50_ms": percentile(over, 50) if over else 0.0,
        "netserve.overhead_p99_ms": percentile(over, 99) if over else 0.0,
        "netserve.status_200": len(ok),
        "netserve.status_other": len(outcomes) - len(ok),
        "loadgen.lag_p99_ms": 1e3 * percentile(lag_s, 99) if lag_s else 0.0,
    }


def complete(partial: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; 0 where the workload bypasses the layer."""
    return {
        name: {"value": float(partial.get(name, 0.0)), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
