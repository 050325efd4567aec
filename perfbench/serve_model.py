"""Serve the benchmark model over HTTP until SIGTERM; report on exit.

Run by ``perfbench/run.py`` as its own process::

    python3 perfbench/serve_model.py --seed 1 [--epilogues] [--trace SPANS.jsonl]

Builds the model from ``--seed`` (the same weights the client checks
against), compiles it and starts ``serve_http`` on an ephemeral loopback
port with the default ``inline`` executor and ``single`` placement.  It
prints one JSON line ``{"port": ..., "t0": ...}`` once ready, where ``t0``
is the ``time.monotonic()`` at which the weights were in hand.  On SIGTERM
it drains and prints a second JSON line with the server's final stats, its
peak RSS and, with ``--trace``, the per-layer metrics of its spans (which
it also writes to the given file).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


async def _serve(net, t0: float) -> None:
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    await net.start()
    print(json.dumps({"port": net.port, "t0": t0}), flush=True)
    serving = asyncio.create_task(net.serve_forever())
    await stop.wait()
    await net.close()
    serving.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serving


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--epilogues", action="store_true")
    ap.add_argument("--trace", default="", help="write spans here and report per-layer metrics")
    args = ap.parse_args(argv)

    common.import_repro()
    from perfbench import layers

    weights, names = common.bert_block(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.wrap_setup(tracer)
        layers.wrap_server(tracer)
    t0 = time.monotonic()
    model = common.compile_model(weights, names, epilogues=args.epilogues)
    net = model.serve_http(host="127.0.0.1", port=0)
    asyncio.run(_serve(net, t0))

    report = {"stats": net.final_stats, "peak_rss_mb": common.peak_rss_mb(),
              "blas_threads": common.blas_threads()}
    if tracer is not None:
        tracer.unwrap_all()
        report["layers"] = layers.span_metrics(tracer.spans)
        report["layers"]["trace.kernel_share"] = layers.kernel_share(
            tracer.spans, "server.flush"
        )
        tracer.dump(args.trace)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
