"""What every workload shares: the model, the output check, statistics, host facts.

The model is one full-size BERT-base encoder block
(``demo_layer_stack("bert", scale=1, blocks=1)``: q/k/v/o 768x768, FFN
768->3072->768), float32, ``pattern="tw"``, sparsity 0.75, G=64.  Its
weights come from the workload seed, so two processes that build it from
the same seed hold the same model.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "_out"

SPARSITY = 0.75
GRANULARITY = 64
DTYPE = np.float32
#: BERT's FFN epilogues: bias+GELU after 768->3072, bias+LayerNorm after 3072->768
FFN_EPILOGUES = [None, None, None, None, "bias_gelu", "bias_layernorm"]


def import_repro():
    """Import the program from ``src/`` of this checkout, or exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {src / 'repro'} is missing\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    return repro


def bert_block(seed: int):
    """``(weights, names)`` of the benchmark model, drawn from ``seed``."""
    from repro.api import demo_layer_stack

    return demo_layer_stack("bert", scale=1, blocks=1, seed=seed, dtype=DTYPE)


def compile_model(weights, names, *, pattern: str = "tw", epilogues: bool = False):
    """``repro.compile`` with the benchmark's fixed settings."""
    import repro

    kwargs = dict(pattern=pattern, dtype=DTYPE, names=names,
                  epilogue=FFN_EPILOGUES if epilogues else None)
    if pattern == "tw":
        kwargs.update(sparsity=SPARSITY, granularity=GRANULARITY)
    return repro.compile(weights, **kwargs)


# --------------------------------------------------------------------- #
# output check
# --------------------------------------------------------------------- #
def row_threshold(want: np.ndarray) -> np.ndarray:
    """Per-row error allowed around ``want``: ``atol + rtol * max|row|``.

    ``atol``/``rtol`` are the program's ``DTYPE_TOLERANCES`` entry for the
    model dtype.  The table's ``rtol`` is applied to each output row's scale
    rather than to each element: across a chain of GEMMs, rounding error
    follows the magnitude of the terms summed, so an element that cancels
    to near zero carries the error of its row, not a smaller one.
    """
    from repro.kernels.masked import DTYPE_TOLERANCES

    tol = DTYPE_TOLERANCES[np.dtype(DTYPE).name]
    scale = np.abs(np.asarray(want, dtype=np.float64)).max(axis=1, keepdims=True)
    return tol["atol"] + tol["rtol"] * scale


def matches(got: np.ndarray, want: np.ndarray, threshold: np.ndarray | None = None) -> bool:
    """Whether ``got`` equals ``want`` within :func:`row_threshold`."""
    got = np.asarray(got)
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    if threshold is None:
        threshold = row_threshold(want)
    return bool((np.abs(got - want) <= threshold).all())


def float64_chain(x: np.ndarray, weights) -> np.ndarray:
    """``x @ W1 @ W2 ...`` in float64 (the oracle for epilogue-free models)."""
    a = np.asarray(x, dtype=np.float64)
    for w in weights:
        a = a @ np.asarray(w, dtype=np.float64)
    return a


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last.

    With ``n`` samples, the ``q``-th percentile has ``n - ceil(q n / 100)``
    samples beyond it, so p99 needs 1000 samples for ten.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return percentile(values, 50.0)


# --------------------------------------------------------------------- #
# host facts
# --------------------------------------------------------------------- #
def blas_threads() -> int | None:
    """Threads the numpy BLAS will use, asked from the OpenBLAS numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def host_facts(seed: int) -> dict:
    """What makes a number legible: cores, BLAS and its threads, versions, seed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
