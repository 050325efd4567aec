"""Batched GEMM — the primitive of the paper's Fig. 7 step 3.

TW tiles have unequal work (different ``K_i``/``N_i``), which under-utilises
a GPU if every tile launches its own kernel.  The paper batches tiles of
equal width into one kernel so they share the activation matrix ``A`` and
fill the machine.  The grouping lives in
:func:`repro.runtime.batching.batching_plan` (what the cost model prices);
:func:`batched_gemm` is the plain 3-D contraction one such group reduces to
(one tensor-core kernel per width group in the real implementation).  On a
host, :func:`repro.kernels.masked.tw_gemm` fuses all groups into one GEMM.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batched_gemm"]


def batched_gemm(a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
    """Plain batched GEMM: ``out[i] = a_batch[i] @ b_batch[i]``."""
    a_batch = np.asarray(a_batch)
    b_batch = np.asarray(b_batch)
    if a_batch.ndim != 3 or b_batch.ndim != 3:
        raise ValueError("batched operands must be 3-D (batch, rows, cols)")
    if a_batch.shape[0] != b_batch.shape[0]:
        raise ValueError("batch sizes disagree")
    if a_batch.shape[2] != b_batch.shape[1]:
        raise ValueError(
            f"inner dims disagree: {a_batch.shape} @ {b_batch.shape}"
        )
    return np.matmul(a_batch, b_batch)
