"""TW masked GEMM — the functional analogue of the paper's Listing 1.

The paper's ``StreamMaskedGEMM`` kernel computes one output tile per thread
block, loading only the rows of ``A`` that survive the tile's ``mask_k``
(``Load_A_Tile_with_Mask``) and scattering results through ``mask_n``
(``Store_C_Tile_with_Mask``).  The functional equivalents here:

- :func:`masked_gemm` — one tile: dense ``A`` panel × compact ``B`` panel
  under explicit ``mask_k`` / column-index vectors;
- :func:`tw_gemm` — the whole product ``A @ W`` for a
  :class:`~repro.formats.tiled.TiledTWMatrix`, executed as *one* GEMM over
  a memoised, depth-padded operand of every tile in the plan;
- :func:`tw_gemm_reference` — the one-kernel-per-tile loop (the "Normal
  GEMM" row of Fig. 7), kept verbatim as the scalar oracle under the
  vectorisation contract.

All are tested equivalent to dense GEMM against the mask-expanded weights,
which is the core correctness claim of the TW execution scheme: *pruned
rows/columns contribute exactly zero, so skipping them changes nothing*.

Execution pipeline
------------------
The paper batches equal-width tiles (Fig. 7 step 3) so a GPU runs fewer,
fuller kernels.  On a host every tile multiplies the *same* activation
matrix, so ``tw_gemm`` goes one step further: the tiles of the plan it is
given — every tile of the layer, by default — assemble into a single
``K × Σ kept_n`` operand, each tile's compact payload zero-padded over its
masked rows (the NumPy analogue of ``Load_A_Tile_with_Mask``: masked-off
rows are predicated to zero instead of skipped) and the columns sorted by
output index.  One GEMM per layer, no per-tile ``A`` gather.

Dead input rows
~~~~~~~~~~~~~~~
TW column pruning removes whole output neurons, so a TW layer writes exact
zeros on every column no tile owns, and the next layer's matching ``K``
rows only ever multiply zeros.  :func:`live_rows` names the input features
of a layer that can be nonzero — the columns the previous TW layer writes,
as long as nothing between the two layers can turn a zero into a nonzero
(no epilogue, or an elementwise one whose output on a zero row is exactly
zero on every dead column) — and ``tw_gemm(a, w, rows=...)`` runs over
only those rows: it gathers ``a[:, rows]`` once and multiplies it by an
operand built over just those rows.  This is the layer-level form of the
paper's ``Load_A_Tile_with_Mask``: the rows pruning made useless are
skipped instead of multiplied.  Callers derive ``rows`` statically per
layer from the model, never from the activations or from how work is
split, so every path through a layer stack runs the same reduction.

Between two TW layers the store side follows: ``Store_C_Tile_with_Mask``
writes only the kept columns.  ``tw_gemm(a, w, rows=..., cols=...)``
returns the packed ``M × len(cols)`` array of the columns the next layer
reads, the layer's elementwise epilogue runs on those columns alone (its
vectors sliced once, :meth:`~repro.kernels.fusion.EpilogueSpec.take`),
and the next ``tw_gemm`` takes that array as its ``a[:, rows]`` without
gathering again.  No zero-fill, no scatter, no epilogue work on pruned
neurons.  :meth:`repro.api.CompiledTWModel.wave_steps` decides it once
per layer: a step writes packed when the next step is a TW GEMM whose
``rows`` are this layer's live columns and whose epilogue does not read
this output as a residual.  Full width stays before a non-TW layer, after
an epilogue that writes dead columns or is row-wise (LayerNorm), and at
the model output.

A float32 GEMM (also the float16 and int8 paths, which compute in float32)
is written feature-major from :data:`FEATURE_MAJOR_MIN_ROWS` activation
rows on (``B.T @ A.T`` into an ``N × M`` buffer), so the
``Store_C_Tile_with_Mask`` scatter moves whole contiguous rows; the result
is the ``M × N`` transposed view — Fortran-ordered, which the next layer's
GEMM consumes without a copy.  Smaller batches and float64 run row-major
(``A @ B``), which host BLAS runs faster there.  A layer that keeps every
column, or writes packed, skips the zero-fill and the scatter entirely.
A restricted GEMM reads its reduced input Fortran-ordered whether it was
gathered or handed over packed, so both give the same bits.

The operand is memoised on the weight (keyed by the sorted tile ids, the
compute dtype and, when restricted, the live rows), which is what lets a
serving loop replay a cached
:class:`~repro.runtime.scheduler.ExecutionPlan` and pay only the GEMM.
The memo is derived state: pickling or copying a weight drops it.
The plan stays the cost model's artifact: its width groups are what
:mod:`repro.gpu.tw_kernel` prices.

Mixed precision
---------------
``tw_gemm`` follows the storage dtype of the compacted weight:

- **float64 / float32** — operands multiply in their own dtype.
- **float16** — storage (checkpoint, pickle) stays half precision; the
  GEMM *accumulates in float32* (host BLAS has no half kernels) through a
  float32 operand, and the output rounds back to float16 once.
- **int8** — tile payloads are symmetric per-tile quantised
  (``q = round(w / scale)``, ``scale`` on each :class:`TWTile`); the
  operand dequantises each slab into float32, which the GEMM accumulates
  in.  Activations stay floating point throughout.

Oracle-comparison policy (vectorisation contract): ``tw_gemm_reference``
is the float-payload oracle and hardcodes a ``float64`` output promotion;
comparisons run in the *batched path's* dtype against the reference output
cast to that dtype, with the per-dtype tolerances in
:data:`DTYPE_TOLERANCES` — exact (``atol = rtol = 0``) for float64 on
dyadic data, documented rounding bounds for float32/float16.  The int8
path has no scalar oracle: it is compared against the float64 ``tw_gemm``
on the dequantised weights (``TiledTWMatrix.to_dense()``) within the
quantisation-error bound implied by the tile scales.
"""

from __future__ import annotations


import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.fusion import EPILOGUES, EpilogueSpec, zero_row_writes

__all__ = [
    "masked_gemm",
    "host_gemm",
    "tw_gemm",
    "tw_gemm_reference",
    "live_columns",
    "live_rows",
    "DTYPE_TOLERANCES",
    "FEATURE_MAJOR_MIN_ROWS",
]

#: activation rows from which float32 GEMMs run feature-major (``B.T @ A.T``
#: into an ``N × M`` buffer) instead of row-major ``A @ B``.  From an
#: interleaved per-M A/B of a BERT-base block (2-core x86-64, OpenBLAS
#: 0.3.31): row-major is faster up to M = 10, the two tie at M = 12,
#: feature-major is faster from M = 14.  float64 stays row-major:
#: feature-major dgemm lost at every M from 8 to 128 in the same A/B.
FEATURE_MAJOR_MIN_ROWS = 12

#: per-dtype tolerance table for batched-vs-oracle comparisons (the
#: explicit oracle policy): compare in the batched path's dtype, reference
#: output cast to it.  float64 on dyadic data is exact; float64 on
#: continuous data differs only by summation-order rounding; float32 /
#: float16 bounds follow ``K_max · eps`` for BERT-scale reductions
#: (K ≤ 4096: 4096 · 1.2e-7 ≈ 5e-4 relative for fp32, and half-precision
#: storage rounding ~ 1e-3 relative dominates for fp16).
DTYPE_TOLERANCES: dict[str, dict[str, float]] = {
    "float64": {"rtol": 0.0, "atol": 1e-12},
    "float32": {"rtol": 5e-4, "atol": 1e-5},
    "float16": {"rtol": 1e-2, "atol": 1e-3},
}


def masked_gemm(
    a: np.ndarray,
    b_compact: np.ndarray,
    mask_k: np.ndarray,
    col_indices: np.ndarray,
    out: np.ndarray,
) -> None:
    """Accumulate one TW tile's contribution into ``out`` (Listing 1 body).

    Parameters
    ----------
    a:
        Dense activations ``M×K`` (kept in dense layout; pruned rows are
        *skipped*, not removed — paper §VI "Tiling").
    b_compact:
        The tile's compact payload ``kept_k × kept_n``.
    mask_k:
        ``bool[K]`` row survival mask (the kernel's ``mask_k``).
    col_indices:
        Original output columns of the tile (the kernel's ``mask_n``,
        resolved to indices).
    out:
        Dense output ``M×N`` accumulated in place.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    mask_k = np.asarray(mask_k, dtype=bool)
    if mask_k.shape != (a.shape[1],):
        raise ValueError(f"mask_k length {mask_k.shape[0]} != K={a.shape[1]}")
    rows = np.flatnonzero(mask_k)
    if b_compact.shape != (rows.size, np.asarray(col_indices).size):
        raise ValueError(
            f"compact tile shape {b_compact.shape} != "
            f"({rows.size}, {np.asarray(col_indices).size})"
        )
    if rows.size == 0 or np.asarray(col_indices).size == 0:
        return
    # Load_A_Tile_with_Mask: gather the surviving rows of A's K dimension
    a_panel = a[:, rows]
    # WMMA main loop: one dense (M × kept_k) @ (kept_k × kept_n) product
    contrib = a_panel @ b_compact
    # Store_C_Tile_with_Mask: scatter into the tile's output columns
    out[:, np.asarray(col_indices)] += contrib


def tw_gemm_reference(a: np.ndarray, weight: TiledTWMatrix) -> np.ndarray:
    """One :func:`masked_gemm` per tile — the scalar oracle for ``tw_gemm``.

    This is the seed implementation kept verbatim (vectorisation contract):
    it must never be optimised.  Note it promotes the output to ``float64``
    regardless of the operand dtypes; the batched path respects them (see
    ``DTYPE_TOLERANCES`` for the comparison policy).  Defined for *float*
    payloads only — quantised int8 weights have no scalar oracle and are
    checked against the float64 path on the dequantised weights instead.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    k, n = weight.shape
    if a.shape[1] != k:
        raise ValueError(f"A columns {a.shape[1]} != weight K {k}")
    out = np.zeros((a.shape[0], n), dtype=np.result_type(a, np.float64))
    for tile in weight.tiles:
        masked_gemm(a, tile.data, tile.mask_k, tile.col_indices, out)
    return out


def _feature_major(a: np.ndarray) -> bool:
    return a.dtype == np.float32 and a.shape[0] >= FEATURE_MAJOR_MIN_ROWS


def host_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in the BLAS orientation that is faster for ``a``.

    float32 products from :data:`FEATURE_MAJOR_MIN_ROWS` rows on are
    computed feature-major (``b.T @ a.T`` into an ``N × M`` buffer) and
    returned as the ``M × N`` transposed view, so the result is
    Fortran-ordered.  Dense layers and :func:`tw_gemm` both run through
    this rule, so a TW-vs-dense timing compares sparsity, not layout.
    """
    if _feature_major(a):
        return np.matmul(b.T, a.T).T
    return a @ b


def tw_gemm(
    a: np.ndarray,
    weight: TiledTWMatrix,
    plan=None,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``A @ W`` for a TW-compacted weight matrix as one GEMM.

    Columns of the output that belong to no tile (pruned columns) are exact
    zeros, matching dense GEMM against the mask-expanded weights.

    Parameters
    ----------
    a:
        Dense activations ``M×K`` — or, with ``rows``, the packed
        ``M×len(rows)`` activations ``A[:, rows]`` a ``cols=`` call of the
        previous layer writes.
    weight:
        The TW-compacted weight.
    plan:
        The tiles to run — a sequence of
        :class:`~repro.runtime.batching.BatchGroup` or an
        :class:`~repro.runtime.scheduler.ExecutionPlan`; ``tile_ids``
        index into ``weight.tiles``.  Defaults to every tile.  Only the
        set of tiles matters: every plan of a layer shares one operand.
    rows:
        Optional strictly increasing indices of the input features that can
        be nonzero (see :func:`live_rows`).  The GEMM then reduces over
        ``a[:, rows]`` only; every other column of ``a`` must be zero, or
        the result is not ``A @ W``.  An ``a`` with ``len(rows)`` columns
        is that gather already and is used as it is.  ``None`` (or every
        row) runs the full ``K``.
    cols:
        Optional strictly increasing output columns to write, a superset
        of the columns the tiles own (see :func:`live_columns`).  The
        result is then the packed ``M×len(cols)`` array ``(A @ W)[:, cols]``
        (``Store_C_Tile_with_Mask`` writing only kept columns): when
        ``cols`` are exactly the owned columns the GEMM writes it with no
        zero-fill or scatter.  ``None`` writes all ``N`` columns.

    Notes
    -----
    Matches :func:`tw_gemm_reference` bit-identically on exactly-
    representable data; on continuous data the zero-padded reduction only
    differs by summation-order rounding.  Packed input and output hold the
    same bits as the full-width forms they stand for.  The output dtype
    follows ``np.result_type(a, weight payload)`` instead of the
    reference's unconditional ``float64`` promotion (see
    :func:`compute_dtypes`).  A float32 GEMM from
    :data:`FEATURE_MAJOR_MIN_ROWS` rows on returns a Fortran-ordered view
    (see :func:`host_gemm`).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("a must be 2-D")
    k, n = weight.shape
    if rows is not None:
        rows = _index_array(rows, "rows")
        rows = None if rows.size == k else rows
    if cols is not None:
        cols = _index_array(cols, "cols")
    packed = rows is not None and a.shape[1] == rows.size
    if a.shape[1] != k and not packed:
        live = "" if rows is None else f" or its {rows.size} live rows"
        raise ValueError(f"A columns {a.shape[1]} != weight K {k}{live}")
    # a weight without tiles has no payload dtype: the activations decide
    w_dtype = weight.dtype if weight.tiles else a.dtype
    out_dtype, compute_dtype = compute_dtypes(a.dtype, w_dtype)
    m = a.shape[0]
    width = n if cols is None else cols.size
    tile_ids = tuple(range(len(weight.tiles))) if plan is None else plan_tile_ids(plan)
    operand = layer_operand(weight, tile_ids, compute_dtype, rows)
    if operand is None:
        return np.zeros((m, width), dtype=out_dtype)
    panel, owned = operand
    if rows is not None:
        # Load_A_Tile_with_Mask for the whole layer: dead rows are skipped.
        # The reduced input takes one layout, gathered or packed (NumPy
        # gathers columns Fortran-ordered): small-matrix BLAS kernels round
        # differently per operand layout
        a = np.asfortranarray(a if packed else a[:, rows])
    if a.dtype != compute_dtype:
        a = a.astype(compute_dtype)
    if owned.size == width and (cols is None or np.array_equal(owned, cols)):
        # every written column is owned: the GEMM writes the output, no
        # fill or scatter
        out = host_gemm(a, panel)
    else:
        at = owned if cols is None else _positions(cols, owned)
        if _feature_major(a):
            # each kept column lands as one contiguous row
            out_t = np.zeros((width, m), dtype=compute_dtype)
            out_t[at] = panel.T @ a.T
            out = out_t.T
        else:
            out = np.zeros((m, width), dtype=compute_dtype)
            out[:, at] = a @ panel
    return out if compute_dtype == out_dtype else out.astype(out_dtype)


def _index_array(idx, name: str) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D integer index array")
    return idx.astype(np.int64, copy=False)


def _positions(cols: np.ndarray, owned: np.ndarray) -> np.ndarray:
    """Where each of the sorted ``owned`` columns sits in sorted ``cols``."""
    at = np.searchsorted(cols, owned)
    if at.size and (at[-1] >= cols.size or np.any(cols[at] != owned)):
        raise ValueError("cols must include every column the tiles write")
    return at


def plan_tile_ids(plan) -> tuple[int, ...]:
    """Sorted ids of the tiles a plan runs — its operand's memo key.

    ``plan`` is a sequence of :class:`~repro.runtime.batching.BatchGroup`
    or an :class:`~repro.runtime.scheduler.ExecutionPlan`.
    """
    groups = getattr(plan, "groups", plan)
    return tuple(sorted({i for group in groups for i in group.tile_ids}))


def compute_dtypes(a_dtype: np.dtype, w_dtype: np.dtype) -> tuple[np.dtype, np.dtype]:
    """``(output dtype, GEMM dtype)`` of :func:`tw_gemm` for these operands.

    Quantised storage accumulates in float32 with float activations; host
    BLAS has no half kernels, so float16 results accumulate in float32 and
    round once at the end.
    """
    if w_dtype.kind in "iu":
        out_dtype = np.result_type(a_dtype, np.float32)
    else:
        out_dtype = np.result_type(a_dtype, w_dtype)
    return out_dtype, np.dtype(np.float32) if out_dtype == np.float16 else np.dtype(out_dtype)


def layer_operand(
    weight: TiledTWMatrix,
    tile_ids: tuple[int, ...],
    compute_dtype: np.dtype,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The one GEMM operand of these tiles, memoised on ``weight``.

    A ``K × Σ kept_n`` panel in ``compute_dtype``, built in one pass from
    the tiles' compact payloads (int8 slabs dequantised by their tile's
    scale), each slab zero-padded over its masked rows, with the columns
    sorted by output index (returned alongside as ``cols``).  With
    ``rows`` (sorted ``int64`` input-feature indices) the panel has one row per
    entry of ``rows`` instead of ``K``: each tile's kept rows are remapped
    into ``rows`` and the ones outside it dropped, so the full-depth panel
    is never built.  ``None`` when no tile has work.  Keyed by
    ``(tile_ids, compute_dtype)`` — plus the bytes of ``rows`` when
    restricted — with ``tile_ids`` sorted, so every plan of a layer shares
    one copy; the frozen dataclass carries the memo in its instance
    ``__dict__`` (weights are frozen, so payloads never change under a
    live memo).
    """
    cache = weight.__dict__.get("_operands")
    if cache is None:
        cache = {}
        object.__setattr__(weight, "_operands", cache)
    key = (tile_ids, compute_dtype.str)
    if rows is not None:
        key += (rows.tobytes(),)
    if key in cache:
        return cache[key]
    members = [weight.tiles[i] for i in tile_ids]
    members = [t for t in members if t.kept_k and t.kept_n]
    if not members:
        cache[key] = None
        return None
    k = weight.shape[0]
    if rows is None:
        depth, position = k, None
    else:
        if rows.size and (rows[0] < 0 or rows[-1] >= k or np.any(rows[1:] <= rows[:-1])):
            raise ValueError(f"rows must be strictly increasing indices into K={k}")
        # input feature -> its row of the restricted panel (-1: dead row)
        depth, position = rows.size, np.full(k, -1, dtype=np.int64)
        position[rows] = np.arange(rows.size)
    panel = np.zeros((depth, sum(t.kept_n for t in members)), dtype=compute_dtype)
    offset = 0
    for t in members:
        slab = t.data
        at = t.row_indices()
        if position is not None:
            at = position[at]
            live = at >= 0
            at, slab = at[live], slab[live]
        if slab.dtype.kind in "iu":
            slab = slab.astype(compute_dtype)
            slab *= np.asarray(t.scale, dtype=compute_dtype)
        panel[at, offset : offset + t.kept_n] = slab
        offset += t.kept_n
    cols = np.concatenate([t.col_indices for t in members]).astype(np.int64, copy=False)
    if np.any(cols[1:] < cols[:-1]):
        order = np.argsort(cols, kind="stable")
        panel, cols = panel[:, order], cols[order]
    cache[key] = (panel, cols)
    return cache[key]


def live_columns(weight: TiledTWMatrix) -> np.ndarray:
    """Sorted output columns ``weight`` can write, memoised on it.

    The union of ``col_indices`` over the tiles with work (``kept_k`` and
    ``kept_n`` both nonzero); every other output column of
    :func:`tw_gemm` is an exact zero.
    """
    hit = weight.__dict__.get("_live_columns")
    if hit is None:
        owned = [t.col_indices for t in weight.tiles if t.kept_k and t.kept_n]
        hit = np.sort(np.concatenate(owned or [np.zeros(0, dtype=np.int64)]))
        object.__setattr__(weight, "_live_columns", hit)
    return hit


def live_rows(
    prev_tw: TiledTWMatrix | None,
    prev_epilogue: EpilogueSpec | None = None,
) -> np.ndarray | None:
    """Input features of the layer after ``prev_tw`` that can be nonzero.

    The ``rows=`` argument of the next layer's :func:`tw_gemm`: the
    columns ``prev_tw`` can write (:func:`live_columns`), provided nothing
    between the layers turns a zero into a nonzero.  That holds with no
    epilogue, and with an elementwise epilogue
    (:attr:`~repro.kernels.fusion.Epilogue.elementwise`) whose fused
    output on a zero row is exactly zero at every dead column — e.g.
    ``bias_gelu`` with zero bias there, since ``gelu(0) == 0``.  Row-wise
    epilogues (LayerNorm) spread every column into every other, so they
    never propagate.

    ``None`` — run the full ``K`` — for the first layer or after a non-TW
    layer (``prev_tw is None``), after an epilogue that can write dead
    columns, and when every column is live.  A pure function of the
    model, never of the activations, so every caller derives the same
    rows for a layer.  When it is not ``None`` the previous layer can also
    write just these columns, packed (``tw_gemm(..., cols=)``), since the
    next layer reads nothing else.
    """
    if prev_tw is None:
        return None
    cols = live_columns(prev_tw)
    if cols.size == prev_tw.shape[1]:
        return None
    if prev_epilogue is not None:
        if not EPILOGUES.create(prev_epilogue.name).elementwise:
            return None
        writes = zero_row_writes(prev_epilogue, prev_tw.shape[1])
        if writes.size and not np.isin(writes, cols, assume_unique=True).all():
            return None
    return cols
