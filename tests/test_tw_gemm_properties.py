"""Property tests of the one-GEMM ``tw_gemm`` against its oracles.

``tw_gemm`` runs a layer as one GEMM over a memoised, column-sorted
operand; float32 GEMMs from ``FEATURE_MAJOR_MIN_ROWS`` activation rows on
run feature-major (Fortran-ordered result), everything else row-major.
These properties draw random shapes, column and row masks — every column
kept, no column kept, depth-1 tiles — and batch sizes on both sides of the
cut-off, and pin that the layout never shows: not in the values, not in
the memo, not through the wire codec, not through an epilogue.  Chains of
TW layers pin that skipping the input rows the previous layer cannot
write (``live_rows``) changes nothing either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.fusion import EPILOGUES, EpilogueSpec, apply_epilogue
from repro.kernels.masked import (
    DTYPE_TOLERANCES,
    FEATURE_MAJOR_MIN_ROWS,
    live_columns,
    live_rows,
    tw_gemm,
    tw_gemm_reference,
)
from repro.runtime.batching import batching_plan
from repro.runtime.scheduler import build_execution_plan
from repro.runtime.wire import decode_tensor, encode_tensor

COLUMNS = ("random", "all", "none")
ROWS = ("random", "all", "depth1")


def _weight(seed, k, n, g, columns, rows, dtype, dyadic=False):
    """A random TW weight with the requested column and row mask shapes."""
    rng = np.random.default_rng(seed)
    col_keep = {
        "random": rng.random(n) < 0.6,
        "all": np.ones(n, dtype=bool),
        "none": np.zeros(n, dtype=bool),
    }[columns]
    row_masks = []
    for _ in TiledTWMatrix.column_groups(col_keep, g):
        if rows == "all":
            mk = np.ones(k, dtype=bool)
        elif rows == "depth1":
            mk = np.zeros(k, dtype=bool)
            mk[rng.integers(k)] = True
        else:
            mk = rng.random(k) < 0.5
        row_masks.append(mk)
    if dyadic:
        dense = rng.integers(-8, 9, (k, n)) / 4.0
    else:
        dense = rng.standard_normal((k, n))
    return TiledTWMatrix.from_masks(dense, g, col_keep, row_masks, dtype=np.dtype(dtype))


def _activations(seed, m, k, dtype, dyadic=False):
    rng = np.random.default_rng([seed, 1])
    if dyadic:
        return (rng.integers(-8, 9, (m, k)) / 4.0).astype(dtype)
    return rng.standard_normal((m, k)).astype(dtype)


shapes = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 300),  # M, both sides of the cut-off
    st.integers(1, 40),  # K
    st.integers(1, 48),  # N
    st.sampled_from([1, 2, 4, 8, 16]),  # G
    st.sampled_from(COLUMNS),
    st.sampled_from(ROWS),
)


@given(shapes, st.booleans())
@settings(max_examples=80, deadline=None)
def test_float64_dyadic_is_exact(shape, reverse_tiles):
    seed, m, k, n, g, columns, rows = shape
    tw = _weight(seed, k, n, g, columns, rows, "float64", dyadic=True)
    if reverse_tiles:  # tile ids no longer follow column order
        tw = TiledTWMatrix(shape=tw.shape, granularity=g, tiles=tw.tiles[::-1])
    a = _activations(seed, m, k, "float64", dyadic=True)
    got = tw_gemm(a, tw)
    assert got.shape == (m, n) and got.dtype == np.float64
    np.testing.assert_array_equal(got, tw_gemm_reference(a, tw))


@pytest.mark.parametrize("dtype", ["float32", "float16"])
@given(shape=shapes)
@settings(max_examples=40, deadline=None)
def test_float_dtypes_within_policy(dtype, shape):
    seed, m, k, n, g, columns, rows = shape
    tw = _weight(seed, k, n, g, columns, rows, dtype)
    a = _activations(seed, m, k, dtype)
    got = tw_gemm(a, tw)
    assert got.dtype == np.dtype(dtype)
    tol = DTYPE_TOLERANCES[dtype]
    want = tw_gemm_reference(a, tw).astype(dtype)
    np.testing.assert_allclose(got, want, rtol=tol["rtol"], atol=tol["atol"])


@given(shapes)
@settings(max_examples=40, deadline=None)
def test_int8_matches_dequantised_float64_path(shape):
    seed, m, k, n, g, columns, rows = shape
    tw8 = _weight(seed, k, n, g, columns, rows, "int8")
    a = _activations(seed, m, k, "float32")
    got = tw_gemm(a, tw8)
    assert got.dtype == np.float32
    a64 = a.astype(np.float64)
    w64 = tw8.to_dense().astype(np.float64)
    # float32 accumulation error, bounded per element by K·eps·Σ|a||w|
    bound = k * np.finfo(np.float32).eps * (np.abs(a64) @ np.abs(w64))
    assert np.all(np.abs(got - a64 @ w64) <= bound + 1e-30)


def test_every_plan_of_a_layer_shares_one_memo_entry():
    tw = _weight(5, 32, 48, 8, "random", "random", "float64")
    a = _activations(5, 20, 32, "float64")
    plan = build_execution_plan(tw)
    want = tw_gemm(a, tw)
    for p in (plan, plan.groups, plan.execution_order(), batching_plan(tw),
              batching_plan(tw, enabled=False), list(reversed(plan.groups))):
        np.testing.assert_array_equal(tw_gemm(a, tw, plan=p), want)
    assert len(tw.__dict__["_operands"]) == 1
    # float32 activations on float64 payloads still compute in float64
    tw_gemm(a.astype(np.float32), tw)
    assert len(tw.__dict__["_operands"]) == 1
    # a second compute dtype is a second entry
    tw32 = _weight(5, 32, 48, 8, "random", "random", "float32")
    tw_gemm(a, tw32)
    tw_gemm(a.astype(np.float32), tw32)
    assert len(tw32.__dict__["_operands"]) == 2


def _feature_major_output(seed, k, n, columns="random"):
    """A float32 ``tw_gemm`` result past the cut-off (Fortran-ordered)."""
    tw = _weight(seed, k, n, 8, columns, "random", "float32")
    a = _activations(seed, FEATURE_MAJOR_MIN_ROWS + 3, k, "float32")
    out = tw_gemm(a, tw)
    assert out.flags.f_contiguous and not out.flags.c_contiguous
    return a, out


@pytest.mark.parametrize("columns", ["random", "all"])
def test_feature_major_output_round_trips_the_wire(columns):
    _, out = _feature_major_output(6, 24, 40, columns)
    back = decode_tensor(encode_tensor(out))
    assert back.dtype == out.dtype
    np.testing.assert_array_equal(back, out)


def _spec(name, n, rng, p):
    return EpilogueSpec(
        name=name,
        bias=rng.standard_normal(n),
        gamma=rng.standard_normal(n),
        beta=rng.standard_normal(n),
        p=p,
        seed=3,
    )


@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("name", EPILOGUES.names())
def test_epilogue_on_feature_major_output_matches_c_order_copy(name, reference, p):
    rng = np.random.default_rng(7)
    a, y = _feature_major_output(7, 32, 32)
    a, y = a.astype(np.float64), y.astype(np.float64)  # keeps the layout
    assert y.flags.f_contiguous
    spec = _spec(name, 32, rng, p)
    # in a layer stack the residual (the layer input) is feature-major too
    got = apply_epilogue(y, spec, residual=np.asfortranarray(a), reference=reference)
    want = apply_epilogue(
        np.ascontiguousarray(y), spec, residual=np.ascontiguousarray(a), reference=reference
    )
    np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------- #
# dead input rows: a TW layer after a TW layer reduces over live rows only
# --------------------------------------------------------------------- #
#: what sits between two TW layers of a chain
BETWEEN = ("none", "gelu_zero_bias", "gelu_dead_bias", "layernorm")


def _between_spec(kind, tw, rng, dtype):
    """The epilogue ``kind`` on layer ``tw``, or ``None``.

    ``gelu_dead_bias`` puts a nonzero bias on one dead column (when the
    layer has one), so ``gelu(bias) != 0`` lands where the GEMM wrote 0.
    """
    n = tw.shape[1]
    if kind == "none":
        return None
    if kind == "layernorm":
        return EpilogueSpec(
            name="bias_layernorm",
            bias=rng.standard_normal(n).astype(dtype),
            gamma=rng.standard_normal(n).astype(dtype),
            beta=rng.standard_normal(n).astype(dtype),
        )
    bias = np.zeros(n, dtype=dtype)
    bias[live_columns(tw)] = rng.standard_normal(live_columns(tw).size)
    if kind == "gelu_dead_bias":
        dead = np.setdiff1d(np.arange(n), live_columns(tw))
        if dead.size:
            bias[rng.choice(dead)] = 0.75
    return EpilogueSpec(name="bias_gelu", bias=bias)


chains = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.lists(st.integers(4, 40), min_size=3, max_size=5),  # K, N1, N2, ...
    st.sampled_from([1, 2, 4, 8]),  # G
    st.floats(0.2, 0.85),  # sparsity
    st.sampled_from([1, 5, 11, 12, 64]),  # M, both sides of the cut-off
    st.sampled_from(["float64", "float32"]),
)


@given(chains, st.lists(st.sampled_from(BETWEEN), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_run_over_live_rows_matches_the_unrestricted_chain(chain, between):
    """``run()`` skips dead input rows; the full-``K`` chain agrees.

    float64 runs on dyadic data, where every partial sum is exact, so any
    reduction order gives the same bits — as long as no epilogue runs
    before the last layer.  An epilogue's outputs are no longer dyadic;
    after one, skipped rows may change the summation order, and the chain
    agrees within rounding.
    """
    import dataclasses

    import repro

    seed, dims, g, sparsity, m, dtype = chain
    rng = np.random.default_rng(seed)
    between = between[: len(dims) - 1]
    dyadic = dtype == "float64"
    weights = [
        (rng.integers(-8, 9, (k, n)) / 4.0 if dyadic else rng.standard_normal((k, n)))
        for k, n in zip(dims, dims[1:])
    ]
    model = repro.compile(weights, pattern="tw", sparsity=sparsity, granularity=g,
                          dtype=np.dtype(dtype))
    specs = [_between_spec(kind, l.tw, rng, dtype) for kind, l in zip(between, model.layers)]
    model.layers = [dataclasses.replace(l, epilogue=s) for l, s in zip(model.layers, specs)]
    for l, kind in zip(model.layers, between):
        rows = live_rows(l.tw, l.epilogue)
        if kind == "layernorm" or (
            kind == "gelu_dead_bias" and live_columns(l.tw).size < l.shape[1]
        ):
            assert rows is None
        elif live_columns(l.tw).size < l.shape[1]:
            np.testing.assert_array_equal(rows, live_columns(l.tw))

    x = _activations(seed, m, dims[0], dtype, dyadic=dyadic)
    want = x
    for l in model.layers:  # every layer over its full K
        y = tw_gemm(want, l.tw)
        want = apply_epilogue(y, l.epilogue, residual=want) if l.epilogue else y
    got = model.run(x)
    assert got.dtype == want.dtype
    exact = dyadic and all(l.epilogue is None for l in model.layers[:-1])
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        rtol = 1e-12 if dyadic else DTYPE_TOLERANCES["float32"]["rtol"]
        atol = DTYPE_TOLERANCES[dtype]["atol"]
        # rounding follows the row's scale, not the (possibly cancelled) element
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= atol + rtol * scale)


def test_live_rows_only_for_a_tw_layer_with_dead_columns():
    tw = _weight(8, 16, 24, 4, "random", "random", "float64")
    cols = live_columns(tw)
    assert 0 < cols.size < 24
    np.testing.assert_array_equal(live_rows(tw), cols)
    assert live_rows(None) is None  # first layer, or after a non-TW layer
    every = _weight(8, 16, 24, 4, "all", "all", "float64")
    assert live_rows(every) is None  # nothing to skip
    assert live_columns(_weight(8, 16, 24, 4, "none", "all", "float64")).size == 0
    # a residual epilogue is not elementwise: it never propagates
    spec = EpilogueSpec(name="dropout_residual_layernorm",
                        gamma=np.ones(24), beta=np.zeros(24))
    assert live_rows(tw, spec) is None


def test_restricted_operand_is_built_at_live_depth_only():
    tw = _weight(9, 32, 40, 8, "random", "random", "float64", dyadic=True)
    rows = np.array([1, 4, 5, 17, 30], dtype=np.int64)
    a = np.zeros((7, 32))
    a[:, rows] = _activations(9, 7, rows.size, "float64", dyadic=True)
    got = tw_gemm(a, tw, rows=rows)
    np.testing.assert_array_equal(got, tw_gemm_reference(a, tw))
    (key,) = tw.__dict__["_operands"]  # no full-K panel was built
    panel, _ = tw.__dict__["_operands"][key]
    assert panel.shape[0] == rows.size
    # every row, or no rows argument, is the unrestricted path
    np.testing.assert_array_equal(tw_gemm(a, tw, rows=np.arange(32)), tw_gemm(a, tw))
    with pytest.raises(ValueError, match="strictly increasing"):
        tw_gemm(a, tw, rows=np.array([4, 1]))


def test_pickle_and_deepcopy_drop_the_derived_memos():
    """``run()`` memoises operands and live columns on its weights; a
    pickle or deep copy ships the tiles only and rebuilds on first use."""
    import copy
    import pickle

    import repro

    rng = np.random.default_rng(10)
    weights = [rng.standard_normal((48, 64)), rng.standard_normal((64, 40))]
    model = repro.compile(weights, pattern="tw", sparsity=0.6, granularity=8,
                          dtype=np.float32)
    tw = model.layers[1].tw
    before = len(pickle.dumps(tw))
    x = _activations(10, 20, 48, "float32")
    model.run(x)
    assert {"_operands", "_live_columns"} <= set(model.layers[0].tw.__dict__)
    assert "_operands" in tw.__dict__
    assert len(pickle.dumps(tw)) == before
    a = _activations(11, 20, 64, "float32")
    for clone in (pickle.loads(pickle.dumps(tw)), copy.deepcopy(tw)):
        assert set(clone.__dict__) == {"shape", "granularity", "tiles"}
        np.testing.assert_array_equal(tw_gemm(a, clone), tw_gemm(a, tw))


def test_packed_input_and_output_hold_the_full_width_bits():
    """``tw_gemm(..., cols=)`` writes ``(A @ W)[:, cols]``, and a packed
    ``A[:, rows]`` input reduces exactly like the full-width one."""
    prev = _weight(12, 24, 32, 4, "random", "random", "float32")
    tw = _weight(13, 32, 40, 8, "random", "random", "float32")
    rows = live_columns(prev)
    assert 0 < rows.size < 32
    owned = live_columns(tw)
    for m in (3, FEATURE_MAJOR_MIN_ROWS + 5):
        a = tw_gemm(_activations(12, m, 24, "float32"), prev)
        full = tw_gemm(a, tw, rows=rows)
        packed = tw_gemm(a[:, rows], tw, rows=rows, cols=owned)
        assert packed.shape == (m, owned.size)
        np.testing.assert_array_equal(packed, full[:, owned])
        # a superset of the owned columns is zero-filled where nothing writes
        wider = np.union1d(owned, np.arange(0, 40, 3))
        np.testing.assert_array_equal(tw_gemm(a, tw, rows=rows, cols=wider), full[:, wider])
    with pytest.raises(ValueError, match="include every column"):
        tw_gemm(a, tw, cols=owned[1:])
    with pytest.raises(ValueError, match="live rows"):
        tw_gemm(a[:, 1:], tw, rows=rows)


MIDDLE = ("none", "gelu_zero_bias", "gelu_live_bias", "gelu_dead_bias")


def _middle_spec(kind, tw, rng, dtype):
    """``bias_gelu`` on the middle layer: zero bias, a bias on live columns
    only (still packs), or one nonzero dead-column bias (stays full width)."""
    if kind == "none":
        return None
    n = tw.shape[1]
    bias = np.zeros(n, dtype=dtype)
    if kind != "gelu_zero_bias":
        bias[live_columns(tw)] = rng.standard_normal(live_columns(tw).size)
    dead = np.setdiff1d(np.arange(n), live_columns(tw))
    if kind == "gelu_dead_bias" and dead.size:
        bias[rng.choice(dead)] = 0.75
    return EpilogueSpec(name="bias_gelu", bias=bias)


packing_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.lists(st.integers(6, 40), min_size=4, max_size=4),  # K, N1, N2, N3
    st.sampled_from([2, 4, 8]),  # G
    st.sampled_from(["float64", "float32", "float16", "int8"]),
    st.sampled_from([1, 5, FEATURE_MAJOR_MIN_ROWS - 1, FEATURE_MAJOR_MIN_ROWS, 40]),
    st.sampled_from(MIDDLE),
    st.booleans(),  # bias_layernorm on the last layer
)


@given(packing_cases)
@settings(max_examples=30, deadline=None)
def test_packed_forward_matches_the_full_width_chain(case):
    """A TW layer whose successor reads only its live columns writes them
    packed and runs its epilogue on them alone; ``run()`` and every
    executor x placement still return the full-width chain's bits."""
    import dataclasses

    import repro
    from repro.gpu.device import T4, V100
    from repro.runtime.placement import Placement

    seed, dims, g, dtype, m, middle, last_ln = case
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((k, n)) / np.sqrt(k) for k, n in zip(dims, dims[1:])]
    param = np.float64 if dtype == "float64" else np.float32
    single = repro.compile(weights, pattern="tw", sparsity=0.6, granularity=g,
                           dtype=np.dtype(dtype))
    specs = [None, _middle_spec(middle, single.layers[1].tw, rng, param), None]
    if last_ln:
        n = dims[-1]
        specs[2] = EpilogueSpec(
            name="bias_layernorm", bias=rng.standard_normal(n).astype(param),
            gamma=rng.standard_normal(n).astype(param),
            beta=rng.standard_normal(n).astype(param),
        )
    sharded = repro.compile(weights, pattern="tw", sparsity=0.6, granularity=g,
                            dtype=np.dtype(dtype),
                            placement=Placement("layer_sharded", (V100, T4)))
    x = _activations(seed, m, dims[0], "float32")

    for model in (single, sharded):
        model.layers = [dataclasses.replace(l, epilogue=s) for l, s in zip(model.layers, specs)]
        want = x.astype(model.activation_dtype)
        rows = None
        for l in model.layers:  # full width, full epilogue vectors
            y = tw_gemm(want, l.tw, rows=rows)
            want = apply_epilogue(y, l.epilogue, residual=want) if l.epilogue else y
            rows = live_rows(l.tw, l.epilogue)
        steps = model.wave_steps(0)
        for step, nxt in zip(steps, steps[1:]):
            if nxt.rows is None:
                assert step.cols is None
            else:
                np.testing.assert_array_equal(step.cols, nxt.rows)
        assert steps[-1].cols is None
        if middle == "gelu_dead_bias" and live_columns(model.layers[1].tw).size < dims[2]:
            assert steps[1].cols is None  # gelu(bias) lands on a dead column

        got = model.run(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        for executor in ("inline", "threaded"):
            server = model.serve(executor=executor)
            try:
                server.submit(x)
                (res,) = server.flush()
            finally:
                server.close()
            assert res.status == "ok", res
            np.testing.assert_array_equal(res.output, got)
