"""Tests for the TW serving layer: compiled steps, micro-batching, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kernels.masked import FEATURE_MAJOR_MIN_ROWS, tw_gemm_reference
from repro.runtime import ServerConfig, ServerStats, TWModelServer


def _weights(rng, n_layers=2, k=24):
    return [rng.standard_normal((k, k)) for _ in range(n_layers)]


def _model(weights, placement=None, dtype=np.float64):
    return repro.compile(weights, sparsity=0.5, granularity=8,
                         placement=placement, dtype=dtype)


def _server(rng, n_layers=2, k=24, *, dtype=np.float64, **cfg_kw):
    model = _model(_weights(rng, n_layers, k), dtype=dtype)
    return model.serve(ServerConfig(**cfg_kw))


class TestCaches:
    def test_second_request_skips_construction(self):
        rng = np.random.default_rng(0)
        server = _server(rng, n_layers=3)
        server.serve(rng.standard_normal((4, 24)))
        cache = server.stats_record()["cache"]
        assert cache["format_hits"] == cache["plan_hits"] == 3
        server.serve(rng.standard_normal((4, 24)))
        # the whole point of the serving layer: every wave step reads the
        # compiled format and plan, nothing is built per request
        cache = server.stats_record()["cache"]
        assert cache["format_misses"] == cache["plan_misses"] == 0
        assert cache["format_hits"] == cache["plan_hits"] == 6
        assert cache["format_hit_rate"] == cache["plan_hit_rate"] == 1.0


class TestServing:
    def test_matches_reference_per_layer_chain(self):
        rng = np.random.default_rng(3)
        model = _model(_weights(rng, n_layers=2, k=24))
        server = model.serve()
        x = rng.standard_normal((5, 24))
        got = server.serve(x).output
        a = x
        for layer in model.layers:
            a = tw_gemm_reference(a, layer.tw)
        np.testing.assert_allclose(got, a, rtol=0, atol=1e-10)

    def test_microbatch_outputs_match_individual_serves(self):
        rng = np.random.default_rng(4)
        model = _model(_weights(rng, n_layers=2))
        server = model.serve()
        reqs = [rng.standard_normal((int(rng.integers(1, 6)), 24)) for _ in range(5)]
        expected = [model.run(r) for r in reqs]
        ids = [server.submit(r) for r in reqs]
        served = server.flush()
        assert [s.request_id for s in served] == ids
        assert server.stats.batches == 1
        assert server.stats.gemms == 2  # one GEMM per layer for the wave
        for s, want in zip(served, expected):
            # same values up to BLAS blocking (the GEMM's row-blocking
            # differs between the stacked wave and a lone request)
            np.testing.assert_allclose(s.output, want, rtol=0, atol=1e-10)

    def test_max_wave_rows_splits_waves(self):
        rng = np.random.default_rng(5)
        server = _server(rng, n_layers=1, max_wave_rows=8)
        for _ in range(5):
            server.submit(rng.standard_normal((4, 24)))
        served = server.flush()
        assert len(served) == 5
        assert server.stats.batches == 3  # 8-row cap -> 2+2+1 requests
        assert {s.batch_id for s in served} == {0, 1, 2}

    def test_oversized_single_request_still_served(self):
        rng = np.random.default_rng(6)
        server = _server(rng, n_layers=1, max_wave_rows=4)
        req = server.serve(rng.standard_normal((9, 24)))
        assert req.rows == 9

    def test_float32_serving_dtype(self):
        rng = np.random.default_rng(7)
        server = _server(rng, dtype=np.float32)
        out = server.serve(rng.standard_normal((3, 24))).output
        assert out.dtype == np.float32

    def test_stats_and_latency(self):
        rng = np.random.default_rng(8)
        server = _server(rng)
        server.submit(rng.standard_normal((2, 24)))
        server.submit(rng.standard_normal((3, 24)))
        server.flush()
        st = server.stats
        assert st.requests == 2
        assert st.rows == 5
        assert st.busy_s > 0
        assert st.rows_per_s() > 0
        assert st.requests_per_s() > 0
        assert st.mean_latency_s() > 0
        assert len(st.latencies_s) == 2
        assert st.steps == 2  # one wave, one compiled step per layer

    def test_validation(self):
        rng = np.random.default_rng(9)
        server = _server(rng, n_layers=1, k=24)
        with pytest.raises(ValueError):
            server.submit(rng.standard_normal((2, 7)))  # wrong K
        unchained = _model([rng.standard_normal((24, 24)),
                            rng.standard_normal((16, 16))])
        with pytest.raises(ValueError, match="does not chain"):
            TWModelServer(unchained)
        with pytest.raises(ValueError):
            ServerConfig(max_wave_rows=0)
        with pytest.raises(TypeError):
            ServerConfig(executor=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_rows": -1},
            {"max_queue_rows": 1.5},
            {"max_retries": -1},
            {"max_wave_rows": 0},
            {"max_wave_rows": -1},
            {"max_wave_rows": 2.5},
            {"retry_backoff_s": -0.1},
            {"retry_backoff_s": float("nan")},
            {"retry_backoff_s": float("inf")},
        ],
    )
    def test_config_numeric_validation(self, kwargs):
        # bad numerics must fail at construction with a clear ValueError,
        # not deep inside the wave execution path
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_config_placement_type_checked(self):
        # placement is the compiled model's, never a serving knob
        with pytest.raises(TypeError):
            ServerConfig(placement="layer_sharded")
        assert not hasattr(ServerConfig(), "placement")

    def test_config_executor_validated(self):
        assert ServerConfig(executor="threads").executor == "threaded"  # alias
        for unknown in ("gpu", "process", "mp"):
            with pytest.raises(KeyError, match="unknown executor"):
                ServerConfig(executor=unknown)
        with pytest.raises(TypeError):
            ServerConfig(executor=42)
        with pytest.raises(ValueError):
            ServerConfig(workers=0)

    def test_wall_time_and_parallel_efficiency_tracked(self):
        rng = np.random.default_rng(30)
        server = _server(rng)
        server.serve(rng.standard_normal((2, 24)))
        st = server.stats
        assert st.wall_time_s > 0
        assert st.measured_speedup() > 0
        assert 0 < st.parallel_efficiency() <= 1.5  # inline ~= serial
        assert ServerStats().parallel_efficiency() == 0.0
        assert ServerStats().measured_speedup() == 0.0

    def test_flush_empty_queue(self):
        server = _server(np.random.default_rng(10))
        assert server.flush() == []


class TestPlacementServing:
    def _chained(self, rng, n_layers=4, k=24):
        return _weights(rng, n_layers, k)

    def _build(self, weights, placement=None, **cfg_kw):
        return _model(weights, placement=placement).serve(ServerConfig(**cfg_kw))

    def test_layer_sharded_matches_single(self):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(20)
        layers = self._chained(rng)
        reqs = [rng.standard_normal((3, 24)) for _ in range(4)]
        single = self._build(layers)
        sharded = self._build(layers, Placement("layer_sharded", (V100, T4)))
        for r in reqs:
            got = sharded.serve(r).output
            want = single.serve(r).output
            np.testing.assert_array_equal(got, want)  # bit-identical
        assert set(sharded.model.shard_layout()) == {"Tesla V100-SXM2#0", "Tesla T4#1"}
        assert set(sharded.stats.device_gemms) == {"Tesla V100-SXM2#0", "Tesla T4#1"}
        assert sharded.stats.device_gemms["Tesla V100-SXM2#0"] == 8  # 2 layers x 4 waves
        assert sharded.stats.critical_path_s() <= sharded.stats.busy_s

    def test_replicated_round_robins_waves(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(21)
        layers = self._chained(rng, n_layers=2)
        single = self._build(layers)
        repl = self._build(
            layers, Placement("replicated", (V100, V100)), max_wave_rows=4
        )
        reqs = [rng.standard_normal((4, 24)) for _ in range(4)]
        for r in reqs:
            repl.submit(r)
        served = repl.flush()
        assert repl.stats.batches == 4  # 4-row cap -> one wave per request
        for s, r in zip(served, reqs):
            np.testing.assert_array_equal(s.output, single.serve(r).output)
        # waves alternate across the two replicas of the same device type;
        # slots keep them distinct in the stats
        assert repl.stats.device_gemms["Tesla V100-SXM2#0"] == 4
        assert repl.stats.device_gemms["Tesla V100-SXM2#1"] == 4

    def test_executor_resolved_from_config(self):
        from repro.runtime.executor import InlineExecutor, ThreadedExecutor

        model = _model(self._chained(np.random.default_rng(22), n_layers=1))
        assert isinstance(TWModelServer(model).executor, InlineExecutor)
        threaded = TWModelServer(model, ServerConfig(executor="threaded", workers=3))
        assert isinstance(threaded.executor, ThreadedExecutor)
        assert threaded.executor.workers == 3


class TestExecutorInvariance:
    """The ISSUE 4 contract: ``threaded`` is bit-identical to ``inline``
    for every placement, including the degenerate shapes — and the wave →
    device round-robin is deterministic across executors."""

    def _chained(self, rng, n_layers, k=24):
        return _weights(rng, n_layers, k)

    def _serve_all(self, layers, reqs, placement=None, **cfg_kw):
        server = _model(layers, placement=placement).serve(ServerConfig(**cfg_kw))
        for r in reqs:
            server.submit(r)
        return server, server.flush()

    def _assert_executors_agree(self, layers, reqs, **cfg_kw):
        # workers is a threaded-only knob; inline now *rejects* it instead
        # of silently ignoring it, so only the threaded build gets it
        inline_kw = {k: v for k, v in cfg_kw.items() if k != "workers"}
        inline_server, inline_out = self._serve_all(layers, reqs, **inline_kw)
        threaded_server, threaded_out = self._serve_all(
            layers, reqs, executor="threaded", **cfg_kw
        )
        assert [s.request_id for s in threaded_out] == [
            s.request_id for s in inline_out
        ]
        for got, want in zip(threaded_out, inline_out):
            np.testing.assert_array_equal(got.output, want.output)  # bit-identical
            assert got.batch_id == want.batch_id
        # wave -> device round-robin determinism: identical work placement
        assert threaded_server.stats.device_gemms == inline_server.stats.device_gemms
        assert threaded_server.stats.gemms == inline_server.stats.gemms
        return inline_server, threaded_server

    def test_single_device(self):
        rng = np.random.default_rng(40)
        layers = self._chained(rng, 3)
        reqs = [rng.standard_normal((3, 24)) for _ in range(4)]
        self._assert_executors_agree(layers, reqs)

    def test_layer_sharded_two_devices(self):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(41)
        layers = self._chained(rng, 4)
        reqs = [rng.standard_normal((2, 24)) for _ in range(5)]
        self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=4,
            placement=Placement("layer_sharded", (V100, T4)),
        )

    def test_layer_sharded_more_devices_than_layers(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(42)
        layers = self._chained(rng, 2)  # 2 layers over 4 devices
        reqs = [rng.standard_normal((2, 24)) for _ in range(3)]
        inline_server, _ = self._assert_executors_agree(
            layers, reqs,
            placement=Placement("layer_sharded", (V100,) * 4),
        )
        # only the first two slots ever receive work
        assert set(inline_server.stats.device_gemms) == {
            "Tesla V100-SXM2#0", "Tesla V100-SXM2#1",
        }

    def test_single_device_replicated(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(43)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(4)]
        inline_server, _ = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=2,
            placement=Placement("replicated", (V100,)),
        )
        # one replica: every wave lands on slot 0
        assert set(inline_server.stats.device_gemms) == {"Tesla V100-SXM2#0"}

    def test_replicated_wave_round_robin_determinism(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(44)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(6)]
        inline_server, threaded_server = self._assert_executors_agree(
            layers, reqs,
            max_wave_rows=2,  # one wave per request -> 6 waves, 3 per slot
            placement=Placement("replicated", (V100, V100)),
        )
        for server in (inline_server, threaded_server):
            assert server.stats.device_gemms == {
                "Tesla V100-SXM2#0": 6, "Tesla V100-SXM2#1": 6,
            }

    def test_threaded_respects_worker_cap(self):
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(45)
        layers = self._chained(rng, 4)
        reqs = [rng.standard_normal((2, 24)) for _ in range(4)]
        self._assert_executors_agree(
            layers, reqs,
            workers=1,  # folds both shards onto one worker; results identical
            placement=Placement("layer_sharded", (V100, V100)),
        )

    def test_failed_wave_leaves_tail_queued_inline(self):
        """A wave that errors mid-flush must not swallow the queue: inline
        stops pulling at the failed wave, the unconsumed tail stays queued
        for the flush's next pass, and the poison request ends alone as
        ``failed`` while the requests before and after it are served."""
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(47)
        model = _model(self._chained(rng, 1))
        server = model.serve(ServerConfig(max_wave_rows=2))
        good_before = rng.standard_normal((2, 24))
        good_after = rng.standard_normal((2, 24))
        before = server.submit(good_before)
        # a poison wave: bypass submit()'s K check so tw_gemm raises
        server._pending.append(
            _Pending(rid=99, x=rng.standard_normal((2, 7)), submitted_at=0.0)
        )
        after = server.submit(good_after)
        by_id = {s.request_id: s for s in server.flush()}
        assert set(by_id) == {before, 99, after}
        assert by_id[99].status == "failed"
        assert isinstance(by_id[99].error, ValueError)
        assert by_id[before].status == by_id[after].status == "ok"
        np.testing.assert_array_equal(by_id[before].output, model.run(good_before))
        np.testing.assert_array_equal(by_id[after].output, model.run(good_after))
        assert not server._pending
        # the failed wave is counted: retried to its budget, then poisoned;
        # only the two good waves count as served batches
        assert server.stats.retries == server.config.max_retries
        assert server.stats.poisoned == 1
        assert server.stats.batches == 2
        assert server.stats.requests == 2
        assert server.stats.wall_time_s > 0

    def test_failed_wave_keeps_threaded_server_usable(self):
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(48)
        model = _model(self._chained(rng, 1))
        server = model.serve(ServerConfig(max_wave_rows=2, executor="threaded"))
        try:
            server._pending.append(
                _Pending(rid=99, x=rng.standard_normal((2, 7)), submitted_at=0.0)
            )
            x = rng.standard_normal((2, 24))
            mate = server.submit(x)
            by_id = {s.request_id: s for s in server.flush()}
            assert by_id[99].status == "failed"
            assert by_id[mate].status == "ok"
            np.testing.assert_array_equal(by_id[mate].output, model.run(x))
            assert server.stats.poisoned == 1
            assert server.stats.retries == server.config.max_retries
            out = server.serve(rng.standard_normal((2, 24)))
            assert out.status == "ok" and out.rows == 2  # the server survives
        finally:
            server.close()

    def test_graceful_flush_isolates_poison_request(self):
        """Default flush never raises: the poison request terminates alone
        with status='failed' while its wave-mates are served bit-identical
        to a fault-free run."""
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(49)
        model = _model(self._chained(rng, 1))
        reqs = [rng.standard_normal((2, 24)) for _ in range(3)]
        server = model.serve(ServerConfig(max_wave_rows=64, max_retries=1))
        server.submit(reqs[0])
        server.submit(reqs[1])
        server._pending.append(
            _Pending(rid=999, x=rng.standard_normal((2, 7)), submitted_at=0.0)
        )
        server.submit(reqs[2])
        served = server.flush()
        by_id = {s.request_id: s for s in served}
        assert len(served) == 4  # every request reached a terminal status
        assert by_id[999].status == "failed"
        assert isinstance(by_id[999].error, ValueError)
        assert server.stats.poisoned == 1
        assert server.stats.retries >= 1
        for rid, x in zip(sorted(r for r in by_id if r != 999), reqs):
            assert by_id[rid].status == "ok"
            np.testing.assert_array_equal(by_id[rid].output, model.run(x))

    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    def test_mid_stream_failure_matches_fault_free_inline(self, executor):
        """ISSUE 6 satellite: mid-stream step failure across executors ×
        all placements — surviving outputs stay bit-identical to a
        fault-free inline run and no request is silently lost."""
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement
        from repro.runtime.server import _Pending

        rng = np.random.default_rng(50)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(4)]
        placements = [
            None,
            Placement("replicated", (V100, T4)),
            Placement("layer_sharded", (V100, T4)),
        ]
        # fault-free oracle
        oracle = _model(layers)
        want = {i: oracle.run(x) for i, x in enumerate(reqs)}
        for placement in placements:
            server = _model(layers, placement=placement).serve(ServerConfig(
                max_wave_rows=2, executor=executor, max_retries=1,
            ))
            rids = [server.submit(x) for x in reqs[:2]]
            # poison injected mid-stream, then more good requests
            server._pending.append(
                _Pending(rid=777, x=rng.standard_normal((2, 7)), submitted_at=0.0)
            )
            rids += [server.submit(x) for x in reqs[2:]]
            served = server.flush()
            by_id = {s.request_id: s for s in served}
            assert set(by_id) == set(rids) | {777}  # none silently lost
            assert by_id[777].status == "failed"
            for rid, want_rid in zip(rids, sorted(want)):
                assert by_id[rid].status == "ok"
                np.testing.assert_array_equal(
                    by_id[rid].output, want[want_rid]
                )

    def test_mid_stream_submissions_keep_round_robin_phase(self):
        """Waves keep their global index across flushes: a threaded server
        flushed twice must place work exactly like an inline one."""
        from repro.gpu.device import V100
        from repro.runtime.placement import Placement

        rng = np.random.default_rng(46)
        layers = self._chained(rng, 2)
        reqs = [rng.standard_normal((2, 24)) for _ in range(5)]

        model = _model(layers, placement=Placement("replicated", (V100, V100)))
        outs = {}
        for executor in ("inline", "threaded"):
            server = model.serve(ServerConfig(executor=executor, max_wave_rows=2))
            served = []
            for i, r in enumerate(reqs):
                server.submit(r)
                if i % 2 == 1:
                    served.extend(server.flush())
            served.extend(server.flush())
            outs[executor] = (served, dict(server.stats.device_gemms))
        inline_served, inline_gemms = outs["inline"]
        threaded_served, threaded_gemms = outs["threaded"]
        assert threaded_gemms == inline_gemms
        for got, want in zip(threaded_served, inline_served):
            np.testing.assert_array_equal(got.output, want.output)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_sharded_segments_keep_the_live_rows_of_a_bert_stack(self, blocks):
        """Each step's ``rows`` is fixed when the wave is built, so a
        ``layer_sharded`` wave whose second shard starts mid-chain reduces
        over exactly the ``K`` the unsplit chain does.  Continuous float32
        data: a shard that restarted with every row would sum in a
        different order and change the bits.  One block puts the shard
        boundary after ``attn-v``, whose dead columns the boundary step
        must still skip; two blocks put it after ``ffn-2``."""
        import repro
        from repro.api import demo_layer_stack
        from repro.gpu.device import V100
        from repro.kernels.masked import live_rows
        from repro.runtime.placement import Placement

        weights, names = demo_layer_stack("bert", scale=1, blocks=blocks, seed=3,
                                          dtype=np.float32)
        placement = Placement("layer_sharded", (V100, V100))
        model = repro.compile(weights, pattern="tw", sparsity=0.75, granularity=64,
                              dtype=np.float32, names=names, placement=placement)
        rng = np.random.default_rng(4)
        reqs = [rng.standard_normal((m, weights[0].shape[0])).astype(np.float32)
                for m in (16, 16, 5, 16)]
        outs = {}
        for executor in ("inline", "threaded"):
            server = model.serve(ServerConfig(executor=executor, max_wave_rows=16))
            try:
                for r in reqs:
                    server.submit(r)
                if executor == "inline":
                    steps = server._wave_task(list(server._pending)[:1]).steps
                outs[executor] = [s.output for s in server.flush()]
            finally:
                server.close()
        half = 3 * blocks
        assert [s.slot for s in steps] == [0] * half + [1] * half
        assert steps[0].rows is None
        for prev, step in zip(steps, steps[1:]):
            want = live_rows(prev.tw, prev.epilogue)
            assert (step.rows is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(step.rows, want)
        if blocks == 1:
            assert steps[half].rows is not None
        for got, want, x in zip(outs["threaded"], outs["inline"], reqs):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, model.run(x))


@pytest.mark.parametrize("executor", ["inline", "threaded"])
@pytest.mark.parametrize("epilogue", [None, "bias_gelu"])
@pytest.mark.parametrize("pattern", ["tw", "dense", "ew", "nm"])
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 2 * FEATURE_MAJOR_MIN_ROWS),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=4, deadline=None)
def test_every_compiled_pattern_serves_bit_identical_to_run(
    pattern, epilogue, executor, seed, rows, dtype
):
    """The server executes the model's own wave steps for every compiled
    pattern: TW layers through ``tw_gemm``, dense and mask-only layers
    through their mask-expanded weight.  A served request is bit-identical
    to ``run()`` on the same rows, on both sides of the feature-major
    cut-off."""
    rng = np.random.default_rng(seed)
    dims = (16, 24, 16, 16)
    weights = [rng.standard_normal((k, n)).astype(dtype) for k, n in zip(dims, dims[1:])]
    model = repro.compile(weights, pattern=pattern, sparsity=0.5, granularity=8,
                          dtype=dtype, epilogue=epilogue)
    x = rng.standard_normal((rows, dims[0]))
    with model.serve(executor=executor) as server:
        served = server.serve(x)
    assert served.status == "ok", served.error
    np.testing.assert_array_equal(served.output, model.run(x))
