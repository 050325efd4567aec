"""Tests of the benchmark's own machinery (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import socket
import threading
import time

import numpy as np
import pytest

from perfbench import common, loadgen, tracing
from perfbench.loadgen import LoadResult, Outcome


# ------------------------------------------------------------------ #
# generator schedule
# ------------------------------------------------------------------ #
def test_schedule_is_deterministic_per_seed():
    a = loadgen.poisson_schedule(300.0, 4.0, seed=7)
    b = loadgen.poisson_schedule(300.0, 4.0, seed=7)
    c = loadgen.poisson_schedule(300.0, 4.0, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[: min(len(a), len(c))], c[: min(len(a), len(c))])


def test_schedule_has_the_offered_rate_and_stays_in_the_window():
    t = loadgen.poisson_schedule(500.0, 20.0, seed=1)
    assert np.all(np.diff(t) > 0)
    assert 0 < t[0] and t[-1] < 20.0
    assert abs(len(t) / 20.0 - 500.0) < 500.0 * 0.05


def test_schedule_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        loadgen.poisson_schedule(0.0, 1.0, seed=1)


# ------------------------------------------------------------------ #
# lateness accounting
# ------------------------------------------------------------------ #
class FakeClock:
    """A clock that only moves when slept on, waking ``late`` seconds late."""

    def __init__(self, late: float) -> None:
        self.now = 100.0
        self.late = late

    def __call__(self) -> float:
        return self.now

    def sleep(self, dt: float) -> None:
        self.now += dt + self.late


class FakeConnection:
    """Answers 200 after ``service[i]`` seconds of fake time."""

    def __init__(self, clock: FakeClock, service: list[float]) -> None:
        self.clock, self.service, self.calls = clock, service, 0

    def post_tensor(self, body):
        self.clock.now += self.service[self.calls]
        self.calls += 1
        return 200, {"x-latency-ms": "1.0", "x-queue-wait-ms": "0.5"}, b""


def _open_loop(offsets, service, late, drain_s=10.0):
    clock = FakeClock(late)
    conn = FakeConnection(clock, service)
    return loadgen.open_loop([conn], np.asarray(offsets), lambda i: (b"", 1),
                             lambda i, body: True, drain_s=drain_s,
                             clock=clock, sleep=clock.sleep)


def test_lag_is_how_late_a_free_generator_woke():
    res = _open_loop([0.01, 0.02, 0.03], service=[0.0, 0.0, 0.0], late=0.002)
    assert res.lag_s == pytest.approx([0.002] * 3)
    # latency runs from the scheduled time, so the lateness is in it too
    assert [o.latency_s() for o in res.outcomes] == pytest.approx([0.002] * 3)


def test_a_request_queued_behind_a_slow_one_has_no_lag_but_full_latency():
    # the first request holds the only connection for 50 ms, past the
    # second's due time: the second is sent late without any sleep
    res = _open_loop([0.01, 0.02], service=[0.05, 0.0], late=0.0)
    assert res.lag_s == pytest.approx([0.0])
    first, second = res.outcomes
    assert first.latency_s() == pytest.approx(0.05)
    assert second.sent - second.scheduled == pytest.approx(0.04)
    assert second.latency_s() == pytest.approx(0.04)


def test_requests_past_the_drain_cutoff_are_dropped_not_attempted():
    res = _open_loop([0.0, 0.001, 0.002], service=[1.0, 0.0, 0.0], late=0.0, drain_s=0.5)
    assert res.attempted == 1 and res.dropped == 2


# ------------------------------------------------------------------ #
# error-rate denominator
# ------------------------------------------------------------------ #
def _closed_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_refused_requests_are_attempted_and_failed():
    conn = loadgen.Connection("127.0.0.1", _closed_port(), timeout_s=1.0)
    res = loadgen.open_loop([conn], np.array([0.0, 0.001, 0.002]), lambda i: (b"x", 1),
                            lambda i, body: True, drain_s=5.0)
    assert res.attempted == 3
    assert res.failed == 3
    assert loadgen.error_rate([res]) == 1.0
    assert all(math.isinf(x) for x in res.latencies_s())


def test_error_rate_denominator_includes_refused():
    ok = [Outcome(i, 0.0, 0.0, 0.001, 200) for i in range(3)]
    refused = [Outcome(3, 0.0, 0.0, 0.0, 0)]
    res = LoadResult(outcomes=ok + refused)
    assert res.attempted == 4
    assert loadgen.error_rate([res, LoadResult(outcomes=ok)]) == pytest.approx(1 / 7)


def test_chunk_rates_of_evenly_spaced_replies():
    # 40 ok replies of 3 rows every 50 ms (20/s) over 2 s, plus a refused one
    ok = [Outcome(i, 0.0, 0.0, 0.05 * (i + 1), 200, rows=3) for i in range(40)]
    res = LoadResult(start=0.0, end=2.0, outcomes=ok + [Outcome(40, 0.0, 0.0, 0.5, 0, rows=9)])
    rates = res.chunk_rates()
    assert len(rates) == 1  # k = 20 replies a chunk; the last chunk is partial
    assert rates[0] == pytest.approx((20.0, 60.0))


def test_chunk_rates_median_ignores_one_stalled_chunk():
    done, t = [], 0.0
    for i in range(1000):
        t += 0.5 if i == 300 else 0.01  # one 500 ms stall in 10 s
        done.append(t)
    res = LoadResult(start=0.0, end=done[-1],
                     outcomes=[Outcome(i, 0.0, 0.0, d, 200, rows=1) for i, d in enumerate(done)])
    rates = sorted(r for r, _ in res.chunk_rates())
    assert rates[len(rates) // 2] == pytest.approx(100.0)
    assert rates[0] < 70.0  # the chunk holding the stall


def test_a_failed_request_misses_any_latency_limit():
    lat = [0.001] * 99 + [math.inf]
    assert math.isinf(common.percentile(lat, 100))
    assert common.percentile(lat, 99) == 0.001
    assert math.isinf(common.percentile([0.001] * 98 + [math.inf] * 2, 99))


def test_nearest_rank_p99_leaves_ten_samples_beyond_it_at_1000():
    values = list(range(1000))
    p99 = common.percentile(values, 99)
    assert sum(v > p99 for v in values) == 10


# ------------------------------------------------------------------ #
# self-time arithmetic
# ------------------------------------------------------------------ #
def test_merged_length_unions_and_clips():
    assert tracing.merged_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.merged_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing.merged_length([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, None, None, 0, None),
        ("child", 1.0, 3.0, 0, None, 0, None),
        ("child", 2.0, 5.0, 0, None, 0, None),
        ("grandchild", 2.5, 3.5, 2, None, 0, None),
        ("child", 7.0, 8.0, 0, None, 0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])
    agg = tracing.summarize(spans)
    assert agg["child"]["calls"] == 3
    assert agg["child"]["self_s"] == pytest.approx(5.0)
    assert agg["parent"]["span_s"] == pytest.approx(10.0)


def test_tracer_records_nesting_per_thread():
    tracer = tracing.Tracer()

    def inner(x):
        time.sleep(0.002)
        return x

    def outer(x):
        return tracer.span("inner", inner, x)

    def worker():
        tracer.span("outer", outer, 1)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    outers = [i for i, s in enumerate(spans) if s[0] == "outer"]
    inners = [s for s in spans if s[0] == "inner"]
    assert sorted(s[3] for s in inners) == sorted(outers)
    for s, self_s in zip(spans, tracing.self_times(spans)):
        if s[0] == "outer":
            assert self_s < (s[2] - s[1]) / 2


class _Target:
    def method(self, x):
        return x + 1

    def submit(self):
        return 41

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_wrap_and_unwrap_module_method_and_classmethod():
    import types

    mod = types.ModuleType("fake_mod")
    mod.fn = lambda a, b: a.shape[0] + b
    tracer = tracing.Tracer()
    tracer.wrap(mod, "fn", "mod.fn", describe=lambda args: (args[0].shape[0], "w"))
    tracer.wrap(_Target, "method", "target.method")
    tracer.wrap(_Target, "build", "target.build")
    tracer.wrap(_Target, "submit", "target.submit", result_is_rid=True)
    try:
        assert mod.fn(np.zeros((3, 2)), 1) == 4
        assert _Target().method(1) == 2
        assert _Target.build(5) == (_Target, 5)
        assert _Target().submit() == 41
    finally:
        tracer.unwrap_all()
    names = ["mod.fn", "target.method", "target.build", "target.submit"]
    assert [s[0] for s in tracer.spans] == names
    assert tracer.spans[0][5:] == (3, "w")
    assert [s[4] for s in tracer.spans] == [None, None, None, 41]
    assert not hasattr(mod.fn, "__wrapped__") and mod.fn(np.zeros((1, 1)), 0) == 1
    assert "build" in _Target.__dict__ and isinstance(_Target.__dict__["build"], classmethod)
    assert len(tracer.spans) == 4  # unwrapped: no new spans


# ------------------------------------------------------------------ #
# output check
# ------------------------------------------------------------------ #
def test_row_threshold_check_accepts_rounding_and_rejects_errors():
    common.import_repro()
    rng = np.random.default_rng(0)
    want = rng.standard_normal((4, 64)) * 1e3
    want[0, 0] = 1e-6  # an element that cancelled to near zero
    got = (want * (1 + 1e-6)).astype(np.float32)
    assert common.matches(got, want)
    bad = got.copy()
    bad[2, 5] += 1.0 + 1e-2 * np.abs(want[2]).max()
    assert not common.matches(bad, want)
    assert not common.matches(got[:3], want)
    nan = got.copy()
    nan[0, 1] = np.nan
    assert not common.matches(nan, want)


def test_wire_frame_round_trip():
    from perfbench.run import decode_frame, encode_frame

    x = np.arange(12, dtype=np.float32).reshape(3, 4)
    np.testing.assert_array_equal(decode_frame(encode_frame(x)), x)
    assert decode_frame(encode_frame(x)[:-1]) is None
    assert decode_frame(b"xx") is None
