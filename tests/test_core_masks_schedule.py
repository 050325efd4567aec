"""Tests for mask algebra, EW global ranking and sparsity schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.masks import (
    global_topk_keep_masks,
    mask_sparsity,
    overall_sparsity,
    topk_keep_mask,
    tw_mask_from_tiles,
    validate_tw_mask,
)
from repro.core.schedule import (
    SCHEDULES,
    GradualSchedule,
    available_schedules,
    resolve_schedule,
)


class TestMaskBasics:
    def test_mask_sparsity(self):
        m = np.array([[True, False], [False, False]])
        assert mask_sparsity(m) == pytest.approx(0.75)

    def test_mask_sparsity_empty(self):
        assert mask_sparsity(np.zeros((0, 3), dtype=bool)) == 0.0

    def test_overall_sparsity_weighted(self):
        m1 = np.ones((2, 2), dtype=bool)   # 0% sparse, 4 elems
        m2 = np.zeros((4, 3), dtype=bool)  # 100% sparse, 12 elems
        assert overall_sparsity([m1, m2]) == pytest.approx(12 / 16)

    def test_overall_sparsity_empty_list(self):
        assert overall_sparsity([]) == 0.0


class TestTopK:
    def test_exact_count(self):
        rng = np.random.default_rng(0)
        s = rng.random((10, 10))
        m = topk_keep_mask(s, 0.73)
        assert m.sum() == round(0.27 * 100)

    def test_keeps_largest(self):
        s = np.array([[1.0, 5.0, 3.0, 2.0]])
        m = topk_keep_mask(s, 0.5)
        np.testing.assert_array_equal(m, [[False, True, True, False]])

    def test_extremes(self):
        s = np.ones((3, 3))
        assert topk_keep_mask(s, 0.0).all()
        assert not topk_keep_mask(s, 1.0).any()

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            topk_keep_mask(np.ones((2, 2)), 1.5)

    def test_global_ranking_across_layers(self):
        # layer 0 has uniformly higher scores; at 50% sparsity all survivors
        # should come from layer 0
        s0 = np.full((4, 4), 10.0)
        s1 = np.full((4, 4), 1.0)
        m0, m1 = global_topk_keep_masks([s0, s1], 0.5)
        assert m0.all()
        assert not m1.any()

    def test_global_ranking_exact_budget(self):
        rng = np.random.default_rng(1)
        scores = [rng.random((5, 7)), rng.random((3, 11))]
        masks = global_topk_keep_masks(scores, 0.6)
        total = 5 * 7 + 3 * 11
        kept = sum(int(m.sum()) for m in masks)
        assert kept == round(0.4 * total)

    def test_global_ranking_produces_uneven_layer_sparsity(self):
        """The Fig. 5 phenomenon: global EW ranking yields uneven
        per-layer sparsity when layers have different score scales."""
        rng = np.random.default_rng(2)
        scores = [rng.random((16, 16)) * (i + 1) for i in range(4)]
        masks = global_topk_keep_masks(scores, 0.75)
        per_layer = [mask_sparsity(m) for m in masks]
        assert max(per_layer) - min(per_layer) > 0.2


class TestTWMaskFactoring:
    def test_build_and_validate_roundtrip(self):
        k, n, g = 6, 8, 4
        col_keep = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
        from repro.formats.tiled import TiledTWMatrix

        groups = TiledTWMatrix.column_groups(col_keep, g)
        row_masks = [
            np.array([1, 1, 0, 1, 0, 1], dtype=bool),
            np.array([0, 1, 1, 1, 1, 0], dtype=bool),
        ]
        mask = tw_mask_from_tiles((k, n), groups, row_masks)
        ck, rms = validate_tw_mask(mask, g)
        np.testing.assert_array_equal(ck, col_keep)
        for a, b in zip(rms, row_masks):
            np.testing.assert_array_equal(a, b)

    def test_non_tw_mask_rejected(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True  # rows differ across the tile -> not TW with G=2
        with pytest.raises(ValueError):
            validate_tw_mask(mask, 2)

    def test_ew_random_mask_rejected(self):
        rng = np.random.default_rng(3)
        mask = rng.random((16, 16)) < 0.5
        with pytest.raises(ValueError):
            validate_tw_mask(mask, 4)

    def test_all_true_mask_is_tw(self):
        mask = np.ones((4, 8), dtype=bool)
        ck, rms = validate_tw_mask(mask, 4)
        assert ck.all()
        assert all(m.all() for m in rms)

    def test_all_false_mask_is_tw(self):
        mask = np.zeros((4, 8), dtype=bool)
        ck, rms = validate_tw_mask(mask, 4)
        assert not ck.any()
        assert rms == []

    def test_group_row_mask_count_mismatch(self):
        with pytest.raises(ValueError):
            tw_mask_from_tiles((4, 4), [np.array([0, 1])], [])

    def test_bad_row_mask_length(self):
        with pytest.raises(ValueError):
            tw_mask_from_tiles(
                (4, 4), [np.array([0, 1])], [np.ones(3, dtype=bool)]
            )


class TestSchedule:
    def test_reaches_target_exactly(self):
        for law in ("linear", "cubic", "geometric"):
            sched = GradualSchedule(target=0.75, n_stages=5, law=law)
            stages = sched.stages()
            assert stages[-1] == pytest.approx(0.75)

    def test_strictly_increasing(self):
        for law in ("linear", "cubic", "geometric"):
            stages = GradualSchedule(target=0.9, n_stages=6, law=law).stages()
            assert all(b > a for a, b in zip(stages, stages[1:]))

    def test_single_stage(self):
        assert GradualSchedule(target=0.5, n_stages=1).stages() == [0.5]

    def test_zero_target(self):
        assert GradualSchedule(target=0.0, n_stages=4).stages() == [0.0]

    def test_cubic_front_loads(self):
        lin = GradualSchedule(target=0.8, n_stages=4, law="linear").stages()
        cub = GradualSchedule(target=0.8, n_stages=4, law="cubic").stages()
        assert cub[0] > lin[0]  # cubic prunes more in early stages

    def test_geometric_between_linear_and_cubic(self):
        lin = GradualSchedule(target=0.8, n_stages=4, law="linear").stages()
        geo = GradualSchedule(target=0.8, n_stages=4, law="geometric").stages()
        cub = GradualSchedule(target=0.8, n_stages=4, law="cubic").stages()
        assert lin[0] < geo[0] < cub[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GradualSchedule(target=1.0)
        with pytest.raises(ValueError):
            GradualSchedule(target=-0.1)
        with pytest.raises(ValueError):
            GradualSchedule(target=0.5, n_stages=0)
        with pytest.raises(ValueError):
            GradualSchedule(target=0.5, law="polynomial")


class TestScheduleDegenerateCases:
    def test_start_equals_target_collapses_to_one_stage(self):
        # well-defined, not empty: one (re-)prune stage at the target
        for law in ("linear", "cubic", "geometric"):
            sched = GradualSchedule(target=0.5, n_stages=4, law=law, start=0.5)
            assert sched.stages() == [0.5]

    def test_start_above_target_rejected(self):
        with pytest.raises(ValueError, match="exceeds target"):
            GradualSchedule(target=0.3, start=0.5)

    def test_start_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="start sparsity"):
            GradualSchedule(target=0.5, start=-0.1)
        with pytest.raises(ValueError, match="start sparsity"):
            GradualSchedule(target=0.5, start=1.0)

    def test_nonzero_start_interpolates(self):
        stages = GradualSchedule(
            target=0.8, n_stages=4, law="linear", start=0.4
        ).stages()
        assert stages == pytest.approx([0.5, 0.6, 0.7, 0.8])
        assert all(s > 0.4 for s in stages)

    def test_zero_start_is_historical_behavior(self):
        for law in ("linear", "cubic", "geometric"):
            explicit = GradualSchedule(target=0.77, n_stages=6, law=law, start=0.0)
            default = GradualSchedule(target=0.77, n_stages=6, law=law)
            assert explicit.stages() == default.stages()


class TestScheduleRegistry:
    def test_names(self):
        assert available_schedules() == ["gradual", "oneshot"]

    def test_gradual_round_trip(self):
        sched = SCHEDULES.create("gradual", target=0.75, n_stages=3, law="linear")
        assert isinstance(sched, GradualSchedule)
        assert sched.stages() == pytest.approx([0.25, 0.5, 0.75])

    def test_oneshot_is_single_stage(self):
        sched = SCHEDULES.create("oneshot", target=0.6)
        assert sched.stages() == [0.6]
        assert SCHEDULES.create("oneshot", target=0.6, n_stages=1).stages() == [0.6]

    def test_oneshot_rejects_conflicting_knobs(self):
        # no-silent-drop contract: a multi-stage request on the
        # single-stage schedule is an error, not an ignored kwarg
        with pytest.raises(ValueError, match="single-stage by definition"):
            SCHEDULES.create("oneshot", target=0.6, n_stages=4)
        with pytest.raises(ValueError, match="single-stage by definition"):
            SCHEDULES.create("oneshot", target=0.6, law="linear")

    def test_aliases_canonicalise(self):
        assert SCHEDULES.canonical("gradually_increase") == "gradual"
        assert SCHEDULES.canonical("one_shot") == "oneshot"

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown schedule 'warmup'.*gradual.*oneshot"):
            SCHEDULES.canonical("warmup")

    def test_resolve_forms(self):
        inst = GradualSchedule(target=0.5, n_stages=2)
        assert resolve_schedule(inst, target=0.9) is inst
        assert resolve_schedule(None, target=0.5).target == 0.5
        sched = resolve_schedule("gradual", target=0.5, n_stages=None, law="linear")
        assert sched.law == "linear" and sched.n_stages == 4  # None dropped
        with pytest.raises(TypeError):
            resolve_schedule(42, target=0.5)


@given(
    st.floats(0.0, 0.99),
    st.integers(1, 10),
    st.sampled_from(["linear", "cubic", "geometric"]),
)
@settings(max_examples=60, deadline=None)
def test_schedule_property(target, n_stages, law):
    stages = GradualSchedule(target=target, n_stages=n_stages, law=law).stages()
    assert stages[-1] == pytest.approx(target)
    assert all(0.0 <= s <= target + 1e-12 for s in stages)
    assert all(b > a for a, b in zip(stages, stages[1:]))


@given(st.integers(1, 12), st.integers(1, 12), st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_topk_property(k, n, sparsity, seed):
    rng = np.random.default_rng(seed)
    s = rng.random((k, n))
    m = topk_keep_mask(s, sparsity)
    # the documented count, round((1 - sparsity) * size); grouping k * n first
    # matters, since ((1 - s) * k) * n can round to the other side of .5
    assert int(m.sum()) == round((1 - sparsity) * (k * n))
    if 0 < m.sum() < m.size:
        assert s[m].min() >= s[~m].max() - 1e-12  # kept scores dominate
