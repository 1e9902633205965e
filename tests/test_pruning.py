import dataclasses

import numpy as np
import pytest

from deltaq.network import (LayerSpec, NetworkSpec, WeightSet,
                            build_scaled_dqn, init_weights)
from deltaq.pruning import (PrunableWeights, check_scope, prune_step,
                            report_sparsity, rewind, schedule_fraction)


def dense_only_spec(sizes):
    layers = []
    for i in range(len(sizes) - 1):
        act = "identity" if i == len(sizes) - 2 else "relu"
        layers.append(LayerSpec("dense", in_size=sizes[i], out_size=sizes[i + 1],
                                activation=act))
    return NetworkSpec(layers=tuple(layers), input_shape=(1, 1, sizes[0]),
                       n_output=sizes[-1])


class TestSchedule:
    def test_table_values(self):
        assert schedule_fraction(0.2, 3) == pytest.approx(0.488)
        assert schedule_fraction(0.2, 0) == 0.0

    def test_i6_follows_formula(self):
        # direct evaluation; the published 0.730 rounding is a typo
        assert schedule_fraction(0.2, 6) == pytest.approx(0.737856)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            schedule_fraction(0.0, 1)
        with pytest.raises(ValueError):
            schedule_fraction(1.0, 1)
        with pytest.raises(ValueError):
            schedule_fraction(0.2, -1)

    @pytest.mark.parametrize("r,i,match", [
        (0.2, 1.5, "iteration"), (0.2, True, "iteration"), ("0.2", 1, "rate"),
    ])
    def test_rate_and_iteration_must_be_numbers(self, r, i, match):
        # a bool is an int, and 1.5 iterations is no point of the schedule
        with pytest.raises(ValueError, match=match):
            schedule_fraction(r, i)


@pytest.mark.parametrize("scope", [(True,), (0, 1.0), [0], "0"])
def test_check_scope_rejects_non_integer_indices(scope):
    # True would otherwise pass as layer 1
    with pytest.raises(ValueError, match="scope"):
        check_scope(scope, 3)


def make_prunable(rng, sizes=(8, 12, 4), rate=0.2, scope=None):
    spec = dense_only_spec(list(sizes))
    w = init_weights(spec, rng)
    if scope is None:
        scope = tuple(range(len(spec.layers)))
    return PrunableWeights.create(spec, w, rate=rate, scope=scope)


BAD_SCHEDULES = {
    "rate-above-one": {"rate": 5},
    "rate-bool": {"rate": True},
    "iteration-negative": {"iteration": -2},
    "iteration-fractional": {"iteration": 1.5},
    "scope-out-of-range": {"scope": (0, 0, 9)},
    "scope-bool": {"scope": (True,)},
}


class TestConstruction:
    """Every PrunableWeights checks its own schedule and scope, however it
    is built."""

    @pytest.mark.parametrize("case", sorted(BAD_SCHEDULES))
    def test_direct_construction_rejected(self, case):
        spec = dense_only_spec([8, 12, 4])
        w = init_weights(spec, np.random.default_rng(2))
        fields = dict(spec=spec, live=w.copy(),
                      masks=[np.ones(l.weight_shape(), dtype=bool)
                             for l in spec.layers],
                      initial=w.copy(), rate=0.2, iteration=0, scope=(0,))
        PrunableWeights(**fields)
        with pytest.raises(ValueError, match=case.split("-")[0]):
            PrunableWeights(**{**fields, **BAD_SCHEDULES[case]})

    @pytest.mark.parametrize("case", sorted(BAD_SCHEDULES))
    def test_replace_rejected(self, case):
        p = make_prunable(np.random.default_rng(2))
        with pytest.raises(ValueError, match=case.split("-")[0]):
            dataclasses.replace(p, **BAD_SCHEDULES[case])

    def test_live_weights_must_fit_the_spec(self):
        p = make_prunable(np.random.default_rng(2))
        short = WeightSet(p.live.weights[:1], p.live.biases[:1])
        with pytest.raises(ValueError, match="weight count"):
            dataclasses.replace(p, live=short)


class TestPruneStep:
    def test_smallest_half_masked(self):
        spec = dense_only_spec([4, 1])
        w = WeightSet([np.array([[0.1, -0.5, 0.3, 0.05]])], [np.zeros(1)])
        p = PrunableWeights.create(spec, w, rate=0.5, scope=(0,))
        prune_step(p)
        assert p.masks[0].tolist() == [[False, True, True, False]]
        assert np.array_equal(p.live.weights[0], [[0.0, -0.5, 0.3, 0.0]])

    def test_two_iterations_on_100_weights(self):
        spec = dense_only_spec([10, 10])
        rng = np.random.default_rng(0)
        p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.2,
                                   scope=(0,))
        prune_step(p)
        assert int((~p.masks[0]).sum()) == 20
        prune_step(p)
        assert int((~p.masks[0]).sum()) == 36

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = make_prunable(rng, rate=float(rng.uniform(0.1, 0.5)))
            flat = np.concatenate([w.ravel() for w in p.live.weights])
            prune_step(p)
            n = flat.size
            k = round(p.rate * n)
            order = np.argsort(np.abs(flat), kind="stable")
            expected_dead = set(order[:k].tolist())
            mask_flat = np.concatenate([m.ravel() for m in p.masks])
            assert set(np.flatnonzero(~mask_flat).tolist()) == expected_dead

    def test_masks_monotone_and_schedule_tracking(self):
        rng = np.random.default_rng(4)
        p = make_prunable(rng, sizes=(20, 30, 5), rate=0.2)
        n = sum(m.size for m in p.masks)
        prev = [m.copy() for m in p.masks]
        for i in range(1, 10):
            prune_step(p)
            for m_new, m_old in zip(p.masks, prev):
                assert not (m_new & ~m_old).any()  # once masked, never revived
            prev = [m.copy() for m in p.masks]
            masked = sum(int((~m).sum()) for m in p.masks)
            assert abs(masked / n - schedule_fraction(0.2, i)) <= 1.0 / n

    def test_tie_breaking_deterministic(self):
        spec = dense_only_spec([4, 2])
        w = WeightSet([np.full((2, 4), 0.5)], [np.zeros(2)])
        p = PrunableWeights.create(spec, w, rate=0.5, scope=(0,))
        prune_step(p)
        # all magnitudes equal: the lowest flat indices go first
        assert p.masks[0].ravel().tolist() == [False] * 4 + [True] * 4

    def test_empty_scope_and_exhausted_layer(self):
        rng = np.random.default_rng(2)
        p = make_prunable(rng)
        p.scope = ()
        with pytest.raises(ValueError):
            prune_step(p)
        p.scope = (0,)
        p.masks[0][:] = False
        with pytest.raises(ValueError):
            prune_step(p)

    def test_repeated_scope_index_rejected(self):
        # ranking layer 0's weights twice would mask more of it than once
        rng = np.random.default_rng(2)
        p = make_prunable(rng)
        p.scope = (0, 0)
        with pytest.raises(ValueError, match="repeats a layer"):
            prune_step(p)
        assert p.iteration == 0
        assert all(m.all() for m in p.masks)

    def test_fortran_ordered_masks_prune_like_c_ordered(self):
        # a Fortran-ordered mask ravels to a copy: kills must be written
        # into the mask itself
        spec = build_scaled_dqn((4, 10, 10), 3)
        w = init_weights(spec, np.random.default_rng(5))
        c = PrunableWeights.create(spec, w, rate=0.5, scope=(0, 1))
        f = PrunableWeights.create(spec, w, rate=0.5, scope=(0, 1))
        f.masks = [np.asfortranarray(m) for m in f.masks]
        for _ in range(2):
            prune_step(c)
            prune_step(f)
            for mc, mf in zip(c.masks, f.masks):
                assert np.array_equal(mc, mf)
        assert (~f.masks[0]).sum() > 0
        for wc, wf in zip(c.live.weights, f.live.weights):
            assert np.array_equal(wc, wf)

    def test_scope_order_does_not_change_ranking(self):
        # equal magnitudes in layers 0 and 2: ties go to the lower layer
        spec = dense_only_spec([4, 4, 4, 4])
        signed = np.where(np.arange(16) % 2, 0.5, -0.5).reshape(4, 4)
        w = WeightSet([signed] * 3, [np.zeros(4)] * 3)
        runs = {}
        for scope in [(0, 2), (2, 0)]:
            p = PrunableWeights.create(spec, w, rate=0.25, scope=scope)
            for _ in range(2):
                prune_step(p)
            runs[scope] = p.masks
        assert all(np.array_equal(a, b)
                   for a, b in zip(runs[(0, 2)], runs[(2, 0)]))
        # 0.25 then 0.4375 of 32 weights: 14 masked, all 16 of layer 0 first
        assert (~runs[(2, 0)][0]).sum() == 14
        assert runs[(2, 0)][2].all()

    @pytest.mark.parametrize("scope", [(7,), (0, 0), (-1,)])
    def test_create_rejects_a_bad_scope(self, scope):
        # prune_step and load_checkpoint refuse such a scope, so create
        # must not store it
        spec = dense_only_spec([8, 12, 4])
        w = init_weights(spec, np.random.default_rng(2))
        with pytest.raises(ValueError, match="scope"):
            PrunableWeights.create(spec, w, rate=0.2, scope=scope)

    def test_scope_limits_pruning(self):
        rng = np.random.default_rng(6)
        spec = build_scaled_dqn((2, 6, 6), 3, conv_filters=4)
        p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.3)
        assert p.scope == (0,)  # conv layers by default
        prune_step(p)
        assert (~p.masks[0]).sum() > 0
        assert (~p.masks[1]).sum() == 0
        assert (~p.masks[2]).sum() == 0


class TestRewind:
    def test_rewind_fresh_is_bitwise_initial(self):
        rng = np.random.default_rng(1)
        p = make_prunable(rng)
        rewind(p)
        for w, w0 in zip(p.live.weights, p.initial.weights):
            assert np.array_equal(w.view(np.uint64), w0.view(np.uint64))

    def test_rewind_after_change_and_prune(self):
        rng = np.random.default_rng(3)
        p = make_prunable(rng)
        for w in p.live.weights:
            w += rng.normal(size=w.shape)  # stand-in for training
        prune_step(p)
        rewind(p)
        for w, w0, m in zip(p.live.weights, p.initial.weights, p.masks):
            assert np.array_equal(w[m].view(np.uint64), w0[m].view(np.uint64))
            assert np.all(w[~m] == 0.0)

    def test_rewind_idempotent(self):
        rng = np.random.default_rng(8)
        p = make_prunable(rng)
        prune_step(p)
        rewind(p)
        snap = [w.copy() for w in p.live.weights]
        rewind(p)
        for w, s in zip(p.live.weights, snap):
            assert np.array_equal(w.view(np.uint64), s.view(np.uint64))

    def test_initial_untouched_by_training_like_updates(self):
        rng = np.random.default_rng(12)
        p = make_prunable(rng)
        before = [w.copy() for w in p.initial.weights]
        for w in p.live.weights:
            w *= 3.0
        for w, b in zip(p.initial.weights, before):
            assert np.array_equal(w, b)


class TestSparsityReport:
    def test_fresh_all_zero(self):
        rng = np.random.default_rng(0)
        p = make_prunable(rng)
        rep = report_sparsity(p.masks, p.scope)
        assert all(s == 0.0 for s in rep.per_layer)
        assert rep.total == 0.0

    def test_reference_scenario_with_synthetic_masks(self):
        from deltaq.network import build_reference_dqn
        spec = build_reference_dqn(4)
        rng = np.random.default_rng(5)
        p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.2)
        targets = [0.638, 0.789, 0.824]
        for k, frac in enumerate(targets):
            n = p.masks[k].size
            dead = rng.choice(n, size=round(frac * n), replace=False)
            p.masks[k].ravel()[dead] = False
        rep = report_sparsity(p.masks, p.scope)
        for k, frac in enumerate(targets):
            assert rep.per_layer[k] == pytest.approx(frac, abs=1e-4)
        assert rep.per_layer[3] == rep.per_layer[4] == 0.0
        # the published 0.79 total is over the conv (scope) weights
        assert rep.scope_total == pytest.approx(0.79, abs=0.005)

    def test_random_masks_match_count_oracle(self):
        rng = np.random.default_rng(13)
        p = make_prunable(rng)
        for m in p.masks:
            m[:] = rng.random(m.shape) < 0.6
        rep = report_sparsity(p.masks, p.scope)
        for k, m in enumerate(p.masks):
            expected = sum(1 for v in m.ravel() if not v) / m.size
            assert rep.per_layer[k] == expected
