"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The desk-scale pipeline (criterion 7) trains four agents and takes a few
minutes; everything else is fast.
"""

import functools
import time

import numpy as np
import pytest

from deltaq.cli import main
from deltaq.config import TrainingConfig
from deltaq.delta import DeltaNetwork
from deltaq.envs import follow_ball_policy, make_env
from deltaq.network import (LayerSpec, NetworkSpec, build_scaled_dqn, forward,
                            init_weights, static_network_multiplications)
from deltaq.pruning import (PrunableWeights, prune_step, rewind,
                            schedule_fraction)
from deltaq.training import (forward_batch, huber, lottery_pipeline,
                             q_loss_and_grads, train)
from oracles import naive_delta_run

PIPELINE_SEED = 7


def _report(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {label}")
                raise
            print(f"\n[PASS] {label}")
        return inner
    return wrap


# ---------------------------------------------------------------------------
# criterion 1: static-count reproduction
# ---------------------------------------------------------------------------

@_report("criterion 1a: static-count per-layer rows, params, runtime")
def test_criterion_1a_static_rows(capsys):
    t0 = time.perf_counter()
    rc = main(["static-count", "--reference-dqn", "--n-output", "4"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    for mult in ("3,276,800", "2,654,208", "1,806,336", "1,605,632", "2,048"):
        assert mult in out
    for param in ("8,224", "32,832", "36,928", "1,606,144", "2,052"):
        assert param in out
    flatten_row = [l for l in out.splitlines() if l.startswith("Flatten")][0]
    assert " 0 " in flatten_row or flatten_row.rstrip().endswith("0")
    assert elapsed < 1.0


@_report("criterion 1b: static-count Total row is the sum of its per-layer "
         "rows (9,345,024 mults, 1,686,180 params); the published 9,344,832 "
         "is 192 short")
def test_criterion_1b_published_total(capsys):
    main(["static-count", "--reference-dqn", "--n-output", "4"])
    out = capsys.readouterr().out
    table = [l.split() for l in out.splitlines()[1:] if l.strip()]
    rows = {name: (int(m.replace(",", "")), int(p.replace(",", "")))
            for name, m, p in table}
    total_mults, total_params = rows.pop("Total")
    assert list(rows) == ["Conv2d-1", "Conv2d-2", "Conv2d-3", "Flatten",
                          "Dense-1", "Dense-2"]
    row_mults = sum(m for m, _ in rows.values())
    row_params = sum(p for _, p in rows.values())
    assert total_mults == row_mults == 9_345_024
    assert total_params == row_params == 1_686_180
    # The five nonzero per-layer counts asserted in 1a sum to 9,345,024;
    # a Total row of 9,344,832 cannot coexist with them when the total is
    # the sum of the rows. The published figure appears to mis-add the
    # first five rows as 9,342,784 (true subtotal 9,342,976, short by 192).
    published_total = 9_344_832
    assert total_mults != published_total
    assert row_mults - published_total == 192


# ---------------------------------------------------------------------------
# criterion 2: pruning schedule
# ---------------------------------------------------------------------------

@_report("criterion 2: pruning schedule matches the closed form")
def test_criterion_2_schedule():
    t0 = time.perf_counter()
    published = [0.000, 0.200, 0.36, 0.488, 0.590, 0.672, 0.730, 0.790,
                 0.832, 0.866]
    for i in range(10):
        computed = schedule_fraction(0.2, i)
        assert computed == pytest.approx(1.0 - 0.8 ** i, rel=1e-12)
        if i == 6:
            # published row rounds to 0.730; the formula gives 0.737856
            assert computed == pytest.approx(0.737856, abs=1e-9)
            assert abs(computed - published[i]) > 0.001
        else:
            assert abs(computed - published[i]) <= 0.001
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 3: delta == dense at T=0
# ---------------------------------------------------------------------------

def _random_small_net(rng):
    c = int(rng.integers(1, 4))
    h = int(rng.integers(5, 9))
    w = int(rng.integers(5, 9))
    k = int(rng.integers(2, 4))
    stride = int(rng.integers(1, 3))
    f = int(rng.integers(2, 5))
    conv = LayerSpec("conv2d", in_channels=c, out_filters=f, kernel_x=k,
                     kernel_y=k, stride=stride)
    oh, ow = conv.conv_output_hw(h, w)
    hidden = int(rng.integers(4, 10))
    n_out = int(rng.integers(2, 5))
    layers = (conv,
              LayerSpec("dense", in_size=f * oh * ow, out_size=hidden),
              LayerSpec("dense", in_size=hidden, out_size=n_out,
                        activation="identity"))
    spec = NetworkSpec(layers=layers, input_shape=(c, h, w), n_output=n_out)
    n_weights = sum(int(np.prod(l.weight_shape())) for l in spec.layers)
    assert n_weights <= 5000
    weights = init_weights(spec, rng)
    for b in weights.biases:
        b[:] = rng.normal(size=b.shape) * 0.1
    masks = [rng.random(l.weight_shape()) < rng.uniform(0.3, 0.9)
             for l in spec.layers]
    return spec, weights, masks


@_report("criterion 3: T=0 delta output equals masked dense forward (1e-6)")
def test_criterion_3_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    for _ in range(50):
        spec, weights, masks = _random_small_net(rng)
        masked = weights.copy()
        for k, m in enumerate(masks):
            masked.weights[k][~m] = 0.0
        dn = DeltaNetwork(spec, weights, thresholds=0.0, masks=masks)
        frame = rng.normal(size=spec.input_shape)
        for step in range(200):
            if step % 3 == 0:
                frame = rng.normal(size=spec.input_shape)
            else:  # sparse frame-to-frame changes
                pos = rng.integers(0, frame.size, size=int(rng.integers(0, 6)))
                frame.ravel()[pos] = rng.normal(size=pos.size)
            out = dn.step(frame)
            ref = forward(spec, masked, frame)
            assert np.max(np.abs(out - ref)) < 1e-6
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4: counting oracle equivalence
# ---------------------------------------------------------------------------

def _random_tiny_net(rng):
    c = int(rng.integers(1, 3))
    hw = int(rng.integers(4, 6))
    f = int(rng.integers(1, 3))
    conv = LayerSpec("conv2d", in_channels=c, out_filters=f, kernel_x=2,
                     kernel_y=2, stride=int(rng.integers(1, 3)))
    oh, ow = conv.conv_output_hw(hw, hw)
    n_out = int(rng.integers(2, 4))
    layers = (conv,
              LayerSpec("dense", in_size=f * oh * ow, out_size=4),
              LayerSpec("dense", in_size=4, out_size=n_out,
                        activation="identity"))
    spec = NetworkSpec(layers=layers, input_shape=(c, hw, hw), n_output=n_out)
    weights = init_weights(spec, rng)
    for b in weights.biases:
        b[:] = rng.normal(size=b.shape) * 0.2
    masks = [rng.random(l.weight_shape()) < 0.6 for l in spec.layers]
    return spec, weights, masks


@_report("criterion 4: significant-multiplication counter matches the "
         "per-event oracle exactly")
def test_criterion_4_counting_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    for _ in range(20):
        spec, weights, masks = _random_tiny_net(rng)
        threshold = float(rng.choice([0.0, 0.01, 0.2]))
        frames = []
        frame = rng.normal(size=spec.input_shape)
        for _ in range(8):
            pos = rng.integers(0, frame.size, size=int(rng.integers(0, 8)))
            frame.ravel()[pos] = rng.normal(size=pos.size)
            frames.append(frame.copy())
        dn = DeltaNetwork(spec, weights, thresholds=threshold, masks=masks)
        for f in frames:
            dn.step(f)
        ref = naive_delta_run(spec, weights, masks, threshold, frames)
        assert dn.counter.significant_multiplications[1:].tolist() == ref.mults
        assert dn.counter.events_sent.tolist() == ref.events_sent
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criteria 5 and 7 share one trained pipeline (fixed seed, budgeted)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline():
    env = make_env("mini-breakout", seed=PIPELINE_SEED)
    spec = build_scaled_dqn(env.state_shape, env.n_actions)
    cfg = TrainingConfig()
    t0 = time.perf_counter()
    result = lottery_pipeline(env, spec, 0.2, 3, cfg, seed=PIPELINE_SEED,
                              thresholds=(0.0, 0.001), eval_episodes=30)
    wall = time.perf_counter() - t0
    return spec, result, wall


def _fixed_frames(n=200):
    """A fixed observation sequence: a scripted policy rollout, padded by
    replaying from a second episode."""
    env = make_env("mini-breakout", seed=1234, max_steps=400)
    frames = []
    while len(frames) < n:
        state = env.reset()
        done = False
        while not done and len(frames) < n:
            frames.append(state.copy())
            state, _, done = env.step(follow_ball_policy(state))
    return frames


def _measured_per_step(spec, weights, masks, threshold, frames):
    dn = DeltaNetwork(spec, weights, thresholds=threshold, masks=masks)
    for f in frames:
        dn.step(f)
    return dn.counter.total_multiplications() / dn.counter.timesteps


@_report("criterion 5: measured multiplications nonincreasing in threshold "
         "and in pruning iteration")
def test_criterion_5_monotonicity(pipeline):
    spec, result, _ = pipeline
    frames = _fixed_frames()
    thresholds = (0.0, 1e-4, 1e-3, 1e-2)
    checkpoints = [(0, result.baseline_weights, None)]
    checkpoints += [(p.iteration, p.live, p.masks) for p in result.pruned]
    by_threshold = {}
    for it, weights, masks in checkpoints:
        measured = [_measured_per_step(spec, weights, masks, t, frames)
                    for t in thresholds]
        assert measured == sorted(measured, reverse=True), \
            f"iteration {it}: not nonincreasing in threshold: {measured}"
        by_threshold[it] = measured
    for ti in range(len(thresholds)):
        per_iter = [by_threshold[it][ti] for it, _, _ in checkpoints]
        assert per_iter == sorted(per_iter, reverse=True), \
            f"threshold {thresholds[ti]}: not nonincreasing in iteration: {per_iter}"


# ---------------------------------------------------------------------------
# criterion 6: rewind fidelity
# ---------------------------------------------------------------------------

@_report("criterion 6: after train-prune-rewind, surviving weights equal the "
         "archived init bitwise and masked weights are zero")
def test_criterion_6_rewind_fidelity():
    env = make_env("mini-breakout", seed=60, max_steps=60)
    spec = build_scaled_dqn(env.state_shape, env.n_actions, conv_filters=4,
                            dense_hidden=16)
    rng = np.random.default_rng(60)
    p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.3,
                               scope=tuple(range(len(spec.layers))))
    cfg = TrainingConfig(steps=600, min_buffer=50, batch_size=16,
                         epsilon_decay_steps=300, target_sync=100)
    train(env, spec, p, cfg, rng)
    changed = any(not np.array_equal(w, w0) for w, w0 in
                  zip(p.live.weights, p.initial.weights))
    assert changed, "training must move the weights for this check to bite"
    prune_step(p)
    rewind(p)
    assert any((~m).any() for m in p.masks)
    for w, w0, m in zip(p.live.weights, p.initial.weights, p.masks):
        assert np.array_equal(w[m].view(np.uint64), w0[m].view(np.uint64))
        assert np.all(w[~m] == 0.0)
    for b, b0 in zip(p.live.biases, p.initial.biases):
        assert np.array_equal(b.view(np.uint64), b0.view(np.uint64))


# ---------------------------------------------------------------------------
# criterion 7: desk-scale pipeline outcome
# ---------------------------------------------------------------------------

@_report("criterion 7a: trained dense agent beats 3x random")
def test_criterion_7a_dense_vs_random(pipeline):
    _, result, wall = pipeline
    assert wall < 1800.0, f"pipeline took {wall:.0f}s, budget is 30 min"
    assert result.baseline_reward_dense >= 3.0 * result.baseline_random, (
        f"dense {result.baseline_reward_dense} vs random "
        f"{result.baseline_random}")


@_report("criterion 7b: after 3 iterations (~49% sparsity) the retrained "
         "agent keeps at least 70% of dense reward")
def test_criterion_7b_retention(pipeline):
    _, result, _ = pipeline
    last = result.records[-1]
    assert last.iteration == 3
    assert last.sparsity_total == pytest.approx(0.488, abs=0.01)
    assert last.reward_dense >= 0.7 * result.baseline_reward_dense, (
        f"iter-3 dense {last.reward_dense} vs baseline "
        f"{result.baseline_reward_dense}")


@_report("criterion 7c: delta at T=0.001 cuts multiplications below half of "
         "static while keeping 90% of dense reward")
def test_criterion_7c_delta_operating_point(pipeline):
    spec, result, _ = pipeline
    rec = next(r for r in result.records if (r.iteration, r.threshold)
               == (3, 0.001))
    static_total = static_network_multiplications(spec).total_multiplications
    assert rec.measured_total / static_total < 0.5, (
        f"measured/static = {rec.measured_total / static_total:.4f}")
    assert rec.reward_delta >= 0.9 * rec.reward_dense, (
        f"delta reward {rec.reward_delta} vs dense {rec.reward_dense}")


# ---------------------------------------------------------------------------
# criterion 8: gradient check
# ---------------------------------------------------------------------------

@_report("criterion 8: analytic Q-loss gradients match central differences "
         "within 1e-4 relative error")
def test_criterion_8_gradient_check():
    rng = np.random.default_rng(800)
    conv = LayerSpec("conv2d", in_channels=2, out_filters=2, kernel_x=2,
                     kernel_y=2, stride=2)
    spec = NetworkSpec(
        layers=(conv, LayerSpec("dense", in_size=8, out_size=4),
                LayerSpec("dense", in_size=4, out_size=2,
                          activation="identity")),
        input_shape=(2, 4, 4), n_output=2)
    assert sum(l.param_count() for l in spec.layers) <= 200
    w = init_weights(spec, rng)
    b = 6
    states = rng.normal(size=(b, 2, 4, 4))
    actions = rng.integers(0, 2, b)
    targets = rng.normal(size=b)
    _, gw, gb = q_loss_and_grads(spec, w, states, actions, targets)

    def loss():
        q = forward_batch(spec, w, states)
        return float(np.mean(huber(q[np.arange(b), actions] - targets)))

    eps = 1e-6
    for arrs, grads in ((w.weights, gw), (w.biases, gb)):
        for a, g in zip(arrs, grads):
            flat, gflat = a.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                rel = abs(num - gflat[i]) / max(1e-8, abs(num) + abs(gflat[i]))
                assert rel < 1e-4


# ---------------------------------------------------------------------------
# criterion 9: double-Q target correctness
# ---------------------------------------------------------------------------

@_report("criterion 9: double-Q decoupling and terminal cases are exact")
def test_criterion_9_double_q():
    from deltaq.network import WeightSet
    from deltaq.training import Batch, double_q_target

    spec = NetworkSpec(
        layers=(LayerSpec("dense", in_size=1, out_size=2,
                          activation="identity"),),
        input_shape=(1, 1, 1), n_output=2)
    online = WeightSet([np.zeros((2, 1))], [np.array([1.0, 3.0])])
    target = WeightSet([np.zeros((2, 1))], [np.array([10.0, 0.0])])

    decoupled = Batch(states=np.zeros((1, 1, 1, 1)), actions=np.array([0]),
                      rewards=np.array([0.0]),
                      next_states=np.zeros((1, 1, 1, 1)),
                      dones=np.array([False]))
    assert double_q_target(decoupled, spec, online, target, 0.9)[0] == 0.0

    terminal = Batch(states=np.zeros((1, 1, 1, 1)), actions=np.array([0]),
                     rewards=np.array([1.0]),
                     next_states=np.zeros((1, 1, 1, 1)),
                     dones=np.array([True]))
    assert double_q_target(terminal, spec, online, target, 0.9)[0] == 1.0
