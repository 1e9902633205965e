import numpy as np
import pytest

from deltaq.checkpoint import load_checkpoint, save_prunable
from deltaq.config import TrainingConfig
from deltaq.envs import make_env
from deltaq.network import (LayerSpec, NetworkSpec, WeightSet,
                            build_scaled_dqn, forward, init_weights)
from deltaq.pruning import PrunableWeights, prune_step, rewind
from deltaq.training import (ADAM_CHUNK, Adam, AgentParams, Batch,
                             ReplayBuffer, TrainingDiverged, double_q_target,
                             _flat_views, evaluate, forward_batch, huber,
                             q_loss_and_grads, train)


def tiny_spec():
    conv = LayerSpec("conv2d", in_channels=2, out_filters=2, kernel_x=2,
                     kernel_y=2, stride=2)
    return NetworkSpec(
        layers=(conv,
                LayerSpec("dense", in_size=8, out_size=4),
                LayerSpec("dense", in_size=4, out_size=2,
                          activation="identity")),
        input_shape=(2, 4, 4), n_output=2)


def two_conv_spec():
    """Two conv layers, so the second one's input gradient goes through
    col2im: stride 2 with a 3x3 kernel, then stride 1 with a 2x3 kernel."""
    return NetworkSpec(
        layers=(LayerSpec("conv2d", in_channels=2, out_filters=3, kernel_x=3,
                          kernel_y=3, stride=2),
                LayerSpec("conv2d", in_channels=3, out_filters=2, kernel_x=3,
                          kernel_y=2, stride=1),
                LayerSpec("dense", in_size=12, out_size=2,
                          activation="identity")),
        input_shape=(2, 9, 9), n_output=2)


def constant_q_nets(q_online, q_target):
    """1-input networks whose outputs are fixed vectors (weights 0, bias q)."""
    n = len(q_online)
    spec = NetworkSpec(
        layers=(LayerSpec("dense", in_size=1, out_size=n,
                          activation="identity"),),
        input_shape=(1, 1, 1), n_output=n)
    online = WeightSet([np.zeros((n, 1))], [np.array(q_online, dtype=float)])
    target = WeightSet([np.zeros((n, 1))], [np.array(q_target, dtype=float)])
    return spec, online, target


class TestReplayBuffer:
    def test_capacity_bound_and_fifo(self):
        buf = ReplayBuffer(5, (1, 2, 2))
        for i in range(8):
            s = np.full((1, 2, 2), float(i))
            buf.add(s, 0, float(i), s, False)
        assert buf.size == 5
        stored = sorted(float(buf.r[i]) for i in range(5))
        assert stored == [3.0, 4.0, 5.0, 6.0, 7.0]  # oldest overwritten

    def test_sample_requires_enough(self):
        buf = ReplayBuffer(10, (1, 1, 1))
        buf.add(np.zeros((1, 1, 1)), 0, 0.0, np.zeros((1, 1, 1)), False)
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_sampling_uniform_chi_square(self):
        n = 40
        buf = ReplayBuffer(n, (1, 1, 1))
        for i in range(n):
            buf.add(np.zeros((1, 1, 1)), 0, float(i), np.zeros((1, 1, 1)), False)
        rng = np.random.default_rng(123)
        counts = np.zeros(n)
        draws = 0
        for _ in range(1000):
            batch = buf.sample(40, rng)
            for r in batch.rewards:
                counts[int(r)] += 1
            draws += 40
        expected = draws / n
        stat = float(((counts - expected) ** 2 / expected).sum())
        # chi-square 99.9% quantile at 39 dof is ~72.1 (Wilson-Hilferty)
        assert stat < 72.1

    def test_wrapped_buffer_samples_only_written_transitions(self):
        buf = ReplayBuffer(7, (2, 3, 3))
        written = {}
        for i in range(19):  # wraps twice: the slots hold i = 12..18
            s = np.full((2, 3, 3), float(i))
            buf.add(s, i % 3, float(i), s + 0.5, i % 4 == 0)
            written[i] = (i % 3, i % 4 == 0)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(60):
            batch = buf.sample(7, rng)
            for s, a, r, s2, d in zip(batch.states, batch.actions,
                                      batch.rewards, batch.next_states,
                                      batch.dones):
                i = int(r)
                assert 12 <= i <= 18  # the last `capacity` transitions
                assert np.all(s == i) and np.all(s2 == i + 0.5)
                assert (a, d) == written[i]
                seen.add(i)
        assert seen == set(range(12, 19))

    def test_rejects_nonfinite_reward(self):
        buf = ReplayBuffer(4, (1, 1, 1))
        with pytest.raises(ValueError):
            buf.add(np.zeros((1, 1, 1)), 0, float("nan"), np.zeros((1, 1, 1)),
                    False)


class TestDoubleQTarget:
    def test_terminal_ignores_networks(self):
        spec, online, target = constant_q_nets([5.0, -2.0], [100.0, 100.0])
        batch = Batch(states=np.zeros((1, 1, 1, 1)),
                      actions=np.array([0]), rewards=np.array([1.0]),
                      next_states=np.zeros((1, 1, 1, 1)),
                      dones=np.array([True]))
        params = AgentParams(online, target, 0.9, 1e-3, 1.0, 0.1, 100, 10)
        assert double_q_target(batch, spec, params) == pytest.approx([1.0])

    def test_decoupled_argmax(self):
        # online picks action 1, target values it at 0
        spec, online, target = constant_q_nets([1.0, 3.0], [10.0, 0.0])
        batch = Batch(states=np.zeros((1, 1, 1, 1)),
                      actions=np.array([0]), rewards=np.array([0.0]),
                      next_states=np.zeros((1, 1, 1, 1)),
                      dones=np.array([False]))
        params = AgentParams(online, target, 0.9, 1e-3, 1.0, 0.1, 100, 10)
        assert double_q_target(batch, spec, params) == pytest.approx([0.0])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        spec = tiny_spec()
        online = init_weights(spec, rng)
        target = init_weights(spec, rng)
        b = 16
        batch = Batch(states=rng.normal(size=(b, 2, 4, 4)),
                      actions=rng.integers(0, 2, b),
                      rewards=rng.normal(size=b),
                      next_states=rng.normal(size=(b, 2, 4, 4)),
                      dones=rng.random(b) < 0.3)
        params = AgentParams(online, target, 0.95, 1e-3, 1.0, 0.1, 100, 10)
        y = double_q_target(batch, spec, params)
        for i in range(b):
            if batch.dones[i]:
                expect = batch.rewards[i]
            else:
                qo = forward(spec, online, batch.next_states[i])
                qt = forward(spec, target, batch.next_states[i])
                expect = batch.rewards[i] + 0.95 * qt[int(np.argmax(qo))]
            assert y[i] == pytest.approx(expect, abs=1e-12)


class TestGradients:
    def test_huber_shape(self):
        e = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(huber(e), [2.5, 0.125, 0.0, 0.125, 2.5])

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(0)
        spec = tiny_spec()
        assert sum(l.param_count() for l in spec.layers) <= 200
        w = init_weights(spec, rng)
        b = 5
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

    def test_two_conv_analytic_matches_central_differences(self):
        rng = np.random.default_rng(1)
        spec = two_conv_spec()
        assert sum(l.param_count() for l in spec.layers) <= 200
        w = init_weights(spec, rng)
        b = 5
        states = rng.normal(size=(b, 2, 9, 9))
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

    def test_caller_buffer_gives_identical_gradients(self):
        rng = np.random.default_rng(2)
        spec = two_conv_spec()
        w = init_weights(spec, rng)
        states = rng.normal(size=(6, 2, 9, 9))
        actions = rng.integers(0, 2, 6)
        targets = rng.normal(size=6)
        loss, gw, gb = q_loss_and_grads(spec, w, states, actions, targets)
        flat = np.full(sum(l.param_count() for l in spec.layers), np.nan)
        buf = _flat_views(spec, flat)
        loss2, gw2, gb2 = q_loss_and_grads(spec, w, states, actions, targets,
                                           grads=buf)
        assert loss2 == loss
        for a, b, v in zip(gw + gb, gw2 + gb2, buf.weights + buf.biases):
            assert b is v
            assert np.array_equal(a, b)
        assert not np.isnan(flat).any()
        strided = _flat_views(spec, np.zeros(2 * flat.size)[::2])
        with pytest.raises(ValueError, match="C-contiguous"):
            q_loss_and_grads(spec, w, states, actions, targets, grads=strided)

    def test_batch_forward_matches_single(self):
        rng = np.random.default_rng(5)
        spec = build_scaled_dqn((3, 8, 8), 4, conv_filters=6)
        w = init_weights(spec, rng)
        xb = rng.normal(size=(7, 3, 8, 8))
        qb = forward_batch(spec, w, xb)
        for i in range(7):
            np.testing.assert_allclose(qb[i], forward(spec, w, xb[i]),
                                       atol=1e-12)


def adam_per_array(params, grads_per_step, lr, b1, b2, eps):
    """The textbook per-array update, as separate arrays."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)


class TestAdam:
    def test_flat_chunked_equals_per_array_bitwise(self):
        rng = np.random.default_rng(8)
        sizes = [ADAM_CHUNK + 123, 2 * ADAM_CHUNK - 7, 5, 1000]
        n = sum(sizes)
        assert n % ADAM_CHUNK != 0
        masked = rng.random(n) < 0.3
        start = rng.normal(size=n)
        start[masked] = 0.0
        steps = []
        for _ in range(50):
            g = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=n)
            g[masked] = 0.0
            steps.append(g)

        flat = start.copy()
        opt = Adam(flat, lr=3e-3, beta1=0.8, beta2=0.995, eps=1e-7)
        for g in steps:
            opt.step(g)

        cuts = np.cumsum(sizes)[:-1]
        ref = np.split(start.copy(), cuts)
        adam_per_array(ref, [np.split(g, cuts) for g in steps],
                       lr=3e-3, b1=0.8, b2=0.995, eps=1e-7)
        ref = np.concatenate(ref)
        assert np.array_equal(flat.view(np.int64), ref.view(np.int64))
        assert np.all(flat[masked] == 0.0)
        assert opt.t == 50

    def test_rejects_non_flat_params(self):
        with pytest.raises(ValueError, match="flat vector"):
            Adam(np.zeros((3, 4)), lr=1e-3)


class TestTrain:
    def make(self, seed=0, steps=400):
        env = make_env("mini-breakout", seed=seed, max_steps=60)
        spec = build_scaled_dqn(env.state_shape, env.n_actions,
                                conv_filters=4, dense_hidden=16)
        rng = np.random.default_rng(seed)
        p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.3)
        cfg = TrainingConfig(steps=steps, min_buffer=50, batch_size=16,
                             epsilon_decay_steps=200, target_sync=100)
        return env, spec, p, cfg, rng

    def test_zero_steps_leaves_weights_unchanged(self):
        env, spec, p, cfg, rng = self.make()
        cfg.steps = 0
        before = [w.copy() for w in p.live.weights]
        train(env, spec, p, cfg, rng)
        for w, b in zip(p.live.weights, before):
            assert np.array_equal(w, b)

    def test_masked_weights_stay_exactly_zero(self):
        env, spec, p, cfg, rng = self.make(seed=3)
        prune_step(p)
        rewind(p)
        train(env, spec, p, cfg, rng)
        for w, m in zip(p.live.weights, p.masks):
            assert np.all(w[~m] == 0.0)
        assert any((~m).any() for m in p.masks)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self):
        env, spec, p, cfg, rng = self.make(seed=4)
        cfg.learning_rate = 1e200  # one optimizer step overflows the forward
        with pytest.raises(TrainingDiverged):
            train(env, spec, p, cfg, rng)

    def test_training_changes_weights_and_is_deterministic(self):
        env, spec, p, cfg, rng = self.make(seed=6)
        init = [w.copy() for w in p.live.weights]
        train(env, spec, p, cfg, rng)
        assert any(not np.array_equal(w, i)
                   for w, i in zip(p.live.weights, init))
        env2, spec2, p2, cfg2, rng2 = self.make(seed=6)
        train(env2, spec2, p2, cfg2, rng2)
        for a, b in zip(p.live.weights, p2.live.weights):
            assert np.array_equal(a, b)

    def test_live_arrays_own_their_memory_after_train(self, tmp_path):
        env, spec, p, cfg, rng = self.make(seed=7, steps=200)
        ids = [id(a) for a in p.live.weights + p.live.biases]
        before = [a.copy() for a in p.live.weights]
        train(env, spec, p, cfg, rng)
        arrays = p.live.weights + p.live.biases
        assert [id(a) for a in arrays] == ids
        for a in arrays:
            assert a.flags.c_contiguous and a.flags.owndata and a.base is None
        assert any(not np.array_equal(a, b) for a, b in zip(p.live.weights, before))
        # the arrays stay usable by pruning, rewind and checkpoints
        prune_step(p)
        for w, m in zip(p.live.weights, p.masks):
            assert np.all(w[~m] == 0.0)
        save_prunable(tmp_path / "p.ckpt", p)
        loaded = load_checkpoint(tmp_path / "p.ckpt")
        for a, b in zip(loaded.weights.weights, p.live.weights):
            assert np.array_equal(a, b)
        rewind(p)
        for w, i, m in zip(p.live.weights, p.initial.weights, p.masks):
            assert np.array_equal(w, np.where(m, i, 0.0))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_run_leaves_trained_values_in_live(self):
        env, spec, p, cfg, rng = self.make(seed=4)
        cfg.learning_rate = 1e200
        ids = [id(a) for a in p.live.weights]
        init = [a.copy() for a in p.live.weights]
        with pytest.raises(TrainingDiverged):
            train(env, spec, p, cfg, rng)
        assert [id(a) for a in p.live.weights] == ids
        assert all(a.flags.owndata for a in p.live.weights)
        assert any(not np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(p.live.weights, init))

    def test_epsilon_schedule_linear(self):
        params = AgentParams(None, None, 0.99, 1e-3, 1.0, 0.1, 100, 10)
        assert params.epsilon(0) == 1.0
        assert params.epsilon(50) == pytest.approx(0.55)
        assert params.epsilon(100) == pytest.approx(0.1)
        assert params.epsilon(500) == pytest.approx(0.1)


class TestEvaluate:
    def setup_pair(self, seed=9):
        env = make_env("mini-breakout", seed=seed, max_steps=80)
        spec = build_scaled_dqn(env.state_shape, env.n_actions,
                                conv_filters=4, dense_hidden=16)
        w = init_weights(spec, np.random.default_rng(seed))
        return env, spec, w

    def test_delta_t0_equals_dense(self):
        env, spec, w = self.setup_pair()
        dense = evaluate(env.fork(50), spec, w, episodes=5)
        delta = evaluate(env.fork(50), spec, w, episodes=5, mode="delta",
                         thresholds=0.0)
        assert dense.rewards == delta.rewards

    def test_deterministic_repeat(self):
        env, spec, w = self.setup_pair(seed=10)
        a = evaluate(env.fork(1), spec, w, episodes=1)
        b = evaluate(env.fork(1), spec, w, episodes=1)
        assert a.mean_reward == b.mean_reward

    def test_huge_threshold_silences_events(self):
        env, spec, w = self.setup_pair(seed=11)
        res = evaluate(env.fork(2), spec, w, episodes=2, mode="delta",
                       thresholds=1e6)
        t = res.counter.timesteps
        # nothing crosses a 1e6 gate; only the input layer may emit (its
        # threshold gates pixel changes of magnitude 1)
        assert res.counter.events_sent[1:].sum() == 0
        assert res.counter.significant_multiplications.sum() == 0 or t > 0

    def test_dense_counter_reports_static_cost(self):
        env, spec, w = self.setup_pair(seed=12)
        from deltaq.network import static_network_multiplications
        res = evaluate(env.fork(3), spec, w, episodes=2)
        t = res.counter.timesteps
        static = static_network_multiplications(spec).total_multiplications
        assert res.counter.total_multiplications() == static * t

    @pytest.mark.parametrize("masked", [False, True])
    def test_dense_counter_rows(self, masked):
        env, spec, w = self.setup_pair(seed=12)
        masks = None
        if masked:
            rng = np.random.default_rng(4)
            masks = [rng.random(l.weight_shape()) < 0.5 for l in spec.layers]
        res = evaluate(env.fork(3), spec, w, episodes=2, masks=masks)
        # independent rollout: the same greedy policy, steps counted by hand
        w_eff = w.copy()
        for k, m in enumerate(masks or []):
            w_eff.weights[k][~m] = 0.0
        rollout = env.fork(3)
        t, rewards = 0, []
        for _ in range(2):
            state, done, total = rollout.reset(), False, 0.0
            while not done:
                state, r, done = rollout.step(int(np.argmax(
                    forward(spec, w_eff, state))))
                total += r
                t += 1
            rewards.append(total)
        assert res.rewards == rewards
        c = res.counter
        assert c.timesteps == t
        # (4, 10, 10) -> conv 4x3x3 -> (4, 8, 8) -> 16 -> 3; masks never
        # change the dense count
        assert c.layer_names == ("Input", "Conv2d-1", "Dense-1", "Dense-2")
        assert c.significant_multiplications.tolist() == \
            [0, 64 * 4 * 9 * 4 * t, 256 * 16 * t, 16 * 3 * t]
        assert c.events_received.tolist() == [0, 400 * t, 256 * t, 16 * t]
        assert c.events_sent.tolist() == [400 * t, 256 * t, 16 * t, 3 * t]

    def test_episode_validation(self):
        env, spec, w = self.setup_pair(seed=13)
        with pytest.raises(ValueError):
            evaluate(env, spec, w, episodes=0)
