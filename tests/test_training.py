import tracemalloc

import numpy as np
import pytest

from deltaq.checkpoint import load_checkpoint, save_prunable
from deltaq.config import TrainingConfig
from deltaq.envs import make_env
from deltaq.network import (LayerSpec, NetworkSpec, WeightSet,
                            build_reference_dqn, build_scaled_dqn, forward,
                            init_weights)
from deltaq.pruning import PrunableWeights, prune_step, rewind
from deltaq import training
from deltaq.training import (ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPS,
                             Adam, Batch, ReplayBuffer, TargetCache,
                             TrainingDiverged, double_q_target, _flat_views,
                             _im2col_batch, backward_batch, evaluate,
                             forward_batch, huber, q_loss_and_grads, train)


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


def im2col_sliding_window(x, ky, kx, stride):
    """The earlier sliding-window im2col, kept as the reference for
    `_im2col_batch`."""
    b, c = x.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(x, (ky, kx), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # (B, C, OH, OW, ky, kx)
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * ky * kx, oh * ow)
    return np.ascontiguousarray(cols)


def backward_einsum(spec, w, caches, d_out):
    """The earlier backward pass, whose conv products are einsums, kept as
    the reference for `backward_batch`'s BLAS products."""
    n = len(spec.layers)
    gw, gb = [None] * n, [None] * n
    g = d_out
    for i in range(n - 1, -1, -1):
        layer = spec.layers[i]
        x_in, mat, pre = caches[i]
        g = g.reshape(pre.shape)
        if layer.activation == "relu":
            g = g * (pre > 0)
        if layer.kind == "dense":
            gw[i], gb[i] = g.T @ mat, g.sum(axis=0)
            g = (g @ w.weights[i]).reshape(x_in.shape)
            continue
        f = layer.out_filters
        gm = g.reshape(g.shape[0], f, -1)
        gw[i] = np.einsum("bfp,bkp->fk", gm, mat).reshape(w.weights[i].shape)
        gb[i] = gm.sum(axis=(0, 2))
        dcols = np.einsum("fk,bfp->bkp", w.weights[i].reshape(f, -1), gm)
        ky, kx, s = layer.kernel_y, layer.kernel_x, layer.stride
        oh, ow = pre.shape[2:]
        d = dcols.reshape(*x_in.shape[:2], ky, kx, oh, ow)
        g = np.zeros_like(x_in)
        for y in range(ky):
            for z in range(kx):
                g[:, :, y:y + s * oh:s, z:z + s * ow:s] += d[:, :, y, z]
    return gw, gb


def three_conv_spec():
    """The reference network's conv strides and kernels on a small input."""
    return NetworkSpec(
        layers=(LayerSpec("conv2d", in_channels=4, out_filters=6, kernel_x=8,
                          kernel_y=8, stride=4),
                LayerSpec("conv2d", in_channels=6, out_filters=5, kernel_x=4,
                          kernel_y=4, stride=2),
                LayerSpec("conv2d", in_channels=5, out_filters=4, kernel_x=3,
                          kernel_y=3, stride=1),
                LayerSpec("dense", in_size=4, out_size=3,
                          activation="identity")),
        input_shape=(4, 36, 36), n_output=3)


def _record_play(monkeypatch, env):
    """A list that collects each reset and step `env` is asked for."""
    played = []
    monkeypatch.setattr(env, "reset", lambda: played.append("reset"))
    monkeypatch.setattr(env, "step", lambda a: played.append(("step", a)))
    return played


# networks that do not fit the env; the last fits the actions, not the frames
MISFITS = pytest.mark.parametrize(
    "name, n_output, input_shape",
    [("mini-invaders", 3, None), ("mini-breakout", 4, None),
     ("mini-breakout", 3, (4, 12, 12))],
    ids=["mini-invaders-3", "mini-breakout-4", "mini-breakout-3-input-4x12x12"])


class TestReplayBuffer:
    @pytest.mark.parametrize("capacity", [0, -4])
    def test_capacity_below_one_rejected(self, capacity):
        # its first add would take a position modulo zero
        with pytest.raises(ValueError,
                           match=f"capacity must be >= 1, got {capacity}"):
            ReplayBuffer(capacity, (1, 2, 2))

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
        # (capacity, adds, an episode ends every `end_every` adds): a buffer
        # that wraps twice, and one of a run's own size whose every add
        # starts an episode, so it writes the most frames and fills the ring
        for capacity, n, end_every in ((7, 19, 4), (19, 19, 1)):
            buf = ReplayBuffer(capacity, (2, 3, 3))
            written = {}
            for i in range(n):
                # no state repeats, so every add writes two frames: the
                # ring's worst case
                s = np.full((2, 3, 3), 2.0 * i)
                buf.add(s, i % 3, float(i), s + 1.0, i % end_every == 0)
                written[i] = (i % 3, i % end_every == 0)
            assert buf.n_frames == 2 * n
            rng = np.random.default_rng(3)
            seen = set()
            for _ in range(60):
                batch = buf.sample(7, rng)
                for s, a, r, s2, d in zip(batch.states, batch.actions,
                                          batch.rewards, batch.next_states,
                                          batch.dones):
                    i = int(r)
                    assert n - capacity <= i < n  # the last `capacity` adds
                    assert np.all(s == 2 * i) and np.all(s2 == 2 * i + 1)
                    assert (a, d) == written[i]
                    seen.add(i)
            assert seen == set(range(n - capacity, n))

    def test_episode_shares_frames_between_transitions(self):
        env = make_env("mini-breakout", seed=4, max_steps=40)
        buf = ReplayBuffer(100, env.state_shape)
        rng = np.random.default_rng(4)
        state, done, n = env.reset(), False, 0
        while not done:
            s_next, r, done = env.step(int(rng.integers(env.n_actions)))
            buf.add(state, 0, r, s_next, done)
            state, n = s_next, n + 1
        assert n > 1
        assert np.array_equal(buf.at[1:n, 0], buf.at[:n - 1, 1])
        assert buf.n_frames == n + 1

    def test_reserve_is_one_uint8_frame_store(self):
        tracemalloc.start()
        try:
            ReplayBuffer(20000, (4, 10, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    @staticmethod
    def assert_rejected(s, a, r, s_next, done, match):
        """`add` raises ValueError and writes nothing."""
        buf = ReplayBuffer(3, (4, 10, 10))
        buf.add(np.ones((4, 10, 10)), 1, 1.0, np.ones((4, 10, 10)), False)
        before = [x.copy() for x in (buf.frames, buf.at, buf.a, buf.r, buf.done)]
        with pytest.raises(ValueError, match=match):
            buf.add(s, a, r, s_next, done)
        assert (buf.size, buf.pos, buf.n_frames) == (1, 1, 2)
        after = (buf.frames, buf.at, buf.a, buf.r, buf.done)
        for x, y in zip(before, after):  # no slot was written
            assert x.tobytes() == y.tobytes()

    def test_rejects_nonfinite_reward(self):
        zeros = np.zeros((4, 10, 10))
        self.assert_rejected(zeros, 0, float("nan"), zeros, False, "reward")

    @pytest.mark.parametrize("s, s_next", [
        (np.zeros((10, 10)), np.zeros((4, 10, 10))),        # broadcasts
        (np.zeros((4, 10, 10)), np.zeros(10)),              # broadcasts
        (np.zeros((4, 10, 11)), np.zeros((4, 10, 10))),
        (np.full((4, 10, 10), np.nan), np.zeros((4, 10, 10))),
        (np.zeros((4, 10, 10)), np.full((4, 10, 10), np.inf)),
        (np.full((4, 10, 10), 1e300), np.zeros((4, 10, 10))),  # -> inf
        (np.zeros((4, 10, 10)), np.full((4, 10, 10), 0.1)),    # rounds
        (np.full((4, 10, 10), 2.0 ** -160), np.zeros((4, 10, 10))),  # -> 0
        (np.full((4, 10, 10), -1.0), np.zeros((4, 10, 10))),   # wraps
        (np.ones((4, 10, 10)), np.full((4, 10, 10), 0.5)),     # s reused
        (np.zeros((4, 10, 10)), np.full((4, 10, 10), 256.0)),  # wraps
        (np.where(np.arange(400).reshape(4, 10, 10) == 7, np.nan, 1.0),
         np.ones((4, 10, 10))),           # the last frame but for one NaN
    ])
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_rejects_states_it_cannot_hold(self, s, s_next):
        self.assert_rejected(s, 0, 0.0, s_next, True, "state")

    @pytest.mark.parametrize("a, done, match", [
        (1.7, False, "action"),             # would be stored as 1
        (1.0, False, "action"),
        (-1, False, "action"),              # would index the last action
        (np.int64(-2), False, "action"),
        (True, False, "action"),            # would be stored as 1
        (np.bool_(True), False, "action"),
        ("1", False, "action"),
        (0, "no", "done"),                  # would be stored as True
        (0, 1, "done"),
        (0, None, "done"),
    ])
    def test_rejects_actions_and_done_flags_it_cannot_hold(self, a, done, match):
        zeros = np.zeros((4, 10, 10))
        self.assert_rejected(zeros, a, 0.0, zeros, done, match)

    def test_holds_integer_actions_and_bool_flags(self):
        buf = ReplayBuffer(4, (1, 1, 1))
        s = np.zeros((1, 1, 1))
        for a, done in ((0, False), (np.int64(2), np.bool_(True)),
                        (np.int32(5), True), (7, np.False_)):
            buf.add(s, a, 0.0, s, done)
        assert buf.a.tolist() == [0, 2, 5, 7]
        assert buf.done.tolist() == [False, True, True, False]

    @pytest.mark.parametrize("name", ["mini-breakout", "mini-invaders"])
    def test_holds_both_games_states_exactly(self, name):
        env = make_env(name, seed=2, max_steps=50)
        buf = ReplayBuffer(300, env.state_shape)
        rng = np.random.default_rng(2)
        state, kept = env.reset(), []
        for _ in range(300):
            s_next, r, done = env.step(int(rng.integers(env.n_actions)))
            buf.add(state, 0, r, s_next, done)
            kept.append((state, s_next))
            state = env.reset() if done else s_next
        for i, (s, s2) in enumerate(kept):
            s_at, s2_at = buf.at[i]
            assert np.array_equal(buf.frames[s_at], s) and \
                np.array_equal(buf.frames[s2_at], s2)


class TestDoubleQTarget:
    def test_terminal_ignores_networks(self):
        spec, online, target = constant_q_nets([5.0, -2.0], [100.0, 100.0])
        batch = Batch(states=np.zeros((1, 1, 1, 1)),
                      actions=np.array([0]), rewards=np.array([1.0]),
                      next_states=np.zeros((1, 1, 1, 1)),
                      dones=np.array([True]))
        assert double_q_target(batch, spec, online, target, 0.9) == \
            pytest.approx([1.0])

    def test_decoupled_argmax(self):
        # online picks action 1, target values it at 0
        spec, online, target = constant_q_nets([1.0, 3.0], [10.0, 0.0])
        batch = Batch(states=np.zeros((1, 1, 1, 1)),
                      actions=np.array([0]), rewards=np.array([0.0]),
                      next_states=np.zeros((1, 1, 1, 1)),
                      dones=np.array([False]))
        assert double_q_target(batch, spec, online, target, 0.9) == \
            pytest.approx([0.0])

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
        y = double_q_target(batch, spec, online, target, 0.95)
        for i in range(b):
            if batch.dones[i]:
                expect = batch.rewards[i]
            else:
                qo = forward(spec, online, batch.next_states[i])
                qt = forward(spec, target, batch.next_states[i])
                expect = batch.rewards[i] + 0.95 * qt[int(np.argmax(qo))]
            assert y[i] == pytest.approx(expect, abs=1e-12)


class TestTargetCache:
    def test_lookup_tracks_overwrites_and_syncs(self):
        rng = np.random.default_rng(11)
        spec = tiny_spec()
        online, target = init_weights(spec, rng), init_weights(spec, rng)
        buf = ReplayBuffer(6, (2, 4, 4))
        cache = TargetCache(6, 2)

        def add():
            cache.fresh[buf.pos] = False
            buf.add(rng.integers(0, 2, size=(2, 4, 4)), 0, 1.0,
                    rng.integers(0, 2, size=(2, 4, 4)), False)

        def check(slots):
            slots = np.array(slots)
            s_at, s2_at = buf.at[slots].T
            batch = Batch(states=buf.frames[s_at].astype(np.float64),
                          actions=buf.a[slots], rewards=buf.r[slots],
                          next_states=buf.frames[s2_at].astype(np.float64),
                          dones=buf.done[slots], slots=slots)
            ref = double_q_target(batch, spec, online, target, 0.9)
            y = double_q_target(batch, spec, online, target, 0.9, cache)
            np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                cache.q[slots], forward_batch(spec, target, batch.next_states),
                rtol=0, atol=1e-12)
            assert cache.fresh[slots].all()

        for _ in range(6):
            add()
        check([1, 3, 3, 5, 0])
        assert cache.fresh.sum() == 4
        add()                                # overwrites slot 0
        assert not cache.fresh[0]
        check([0, 0, 1, 2, 3, 4, 5, 0])
        target = init_weights(spec, rng)    # a sync to new weights
        cache.fresh[:] = False
        check([2, 5, 0, 2])

    def test_train_uses_uncached_values(self, monkeypatch):
        # buffer smaller than the run, frequent syncs: slots are rewritten
        # and the cache is emptied many times
        env = make_env("mini-breakout", seed=5, max_steps=60)
        spec = build_scaled_dqn(env.state_shape, env.n_actions,
                                conv_filters=4, dense_hidden=16)
        original = training.double_q_target
        seen = {"calls": 0, "after_sync": 0, "computed": 0, "lookups": 0}

        def checked(batch, spec, online, target, gamma, cache=None):
            assert cache is not None
            seen["calls"] += 1
            seen["after_sync"] += not cache.fresh.any()
            seen["lookups"] += len(batch.slots)
            seen["computed"] += len(np.unique(batch.slots[~cache.fresh[batch.slots]]))
            y = original(batch, spec, online, target, gamma, cache)
            ref_q = forward_batch(spec, target, batch.next_states)
            np.testing.assert_allclose(cache.q[batch.slots], ref_q,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                y, original(batch, spec, online, target, gamma),
                rtol=0, atol=1e-12)
            return y

        monkeypatch.setattr(training, "double_q_target", checked)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.3)
            cfg = TrainingConfig(steps=600, min_buffer=64, batch_size=16,
                                 buffer_capacity=150, epsilon_decay_steps=300,
                                 target_sync=40, update_every=1)
            train(env.fork(5), spec, p, cfg, rng)
            runs.append(p.live.weights + p.live.biases)
        assert seen["calls"] == 2 * (600 - 63)
        assert seen["after_sync"] >= 2 * 13
        assert 0 < seen["computed"] < seen["lookups"]
        for a, b in zip(*runs):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


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

    @pytest.mark.parametrize("bad", [2, 9, -1, -2])
    def test_action_outside_outputs_is_rejected(self, bad):
        # a 2-output network: 9 would index past Q, and -2 would wrap round
        # to action 0 and train the wrong Q-value
        rng = np.random.default_rng(3)
        spec = tiny_spec()
        w = init_weights(spec, rng)
        states = rng.normal(size=(4, 2, 4, 4))
        actions = np.array([0, 1, bad, 1])
        with pytest.raises(ValueError, match=rf"action {bad} outside \[0, 2\)"):
            q_loss_and_grads(spec, w, states, actions, rng.normal(size=4))

    @pytest.mark.parametrize("shape, ky, kx, stride", [
        ((3, 4, 10, 10), 3, 3, 1),     # desk conv
        ((2, 2, 9, 9), 3, 3, 2),
        ((2, 3, 9, 9), 2, 3, 1),       # non-square kernel
        ((2, 3, 11, 10), 3, 2, 3),
        ((2, 2, 13, 12), 5, 4, 4),
        ((2, 1, 7, 7), 1, 1, 1),
        ((2, 4, 84, 84), 8, 8, 4),     # reference Conv2d-1
        ((2, 32, 20, 20), 4, 4, 2),    # reference Conv2d-2
    ])
    def test_im2col_matches_sliding_window(self, shape, ky, kx, stride):
        x = np.random.default_rng(4).normal(size=shape)
        cols = _im2col_batch(x, ky, kx, stride)
        ref = im2col_sliding_window(x, ky, kx, stride)
        assert cols.shape == ref.shape and cols.flags.c_contiguous
        assert np.array_equal(cols.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("make_spec", [
        tiny_spec, two_conv_spec, three_conv_spec,
        lambda: build_scaled_dqn((4, 10, 10), 3),
        lambda: build_reference_dqn(4),
    ])
    def test_blas_conv_products_match_einsum(self, make_spec):
        # multi-conv nets route the layer-0 gradients through dcols
        rng = np.random.default_rng(6)
        spec = make_spec()
        w = init_weights(spec, rng)
        b = 3
        states = rng.normal(size=(b, *spec.input_shape))
        q, caches = forward_batch(spec, w, states, want_caches=True)
        d_q = rng.normal(size=q.shape)
        gw, gb = backward_batch(spec, w, caches, d_q)
        rw, rb = backward_einsum(spec, w, caches, d_q)
        for got, ref in zip(gw + gb, rw + rb):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

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
    """The per-array update in Kingma & Ba's efficient form, as separate
    arrays."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        root_bc2 = np.sqrt(1.0 - b2 ** t)
        lr_t = lr * root_bc2 / (1.0 - b1 ** t)
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= lr_t * mi / (np.sqrt(vi) + eps * root_bc2)


def adam_textbook(params, grads_per_step, lr, b1, b2, eps):
    """The textbook per-array update, with bias-corrected moments."""
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
        opt = Adam(flat, lr=3e-3)
        for g in steps:
            opt.step(g)

        cuts = np.cumsum(sizes)[:-1]
        ref = np.split(start.copy(), cuts)
        adam_per_array(ref, [np.split(g, cuts) for g in steps],
                       lr=3e-3, b1=ADAM_BETA1, b2=ADAM_BETA2, eps=ADAM_EPS)
        ref = np.concatenate(ref)
        assert np.array_equal(flat.view(np.int64), ref.view(np.int64))
        assert np.all(flat[masked] == 0.0)
        assert opt.t == 50

    def test_efficient_form_matches_textbook(self):
        # the same 50 steps as above, against the three-division form
        rng = np.random.default_rng(8)
        sizes = [ADAM_CHUNK + 123, 2 * ADAM_CHUNK - 7, 5, 1000]
        n = sum(sizes)
        masked = rng.random(n) < 0.3
        start = rng.normal(size=n)
        start[masked] = 0.0
        steps = []
        for _ in range(50):
            g = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=n)
            g[masked] = 0.0
            steps.append(g)

        flat = start.copy()
        opt = Adam(flat, lr=3e-3)
        for g in steps:
            opt.step(g)

        cuts = np.cumsum(sizes)[:-1]
        ref = np.split(start.copy(), cuts)
        adam_textbook(ref, [np.split(g, cuts) for g in steps],
                      lr=3e-3, b1=ADAM_BETA1, b2=ADAM_BETA2, eps=ADAM_EPS)
        ref = np.concatenate(ref)
        assert not np.array_equal(flat, start)
        np.testing.assert_allclose(flat, ref, rtol=0, atol=1e-12)
        assert np.all(flat[masked] == 0.0) and np.all(ref[masked] == 0.0)

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
            # +0.0 bit for bit: only p.apply() and zero gradients keep them
            assert not np.signbit(w[~m]).any()
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
        loaded, _ = load_checkpoint(tmp_path / "p.ckpt")
        for a, b in zip(loaded.live.weights, p.live.weights):
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

    def test_run_sized_reserve_trains_the_same_bits(self, monkeypatch):
        # 400 steps with a capacity well above the run, equal to it, and
        # with a full-capacity buffer and cache forced in
        def run(capacity):
            env, spec, p, cfg, rng = self.make(seed=8)
            cfg.buffer_capacity = capacity
            res = train(env, spec, p, cfg, rng)
            return res, p.live.weights + p.live.biases

        runs = [run(5000), run(400)]
        with monkeypatch.context() as m:
            m.setattr(training, "ReplayBuffer",
                      lambda capacity, shape: ReplayBuffer(5000, shape))
            m.setattr(training, "TargetCache",
                      lambda capacity, n: TargetCache(5000, n))
            runs.append(run(5000))
        (ref, ref_arrays), *others = runs
        assert ref.gradient_steps > 0
        for res, arrays in others:
            assert res.gradient_steps == ref.gradient_steps
            assert np.float64(res.final_loss).tobytes() == \
                np.float64(ref.final_loss).tobytes()
            for a, b in zip(arrays, ref_arrays):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("capacity, steps, slots", [
        (20000, 300, 300), (150, 300, 150), (300, 300, 300), (20000, 0, 1)])
    def test_reserves_the_run_not_the_capacity(self, monkeypatch, capacity,
                                               steps, slots):
        made = []

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args):
                    super().__init__(*args)
                    made.append(self)
            return Recording

        monkeypatch.setattr(training, "ReplayBuffer", recording(ReplayBuffer))
        monkeypatch.setattr(training, "TargetCache", recording(TargetCache))
        env, spec, p, cfg, rng = self.make(seed=2, steps=steps)
        cfg.buffer_capacity = capacity
        train(env, spec, p, cfg, rng)
        buf, cache = made
        assert buf.capacity == slots and len(buf.frames) == 2 * slots
        assert cache.q.shape == (slots, env.n_actions)
        assert buf.size == min(steps, slots)

    @MISFITS
    def test_rejects_network_outputs_that_do_not_match_actions(
            self, monkeypatch, name, n_output, input_shape):
        env = make_env(name, seed=1, max_steps=60)
        spec = build_scaled_dqn(input_shape or env.state_shape, n_output,
                                conv_filters=4, dense_hidden=16)
        rng = np.random.default_rng(1)
        p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.3)
        cfg = TrainingConfig(steps=100, min_buffer=20, batch_size=8)
        before = [a.copy() for a in p.live.weights]
        played = _record_play(monkeypatch, env)
        with pytest.raises(ValueError, match=f"{n_output} outputs, env has "
                                             f"{env.n_actions} actions") as e:
            train(env, spec, p, cfg, rng)
        assert f"input {spec.input_shape}" in str(e.value)
        assert played == []
        for a, b in zip(p.live.weights, before):
            assert np.array_equal(a, b)

    def test_epsilon_schedule_linear(self):
        cfg = TrainingConfig(epsilon_start=1.0, epsilon_end=0.1,
                             epsilon_decay_steps=100)
        assert cfg.epsilon(0) == 1.0
        assert cfg.epsilon(50) == pytest.approx(0.55)
        assert cfg.epsilon(100) == pytest.approx(0.1)
        assert cfg.epsilon(500) == pytest.approx(0.1)


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
        if masked:
            rng = np.random.default_rng(4)
            for wk in w.weights:
                wk[rng.random(wk.shape) < 0.5] = 0.0
        res = evaluate(env.fork(3), spec, w, episodes=2)
        # independent rollout: the same greedy policy, steps counted by hand
        rollout = env.fork(3)
        t, rewards = 0, []
        for _ in range(2):
            state, done, total = rollout.reset(), False, 0.0
            while not done:
                state, r, done = rollout.step(int(np.argmax(
                    forward(spec, w, state))))
                total += r
                t += 1
            rewards.append(total)
        assert res.rewards == rewards
        c = res.counter
        assert c.timesteps == t
        # (4, 10, 10) -> conv 4x3x3 -> (4, 8, 8) -> 16 -> 3; pruned (zero)
        # weights never change the dense count
        assert c.layer_names == ("Input", "Conv2d-1", "Dense-1", "Dense-2")
        assert c.significant_multiplications.tolist() == \
            [0, 64 * 4 * 9 * 4 * t, 256 * 16 * t, 16 * 3 * t]
        assert c.events_sent.tolist() == [400 * t, 256 * t, 16 * t, 3 * t]

    def test_step_and_check_finite_hooks_see_every_delta_step(self,
                                                                monkeypatch):
        # the benchmark times delta evaluation by replacing DeltaNetwork.step
        # on the class and traces check_finite through the delta module
        from deltaq import delta
        calls = {"step": 0, "check_finite": 0}
        step, check_finite = delta.DeltaNetwork.step, delta.check_finite

        def counted_step(self, frame):
            calls["step"] += 1
            return step(self, frame)

        def counted_check_finite(arr):
            calls["check_finite"] += 1
            check_finite(arr)

        monkeypatch.setattr(delta.DeltaNetwork, "step", counted_step)
        env, spec, w = self.setup_pair(seed=13)
        n_arrays = len(w.weights) + len(w.biases)
        monkeypatch.setattr(delta, "check_finite", counted_check_finite)
        res = evaluate(env.fork(4), spec, w, episodes=2, mode="delta")
        t = res.counter.timesteps
        assert t > 0
        assert calls == {"step": t, "check_finite": n_arrays + t}

    @pytest.mark.parametrize("mode", ["dense", "delta"])
    @MISFITS
    def test_rejects_network_outputs_that_do_not_match_actions(
            self, monkeypatch, name, n_output, input_shape, mode):
        env = make_env(name, seed=1, max_steps=80)
        spec = build_scaled_dqn(input_shape or env.state_shape, n_output,
                                conv_filters=4, dense_hidden=16)
        w = init_weights(spec, np.random.default_rng(1))
        played = _record_play(monkeypatch, env)
        with pytest.raises(ValueError, match=f"{n_output} outputs, env has "
                                             f"{env.n_actions} actions") as e:
            evaluate(env, spec, w, episodes=2, mode=mode)
        assert f"input {spec.input_shape}" in str(e.value)
        assert played == []

    def test_episode_validation(self):
        env, spec, w = self.setup_pair(seed=13)
        with pytest.raises(ValueError):
            evaluate(env, spec, w, episodes=0)
