import io

import numpy as np
import pytest

from deltaq import delta
from deltaq.config import parse_thresholds
from deltaq.delta import (DeltaNetwork, OpCounter, conv_event_costs,
                          measure_delta_sparsity)
from deltaq.network import (LayerSpec, NetworkSpec, WeightSet, conv2d_single,
                            build_reference_dqn, build_scaled_dqn, forward,
                            init_weights)
from oracles import naive_delta_run


def masked_forward(spec, weights, masks, x):
    w = weights.copy()
    if masks is not None:
        for k, m in enumerate(masks):
            w.weights[k][~m] = 0.0
    return forward(spec, w, x)


def random_net(rng, input_hw=(6, 6), channels=2, filters=3):
    spec = build_scaled_dqn((channels, *input_hw), 3, conv_filters=filters,
                            dense_hidden=8)
    w = init_weights(spec, rng)
    return spec, w


def random_masks(spec, rng, density=0.6):
    return [rng.random(l.weight_shape()) < density for l in spec.layers]


def dense_only_spec(n_in, n_out, activation="identity"):
    layers = (LayerSpec("dense", in_size=n_in, out_size=n_out,
                        activation=activation),)
    return NetworkSpec(layers=layers, input_shape=(1, 1, n_in), n_output=n_out)


class TestInitialization:
    def test_accumulator_starts_at_bias(self):
        rng = np.random.default_rng(0)
        spec, w = random_net(rng)
        for b in w.biases:
            b[:] = rng.normal(size=b.shape)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        for k, (layer, shape) in enumerate(zip(spec.layers,
                                               spec.output_shapes())):
            if layer.kind == "conv2d":
                expect = np.broadcast_to(w.biases[k].reshape(-1, 1, 1), shape)
            else:
                expect = w.biases[k]
            assert np.array_equal(dn.layers[k].o.reshape(shape), expect)
            assert np.array_equal(dn.layers[k].x,
                                  np.zeros_like(dn.layers[k].o))

    def test_zero_bias_all_state_zero(self):
        rng = np.random.default_rng(1)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        for st in dn.layers:
            assert np.array_equal(st.o, np.zeros_like(st.o))

    def test_first_frame_matches_dense_forward(self):
        rng = np.random.default_rng(2)
        spec, w = random_net(rng)
        for b in w.biases:
            b[:] = rng.normal(size=b.shape)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        frame = rng.normal(size=spec.input_shape)
        out = dn.step(frame)
        np.testing.assert_allclose(out, forward(spec, w, frame), atol=1e-9)

    def test_first_zero_frame_still_propagates_bias(self):
        rng = np.random.default_rng(3)
        spec, w = random_net(rng)
        for b in w.biases:
            b[:] = rng.normal(size=b.shape)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        frame = np.zeros(spec.input_shape)
        out = dn.step(frame)
        np.testing.assert_allclose(out, forward(spec, w, frame), atol=1e-9)

    def test_negative_threshold_rejected(self):
        rng = np.random.default_rng(4)
        spec, w = random_net(rng)
        with pytest.raises(ValueError):
            DeltaNetwork(spec, w, thresholds=-0.1)

    @pytest.mark.parametrize("case,match", [
        ("one-short", "one mask per layer"),
        ("one-too-many", "one mask per layer"),
        ("dense-wrong-shape", "layer 1: mask shape"),
        ("dense-transposed", "layer 2: mask shape"),
        ("conv-wrong-shape", "layer 0: mask shape"),
    ])
    def test_masks_must_match_layers(self, case, match):
        # one short raised a bare IndexError, one too many was accepted and
        # a misshaped dense mask failed inside numpy's indexing
        rng = np.random.default_rng(4)
        spec, w = random_net(rng)
        masks = random_masks(spec, rng)
        if case == "one-short":
            masks = masks[:-1]
        elif case == "one-too-many":
            masks = masks + [masks[-1]]
        elif case == "dense-wrong-shape":
            masks[1] = masks[1][:, :-1]
        elif case == "dense-transposed":
            masks[2] = masks[2].T
        else:
            masks[0] = masks[0][:, :, :-1]
        with pytest.raises(ValueError, match=match):
            DeltaNetwork(spec, w, thresholds=0.0, masks=masks)


class TestStep:
    def test_identical_frames_no_events_no_mults(self):
        rng = np.random.default_rng(5)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        frame = rng.normal(size=spec.input_shape)
        dn.step(frame)
        before = dn.counter.copy()
        dn.step(frame)
        assert dn.counter.events_sent[0] == before.events_sent[0]
        assert np.array_equal(dn.counter.significant_multiplications,
                              before.significant_multiplications)
        assert np.array_equal(dn.counter.events_sent, before.events_sent)

    def test_t0_tracks_masked_dense_forward(self):
        rng = np.random.default_rng(6)
        for trial in range(4):
            spec, w = random_net(rng)
            masks = random_masks(spec, rng) if trial % 2 else None
            dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks)
            frame = rng.normal(size=spec.input_shape)
            for t in range(60):
                # sparse frame updates, like consecutive video frames
                n_change = int(rng.integers(0, 8))
                pos = rng.integers(0, frame.size, size=n_change)
                frame.ravel()[pos] = rng.normal(size=n_change)
                out = dn.step(frame)
                np.testing.assert_allclose(
                    out, masked_forward(spec, w, masks, frame), atol=1e-6)

    def test_single_pixel_dense_mult_count(self):
        rng = np.random.default_rng(7)
        n_in, n_out = 10, 7
        spec = dense_only_spec(n_in, n_out)
        w = WeightSet([rng.normal(size=(n_out, n_in))], [np.zeros(n_out)])
        masks = [rng.random((n_out, n_in)) < 0.5]
        dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks)
        dn.step(np.zeros(spec.input_shape))
        assert dn.counter.total_multiplications() == 0
        frame = np.zeros(spec.input_shape)
        pixel = 4
        frame.ravel()[pixel] = 1.0
        dn.step(frame)
        expected = int(np.count_nonzero(
            np.where(masks[0], w.weights[0], 0.0)[:, pixel]))
        assert dn.counter.total_multiplications() == expected

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w)
        with pytest.raises(ValueError):
            dn.step(np.zeros((1, 2, 3)))

    def test_all_false_mask_means_zero_mults_in_layer(self):
        rng = np.random.default_rng(9)
        spec, w = random_net(rng)
        masks = [np.ones(l.weight_shape(), dtype=bool) for l in spec.layers]
        masks[1][:] = False
        dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks)
        for _ in range(5):
            dn.step(rng.normal(size=spec.input_shape))
        assert dn.counter.significant_multiplications[2] == 0
        assert dn.counter.significant_multiplications[1] > 0


class TestCountingOracle:
    def test_counts_and_outputs_match_per_event_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            spec, w = random_net(rng, input_hw=(5, 5), channels=2, filters=2)
            for b in w.biases:
                b[:] = rng.normal(size=b.shape) * 0.1
            masks = random_masks(spec, rng, density=0.5)
            t_val = float(rng.choice([0.0, 0.05, 0.3]))
            frames = []
            frame = rng.normal(size=spec.input_shape)
            for _ in range(6):
                pos = rng.integers(0, frame.size, size=int(rng.integers(0, 6)))
                frame.ravel()[pos] = rng.normal(size=pos.size)
                frames.append(frame.copy())
            dn = DeltaNetwork(spec, w, thresholds=t_val, masks=masks)
            outs = [dn.step(f) for f in frames]
            ref = naive_delta_run(spec, w, masks, t_val, frames)
            assert dn.counter.significant_multiplications[1:].tolist() == ref.mults
            assert dn.counter.events_sent.tolist() == ref.events_sent
            for got, want in zip(outs, ref.outputs):
                np.testing.assert_allclose(got, want, atol=1e-9)


class TestInvariants:
    def test_state_conservation_via_event_log(self):
        rng = np.random.default_rng(11)
        spec, w = random_net(rng, input_hw=(5, 5))
        for b in w.biases:
            b[:] = rng.normal(size=b.shape) * 0.1
        trace = io.StringIO()
        dn = DeltaNetwork(spec, w, thresholds=0.02, trace=trace)
        frame = rng.normal(size=spec.input_shape)
        for _ in range(10):
            pos = rng.integers(0, frame.size, size=3)
            frame.ravel()[pos] = rng.normal(size=3)
            dn.step(frame)
        # replay the log: per layer, sum the deltas received from upstream
        labels = ["Input"] + spec.layer_names()
        sizes = [int(np.prod(spec.input_shape))] + \
                [int(np.prod(s)) for s in spec.output_shapes()]
        received = {lab: np.zeros(n) for lab, n in zip(labels, sizes)}
        lines = trace.getvalue().splitlines()
        for line in lines:
            t, lab, idx, d = line.split("\t")
            received[lab][int(idx)] += float(d)
        # one line per event sent, on every row
        per_row = [sum(line.split("\t")[1] == lab for line in lines)
                   for lab in labels]
        assert per_row == dn.counter.events_sent.tolist()
        shapes = [spec.input_shape] + spec.output_shapes()
        for k, layer in enumerate(spec.layers):
            rcv = received[labels[k]].reshape(shapes[k])
            if layer.kind == "conv2d":
                expect = conv2d_single(rcv, dn.layers[k].w, w.biases[k],
                                       layer.stride)
            else:
                expect = dn.layers[k].w.T @ rcv.ravel() + w.biases[k]
            np.testing.assert_allclose(dn.layers[k].o, expect.ravel(), atol=1e-9)
        # and the transmitted values equal the cumulative sent deltas
        for k in range(len(spec.layers)):
            np.testing.assert_allclose(
                dn.layers[k].x, received[labels[k + 1]], atol=1e-9)

    def test_input_events_monotone_in_input_threshold(self):
        rng = np.random.default_rng(18)
        spec, w = random_net(rng)
        frames = []
        frame = rng.normal(size=spec.input_shape)
        for _ in range(20):
            pos = rng.integers(0, frame.size, size=4)
            frame.ravel()[pos] = rng.normal(size=4)
            frames.append(frame.copy())
        sent = []
        for t_val in (0.0, 0.01, 0.1, 1.0):
            dn = DeltaNetwork(spec, w, thresholds=t_val)
            for f in frames:
                dn.step(f)
            sent.append(int(dn.counter.events_sent[0]))
        assert sent == sorted(sent, reverse=True)

    def test_determinism(self):
        rng = np.random.default_rng(13)
        spec, w = random_net(rng)
        masks = random_masks(spec, rng)
        frames = [rng.normal(size=spec.input_shape) for _ in range(8)]

        def run():
            dn = DeltaNetwork(spec, w, thresholds=0.01, masks=masks)
            outs = [dn.step(f) for f in frames]
            return outs, dn.counter

        o1, c1 = run()
        o2, c2 = run()
        for a, b in zip(o1, o2):
            assert np.array_equal(a, b)
        assert np.array_equal(c1.significant_multiplications,
                              c2.significant_multiplications)
        assert np.array_equal(c1.events_sent, c2.events_sent)

    def test_counters_nonnegative_and_monotone(self):
        rng = np.random.default_rng(14)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w, thresholds=0.01)
        prev = dn.counter.copy()
        for _ in range(6):
            dn.step(rng.normal(size=spec.input_shape))
            assert (dn.counter.significant_multiplications
                    >= prev.significant_multiplications).all()
            assert (dn.counter.events_sent >= prev.events_sent).all()
            assert dn.counter.timesteps == prev.timesteps + 1
            prev = dn.counter.copy()

    def test_hysteresis_residual_bounded(self):
        rng = np.random.default_rng(15)
        spec, w = random_net(rng)
        t_val = 0.05
        dn = DeltaNetwork(spec, w, thresholds=t_val)
        frame = rng.normal(size=spec.input_shape)
        for _ in range(20):
            pos = rng.integers(0, frame.size, size=5)
            frame.ravel()[pos] = rng.normal(size=5)
            dn.step(frame)
        for k, layer in enumerate(spec.layers):
            st = dn.layers[k]
            act = np.maximum(st.o, 0.0) if layer.activation == "relu" else st.o
            assert np.all(np.abs(act - st.x) < t_val)


class TestSparsityMeasure:
    def test_extremes_and_synthetic(self):
        spec = dense_only_spec(10, 100)
        ctr = OpCounter(spec.layer_names())
        ctr.timesteps = 10
        with np.errstate(all="raise"):
            sp = measure_delta_sparsity(ctr, spec)
        assert sp["Dense-1"] == 1.0  # nothing ever sent
        ctr.events_sent[1] = 100 * 10
        assert measure_delta_sparsity(ctr, spec)["Dense-1"] == 0.0
        ctr.events_sent[1] = 10  # one of 100 neurons, each of 10 steps
        assert measure_delta_sparsity(ctr, spec)["Dense-1"] == pytest.approx(0.99)

    def test_zero_timesteps_error(self):
        spec = dense_only_spec(4, 4)
        with pytest.raises(ValueError):
            measure_delta_sparsity(OpCounter(spec.layer_names()), spec)


class TestCounterMerge:
    def test_merge_adds(self):
        spec = dense_only_spec(4, 4)
        a, b = OpCounter(spec.layer_names()), OpCounter(spec.layer_names())
        a.significant_multiplications[1] = 5
        a.timesteps = 2
        b.significant_multiplications[1] = 7
        b.timesteps = 3
        a.merge(b)
        assert a.significant_multiplications[1] == 12
        assert a.timesteps == 5

    def test_merge_rejects_mismatch(self):
        a = OpCounter(["Dense-1"])
        b = OpCounter(["Dense-1", "Dense-2"])
        with pytest.raises(ValueError):
            a.merge(b)


class TestResync:
    def test_resync_restores_exact_state(self):
        rng = np.random.default_rng(16)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w, thresholds=0.01)
        frame = rng.normal(size=spec.input_shape)
        for _ in range(15):
            pos = rng.integers(0, frame.size, size=4)
            frame.ravel()[pos] = rng.normal(size=4)
            dn.step(frame)
        before = [st.o.copy() for st in dn.layers]
        dn.resync()
        for st, b in zip(dn.layers, before):
            np.testing.assert_allclose(st.o, b, atol=1e-9)


class TestEventCosts:
    def test_interior_and_border_costs(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(3, 2, 3, 3))
        w[np.abs(w) < 0.5] = 0.0
        costs = conv_event_costs(w, (2, 6, 6), stride=1)
        # brute-force check each position
        for c in range(2):
            for y in range(6):
                for x in range(6):
                    n = 0
                    for oy in range(4):
                        for ox in range(4):
                            ky, kx = y - oy, x - ox
                            if 0 <= ky < 3 and 0 <= kx < 3:
                                n += int(np.count_nonzero(w[:, c, ky, kx]))
                    assert costs[c, y, x] == n


class TestNonFinite:
    def test_nonfinite_weight_or_bias_rejected(self):
        rng = np.random.default_rng(19)
        spec, w = random_net(rng)
        bad = w.copy()
        bad.weights[0][1, 0, 2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DeltaNetwork(spec, bad, thresholds=0.0)
        bad = w.copy()
        bad.biases[1][3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            DeltaNetwork(spec, bad, thresholds=0.0)

    def test_nonfinite_frame_rejected(self):
        rng = np.random.default_rng(20)
        spec, w = random_net(rng)
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        frame = rng.normal(size=spec.input_shape)
        dn.step(frame)
        frame[0, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dn.step(frame)

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.str_])
    def test_non_real_frame_rejected(self, dtype):
        # a complex frame was cast to float64 with only a ComplexWarning;
        # the dense pass and the engine take the same frames
        spec, w = random_net(np.random.default_rng(20))
        dn = DeltaNetwork(spec, w, thresholds=0.0)
        frame = np.ones(spec.input_shape, dtype=dtype)
        with pytest.raises(TypeError, match="real numbers"):
            dn.step(frame)
        assert dn.counter.timesteps == 0
        with pytest.raises(TypeError, match="real numbers"):
            forward(spec, w, frame)

    @pytest.mark.parametrize("kwargs", [
        {"thresholds": np.nan}, {"thresholds": np.inf},
    ])
    def test_nonfinite_threshold_rejected(self, kwargs):
        # a NaN gate never fires: the engine would return zeros forever
        spec, w = random_net(np.random.default_rng(21))
        with pytest.raises(ValueError, match="finite"):
            DeltaNetwork(spec, w, **kwargs)

    @pytest.mark.parametrize("text", ["nan", "inf", "-1e-3"])
    def test_config_and_engine_share_the_threshold_rule(self, text):
        spec, w = random_net(np.random.default_rng(21))
        with pytest.raises(ValueError) as from_config:
            parse_thresholds(text)
        with pytest.raises(ValueError) as from_engine:
            DeltaNetwork(spec, w, thresholds=float(text))
        assert str(from_config.value) == str(from_engine.value)
        assert "finite and >= 0" in str(from_engine.value)

    @pytest.mark.parametrize("thresholds", [[0.0] * 5, (0.001,), np.zeros(1),
                                            True])
    def test_sequence_threshold_rejected(self, thresholds):
        # one threshold gates the input and every layer
        spec, w = random_net(np.random.default_rng(21))
        with pytest.raises(TypeError, match="one real number"):
            DeltaNetwork(spec, w, thresholds=thresholds)


def conv(c, f, ky, kx, stride, activation="relu"):
    return LayerSpec("conv2d", in_channels=c, out_filters=f, kernel_y=ky,
                     kernel_x=kx, stride=stride, activation=activation)


def dense(n_in, n_out, activation="relu"):
    return LayerSpec("dense", in_size=n_in, out_size=n_out,
                     activation=activation)


# conv geometries beyond build_scaled_dqn: several conv layers, strides
# 2, 3 and 4, non-square kernels, a stride larger than its kernel (some
# inputs feed nothing) and identity activations between relu layers. A conv
# whose in_channels exceed its ceil(Ky/s)*ceil(Kx/s) footprint slots looks
# its events up per spatial position, the others per event; every spec but
# 2conv-s4-nonsquare and conv-count-cutoff has one of each kind
SWEEP_SPECS = {
    "3conv-s2-nonsquare": NetworkSpec(
        layers=(conv(2, 3, 4, 3, 2), conv(3, 4, 2, 3, 1, "identity"),
                conv(4, 3, 2, 2, 2), dense(6, 5), dense(5, 3, "identity")),
        input_shape=(2, 13, 11), n_output=3),
    "2conv-s4-nonsquare": NetworkSpec(
        layers=(conv(1, 2, 5, 6, 4), conv(2, 3, 2, 2, 1, "identity"),
                dense(18, 4), dense(4, 2, "identity")),
        input_shape=(1, 17, 17), n_output=2),
    "2conv-stride-over-kernel": NetworkSpec(
        layers=(conv(2, 3, 2, 3, 3), conv(3, 2, 3, 1, 1, "identity"),
                dense(6, 3, "identity")),
        input_shape=(2, 10, 10), n_output=3),
    # both convs have more channels than slots (5 > 4, then 6 > 1), and its
    # stream changes every input channel at the positions it touches
    "2conv-channels-over-slots": NetworkSpec(
        layers=(conv(5, 6, 3, 3, 2), conv(6, 3, 2, 2, 2), dense(12, 4),
                dense(4, 2, "identity")),
        input_shape=(5, 11, 9), n_output=2),
    # 162 inputs, so a step can send its conv more events than
    # delta.PYTHON_SUM_BELOW as well as fewer (burst_stream)
    "conv-count-cutoff": NetworkSpec(
        layers=(conv(2, 4, 3, 3, 1), dense(196, 6), dense(6, 3, "identity")),
        input_shape=(2, 9, 9), n_output=3),
}
WHOLE_COLUMN_STREAMS = {"2conv-channels-over-slots"}


def sweep_stream(rng, shape, n_frames=7, whole_columns=False):
    """A random first frame, then frames that each change 0-7 random
    entries or, with whole_columns, every channel at 0-3 random (y, x)."""
    frames = []
    frame = rng.normal(size=shape)
    for _ in range(n_frames):
        if whole_columns:
            at = rng.integers(0, shape[1] * shape[2], size=int(rng.integers(0, 4)))
            pos = (np.arange(shape[0])[:, None] * shape[1] * shape[2] + at).ravel()
        else:
            pos = rng.integers(0, frame.size, size=int(rng.integers(0, 8)))
        frame.ravel()[pos] = rng.normal(size=pos.size)
        frames.append(frame.copy())
    return frames


def burst_stream(rng, shape, n_frames=12):
    """A random first frame, then frames that change 1-3 random entries and
    100-140 random entries in turn."""
    frames, frame = [], rng.normal(size=shape)
    for i in range(n_frames):
        n = int(rng.integers(100, 141) if i % 2 else rng.integers(1, 4))
        pos = rng.choice(frame.size, size=n, replace=False)
        frame.ravel()[pos] = rng.normal(size=n)
        frames.append(frame.copy())
    return frames


class TestGeometrySweep:
    @pytest.mark.parametrize("t_val", [0.0, 0.05])
    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_matches_per_event_oracle(self, name, t_val):
        spec = SWEEP_SPECS[name]
        rng = np.random.default_rng([21, sorted(SWEEP_SPECS).index(name)])
        for trial in range(3):
            w = init_weights(spec, rng)
            for b in w.biases:
                b[:] = rng.normal(size=b.shape) * 0.1
            masks = random_masks(spec, rng, density=0.6)
            frames = sweep_stream(rng, spec.input_shape,
                                  whole_columns=name in WHOLE_COLUMN_STREAMS)
            dn = DeltaNetwork(spec, w, thresholds=t_val, masks=masks)
            outs = [dn.step(f) for f in frames]
            ref = naive_delta_run(spec, w, masks, t_val, frames)
            ctr = dn.counter
            assert ctr.significant_multiplications[0] == 0
            assert ctr.significant_multiplications[1:].tolist() == ref.mults
            assert ctr.events_sent[:-1].tolist() == ref.events_received
            assert ctr.events_sent.tolist() == ref.events_sent
            assert ctr.timesteps == len(frames)
            for got, want in zip(outs, ref.outputs):
                np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("t_val", [0.0, 0.05])
    def test_count_cutoff_and_single_block_match_oracle(self, t_val):
        # the masked conv counts some steps' events with a Python sum and
        # others' with numpy's; a dense layer whose fired rows fit in one
        # block adds them as one product
        spec = SWEEP_SPECS["conv-count-cutoff"]
        rng = np.random.default_rng(26)
        for trial in range(3):
            w = init_weights(spec, rng)
            masks = random_masks(spec, rng, density=0.6)
            frames = burst_stream(rng, spec.input_shape)
            dn = DeltaNetwork(spec, w, thresholds=t_val, masks=masks)
            assert dn.layers[0].cost is None
            received, outs = [], []
            for f in frames:
                before = dn.counter.events_sent[:-1].copy()
                outs.append(dn.step(f))
                received.append(dn.counter.events_sent[:-1] - before)
            conv_in = [int(r[0]) for r in received[1:]]
            assert any(0 < n < delta.PYTHON_SUM_BELOW for n in conv_in)
            assert any(n >= delta.PYTHON_SUM_BELOW for n in conv_in)
            assert any(0 < r[k] <= L.block_rows
                       for r in received
                       for k, L in enumerate(dn.layers) if not L.conv)
            ref = naive_delta_run(spec, w, masks, t_val, frames)
            ctr = dn.counter
            assert ctr.significant_multiplications[1:].tolist() == ref.mults
            assert ctr.events_sent.tolist() == ref.events_sent
            for got, want in zip(outs, ref.outputs):
                np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("name", sorted(SWEEP_SPECS))
    def test_t0_matches_masked_dense_forward(self, name):
        spec = SWEEP_SPECS[name]
        rng = np.random.default_rng([22, sorted(SWEEP_SPECS).index(name)])
        w = init_weights(spec, rng)
        masks = random_masks(spec, rng)
        dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks)
        for f in sweep_stream(rng, spec.input_shape, n_frames=30,
                              whole_columns=name in WHOLE_COLUMN_STREAMS):
            np.testing.assert_allclose(
                dn.step(f), masked_forward(spec, w, masks, f), atol=1e-9)


class TestLongHorizonDrift:
    DRIFT_BOUND = 1e-10  # largest |o - resync(o)| per layer after 2,000 steps

    def test_accumulators_stay_near_resync(self):
        spec = SWEEP_SPECS["3conv-s2-nonsquare"]
        rng = np.random.default_rng(23)
        w = init_weights(spec, rng)
        for b in w.biases:
            b[:] = rng.normal(size=b.shape) * 0.1
        dn = DeltaNetwork(spec, w, thresholds=1e-3, masks=random_masks(spec, rng))
        frame = rng.normal(size=spec.input_shape)
        for _ in range(2000):
            pos = rng.integers(0, frame.size, size=6)
            frame.ravel()[pos] = rng.normal(size=6)
            dn.step(frame)
        assert dn.counter.events_sent[1:].min() > 1000  # every layer is busy
        drifted = [st.o.copy() for st in dn.layers]
        dn.resync()
        for k, (st, o) in enumerate(zip(dn.layers, drifted)):
            gap = float(np.abs(st.o - o).max())
            assert gap <= self.DRIFT_BOUND, (spec.layer_names()[k], gap)


def brute_force_costs(w, in_shape, stride):
    f, c, ky, kx = w.shape
    _, h, wd = in_shape
    out_h, out_w = (h - ky) // stride + 1, (wd - kx) // stride + 1
    costs = np.zeros(in_shape, dtype=np.int64)
    for ci in range(c):
        for y in range(h):
            for x in range(wd):
                for oy in range(out_h):
                    for ox in range(out_w):
                        dy, dx = y - oy * stride, x - ox * stride
                        if 0 <= dy < ky and 0 <= dx < kx:
                            costs[ci, y, x] += np.count_nonzero(w[:, ci, dy, dx])
    return costs


class TestStridedEventCosts:
    @pytest.mark.parametrize("w_shape,in_shape,stride", [
        ((3, 2, 3, 3), (2, 7, 7), 2),
        ((2, 3, 4, 3), (3, 11, 9), 2),
        ((4, 1, 8, 5), (1, 20, 17), 4),
        ((2, 2, 2, 3), (2, 10, 10), 3),
    ])
    def test_costs_match_brute_force(self, w_shape, in_shape, stride):
        rng = np.random.default_rng(24)
        w = rng.normal(size=w_shape)
        w[np.abs(w) < 0.5] = 0.0
        costs = conv_event_costs(w, in_shape, stride=stride)
        assert np.array_equal(costs, brute_force_costs(w, in_shape, stride))


def fired_per_step(dn, frames, k):
    """Step dn through frames; per step, the events layer k received."""
    counts = []
    for f in frames:
        before = int(dn.counter.events_sent[k])
        dn.step(f)
        counts.append(int(dn.counter.events_sent[k]) - before)
    return counts


class TestDensePathChoice:
    # Dense-1 gathers its fired rows at every fired fraction: 2-20 of its 40
    # inputs fire on some steps, 25-36 (over 55%) on others and all 40 can
    # on the first frame. The rows fit in one block unless a test shrinks it
    SPEC = NetworkSpec(layers=(dense(40, 12), dense(12, 3, "identity")),
                       input_shape=(1, 1, 40), n_output=3)

    def stream(self, rng):
        frames, frame = [], rng.normal(size=self.SPEC.input_shape)
        for n in (3, 30, 2, 36, 4, 20, 3, 25, 0, 33):
            pos = rng.choice(frame.size, size=n, replace=False)
            frame.ravel()[pos] += rng.normal(size=n)
            frames.append(frame.copy())
        return frames

    @pytest.mark.parametrize("t_val", [0.0, 0.05])
    def test_every_fired_fraction_matches_per_event_oracle(self, t_val):
        self.check_against_oracle(t_val)

    @pytest.mark.parametrize("t_val", [0.0, 0.05])
    def test_multi_block_gathers_match_per_event_oracle(self, t_val,
                                                         monkeypatch):
        # two weight rows per block: a gather of 6 or more fired rows spans
        # at least 3 blocks
        monkeypatch.setattr(delta, "DENSE_BLOCK_BYTES", 2 * 12 * 8)
        self.check_against_oracle(t_val, block_rows=2)

    @pytest.mark.parametrize("t_val", [0.0, 0.05])
    @pytest.mark.parametrize("masking", ["all-true", "one-row-partly"])
    def test_equal_and_uneven_costs_match_per_event_oracle(self, t_val,
                                                           masking):
        # with all-true masks every row of both layers costs the same, and
        # a step counts events times that cost; masking part of one Dense-1
        # row makes its costs uneven, and Dense-1 sums them again
        def masks_of(rng):
            masks = [np.ones(l.weight_shape(), dtype=bool)
                     for l in self.SPEC.layers]
            if masking == "one-row-partly":
                masks[0][:5, 7] = False
            return masks
        uniform = ([True, True] if masking == "all-true" else [False, True])
        self.check_against_oracle(t_val, masks_of=masks_of, uniform=uniform)

    def check_against_oracle(self, t_val, block_rows=None, masks_of=None,
                             uniform=None):
        spec = self.SPEC
        rng = np.random.default_rng(25)
        for trial in range(3):
            w = init_weights(spec, rng)
            for b in w.biases:
                b[:] = rng.normal(size=b.shape) * 0.1
            masks = (random_masks(spec, rng, density=0.6) if masks_of is None
                     else masks_of(rng))
            frames = [rng.normal(size=spec.input_shape)] + self.stream(rng)
            dn = DeltaNetwork(spec, w, thresholds=t_val, masks=masks)
            if uniform is not None:
                assert [L.cost is not None for L in dn.layers] == uniform
            fired = fired_per_step(dn, frames, 0)[1:]
            fractions = [n / 40 for n in fired]
            assert any(0 < f <= 0.55 for f in fractions)
            assert any(f > 0.55 for f in fractions)
            if block_rows is not None:
                assert dn.layers[0].block_rows == block_rows
                assert any(n >= 3 * block_rows for n in fired)
            ref = naive_delta_run(spec, w, masks, t_val, frames)
            ctr = dn.counter
            assert ctr.significant_multiplications[0] == 0
            assert ctr.significant_multiplications[1:].tolist() == ref.mults
            assert ctr.events_sent[:-1].tolist() == ref.events_received
            assert ctr.events_sent.tolist() == ref.events_sent
            dn.reset_state()
            for f, want in zip(frames, ref.outputs):
                np.testing.assert_allclose(dn.step(f), want, atol=1e-9)


class TestMaskedFilterStaysSilent:
    def test_no_events_from_filter_masked_on_every_fired_column(self):
        # after the first frame only channel 0 changes, and filter 1 has
        # every channel-0 weight masked: its block products are exact zeros
        spec = NetworkSpec(
            layers=(conv(2, 3, 3, 3, 1), dense(75, 4, "identity")),
            input_shape=(2, 7, 7), n_output=4)
        rng = np.random.default_rng(26)
        w = init_weights(spec, rng)
        w.biases[0][:] = rng.normal(size=3) * 0.1
        masks = random_masks(spec, rng, density=0.8)
        masks[0][1, 0] = False
        frames = [rng.normal(size=spec.input_shape)]
        for _ in range(12):
            frame = frames[-1].copy()
            pos = rng.choice(49, size=int(rng.integers(1, 10)), replace=False)
            frame[0].ravel()[pos] = rng.normal(size=pos.size)
            frames.append(frame)
        log = io.StringIO()
        dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks, trace=log)
        outs = [dn.step(f) for f in frames]
        conv_events = [line.split("\t") for line in log.getvalue().splitlines()
                       if line.split("\t")[1] == "Conv2d-1"]
        later = [int(i) for t, _, i, _ in conv_events if int(t) > 0]
        assert later and not any(25 <= i < 50 for i in later)
        ref = naive_delta_run(spec, w, masks, 0.0, frames)
        assert dn.counter.significant_multiplications[1:].tolist() == ref.mults
        assert dn.counter.events_sent[:-1].tolist() == ref.events_received
        assert dn.counter.events_sent.tolist() == ref.events_sent
        for got, want in zip(outs, ref.outputs):
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestReferenceGeometry:
    def test_t0_matches_masked_dense_forward(self):
        # the reference DQN on 10x10 frames upscaled in 8x8 blocks: Conv2d-2
        # and Conv2d-3 look events up per spatial position, Conv2d-1 per
        # event, and Dense-1 gathers its fired rows in several blocks
        spec = build_reference_dqn(4)
        rng = np.random.default_rng(27)
        w = init_weights(spec, rng)
        masks = [rng.random(l.weight_shape()) < 0.6 if l.kind == "conv2d"
                 else np.ones(l.weight_shape(), dtype=bool) for l in spec.layers]
        small = rng.random((4, 10, 10))
        frames = []
        for _ in range(4):
            pos = rng.choice(small.size, size=6, replace=False)
            small.ravel()[pos] = rng.random(6)
            frames.append(np.pad(np.kron(small, np.ones((8, 8))),
                                 ((0, 0), (2, 2), (2, 2))))
        dn = DeltaNetwork(spec, w, thresholds=0.0, masks=masks)
        assert [L.seen is not None for L in dn.layers[:3]] == [False, True, True]
        fired = []
        for f in frames:
            before = int(dn.counter.events_sent[3])
            np.testing.assert_allclose(
                dn.step(f), masked_forward(spec, w, masks, f), atol=1e-9)
            fired.append(int(dn.counter.events_sent[3]) - before)
        dense1 = dn.layers[3]
        assert any(n > dense1.block_rows for n in fired[1:])
