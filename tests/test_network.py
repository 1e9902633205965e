import numpy as np
import pytest

from deltaq.network import (LayerSpec, NetworkSpec, WeightSet,
                            build_reference_dqn, build_scaled_dqn, forward,
                            init_weights, static_network_multiplications)
from oracles import naive_forward


def small_random_net(rng, max_hw=8):
    """Random conv+dense chain with a small input, for oracle comparisons."""
    c = int(rng.integers(1, 4))
    h = int(rng.integers(4, max_hw + 1))
    w = int(rng.integers(4, max_hw + 1))
    k = int(rng.integers(1, min(h, w, 4) + 1))
    stride = int(rng.integers(1, k + 1))
    f = int(rng.integers(1, 6))
    conv = LayerSpec("conv2d", in_channels=c, out_filters=f, kernel_x=k,
                     kernel_y=k, stride=stride)
    oh, ow = conv.conv_output_hw(h, w)
    hidden = int(rng.integers(2, 12))
    n_out = int(rng.integers(2, 5))
    layers = (
        conv,
        LayerSpec("dense", in_size=f * oh * ow, out_size=hidden),
        LayerSpec("dense", in_size=hidden, out_size=n_out,
                  activation="identity"),
    )
    spec = NetworkSpec(layers=layers, input_shape=(c, h, w), n_output=n_out)
    return spec, init_weights(spec, rng)


class TestReferenceArchitecture:
    def test_parameter_counts(self):
        spec = build_reference_dqn(4)
        params = [l.param_count() for l in spec.layers]
        assert params == [8224, 32832, 36928, 1606144, 2052]

    def test_intermediate_shapes(self):
        spec = build_reference_dqn(4)
        assert spec.output_shapes() == [(32, 20, 20), (64, 9, 9), (64, 7, 7),
                                        (512,), (4,)]
        assert spec.layers[3].in_size == 3136

    def test_single_output(self):
        spec = build_reference_dqn(1)
        assert spec.layers[-1].out_size == 1
        assert spec.layers[-1].param_count() == 513

    def test_shape_chain_84_20_9_7(self):
        spec = build_reference_dqn(4)
        hw = [s[1] for s in spec.output_shapes()[:3]]
        assert hw == [20, 9, 7]


class TestForward:
    def test_zero_weights_zero_output(self):
        spec = build_scaled_dqn((2, 6, 6), 3, conv_filters=4)
        w = WeightSet([np.zeros(l.weight_shape()) for l in spec.layers],
                      [np.zeros(l.bias_shape()) for l in spec.layers])
        out = forward(spec, w, np.random.default_rng(0).random((2, 6, 6)))
        assert np.array_equal(out, np.zeros(3))

    def test_one_by_one_conv(self):
        conv = LayerSpec("conv2d", in_channels=1, out_filters=1, kernel_x=1,
                         kernel_y=1, stride=1, activation="identity")
        spec = NetworkSpec(layers=(conv,), input_shape=(1, 1, 1), n_output=1)
        w = WeightSet([np.array([[[[2.0]]]])], [np.array([1.0])])
        assert forward(spec, w, np.array([[[3.0]]])) == pytest.approx([7.0])

    def test_shape_mismatch_raises(self):
        spec = build_scaled_dqn((2, 6, 6), 3)
        w = init_weights(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(spec, w, np.zeros((2, 5, 5)))

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec, w = small_random_net(rng)
            x = rng.normal(size=spec.input_shape)
            fast = forward(spec, w, x)
            slow = naive_forward(spec, w, x)
            np.testing.assert_allclose(fast, slow, atol=1e-9)


class TestStaticCounts:
    def test_conv_layers_match_reference(self):
        assert build_reference_dqn(4).layer_multiplications()[:3] == [
            3276800, 2654208, 1806336]

    def test_degenerate_conv(self):
        layer = LayerSpec("conv2d", in_channels=1, out_filters=1, kernel_x=1,
                          kernel_y=1, stride=1)
        spec = NetworkSpec(layers=(layer,), input_shape=(1, 1, 1), n_output=1)
        assert spec.layer_multiplications() == [1]

    def test_dense_counts(self):
        for in_size, out_size, expected in [(3136, 512, 1605632),
                                            (512, 4, 2048), (1, 1, 1)]:
            spec = NetworkSpec(
                layers=(LayerSpec("dense", in_size=in_size, out_size=out_size),),
                input_shape=(1, 1, in_size), n_output=out_size)
            assert spec.layer_multiplications() == [expected]

    def test_network_total_is_row_sum(self):
        # the fixed per-layer counts sum to 9,345,024 exactly
        report = static_network_multiplications(build_reference_dqn(4))
        mults = [r.multiplications for r in report.rows]
        assert mults == [3276800, 2654208, 1806336, 0, 1605632, 2048]
        assert report.total_multiplications == sum(mults) == 9345024

    def test_network_total_n18(self):
        report = static_network_multiplications(build_reference_dqn(18))
        assert report.rows[-1].multiplications == 512 * 18 == 9216
        assert report.total_multiplications == 9342976 + 9216

    def test_empty_network(self):
        spec = NetworkSpec(layers=(), input_shape=(1, 1, 1), n_output=1)
        report = static_network_multiplications(spec)
        assert report.total_multiplications == 0

    def test_counts_ignore_weight_values(self):
        rng = np.random.default_rng(1)
        spec, _ = small_random_net(rng)
        r1 = static_network_multiplications(spec)
        r2 = static_network_multiplications(spec)
        assert r1 == r2  # pure function of shapes


class TestSpecValidation:
    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                layers=(LayerSpec("dense", in_size=10, out_size=2,
                                  activation="identity"),),
                input_shape=(1, 3, 3), n_output=2)

    def test_kernel_too_big_rejected(self):
        conv = LayerSpec("conv2d", in_channels=1, out_filters=1, kernel_x=5,
                         kernel_y=5, stride=1)
        with pytest.raises(ValueError):
            NetworkSpec(layers=(conv,), input_shape=(1, 3, 3), n_output=1)

    def test_weightset_validation(self):
        spec = build_scaled_dqn((2, 6, 6), 3)
        w = init_weights(spec, np.random.default_rng(0))
        w.validate(spec)
        bad = w.copy()
        bad.weights[0] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError):
            bad.validate(spec)
