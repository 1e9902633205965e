import numpy as np

from deltaq.tensorops import relu


def test_relu_definition():
    t = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu(t), [0.0, 0.0, 2.0])


def test_elementwise_matches_scalar_loop():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(3, 3))
    out = relu(t)
    for i in range(3):
        for j in range(3):
            assert out[i, j] == max(t[i, j], 0.0)
