import hashlib
import json
import math

import numpy as np
import pytest

from deltaq.checkpoint import CheckpointError, load_checkpoint, save_prunable
from deltaq.network import (LayerSpec, NetworkSpec, WeightSet,
                            build_scaled_dqn, init_weights)
from deltaq.pruning import PrunableWeights, prune_step


@pytest.fixture
def setup(tmp_path):
    rng = np.random.default_rng(0)
    spec = build_scaled_dqn((3, 8, 8), 4, conv_filters=5)
    w = init_weights(spec, rng)
    return tmp_path, spec, w, rng


def save_unpruned(path, spec, w, extra=None):
    """Checkpoint `w` as a network no pruning step has touched yet."""
    save_prunable(path, PrunableWeights.create(spec, w, rate=0.2), extra=extra)


def test_roundtrip_weights_bitwise(setup):
    tmp, spec, w, _ = setup
    path = tmp / "a.ckpt"
    save_unpruned(path, spec, w, extra={"note": "x"})
    p, meta = load_checkpoint(path)
    assert p.spec == spec
    assert all(m.all() for m in p.masks) and p.iteration == 0
    assert meta == {"note": "x"}
    for a, b in zip(p.live.weights, w.weights):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    for a, b in zip(p.live.biases, w.biases):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_roundtrip_prunable(setup):
    tmp, spec, w, rng = setup
    p = PrunableWeights.create(spec, w, rate=0.25)
    prune_step(p)
    for lw in p.live.weights:
        lw += rng.normal(size=lw.shape) * (lw != 0)
    path = tmp / "b.ckpt"
    save_prunable(path, p, extra={"env": "mini-breakout"})
    loaded, meta = load_checkpoint(path)
    assert (loaded.iteration, loaded.rate, loaded.scope) == (1, 0.25, p.scope)
    assert meta == {"env": "mini-breakout"}
    for m1, m2 in zip(p.masks, loaded.masks):
        assert np.array_equal(m1, m2)
    for a, b in zip(loaded.live.weights, p.live.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.initial.weights, p.initial.weights):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_bad_magic_and_truncation(setup):
    tmp, spec, w, _ = setup
    path = tmp / "c.ckpt"
    save_unpruned(path, spec, w)
    raw = path.read_bytes()
    (tmp / "bad1.ckpt").write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp / "bad1.ckpt")
    (tmp / "bad2.ckpt").write_bytes(raw + b"\x00" * 7)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp / "bad2.ckpt")


def test_version_tag_enforced(setup):
    tmp, spec, w, _ = setup
    path = tmp / "d.ckpt"
    save_unpruned(path, spec, w)
    raw = bytearray(path.read_bytes())
    raw[8:12] = np.uint32(99).tobytes()
    (tmp / "v99.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp / "v99.ckpt")


def test_file_bytes_deterministic(setup):
    tmp, spec, w, _ = setup
    save_unpruned(tmp / "x1.ckpt", spec, w, extra={"k": 1})
    save_unpruned(tmp / "x2.ckpt", spec, w, extra={"k": 1})
    assert (tmp / "x1.ckpt").read_bytes() == (tmp / "x2.ckpt").read_bytes()


def test_truncation_names_the_path(setup):
    tmp, spec, w, _ = setup
    path = tmp / "t.ckpt"
    save_unpruned(path, spec, w, extra={"note": "x" * 40})
    raw = path.read_bytes()
    hlen = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    cuts = {"prefix": 10, "header": 16 + hlen // 2,
            "payload-start": 16 + hlen + 3, "payload-end": len(raw) - 5}
    for where, n in cuts.items():
        cut = tmp / f"cut-{where}.ckpt"
        cut.write_bytes(raw[:n])
        with pytest.raises(CheckpointError, match="truncated") as err:
            load_checkpoint(cut)
        assert str(cut) in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_values_rejected(setup, bad):
    tmp, spec, w, _ = setup
    weights = w.copy()
    weights.weights[1][2, 3] = bad
    save_unpruned(tmp / "w.ckpt", spec, weights)
    biases = w.copy()
    biases.biases[0][1] = bad
    save_unpruned(tmp / "b.ckpt", spec, biases)
    p = PrunableWeights.create(spec, w, rate=0.2)
    p.initial.weights[0][0, 0, 1, 1] = bad
    save_prunable(tmp / "i.ckpt", p)
    for name in ("w.ckpt", "b.ckpt", "i.ckpt"):
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(tmp / name)


def test_live_weight_under_false_mask_rejected(setup):
    tmp, spec, w, rng = setup
    p = PrunableWeights.create(spec, w, rate=0.2)
    p.masks = [rng.random(l.weight_shape()) < 0.5 for l in spec.layers]
    save_prunable(tmp / "ok.ckpt", p)  # zeroes the masked live weights
    load_checkpoint(tmp / "ok.ckpt")
    # the writer never leaves a nonzero weight under a False mask, so
    # write one into the payload: Dense-2's live weights follow the
    # header and the live weights and biases of the two layers before it
    raw = bytearray((tmp / "ok.ckpt").read_bytes())
    hlen = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    k = int(np.flatnonzero(~p.masks[2])[0])
    at = 16 + hlen + 8 * (sum(l.param_count() for l in spec.layers[:2]) + k)
    assert raw[at:at + 8] == bytes(8)
    raw[at:at + 8] = np.float64(0.25).tobytes()
    (tmp / "dirty.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="False mask") as err:
        load_checkpoint(tmp / "dirty.ckpt")
    assert "layer 2" in str(err.value)


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header passed through `edit`."""
    raw = src.read_bytes()
    hlen = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    header = edit(json.loads(raw[16:16 + hlen]))
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:12] + np.uint32(len(blob)).tobytes() + blob
                    + raw[16 + hlen:])


def _drop(key):
    def edit(h):
        del h[key]
        return h
    return edit


def _set_layer(i, key, value):
    def edit(h):
        h["layers"][i][key] = value
        return h
    return edit


BAD_HEADERS = {
    "missing-layers": _drop("layers"),
    "missing-has-masks": _drop("has_masks"),
    "missing-extra": _drop("extra"),
    "no-masks": lambda h: {**h, "has_masks": False},
    "no-initial": lambda h: {**h, "has_initial": False},
    "missing-n-output": _drop("n_output"),
    "unknown-layer-field": _set_layer(0, "dilation", 2),
    "unknown-layer-kind": _set_layer(0, "kind", "pool"),
    "non-chaining-shape": _set_layer(1, "in_size", 7),
    "fractional-kernel": _set_layer(0, "kernel_x", 2.5),
    "fractional-n-output": lambda h: {**h, "n_output": h["n_output"] + 0.7},
    "string-n-output": lambda h: {**h, "n_output": str(h["n_output"])},
    "fractional-input-shape": lambda h: {
        **h, "input_shape": [h["input_shape"][0] + 0.9, *h["input_shape"][1:]]},
    "layer-not-object": lambda h: {**h, "layers": [1, 2, 3]},
    "extra-not-object": lambda h: {**h, "extra": [1]},
    "header-not-object": lambda h: [h],
}


@pytest.mark.parametrize("case", sorted(BAD_HEADERS))
def test_bad_header_schema_names_the_path(setup, case):
    tmp, spec, w, _ = setup
    good = tmp / "good.ckpt"
    save_unpruned(good, spec, w)
    load_checkpoint(good)
    bad = tmp / f"{case}.ckpt"
    rewrite_header(good, bad, BAD_HEADERS[case])
    with pytest.raises(CheckpointError, match="bad header") as err:
        load_checkpoint(bad)
    assert str(bad) in str(err.value)


def _set_extra(key, value):
    def edit(h):
        h["extra"][key] = value
        return h
    return edit


def _drop_extra(key):
    def edit(h):
        del h["extra"][key]
        return h
    return edit


BAD_EXTRAS = {
    "rate-above-one": _set_extra("rate", 5),
    "rate-nan": _set_extra("rate", float("nan")),
    "rate-string": _set_extra("rate", "0.2"),
    "iteration-negative": _set_extra("iteration", -1),
    "iteration-fractional": _set_extra("iteration", 1.5),
    "scope-out-of-range": _set_extra("scope", [0, 3]),
    "scope-not-list": _set_extra("scope", "conv"),
    # a repeated index would count that layer twice in the scope sparsity
    "scope-repeated": _set_extra("scope", [0, 0]),
    "env-max-steps-zero": _set_extra("env_max_steps", 0),
    "env-not-string": _set_extra("env", 3),
    "iteration-missing": _drop_extra("iteration"),
    "rate-missing": _drop_extra("rate"),
    "scope-missing": _drop_extra("scope"),
}


@pytest.mark.parametrize("case", sorted(BAD_EXTRAS))
def test_bad_extra_names_the_path(setup, case):
    tmp, spec, w, _ = setup
    good = tmp / "good.ckpt"
    save_unpruned(good, spec, w,
                  extra={"env": "mini-breakout", "env_max_steps": 40})
    load_checkpoint(good)
    bad = tmp / f"{case}.ckpt"
    rewrite_header(good, bad, BAD_EXTRAS[case])
    with pytest.raises(CheckpointError, match="extra") as err:
        load_checkpoint(bad)
    assert str(bad) in str(err.value)


def _golden_prunable():
    """A hand-built, once-pruned network whose every value is exact in
    float64: (2, 5, 5) -> conv 3x3x3 -> 27 -> 4 -> 2."""
    spec = NetworkSpec(
        layers=(LayerSpec("conv2d", in_channels=2, out_filters=3,
                          kernel_x=3, kernel_y=3, stride=1),
                LayerSpec("dense", in_size=27, out_size=4),
                LayerSpec("dense", in_size=4, out_size=2,
                          activation="identity")),
        input_shape=(2, 5, 5), n_output=2)
    ws, bs = [], []
    for l in spec.layers:
        n = math.prod(l.weight_shape())
        ws.append(((np.arange(n) * 7 % 11 - 5) / 4).reshape(l.weight_shape()))
        bs.append(np.arange(l.bias_shape()[0]) / 2)
    p = PrunableWeights.create(spec, WeightSet(ws, bs), rate=0.5, scope=(0, 1))
    return prune_step(p)


GOLDEN_PRUNABLE_SHA256 = \
    "e171224f159691e2fa6cf5dfd3a331e985be09fe72633bb0976fc289cbbbb987"


def test_save_prunable_bytes_pinned(tmp_path):
    """Header and payload layout: any change to the format, its field order
    or the pruning that feeds it moves this hash."""
    p = _golden_prunable()
    assert p.iteration == 1 and (~p.masks[0]).sum() > 0
    path = tmp_path / "golden.ckpt"
    save_prunable(path, p, extra={"env": "mini-breakout", "seed": 3})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        GOLDEN_PRUNABLE_SHA256
