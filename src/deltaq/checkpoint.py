"""Binary checkpoint format for network specs, weights, masks, and the
archived initial weights.

Layout: 8-byte magic, uint32 format version, uint32 header length, then a
JSON header (layer kinds/shapes in order, flags, free-form extra metadata),
then raw array payloads in a fixed order: per layer weights and bias as
row-major little-endian float64; if masks are present, per layer mask as
uint8 {0,1}; if the initial snapshot is present, per layer initial weights
and bias. Files round-trip bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .network import LayerSpec, NetworkSpec, WeightSet
from .pruning import PrunableWeights

MAGIC = b"DLTQCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """Raised on malformed or incompatible checkpoint files."""


def _layer_to_dict(layer: LayerSpec) -> dict[str, Any]:
    if layer.kind == "conv2d":
        return {"kind": "conv2d", "in_channels": layer.in_channels,
                "out_filters": layer.out_filters, "kernel_x": layer.kernel_x,
                "kernel_y": layer.kernel_y, "stride": layer.stride,
                "activation": layer.activation}
    return {"kind": "dense", "in_size": layer.in_size,
            "out_size": layer.out_size, "activation": layer.activation}


def _layer_from_dict(d: dict[str, Any]) -> LayerSpec:
    sizes = {k: v for k, v in d.items() if k not in ("kind", "activation")}
    if not all(type(v) is int for v in sizes.values()):
        raise ValueError(f"layer sizes must be integers: {sizes}")
    return LayerSpec(**d)


def save_checkpoint(path: str | Path, spec: NetworkSpec, weights: WeightSet,
                    masks: list[np.ndarray] | None = None,
                    initial: WeightSet | None = None,
                    extra: dict[str, Any] | None = None) -> None:
    weights.validate(spec)
    header = {
        "version": VERSION,
        "input_shape": list(spec.input_shape),
        "n_output": spec.n_output,
        "layers": [_layer_to_dict(l) for l in spec.layers],
        "has_masks": masks is not None,
        "has_initial": initial is not None,
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).tobytes())
        f.write(np.uint32(len(blob)).tobytes())
        f.write(blob)
        for w, b in zip(weights.weights, weights.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        if masks is not None:
            for m in masks:
                f.write(np.ascontiguousarray(m, dtype=np.uint8).tobytes())
        if initial is not None:
            for w, b in zip(initial.weights, initial.biases):
                f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


class Checkpoint:
    """Decoded checkpoint contents."""

    def __init__(self, spec: NetworkSpec, weights: WeightSet,
                 masks: list[np.ndarray] | None, initial: WeightSet | None,
                 extra: dict[str, Any]):
        self.spec = spec
        self.weights = weights
        self.masks = masks
        self.initial = initial
        self.extra = extra


def _check_extra(extra: Any, n_layers: int) -> None:
    """The schedule and environment keys (rate, iteration, scope, env,
    env_max_steps) hold usable values when present; other keys are
    free-form."""
    if not isinstance(extra, dict):
        raise TypeError(f"extra is {type(extra).__name__}, not an object")
    rate = extra.get("rate", 0.2)
    if type(rate) not in (int, float) or not 0.0 < rate < 1.0:
        raise ValueError(
            f"extra rate must be a number in (0, 1), got {rate!r}")
    for key, lo in (("iteration", 0), ("env_max_steps", 1)):
        v = extra.get(key, lo)
        if type(v) is not int or v < lo:
            raise ValueError(
                f"extra {key} must be an integer >= {lo}, got {v!r}")
    scope = extra.get("scope", [])
    if not (isinstance(scope, list)
            and all(type(k) is int and 0 <= k < n_layers for k in scope)):
        raise ValueError(
            f"extra scope must be a list of layer indices, got {scope!r}")
    if not isinstance(extra.get("env", ""), str):
        raise ValueError(f"extra env must be a string, got {extra['env']!r}")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Decode a checkpoint; raises CheckpointError, naming the path, on a
    bad magic or version, a truncated or oversized file, a header with a
    missing or malformed field, an inconsistent architecture or an unusable
    extra value (rate, iteration, scope, env, env_max_steps), non-finite
    weights or biases, or nonzero live weights under a False mask."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise CheckpointError(f"{path}: truncated: {len(data)} bytes")
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version = int(np.frombuffer(data[8:12], dtype="<u4")[0])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    hlen = int(np.frombuffer(data[12:16], dtype="<u4")[0])
    if 16 + hlen > len(data):
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(data[16:16 + hlen].decode("utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    try:
        spec = NetworkSpec(
            layers=tuple(_layer_from_dict(d) for d in header["layers"]),
            input_shape=tuple(header["input_shape"]),
            n_output=int(header["n_output"]),
        )
        has_masks, has_initial = header["has_masks"], header["has_initial"]
        extra = header.get("extra", {})
        _check_extra(extra, len(spec.layers))
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CheckpointError(f"{path}: bad header: {e!r}") from None
    off = 16 + hlen

    def read(shape: tuple[int, ...], dtype) -> np.ndarray:
        nonlocal off
        n = int(np.prod(shape))
        end = off + n * np.dtype(dtype).itemsize
        if end > len(data):
            raise CheckpointError(
                f"{path}: truncated inside the payload "
                f"({len(data)} bytes, at least {end} expected)")
        arr = np.frombuffer(data, dtype=dtype, count=n, offset=off)
        off = end
        return arr.reshape(shape)

    def read_f8(shape: tuple[int, ...]) -> np.ndarray:
        arr = read(shape, "<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: non-finite weights or biases")
        return arr

    ws, bs = [], []
    for l in spec.layers:
        ws.append(read_f8(l.weight_shape()))
        bs.append(read_f8(l.bias_shape()))
    weights = WeightSet(ws, bs)
    masks = None
    if has_masks:
        masks = [read(l.weight_shape(), np.uint8).astype(bool)
                 for l in spec.layers]
        for i, (w, m) in enumerate(zip(ws, masks)):
            if np.any(w[~m] != 0.0):
                raise CheckpointError(
                    f"{path}: layer {i} has nonzero weights under a False mask")
    initial = None
    if has_initial:
        pairs = [(read_f8(l.weight_shape()), read_f8(l.bias_shape()))
                 for l in spec.layers]
        initial = WeightSet([p[0] for p in pairs], [p[1] for p in pairs])
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes")
    return Checkpoint(spec, weights, masks, initial, extra)


def save_prunable(path: str | Path, p: PrunableWeights,
                  extra: dict[str, Any] | None = None) -> None:
    """Checkpoint a PrunableWeights with masks, initial snapshot, and its
    schedule position recorded in the header."""
    meta = {"iteration": p.iteration, "rate": p.rate, "scope": list(p.scope)}
    meta.update(extra or {})
    p.apply()
    save_checkpoint(path, p.spec, p.live, masks=p.masks, initial=p.initial,
                    extra=meta)
