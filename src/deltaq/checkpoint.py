"""Binary checkpoint format for a pruned network: one PrunableWeights
(masked live weights, masks, the archived initial weights and the schedule
position) plus the run metadata it was trained under.

Layout: 8-byte magic, uint32 format version, uint32 header length, then a
JSON header (layer kinds/shapes in order, the flags has_masks and
has_initial, both always true, and an extra object holding iteration, rate
and scope plus the run metadata), then raw array payloads in a fixed
order: per layer live weights and bias as row-major little-endian float64,
per layer mask as uint8 {0,1}, per layer initial weights and bias.
`save_prunable` is the only writer and `load_checkpoint` the only reader;
files round-trip bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .network import LayerSpec, NetworkSpec, WeightSet
from .pruning import PrunableWeights, check_scope

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


def save_prunable(path: str | Path, p: PrunableWeights,
                  extra: dict[str, Any] | None = None) -> None:
    """Checkpoint a PrunableWeights: its masked live weights, masks and
    initial snapshot, with its schedule position (iteration, rate, scope)
    and the run metadata in `extra` recorded in the header."""
    p.apply()
    p.live.validate(p.spec)
    meta = {"iteration": p.iteration, "rate": p.rate, "scope": list(p.scope)}
    meta.update(extra or {})
    header = {
        "version": VERSION,
        "input_shape": list(p.spec.input_shape),
        "n_output": p.spec.n_output,
        "layers": [_layer_to_dict(l) for l in p.spec.layers],
        "has_masks": True,
        "has_initial": True,
        "extra": meta,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).tobytes())
        f.write(np.uint32(len(blob)).tobytes())
        f.write(blob)
        for w, b in zip(p.live.weights, p.live.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        for m in p.masks:
            f.write(np.ascontiguousarray(m, dtype=np.uint8).tobytes())
        for w, b in zip(p.initial.weights, p.initial.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


_SCHEDULE_KEYS = ("iteration", "rate", "scope")


def _check_extra(extra: Any, n_layers: int) -> None:
    """The schedule keys (iteration, rate, scope) are present and usable,
    and so are the run keys env and env_max_steps when present; other keys
    are free-form."""
    if not isinstance(extra, dict):
        raise TypeError(f"extra is {type(extra).__name__}, not an object")
    missing = [k for k in _SCHEDULE_KEYS if k not in extra]
    if missing:
        raise ValueError(f"extra lacks {', '.join(missing)}")
    rate = extra["rate"]
    if type(rate) not in (int, float) or not 0.0 < rate < 1.0:
        raise ValueError(
            f"extra rate must be a number in (0, 1), got {rate!r}")
    for key, lo in (("iteration", 0), ("env_max_steps", 1)):
        v = extra.get(key, lo)
        if type(v) is not int or v < lo:
            raise ValueError(
                f"extra {key} must be an integer >= {lo}, got {v!r}")
    scope = extra["scope"]
    if not (isinstance(scope, list) and all(type(k) is int for k in scope)):
        raise ValueError(f"extra scope must be a list of integers, got {scope!r}")
    try:
        check_scope(tuple(scope), n_layers)
    except ValueError as e:
        raise ValueError(f"extra {e}") from None
    if not isinstance(extra.get("env", ""), str):
        raise ValueError(f"extra env must be a string, got {extra['env']!r}")


def load_checkpoint(path: str | Path) -> tuple[PrunableWeights, dict[str, Any]]:
    """Decode a checkpoint written by `save_prunable` into its
    PrunableWeights and the rest of the header's extra metadata (env,
    env_max_steps, seed). Raises CheckpointError, naming the path, on a
    file that cannot be read (missing, or a directory), a bad magic or
    version, a truncated or oversized file, a header with a missing or
    malformed field (an input shape, output count or layer size that is
    not a JSON integer among them), no masks or no initial snapshot, an
    inconsistent architecture, a missing or unusable schedule value
    (iteration, rate, scope; a scope that repeats an index is unusable) or
    unusable env or env_max_steps, non-finite weights or biases, or
    nonzero live weights under a False mask."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        why = "not found" if isinstance(e, FileNotFoundError) else e.strerror
        raise CheckpointError(f"{path}: cannot read: {why}") from None
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
        # NetworkSpec and int() would truncate 4.7 or "4" to 4
        input_shape, n_output = header["input_shape"], header["n_output"]
        if not (isinstance(input_shape, list)
                and all(type(v) is int for v in input_shape)
                and type(n_output) is int):
            raise ValueError(f"input_shape and n_output must be integers: "
                             f"{input_shape!r}, {n_output!r}")
        spec = NetworkSpec(
            layers=tuple(_layer_from_dict(d) for d in header["layers"]),
            input_shape=tuple(input_shape), n_output=n_output)
        if not (header["has_masks"] is True and header["has_initial"] is True):
            raise ValueError("has_masks and has_initial must both be true")
        extra = header["extra"]
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

    def read_weights() -> WeightSet:
        pairs = [(read(l.weight_shape(), "<f8").astype(np.float64),
                  read(l.bias_shape(), "<f8").astype(np.float64))
                 for l in spec.layers]
        if not all(np.isfinite(a).all() for pair in pairs for a in pair):
            raise CheckpointError(f"{path}: non-finite weights or biases")
        return WeightSet([w for w, _ in pairs], [b for _, b in pairs])

    live = read_weights()
    masks = [read(l.weight_shape(), np.uint8).astype(bool) for l in spec.layers]
    for i, (w, m) in enumerate(zip(live.weights, masks)):
        if np.any(w[~m] != 0.0):
            raise CheckpointError(
                f"{path}: layer {i} has nonzero weights under a False mask")
    initial = read_weights()
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} trailing bytes")
    p = PrunableWeights(spec=spec, live=live, masks=masks, initial=initial,
                        rate=extra["rate"], iteration=extra["iteration"],
                        scope=tuple(extra["scope"]))
    return p, {k: v for k, v in extra.items() if k not in _SCHEDULE_KEYS}
