"""Declarative layer/network specs, the dense forward pass, the im2col
index tables every conv path reads, and static multiplication counting.

Conventions fixed here and relied on everywhere else:
  - conv weights have shape (filters, in_channels, kernel_y, kernel_x),
    bias (filters,); dense weights (out_size, in_size), bias (out_size,)
  - conv inputs/outputs are (channels, height, width); convolution is
    valid (no padding, no dilation) with a single stride for both axes
  - flatten between the last conv and the first dense is implicit and is
    the C-order ravel of (filters, out_y, out_x)
  - inference is one state at a time; there is no batch axis here
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

Activation = Literal["relu", "identity"]

# The scaled network's square conv kernel and stride: every scaled network
# fits both games' 10x10 frames.
CONV_KERNEL = 3
CONV_STRIDE = 1


@dataclass(frozen=True)
class LayerSpec:
    """One weighted layer: a valid 2d convolution or a dense layer."""

    kind: Literal["conv2d", "dense"]
    activation: Activation = "relu"
    # conv2d fields
    in_channels: int = 0
    out_filters: int = 0
    kernel_x: int = 0
    kernel_y: int = 0
    stride: int = 1
    # dense fields
    in_size: int = 0
    out_size: int = 0

    def __post_init__(self):
        if self.kind == "conv2d":
            for name in ("in_channels", "out_filters", "kernel_x", "kernel_y", "stride"):
                if getattr(self, name) < 1:
                    raise ValueError(f"conv2d layer needs {name} >= 1")
        elif self.kind == "dense":
            if self.in_size < 1 or self.out_size < 1:
                raise ValueError("dense layer needs in_size, out_size >= 1")
        else:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    def conv_output_hw(self, in_h: int, in_w: int) -> tuple[int, int]:
        """Valid-convolution output extents for an (in_h, in_w) input."""
        assert self.kind == "conv2d"
        out_h = (in_h - self.kernel_y) // self.stride + 1
        out_w = (in_w - self.kernel_x) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(
                f"kernel {self.kernel_y}x{self.kernel_x} stride {self.stride} "
                f"does not fit input {in_h}x{in_w}"
            )
        return out_h, out_w

    def weight_shape(self) -> tuple[int, ...]:
        if self.kind == "conv2d":
            return (self.out_filters, self.in_channels, self.kernel_y, self.kernel_x)
        return (self.out_size, self.in_size)

    def bias_shape(self) -> tuple[int, ...]:
        return self.weight_shape()[:1]

    def param_count(self) -> int:
        return int(np.prod(self.weight_shape())) + int(np.prod(self.bias_shape()))


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer chain with a fixed (channels, height, width) input."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]
    n_output: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        shapes = self.output_shapes()  # validates the chain
        if shapes and math.prod(shapes[-1]) != self.n_output:
            raise ValueError(f"last layer produces {math.prod(shapes[-1])} "
                             f"values, n_output is {self.n_output}")

    def output_shapes(self) -> list[tuple[int, ...]]:
        """Per-layer output shapes; raises if consecutive layers do not chain."""
        shapes: list[tuple[int, ...]] = []
        cur: tuple[int, ...] = self.input_shape
        for i, layer in enumerate(self.layers):
            if layer.kind == "conv2d":
                if len(cur) != 3 or cur[0] != layer.in_channels:
                    raise ValueError(
                        f"layer {i}: conv2d expects {layer.in_channels} channels, "
                        f"previous shape is {cur}"
                    )
                out_h, out_w = layer.conv_output_hw(cur[1], cur[2])
                cur = (layer.out_filters, out_h, out_w)
            else:
                flat = int(np.prod(cur))
                if flat != layer.in_size:
                    raise ValueError(
                        f"layer {i}: dense expects in_size {layer.in_size}, "
                        f"previous shape {cur} flattens to {flat}"
                    )
                cur = (layer.out_size,)
            shapes.append(cur)
        return shapes

    def layer_names(self) -> list[str]:
        """Stable display names: Conv2d-k / Dense-k in order of appearance."""
        names, n_conv, n_dense = [], 0, 0
        for layer in self.layers:
            if layer.kind == "conv2d":
                n_conv += 1
                names.append(f"Conv2d-{n_conv}")
            else:
                n_dense += 1
                names.append(f"Dense-{n_dense}")
        return names

    def neuron_counts(self) -> list[int]:
        """Neurons per counter row: the input's pixels, then each layer's
        outputs."""
        return [int(np.prod(s)) for s in [self.input_shape, *self.output_shapes()]]

    def layer_multiplications(self) -> list[int]:
        """Multiplications one dense pass performs in each weighted layer
        (no Flatten row): its outputs times its fan-in, for either kind."""
        return [math.prod(s) * math.prod(l.weight_shape()[1:])
                for l, s in zip(self.layers, self.output_shapes())]

    def flatten_index(self) -> int | None:
        """Index of the first dense layer after a conv layer, else None."""
        for i, layer in enumerate(self.layers):
            if layer.kind == "dense":
                return i if i > 0 and self.layers[i - 1].kind == "conv2d" else None
        return None


@dataclass
class WeightSet:
    """Per-layer weight and bias tensors matching a NetworkSpec."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "WeightSet":
        return WeightSet([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])

    def validate(self, spec: NetworkSpec) -> None:
        if len(self.weights) != len(spec.layers) or len(self.biases) != len(spec.layers):
            raise ValueError("weight count does not match layer count")
        for i, layer in enumerate(spec.layers):
            if self.weights[i].shape != layer.weight_shape():
                raise ValueError(
                    f"layer {i}: weight shape {self.weights[i].shape} != "
                    f"{layer.weight_shape()}"
                )
            if self.biases[i].shape != layer.bias_shape():
                raise ValueError(
                    f"layer {i}: bias shape {self.biases[i].shape} != "
                    f"{layer.bias_shape()}"
                )


def build_reference_dqn(n_output: int) -> NetworkSpec:
    """Full-scale Q-network: three conv layers and two dense layers over a
    (4, 84, 84) input, with the last dense layer sized to the action count."""
    if n_output < 1:
        raise ValueError("n_output must be >= 1")
    layers = (
        LayerSpec("conv2d", in_channels=4, out_filters=32, kernel_x=8, kernel_y=8,
                  stride=4, activation="relu"),
        LayerSpec("conv2d", in_channels=32, out_filters=64, kernel_x=4, kernel_y=4,
                  stride=2, activation="relu"),
        LayerSpec("conv2d", in_channels=64, out_filters=64, kernel_x=3, kernel_y=3,
                  stride=1, activation="relu"),
        LayerSpec("dense", in_size=3136, out_size=512, activation="relu"),
        LayerSpec("dense", in_size=512, out_size=n_output, activation="identity"),
    )
    return NetworkSpec(layers=layers, input_shape=(4, 84, 84), n_output=n_output)


def build_scaled_dqn(input_shape: tuple[int, int, int], n_output: int,
                     conv_filters: int = 16, dense_hidden: int = 128) -> NetworkSpec:
    """Desk-scale Q-network for grid environments: one CONV_KERNEL x
    CONV_KERNEL conv layer at CONV_STRIDE and two dense layers. Shapes are
    derived from the input."""
    c, h, w = input_shape
    conv = LayerSpec("conv2d", in_channels=c, out_filters=conv_filters,
                     kernel_x=CONV_KERNEL, kernel_y=CONV_KERNEL,
                     stride=CONV_STRIDE, activation="relu")
    oh, ow = conv.conv_output_hw(h, w)
    flat = conv_filters * oh * ow
    layers = (
        conv,
        LayerSpec("dense", in_size=flat, out_size=dense_hidden, activation="relu"),
        LayerSpec("dense", in_size=dense_hidden, out_size=n_output,
                  activation="identity"),
    )
    return NetworkSpec(layers=layers, input_shape=(c, h, w), n_output=n_output)


def init_weights(spec: NetworkSpec, rng: np.random.Generator) -> WeightSet:
    """He-normal weights for relu layers, scaled-down normal for the output."""
    weights, biases = [], []
    for layer in spec.layers:
        shape = layer.weight_shape()
        fan_in = math.prod(shape[1:])
        std = np.sqrt(2.0 / fan_in) if layer.activation == "relu" else 1.0 / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, std, size=shape))
        biases.append(np.zeros(layer.bias_shape()))
    return WeightSet(weights, biases)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def check_finite(t: np.ndarray) -> None:
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")


def real_frame(x) -> np.ndarray:
    """`x` as float64; TypeError unless it holds real numbers (a cast would
    drop a complex frame's imaginary part with only a warning)."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise TypeError(f"frame must hold real numbers, got dtype {x.dtype}")
    return x.astype(np.float64, copy=False)


def im2col_indices(in_shape: tuple[int, int, int], kernel_y: int, kernel_x: int,
                   stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices mapping an image (C,H,W) to columns
    (C*kernel_y*kernel_x, out_h*out_w)."""
    c, h, w = in_shape
    out_h = (h - kernel_y) // stride + 1
    out_w = (w - kernel_x) // stride + 1
    i0 = np.repeat(np.arange(kernel_y), kernel_x)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_x), kernel_y * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(c), kernel_y * kernel_x).reshape(-1, 1)
    return chans, rows, cols


@functools.lru_cache(maxsize=32)
def im2col_table(kernel_shape: tuple[int, int, int],
                 in_shape: tuple[int, int, int],
                 stride: int) -> np.ndarray:
    """Flat input index of every (output position, kernel column) entry of
    a valid conv's position-major im2col matrix: for a (C, H, W) image x
    that matrix is x.ravel()[table], shape (out_h*out_w, C*Ky*Kx), so the
    columns of a set of output positions are whole contiguous rows.
    Read-only and shared between callers; intp, because numpy converts any
    other index dtype on every gather (int32 tables cost about 7 us of a
    100 us desk delta step)."""
    _, ky, kx = kernel_shape
    _, h, w = in_shape
    chans, rows, cols = im2col_indices(in_shape, ky, kx, stride)
    table = np.ascontiguousarray(((chans * h + rows) * w + cols).T, dtype=np.intp)
    table.flags.writeable = False
    return table


def conv2d_single(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  stride: int) -> np.ndarray:
    """Valid convolution of one (C,H,W) image with (F,C,Ky,Kx) weights."""
    f, c, ky, kx = w.shape
    chans, rows, cols = im2col_indices(x.shape, ky, kx, stride)
    cols_mat = x[chans, rows, cols]                      # (C*Ky*Kx, OH*OW)
    out = w.reshape(f, -1) @ cols_mat                    # (F, OH*OW)
    out += b.reshape(-1, 1)
    return out.reshape(f, (x.shape[1] - ky) // stride + 1, -1)


def forward(spec: NetworkSpec, w: WeightSet, x: np.ndarray) -> np.ndarray:
    """Dense forward pass for a single input state; returns the output vector."""
    cur = real_frame(x)
    if cur.shape != spec.input_shape:
        raise ValueError(f"input shape {cur.shape} != {spec.input_shape}")
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv2d":
            cur = conv2d_single(cur, w.weights[i], w.biases[i], layer.stride)
        else:
            cur = w.weights[i] @ cur.ravel() + w.biases[i]
        if layer.activation == "relu":
            cur = np.maximum(cur, 0.0)
    check_finite(cur)
    return cur.ravel()


# ---------------------------------------------------------------------------
# static multiplication counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticCountRow:
    name: str
    multiplications: int
    params: int


@dataclass(frozen=True)
class StaticCountReport:
    rows: tuple[StaticCountRow, ...]
    total_multiplications: int
    total_params: int


def static_network_multiplications(spec: NetworkSpec) -> StaticCountReport:
    """Per-layer multiplication/parameter counts plus totals.

    A Flatten row with zero multiplications is inserted between the last
    conv layer and the first dense layer when both are present.
    """
    rows: list[StaticCountRow] = []
    flatten_at = spec.flatten_index()
    for i, (layer, name, mults) in enumerate(zip(
            spec.layers, spec.layer_names(), spec.layer_multiplications())):
        if i == flatten_at:
            rows.append(StaticCountRow("Flatten", 0, 0))
        rows.append(StaticCountRow(name, mults, layer.param_count()))
    total_m = sum(r.multiplications for r in rows)
    total_p = sum(r.params for r in rows)
    return StaticCountReport(tuple(rows), total_m, total_p)
