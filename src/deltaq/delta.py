"""Event-driven inference over a (possibly pruned) feedforward network, with
exact significant-multiplication accounting.

Instead of recomputing every layer from scratch each timestep, each neuron
keeps a running pre-activation accumulator and the last value it transmitted
downstream. When a new frame arrives, only input entries whose change reaches
the input threshold emit delta events; each event updates downstream
accumulators through the nonzero, unpruned weights it touches, and a neuron
re-transmits only when its activation has drifted at least its layer
threshold away from the last transmitted value (a hysteresis gate: the
comparison point is the last *sent* value, so sub-threshold residue is never
discarded).

Events are scattered, not replayed through a dense layer. A dense layer
keeps its masked weights as one (in, out) C-order array, so the rows of the
fired inputs are contiguous and a step costs ``deltas @ w_in_out[idx]``. A
conv layer looks each fired input position up in a footprint table (the
output positions it touches and the kernel column used at each, see
``_conv_footprint``), writes the deltas into an im2col-style column block
restricted to the affected output positions, and adds one
``(F, C*Ky*Kx) @ (C*Ky*Kx, n_affected)`` product into the accumulator at
those positions only. At full event density this is exactly the im2col
GEMM of the dense pass, so there is no fallback path.

Timestep semantics are synchronous: a layer absorbs every event of the
current step before its neurons decide whether to fire, which makes outputs
and counters independent of event ordering. On the very first step each
layer evaluates its firing rule even without incoming events, so bias-driven
activations propagate and the first frame behaves like a full dense pass
(both accumulators start at the bias, transmitted values start at zero).

A multiplication is counted as significant when both the incoming delta and
the weight are nonzero; masked weights are zero and therefore never counted.
Accumulator additions are not counted. Events consumed from the input are
attributed to the first weighted layer; the Input row of the counter tracks
event traffic only.

Action selection downstream reads the output layer's transmitted values
(not the instantaneous accumulator activations); with a zero threshold the
two coincide.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .network import NetworkSpec, WeightSet, conv2d_single
from .tensorops import check_finite, relu


class OpCounter:
    """Per-layer tallies of significant multiplications and event traffic.

    Row 0 is the input; rows 1..n are the weighted layers. All tallies are
    nonnegative and only ever grow within a run; counters from independent
    runs merge by addition.
    """

    def __init__(self, layer_names: Sequence[str]):
        self.layer_names = ("Input",) + tuple(layer_names)
        n = len(self.layer_names)
        self.significant_multiplications = np.zeros(n, dtype=np.int64)
        self.events_received = np.zeros(n, dtype=np.int64)
        self.events_sent = np.zeros(n, dtype=np.int64)
        self.timesteps = 0

    def total_multiplications(self) -> int:
        return int(self.significant_multiplications.sum())

    def merge(self, other: "OpCounter") -> "OpCounter":
        if self.layer_names != other.layer_names:
            raise ValueError("cannot merge counters over different layer sets")
        self.significant_multiplications += other.significant_multiplications
        self.events_received += other.events_received
        self.events_sent += other.events_sent
        self.timesteps += other.timesteps
        return self

    def copy(self) -> "OpCounter":
        out = OpCounter(self.layer_names[1:])
        return out.merge(self)


@dataclass
class DeltaLayerState:
    """Mutable per-layer state: accumulator, last transmitted values, gate."""

    o: np.ndarray        # running pre-activation, starts at the bias
    x_prev: np.ndarray   # last transmitted activation, starts at zero
    threshold: float


def resolve_thresholds(spec: NetworkSpec, thresholds: float | Sequence[float],
                       input_threshold: float | None = None) -> tuple[float, list[float]]:
    """Normalize a scalar or per-layer threshold spec; the input buffer
    defaults to the first layer threshold (the global value, when scalar)."""
    if np.isscalar(thresholds):
        per_layer = [float(thresholds)] * len(spec.layers)
    else:
        per_layer = [float(t) for t in thresholds]
        if len(per_layer) != len(spec.layers):
            raise ValueError(
                f"got {len(per_layer)} thresholds for {len(spec.layers)} layers"
            )
    t_in = float(input_threshold) if input_threshold is not None else per_layer[0]
    if not all(np.isfinite(t) and t >= 0 for t in (t_in, *per_layer)):
        raise ValueError("thresholds must be finite and nonnegative")
    return t_in, per_layer


class DeltaNetwork:
    """Event-driven evaluator for one episode; single-threaded mutable state.

    Run several episodes with independent instances (or reset_state) and
    merge their counters afterwards.
    """

    def __init__(self, spec: NetworkSpec, weights: WeightSet,
                 thresholds: float | Sequence[float] = 0.001,
                 input_threshold: float | None = None,
                 masks: Sequence[np.ndarray] | None = None,
                 trace: IO[str] | None = None):
        weights.validate(spec)
        for arr in (*weights.weights, *weights.biases):
            check_finite(arr)
        self.spec = spec
        self.input_threshold, per_layer_t = resolve_thresholds(
            spec, thresholds, input_threshold)
        self.trace = trace
        self._names = spec.layer_names()
        self._out_shapes = spec.output_shapes()

        # masked weights, one copy each; a dense layer's copy is stored
        # (in, out) C-order and w_masked holds its (out, in) transpose view
        self.w_masked: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i, layer in enumerate(spec.layers):
            keep = None if masks is None else np.asarray(masks[i], dtype=bool)
            if layer.kind == "conv2d":
                w = weights.weights[i].copy()
                if keep is not None:
                    w[~keep] = 0.0
            else:
                w_in_out = np.ascontiguousarray(weights.weights[i].T)
                if keep is not None:
                    w_in_out[~keep.T] = 0.0
                w = w_in_out.T
            self.w_masked.append(w)
            self.biases.append(weights.biases[i].copy())

        # per conv layer: its footprint table; per layer: event cost tables,
        # the significant multiplications one event at each input causes
        self._footprints: list[tuple[np.ndarray, np.ndarray] | None] = []
        self._event_costs: list[np.ndarray] = []
        in_shape: tuple[int, ...] = spec.input_shape
        for i, layer in enumerate(spec.layers):
            if layer.kind == "conv2d":
                self._footprints.append(_conv_footprint(
                    self.w_masked[i].shape[1:], in_shape, layer.stride))
                self._event_costs.append(
                    conv_event_costs(self.w_masked[i], in_shape, layer.stride))
            else:
                self._footprints.append(None)
                self._event_costs.append(
                    np.count_nonzero(self.w_masked[i], axis=0).astype(np.int64))
            in_shape = self._out_shapes[i]

        self._thresholds = per_layer_t
        self.counter = OpCounter(self._names)
        self.reset_state()

    def reset_state(self) -> None:
        """Fresh episode state; the counter is left untouched."""
        self.input_prev = np.zeros(self.spec.input_shape)
        self.layers: list[DeltaLayerState] = []
        for i, layer in enumerate(self.spec.layers):
            shape = self._out_shapes[i]
            if layer.kind == "conv2d":
                o = np.ascontiguousarray(
                    np.broadcast_to(self.biases[i].reshape(-1, 1, 1), shape)
                ).astype(np.float64)
            else:
                o = self.biases[i].astype(np.float64).copy()
            self.layers.append(DeltaLayerState(
                o=o, x_prev=np.zeros(shape), threshold=self._thresholds[i]))
        self._first_step = True

    def step(self, frame: np.ndarray) -> np.ndarray:
        """Process one input frame; returns the output layer's transmitted
        values (length n_output)."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != self.spec.input_shape:
            raise ValueError(
                f"frame shape {frame.shape} != {self.spec.input_shape}")
        check_finite(frame)
        t = self.counter.timesteps

        d_in = frame - self.input_prev
        fire_in = (d_in != 0.0) & (np.abs(d_in) >= self.input_threshold)
        idx = np.flatnonzero(fire_in)
        deltas = d_in.ravel()[idx]
        if idx.size:
            self.input_prev.ravel()[idx] = frame.ravel()[idx]
        self.counter.events_sent[0] += idx.size
        if self.trace is not None:
            self._write_trace(t, "Input", idx, deltas)

        for k, layer in enumerate(self.spec.layers):
            st = self.layers[k]
            self.counter.events_received[k + 1] += idx.size
            if idx.size:
                if layer.kind == "conv2d":
                    self._scatter_conv(k, idx, deltas)
                else:
                    st.o += deltas @ self.w_masked[k].T[idx]
                self.counter.significant_multiplications[k + 1] += int(
                    self._event_costs[k].ravel()[idx].sum())

            if idx.size or self._first_step:
                act = relu(st.o) if layer.activation == "relu" else st.o
                d_out = act - st.x_prev
                fire = (d_out != 0.0) & (np.abs(d_out) >= st.threshold)
                out_idx = np.flatnonzero(fire)
                out_deltas = d_out.ravel()[out_idx]
                if out_idx.size:
                    st.x_prev.ravel()[out_idx] = act.ravel()[out_idx]
                self.counter.events_sent[k + 1] += out_idx.size
                if self.trace is not None and out_idx.size:
                    self._write_trace(t, self._names[k], out_idx, out_deltas)
                idx, deltas = out_idx, out_deltas
            else:
                idx = np.empty(0, dtype=np.intp)
                deltas = np.empty(0)

        self._first_step = False
        self.counter.timesteps += 1
        return self.layers[-1].x_prev.ravel().copy()

    def _scatter_conv(self, k: int, idx: np.ndarray, deltas: np.ndarray) -> None:
        """Add the effect of input events (idx, deltas) to conv layer k's
        accumulator, at the output positions the events touch only."""
        out_pos, kcol = self._footprints[k]
        w2 = self.w_masked[k].reshape(self.w_masked[k].shape[0], -1)
        o2 = self.layers[k].o.reshape(w2.shape[0], -1)
        n_out, n_col = o2.shape[1], w2.shape[1]
        pos, col = out_pos[idx], kcol[idx]
        mark = np.zeros(n_out + 1, dtype=bool)
        mark[pos] = True
        affected = np.flatnonzero(mark[:n_out])
        # column of each affected position in the block; unused slots land
        # in a spare row and column that the product leaves out
        slot = np.empty(n_out + 1, dtype=np.intp)
        slot[affected] = np.arange(affected.size)
        slot[n_out] = affected.size
        block = np.zeros((n_col + 1, affected.size + 1))
        block[col, slot[pos]] = deltas[:, None]
        o2[:, affected] += w2 @ block[:n_col, :affected.size]

    def resync(self) -> None:
        """Recompute every accumulator from the transmitted values upstream,
        squashing any floating-point drift. Off the hot path by design; no
        routine calls it automatically."""
        prev = self.input_prev
        for k, layer in enumerate(self.spec.layers):
            st = self.layers[k]
            if layer.kind == "conv2d":
                st.o = conv2d_single(prev, self.w_masked[k], self.biases[k],
                                     layer.stride)
            else:
                st.o = self.w_masked[k] @ prev.ravel() + self.biases[k]
            prev = st.x_prev

    def _write_trace(self, t: int, label: str, idx: np.ndarray,
                     deltas: np.ndarray) -> None:
        lines = [f"{t}\t{label}\t{int(i)}\t{float(d)!r}\n"
                 for i, d in zip(idx, deltas)]
        self.trace.write("".join(lines))


def conv_event_costs(w_masked: np.ndarray, in_shape: tuple[int, int, int],
                     stride: int) -> np.ndarray:
    """Significant multiplications one event at input position (c, y, x)
    triggers in a conv layer: the number of nonzero kernel weights (over all
    filters) at kernel offsets that actually map to a valid output position.
    Border positions touch fewer offsets."""
    f = w_masked.shape[0]
    _, kcol = _conv_footprint(w_masked.shape[1:], tuple(in_shape), stride)
    nnz = np.count_nonzero(w_masked.reshape(f, -1), axis=0).astype(np.int64)
    # the spare kernel column of unused slots costs nothing
    return np.append(nnz, 0)[kcol].sum(axis=1).reshape(in_shape)


@functools.lru_cache(maxsize=32)
def _conv_footprint(kernel_shape: tuple[int, int, int],
                    in_shape: tuple[int, int, int],
                    stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Footprint of every input position of a valid conv with (C, Ky, Kx)
    kernels: for flat input index p, out_pos[p, j] is a spatial output index
    (oy * out_w + ox) the position feeds and kcol[p, j] the kernel column
    (c * Ky + ky) * Kx + kx that multiplies it there. Each row has
    ceil(Ky/s) * ceil(Kx/s) slots; unused slots hold out_h * out_w and
    C * Ky * Kx. The arrays are int32 (half the memory of intp), read-only
    and shared between engines."""
    c, ky, kx = kernel_shape
    _, h, w = in_shape
    out_h = (h - ky) // stride + 1
    out_w = (w - kx) // stride + 1

    def axis(size: int, kernel: int, out_size: int):
        # per position and slot: output index, kernel offset, validity
        pos = np.arange(size)[:, None]
        o = pos // stride - np.arange(-(-kernel // stride))[None, :]
        k = pos - o * stride
        return o, k, (o >= 0) & (o < out_size) & (k < kernel)

    oy, kyy, vy = axis(h, ky, out_h)
    ox, kxx, vx = axis(w, kx, out_w)
    # broadcast to (C, H, W, slots_y, slots_x)
    oy, kyy, vy = (a[None, :, None, :, None] for a in (oy, kyy, vy))
    ox, kxx, vx = (a[None, None, :, None, :] for a in (ox, kxx, vx))
    ch = np.arange(c)[:, None, None, None, None]
    valid = vy & vx
    out_pos = np.where(valid, oy * out_w + ox, out_h * out_w)
    kcol = np.where(valid, (ch * ky + kyy) * kx + kxx, c * ky * kx)
    n_slots = oy.shape[3] * ox.shape[4]
    tables = tuple(np.ascontiguousarray(a.reshape(c * h * w, n_slots),
                                        dtype=np.int32)
                   for a in (np.broadcast_to(out_pos, kcol.shape), kcol))
    for t in tables:
        t.flags.writeable = False
    return tables


def measure_delta_sparsity(counter: OpCounter, spec: NetworkSpec) -> dict[str, float]:
    """Fraction of neuron-timesteps that transmitted nothing, per layer
    (the input row counts pixels)."""
    if counter.timesteps < 1:
        raise ValueError("no timesteps recorded")
    sizes = [int(np.prod(spec.input_shape))]
    sizes += [int(np.prod(s)) for s in spec.output_shapes()]
    out = {}
    for name, n, sent in zip(counter.layer_names, sizes, counter.events_sent):
        out[name] = 1.0 - float(sent) / (n * counter.timesteps)
    return out
