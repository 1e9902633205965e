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

Events update accumulators in place; no layer is re-run. A conv layer looks
each fired input position up in a footprint table to mark the output
positions it touches (``_conv_footprint``), writes the deltas into a zero
delta image of its input, and gathers the ``(C*Ky*Kx, n_affected)`` im2col
block of those positions through a flat index table (``_im2col_table``).
One ``(F, C*Ky*Kx) @ block`` product is added into the accumulator at the
affected positions only, and the image is zeroed again. At full event
density this is the im2col GEMM of the dense pass, so there is no fallback
path. A dense layer keeps its masked weights as one (in, out) C-order
array. When at most ``DENSE_FULL_FRACTION`` of its inputs fired it adds
``deltas @ w_in_out[fired]`` (the rows are contiguous); above it, the full
``delta_vector @ w_in_out`` over a zero vector holding the deltas, which is
the faster of the two there. Zero deltas and masked (zero) weights add
exact zeros on every path, so an output that no fired input reaches through
a live weight keeps its accumulator bit for bit.

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

from .network import NetworkSpec, WeightSet, conv2d_single, im2col_indices
from .tensorops import check_finite

# A dense layer adds the full product (delta vector) @ w_in_out, zeros
# included, once more than this fraction of its inputs fired in a step, and
# the gathered rows deltas @ w_in_out[fired] up to it. Measured crossover,
# one OpenBLAS thread on a 2-vCPU Xeon, gather vs full: (1024, 128) 27.6 vs
# 28.6 us at 0.30 and 30.0 vs 25.9 us at 0.33; (3136, 512) 634 vs 662 us at
# 0.30 and 699 vs 649 us at 0.33.
DENSE_FULL_FRACTION = 0.3


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

        # per layer: the significant multiplications one event at each flat
        # input index causes. Per conv layer: its footprint and im2col
        # tables, its (F, C*Ky*Kx) weights, the flat accumulator offset of
        # each filter, and a mark per output position plus a spare one for
        # unused footprint slots (all False between steps)
        self._event_costs: list[np.ndarray] = []
        self._conv: list[tuple[np.ndarray, ...] | None] = []
        in_shape: tuple[int, ...] = spec.input_shape
        for i, layer in enumerate(spec.layers):
            w = self.w_masked[i]
            if layer.kind == "conv2d":
                kernel = w.shape[1:]
                cols = _im2col_table(kernel, in_shape, layer.stride)
                n_out = cols.shape[1]
                self._conv.append((
                    _conv_footprint(kernel, in_shape, layer.stride), cols,
                    w.reshape(w.shape[0], -1),
                    np.arange(w.shape[0])[:, None] * n_out,
                    np.zeros(n_out + 1, dtype=bool)))
                self._event_costs.append(
                    conv_event_costs(w, in_shape, layer.stride).ravel())
            else:
                self._conv.append(None)
                self._event_costs.append(
                    np.count_nonzero(w, axis=0).astype(np.int64))
            in_shape = self._out_shapes[i]

        # per layer: a zero delta image (conv) or vector (dense) of its
        # input, zero again after every step; the fired count above which a
        # dense layer takes the full product; a relu output buffer
        in_sizes = [int(np.prod(s))
                    for s in (spec.input_shape, *self._out_shapes[:-1])]
        self._zero_deltas = [np.zeros(n) for n in in_sizes]
        self._full_from = [DENSE_FULL_FRACTION * n for n in in_sizes]
        self._act = [np.empty(int(np.prod(s))) if layer.activation == "relu"
                     else None
                     for layer, s in zip(spec.layers, self._out_shapes)]

        self._thresholds = per_layer_t
        self.counter = OpCounter(self._names)
        self.reset_state()

    def reset_state(self) -> None:
        """Fresh episode state; the counter is left untouched."""
        self.input_prev = np.zeros(self.spec.input_shape)
        self.layers: list[DeltaLayerState] = []
        for i, shape in enumerate(self._out_shapes):
            b = self.biases[i].astype(np.float64)
            o = np.repeat(b, int(np.prod(shape)) // b.size).reshape(shape)
            self.layers.append(DeltaLayerState(
                o=o, x_prev=np.zeros(shape), threshold=self._thresholds[i]))
        # flat views of the same state; every update writes through them
        self._input_flat = self.input_prev.reshape(-1)
        self._o = [st.o.reshape(-1) for st in self.layers]
        self._x = [st.x_prev.reshape(-1) for st in self.layers]
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
        ctr = self.counter

        flat = frame.reshape(-1)
        d = flat - self._input_flat
        idx = _fired(d, self.input_threshold)
        deltas = d[idx]
        if idx.size:
            self._input_flat[idx] = flat[idx]
        ctr.events_sent[0] += idx.size
        if self.trace is not None:
            self._write_trace(t, "Input", idx, deltas)

        for k, layer in enumerate(self.spec.layers):
            o = self._o[k]
            ctr.events_received[k + 1] += idx.size
            if idx.size:
                if layer.kind == "conv2d":
                    self._conv_update(k, idx, deltas)
                else:
                    w_in_out = self.w_masked[k].T
                    if idx.size > self._full_from[k]:
                        dvec = self._zero_deltas[k]
                        dvec[idx] = deltas
                        o += dvec @ w_in_out
                        dvec[idx] = 0.0
                    else:
                        o += deltas @ w_in_out[idx]
                ctr.significant_multiplications[k + 1] += int(
                    self._event_costs[k][idx].sum())

            if idx.size or self._first_step:
                x = self._x[k]
                act = o if self._act[k] is None else np.maximum(
                    o, 0.0, out=self._act[k])
                d = act - x
                idx = _fired(d, self._thresholds[k])
                deltas = d[idx]
                if idx.size:
                    x[idx] = act[idx]
                    if self.trace is not None:
                        self._write_trace(t, self._names[k], idx, deltas)
                ctr.events_sent[k + 1] += idx.size

        self._first_step = False
        ctr.timesteps += 1
        return self._x[-1].copy()

    def _conv_update(self, k: int, idx: np.ndarray,
                     deltas: np.ndarray) -> None:
        """Add the effect of input events (idx, deltas) to conv layer k's
        accumulator, at the output positions the events touch only."""
        out_pos, cols, w2, filter_base, mark = self._conv[k]
        dimg = self._zero_deltas[k]
        pos = out_pos[idx]
        mark[pos] = True
        affected = mark[:-1].nonzero()[0]
        mark[pos] = False
        dimg[idx] = deltas
        # (F, n_affected) flat accumulator indices: every filter, affected
        # positions only
        self._o[k][filter_base + affected] += w2 @ dimg[cols[:, affected]]
        dimg[idx] = 0.0

    def resync(self) -> None:
        """Recompute every accumulator from the transmitted values upstream,
        squashing any floating-point drift. Off the hot path by design; no
        routine calls it automatically."""
        prev = self.input_prev
        for k, layer in enumerate(self.spec.layers):
            st = self.layers[k]
            if layer.kind == "conv2d":
                st.o[...] = conv2d_single(prev, self.w_masked[k],
                                          self.biases[k], layer.stride)
            else:
                st.o[...] = self.w_masked[k] @ prev.ravel() + self.biases[k]
            prev = st.x_prev

    def _write_trace(self, t: int, label: str, idx: np.ndarray,
                     deltas: np.ndarray) -> None:
        lines = [f"{t}\t{label}\t{int(i)}\t{float(d)!r}\n"
                 for i, d in zip(idx, deltas)]
        self.trace.write("".join(lines))


def _fired(d: np.ndarray, threshold: float) -> np.ndarray:
    """Flat indices where a change d passes the gate: nonzero and at least
    the threshold in magnitude (for a threshold > 0 the second implies the
    first)."""
    fire = (d != 0.0) if threshold == 0.0 else (np.abs(d) >= threshold)
    return fire.nonzero()[0]


def conv_event_costs(w_masked: np.ndarray, in_shape: tuple[int, int, int],
                     stride: int) -> np.ndarray:
    """Significant multiplications one event at input position (c, y, x)
    triggers in a conv layer: the number of nonzero kernel weights (over all
    filters) at kernel offsets that actually map to a valid output position.
    Border positions touch fewer offsets."""
    f = w_masked.shape[0]
    in_shape = tuple(int(s) for s in in_shape)
    cols = _im2col_table(w_masked.shape[1:], in_shape, stride)
    nnz = np.count_nonzero(w_masked.reshape(f, -1), axis=0)
    # each (kernel column, output position) pair reads one input position
    costs = np.bincount(cols.ravel(), weights=np.repeat(nnz, cols.shape[1]),
                        minlength=int(np.prod(in_shape)))
    return costs.astype(np.int64).reshape(in_shape)


@functools.lru_cache(maxsize=32)
def _im2col_table(kernel_shape: tuple[int, int, int],
                  in_shape: tuple[int, int, int],
                  stride: int) -> np.ndarray:
    """Flat input index of every (kernel column, output position) entry of a
    valid conv's im2col matrix: for a (C, H, W) image x that matrix is
    x.ravel()[table], shape (C*Ky*Kx, out_h*out_w). Read-only and shared
    between engines; intp, because numpy converts any other index dtype on
    every gather (int32 tables cost about 7 us of a 100 us desk step)."""
    _, ky, kx = kernel_shape
    _, h, w = in_shape
    chans, rows, cols = im2col_indices(in_shape, ky, kx, stride)
    table = ((chans * h + rows) * w + cols).astype(np.intp)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _conv_footprint(kernel_shape: tuple[int, int, int],
                    in_shape: tuple[int, int, int],
                    stride: int) -> np.ndarray:
    """Output positions each input position of a valid conv with (C, Ky, Kx)
    kernels feeds: row p (a flat input index) holds the spatial output
    indices oy * out_w + ox in ceil(Ky/s) * ceil(Kx/s) slots; unused slots
    hold out_h * out_w. intp (see _im2col_table), read-only and shared
    between engines."""
    c, ky, kx = kernel_shape
    _, h, w = in_shape
    out_h = (h - ky) // stride + 1
    out_w = (w - kx) // stride + 1

    def axis(size: int, kernel: int, out_size: int) -> np.ndarray:
        # per position and slot: the output index, or -1 where none
        pos = np.arange(size)[:, None]
        o = pos // stride - np.arange(-(-kernel // stride))[None, :]
        valid = (o >= 0) & (o < out_size) & (pos - o * stride < kernel)
        return np.where(valid, o, -1)

    oy = axis(h, ky, out_h)[:, None, :, None]     # (H, 1, slots_y, 1)
    ox = axis(w, kx, out_w)[None, :, None, :]     # (1, W, 1, slots_x)
    out_pos = np.where((oy >= 0) & (ox >= 0), oy * out_w + ox, out_h * out_w)
    # every channel has the same footprint
    table = np.tile(out_pos.reshape(h * w, -1), (c, 1)).astype(np.intp)
    table.flags.writeable = False
    return table


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
