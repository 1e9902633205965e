"""Event-driven inference over a (possibly pruned) feedforward network, with
exact significant-multiplication accounting.

Instead of recomputing every layer from scratch each timestep, each neuron
keeps a running pre-activation accumulator and the last value it transmitted
downstream. One threshold gates the input and every layer alike: when a new
frame arrives, only input entries whose change reaches the threshold emit
delta events; each event updates downstream accumulators through the
nonzero, unpruned weights it touches, and a neuron re-transmits only when
its activation has drifted at least the threshold away from the last
transmitted value (a hysteresis gate: the comparison point is the last
*sent* value, so sub-threshold residue is never discarded).

Each weighted layer is one ``_Layer`` record: its masked weights, bias,
per-input event costs, conv tables, reusable buffers and the flat episode
state (accumulator ``o`` and last transmitted values ``x``).

Events update accumulators in place; no layer is re-run. A conv layer looks
each fired input position up in a footprint table, the inverse of its im2col
table, to mark the output positions it touches (``_conv_footprint``),
writes the deltas into a zero delta image of its input, and gathers the
``(C*Ky*Kx, n_affected)`` im2col block of those positions through a flat
index table (``_im2col_table``). One ``(F, C*Ky*Kx) @ block`` product is
added into the accumulator at the affected positions only, and the image is
zeroed again. At full event density this is the im2col GEMM of the dense
pass, so there is no fallback path. A dense layer keeps its masked weights
as one (in, out) C-order array. When at most ``DENSE_FULL_FRACTION`` of its
inputs fired it adds ``deltas @ w[fired]`` (the rows are contiguous); above
it, the full ``delta_vector @ w`` over a zero vector holding the deltas,
which is the faster of the two there. Zero deltas and masked (zero) weights
add exact zeros on every path, so an output that no fired input reaches
through a live weight keeps its accumulator bit for bit.

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
event traffic only. A layer receives exactly the events the row before it
sent.

Action selection downstream reads the output layer's transmitted values
(not the instantaneous accumulator activations); with a zero threshold the
two coincide.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .network import LayerSpec, NetworkSpec, WeightSet, im2col_indices
from .tensorops import check_finite

# A dense layer adds the full product (delta vector) @ w, zeros included,
# once more than this fraction of its inputs fired in a step, and the
# gathered rows deltas @ w[fired] up to it. Measured crossover, one OpenBLAS
# thread on a 2-vCPU Xeon, gather vs full: (1024, 128) 27.6 vs 28.6 us at
# 0.30 and 30.0 vs 25.9 us at 0.33; (3136, 512) 634 vs 662 us at 0.30 and
# 699 vs 649 us at 0.33.
DENSE_FULL_FRACTION = 0.3


class OpCounter:
    """Per-layer tallies of significant multiplications and events sent.

    Row 0 is the input; rows 1..n are the weighted layers. All tallies are
    nonnegative and only ever grow within a run; counters from independent
    runs merge by addition.
    """

    def __init__(self, layer_names: Sequence[str]):
        self.layer_names = ("Input",) + tuple(layer_names)
        n = len(self.layer_names)
        self.significant_multiplications = np.zeros(n, dtype=np.int64)
        self.events_sent = np.zeros(n, dtype=np.int64)
        self.timesteps = 0

    def total_multiplications(self) -> int:
        return int(self.significant_multiplications.sum())

    def merge(self, other: "OpCounter") -> "OpCounter":
        if self.layer_names != other.layer_names:
            raise ValueError("cannot merge counters over different layer sets")
        self.significant_multiplications += other.significant_multiplications
        self.events_sent += other.events_sent
        self.timesteps += other.timesteps
        return self

    def copy(self) -> "OpCounter":
        out = OpCounter(self.layer_names[1:])
        return out.merge(self)


@dataclass(eq=False, slots=True)
class _Layer:
    """One weighted layer of a DeltaNetwork: constants, reusable buffers and
    flat episode state. The delta buffers are zero again after every step."""

    spec: LayerSpec
    w: np.ndarray           # masked: conv (F, C, Ky, Kx), dense (in, out) C-order
    b: np.ndarray
    costs: np.ndarray       # significant multiplications per flat input event
    zero_deltas: np.ndarray  # a zero delta image (conv) or vector (dense) of the input
    full_from: float        # fired inputs above which a dense layer takes the full product
    act: np.ndarray | None  # relu output buffer; None for identity
    o: np.ndarray           # flat running pre-activation, starts at the bias
    x: np.ndarray           # flat last transmitted activation, starts at zero
    # conv only: the footprint and im2col tables, the (F, C*Ky*Kx) weights,
    # each filter's flat accumulator offset, and a mark per output position
    # plus a spare one for unused footprint slots
    out_pos: np.ndarray | None = None
    cols: np.ndarray | None = None
    w2: np.ndarray | None = None
    filter_base: np.ndarray | None = None
    mark: np.ndarray | None = None


class DeltaNetwork:
    """Event-driven evaluator for one episode; single-threaded mutable state.

    Run several episodes with independent instances (or reset_state) and
    merge their counters afterwards.
    """

    def __init__(self, spec: NetworkSpec, weights: WeightSet,
                 thresholds: float = 0.001,
                 masks: Sequence[np.ndarray] | None = None,
                 trace: IO[str] | None = None):
        weights.validate(spec)
        for arr in (*weights.weights, *weights.biases):
            check_finite(arr)
        self.spec = spec
        if not isinstance(thresholds, numbers.Real):
            raise TypeError(
                f"threshold must be one real number, got {thresholds!r}")
        if not (math.isfinite(thresholds) and thresholds >= 0):
            raise ValueError(
                f"threshold must be finite and nonnegative, got {thresholds}")
        # the one threshold of the input row and every layer; the name is
        # the one bench/tracing.py labels step spans by
        self.input_threshold = float(thresholds)
        self.trace = trace

        self.layers: list[_Layer] = []
        in_shape: tuple[int, ...] = spec.input_shape
        for i, (layer, out_shape) in enumerate(zip(spec.layers,
                                                   spec.output_shapes())):
            keep = None if masks is None else np.asarray(masks[i], dtype=bool)
            n_in, n_out = int(np.prod(in_shape)), int(np.prod(out_shape))
            # the small long-lived buffers before the large temporaries
            # below: allocated after them, they fragment the glibc heap
            # (peak RSS +12 MB over five reference-scale engine sets)
            bufs = dict(zero_deltas=np.zeros(n_in),
                        act=np.empty(n_out) if layer.activation == "relu" else None,
                        o=np.empty(n_out), x=np.empty(n_out))
            conv = {}
            if layer.kind == "conv2d":
                w = weights.weights[i].copy()
                if keep is not None:
                    w[~keep] = 0.0
                kernel = w.shape[1:]
                cols = _im2col_table(kernel, in_shape, layer.stride)
                n_pos = cols.shape[1]
                conv = dict(out_pos=_conv_footprint(kernel, in_shape, layer.stride),
                            cols=cols, w2=w.reshape(w.shape[0], -1),
                            filter_base=np.arange(w.shape[0])[:, None] * n_pos,
                            mark=np.zeros(n_pos + 1, dtype=bool))
                costs = conv_event_costs(w, in_shape, layer.stride).ravel()
            else:
                w = np.ascontiguousarray(weights.weights[i].T)
                if keep is not None:
                    w[~keep.T] = 0.0
                costs = np.count_nonzero(w, axis=1).astype(np.int64)
            self.layers.append(_Layer(
                spec=layer, w=w, b=weights.biases[i].copy(),
                costs=costs, full_from=DENSE_FULL_FRACTION * n_in,
                **bufs, **conv))
            in_shape = out_shape

        self.input_prev = np.empty(int(np.prod(spec.input_shape)))
        self.counter = OpCounter(spec.layer_names())
        self.reset_state()

    def reset_state(self) -> None:
        """Fresh episode state; the counter is left untouched."""
        self.input_prev.fill(0.0)
        for L in self.layers:
            L.o.reshape(L.b.size, -1)[...] = L.b[:, None]
            L.x.fill(0.0)
        self._first_step = True

    def step(self, frame: np.ndarray) -> np.ndarray:
        """Process one input frame; returns the output layer's transmitted
        values (length n_output)."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != self.spec.input_shape:
            raise ValueError(
                f"frame shape {frame.shape} != {self.spec.input_shape}")
        check_finite(frame)
        ctr = self.counter
        idx, deltas = self._gate(0, frame.reshape(-1), self.input_prev)
        for k, L in enumerate(self.layers, 1):
            o = L.o
            if idx.size:
                if L.spec.kind == "conv2d":
                    self._conv_update(L, idx, deltas)
                elif idx.size > L.full_from:
                    dvec = L.zero_deltas
                    dvec[idx] = deltas
                    o += dvec @ L.w
                    dvec[idx] = 0.0
                else:
                    o += deltas @ L.w[idx]
                ctr.significant_multiplications[k] += int(L.costs[idx].sum())

            if idx.size or self._first_step:
                act = o if L.act is None else np.maximum(o, 0.0, out=L.act)
                idx, deltas = self._gate(k, act, L.x)

        self._first_step = False
        ctr.timesteps += 1
        return self.layers[-1].x.copy()

    def _gate(self, k: int, value: np.ndarray,
              sent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row k's events: the flat indices where `value` differs from the
        last `sent` value by a nonzero amount of at least the threshold (for
        a threshold > 0 the second implies the first), and those changes.
        `sent` catches up at the fired indices, which are counted and
        traced."""
        d = value - sent
        t = self.input_threshold
        idx = ((d != 0.0) if t == 0.0 else (np.abs(d) >= t)).nonzero()[0]
        deltas = d[idx]
        if idx.size:
            sent[idx] = value[idx]
            ctr = self.counter
            ctr.events_sent[k] += idx.size
            if self.trace is not None:
                head = f"{ctr.timesteps}\t{ctr.layer_names[k]}\t"
                self.trace.write("".join(f"{head}{int(i)}\t{float(v)!r}\n"
                                         for i, v in zip(idx, deltas)))
        return idx, deltas

    def _conv_update(self, L: _Layer, idx: np.ndarray,
                     deltas: np.ndarray) -> None:
        """Add the effect of input events (idx, deltas) to conv layer L's
        accumulator, at the output positions the events touch only."""
        mark, dimg = L.mark, L.zero_deltas
        pos = L.out_pos[idx]
        mark[pos] = True
        affected = mark[:-1].nonzero()[0]
        mark[pos] = False
        dimg[idx] = deltas
        # (F, n_affected) flat accumulator indices: every filter, affected
        # positions only
        L.o[L.filter_base + affected] += L.w2 @ dimg[L.cols[:, affected]]
        dimg[idx] = 0.0

    def resync(self) -> None:
        """Recompute every accumulator from the transmitted values upstream,
        squashing any floating-point drift. Off the hot path by design; no
        routine calls it automatically."""
        prev = self.input_prev
        for L in self.layers:
            if L.spec.kind == "conv2d":  # the im2col GEMM of the dense pass
                L.o.reshape(L.b.size, -1)[...] = \
                    L.w2 @ prev[L.cols] + L.b[:, None]
            else:
                L.o[...] = L.w.T @ prev + L.b
            prev = L.x


def conv_event_costs(w: np.ndarray, in_shape: tuple[int, int, int],
                     stride: int) -> np.ndarray:
    """Significant multiplications one event at input position (c, y, x)
    triggers in a conv layer with masked (F, C, Ky, Kx) weights w: the number
    of nonzero kernel weights (over all filters) at kernel offsets that
    actually map to a valid output position. Border positions touch fewer
    offsets."""
    f = w.shape[0]
    in_shape = tuple(int(s) for s in in_shape)
    cols = _im2col_table(w.shape[1:], in_shape, stride)
    nnz = np.count_nonzero(w.reshape(f, -1), axis=0)
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
    """Output positions each input position of a valid conv feeds, the
    inverse of _im2col_table: entry (k, p) of that table, kernel column k =
    (c*Ky + ky)*Kx + kx read at output position p, writes p into its input's
    row at slot (ky // s) * ceil(Kx/s) + kx // s. No two outputs an input
    feeds share a slot; unused slots hold out_h * out_w. intp, read-only
    and shared between engines."""
    _, ky, kx = kernel_shape
    cols = _im2col_table(kernel_shape, in_shape, stride)
    n_cols, n_out = cols.shape
    k = np.arange(n_cols)
    slots_x = -(-kx // stride)
    slot = ((k // kx) % ky // stride) * slots_x + k % kx // stride
    table = np.full((int(np.prod(in_shape)), -(-ky // stride) * slots_x),
                    n_out, dtype=np.intp)
    table[cols, slot[:, None]] = np.arange(n_out)
    table.flags.writeable = False
    return table


def measure_delta_sparsity(counter: OpCounter, spec: NetworkSpec) -> dict[str, float]:
    """Fraction of neuron-timesteps that transmitted nothing, per layer
    (the input row counts pixels)."""
    if counter.timesteps < 1:
        raise ValueError("no timesteps recorded")
    out = {}
    for name, n, sent in zip(counter.layer_names, spec.neuron_counts(),
                             counter.events_sent):
        out[name] = 1.0 - float(sent) / (n * counter.timesteps)
    return out
