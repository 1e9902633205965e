"""Event-driven inference over a (possibly pruned) feedforward network, with
exact significant-multiplication accounting.

Instead of recomputing every layer from scratch each timestep, each neuron
keeps a running pre-activation accumulator and the last value it transmitted
downstream. One threshold, finite and >= 0 (``check_threshold`` states the
rule for the engine and the config alike), gates the input and every layer
alike: when a new frame arrives, only input entries whose change reaches the threshold emit
delta events; each event updates downstream accumulators through the
nonzero, unpruned weights it touches, and a neuron re-transmits only when
its activation has drifted at least the threshold away from the last
transmitted value (a hysteresis gate: the comparison point is the last
*sent* value, so sub-threshold residue is never discarded).

Each weighted layer is one ``_Layer`` record: its kind, masked weights, bias,
per-input event costs, conv tables, reusable buffers and the flat episode
state (accumulator ``o`` and last transmitted values ``x``).

A step is one loop over the rows, input first, and every row runs the same
lines: its layer takes in the events of the row above, applies its
activation and gates the result inline by the one rule above. Once a row
after the first step sends nothing, no row below it can, and the loop stops.
A row gathers its deltas only for a layer below it or for a trace, so the
output row gathers them only when a trace is open.

Events update accumulators in place; no layer is re-run. A conv layer marks
the output positions its events touch through a footprint table, the inverse
of its im2col table (``_conv_footprint``). The footprint row of input
(c, y, x) does not depend on c, so a layer with more input channels than
footprint slots first reduces its events to their distinct (y, x) positions
and looks each up once; the others look up each event. The layer writes the
deltas into a zero delta image of its input, reads the affected positions'
rows of the position-major ``(n_pos, C*Ky*Kx)`` im2col table
(``im2col_table``) and through them the ``(n_affected, C*Ky*Kx)`` delta
block. The product ``w2 @ block.T`` takes in those columns of the
``(F, n_pos)`` accumulator view in place and is written back to them once.
The image is zeroed again. At full event density this is the im2col GEMM of
the dense pass, so there is no fallback path. A dense layer keeps its masked
weights as one (in, out) C-order array and adds ``deltas @ w[fired]``: one
product when the fired rows fit in one block of about ``DENSE_BLOCK_BYTES``,
otherwise one product per block, so that each block is still in cache when
its product reads it. Zero deltas and masked (zero) weights add exact
zeros, so an output that no fired input reaches through a live weight keeps
its accumulator bit for bit.

Timestep semantics are synchronous: a layer absorbs every event of the
current step before its neurons decide whether to fire, which makes outputs
and counters independent of event ordering. On the very first step each
layer evaluates its firing rule even without incoming events, so bias-driven
activations propagate and the first frame behaves like a full dense pass
(both accumulators start at the bias, transmitted values start at zero).

A multiplication is counted as significant when both the incoming delta and
the weight are nonzero; masked weights are zero and therefore never counted.
Accumulator additions are not counted. Where every input of a layer costs
the same number of multiplications, as in a dense layer with no masked
weight, a step counts its events times that cost; elsewhere (conv layers,
whose border inputs cost less, and masked dense layers) it sums the costs of
the fired inputs, in Python for fewer than ``PYTHON_SUM_BELOW`` events and
with numpy above. Events consumed from the input are attributed to the first
weighted layer; the Input row of the counter tracks event traffic only. A
layer receives exactly the events the row before it sent.

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

from .network import (NetworkSpec, WeightSet, check_finite, im2col_table,
                      real_frame)

# A dense layer adds deltas @ w[fired], gathering DENSE_BLOCK_BYTES of rows
# at a time so that each block is still in cache when its product reads it
# (one gather of 1,220 rows of a (3136, 512) layer is 5 MB). Median us at
# 0.40 fired, one OpenBLAS thread on a shared 2-vCPU Xeon, half-masked random
# (3136, 512) weights: one gather 650, 512 KB blocks 330. Blocks of 256 KB and
# 1 MB were no faster in the engine's step.
DENSE_BLOCK_BYTES = 512 * 1024

# A layer whose inputs cost unequal amounts counts fewer than PYTHON_SUM_BELOW
# events with sum(costs[idx].tolist()) and more with int(costs[idx].sum()),
# whose reduction set-up costs more than a short Python sum. Best of 7 timeit
# repeats on a shared 2-vCPU Xeon, int64 costs of 400-12,800 inputs: 64 events
# 1.03-1.06 against 1.40-1.50 us, 128 events 1.83-1.93 against 1.53-1.58; they
# tie near 90. The desk conv receives about 7 events per step, the reference
# conv layers 480-1,350.
PYTHON_SUM_BELOW = 80


def check_threshold(t: float) -> float:
    """`t` as a float; the one statement of a threshold's rule: a real
    number (not a bool, which would read as 1.0), finite (a NaN gate never
    fires) and >= 0."""
    if not isinstance(t, numbers.Real) or isinstance(t, bool):
        raise TypeError(f"threshold must be one real number, got {t!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {t}")
    return float(t)


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
    """One weighted layer of a DeltaNetwork: constants, reusable buffers,
    views of them made once at construction, and flat episode state. The
    conv delta image and the marks are zero again after every step."""

    conv: bool
    w: np.ndarray           # masked: conv (F, C, Ky, Kx), dense (in, out) C-order
    b: np.ndarray
    costs: np.ndarray       # significant multiplications per flat input event
    cost: int | None        # every input event's cost where all are equal, else None
    block_rows: int         # dense: weight rows gathered per block of DENSE_BLOCK_BYTES
    act: np.ndarray | None  # relu output buffer; None for identity
    o: np.ndarray           # flat running pre-activation, starts at the bias
    x: np.ndarray           # flat last transmitted activation, starts at zero
    # conv only: the footprint and im2col tables, the (F, C*Ky*Kx) weights,
    # the (F, n_pos) view of o, a zero delta image of the input, a mark per
    # output position plus a spare one for unused footprint slots, the view
    # of the output positions' marks, and, where events are looked up per
    # spatial position, a mark per input position
    out_pos: np.ndarray | None = None
    cols: np.ndarray | None = None
    w2: np.ndarray | None = None
    o2: np.ndarray | None = None
    dimg: np.ndarray | None = None
    mark: np.ndarray | None = None
    marked: np.ndarray | None = None
    seen: np.ndarray | None = None


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
        if masks is not None:
            if len(masks) != len(spec.layers):
                raise ValueError(f"{len(masks)} masks for {len(spec.layers)} "
                                 "layers: give one mask per layer")
            for i, (layer, m) in enumerate(zip(spec.layers, masks)):
                if np.shape(m) != layer.weight_shape():
                    raise ValueError(f"layer {i}: mask shape {np.shape(m)} != "
                                     f"{layer.weight_shape()}")
        for arr in (*weights.weights, *weights.biases):
            check_finite(arr)
        self.spec = spec
        # the one threshold of the input row and every layer; the name is
        # the one bench/tracing.py labels step spans by
        self.input_threshold = check_threshold(thresholds)
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
            is_conv = layer.kind == "conv2d"
            bufs = dict(dimg=np.zeros(n_in) if is_conv else None,
                        act=np.empty(n_out) if layer.activation == "relu" else None,
                        o=np.empty(n_out), x=np.empty(n_out))
            conv = {}
            if is_conv:
                kernel = layer.weight_shape()[1:]
                out_pos = _conv_footprint(kernel, in_shape, layer.stride)
                mark = np.zeros(n_out // layer.out_filters + 1, dtype=bool)
                conv = dict(out_pos=out_pos, mark=mark, marked=mark[:-1],
                            o2=bufs["o"].reshape(layer.out_filters, -1))
                # one lookup per spatial position pays once the channels
                # outnumber the slots each position's row fills
                if layer.in_channels > out_pos.shape[1]:
                    conv["seen"] = np.zeros(n_in // layer.in_channels, dtype=bool)
                w = weights.weights[i].copy()
                if keep is not None:
                    w[~keep] = 0.0
                conv.update(cols=im2col_table(kernel, in_shape, layer.stride),
                            w2=w.reshape(w.shape[0], -1))
                costs = conv_event_costs(w, in_shape, layer.stride).ravel()
            else:
                w = np.ascontiguousarray(weights.weights[i].T)
                if keep is not None:
                    w[~keep.T] = 0.0
                costs = np.count_nonzero(w, axis=1).astype(np.int64)
            # a count of equal costs needs no gather: every unmasked dense
            # layer; a conv layer's border inputs cost less
            cost = int(costs[0]) if costs.min() == costs.max() else None
            self.layers.append(_Layer(
                conv=is_conv, w=w,
                b=weights.biases[i].copy(), costs=costs, cost=cost,
                block_rows=max(1, DENSE_BLOCK_BYTES // w[0].nbytes),
                **bufs, **conv))
            in_shape = out_shape

        self._receivers = (*self.layers, None)
        self._out = self.layers[-1].x
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
        frame = real_frame(frame)
        if frame.shape != self.spec.input_shape:
            raise ValueError(
                f"frame shape {frame.shape} != {self.spec.input_shape}")
        check_finite(frame)
        ctr = self.counter
        mults, events = ctr.significant_multiplications, ctr.events_sent
        t, trace, first = self.input_threshold, self.trace, self._first_step
        # row k (0 is the input) holds `value` and last sent `sent`; L is
        # the layer that takes in its events, None below the output row
        value, sent, k = frame.reshape(-1), self.input_prev, 0
        for L in self._receivers:
            # the gate (for a threshold > 0, |d| >= t implies d != 0)
            d = value - sent
            idx = ((d != 0.0) if t == 0.0 else (np.abs(d) >= t)).nonzero()[0]
            n = idx.size
            if n:
                # only a layer below or a trace reads the deltas
                deltas = d[idx] if L is not None or trace is not None else None
                sent[idx] = value[idx]
                events[k] += n
                if trace is not None:
                    head = f"{ctr.timesteps}\t{ctr.layer_names[k]}\t"
                    trace.write("".join(f"{head}{int(i)}\t{float(v)!r}\n"
                                        for i, v in zip(idx, deltas)))
            elif not first:
                break  # no row below receives an event
            if L is None:
                break
            k += 1
            o = L.o
            if n:
                if L.conv:
                    self._conv_update(L, idx, deltas)
                elif n <= L.block_rows:
                    o += deltas @ L.w.take(idx, axis=0)
                else:
                    b = L.block_rows
                    for lo in range(0, n, b):
                        o += deltas[lo:lo + b] @ L.w.take(idx[lo:lo + b], axis=0)
                if L.cost is not None:
                    mults[k] += n * L.cost
                elif n < PYTHON_SUM_BELOW:
                    mults[k] += sum(L.costs[idx].tolist())
                else:
                    mults[k] += int(L.costs[idx].sum())
            value = o if L.act is None else np.maximum(o, 0.0, out=L.act)
            sent = L.x

        self._first_step = False
        ctr.timesteps += 1
        return self._out.copy()

    def _conv_update(self, L: _Layer, idx: np.ndarray,
                     deltas: np.ndarray) -> None:
        """Add the effect of input events (idx, deltas) to conv layer L's
        accumulator, at the output positions the events touch only."""
        mark, dimg, seen = L.mark, L.dimg, L.seen
        if seen is None:
            pos = L.out_pos.take(idx, axis=0)
        else:
            # the distinct spatial positions of the events; the footprint
            # rows of channel 0 serve every channel
            seen[idx % seen.size] = True
            at = seen.nonzero()[0]
            seen[at] = False
            pos = L.out_pos.take(at, axis=0)
        mark[pos] = True
        affected = L.marked.nonzero()[0]
        mark[pos] = False
        dimg[idx] = deltas
        # the affected positions' whole im2col rows; their (F, n_affected)
        # product takes in the old columns in place and is assigned once
        # (IEEE addition commutes, so this is o2[:, affected] += product)
        blk = dimg.take(L.cols.take(affected, axis=0))
        o2 = L.o2
        prod = L.w2 @ blk.T
        prod += o2.take(affected, axis=1)
        o2[:, affected] = prod
        dimg[idx] = 0.0

    def resync(self) -> None:
        """Recompute every accumulator from the transmitted values upstream,
        squashing any floating-point drift. Off the hot path by design; no
        routine calls it automatically."""
        prev = self.input_prev
        for L in self.layers:
            if L.conv:  # the im2col GEMM of the dense pass
                L.o2[...] = L.w2 @ prev[L.cols].T + L.b[:, None]
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
    cols = im2col_table(w.shape[1:], in_shape, stride)
    nnz = np.count_nonzero(w.reshape(f, -1), axis=0)
    # each (output position, kernel column) pair reads one input position
    costs = np.bincount(cols.ravel(), weights=np.tile(nnz, cols.shape[0]),
                        minlength=int(np.prod(in_shape)))
    return costs.astype(np.int64).reshape(in_shape)


@functools.lru_cache(maxsize=32)
def _conv_footprint(kernel_shape: tuple[int, int, int],
                    in_shape: tuple[int, int, int],
                    stride: int) -> np.ndarray:
    """Output positions each input position of a valid conv feeds, the
    inverse of im2col_table: entry (p, k) of that table, output position p
    reading kernel column k = (c*Ky + ky)*Kx + kx, writes p into its input's
    row at slot (ky // s) * ceil(Kx/s) + kx // s. No two outputs an input
    feeds share a slot, and the row of input (c, y, x) does not depend on
    c; unused slots hold out_h * out_w. intp, read-only and shared between
    engines."""
    _, ky, kx = kernel_shape
    cols = im2col_table(kernel_shape, in_shape, stride)
    n_out, n_cols = cols.shape
    k = np.arange(n_cols)
    slots_x = -(-kx // stride)
    slot = ((k // kx) % ky // stride) * slots_x + k % kx // stride
    table = np.full((int(np.prod(in_shape)), -(-ky // stride) * slots_x),
                    n_out, dtype=np.intp)
    table[cols, slot] = np.arange(n_out)[:, None]
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
