"""Slow, independent reference implementations used by the tests.

Everything here is written with explicit scalar loops (or per-event loops)
so it shares no code path with the library implementations it checks.
"""

from __future__ import annotations

import numpy as np


def naive_forward(spec, weights, x):
    """Nested-loop convolution/matmul forward pass."""
    cur = np.array(x, dtype=np.float64)
    for li, layer in enumerate(spec.layers):
        w, b = weights.weights[li], weights.biases[li]
        if layer.kind == "conv2d":
            c_in, h, wid = cur.shape
            f, ky, kx, s = layer.out_filters, layer.kernel_y, layer.kernel_x, layer.stride
            oh, ow = (h - ky) // s + 1, (wid - kx) // s + 1
            out = np.zeros((f, oh, ow))
            for fi in range(f):
                for oy in range(oh):
                    for ox in range(ow):
                        acc = b[fi]
                        for c in range(c_in):
                            for yy in range(ky):
                                for xx in range(kx):
                                    acc += w[fi, c, yy, xx] * cur[c, oy * s + yy, ox * s + xx]
                        out[fi, oy, ox] = acc
            cur = out
        else:
            flat = cur.ravel()
            out = np.zeros(layer.out_size)
            for j in range(layer.out_size):
                acc = b[j]
                for i in range(layer.in_size):
                    acc += w[j, i] * flat[i]
                out[j] = acc
            cur = out
        if layer.activation == "relu":
            cur = np.maximum(cur, 0.0)
    return cur.ravel()


class NaiveDeltaResult:
    def __init__(self, n_layers):
        self.outputs = []
        self.mults = [0] * n_layers          # per weighted layer
        self.events_sent = [0] * (n_layers + 1)  # index 0: input
        self.events_received = [0] * n_layers


def naive_delta_run(spec, weights, masks, threshold, frames):
    """Per-event delta simulation: every (nonzero delta, nonzero unpruned
    weight) pair is enumerated one multiplication at a time.

    Semantics: all events of a timestep are absorbed before any neuron
    decides to fire; an input pixel or a neuron fires when its value
    differs from the last transmitted one by a nonzero amount of at least
    the one `threshold`; on the first timestep every layer evaluates firing
    even without incoming events (bias propagation).
    """

    def fires(d):
        return d != 0.0 and abs(d) >= threshold

    n_layers = len(spec.layers)
    w_m = []
    for li in range(n_layers):
        w = np.array(weights.weights[li], dtype=np.float64)
        if masks is not None:
            w = w * masks[li]
        w_m.append(w)

    out_shapes = spec.output_shapes()
    o = []
    x_prev = []
    for li, layer in enumerate(spec.layers):
        shape = out_shapes[li]
        if layer.kind == "conv2d":
            acc = np.zeros(shape)
            for fi in range(shape[0]):
                acc[fi, :, :] = weights.biases[li][fi]
        else:
            acc = np.array(weights.biases[li], dtype=np.float64)
        o.append(acc)
        x_prev.append(np.zeros(shape))
    input_prev = np.zeros(spec.input_shape)

    res = NaiveDeltaResult(n_layers)
    for t, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=np.float64)
        events = []
        flat_frame = frame.ravel()
        flat_prev = input_prev.ravel()
        for i in range(flat_frame.size):
            d = flat_frame[i] - flat_prev[i]
            if fires(d):
                events.append((i, d))
                flat_prev[i] = flat_frame[i]
        res.events_sent[0] += len(events)

        in_shape = spec.input_shape
        for li, layer in enumerate(spec.layers):
            res.events_received[li] += len(events)
            if layer.kind == "conv2d":
                c_in, h, wid = in_shape
                f, ky, kx, s = (layer.out_filters, layer.kernel_y,
                                layer.kernel_x, layer.stride)
                oh, ow = out_shapes[li][1], out_shapes[li][2]
                for i, d in events:
                    c, y, x = np.unravel_index(i, (c_in, h, wid))
                    for oy in range(oh):
                        yy = y - oy * s
                        if yy < 0 or yy >= ky:
                            continue
                        for ox in range(ow):
                            xx = x - ox * s
                            if xx < 0 or xx >= kx:
                                continue
                            for fi in range(f):
                                wgt = w_m[li][fi, c, yy, xx]
                                if wgt != 0.0:
                                    o[li][fi, oy, ox] += wgt * d
                                    res.mults[li] += 1
            else:
                for i, d in events:
                    for j in range(layer.out_size):
                        wgt = w_m[li][j, i]
                        if wgt != 0.0:
                            o[li][j] += wgt * d
                            res.mults[li] += 1

            if events or t == 0:
                new_events = []
                flat_o = o[li].ravel()
                flat_x = x_prev[li].ravel()
                for j in range(flat_o.size):
                    act = max(flat_o[j], 0.0) if layer.activation == "relu" \
                        else flat_o[j]
                    d_out = act - flat_x[j]
                    if fires(d_out):
                        flat_x[j] = act
                        new_events.append((j, d_out))
                events = new_events
            else:
                events = []
            res.events_sent[li + 1] += len(events)
            in_shape = out_shapes[li]
        res.outputs.append(x_prev[-1].ravel().copy())
    return res
