"""Desk-scale deep Q-learning: replay buffer, double-Q targets, manual
backprop with an adaptive-moment optimizer, and the iterative
prune/rewind/retrain pipeline.

A pruned network is evaluated one way, by `evaluate_pruned`: dense first,
then in delta mode at each threshold, each rollout on a fresh fork of the
same evaluation seed. It returns the report rows (`RunRecord`), one per
threshold. `lottery_pipeline` applies it to every retrained network and
`deltaq delta-eval` to a checkpoint. `check_fits` is the one rule that a
network acts on an environment: it takes the env's states and has one
output per action. `train` and `evaluate` apply it before any work.

The public network forward pass is single-state; training uses its own
batched forward/backward. It reads conv columns with one gather through
`network.im2col_table`, the im2col index table the delta engine reads too,
and adds column gradients back at the same input positions. Each conv
layer's weight gradient and column gradient is one BLAS matrix product
over the batch and the output positions together.

`ReplayBuffer` holds each observation once, as uint8, and each transition
the indices of its s and s' frames. Its `add` rejects a state that uint8
does not hold exactly (narrower than the float32 store it replaced), so
sampled float64 batches are the added states bit for bit.

`train` only trains: it plays no evaluation episodes, and its result is
the last loss and the number of gradient steps. It keeps the online
weights, the target weights, the gradient and the optimizer's two moments
each as one contiguous float64 vector (weights of every layer, then
biases), with per-layer `WeightSet` views over it: the backward pass
writes into the gradient views, target sync is one copy, gradient masking
is one indexed assignment, and `Adam.step` updates the whole vector in
place in cache-sized chunks, in the efficient form of Kingma & Ba (one
division per element). The Huber loss's `HUBER_DELTA` and Adam's
`ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS` are module constants, not config
keys. Masked weights are zeroed once, by `p.apply()` before training, and
get zero gradient, so Adam keeps them at +0.0. The target network is
frozen between syncs, so `train` keeps its Q values per replay slot in a
`TargetCache` and runs the target forward only on the batch's distinct
slots that were written or synced since they were last computed. The
trained values are copied back into the caller's own arrays at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainingConfig
from .delta import DeltaNetwork, OpCounter
from .envs import Environment, random_policy_reward
from .network import (NetworkSpec, WeightSet, forward, im2col_table,
                      init_weights)
from .pruning import PrunableWeights, prune_step, report_sparsity, rewind
from .reporting import RunRecord, record_from_counters


class TrainingDiverged(RuntimeError):
    """Raised when the Q-loss stops being finite."""


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    states: np.ndarray       # (B, ...) float64
    actions: np.ndarray      # (B,) int64
    rewards: np.ndarray      # (B,) float64
    next_states: np.ndarray  # (B, ...) float64
    dones: np.ndarray        # (B,) bool
    slots: np.ndarray | None = None  # (B,) buffer slot of each transition


class ReplayBuffer:
    """Bounded FIFO of transitions with uniform sampling.

    Each observation is held once, as uint8, in a ring of `2 * capacity`
    frames, and `at[i]` holds the frame indices of transition i's s and s'
    (the replay memory layout of Mnih et al., Nature 2015); batches are
    float64. `add` rejects a state of the wrong shape, or one that uint8
    does not hold exactly (NaN, infinity, negative, above 255 or not an
    integer), an action that is not a non-negative integer, a done flag
    that is not a bool and a non-finite reward, before it writes anything.
    """

    def __init__(self, capacity: int, state_shape: tuple[int, ...]):
        self.capacity = int(capacity)
        self.size = 0
        self.pos = 0
        # No frame is read before it is written, so the ring is left
        # uninitialised. A frame is overwritten once 2 * capacity more are
        # written. Each add writes s' and, unless s is the frame written
        # last, s first: at most 2 * capacity - 1 frames are written after
        # the oldest live transition's s frame, fewer after any later one.
        self.frames = np.empty((2 * self.capacity, *state_shape), dtype=np.uint8)
        self.n_frames = 0  # frames written so far; frame k is at k % len(frames)
        self.at = np.zeros((self.capacity, 2), dtype=np.int64)
        self.a = np.zeros(self.capacity, dtype=np.int64)
        self.r = np.zeros(self.capacity, dtype=np.float64)
        self.done = np.zeros(self.capacity, dtype=bool)

    def add(self, s: np.ndarray, a: int, r: float, s_next: np.ndarray,
            done: bool) -> None:
        # bool is an int subclass; np.bool_ is not an np.integer
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or a < 0:
            raise ValueError(f"action {a!r} is not a non-negative integer")
        if not isinstance(done, (bool, np.bool_)):
            raise ValueError(f"done flag {done!r} is not a bool")
        if not np.isfinite(r):
            raise ValueError("non-finite reward")
        s, s_next = np.asarray(s), np.asarray(s_next)
        for name, x in (("state", s), ("next state", s_next)):
            if x.shape != self.frames.shape[1:]:
                raise ValueError(f"{name} shape {x.shape} != {self.frames.shape[1:]}")
        ring, k = len(self.frames), self.n_frames
        # Inside an episode s is the previous s', the frame written last;
        # equal to a uint8 frame, it is held exactly and is not stored again.
        reuse = k > 0 and (s == self.frames[(k - 1) % ring]).all()
        new = s_next if reuse else np.concatenate((s, s_next))
        # A round trip through uint8 gives back exactly what uint8 holds;
        # NaN, infinity and values that wrap or truncate come back changed.
        held = new.astype(np.uint8)
        if np.count_nonzero(held != new):
            raise ValueError("state or next state holds values uint8 "
                             "cannot hold exactly (non-finite, negative, "
                             "above 255 or not an integer)")
        if reuse:  # k becomes s's frame number; held is s' or s then s'
            k -= 1
        else:
            self.frames[k % ring] = held[:len(s)]
        self.frames[(k + 1) % ring] = held[-len(s):]
        i = self.pos
        self.at[i] = (k % ring, (k + 1) % ring)
        self.n_frames = k + 2
        self.a[i] = a
        self.r[i] = r
        self.done[i] = done
        self.pos = (self.pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        if self.size < n:
            raise ValueError(f"buffer holds {self.size} < batch size {n}")
        idx = rng.integers(0, self.size, size=n)
        at = self.at[idx]
        return Batch(
            states=self.frames[at[:, 0]].astype(np.float64),
            actions=self.a[idx],
            rewards=self.r[idx],
            next_states=self.frames[at[:, 1]].astype(np.float64),
            dones=self.done[idx],
            slots=idx,
        )


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _im2col_columns(kernel_shape: tuple[int, int, int],
                    in_shape: tuple[int, int, int], stride: int) -> np.ndarray:
    """The position-major im2col table (`network.im2col_table`) transposed
    to (C*Ky*Kx, out_h*out_w): the flat input index of each entry of a
    valid conv's im2col matrix in the layout `forward_batch` multiplies. A
    C-contiguous, read-only copy, cached per geometry; gathering through it
    is faster than through the transposed view."""
    table = np.ascontiguousarray(im2col_table(kernel_shape, in_shape, stride).T)
    table.flags.writeable = False
    return table


def _im2col_batch(x: np.ndarray, ky: int, kx: int, stride: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*ky*kx, out_h*out_w) columns, row index ordered
    as (channel, kernel_y, kernel_x): one gather through `_im2col_columns`."""
    b, c, h, w = x.shape
    table = _im2col_columns((c, ky, kx), (c, h, w), stride)
    return x.reshape(b, -1).take(table, axis=1)


def forward_batch(spec: NetworkSpec, w: WeightSet, x: np.ndarray,
                  want_caches: bool = False):
    """Batched forward pass over (B, C, H, W) states; optionally keeps the
    intermediates needed for the backward pass."""
    b = x.shape[0]
    cur = x
    caches = []
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv2d":
            f = layer.out_filters
            cols = _im2col_batch(cur, layer.kernel_y, layer.kernel_x,
                                 layer.stride)                 # (B, CKK, P)
            pre = np.matmul(w.weights[i].reshape(f, -1), cols) # (B, F, P)
            pre += w.biases[i].reshape(1, f, 1)
            out_h, out_w = layer.conv_output_hw(cur.shape[2], cur.shape[3])
            pre = pre.reshape(b, f, out_h, out_w)
            cache = (cur, cols, pre)
        else:
            flat = cur.reshape(b, -1)
            pre = flat @ w.weights[i].T + w.biases[i]
            cache = (cur, flat, pre)
        if want_caches:
            caches.append(cache)
        cur = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    q = cur.reshape(b, -1)
    return (q, caches) if want_caches else q


def backward_batch(spec: NetworkSpec, w: WeightSet, caches, d_out: np.ndarray,
                   grads: WeightSet | None = None):
    """Gradients of a scalar loss wrt all weights/biases, given d(loss)/d(q).

    The gradients are written into `grads` (C-contiguous arrays of the
    weight and bias shapes, e.g. views of a flat vector); a new set is
    allocated when none is passed. Returns (weight_grads, bias_grads) lists
    aligned with the layers.
    """
    if grads is None:
        grads = WeightSet([np.empty(l.weight_shape()) for l in spec.layers],
                          [np.empty(l.bias_shape()) for l in spec.layers])
    elif not all(a.flags.c_contiguous for a in grads.weights + grads.biases):
        raise ValueError("gradient buffers must be C-contiguous")
    gw, gb = grads.weights, grads.biases
    g = d_out
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        x_in, mat, pre = caches[i]
        g = g.reshape(pre.shape)
        if layer.activation == "relu":
            g = g * (pre > 0)
        if layer.kind == "dense":
            np.matmul(g.T, mat, out=gw[i])
            g.sum(axis=0, out=gb[i])
            if i > 0:
                g = (g @ w.weights[i]).reshape(x_in.shape)
        else:
            f = layer.out_filters
            gm = g.reshape(g.shape[0], f, -1)                  # (B, F, P)
            # both products as stacked matmuls, one BLAS GEMM per sample;
            # the weight gradient sums the (B, F, CKK) per-sample products
            np.matmul(gm, mat.transpose(0, 2, 1)).sum(
                axis=0, out=gw[i].reshape(f, -1))
            gm.sum(axis=(0, 2), out=gb[i])
            if i > 0:
                dcols = np.matmul(w.weights[i].reshape(f, -1).T, gm)  # (B, CKK, P)
                # col2im: add the columns back at the input positions
                # _im2col_batch reads them from, one kernel offset at a time
                ky, kx, s = layer.kernel_y, layer.kernel_x, layer.stride
                oh, ow = pre.shape[2:]
                d = dcols.reshape(*x_in.shape[:2], ky, kx, oh, ow)
                g = np.zeros_like(x_in)
                for y in range(ky):
                    for z in range(kx):
                        g[:, :, y:y + s * oh:s, z:z + s * ow:s] += d[:, :, y, z]
    return gw, gb


# The Huber loss's quadratic-to-linear switch: TD errors beyond it get a
# gradient of constant size (the error clipping of Mnih et al., Nature 2015).
HUBER_DELTA = 1.0


def huber(e: np.ndarray) -> np.ndarray:
    a = np.abs(e)
    return np.where(a <= HUBER_DELTA, 0.5 * e * e,
                    HUBER_DELTA * (a - 0.5 * HUBER_DELTA))


def huber_grad(e: np.ndarray) -> np.ndarray:
    return np.clip(e, -HUBER_DELTA, HUBER_DELTA)


def q_loss_and_grads(spec: NetworkSpec, w: WeightSet, states: np.ndarray,
                     actions: np.ndarray, targets: np.ndarray,
                     grads: WeightSet | None = None):
    """Mean Huber loss between Q(s, a) and fixed targets, plus its analytic
    gradients wrt every weight and bias (written into `grads` if given, see
    `backward_batch`). Raises ValueError for an action outside
    [0, n_output), which would otherwise index past Q or, if negative, wrap
    round to another action's Q-value."""
    n = spec.n_output
    if actions.min() < 0 or actions.max() >= n:
        bad = actions[(actions < 0) | (actions >= n)][0]
        raise ValueError(f"action {bad} outside [0, {n}) of the network's outputs")
    b = states.shape[0]
    q, caches = forward_batch(spec, w, states, want_caches=True)
    q_a = q[np.arange(b), actions]
    err = q_a - targets
    loss = float(np.mean(huber(err)))
    d_q = np.zeros_like(q)
    d_q[np.arange(b), actions] = huber_grad(err) / b
    gw, gb = backward_batch(spec, w, caches, d_q, grads)
    return loss, gw, gb


# Elements per Adam chunk. Parameters, gradient and both moments of the
# desk-scale network (about 132k float64 each) are over 4 MB together, more
# than a core's 2 MB L2, so one pass per operation over whole vectors
# streams them through memory 12 times. Adam per gradient step in 1000-step
# trainings with the benchmark's pipeline config (2-vCPU shared Xeon, 1 BLAS
# thread), first for the earlier 14-pass form (medians of 6): per-array
# update 1.37 ms, one flat unchunked vector 1.17 ms, chunks of 4k 1.42 ms,
# 8k 1.11 ms, 16k 1.03 ms, 32k 0.95 ms, 64k 1.04 ms; 16k against 32k over
# 12 more trainings each, 1.05 against 1.03 ms. Re-measured for the 12-pass
# form, 16k against 32k over 12 alternating trainings each: 1.045 against
# 1.035 ms (quartile spreads 0.081 and 0.060 ms), again a tie, so the
# smaller scratch is kept.
ADAM_CHUNK = 16384

# Adam's moment decay rates and epsilon, the defaults of Kingma & Ba (ICLR
# 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment optimizer updating one flat float64 vector in place.

    It computes the efficient form of Kingma & Ba (ICLR 2015, section 2):
    with beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
    bc1 = 1 - beta1^t and bc2 = 1 - beta2^t, the step size is
    lr_t = lr * sqrt(bc2) / bc1 and the update
    `p -= lr_t * m / (sqrt(v) + eps * sqrt(bc2))`, equal in real arithmetic
    to the textbook `p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)` with one
    division per element instead of three. The update runs over fixed
    chunks of `ADAM_CHUNK` elements with two preallocated scratch chunks;
    each element goes through the same operations in the same order as
    that per-array expression, so results are bit for bit the same. A zero
    gradient on a +0.0 weight with zero moments leaves it +0.0, which
    keeps masked weights zero in `train`.
    """

    def __init__(self, params: np.ndarray, lr: float):
        if params.ndim != 1:
            raise ValueError(f"Adam needs one flat vector, got shape {params.shape}")
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        n = min(ADAM_CHUNK, params.size)
        self._a, self._b = np.empty(n), np.empty(n)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        root_bc2 = math.sqrt(1.0 - b2 ** self.t)
        lr_t = self.lr * root_bc2 / (1.0 - b1 ** self.t)
        eps_hat = ADAM_EPS * root_bc2
        for lo in range(0, self.params.size, ADAM_CHUNK):
            p = self.params[lo:lo + ADAM_CHUNK]
            g = grad[lo:lo + ADAM_CHUNK]
            m = self.m[lo:lo + ADAM_CHUNK]
            v = self.v[lo:lo + ADAM_CHUNK]
            a, b = self._a[:p.size], self._b[:p.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.multiply(m, lr_t, out=a)
            np.sqrt(v, out=b)
            b += eps_hat
            a /= b
            p -= a


# ---------------------------------------------------------------------------
# double Q-learning
# ---------------------------------------------------------------------------

class TargetCache:
    """Target-network Q values of each replay slot's next state.

    The target network is frozen between syncs (van Hasselt et al., AAAI
    2016), so Q_target(s') of a stored transition stays the same until its
    slot is rewritten or the target syncs. `fresh[i]` says that row i of
    `q` holds it; `train` clears the flag of every slot it writes and all
    flags at each sync."""

    def __init__(self, capacity: int, n_actions: int):
        self.q = np.empty((capacity, n_actions))
        self.fresh = np.zeros(capacity, dtype=bool)

    def lookup(self, batch: Batch, spec: NetworkSpec,
               target: WeightSet) -> np.ndarray:
        """(B, n_actions) target values of the batch's next states, running
        the target forward once per distinct stale slot and caching it."""
        stale = np.flatnonzero(~self.fresh[batch.slots])
        if stale.size:
            slots, first = np.unique(batch.slots[stale], return_index=True)
            self.q[slots] = forward_batch(spec, target,
                                          batch.next_states[stale[first]])
            self.fresh[slots] = True
        return self.q[batch.slots]


def double_q_target(batch: Batch, spec: NetworkSpec, online: WeightSet,
                    target: WeightSet, gamma: float,
                    cache: TargetCache | None = None) -> np.ndarray:
    """y = r + gamma * Q_target(s', argmax_a Q_online(s', a)); terminal
    transitions use y = r. Action selection and valuation are decoupled.

    With a `cache` (and `batch.slots`), Q_target(s') is read from it and
    computed only for stale slots; without one, the target forward runs
    over the whole batch, which is the reference the cache must match."""
    q_online = forward_batch(spec, online, batch.next_states)
    if cache is None:
        q_target = forward_batch(spec, target, batch.next_states)
    else:
        q_target = cache.lookup(batch, spec, target)
    best = np.argmax(q_online, axis=1)
    bootstrap = q_target[np.arange(len(best)), best]
    return batch.rewards + gamma * np.where(batch.dones, 0.0, bootstrap)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    final_loss: float = float("nan")
    gradient_steps: int = 0


def greedy_action(spec: NetworkSpec, w: WeightSet, state: np.ndarray) -> int:
    return int(np.argmax(forward(spec, w, state)))


def _flat_views(spec: NetworkSpec, flat: np.ndarray) -> WeightSet:
    """Per-layer views over one flat vector: every layer's weights in order,
    then every layer's biases."""
    shapes = [l.weight_shape() for l in spec.layers] + \
        [l.bias_shape() for l in spec.layers]
    views, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        views.append(flat[lo:hi].reshape(shape))
        lo = hi
    n = len(spec.layers)
    return WeightSet(views[:n], views[n:])


def check_fits(spec: NetworkSpec, env: Environment) -> None:
    """A network acts on `env` only if it takes the env's states and has one
    output per action; raises ValueError otherwise."""
    if (spec.input_shape, spec.n_output) != (env.state_shape, env.n_actions):
        raise ValueError(
            f"network has input {spec.input_shape} and {spec.n_output} "
            f"outputs, env has {env.n_actions} actions and states "
            f"{env.state_shape}")


def train(env: Environment, spec: NetworkSpec, p: PrunableWeights,
          cfg: TrainingConfig, rng: np.random.Generator) -> TrainResult:
    """Gradient-train the live weights of `p` in place on `env`; returns
    the last loss and the number of gradient steps.

    Masked weights are zeroed once, by `p.apply()`, and get zero gradient.
    Training works on private flat vectors; the trained values are copied
    back into `p.live`'s own arrays on return, also when it raises. The
    replay buffer and the target cache hold min(buffer_capacity, steps)
    transitions. Raises ValueError if the network does not fit the env
    (`check_fits`), and TrainingDiverged if the loss goes non-finite.
    """
    check_fits(spec, env)
    p.apply()
    n_params = sum(l.param_count() for l in spec.layers)
    theta, theta_target = np.empty(n_params), np.empty(n_params)
    grad = np.empty(n_params)
    online = _flat_views(spec, theta)
    live = p.live.weights + p.live.biases
    for dst, src in zip(online.weights + online.biases, live):
        np.copyto(dst, src)
    np.copyto(theta_target, theta)
    grads = _flat_views(spec, grad)
    # weights lead the flat layout, so the raveled masks index it directly
    masked = np.flatnonzero(np.concatenate([~m.ravel() for m in p.masks]))
    target = _flat_views(spec, theta_target)
    opt = Adam(theta, lr=cfg.learning_rate)
    # The run adds `steps` transitions, so more slots would never be
    # written: the slot position does not wrap before the last add, and
    # every add, sample and lookup is the one a full-capacity buffer makes.
    slots = min(cfg.buffer_capacity, max(cfg.steps, 1))
    buffer = ReplayBuffer(slots, env.state_shape)
    cache = TargetCache(slots, env.n_actions)
    result = TrainResult()

    try:
        state = env.reset()
        for step in range(cfg.steps):
            eps = cfg.epsilon(step)
            if rng.random() < eps:
                action = int(rng.integers(env.n_actions))
            else:
                try:
                    action = greedy_action(spec, online, state)
                except ValueError as e:  # non-finite activations: weights blew up
                    raise TrainingDiverged(
                        f"non-finite network output at step {step} "
                        f"(lr={cfg.learning_rate}): {e}") from e
            s_next, r, done = env.step(action)
            cache.fresh[buffer.pos] = False  # the slot add writes
            buffer.add(state, action, r, s_next, done)
            state = env.reset() if done else s_next

            if buffer.size >= max(cfg.min_buffer, cfg.batch_size) and \
                    step % cfg.update_every == 0:
                batch = buffer.sample(cfg.batch_size, rng)
                y = double_q_target(batch, spec, online, target, cfg.gamma,
                                    cache)
                loss, _, _ = q_loss_and_grads(
                    spec, online, batch.states, batch.actions, y, grads=grads)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss {loss} at step {step} "
                        f"(lr={cfg.learning_rate}, batch={cfg.batch_size})")
                grad[masked] = 0.0
                opt.step(grad)
                result.final_loss = loss
                result.gradient_steps += 1

            if (step + 1) % cfg.target_sync == 0:
                np.copyto(theta_target, theta)
                cache.fresh[:] = False
    finally:
        for dst, src in zip(live, online.weights + online.biases):
            np.copyto(dst, src)
    return result


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    mean_reward: float
    rewards: list[float]
    counter: OpCounter


def evaluate(env: Environment, spec: NetworkSpec, weights: WeightSet,
             episodes: int, mode: str = "dense",
             thresholds: float = 0.001) -> EvalResult:
    """Greedy rollouts; returns mean reward and merged operation counters.

    `weights` are used as given: a pruned network passes its masked live
    weights (`PrunableWeights.live`), whose pruned entries are zero.
    Dense mode performs (and counts) every static multiplication each step.
    Delta mode drives actions from the event engine's transmitted outputs
    and counts only significant multiplications, which skips zero weights.
    Raises ValueError, before it plays, if the network does not fit `env`
    (`check_fits`).
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    check_fits(spec, env)
    if mode == "dense":
        def act(state: np.ndarray) -> int:
            return greedy_action(spec, weights, state)
    elif mode == "delta":
        dn = DeltaNetwork(spec, weights, thresholds)

        def act(state: np.ndarray) -> int:
            return int(np.argmax(dn.step(state)))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    rewards: list[float] = []
    steps = 0
    for _ in range(episodes):
        if mode == "delta":
            dn.reset_state()
        state = env.reset()
        done, total = False, 0.0
        while not done:
            state, r, done = env.step(act(state))
            total += r
            steps += 1
        rewards.append(total)

    if mode == "delta":
        counter = dn.counter
    else:
        counter = OpCounter(spec.layer_names())
        counter.timesteps = steps
        counter.significant_multiplications[1:] = \
            [m * steps for m in spec.layer_multiplications()]
        counter.events_sent[:] = [n * steps for n in spec.neuron_counts()]
    return EvalResult(float(np.mean(rewards)), rewards, counter)


# ---------------------------------------------------------------------------
# lottery pipeline
# ---------------------------------------------------------------------------

def evaluate_pruned(env: Environment, p: PrunableWeights, seed: int,
                    thresholds: tuple[float, ...],
                    episodes: int) -> list[RunRecord]:
    """Evaluate the masked live weights of `p` dense, then in delta mode at
    each threshold in order, each on a fresh `env.fork(seed)` so rewards
    compare across modes. Returns one report row per threshold, in order."""
    dense = evaluate(env.fork(seed), p.spec, p.live, episodes)
    sparsity = report_sparsity(p.masks, p.scope)
    records = []
    for t in thresholds:
        ev = evaluate(env.fork(seed), p.spec, p.live, episodes, mode="delta",
                      thresholds=t)
        records.append(record_from_counters(
            p.spec, p.iteration, t, sparsity, ev.counter, dense.mean_reward,
            ev.mean_reward))
    return records


@dataclass
class PipelineResult:
    records: list[RunRecord]        # every iteration's rows, in order
    pruned: list[PrunableWeights]   # each iteration's retrained snapshot
    baseline_reward_dense: float
    baseline_random: float
    baseline_weights: WeightSet


def lottery_pipeline(env: Environment, spec: NetworkSpec, rate: float,
                     n_iterations: int, cfg: TrainingConfig, *, seed: int,
                     scope: tuple[int, ...] | None = None,
                     thresholds: tuple[float, ...] = (0.0, 0.001),
                     eval_episodes: int = 30) -> PipelineResult:
    """Train, then repeat prune -> rewind -> retrain `n_iterations` times,
    evaluating a snapshot of each retrained network with `evaluate_pruned`
    (its `initial` is shared with the pipeline's own state, which never
    writes it).

    Evaluation always uses freshly seeded environment forks with the same
    seed, so rewards are comparable across iterations and modes.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    seq = np.random.SeedSequence(seed)
    init_seed, eval_seed, rand_seed, *train_seeds = seq.generate_state(
        3 + (n_iterations + 1)).tolist()

    rng_init = np.random.default_rng(init_seed)
    p = PrunableWeights.create(spec, init_weights(spec, rng_init), rate, scope)

    # iteration 0: dense training and baselines
    rng0 = np.random.default_rng(train_seeds[0])
    train(env.fork(train_seeds[0]), spec, p, cfg, rng0)
    baseline_dense = evaluate(env.fork(eval_seed), spec, p.live, eval_episodes)
    baseline_random = random_policy_reward(env.fork(rand_seed), eval_episodes,
                                           seed=rand_seed)
    baseline_weights = p.live.copy()

    records: list[RunRecord] = []
    pruned: list[PrunableWeights] = []
    for i in range(1, n_iterations + 1):
        prune_step(p)
        rewind(p)
        rng_i = np.random.default_rng(train_seeds[i])
        train(env.fork(train_seeds[i]), spec, p, cfg, rng_i)
        pruned.append(replace(p, live=p.live.copy(),
                              masks=[m.copy() for m in p.masks]))
        records += evaluate_pruned(env, pruned[-1], eval_seed, thresholds,
                                   eval_episodes)
    return PipelineResult(records, pruned, baseline_dense.mean_reward,
                          baseline_random, baseline_weights)
