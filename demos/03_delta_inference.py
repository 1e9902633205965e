#!/usr/bin/env python3
"""Event-driven inference on slowly changing inputs.

A game frame differs from its predecessor in a handful of pixels, so most
neurons have nothing new to say. The delta engine transmits only changes
that clear one threshold, the same for the input and every layer, and
counts every multiplication whose two operands are both nonzero.
"""

import numpy as np

from deltaq import (DeltaNetwork, build_scaled_dqn, forward, init_weights,
                    make_env, measure_delta_sparsity,
                    static_network_multiplications)

env = make_env("mini-breakout", seed=3)
spec = build_scaled_dqn(env.state_shape, env.n_actions)
rng = np.random.default_rng(3)
weights = init_weights(spec, rng)
static_total = static_network_multiplications(spec).total_multiplications
print("static multiplications per inference:", f"{static_total:,}")

# frames from an actual episode (random actions are fine for this purpose)
frames = []
state = env.reset()
for _ in range(200):
    frames.append(state.copy())
    state, _, done = env.step(int(rng.integers(env.n_actions)))
    if done:
        state = env.reset()

print("\nthreshold sweep over the same 200 frames:")
print(f"{'T':>8} {'mults/step':>12} {'fraction':>9} {'max |err|':>10}")
for t in (0.0, 1e-4, 1e-3, 1e-2, 1e-1):
    dn = DeltaNetwork(spec, weights, thresholds=t)
    err = 0.0
    for f in frames:
        out = dn.step(f)
        err = max(err, float(np.max(np.abs(out - forward(spec, weights, f)))))
    per_step = dn.counter.total_multiplications() / dn.counter.timesteps
    print(f"{t:>8g} {per_step:>12,.0f} {per_step / static_total:>9.4f} "
          f"{err:>10.2e}")

# per-layer temporal sparsity at the usual operating point
dn = DeltaNetwork(spec, weights, thresholds=1e-3)
for f in frames:
    dn.step(f)
print("\ndelta sparsity at T=1e-3 (fraction of silent neuron-steps):")
for name, s in measure_delta_sparsity(dn.counter, spec).items():
    print(f"  {name:<10} {s:.3f}")
