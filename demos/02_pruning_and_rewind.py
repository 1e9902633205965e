#!/usr/bin/env python3
"""Iterative magnitude pruning in slow motion: watch the cumulative masked
fraction follow 1 - (1-r)^i, then rewind and confirm the surviving weights
are bit-identical to the original initialization."""

import numpy as np

from deltaq import (PrunableWeights, build_scaled_dqn, init_weights,
                    prune_step, report_sparsity, rewind, schedule_fraction)

print("cumulative pruned fraction at rate r=0.2:")
print("  i :", "  ".join(f"{i}" for i in range(10)))
print("  f :", " ".join(f"{schedule_fraction(0.2, i):.3f}" for i in range(10)))

rng = np.random.default_rng(0)
spec = build_scaled_dqn((4, 10, 10), 3)
p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.2)
print("\npruning scope defaults to the conv layers:", p.scope)

for i in range(1, 6):
    prune_step(p)
    rep = report_sparsity(p.masks, p.scope)
    print(f"iteration {i}: per-layer {['%.3f' % s for s in rep.per_layer]} "
          f"scope total {rep.scope_total:.3f} "
          f"(schedule {schedule_fraction(0.2, i):.3f})")

# simulate a training run by scribbling on the live weights, then rewind
for w in p.live.weights:
    w += rng.normal(size=w.shape) * (w != 0)
rewind(p)
survivors_match = all(
    np.array_equal(w[m].view(np.uint64), w0[m].view(np.uint64))
    for w, w0, m in zip(p.live.weights, p.initial.weights, p.masks))
masked_zero = all(np.all(w[~m] == 0.0)
                  for w, m in zip(p.live.weights, p.masks))
print("\nafter rewind: survivors bit-identical to init:", survivors_match)
print("masked entries exactly zero:", masked_zero)
