"""Iterative magnitude pruning with binary masks and rewind to the archived
initial weights.

Masks cover weights only (never biases). Ranking is global across the
pruning scope: all currently unmasked weights in scope are sorted together
by absolute value, so per-layer sparsities diverge naturally. The cumulative
masked fraction after iteration i tracks 1 - (1-r)^i to within one weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import NetworkSpec, WeightSet


def schedule_fraction(r: float, i: int) -> float:
    """Cumulative pruned fraction after i iterations at per-iteration rate r."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {r}")
    if i < 0:
        raise ValueError(f"iteration must be >= 0, got {i}")
    return 1.0 - (1.0 - r) ** i


def default_scope(spec: NetworkSpec) -> tuple[int, ...]:
    """Conv layers only; dense layers stay unpruned unless asked for."""
    return tuple(i for i, l in enumerate(spec.layers) if l.kind == "conv2d")


@dataclass
class PrunableWeights:
    """Live weights plus masks, the archived initialization, and the schedule
    position. `live` always has masked entries exactly zero after apply()."""

    spec: NetworkSpec
    live: WeightSet
    masks: list[np.ndarray]
    initial: WeightSet
    rate: float
    iteration: int = 0
    scope: tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def create(cls, spec: NetworkSpec, weights: WeightSet, rate: float,
               scope: tuple[int, ...] | None = None) -> "PrunableWeights":
        if not 0.0 < rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {rate}")
        weights.validate(spec)
        masks = [np.ones(l.weight_shape(), dtype=bool) for l in spec.layers]
        if scope is None:
            scope = default_scope(spec)
        return cls(spec=spec, live=weights.copy(), masks=masks,
                   initial=weights.copy(), rate=rate, iteration=0,
                   scope=tuple(scope))

    def apply(self) -> None:
        """Zero out masked entries of the live weights in place."""
        for w, m in zip(self.live.weights, self.masks):
            w[~m] = 0.0


def prune_step(p: PrunableWeights) -> PrunableWeights:
    """Mask the smallest-magnitude fraction `p.rate` of the surviving weights
    across `p.scope`, chosen so the cumulative masked count lands on the
    round((1-(1-r)^i) * n) schedule target. Ties break by (layer, flat index).

    Mutates and returns `p`; masks only grow.
    """
    scope = p.scope
    if not scope:
        raise ValueError("pruning scope is empty")
    if len(set(scope)) < len(scope):
        raise ValueError(f"pruning scope {scope} repeats a layer")
    for k in scope:
        if k < 0 or k >= len(p.spec.layers):
            raise ValueError(f"scope layer {k} out of range")
        if not p.masks[k].any():
            raise ValueError(f"layer {k} has no unmasked weights left")

    n_scope = sum(p.masks[k].size for k in scope)
    already = sum(p.masks[k].size - int(np.count_nonzero(p.masks[k])) for k in scope)
    target = int(round(schedule_fraction(p.rate, p.iteration + 1) * n_scope))
    n_new = target - already
    if n_new > 0:
        mags, layer_ids, flat_ids = [], [], []
        for k in scope:
            alive = p.masks[k].ravel()
            idx = np.flatnonzero(alive)
            mags.append(np.abs(p.live.weights[k].ravel()[idx]))
            layer_ids.append(np.full(idx.size, k, dtype=np.int64))
            flat_ids.append(idx)
        mags = np.concatenate(mags)
        layer_ids = np.concatenate(layer_ids)
        flat_ids = np.concatenate(flat_ids)
        # primary key magnitude, then layer index, then flat index
        order = np.lexsort((flat_ids, layer_ids, mags))
        kill = order[:n_new]
        for k in scope:
            sel = kill[layer_ids[kill] == k]
            if sel.size:
                p.masks[k].ravel()[flat_ids[sel]] = False
    p.iteration += 1
    p.apply()
    return p


def rewind(p: PrunableWeights) -> PrunableWeights:
    """Reset live weights and biases to the archived initial values, then
    re-apply the masks. Masks and iteration counter are untouched."""
    for i in range(len(p.live.weights)):
        np.copyto(p.live.weights[i], p.initial.weights[i])
        np.copyto(p.live.biases[i], p.initial.biases[i])
    p.apply()
    return p


@dataclass(frozen=True)
class SparsityReport:
    per_layer: tuple[float, ...]
    total: float        # over all weight entries, biases excluded
    scope_total: float  # over the pruning-scope layers only


def report_sparsity(masks: list[np.ndarray],
                    scope: tuple[int, ...]) -> SparsityReport:
    """Masked fraction per layer plus totals over all weights and over the
    pruning-scope layers (the scope total is what the iteration schedule
    tracks)."""
    masked = [m.size - int(np.count_nonzero(m)) for m in masks]
    sizes = [m.size for m in masks]
    scope_total = (sum(masked[k] for k in scope) / sum(sizes[k] for k in scope)
                   if scope else 0.0)
    return SparsityReport(tuple(n / size for n, size in zip(masked, sizes)),
                          sum(masked) / sum(sizes), scope_total)
