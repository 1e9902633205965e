"""Iterative magnitude pruning with binary masks and rewind to the archived
initial weights.

Masks cover weights only (never biases). Ranking is global across the
pruning scope: all currently unmasked weights in scope are sorted together
by absolute value, ties by layer and then C-order flat index, so per-layer
sparsities diverge naturally. The cumulative masked fraction after
iteration i tracks 1 - (1-r)^i to within one weight. Masked weights are
zero after every `apply`, and `training.train` keeps them at +0.0.

The rate and iteration rules are stated once, in `schedule_fraction`, and
the scope rule once, in `check_scope`; every PrunableWeights runs both
when it is constructed (`create`, `dataclasses.replace`, the checkpoint
reader).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkSpec, WeightSet


def schedule_fraction(r: float, i: int) -> float:
    """Cumulative pruned fraction after i iterations at per-iteration rate
    r: the one statement that r is a real number in (0, 1) and i an integer
    >= 0 (a bool is neither)."""
    if (isinstance(r, bool) or not isinstance(r, numbers.Real)
            or not 0.0 < r < 1.0):
        raise ValueError(f"rate must be a number in (0, 1), got {r!r}")
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or i < 0:
        raise ValueError(f"iteration must be an integer >= 0, got {i!r}")
    return 1.0 - (1.0 - r) ** i


def default_scope(spec: NetworkSpec) -> tuple[int, ...]:
    """Conv layers only; dense layers stay unpruned unless asked for."""
    return tuple(i for i, l in enumerate(spec.layers) if l.kind == "conv2d")


def check_scope(scope: tuple[int, ...], n_layers: int) -> None:
    """Raise ValueError unless `scope` is a tuple of integers naming
    distinct layers of an `n_layers`-layer network."""
    if not (isinstance(scope, tuple) and all(type(k) is int for k in scope)):
        raise ValueError(f"scope must be a tuple of integer layer indices, "
                         f"got {scope!r}")
    if len(set(scope)) < len(scope):
        raise ValueError(f"scope {scope} repeats a layer")
    if not all(0 <= k < n_layers for k in scope):
        raise ValueError(f"scope {scope} names a layer outside 0..{n_layers - 1}")


@dataclass
class PrunableWeights:
    """Live weights plus masks, the archived initialization, and the schedule
    position. `live` always has masked entries exactly zero after apply().
    Every construction checks the live weights, schedule and scope."""

    spec: NetworkSpec
    live: WeightSet
    masks: list[np.ndarray]
    initial: WeightSet
    rate: float
    iteration: int = 0
    scope: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.live.validate(self.spec)
        schedule_fraction(self.rate, self.iteration)
        check_scope(self.scope, len(self.spec.layers))

    @classmethod
    def create(cls, spec: NetworkSpec, weights: WeightSet, rate: float,
               scope: tuple[int, ...] | None = None) -> "PrunableWeights":
        scope = tuple(default_scope(spec) if scope is None else scope)
        masks = [np.ones(l.weight_shape(), dtype=bool) for l in spec.layers]
        return cls(spec=spec, live=weights.copy(), masks=masks,
                   initial=weights.copy(), rate=rate, iteration=0,
                   scope=scope)

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
    if not p.scope:
        raise ValueError("pruning scope is empty")
    check_scope(p.scope, len(p.spec.layers))
    layers = sorted(p.scope)
    alive = [np.flatnonzero(p.masks[k]) for k in layers]
    for k, i in zip(layers, alive):
        if not i.size:
            raise ValueError(f"layer {k} has no unmasked weights left")
    n_scope = sum(p.masks[k].size for k in layers)
    n_dead = n_scope - sum(i.size for i in alive)
    n_new = round(schedule_fraction(p.rate, p.iteration + 1) * n_scope) - n_dead
    if n_new > 0:
        mags = np.concatenate([np.abs(p.live.weights[k].ravel()[i])
                               for k, i in zip(layers, alive)])
        # the magnitudes lie in (layer, flat index) order, so a stable sort
        # breaks their ties in that order
        dead = np.zeros(mags.size, dtype=bool)
        dead[np.argsort(mags, kind="stable")[:n_new]] = True
        ends = np.cumsum([i.size for i in alive])[:-1]
        for k, i, d in zip(layers, alive, np.split(dead, ends)):
            p.masks[k][np.unravel_index(i[d], p.masks[k].shape)] = False
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
