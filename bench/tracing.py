"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces the public functions of each deltaq module,
and a few hot methods, with wrappers that record one span per call: a
name, start and end (perf_counter nanoseconds), the index of the parent
span and a run id. Spans are kept in memory; `summary()` turns them into
per-name self and inclusive times, and `save()` writes them out at the end.

A function is wrapped under every module name it is bound to, each binding
wrapping the original, so a call made through any namespace yields exactly
one span. Two bindings get their own span names because they separate the
delta path from the dense path: `delta.conv2d_single` (the delta engine's
conv update, `delta.conv_update`) and `delta.relu`. Other `tensorops`
functions are not wrapped; their time counts in their callers' self time.

While a `DeltaNetwork.step` span is open, every span opened beneath it,
the step itself included, carries the engine's threshold label as a suffix
(`delta.step.T1e-3`, `network.im2col_indices.T1e-3`), so per-threshold
costs separate and the untagged `network.*` spans are the dense path alone.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYER_MODULES = ("network", "delta", "training", "pruning", "envs",
                 "checkpoint", "reporting", "cli", "config")

# bindings whose span name is not "<defining module>.<function>"
RENAMED = {("delta", "conv2d_single"): "delta.conv_update",
           ("delta", "relu"): "delta.relu"}

# (module, class, method) -> span name
METHODS = {
    ("delta", "DeltaNetwork", "__init__"): "delta.init",
    ("delta", "DeltaNetwork", "step"): "delta.step",
    ("delta", "DeltaNetwork", "reset_state"): "delta.reset_state",
    ("training", "Adam", "step"): "training.adam_step",
    ("training", "ReplayBuffer", "add"): "training.replay_add",
    ("training", "ReplayBuffer", "sample"): "training.replay_sample",
    ("pruning", "PrunableWeights", "apply"): "pruning.apply",
    ("envs", "MiniBreakout", "reset"): "envs.reset",
    ("envs", "MiniBreakout", "step"): "envs.step",
    ("envs", "MiniInvaders", "reset"): "envs.reset",
    ("envs", "MiniInvaders", "step"): "envs.step",
}


def threshold_label(t: float) -> str:
    """0 -> T0, 0.001 -> T1e-3, 0.01 -> T1e-2, anything else -> T<t:g>."""
    if t == 0:
        return "T0"
    mantissa, exp = f"{t:e}".split("e")
    if float(mantissa) == 1.0:
        return f"T1e{int(exp)}"
    return f"T{t:g}"


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.run_names: list[str] = []
        self.run_id = -1
        self.tag: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, base: str) -> int:
        name = base if self.tag is None else f"{base}.{self.tag}"
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def call(self, base: str, fn, args, kwargs, tag: str | None = None):
        prev = self.tag
        if tag is not None:
            self.tag = tag
        i = self._open(base)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)
            self.tag = prev

    @contextmanager
    def root(self, run_name: str):
        """A harness span that opens a new run id (one set-up, one job)."""
        self.run_names.append(run_name)
        self.run_id = len(self.run_names) - 1
        i = self._open(f"bench.{run_name.split('-')[0]}")
        try:
            yield
        finally:
            self._close(i)

    # -- installing wrappers -----------------------------------------------

    def _wrap(self, fn, base: str, name_of=None, tag_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if name_of is None else name_of(args, kwargs)
            tag = None if tag_of is None else tag_of(args)
            return tracer.call(name, fn, args, kwargs, tag)

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public deltaq function binding and the METHODS table."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name in LAYER_MODULES:
            mod = importlib.import_module(f"deltaq.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith("deltaq."):
                    continue
                layer = origin.split(".", 1)[1]
                base = RENAMED.get((mod_name, attr))
                if base is None:
                    if layer == "tensorops":
                        continue
                    base = f"{layer}.{attr}"
                name_of = _evaluate_name if base == "training.evaluate" else None
                self._patch(mod, attr, self._wrap(obj, base, name_of=name_of))
        for (mod_name, cls_name, meth), base in METHODS.items():
            cls = getattr(importlib.import_module(f"deltaq.{mod_name}"), cls_name)
            tag_of = _step_tag if base == "delta.step" else None
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], base, tag_of=tag_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": np.asarray(self.name_id, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "run": np.asarray(self.run, dtype=np.int32),
                "dur": dur, "self": dur - child}

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, incl_ns, self_ns} over every recorded span."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        incl = np.bincount(a["name_id"], weights=a["dur"], minlength=n)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=n)
        return {name: {"calls": int(calls[i]), "incl_ns": float(incl[i]),
                       "self_ns": float(own[i])}
                for i, name in enumerate(self.names)}

    def run_self_sums(self, prefix: str) -> list[tuple[float, float]]:
        """For each run whose name starts with `prefix`: (summed self time of
        all its spans, duration of its root span), in seconds."""
        a = self.arrays()
        out = []
        for rid, rname in enumerate(self.run_names):
            if not rname.startswith(prefix):
                continue
            sel = a["run"] == rid
            roots = sel & (a["parent"] < 0)
            out.append((float(a["self"][sel].sum()) / 1e9,
                        float(a["dur"][roots].sum()) / 1e9))
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), run_names=np.array(self.run_names),
                 **{k: a[k] for k in ("name_id", "start", "end", "parent", "run")})


def _evaluate_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "dense")
    return f"training.evaluate.{mode}"


def _step_tag(args) -> str:
    return threshold_label(args[0].input_threshold)
