"""Run configuration: an INI-style document with sections
{env, network, training, pruning, delta, eval}.

Every key has a default listed in DEFAULTS below; the effective (merged)
configuration is written back into each run directory so runs are
self-describing. Validation collects every problem before raising.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .envs import make_env
from .network import NetworkSpec, build_reference_dqn, build_scaled_dqn

DEFAULTS: dict[str, dict[str, str]] = {
    "env": {
        "name": "mini-breakout",
        "max_steps": "400",
    },
    "network": {
        "preset": "scaled",        # scaled | reference
        "conv_filters": "16",
        "conv_kernel": "3",
        "conv_stride": "1",
        "dense_hidden": "128",
        "n_output": "",            # blank: taken from the environment
    },
    "training": {
        "steps": "16000",
        "batch_size": "32",
        "learning_rate": "0.001",
        "gamma": "0.99",
        "epsilon_start": "1.0",
        "epsilon_end": "0.05",
        "epsilon_decay_steps": "8000",
        "buffer_capacity": "20000",
        "min_buffer": "500",
        "update_every": "2",
        "target_sync": "500",
        "huber_delta": "1.0",
        "adam_beta1": "0.9",
        "adam_beta2": "0.999",
        "adam_eps": "1e-8",
        "eval_every": "0",         # 0: no intermediate curve points
        "curve_episodes": "5",
    },
    "pruning": {
        "rate": "0.2",
        "iterations": "3",
        "scope": "conv",           # conv | all | comma-separated layer indices
    },
    "delta": {
        "thresholds": "0,0.001",
        "input_threshold": "",     # blank: same as the layer threshold
        "curve_threshold": "0.001",
    },
    "eval": {
        "episodes": "30",
    },
}


class ConfigError(ValueError):
    """All validation problems, one per line."""


@dataclass
class TrainingConfig:
    steps: int = 16000
    batch_size: int = 32
    learning_rate: float = 0.001
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 8000
    buffer_capacity: int = 20000
    min_buffer: int = 500
    update_every: int = 2
    target_sync: int = 500
    huber_delta: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    eval_every: int = 0
    curve_episodes: int = 5


@dataclass
class RunConfig:
    env_name: str = "mini-breakout"
    env_max_steps: int = 400
    network_preset: str = "scaled"
    conv_filters: int = 16
    conv_kernel: int = 3
    conv_stride: int = 1
    dense_hidden: int = 128
    n_output: int | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)
    prune_rate: float = 0.2
    prune_iterations: int = 3
    prune_scope: str = "conv"
    thresholds: tuple[float, ...] = (0.0, 0.001)
    input_threshold: float | None = None
    curve_threshold: float = 0.001
    eval_episodes: int = 30

    def build_network(self, state_shape: tuple[int, int, int],
                      n_actions: int) -> NetworkSpec:
        n_out = self.n_output if self.n_output is not None else n_actions
        if self.network_preset == "reference":
            return build_reference_dqn(n_out)
        return build_scaled_dqn(state_shape, n_out,
                                conv_filters=self.conv_filters,
                                conv_kernel=self.conv_kernel,
                                conv_stride=self.conv_stride,
                                dense_hidden=self.dense_hidden)

    def scope_indices(self, spec: NetworkSpec) -> tuple[int, ...] | None:
        if self.prune_scope == "conv":
            return None  # PrunableWeights defaults to conv layers
        if self.prune_scope == "all":
            return tuple(range(len(spec.layers)))
        return tuple(int(s) for s in self.prune_scope.split(","))


def _merged_parser(path: str | Path | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    if path is not None:
        try:
            read = cp.read(str(path))
        except configparser.Error as e:
            raise ConfigError(f"cannot parse {path}: {e}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
    return cp


def load_config(path: str | Path | None = None) -> RunConfig:
    """Parse and validate a config file (defaults only when path is None)."""
    cp = _merged_parser(path)
    errors: list[str] = []

    def geti(sec: str, key: str, lo: int | None = None) -> int:
        try:
            v = cp.getint(sec, key)
        except ValueError:
            errors.append(f"[{sec}] {key}: not an integer: {cp.get(sec, key)!r}")
            return lo if lo is not None else 0
        if lo is not None and v < lo:
            errors.append(f"[{sec}] {key}: must be >= {lo}, got {v}")
        return v

    def getf(sec: str, key: str) -> float:
        try:
            v = cp.getfloat(sec, key)
        except ValueError:
            errors.append(f"[{sec}] {key}: not a number: {cp.get(sec, key)!r}")
            return 0.0
        if not math.isfinite(v):
            errors.append(f"[{sec}] {key}: must be finite, got {v}")
        return v

    env_name = cp.get("env", "name")
    if env_name not in ("mini-breakout", "mini-invaders"):
        errors.append(f"[env] name: unknown environment {env_name!r}")
    env_max_steps = geti("env", "max_steps", lo=1)

    preset = cp.get("network", "preset")
    if preset not in ("scaled", "reference"):
        errors.append(f"[network] preset: must be scaled or reference, got {preset!r}")
    conv_filters = geti("network", "conv_filters", lo=1)
    conv_kernel = geti("network", "conv_kernel", lo=1)
    conv_stride = geti("network", "conv_stride", lo=1)
    dense_hidden = geti("network", "dense_hidden", lo=1)
    n_output_raw = cp.get("network", "n_output").strip()
    n_output = None
    if n_output_raw:
        try:
            n_output = int(n_output_raw)
            if n_output < 1:
                errors.append(f"[network] n_output: must be >= 1, got {n_output}")
        except ValueError:
            errors.append(f"[network] n_output: not an integer: {n_output_raw!r}")

    tc = TrainingConfig(
        steps=geti("training", "steps", lo=0),
        batch_size=geti("training", "batch_size", lo=1),
        learning_rate=getf("training", "learning_rate"),
        gamma=getf("training", "gamma"),
        epsilon_start=getf("training", "epsilon_start"),
        epsilon_end=getf("training", "epsilon_end"),
        epsilon_decay_steps=geti("training", "epsilon_decay_steps", lo=0),
        buffer_capacity=geti("training", "buffer_capacity", lo=1),
        min_buffer=geti("training", "min_buffer", lo=1),
        update_every=geti("training", "update_every", lo=1),
        target_sync=geti("training", "target_sync", lo=1),
        huber_delta=getf("training", "huber_delta"),
        adam_beta1=getf("training", "adam_beta1"),
        adam_beta2=getf("training", "adam_beta2"),
        adam_eps=getf("training", "adam_eps"),
        eval_every=geti("training", "eval_every", lo=0),
        curve_episodes=geti("training", "curve_episodes", lo=1),
    )
    if not 0.0 < tc.gamma < 1.0:
        errors.append(f"[training] gamma: must be in (0, 1), got {tc.gamma}")
    if tc.learning_rate <= 0:
        errors.append(f"[training] learning_rate: must be > 0, got {tc.learning_rate}")

    rate = getf("pruning", "rate")
    if not 0.0 < rate < 1.0:
        errors.append(f"[pruning] rate: must be in (0, 1), got {rate}")
    iterations = geti("pruning", "iterations", lo=1)
    scope = cp.get("pruning", "scope").strip()
    if scope not in ("conv", "all"):
        try:
            tuple(int(s) for s in scope.split(","))
        except ValueError:
            errors.append(f"[pruning] scope: conv, all, or layer indices; got {scope!r}")

    try:
        thresholds = tuple(float(s) for s in
                           cp.get("delta", "thresholds").split(","))
        if not all(math.isfinite(t) and t >= 0 for t in thresholds):
            errors.append("[delta] thresholds: need finite values >= 0")
    except ValueError:
        errors.append(f"[delta] thresholds: bad list {cp.get('delta', 'thresholds')!r}")
        thresholds = (0.0,)
    in_t_raw = cp.get("delta", "input_threshold").strip()
    input_threshold = None
    if in_t_raw:
        try:
            input_threshold = float(in_t_raw)
            if not (math.isfinite(input_threshold) and input_threshold >= 0):
                errors.append("[delta] input_threshold: must be finite and >= 0")
        except ValueError:
            errors.append(f"[delta] input_threshold: not a number: {in_t_raw!r}")
    curve_threshold = getf("delta", "curve_threshold")

    eval_episodes = geti("eval", "episodes", lo=1)

    if errors:
        raise ConfigError("\n".join(errors))
    cfg = RunConfig(
        env_name=env_name, env_max_steps=env_max_steps,
        network_preset=preset, conv_filters=conv_filters,
        conv_kernel=conv_kernel, conv_stride=conv_stride,
        dense_hidden=dense_hidden,
        n_output=n_output, training=tc, prune_rate=rate,
        prune_iterations=iterations, prune_scope=scope,
        thresholds=thresholds, input_threshold=input_threshold,
        curve_threshold=curve_threshold, eval_episodes=eval_episodes)
    # the network must fit the environment's frames
    env = make_env(env_name, seed=0)
    try:
        cfg.build_network(env.state_shape, env.n_actions)
    except ValueError as e:
        raise ConfigError(f"[network] does not fit {env_name} frames "
                          f"{env.state_shape}: {e}") from None
    return cfg


def write_config(cfg_path_in: str | Path | None, out_path: str | Path) -> None:
    """Copy the effective (defaults + overrides) configuration to out_path."""
    cp = _merged_parser(cfg_path_in)
    with open(out_path, "w") as f:
        cp.write(f)
