"""Run configuration: an INI-style document with sections
{env, network, training, pruning, delta, eval}.

Each key is stated once: a dataclass field holds its type and default, and
a SCHEMA row its section, name and value rule. DEFAULTS (materialised into
each run directory, so runs are self-describing), the unknown-key check and
every per-key parse and range check derive from the two; the cross-key
rules (buffer capacity against warm-up and batch, network against the
environment's frames, pruning scope against the network's layers) follow
once every key is valid. Validation collects every problem before raising.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .envs import ENVS, make_env
from .network import NetworkSpec, build_scaled_dqn


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

    def epsilon(self, step: int) -> float:
        """Exploration rate at `step`: linear from start to end over the
        decay steps, then constant."""
        if self.epsilon_decay_steps <= 0:
            return self.epsilon_end
        frac = min(1.0, step / self.epsilon_decay_steps)
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)


@dataclass
class RunConfig:
    env_name: str = "mini-breakout"
    env_max_steps: int = 400
    conv_filters: int = 16
    conv_kernel: int = 3
    conv_stride: int = 1
    dense_hidden: int = 128
    training: TrainingConfig = field(default_factory=TrainingConfig)
    prune_rate: float = 0.2
    prune_iterations: int = 3
    prune_scope: str = "conv"      # conv | all | comma-separated layer indices
    thresholds: tuple[float, ...] = (0.0, 0.001)
    eval_episodes: int = 30

    def build_network(self, state_shape: tuple[int, int, int],
                      n_actions: int) -> NetworkSpec:
        return build_scaled_dqn(state_shape, n_actions,
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


def parse_thresholds(text: str) -> tuple[float, ...]:
    """A comma-separated list of distinct delta thresholds, each finite and
    >= 0."""
    try:
        thresholds = tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated list of numbers: {text!r}") from None
    if not all(math.isfinite(t) and t >= 0 for t in thresholds):
        raise ValueError(f"must be finite and >= 0, got {text}")
    if len(set(thresholds)) < len(thresholds):
        raise ValueError(f"must not repeat a value, got {text}")
    return thresholds


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v}")
    return v


# field annotation -> parser of the key's text
_PARSERS: dict[str, Callable[[str], object]] = {
    "int": _parse_int,
    "float": _parse_float,
    "str": str,
    "tuple[float, ...]": parse_thresholds,
}


Rule = tuple[Callable[[object], bool], str]   # (test, "must be ..." text)
AT_LEAST_0: Rule = (lambda v: v >= 0, ">= 0")
AT_LEAST_1: Rule = (lambda v: v >= 1, ">= 1")
POSITIVE: Rule = (lambda v: v > 0, "> 0")
OPEN_UNIT: Rule = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
UNIT: Rule = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
HALF_OPEN_UNIT: Rule = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
ENV_NAME: Rule = (lambda v: v in ENVS, "one of " + ", ".join(sorted(ENVS)))
SCOPE: Rule = (lambda v: bool(re.fullmatch(r"conv|all|\s*-?\d+\s*(,\s*-?\d+\s*)*", v)),
               "conv, all, or comma-separated layer indices")


class Key(NamedTuple):
    """One config key. `field` names its TrainingConfig field in [training]
    and its RunConfig field elsewhere (default: the key's own name); a None
    rule accepts every value the field type's parser accepts."""

    section: str
    name: str
    rule: Rule | None
    field: str | None = None
    attr = property(lambda self: self.field or self.name)


SCHEMA: tuple[Key, ...] = (
    Key("env", "name", ENV_NAME, "env_name"),
    Key("env", "max_steps", AT_LEAST_1, "env_max_steps"),
    Key("network", "conv_filters", AT_LEAST_1),
    Key("network", "conv_kernel", AT_LEAST_1),
    Key("network", "conv_stride", AT_LEAST_1),
    Key("network", "dense_hidden", AT_LEAST_1),
    Key("training", "steps", AT_LEAST_0),
    Key("training", "batch_size", AT_LEAST_1),
    Key("training", "learning_rate", POSITIVE),
    Key("training", "gamma", OPEN_UNIT),
    Key("training", "epsilon_start", UNIT),
    Key("training", "epsilon_end", UNIT),
    Key("training", "epsilon_decay_steps", AT_LEAST_0),
    Key("training", "buffer_capacity", AT_LEAST_1),
    Key("training", "min_buffer", AT_LEAST_1),
    Key("training", "update_every", AT_LEAST_1),
    Key("training", "target_sync", AT_LEAST_1),
    Key("training", "huber_delta", POSITIVE),
    Key("training", "adam_beta1", HALF_OPEN_UNIT),
    Key("training", "adam_beta2", HALF_OPEN_UNIT),
    Key("training", "adam_eps", POSITIVE),
    Key("pruning", "rate", OPEN_UNIT, "prune_rate"),
    Key("pruning", "iterations", AT_LEAST_1, "prune_iterations"),
    Key("pruning", "scope", SCOPE, "prune_scope"),
    Key("delta", "thresholds", None),
    Key("eval", "episodes", AT_LEAST_1, "eval_episodes"),
)


def _owner(cfg: RunConfig, key: Key) -> RunConfig | TrainingConfig:
    return cfg.training if key.section == "training" else cfg


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _defaults() -> dict[str, dict[str, str]]:
    default = RunConfig()
    sections: dict[str, dict[str, str]] = {}
    for key in SCHEMA:
        sections.setdefault(key.section, {})[key.name] = _format(
            getattr(_owner(default, key), key.attr))
    return sections


DEFAULTS = _defaults()
_FIELD_TYPES = {f.name: f.type for f in
                dataclasses.fields(RunConfig) + dataclasses.fields(TrainingConfig)}


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


def _cross_key_errors(cfg: RunConfig) -> list[str]:
    """Rules between keys, checked once every key is valid on its own."""
    tc = cfg.training
    # the buffer never holds more than its capacity, so a larger warm-up
    # or batch would leave the agent without a single gradient step
    errors = [f"[training] {name}: must be <= buffer_capacity "
              f"({tc.buffer_capacity}), got {getattr(tc, name)}"
              for name in ("min_buffer", "batch_size")
              if getattr(tc, name) > tc.buffer_capacity]
    # the network must fit the environment's frames, and the pruning scope
    # must name its layers
    env = make_env(cfg.env_name, seed=0)
    try:
        spec = cfg.build_network(env.state_shape, env.n_actions)
    except ValueError as e:
        return errors + [f"[network] does not fit {cfg.env_name} frames "
                         f"{env.state_shape}: {e}"]
    bad = [k for k in cfg.scope_indices(spec) or ()
           if not 0 <= k < len(spec.layers)]
    if bad:
        errors.append(f"[pruning] scope: layer indices {bad} outside the "
                      f"{len(spec.layers)}-layer network")
    return errors


def load_config(path: str | Path | None = None) -> RunConfig:
    """Parse and validate a config file (defaults only when path is None)."""
    cp = _merged_parser(path)
    errors: list[str] = []
    for sec in cp.sections():
        if sec not in DEFAULTS:
            errors.append(f"[{sec}]: unknown section")
            continue
        errors += [f"[{sec}] {key}: unknown key" for key in cp.options(sec)
                   if key not in DEFAULTS[sec]]

    cfg = RunConfig()
    for key in SCHEMA:
        text = cp.get(key.section, key.name)
        try:
            value = _PARSERS[_FIELD_TYPES[key.attr]](text)
        except ValueError as e:
            errors.append(f"[{key.section}] {key.name}: {e}")
            continue
        if key.rule is not None and not key.rule[0](value):
            errors.append(f"[{key.section}] {key.name}: must be "
                          f"{key.rule[1]}, got {text}")
        setattr(_owner(cfg, key), key.attr, value)

    if not errors:
        errors = _cross_key_errors(cfg)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def write_config(cfg_path_in: str | Path | None, out_path: str | Path) -> None:
    """Copy the effective (defaults + overrides) configuration to out_path."""
    cp = _merged_parser(cfg_path_in)
    with open(out_path, "w") as f:
        cp.write(f)
