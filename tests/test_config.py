import dataclasses
import re
from pathlib import Path

import pytest

from deltaq.config import (SCHEMA, ConfigError, RunConfig, TrainingConfig,
                           load_config, write_config)

# Keys that are module constants now (training.HUBER_DELTA, ADAM_BETA1,
# ADAM_BETA2, ADAM_EPS; network.CONV_KERNEL, CONV_STRIDE). A config that
# sets one is rejected as an unknown key, whatever the value.
REMOVED_KEYS = {"huber_delta", "adam_beta1", "adam_beta2", "adam_eps",
                "conv_kernel", "conv_stride"}


def error_start(section: str, key: str) -> str:
    """Pattern for the start of the error line a bad `key` line gets."""
    reason = "unknown key" if key in REMOVED_KEYS else ""
    return re.escape(f"[{section}] {key}: {reason}")


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.env_name == "mini-breakout"
    assert cfg.training.steps == 16000
    assert cfg.thresholds == (0.0, 0.001)
    assert cfg.prune_iterations >= 1


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""
[env]
name = mini-invaders
[pruning]
rate = 0.1
iterations = 5
[delta]
thresholds = 0,0.01,0.1
""")
    cfg = load_config(path)
    assert cfg.env_name == "mini-invaders"
    assert cfg.prune_rate == 0.1
    assert cfg.prune_iterations == 5
    assert cfg.thresholds == (0.0, 0.01, 0.1)
    assert cfg.training.batch_size == 32  # untouched default


def test_missing_file_is_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_validation_collects_all_errors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("""
[env]
name = pong
[pruning]
rate = 1.5
iterations = 0
[training]
gamma = 2.0
[eval]
episodes = 0
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    msg = str(exc.value)
    for fragment in ("name", "rate", "iterations", "gamma", "episodes"):
        assert fragment in msg


def test_zero_iterations_rejected(tmp_path):
    path = tmp_path / "it0.ini"
    path.write_text("[pruning]\niterations = 0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_network_builders():
    cfg = load_config(None)
    spec = cfg.build_network((4, 10, 10), 3)
    assert spec.input_shape == (4, 10, 10)
    assert spec.n_output == 3
    assert cfg.scope_indices(spec) is None  # conv default

    cfg.prune_scope = "all"
    assert cfg.scope_indices(spec) == (0, 1, 2)
    cfg.prune_scope = "0,2"
    assert cfg.scope_indices(spec) == (0, 2)


def test_write_config_roundtrip(tmp_path):
    src = tmp_path / "in.ini"
    src.write_text("[training]\nsteps = 123\n")
    out = tmp_path / "out.ini"
    write_config(src, out)
    cfg = load_config(out)
    assert cfg.training.steps == 123
    # every section materialized in the copy
    text = out.read_text()
    for sec in ("[env]", "[network]", "[training]", "[pruning]", "[delta]",
                "[eval]"):
        assert sec in text


@pytest.mark.parametrize("key,value", [
    ("conv_filters", "abc"), ("conv_filters", "0"), ("conv_kernel", "-2"),
    ("conv_stride", "0"), ("dense_hidden", "1.5"),
])
def test_bad_network_integers_rejected(tmp_path, key, value):
    path = tmp_path / "net.ini"
    path.write_text(f"[network]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=error_start("network", key)):
        load_config(path)


@pytest.mark.parametrize("section,key,value", [
    ("delta", "thresholds", "nan"), ("delta", "thresholds", "0,inf"),
    ("training", "learning_rate", "nan"), ("training", "huber_delta", "-inf"),
])
def test_nonfinite_floats_rejected(tmp_path, section, key, value):
    path = tmp_path / "nan.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=error_start(section, key)):
        load_config(path)


def test_unparsable_file_is_config_error(tmp_path):
    path = tmp_path / "dup.ini"
    path.write_text("[network]\nconv_filters = 4\nconv_filters = 8\n")
    with pytest.raises(ConfigError, match="conv_filters"):
        load_config(path)
    path.write_text("conv_filters = 4\n")  # no section header
    with pytest.raises(ConfigError, match="section"):
        load_config(path)


@pytest.mark.parametrize("key,value", [
    ("adam_beta1", "1.0"), ("adam_beta1", "-0.1"), ("adam_beta2", "1.5"),
    ("adam_eps", "-1"), ("adam_eps", "0"), ("huber_delta", "0"),
    ("epsilon_start", "2"), ("epsilon_end", "-0.5"),
])
def test_optimizer_and_exploration_ranges(tmp_path, key, value):
    path = tmp_path / "opt.ini"
    path.write_text(f"[training]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=error_start("training", key)):
        load_config(path)


def test_range_edges_accepted(tmp_path):
    path = tmp_path / "edge.ini"
    path.write_text("[training]\nepsilon_start = 1\nepsilon_end = 0\n")
    tc = load_config(path).training
    assert (tc.epsilon_start, tc.epsilon_end) == (1.0, 0.0)


@pytest.mark.parametrize("text,fragment", [
    ("[training]\nstpes = 5\n", "[training] stpes: unknown key"),
    ("[trainig]\nsteps = 5\n", "[trainig]: unknown section"),
    ("[DEFAULT]\nsteps = 5\n", "[env] steps: unknown key"),
])
def test_unknown_sections_and_keys_rejected(tmp_path, text, fragment):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert fragment in str(exc.value)


# the ids name the network: every configured network is the 3-layer scaled DQN
@pytest.mark.parametrize("scope", ["0,7", "3", "-1"], ids=lambda s: f"scaled-{s}")
def test_scope_outside_network_rejected(tmp_path, scope):
    path = tmp_path / "scope.ini"
    path.write_text(f"[pruning]\nscope = {scope}\n")
    with pytest.raises(ConfigError, match="\\[pruning\\] scope"):
        load_config(path)


@pytest.mark.parametrize("scope", ["0,0", "0, 2, 0"])
def test_repeated_scope_index_rejected(tmp_path, scope):
    path = tmp_path / "scope.ini"
    path.write_text(f"[pruning]\nscope = {scope}\n")
    with pytest.raises(ConfigError, match="\\[pruning\\] scope: must be "
                                          "conv, all, or comma-separated "
                                          "distinct layer indices"):
        load_config(path)


def test_scope_inside_network_accepted(tmp_path):
    path = tmp_path / "scope.ini"
    path.write_text("[pruning]\nscope = 0,2\n")
    assert load_config(path).prune_scope == "0,2"


def test_defaults_equal_dataclass_defaults():
    assert load_config(None) == RunConfig()


def test_written_config_loads_like_its_source(tmp_path):
    src = tmp_path / "in.ini"
    src.write_text("[env]\nname = mini-invaders\nmax_steps = 77\n"
                   "[network]\nconv_filters = 8\n"
                   "[training]\nlearning_rate = 3e-4\nbuffer_capacity = 900\n"
                   "[pruning]\nscope = all\n"
                   "[delta]\nthresholds = 0,0.01\n")
    out = tmp_path / "out.ini"
    write_config(src, out)
    cfg = load_config(src)
    assert cfg != RunConfig()
    assert load_config(out) == cfg


def test_schema_names_every_field_once():
    fields = {(cls, f.name) for cls in (RunConfig, TrainingConfig)
              for f in dataclasses.fields(cls)} - {(RunConfig, "training")}
    rows = [(TrainingConfig if k.section == "training" else RunConfig, k.attr)
            for k in SCHEMA]
    assert len(rows) == len(set(rows)) == 20
    assert set(rows) == fields


def test_readme_states_the_key_count():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    counts = re.findall(r"\((\d+) keys\)", readme.read_text())
    assert counts == [str(len(SCHEMA))]


@pytest.mark.parametrize("key", ["min_buffer", "batch_size"])
def test_buffer_smaller_than_warmup_or_batch_rejected(tmp_path, key):
    path = tmp_path / "buf.ini"
    path.write_text(f"[training]\nbuffer_capacity = 100\n{key} = 200\n")
    with pytest.raises(ConfigError, match=f"\\[training\\] {key}: .*buffer_capacity"):
        load_config(path)


def test_buffer_equal_to_warmup_and_batch_accepted(tmp_path):
    path = tmp_path / "buf.ini"
    path.write_text("[training]\nbuffer_capacity = 100\nmin_buffer = 100\n"
                    "batch_size = 100\n")
    assert load_config(path).training.buffer_capacity == 100

