"""Fast smoke test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
each workload, untraced and traced, and that the T=0 equality check fails
when the T=0 engine is swapped for a thresholded one.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from deltaq.delta import DeltaNetwork  # noqa: E402

TINY_PIPELINE = """\
[env]
max_steps = 30
[training]
steps = 150
min_buffer = 40
batch_size = 8
epsilon_decay_steps = 100
target_sync = 50
[network]
conv_filters = 4
dense_hidden = 16
[pruning]
iterations = 1
[delta]
thresholds = 0,0.001,0.01
[eval]
episodes = 2
"""

TINY_DESK = wl.DeltaScale(frames_per_game=12, max_steps=6, reference=False)
TINY_REFERENCE = wl.DeltaScale(frames_per_game=3, max_steps=3, reference=True)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return tmp_path


def assert_emits_every_metric(out, trace: bool):
    listed = bench.load_benchmark()["per_layer" if trace else "end_to_end"]
    result = bench.result_json(out, {m["name"]: m["unit"] for m in listed})
    assert result["correct"], out.notes
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, m["name"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name,scale", [("delta-desk", TINY_DESK),
                                        ("delta-reference", TINY_REFERENCE)])
def test_delta_workload_emits_every_metric(name, scale, trace):
    out = bench.run_delta_workload(name, seed=3, seconds=0, trace=trace,
                                   import_s=0.0, scale=scale)
    assert_emits_every_metric(out, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_pipeline_workload_emits_every_metric(trace, out_dir):
    out = bench.run_pipeline_workload(seed=3, seconds=0, trace=trace, import_s=0.0,
                                      config_text=TINY_PIPELINE)
    assert_emits_every_metric(out, trace)
    if trace:
        assert list(out_dir.glob("*-trace-summary.txt"))
        assert list(out_dir.glob("*-spans.npz"))


def test_t0_check_fails_on_thresholded_engine():
    st = wl.setup_delta(3, TINY_DESK)
    st.engines["T0"] = DeltaNetwork(st.spec, st.weights, thresholds=0.1)
    passes = [wl.replay_pass(st)]
    out = wl.Outcome()
    wl.check_passes(passes, out)
    assert passes[0].t0_mismatches > 0
    assert out.failed == passes[0].t0_mismatches


def test_threshold_labels():
    assert [wl.threshold_label(t) for t in (0.0, 0.001, 0.01, 0.05)] == \
        ["T0", "T1e-3", "T1e-2", "T0.05"]
