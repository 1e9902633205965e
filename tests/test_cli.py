import csv
import json

import pytest

from deltaq.checkpoint import load_checkpoint, save_prunable
from deltaq.cli import main

SMOKE_CONFIG = """
[env]
max_steps = 40
[training]
steps = 300
min_buffer = 40
batch_size = 16
epsilon_decay_steps = 150
target_sync = 50
[network]
conv_filters = 4
dense_hidden = 16
[pruning]
iterations = 2
[eval]
episodes = 2
"""


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    cfg = root / "run.ini"
    cfg.write_text(SMOKE_CONFIG)
    out = root / "run1"
    rc = main(["pipeline", "--config", str(cfg), "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    return root, cfg, out


class TestStaticCount:
    def test_reference_table_values(self, capsys):
        assert main(["static-count", "--reference-dqn", "--n-output", "4"]) == 0
        out = capsys.readouterr().out
        for value in ("3,276,800", "2,654,208", "1,806,336", "1,605,632",
                      "2,048", "8,224", "32,832", "36,928", "1,606,144",
                      "2,052"):
            assert value in out
        assert "Flatten" in out

    def test_n18_dense2_row(self, capsys):
        assert main(["static-count", "--reference-dqn", "--n-output", "18"]) == 0
        assert "9,216" in capsys.readouterr().out

    def test_inconsistent_architecture_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[network]\nconv_kernel = 30\n")
        assert main(["static-count", "--config", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_network_counts(self, capsys):
        assert main(["static-count"]) == 0  # defaults: scaled net on breakout
        out = capsys.readouterr().out
        assert "Conv2d-1" in out and "Total" in out


class TestPipeline:
    def test_run_directory_contents(self, smoke_run):
        _, _, out = smoke_run
        ckpts = sorted((out / "checkpoints").glob("*.ckpt"))
        assert [p.name for p in ckpts] == ["iter_001.ckpt", "iter_002.ckpt"]
        for name in ("manifest.json", "config.ini", "records.json",
                     "curve.csv", "tables.txt", "records_all.json"):
            assert (out / name).exists()
        curve = (out / "curve.csv").read_text().strip().splitlines()
        assert len(curve) == 1 + 2 * 2  # header + (iteration, threshold) rows

    def test_reports_every_iteration_and_threshold(self, smoke_run):
        _, _, out = smoke_run
        records = json.loads((out / "records.json").read_text())["records"]
        assert [(r["iteration"], r["threshold"]) for r in records] == \
            [(1, 0.0), (1, 0.001), (2, 0.0), (2, 0.001)]
        assert (out / "records.json").read_bytes() == \
            (out / "records_all.json").read_bytes()
        blocks = (out / "tables.txt").read_text().split("\n\n")
        assert [b.splitlines()[0] for b in blocks] == [
            "iteration 1, threshold 0", "iteration 1, threshold 0.001",
            "iteration 2, threshold 0", "iteration 2, threshold 0.001"]

    def test_manifest_lists_artifacts(self, smoke_run):
        _, _, out = smoke_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        listed = set(manifest["artifacts"])
        assert "curve.csv" in listed
        assert "checkpoints/iter_001.ckpt" in listed
        for rel in listed:
            assert (out / rel).exists()

    def test_same_seed_reproduces_csv(self, smoke_run):
        root, cfg, out = smoke_run
        out2 = root / "run2"
        assert main(["pipeline", "--config", str(cfg), "--seed", "5",
                     "--out", str(out2)]) == 0
        for rel in ("curve.csv", "records.json", "tables.txt",
                    "records_all.json", "checkpoints/iter_001.ckpt",
                    "checkpoints/iter_002.ckpt"):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_checkpoint_resaves_to_identical_bytes(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        for name in ("iter_001.ckpt", "iter_002.ckpt"):
            src = out / "checkpoints" / name
            p, meta = load_checkpoint(src)
            save_prunable(tmp_path / name, p, extra=meta)
            assert (tmp_path / name).read_bytes() == src.read_bytes(), name

    def test_invalid_config_rejected_before_work(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[pruning]\niterations = 0\n")
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("conv_filters", "abc"), ("conv_filters", "0"), ("conv_kernel", "-2"),
    ])
    def test_bad_network_integer_exits_2(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.ini"
        text = SMOKE_CONFIG.replace("conv_filters = 4\n", "")
        bad.write_text(text.replace("[network]\n",
                                    f"[network]\n{key} = {value}\n"))
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section,line,fragment", [
        ("pruning", "scope = 0,7", "scope"),
        ("training", "adam_beta1 = 1.0", "adam_beta1"),
        ("training", "stpes = 5", "stpes"),
    ])
    def test_bad_training_or_scope_exits_2(self, tmp_path, capsys, section,
                                           line, fragment):
        bad = tmp_path / "bad.ini"
        bad.write_text(SMOKE_CONFIG.replace(f"[{section}]\n",
                                            f"[{section}]\n{line}\n"))
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert fragment in capsys.readouterr().err


    @pytest.mark.parametrize("section,line", [
        pytest.param("network", "preset = reference", id="preset = reference"),
        pytest.param("network", "n_output = 6", id="n_output = 6"),
        pytest.param("delta", "input_threshold = 0.002",
                     id="input_threshold = 0.002"),
        pytest.param("training", "eval_every = 100", id="eval_every = 100"),
        pytest.param("training", "curve_episodes = 5",
                     id="curve_episodes = 5"),
        pytest.param("delta", "curve_threshold = 0.001",
                     id="curve_threshold = 0.001"),
    ])
    def test_removed_network_keys_exit_2(self, tmp_path, capsys, section,
                                         line):
        bad = tmp_path / "old.ini"
        text = SMOKE_CONFIG if f"[{section}]\n" in SMOKE_CONFIG \
            else SMOKE_CONFIG + f"[{section}]\n"
        bad.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not (out / "config.ini").exists()
        key = line.split(" = ")[0]
        assert f"[{section}] {key}: unknown key" in capsys.readouterr().err


class TestDeltaEval:
    def test_threshold_zero_matches_dense(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_002.ckpt"
        dest = tmp_path / "de0"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--threshold",
                     "0", "--episodes", "3", "--seed", "9",
                     "--out", str(dest)]) == 0
        records = json.loads((dest / "records.json").read_text())["records"]
        assert len(records) == 1
        assert records[0]["reward_delta"] == records[0]["reward_dense"]

    def test_measured_nonincreasing_in_threshold(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_002.ckpt"
        dest = tmp_path / "de3"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--threshold",
                     "0,0.001,0.01", "--episodes", "3", "--seed", "9",
                     "--out", str(dest)]) == 0
        records = json.loads((dest / "records.json").read_text())["records"]
        assert len(records) == 3
        by_t = sorted(records, key=lambda r: r["threshold"])
        measured = [r["measured_total"] for r in by_t]
        assert measured == sorted(measured, reverse=True)

    def test_curve_has_one_row_per_threshold(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        dest = tmp_path / "rows"
        assert main(["delta-eval", "--checkpoint",
                     str(out / "checkpoints" / "iter_002.ckpt"), "--threshold",
                     "0.01,0,0.001", "--episodes", "1", "--out", str(dest)]) == 0
        with open(dest / "curve.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(r["threshold"]) for r in rows] == [0.0, 0.001, 0.01]
        assert {r["iteration"] for r in rows} == {"2"}

    def test_agrees_with_pipeline_records(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        dest = tmp_path / "agree"
        assert main(["delta-eval", "--checkpoint",
                     str(out / "checkpoints" / "iter_002.ckpt"), "--threshold",
                     "0.001", "--episodes", "1", "--out", str(dest)]) == 0
        got = json.loads((dest / "records.json").read_text())["records"][0]
        rows = [r for r in json.loads((out / "records_all.json").read_text())
                ["records"] if r["iteration"] == 2]
        assert rows
        keys = ("iteration", "sparsity_total", "sparsity_all",
                "per_layer_weight_sparsity")
        for row in rows:
            assert {k: got[k] for k in keys} == {k: row[k] for k in keys}

    @pytest.mark.parametrize("part", ["masks", "initial"])
    def test_checkpoint_without_masks_or_initial_exits_2(
            self, smoke_run, tmp_path, capsys, part):
        """A file in the older layout that leaves out the masks or the
        initial snapshot, with its header flag false, is not a pruned
        network: delta-eval stops before writing anything."""
        _, _, out = smoke_run
        src = out / "checkpoints" / "iter_001.ckpt"
        p, _ = load_checkpoint(src)
        raw = src.read_bytes()
        hlen = int.from_bytes(raw[12:16], "little")
        header = json.loads(raw[16:16 + hlen])
        header[f"has_{part}"] = False
        n_live = 8 * sum(l.param_count() for l in p.spec.layers)
        n_masks = sum(m.size for m in p.masks)
        payload = raw[16 + hlen:]
        live, rest = payload[:n_live], payload[n_live:]
        payload = live + (rest[n_masks:] if part == "masks" else rest[:n_masks])
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / f"no-{part}.ckpt"
        bad.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob
                        + payload)
        dest = tmp_path / "none"
        assert main(["delta-eval", "--checkpoint", str(bad), "--threshold",
                     "0", "--episodes", "1", "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "has_" in err
        assert not dest.exists()

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["delta-eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--out", str(tmp_path / "x")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "0,inf"])
    def test_nonfinite_threshold_rejected(self, smoke_run, tmp_path, capsys,
                                          threshold):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_001.ckpt"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--threshold",
                     threshold, "--out", str(tmp_path / "n")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["truncated", "bad-schema"])
    def test_corrupt_checkpoint_exits_2(self, smoke_run, tmp_path, capsys,
                                        cut):
        _, _, out = smoke_run
        raw = (out / "checkpoints" / "iter_001.ckpt").read_bytes()
        bad = tmp_path / f"{cut}.ckpt"
        if cut == "truncated":
            bad.write_bytes(raw[:-5])
        else:  # valid JSON without the layer list
            blob = b'{"n_output": 3}'
            bad.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob)
        assert main(["delta-eval", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    def test_zero_episodes_rejected(self, smoke_run, tmp_path, capsys):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_001.ckpt"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--episodes",
                     "0", "--out", str(tmp_path / "y")]) == 2


class TestReport:
    def test_rerender_from_records(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        dest = tmp_path / "rr"
        assert main(["report", "--records", str(out / "records.json"),
                     "--out", str(dest)]) == 0
        assert (dest / "curve.csv").read_bytes() == \
            (out / "curve.csv").read_bytes()
        assert (dest / "tables.txt").read_bytes() == \
            (out / "tables.txt").read_bytes()

    def test_missing_records(self, tmp_path, capsys):
        assert main(["report", "--records", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "z")]) == 2

    @pytest.mark.parametrize("text", [
        "not json", '{"records": [{"iteration": 1}]}',
    ], ids=["not-json", "missing-fields"])
    def test_unreadable_records_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        dest = tmp_path / "r"
        assert main(["report", "--records", str(src), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:")
        assert not dest.exists()

    @pytest.mark.parametrize("key,value", [
        ("threshold", "abc"), ("measured_total", None),
        # json.loads reads these; rendered, they printed "threshold nan"
        # and a curve row with "inf", and report exited 0
        ("threshold", float("nan")), ("reward_dense", float("inf")),
    ])
    def test_wrong_field_type_exits_2_and_writes_nothing(
            self, smoke_run, tmp_path, capsys, key, value):
        _, _, out = smoke_run
        payload = json.loads((out / "records.json").read_text())
        payload["records"][0][key] = value
        src = tmp_path / "typed.json"
        src.write_text(json.dumps(payload))
        dest = tmp_path / "t"
        dest.mkdir()
        assert main(["report", "--records", str(src), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:") and key in err
        assert not (dest / "records.json").exists()
        assert not (dest / "curve.csv").exists()

    def test_total_not_row_sum_exits_2_and_writes_nothing(
            self, smoke_run, tmp_path, capsys):
        # rendered, it printed "Total 999" under rows that sum to more,
        # and a reduction factor computed from 999
        _, _, out = smoke_run
        payload = json.loads((out / "records.json").read_text())
        payload["records"][0]["static_total"] = 999
        src = tmp_path / "summed.json"
        src.write_text(json.dumps(payload))
        dest = tmp_path / "s"
        assert main(["report", "--records", str(src), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:") and "static_total" in err
        assert not dest.exists()

    def test_unrenderable_record_exits_2_and_writes_nothing(
            self, smoke_run, tmp_path, capsys):
        _, _, out = smoke_run
        payload = json.loads((out / "records.json").read_text())
        del payload["records"][-1]["per_layer_measured"]["Dense-1"]
        src = tmp_path / "holed.json"
        src.write_text(json.dumps(payload))
        dest = tmp_path / "h"
        assert main(["report", "--records", str(src), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:") and "Dense-1" in err
        assert not dest.exists()


class TestBadInputsExit2:
    def test_pipeline_network_too_large_for_frames(self, tmp_path, capsys):
        bad = tmp_path / "big.ini"
        bad.write_text("[network]\nconv_kernel = 30\n")
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "does not fit" in capsys.readouterr().err

    def test_pipeline_repeated_threshold_rejected(self, tmp_path, capsys):
        # a repeat would be evaluated twice and kept once
        bad = tmp_path / "repeat.ini"
        bad.write_text(SMOKE_CONFIG + "[delta]\nthresholds = 0,0.001,0.001\n")
        out = tmp_path / "never"
        assert main(["pipeline", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[delta] thresholds: must not repeat a value" in captured.err

    def test_delta_eval_repeated_threshold_rejected(self, smoke_run, tmp_path,
                                                    capsys):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_001.ckpt"
        dest = tmp_path / "r"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--threshold",
                     "0,0.001,1e-3", "--episodes", "1", "--out", str(dest)]) == 2
        assert not dest.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --threshold: must not repeat a value")

    @pytest.mark.parametrize("command", [
        ["pipeline"], ["delta-eval", "--checkpoint", "any.ckpt"],
    ], ids=["pipeline", "delta-eval"])
    def test_negative_seed_rejected_before_writing(self, tmp_path, capsys,
                                                   command):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --seed: must be an integer >= 0" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rel", ["taken", "taken/run"],
                             ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["pipeline", "delta-eval", "report"])
    def test_out_that_is_not_a_directory_exits_2(self, smoke_run, tmp_path,
                                                 capsys, command, rel):
        """Argument parsing rejects the path, so no command starts its
        work (delta-eval used to crash only after its whole evaluation)."""
        _, cfg, out = smoke_run
        inputs = {"pipeline": ["--config", str(cfg)],
                  "delta-eval": ["--checkpoint",
                                 str(out / "checkpoints" / "iter_001.ckpt"),
                                 "--episodes", "1"],
                  "report": ["--records", str(out / "records.json")]}
        taken = tmp_path / "taken"
        taken.write_text("a file")
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs[command], "--out", str(tmp_path / rel)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --out: not a directory: '{taken}'" in \
            captured.err
        assert taken.read_text() == "a file"

    @pytest.mark.parametrize("key,value", [
        ("rate", 5), ("rate", "0.2"), ("iteration", -1), ("scope", [9]),
        ("env_max_steps", "x"), ("env_max_steps", 0),
    ])
    def test_delta_eval_bad_checkpoint_extra(self, smoke_run, tmp_path,
                                             capsys, key, value):
        _, _, out = smoke_run
        raw = (out / "checkpoints" / "iter_001.ckpt").read_bytes()
        hlen = int.from_bytes(raw[12:16], "little")
        header = json.loads(raw[16:16 + hlen])
        header["extra"][key] = value
        blob = json.dumps(header).encode("utf-8")
        bad = tmp_path / "extra.ckpt"
        bad.write_bytes(raw[:12] + len(blob).to_bytes(4, "little") + blob
                        + raw[16 + hlen:])
        assert main(["delta-eval", "--checkpoint", str(bad), "--episodes",
                     "1", "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and key in err

    def test_delta_eval_network_does_not_fit_env(self, smoke_run, tmp_path,
                                                 capsys):
        _, _, out = smoke_run  # a 3-action mini-breakout network
        ckpt = out / "checkpoints" / "iter_001.ckpt"
        dest = tmp_path / "m"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--env",
                     "mini-invaders", "--episodes", "1", "--out", str(dest)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not dest.exists()

    def test_delta_eval_unknown_env(self, smoke_run, tmp_path, capsys):
        _, _, out = smoke_run
        ckpt = out / "checkpoints" / "iter_001.ckpt"
        assert main(["delta-eval", "--checkpoint", str(ckpt), "--env", "pong",
                     "--out", str(tmp_path / "p")]) == 2
        assert "unknown environment" in capsys.readouterr().err


SILENT_CONFIG = SMOKE_CONFIG + "[delta]\nthresholds = 0,5\n"


@pytest.fixture(scope="module")
def silent_run(tmp_path_factory):
    """A pipeline with a threshold no binary frame change reaches: at T=5
    no input event ever fires, so no multiplication is measured."""
    root = tmp_path_factory.mktemp("silent")
    cfg = root / "run.ini"
    cfg.write_text(SILENT_CONFIG)
    out = root / "run"
    rc = main(["pipeline", "--config", str(cfg), "--seed", "5",
               "--out", str(out)])
    return root, out, rc


class TestNothingFires:
    def test_pipeline_reports_infinite_reduction(self, silent_run):
        _, out, rc = silent_run
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"curve.csv", "tables.txt"} <= set(manifest["artifacts"])
        rows = (out / "curve.csv").read_text().strip().splitlines()[1:]
        silent = [r for r in rows if r.split(",")[1] == "5.0"]
        assert len(rows) == 4 and len(silent) == 2
        assert all(r.endswith(",inf") for r in silent)
        assert all(r["measured_total"] == 0.0 for r in json.loads(
            (out / "records.json").read_text())["records"]
            if r["threshold"] == 5)
        assert "reduction factor: inf (infx)" in (out / "tables.txt").read_text()

    def test_report_rerenders_byte_for_byte(self, silent_run):
        root, out, _ = silent_run
        dest = root / "rerender"
        assert main(["report", "--records", str(out / "records.json"),
                     "--out", str(dest)]) == 0
        for name in ("curve.csv", "tables.txt"):
            assert (dest / name).read_bytes() == (out / name).read_bytes()

    def test_delta_eval_reports_infinite_reduction(self, silent_run):
        root, out, _ = silent_run
        dest = root / "de5"
        assert main(["delta-eval", "--checkpoint",
                     str(out / "checkpoints" / "iter_002.ckpt"), "--threshold",
                     "5", "--episodes", "1", "--out", str(dest)]) == 0
        rows = (dest / "curve.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",inf")
