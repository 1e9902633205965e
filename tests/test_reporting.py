import json
import math

import pytest

from deltaq.delta import OpCounter
from deltaq.network import build_reference_dqn, build_scaled_dqn
from deltaq.pruning import SparsityReport
from deltaq.reporting import (RunRecord, build_table, curve_csv,
                              record_from_counters,
                              records_from_json, records_to_json,
                              write_report_files)


def synthetic_record(iteration=7, threshold=0.001, measured_total=75012.0,
                     static_total=9344832, reward_dense=10.0,
                     reward_delta=9.5):
    names = ["Conv2d-1", "Conv2d-2", "Conv2d-3", "Dense-1", "Dense-2"]
    per_static = {n: static_total // len(names) for n in names}
    per_static[names[-1]] += static_total - sum(per_static.values())
    per_meas = {n: measured_total / len(names) for n in names}
    return RunRecord(
        iteration=iteration, threshold=threshold, sparsity_total=0.79,
        sparsity_all=0.036,
        per_layer_weight_sparsity={n: 0.5 for n in names},
        per_layer_delta_sparsity={"Input": 0.99, **{n: 0.97 for n in names}},
        per_layer_static=per_static, per_layer_measured=per_meas,
        delta_sparsity_total=0.98, reward_dense=reward_dense,
        reward_delta=reward_delta, static_total=static_total,
        measured_total=measured_total, timesteps=1000)


class TestReductionFactor:
    def test_published_style_rounding(self):
        rec = synthetic_record()
        assert rec.reduction_factor == pytest.approx(9344832 / 75012)
        assert rec.reduction_factor_rounded == 124.6
        assert rec.reduction_factor_floor == 124

    def test_measured_equals_static_gives_one(self):
        rec = synthetic_record(measured_total=9344832.0)
        assert rec.reduction_factor == 1.0
        assert rec.significant_fraction == 1.0

    def test_zero_measured_is_infinite(self):
        """Nothing fired: the factor is inf, and both renderings say so."""
        rec = synthetic_record(measured_total=0.0)
        assert rec.reduction_factor == math.inf
        assert "reduction factor: inf (infx)" in build_table([rec])
        assert curve_csv([rec]).splitlines()[1].endswith(",0.00000000,inf")


class TestTable:
    def test_total_row_is_column_sum(self):
        rec = synthetic_record()
        text = build_table([rec])
        total_line = [l for l in text.splitlines() if l.startswith("Total")][0]
        assert f"{rec.static_total:,}" in total_line
        assert f"{rec.measured_total:,.1f}" in total_line
        assert rec.static_total == sum(rec.per_layer_static.values())
        assert rec.measured_total == pytest.approx(
            sum(rec.per_layer_measured.values()))

    def test_reduction_line_present(self):
        text = build_table([synthetic_record()])
        assert "124.6 (124x)" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_table([])

    def test_byte_identical_for_same_input(self):
        recs = [synthetic_record(), synthetic_record(iteration=8)]
        assert build_table(recs) == build_table(recs)
        assert curve_csv(recs) == curve_csv(recs)


def curve_rows(records) -> list[dict[str, float]]:
    """curve_csv's data rows, keyed by header column."""
    header, *lines = curve_csv(records).splitlines()
    return [dict(zip(header.split(","), map(float, line.split(","))))
            for line in lines]


class TestCurve:
    def test_single_record_single_row(self):
        rows = curve_rows([synthetic_record()])
        assert len(rows) == 1
        assert rows[0]["sparsity_total"] == 0.79
        assert 0.0 < rows[0]["significant_fraction"] <= 1.0

    def test_rows_sorted_by_sparsity(self):
        recs = [synthetic_record(iteration=2), synthetic_record(iteration=1)]
        recs[0].sparsity_total = 0.36
        recs[1].sparsity_total = 0.20
        rows = curve_rows(recs)
        assert [r["sparsity_total"] for r in rows] == [0.20, 0.36]

    def test_three_iteration_fractions_hand_computed(self):
        recs = []
        for i, meas in enumerate([100.0, 50.0, 25.0], start=1):
            r = synthetic_record(iteration=i, measured_total=meas,
                                 static_total=1000)
            r.sparsity_total = i * 0.1
            recs.append(r)
        rows = curve_rows(recs)
        assert [r["significant_fraction"] for r in rows] == [0.1, 0.05, 0.025]

    def test_csv_header_and_shape(self):
        text = curve_csv([synthetic_record()])
        lines = text.strip().splitlines()
        assert lines[0] == ("iteration,threshold,sparsity_total,reward_dense,"
                            "reward_delta,static_mults,measured_mults,"
                            "significant_fraction,reduction_factor")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 9

    def test_threshold_column_round_trips(self):
        thresholds = [0.0, 2.5e-7, 1e-3, 0.1 + 0.2]  # in row order
        rows = curve_rows([synthetic_record(threshold=t) for t in thresholds])
        assert [r["threshold"] for r in rows] == thresholds


class TestRecordFromCounters:
    def test_totals_are_sums_and_fraction_bounded(self):
        spec = build_scaled_dqn((2, 6, 6), 3, conv_filters=4, dense_hidden=8)
        ctr = OpCounter(spec.layer_names())
        ctr.timesteps = 10
        ctr.significant_multiplications[1:] = [120, 340, 60]
        ctr.events_sent[:] = [40, 30, 20, 10]
        rec = record_from_counters(spec, 1, 0.001,
                                   SparsityReport((0.5, 0.0, 0.0), 0.1, 0.5),
                                   ctr, 5.0, 4.5)
        assert rec.measured_total == pytest.approx(
            sum(rec.per_layer_measured.values()))
        assert rec.static_total == sum(rec.per_layer_static.values())
        assert 0.0 < rec.significant_fraction <= 1.0
        assert rec.timesteps == 10

    def test_unpruned_untouched_fraction_at_most_one(self):
        # dense-change pattern: every multiplication significant every step
        spec = build_scaled_dqn((2, 6, 6), 3, conv_filters=4, dense_hidden=8)
        from deltaq.network import static_network_multiplications
        static = static_network_multiplications(spec)
        ctr = OpCounter(spec.layer_names())
        ctr.timesteps = 5
        rows = [r for r in static.rows if r.name != "Flatten"]
        for i, row in enumerate(rows):
            ctr.significant_multiplications[i + 1] = row.multiplications * 5
        rec = record_from_counters(spec, 0, 0.0,
                                   SparsityReport((0.0, 0.0, 0.0), 0.0, 0.0),
                                   ctr, 1.0, 1.0)
        assert rec.significant_fraction == 1.0


class TestJsonRoundtrip:
    def test_roundtrip(self):
        recs = [synthetic_record(), synthetic_record(iteration=8)]
        text = records_to_json(recs, meta={"env": "mini-breakout"})
        back, meta = records_from_json(text)
        assert meta == {"env": "mini-breakout"}
        assert back == recs

    def test_json_mirrors_fields(self):
        payload = json.loads(records_to_json([synthetic_record()]))
        rec = payload["records"][0]
        for key in ("iteration", "sparsity_total", "per_layer_static",
                    "reward_dense", "reward_delta", "measured_total",
                    "timesteps"):
            assert key in rec

    @pytest.mark.parametrize("key,value", [
        ("measured_total", -1.0), ("per_layer_measured", {"Conv2d-1": -0.5}),
        ("static_total", 0), ("timesteps", 0),
        # totals that are not the sum of their rows
        ("static_total", 9344832 + 1), ("measured_total", 75012.0 * 1.001),
    ])
    def test_values_no_run_produces_rejected(self, key, value):
        payload = json.loads(records_to_json([synthetic_record()]))
        rec = payload["records"][0]
        rec[key] = {**rec[key], **value} if isinstance(value, dict) else value
        with pytest.raises(ValueError, match=f"record 0: .*(measured|{key})"):
            records_from_json(json.dumps(payload))

    def test_measured_rows_summed_in_any_order_accepted(self):
        rows = {"Conv2d-1": 0.1, "Conv2d-2": 0.2, "Dense-1": 0.3}
        rec = synthetic_record()
        rec.per_layer_static = dict(zip(rows, (3, 2, rec.static_total - 5)))
        rec.per_layer_measured = rows
        rec.measured_total = 0.3 + 0.2 + 0.1  # != 0.1 + 0.2 + 0.3
        assert rec.measured_total != sum(rows.values())
        assert records_from_json(records_to_json([rec]))[0] == [rec]


def test_write_report_files(tmp_path):
    paths = write_report_files(tmp_path, [synthetic_record()], {"seed": 1})
    names = sorted(p.name for p in paths)
    assert names == ["curve.csv", "records.json", "tables.txt"]
    for p in paths:
        assert p.exists() and p.stat().st_size > 0


def test_reference_static_totals_feed_reports():
    from deltaq.network import static_network_multiplications
    rep = static_network_multiplications(build_reference_dqn(4))
    assert rep.total_multiplications == 9345024
