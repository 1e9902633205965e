"""Aggregate run results into machine-readable reports: per-layer operation
tables (fixed-width text), sparsity/reward tradeoff curves (CSV), and a JSON
mirror of every record. Pure functions of their inputs: the same records
always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .delta import OpCounter, measure_delta_sparsity
from .network import NetworkSpec
from .pruning import SparsityReport


@dataclass
class RunRecord:
    """One evaluated configuration: a pruning iteration at one threshold."""

    iteration: int
    threshold: float
    sparsity_total: float                      # over the pruning scope
    sparsity_all: float                        # over every weight entry
    per_layer_weight_sparsity: dict[str, float]
    per_layer_delta_sparsity: dict[str, float]  # includes the Input row
    per_layer_static: dict[str, int]
    per_layer_measured: dict[str, float]        # mean per timestep
    delta_sparsity_total: float
    reward_dense: float
    reward_delta: float
    static_total: int
    measured_total: float                       # mean per timestep
    timesteps: int

    @property
    def significant_fraction(self) -> float:
        return self.measured_total / self.static_total

    @property
    def reduction_factor(self) -> float:
        """Static over measured multiplications; inf when nothing fired."""
        if self.measured_total == 0:
            return math.inf
        return self.static_total / self.measured_total

    @property
    def reduction_factor_rounded(self) -> float:
        return round(self.reduction_factor, 1)

    @property
    def reduction_factor_floor(self) -> int | float:
        f = self.reduction_factor
        return math.floor(f) if math.isfinite(f) else f


def record_from_counters(spec: NetworkSpec, iteration: int, threshold: float,
                         sparsity: SparsityReport, counter: OpCounter,
                         reward_dense: float, reward_delta: float) -> RunRecord:
    """Assemble a RunRecord from a delta-mode counter and the network's
    weight sparsity."""
    names = spec.layer_names()
    static_by_layer = dict(zip(names, spec.layer_multiplications()))
    t = counter.timesteps
    measured = {name: float(counter.significant_multiplications[i + 1]) / t
                for i, name in enumerate(names)}
    delta_sp = measure_delta_sparsity(counter, spec)
    sent = float(counter.events_sent.sum())
    delta_total = 1.0 - sent / (sum(spec.neuron_counts()) * t)
    return RunRecord(
        iteration=iteration, threshold=threshold,
        sparsity_total=sparsity.scope_total, sparsity_all=sparsity.total,
        per_layer_weight_sparsity=dict(zip(names, sparsity.per_layer)),
        per_layer_delta_sparsity=delta_sp,
        per_layer_static=static_by_layer,
        per_layer_measured=measured,
        delta_sparsity_total=delta_total,
        reward_dense=reward_dense, reward_delta=reward_delta,
        static_total=sum(static_by_layer.values()),
        measured_total=sum(measured.values()), timesteps=t)


# ---------------------------------------------------------------------------
# fixed-width operation table
# ---------------------------------------------------------------------------

_COLS = ("Layer", "Multiplications", "Nonzero multiplications",
         "Sparsity weights", "Delta sparsity")


def build_table(records: list[RunRecord]) -> str:
    """Human-readable per-layer table(s), one block per record, each with an
    Input row, the weighted layers, and a Total row whose count columns are
    the column sums."""
    if not records:
        raise ValueError("no records to report")
    blocks = []
    for rec in records:
        rows = [("Input", 0, 0.0, 0.0, rec.per_layer_delta_sparsity["Input"])]
        for name in rec.per_layer_static:
            rows.append((name, rec.per_layer_static[name],
                         rec.per_layer_measured[name],
                         rec.per_layer_weight_sparsity[name],
                         rec.per_layer_delta_sparsity[name]))
        total = ("Total", rec.static_total, rec.measured_total,
                 rec.sparsity_total, rec.delta_sparsity_total)
        lines = [f"iteration {rec.iteration}, threshold {rec.threshold:g}"]
        fmt = "{:<10} {:>16} {:>24} {:>17} {:>15}"
        lines.append(fmt.format(*_COLS))
        for name, st, ms, ws, ds in rows + [total]:
            lines.append(fmt.format(name, f"{st:,}", f"{ms:,.1f}",
                                    f"{ws:.3f}", f"{ds:.3f}"))
        lines.append(
            f"reduction factor: {rec.reduction_factor_rounded:.1f} "
            f"({rec.reduction_factor_floor}x), reward dense "
            f"{rec.reward_dense:.3f}, reward delta {rec.reward_delta:.3f}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# tradeoff curve
# ---------------------------------------------------------------------------

CURVE_HEADER = ("iteration,threshold,sparsity_total,reward_dense,reward_delta,"
                "static_mults,measured_mults,significant_fraction,"
                "reduction_factor")


def curve_csv(records: list[RunRecord]) -> str:
    """One row per record, ordered by sparsity and then threshold; the
    threshold is written with `repr`, so it reads back as the same float."""
    ordered = sorted(records, key=lambda r: (r.sparsity_total, r.threshold))
    lines = [CURVE_HEADER]
    for r in ordered:
        lines.append(
            f"{r.iteration},{r.threshold!r},{r.sparsity_total:.6f},"
            f"{r.reward_dense:.6f},{r.reward_delta:.6f},{r.static_total},"
            f"{r.measured_total:.3f},{r.significant_fraction:.8f},"
            f"{r.reduction_factor:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def records_to_json(records: list[RunRecord], meta: dict | None = None) -> str:
    payload = {"meta": meta or {}, "records": [asdict(r) for r in records]}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _is_finite_number(v) -> bool:
    # json.loads reads NaN, Infinity and 1e999 as floats; no run stores one
    return type(v) in (int, float) and math.isfinite(v)


# a RunRecord field's annotation -> the JSON values it accepts
_FIELD_CHECKS = {
    "int": lambda v: type(v) is int,
    "float": _is_finite_number,
    "dict[str, int]": lambda v: isinstance(v, dict) and all(
        type(k) is str and type(x) is int for k, x in v.items()),
    "dict[str, float]": lambda v: isinstance(v, dict) and all(
        type(k) is str and _is_finite_number(x) for k, x in v.items()),
}


def records_from_json(text: str) -> tuple[list[RunRecord], dict]:
    """Parse a records file; raises ValueError, TypeError or KeyError on
    bad JSON, missing or unknown fields, a field of the wrong type, a
    non-finite number, or a value no run produces (a negative measured
    count, a static total or timestep count below 1, measured and static
    rows over different layers, or a total that is not the sum of its
    rows), or a meta that is not an object of str keys to str, int or
    finite float values (pipeline writes env, seed, baseline_reward_dense
    and baseline_random; delta-eval writes checkpoint, env and seed)."""
    payload = json.loads(text)
    records = [RunRecord(**d) for d in payload["records"]]
    for i, rec in enumerate(records):
        for f in fields(RunRecord):
            v = getattr(rec, f.name)
            if not _FIELD_CHECKS[f.type](v):
                raise TypeError(f"record {i}: {f.name} must be {f.type} "
                                f"with finite numbers, got {v!r}")
        if any(v < 0 for v in (rec.measured_total,
                               *rec.per_layer_measured.values())):
            raise ValueError(f"record {i}: measured counts must be >= 0")
        for name in ("static_total", "timesteps"):
            if getattr(rec, name) < 1:
                raise ValueError(f"record {i}: {name} must be >= 1, "
                                 f"got {getattr(rec, name)}")
        if rec.per_layer_measured.keys() != rec.per_layer_static.keys():
            raise KeyError(f"record {i}: per_layer_measured layers "
                           f"{sorted(rec.per_layer_measured)} != per_layer_static "
                           f"layers {sorted(rec.per_layer_static)}")
        static = sum(rec.per_layer_static.values())
        if rec.static_total != static:
            raise ValueError(f"record {i}: static_total {rec.static_total} "
                             f"is not the sum of per_layer_static, {static}")
        # the rows are nonnegative, so their summation order moves the sum
        # by far less than rel_tol
        measured = math.fsum(rec.per_layer_measured.values())
        if not math.isclose(rec.measured_total, measured, rel_tol=1e-12):
            raise ValueError(f"record {i}: measured_total {rec.measured_total} "
                             f"is not the sum of per_layer_measured, {measured}")
    meta = payload.get("meta", {})
    if not (isinstance(meta, dict) and all(
            type(k) is str and (type(v) is str or _is_finite_number(v))
            for k, v in meta.items())):
        raise TypeError("meta must map str keys to str or finite numbers, "
                        f"got {meta!r}")
    return records, meta


def write_report_files(out_dir: str | Path, records: list[RunRecord],
                       meta: dict | None = None) -> list[Path]:
    """Emit records.json, curve.csv, and tables.txt; returns written paths.
    All three are rendered before any is written, so a record that cannot
    be rendered leaves `out_dir` untouched."""
    texts = {"records.json": records_to_json(records, meta),
             "curve.csv": curve_csv(records),
             "tables.txt": build_table(records)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return [out / name for name in texts]
