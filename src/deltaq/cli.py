"""Command-line front end.

Subcommands:
  static-count   per-layer multiplication/parameter table for an architecture
  pipeline       train -> prune -> rewind -> retrain loop plus delta evaluation
  delta-eval     evaluate one checkpoint at one or more thresholds
  report         re-render report files from a records.json

Experiment parameters live in the config file; the command line carries only
operational flags (paths, seed, output directory). `pipeline` and
`delta-eval` write a manifest listing the artifacts they produced; every
command exits 0 only when all requested outputs were written.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_prunable
from .config import ConfigError, load_config, parse_thresholds, write_config
from .envs import make_env
from .network import build_reference_dqn, static_network_multiplications
from .reporting import (RunRecord, record_from_counters, records_from_json,
                        write_report_files)
from .training import PipelineRecord, evaluate_pruned, lottery_pipeline


def _static_table(report) -> str:
    fmt = "{:<10} {:>16} {:>12}"
    lines = [fmt.format("Layer", "Multiplications", "Param")]
    for row in report.rows:
        lines.append(fmt.format(row.name, f"{row.multiplications:,}",
                                f"{row.params:,}"))
    lines.append(fmt.format("Total", f"{report.total_multiplications:,}",
                            f"{report.total_params:,}"))
    return "\n".join(lines)


def cmd_static_count(args) -> int:
    try:
        if args.reference_dqn:
            spec = build_reference_dqn(args.n_output)
        else:
            cfg = load_config(args.config)
            env = make_env(cfg.env_name, seed=0)
            spec = cfg.build_network(env.state_shape, env.n_actions)
        report = static_network_multiplications(spec)
    except (ValueError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(_static_table(report))
    return 0


def _write_manifest(out_dir: Path, seed: int, config_src, artifacts: list[Path],
                    command: list[str], extra: dict | None = None) -> Path:
    manifest = {
        "version": __version__,
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
        "seed": seed,
        "config": str(config_src) if config_src else None,
        "command": command,
        "artifacts": sorted(str(p.relative_to(out_dir)) for p in artifacts),
    }
    manifest.update(extra or {})
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _run_records(rec: PipelineRecord) -> list[RunRecord]:
    """One RunRecord per evaluated threshold, in evaluation order."""
    return [record_from_counters(rec.pruned.spec, rec.pruned.iteration, t,
                                 rec.sparsity, ev.counter, rec.reward_dense,
                                 ev.mean_reward)
            for t, ev in rec.delta_results.items()]


def cmd_pipeline(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config errors:\n{e}", file=sys.stderr)
        return 2
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(args.config, out_dir / "config.ini")

    env = make_env(cfg.env_name, seed=args.seed, max_steps=cfg.env_max_steps)
    spec = cfg.build_network(env.state_shape, env.n_actions)
    result = lottery_pipeline(
        env, spec, cfg.prune_rate, cfg.prune_iterations, cfg.training,
        seed=args.seed, scope=cfg.scope_indices(spec),
        thresholds=cfg.thresholds, eval_episodes=cfg.eval_episodes)

    artifacts = [out_dir / "config.ini"]
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    records: list[RunRecord] = []
    for rec in result.records:
        ckpt = ckpt_dir / f"iter_{rec.pruned.iteration:03d}.ckpt"
        save_prunable(ckpt, rec.pruned, extra={
            "env": cfg.env_name, "env_max_steps": cfg.env_max_steps,
            "seed": args.seed})
        artifacts.append(ckpt)
        records += _run_records(rec)

    meta = {
        "env": cfg.env_name,
        "seed": args.seed,
        "baseline_reward_dense": result.baseline_reward_dense,
        "baseline_random": result.baseline_random,
    }
    artifacts += write_report_files(out_dir, records, meta)
    # the same bytes as records.json, kept under its older name because
    # bench/ checks and digests it
    all_path = out_dir / "records_all.json"
    all_path.write_bytes((out_dir / "records.json").read_bytes())
    artifacts.append(all_path)
    artifacts.append(_write_manifest(out_dir, args.seed, args.config, artifacts,
                                     args.argv, extra={"env": cfg.env_name}))
    print(f"pipeline complete: {len(result.records)} iterations, "
          f"artifacts in {out_dir}")
    return 0


def cmd_delta_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        print(f"error: checkpoint not found: {ckpt_path}", file=sys.stderr)
        return 2
    if args.episodes < 1:
        print("error: episodes must be >= 1", file=sys.stderr)
        return 2
    try:
        thresholds = parse_thresholds(args.threshold)
    except ValueError as e:
        print(f"error: --threshold: {e}", file=sys.stderr)
        return 2

    try:
        p, meta = load_checkpoint(ckpt_path)
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    env_name = args.env or meta.get("env")
    if env_name is None:
        print("error: checkpoint has no environment; pass --env",
              file=sys.stderr)
        return 2
    try:
        env = make_env(env_name, seed=args.seed,
                       max_steps=meta.get("env_max_steps", 400))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    spec = p.spec
    if (spec.input_shape, spec.n_output) != (env.state_shape, env.n_actions):
        print(f"error: {ckpt_path}: network {spec.input_shape} -> {spec.n_output} does "
              f"not fit {env_name} {env.state_shape} -> {env.n_actions} actions",
              file=sys.stderr)
        return 2
    records = _run_records(evaluate_pruned(env, p, args.seed, thresholds,
                                           args.episodes))
    out_dir = args.out
    artifacts = write_report_files(out_dir, records,
                                   {"checkpoint": str(ckpt_path),
                                    "env": env_name, "seed": args.seed})
    _write_manifest(out_dir, args.seed, None, artifacts, args.argv,
                    extra={"checkpoint": str(ckpt_path)})
    print((out_dir / "tables.txt").read_text())
    return 0


def cmd_report(args) -> int:
    src = Path(args.records)
    if not src.exists():
        print(f"error: records file not found: {src}", file=sys.stderr)
        return 2
    try:
        records, meta = records_from_json(src.read_text())
        if not records:
            raise ValueError("no records in file")
        # renders every file before it writes any
        paths = write_report_files(args.out, records, meta)
    except (ValueError, TypeError, KeyError) as e:
        print(f"error: {src}: not a records file: {e!r}", file=sys.stderr)
        return 2
    print("\n".join(str(p) for p in paths))
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _out_dir(text: str) -> Path:
    """An --out directory. A path that names a file, or lies under one, is
    rejected here, before the command does any work."""
    out = Path(text)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {str(existing)!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltaq",
        description="Pruned, event-driven Q-network experiments")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("static-count",
                        help="per-layer multiplication/parameter table")
    sc.add_argument("--reference-dqn", action="store_true",
                    help="use the full-scale reference architecture")
    sc.add_argument("--n-output", type=int, default=4,
                    help="action count for the output layer")
    sc.add_argument("--config", default=None,
                    help="config file describing the network instead")
    sc.set_defaults(fn=cmd_static_count)

    pl = sub.add_parser("pipeline",
                        help="run the prune/rewind/retrain pipeline")
    pl.add_argument("--config", default=None, help="run configuration file")
    pl.add_argument("--seed", type=_seed, default=0)
    pl.add_argument("--out", type=_out_dir, required=True,
                    help="run output directory")
    pl.set_defaults(fn=cmd_pipeline)

    de = sub.add_parser("delta-eval",
                        help="evaluate a checkpoint at given thresholds")
    de.add_argument("--checkpoint", required=True)
    de.add_argument("--threshold", default="0,0.001",
                    help="comma-separated threshold list")
    de.add_argument("--episodes", type=int, default=30)
    de.add_argument("--seed", type=_seed, default=0)
    de.add_argument("--env", default=None,
                    help="environment name (default: from checkpoint)")
    de.add_argument("--out", type=_out_dir, required=True)
    de.set_defaults(fn=cmd_delta_eval)

    rp = sub.add_parser("report", help="re-render reports from records.json")
    rp.add_argument("--records", required=True)
    rp.add_argument("--out", type=_out_dir, required=True)
    rp.set_defaults(fn=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.argv = list(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
