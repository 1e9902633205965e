#!/usr/bin/env python3
"""deltaq benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload delta-desk --seed 1 --seconds 30 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the repository root;
bench/README.md says what each one measures. With --trace 0 the run prints
every end-to-end metric; with --trace 1 it alternates untraced and traced
jobs (one pipeline run or one replay pass each) and prints every per-layer
metric, including the tracing overhead on the job time. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run files (results, trace summary, spans) go to .bench_out/.

BLAS and OpenMP are pinned to BLAS_THREADS threads before numpy loads, so
float summation order, and with it the T=0 counts, does not depend on the
machine's core count.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

_T_PROCESS = time.perf_counter()
BLAS_THREADS = min(1, os.cpu_count() or 1)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "numpy": np.__version__, "blas": blas,
            "python": platform.python_version()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------

def per_layer_metrics(summary: dict, n_jobs: int, counts: dict[str, float],
                      headline: tuple[float, float], self_sum_s: float,
                      n_spans: int) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, samples). Times are self times per call
    unless the table says inclusive; `_s` metrics are totals per job (one
    pipeline run or one replay pass). A span never entered reads 0."""
    def get(span: str) -> dict:
        return summary.get(span, {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0})

    def per_call(span: str, key: str, scale: float) -> tuple[float, int]:
        s = get(span)
        return (s[key] / s["calls"] * scale if s["calls"] else 0.0, s["calls"])

    def per_job(span: str, key: str, scale: float) -> tuple[float, int]:
        return (get(span)[key] / n_jobs * scale, n_jobs)

    us, ms, sec = 1e-3, 1e-6, 1e-9
    m: dict[str, tuple[float, int]] = {
        "network.forward_us": per_call("network.forward", "self_ns", us),
        "network.conv2d_single_us": per_call("network.conv2d_single", "self_ns", us),
        "network.im2col_indices_us": per_call("network.im2col_indices", "self_ns", us),
        "delta.init_ms": per_call("delta.init", "incl_ns", ms),
    }
    for t in ("T0", "T1e-3", "T1e-2"):
        m[f"delta.step_us.{t}"] = per_call(f"delta.step.{t}", "self_ns", us)
        m[f"delta.conv_update_us.{t}"] = per_call(f"delta.conv_update.{t}", "self_ns", us)
        m[f"delta.relu_us.{t}"] = per_call(f"delta.relu.{t}", "self_ns", us)
    step = get("delta.step.T1e-3")
    mults = counts.get("mults_total.T1e-3", 0.0)
    m["delta.ns_per_mult.T1e-3"] = (step["incl_ns"] / mults if mults else 0.0, step["calls"])
    m["delta.mults_per_step.T0"] = (counts.get("mults_per_step.T0", 0.0), 1)
    for row in ("Input", "Conv2d-1", "Conv2d-2", "Conv2d-3", "Dense-1", "Dense-2"):
        if row != "Input":
            m[f"delta.mults.{row}.T1e-3"] = (counts.get(f"mults.{row}", 0.0), 1)
        m[f"delta.events_sent.{row}.T1e-3"] = (counts.get(f"events_sent.{row}", 0.0), 1)
        m[f"delta.temporal_sparsity.{row}.T1e-3"] = (
            counts.get(f"temporal_sparsity.{row}", 0.0), 1)
    m.update({
        "training.train_s": per_job("training.train", "incl_ns", sec),
        "training.double_q_target_us": per_call("training.double_q_target", "incl_ns", us),
        "training.forward_batch_us": per_call("training.forward_batch", "self_ns", us),
        "training.backward_batch_us": per_call("training.backward_batch", "self_ns", us),
        "training.adam_step_us": per_call("training.adam_step", "self_ns", us),
        "training.replay_sample_us": per_call("training.replay_sample", "self_ns", us),
        "training.greedy_action_us": per_call("training.greedy_action", "incl_ns", us),
        "training.gradient_steps": (get("training.adam_step")["calls"] / n_jobs, n_jobs),
        "training.evaluate_s.dense": per_job("training.evaluate.dense", "incl_ns", sec),
        "training.evaluate_s.delta": per_job("training.evaluate.delta", "incl_ns", sec),
        "pruning.apply_us": per_call("pruning.apply", "self_ns", us),
        "pruning.prune_step_ms": per_call("pruning.prune_step", "self_ns", ms),
        "pruning.rewind_ms": per_call("pruning.rewind", "self_ns", ms),
        "envs.step_us": per_call("envs.step", "self_ns", us),
        "envs.reset_us": per_call("envs.reset", "self_ns", us),
        "checkpoint.save_prunable_ms": per_call("checkpoint.save_prunable", "incl_ns", ms),
        "checkpoint.bytes_written": (counts.get("bytes_written", 0.0), 1),
        "reporting.write_report_files_ms": per_call("reporting.write_report_files",
                                                    "incl_ns", ms),
        "cli.self_s": (sum(s["self_ns"] for k, s in summary.items()
                           if k.startswith(("cli.", "config."))) / n_jobs * sec, n_jobs),
    })
    untraced, traced = headline
    m.update({
        "trace.headline_untraced_s": (untraced, n_jobs),
        "trace.headline_traced_s": (traced, n_jobs),
        "trace.overhead_s": (traced - untraced, n_jobs),
        "trace.overhead_pct": ((traced - untraced) / untraced * 100.0, n_jobs),
        "trace.self_sum_s": (self_sum_s, n_jobs),
        "trace.spans_per_job": (n_spans / n_jobs, n_jobs),
    })
    return m


def trace_summary_text(summary: dict, wall_s: float, headline: tuple[float, float],
                       self_sum_s: float) -> str:
    """Each span's calls, self time, share of traced wall time and per-call
    cost, biggest self time first, then the tracing overhead."""
    lines = [f"{'span':<42} {'calls':>8} {'self_ms':>10} {'share':>7} "
             f"{'self_us/call':>12} {'incl_us/call':>12}"]
    for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"{name:<42} {s['calls']:>8} {s['self_ns'] / 1e6:>10.2f} "
            f"{s['self_ns'] / 1e9 / wall_s:>7.2%} "
            f"{s['self_ns'] / s['calls'] / 1e3:>12.2f} {s['incl_ns'] / s['calls'] / 1e3:>12.2f}")
    untraced, traced = headline
    lines += [
        f"traced wall time (set-up and jobs): {wall_s:.4f} s",
        f"headline (one job): untraced {untraced:.4f} s, traced {traced:.4f} s, "
        f"overhead {traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.2%})",
        f"summed self time per job: {self_sum_s:.4f} s; differs from the untraced "
        f"job time by {self_sum_s - untraced:+.4f} s"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _timed_setups(fn):
    """Run a set-up SETUP_REPEATS times; returns the last result and the
    median time."""
    import workloads as wl
    times, result = [], None
    for _ in range(wl.SETUP_REPEATS):
        result = None  # let the previous set-up go before building the next
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, wl.median(times)


def _finish_trace(out, tracer, counts, untraced_s, tag):
    """Per-layer metrics, the self-time checks, the summary and span files.
    The traced headline is the median duration of the job root spans."""
    import workloads as wl
    summary = tracer.summary()
    sums = tracer.run_self_sums("job")
    self_sum = wl.median(s for s, _ in sums)
    traced_s = wl.median(d for _, d in sums)
    out.count(len(sums), sum(abs(s - d) > 1e-6 for s, d in sums),
              "summed self time of a job differs from its root span")
    out.check(abs(self_sum - untraced_s) <= abs(traced_s - untraced_s) + 1e-6,
              "summed self times miss the untraced job time by more than the overhead")
    out.metrics = per_layer_metrics(summary, len(sums), counts, (untraced_s, traced_s),
                                    self_sum, len(tracer.start))
    wall = sum(d for _, d in tracer.run_self_sums(""))
    text = trace_summary_text(summary, wall, (untraced_s, traced_s), self_sum)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}-trace-summary.txt").write_text(text)
    tracer.save(OUT_DIR / f"{tag}-spans.npz")
    print(text, end="")


def run_delta_workload(name: str, seed: int, seconds: float, trace: bool,
                       import_s: float, scale=None):
    import numpy as np
    import workloads as wl
    from tracing import Tracer
    scale = scale or wl.DELTA_SCALES[name]
    out = wl.Outcome()
    st, setup_med = _timed_setups(lambda: wl.setup_delta(seed, scale))
    setup_s = import_s + setup_med
    start = time.perf_counter()
    if not trace:
        passes = wl.run_passes(st, start + seconds)
        wl.check_passes(passes, out)
        out.metrics = wl.delta_end_to_end(passes)
        out.metrics["setup_s"] = (setup_s, wl.SETUP_REPEATS)
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
        return out
    tracer = Tracer()
    with tracer.installed(), tracer.root("setup-0"):
        st_traced = wl.setup_delta(seed, scale)
    passes, traced = [], []
    while len(traced) < wl.MIN_JOBS or time.perf_counter() < start + seconds:
        passes.append(wl.replay_pass(st))
        with tracer.installed(), tracer.root(f"job-{len(traced)}"):
            traced.append(wl.replay_pass(st_traced))
    wl.check_passes(passes, out)
    wl.check_passes(traced, out)
    out.check(np.array_equal(traced[0].mults["T1e-3"], passes[0].mults["T1e-3"]),
              "tracing changed the T1e-3 counts")
    _finish_trace(out, tracer, wl.delta_counts(st_traced, traced),
                  wl.median(p.wall_s for p in passes), f"{name}-seed{seed}")
    return out


def run_pipeline_workload(seed: int, seconds: float, trace: bool, import_s: float,
                          config_text=None):
    import workloads as wl
    from deltaq import envs
    from tracing import Tracer
    work = OUT_DIR / f"pipeline-breakout-seed{seed}"
    out = wl.Outcome()
    (cfg_path, cfg), setup_med = _timed_setups(
        lambda: wl.setup_pipeline(work, config_text or wl.PIPELINE_CONFIG))
    setup_s = import_s + setup_med
    env = envs.make_env(cfg.env_name, seed=0)
    spec = cfg.build_network(env.state_shape, env.n_actions)
    clocks = wl.PipelineClocks()
    clocks.install()
    try:
        start = time.perf_counter()
        if not trace:
            runs = wl.run_pipelines(cfg_path, cfg, seed, work / "run", clocks,
                                    start + seconds)
            wl.check_pipelines(runs, out)
            out.metrics = wl.pipeline_end_to_end(runs)
            out.metrics["setup_s"] = (setup_s, wl.SETUP_REPEATS)
            out.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
            return out
        tracer = Tracer()
        untraced, traced = [], []
        while len(traced) < wl.MIN_JOBS or time.perf_counter() < start + seconds:
            untraced.append(wl.run_pipeline(cfg_path, cfg, seed, work / "run", clocks))
            with tracer.installed(), tracer.root(f"job-{len(traced)}"):
                traced.append(wl.run_pipeline(cfg_path, cfg, seed, work / "run", clocks))
    finally:
        clocks.uninstall()
        shutil.rmtree(work / "run", ignore_errors=True)
    wl.check_pipelines(untraced + traced, out)
    _finish_trace(out, tracer, wl.pipeline_counts(spec, traced),
                  wl.median(r.wall_s for r in untraced), f"pipeline-breakout-seed{seed}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float):
    if name == "pipeline-breakout":
        return run_pipeline_workload(seed, seconds, trace, import_s)
    return run_delta_workload(name, seed, seconds, trace, import_s)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result_json(out, units: dict[str, str]) -> dict:
    """The final line: every listed metric, in BENCHMARK.json's order."""
    missing = [n for n in units if n not in out.metrics]
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    return {"correct": out.failed == 0 and out.attempted > 0,
            "attempted": out.attempted, "failed": out.failed,
            "metrics": {n: {"value": out.metrics[n][0], "unit": u} for n, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "deltaq" / "__init__.py").is_file():
        print(f"error: deltaq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import deltaq
    import workloads  # noqa: F401
    if Path(deltaq.__file__).resolve().parent != ROOT / "src" / "deltaq":
        print(f"error: imported deltaq from {deltaq.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_PROCESS

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    result = result_json(out, units)
    info = environment_info()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for n, u in units.items():
        value, samples = out.metrics[n]
        print(f"{n:<40} {value:>16.6g} {u:<8} n={samples}")
    for note in out.notes:
        print(f"# {note}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": info, "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "notes": out.notes,
                    "attempted": out.attempted, "failed": out.failed,
                    "metrics": {n: {"value": out.metrics[n][0], "unit": u,
                                    "samples": out.metrics[n][1]}
                                for n, u in units.items()}}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # before anything imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
