"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is a closed loop with one client in one process: the next
frame or pipeline run is issued only after the previous one returned.
Inputs come from the workload seed alone.

  pipeline-breakout  `deltaq pipeline` through deltaq.cli.main with the
                     benchmark's own small config (PIPELINE_CONFIG)
  delta-desk         a recorded frame stream replayed through forward()
                     and DeltaNetwork.step at T in {0, 1e-3, 1e-2}
  delta-reference    the same streams upscaled to (4, 84, 84) through
                     build_reference_dqn(4)

deltaq is reached through its module attributes at call time
(`network.forward`, not a name bound at import), so the tracer's wrappers
apply once installed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from deltaq import cli, config, delta, envs, network, pruning, training
from tracing import threshold_label

THRESHOLDS = {"T0": 0.0, "T1e-3": 0.001, "T1e-2": 0.01}
MODES = ("dense",) + tuple(THRESHOLDS)
T0_TOLERANCE = 1e-9
SETUP_REPEATS = 5
MIN_JOBS = 2     # the repeat checks need two jobs per run
MODEL_SEED = 0   # delta workloads: one fixed network; the seed drives the frames

PIPELINE_CONFIG = """\
# Acceptance defaults except: fewer training steps, fewer prune iterations,
# fewer eval episodes, and a third threshold.
[env]
name = mini-breakout
[training]
steps = 1000
[pruning]
iterations = 2
[delta]
thresholds = 0,0.001,0.01
[eval]
episodes = 20
"""


@dataclass(frozen=True)
class DeltaScale:
    frames_per_game: int   # recorded frames per game, split into episodes
    max_steps: int         # episode length cap while recording
    reference: bool        # upscale to (4, 84, 84) and use the reference DQN


DELTA_SCALES = {
    "delta-desk": DeltaScale(frames_per_game=800, max_steps=200, reference=False),
    "delta-reference": DeltaScale(frames_per_game=60, max_steps=30, reference=True),
}


@dataclass
class Outcome:
    """What one run measured: metric -> (value, sample count), checks."""

    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


def median(xs) -> float:
    return float(statistics.median(xs))


def per_call_median(runs: list[list[float]]) -> np.ndarray:
    """Times of repeated identical runs, one row per run -> each call's
    median over the runs.

    Other tenants of the host can slow this process up to twofold, switching
    within seconds. Taking each call's median over the runs before summing
    keeps a run's figures steady whichever calls those stretches hit. Runs
    are cut to the shortest; a length difference is a failed check."""
    n = min(len(r) for r in runs)
    return np.median(np.asarray([r[:n] for r in runs], dtype=np.float64), axis=0)


def step_metrics(per_call: dict[str, np.ndarray], n_runs: int) -> dict[str, tuple[float, int]]:
    """Throughput per mode, T1e-3 latency percentiles and the wall speed-up,
    from per-call median times (ns)."""
    m: dict[str, tuple[float, int]] = {}
    for mode, b in per_call.items():
        key = "dense_steps_per_s" if mode == "dense" else f"delta_steps_per_s.{mode}"
        m[key] = (b.size / b.sum() * 1e9, n_runs)
    lat = per_call["T1e-3"] / 1e3
    m["delta_step_us_p50.T1e-3"] = (float(np.percentile(lat, 50)), lat.size)
    m["delta_step_us_p99.T1e-3"] = (float(np.percentile(lat, 99)), lat.size)
    m["wall_speedup.T1e-3"] = (float(np.median(per_call["dense"]) / np.median(per_call["T1e-3"])),
                               lat.size)
    return m


# ---------------------------------------------------------------------------
# delta workloads
# ---------------------------------------------------------------------------

@dataclass
class DeltaSetup:
    spec: network.NetworkSpec
    weights: network.WeightSet
    episodes: list[np.ndarray]
    engines: dict[str, delta.DeltaNetwork]


def _record_game(env, policy, n_frames: int) -> list[np.ndarray]:
    """Episodes of `policy` on `env` until n_frames frames are recorded."""
    episodes, total = [], 0
    while total < n_frames:
        state = env.reset()
        frames, done = [state], False
        while not done and total + len(frames) < n_frames:
            state, _, done = env.step(policy(state))
            frames.append(state)
        episodes.append(np.stack(frames))
        total += len(frames)
    return episodes


def record_stream(seed: int, scale: DeltaScale) -> list[np.ndarray]:
    """Mini-breakout episodes under follow_ball_policy and mini-invaders
    episodes under a seeded random policy, interleaved."""
    s_break, s_inv, s_policy = np.random.SeedSequence([seed, 1]).generate_state(3).tolist()
    rng = np.random.default_rng(s_policy)
    breakout = _record_game(
        envs.make_env("mini-breakout", s_break, scale.max_steps),
        envs.follow_ball_policy, scale.frames_per_game)
    invaders = _record_game(
        envs.make_env("mini-invaders", s_inv, scale.max_steps),
        lambda s: int(rng.integers(4)), scale.frames_per_game)
    episodes = [ep for pair in zip(breakout, invaders) for ep in pair]
    longer = breakout if len(breakout) > len(invaders) else invaders
    episodes += longer[min(len(breakout), len(invaders)):]
    if scale.reference:
        episodes = [np.pad(np.kron(ep, np.ones((1, 1, 8, 8))),
                           ((0, 0), (0, 0), (2, 2), (2, 2))) for ep in episodes]
    return episodes


def setup_delta(seed: int, scale: DeltaScale) -> DeltaSetup:
    """Record the stream, build and prune the network (3 x 20% over the conv
    scope, rewound), and construct one engine per threshold."""
    episodes = record_stream(seed, scale)
    spec = (network.build_reference_dqn(4) if scale.reference
            else network.build_scaled_dqn(episodes[0].shape[1:], 4))
    p = pruning.PrunableWeights.create(
        spec, network.init_weights(spec, np.random.default_rng(MODEL_SEED)), rate=0.2)
    for _ in range(3):
        pruning.prune_step(p)
    pruning.rewind(p)
    engines = {label: delta.DeltaNetwork(spec, p.live, thresholds=t, masks=p.masks)
               for label, t in THRESHOLDS.items()}
    return DeltaSetup(spec, p.live, episodes, engines)


@dataclass
class PassStats:
    wall_s: float
    frames: int
    samples: dict[str, list[int]]
    t0_mismatches: int
    mults: dict[str, np.ndarray]     # per-layer significant multiplications
    events: dict[str, np.ndarray]    # per-row events sent


def replay_pass(st: DeltaSetup) -> PassStats:
    """One pass over the stream. Per episode: dense forward over its frames,
    then each engine over the same frames after reset_state(). Each call is
    timed alone; T0 outputs are compared with the dense outputs."""
    before = {k: (e.counter.significant_multiplications.copy(),
                  e.counter.events_sent.copy()) for k, e in st.engines.items()}
    samples: dict[str, list[int]] = {m: [] for m in ("dense", *st.engines)}
    mismatches, frames = 0, 0
    forward = network.forward
    t_pass = perf_counter()
    for ep in st.episodes:
        frames += len(ep)
        dense_out = []
        rec = samples["dense"]
        for frame in ep:
            t0 = perf_counter_ns()
            q = forward(st.spec, st.weights, frame)
            rec.append(perf_counter_ns() - t0)
            dense_out.append(q)
        for label, eng in st.engines.items():
            eng.reset_state()
            rec = samples[label]
            for i, frame in enumerate(ep):
                t0 = perf_counter_ns()
                q = eng.step(frame)
                rec.append(perf_counter_ns() - t0)
                if label == "T0" and not np.max(np.abs(q - dense_out[i])) <= T0_TOLERANCE:
                    mismatches += 1
    wall = perf_counter() - t_pass
    mults = {k: e.counter.significant_multiplications - before[k][0]
             for k, e in st.engines.items()}
    events = {k: e.counter.events_sent - before[k][1] for k, e in st.engines.items()}
    return PassStats(wall, frames, samples, mismatches, mults, events)


def check_passes(passes: list[PassStats], out: Outcome) -> None:
    """Every frame's T0 output equals forward(); T1e-3 counts repeat exactly."""
    for ps in passes:
        out.count(ps.frames, ps.t0_mismatches, "T0 output differs from forward()")
    for ps in passes[1:]:
        out.check(np.array_equal(ps.mults["T1e-3"], passes[0].mults["T1e-3"])
                  and np.array_equal(ps.events["T1e-3"], passes[0].events["T1e-3"]),
                  "T1e-3 multiplication and event counts differ between passes")


def run_passes(st: DeltaSetup, deadline: float) -> list[PassStats]:
    passes = []
    while len(passes) < MIN_JOBS or perf_counter() < deadline:
        passes.append(replay_pass(st))
    return passes


def delta_end_to_end(passes: list[PassStats]) -> dict[str, tuple[float, int]]:
    n = len(passes)
    per_call = {m: per_call_median([p.samples[m] for p in passes]) for m in passes[0].samples}
    m = step_metrics(per_call, n)
    replay_s = sum(float(b.sum()) for b in per_call.values()) / 1e9
    m["pipeline_s"] = (replay_s, n)
    # no training runs here: steps through all four modes per second instead
    m["train_steps_per_s"] = (len(per_call) * passes[0].frames / replay_s, n)
    first = passes[0]
    m["mults_per_step.T1e-3"] = (float(first.mults["T1e-3"].sum()) / first.frames, n)
    m["events_per_step.T1e-3"] = (float(first.events["T1e-3"].sum()) / first.frames, n)
    return m


def layer_counts(spec: network.NetworkSpec, names: tuple[str, ...],
                 mults: np.ndarray, events: np.ndarray, steps: int) -> dict[str, float]:
    """Per-step multiplications and events sent by layer row, and each row's
    temporal sparsity from measure_delta_sparsity."""
    counter = delta.OpCounter(names[1:])
    counter.significant_multiplications[:] = mults
    counter.events_sent[:] = events
    counter.timesteps = steps
    sparsity = delta.measure_delta_sparsity(counter, spec)
    out = {}
    for i, name in enumerate(names):
        if name != "Input":
            out[f"mults.{name}"] = float(mults[i]) / steps
        out[f"events_sent.{name}"] = float(events[i]) / steps
        out[f"temporal_sparsity.{name}"] = sparsity[name]
    return out


def delta_counts(st: DeltaSetup, passes: list[PassStats]) -> dict[str, float]:
    """Per-layer counts at T1e-3 and the T0 total, per step, from one pass."""
    ps = passes[0]
    out = layer_counts(st.spec, st.engines["T1e-3"].counter.layer_names,
                       ps.mults["T1e-3"], ps.events["T1e-3"], ps.frames)
    out["mults_per_step.T0"] = float(ps.mults["T0"].sum()) / ps.frames
    out["mults_total.T1e-3"] = float(sum(p.mults["T1e-3"].sum() for p in passes))
    return out


# ---------------------------------------------------------------------------
# pipeline workload
# ---------------------------------------------------------------------------

class PipelineClocks:
    """Per-call clocks on the pipeline's train and evaluate calls, and on
    each greedy_action / DeltaNetwork.step made inside an evaluate call.
    They are what end-to-end metrics need from inside the pipeline; the
    tracer's spans are a separate, traced-only layer on top."""

    def __init__(self):
        self.train: list[tuple[int, float]] = []        # (env steps, seconds)
        self.evals: list[dict] = []
        self.samples: dict[str, list[int]] = {m: [] for m in MODES}
        self._current: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        clocks = self
        orig_train, orig_eval = training.train, training.evaluate
        orig_greedy, orig_step = training.greedy_action, delta.DeltaNetwork.step

        @functools.wraps(orig_train)
        def train(env, spec, p, cfg, *args, **kwargs):
            t0 = perf_counter()
            try:
                return orig_train(env, spec, p, cfg, *args, **kwargs)
            finally:
                clocks.train.append((cfg.steps, perf_counter() - t0))

        @functools.wraps(orig_eval)
        def evaluate(*args, **kwargs):
            mode = kwargs.get("mode", "dense")
            label = "dense" if mode == "dense" else threshold_label(kwargs["thresholds"])
            clocks._current = label
            try:
                res = orig_eval(*args, **kwargs)
            finally:
                clocks._current = None
            c = res.counter
            clocks.evals.append({
                "label": label, "steps": c.timesteps,
                "names": c.layer_names,
                "mults": c.significant_multiplications.copy(),
                "events": c.events_sent.copy()})
            return res

        @functools.wraps(orig_greedy)
        def greedy_action(*args, **kwargs):
            if clocks._current != "dense":
                return orig_greedy(*args, **kwargs)
            t0 = perf_counter_ns()
            a = orig_greedy(*args, **kwargs)
            clocks.samples["dense"].append(perf_counter_ns() - t0)
            return a

        @functools.wraps(orig_step)
        def step(self, frame):
            t0 = perf_counter_ns()
            q = orig_step(self, frame)
            if clocks._current is not None:
                clocks.samples[clocks._current].append(perf_counter_ns() - t0)
            return q

        for owner, attr, fn in ((training, "train", train),
                                (training, "evaluate", evaluate),
                                (training, "greedy_action", greedy_action),
                                (delta.DeltaNetwork, "step", step)):
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


@dataclass
class PipelineRun:
    wall_s: float
    exit_code: int
    manifest_ok: bool
    digests: dict[str, str]
    train: list[tuple[int, float]]
    evals: list[dict]
    samples: dict[str, list[int]]
    bytes_written: int


def setup_pipeline(work: Path, config_text: str = PIPELINE_CONFIG) -> tuple[Path, config.RunConfig]:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "pipeline.ini"
    path.write_text(config_text)
    return path, config.load_config(path)


def expected_artifacts(cfg: config.RunConfig) -> set[str]:
    names = {"config.ini", "records.json", "curve.csv", "tables.txt", "records_all.json"}
    return names | {f"checkpoints/iter_{i:03d}.ckpt"
                    for i in range(1, cfg.prune_iterations + 1)}


def run_pipeline(cfg_path: Path, cfg: config.RunConfig, seed: int, out: Path,
                 clocks: PipelineClocks) -> PipelineRun:
    shutil.rmtree(out, ignore_errors=True)
    n_train, n_eval = len(clocks.train), len(clocks.evals)
    n_samples = {m: len(s) for m, s in clocks.samples.items()}
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["pipeline", "--config", str(cfg_path), "--seed", str(seed),
                       "--out", str(out)])
    wall = perf_counter() - t0
    manifest_ok = False
    manifest = out / "manifest.json"
    if manifest.is_file():
        listed = set(json.loads(manifest.read_text())["artifacts"])
        manifest_ok = (listed == expected_artifacts(cfg)
                       and all((out / a).is_file() for a in listed))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("records_all.json", "tables.txt") if (out / name).is_file()}
    ckpts = out / "checkpoints"
    written = sum(f.stat().st_size for f in ckpts.iterdir()) if ckpts.is_dir() else 0
    return PipelineRun(wall, rc, manifest_ok, digests, clocks.train[n_train:],
                       clocks.evals[n_eval:],
                       {m: s[n_samples[m]:] for m, s in clocks.samples.items()}, written)


def run_pipelines(cfg_path, cfg, seed, out, clocks, deadline) -> list[PipelineRun]:
    runs = []
    while len(runs) < MIN_JOBS or perf_counter() < deadline:
        runs.append(run_pipeline(cfg_path, cfg, seed, out, clocks))
    return runs


def _eval_counts(run: PipelineRun, label: str) -> tuple[np.ndarray, np.ndarray, int]:
    evs = [e for e in run.evals if e["label"] == label]
    return (sum(e["mults"] for e in evs), sum(e["events"] for e in evs),
            sum(e["steps"] for e in evs))


def check_pipelines(runs: list[PipelineRun], out: Outcome) -> None:
    """Exit 0 and a complete manifest per run; identical report digests and
    T1e-3 counts across runs of the same seed."""
    for r in runs:
        out.check(r.exit_code == 0, f"pipeline exited {r.exit_code}")
        out.check(r.manifest_ok, "manifest does not list every artifact")
    first = runs[0]
    for r in runs[1:]:
        out.check(len(r.digests) == 2 and r.digests == first.digests,
                  "records_all.json / tables.txt differ between runs of one seed")
        a, b = _eval_counts(r, "T1e-3"), _eval_counts(first, "T1e-3")
        out.check(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2],
                  "T1e-3 multiplication and event counts differ between runs")
        out.check(all(len(r.samples[m]) == len(first.samples[m]) for m in MODES)
                  and len(r.train) == len(first.train),
                  "evaluation or training call counts differ between runs")


def pipeline_end_to_end(runs: list[PipelineRun]) -> dict[str, tuple[float, int]]:
    """Median run time; train and evaluation calls at their per-call median
    over the runs (see `per_call_median`)."""
    n = len(runs)
    train = per_call_median([[t for _, t in r.train] for r in runs])
    m = step_metrics({mode: per_call_median([r.samples[mode] for r in runs])
                      for mode in MODES}, n)
    m["pipeline_s"] = (median(r.wall_s for r in runs), n)
    m["train_steps_per_s"] = (sum(s for s, _ in runs[0].train) / float(train.sum()), n)
    mults, events, steps = _eval_counts(runs[0], "T1e-3")
    m["mults_per_step.T1e-3"] = (float(mults.sum()) / steps, n)
    m["events_per_step.T1e-3"] = (float(events.sum()) / steps, n)
    return m


def pipeline_counts(spec: network.NetworkSpec, runs: list[PipelineRun]) -> dict[str, float]:
    """Per-layer counts of the pipeline's T1e-3 evaluations, per step."""
    r = runs[0]
    mults, events, steps = _eval_counts(r, "T1e-3")
    names = next(e["names"] for e in r.evals if e["label"] == "T1e-3")
    out = layer_counts(spec, names, mults, events, steps)
    m0, _, steps0 = _eval_counts(r, "T0")
    out["mults_per_step.T0"] = float(m0.sum()) / steps0
    out["mults_total.T1e-3"] = float(sum(_eval_counts(x, "T1e-3")[0].sum() for x in runs))
    out["bytes_written"] = float(r.bytes_written)
    return out
