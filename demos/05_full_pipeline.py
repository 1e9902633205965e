#!/usr/bin/env python3
"""The whole two-stage recipe, end to end, at demo scale:

  stage 1: train, prune the smallest conv weights, rewind the survivors to
           their initial values, retrain; repeat
  stage 2: run each retrained network through the delta engine and count
           the significant multiplications that remain

Writes a run directory with checkpoints, a tradeoff-curve CSV, per-layer
tables, and a manifest. Every iteration is reported at every threshold:
one curve.csv row (its `threshold` column tells them apart) and one
tables.txt block per (iteration, threshold). Uses the command-line entry
point so the output matches what `deltaq pipeline` produces. Takes a
minute or two at the default 4000 training steps per iteration.

usage: python demos/05_full_pipeline.py [out_dir [steps]]
"""

import sys
import tempfile
from pathlib import Path

from deltaq.cli import main

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/demo-pipeline")
steps = int(sys.argv[2]) if len(sys.argv) > 2 else 4000
out.mkdir(parents=True, exist_ok=True)

config = f"""\
[env]
max_steps = 200
[training]
steps = {steps}
epsilon_decay_steps = {steps // 2}
[pruning]
rate = 0.2
iterations = 2
[delta]
thresholds = 0,0.001
[eval]
episodes = 10
"""
with tempfile.TemporaryDirectory() as tmp:
    cfg_path = Path(tmp) / "demo.ini"
    cfg_path.write_text(config)
    rc = main(["pipeline", "--config", str(cfg_path), "--seed", "7",
               "--out", str(out)])
print("exit code:", rc)
print("\ncurve.csv:")
print((out / "curve.csv").read_text())
print("tables.txt:")
print((out / "tables.txt").read_text())
