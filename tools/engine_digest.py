#!/usr/bin/env python3
"""Digests of the delta engine's trajectory on the benchmark's streams.

For each delta workload of bench/workloads.py and each of its thresholds,
one engine steps through every recorded episode (reset_state between
episodes), and the tool prints one line: workload, threshold and two
SHA-256 digests. The trajectory digest covers, step by step, the returned
output and every layer's accumulator `o` and transmitted values `x`, then
the engine's two counter arrays; two commits that print the same one did
the same arithmetic bit for bit on these streams. The counts digest covers
the two counter arrays only, so it holds when a change moves output bits
but no event or counted multiplication.

    PYTHONPATH=src python3 tools/engine_digest.py --seed 1 > before.txt
    PYTHONPATH=src python3 tools/engine_digest.py --seed 1 --compare before.txt

With --compare FILE, a saved output of this tool, the run still prints its
digests, then names on stderr each (workload, threshold) pair whose
trajectory or counts moved, or that is missing from the file, and exits 1
if there is one.

BLAS is pinned to one thread, as in bench/run.py, because T=0 counts
depend on float summation order.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def digests(setup: workloads.DeltaSetup, label: str) -> tuple[str, str]:
    """The (trajectory, counts) digests of one engine's run."""
    eng = setup.engines[label]
    h = hashlib.sha256()
    for ep in setup.episodes:
        eng.reset_state()
        for frame in ep:
            h.update(eng.step(frame).tobytes())
            for L in eng.layers:
                h.update(L.o.tobytes())
                h.update(L.x.tobytes())
    counts = (eng.counter.significant_multiplications.tobytes()
              + eng.counter.events_sent.tobytes())
    h.update(counts)
    return h.hexdigest(), hashlib.sha256(counts).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", type=Path, metavar="FILE",
                    help="a saved output of this tool to check the run against")
    args = ap.parse_args()
    saved = None
    if args.compare is not None:
        try:
            text = args.compare.read_text()
        except OSError as e:
            sys.exit(f"cannot read {args.compare}: {e}")
        rows = [line.split("\t") for line in text.splitlines()]
        if not rows or any(len(row) != 4 for row in rows):
            sys.exit(f"{args.compare}: not a saved output of this tool")
        saved = {(name, label): tuple(d) for name, label, *d in rows}
    differ = []
    for name, scale in workloads.DELTA_SCALES.items():
        setup = workloads.setup_delta(args.seed, scale)
        for label in setup.engines:
            got = digests(setup, label)
            print(f"{name}\t{label}\t{got[0]}\t{got[1]}")
            if saved is None:
                continue
            want = saved.get((name, label))
            if want is None:
                differ.append(f"{name} {label}: missing")
            elif moved := [part for part, a, b in
                           zip(("trajectory", "counts"), got, want) if a != b]:
                differ.append(f"{name} {label}: {' and '.join(moved)}")
    if differ:
        sys.exit(f"digests differ from {args.compare}:\n" + "\n".join(differ))


if __name__ == "__main__":
    main()
