#!/usr/bin/env python3
"""Digests of one `deltaq pipeline` run with the benchmark's pipeline config.

Writes bench/workloads.py's PIPELINE_CONFIG to a temporary directory, runs
`deltaq pipeline` on it in-process and prints the SHA-256 of `records.json`,
`tables.txt`, each checkpoint and `curve.csv` (`records_all.json` is a
copy of `records.json`). Two commits that print the same digests trained, pruned
and evaluated bit for bit alike at this seed.

    python3 tools/pipeline_digest.py --seed 7 [--memory]

With --memory the pipeline runs under `tracemalloc`, and one more line after
the digests gives its peak of traced Python and numpy allocations in MiB: a
deterministic memory figure, unlike the process's peak RSS. The digests do
not depend on the flag.

BLAS is pinned to one thread, as in bench/run.py, because trained weights
depend on float summation order.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from deltaq import cli  # noqa: E402
from workloads import PIPELINE_CONFIG  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--memory", action="store_true",
                    help="also print the pipeline's tracemalloc peak in MiB")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "pipeline.ini").write_text(PIPELINE_CONFIG)
        out = work / "run"
        if args.memory:
            tracemalloc.start()
        with contextlib.redirect_stdout(sys.stderr):  # stdout: digests only
            code = cli.main(["pipeline", "--config", str(work / "pipeline.ini"),
                             "--seed", str(args.seed), "--out", str(out)])
        if args.memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if code:
            sys.exit(f"deltaq pipeline exited {code}")
        files = [out / "records.json", out / "tables.txt",
                 *sorted((out / "checkpoints").glob("*.ckpt")),
                 out / "curve.csv"]
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{path.relative_to(out)}\t{digest}")
    if args.memory:
        print(f"tracemalloc_peak_mib\t{peak / 2 ** 20:.2f}")


if __name__ == "__main__":
    main()
