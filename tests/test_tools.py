"""Run tools/engine_digest.py and tools/pipeline_digest.py end to end in a
subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_digest(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "engine_digest.py"), "--seed", "1",
         *args], capture_output=True, text=True, timeout=120)


def test_engine_digest_compare_names_what_moved(tmp_path):
    first = run_digest()
    assert first.returncode == 0, first.stderr
    rows = [line.split("\t") for line in first.stdout.splitlines()]
    assert [row[:2] for row in rows] == [
        [name, label] for name in ("delta-desk", "delta-reference")
        for label in ("T0", "T1e-3", "T1e-2")]
    assert all(len(row) == 4 and all(len(d) == 64 for d in row[2:])
               for row in rows)
    saved = tmp_path / "saved.txt"
    saved.write_text(first.stdout)
    same = run_digest("--compare", str(saved))
    assert same.returncode == 0, same.stderr
    assert same.stdout == first.stdout

    # one pair's counts digest and another's trajectory digest edited
    rows[1][3] = "0" * 64
    rows[3][2] = "0" * 64
    edited = tmp_path / "edited.txt"
    edited.write_text("".join("\t".join(row) + "\n" for row in rows))
    moved = run_digest("--compare", str(edited))
    assert moved.returncode == 1
    named = moved.stderr.splitlines()[1:]
    assert named == ["delta-desk T1e-3: counts",
                     "delta-reference T0: trajectory"]


def test_pipeline_digest_does_not_depend_on_memory_flag():
    # the bit-for-bit claims rest on these digests; --memory only adds a
    # tracemalloc line after them
    runs = [subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pipeline_digest.py"),
         "--seed", "7", *flag], capture_output=True, text=True, timeout=300)
        for flag in ([], ["--memory"])]
    for run in runs:
        assert run.returncode == 0, run.stderr
    plain, traced = (run.stdout.splitlines() for run in runs)
    assert [line.split("\t")[0] for line in plain] == [
        "records.json", "tables.txt", "checkpoints/iter_001.ckpt",
        "checkpoints/iter_002.ckpt", "curve.csv"]
    assert all(len(line.split("\t")[1]) == 64 for line in plain)
    assert traced[:-1] == plain
    assert traced[-1].startswith("tracemalloc_peak_mib\t")
