"""Run tools/engine_digest.py end to end in a subprocess."""

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
