import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(run.__file__).resolve().parent


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no ramschur sources" in proc.stderr


def test_merge_parts_sums_times_and_counts():
    parts = [
        {"seconds": {"a": 1.0}, "counts": {"c": 2}, "witness_rank_max": -1, "rss_mb": 10.0, "work_s": 1.0},
        {"seconds": {"a": 0.5}, "counts": {"c": 3}, "witness_rank_max": 7, "rss_mb": 30.0, "work_s": 0.5},
    ]
    merged = run.merge_parts(parts)
    assert merged["seconds"] == {"a": 1.5}
    assert merged["counts"] == {"c": 5, "foulkes.witness_rank_max": 7}
    assert merged["rss_mb"] == 30.0
