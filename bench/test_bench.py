"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q

The counter test runs every workload twice, traced (about 30 s on a
2-core machine); the others take a few seconds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import outputs  # noqa: E402
from run import EXACT, spawn_worker  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    counters = []
    for tag in ("a", "b"):
        record = spawn_worker(workload, 1, tmp_path, tag, trace=True)
        assert "error" not in record and record["rc"] == 0
        assert not outputs.compare(tmp_path / f"{tag}-out", json.loads(workload.reference_path(1).read_text()))
        counters.append({m: record["trace"][m] for m in EXACT if m in record["trace"]})
    assert counters[0] == counters[1]
    assert counters[0]["design.calls"] > 0


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_small_csv_check(tmp_path):
    header = ["algorithm", "value", "f_obj"]
    rows = [["jpta", "1", "0.5"], ["heuristic", "2", "0.25"]]
    _write_csv(tmp_path / "results.csv", header, rows)
    (tmp_path / "run_meta.json").write_text('{"wall_time_s": 1.0}')
    reference = outputs.summarize(tmp_path)
    assert set(reference) == {"results.csv"}
    assert outputs.compare(tmp_path, reference) == []

    _write_csv(tmp_path / "results.csv", header, [["jpta", "1", "0.5000000000001"], rows[1]])
    assert outputs.compare(tmp_path, reference) == []
    _write_csv(tmp_path / "results.csv", header, [["jpta", "1", "0.51"], rows[1]])
    assert outputs.compare(tmp_path, reference)
    (tmp_path / "results.csv").unlink()
    assert outputs.compare(tmp_path, reference) == ["results.csv: missing"]


def test_large_csv_check(tmp_path):
    header = ["k", "gain_linear", "gain_db"]
    n = outputs.SMALL_CSV_ROWS + 1000
    gains = [1e-12 + (i % 97) / 97.0 for i in range(n)]

    def write(values):
        _write_csv(tmp_path / "map.csv", header,
                   [[i, format(g, ".12g"), format(10 * math.log10(g), ".12g")] for i, g in enumerate(values)])

    write(gains)
    reference = outputs.summarize(tmp_path)
    assert reference["map.csv"]["kind"] == "csv-numeric"
    assert outputs.compare(tmp_path, reference) == []

    unsampled = next(i for i in range(n) if i not in reference["map.csv"]["sample_index"])
    wrong = list(gains)
    wrong[unsampled] += 0.01
    write(wrong)
    assert outputs.compare(tmp_path, reference)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fig5-fast", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
