"""Reference summaries of a preset's output directory, and the check against them.

Every output file except run_meta.json (wall-clock timing) is compared:

- JSON files must parse to an equal value; every other file is a CSV;
- CSVs of up to SMALL_CSV_ROWS rows are kept whole; cells must be equal
  strings, or numbers within RTOL (relative) or ATOL (absolute);
- larger CSVs (the gain maps) must be all numeric.  They are kept as the
  header, the row count, SAMPLE_ROWS evenly spaced rows, and per-column sum,
  sum of absolute values, sum of squares, index-weighted sum, min and max.
  Sampled values must agree within RTOL of the column's largest magnitude;
  the sums within RTOL of the column's sum of absolute values.  Columns whose
  name ends in `_db` are compared as linear power 10**(dB/10), so that
  round-off near a pattern null, where dB is ill-conditioned, is not flagged.

The outputs are written with 12 significant digits and are byte-identical
between runs on one machine; RTOL leaves room only for round-off in the last
printed digits on another BLAS build.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EXCLUDED = frozenset({"run_meta.json"})
SMALL_CSV_ROWS = 2000
SAMPLE_ROWS = 257
RTOL = 1e-9
ATOL = 1e-12


def _output_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name not in EXCLUDED)


def _to_linear(header: list[str], data: np.ndarray) -> np.ndarray:
    data = data.copy()
    for j, name in enumerate(header):
        if name.endswith("_db"):
            data[:, j] = 10.0 ** (data[:, j] / 10.0)
    return data


def _row_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def _summarize_csv(path: Path) -> dict:
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if _row_count(path) <= SMALL_CSV_ROWS:
            return {"kind": "csv", "header": header, "rows": list(reader)}
    data = _to_linear(header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    n = data.shape[0]
    index = np.unique(np.linspace(0, n - 1, SAMPLE_ROWS).round().astype(int))
    weights = np.arange(1, n + 1, dtype=np.float64) / n
    columns = {}
    for j, name in enumerate(header):
        col = data[:, j]
        columns[name] = {
            "sum": float(col.sum()),
            "abs_sum": float(np.abs(col).sum()),
            "sq_sum": float(np.square(col).sum()),
            "weighted_sum": float(weights @ col),
            "min": float(col.min()),
            "max": float(col.max()),
        }
    return {
        "kind": "csv-numeric",
        "header": header,
        "rows": n,
        "sample_index": index.tolist(),
        "sample": data[index].tolist(),
        "columns": columns,
    }


def summarize(out_dir: Path) -> dict:
    """Reference summary of every compared file, keyed by path relative to `out_dir`."""
    files = {}
    for path in _output_files(out_dir):
        rel = path.relative_to(out_dir).as_posix()
        if path.suffix == ".json":
            files[rel] = {"kind": "json", "value": json.loads(path.read_text(encoding="utf-8"))}
        else:
            files[rel] = _summarize_csv(path)
    return files


def _close(a: float, b: float, atol: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=atol)


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return _close(float(got), float(want), ATOL)
    except ValueError:
        return False


def _compare_csv(got: dict, want: dict) -> list[str]:
    if got["kind"] != want["kind"] or got["header"] != want["header"]:
        return [f"header or layout differs: {got['header']} vs {want['header']}"]
    if want["kind"] == "csv":
        if len(got["rows"]) != len(want["rows"]):
            return [f"{len(got['rows'])} rows, expected {len(want['rows'])}"]
        for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
            if len(g) != len(w) or not all(_cell_matches(a, b) for a, b in zip(g, w)):
                return [f"row {i + 1}: {g} != {w}"]
        return []
    if got["rows"] != want["rows"]:
        return [f"{got['rows']} rows, expected {want['rows']}"]
    problems = []
    for j, name in enumerate(want["header"]):
        g, w = got["columns"][name], want["columns"][name]
        scale = max(abs(w["min"]), abs(w["max"]))
        for stat in ("min", "max"):
            if not _close(g[stat], w[stat], RTOL * scale + ATOL):
                problems.append(f"column {name}: {stat} {g[stat]!r} != {w[stat]!r}")
        for stat in ("sum", "weighted_sum"):
            if not _close(g[stat], w[stat], RTOL * w["abs_sum"] + ATOL):
                problems.append(f"column {name}: {stat} {g[stat]!r} != {w[stat]!r}")
        for stat in ("abs_sum", "sq_sum"):
            if not _close(g[stat], w[stat], ATOL):
                problems.append(f"column {name}: {stat} {g[stat]!r} != {w[stat]!r}")
        for i, g_row, w_row in zip(want["sample_index"], got["sample"], want["sample"]):
            if not _close(g_row[j], w_row[j], RTOL * scale + ATOL):
                problems.append(f"column {name}, row {i + 1}: {g_row[j]!r} != {w_row[j]!r}")
                break
    return problems


def compare(out_dir: Path, reference: dict) -> list[str]:
    """Problems found in `out_dir` against `reference`; empty when the outputs match."""
    problems = []
    for rel, want in reference.items():
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        try:
            if want["kind"] == "json":
                if json.loads(path.read_text(encoding="utf-8")) != want["value"]:
                    problems.append(f"{rel}: differs")
            else:
                problems.extend(f"{rel}: {p}" for p in _compare_csv(_summarize_csv(path), want))
        except (ValueError, StopIteration) as exc:
            problems.append(f"{rel}: unreadable ({exc})")
    return problems
