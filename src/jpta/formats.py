"""File formats: every file the CLI writes or reads back.  Numbers print with `_fmt` (``%.12g``); each writer
takes plain values (labels, fit reports, arrays, the grid), and no writer calls another."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .array_model import SubcarrierGrid, SystemConfig
from .config import NS
from .design import JptaBeamformer
from .metrics import FitReport, linear_to_db

GAIN_MAP_HEADER = ["k", "f_hz", "theta_deg", "gain_linear", "gain_db"]
GAIN_MAP_BLOCK = 16  # subcarriers per `%` of the gain-map writer: at 181 angles a block holds 5.8k floats, not 92k
RESULT_HEADER = ["experiment_id", "algorithm", "parameter", "value", "f_obj", "f_tilde_obj", "iterations", "seed"]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_beamformer_file(path: Path, bf: JptaBeamformer, resolved: dict) -> None:
    lines = ["# joint phase-time array beamformer"]
    lines.append("# config: " + json.dumps(resolved, sort_keys=True, separators=(",", ":")))
    lines.append("[delays_ns]")
    lines.extend(_fmt(t / NS) for t in bf.delays)
    lines.append("[phases_rad]")
    lines.extend(_fmt(p) for p in bf.phases)
    lines.append("[alpha_re_im]")
    lines.extend(f"{_fmt(a.real)} {_fmt(a.imag)}" for a in bf.alpha)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_beamformer_file(path: str | Path, system: SystemConfig | None = None) -> JptaBeamformer:
    """The beamformer stored at ``path``; with ``system``, each section must hold the value count it needs."""
    widths = {"delays_ns": 1, "phases_rad": 1, "alpha_re_im": 2}  # values per line
    rows: dict[str, list[list[float]]] = {}
    name = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in rows:
                raise ValueError(f"{path}:{lineno}: section [{name}]: repeated header")
            rows[name] = []
            continue
        if name is None:
            raise ValueError(f"{path}:{lineno}: content before the first section header")
        if name not in widths:
            continue
        where = f"{path}:{lineno}: section [{name}]"
        try:
            row = [float(v) for v in line.split()]
            if len(row) != widths[name]:
                raise ValueError(f"expected {widths[name]} values, got {len(row)}")
        except ValueError as exc:
            raise ValueError(f"{where}: malformed entry {line!r}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{where}: non-finite value {line!r}")
        rows[name].append(row)
    for name in widths:
        if name not in rows:
            raise ValueError(f"{path}: missing section [{name}]")
    if system is not None:
        for name, count in (("delays_ns", system.num_ttds), ("phases_rad", system.num_antennas),
                            ("alpha_re_im", system.num_subcarriers)):
            if len(rows[name]) != count:
                raise ValueError(f"section [{name}] holds {len(rows[name])} values, the config needs {count}")
    return JptaBeamformer(
        delays=np.array([t for (t,) in rows["delays_ns"]]) * NS,
        phases=np.array([p for (p,) in rows["phases_rad"]]),
        alpha=np.array([complex(a, b) for a, b in rows["alpha_re_im"]]),
    )


def write_hbf_matrices(out_dir: Path, analog: np.ndarray, digital: np.ndarray) -> None:
    """Each hybrid matrix as a CSV whose rows are the matrix rows' real parts, then their imaginary parts."""
    for name, matrix in (("analog", analog), ("digital", digital)):
        np.savetxt(out_dir / f"hbf_{name}_re_im.csv", np.column_stack([matrix.real, matrix.imag]),
                   delimiter=",", fmt="%.12g")


def write_gain_map_csv(path: Path, grid: SubcarrierGrid, gains: np.ndarray, theta_grid: np.ndarray) -> None:
    """Row-major by subcarrier, then angle; CRLF line ends as csv.writer writes them.

    Every angle is formatted once, into a template of one subcarrier's lines.
    Each block of ``GAIN_MAP_BLOCK`` subcarriers joins its copies of that
    template, each led by its ``k,f_hz`` prefix, takes its dB values in one
    pass and fills all its gains with one ``%``.  The bytes are those of
    ``np.savetxt`` with ``%d`` and ``%.12g`` fields, without its per-row loop.
    """
    expected = (grid.num_subcarriers, theta_grid.size)
    if gains.shape != expected:
        raise ValueError(f"gains of shape {gains.shape}, expected (subcarriers, angles) = {expected}")
    angles = ["%.12g" % deg for deg in np.rad2deg(theta_grid).tolist()]
    template = "".join(f"@,{deg},%.12g,%.12g\r\n" for deg in angles)  # "@" marks the k,f_hz prefix
    prefixes = ["%d,%.12g" % kf for kf in zip(grid.indices.tolist(), grid.frequencies.tolist())]
    with path.open("w", encoding="ascii", newline="") as fh:
        fh.write(",".join(GAIN_MAP_HEADER) + "\r\n")
        for start in range(0, len(prefixes), GAIN_MAP_BLOCK):
            block = gains[start:start + GAIN_MAP_BLOCK]
            text = "".join(template.replace("@", prefix) for prefix in prefixes[start:start + GAIN_MAP_BLOCK])
            fh.write(text % tuple(np.stack([block, linear_to_db(block)], axis=-1).ravel().tolist()))


def save_rows(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """A CSV table, as every table writer here lays it out."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_cells(report: FitReport) -> list[str]:
    """The f_obj, f_tilde_obj, iterations and seed cells of a fit-report or results row."""
    return [_fmt(report.f_obj), _fmt(report.f_tilde_obj), str(report.iterations),
            "" if report.seed is None else str(report.seed)]


def write_fit_report(out_dir: Path, experiment_id: str, label: str, report: FitReport, grid: SubcarrierGrid) -> None:
    save_rows(out_dir / "fit_report.csv", ["experiment_id", "algorithm", "f_obj", "f_tilde_obj", "iterations", "seed"],
              [[experiment_id, label, *_report_cells(report)]])
    save_rows(out_dir / "per_subcarrier_match.csv", ["k", "match"],
              ([int(k), _fmt(match)] for k, match in zip(grid.indices, report.per_subcarrier_match)))
    if report.convergence_trace.size:
        save_rows(out_dir / "convergence_trace.csv", ["iteration", "objective"],
                  ([i, _fmt(value)] for i, value in enumerate(report.convergence_trace, start=1)))


def result_rows(runs: Iterable[tuple[str, str, float, str, FitReport]]) -> list[list[str]]:
    """A results row per (experiment id, parameter, value, label, report), sorted by parameter, value and then
    label."""
    return [[experiment_id, label, parameter, _fmt(value), *_report_cells(report)]
            for experiment_id, parameter, value, label, report in sorted(runs, key=lambda run: run[1:4])]


def write_records_csv(path: Path, rows: list[list[str]]) -> None:
    save_rows(path, RESULT_HEADER, rows)


def write_behavior_records_csv(path: Path, records: dict[str, list[list[str]]]) -> None:
    """The results rows of each behavior, each row led by the behavior's name."""
    save_rows(path, ["behavior", *RESULT_HEADER], [[name, *row] for name, rows in records.items() for row in rows])


def write_convergence_ratio_csv(path: Path, stats: dict[str, np.ndarray]) -> None:
    """Per behavior, a row per iteration of its (iterations, 3) mean, 10th and 90th percentile ratios."""
    save_rows(path, ["behavior", "iteration", "mean_ratio", "p10_ratio", "p90_ratio"],
              [[name, i, *map(_fmt, row)] for name, table in stats.items() for i, row in enumerate(table, start=1)])


def write_provenance(out_dir: Path, resolved: dict, wall_time_s: float, notes: list[str]) -> None:
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    meta = {
        "version": __version__,
        "wall_time_s": wall_time_s,
        "notes": notes,
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
