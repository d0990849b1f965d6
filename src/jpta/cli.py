"""Experiment runner: config-driven design, sweeps, baseline comparison, presets.

Subcommands
-----------
design       one design run; writes the beamformer file, fit-report CSVs and
             optionally a gain-map CSV
sweep        one row per (sweep value, algorithm); writes results.csv
compare-hbf  hybrid-beamforming chain sweep against a reference design
reproduce    parameter presets for the stock figures (fig4..fig9, fig11)
gain-map     re-evaluate a stored beamformer file into a gain-map CSV

Angles are taken in degrees on this boundary and converted once; frequencies
are given in GHz and delays in ns.  Every output directory receives the fully
resolved configuration (resolved_config.json) for provenance plus run_meta.json
with wall-clock timing; all other files are byte-deterministic for a fixed
config and seed.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .array_model import (
    SubcarrierGrid,
    SystemConfig,
    build_grid,
    check_angle,
    check_sweep,
    default_theta_grid,
    effective_beamformer_matrix,
    gain_map,
)
from .beam_targets import (
    BeamTarget,
    WeightScheme,
    behavior1_target,
    behavior2_target,
    custom_target,
    multi_angle_target,
)
from .design import DesignOptions, JptaBeamformer, TtdUpdate, _discrete_set, design_jpta
from .hbf import HbfBeamformer, HbfStructure, altmin_pc, chains_fit, pe_altmin_fc, stack_target
from .heuristics import heuristic_behavior1, heuristic_behavior2
# objective_tilde is unused here but stays bound: bench/tracing.py wraps each name it lists in this module
from .metrics import (
    FitReport,
    build_fit_report,
    fit_objective,
    linear_to_db,
    objective_tilde,
    per_subcarrier_match,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

GHZ = 1e9
NS = 1e-9

GAIN_MAP_HEADER = ["k", "f_hz", "theta_deg", "gain_linear", "gain_db"]
RESULT_HEADER = ["experiment_id", "algorithm", "parameter", "value", "f_obj", "f_tilde_obj", "iterations", "seed"]

STOCK_SYSTEM = {
    "num_antennas": 64,
    "num_ttds": 64,
    "carrier_freq_ghz": 100.0,
    "bandwidth_ghz": 10.0,
    "num_subcarriers": 2048,
    "delay_range": 64.0,
}
FAST_SUBCARRIERS = 256
PRESET_BEHAVIOR1 = {"behavior": 1, "theta0_deg": 30.0, "delta_theta_deg": 45.0}
PRESET_BEHAVIOR2 = {"behavior": 2, "theta1_deg": -45.0, "theta2_deg": 30.0}


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field path."""


@dataclass
class ResultRecord:
    """One aggregated run result.

    ``wall_time_s`` is the task's wall time as `_map` measures it; no output holds it yet,
    and it is kept for the stage recorder that ROADMAP item 4 plans.
    """

    experiment_id: str
    algorithm: str
    parameter: str
    value: float
    f_obj: float
    f_tilde_obj: float
    iterations: int
    seed: int | None
    wall_time_s: float = 0.0

    def csv_row(self) -> list[str]:
        return [
            self.experiment_id,
            self.algorithm,
            self.parameter,
            _fmt(self.value),
            _fmt(self.f_obj),
            _fmt(self.f_tilde_obj),
            str(self.iterations),
            "" if self.seed is None else str(self.seed),
        ]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _is(value, kind) -> bool:
    """JSON `value` is a `kind`: bool is not a number, and a float must be finite."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _get(block: dict, key: str, path: str, kind, default=None, required: bool = False):
    field = f"{path}.{key}" if path else key
    value = block.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{field}: required field is missing")
        return default
    if not _is(value, kind):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(f"{field}: expected {expected}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _items(values, field: str, kind) -> list:
    if not isinstance(values, list) or not all(_is(v, kind) for v in values):
        noun = {int: "integers", str: "strings"}.get(kind, "finite numbers")
        raise ConfigError(f"{field}: expected a list of {noun}, got {values!r}")
    return [kind(v) for v in values]


def _list(block: dict, key: str, path: str, kind=float, default=None, required: bool = False) -> list | None:
    values = _get(block, key, path, list, default=default, required=required)
    return None if values is None else _items(values, f"{path}.{key}", kind)


def _distinct(values: list, field: str) -> list:
    """``values``, or a ConfigError naming ``field`` when the list is empty or repeats an entry."""
    if not values:
        raise ConfigError(f"{field}: must not be empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{field}: repeats {list(dict.fromkeys(repeated))}")
    return values


def _choice(value, field: str, enum):
    """A config value as a member of ``enum``, None for a key left out, or a ConfigError naming
    the field and the choices."""
    if value is None:
        return None
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{field}: unknown value {value!r} (choose from {[m.value for m in enum]})") from None


def _given(**kwargs) -> dict:
    """The keyword arguments a config sets; a missing key leaves the library default."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _angle_rad(deg: float, field: str) -> float:
    """A config angle in degrees as radians inside the array's field of view."""
    try:
        return check_angle(math.radians(deg), field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def apply_overrides(config: dict, overrides: Iterable[str]) -> dict:
    """Apply dotted-path `key=value` overrides; values parse as JSON when possible."""
    out = copy.deepcopy(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key.path=value")
        dotted, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not a config section")
        node[parts[-1]] = value
    return out


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}, line {exc.lineno}: {exc.msg}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    return config


def build_system(config: dict) -> SystemConfig:
    block = _get(config, "system", "", dict, required=True)
    groups = _get(block, "ttd_groups", "system", list)
    if groups is not None:
        groups = tuple(tuple(_items(g, "system.ttd_groups", int)) for g in groups)
    try:
        return SystemConfig(
            num_antennas=_get(block, "num_antennas", "system", int, required=True),
            num_ttds=_get(block, "num_ttds", "system", int, required=True),
            carrier_freq=_get(block, "carrier_freq_ghz", "system", float, required=True) * GHZ,
            bandwidth=_get(block, "bandwidth_ghz", "system", float, required=True) * GHZ,
            num_subcarriers=_get(block, "num_subcarriers", "system", int, required=True),
            delay_range=_get(block, "delay_range", "system", float, required=True),
            total_power=_get(block, "total_power", "system", float),
            ttd_groups=groups,
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None


def _target_angles(block: dict, behavior: int) -> list[float]:
    """Radians of a behavior-1 (theta0, delta_theta) or behavior-2 (theta1, theta2) target, in
    the argument order of the target and closed-form builders.  A sweep width is checked only
    through the sweep edges, so it may exceed 90 degrees."""
    if behavior == 2:
        return [_angle_rad(_get(block, key, "target", float, required=True), f"target.{key}")
                for key in ("theta1_deg", "theta2_deg")]
    theta0 = _angle_rad(_get(block, "theta0_deg", "target", float, required=True), "target.theta0_deg")
    width = math.radians(_get(block, "delta_theta_deg", "target", float, required=True))
    try:
        check_sweep(theta0, width, "target.theta0_deg", "target.delta_theta_deg")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return [theta0, width]


def build_target(config: dict, system: SystemConfig, grid: SubcarrierGrid) -> BeamTarget:
    block = _get(config, "target", "", dict, required=True)
    scheme = _given(scheme=_choice(block.get("weight_scheme"), "target.weight_scheme", WeightScheme))
    custom_file = _get(block, "custom_file", "target", str)
    try:
        if custom_file is not None:
            rescale = _given(rescale=_get(block, "rescale", "target", bool))
            return custom_target(system, grid, custom_file, **rescale, **scheme)
        behavior = _get(block, "behavior", "target", int, required=True)
        if behavior in (1, 2):
            angles = _target_angles(block, behavior)
            return (behavior1_target if behavior == 1 else behavior2_target)(system, grid, *angles, **scheme)
        if behavior == 3:
            edges = _list(block, "band_edges", "target", int, required=True)
            angles = [_angle_rad(a, f"target.angles_deg[{i}]")
                      for i, a in enumerate(_list(block, "angles_deg", "target", required=True))]
            return multi_angle_target(system, grid, edges, angles, **scheme)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"target: {exc}") from None
    raise ConfigError(f"target.behavior: unsupported behavior {behavior!r} (use 1, 2, 3 or custom_file)")


_ALGO_KINDS = ("jpta", "heuristic", "hbf")


def algorithm_blocks(config: dict) -> list[dict]:
    blocks = _get(config, "algorithms", "", list)
    if blocks is not None:
        paths = [f"algorithms[{i}]" for i in range(len(blocks))]
    elif config.get("algorithm") is not None:
        blocks, paths = [_get(config, "algorithm", "", dict)], ["algorithm"]
    else:
        raise ConfigError("algorithm: provide an 'algorithm' block or an 'algorithms' list")
    for path, block in zip(paths, blocks):
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: each entry must be an object")
        kinds = [k for k in _ALGO_KINDS if k in block]
        if len(kinds) != 1:
            raise ConfigError(f"{path}: exactly one of {_ALGO_KINDS} per entry, found {kinds or 'none'}")
        _get(block, kinds[0], path, dict)
    return blocks


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


@dataclass
class RunOutput:
    label: str
    report: FitReport
    beamformer: JptaBeamformer | None = None
    hbf: HbfBeamformer | None = None
    beams: np.ndarray | None = None
    wall_time_s: float = 0.0


def run_algorithm(
    config: dict,
    system: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    block: dict,
    base_seed: int = 0,
) -> RunOutput:
    kind = next(k for k in _ALGO_KINDS if k in block)
    body = block[kind] or {}
    if kind == "jpta":
        discrete_ns = _list(body, "discrete_delays_ns", "algorithm.jpta")
        # config key -> (DesignOptions field, value); a key left out keeps the DesignOptions
        # default, and each given field is checked on its own so that an error names its key
        fields = {
            "variant": ("ttd_update", _choice(body.get("variant"), "algorithm.jpta.variant", TtdUpdate)),
            "max_iter": ("max_iter", _get(body, "max_iter", "algorithm.jpta", int)),
            "grid": ("line_search_grid", _get(body, "grid", "algorithm.jpta", int)),
            "discrete_delays_ns": ("discrete_delays",
                                   None if discrete_ns is None else tuple(v * NS for v in discrete_ns)),
            "nonnegative": ("enforce_nonnegative_delays", _get(body, "nonnegative", "algorithm.jpta", bool)),
            "epsilon": ("convergence_epsilon", _get(body, "epsilon", "algorithm.jpta", float)),
            "init_phase_seed": ("init_phase_seed", _get(body, "init_phase_seed", "algorithm.jpta", int)),
        }
        given = {key: pair for key, pair in fields.items() if pair[1] is not None}
        for key, (field, value) in given.items():
            try:
                DesignOptions(**{field: value})
                if key == "discrete_delays_ns":
                    _discrete_set(system, value)
            except ValueError as exc:
                raise ConfigError(f"algorithm.jpta.{key}: {exc}") from None
        options = DesignOptions(**dict(given.values()))
        label = _get(body, "label", "algorithm.jpta", str, default=f"jpta_{options.ttd_update.value}")
        bf, trace = design_jpta(system, grid, target, options)
        report = build_fit_report(system, grid, target, bf, trace, seed=options.init_phase_seed)
        return RunOutput(label=label, report=report, beamformer=bf,
                         beams=effective_beamformer_matrix(system, grid, bf))
    if kind == "heuristic":
        target_block = _get(config, "target", "", dict, required=True)
        behavior = _get(target_block, "behavior", "target", int)
        if behavior not in (1, 2):
            raise ConfigError("algorithm.heuristic: closed-form designs exist only for behaviors 1 and 2")
        angles = _target_angles(target_block, behavior)
        bf = (heuristic_behavior1 if behavior == 1 else heuristic_behavior2)(system, grid, *angles)
        label = _get(body, "label", "algorithm.heuristic", str, default="heuristic")
        report = build_fit_report(system, grid, target, bf)
        return RunOutput(label=label, report=report, beamformer=bf,
                         beams=effective_beamformer_matrix(system, grid, bf))
    # hbf
    structure = (_choice(body.get("structure"), "algorithm.hbf.structure", HbfStructure)
                 or HbfStructure.FULLY_CONNECTED)
    label = _get(body, "label", "algorithm.hbf", str, default=f"hbf_{structure.value}")
    n_rf = _get(body, "n_rf", "algorithm.hbf", int, required=True)
    fit = _given(iters=_get(body, "iters", "algorithm.hbf", int),
                 restarts=_get(body, "restarts", "algorithm.hbf", int))
    seed = _get(body, "seed", "algorithm.hbf", int, default=base_seed)
    matrix = stack_target(target)
    try:
        if structure is HbfStructure.FULLY_CONNECTED:
            hb = pe_altmin_fc(matrix, n_rf, seed=seed, **fit)
        else:
            hb = altmin_pc(matrix, n_rf, seed=seed, **fit)
    except ValueError as exc:
        raise ConfigError(f"algorithm.hbf: {exc}") from None
    beams = hb.unit_effective_vectors()
    report = FitReport(
        f_obj=fit_objective(target, beams),
        f_tilde_obj=hb.residual**2 / system.num_subcarriers,
        per_subcarrier_match=per_subcarrier_match(target, beams),
        convergence_trace=hb.residual_trace,
        seed=hb.seed,
    )
    return RunOutput(label=label, report=report, hbf=hb, beams=beams)


# ---------------------------------------------------------------------------
# file writers and parsers
# ---------------------------------------------------------------------------


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


def parse_beamformer_file(path: str | Path) -> JptaBeamformer:
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
    return JptaBeamformer(
        delays=np.array([t for (t,) in rows["delays_ns"]]) * NS,
        phases=np.array([p for (p,) in rows["phases_rad"]]),
        alpha=np.array([complex(a, b) for a, b in rows["alpha_re_im"]]),
    )


def write_gain_map_csv(
    path: Path,
    grid: SubcarrierGrid,
    gains: np.ndarray,
    theta_grid: np.ndarray,
) -> None:
    """Row-major by subcarrier, then angle; CRLF line ends as csv.writer writes them.

    Every angle is formatted once, into a template of one subcarrier's lines;
    each subcarrier then fills its ``k,f_hz`` prefix and its gains with one
    ``%``.  The bytes are those of ``np.savetxt`` with ``%d`` and ``%.12g``
    fields, without its per-row loop.
    """
    angles = ["%.12g" % deg for deg in np.rad2deg(theta_grid).tolist()]
    template = "".join(f"@,{deg},%.12g,%.12g\r\n" for deg in angles)  # "@" marks the k,f_hz prefix
    with path.open("w", encoding="ascii", newline="") as fh:
        fh.write(",".join(GAIN_MAP_HEADER) + "\r\n")
        for k, f, row in zip(grid.indices.tolist(), grid.frequencies.tolist(), gains, strict=True):
            fields = np.column_stack([row, linear_to_db(row)]).ravel().tolist()
            fh.write(template.replace("@", "%d,%.12g" % (k, f)) % tuple(fields))


def _write_rows(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_fit_report(out_dir: Path, experiment_id: str, output: RunOutput, grid: SubcarrierGrid) -> None:
    report = output.report
    row = [experiment_id, output.label, _fmt(report.f_obj), _fmt(report.f_tilde_obj), report.iterations,
           "" if report.seed is None else report.seed]
    _write_rows(out_dir / "fit_report.csv",
                ["experiment_id", "algorithm", "f_obj", "f_tilde_obj", "iterations", "seed"], [row])
    _write_rows(out_dir / "per_subcarrier_match.csv", ["k", "match"],
                ([int(k), _fmt(match)] for k, match in zip(grid.indices, report.per_subcarrier_match)))
    if report.convergence_trace.size:
        _write_rows(out_dir / "convergence_trace.csv", ["iteration", "objective"],
                    ([i, _fmt(value)] for i, value in enumerate(report.convergence_trace, start=1)))


def _result_rows(records: list[ResultRecord]) -> list[list[str]]:
    return [r.csv_row() for r in sorted(records, key=lambda r: (r.parameter, r.value, r.algorithm))]


def write_records_csv(path: Path, records: list[ResultRecord]) -> None:
    _write_rows(path, RESULT_HEADER, _result_rows(records))


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


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _prepare(config: dict) -> tuple[SystemConfig, SubcarrierGrid, BeamTarget]:
    system = build_system(config)
    grid = build_grid(system)
    target = build_target(config, system, grid)
    return system, grid, target


def _theta_grid_from(config: dict) -> np.ndarray:
    step = _get(_get(config, "output", "", dict, default={}), "theta_step_deg", "output", float, default=1.0)
    if step <= 0.0:
        raise ConfigError("output.theta_step_deg: must be positive")
    return default_theta_grid(step)


def cmd_design(config: dict, out_dir: Path, seed: int) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    blocks = algorithm_blocks(config)
    if len(blocks) != 1:
        raise ConfigError("design: expected exactly one algorithm block")
    wants_map = _get(_get(config, "output", "", dict, default={}), "gain_map", "output", bool, default=False)
    thetas = _theta_grid_from(config) if wants_map else None
    output = run_algorithm(config, system, grid, target, blocks[0], base_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if output.beamformer is not None:
        write_beamformer_file(out_dir / "beamformer.txt", output.beamformer, config)
    if output.hbf is not None:
        for name, matrix in (("analog", output.hbf.analog), ("digital", output.hbf.digital)):
            np.savetxt(out_dir / f"hbf_{name}_re_im.csv", np.column_stack([matrix.real, matrix.imag]),
                       delimiter=",", fmt="%.12g")
    write_fit_report(out_dir, "design", output, grid)
    if wants_map:
        gains = gain_map(system, grid, output.beams, thetas)
        write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


@dataclass(frozen=True)
class Task:
    """One run for `_map`: a point config with its target, one algorithm block, the base seed, and
    whether the result keeps the (K, M) beams, which only a run whose gain map is written needs."""

    config: dict
    block: dict
    seed: int = 0
    keep_beams: bool = False


def _run_task(task: Task) -> RunOutput:
    """The run's label and fit report, its beams when the task keeps them, and its wall time."""
    start = time.perf_counter()
    output = run_algorithm(task.config, *_prepare(task.config), task.block, base_seed=task.seed)
    return RunOutput(output.label, output.report, beams=output.beams if task.keep_beams else None,
                     wall_time_s=time.perf_counter() - start)


def _one_blas_thread() -> None:
    """Pool initializer: a loaded OpenBLAS runs one thread, so that N workers keep to N cores."""
    maps = Path("/proc/self/maps")  # the loaded libraries, on Linux
    paths = {line.split()[-1] for line in maps.read_text(errors="replace").splitlines()} if maps.exists() else ()
    for lib in map(ctypes.CDLL, [p for p in paths if "openblas" in p.rsplit("/", 1)[-1].lower()]):
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _map(tasks: list[Task], workers: int) -> list[RunOutput]:
    """The results of ``tasks`` in order, run serially or by up to ``workers`` pool processes."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_one_blas_thread) as pool:
            return list(pool.map(_run_task, tasks))
    return [_run_task(task) for task in tasks]


# sweep parameter -> (config section it sets, value type).  An algorithm section sets the
# field in every block of that kind, and the sweep skips blocks of other kinds.
_SWEEPS = {
    "num_ttds": ("system", int),
    "delay_range": ("system", float),
    "max_iter": ("jpta", int),
    "n_rf": ("hbf", int),
}


def _sweep_point_config(config: dict, parameter: str, value: float) -> dict:
    point = copy.deepcopy(config)
    section, kind = _SWEEPS[parameter]
    holders = [point] if section == "system" else [b for b in algorithm_blocks(point) if section in b]
    for holder in holders:
        holder[section] = {**(holder[section] or {}), parameter: kind(value)}
    return point


def _sweep_points(config: dict, parameter: str, values, seed: int, prefix: str = "") -> list[tuple]:
    """A (task, experiment-id format of its {label}, parameter, value) per (value, block) the parameter sets."""
    section = _SWEEPS[parameter][0]
    return [(Task(point, block, seed), prefix + "{label}" + f"[{parameter}={value:g}]", parameter, value)
            for value in map(float, values) for point in [_sweep_point_config(config, parameter, value)]
            for block in algorithm_blocks(point) if section == "system" or section in block]


def _records(points: list[tuple], workers: int) -> list[ResultRecord]:
    outputs = _map([task for task, *_ in points], workers)
    return [ResultRecord(experiment_id.format(label=out.label), out.label, parameter, value, out.report.f_obj,
                         out.report.f_tilde_obj, out.report.iterations, out.report.seed, out.wall_time_s)
            for (_, experiment_id, parameter, value), out in zip(points, outputs)]


def _write_results(out_dir: Path, config: dict, start: float, records: list[ResultRecord],
                   notes: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", records)
    write_provenance(out_dir, config, time.perf_counter() - start, notes)


def cmd_sweep(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    start = time.perf_counter()
    sweep = _get(config, "sweep", "", dict, required=True)
    parameter = _get(sweep, "parameter", "sweep", str, required=True)
    if parameter not in _SWEEPS:
        raise ConfigError(f"sweep.parameter: unknown parameter {parameter!r} (choose from {tuple(_SWEEPS)})")
    values = _distinct(_list(sweep, "values", "sweep", required=True), "sweep.values")
    if _SWEEPS[parameter][1] is int and not all(v.is_integer() for v in values):
        raise ConfigError(f"sweep.values: {parameter} takes integers, got {values!r}")
    _prepare(config)  # validate the base config before queuing work
    _write_results(out_dir, config, start, _records(_sweep_points(config, parameter, values, seed), workers), [])
    return EXIT_OK


def _compare_points(config: dict, seed: int) -> tuple[list[tuple], list[str]]:
    """The delay-phase reference, then each structure's chain-count sweep; notes name the counts skipped."""
    m = _prepare(config)[0].num_antennas  # validate the base config before queuing work
    compare = _get(config, "compare", "", dict, default={})
    names = _list(compare, "structures", "compare", str, default=[s.value for s in HbfStructure])
    structures = [_choice(s, "compare.structures", HbfStructure) for s in _distinct(names, "compare.structures")]
    n_rf_values = _distinct(_list(compare, "n_rf_values", "compare", int,
                                  default=[n for n in (1, 2, 4, 8, 16, 32, 64) if n <= m]), "compare.n_rf_values")
    for n in n_rf_values:
        if not any(chains_fit(structure, n, m) for structure in structures):
            raise ConfigError(f"compare.n_rf_values: {n} chains fit none of the structures "
                              f"{[s.value for s in structures]} on {m} antennas")
    fit = _given(iters=_get(compare, "iters", "compare", int), restarts=_get(compare, "restarts", "compare", int))
    for key, value in fit.items():
        if value < 1:
            raise ConfigError(f"compare.{key}: expected a positive integer, got {value}")
    points = [(Task(config, {"jpta": {}}, seed), "jpta[reference]", "n_rf", 1.0)]
    notes = []
    for structure in structures:
        point = copy.deepcopy(config)
        point["algorithms"] = [{"hbf": {"structure": structure.value, **fit}}]
        values = [n for n in n_rf_values if chains_fit(structure, n, m)]
        points += _sweep_points(point, "n_rf", values, seed)
        skipped = [n for n in n_rf_values if n not in values]
        if skipped:
            notes.append(f"compare.n_rf_values: {structure.value} skips {skipped} on {m} antennas")
    return points, notes


def cmd_compare_hbf(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    start = time.perf_counter()
    points, notes = _compare_points(config, seed)
    _write_results(out_dir, config, start, _records(points, workers), notes)
    return EXIT_OK


def cmd_gain_map(config: dict, beamformer_path: Path, out_dir: Path) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    try:
        bf = parse_beamformer_file(beamformer_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"beamformer file: {exc}") from None
    for name, values, count in (("delays_ns", bf.delays, system.num_ttds),
                                ("phases_rad", bf.phases, system.num_antennas),
                                ("alpha_re_im", bf.alpha, system.num_subcarriers)):
        if values.size != count:
            raise ConfigError(f"beamformer file: section [{name}] holds {values.size} values, "
                              f"the config needs {count}")
    beams = effective_beamformer_matrix(system, grid, bf)
    report = build_fit_report(system, grid, target, bf)
    thetas = _theta_grid_from(config)
    gains = gain_map(system, grid, beams, thetas)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)
    write_fit_report(out_dir, "gain-map", RunOutput(label="stored", report=report), grid)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def _preset_config(fast: bool) -> dict:
    system = dict(STOCK_SYSTEM)
    if fast:
        system["num_subcarriers"] = FAST_SUBCARRIERS
    return {"system": system}


def _preset_notes(config: dict, fast: bool) -> list[str]:
    """The fast-mode note names the K of the resolved config, which a --set override may have changed."""
    if fast:
        return [f"fast mode: num_subcarriers reduced to {config['system']['num_subcarriers']}"]
    return []


def _design_maps(config: dict, cases: list[tuple[str, dict]], out_dir: Path, workers: int) -> None:
    """Ideal and line-search gain maps of each (stem, target block) case."""
    theta = default_theta_grid()
    points = [{**copy.deepcopy(config), "target": target_block} for _, target_block in cases]
    outputs = _map([Task(point, {"jpta": {}}, keep_beams=True) for point in points], workers)
    for (stem, _), point, output in zip(cases, points, outputs):
        system, grid, target = _prepare(point)
        for kind, beams in (("ideal", target.unit_vectors), ("jpta", output.beams)):
            write_gain_map_csv(out_dir / f"{kind}_{stem}.csv", grid, gain_map(system, grid, beams, theta), theta)


def _reproduce_fig4(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    _design_maps(config, [("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2)], out_dir, workers)


_JPTA_ALGOS = [{"jpta": {}}, {"jpta": {"variant": "wls"}}, {"heuristic": {}}]


def _preset_sweep(config: dict, parameter: str, cases, seed: int, workers: int) -> list[ResultRecord]:
    """Line-search, wLS and closed-form records over one value list per (name, target) case."""
    points = []
    for name, target_block, values in cases:
        point = {**copy.deepcopy(config), "target": target_block, "algorithms": copy.deepcopy(_JPTA_ALGOS)}
        points += _sweep_points(point, parameter, values, seed, prefix=f"{name}:")
    return _records(points, workers)


def _reproduce_fig5(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    m = config["system"]["num_antennas"]
    counts = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= m and m % n == 0]
    cases = [("behavior1", PRESET_BEHAVIOR1, counts), ("behavior2", PRESET_BEHAVIOR2, counts)]
    records = _preset_sweep(config, "num_ttds", cases, seed, workers)
    write_records_csv(out_dir / "f_obj_vs_num_ttds.csv", records)


def _reproduce_fig6(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    m = config["system"]["num_antennas"]
    cases = [
        ("behavior1", PRESET_BEHAVIOR1,
         [2, 4, 8, 12, 18, m * math.sin(math.pi / 8), 32, m * math.sin(math.pi / 4), 52, 64]),
        ("behavior2", PRESET_BEHAVIOR2, [0.5, 1, 2, 3, 4, 6, 8, 16, 32, 64]),
    ]
    records = _preset_sweep(config, "delay_range", cases, seed, workers)
    write_records_csv(out_dir / "f_obj_vs_delay_range.csv", records)


def _convergence_tasks(config: dict, behavior: int, draws: int, iters: int, seed: int) -> list[Task]:
    """Designs of ``iters`` iterations at random delay ranges, line counts and angles, whose trace
    ratios F(i)/F(iters) fig7 summarizes per iteration."""
    rng = np.random.default_rng(seed)
    divisors = [n for n in (1, 2, 4, 8, 16, 32, 64) if config["system"]["num_antennas"] % n == 0]
    tasks = []
    for _ in range(draws):
        point = copy.deepcopy(config)
        point["system"]["num_ttds"] = int(rng.choice(divisors))
        point["system"]["delay_range"] = float(rng.uniform(4.0, 64.0))
        if behavior == 1:
            theta0 = float(rng.uniform(-np.pi / 3, np.pi / 3))
            width = float(rng.uniform(np.pi / 36, min(np.pi / 2, np.pi - 2 * abs(theta0))))
            point["target"] = {
                "behavior": 1,
                "theta0_deg": math.degrees(theta0),
                "delta_theta_deg": math.degrees(width),
            }
        else:
            point["target"] = {
                "behavior": 2,
                "theta1_deg": math.degrees(float(rng.uniform(-np.pi / 3, np.pi / 3))),
                "theta2_deg": math.degrees(float(rng.uniform(-np.pi / 3, np.pi / 3))),
            }
        tasks.append(Task(point, {"jpta": {"max_iter": iters}}))
    return tasks


def _reproduce_fig7(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    draws, iters, behaviors = 25, 30, (1, 2)
    tasks = [task for b in behaviors for task in _convergence_tasks(config, b, draws, iters, seed + b)]
    traces = np.array([output.report.convergence_trace for output in _map(tasks, workers)])
    rows = []
    for behavior, ratios in zip(behaviors, np.split(traces / traces[:, -1:], len(behaviors))):
        stats = np.column_stack([ratios.mean(axis=0), np.percentile(ratios, [10, 90], axis=0).T])
        rows += [[f"behavior{behavior}", i, *map(_fmt, row)] for i, row in enumerate(stats, start=1)]
    _write_rows(out_dir / "convergence_ratio.csv",
                ["behavior", "iteration", "mean_ratio", "p10_ratio", "p90_ratio"], rows)


def _reproduce_fig8(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    start = time.perf_counter()
    m = config["system"]["num_antennas"]
    compare = {"n_rf_values": [n for n in (1, 2, 4, 8, 12, 16, 22, 32, 64) if n <= m]}
    points = {name: {**copy.deepcopy(config), "target": target_block, "compare": compare}
              for name, target_block in (("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2))}
    plans = {name: _compare_points(point, seed) for name, point in points.items()}
    records = _records([p for runs, _ in plans.values() for p in runs], workers)
    rows = []
    for name, (runs, notes) in plans.items():
        part, records = records[:len(runs)], records[len(runs):]
        _write_results(out_dir / name, points[name], start, part, notes)
        rows += [[name, *row] for row in _result_rows(part)]
    _write_rows(out_dir / "f_obj_vs_n_rf.csv", ["behavior", *RESULT_HEADER], rows)


def _reproduce_fig9(config: dict, out_dir: Path, seed: int, workers: int) -> list[str]:
    """Hybrid gain maps at chain counts for the stock 64 antennas; notes name each map that does not fit."""
    theta = default_theta_grid()
    system = build_system(config)
    grid = build_grid(system)
    maps, notes = [], []
    for name, target_block, structure, n_rf in (
        ("behavior1", PRESET_BEHAVIOR1, "fc", 22),
        ("behavior2", PRESET_BEHAVIOR2, "fc", 2),
        ("behavior1", PRESET_BEHAVIOR1, "pc", 32),
        ("behavior2", PRESET_BEHAVIOR2, "pc", 32),
    ):
        stem = f"hbf_{structure}_{n_rf}rf_{name}"
        if not chains_fit(structure, n_rf, system.num_antennas):
            notes.append(f"{stem}: skipped, {n_rf} {structure} chains do not fit {system.num_antennas} antennas")
            continue
        block = {"hbf": {"structure": structure, "n_rf": n_rf}}
        maps.append((stem, Task({**copy.deepcopy(config), "target": target_block}, block, seed, keep_beams=True)))
    for (stem, _), output in zip(maps, _map([task for _, task in maps], workers)):
        write_gain_map_csv(out_dir / f"{stem}.csv", grid, gain_map(system, grid, output.beams, theta), theta)
    return notes


def _reproduce_fig11(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    k = config["system"]["num_subcarriers"]
    lo = -(k // 2)
    edges = [lo + k // 3, lo + 2 * (k // 3)]
    target_block = {"behavior": 3, "band_edges": edges, "angles_deg": [-45.0, 0.0, 30.0]}
    _design_maps(config, [("behavior3", target_block)], out_dir, workers)


_FIGURES = {
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig7": _reproduce_fig7,
    "fig8": _reproduce_fig8,
    "fig9": _reproduce_fig9,
    "fig11": _reproduce_fig11,
}


def cmd_reproduce(figure: str, out_dir: Path, fast: bool, seed: int, workers: int, overrides: list[str]) -> int:
    if figure not in _FIGURES:
        raise ConfigError(f"figure: unknown figure id {figure!r} (choose from {sorted(_FIGURES)})")
    start = time.perf_counter()
    config = apply_overrides(_preset_config(fast), overrides)
    for item in overrides:
        key = item.partition("=")[0]
        if key.split(".")[0] != "system":
            raise ConfigError(f"{key}: reproduce presets take only system.* overrides")
    build_system(config)  # validate early
    out_dir.mkdir(parents=True, exist_ok=True)
    notes = _FIGURES[figure](config, out_dir, seed, workers) or []  # fig9 notes the maps it skips
    write_provenance(out_dir, config, time.perf_counter() - start, _preset_notes(config, fast) + notes)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpta",
        description="Design and evaluate frequency-dependent analog beamformers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config field (repeatable)")

    p_design = sub.add_parser("design", help="run one design and write its outputs")
    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_cmp = sub.add_parser("compare-hbf", help="chain-count sweep of the hybrid baselines")
    for p in (p_design, p_sweep, p_cmp):
        add_common(p)
        p.add_argument("--seed", type=int, default=0, help="base seed for randomized algorithms")
    p_sweep.add_argument("--workers", type=_positive_int, default=1, help="parallel sweep workers")
    p_cmp.add_argument("--workers", type=_positive_int, default=1, help="parallel hybrid-fit workers")

    p_rep = sub.add_parser("reproduce", help="run a stock figure preset")
    p_rep.add_argument("figure", help="figure id: fig4 fig5 fig6 fig7 fig8 fig9 fig11")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--fast", action="store_true",
                       help=f"use {FAST_SUBCARRIERS} subcarriers instead of the full grid")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--workers", type=_positive_int, default=1,
                       help="processes that run the preset's designs and fits")
    p_rep.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE")

    p_map = sub.add_parser("gain-map", help="gain map of a stored beamformer file")
    add_common(p_map)
    p_map.add_argument("--beamformer", required=True, help="beamformer file from a design run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, Path(args.out), args.fast, args.seed,
                                 args.workers, args.overrides)
        config = apply_overrides(load_config_file(args.config), args.overrides)
        if args.command == "design":
            return cmd_design(config, Path(args.out), args.seed)
        if args.command == "sweep":
            return cmd_sweep(config, Path(args.out), args.seed, args.workers)
        if args.command == "compare-hbf":
            return cmd_compare_hbf(config, Path(args.out), args.seed, args.workers)
        if args.command == "gain-map":
            return cmd_gain_map(config, Path(args.beamformer), Path(args.out))
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
