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
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

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
from .hbf import HbfBeamformer, HbfStructure, _check_fit, altmin_pc, chains_fit, pe_altmin_fc, stack_target
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

# The keys of each config section and their kinds: a type, [type] for a list of it, or an Enum.
# "" is the top level, "algorithm" one algorithm entry, and "jpta", "heuristic" and "hbf" the
# entry bodies.  `_read` is the only reader, and it rejects every key not listed here.
_SCHEMA = {
    "": {"system": dict, "target": dict, "algorithm": dict, "algorithms": list, "sweep": dict,
         "compare": dict, "output": dict},
    "system": {"num_antennas": int, "num_ttds": int, "carrier_freq_ghz": float, "bandwidth_ghz": float,
               "num_subcarriers": int, "delay_range": float, "total_power": float, "ttd_groups": list},
    "target": {"behavior": int, "theta0_deg": float, "delta_theta_deg": float, "theta1_deg": float,
               "theta2_deg": float, "band_edges": [int], "angles_deg": [float], "weight_scheme": WeightScheme,
               "custom_file": str, "rescale": bool},
    "algorithm": {"jpta": dict, "heuristic": dict, "hbf": dict},
    "jpta": {"variant": TtdUpdate, "max_iter": int, "grid": int, "discrete_delays_ns": [float],
             "nonnegative": bool, "epsilon": float, "init_phase_seed": int, "label": str},
    "heuristic": {"label": str},
    "hbf": {"structure": HbfStructure, "n_rf": int, "iters": int, "restarts": int, "seed": int, "label": str},
    "sweep": {"parameter": str, "values": [float]},
    "compare": {"n_rf_values": [int], "structures": [str], "iters": int, "restarts": int},
    "output": {"gain_map": bool, "theta_step_deg": float},
}


def _is(value, kind) -> bool:
    """JSON `value` is a `kind`: bool is not a number, and a float must be finite."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _value(value, field: str, kind):
    """``value`` as a ``kind`` of `_SCHEMA`, or a ConfigError naming ``field``."""
    if isinstance(kind, list):
        return _items(_value(value, field, list), field, kind[0])
    if issubclass(kind, Enum):
        return _choice(value, field, kind)
    if not _is(value, kind):
        expected = "a finite number" if kind is float else kind.__name__
        raise ConfigError(f"{field}: expected {expected}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _items(values, field: str, kind) -> list:
    if not isinstance(values, list) or not all(_is(v, kind) for v in values):
        noun = {int: "integers", str: "strings"}.get(kind, "finite numbers")
        raise ConfigError(f"{field}: expected a list of {noun}, got {values!r}")
    return [kind(v) for v in values]


class _Fields(dict):
    """The checked values of the keys a config section sets, whose ``prefix`` is the section's path and
    a dot; indexing a key it leaves out is a ConfigError, and ``get`` gives a default instead."""

    def __missing__(self, key: str):
        raise ConfigError(f"{self.prefix}{key}: required field is missing")


def _read(block: dict, section: str, path: str) -> _Fields:
    """The keys ``block`` sets, each checked against ``_SCHEMA[section]``; ``null`` counts as left out.
    A key the section does not hold is a ConfigError naming its full ``path`` and the closest key."""
    kinds, fields = _SCHEMA[section], _Fields()
    fields.prefix = f"{path}." if path else ""
    for key, value in block.items():
        if key not in kinds:
            import difflib  # only a rejected config pays for the import

            near = difflib.get_close_matches(key, kinds, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ConfigError(f"{fields.prefix}{key}: unknown key{hint}")
        if value is not None:
            fields[key] = _value(value, fields.prefix + key, kinds[key])
    return fields


def _section(config: dict, name: str, required: bool = True) -> _Fields:
    """Top-level section ``name`` of ``config``, read with the top level; an optional one left out is empty."""
    top = _read(config, "", "")
    return _read(top[name] if required else top.get(name, {}), name, name)


def _distinct(values: list, field: str) -> list:
    """``values``, or a ConfigError naming ``field`` when the list is empty or repeats an entry."""
    if not values:
        raise ConfigError(f"{field}: must not be empty")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{field}: repeats {list(dict.fromkeys(repeated))}")
    return values


def _choice(value, field: str, enum):
    """A config value as a member of ``enum``, or a ConfigError naming the field and the choices."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{field}: unknown value {value!r} (choose from {[m.value for m in enum]})") from None


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
    block = _section(config, "system")
    groups = block.get("ttd_groups")
    fields = dict(  # every field is read first, so that a missing one is not reported as a SystemConfig error
        num_antennas=block["num_antennas"],
        num_ttds=block["num_ttds"],
        carrier_freq=block["carrier_freq_ghz"] * GHZ,
        bandwidth=block["bandwidth_ghz"] * GHZ,
        num_subcarriers=block["num_subcarriers"],
        delay_range=block["delay_range"],
        total_power=block.get("total_power"),
        ttd_groups=None if groups is None else tuple(tuple(_items(g, "system.ttd_groups", int)) for g in groups),
    )
    try:
        return SystemConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None


def _target_angles(block: _Fields, behavior: int) -> list[float]:
    """Radians of a behavior-1 (theta0, delta_theta) or behavior-2 (theta1, theta2) target, in
    the argument order of the target and closed-form builders.  A sweep width is checked only
    through the sweep edges, so it may exceed 90 degrees."""
    if behavior == 2:
        return [_angle_rad(block[key], f"target.{key}") for key in ("theta1_deg", "theta2_deg")]
    theta0 = _angle_rad(block["theta0_deg"], "target.theta0_deg")
    width = math.radians(block["delta_theta_deg"])
    try:
        check_sweep(theta0, width, "target.theta0_deg", "target.delta_theta_deg")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return [theta0, width]


def build_target(config: dict, system: SystemConfig, grid: SubcarrierGrid) -> BeamTarget:
    block = _section(config, "target")
    scheme = {"scheme": block["weight_scheme"]} if "weight_scheme" in block else {}
    try:
        if "custom_file" in block:
            rescale = {"rescale": block["rescale"]} if "rescale" in block else {}
            return custom_target(system, grid, block["custom_file"], **rescale, **scheme)
        behavior = block["behavior"]
        if behavior in (1, 2):
            angles = _target_angles(block, behavior)
            return (behavior1_target if behavior == 1 else behavior2_target)(system, grid, *angles, **scheme)
        if behavior == 3:
            angles = [_angle_rad(a, f"target.angles_deg[{i}]") for i, a in enumerate(block["angles_deg"])]
            return multi_angle_target(system, grid, block["band_edges"], angles, **scheme)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"target: {exc}") from None
    raise ConfigError(f"target.behavior: unsupported behavior {behavior!r} (use 1, 2, 3 or custom_file)")


def _entries(config: dict) -> Iterator[tuple[str, str, dict]]:
    """The path, kind and entry of each of the config's algorithm entries, whose keys are checked."""
    top = _read(config, "", "")
    if "algorithm" in top and "algorithms" in top:
        raise ConfigError("algorithm: give an 'algorithm' block or an 'algorithms' list, not both")
    if "algorithms" in top:
        blocks, paths = top["algorithms"], [f"algorithms[{i}]" for i in range(len(top["algorithms"]))]
        if not blocks:
            raise ConfigError("algorithms: must not be empty")
    elif "algorithm" in top:
        blocks, paths = [top["algorithm"]], ["algorithm"]
    else:
        raise ConfigError("algorithm: provide an 'algorithm' block or an 'algorithms' list")
    for path, block in zip(paths, blocks):
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: each entry must be an object")
        _read(block, "algorithm", path)
        kinds = [k for k in _SCHEMA["algorithm"] if k in block]
        if len(kinds) != 1:
            raise ConfigError(f"{path}: exactly one of {tuple(_SCHEMA['algorithm'])} per entry, "
                              f"found {kinds or 'none'}")
        yield f"{path}.{kinds[0]}", kinds[0], block


def algorithms(config: dict, system: SystemConfig) -> list[tuple]:
    """Every algorithm entry of ``config`` checked whole, as the (kind, label, spec) `run_algorithm` takes: the
    DesignOptions of jpta, the (behavior, angles) of the closed form, or the (structure, fit kwargs) of hbf."""
    parsed = []
    for path, kind, block in _entries(config):
        body = _read(block[kind] or {}, kind, path)
        if kind == "jpta":
            # each key the body sets is checked on its own, so that an error names it; a key left out
            # keeps the DesignOptions default
            given = {}
            for key, field in (("variant", "ttd_update"), ("max_iter", "max_iter"), ("grid", "line_search_grid"),
                               ("discrete_delays_ns", "discrete_delays"),
                               ("nonnegative", "enforce_nonnegative_delays"), ("epsilon", "convergence_epsilon"),
                               ("init_phase_seed", "init_phase_seed")):
                if key in body:
                    value = tuple(v * NS for v in body[key]) if key == "discrete_delays_ns" else body[key]
                    try:
                        DesignOptions(**{field: value})
                        if key == "discrete_delays_ns":
                            _discrete_set(system, value)
                    except ValueError as exc:
                        raise ConfigError(f"{path}.{key}: {exc}") from None
                    given[field] = value
            options = DesignOptions(**given)
            parsed.append((kind, body.get("label", f"jpta_{options.ttd_update.value}"), options))
        elif kind == "heuristic":
            target = _section(config, "target")
            behavior = target.get("behavior")
            if behavior not in (1, 2):
                raise ConfigError(f"{path}: closed-form designs exist only for behaviors 1 and 2")
            parsed.append((kind, body.get("label", "heuristic"), (behavior, _target_angles(target, behavior))))
        else:
            structure = body.get("structure", HbfStructure.FULLY_CONNECTED)
            # n_rf is read outside the try, so that a missing one is not reported as a fit error
            fit = {"n_rf": body["n_rf"], **{key: body[key] for key in ("iters", "restarts", "seed") if key in body}}
            try:
                _check_fit(structure, system.num_antennas, **fit)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            parsed.append((kind, body.get("label", f"hbf_{structure.value}"), (structure, fit)))
    return parsed


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


def run_algorithm(system: SystemConfig, grid: SubcarrierGrid, target: BeamTarget, algorithm: tuple,
                  base_seed: int = 0) -> RunOutput:
    """Run one (kind, label, spec) entry of `algorithms`; an hbf fit whose entry sets no seed takes ``base_seed``."""
    kind, label, spec = algorithm
    if kind == "hbf":
        structure, fit = spec
        hb = (pe_altmin_fc if structure is HbfStructure.FULLY_CONNECTED else altmin_pc)(
            stack_target(target), **{"seed": base_seed, **fit})
        beams = hb.unit_effective_vectors()
        report = FitReport(f_obj=fit_objective(target, beams), f_tilde_obj=hb.residual**2 / system.num_subcarriers,
                           per_subcarrier_match=per_subcarrier_match(target, beams),
                           convergence_trace=hb.residual_trace, seed=hb.seed)
        return RunOutput(label=label, report=report, hbf=hb, beams=beams)
    if kind == "jpta":
        bf, trace = design_jpta(system, grid, target, spec)
        seed = spec.init_phase_seed
    else:
        behavior, angles = spec
        bf = (heuristic_behavior1 if behavior == 1 else heuristic_behavior2)(system, grid, *angles)
        trace = seed = None
    beams = effective_beamformer_matrix(system, grid, bf)
    report = build_fit_report(system, grid, target, bf, trace, seed=seed, beams=beams)
    return RunOutput(label=label, report=report, beamformer=bf, beams=beams)


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


def _result_rows(points: list[tuple], outputs: list[RunOutput]) -> list[list[str]]:
    """A results row per point of `_sweep_points` and its run's output, sorted by parameter, value
    and then algorithm."""
    runs = sorted(zip(points, outputs), key=lambda run: (run[0][2], run[0][3], run[1].label))
    return [[experiment_id.format(label=out.label), out.label, parameter, _fmt(value), _fmt(out.report.f_obj),
             _fmt(out.report.f_tilde_obj), str(out.report.iterations),
             "" if out.report.seed is None else str(out.report.seed)]
            for (_, experiment_id, parameter, value), out in runs]


def write_records_csv(path: Path, rows: list[list[str]]) -> None:
    _write_rows(path, RESULT_HEADER, rows)


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
    step = _section(config, "output", required=False).get("theta_step_deg", 1.0)
    if step <= 0.0:
        raise ConfigError("output.theta_step_deg: must be positive")
    return default_theta_grid(step)


def cmd_design(config: dict, out_dir: Path, seed: int) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    entries = algorithms(config, system)
    if len(entries) != 1:
        raise ConfigError("design: expected exactly one algorithm block")
    wants_map = _section(config, "output", required=False).get("gain_map", False)
    thetas = _theta_grid_from(config) if wants_map else None
    output = run_algorithm(system, grid, target, entries[0], base_seed=seed)
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
    """One run for `_map`: a point config with its target, an entry `algorithms` parsed, the base seed, and
    whether the result keeps the (K, M) beams, which only a run whose gain map is written needs."""

    config: dict
    algorithm: tuple
    seed: int = 0
    keep_beams: bool = False


def _tasks(config: dict, seed: int = 0, keep_beams: bool = False) -> list[Task]:
    """A task per algorithm entry of ``config``, every entry parsed before any task runs."""
    return [Task(config, entry, seed, keep_beams) for entry in algorithms(config, build_system(config))]


# the last target a task of the current `_map` call built, by its target block and the system
# fields a target reads (every field but num_ttds, delay_range and ttd_groups); one slot, so
# that a run of tasks sharing a target builds it once and at most one target is kept
_TARGETS: dict[tuple, BeamTarget] = {}


def _run_task(task: Task) -> RunOutput:
    """The run's label and fit report, its beams when the task keeps them, and its wall time."""
    start = time.perf_counter()
    system = build_system(task.config)
    grid = build_grid(system)
    key = (json.dumps(task.config.get("target"), sort_keys=True), system.num_antennas, system.carrier_freq,
           system.bandwidth, system.num_subcarriers, system.total_power)
    if key not in _TARGETS:
        _TARGETS.clear()
        _TARGETS[key] = build_target(task.config, system, grid)
    output = run_algorithm(system, grid, _TARGETS[key], task.algorithm, base_seed=task.seed)
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
    _TARGETS.clear()  # pool workers start from this empty memo
    try:
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_one_blas_thread) as pool:
                return list(pool.map(_run_task, tasks))
        return [_run_task(task) for task in tasks]
    finally:
        _TARGETS.clear()


# sweep parameter -> the config section it sets, whose schema gives its kind.  An algorithm
# section sets the field in every entry of that kind, and the sweep skips entries of other kinds.
_SWEEPS = {"num_ttds": "system", "delay_range": "system", "max_iter": "jpta", "n_rf": "hbf"}


def _sweep_points(config: dict, parameter: str, values, seed: int, prefix: str = "") -> list[tuple]:
    """A (task, experiment-id format of its {label}, parameter, value) per (value, entry) the parameter sets."""
    section, points = _SWEEPS[parameter], []
    for value in map(float, values):
        point = copy.deepcopy(config)
        holders = [point] if section == "system" else [entry for _, kind, entry in _entries(point) if kind == section]
        for holder in holders:
            holder[section] = {**(holder[section] or {}), parameter: _SCHEMA[section][parameter](value)}
        points += [(task, prefix + "{label}" + f"[{parameter}={value:g}]", parameter, value)
                   for task in _tasks(point, seed) if section in ("system", task.algorithm[0])]
    return points


def _records(points: list[tuple], workers: int) -> list[list[str]]:
    return _result_rows(points, _map([task for task, *_ in points], workers))


def _write_results(out_dir: Path, config: dict, start: float, rows: list[list[str]], notes: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", rows)
    write_provenance(out_dir, config, time.perf_counter() - start, notes)


def cmd_sweep(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    start = time.perf_counter()
    sweep = _section(config, "sweep")
    parameter = sweep["parameter"]
    if parameter not in _SWEEPS:
        raise ConfigError(f"sweep.parameter: unknown parameter {parameter!r} (choose from {tuple(_SWEEPS)})")
    section = _SWEEPS[parameter]
    values = _distinct(sweep["values"], "sweep.values")
    if _SCHEMA[section][parameter] is int and not all(v.is_integer() for v in values):
        raise ConfigError(f"sweep.values: {parameter} takes integers, got {values!r}")
    _prepare(config)  # validate the base config before queuing work
    points = _sweep_points(config, parameter, values, seed)
    if not points:
        raise ConfigError(f"sweep.parameter: {parameter} sets no algorithm block; it sets only {section!r} blocks")
    _write_results(out_dir, config, start, _records(points, workers), [])
    return EXIT_OK


def _compare_points(config: dict, seed: int) -> tuple[list[tuple], list[str]]:
    """The delay-phase reference, then each structure's chain-count sweep; notes name the counts skipped."""
    system = _prepare(config)[0]  # validate the base config before queuing work
    if "algorithm" in config or "algorithms" in config:
        algorithms(config, system)  # checked whole, though the reference and the chain sweeps replace them
    m = system.num_antennas
    compare = _section(config, "compare", required=False)
    names = compare.get("structures", [s.value for s in HbfStructure])
    structures = [_choice(s, "compare.structures", HbfStructure) for s in _distinct(names, "compare.structures")]
    n_rf_values = _distinct(compare.get("n_rf_values", [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= m]),
                            "compare.n_rf_values")
    for n in n_rf_values:
        if not any(chains_fit(structure, n, m) for structure in structures):
            raise ConfigError(f"compare.n_rf_values: {n} chains fit none of the structures "
                              f"{[s.value for s in structures]} on {m} antennas")
    fit = {key: compare[key] for key in ("iters", "restarts") if key in compare}
    for key, value in fit.items():
        if value < 1:
            raise ConfigError(f"compare.{key}: expected a positive integer, got {value}")
    base = {key: value for key, value in config.items() if key not in ("algorithm", "algorithms")}
    points = [(task, "jpta[reference]", "n_rf", 1.0) for task in _tasks({**base, "algorithm": {"jpta": {}}}, seed)]
    notes = []
    for structure in structures:  # each chain sweep replaces the config's algorithms
        point = {**base, "algorithms": [{"hbf": {"structure": structure.value, **fit}}]}  # copied per value
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
    report = build_fit_report(system, grid, target, bf, beams=beams)
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
    points = [{**copy.deepcopy(config), "target": target_block, "algorithm": {"jpta": {}}} for _, target_block in cases]
    outputs = _map([task for point in points for task in _tasks(point, keep_beams=True)], workers)
    for (stem, _), point, output in zip(cases, points, outputs):
        system, grid, target = _prepare(point)
        for kind, beams in (("ideal", target.unit_vectors), ("jpta", output.beams)):
            write_gain_map_csv(out_dir / f"{kind}_{stem}.csv", grid, gain_map(system, grid, beams, theta), theta)


def _reproduce_fig4(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    _design_maps(config, [("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2)], out_dir, workers)


_JPTA_ALGOS = [{"jpta": {}}, {"jpta": {"variant": "wls"}}, {"heuristic": {}}]


def _preset_sweep(config: dict, parameter: str, cases, seed: int, workers: int) -> list[list[str]]:
    """Line-search, wLS and closed-form results rows over one value list per (name, target) case."""
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
        point = {**copy.deepcopy(config), "algorithm": {"jpta": {"max_iter": iters}}}
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
        tasks += _tasks(point)
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
    outputs = _map([task for runs, _ in plans.values() for task, *_ in runs], workers)
    rows = []
    for name, (runs, notes) in plans.items():  # each behavior's rows sort on their own
        part, outputs = _result_rows(runs, outputs[:len(runs)]), outputs[len(runs):]
        _write_results(out_dir / name, points[name], start, part, notes)
        rows += [[name, *row] for row in part]
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
        point = {**copy.deepcopy(config), "target": target_block, "algorithm": block}
        maps += [(stem, task) for task in _tasks(point, seed, keep_beams=True)]
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
        if getattr(args, "seed", 0) < 0:  # numpy generators take no negative seed
            raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, Path(args.out), args.fast, args.seed,
                                 args.workers, args.overrides)
        config = apply_overrides(load_config_file(args.config), args.overrides)
        for name in ("sweep", "compare", "output"):  # checked even where the command does not use them
            _section(config, name, required=False)
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
