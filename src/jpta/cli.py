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
    SteeringAngle,
    SubcarrierGrid,
    SystemConfig,
    build_grid,
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
from .design import DesignOptions, JptaBeamformer, TtdUpdate, design_jpta
from .hbf import HbfBeamformer, altmin_pc, pe_altmin_fc, stack_target
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
    """One aggregated run result; wall time is reported via run_meta.json only."""

    experiment_id: str
    algorithm: str
    parameter: str
    value: float
    f_obj: float
    f_tilde_obj: float | None
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
            "" if self.f_tilde_obj is None else _fmt(self.f_tilde_obj),
            str(self.iterations),
            "" if self.seed is None else str(self.seed),
        ]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def _get(block: dict, key: str, path: str, kind, default=None, required: bool = False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = block[key]
    try:
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            if not math.isfinite(value):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
            return float(value)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError
            return int(value)
        if kind in (bool, str, list, dict):
            if not isinstance(value, kind):
                raise TypeError
            return value
    except TypeError:
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {value!r}") from None
    raise AssertionError(f"unhandled kind {kind}")


def _angle_rad(block: dict, key: str, path: str, required: bool = True) -> float | None:
    deg = _get(block, key, path, float, required=required)
    if deg is None:
        return None
    try:
        return SteeringAngle(math.radians(deg)).theta
    except ValueError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


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
    groups = block.get("ttd_groups")
    try:
        return SystemConfig(
            num_antennas=_get(block, "num_antennas", "system", int, required=True),
            num_ttds=_get(block, "num_ttds", "system", int, required=True),
            carrier_freq=_get(block, "carrier_freq_ghz", "system", float, required=True) * GHZ,
            bandwidth=_get(block, "bandwidth_ghz", "system", float, required=True) * GHZ,
            num_subcarriers=_get(block, "num_subcarriers", "system", int, required=True),
            delay_range=_get(block, "delay_range", "system", float, required=True),
            total_power=_get(block, "total_power", "system", float),
            ttd_groups=None if groups is None else tuple(tuple(g) for g in groups),
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None


def build_target(config: dict, system: SystemConfig, grid: SubcarrierGrid) -> BeamTarget:
    block = _get(config, "target", "", dict, required=True)
    scheme_name = _get(block, "weight_scheme", "target", str, default="uniform")
    try:
        scheme = WeightScheme(scheme_name)
    except ValueError:
        raise ConfigError(
            f"target.weight_scheme: unknown scheme {scheme_name!r} "
            f"(choose from {[s.value for s in WeightScheme]})"
        ) from None
    custom_file = _get(block, "custom_file", "target", str)
    try:
        if custom_file is not None:
            return custom_target(
                system,
                grid,
                custom_file,
                rescale=_get(block, "rescale", "target", bool, default=False),
                scheme=scheme,
            )
        behavior = _get(block, "behavior", "target", int, required=True)
        if behavior == 1:
            return behavior1_target(
                system,
                grid,
                _angle_rad(block, "theta0_deg", "target"),
                _angle_rad(block, "delta_theta_deg", "target"),
                scheme,
            )
        if behavior == 2:
            return behavior2_target(
                system,
                grid,
                _angle_rad(block, "theta1_deg", "target"),
                _angle_rad(block, "theta2_deg", "target"),
                scheme,
            )
        if behavior == 3:
            edges = _get(block, "band_edges", "target", list, required=True)
            angles_deg = _get(block, "angles_deg", "target", list, required=True)
            angles = [
                SteeringAngle(math.radians(float(a))).theta for a in angles_deg
            ]
            return multi_angle_target(system, grid, [int(e) for e in edges], angles, scheme)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"target: {exc}") from None
    raise ConfigError(f"target.behavior: unsupported behavior {behavior!r} (use 1, 2, 3 or custom_file)")


_ALGO_KINDS = ("jpta", "heuristic", "hbf")


def algorithm_blocks(config: dict) -> list[dict]:
    if "algorithms" in config and config["algorithms"] is not None:
        blocks = _get(config, "algorithms", "", list, required=True)
    elif "algorithm" in config and config["algorithm"] is not None:
        blocks = [_get(config, "algorithm", "", dict, required=True)]
    else:
        raise ConfigError("algorithm: provide an 'algorithm' block or an 'algorithms' list")
    out = []
    for i, block in enumerate(blocks):
        if not isinstance(block, dict):
            raise ConfigError(f"algorithms[{i}]: each entry must be an object")
        kinds = [k for k in _ALGO_KINDS if k in block]
        if len(kinds) != 1:
            raise ConfigError(
                f"algorithms[{i}]: exactly one of {_ALGO_KINDS} per entry, found {kinds or 'none'}"
            )
        out.append(block)
    return out


def _algo_label(block: dict) -> str:
    kind = next(k for k in _ALGO_KINDS if k in block)
    body = block[kind] or {}
    if "label" in body:
        return str(body["label"])
    if kind == "jpta":
        return f"jpta_{body.get('variant', 'line_search')}"
    if kind == "hbf":
        return f"hbf_{body.get('structure', 'fc')}"
    return "heuristic"


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


def run_algorithm(
    config: dict,
    system: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    block: dict,
    base_seed: int = 0,
) -> RunOutput:
    kind = next(k for k in _ALGO_KINDS if k in block)
    body = dict(block[kind] or {})
    label = _algo_label(block)
    if kind == "jpta":
        variant = _get(body, "variant", "algorithm.jpta", str, default="line_search")
        try:
            ttd_update = TtdUpdate(variant)
        except ValueError:
            raise ConfigError(
                f"algorithm.jpta.variant: unknown variant {variant!r} "
                f"(choose from {[v.value for v in TtdUpdate]})"
            ) from None
        discrete_ns = _get(body, "discrete_delays_ns", "algorithm.jpta", list)
        seed = _get(body, "init_phase_seed", "algorithm.jpta", int)
        options = DesignOptions(
            ttd_update=ttd_update,
            max_iter=_get(body, "max_iter", "algorithm.jpta", int, default=10),
            line_search_grid=_get(body, "grid", "algorithm.jpta", int, default=4096),
            discrete_delays=None if discrete_ns is None else tuple(float(v) * NS for v in discrete_ns),
            enforce_nonnegative_delays=_get(body, "nonnegative", "algorithm.jpta", bool, default=True),
            convergence_epsilon=_get(body, "epsilon", "algorithm.jpta", float),
            init_phase_seed=seed,
        )
        bf, trace = design_jpta(system, grid, target, options)
        report = build_fit_report(
            system, grid, target, bf, trace,
            algorithm=label, seed=seed, max_iter=options.max_iter, variant=ttd_update.value,
        )
        return RunOutput(label=label, report=report, beamformer=bf,
                         beams=effective_beamformer_matrix(system, grid, bf))
    if kind == "heuristic":
        tgt_block = _get(config, "target", "", dict, required=True)
        behavior = _get(tgt_block, "behavior", "target", int)
        if behavior == 1:
            bf = heuristic_behavior1(
                system, grid,
                _angle_rad(tgt_block, "theta0_deg", "target"),
                _angle_rad(tgt_block, "delta_theta_deg", "target"),
            )
        elif behavior == 2:
            bf = heuristic_behavior2(
                system, grid,
                _angle_rad(tgt_block, "theta1_deg", "target"),
                _angle_rad(tgt_block, "theta2_deg", "target"),
            )
        else:
            raise ConfigError("algorithm.heuristic: closed-form designs exist only for behaviors 1 and 2")
        report = build_fit_report(system, grid, target, bf, None, algorithm=label)
        return RunOutput(label=label, report=report, beamformer=bf,
                         beams=effective_beamformer_matrix(system, grid, bf))
    # hbf
    structure = _get(body, "structure", "algorithm.hbf", str, default="fc")
    if structure not in ("fc", "pc"):
        raise ConfigError(f"algorithm.hbf.structure: expected 'fc' or 'pc', got {structure!r}")
    n_rf = _get(body, "n_rf", "algorithm.hbf", int, required=True)
    iters = _get(body, "iters", "algorithm.hbf", int, default=50)
    restarts = _get(body, "restarts", "algorithm.hbf", int, default=5)
    seed = _get(body, "seed", "algorithm.hbf", int, default=base_seed)
    matrix = stack_target(target)
    try:
        if structure == "fc":
            hb = pe_altmin_fc(matrix, n_rf, iters=iters, seed=seed, restarts=restarts)
        else:
            hb = altmin_pc(matrix, n_rf, iters=iters, seed=seed, restarts=restarts)
    except ValueError as exc:
        raise ConfigError(f"algorithm.hbf: {exc}") from None
    beams = hb.unit_effective_vectors()
    report = FitReport(
        f_obj=fit_objective(target, beams),
        f_tilde_obj=hb.residual**2 / system.num_subcarriers,
        per_subcarrier_match=per_subcarrier_match(target, beams),
        convergence_trace=hb.residual_trace,
        metadata={"algorithm": label, "seed": hb.seed, "n_rf": n_rf, "structure": structure},
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
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
            continue
        if current is None:
            raise ValueError(f"{path}: content before the first section header")
        current.append(line)
    for name in ("delays_ns", "phases_rad", "alpha_re_im"):
        if name not in sections:
            raise ValueError(f"{path}: missing section [{name}]")
    delays = np.array([float(v) * NS for v in sections["delays_ns"]])
    phases = np.array([float(v) for v in sections["phases_rad"]])
    alpha = np.array(
        [complex(float(a), float(b)) for a, b in (line.split() for line in sections["alpha_re_im"])]
    )
    for name, values in (("delays_ns", delays), ("phases_rad", phases), ("alpha_re_im", alpha)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}: non-finite value in section [{name}]")
    return JptaBeamformer(delays=delays, phases=phases, alpha=alpha)


def write_gain_map_csv(
    path: Path,
    grid: SubcarrierGrid,
    gains: np.ndarray,
    theta_grid: np.ndarray,
) -> None:
    """Row-major by subcarrier, then angle; CRLF line ends as csv.writer writes them."""
    num_angles = theta_grid.size
    rows = np.column_stack([
        np.repeat(grid.indices, num_angles),
        np.repeat(grid.frequencies, num_angles),
        np.tile(np.rad2deg(theta_grid), grid.num_subcarriers),
        gains.ravel(),
        linear_to_db(gains).ravel(),
    ])
    np.savetxt(path, rows, fmt=["%d"] + ["%.12g"] * 4, delimiter=",",
               header=",".join(GAIN_MAP_HEADER), comments="", newline="\r\n")


def write_fit_report(out_dir: Path, experiment_id: str, output: RunOutput, grid: SubcarrierGrid) -> None:
    report = output.report
    with (out_dir / "fit_report.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment_id", "algorithm", "f_obj", "f_tilde_obj", "iterations", "seed"])
        seed = report.metadata.get("seed")
        writer.writerow(
            [
                experiment_id,
                output.label,
                _fmt(report.f_obj),
                _fmt(report.f_tilde_obj),
                str(report.iterations),
                "" if seed is None else str(seed),
            ]
        )
    with (out_dir / "per_subcarrier_match.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "match"])
        for k, match in zip(grid.indices, report.per_subcarrier_match):
            writer.writerow([int(k), _fmt(match)])
    if report.convergence_trace.size:
        with (out_dir / "convergence_trace.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective"])
            for i, value in enumerate(report.convergence_trace, start=1):
                writer.writerow([i, _fmt(value)])


def write_records_csv(path: Path, records: list[ResultRecord]) -> None:
    records = sorted(records, key=lambda r: (r.parameter, r.value, r.algorithm))
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_HEADER)
        for record in records:
            writer.writerow(record.csv_row())


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
    out_block = config.get("output") or {}
    step = _get(out_block, "theta_step_deg", "output", float, default=1.0)
    if step <= 0.0:
        raise ConfigError("output.theta_step_deg: must be positive")
    return default_theta_grid(step)


def cmd_design(config: dict, out_dir: Path, seed: int) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    blocks = algorithm_blocks(config)
    if len(blocks) != 1:
        raise ConfigError("design: expected exactly one algorithm block")
    output = run_algorithm(config, system, grid, target, blocks[0], base_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if output.beamformer is not None:
        write_beamformer_file(out_dir / "beamformer.txt", output.beamformer, config)
    if output.hbf is not None:
        np.savetxt(out_dir / "hbf_analog_re_im.csv",
                   np.column_stack([output.hbf.analog.real, output.hbf.analog.imag]),
                   delimiter=",", fmt="%.12g")
        np.savetxt(out_dir / "hbf_digital_re_im.csv",
                   np.column_stack([output.hbf.digital.real, output.hbf.digital.imag]),
                   delimiter=",", fmt="%.12g")
    write_fit_report(out_dir, "design", output, grid)
    if (config.get("output") or {}).get("gain_map"):
        thetas = _theta_grid_from(config)
        gains = gain_map(system, grid, output.beams, thetas)
        write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


_SWEEP_PARAMETERS = ("num_ttds", "delay_range", "max_iter", "n_rf")


def _sweep_point_config(config: dict, parameter: str, value: float) -> dict:
    point = copy.deepcopy(config)
    if parameter == "num_ttds":
        point["system"]["num_ttds"] = int(value)
    elif parameter == "delay_range":
        point["system"]["delay_range"] = float(value)
    else:
        kind = "jpta" if parameter == "max_iter" else "hbf"
        for block in algorithm_blocks(point):
            if kind in block:
                body = dict(block[kind] or {})
                body[parameter] = int(value)
                block[kind] = body
    return point


def _run_sweep_point(args: tuple[dict, int, str, float, int]) -> ResultRecord:
    config, block_index, parameter, value, seed = args
    point = _sweep_point_config(config, parameter, value)
    start = time.perf_counter()
    system, grid, target = _prepare(point)
    block = algorithm_blocks(point)[block_index]
    output = run_algorithm(point, system, grid, target, block, base_seed=seed)
    report = output.report
    return ResultRecord(
        experiment_id=f"{output.label}[{parameter}={value:g}]",
        algorithm=output.label,
        parameter=parameter,
        value=float(value),
        f_obj=report.f_obj,
        f_tilde_obj=report.f_tilde_obj,
        iterations=report.iterations,
        seed=report.metadata.get("seed"),
        wall_time_s=time.perf_counter() - start,
    )


def _sweep_records(config: dict, parameter: str, values, seed: int, workers: int) -> list[ResultRecord]:
    """One record per (value, algorithm block); blocks the parameter does not touch are skipped."""
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigError(
            f"sweep.parameter: unknown parameter {parameter!r} (choose from {_SWEEP_PARAMETERS})"
        )
    blocks = algorithm_blocks(config)
    tasks = [
        (config, i, parameter, float(v), seed)
        for v in values
        for i, block in enumerate(blocks)
        if not (parameter == "max_iter" and "jpta" not in block)
        and not (parameter == "n_rf" and "hbf" not in block)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_sweep_point, tasks))
    return [_run_sweep_point(task) for task in tasks]


def cmd_sweep(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    start = time.perf_counter()
    sweep = _get(config, "sweep", "", dict, required=True)
    parameter = _get(sweep, "parameter", "sweep", str, required=True)
    values = _get(sweep, "values", "sweep", list, required=True)
    if not values:
        raise ConfigError("sweep.values: must not be empty")
    _prepare(config)  # validate the base config before queuing work
    records = _sweep_records(config, parameter, values, seed, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", records)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


def _chains_fit(structure: str, n_rf: int, num_antennas: int) -> bool:
    """At most one chain per antenna; partially connected chains split the array evenly."""
    return n_rf <= num_antennas and (structure == "fc" or num_antennas % n_rf == 0)


def cmd_compare_hbf(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    """Chain-count sweep for both structures plus a delay-phase reference design."""
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    compare = _get(config, "compare", "", dict, default={})
    n_rf_values = _get(compare, "n_rf_values", "compare", list, default=[1, 2, 4, 8, 16, 32, 64])
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_rf_values):
        raise ConfigError(f"compare.n_rf_values: expected positive integers, got {n_rf_values!r}")
    structures = _get(compare, "structures", "compare", list, default=["fc", "pc"])
    for structure in structures:
        if structure not in ("fc", "pc"):
            raise ConfigError(f"compare.structures: expected 'fc' or 'pc', got {structure!r}")
    fit = {
        "iters": _get(compare, "iters", "compare", int, default=50),
        "restarts": _get(compare, "restarts", "compare", int, default=5),
    }
    reference = run_algorithm(config, system, grid, target, {"jpta": {}}).report
    records = [
        ResultRecord(
            experiment_id="jpta[reference]",
            algorithm="jpta_line_search",
            parameter="n_rf",
            value=1.0,
            f_obj=reference.f_obj,
            f_tilde_obj=reference.f_tilde_obj,
            iterations=reference.iterations,
            seed=None,
        )
    ]
    for structure in structures:
        point = copy.deepcopy(config)
        point["algorithms"] = [{"hbf": {"structure": structure, **fit}}]
        values = [n for n in n_rf_values if _chains_fit(structure, n, system.num_antennas)]
        records += _sweep_records(point, "n_rf", values, seed, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", records)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


def cmd_gain_map(config: dict, beamformer_path: Path, out_dir: Path) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    try:
        bf = parse_beamformer_file(beamformer_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"beamformer file: {exc}") from None
    beams = effective_beamformer_matrix(system, grid, bf)
    report = build_fit_report(system, grid, target, bf, algorithm="stored")
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


def _preset_notes(fast: bool) -> list[str]:
    if fast:
        return [f"fast mode: num_subcarriers reduced to {FAST_SUBCARRIERS}"]
    return []


def _design_maps(config: dict, target_block: dict, out_dir: Path, stem: str, theta: np.ndarray) -> None:
    point = copy.deepcopy(config)
    point["target"] = target_block
    system, grid, target = _prepare(point)
    ideal = gain_map(system, grid, target.unit_vectors, theta)
    write_gain_map_csv(out_dir / f"ideal_{stem}.csv", grid, ideal, theta)
    beams = run_algorithm(point, system, grid, target, {"jpta": {}}).beams
    write_gain_map_csv(out_dir / f"jpta_{stem}.csv", grid, gain_map(system, grid, beams, theta), theta)


def _reproduce_fig4(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    theta = default_theta_grid()
    _design_maps(config, PRESET_BEHAVIOR1, out_dir, "behavior1", theta)
    _design_maps(config, PRESET_BEHAVIOR2, out_dir, "behavior2", theta)


_JPTA_ALGOS = [
    {"jpta": {"variant": "line_search", "label": "jpta_line_search"}},
    {"jpta": {"variant": "wls", "label": "jpta_wls"}},
    {"heuristic": {}},
]


def _preset_sweep(config: dict, parameter: str, cases, seed: int, workers: int) -> list[ResultRecord]:
    """Line-search, wLS and closed-form records over one value list per (name, target) case."""
    records = []
    for name, target_block, values in cases:
        point = copy.deepcopy(config)
        point["target"] = target_block
        point["algorithms"] = copy.deepcopy(_JPTA_ALGOS)
        for record in _sweep_records(point, parameter, values, seed, workers):
            record.experiment_id = f"{name}:{record.experiment_id}"
            records.append(record)
    return records


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


def _convergence_draws(config: dict, behavior: int, draws: int, iters: int, seed: int) -> np.ndarray:
    """Trace ratios F(i)/F(iters) for random delay-range, line counts, and angles."""
    rng = np.random.default_rng(seed)
    divisors = [n for n in (1, 2, 4, 8, 16, 32, 64) if config["system"]["num_antennas"] % n == 0]
    ratios = np.empty((draws, iters))
    for d in range(draws):
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
        system, grid, target = _prepare(point)
        _, trace = design_jpta(system, grid, target, DesignOptions(max_iter=iters))
        ratios[d] = trace / trace[-1]
    return ratios


def _reproduce_fig7(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    draws, iters = 25, 30
    rows = []
    for behavior in (1, 2):
        ratios = _convergence_draws(config, behavior, draws, iters, seed + behavior)
        mean = ratios.mean(axis=0)
        p10 = np.percentile(ratios, 10, axis=0)
        p90 = np.percentile(ratios, 90, axis=0)
        for i in range(iters):
            rows.append((f"behavior{behavior}", i + 1, mean[i], p10[i], p90[i]))
    with (out_dir / "convergence_ratio.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["behavior", "iteration", "mean_ratio", "p10_ratio", "p90_ratio"])
        for behavior, i, mean, p10, p90 in rows:
            writer.writerow([behavior, i, _fmt(mean), _fmt(p10), _fmt(p90)])


def _reproduce_fig8(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    for name, target_block in (("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2)):
        point = copy.deepcopy(config)
        point["target"] = target_block
        point["compare"] = {"n_rf_values": [1, 2, 4, 8, 12, 16, 22, 32, 64]}
        cmd_compare_hbf(point, out_dir / name, seed, workers)
    # merge per-behavior results into one CSV
    merged = out_dir / "f_obj_vs_n_rf.csv"
    with merged.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["behavior"] + RESULT_HEADER)
        for name in ("behavior1", "behavior2"):
            with (out_dir / name / "results.csv").open("r", encoding="utf-8") as src:
                reader = csv.reader(src)
                next(reader)
                for row in reader:
                    writer.writerow([name] + row)


def _reproduce_fig9(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    theta = default_theta_grid()
    cases = [
        ("behavior1", PRESET_BEHAVIOR1, "fc", 22),
        ("behavior2", PRESET_BEHAVIOR2, "fc", 2),
        ("behavior1", PRESET_BEHAVIOR1, "pc", 32),
        ("behavior2", PRESET_BEHAVIOR2, "pc", 32),
    ]
    for name, target_block, structure, n_rf in cases:
        point = copy.deepcopy(config)
        point["target"] = target_block
        system, grid, target = _prepare(point)
        if not _chains_fit(structure, n_rf, system.num_antennas):
            continue  # preset chain counts assume the stock 64-antenna array
        block = {"hbf": {"structure": structure, "n_rf": n_rf}}
        beams = run_algorithm(point, system, grid, target, block, base_seed=seed).beams
        gains = gain_map(system, grid, beams, theta)
        write_gain_map_csv(out_dir / f"hbf_{structure}_{n_rf}rf_{name}.csv", grid, gains, theta)


def _reproduce_fig11(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    theta = default_theta_grid()
    k = config["system"]["num_subcarriers"]
    lo = -(k // 2)
    edges = [lo + k // 3, lo + 2 * (k // 3)]
    target_block = {"behavior": 3, "band_edges": edges, "angles_deg": [-45.0, 0.0, 30.0]}
    _design_maps(config, target_block, out_dir, "behavior3", theta)


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
    build_system(config)  # validate early
    out_dir.mkdir(parents=True, exist_ok=True)
    _FIGURES[figure](config, out_dir, seed, workers)
    write_provenance(out_dir, config, time.perf_counter() - start, _preset_notes(fast))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jpta",
        description="Design and evaluate frequency-dependent analog beamformers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="base seed for randomized algorithms")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY.PATH=VALUE", help="override a config field (repeatable)")

    p_design = sub.add_parser("design", help="run one design and write its outputs")
    add_common(p_design)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep workers")

    p_cmp = sub.add_parser("compare-hbf", help="chain-count sweep of the hybrid baselines")
    add_common(p_cmp)
    p_cmp.add_argument("--workers", type=int, default=1, help="parallel hybrid-fit workers")

    p_rep = sub.add_parser("reproduce", help="run a stock figure preset")
    p_rep.add_argument("figure", help="figure id: fig4 fig5 fig6 fig7 fig8 fig9 fig11")
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--fast", action="store_true",
                       help=f"use {FAST_SUBCARRIERS} subcarriers instead of the full grid")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--workers", type=int, default=1,
                       help="parallel sweep workers; only fig5, fig6 and fig8 use them")
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
