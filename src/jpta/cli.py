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
import ctypes
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .array_model import (SubcarrierGrid, SystemConfig, build_grid, default_theta_grid, effective_beamformer_matrix,
                          gain_map)
from .beam_targets import BeamTarget, behavior1_target, behavior2_target, custom_target, multi_angle_target
from .config import (ConfigError, algorithms, apply_overrides, build_system, check_preset_overrides,
                     read_compare, read_config, read_sweep, read_target, sweep_point, theta_grid, wants_gain_map)
from .design import JptaBeamformer, design_jpta
from .formats import (parse_beamformer_file, result_rows, write_beamformer_file, write_behavior_records_csv,
                      write_convergence_ratio_csv, write_fit_report, write_gain_map_csv, write_hbf_matrices,
                      write_provenance, write_records_csv)
from .hbf import HbfBeamformer, HbfStructure, altmin_pc, chains_fit, pe_altmin_fc, stack_target
from .heuristics import heuristic_behavior1, heuristic_behavior2
# objective_tilde is unused here but stays bound: bench/tracing.py wraps each name it lists in this module
from .metrics import (
    FitReport,
    build_fit_report,
    fit_objective,
    objective_tilde,
    per_subcarrier_match,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

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
    target: BeamTarget | None = None


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
# subcommand drivers
# ---------------------------------------------------------------------------


def build_target(config: dict, system: SystemConfig, grid: SubcarrierGrid) -> BeamTarget:
    """The target `read_target` parses, built by the builder bound here, which bench/tracing.py wraps."""
    behavior, args, options = read_target(config)
    try:
        if behavior is None:
            return custom_target(system, grid, *args, **options)
        if behavior in (1, 2):
            return (behavior1_target if behavior == 1 else behavior2_target)(system, grid, *args, **options)
        return multi_angle_target(system, grid, *args, **options)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"target: {exc}") from None


def _prepare(config: dict) -> tuple[SystemConfig, SubcarrierGrid, BeamTarget]:
    system = build_system(config)
    grid = build_grid(system)
    target = build_target(config, system, grid)
    return system, grid, target


def cmd_design(config: dict, out_dir: Path, seed: int) -> int:
    start = time.perf_counter()
    system, grid, target = _prepare(config)
    entries = algorithms(config, system)
    if len(entries) != 1:
        raise ConfigError("design: expected exactly one algorithm block")
    thetas = theta_grid(config) if wants_gain_map(config) else None
    output = run_algorithm(system, grid, target, entries[0], base_seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if output.beamformer is not None:
        write_beamformer_file(out_dir / "beamformer.txt", output.beamformer, config)
    if output.hbf is not None:
        write_hbf_matrices(out_dir, output.hbf.analog, output.hbf.digital)
    write_fit_report(out_dir, "design", output.label, output.report, grid)
    if thetas is not None:
        gains = gain_map(system, grid, output.beams, thetas)
        write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)
    write_provenance(out_dir, config, time.perf_counter() - start, [])
    return EXIT_OK


@dataclass(frozen=True)
class Task:
    """One run for `_map`: a point config with its target, an entry `algorithms` parsed, the base seed, and
    whether the result keeps the (K, M) beams and the target, which only a run whose gain maps are written needs."""

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
    """The run's label and fit report, and its beams and the target it ran on when the task keeps them."""
    system = build_system(task.config)
    grid = build_grid(system)
    key = (json.dumps(task.config.get("target"), sort_keys=True), system.num_antennas, system.carrier_freq,
           system.bandwidth, system.num_subcarriers, system.total_power)
    if key not in _TARGETS:
        _TARGETS.clear()
        _TARGETS[key] = build_target(task.config, system, grid)
    output = run_algorithm(system, grid, _TARGETS[key], task.algorithm, base_seed=task.seed)
    return RunOutput(output.label, output.report, beams=output.beams if task.keep_beams else None,
                     target=_TARGETS[key] if task.keep_beams else None)


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
            # imported here: it loads multiprocessing, logging, socket and subprocess, which a serial run never uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_one_blas_thread) as pool:
                return list(pool.map(_run_task, tasks))
        return [_run_task(task) for task in tasks]
    finally:
        _TARGETS.clear()


def _sweep_points(config: dict, parameter: str, values, seed: int, prefix: str = "") -> list[tuple]:
    """A (task, experiment-id format of its {label}, parameter, value) per (value, entry) the parameter sets."""
    points = []
    for value in map(float, values):
        point, section = sweep_point(config, parameter, value)
        points += [(task, prefix + "{label}" + f"[{parameter}={value:g}]", parameter, value)
                   for task in _tasks(point, seed) if section in ("system", task.algorithm[0])]
    return points


def _result_rows(points: list[tuple], outputs: list[RunOutput]) -> list[list[str]]:
    return result_rows((experiment_id, parameter, value, output.label, output.report)
                       for (_, experiment_id, parameter, value), output in zip(points, outputs))


def _records(points: list[tuple], workers: int) -> list[list[str]]:
    return _result_rows(points, _map([task for task, *_ in points], workers))


def _write_results(out_dir: Path, config: dict, start: float, rows: list[list[str]], notes: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", rows)
    write_provenance(out_dir, config, time.perf_counter() - start, notes)


def cmd_sweep(config: dict, out_dir: Path, seed: int, workers: int) -> int:
    start = time.perf_counter()
    parameter, values = read_sweep(config)
    build_system(config)  # check the base config before queuing work; the runs build its target
    read_target(config)
    points = _sweep_points(config, parameter, values, seed)
    _write_results(out_dir, config, start, _records(points, workers), [])
    return EXIT_OK


def _compare_points(config: dict, seed: int) -> tuple[list[tuple], list[str]]:
    """The delay-phase reference, then each structure's chain-count sweep; notes name the counts skipped."""
    system = build_system(config)  # check the base config before queuing work; the runs build its target
    read_target(config)
    structures, n_rf_values, fit = read_compare(config, system)
    m = system.num_antennas
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
        bf = parse_beamformer_file(beamformer_path, system)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"beamformer file: {exc}") from None
    beams = effective_beamformer_matrix(system, grid, bf)
    report = build_fit_report(system, grid, target, bf, beams=beams)
    thetas = theta_grid(config)
    gains = gain_map(system, grid, beams, thetas)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)
    write_fit_report(out_dir, "gain-map", "stored", report, grid)
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


def _gain_maps(config: dict, maps: list[tuple], out_dir: Path, seed: int, workers: int) -> None:
    """The gain map of each (stem, ideal stem, target block, algorithm block) run's beams as ``<stem>.csv``
    and, given an ideal stem, that of the target the run built as ``<ideal stem>.csv``."""
    system = build_system(config)
    grid = build_grid(system)
    theta = default_theta_grid()
    points = [{**copy.deepcopy(config), "target": target_block, "algorithm": block} for *_, target_block, block in maps]
    tasks = [task for point in points for task in _tasks(point, seed, keep_beams=True)]
    for (stem, ideal, *_), output in zip(maps, _map(tasks, workers)):
        for name, beams in ((ideal, output.target.unit_vectors), (stem, output.beams)):
            if name is not None:
                write_gain_map_csv(out_dir / f"{name}.csv", grid, gain_map(system, grid, beams, theta), theta)


def _reproduce_fig4(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    maps = [("jpta_behavior1", "ideal_behavior1", PRESET_BEHAVIOR1, {"jpta": {}}),
            ("jpta_behavior2", "ideal_behavior2", PRESET_BEHAVIOR2, {"jpta": {}})]
    _gain_maps(config, maps, out_dir, seed, workers)


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
    stats = {f"behavior{behavior}": np.column_stack([ratios.mean(axis=0), np.percentile(ratios, [10, 90], axis=0).T])
             for behavior, ratios in zip(behaviors, np.split(traces / traces[:, -1:], len(behaviors)))}
    write_convergence_ratio_csv(out_dir / "convergence_ratio.csv", stats)


def _reproduce_fig8(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    start = time.perf_counter()
    m = config["system"]["num_antennas"]
    compare = {"n_rf_values": [n for n in (1, 2, 4, 8, 12, 16, 22, 32, 64) if n <= m]}
    points = {name: {**copy.deepcopy(config), "target": target_block, "compare": compare}
              for name, target_block in (("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2))}
    plans = {name: _compare_points(point, seed) for name, point in points.items()}
    outputs = _map([task for runs, _ in plans.values() for task, *_ in runs], workers)
    records = {}
    for name, (runs, notes) in plans.items():  # each behavior's rows sort on their own
        records[name], outputs = _result_rows(runs, outputs[:len(runs)]), outputs[len(runs):]
        _write_results(out_dir / name, points[name], start, records[name], notes)
    write_behavior_records_csv(out_dir / "f_obj_vs_n_rf.csv", records)


def _reproduce_fig9(config: dict, out_dir: Path, seed: int, workers: int) -> list[str]:
    """Hybrid gain maps at chain counts for the stock 64 antennas; notes name each map that does not fit."""
    m = config["system"]["num_antennas"]
    maps, notes = [], []
    for name, target_block, structure, n_rf in (  # grouped by target, which the runs then build once each
        ("behavior1", PRESET_BEHAVIOR1, "fc", 22),
        ("behavior1", PRESET_BEHAVIOR1, "pc", 32),
        ("behavior2", PRESET_BEHAVIOR2, "fc", 2),
        ("behavior2", PRESET_BEHAVIOR2, "pc", 32),
    ):
        stem = f"hbf_{structure}_{n_rf}rf_{name}"
        if not chains_fit(structure, n_rf, m):
            notes.append(f"{stem}: skipped, {n_rf} {structure} chains do not fit {m} antennas")
            continue
        maps.append((stem, None, target_block, {"hbf": {"structure": structure, "n_rf": n_rf}}))
    _gain_maps(config, maps, out_dir, seed, workers)
    return notes


def _reproduce_fig11(config: dict, out_dir: Path, seed: int, workers: int) -> None:
    k = config["system"]["num_subcarriers"]
    lo = -(k // 2)
    edges = [lo + k // 3, lo + 2 * (k // 3)]
    target_block = {"behavior": 3, "band_edges": edges, "angles_deg": [-45.0, 0.0, 30.0]}
    _gain_maps(config, [("jpta_behavior3", "ideal_behavior3", target_block, {"jpta": {}})], out_dir, seed, workers)


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
    check_preset_overrides(overrides)
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
        config = read_config(args.config, args.overrides)
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
