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
import ctypes
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
    report: FitReport
    beamformer: JptaBeamformer | None = None
    hbf: HbfBeamformer | None = None
    beams: np.ndarray | None = None
    target: BeamTarget | None = None


def run_algorithm(system: SystemConfig, grid: SubcarrierGrid, target: BeamTarget, algorithm: tuple,
                  base_seed: int = 0) -> RunOutput:
    """Run one (kind, label, spec) entry of `algorithms`, or evaluate a ("stored", label, beamformer) one, on
    ``target``, which the output keeps; an hbf fit whose entry sets no seed takes ``base_seed``."""
    kind, _, spec = algorithm
    if kind == "hbf":
        structure, fit = spec
        hb = (pe_altmin_fc if structure is HbfStructure.FULLY_CONNECTED else altmin_pc)(
            stack_target(target), **{"seed": base_seed, **fit})
        beams = hb.unit_effective_vectors()
        report = FitReport(f_obj=fit_objective(target, beams), f_tilde_obj=hb.residual**2 / system.num_subcarriers,
                           per_subcarrier_match=per_subcarrier_match(target, beams),
                           convergence_trace=hb.residual_trace, seed=hb.seed)
        return RunOutput(report=report, hbf=hb, beams=beams, target=target)
    bf, trace, seed = spec, None, None  # a stored entry's spec is its beamformer
    if kind == "jpta":
        bf, trace = design_jpta(system, grid, target, spec)
        seed = spec.init_phase_seed
    elif kind == "heuristic":
        behavior, angles = spec
        bf = (heuristic_behavior1 if behavior == 1 else heuristic_behavior2)(system, grid, *angles)
    beams = effective_beamformer_matrix(system, grid, bf)
    report = build_fit_report(system, grid, target, bf, trace, seed=seed, beams=beams)
    return RunOutput(report=report, beamformer=bf, beams=beams, target=target)


def build_target(target: tuple, system: SystemConfig, grid: SubcarrierGrid) -> BeamTarget:
    """The target `read_target` parsed, built by the builder bound here, which bench/tracing.py wraps."""
    behavior, args, options = target
    try:
        if behavior is None:
            return custom_target(system, grid, *args, **options)
        if behavior in (1, 2):
            return (behavior1_target if behavior == 1 else behavior2_target)(system, grid, *args, **options)
        return multi_angle_target(system, grid, *args, **options)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"target: {exc}") from None


@dataclass(frozen=True)
class Task:
    """One run for `_map`: a point's system, its target as `read_target` parsed it, an entry as `run_algorithm`
    takes it, the base seed, and whether the result keeps the whole run output or only the fit report."""

    system: SystemConfig
    target: tuple
    algorithm: tuple
    seed: int = 0
    keep: bool = False


def _tasks(config: dict, seed: int = 0, keep: bool = False, name: str = "") -> list[Task]:
    """A task per algorithm entry of ``config``, each parsed before any runs; a point's ``name`` leads its errors."""
    try:
        system = build_system(config)
        target = read_target(config)
        return [Task(system, target, entry, seed, keep) for entry in algorithms(config, system)]
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}" if name else str(exc)) from None


# the last target a task of the current `_map` call built, by its parsed target and the system
# fields a target reads (every field but num_ttds, delay_range and ttd_groups); one slot, so
# that a run of tasks sharing a target builds it once and at most one target is kept
_TARGETS: dict[str, BeamTarget] = {}


def _run_task(task: Task) -> RunOutput:
    system = task.system
    grid = build_grid(system)
    key = repr((task.target, system.num_antennas, system.carrier_freq, system.bandwidth, system.num_subcarriers,
                system.total_power))  # exact: a float's repr round-trips
    if key not in _TARGETS:
        _TARGETS.clear()
        _TARGETS[key] = build_target(task.target, system, grid)
    output = run_algorithm(system, grid, _TARGETS[key], task.algorithm, base_seed=task.seed)
    return output if task.keep else RunOutput(output.report)


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


# ---------------------------------------------------------------------------
# command plans: each takes the config and the parsed arguments, checks the whole
# config and returns its tasks, a writer (out_dir, outputs) of its files and then
# any notes for run_meta.json
# ---------------------------------------------------------------------------


def _plan_design(config: dict, args: argparse.Namespace) -> tuple:
    tasks = _tasks(config, args.seed, keep=True)
    if len(tasks) != 1:
        raise ConfigError("design: expected exactly one algorithm block")
    grid = build_grid(tasks[0].system)
    thetas = theta_grid(config) if wants_gain_map(config) else None

    def write(out_dir: Path, outputs: list[RunOutput]) -> None:
        (output,) = outputs
        if output.beamformer is not None:
            write_beamformer_file(out_dir / "beamformer.txt", output.beamformer, config)
        if output.hbf is not None:
            write_hbf_matrices(out_dir, output.hbf.analog, output.hbf.digital)
        write_fit_report(out_dir, "design", tasks[0].algorithm[1], output.report, grid)
        if thetas is not None:
            gains = gain_map(tasks[0].system, grid, output.beams, thetas)
            write_gain_map_csv(out_dir / "gain_map.csv", grid, gains, thetas)

    return tasks, write


def _sweep_points(config: dict, parameter: str, values, seed: int, prefix: str = "") -> list[tuple]:
    """A (task, experiment id, parameter, value) per (value, entry) the parameter sets."""
    points = []
    for value in map(float, values):
        point, section = sweep_point(config, parameter, value)
        where = f"[{parameter}={value:g}]"
        points += [(task, f"{prefix}{task.algorithm[1]}{where}", parameter, value)
                   for task in _tasks(point, seed, name=prefix and prefix + where)
                   if section in ("system", task.algorithm[0])]
    return points


def _rows_plan(points: list[tuple], name: str = "results.csv") -> tuple:
    """The tasks of ``points`` and a writer of their results rows as ``name`` that returns the rows."""

    def write(out_dir: Path, outputs: list[RunOutput]) -> list[list[str]]:
        rows = result_rows((experiment_id, parameter, value, task.algorithm[1], output.report)
                           for (task, experiment_id, parameter, value), output in zip(points, outputs))
        write_records_csv(out_dir / name, rows)
        return rows

    return [task for task, *_ in points], write


def _plan_sweep(config: dict, args: argparse.Namespace) -> tuple:
    parameter, values = read_sweep(config)
    build_system(config)  # the base system is checked too, though a system sweep replaces one of its fields
    return _rows_plan(_sweep_points(config, parameter, values, args.seed))


def _plan_compare_hbf(config: dict, args: argparse.Namespace) -> tuple:
    """The delay-phase reference, then each structure's chain-count sweep; notes name the counts skipped."""
    system = build_system(config)
    structures, n_rf_values, fit = read_compare(config, system)
    m = system.num_antennas
    base = {key: value for key, value in config.items() if key not in ("algorithm", "algorithms")}
    points = [(task, "jpta[reference]", "n_rf", 1.0)
              for task in _tasks({**base, "algorithm": {"jpta": {}}}, args.seed)]
    notes = []
    for structure in structures:  # each chain sweep replaces the config's algorithms
        point = {**base, "algorithms": [{"hbf": {"structure": structure.value, **fit}}]}  # copied per value
        values = [n for n in n_rf_values if chains_fit(structure, n, m)]
        points += _sweep_points(point, "n_rf", values, args.seed)
        skipped = [n for n in n_rf_values if n not in values]
        if skipped:
            notes.append(f"compare.n_rf_values: {structure.value} skips {skipped} on {m} antennas")
    return (*_rows_plan(points), *notes)


def _plan_gain_map(config: dict, args: argparse.Namespace) -> tuple:
    """One run, which evaluates the stored beamformer on the config's target."""
    system = build_system(config)
    target = read_target(config)  # the run builds the target
    try:
        bf = parse_beamformer_file(Path(args.beamformer), system)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"beamformer file: {exc}") from None
    grid = build_grid(system)
    thetas = theta_grid(config)

    def write(out_dir: Path, outputs: list[RunOutput]) -> None:
        write_gain_map_csv(out_dir / "gain_map.csv", grid, gain_map(system, grid, outputs[0].beams, thetas), thetas)
        write_fit_report(out_dir, "gain-map", "stored", outputs[0].report, grid)

    return [Task(system, target, ("stored", "stored", bf), keep=True)], write


# ---------------------------------------------------------------------------
# figure presets: plans as above, of `_preset_config` with its system.* overrides
# ---------------------------------------------------------------------------


def _preset_config(fast: bool) -> dict:
    system = dict(STOCK_SYSTEM)
    if fast:
        system["num_subcarriers"] = FAST_SUBCARRIERS
    return {"system": system}


def _gain_maps(config: dict, maps: list[tuple], seed: int) -> tuple:
    """The runs of each (stem, ideal stem, target block, algorithm block) and a writer of the gain map of each
    run's beams as ``<stem>.csv`` and, given an ideal stem, of the target the run built as ``<ideal stem>.csv``."""
    system = build_system(config)
    grid = build_grid(system)
    theta = default_theta_grid()
    points = [{**config, "target": target_block, "algorithm": block} for *_, target_block, block in maps]

    def write(out_dir: Path, outputs: list[RunOutput]) -> None:
        for (stem, ideal, *_), output in zip(maps, outputs):
            for name, beams in ((ideal, output.target.unit_vectors), (stem, output.beams)):
                if name is not None:
                    write_gain_map_csv(out_dir / f"{name}.csv", grid, gain_map(system, grid, beams, theta), theta)

    return [task for point in points for task in _tasks(point, seed, keep=True)], write


def _reproduce_fig4(config: dict, args: argparse.Namespace) -> tuple:
    maps = [("jpta_behavior1", "ideal_behavior1", PRESET_BEHAVIOR1, {"jpta": {}}),
            ("jpta_behavior2", "ideal_behavior2", PRESET_BEHAVIOR2, {"jpta": {}})]
    return _gain_maps(config, maps, args.seed)


_JPTA_ALGOS = [{"jpta": {}}, {"jpta": {"variant": "wls"}}, {"heuristic": {}}]


def _preset_sweep(config: dict, parameter: str, cases, seed: int, csv_name: str) -> tuple:
    """Line-search, wLS and closed-form runs over one value list per (name, target) case, whose results rows
    are written as ``csv_name``."""
    points = []
    for name, target_block, values in cases:
        point = {**config, "target": target_block, "algorithms": _JPTA_ALGOS}
        points += _sweep_points(point, parameter, values, seed, prefix=f"{name}:")
    return _rows_plan(points, csv_name)


def _reproduce_fig5(config: dict, args: argparse.Namespace) -> tuple:
    m = config["system"]["num_antennas"]
    counts = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= m and m % n == 0]
    cases = [("behavior1", PRESET_BEHAVIOR1, counts), ("behavior2", PRESET_BEHAVIOR2, counts)]
    return _preset_sweep(config, "num_ttds", cases, args.seed, "f_obj_vs_num_ttds.csv")


def _reproduce_fig6(config: dict, args: argparse.Namespace) -> tuple:
    m = config["system"]["num_antennas"]
    cases = [
        ("behavior1", PRESET_BEHAVIOR1,
         [2, 4, 8, 12, 18, m * math.sin(math.pi / 8), 32, m * math.sin(math.pi / 4), 52, 64]),
        ("behavior2", PRESET_BEHAVIOR2, [0.5, 1, 2, 3, 4, 6, 8, 16, 32, 64]),
    ]
    return _preset_sweep(config, "delay_range", cases, args.seed, "f_obj_vs_delay_range.csv")


def _convergence_tasks(config: dict, behavior: int, draws: int, iters: int, seed: int) -> list[Task]:
    """Designs of ``iters`` iterations at random delay ranges, line counts and angles, whose trace
    ratios F(i)/F(iters) fig7 summarizes per iteration."""
    rng = np.random.default_rng(seed)
    divisors = [n for n in (1, 2, 4, 8, 16, 32, 64) if config["system"]["num_antennas"] % n == 0]
    tasks = []
    for draw in range(1, draws + 1):
        system = {**config["system"], "num_ttds": int(rng.choice(divisors)),
                  "delay_range": float(rng.uniform(4.0, 64.0))}
        point = {**config, "system": system, "algorithm": {"jpta": {"max_iter": iters}}}
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
        tasks += _tasks(point, name=f"behavior{behavior}:[draw={draw}]")
    return tasks


def _reproduce_fig7(config: dict, args: argparse.Namespace) -> tuple:
    draws, iters, behaviors = 25, 30, (1, 2)

    def write(out_dir: Path, outputs: list[RunOutput]) -> None:
        traces = np.array([output.report.convergence_trace for output in outputs])
        stats = {f"behavior{b}": np.column_stack([ratios.mean(axis=0), np.percentile(ratios, [10, 90], axis=0).T])
                 for b, ratios in zip(behaviors, np.split(traces / traces[:, -1:], len(behaviors)))}
        write_convergence_ratio_csv(out_dir / "convergence_ratio.csv", stats)

    return [task for b in behaviors for task in _convergence_tasks(config, b, draws, iters, args.seed + b)], write


def _reproduce_fig8(config: dict, args: argparse.Namespace) -> tuple:
    start = time.perf_counter()
    m = config["system"]["num_antennas"]
    compare = {"n_rf_values": [n for n in (1, 2, 4, 8, 12, 16, 22, 32, 64) if n <= m]}
    points = {name: {**config, "target": target_block, "compare": compare}
              for name, target_block in (("behavior1", PRESET_BEHAVIOR1), ("behavior2", PRESET_BEHAVIOR2))}
    plans = {name: _plan_compare_hbf(point, args) for name, point in points.items()}

    def write(out_dir: Path, outputs: list[RunOutput]) -> None:
        """Each behavior's compare-hbf files in its own subdirectory, then both behaviors' rows in one table."""
        records = {}
        for name, (tasks, write_rows, *notes) in plans.items():  # each behavior's rows sort on their own
            (out_dir / name).mkdir(exist_ok=True)
            records[name], outputs = write_rows(out_dir / name, outputs[:len(tasks)]), outputs[len(tasks):]
            write_provenance(out_dir / name, points[name], time.perf_counter() - start, notes)
        write_behavior_records_csv(out_dir / "f_obj_vs_n_rf.csv", records)

    return [task for tasks, *_ in plans.values() for task in tasks], write


def _reproduce_fig9(config: dict, args: argparse.Namespace) -> tuple:
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
    return (*_gain_maps(config, maps, args.seed), *notes)


def _reproduce_fig11(config: dict, args: argparse.Namespace) -> tuple:
    k = config["system"]["num_subcarriers"]
    if k < 3:
        raise ConfigError(f"system.num_subcarriers: fig11 needs a subcarrier in each of its 3 sub-bands, got {k}")
    lo = -(k // 2)
    edges = [lo + k // 3, lo + 2 * (k // 3)]
    target_block = {"behavior": 3, "band_edges": edges, "angles_deg": [-45.0, 0.0, 30.0]}
    return _gain_maps(config, [("jpta_behavior3", "ideal_behavior3", target_block, {"jpta": {}})], args.seed)


_FIGURES = {
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig7": _reproduce_fig7,
    "fig8": _reproduce_fig8,
    "fig9": _reproduce_fig9,
    "fig11": _reproduce_fig11,
}


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
    parser.set_defaults(seed=0, workers=1)  # of the commands that take no --seed or no --workers
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE", help="override a config field (repeatable)")
    config = argparse.ArgumentParser(add_help=False, parents=[common])
    config.add_argument("--config", required=True, help="JSON experiment configuration")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base seed for randomized algorithms")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--workers", type=_positive_int, default=1, help="processes that run the designs and fits")

    sub.add_parser("design", parents=[config, seeded], help="run one design and write its outputs")
    sub.add_parser("sweep", parents=[config, seeded, pooled], help="run the configured parameter sweep")
    sub.add_parser("compare-hbf", parents=[config, seeded, pooled], help="chain-count sweep of the hybrid baselines")
    p_rep = sub.add_parser("reproduce", parents=[common, seeded, pooled], help="run a stock figure preset")
    p_rep.add_argument("figure", help="figure id: fig4 fig5 fig6 fig7 fig8 fig9 fig11")
    p_rep.add_argument("--fast", action="store_true",
                       help=f"use {FAST_SUBCARRIERS} subcarriers instead of the full grid")
    p_map = sub.add_parser("gain-map", parents=[config], help="gain map of a stored beamformer file")
    p_map.add_argument("--beamformer", required=True, help="beamformer file from a design run")
    return parser


_COMMANDS = {"design": _plan_design, "sweep": _plan_sweep, "compare-hbf": _plan_compare_hbf,
             "gain-map": _plan_gain_map}


def _run_plan(config: dict, plan: tuple, out_dir: Path, workers: int, start: float) -> int:
    """Run the plan's tasks; only then create ``out_dir`` and write the plan's files and the provenance."""
    tasks, write, *notes = plan
    outputs = _map(tasks, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    write(out_dir, outputs)
    write_provenance(out_dir, config, time.perf_counter() - start, notes)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.seed < 0:  # numpy generators take no negative seed
            raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
        if args.command == "reproduce":
            if args.figure not in _FIGURES:
                raise ConfigError(f"figure: unknown figure id {args.figure!r} (choose from {sorted(_FIGURES)})")
            config = apply_overrides(_preset_config(args.fast), args.overrides)
            check_preset_overrides(args.overrides)
            build_system(config)  # checked before a preset reads its fields
            tasks, write, *notes = _FIGURES[args.figure](config, args)
            if args.fast:  # the note names the K of the resolved config, which a --set override may have changed
                notes.insert(0, f"fast mode: num_subcarriers reduced to {config['system']['num_subcarriers']}")
            plan = (tasks, write, *notes)
        else:
            config = read_config(args.config, args.overrides)
            plan = _COMMANDS[args.command](config, args)
        return _run_plan(config, plan, Path(args.out), args.workers, start)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
