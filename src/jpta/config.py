"""Config ingestion: every read and check of a JSON experiment config.

`_SCHEMA` lists the keys of every section and `_read` is their only reader;
each problem is a `ConfigError` that names the offending field.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .array_model import SystemConfig, check_angle, check_sweep, default_theta_grid
from .beam_targets import WeightScheme
from .design import _COARSE_STEP, DesignOptions, TtdUpdate, _discrete_set
from .hbf import HbfStructure, _check_fit, chains_fit

GHZ = 1e9
NS = 1e-9

# a gain map over [-90, 90] degrees takes at most this many angles: a theta step of at least 0.01 degrees
MAX_THETA_ANGLES = 18_001
# size limits, checked before anything is allocated: each size on its own, and the K x M beams, the
# K x (grid/16 + 1) line-search tables and the K x angles gain maps at most MAX_CELLS cells each (a preset's
# 181-angle maps fit at any K up to MAX_SUBCARRIERS)
MAX_ANTENNAS = 4_096
MAX_SUBCARRIERS = 32_768
MAX_LINE_SEARCH_GRID = 1_048_576
MAX_CELLS = 16_777_216
_NORMAL = sys.float_info.min  # the smallest normal double


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field path."""


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

# sweep parameter -> the config section it sets, whose schema gives its kind.  An algorithm
# section sets the field in every entry of that kind, and the sweep skips entries of other kinds.
_SWEEPS = {"num_ttds": "system", "delay_range": "system", "max_iter": "jpta", "n_rf": "hbf"}


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


def check_preset_overrides(overrides: Iterable[str]) -> None:
    """A reproduce preset takes only ``system.*`` overrides."""
    for item in overrides:
        key = item.partition("=")[0]
        if key.split(".")[0] != "system":
            raise ConfigError(f"{key}: reproduce presets take only system.* overrides")


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}, line {exc.lineno}: {exc.msg}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path}: top level must be a JSON object")
    return config


def read_config(path: str | Path, overrides: Iterable[str]) -> dict:
    """The config file at ``path`` with ``overrides`` applied; its sweep, compare and output sections are
    checked even where the command does not use them."""
    config = apply_overrides(load_config_file(path), overrides)
    for name in ("sweep", "compare", "output"):
        _section(config, name, required=False)
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
    k, m = fields["num_subcarriers"], fields["num_antennas"]
    for key, limit in (("num_antennas", MAX_ANTENNAS), ("num_subcarriers", MAX_SUBCARRIERS)):
        if fields[key] > limit:
            raise ConfigError(f"system.{key}: {fields[key]} is more than {limit}")
    if k * m > MAX_CELLS:
        raise ConfigError(f"system.num_subcarriers: {k} subcarriers times {m} antennas is {k * m} cells, "
                          f"more than {MAX_CELLS}")
    try:
        system = SystemConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None
    top = system.carrier_freq + system.bandwidth / 2.0  # above every subcarrier frequency, in Hz
    phase = 2.0 * math.pi * top * system.max_delay  # above every delay phase 2 pi f tau
    power = system.total_power
    # the line search multiplies a delay line's coefficient mass sum_k w_k sum_m |bbar_km|, at most
    # sqrt(M) max(K, 2P) (a weight is at most 1 or |alpha_k|^2), by up to (2 pi delay_range)^2: its curvature
    # bound and vertex refine square offsets and steps in units of the power of two at or below the bandwidth
    mass = math.sqrt(system.num_antennas) * max(system.num_subcarriers, 2.0 * power)
    reach = 2.0 * math.pi * system.delay_range
    window = system.max_delay / NS  # the longest delay the beamformer file writes, in ns
    # the model multiplies frequencies by delays and squares powers: each result must be a finite, normal
    # double, and so must the bandwidth in Hz; the delay window in ns must be finite
    for key, what, ok in (
        ("bandwidth_ghz", "bandwidth in Hz subnormal", system.bandwidth >= _NORMAL),
        ("carrier_freq_ghz", "carrier_freq + bandwidth / 2 in Hz overflow", math.isfinite(top)),
        ("delay_range", "the delay phases 2 pi f tau overflow", math.isfinite(phase)),
        ("bandwidth_ghz", "the delay window delay_range / bandwidth in ns overflow", math.isfinite(window)),
        ("total_power", "total_power^2 leave the normal double range", _NORMAL <= power * power < math.inf),
        ("delay_range", "the line search's squared delays overflow", math.isfinite(reach * reach * mass)),
    ):
        if not ok:
            raise ConfigError(f"system.{key}: {block[key]:g} makes {what}")
    return system


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


def read_target(config: dict) -> tuple[int | None, list, dict]:
    """The target of ``config``: its behavior (None for a custom file), and the positional and keyword
    arguments its builder takes after the system and the grid."""
    block = _section(config, "target")
    scheme = {"scheme": block["weight_scheme"]} if "weight_scheme" in block else {}
    if "custom_file" in block:
        rescale = {"rescale": block["rescale"]} if "rescale" in block else {}
        return None, [block["custom_file"]], {**rescale, **scheme}
    behavior = block["behavior"]
    if behavior in (1, 2):
        return behavior, _target_angles(block, behavior), scheme
    if behavior == 3:
        angles = [_angle_rad(a, f"target.angles_deg[{i}]") for i, a in enumerate(block["angles_deg"])]
        return behavior, [block["band_edges"], angles], scheme
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
                        if key == "grid":
                            _check_grid(value, system.num_subcarriers)
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


def _check_grid(points: int, k: int) -> None:
    """A line-search grid of ``points`` delays within the size limits at ``k`` subcarriers."""
    if points > MAX_LINE_SEARCH_GRID:
        raise ValueError(f"{points} is more than {MAX_LINE_SEARCH_GRID}")
    cells = k * (points // _COARSE_STEP + 1)
    if cells > MAX_CELLS:
        raise ValueError(f"{k} subcarriers times {points // _COARSE_STEP + 1} coarse delays is {cells} cells, "
                         f"more than {MAX_CELLS}")


def read_sweep(config: dict) -> tuple[str, list[float]]:
    """The sweep parameter of ``config`` and its distinct values, integers where the parameter takes them."""
    sweep = _section(config, "sweep")
    parameter = sweep["parameter"]
    if parameter not in _SWEEPS:
        raise ConfigError(f"sweep.parameter: unknown parameter {parameter!r} (choose from {tuple(_SWEEPS)})")
    values = _distinct(sweep["values"], "sweep.values")
    if _SCHEMA[_SWEEPS[parameter]][parameter] is int and not all(v.is_integer() for v in values):
        raise ConfigError(f"sweep.values: {parameter} takes integers, got {values!r}")
    return parameter, values


def sweep_point(config: dict, parameter: str, value: float) -> tuple[dict, str]:
    """A copy of ``config`` whose sweep ``parameter`` is ``value``, and the section the parameter sets: the
    system, or every algorithm entry of that kind, of which ``config`` must hold at least one."""
    section = _SWEEPS[parameter]
    point = copy.deepcopy(config)
    holders = [point] if section == "system" else [entry for _, kind, entry in _entries(point) if kind == section]
    if not holders:
        algorithms(point, build_system(point))  # an entry's own error is reported first
        raise ConfigError(f"sweep.parameter: {parameter} sets no algorithm block; it sets only {section!r} blocks")
    for holder in holders:
        holder[section] = {**(holder[section] or {}), parameter: _SCHEMA[section][parameter](value)}
    return point, section


def read_compare(config: dict, system: SystemConfig) -> tuple[list[HbfStructure], list[int], dict]:
    """The hybrid structures and chain counts of the compare section of ``config``, and the fit kwargs it sets;
    each count must fit one of the structures.  The config's algorithm entries, if any, are checked too."""
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
    return structures, n_rf_values, fit


def wants_gain_map(config: dict) -> bool:
    """Whether a design run of ``config`` writes a gain map."""
    return _section(config, "output", required=False).get("gain_map", False)


def theta_grid(config: dict):
    """The gain-map angles of ``config`` in radians, from -90 to 90 degrees in ``output.theta_step_deg`` steps;
    its system section must be valid."""
    step = _section(config, "output", required=False).get("theta_step_deg", 1.0)
    if step <= 0.0:
        raise ConfigError("output.theta_step_deg: must be positive")
    count = math.ceil((90.0 + step / 2.0 + 90.0) / step)  # the length of default_theta_grid(step)
    if count > MAX_THETA_ANGLES:
        raise ConfigError(f"output.theta_step_deg: {step:g} gives {count} angles, more than {MAX_THETA_ANGLES}")
    k = _section(config, "system")["num_subcarriers"]
    if k * count > MAX_CELLS:
        raise ConfigError(f"output.theta_step_deg: {k} subcarriers times {count} angles is {k * count} cells, "
                          f"more than {MAX_CELLS}")
    return default_theta_grid(step)
