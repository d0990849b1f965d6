"""Construction of per-subcarrier target beam sets and their emphasis weights.

The stock constructors cover the three frequency-dependent behaviors (linear
angle sweep, half-band split, piecewise multi-angle); arbitrary user targets
load from a plain-text file, one subcarrier per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, _FrozenArrays, check_angle, check_sweep, steering_vectors

__all__ = [
    "WeightScheme",
    "BeamTarget",
    "behavior1_target",
    "behavior2_target",
    "multi_angle_target",
    "custom_target",
    "write_custom_target",
]

_POWER_TOL = 1e-9  # relative slack on the power-budget check


class WeightScheme(str, Enum):
    """Per-subcarrier emphasis: constant, proportional to power, or saturating."""

    UNIFORM = "uniform"
    POWER = "power"
    SATURATING = "saturating"

    def weights(self, norms: np.ndarray) -> np.ndarray:
        p = np.asarray(norms, dtype=np.float64) ** 2
        if self is WeightScheme.UNIFORM:
            return np.ones_like(p)
        if self is WeightScheme.POWER:
            return p
        return p / (1.0 + p)


@dataclass(frozen=True, eq=False)
class BeamTarget(_FrozenArrays):
    """Desired complex beam vector per subcarrier plus weights and power budget.

    Rows of ``vectors`` follow the ascending subcarrier order of the grid.
    Zero-norm rows are tolerated but inert: their weight is forced to zero so
    they drop out of every design sum, and their normalized row is all zeros.
    """

    vectors: np.ndarray
    weights: np.ndarray
    power_budget: float
    norms: np.ndarray = field(init=False, repr=False)
    unit_vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vec = np.array(self.vectors, dtype=np.complex128, order="C")
        w = np.array(self.weights, dtype=np.float64, order="C")
        if vec.ndim != 2:
            raise ValueError("target vectors must form a (K, M) array")
        if w.shape != (vec.shape[0],):
            raise ValueError("need exactly one weight per subcarrier")
        if not (np.all(np.isfinite(vec)) and np.all(np.isfinite(w))):
            raise ValueError("target vectors and weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("subcarrier weights must be nonnegative")
        if self.power_budget <= 0.0:
            raise ValueError("power budget must be positive")
        norms = np.linalg.norm(vec, axis=1)
        total = float(np.sum(norms**2))
        if total > self.power_budget * (1.0 + _POWER_TOL):
            raise ValueError(
                f"target power {total:g} exceeds the budget {self.power_budget:g}"
            )
        w[norms == 0.0] = 0.0
        if not np.any(w > 0.0):
            raise ValueError("subcarrier weights must not all vanish")
        unit = np.zeros_like(vec)
        nz = norms > 0.0
        unit[nz] = vec[nz] / norms[nz, None]
        self._store_frozen(vectors=vec, weights=w, norms=norms, unit_vectors=unit)


def _behavior_angles(
    config: SystemConfig,
    grid: SubcarrierGrid,
    behavior: int,
    first: float,
    second: float,
) -> np.ndarray:
    """Per-subcarrier steering angles of a stock behavior.

    Behavior 1 sweeps ``first + k*second/K`` for (theta0, delta_theta);
    behavior 2 steers to ``first`` below the center subcarrier and to
    ``second`` at and above it, for (theta1, theta2).
    """
    if behavior == 1:
        return first + grid.indices * (second / config.num_subcarriers)
    return np.where(grid.indices < 0, first, second)


def _steered_target(
    config: SystemConfig,
    grid: SubcarrierGrid,
    angles: np.ndarray,
    scheme: WeightScheme,
) -> BeamTarget:
    """Target with per-subcarrier steering angles and uniform per-subcarrier power."""
    amp = math.sqrt(config.total_power / (config.num_antennas * config.num_subcarriers))
    vectors = amp * steering_vectors(config, grid.frequencies, angles)
    norms = np.full(grid.num_subcarriers, math.sqrt(config.total_power / config.num_subcarriers))
    return BeamTarget(
        vectors=vectors,
        weights=scheme.weights(norms),
        power_budget=config.total_power,
    )


def behavior1_target(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta0: float,
    delta_theta: float,
    scheme: WeightScheme = WeightScheme.UNIFORM,
) -> BeamTarget:
    """Linearly swept beam: subcarrier k steers to theta0 + k*delta_theta/K."""
    check_sweep(theta0, delta_theta)
    return _steered_target(config, grid, _behavior_angles(config, grid, 1, theta0, delta_theta), scheme)


def behavior2_target(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta1: float,
    theta2: float,
    scheme: WeightScheme = WeightScheme.UNIFORM,
) -> BeamTarget:
    """Half-band split beam: theta1 below the center subcarrier, theta2 at and above."""
    angles = _behavior_angles(config, grid, 2, check_angle(theta1, "theta1"), check_angle(theta2, "theta2"))
    return _steered_target(config, grid, angles, scheme)


def multi_angle_target(
    config: SystemConfig,
    grid: SubcarrierGrid,
    band_edges: list[int],
    angles: list[float],
    scheme: WeightScheme = WeightScheme.UNIFORM,
) -> BeamTarget:
    """Piecewise-constant steering over index bands.

    ``band_edges`` holds the interior boundaries in ascending order; band ``j``
    covers indices from (and including) edge ``j-1`` up to (excluding) edge
    ``j``, so ``len(angles) == len(band_edges) + 1``.  With a single edge at 0
    this reduces to the half-band split target.
    """
    edges = [int(e) for e in band_edges]
    if len(angles) != len(edges) + 1:
        raise ValueError("need exactly one angle per band (len(angles) == len(band_edges) + 1)")
    lo = int(grid.indices[0])
    hi = int(grid.indices[-1])
    prev = lo
    for e in edges:
        if e <= prev or e > hi:
            raise ValueError(
                f"band edges must be strictly increasing and split {lo}..{hi}; got {edges}"
            )
        prev = e
    checked = np.array([check_angle(a, f"angles[{i}]") for i, a in enumerate(angles)])
    band = np.searchsorted(np.asarray(edges, dtype=np.int64), grid.indices, side="right")
    return _steered_target(config, grid, checked[band], scheme)


def custom_target(
    config: SystemConfig,
    grid: SubcarrierGrid,
    file: str | Path,
    rescale: bool = False,
    scheme: WeightScheme = WeightScheme.UNIFORM,
) -> BeamTarget:
    """Load a target from text: one subcarrier per line, M "re,im" pairs per line.

    Lines follow ascending subcarrier order.  Rows of zero norm are rejected.
    If the summed power exceeds the budget the whole set is scaled down when
    ``rescale`` is set, and rejected otherwise.
    """
    path = Path(file)
    rows: list[list[complex]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != config.num_antennas:
                raise ValueError(
                    f"{path}:{lineno}: expected {config.num_antennas} re,im pairs, got {len(tokens)}"
                )
            row = []
            for tok in tokens:
                parts = tok.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: malformed entry {tok!r} (want 're,im')")
                try:
                    row.append(complex(float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed entry {tok!r}: {exc}") from None
            rows.append(row)
    if len(rows) != grid.num_subcarriers:
        raise ValueError(
            f"{path}: expected {grid.num_subcarriers} subcarrier lines, got {len(rows)}"
        )
    vectors = np.asarray(rows, dtype=np.complex128)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        bad = int(grid.indices[int(np.argmin(norms))])
        raise ValueError(f"{path}: subcarrier {bad} is all zeros and cannot be normalized")
    total = float(np.sum(norms**2))
    if total > config.total_power * (1.0 + _POWER_TOL):
        if not rescale:
            raise ValueError(
                f"{path}: target power {total:g} exceeds the budget "
                f"{config.total_power:g}; pass rescale=True to scale it down"
            )
        vectors = vectors * math.sqrt(config.total_power / total)
        norms = norms * math.sqrt(config.total_power / total)
    return BeamTarget(
        vectors=vectors,
        weights=scheme.weights(norms),
        power_budget=config.total_power,
    )


def write_custom_target(file: str | Path, vectors: np.ndarray) -> None:
    """Write a (K, M) complex target in the plain-text custom-target format."""
    vec = np.asarray(vectors, dtype=np.complex128)
    with Path(file).open("w", encoding="utf-8") as fh:
        for row in vec:
            fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
            fh.write("\n")
