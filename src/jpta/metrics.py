"""Fit evaluation: matching objectives, goodness-of-fit, and report assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, _FrozenArrays, effective_beamformer_matrix
from .beam_targets import BeamTarget
from .design import JptaBeamformer

__all__ = [
    "FitReport",
    "objective_tilde",
    "analog_objective",
    "per_subcarrier_match",
    "fit_objective",
    "linear_to_db",
    "build_fit_report",
]

DB_FLOOR = -100.0


@dataclass(frozen=True, eq=False)
class FitReport(_FrozenArrays):
    """Evaluation record of one designed beamformer against its target; ``seed`` is the seed
    of a randomized fit, None for a deterministic one."""

    f_obj: float
    f_tilde_obj: float
    per_subcarrier_match: np.ndarray
    convergence_trace: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_obj <= 1.0:
            raise ValueError(f"goodness of fit {self.f_obj} outside [0, 1]")
        if self.f_tilde_obj < 0.0:
            raise ValueError("matching objective must be nonnegative")
        match = np.array(self.per_subcarrier_match, dtype=np.float64, order="C")
        if match.size and (match.min() < -1e-12 or match.max() > 1.0 + 1e-9):
            raise ValueError("per-subcarrier matches must lie in [0, 1]")
        trace = np.array(self.convergence_trace, dtype=np.float64, order="C")
        self._store_frozen(per_subcarrier_match=match, convergence_trace=trace)

    @property
    def iterations(self) -> int:
        return int(self.convergence_trace.size)


def objective_tilde(
    config: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    bf: JptaBeamformer,
    beams: np.ndarray | None = None,
) -> float:
    """Full matching objective: power mismatch plus weighted beam mismatch, averaged over K.

    ``beams`` are the (K, M) beams ``bf`` realizes, built here when not given.
    """
    if beams is None:
        beams = effective_beamformer_matrix(config, grid, bf)
    power_term = (target.norms - np.abs(bf.alpha)) ** 2
    rotated = beams * np.exp(1j * np.angle(bf.alpha))[:, None]
    beam_term = target.weights * np.sum(np.abs(target.unit_vectors - rotated) ** 2, axis=1)
    return float((power_term + beam_term).sum() / config.num_subcarriers)


def analog_objective(
    config: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    bf: JptaBeamformer,
) -> float:
    """Weighted real-part alignment between target and realized analog beams."""
    beams = effective_beamformer_matrix(config, grid, bf)
    inner = np.einsum("km,km->k", np.conj(target.unit_vectors), beams)
    return float(np.sum(target.weights * np.real(np.exp(1j * np.angle(bf.alpha)) * inner)))


def per_subcarrier_match(target: BeamTarget, beams: np.ndarray) -> np.ndarray:
    """|bbar_k^H w_k| per subcarrier for unit-norm beams ``w_k``."""
    w = np.asarray(beams)
    if w.shape != target.unit_vectors.shape:
        raise ValueError(f"expected beams of shape {target.unit_vectors.shape}, got {w.shape}")
    return np.abs(np.einsum("km,km->k", np.conj(target.unit_vectors), w))


def fit_objective(target: BeamTarget, beams: np.ndarray) -> float:
    """Goodness of fit in [0, 1]: weighted mean of the per-subcarrier matches.

    Requires unit-norm beams; a non-unit row signals a normalization bug in
    the caller and raises.
    """
    w = np.asarray(beams)
    norms = np.linalg.norm(w, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"beam row {worst} has norm {norms[worst]:.9f}; expected unit norm")
    match = per_subcarrier_match(target, w)
    value = float(np.sum(target.weights * match) / np.sum(target.weights))
    return min(value, 1.0)


def linear_to_db(x: np.ndarray | float, floor: float = DB_FLOOR) -> np.ndarray | float:
    """10*log10 with a finite floor so zero gains stay representable."""
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.full(arr.shape, floor)
    pos = arr > 0.0
    out[pos] = np.maximum(10.0 * np.log10(arr[pos]), floor)
    return float(out[0]) if scalar else out


def build_fit_report(
    config: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    bf: JptaBeamformer,
    convergence_trace: np.ndarray | None = None,
    seed: int | None = None,
    beams: np.ndarray | None = None,
) -> FitReport:
    """Fit report of ``bf``; ``beams`` are the (K, M) beams it realizes, built here when not given."""
    if beams is None:
        beams = effective_beamformer_matrix(config, grid, bf)
    return FitReport(
        f_obj=fit_objective(target, beams),
        f_tilde_obj=objective_tilde(config, grid, target, bf, beams),
        per_subcarrier_match=per_subcarrier_match(target, beams),
        convergence_trace=np.asarray([] if convergence_trace is None else convergence_trace),
        seed=seed,
    )
