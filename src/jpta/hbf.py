"""Conventional hybrid-beamforming baselines with a frequency-flat analog stage.

Both structures fit the stacked target matrix with an alternating scheme.  The
fully-connected fit keeps the digital factor semi-unitary during alternation
(Procrustes step plus optimal scale) and finishes with one unconstrained
least-squares digital solve; the partially-connected fit alternates exact
block least squares with per-entry phase extraction under its sparsity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, _store_frozen
from .beam_targets import BeamTarget

__all__ = [
    "HbfStructure",
    "TargetMatrix",
    "HbfBeamformer",
    "stack_target",
    "pe_altmin_fc",
    "altmin_pc",
    "chains_fit",
    "min_rf_chains",
    "orthogonal_column_count",
]

_DEFAULT_ITERS = 50
_DEFAULT_RESTARTS = 5
_REL_STOP = 1e-8  # stop alternating once the relative residual improvement drops below this


class HbfStructure(str, Enum):
    FULLY_CONNECTED = "fc"
    PARTIALLY_CONNECTED = "pc"


def chains_fit(structure: HbfStructure | str, n_rf: int, num_antennas: int) -> bool:
    """The one chain-count rule of both fits: at least one chain and at most one per antenna,
    and partially connected chains split the array evenly."""
    return 1 <= n_rf <= num_antennas and (
        HbfStructure(structure) is HbfStructure.FULLY_CONNECTED or num_antennas % n_rf == 0
    )


def _check_fit(structure: HbfStructure, num_antennas: int, n_rf: int, iters: int = _DEFAULT_ITERS,
               restarts: int = _DEFAULT_RESTARTS, seed: int = 0) -> None:
    """A ValueError unless a fit of ``structure`` takes these arguments on ``num_antennas`` antennas."""
    if n_rf < 1 or iters < 1 or restarts < 1:
        raise ValueError("n_rf, iters and restarts must be positive")
    if seed < 0:
        raise ValueError(f"seed ({seed}) must be non-negative")
    if not chains_fit(structure, n_rf, num_antennas):
        rule = "not exceed" if structure is HbfStructure.FULLY_CONNECTED else "divide"
        raise ValueError(f"n_rf ({n_rf}) must {rule} the antenna count ({num_antennas})")


@dataclass(frozen=True, eq=False)
class TargetMatrix:
    """Target beams stacked column-wise in ascending subcarrier order."""

    matrix: np.ndarray
    power_budget: float

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128, order="C")
        if mat.ndim != 2:
            raise ValueError("target matrix must be two-dimensional (M, K)")
        _store_frozen(self, matrix=mat)


def stack_target(target: BeamTarget) -> TargetMatrix:
    return TargetMatrix(matrix=target.vectors.T, power_budget=target.power_budget)


@dataclass(frozen=True, eq=False)
class HbfBeamformer:
    """Frequency-flat analog matrix plus per-subcarrier digital vectors."""

    analog: np.ndarray
    digital: np.ndarray
    structure: HbfStructure
    n_rf: int
    seed: int
    residual: float
    residual_trace: np.ndarray

    def __post_init__(self) -> None:
        _store_frozen(self, analog=np.array(self.analog, order="C"), digital=np.array(self.digital, order="C"),
                      residual_trace=np.array(self.residual_trace, order="C"))

    def unit_effective_vectors(self) -> np.ndarray:
        """Per-subcarrier effective beams, each normalized to unit norm, as (K, M)."""
        eff = (self.analog @ self.digital).T
        norms = np.linalg.norm(eff, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("effective beam vanished on some subcarrier; cannot normalize")
        return eff / norms[:, None]


def _alternating_fit(target_matrix: TargetMatrix, structure: HbfStructure, n_rf: int, iters: int, seed: int,
                     restarts: int, draw, step, solve) -> HbfBeamformer:
    """The restart, stopping, keep-best and normalization policy of both fits.

    Restart r starts from ``draw(rng, M, n_rf)``, ``rng`` seeded ``seed + r``.  A run
    repeats ``step(b, analog) -> (analog, digital)`` up to ``iters`` times, until
    the residual improves by less than ``_REL_STOP`` relative, then takes the
    exact ``solve(b, analog)``.  The first run with the least final residual wins.
    """
    b = target_matrix.matrix
    m = b.shape[0]
    _check_fit(structure, m, n_rf, iters, restarts, seed)

    def runs():  # (final residual, restart seed, residual trace, analog, digital) per candidate
        for r in range(restarts):
            analog = draw(np.random.default_rng(seed + r), m, n_rf)
            trace: list[float] = []
            previous = math.inf
            for _ in range(iters):
                analog, digital = step(b, analog)
                residual = float(np.linalg.norm(b - analog @ digital))
                trace.append(residual)
                if previous - residual < _REL_STOP * max(previous, 1.0):
                    break
                previous = residual
            digital = solve(b, analog)
            trace.append(float(np.linalg.norm(b - analog @ digital)))
            yield trace[-1], seed + r, trace, analog, digital

    residual, kept_seed, trace, analog, digital = min(runs(), key=lambda run: run[0])
    scale = np.linalg.norm(analog @ digital)
    if scale == 0.0:
        raise ValueError("fit collapsed to zero; cannot normalize transmit power")
    return HbfBeamformer(analog=analog, digital=digital * (math.sqrt(target_matrix.power_budget) / scale),
                         structure=structure, n_rf=n_rf, seed=kept_seed, residual=residual,
                         residual_trace=np.asarray(trace))


def _fc_draw(rng: np.random.Generator, m: int, n_rf: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(-np.pi, np.pi, size=(m, n_rf)))


def _fc_step(b: np.ndarray, analog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m, n_rf = analog.shape
    u, s, vh = np.linalg.svd(analog.conj().T @ b, full_matrices=False)
    digital = (s.sum() / (m * n_rf)) * (u @ vh)
    return np.exp(1j * np.angle(b @ digital.conj().T)), digital


def _fc_solve(b: np.ndarray, analog: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(analog, b, rcond=None)[0]


def pe_altmin_fc(
    target_matrix: TargetMatrix,
    n_rf: int,
    iters: int = _DEFAULT_ITERS,
    seed: int = 0,
    restarts: int = _DEFAULT_RESTARTS,
) -> HbfBeamformer:
    """Phase-extraction alternating fit with every antenna wired to every chain.

    Each restart draws uniform random analog phases.  Per iteration the
    digital factor is the best semi-unitary-times-scale least-squares fit (SVD
    Procrustes), then analog phases take the phase of the target-digital cross
    term.  A final unconstrained digital least squares sharpens each run before
    the power normalization.
    """
    return _alternating_fit(target_matrix, HbfStructure.FULLY_CONNECTED, n_rf, iters, seed, restarts,
                            _fc_draw, _fc_step, _fc_solve)


def _pc_entries(m: int, n_rf: int) -> tuple[np.ndarray, np.ndarray]:
    """(antenna, chain) indices of the nonzero analog entries: each chain drives M / n_rf adjacent antennas."""
    return np.arange(m), np.arange(m) // (m // n_rf)


def _pc_analog(phases: np.ndarray, n_rf: int) -> np.ndarray:
    analog = np.zeros((phases.size, n_rf), dtype=np.complex128)
    analog[_pc_entries(phases.size, n_rf)] = np.exp(1j * phases)
    return analog


def _pc_draw(rng: np.random.Generator, m: int, n_rf: int) -> np.ndarray:
    return _pc_analog(rng.uniform(-np.pi, np.pi, size=(m,)), n_rf)


def _pc_solve(b: np.ndarray, analog: np.ndarray) -> np.ndarray:
    return analog.conj().T @ b / (b.shape[0] // analog.shape[1])


def _pc_step(b: np.ndarray, analog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    digital = _pc_solve(b, analog)
    cross = b @ digital.conj().T
    return _pc_analog(np.angle(cross[_pc_entries(*analog.shape)]), analog.shape[1]), digital


def altmin_pc(
    target_matrix: TargetMatrix,
    n_rf: int,
    iters: int = _DEFAULT_ITERS,
    seed: int = 0,
    restarts: int = _DEFAULT_RESTARTS,
) -> HbfBeamformer:
    """Alternating fit for disjoint sub-arrays, one chain per antenna block.

    Each restart draws uniform random phases on the block-diagonal mask.  The
    masked analog matrix has orthogonal columns, so the digital least squares
    is exact and per-block closed form; each nonzero analog entry then takes
    the phase of its matched cross term.
    """
    return _alternating_fit(target_matrix, HbfStructure.PARTIALLY_CONNECTED, n_rf, iters, seed, restarts,
                            _pc_draw, _pc_step, _pc_solve)


def min_rf_chains(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta0: float,
    delta_theta: float,
) -> tuple[int, int]:
    """Minimum chain counts needed to replicate the swept beam, (full, partial).

    The fully-connected count follows the span of the swept spatial frequency
    across the band (clamped to at least one chain); the partially-connected
    count is the smallest one at or above it that ``chains_fit`` accepts, i.e.
    the next divisor of the antenna count.
    """
    m = config.num_antennas
    f = grid.frequencies
    f0 = config.carrier_freq
    span = abs(
        math.sin(theta0 + delta_theta / 2.0) * float(f[-1]) / f0
        - math.sin(theta0 - delta_theta / 2.0) * float(f[0]) / f0
    )
    r_fc = max(1, math.ceil(m / 2.0 * span - 1e-12))
    # stops by M, which divides itself: r_fc <= M as the span is at most (f[0] + f[-1]) / f0 <= 2
    r_pc = next(n for n in range(r_fc, m + 1) if chains_fit(HbfStructure.PARTIALLY_CONNECTED, n, m))
    return r_fc, r_pc


def orthogonal_column_count(b: np.ndarray, num_antennas: int) -> int:
    """Size of a mutually orthogonal column subset, selected by spatial-frequency spacing.

    Each column of a swept-beam target is a uniform phase ramp; two ramps are
    orthogonal when their normalized spatial frequencies differ by a multiple
    of 2/M.  Columns are picked greedily at that spacing, nearest-first, from
    the recovered frequency of every column.
    """
    mat = np.asarray(b, dtype=np.complex128)
    m = int(num_antennas)
    if mat.shape[0] != m:
        raise ValueError(f"matrix has {mat.shape[0]} rows; expected {m}")
    if m < 2 or mat.shape[1] < 2:
        return 1
    ratios = mat[1:, :] * np.conj(mat[:-1, :])
    omega = np.sort(np.angle(ratios.sum(axis=0)) / np.pi)
    spacing = 2.0 / m
    span = float(omega[-1] - omega[0])
    steps = int(math.floor(span / spacing + 1e-8))
    targets = omega[0] + spacing * np.arange(steps + 1)
    picked = set()
    for t in targets:
        pos = int(np.searchsorted(omega, t))
        lo = max(pos - 1, 0)
        hi = min(pos, omega.size - 1)
        picked.add(lo if abs(t - omega[lo]) <= abs(omega[hi] - t) else hi)
    return len(picked)
