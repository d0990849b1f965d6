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

from .array_model import SubcarrierGrid, SystemConfig
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


def _check_fit(structure: HbfStructure, n_rf: int, num_antennas: int, iters: int, restarts: int) -> None:
    if n_rf < 1 or iters < 1 or restarts < 1:
        raise ValueError("n_rf, iters and restarts must be positive")
    if not chains_fit(structure, n_rf, num_antennas):
        rule = "not exceed" if structure is HbfStructure.FULLY_CONNECTED else "divide"
        raise ValueError(f"n_rf ({n_rf}) must {rule} the antenna count ({num_antennas})")


@dataclass(frozen=True, eq=False)
class TargetMatrix:
    """Target beams stacked column-wise in ascending subcarrier order."""

    matrix: np.ndarray
    power_budget: float

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        if mat.ndim != 2:
            raise ValueError("target matrix must be two-dimensional (M, K)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


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
        for name in ("analog", "digital", "residual_trace"):
            arr = np.asarray(getattr(self, name)).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def unit_effective_vectors(self) -> np.ndarray:
        """Per-subcarrier effective beams, each normalized to unit norm, as (K, M)."""
        eff = (self.analog @ self.digital).T
        norms = np.linalg.norm(eff, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("effective beam vanished on some subcarrier; cannot normalize")
        return eff / norms[:, None]


def _record_best(best, candidate):
    if best is None or candidate[-1] < best[-1]:
        return candidate
    return best


def pe_altmin_fc(
    target_matrix: TargetMatrix,
    n_rf: int,
    iters: int = _DEFAULT_ITERS,
    seed: int = 0,
    restarts: int = _DEFAULT_RESTARTS,
    init_analog: np.ndarray | None = None,
) -> HbfBeamformer:
    """Phase-extraction alternating fit with every antenna wired to every chain.

    Each restart draws uniform random analog phases (``init_analog``, when
    given, seeds the first restart instead, e.g. a lower-chain solution padded
    with fresh columns).  Per iteration the digital factor is the best
    semi-unitary-times-scale least-squares fit (SVD Procrustes), then analog
    phases take the phase of the target-digital cross term.  A final
    unconstrained digital least squares sharpens the best run before the power
    normalization.
    """
    b = target_matrix.matrix
    m, _ = b.shape
    _check_fit(HbfStructure.FULLY_CONNECTED, n_rf, m, iters, restarts)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        if r == 0 and init_analog is not None:
            analog = np.asarray(init_analog, dtype=np.complex128)
            if analog.shape != (m, n_rf):
                raise ValueError(f"init_analog must have shape {(m, n_rf)}")
            # keep the warm start itself in the running, in case alternation drifts
            digital = np.linalg.lstsq(analog, b, rcond=None)[0]
            residual = float(np.linalg.norm(b - analog @ digital))
            best = _record_best(best, (analog, digital, [residual], seed + r, residual))
        else:
            analog = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(m, n_rf)))
        trace: list[float] = []
        previous = math.inf
        for _ in range(iters):
            u, s, vh = np.linalg.svd(analog.conj().T @ b, full_matrices=False)
            digital = (s.sum() / (m * n_rf)) * (u @ vh)
            analog = np.exp(1j * np.angle(b @ digital.conj().T))
            residual = float(np.linalg.norm(b - analog @ digital))
            trace.append(residual)
            if previous - residual < _REL_STOP * max(previous, 1.0):
                break
            previous = residual
        digital = np.linalg.lstsq(analog, b, rcond=None)[0]
        trace.append(float(np.linalg.norm(b - analog @ digital)))
        best = _record_best(best, (analog, digital, trace, seed + r, trace[-1]))
    analog, digital, trace, kept_seed, residual = best
    digital = _normalize_power(analog, digital, target_matrix.power_budget)
    return HbfBeamformer(
        analog=analog,
        digital=digital,
        structure=HbfStructure.FULLY_CONNECTED,
        n_rf=n_rf,
        seed=kept_seed,
        residual=residual,
        residual_trace=np.asarray(trace),
    )


def altmin_pc(
    target_matrix: TargetMatrix,
    n_rf: int,
    iters: int = _DEFAULT_ITERS,
    seed: int = 0,
    restarts: int = _DEFAULT_RESTARTS,
) -> HbfBeamformer:
    """Alternating fit for disjoint sub-arrays, one chain per antenna block.

    The masked analog matrix has orthogonal columns, so the digital least
    squares is exact and per-block closed form; each nonzero analog entry then
    takes the phase of its matched cross term.  Same stopping, restart and
    normalization policy as the fully-connected fit.
    """
    b = target_matrix.matrix
    m, _ = b.shape
    _check_fit(HbfStructure.PARTIALLY_CONNECTED, n_rf, m, iters, restarts)
    block = m // n_rf
    owner = np.repeat(np.arange(n_rf), block)
    rows = np.arange(m)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        psi = rng.uniform(-np.pi, np.pi, size=(m,))
        analog = np.zeros((m, n_rf), dtype=np.complex128)
        analog[rows, owner] = np.exp(1j * psi)
        trace: list[float] = []
        previous = math.inf
        for _ in range(iters):
            digital = analog.conj().T @ b / block
            cross = b @ digital.conj().T
            analog = np.zeros((m, n_rf), dtype=np.complex128)
            analog[rows, owner] = np.exp(1j * np.angle(cross[rows, owner]))
            residual = float(np.linalg.norm(b - analog @ digital))
            trace.append(residual)
            if previous - residual < _REL_STOP * max(previous, 1.0):
                break
            previous = residual
        digital = analog.conj().T @ b / block
        trace.append(float(np.linalg.norm(b - analog @ digital)))
        best = _record_best(best, (analog, digital, trace, seed + r, trace[-1]))
    analog, digital, trace, kept_seed, residual = best
    digital = _normalize_power(analog, digital, target_matrix.power_budget)
    return HbfBeamformer(
        analog=analog,
        digital=digital,
        structure=HbfStructure.PARTIALLY_CONNECTED,
        n_rf=n_rf,
        seed=kept_seed,
        residual=residual,
        residual_trace=np.asarray(trace),
    )


def _normalize_power(analog: np.ndarray, digital: np.ndarray, power: float) -> np.ndarray:
    scale = np.linalg.norm(analog @ digital)
    if scale == 0.0:
        raise ValueError("fit collapsed to zero; cannot normalize transmit power")
    return digital * (math.sqrt(power) / scale)


def min_rf_chains(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta0: float,
    delta_theta: float,
) -> tuple[int, int]:
    """Minimum chain counts needed to replicate the swept beam, (full, partial).

    The fully-connected count follows the span of the swept spatial frequency
    across the band (clamped to at least one chain); the partially-connected
    structure needs the next power of two.
    """
    f = grid.frequencies
    f0 = config.carrier_freq
    span = abs(
        math.sin(theta0 + delta_theta / 2.0) * float(f[-1]) / f0
        - math.sin(theta0 - delta_theta / 2.0) * float(f[0]) / f0
    )
    r_fc = max(1, math.ceil(config.num_antennas / 2.0 * span - 1e-12))
    r_pc = 1 << max(0, math.ceil(math.log2(r_fc) - 1e-12))
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
