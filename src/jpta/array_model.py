"""Physical model of a joint phase-time array: geometry, OFDM grid, array gain.

A uniform linear array of ``M`` half-wavelength-spaced antennas is fed from one
RF chain through ``N <= M`` tunable delay lines; every antenna additionally has
its own phase-shifter.  All quantities are kept in base units internally:
hertz, seconds, radians and linear power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .design import JptaBeamformer

__all__ = [
    "SystemConfig",
    "SubcarrierGrid",
    "check_angle",
    "check_sweep",
    "contiguous_ttd_groups",
    "build_grid",
    "steering_ratio",
    "steering_vectors",
    "delay_response",
    "effective_beamformer_matrix",
    "gain_map",
    "default_theta_grid",
]


def _store_frozen(obj, **arrays: np.ndarray) -> None:
    """Make each array read-only and store it as the frozen field of its name on ``obj``."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def contiguous_ttd_groups(num_antennas: int, num_ttds: int) -> tuple[tuple[int, ...], ...]:
    """Default delay-line mapping: N contiguous blocks of M/N antennas each.

    Antenna numbers are 1-based; block ``n`` holds antennas
    ``(n-1)*M/N + 1 .. n*M/N``.  Requires ``num_ttds`` to divide
    ``num_antennas``.
    """
    if num_antennas % num_ttds != 0:
        raise ValueError(
            f"default contiguous mapping needs num_ttds ({num_ttds}) to divide "
            f"num_antennas ({num_antennas}); pass ttd_groups explicitly otherwise"
        )
    size = num_antennas // num_ttds
    return tuple(
        tuple(range(n * size + 1, (n + 1) * size + 1)) for n in range(num_ttds)
    )


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Array geometry, delay-line network topology, band plan and power budget.

    ``delay_range`` is the dimensionless tuning-range parameter: each delay
    line covers ``[0, delay_range / bandwidth]`` seconds.  ``ttd_groups`` lists
    the 1-based antenna numbers driven by each delay line and defaults to
    contiguous blocks.  ``total_power`` defaults to ``num_subcarriers`` so the
    stock targets carry unit norm per subcarrier.  The line layout is derived
    once as read-only arrays: ``line_columns``, the 0-based antenna columns,
    line after line in each group's listed order; ``line_starts``, where each
    line's run starts; ``antenna_line``, each antenna's 0-based line.
    """

    num_antennas: int
    num_ttds: int
    carrier_freq: float
    bandwidth: float
    num_subcarriers: int
    delay_range: float
    total_power: float | None = None
    ttd_groups: tuple[tuple[int, ...], ...] | None = None
    line_columns: np.ndarray = field(init=False, repr=False)
    line_starts: np.ndarray = field(init=False, repr=False)
    antenna_line: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be a positive integer")
        if not 1 <= self.num_ttds <= self.num_antennas:
            raise ValueError("num_ttds must satisfy 1 <= N <= M")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be a positive integer")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.carrier_freq <= self.bandwidth / 2.0:
            raise ValueError("carrier_freq must exceed half the bandwidth")
        if self.delay_range < 0.0:
            raise ValueError("delay_range must be nonnegative")
        if self.total_power is None:
            object.__setattr__(self, "total_power", float(self.num_subcarriers))
        if self.total_power <= 0.0:
            raise ValueError("total_power must be positive")
        if self.ttd_groups is None:
            object.__setattr__(
                self,
                "ttd_groups",
                contiguous_ttd_groups(self.num_antennas, self.num_ttds),
            )
        else:
            groups = tuple(tuple(int(m) for m in g) for g in self.ttd_groups)
            object.__setattr__(self, "ttd_groups", groups)
        self._validate_groups()
        sizes = [len(g) for g in self.ttd_groups]
        columns = np.array([m - 1 for g in self.ttd_groups for m in g], dtype=np.intp)
        antenna_line = np.repeat(np.arange(self.num_ttds), sizes)[np.argsort(columns)]  # columns is a permutation
        starts = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        _store_frozen(self, line_columns=columns, line_starts=starts, antenna_line=antenna_line)

    def _validate_groups(self) -> None:
        groups = self.ttd_groups
        if len(groups) != self.num_ttds:
            raise ValueError(f"expected {self.num_ttds} antenna groups, got {len(groups)}")
        seen: set[int] = set()
        for n, group in enumerate(groups, start=1):
            if not group:
                raise ValueError(f"antenna group {n} is empty")
            for m in group:
                if not 1 <= m <= self.num_antennas:
                    raise ValueError(f"antenna number {m} in group {n} out of range 1..{self.num_antennas}")
                if m in seen:
                    raise ValueError(f"antenna number {m} appears in more than one group")
                seen.add(m)
        if len(seen) != self.num_antennas:
            raise ValueError("antenna groups must cover every antenna exactly once")

    @property
    def max_delay(self) -> float:
        """Upper end of the per-delay-line tuning range, in seconds."""
        return self.delay_range / self.bandwidth


@dataclass(frozen=True, eq=False)
class SubcarrierGrid:
    """Integer subcarrier indices (centered on 0) and their absolute frequencies."""

    indices: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.int64, order="C")
        freq = np.array(self.frequencies, dtype=np.float64, order="C")
        if idx.shape != freq.shape or idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices and frequencies must be matching nonempty 1-D arrays")
        k = idx.size
        if idx[0] != -(k // 2) or np.any(np.diff(idx) != 1):
            raise ValueError("subcarrier indices must run floor((1-K)/2)..floor((K-1)/2)")
        _store_frozen(self, indices=idx, frequencies=freq)

    @property
    def num_subcarriers(self) -> int:
        return int(self.indices.size)

    def position(self, k: int) -> int:
        """Row position of subcarrier index ``k``; raises if absent."""
        pos = int(k) - int(self.indices[0])
        if not 0 <= pos < self.indices.size or int(self.indices[pos]) != int(k):
            raise ValueError(f"subcarrier index {k} is not on the grid")
        return pos

    def frequency(self, k: int) -> float:
        return float(self.frequencies[self.position(k)])


def check_angle(theta: float, name: str) -> float:
    """``theta`` as a float, or a ValueError naming ``name`` in degrees if it leaves [-pi/2, pi/2]."""
    theta = float(theta)
    if not -math.pi / 2 <= theta <= math.pi / 2:
        raise ValueError(f"{name}: {math.degrees(theta):.10g} deg outside the field of view [-90, 90]")
    return theta


def check_sweep(theta0: float, delta_theta: float, name: str = "theta0", width: str = "delta_theta") -> None:
    """Check both edges ``theta0 -/+ |delta_theta|/2`` of a swept beam; the width may exceed pi/2."""
    half = abs(delta_theta) / 2.0
    check_angle(theta0 - half, f"{name} - {width}/2")
    check_angle(theta0 + half, f"{name} + {width}/2")


def build_grid(config: SystemConfig) -> SubcarrierGrid:
    """Centered OFDM grid: indices floor((1-K)/2)..floor((K-1)/2), f_k = f0 + k*W/K."""
    k = config.num_subcarriers
    indices = np.arange(-(k // 2), (k - 1) // 2 + 1, dtype=np.int64)
    freqs = config.carrier_freq + indices * (config.bandwidth / k)
    return SubcarrierGrid(indices=indices, frequencies=freqs)


def steering_vectors(
    config: SystemConfig,
    freqs: np.ndarray | float,
    thetas: np.ndarray | float,
) -> np.ndarray:
    """Plane-wave responses ``exp(j*pi*m*sin(theta)*f/f0)``, m = 0..M-1.

    ``freqs`` and ``thetas`` broadcast against each other; the result has
    their broadcast shape plus a trailing antenna axis.  Targets and the
    closed-form designs' digital alignment evaluate it here.
    """
    ratio = steering_ratio(config, freqs, thetas)
    return np.exp(1j * (np.pi * np.multiply.outer(ratio, np.arange(config.num_antennas))))


def steering_ratio(
    config: SystemConfig,
    freqs: np.ndarray | float,
    thetas: np.ndarray | float,
) -> np.ndarray:
    """``sin(theta)*f/f0``, the plane-wave phase step between adjacent antennas in units of pi.

    ``steering_vectors`` and ``gain_map`` both form it here, so their
    steering phases round the same way.
    """
    return np.sin(thetas) * (np.asarray(freqs) / config.carrier_freq)


def delay_response(freqs: np.ndarray | float, taus) -> np.ndarray:
    """(K, T) delay factors ``e^{-j 2 pi f_k tau_t}`` in one complex array: the one delay-to-phase model."""
    table = np.empty((np.size(freqs), np.size(taus)), dtype=np.complex128)
    np.multiply.outer(freqs, taus, out=table)
    table *= -2j * np.pi
    return np.exp(table, out=table)


def effective_beamformer_matrix(
    config: SystemConfig,
    grid: SubcarrierGrid,
    bf: "JptaBeamformer",
) -> np.ndarray:
    """All K unit-norm analog beams as a (K, M) array, rows in grid order."""
    if bf.phases.shape != (config.num_antennas,):
        raise ValueError(f"expected {config.num_antennas} phase-shifter values, got {bf.phases.shape}")
    if bf.delays.shape != (config.num_ttds,):
        raise ValueError(f"expected {config.num_ttds} delay values, got {bf.delays.shape}")
    response = delay_response(grid.frequencies, bf.delays)[:, config.antenna_line]
    return response * (np.exp(1j * bf.phases) / math.sqrt(config.num_antennas))


def default_theta_grid(step_deg: float = 1.0) -> np.ndarray:
    """Angle grid for gain maps: [-90, 90] degrees in ``step_deg`` steps, radians."""
    degs = np.arange(-90.0, 90.0 + step_deg / 2.0, step_deg)
    return np.deg2rad(degs)


_GAIN_MAP_BLOCK = 16  # angles per Horner pass of gain_map


def gain_map(
    config: SystemConfig,
    grid: SubcarrierGrid,
    beams: np.ndarray,
    theta_grid: np.ndarray,
) -> np.ndarray:
    """Array gain of per-subcarrier beams over an angle grid.

    ``beams`` is (K, M) with row order matching the grid; the result is
    (K, len(theta_grid)) with entry (k, t) equal to ``|a_k(theta_t)^H w_k|^2``, where
    ``w_k = beams[k]`` and ``a_k(theta) = steering_vectors(config, f_k, theta)``.  Horner's rule
    evaluates ``a^H w_k = sum_m w_km z^m`` with ``z = exp(-j*pi*sin(theta)*f_k/f0)``:
    one exponential per cell, not one per antenna.
    """
    w = np.asarray(beams, dtype=np.complex128)
    kn = grid.num_subcarriers
    if w.shape != (kn, config.num_antennas):
        raise ValueError(f"expected beams of shape {(kn, config.num_antennas)}, got {w.shape}")
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=np.float64))
    if thetas.size == 0:
        raise ValueError("theta grid must not be empty")
    out = np.empty((kn, thetas.size))
    freqs = grid.frequencies[:, None]
    # blocks of angles keep the working set near K*M, not K*T
    for lo in range(0, thetas.size, _GAIN_MAP_BLOCK):
        z = np.exp(-1j * (np.pi * steering_ratio(config, freqs, thetas[lo:lo + _GAIN_MAP_BLOCK])))
        acc = np.repeat(w[:, -1:], z.shape[1], axis=1)
        for m in range(config.num_antennas - 2, -1, -1):
            acc *= z
            acc += w[:, m:m + 1]
        out[:, lo:lo + _GAIN_MAP_BLOCK] = np.abs(acc) ** 2
    return out
