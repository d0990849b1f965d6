"""Physical model of a joint phase-time array: geometry, OFDM grid, array gain.

A uniform linear array of ``M`` half-wavelength-spaced antennas is fed from one
RF chain through ``N <= M`` tunable delay lines; every antenna additionally has
its own phase-shifter.  All quantities are kept in base units internally:
hertz, seconds, radians and linear power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .design import JptaBeamformer

__all__ = [
    "SystemConfig",
    "SubcarrierGrid",
    "SteeringAngle",
    "contiguous_ttd_groups",
    "build_grid",
    "steering_vectors",
    "array_response",
    "effective_beamformer",
    "effective_beamformer_matrix",
    "array_gain",
    "gain_map",
    "default_theta_grid",
]


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
    stock targets carry unit norm per subcarrier.
    """

    num_antennas: int
    num_ttds: int
    carrier_freq: float
    bandwidth: float
    num_subcarriers: int
    delay_range: float
    total_power: float | None = None
    ttd_groups: tuple[tuple[int, ...], ...] | None = None

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

    def group_indices(self) -> list[np.ndarray]:
        """0-based antenna index array per delay line."""
        return [np.asarray(g, dtype=np.intp) - 1 for g in self.ttd_groups]

    def ttd_index_per_antenna(self) -> np.ndarray:
        """0-based delay-line index for each antenna (length M)."""
        out = np.empty(self.num_antennas, dtype=np.intp)
        for n, group in enumerate(self.ttd_groups):
            for m in group:
                out[m - 1] = n
        return out


@dataclass(frozen=True, eq=False)
class SubcarrierGrid:
    """Integer subcarrier indices (centered on 0) and their absolute frequencies."""

    indices: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        freq = np.asarray(self.frequencies, dtype=np.float64)
        if idx.shape != freq.shape or idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices and frequencies must be matching nonempty 1-D arrays")
        k = idx.size
        if idx[0] != -(k // 2) or np.any(np.diff(idx) != 1):
            raise ValueError("subcarrier indices must run floor((1-K)/2)..floor((K-1)/2)")
        idx.setflags(write=False)
        freq.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "frequencies", freq)

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


@dataclass(frozen=True)
class SteeringAngle:
    """Departure angle in radians, limited to the linear array's field of view."""

    theta: float

    def __post_init__(self) -> None:
        if not -math.pi / 2 <= self.theta <= math.pi / 2:
            raise ValueError(f"steering angle {self.theta} rad outside [-pi/2, pi/2]")


def _as_radians(theta: float | SteeringAngle) -> float:
    if isinstance(theta, SteeringAngle):
        return theta.theta
    return float(theta)


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
    their broadcast shape plus a trailing antenna axis.  Targets, the
    closed-form designs' digital alignment and gain maps all evaluate it
    here, so their steering phases round the same way.
    """
    ratio = np.sin(thetas) * (np.asarray(freqs) / config.carrier_freq)
    return np.exp(1j * (np.pi * np.multiply.outer(ratio, np.arange(config.num_antennas))))


def array_response(
    config: SystemConfig,
    grid: SubcarrierGrid,
    k: int,
    theta: float | SteeringAngle,
) -> np.ndarray:
    """Plane-wave response of the array at subcarrier ``k`` toward ``theta``.

    Element ``m`` (1-based) is ``exp(j*(m-1)*pi*sin(theta)*f_k/f0)``; the
    half-wavelength spacing is set at the carrier, so off-carrier subcarriers
    pick up the beam-squint factor ``f_k/f0``.
    """
    return steering_vectors(config, grid.frequency(k), _as_radians(theta))


def effective_beamformer(
    config: SystemConfig,
    grid: SubcarrierGrid,
    bf: "JptaBeamformer",
    k: int,
) -> np.ndarray:
    """Unit-norm analog beam at subcarrier ``k`` realized by delays and phases."""
    pos = grid.position(k)
    return effective_beamformer_matrix(config, grid, bf)[pos]


def effective_beamformer_matrix(
    config: SystemConfig,
    grid: SubcarrierGrid,
    bf: "JptaBeamformer",
) -> np.ndarray:
    """All K unit-norm analog beams as a (K, M) array, rows in grid order."""
    phases = np.asarray(bf.phases, dtype=np.float64)
    delays = np.asarray(bf.delays, dtype=np.float64)
    if phases.shape != (config.num_antennas,):
        raise ValueError(f"expected {config.num_antennas} phase-shifter values, got {phases.shape}")
    if delays.shape != (config.num_ttds,):
        raise ValueError(f"expected {config.num_ttds} delay values, got {delays.shape}")
    tau_per_antenna = delays[config.ttd_index_per_antenna()]
    f = grid.frequencies
    phase = phases[None, :] - 2.0 * np.pi * np.outer(f, tau_per_antenna)
    return np.exp(1j * phase) / math.sqrt(config.num_antennas)


def array_gain(
    config: SystemConfig,
    grid: SubcarrierGrid,
    w_k: np.ndarray,
    k: int,
    theta: float | SteeringAngle,
) -> float:
    """Array gain |a_k(theta)^H w_k|^2 of a beam vector at one (k, theta) pair."""
    w = np.asarray(w_k)
    if w.shape != (config.num_antennas,):
        raise ValueError(f"beam vector must have length {config.num_antennas}")
    a = array_response(config, grid, k, theta)
    return float(np.abs(np.vdot(a, w)) ** 2)


def default_theta_grid(step_deg: float = 1.0) -> np.ndarray:
    """Angle grid for gain maps: [-90, 90] degrees in ``step_deg`` steps, radians."""
    degs = np.arange(-90.0, 90.0 + step_deg / 2.0, step_deg)
    return np.deg2rad(degs)


def gain_map(
    config: SystemConfig,
    grid: SubcarrierGrid,
    beams: np.ndarray,
    theta_grid: np.ndarray,
) -> np.ndarray:
    """Array gain of per-subcarrier beams over an angle grid.

    ``beams`` is (K, M) with row order matching the grid; the result is
    (K, len(theta_grid)) with entry (k, t) equal to
    ``array_gain(config, grid, beams[k], k, theta_grid[t])``.
    """
    w = np.asarray(beams)
    kn = grid.num_subcarriers
    if w.shape != (kn, config.num_antennas):
        raise ValueError(f"expected beams of shape {(kn, config.num_antennas)}, got {w.shape}")
    thetas = np.atleast_1d(np.asarray(theta_grid, dtype=np.float64))
    if thetas.size == 0:
        raise ValueError("theta grid must not be empty")
    out = np.empty((kn, thetas.size))
    for t, th in enumerate(thetas):
        # one (K, M) block per angle keeps memory at K*M, not K*T*M
        a = steering_vectors(config, grid.frequencies, th)
        out[:, t] = np.abs(np.sum(np.conj(a) * w, axis=1)) ** 2
    return out
