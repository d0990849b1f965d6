"""Closed-form baseline designs for the swept and split beam behaviors."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, steering_vectors
from .design import JptaBeamformer, _digital_alignment, shift_nonnegative, wrap_angle

__all__ = [
    "Behavior",
    "HeuristicParams",
    "heuristic_behavior1",
    "heuristic_behavior2",
    "required_delay_budget",
]


_CANCEL_TOL = 1e-12  # midpoint-beam entries below this count as cancelled


class Behavior(str, Enum):
    ONE = "one"
    TWO = "two"


@dataclass(frozen=True)
class HeuristicParams:
    """Angles of a closed-form design; swept (theta0, delta_theta) or split (theta1, theta2)."""

    behavior: Behavior
    theta0: float | None = None
    delta_theta: float | None = None
    theta1: float | None = None
    theta2: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "behavior", Behavior(self.behavior))
        if self.behavior is Behavior.ONE:
            if self.theta0 is None or self.delta_theta is None:
                raise ValueError("swept behavior needs theta0 and delta_theta")
            _check_fov(self.theta0 - abs(self.delta_theta) / 2.0, "theta0 - delta_theta/2")
            _check_fov(self.theta0 + abs(self.delta_theta) / 2.0, "theta0 + delta_theta/2")
        else:
            if self.theta1 is None or self.theta2 is None:
                raise ValueError("split behavior needs theta1 and theta2")
            _check_fov(self.theta1, "theta1")
            _check_fov(self.theta2, "theta2")

    def midpoint_beam(self, num_antennas: int) -> np.ndarray:
        """Unit-norm sum of the two split-band steering responses (split behavior only)."""
        if self.behavior is not Behavior.TWO:
            raise ValueError("midpoint beam only exists for the split behavior")
        return _midpoint_beam(num_antennas, self.theta1, self.theta2)


def _check_fov(theta: float, name: str) -> None:
    if not -math.pi / 2 <= theta <= math.pi / 2:
        raise ValueError(f"{name} = {theta} rad outside [-pi/2, pi/2]")


@functools.lru_cache(maxsize=64)
def _midpoint_beam(num_antennas: int, theta_a: float, theta_b: float) -> np.ndarray:
    m = np.arange(1, num_antennas + 1)
    beam = (
        np.exp(1j * np.pi * m * math.sin(theta_a)) + np.exp(1j * np.pi * m * math.sin(theta_b))
    ) / math.sqrt(2 * num_antennas)
    beam.setflags(write=False)
    return beam


def heuristic_behavior1(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta0: float,
    delta_theta: float,
    nonnegative: bool = True,
) -> JptaBeamformer:
    """Closed-form delays and phases for the linearly swept beam.

    Each delay line takes the mean of its antennas' target phase-vs-frequency
    slopes; the phase-shifters pin an exact match at the center subcarrier.
    """
    _check_fov(theta0 - abs(delta_theta) / 2.0, "theta0 - delta_theta/2")
    _check_fov(theta0 + abs(delta_theta) / 2.0, "theta0 + delta_theta/2")
    f = grid.frequencies
    f_min, f_max = float(f[0]), float(f[-1])
    slope = (
        math.sin(theta0 - delta_theta / 2.0) * f_min
        - math.sin(theta0 + delta_theta / 2.0) * f_max
    ) / (2.0 * config.bandwidth * config.carrier_freq)
    tau = np.array([slope * np.mean(np.asarray(g, dtype=np.float64)) for g in config.ttd_groups])
    tau -= tau.mean()
    half = config.delay_range / (2.0 * config.bandwidth)
    tau = np.clip(tau, -half, half)
    m0 = np.arange(config.num_antennas)  # (m - 1) for 1-based antenna m
    phi = np.asarray(
        wrap_angle(
            np.pi * m0 * math.sin(theta0)
            + 2.0 * np.pi * config.carrier_freq * tau[config.ttd_index_per_antenna()]
        ),
        dtype=np.float64,
    )
    angles = theta0 + grid.indices * (delta_theta / config.num_subcarriers)
    return _assemble(config, grid, tau, phi, angles_per_subcarrier=angles, nonnegative=nonnegative)


def heuristic_behavior2(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta1: float,
    theta2: float,
    nonnegative: bool = True,
    single_angle_midpoint: bool = False,
) -> JptaBeamformer:
    """Closed-form delays and phases for the half-band split beam.

    Delays come from a linear-phase approximation of the per-antenna step
    response, anchored on the midpoint beam (the sum of the two steering
    responses) and its rotation at the one-third subcarrier.  With
    ``single_angle_midpoint`` the midpoint beam uses the second angle in both
    terms instead of summing the two responses.
    """
    _check_fov(theta1, "theta1")
    _check_fov(theta2, "theta2")
    m = np.arange(1, config.num_antennas + 1)
    first_angle = theta2 if single_angle_midpoint else theta1
    b_mid = _midpoint_beam(config.num_antennas, first_angle, theta2)
    dead = np.abs(b_mid) <= _CANCEL_TOL  # antipodal steering responses cancel
    if np.any(dead):
        warnings.warn(
            "antipodal split angles: midpoint beam entries vanished; their phase defaults to 0",
            stacklevel=2,
        )
    f_third = grid.frequency(config.num_subcarriers // 3)
    probe = np.conj(b_mid) * np.exp(
        1j * np.pi * m * math.sin(theta2) * (f_third / config.carrier_freq)
    )
    tau = np.empty(config.num_ttds)
    for n, cols in enumerate(config.group_indices()):
        s = probe[cols].sum()
        if abs(s) <= _CANCEL_TOL:
            warnings.warn("antipodal split angles: delay probe vanished; delay defaults to 0", stacklevel=2)
            tau[n] = 0.0
        else:
            tau[n] = -3.0 / (2.0 * np.pi * config.bandwidth) * float(np.angle(s))
    tau -= tau.mean()
    half = config.delay_range / (2.0 * config.bandwidth)
    tau = np.clip(tau, -half, half)
    mid_angle = np.angle(b_mid)
    mid_angle[dead] = 0.0
    phi = np.asarray(
        wrap_angle(
            mid_angle + 2.0 * np.pi * config.carrier_freq * tau[config.ttd_index_per_antenna()]
        ),
        dtype=np.float64,
    )
    angles = np.where(grid.indices < 0, theta1, theta2)
    return _assemble(config, grid, tau, phi, angles_per_subcarrier=angles, nonnegative=nonnegative)


def _assemble(
    config: SystemConfig,
    grid: SubcarrierGrid,
    tau: np.ndarray,
    phi: np.ndarray,
    angles_per_subcarrier: np.ndarray,
    nonnegative: bool,
) -> JptaBeamformer:
    """Digital weights for given analog settings: flat magnitudes, aligned phases."""
    unit = steering_vectors(config, grid.frequencies, angles_per_subcarrier) / math.sqrt(config.num_antennas)
    u = _digital_alignment(grid.frequencies, unit, phi, tau[config.ttd_index_per_antenna()])
    magnitude = math.sqrt(config.total_power / config.num_subcarriers)
    alpha = magnitude * np.exp(1j * np.angle(u))
    bf = JptaBeamformer(delays=tau, phases=phi, alpha=alpha)
    if nonnegative:
        bf = shift_nonnegative(config, grid, bf)
    return bf


def required_delay_budget(config: SystemConfig, params: HeuristicParams) -> float:
    """Delay range (seconds) the closed-form designs need to avoid clipping."""
    if params.behavior is Behavior.ONE:
        return config.num_antennas * abs(math.sin(params.delta_theta / 2.0)) / config.bandwidth
    return 3.0 / config.bandwidth
