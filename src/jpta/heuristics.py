"""Closed-form baseline designs for the swept and split beam behaviors."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, check_angle, check_sweep, delay_response, steering_vectors
from .beam_targets import _behavior_angles
from .design import JptaBeamformer, _digital_alignment, _pow2_at_or_below, shift_nonnegative, wrap_angle

__all__ = [
    "heuristic_behavior1",
    "heuristic_behavior2",
]


_CANCEL_TOL = 1e-12  # midpoint-beam entries below this count as cancelled


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
    check_sweep(theta0, delta_theta)
    f = grid.frequencies
    f_min, f_max = float(f[0]), float(f[-1])
    unit = _pow2_at_or_below(config.bandwidth)  # W f0 overflows at huge bands, (W / unit) f0 does not
    slope = (  # seconds times unit
        math.sin(theta0 - delta_theta / 2.0) * f_min
        - math.sin(theta0 + delta_theta / 2.0) * f_max
    ) / (2.0 * (config.bandwidth / unit) * config.carrier_freq)
    tau = np.array([slope * np.mean(np.asarray(g, dtype=np.float64)) for g in config.ttd_groups])
    ramp = np.angle(steering_vectors(config, config.carrier_freq, theta0))
    angles = _behavior_angles(config, grid, 1, theta0, delta_theta)
    return _assemble(config, grid, tau, ramp, angles_per_subcarrier=angles, nonnegative=nonnegative)


def heuristic_behavior2(
    config: SystemConfig,
    grid: SubcarrierGrid,
    theta1: float,
    theta2: float,
    nonnegative: bool = True,
) -> JptaBeamformer:
    """Closed-form delays and phases for the half-band split beam.

    Delays come from a linear-phase approximation of the per-antenna step
    response, anchored on the midpoint beam (the sum of the two steering
    responses at the carrier) and its rotation at the one-third subcarrier.
    This closed form numbers antennas from 1, so each response keeps its phase
    origin at antenna 1: ``exp(j*pi*m*sin(theta)*f/f0)``, m = 1..M.
    """
    thetas = np.array([check_angle(theta1, "theta1"), check_angle(theta2, "theta2"), theta2])
    freqs = np.array([config.carrier_freq, config.carrier_freq, grid.frequency(config.num_subcarriers // 3)])
    origin = np.exp(1j * np.pi * np.sin(thetas) * (freqs / config.carrier_freq))
    first, second, third = steering_vectors(config, freqs, thetas) * origin[:, None]
    b_mid = (first + second) / math.sqrt(2 * config.num_antennas)
    dead = np.abs(b_mid) <= _CANCEL_TOL  # antipodal steering responses cancel
    if np.any(dead):
        warnings.warn(
            "antipodal split angles: midpoint beam entries vanished; their phase defaults to 0",
            stacklevel=2,
        )
    probe = np.conj(b_mid) * third
    unit = _pow2_at_or_below(config.bandwidth)  # 2 pi W overflows at huge bands, 2 pi W / unit does not
    tau = np.empty(config.num_ttds)
    for n, cols in enumerate(np.split(config.line_columns, config.line_starts[1:])):
        s = probe[cols].sum()
        if abs(s) <= _CANCEL_TOL:
            warnings.warn("antipodal split angles: delay probe vanished; delay defaults to 0", stacklevel=2)
            tau[n] = 0.0
        else:
            tau[n] = -3.0 / (2.0 * np.pi * (config.bandwidth / unit)) * float(np.angle(s))  # seconds times unit
    mid_angle = np.angle(b_mid)
    mid_angle[dead] = 0.0
    angles = _behavior_angles(config, grid, 2, theta1, theta2)
    return _assemble(config, grid, tau, mid_angle, angles_per_subcarrier=angles, nonnegative=nonnegative)


def _assemble(
    config: SystemConfig,
    grid: SubcarrierGrid,
    tau: np.ndarray,
    carrier_phase: np.ndarray,
    angles_per_subcarrier: np.ndarray,
    nonnegative: bool,
) -> JptaBeamformer:
    """Closed-form beamformer from raw delays, in seconds times the power of two at or below the
    bandwidth, and the per-antenna phase wanted at the carrier.

    The delays are centered and clipped to the tuning range in that unit, which keeps them
    finite at any band, the phase-shifters add back the delays' carrier phase, and the digital
    weights get flat magnitudes and aligned phases.
    """
    width = _pow2_at_or_below(config.bandwidth)
    half = config.max_delay / 2.0 * width
    tau = np.clip(tau - tau.mean(), -half, half) / width
    tau_per_antenna = tau[config.antenna_line]
    scale = _pow2_at_or_below(config.carrier_freq)  # 2 pi f0 overflows at huge carriers, 2 pi f0 / scale does not
    phi = wrap_angle(carrier_phase + 2.0 * np.pi * (config.carrier_freq / scale) * (tau_per_antenna * scale))
    unit = steering_vectors(config, grid.frequencies, angles_per_subcarrier) / math.sqrt(config.num_antennas)
    u = _digital_alignment(unit * np.conj(delay_response(grid.frequencies, tau_per_antenna)), phi)
    magnitude = math.sqrt(config.total_power / config.num_subcarriers)
    alpha = magnitude * np.exp(1j * np.angle(u))
    bf = JptaBeamformer(delays=tau, phases=phi, alpha=alpha)
    if nonnegative:
        bf = shift_nonnegative(config, grid, bf)
    return bf

