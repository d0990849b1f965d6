import math

import numpy as np
import pytest

from jpta.array_model import build_grid, effective_beamformer_matrix
from jpta.beam_targets import behavior1_target, behavior2_target
from jpta.heuristics import heuristic_behavior1, heuristic_behavior2
from jpta.metrics import fit_objective

from helpers import make_config


def _expected_slope_delays(cfg, grid, theta0, dtheta):
    f_min, f_max = float(grid.frequencies[0]), float(grid.frequencies[-1])
    slope = (
        math.sin(theta0 - dtheta / 2) * f_min - math.sin(theta0 + dtheta / 2) * f_max
    ) / (2 * cfg.bandwidth * cfg.carrier_freq)
    tau = np.array([slope * np.mean(g) for g in np.asarray(cfg.ttd_groups, dtype=float)])
    return tau - tau.mean()


def test_behavior1_zero_sweep_gives_uniform_progressive_delays():
    cfg = make_config(num_antennas=8, num_ttds=8, num_subcarriers=32, delay_range=8.0)
    grid = build_grid(cfg)
    theta0 = 0.5
    bf = heuristic_behavior1(cfg, grid, theta0, 0.0)
    steps = np.diff(bf.delays)
    assert np.allclose(steps, steps[0], rtol=1e-12)
    target = behavior1_target(cfg, grid, theta0, 0.0)
    f = fit_objective(target, effective_beamformer_matrix(cfg, grid, bf))
    assert f > 0.999  # squint-free steering once delays absorb the band slope


def test_behavior1_matches_slope_formula_without_clipping():
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=32, delay_range=8.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 5
    assert cfg.delay_range >= cfg.num_antennas * abs(math.sin(dtheta / 2))  # no clipping
    bf = heuristic_behavior1(cfg, grid, theta0, dtheta, nonnegative=False)
    assert np.allclose(bf.delays, _expected_slope_delays(cfg, grid, theta0, dtheta), atol=1e-24)


def test_behavior1_center_subcarrier_exact_match():
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=64, delay_range=16.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    target = behavior1_target(cfg, grid, theta0, dtheta)
    bf = heuristic_behavior1(cfg, grid, theta0, dtheta)
    beams = effective_beamformer_matrix(cfg, grid, bf)
    pos = grid.position(0)
    assert abs(np.vdot(target.unit_vectors[pos], beams[pos])) == pytest.approx(1.0, abs=1e-9)


def test_behavior1_phases_wrapped_and_delays_in_range():
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=32, delay_range=2.0)
    grid = build_grid(cfg)
    bf = heuristic_behavior1(cfg, grid, 0.6, 0.9)  # tight range forces clipping
    assert bf.delays.min() >= 0.0
    assert bf.delays.max() <= cfg.max_delay + 1e-18
    assert np.all(bf.phases >= -np.pi) and np.all(bf.phases < np.pi)
    assert np.sum(np.abs(bf.alpha) ** 2) <= cfg.total_power * (1 + 1e-12)


def test_behavior1_angle_validation():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    with pytest.raises(ValueError):
        heuristic_behavior1(cfg, grid, 1.2, 1.0)


def test_behavior2_equal_angles_reduces_to_fixed_beam():
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=64, delay_range=16.0)
    grid = build_grid(cfg)
    theta = math.pi / 6
    bf = heuristic_behavior2(cfg, grid, theta, theta)
    target = behavior2_target(cfg, grid, theta, theta)
    f = fit_objective(target, effective_beamformer_matrix(cfg, grid, bf))
    assert f > 0.999
    # delay spread only covers the squint correction, far below the 3/W budget
    assert (bf.delays.max() - bf.delays.min()) <= 0.5 / cfg.bandwidth


def test_behavior2_delay_spread_within_budget():
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=64, delay_range=64.0)
    grid = build_grid(cfg)
    bf = heuristic_behavior2(cfg, grid, -math.pi / 4, math.pi / 6)
    assert bf.delays.max() - bf.delays.min() <= 3.0 / cfg.bandwidth + 1e-15


def test_behavior2_follows_the_one_based_midpoint_formula():
    # the closed form numbers antennas m = 1..M: midpoint beam
    # (e^{j pi m sin t1} + e^{j pi m sin t2}) / sqrt(2M), probed at the one-third subcarrier
    cfg = make_config(num_antennas=16, num_ttds=4, num_subcarriers=64, delay_range=64.0)
    grid = build_grid(cfg)
    t1, t2 = -math.pi / 4, math.pi / 6
    f3 = grid.frequency(cfg.num_subcarriers // 3) / cfg.carrier_freq
    mid, probe = [], []
    for m in range(1, cfg.num_antennas + 1):
        b = np.exp(1j * np.pi * m * math.sin(t1)) + np.exp(1j * np.pi * m * math.sin(t2))
        b /= math.sqrt(2 * cfg.num_antennas)
        mid.append(b)
        probe.append(np.conj(b) * np.exp(1j * np.pi * m * math.sin(t2) * f3))
    tau = np.array([-3 / (2 * np.pi * cfg.bandwidth) * np.angle(sum(probe[m - 1] for m in g))
                    for g in cfg.ttd_groups])
    tau -= tau.mean()
    assert np.max(np.abs(tau)) <= cfg.delay_range / (2 * cfg.bandwidth)  # no clipping
    bf = heuristic_behavior2(cfg, grid, t1, t2, nonnegative=False)
    assert np.max(np.abs(bf.delays - tau)) <= 1e-22
    phi = np.angle(mid) + 2 * np.pi * cfg.carrier_freq * tau[cfg.antenna_line]
    assert np.max(np.abs(np.exp(1j * bf.phases) - np.exp(1j * phi))) <= 1e-10


def test_behavior2_antipodal_angles_flagged():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=8, delay_range=4.0)
    grid = build_grid(cfg)
    # sin(pi/2) - sin(0) = 1: midpoint entries e^{j pi m} + 1 vanish for odd m
    with pytest.warns(UserWarning, match="antipodal"):
        bf = heuristic_behavior2(cfg, grid, math.pi / 2, 0.0, nonnegative=False)
    assert np.all(np.isfinite(bf.phases))
    # the cancelled entry's own phase defaulted to 0, leaving only the delay term
    expected = (2 * np.pi * cfg.carrier_freq * bf.delays[0] + np.pi) % (2 * np.pi) - np.pi
    assert bf.phases[0] == pytest.approx(expected, abs=1e-12)


def test_iterative_design_strictly_beats_closed_forms():
    from jpta.design import design_jpta

    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=64, delay_range=16.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    target1 = behavior1_target(cfg, grid, theta0, dtheta)
    bf1, _ = design_jpta(cfg, grid, target1)
    f_iter = fit_objective(target1, effective_beamformer_matrix(cfg, grid, bf1))
    f_closed = fit_objective(
        target1,
        effective_beamformer_matrix(cfg, grid, heuristic_behavior1(cfg, grid, theta0, dtheta)),
    )
    assert f_iter > f_closed
    target2 = behavior2_target(cfg, grid, -math.pi / 4, math.pi / 6)
    bf2, _ = design_jpta(cfg, grid, target2)
    f_iter2 = fit_objective(target2, effective_beamformer_matrix(cfg, grid, bf2))
    f_closed2 = fit_objective(
        target2,
        effective_beamformer_matrix(
            cfg, grid, heuristic_behavior2(cfg, grid, -math.pi / 4, math.pi / 6)
        ),
    )
    assert f_iter2 > f_closed2


def test_behavior1_unclipped_when_budget_met():
    # with kappa at the published budget and one line per antenna, the slope
    # delays never hit the clamp
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=64, delay_range=16.0)
    grid = build_grid(cfg)
    theta0, dtheta = 0.4, math.pi / 3
    budget = cfg.num_antennas * abs(math.sin(dtheta / 2))
    assert cfg.delay_range >= budget
    expected = _expected_slope_delays(cfg, grid, theta0, dtheta)
    half = cfg.delay_range / (2 * cfg.bandwidth)
    assert np.max(np.abs(expected)) <= half
    bf = heuristic_behavior1(cfg, grid, theta0, dtheta, nonnegative=False)
    assert np.array_equal(bf.delays, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("heuristic, angles", [(heuristic_behavior1, (0.5, 0.8)), (heuristic_behavior2, (-0.3, 0.6))])
def test_closed_forms_are_exactly_covariant_up_to_the_top_of_the_double_range(heuristic, angles):
    # carrier = bandwidth = 2^1022 Hz: 2 pi W, 2 pi f0 and W f0 overflow, so the closed forms must not form them
    low, high = (make_config(num_antennas=8, carrier_freq=2.0**e, bandwidth=2.0**e) for e in (37, 1022))
    bf_low, bf_high = (heuristic(cfg, build_grid(cfg), *angles) for cfg in (low, high))
    np.testing.assert_array_equal(bf_high.delays, bf_low.delays * 2.0**-985)
    np.testing.assert_array_equal(bf_high.phases, bf_low.phases)
    np.testing.assert_array_equal(bf_high.alpha, bf_low.alpha)
