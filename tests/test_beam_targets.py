import math

import numpy as np
import pytest

from jpta import beam_targets, heuristics
from jpta.array_model import build_grid, steering_vectors
from jpta.beam_targets import (
    BeamTarget,
    WeightScheme,
    behavior1_target,
    behavior2_target,
    custom_target,
    multi_angle_target,
    write_custom_target,
)

from helpers import make_config


def test_behavior1_zero_sweep_matches_squint_corrected_steering():
    cfg = make_config(num_antennas=8, num_ttds=8)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.4, 0.0)
    for pos, k in enumerate(grid.indices):
        a = steering_vectors(cfg, grid.frequency(int(k)), 0.4) / math.sqrt(8)
        assert np.allclose(target.unit_vectors[pos], a, atol=1e-14)


@pytest.mark.parametrize("num_subcarriers", [15, 16, 2048])
def test_targets_and_closed_forms_share_the_per_subcarrier_angle_rules(monkeypatch, num_subcarriers):
    cfg = make_config(num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    theta0, dtheta, theta1, theta2 = math.pi / 6, math.pi / 4, -math.pi / 4, math.pi / 6
    swept = theta0 + grid.indices * (dtheta / num_subcarriers)
    split = np.where(grid.indices < 0, theta1, theta2)
    seen, rule = [], beam_targets._behavior_angles

    def spy(*args):
        seen.append(rule(*args))
        return seen[-1]

    for module in (beam_targets, heuristics):
        monkeypatch.setattr(module, "_behavior_angles", spy)
    behavior1_target(cfg, grid, theta0, dtheta)
    heuristics.heuristic_behavior1(cfg, grid, theta0, dtheta)
    behavior2_target(cfg, grid, theta1, theta2)
    heuristics.heuristic_behavior2(cfg, grid, theta1, theta2)
    assert len(seen) == 4
    for angles, expected in zip(seen, (swept, swept, split, split)):
        assert np.array_equal(angles, expected)


def test_behavior1_center_subcarrier_exact():
    cfg = make_config(num_antennas=8, num_ttds=8)
    grid = build_grid(cfg)
    theta0 = math.pi / 6
    target = behavior1_target(cfg, grid, theta0, math.pi / 4)
    pos = grid.position(0)
    amp = math.sqrt(cfg.total_power / (8 * cfg.num_subcarriers))
    expected = amp * steering_vectors(cfg, grid.frequency(0), theta0)
    assert np.allclose(target.vectors[pos], expected, atol=1e-15)


def test_behavior1_sweep_angles_full_grid():
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=2048, delay_range=64.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    target = behavior1_target(cfg, grid, theta0, dtheta)
    amp = math.sqrt(cfg.total_power / (64 * 2048))
    for k in (-1024, -1, 0, 511, 1023):
        pos = grid.position(k)
        angle = theta0 + k * dtheta / 2048
        assert np.allclose(target.vectors[pos], amp * steering_vectors(cfg, grid.frequency(k), angle), atol=1e-14)


def test_target_norms_and_power_budget():
    cfg = make_config(num_antennas=8, num_ttds=4)
    grid = build_grid(cfg)
    expected = math.sqrt(cfg.total_power / cfg.num_subcarriers)
    for target in (
        behavior1_target(cfg, grid, 0.5, 0.3),
        behavior2_target(cfg, grid, -0.7, 0.2),
        multi_angle_target(cfg, grid, [-3, 3], [-0.5, 0.0, 0.5]),
    ):
        assert np.allclose(target.norms, expected, rtol=1e-12)
        assert np.sum(target.norms**2) <= cfg.total_power * (1 + 1e-9)
        assert np.allclose(np.abs(target.unit_vectors), 1.0 / math.sqrt(8), atol=1e-12)


def test_behavior1_zero_sweep_equals_behavior2_equal_angles():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    t1 = behavior1_target(cfg, grid, 0.3, 0.0)
    t2 = behavior2_target(cfg, grid, 0.3, 0.3)
    assert np.allclose(t1.vectors, t2.vectors, atol=1e-14)


def test_behavior2_splits_at_center():
    cfg = make_config(num_antennas=8, num_ttds=8)
    grid = build_grid(cfg)
    theta1, theta2 = -math.pi / 4, math.pi / 6
    target = behavior2_target(cfg, grid, theta1, theta2)
    amp = math.sqrt(cfg.total_power / (8 * cfg.num_subcarriers))
    below = grid.position(-1)
    at = grid.position(0)
    assert np.allclose(target.vectors[below], amp * steering_vectors(cfg, grid.frequency(-1), theta1), atol=1e-14)
    assert np.allclose(target.vectors[at], amp * steering_vectors(cfg, grid.frequency(0), theta2), atol=1e-14)


def test_behavior2_four_subcarriers_split_evenly():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, -0.5, 0.5)
    amp = math.sqrt(cfg.total_power / (2 * 4))
    for k in (-2, -1):
        assert np.allclose(target.vectors[grid.position(k)],
                           amp * steering_vectors(cfg, grid.frequency(k), -0.5), atol=1e-14)
    for k in (0, 1):
        assert np.allclose(target.vectors[grid.position(k)],
                           amp * steering_vectors(cfg, grid.frequency(k), 0.5), atol=1e-14)


def test_multi_angle_reductions():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    single = multi_angle_target(cfg, grid, [], [0.25])
    fixed = behavior2_target(cfg, grid, 0.25, 0.25)
    assert np.allclose(single.vectors, fixed.vectors, atol=1e-14)
    two = multi_angle_target(cfg, grid, [0], [-0.4, 0.7])
    split = behavior2_target(cfg, grid, -0.4, 0.7)
    assert np.allclose(two.vectors, split.vectors, atol=1e-14)


def test_multi_angle_three_bands_piecewise():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=12)
    grid = build_grid(cfg)
    angles = [-math.pi / 4, 0.0, math.pi / 6]
    target = multi_angle_target(cfg, grid, [-2, 2], angles)
    amp = math.sqrt(cfg.total_power / (4 * 12))
    for k in grid.indices:
        k = int(k)
        band = 0 if k < -2 else (1 if k < 2 else 2)
        expected = amp * steering_vectors(cfg, grid.frequency(k), angles[band])
        assert np.allclose(target.vectors[grid.position(k)], expected, atol=1e-14)


def test_multi_angle_rejects_bad_bands():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    with pytest.raises(ValueError):
        multi_angle_target(cfg, grid, [3, -3], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        multi_angle_target(cfg, grid, [0], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        multi_angle_target(cfg, grid, [100], [0.0, 0.1])


def test_angle_range_validation():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    with pytest.raises(ValueError):
        behavior1_target(cfg, grid, 1.5, 0.5)
    with pytest.raises(ValueError):
        behavior2_target(cfg, grid, 2.0, 0.0)


def test_weight_schemes():
    norms = np.array([0.5, 1.0, 2.0])
    assert np.allclose(WeightScheme.UNIFORM.weights(norms), 1.0)
    assert np.allclose(WeightScheme.POWER.weights(norms), norms**2)
    assert np.allclose(WeightScheme.SATURATING.weights(norms), norms**2 / (1 + norms**2))


def test_custom_target_round_trip(tmp_path):
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    original = behavior1_target(cfg, grid, 0.4, 0.6)
    path = tmp_path / "target.txt"
    write_custom_target(path, original.vectors)
    loaded = custom_target(cfg, grid, path)
    assert np.array_equal(loaded.vectors, original.vectors)
    assert np.allclose(loaded.weights, original.weights)


def test_custom_target_rejects_zero_row(tmp_path):
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    vectors = behavior2_target(cfg, grid, 0.1, 0.2).vectors.copy()
    vectors[1] = 0.0
    path = tmp_path / "zeros.txt"
    write_custom_target(path, vectors)
    with pytest.raises(ValueError, match="all zeros"):
        custom_target(cfg, grid, path)


def test_custom_target_power_rescale(tmp_path):
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    base = behavior2_target(cfg, grid, 0.1, 0.2).vectors
    path = tmp_path / "hot.txt"
    write_custom_target(path, base * math.sqrt(2.0))
    with pytest.raises(ValueError, match="budget"):
        custom_target(cfg, grid, path)
    loaded = custom_target(cfg, grid, path, rescale=True)
    assert np.allclose(loaded.vectors, base, rtol=1e-12)


def test_custom_target_malformed_lines(tmp_path):
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    path = tmp_path / "bad.txt"
    path.write_text("1,0 0,1\n1,0\n1,0 0,1\n1,0 0,1\n")
    with pytest.raises(ValueError, match=":2"):
        custom_target(cfg, grid, path)
    path.write_text("1,0 0,1\n1,0 zz,1\n1,0 0,1\n1,0 0,1\n")
    with pytest.raises(ValueError, match=":2"):
        custom_target(cfg, grid, path)
    path.write_text("1,0 0,1\n")
    with pytest.raises(ValueError, match="lines"):
        custom_target(cfg, grid, path)


def test_beam_target_zero_rows_tolerated_programmatically():
    vectors = np.zeros((4, 2), dtype=complex)
    vectors[0] = [1.0, 1.0]
    vectors[2] = [1.0, -1.0]
    target = BeamTarget(vectors=vectors, weights=np.ones(4), power_budget=8.0)
    assert target.weights[1] == 0.0 and target.weights[3] == 0.0
    assert np.all(target.unit_vectors[1] == 0.0)
    with pytest.raises(ValueError):
        BeamTarget(vectors=np.zeros((4, 2), dtype=complex), weights=np.ones(4), power_budget=8.0)


def test_beam_target_power_check():
    vectors = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError, match="budget"):
        BeamTarget(vectors=vectors, weights=np.ones(4), power_budget=7.9)
    BeamTarget(vectors=vectors, weights=np.ones(4), power_budget=8.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_beam_target_rejects_non_finite_entries(bad):
    vectors = np.ones((4, 2), dtype=complex)
    vectors[1, 0] = complex(bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        BeamTarget(vectors=vectors, weights=np.ones(4), power_budget=8.0)
    weights = np.ones(4)
    weights[2] = bad
    with pytest.raises(ValueError, match="finite"):
        BeamTarget(vectors=np.ones((4, 2), dtype=complex), weights=weights, power_budget=8.0)
