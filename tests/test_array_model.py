import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from jpta.array_model import (
    SubcarrierGrid,
    SystemConfig,
    build_grid,
    contiguous_ttd_groups,
    default_theta_grid,
    delay_response,
    effective_beamformer_matrix,
    gain_map,
    steering_vectors,
)
from jpta.beam_targets import BeamTarget, behavior1_target, behavior2_target, multi_angle_target
from jpta.design import JptaBeamformer
from jpta.hbf import HbfBeamformer, HbfStructure, TargetMatrix
from jpta.heuristics import heuristic_behavior1, heuristic_behavior2
from jpta.metrics import FitReport

from helpers import make_config


def test_build_grid_full_band():
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=2048, delay_range=64.0)
    grid = build_grid(cfg)
    assert grid.indices[0] == -1024 and grid.indices[-1] == 1023
    assert grid.frequency(-1024) == pytest.approx(95e9, rel=1e-14)
    assert grid.frequency(0) == pytest.approx(100e9, rel=1e-14)
    assert grid.frequency(1023) == pytest.approx(104.9951171875e9, rel=1e-14)


def test_build_grid_single_subcarrier():
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=1, carrier_freq=37e9, bandwidth=1e9)
    grid = build_grid(cfg)
    assert grid.num_subcarriers == 1
    assert grid.indices[0] == 0
    assert grid.frequency(0) == 37e9


def test_build_grid_small():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4, carrier_freq=10.0, bandwidth=4.0)
    grid = build_grid(cfg)
    assert list(grid.indices) == [-2, -1, 0, 1]
    assert list(grid.frequencies) == [8.0, 9.0, 10.0, 11.0]


def test_build_grid_odd_count():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=5)
    grid = build_grid(cfg)
    assert list(grid.indices) == [-2, -1, 0, 1, 2]


def test_grid_rejects_malformed_index_sets():
    from jpta.array_model import SubcarrierGrid

    with pytest.raises(ValueError):
        SubcarrierGrid(indices=np.array([-1, 0, 1, 2]), frequencies=np.array([8.0, 9.0, 10.0, 11.0]))
    with pytest.raises(ValueError):
        SubcarrierGrid(indices=np.array([-2, 0, 1, 2]), frequencies=np.array([8.0, 9.0, 10.0, 11.0]))


def test_steering_vectors_boresight():
    cfg = make_config()
    grid = build_grid(cfg)
    for k in (-8, 0, 7):
        assert np.allclose(steering_vectors(cfg, grid.frequency(k), 0.0), np.ones(cfg.num_antennas))


def test_steering_vectors_endfire_center():
    cfg = make_config(num_antennas=2, num_ttds=1)
    grid = build_grid(cfg)
    a = steering_vectors(cfg, grid.frequency(0), math.pi / 2)
    assert np.allclose(a, [1.0, -1.0], atol=1e-12)


def test_steering_vectors_quarter_band_phases():
    # subcarrier at f0 + W/4; element phases grow as (m-1)*pi*sin(theta)*f_k/f0
    cfg = make_config(num_antennas=4, num_ttds=4, num_subcarriers=8)
    grid = build_grid(cfg)
    a = steering_vectors(cfg, grid.frequency(2), math.pi / 6)
    expected = (np.arange(4)) * np.pi * 0.5 * (1.0 + cfg.bandwidth / (4.0 * cfg.carrier_freq))
    assert np.allclose(np.unwrap(np.angle(a)), expected, atol=1e-12)


def test_steering_vectors_unit_modulus():
    rng = np.random.default_rng(11)
    cfg = make_config(num_antennas=8, num_ttds=4)
    grid = build_grid(cfg)
    for _ in range(50):
        k = int(rng.choice(grid.indices))
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering_vectors(cfg, grid.frequency(k), theta)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12


def test_grid_frequency_rejects_off_grid_subcarrier():
    cfg = make_config()
    grid = build_grid(cfg)
    with pytest.raises(ValueError, match="not on the grid"):
        grid.frequency(99)


_FOV_CFG = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
_FOV_GRID = build_grid(_FOV_CFG)

# every public entry point that takes a steering angle, called with that angle as `t`; the
# ".edge" variants put `t` on a sweep edge through the width alone (0 +/- 2t/2 is exact)
_ANGLE_ENTRY_POINTS = {
    "behavior1_target.theta0": lambda t: behavior1_target(_FOV_CFG, _FOV_GRID, t, 0.0),
    "behavior1_target.edge": lambda t: behavior1_target(_FOV_CFG, _FOV_GRID, 0.0, 2.0 * t),
    "behavior2_target.theta1": lambda t: behavior2_target(_FOV_CFG, _FOV_GRID, t, 0.3),
    "behavior2_target.theta2": lambda t: behavior2_target(_FOV_CFG, _FOV_GRID, 0.3, t),
    "multi_angle_target": lambda t: multi_angle_target(_FOV_CFG, _FOV_GRID, [0], [0.3, t]),
    "heuristic_behavior1.theta0": lambda t: heuristic_behavior1(_FOV_CFG, _FOV_GRID, t, 0.0),
    "heuristic_behavior1.edge": lambda t: heuristic_behavior1(_FOV_CFG, _FOV_GRID, 0.0, 2.0 * t),
    "heuristic_behavior2.theta1": lambda t: heuristic_behavior2(_FOV_CFG, _FOV_GRID, t, 0.3),
    "heuristic_behavior2.theta2": lambda t: heuristic_behavior2(_FOV_CFG, _FOV_GRID, 0.3, t),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("entry", list(_ANGLE_ENTRY_POINTS))
def test_field_of_view_is_closed_at_plus_minus_90_degrees(entry, sign):
    call = _ANGLE_ENTRY_POINTS[entry]
    call(sign * math.pi / 2)
    with pytest.raises(ValueError, match=r"deg outside the field of view \[-90, 90\]"):
        call(np.nextafter(sign * math.pi / 2, sign * 2.0))


def _random_beamformer(cfg, rng):
    return JptaBeamformer(
        delays=rng.uniform(0.0, cfg.max_delay, cfg.num_ttds),
        phases=rng.uniform(-np.pi, np.pi, cfg.num_antennas),
        alpha=np.ones(cfg.num_subcarriers, dtype=complex),
    )


def test_effective_beamformer_identity_settings():
    cfg = make_config()
    grid = build_grid(cfg)
    bf = JptaBeamformer(
        delays=np.zeros(cfg.num_ttds),
        phases=np.zeros(cfg.num_antennas),
        alpha=np.ones(cfg.num_subcarriers, dtype=complex),
    )
    beams = effective_beamformer_matrix(cfg, grid, bf)
    for k in grid.indices:
        w = beams[grid.position(int(k))]
        assert np.allclose(w, np.full(cfg.num_antennas, 1.0 / math.sqrt(cfg.num_antennas)))


def test_effective_beamformer_scalar_case():
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    t, p = 0.4e-9, 1.1
    bf = JptaBeamformer(delays=[t], phases=[p], alpha=np.ones(4, dtype=complex))
    beams = effective_beamformer_matrix(cfg, grid, bf)
    for k in grid.indices:
        w = beams[grid.position(int(k))]
        assert w[0] == pytest.approx(np.exp(1j * (p - 2 * np.pi * grid.frequency(int(k)) * t)), abs=1e-12)


@pytest.mark.parametrize("taus", ["grid", "single"])
def test_delay_response_is_bit_identical_to_the_direct_formula(taus):
    cfg = make_config(num_subcarriers=255)
    freqs = build_grid(cfg).frequencies
    half = cfg.max_delay / 2.0
    taus = np.linspace(-half, half, 257) if taus == "grid" else [0.3 * half]
    built = delay_response(freqs, taus)
    direct = np.exp(-2j * np.pi * np.outer(freqs, taus))
    assert built.shape == direct.shape and built.dtype == direct.dtype
    assert np.array_equal(built.view(np.uint64), direct.view(np.uint64))


def test_effective_beamformer_unit_norm():
    rng = np.random.default_rng(5)
    cfg = make_config(num_antennas=6, num_ttds=3)
    grid = build_grid(cfg)
    for _ in range(20):
        beams = effective_beamformer_matrix(cfg, grid, _random_beamformer(cfg, rng))
        assert np.max(np.abs(np.linalg.norm(beams, axis=1) - 1.0)) < 1e-12


def test_effective_beamformer_dimension_mismatch():
    cfg = make_config()
    grid = build_grid(cfg)
    bad = JptaBeamformer(delays=np.zeros(3), phases=np.zeros(cfg.num_antennas),
                         alpha=np.ones(cfg.num_subcarriers, dtype=complex))
    with pytest.raises(ValueError):
        effective_beamformer_matrix(cfg, grid, bad)


def test_gain_map_of_matched_beams_is_the_antenna_count():
    cfg = make_config(num_antennas=64, num_ttds=64)
    grid = build_grid(cfg)
    theta = 0.3
    beams = steering_vectors(cfg, grid.frequencies, theta) / math.sqrt(64)
    gains = gain_map(cfg, grid, beams, np.array([theta]))
    assert gains == pytest.approx(np.full((cfg.num_subcarriers, 1), 64.0), rel=1e-12)
    assert 10 * math.log10(gains[grid.position(3), 0]) == pytest.approx(18.0618, abs=1e-3)


def test_gain_map_of_an_orthogonal_beam_is_zero():
    cfg = make_config(num_antennas=2, num_ttds=1)
    grid = build_grid(cfg)
    beams = np.tile(np.array([1.0, -1.0]) / math.sqrt(2.0), (cfg.num_subcarriers, 1))
    assert gain_map(cfg, grid, beams, np.array([0.0]))[grid.position(0), 0] == pytest.approx(0.0, abs=1e-24)


def test_gain_map_bounded_by_antenna_count():
    rng = np.random.default_rng(17)
    cfg = make_config(num_antennas=8, num_ttds=8)
    grid = build_grid(cfg)
    for _ in range(10):
        beams = rng.normal(size=(cfg.num_subcarriers, 8)) + 1j * rng.normal(size=(cfg.num_subcarriers, 8))
        beams /= np.linalg.norm(beams, axis=1, keepdims=True)
        thetas = rng.uniform(-np.pi / 2, np.pi / 2, 20)
        assert gain_map(cfg, grid, beams, thetas).max() <= 8.0 + 1e-9


def test_common_delay_shift_leaves_gain_unchanged():
    rng = np.random.default_rng(23)
    cfg = make_config(num_antennas=6, num_ttds=3, delay_range=20.0)
    grid = build_grid(cfg)
    bf = _random_beamformer(cfg, rng)
    shifted = JptaBeamformer(delays=bf.delays + 0.31e-9, phases=bf.phases, alpha=bf.alpha)
    thetas = rng.uniform(-np.pi / 2, np.pi / 2, 30)
    g0 = gain_map(cfg, grid, effective_beamformer_matrix(cfg, grid, bf), thetas)
    g1 = gain_map(cfg, grid, effective_beamformer_matrix(cfg, grid, shifted), thetas)
    assert np.max(np.abs(g0 - g1)) <= 1e-10


def test_gain_map_degenerate_grid():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=1)
    grid = build_grid(cfg)
    a = steering_vectors(cfg, grid.frequency(0), 0.2)
    w = a[None, :] / 2.0
    out = gain_map(cfg, grid, w, np.array([0.2]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(abs(np.vdot(a, w[0])) ** 2, rel=1e-12)


def test_gain_map_matched_set_peaks_at_steering_angle():
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=8)
    grid = build_grid(cfg)
    theta0 = np.deg2rad(20.0)
    beams = steering_vectors(cfg, grid.frequencies, theta0) / 4.0
    thetas = default_theta_grid()
    gains = gain_map(cfg, grid, beams, thetas)
    center = grid.position(0)
    for row in (center - 1, center, center + 1):
        best = thetas[np.argmax(gains[row])]
        assert abs(best - theta0) < np.deg2rad(1.01)


def test_gain_map_beam_squint_at_band_edges():
    # frequency-flat steering loses gain away from the carrier over a wide band
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=64)
    grid = build_grid(cfg)
    theta0 = np.deg2rad(30.0)
    w0 = steering_vectors(cfg, grid.frequency(0), theta0) / 8.0
    gains = gain_map(cfg, grid, np.tile(w0, (cfg.num_subcarriers, 1)), np.array([theta0]))[:, 0]
    g_center, g_low, g_high = gains[grid.position(0)], gains[0], gains[-1]
    assert g_low < g_center and g_high < g_center
    assert g_center == pytest.approx(64.0, rel=1e-12)


@pytest.mark.parametrize("num_antennas", [1, 2, 7, 64])
@pytest.mark.parametrize("num_subcarriers", [1, 16])
def test_gain_map_equals_the_direct_steering_product(num_antennas, num_subcarriers):
    cfg = make_config(num_antennas=num_antennas, num_ttds=1, num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    rng = np.random.default_rng(num_antennas * 100 + num_subcarriers)
    shape = (num_subcarriers, num_antennas)
    beams = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    thetas = np.deg2rad(np.linspace(-90.0, 90.0, 37))  # 37 angles: not a whole number of blocks; holds -90, 0, 90
    gains = gain_map(cfg, grid, beams, thetas)
    direct = np.array([
        [abs(np.vdot(steering_vectors(cfg, f, theta), w)) ** 2 for theta in thetas]
        for f, w in zip(grid.frequencies, beams)
    ])
    assert gains.shape == direct.shape
    assert np.max(np.abs(gains - direct)) <= 1e-12 * direct.max()


def test_gain_map_peak_memory_stays_within_twice_its_output():
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=2048)
    grid = build_grid(cfg)
    rng = np.random.default_rng(0)
    beams = rng.standard_normal((2048, 64)) + 1j * rng.standard_normal((2048, 64))
    thetas = default_theta_grid()
    tracemalloc.start()
    try:
        gains = gain_map(cfg, grid, beams, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gains.shape == (2048, 181)
    assert peak <= 2 * gains.nbytes


def test_gain_map_rejects_empty_theta_grid():
    cfg = make_config()
    grid = build_grid(cfg)
    beams = np.ones((cfg.num_subcarriers, cfg.num_antennas)) / 2.0
    with pytest.raises(ValueError):
        gain_map(cfg, grid, beams, np.array([]))


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(num_ttds=3)  # default mapping needs N | M
    with pytest.raises(ValueError):
        make_config(num_ttds=5, num_antennas=4)
    with pytest.raises(ValueError):
        make_config(carrier_freq=4e9, bandwidth=10e9)
    with pytest.raises(ValueError):
        make_config(delay_range=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(num_antennas=4, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                     num_subcarriers=8, delay_range=4.0, ttd_groups=((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        SystemConfig(num_antennas=4, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                     num_subcarriers=8, delay_range=4.0, ttd_groups=((1, 2), (3,)))


def test_custom_groups_and_default_power():
    cfg = SystemConfig(num_antennas=4, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                       num_subcarriers=8, delay_range=4.0, ttd_groups=((1, 4), (2, 3)))
    assert cfg.total_power == 8.0
    assert list(cfg.antenna_line) == [0, 1, 1, 0]
    assert contiguous_ttd_groups(4, 2) == ((1, 2), (3, 4))


@pytest.mark.parametrize("num_antennas, groups, columns, starts, antenna_line", [
    (6, None, [0, 1, 2, 3, 4, 5], [0, 3], [0, 0, 0, 1, 1, 1]),
    (6, ((1, 3, 5), (2, 4, 6)), [0, 2, 4, 1, 3, 5], [0, 3], [0, 1, 0, 1, 0, 1]),
    (4, ((3, 1), (4, 2)), [2, 0, 3, 1], [0, 2], [0, 1, 0, 1]),
])
def test_line_layout_keeps_each_groups_listed_order(num_antennas, groups, columns, starts, antenna_line):
    cfg = SystemConfig(num_antennas=num_antennas, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                       num_subcarriers=8, delay_range=4.0, ttd_groups=groups)
    for arr, expected in ((cfg.line_columns, columns), (cfg.line_starts, starts), (cfg.antenna_line, antenna_line)):
        assert arr.dtype == np.intp and arr.tolist() == expected
        assert not arr.flags.writeable


def _value_objects():
    """Each frozen value class built from writable arrays, with those arrays; the target matrix gets an
    F-ordered one, as ``stack_target`` passes it."""
    rng = np.random.default_rng(0)
    k, m = 4, 2
    vectors = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    inputs = [
        {"ttd_groups": np.array([[1], [2]])},
        {"indices": np.arange(-2, 2), "frequencies": np.linspace(1.0, 2.0, 4)},
        {"vectors": vectors, "weights": np.ones(k)},
        {"delays": np.zeros(2), "phases": np.ones(m), "alpha": np.ones(k, dtype=complex)},
        {"matrix": vectors.T},
        {"analog": np.ones((m, 1), dtype=complex), "digital": np.ones((1, k), dtype=complex),
         "residual_trace": np.ones(3)},
        {"per_subcarrier_match": np.full(k, 0.5), "convergence_trace": np.ones(3)},
    ]
    built = [
        SystemConfig(num_antennas=m, num_ttds=2, carrier_freq=100e9, bandwidth=10e9, num_subcarriers=k,
                     delay_range=4.0, **inputs[0]),
        SubcarrierGrid(**inputs[1]),
        BeamTarget(power_budget=100.0, **inputs[2]),
        JptaBeamformer(**inputs[3]),
        TargetMatrix(power_budget=100.0, **inputs[4]),
        HbfBeamformer(structure=HbfStructure.FULLY_CONNECTED, n_rf=1, seed=0, residual=0.0, **inputs[5]),
        FitReport(f_obj=0.5, f_tilde_obj=0.5, **inputs[6]),
    ]
    return [pytest.param(obj, given, id=type(obj).__name__) for obj, given in zip(built, inputs)]


@pytest.mark.parametrize("obj, inputs", _value_objects())
def test_value_objects_store_owned_read_only_c_ordered_copies(obj, inputs):
    stored = [getattr(obj, f.name) for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)]
    assert stored
    for arr in stored:
        assert not arr.flags.writeable and arr.flags.c_contiguous
        assert not any(np.shares_memory(arr, given) for given in inputs.values())
    assert all(given.flags.writeable for given in inputs.values())


@pytest.mark.parametrize("obj, inputs", _value_objects())
def test_value_objects_stay_read_only_through_pickle(obj, inputs):
    """Pool workers unpickle their tasks, and the parent their results: each copy's arrays stay frozen."""
    copied = pickle.loads(pickle.dumps(obj))
    arrays = [f.name for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)]
    assert arrays
    for name in arrays:
        arr = getattr(copied, name)
        assert not arr.flags.writeable
        assert arr.dtype == getattr(obj, name).dtype and np.array_equal(arr, getattr(obj, name))
    assert vars(copied).keys() == vars(obj).keys()
