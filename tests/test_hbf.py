import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta.array_model import build_grid
from jpta.beam_targets import behavior1_target, behavior2_target
from jpta.hbf import (
    HbfBeamformer,
    HbfStructure,
    TargetMatrix,
    altmin_pc,
    chains_fit,
    min_rf_chains,
    orthogonal_column_count,
    pe_altmin_fc,
    stack_target,
)

from helpers import make_config


def _wideband(num_subcarriers=64, num_antennas=16):
    return make_config(
        num_antennas=num_antennas,
        num_ttds=num_antennas,
        num_subcarriers=num_subcarriers,
        delay_range=float(num_antennas),
    )


def test_stack_target_columns():
    cfg = _wideband()
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.4, 0.5)
    tm = stack_target(target)
    assert tm.matrix.shape == (16, 64)
    assert np.array_equal(tm.matrix[:, 0], target.vectors[0])
    assert np.array_equal(tm.matrix[:, -1], target.vectors[-1])
    norms = np.linalg.norm(tm.matrix, axis=0)
    assert np.allclose(norms, math.sqrt(cfg.total_power / cfg.num_subcarriers), rtol=1e-12)


def test_stack_target_single_column():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=1)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.3, 0.3)
    tm = stack_target(target)
    assert tm.matrix.shape == (4, 1)
    assert np.array_equal(tm.matrix[:, 0], target.vectors[0])


def test_fc_recovers_rank_one_unit_modulus_target():
    rng = np.random.default_rng(0)
    m, k = 8, 32
    u = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    b = np.outer(u, c)
    tm = TargetMatrix(matrix=b, power_budget=float(np.linalg.norm(b) ** 2))
    hb = pe_altmin_fc(tm, 1, seed=2)
    assert hb.residual <= 1e-8 * np.linalg.norm(b)


def test_fc_full_chain_count_reproduces_target():
    cfg = _wideband(num_subcarriers=48, num_antennas=8)
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, math.pi / 6, math.pi / 4))
    hb = pe_altmin_fc(tm, 8, seed=0)
    assert hb.residual < 1e-6 * np.linalg.norm(tm.matrix)


def test_fc_residual_trace_non_increasing():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior2_target(cfg, grid, -0.7, 0.5))
    for n_rf in (1, 2, 4, 8, 16):
        hb = pe_altmin_fc(tm, n_rf, seed=5)
        assert np.all(np.diff(hb.residual_trace) <= 1e-9)


def test_fc_power_normalization():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, 0.3, 0.4))
    hb = pe_altmin_fc(tm, 4, seed=1)
    assert np.linalg.norm(hb.analog @ hb.digital) ** 2 == pytest.approx(
        cfg.total_power, abs=1e-10 * cfg.total_power
    )
    assert np.allclose(np.abs(hb.analog), 1.0)


def test_fc_rejects_too_many_chains():
    cfg = _wideband(num_antennas=8)
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, 0.3, 0.4))
    with pytest.raises(ValueError):
        pe_altmin_fc(tm, 9)


def test_pc_equals_fc_with_one_chain():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, math.pi / 6, math.pi / 4))
    fc = pe_altmin_fc(tm, 1, seed=3)
    pc = altmin_pc(tm, 1, seed=3)
    assert abs(fc.residual - pc.residual) <= 1e-10
    assert fc.seed == pc.seed


def test_pc_respects_block_sparsity_and_monotone_trace():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior2_target(cfg, grid, -0.7, 0.5))
    hb = altmin_pc(tm, 4, seed=2)
    assert hb.structure is HbfStructure.PARTIALLY_CONNECTED
    mask = np.zeros((16, 4), dtype=bool)
    for n in range(4):
        mask[n * 4 : (n + 1) * 4, n] = True
    assert np.all(hb.analog[~mask] == 0.0)
    assert np.allclose(np.abs(hb.analog[mask]), 1.0)
    assert np.all(np.diff(hb.residual_trace) <= 1e-9)


def test_pc_requires_divisible_chain_count():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, 0.3, 0.4))
    with pytest.raises(ValueError):
        altmin_pc(tm, 3)


@pytest.mark.parametrize("n_rf", [0, -2])
@pytest.mark.parametrize("fit", [altmin_pc, pe_altmin_fc])
def test_chain_count_below_one_is_rejected(fit, n_rf):
    cfg = _wideband(num_subcarriers=8, num_antennas=8)
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, 0.3, 0.4))
    with pytest.raises(ValueError, match="n_rf, iters and restarts must be positive"):
        fit(tm, n_rf)


@pytest.mark.parametrize(
    "structure, fit, allowed",
    [("fc", pe_altmin_fc, list(range(1, 13))), ("pc", altmin_pc, [1, 2, 3, 4, 6, 12])],
)
def test_fits_accept_exactly_the_chain_counts_chains_fit_allows(structure, fit, allowed):
    cfg = _wideband(num_subcarriers=8, num_antennas=12)
    tm = stack_target(behavior1_target(cfg, build_grid(cfg), 0.3, 0.4))
    counts = range(-1, 15)
    assert [n for n in counts if chains_fit(structure, n, 12)] == allowed
    for n_rf in counts:
        if n_rf in allowed:
            assert fit(tm, n_rf, iters=1, restarts=1).structure is HbfStructure(structure)
        else:
            with pytest.raises(ValueError, match="n_rf"):
                fit(tm, n_rf, iters=1, restarts=1)


def test_fc_beats_pc_at_equal_chain_count():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, math.pi / 6, math.pi / 4))
    for n_rf in (2, 4, 8):
        fc = pe_altmin_fc(tm, n_rf, seed=7, restarts=5)
        pc = altmin_pc(tm, n_rf, seed=7, restarts=5)
        assert pc.residual >= fc.residual - 1e-9


def test_unit_effective_vectors_are_unit_norm():
    cfg = _wideband()
    grid = build_grid(cfg)
    tm = stack_target(behavior1_target(cfg, grid, 0.2, 0.6))
    hb = pe_altmin_fc(tm, 4, seed=11)
    beams = hb.unit_effective_vectors()
    assert beams.shape == (64, 16)
    assert np.allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-12)


def test_min_rf_chains_degenerate_clamp():
    cfg = make_config(num_antennas=64, num_ttds=64, bandwidth=1e6, carrier_freq=100e9)
    grid = build_grid(cfg)
    r_fc, r_pc = min_rf_chains(cfg, grid, 0.0, 0.0)
    assert (r_fc, r_pc) == (1, 1)


def test_min_rf_chains_narrowband_approximation():
    cfg = make_config(num_antennas=64, num_ttds=64, bandwidth=1e6, carrier_freq=100e9)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    r_fc, r_pc = min_rf_chains(cfg, grid, theta0, dtheta)
    approx = math.ceil(32 * abs(math.sin(theta0 + dtheta / 2) - math.sin(theta0 - dtheta / 2)))
    assert r_fc == approx
    assert r_pc == 2 ** math.ceil(math.log2(r_fc))


def test_min_rf_chains_wideband_value_and_rank_bound():
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=256, delay_range=64.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    r_fc, r_pc = min_rf_chains(cfg, grid, theta0, dtheta)
    f = grid.frequencies
    span = abs(
        math.sin(theta0 + dtheta / 2) * f[-1] / cfg.carrier_freq
        - math.sin(theta0 - dtheta / 2) * f[0] / cfg.carrier_freq
    )
    assert r_fc == math.ceil(32 * span - 1e-12)
    assert r_pc == 32
    b = stack_target(behavior1_target(cfg, grid, theta0, dtheta)).matrix
    singular = np.linalg.svd(b, compute_uv=False)
    assert int(np.sum(singular >= 1e-6 * singular[0])) >= r_fc


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    num_antennas=st.one_of(st.integers(1, 128), st.sampled_from([2**k for k in range(8)])),
    num_subcarriers=st.integers(1, 16),
    edges=st.tuples(st.floats(-1.57, 1.57), st.floats(-1.57, 1.57)),
)
def test_min_rf_chains_pc_count_is_one_the_pc_fit_accepts(num_antennas, num_subcarriers, edges):
    cfg = make_config(num_antennas=num_antennas, num_ttds=1, num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    theta0, dtheta = (edges[0] + edges[1]) / 2.0, edges[1] - edges[0]
    r_fc, r_pc = min_rf_chains(cfg, grid, theta0, dtheta)
    assert r_fc <= num_antennas  # the swept spatial frequency spans at most 2
    assert r_fc <= r_pc and chains_fit("pc", r_pc, num_antennas)
    assert not any(chains_fit("pc", n, num_antennas) for n in range(r_fc, r_pc))
    tm = stack_target(behavior1_target(cfg, grid, theta0, dtheta))
    assert altmin_pc(tm, r_pc, iters=1, restarts=1).n_rf == r_pc
    if num_antennas & (num_antennas - 1) == 0:
        assert r_pc == 1 << max(0, math.ceil(math.log2(r_fc) - 1e-12))


def test_min_rf_chains_pc_count_divides_a_48_antenna_array():
    cfg = make_config(num_antennas=48, num_ttds=48, num_subcarriers=64, delay_range=48.0)
    grid = build_grid(cfg)
    assert min_rf_chains(cfg, grid, math.pi / 6, math.pi / 4) == (17, 24)
    tm = stack_target(behavior1_target(cfg, grid, math.pi / 6, math.pi / 4))
    assert altmin_pc(tm, 24, iters=1, restarts=1).n_rf == 24


def test_orthogonal_columns_identity():
    # uniform phase ramps spaced by exactly 2/M are orthogonal
    m = 16
    idx = np.arange(m)
    for j in (1, 2, 5):
        g1 = np.exp(1j * np.pi * 0.05 * idx)
        g2 = np.exp(1j * np.pi * (0.05 + 2.0 * j / m) * idx)
        assert abs(np.vdot(g1, g2)) < 1e-12


def test_orthogonal_column_count_narrowband_single():
    cfg = make_config(num_antennas=16, num_ttds=16, bandwidth=1e6, carrier_freq=100e9, num_subcarriers=32)
    grid = build_grid(cfg)
    b = stack_target(behavior1_target(cfg, grid, 0.3, 0.0)).matrix
    assert orthogonal_column_count(b, 16) == 1


def test_orthogonal_column_count_meets_chain_bound():
    cfg = make_config(num_antennas=64, num_ttds=64, num_subcarriers=256, delay_range=64.0)
    grid = build_grid(cfg)
    theta0, dtheta = math.pi / 6, math.pi / 4
    b = stack_target(behavior1_target(cfg, grid, theta0, dtheta)).matrix
    r_fc, _ = min_rf_chains(cfg, grid, theta0, dtheta)
    assert orthogonal_column_count(b, 64) >= r_fc


@pytest.mark.parametrize("call, message", [
    (lambda: TargetMatrix(matrix=np.ones(4), power_budget=1.0), "target matrix must be two-dimensional (M, K)"),
    (lambda: orthogonal_column_count(np.ones((3, 5)), 4), "matrix has 3 rows; expected 4"),
    (lambda: HbfBeamformer(analog=np.ones((4, 1)), digital=np.array([[1.0, 0.0, 1.0]]),
                           structure=HbfStructure.FULLY_CONNECTED, n_rf=1, seed=0, residual=0.0,
                           residual_trace=np.zeros(1)).unit_effective_vectors(),
     "effective beam vanished on some subcarrier; cannot normalize"),
], ids=["one_dimensional_target", "row_mismatch", "zero_digital_column"])
def test_hybrid_inputs_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_orthogonal_column_count_of_one_antenna_is_one():
    assert orthogonal_column_count(np.exp(1j * np.arange(5.0))[None, :], 1) == 1
