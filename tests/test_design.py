import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jpta.design as design_module
from jpta.array_model import SystemConfig, build_grid, delay_response, effective_beamformer_matrix
from jpta.beam_targets import BeamTarget, behavior1_target, behavior2_target
from jpta.design import (
    DesignOptions,
    JptaBeamformer,
    TtdUpdate,
    center_delays,
    design_jpta,
    digital_phase_update,
    digital_power_allocation,
    phase_unwrap,
    ps_update,
    quantize_delays,
    shift_nonnegative,
    ttd_objective,
    ttd_update_line_search,
    ttd_update_wls,
)
from jpta.design import _COARSE_STEP, _GRID_TABLE, _TIE_TOL, _grid_table, _line_search
from jpta.heuristics import heuristic_behavior1
from jpta.metrics import build_fit_report, fit_objective

from helpers import (
    alignment_objective_direct,
    brute_force_best,
    group_objective_direct,
    make_config,
    random_gaussian_target,
    random_steered_target,
)


def linear_phase_target(cfg, grid, tau_star, rng=None):
    """Per-antenna constant plus a common linear-in-frequency phase ramp."""
    rng = rng or np.random.default_rng(0)
    offsets = rng.uniform(-np.pi, np.pi, cfg.num_antennas)
    amp = math.sqrt(cfg.total_power / (cfg.num_antennas * cfg.num_subcarriers))
    phase = offsets[None, :] - 2.0 * np.pi * grid.frequencies[:, None] * tau_star
    return BeamTarget(
        vectors=amp * np.exp(1j * phase),
        weights=np.ones(cfg.num_subcarriers),
        power_budget=cfg.total_power,
    )


def test_digital_power_allocation_copies_norms():
    cfg = make_config(num_antennas=4, num_ttds=2)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.2, 0.4)
    mags = digital_power_allocation(target)
    assert np.array_equal(mags, target.norms)
    assert np.sum(mags**2) <= cfg.total_power * (1 + 1e-12)


def test_ttd_objective_single_subcarrier_is_flat():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=1)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.3, 0.3)
    a = ttd_objective(cfg, grid, 1, 0.0, target, np.zeros(1))
    b = ttd_objective(cfg, grid, 1, 0.17e-9, target, np.zeros(1))
    assert a == pytest.approx(b, abs=1e-12)


def test_ttd_objective_periodicity():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16)
    grid = build_grid(cfg)
    rng = np.random.default_rng(3)
    target = random_steered_target(cfg, grid, rng)
    period = cfg.num_subcarriers / cfg.bandwidth
    ang = rng.uniform(-np.pi, np.pi, 16)
    for tau in rng.uniform(-2e-9, 2e-9, 20):
        assert ttd_objective(cfg, grid, 1, tau, target, ang) == pytest.approx(
            ttd_objective(cfg, grid, 1, tau + period, target, ang), abs=1e-10
        )


def test_ttd_objective_peak_matches_dense_grid_argmax():
    # single-antenna, single-line case against an independent dense-grid scan
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=32, delay_range=4.0)
    grid = build_grid(cfg)
    tau_star = 0.11e-9
    target = linear_phase_target(cfg, grid, tau_star)
    result = ttd_update_line_search(cfg, grid, 1, target, np.zeros(32))
    dense = np.linspace(-cfg.delay_range / (2 * cfg.bandwidth), cfg.delay_range / (2 * cfg.bandwidth), 40001)
    values = [ttd_objective(cfg, grid, 1, t, target, np.zeros(32)) for t in dense]
    assert abs(result - dense[int(np.argmax(values))]) < 2 * (dense[1] - dense[0]) + 1e-13
    assert result == pytest.approx(tau_star, abs=1e-12)


def test_line_search_flat_objective_returns_smallest_grid_point():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=1)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.3, 0.3)
    tau = ttd_update_line_search(cfg, grid, 1, target, np.zeros(1))
    assert tau == -cfg.delay_range / (2 * cfg.bandwidth)


def test_line_search_dominates_every_grid_point():
    rng = np.random.default_rng(9)
    opts = DesignOptions(line_search_grid=512)
    for _ in range(20):
        cfg = make_config(num_antennas=2, num_ttds=2, num_subcarriers=8, delay_range=4.0)
        grid = build_grid(cfg)
        target = random_gaussian_target(cfg, grid, rng)
        ang = rng.uniform(-np.pi, np.pi, 8)
        half = cfg.delay_range / (2 * cfg.bandwidth)
        taus = np.linspace(-half, half, opts.line_search_grid)
        for n in (1, 2):
            tau = ttd_update_line_search(cfg, grid, n, target, ang, opts)
            best = ttd_objective(cfg, grid, n, tau, target, ang)
            worst_violation = max(
                ttd_objective(cfg, grid, n, t, target, ang) - best for t in taus
            )
            assert worst_violation <= 1e-9


def test_line_search_tracks_closed_form_slope_for_swept_target():
    # with the closed-form design's digital phases, the per-line optima sit a
    # few grid steps from the mean-slope formula (both centered; the formula's
    # 1-based antenna index only shifts the common offset)
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=128, delay_range=16.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, math.pi / 6, math.pi / 4)
    closed = heuristic_behavior1(cfg, grid, math.pi / 6, math.pi / 4, nonnegative=False)
    ang = np.angle(closed.alpha)
    opts = DesignOptions()
    searched = np.array(
        [ttd_update_line_search(cfg, grid, n, target, ang, opts) for n in range(1, 17)]
    )
    step = cfg.delay_range / cfg.bandwidth / (opts.line_search_grid - 1)
    centered_search = searched - searched.mean()
    centered_closed = closed.delays - closed.delays.mean()
    assert np.max(np.abs(centered_search - centered_closed)) < 16 * step


def test_phase_unwrap_examples():
    assert np.array_equal(phase_unwrap([1.2, 1.2, 1.2]), [1.2, 1.2, 1.2])
    out = phase_unwrap([0.0, 3.0, -0.2832])
    assert out[0] == 0.0 and out[1] == 3.0
    assert out[2] == pytest.approx(-0.2832 + 2 * np.pi, abs=1e-12)
    assert out[2] == pytest.approx(6.0, abs=1e-4)
    ramp = np.arange(50) * 0.1
    assert np.array_equal(phase_unwrap(ramp), ramp)


def test_phase_unwrap_properties():
    rng = np.random.default_rng(21)
    for _ in range(50):
        seq = rng.uniform(-np.pi, np.pi, 64)
        out = phase_unwrap(seq)
        turns = np.round((out - seq) / (2 * np.pi))
        assert np.array_equal(out, seq + 2 * np.pi * turns)  # exact 2*pi multiples
        assert np.max(np.abs(np.diff(out))) <= np.pi + 1e-12
        assert out[0] == seq[0]


def test_wls_recovers_exact_linear_phase():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16, delay_range=8.0)
    grid = build_grid(cfg)
    tau_star = 0.23e-9  # inside [-kappa/2W, kappa/2W] = [-0.4, 0.4] ns
    target = linear_phase_target(cfg, grid, tau_star)
    for n in (1, 2):
        assert ttd_update_wls(cfg, grid, n, target, np.zeros(16)) == pytest.approx(tau_star, abs=1e-10)


def test_wls_clamps_out_of_range_slope():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=16, delay_range=2.0)
    grid = build_grid(cfg)
    half = cfg.delay_range / (2 * cfg.bandwidth)
    target = linear_phase_target(cfg, grid, 3.1 * half)
    assert ttd_update_wls(cfg, grid, 1, target, np.zeros(16)) == pytest.approx(half, abs=1e-15)
    target = linear_phase_target(cfg, grid, -3.1 * half)
    assert ttd_update_wls(cfg, grid, 1, target, np.zeros(16)) == pytest.approx(-half, abs=1e-15)


def test_wls_near_line_search_optimum_on_steered_targets():
    # swept and split draws: the second-order fit behind the closed form
    # assumes near-linear unwrapped phases, which three-level steps break
    rng = np.random.default_rng(33)
    for trial in range(25):
        cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=8, delay_range=4.0)
        grid = build_grid(cfg)
        if trial % 2 == 0:
            theta0 = float(rng.uniform(-1.0, 1.0))
            width = float(rng.uniform(0.0, min(np.pi / 2 - abs(theta0), 1.0) * 2))
            target = behavior1_target(cfg, grid, theta0, width)
        else:
            target = behavior2_target(
                cfg, grid,
                float(rng.uniform(-np.pi / 2, np.pi / 2)),
                float(rng.uniform(-np.pi / 2, np.pi / 2)),
            )
        ang = np.zeros(8)
        t_ls = ttd_update_line_search(cfg, grid, 1, target, ang)
        t_wls = ttd_update_wls(cfg, grid, 1, target, ang)
        ratio = ttd_objective(cfg, grid, 1, t_wls, target, ang) / ttd_objective(
            cfg, grid, 1, t_ls, target, ang
        )
        assert ratio >= 0.98


def test_wls_rejects_all_zero_weights():
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    vectors = behavior2_target(cfg, grid, 0.1, 0.2).vectors
    target = BeamTarget(vectors=vectors, weights=np.array([0.0, 0.0, 0.0, 1.0]), power_budget=cfg.total_power)
    zeroed = BeamTarget(
        vectors=np.where(np.arange(4)[:, None] == 3, 0.0, vectors),
        weights=np.array([1.0, 1.0, 1.0, 1.0]),
        power_budget=cfg.total_power,
    )
    # fine with one live subcarrier
    ttd_update_wls(cfg, grid, 1, target, np.zeros(4))
    with pytest.raises(ValueError):
        all_dead = BeamTarget(vectors=vectors, weights=np.zeros(4), power_budget=cfg.total_power)


def test_ps_update_single_subcarrier():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=1)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.37, 0.37)
    for m in range(1, 5):
        phi = ps_update(cfg, grid, m, 0.0, target, np.zeros(1))
        assert phi == pytest.approx(np.angle(target.unit_vectors[0, m - 1]), abs=1e-12)


def test_ps_update_conjugate_symmetric_spectrum():
    # odd subcarrier count pairs +k with -k; conjugate rows make the sum real
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=5)
    grid = build_grid(cfg)
    rng = np.random.default_rng(8)
    half = rng.uniform(-np.pi, np.pi, (2, 2))
    phases = np.vstack([half, np.zeros((1, 2)), -half[::-1]])
    amp = math.sqrt(cfg.total_power / (2 * 5))
    target = BeamTarget(vectors=amp * np.exp(1j * phases), weights=np.ones(5), power_budget=cfg.total_power)
    for m in (1, 2):
        phi = ps_update(cfg, grid, m, 0.0, target, np.zeros(5))
        assert min(abs(phi), abs(abs(phi) - np.pi)) < 1e-9


def test_ps_update_is_local_maximum():
    rng = np.random.default_rng(4)
    cfg = make_config(num_antennas=2, num_ttds=1, num_subcarriers=8)
    grid = build_grid(cfg)
    for _ in range(20):
        target = random_gaussian_target(cfg, grid, rng)
        ang = rng.uniform(-np.pi, np.pi, 8)
        tau = rng.uniform(-0.2e-9, 0.2e-9)
        phis = np.array([ps_update(cfg, grid, m, tau, target, ang) for m in (1, 2)])
        base = group_objective_direct(cfg, grid, target, 1, tau, phis, ang)
        for j in range(2):
            for delta in (0.01, -0.01):
                probe = phis.copy()
                probe[j] += delta
                assert group_objective_direct(cfg, grid, target, 1, tau, probe, ang) <= base + 1e-12


def test_digital_phase_update_aligned_beam_is_zero():
    cfg = make_config(num_antennas=4, num_ttds=4, num_subcarriers=8)
    grid = build_grid(cfg)
    theta = 0.28
    target = behavior2_target(cfg, grid, theta, theta)
    # realize the target exactly: progressive squint-matched delays (no common
    # shift, which would leave a per-subcarrier phase for the digital stage)
    f0 = cfg.carrier_freq
    delays = np.array([-(m - 1) * math.sin(theta) / (2 * f0) for m in range(1, 5)])
    phases = np.angle(target.unit_vectors[grid.position(0)]) + 2 * np.pi * f0 * delays
    for k in grid.indices:
        ang = digital_phase_update(cfg, grid, int(k), delays, phases, target)
        assert abs(ang) < 1e-9


def test_digital_phase_update_scalar_array():
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    rng = np.random.default_rng(14)
    target = random_gaussian_target(cfg, grid, rng)
    tau, phi = 0.13e-9, 0.8
    for k in grid.indices:
        got = digital_phase_update(cfg, grid, int(k), np.array([tau]), np.array([phi]), target)
        pos = grid.position(int(k))
        expected = np.angle(
            target.unit_vectors[pos, 0] * np.exp(-1j * phi) * np.exp(2j * np.pi * grid.frequencies[pos] * tau)
        )
        assert got == pytest.approx(expected, abs=1e-12)


def test_digital_phase_update_aligns_inner_product():
    rng = np.random.default_rng(6)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = random_gaussian_target(cfg, grid, rng)
    delays = rng.uniform(0, cfg.max_delay, 2)
    phases = rng.uniform(-np.pi, np.pi, 4)
    bf = JptaBeamformer(delays=delays, phases=phases, alpha=np.ones(8, dtype=complex))
    beams = effective_beamformer_matrix(cfg, grid, bf)
    for k in grid.indices:
        pos = grid.position(int(k))
        ang = digital_phase_update(cfg, grid, int(k), delays, phases, target)
        inner = np.vdot(target.unit_vectors[pos], beams[pos])
        assert np.real(np.exp(1j * ang) * inner) == pytest.approx(abs(inner), abs=1e-12)


def test_center_delays_uniform_vector_goes_to_zero():
    cfg = make_config()
    out, offset = center_delays(cfg, np.full(2, 0.7e-9))
    assert np.allclose(out, 0.0)
    assert offset == pytest.approx(0.7e-9)


def test_center_delays_full_spread():
    cfg = make_config(num_antennas=4, num_ttds=2, delay_range=8.0)
    span = cfg.max_delay
    out, _ = center_delays(cfg, np.array([0.0, span]))
    assert np.allclose(out, [-span / 2, span / 2])


def test_center_and_compensate_preserves_alignment_objective():
    rng = np.random.default_rng(12)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = random_gaussian_target(cfg, grid, rng)
    delays = rng.uniform(0, cfg.max_delay, 2)
    phases = rng.uniform(-np.pi, np.pi, 4)
    ang = rng.uniform(-np.pi, np.pi, 8)
    before = alignment_objective_direct(cfg, grid, target, delays, phases, ang)
    shifted, offset = center_delays(cfg, delays)
    ang_comp = ang - 2 * np.pi * grid.frequencies * offset
    after = alignment_objective_direct(cfg, grid, target, shifted, phases, ang_comp)
    assert after == pytest.approx(before, abs=1e-10)


def test_shift_nonnegative():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8, delay_range=40.0)
    grid = build_grid(cfg)
    rng = np.random.default_rng(2)
    target = random_gaussian_target(cfg, grid, rng)
    bf = JptaBeamformer(
        delays=np.array([-1e-9, 1e-9]),
        phases=rng.uniform(-np.pi, np.pi, 4),
        alpha=np.exp(1j * rng.uniform(-np.pi, np.pi, 8)),
    )
    out = shift_nonnegative(cfg, grid, bf)
    assert np.allclose(out.delays, [0.0, 2e-9])
    # the per-subcarrier product alpha * (analog beam) is unchanged
    before = effective_beamformer_matrix(cfg, grid, bf) * bf.alpha[:, None]
    after = effective_beamformer_matrix(cfg, grid, out) * out.alpha[:, None]
    assert np.max(np.abs(before - after)) < 1e-10
    assert fit_objective(target, effective_beamformer_matrix(cfg, grid, bf)) == pytest.approx(
        fit_objective(target, effective_beamformer_matrix(cfg, grid, out)), abs=1e-12
    )
    already = shift_nonnegative(cfg, grid, out)
    assert np.array_equal(already.delays, out.delays)


def test_quantize_delays():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8, delay_range=8.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    w = cfg.bandwidth
    bf = JptaBeamformer(delays=np.array([0.3 / w, 0.5 / w]), phases=np.zeros(4),
                        alpha=np.ones(8, dtype=complex))
    exact = quantize_delays(cfg, grid, bf, target, np.array([0.3 / w, 0.5 / w]))
    assert np.array_equal(exact.delays, bf.delays)
    snapped = quantize_delays(cfg, grid, bf, target, np.array([0.0, 0.5 / w]))
    assert snapped.delays[0] == 0.5 / w  # 0.3/W is nearer to 0.5/W than to 0
    tie = quantize_delays(cfg, grid, bf, target,
                          np.array([0.3 / w - 0.1 / w, 0.3 / w + 0.1 / w]))
    assert tie.delays[0] == pytest.approx(0.2 / w)  # equidistant resolves down
    with pytest.raises(ValueError):
        quantize_delays(cfg, grid, bf, target, np.array([]))
    with pytest.raises(ValueError):
        quantize_delays(cfg, grid, bf, target, np.array([-0.1 / w, 0.5 / w]))
    with pytest.raises(ValueError):
        quantize_delays(cfg, grid, bf, target, np.array([0.0, 2.0 * cfg.max_delay]))


def test_quantized_design_cannot_beat_continuous():
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=16, delay_range=8.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.4, 0.5)
    continuous, _ = design_jpta(cfg, grid, target)
    levels = tuple(np.linspace(0.0, cfg.max_delay, 4))  # 2-bit delay hardware
    coarse, _ = design_jpta(cfg, grid, target, DesignOptions(discrete_delays=levels))
    assert set(np.round(coarse.delays, 15)) <= set(np.round(levels, 15))
    f_cont = fit_objective(target, effective_beamformer_matrix(cfg, grid, continuous))
    f_coarse = fit_objective(target, effective_beamformer_matrix(cfg, grid, coarse))
    assert f_coarse <= f_cont + 1e-12


def test_design_scalar_array_converges_immediately():
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=8)
    grid = build_grid(cfg)
    rng = np.random.default_rng(19)
    target = random_gaussian_target(cfg, grid, rng)
    bf, trace = design_jpta(cfg, grid, target, DesignOptions(max_iter=3))
    assert trace[0] == pytest.approx(np.sum(target.weights), rel=1e-12)
    assert fit_objective(target, effective_beamformer_matrix(cfg, grid, bf)) == pytest.approx(1.0, abs=1e-12)


def test_design_trace_monotone_line_search():
    rng = np.random.default_rng(31)
    for _ in range(5):
        cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16, delay_range=8.0)
        grid = build_grid(cfg)
        target = random_steered_target(cfg, grid, rng)
        _, trace = design_jpta(cfg, grid, target, DesignOptions(max_iter=8))
        assert np.all(np.diff(trace) >= -1e-7)


def test_design_early_stop():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.2)
    _, full = design_jpta(cfg, grid, target, DesignOptions(max_iter=10))
    _, stopped = design_jpta(
        cfg, grid, target, DesignOptions(max_iter=10, convergence_epsilon=1e-6)
    )
    assert stopped.size < full.size
    assert stopped[-1] == pytest.approx(full[-1], rel=1e-4)


def test_design_respects_nonnegative_flag_and_range():
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=16, delay_range=4.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.5)
    bf, _ = design_jpta(cfg, grid, target)
    assert bf.delays.min() >= 0.0 and bf.delays.max() <= cfg.max_delay + 1e-18
    assert np.all(bf.phases >= -np.pi) and np.all(bf.phases < np.pi)
    assert np.sum(np.abs(bf.alpha) ** 2) <= cfg.total_power * (1 + 1e-9)
    centered, _ = design_jpta(cfg, grid, target, DesignOptions(enforce_nonnegative_delays=False))
    half = cfg.delay_range / (2 * cfg.bandwidth)
    assert centered.delays.min() >= -half - 1e-18 and centered.delays.max() <= half + 1e-18


def test_design_random_digital_phase_start_converges_too():
    cfg = make_config(num_antennas=4, num_ttds=4, num_subcarriers=16, delay_range=8.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.35, 0.4)
    base, _ = design_jpta(cfg, grid, target)
    seeded, _ = design_jpta(cfg, grid, target, DesignOptions(init_phase_seed=123))
    f_base = fit_objective(target, effective_beamformer_matrix(cfg, grid, base))
    f_seed = fit_objective(target, effective_beamformer_matrix(cfg, grid, seeded))
    assert f_seed == pytest.approx(f_base, abs=5e-3)


def test_conditional_optimality_of_group_updates():
    # after one line-search + phase refresh, no grid perturbation of the
    # line's delay improves the per-group alignment term
    rng = np.random.default_rng(44)
    opts = DesignOptions(line_search_grid=256)
    cfg = make_config(num_antennas=2, num_ttds=2, num_subcarriers=8, delay_range=4.0)
    grid = build_grid(cfg)
    half = cfg.delay_range / (2 * cfg.bandwidth)
    taus = np.linspace(-half, half, opts.line_search_grid)
    for _ in range(10):
        target = random_gaussian_target(cfg, grid, rng)
        ang = rng.uniform(-np.pi, np.pi, 8)
        for n in (1, 2):
            tau = ttd_update_line_search(cfg, grid, n, target, ang, opts)
            phi = np.array([ps_update(cfg, grid, m, tau, target, ang) for m in cfg.ttd_groups[n - 1]])
            base = group_objective_direct(cfg, grid, target, n, tau, phi, ang)
            violations = [
                group_objective_direct(cfg, grid, target, n, t, phi, ang) - base for t in taus
            ]
            assert max(violations) <= 1e-9


def test_design_matches_dense_brute_force_grid():
    # two antennas, two lines, four subcarriers: joint grid over both delays
    # (2001 points each) and both phases (721 each), digital phases aligned
    cfg = make_config(num_antennas=2, num_ttds=2, num_subcarriers=4, delay_range=4.0)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, -0.6, 0.4)
    bf, trace = design_jpta(cfg, grid, target)
    brute = brute_force_best(cfg, grid, target, n_tau=2001, n_phi=721)
    assert brute <= trace[-1] * 1.01


def test_design_single_subcarrier_degenerate_grid():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=1,
                      carrier_freq=10e9, bandwidth=1e9, delay_range=2.0)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.3, 0.3)
    bf, trace = design_jpta(cfg, grid, target)
    assert fit_objective(target, effective_beamformer_matrix(cfg, grid, bf)) == pytest.approx(1.0, abs=1e-12)
    assert bf.delays.min() >= 0.0


def test_design_with_interleaved_ttd_groups():
    cfg = SystemConfig(num_antennas=6, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                       num_subcarriers=16, delay_range=6.0, ttd_groups=((1, 3, 5), (2, 4, 6)))
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    bf, trace = design_jpta(cfg, grid, target)
    assert np.all(np.diff(trace) >= -1e-7)
    assert bf.delays.min() >= 0.0 and bf.delays.max() <= cfg.max_delay + 1e-18
    beams = effective_beamformer_matrix(cfg, grid, bf)
    assert np.allclose(np.linalg.norm(beams, axis=1), 1.0, atol=1e-12)
    assert fit_objective(target, beams) > 0.5


@pytest.mark.parametrize("update", [
    lambda cfg, grid, n, target, ang: ttd_objective(cfg, grid, n, 0.0, target, ang),
    ttd_update_line_search,
    ttd_update_wls,
])
@pytest.mark.parametrize("n", [0, 3])
def test_per_line_updates_reject_a_line_number_out_of_range(update, n):
    cfg = SystemConfig(num_antennas=4, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                       num_subcarriers=16, delay_range=4.0, ttd_groups=((3, 1), (4, 2)))
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    with pytest.raises(ValueError, match=f"^delay line number {n} out of range 1..2$"):
        update(cfg, grid, n, target, np.zeros(16))


def test_the_delay_line_layout_has_one_owner():
    # SystemConfig derives the layout; the optimizer reads its arrays and never the groups
    src = Path(design_module.__file__).parent
    assert "ttd_groups" not in (src / "design.py").read_text(encoding="utf-8")
    for module in src.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_group_columns", "group_indices"}, module.name


def test_options_validation():
    with pytest.raises(ValueError):
        DesignOptions(max_iter=0)
    with pytest.raises(ValueError):
        DesignOptions(line_search_grid=2)
    with pytest.raises(ValueError):
        DesignOptions(discrete_delays=())
    with pytest.raises(ValueError):
        DesignOptions(discrete_delays=(2e-9, 1e-9))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            DesignOptions(discrete_delays=(0.0, bad))
    with pytest.raises(ValueError):
        DesignOptions(ttd_update="newton")
    with pytest.raises(ValueError, match=r"init_phase_seed \(-1\) must be non-negative"):
        DesignOptions(init_phase_seed=-1)
    assert DesignOptions(ttd_update="wls").ttd_update is TtdUpdate.WLS
    assert DesignOptions(init_phase_seed=0).init_phase_seed == 0


def test_design_rejects_discrete_set_outside_range():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8, delay_range=2.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.2)
    with pytest.raises(ValueError):
        design_jpta(cfg, grid, target, DesignOptions(discrete_delays=(0.0, 2 * cfg.max_delay)))


def test_discrete_set_top_value_from_ns_is_accepted():
    # k/10 ns converted to seconds overshoots kappa/W = k/10 ns by an ulp for
    # about half of these ranges; the set's top value still counts as kappa/W
    hits = 0
    for k in range(1, 200):
        cfg = make_config(num_antennas=2, num_ttds=2, num_subcarriers=4, delay_range=float(k))
        grid = build_grid(cfg)
        target = behavior2_target(cfg, grid, 0.1, 0.2)
        top = (k / 10) * 1e-9
        hits += top > cfg.max_delay
        bf = JptaBeamformer(delays=np.array([0.0, cfg.max_delay]), phases=np.zeros(2),
                            alpha=np.ones(4, dtype=complex))
        out = quantize_delays(cfg, grid, bf, target, np.array([0.0, top]))
        assert np.array_equal(out.delays, [0.0, min(top, cfg.max_delay)])
    assert hits > 0


def test_discrete_set_ignores_nonnegative_flag():
    # the set lives in [0, kappa/W], so delays are shifted there before snapping
    cfg = make_config(num_antennas=16, num_ttds=16, num_subcarriers=128, delay_range=16.0)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, math.pi / 6, math.pi / 4)
    levels = tuple(np.linspace(0.0, cfg.max_delay, 33))
    shifted, _ = design_jpta(cfg, grid, target, DesignOptions(discrete_delays=levels))
    centered, _ = design_jpta(
        cfg, grid, target, DesignOptions(discrete_delays=levels, enforce_nonnegative_delays=False)
    )
    for name in ("delays", "phases", "alpha"):
        assert np.array_equal(getattr(shifted, name), getattr(centered, name)), name
    assert fit_objective(target, effective_beamformer_matrix(cfg, grid, centered)) > 0.9


@pytest.mark.parametrize("groups", [((4, 5, 6), (1, 2, 3)), ((1, 3, 5), (2, 4, 6))])
@pytest.mark.parametrize("variant", list(TtdUpdate))
def test_one_design_iteration_matches_per_line_updates(groups, variant):
    cfg = SystemConfig(num_antennas=6, num_ttds=2, carrier_freq=100e9, bandwidth=10e9,
                       num_subcarriers=16, delay_range=6.0, ttd_groups=groups)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    opts = DesignOptions(ttd_update=variant, max_iter=1, enforce_nonnegative_delays=False)
    bf, trace = design_jpta(cfg, grid, target, opts)

    ang = np.zeros(16)
    if variant is TtdUpdate.LINE_SEARCH:
        tau = [ttd_update_line_search(cfg, grid, n, target, ang, opts) for n in (1, 2)]
    else:
        tau = [ttd_update_wls(cfg, grid, n, target, ang) for n in (1, 2)]
    line_of = {m: n for n, group in enumerate(groups) for m in group}
    phases = np.array([ps_update(cfg, grid, m, tau[line_of[m]], target, ang) for m in range(1, 7)])
    delays, _ = center_delays(cfg, np.array(tau))
    alpha_phases = np.array(
        [digital_phase_update(cfg, grid, int(k), delays, phases, target) for k in grid.indices]
    )
    assert np.max(np.abs(bf.delays - delays)) <= 1e-12 * cfg.max_delay
    assert np.max(np.abs(np.exp(1j * bf.phases) - np.exp(1j * phases))) <= 1e-12
    assert np.max(np.abs(bf.alpha - target.norms * np.exp(1j * alpha_phases))) <= 1e-12
    expected = alignment_objective_direct(cfg, grid, target, delays, phases, alpha_phases)
    assert trace[0] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([(2, 1), (2, 2), (4, 2), (4, 4), (6, 3), (8, 2), (8, 4), (8, 8)]),
    num_subcarriers=st.sampled_from([4, 8, 16, 32]),
    variant=st.sampled_from(list(TtdUpdate)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_relabelling_delay_lines_permutes_delays_only(shape, num_subcarriers, variant, seed, data):
    num_antennas, num_ttds = shape
    cfg = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=num_subcarriers)
    perm = data.draw(st.permutations(range(num_ttds)))
    relabelled = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=num_subcarriers,
                             ttd_groups=tuple(cfg.ttd_groups[p] for p in perm))
    grid = build_grid(cfg)
    target = random_steered_target(cfg, grid, np.random.default_rng(seed))
    opts = DesignOptions(ttd_update=variant, max_iter=3, line_search_grid=256)
    a, trace_a = design_jpta(cfg, grid, target, opts)
    b, trace_b = design_jpta(relabelled, grid, target, opts)
    assert np.max(np.abs(b.delays - a.delays[list(perm)])) <= 1e-9 * cfg.max_delay
    assert np.max(np.abs(np.exp(1j * b.phases) - np.exp(1j * a.phases))) <= 1e-9
    assert np.max(np.abs(b.alpha - a.alpha)) <= 1e-9
    assert np.max(np.abs(trace_b - trace_a)) <= 1e-9


def _design_bits(cfg, opts):
    grid = build_grid(cfg)
    bf, trace = design_jpta(cfg, grid, behavior1_target(cfg, grid, 0.3, 0.4), opts)
    return [a.view(np.uint64).tobytes() for a in (bf.delays, bf.phases, bf.alpha, trace)]


def _assert_memo_holds_only(cfg, points):
    """The memo holds one read-only set: the grid of ``cfg`` with ``points`` points, its coarse
    phase rows and its step table, and no (K, G) table."""
    freqs = build_grid(cfg).frequencies
    (search,) = _GRID_TABLE.values()
    half = cfg.delay_range / (2.0 * cfg.bandwidth)
    coarse = np.append(np.arange(0, points - 1, _COARSE_STEP), points - 1)
    assert np.array_equal(search.taus, np.linspace(-half, half, points))
    assert np.array_equal(search.coarse, coarse)
    steps = np.arange(min(_COARSE_STEP, points - 1) + 1) * (2.0 * half / (points - 1))
    for built, direct in ((search.phases, delay_response(freqs, search.taus[coarse]).T),
                          (search.steps, delay_response(freqs, steps))):
        assert built.shape == direct.shape and np.array_equal(built, direct)
    for arr in search:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert max(search.phases.size, search.steps.size) <= freqs.size * max(coarse.size, _COARSE_STEP + 1)


@pytest.mark.parametrize(
    "other, other_points",
    [({"delay_range": 4.0}, 512), ({"num_subcarriers": 16}, 512), ({}, 257)],
)
def test_designs_after_a_grid_switch_equal_cold_designs(other, other_points):
    cfg_a = make_config(num_antennas=8, num_ttds=4, num_subcarriers=32)
    cfg_b = make_config(**{**dict(num_antennas=8, num_ttds=4, num_subcarriers=32), **other})
    opts_a = DesignOptions(line_search_grid=512)
    opts_b = DesignOptions(line_search_grid=other_points)
    _GRID_TABLE.clear()
    cold_a = _design_bits(cfg_a, opts_a)
    _GRID_TABLE.clear()
    cold_b = _design_bits(cfg_b, opts_b)
    _assert_memo_holds_only(cfg_b, other_points)
    _GRID_TABLE.clear()
    assert _design_bits(cfg_a, opts_a) == cold_a
    _assert_memo_holds_only(cfg_a, 512)
    assert _design_bits(cfg_b, opts_b) == cold_b
    _assert_memo_holds_only(cfg_b, other_points)
    assert _design_bits(cfg_a, opts_a) == cold_a
    _assert_memo_holds_only(cfg_a, 512)


def test_grid_table_memo_holds_one_read_only_table():
    cfg = make_config(num_subcarriers=32)
    grid = build_grid(cfg)
    search = _grid_table(cfg, grid, 300)
    assert _grid_table(cfg, grid, 300) is search
    _assert_memo_holds_only(cfg, 300)
    wider = make_config(num_subcarriers=32, delay_range=16.0)
    assert _grid_table(wider, grid, 300) is not search
    _assert_memo_holds_only(wider, 300)
    assert _grid_table(wider, grid, 3).coarse.tolist() == [0, 2]
    _assert_memo_holds_only(wider, 3)


def _exhaustive_line_search(cfg, grid, n, target, ang, taus):
    """Reference delay of line ``n``: ``ttd_objective`` at every grid point, the first point
    within the tie tolerance of the best, then the same parabolic refine."""
    values = np.array([ttd_objective(cfg, grid, n, t, target, ang) for t in taus])
    best = int(np.argmax(values >= values.max() - _TIE_TOL))
    mid = min(max(best, 1), taus.size - 2)
    (x1, x2, x3), (y1, y2, y3) = taus[mid - 1 : mid + 2], values[mid - 1 : mid + 2]
    denom = (x2 - x1) * (y2 - y3) - (x2 - x3) * (y2 - y1)
    if best != mid or denom == 0.0:
        return taus[best]
    vertex = x2 - 0.5 * ((x2 - x1) ** 2 * (y2 - y3) - (x2 - x3) ** 2 * (y2 - y1)) / denom
    vertex = min(max(vertex, x1), x3)
    return vertex if ttd_objective(cfg, grid, n, vertex, target, ang) > values[best] else taus[best]


def _assert_matches_exhaustive(cfg, grid, target, ang, points):
    search = _grid_table(cfg, grid, points)
    found = _line_search(design_module._lines(cfg, grid, None, target), ang, search)[0]
    # the two sum in different orders, so a vertex may move by rounding
    step = search.taus[1] - search.taus[0]
    for n in range(1, cfg.num_ttds + 1):
        assert abs(found[n - 1] - _exhaustive_line_search(cfg, grid, n, target, ang, search.taus)) <= 1e-6 * step


@st.composite
def _line_layouts(draw):
    """ttd_groups of one line, of a line per antenna, or of lines of unequal size in shuffled order."""
    antennas = list(range(1, draw(st.integers(1, 8)) + 1))
    kind = draw(st.sampled_from(["one line", "a line per antenna", "uneven"]))
    if kind == "one line":
        return (tuple(antennas),)
    if kind == "a line per antenna":
        return tuple((m,) for m in antennas)
    antennas = draw(st.permutations(antennas))
    cuts = sorted(draw(st.sets(st.integers(1, len(antennas) - 1)))) if len(antennas) > 1 else []
    return tuple(tuple(antennas[a:b]) for a, b in zip([0, *cuts], [*cuts, len(antennas)]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    groups=_line_layouts(),
    num_subcarriers=st.sampled_from([1, 2, 8, 32]),
    points=st.integers(3, 300).filter(lambda g: g % _COARSE_STEP != 0),
    delay_range=st.sampled_from([4.0, 16.0, 64.0]),
    seed=st.integers(0, 2**32 - 1),
)
# K=256, where the single-precision bound pass rounds the most of the sizes above; the second
# layout has a line of more than 17 antennas, whose fine pass shares one table per interval
@example(groups=((1, 2, 3), (4,), (5, 6)), num_subcarriers=256, points=300, delay_range=16.0, seed=11)
@example(groups=(tuple(range(1, 21)), (21,), (24, 22, 23)), num_subcarriers=256, points=1001, delay_range=64.0,
         seed=12)
def test_pruned_line_search_matches_an_exhaustive_scan(groups, num_subcarriers, points, delay_range, seed):
    cfg = make_config(num_antennas=sum(map(len, groups)), num_ttds=len(groups), ttd_groups=groups,
                      num_subcarriers=num_subcarriers, delay_range=delay_range)
    grid = build_grid(cfg)
    rng = np.random.default_rng(seed)
    target = random_gaussian_target(cfg, grid, rng)
    _assert_matches_exhaustive(cfg, grid, target, rng.uniform(-np.pi, np.pi, num_subcarriers), points)


@pytest.mark.parametrize("points", [258, 4098])
def test_line_search_peak_past_the_window_edge_takes_the_last_grid_point(points):
    # the last coarse interval is one step long; on the fine grid the interval before it is
    # skipped, so the refine must not read the unevaluated point next to the edge
    cfg = make_config(num_antennas=4, num_ttds=4, num_subcarriers=32)
    grid = build_grid(cfg)
    half = cfg.delay_range / (2 * cfg.bandwidth)
    target = linear_phase_target(cfg, grid, 1.2 * half)
    search = _grid_table(cfg, grid, points)
    found = _line_search(design_module._lines(cfg, grid, None, target), np.zeros(32), search)[0]
    assert np.array_equal(found, np.full(4, search.taus[-1]))
    _assert_matches_exhaustive(cfg, grid, target, np.zeros(32), points)


@pytest.mark.parametrize("points", [300, 4096])
def test_line_search_on_flat_objectives_evaluates_every_point_and_takes_the_smallest(points):
    # one weighted subcarrier makes every antenna's objective flat in tau, so no
    # interval can be skipped and the fine pass runs in several blocks
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=256)
    grid = build_grid(cfg)
    steered = behavior1_target(cfg, grid, 0.3, 0.4)
    weights = np.zeros(256)
    weights[100] = 1.0
    target = BeamTarget(vectors=steered.vectors, weights=weights, power_budget=steered.power_budget)
    ang = np.random.default_rng(1).uniform(-np.pi, np.pi, 256)
    found = _line_search(design_module._lines(cfg, grid, None, target), ang, _grid_table(cfg, grid, points))[0]
    assert np.array_equal(found, np.full(4, -cfg.delay_range / (2 * cfg.bandwidth)))


def test_no_phase_table_spans_the_subcarriers_times_the_grid(monkeypatch):
    cfg = make_config(num_antennas=16, num_ttds=4, num_subcarriers=64)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    built = []

    def spy(freqs, taus):
        table = delay_response(freqs, taus)
        built.append(table.shape)
        return table

    monkeypatch.setattr(design_module, "delay_response", spy)
    _GRID_TABLE.clear()
    opts = DesignOptions(max_iter=3)
    design_jpta(cfg, grid, target, opts)
    ttd_update_line_search(cfg, grid, 1, target, np.zeros(64), opts)
    # the largest is the coarse table, K x (G/16 + 1)
    assert built and max(map(math.prod, built)) < cfg.num_subcarriers * opts.line_search_grid // 8
    # every iteration builds one (K, N) delay factor, shared by the phase-shifter update and
    # the digital alignment; the line search's is its vertex refine table, of which it would
    # rebuild only the columns of lines that keep their grid point (none here).  Each iteration
    # also builds the (K, 1) rotation of its centering, and the nonnegative shift one more.
    kn, n = cfg.num_subcarriers, cfg.num_ttds
    for variant in TtdUpdate:
        built.clear()
        design_jpta(cfg, grid, target, DesignOptions(ttd_update=variant, max_iter=3))
        assert built == [(kn, n), (kn, 1)] * 3 + [(kn, 1)]


@pytest.mark.parametrize("variant", list(TtdUpdate))
def test_each_iteration_uses_the_delay_factors_of_its_own_delays(monkeypatch, variant):
    # uneven lines, one of more than 17 antennas; on this window some lines keep their grid
    # point and others their refined vertex, so the line search rebuilds some refine columns
    groups = (tuple(range(1, 21)), (21,), (24, 22, 23), (25, 26))
    cfg = make_config(num_antennas=26, num_ttds=4, num_subcarriers=16, ttd_groups=groups, delay_range=1.0)
    grid = build_grid(cfg)
    target = random_gaussian_target(cfg, grid, np.random.default_rng(3))
    delays, aligned = [], []
    center, ps_phases = design_module.center_delays, design_module._ps_phases
    monkeypatch.setattr(design_module, "center_delays", lambda config, tau: center(config, delays.append(tau) or tau))
    monkeypatch.setattr(design_module, "_ps_phases", lambda t, ang, a: ps_phases(t, ang, aligned.append(a) or a))
    opts = DesignOptions(ttd_update=variant, max_iter=4, line_search_grid=300)
    design_jpta(cfg, grid, target, opts)
    assert len(delays) == len(aligned) == 4
    for tau, used in zip(delays, aligned):
        response = delay_response(grid.frequencies, tau)[:, cfg.antenna_line]
        assert np.array_equal(used.view(np.uint64), (target.unit_vectors * np.conj(response)).view(np.uint64))
    if variant is TtdUpdate.LINE_SEARCH:
        on_grid = np.isin(delays, _grid_table(cfg, grid, 300).taus)
        assert on_grid.any() and not on_grid.all()


@pytest.mark.parametrize("num_subcarriers", [16, 256, 2048])
def test_single_precision_bound_pass_stays_within_its_slack(num_subcarriers):
    groups = (tuple(range(1, 21)), (21,), (24, 22, 23))
    cfg = make_config(num_antennas=24, num_ttds=3, num_subcarriers=num_subcarriers, ttd_groups=groups,
                      delay_range=64.0)
    grid = build_grid(cfg)
    rng = np.random.default_rng(num_subcarriers)
    search = _grid_table(cfg, grid, 4096)
    slack = design_module._single_precision_slack(num_subcarriers)
    for target in (random_gaussian_target(cfg, grid, rng), behavior1_target(cfg, grid, 0.3, 0.4)):
        lines = design_module._lines(cfg, grid, None, target)
        for _ in range(3):
            coeffs = design_module._coeffs(lines, rng.uniform(-np.pi, np.pi, num_subcarriers))
            single = np.add.reduceat(np.abs(coeffs.astype(np.complex64) @ search.phases32), lines.starts,
                                     axis=0, dtype=np.float64)
            double = design_module._line_objective(coeffs, lines.starts, search.phases.T)
            assert np.all(np.abs(single - double).max(axis=1) <= slack * lines.mass)
    # about (2 sqrt(2) (K + 1) + 6) u, and finite far past any K whose tables fit in memory
    assert slack == pytest.approx((2 * math.sqrt(2) * (num_subcarriers + 1) + 6) * 2.0**-24, rel=1e-3)
    assert math.isfinite(design_module._single_precision_slack(2**30))


@pytest.mark.parametrize("variant", list(TtdUpdate))
@pytest.mark.parametrize("nonnegative", [True, False])
@pytest.mark.parametrize("shape, seed", [((8, 2), 0), ((8, 4), 1), ((6, 3), 2)])
def test_design_trace_and_digital_phases_match_the_evaluated_beams(variant, nonnegative, shape, seed):
    num_antennas, num_ttds = shape
    cfg = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=32)
    grid = build_grid(cfg)
    rng = np.random.default_rng(seed)
    for target in (random_steered_target(cfg, grid, rng), random_gaussian_target(cfg, grid, rng)):
        opts = DesignOptions(ttd_update=variant, max_iter=4, enforce_nonnegative_delays=nonnegative)
        bf, trace = design_jpta(cfg, grid, target, opts)
        beams = effective_beamformer_matrix(cfg, grid, bf)
        assert trace[-1] == pytest.approx(np.sum(target.weights) * fit_objective(target, beams), rel=1e-12)
        # the digital phases align every subcarrier's realized beam with its target,
        # through the centering and the nonnegative shift
        inner = np.einsum("km,km->k", target.unit_vectors.conj(), beams)
        aligned = np.angle(inner * np.exp(1j * np.angle(bf.alpha)))
        assert np.max(np.abs(aligned[np.abs(inner) > 0.0])) <= 1e-9


_SMALL_SHAPES = [(2, 1), (2, 2), (4, 2), (4, 4), (6, 3), (8, 2), (8, 4), (8, 8)]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(_SMALL_SHAPES),
    num_subcarriers=st.sampled_from([4, 8, 16, 32]),
    variant=st.sampled_from(list(TtdUpdate)),
    gaussian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_design_fit_objective_lies_in_unit_interval(shape, num_subcarriers, variant, gaussian, seed):
    num_antennas, num_ttds = shape
    cfg = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    rng = np.random.default_rng(seed)
    target = (random_gaussian_target if gaussian else random_steered_target)(cfg, grid, rng)
    bf, _ = design_jpta(cfg, grid, target, DesignOptions(ttd_update=variant, max_iter=3, line_search_grid=256))
    f_obj = fit_objective(target, effective_beamformer_matrix(cfg, grid, bf))
    assert 0.0 <= f_obj <= 1.0


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(_SMALL_SHAPES),
    num_subcarriers=st.sampled_from([4, 8, 16, 32]),
    variant=st.sampled_from(list(TtdUpdate)),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(-math.pi, math.pi),
)
def test_common_target_phase_leaves_fit_objective_unchanged(shape, num_subcarriers, variant, seed, c):
    num_antennas, num_ttds = shape
    cfg = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    target = random_steered_target(cfg, grid, np.random.default_rng(seed))
    rotated = BeamTarget(vectors=target.vectors * np.exp(1j * c), weights=target.weights,
                         power_budget=target.power_budget)
    opts = DesignOptions(ttd_update=variant, max_iter=3, line_search_grid=256)
    fits = [
        fit_objective(t, effective_beamformer_matrix(cfg, grid, design_jpta(cfg, grid, t, opts)[0]))
        for t in (target, rotated)
    ]
    assert fits[1] == pytest.approx(fits[0], abs=1e-9)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(_SMALL_SHAPES),
    num_subcarriers=st.sampled_from([4, 8, 16, 32]),
    variant=st.sampled_from(list(TtdUpdate)),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-1.0, 1.0),
)
def test_common_delay_shift_with_digital_compensation_leaves_fit_unchanged(
    shape, num_subcarriers, variant, seed, shift
):
    num_antennas, num_ttds = shape
    cfg = make_config(num_antennas=num_antennas, num_ttds=num_ttds, num_subcarriers=num_subcarriers)
    grid = build_grid(cfg)
    target = random_steered_target(cfg, grid, np.random.default_rng(seed))
    bf, _ = design_jpta(cfg, grid, target, DesignOptions(ttd_update=variant, max_iter=3, line_search_grid=256))
    c = shift * cfg.max_delay
    # every beam picks up exp(-2j*pi*f_k*c); the digital weights take it back out
    shifted = JptaBeamformer(delays=bf.delays + c, phases=bf.phases,
                             alpha=bf.alpha * np.exp(2j * np.pi * grid.frequencies * c))
    before, after = (build_fit_report(cfg, grid, target, b) for b in (bf, shifted))
    assert after.f_obj == pytest.approx(before.f_obj, abs=1e-10)
    assert after.f_tilde_obj == pytest.approx(before.f_tilde_obj, abs=1e-10)
