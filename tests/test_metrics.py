import re

import numpy as np
import pytest

from jpta.array_model import build_grid, effective_beamformer_matrix
from jpta.beam_targets import BeamTarget, behavior1_target, behavior2_target
from jpta.design import JptaBeamformer, design_jpta
from jpta.metrics import (
    FitReport,
    analog_objective,
    build_fit_report,
    fit_objective,
    linear_to_db,
    objective_tilde,
    per_subcarrier_match,
)

from helpers import effective_beam_direct, make_config, random_gaussian_target


def objective_tilde_direct(cfg, grid, target, bf):
    """Definition-level recomputation, one subcarrier at a time."""
    total = 0.0
    for pos in range(grid.num_subcarriers):
        power_term = (target.norms[pos] - abs(bf.alpha[pos])) ** 2
        w = effective_beam_direct(cfg, grid, bf.delays, bf.phases, pos)
        diff = target.unit_vectors[pos] - w * np.exp(1j * np.angle(bf.alpha[pos]))
        total += power_term + target.weights[pos] * float(np.sum(np.abs(diff) ** 2))
    return total / grid.num_subcarriers


def _random_bf(cfg, rng):
    return JptaBeamformer(
        delays=rng.uniform(0, cfg.max_delay, cfg.num_ttds),
        phases=rng.uniform(-np.pi, np.pi, cfg.num_antennas),
        alpha=rng.normal(size=cfg.num_subcarriers) + 1j * rng.normal(size=cfg.num_subcarriers),
    )


def test_objective_tilde_matches_direct_summation():
    rng = np.random.default_rng(27)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    for _ in range(10):
        target = random_gaussian_target(cfg, grid, rng)
        bf = _random_bf(cfg, rng)
        assert objective_tilde(cfg, grid, target, bf) == pytest.approx(
            objective_tilde_direct(cfg, grid, target, bf), abs=1e-10
        )


def test_objective_tilde_scalar_perfect_fit_is_zero():
    cfg = make_config(num_antennas=1, num_ttds=1, num_subcarriers=4)
    grid = build_grid(cfg)
    rng = np.random.default_rng(1)
    target = random_gaussian_target(cfg, grid, rng)
    # single antenna: zero delay, phase copying the target at every subcarrier
    # is impossible unless the target phase is frequency-flat; build it so
    amp = target.norms
    flat = BeamTarget(
        vectors=(amp * np.exp(1j * 0.6))[:, None],
        weights=np.ones(4),
        power_budget=cfg.total_power,
    )
    bf = JptaBeamformer(delays=[0.0], phases=[0.6], alpha=amp * np.exp(0j))
    assert objective_tilde(cfg, grid, flat, bf) == pytest.approx(0.0, abs=1e-24)


def test_objective_tilde_power_matched_expansion():
    # with |alpha_k| = ||b_k|| the first term drops and the second expands to
    # 2 * (1 - Re[e^{j ang} bbar^H w]) per unit-weight subcarrier
    rng = np.random.default_rng(3)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = random_gaussian_target(cfg, grid, rng)
    bf = JptaBeamformer(
        delays=rng.uniform(0, cfg.max_delay, 2),
        phases=rng.uniform(-np.pi, np.pi, 4),
        alpha=target.norms * np.exp(1j * rng.uniform(-np.pi, np.pi, 8)),
    )
    beams = effective_beamformer_matrix(cfg, grid, bf)
    inner = np.einsum("km,km->k", np.conj(target.unit_vectors), beams)
    expected = np.mean(2.0 * (1.0 - np.real(np.exp(1j * np.angle(bf.alpha)) * inner)))
    assert objective_tilde(cfg, grid, target, bf) == pytest.approx(expected, abs=1e-12)


def test_analog_objective_upper_bound_and_alignment():
    rng = np.random.default_rng(9)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.3, 0.4)
    bf, trace = design_jpta(cfg, grid, target)
    value = analog_objective(cfg, grid, target, bf)
    assert value <= float(np.sum(target.weights)) + 1e-12
    # after the digital alignment pass the objective equals the weighted match sum
    beams = effective_beamformer_matrix(cfg, grid, bf)
    matches = per_subcarrier_match(target, beams)
    assert value == pytest.approx(float(np.sum(target.weights * matches)), abs=1e-10)
    assert value == pytest.approx(trace[-1], abs=1e-9)


def test_analog_objective_orthogonal_beam_is_zero():
    cfg = make_config(num_antennas=2, num_ttds=2, num_subcarriers=4)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, 0.0, 0.0)  # rows proportional to [1, e^{j...}]
    # build an orthogonal beam per subcarrier by flipping the second element's sign
    phases = np.array([0.0, np.pi])
    bf = JptaBeamformer(delays=np.zeros(2), phases=phases, alpha=np.ones(4, dtype=complex))
    beams = effective_beamformer_matrix(cfg, grid, bf)
    inner = np.einsum("km,km->k", np.conj(target.unit_vectors), beams)
    mask = np.abs(inner) < 1e-12  # orthogonal at the carrier-aligned subcarrier
    assert mask[grid.position(0)]
    flat_target = BeamTarget(
        vectors=np.tile(target.vectors[grid.position(0)], (4, 1)),
        weights=np.ones(4),
        power_budget=cfg.total_power,
    )
    assert analog_objective(cfg, grid, flat_target, bf) == pytest.approx(0.0, abs=1e-12)


def test_fit_objective_perfect_and_phase_invariant():
    rng = np.random.default_rng(15)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.2, 0.3)
    assert fit_objective(target, target.unit_vectors) == 1.0
    rotated = target.unit_vectors * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))[:, None]
    assert fit_objective(target, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fit_objective_strictly_below_one_for_misaligned_beam():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.2, 0.3)
    bent = target.unit_vectors.copy()
    other = np.exp(1j * np.pi * np.arange(4) * 0.9) / 2.0
    bent[3] = (bent[3] + 0.2 * other) / np.linalg.norm(bent[3] + 0.2 * other)
    assert fit_objective(target, bent) < 1.0 - 1e-4


def test_fit_objective_rejects_non_unit_rows():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.2, 0.3)
    with pytest.raises(ValueError, match="unit norm"):
        fit_objective(target, target.unit_vectors * 1.001)


def test_fit_objective_common_delay_invariance():
    rng = np.random.default_rng(41)
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=16, delay_range=16.0)
    grid = build_grid(cfg)
    target = behavior2_target(cfg, grid, -0.4, 0.5)
    bf = _random_bf(cfg, rng)
    shifted = JptaBeamformer(delays=bf.delays + 0.4e-9, phases=bf.phases, alpha=bf.alpha)
    f0 = fit_objective(target, effective_beamformer_matrix(cfg, grid, bf))
    f1 = fit_objective(target, effective_beamformer_matrix(cfg, grid, shifted))
    assert f0 == pytest.approx(f1, abs=1e-12)


def test_linear_to_db_floor():
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(100.0) == pytest.approx(20.0)
    assert linear_to_db(0.0) == -100.0
    arr = linear_to_db(np.array([0.0, 1e-20, 10.0]))
    assert arr[0] == -100.0 and arr[1] == -100.0 and arr[2] == pytest.approx(10.0)


def test_fit_report_validation_and_builder():
    cfg = make_config(num_antennas=4, num_ttds=2, num_subcarriers=8)
    grid = build_grid(cfg)
    target = behavior1_target(cfg, grid, 0.2, 0.3)
    bf, trace = design_jpta(cfg, grid, target)
    report = build_fit_report(cfg, grid, target, bf, trace, seed=7)
    assert 0.0 <= report.f_obj <= 1.0
    assert report.f_tilde_obj >= 0.0
    assert report.iterations == trace.size
    assert report.per_subcarrier_match.shape == (8,)
    assert np.all(report.per_subcarrier_match <= 1.0 + 1e-9)
    assert report.seed == 7
    assert build_fit_report(cfg, grid, target, bf, trace).seed is None
    with pytest.raises(ValueError):
        FitReport(f_obj=1.2, f_tilde_obj=0.0, per_subcarrier_match=np.ones(1),
                  convergence_trace=np.array([]))
    with pytest.raises(ValueError):
        FitReport(f_obj=0.5, f_tilde_obj=-0.1, per_subcarrier_match=np.ones(1),
                  convergence_trace=np.array([]))


@pytest.mark.parametrize("call, message", [
    (lambda target: per_subcarrier_match(target, np.ones((16, 7))), "expected beams of shape (16, 8), got (16, 7)"),
    (lambda target: per_subcarrier_match(target, np.ones((16, 3))), "expected beams of shape (16, 8), got (16, 3)"),
    (lambda target: FitReport(f_obj=0.5, f_tilde_obj=0.0, per_subcarrier_match=np.array([1.5]),
                              convergence_trace=np.array([])),
     "per-subcarrier matches must lie in [0, 1]"),
], ids=["beams_7", "beams_3", "match_above_one"])
def test_malformed_beams_and_reports_name_the_fault(call, message):
    cfg = make_config(num_antennas=8, num_ttds=4, num_subcarriers=16)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(behavior1_target(cfg, build_grid(cfg), 0.3, 0.4))
