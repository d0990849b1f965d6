import ast
import csv
import ctypes
import importlib.util
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta import cli
from jpta import config as jpta_config
from jpta import formats
from jpta.array_model import build_grid, effective_beamformer_matrix
from jpta.beam_targets import behavior1_target
from jpta.cli import main
from jpta.design import DesignOptions, design_jpta
from jpta.formats import parse_beamformer_file
from jpta.hbf import altmin_pc, pe_altmin_fc, stack_target
from jpta.metrics import fit_objective, linear_to_db, per_subcarrier_match

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"

BASE_CONFIG = {
    "system": {
        "num_antennas": 8,
        "num_ttds": 4,
        "carrier_freq_ghz": 100.0,
        "bandwidth_ghz": 10.0,
        "num_subcarriers": 16,
        "delay_range": 8.0,
    },
    "target": {"behavior": 1, "theta0_deg": 30.0, "delta_theta_deg": 45.0},
    "algorithm": {"jpta": {"variant": "line_search", "max_iter": 10}},
    "output": {"gain_map": True},
}
TINY_PRESET = [
    "--set", "system.num_antennas=4", "--set", "system.num_ttds=4",
    "--set", "system.num_subcarriers=16", "--set", "system.delay_range=4",
]


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_design_writes_expected_files(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    for name in (
        "beamformer.txt",
        "fit_report.csv",
        "per_subcarrier_match.csv",
        "convergence_trace.csv",
        "gain_map.csv",
        "resolved_config.json",
        "run_meta.json",
    ):
        assert (out / name).exists(), name
    with open(out / "gain_map.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "k,f_hz,theta_deg,gain_linear,gain_db"
    rows = read_rows(out / "fit_report.csv")
    assert rows[0]["algorithm"] == "jpta_line_search"
    assert 0.0 <= float(rows[0]["f_obj"]) <= 1.0


def test_design_writes_the_hybrid_matrices_of_an_hbf_fit(tmp_path):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "algorithm": {"hbf": {"n_rf": 2}}})
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "beamformer.txt").exists()
    analog_re_im = np.loadtxt(out / "hbf_analog_re_im.csv", delimiter=",")
    digital_re_im = np.loadtxt(out / "hbf_digital_re_im.csv", delimiter=",")
    assert analog_re_im.shape == (8, 4)  # M rows of n_rf real parts, then n_rf imaginary parts
    assert digital_re_im.shape == (2, 32)  # n_rf rows of K real parts, then K imaginary parts
    analog = analog_re_im[:, :2] + 1j * analog_re_im[:, 2:]
    digital = digital_re_im[:, :16] + 1j * digital_re_im[:, 16:]
    np.testing.assert_allclose(np.abs(analog), 1.0, rtol=0, atol=1e-9)
    beams = (analog @ digital).T
    beams /= np.linalg.norm(beams, axis=1, keepdims=True)
    system = cli.build_system(BASE_CONFIG)
    target = behavior1_target(system, build_grid(system), math.radians(30.0), math.radians(45.0))
    stored = [float(row["match"]) for row in read_rows(out / "per_subcarrier_match.csv")]
    np.testing.assert_allclose(per_subcarrier_match(target, beams), stored, rtol=0, atol=1e-9)


def test_design_outputs_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["design", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["design", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("beamformer.txt", "fit_report.csv", "gain_map.csv",
                 "per_subcarrier_match.csv", "convergence_trace.csv", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_stored_fit_value_round_trips(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    main(["design", "--config", str(cfg), "--out", str(out)])
    stored = float(read_rows(out / "fit_report.csv")[0]["f_obj"])
    bf = parse_beamformer_file(out / "beamformer.txt")
    system = cli.build_system(BASE_CONFIG)
    grid = build_grid(system)
    target = behavior1_target(system, grid, math.radians(30.0), math.radians(45.0))
    recomputed = fit_objective(target, effective_beamformer_matrix(system, grid, bf))
    assert abs(recomputed - stored) < 1e-9


def test_malformed_angle_names_the_field(tmp_path, capsys):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["target"]["theta0_deg"] = "95deg"
    cfg = write_config(tmp_path, bad)
    code = main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "theta0_deg" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["jpta", "heuristic"])
def test_sweep_wider_than_90_degrees_designs(tmp_path, algorithm):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["target"] = {"behavior": 1, "theta0_deg": 0, "delta_theta_deg": 120}
    config["algorithm"] = {algorithm: {}}
    cfg = write_config(tmp_path, config)
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    assert 0.0 < float(read_rows(tmp_path / "x" / "fit_report.csv")[0]["f_obj"]) <= 1.0


def test_out_of_range_angle_is_config_error(tmp_path, capsys):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["target"]["theta0_deg"] = 95.0
    cfg = write_config(tmp_path, bad)
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "theta0_deg" in capsys.readouterr().err


@pytest.mark.parametrize("step, message", [
    (float("nan"), "output.theta_step_deg: expected a finite number, got nan"),
    (0.0, "output.theta_step_deg: must be positive"),
    (1e-9, "output.theta_step_deg: 1e-09 gives 180000000001 angles, more than 18001"),
])
def test_design_checks_its_gain_map_grid_before_it_designs(tmp_path, capsys, step, message):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["output"]["theta_step_deg"] = step
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "x"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "system": [,]\n}\n')
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"system": "\xff\xfe"}')
    out = tmp_path / "x"
    assert main(["design", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: config file {path}: 'utf-8' codec can't decode byte 0xff "
                                       "in position 12: invalid start byte\n")
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic breakdown")

    monkeypatch.setattr(cli, "design_jpta", boom)
    code = main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    # a preset's runs all come before its output directory
    assert main(["reproduce", "fig4", "--fast", *TINY_PRESET, "--out", str(tmp_path / "fig4")]) == 3
    assert capsys.readouterr().err == "numerical failure: synthetic breakdown\n"
    assert not (tmp_path / "fig4").exists()


def test_behavior2_gain_map_argmax_switches_at_center(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["system"].update(num_antennas=16, num_ttds=16, delay_range=16.0, num_subcarriers=32)
    config["target"] = {"behavior": 2, "theta1_deg": -45.0, "theta2_deg": 30.0}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    by_k: dict[int, list[tuple[float, float]]] = {}
    for row in read_rows(out / "gain_map.csv"):
        by_k.setdefault(int(row["k"]), []).append((float(row["theta_deg"]), float(row["gain_linear"])))
    ks = sorted(by_k)
    low_band = [k for k in ks if k < -len(ks) // 4]
    high_band = [k for k in ks if k > len(ks) // 4]
    for band, expected in ((low_band, -45.0), (high_band, 30.0)):
        for k in band:
            theta, gain = zip(*sorted(by_k[k]))
            peak = theta[int(np.argmax(gain))]
            assert abs(peak - expected) <= 6.0, (k, peak)


def test_sweep_rows_sorted_and_monotone(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.pop("algorithm")
    config["algorithms"] = [{"jpta": {"variant": "line_search"}}, {"heuristic": {}}]
    config["sweep"] = {"parameter": "num_ttds", "values": [1, 2, 4, 8]}
    config["output"] = {}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert len(rows) == 8
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)
    jpta_rows = [r for r in rows if r["algorithm"] == "jpta_line_search"]
    f_vals = [float(r["f_obj"]) for r in jpta_rows]
    assert all(b >= a - 1e-9 for a, b in zip(f_vals, f_vals[1:]))
    heur = {float(r["value"]): float(r["f_obj"]) for r in rows if r["algorithm"] == "heuristic"}
    for r in jpta_rows:
        assert float(r["f_obj"]) >= heur[float(r["value"])] - 1e-6


def test_sweep_max_iter_and_n_rf_parameters(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.pop("algorithm")
    config["algorithms"] = [
        {"jpta": {"variant": "line_search"}},
        {"hbf": {"structure": "fc", "n_rf": 2, "restarts": 2, "seed": 5}},
    ]
    config["sweep"] = {"parameter": "max_iter", "values": [2, 10, 30]}
    config["output"] = {}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "iters"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert all(r["algorithm"] == "jpta_line_search" for r in rows)  # hybrid rows skipped
    by_iter = {float(r["value"]): float(r["f_obj"]) for r in rows}
    assert by_iter[10.0] / by_iter[30.0] >= 0.99
    assert {int(r["iterations"]) for r in rows} == {2, 10, 30}
    config["sweep"] = {"parameter": "n_rf", "values": [1, 2, 4]}
    cfg = write_config(tmp_path, config, "nrf.json")
    out = tmp_path / "chains"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "results.csv")
    assert all(r["algorithm"] == "hbf_fc" for r in rows)
    f_vals = [float(r["f_obj"]) for r in rows]
    assert len(f_vals) == 3 and f_vals[-1] > f_vals[0]


def test_sweep_worker_pool_matches_serial(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["sweep"] = {"parameter": "delay_range", "values": [2, 4, 8]}
    config["output"] = {}
    hybrid = json.loads(json.dumps(BASE_CONFIG))
    hybrid.pop("algorithm")
    hybrid["compare"] = {"n_rf_values": [1, 2, 3, 4], "structures": ["fc", "pc"], "restarts": 2}
    for command, cfg_dict in (("sweep", config), ("compare-hbf", hybrid)):
        cfg = write_config(tmp_path, cfg_dict, f"{command}.json")
        serial, pooled = tmp_path / f"{command}-serial", tmp_path / f"{command}-pooled"
        assert main([command, "--config", str(cfg), "--out", str(serial), "--seed", "1"]) == 0
        assert main([command, "--config", str(cfg), "--out", str(pooled), "--seed", "1", "--workers", "2"]) == 0
        assert (serial / "results.csv").read_bytes() == (pooled / "results.csv").read_bytes(), command


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (8, 8)]),
    num_subcarriers=st.sampled_from([8, 16]),
    sweep=st.sampled_from([
        {"parameter": "num_ttds", "values": [1, 2, 4]},
        {"parameter": "delay_range", "values": [1, 3.5, 8]},
        {"parameter": "max_iter", "values": [1, 2]},
        {"parameter": "n_rf", "values": [1, 2, 4]},
    ]),
    seed=st.integers(0, 100),
)
def test_pooled_sweep_writes_the_serial_results(shape, num_subcarriers, sweep, seed):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["system"].update(num_antennas=shape[0], num_ttds=shape[1], num_subcarriers=num_subcarriers)
    config.pop("algorithm")
    config["algorithms"] = [
        {"jpta": {"max_iter": 2}},
        {"jpta": {"variant": "wls", "max_iter": 2}},
        {"heuristic": {}},
        {"hbf": {"structure": "fc", "n_rf": 1, "restarts": 2}},
        {"hbf": {"structure": "pc", "n_rf": 1, "iters": 5}},
    ]
    config["sweep"] = sweep
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = write_config(tmp, config)
        for name, workers in (("serial", "1"), ("pooled", "2")):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp / name),
                         "--seed", str(seed), "--workers", workers]) == 0
        assert (tmp / "serial" / "results.csv").read_bytes() == (tmp / "pooled" / "results.csv").read_bytes()


def test_empty_jpta_block_designs_with_the_design_options_defaults():
    config = json.loads(json.dumps(BASE_CONFIG))
    system = cli.build_system(config)
    grid = build_grid(system)
    target = cli.build_target(cli.read_target(config), system, grid)
    (entry,) = jpta_config.algorithms({**config, "algorithm": {"jpta": {}}}, system)
    output = cli.run_algorithm(system, grid, target, entry)
    bf, trace = design_jpta(system, grid, target, DesignOptions())
    for name in ("delays", "phases", "alpha"):
        assert np.array_equal(getattr(output.beamformer, name), getattr(bf, name)), name
    assert np.array_equal(output.report.convergence_trace, trace)
    assert entry[1] == "jpta_line_search"
    assert output.report.seed == DesignOptions().init_phase_seed


@pytest.mark.parametrize("structure, fit", [("fc", pe_altmin_fc), ("pc", altmin_pc)])
def test_hbf_block_without_iters_and_restarts_fits_with_the_library_defaults(structure, fit):
    config = json.loads(json.dumps(BASE_CONFIG))
    system = cli.build_system(config)
    grid = build_grid(system)
    target = cli.build_target(cli.read_target(config), system, grid)
    # at seed 32 both fits keep their fifth (last default) restart, and the fc fit runs all 50 iterations
    (entry,) = jpta_config.algorithms({**config, "algorithm": {"hbf": {"structure": structure, "n_rf": 2}}}, system)
    output = cli.run_algorithm(system, grid, target, entry, base_seed=32)
    expected = fit(stack_target(target), 2, seed=32)
    assert expected.seed == 32 + 4
    for name in ("analog", "digital", "residual_trace"):
        assert np.array_equal(getattr(output.hbf, name), getattr(expected, name)), name
    assert output.hbf.seed == expected.seed and entry[1] == f"hbf_{structure}"


def test_readme_config_block_runs(tmp_path):
    # the README's configuration example, so its key names and values cannot drift from the code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration file"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    cfg = tmp_path / "readme.json"
    cfg.write_text(block, encoding="utf-8")
    small = ["--set", "system.num_subcarriers=16"]
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"), *small]) == 0
    rows = read_rows(tmp_path / "sweep" / "results.csv")
    assert {r["algorithm"] for r in rows} == {"jpta_line_search", "heuristic", "hbf_fc"}
    assert len(rows) == 3 * 7
    assert main(["compare-hbf", "--config", str(cfg), "--out", str(tmp_path / "compare"), *small]) == 0
    algorithms = {r["algorithm"] for r in read_rows(tmp_path / "compare" / "results.csv")}
    assert algorithms == {"jpta_line_search", "hbf_fc", "hbf_pc"}


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "sweep.values=[\"a\"]",
        "sweep.values=[true]",
        "sweep.values=[NaN]",
        "sweep.values=[2.5]",
        "sweep={\"parameter\": \"max_iter\", \"values\": [2, 3.5]}",
    ],
)
def test_sweep_values_must_be_numbers_fitting_the_parameter(tmp_path, capsys, override):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["sweep"] = {"parameter": "num_ttds", "values": [1, 2]}
    cfg = write_config(tmp_path, config)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x"), "--set", override]) == 2
    assert "sweep.values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("design", "algorithm.jpta=5", "algorithm.jpta: expected dict, got 5"),
        ("design", 'algorithm={"hbf":5}', "algorithm.hbf: expected dict, got 5"),
        ("design", "system.ttd_groups=5", "system.ttd_groups: expected list, got 5"),
        ("design", "output=5", "output: expected dict, got 5"),
        ("design", "output=[1]", "output: expected dict, got [1]"),
        ("design", "output.gain_map=1", "output.gain_map: expected bool, got 1"),
        ("design", "system.ttd_groups=[[1.5,2],[3,4],[5,6],[7,8]]",
         "system.ttd_groups: expected a list of integers, got [1.5, 2]"),
        ("design", 'target={"behavior":3,"band_edges":[-5.7,5],"angles_deg":[-45,0,30]}',
         "target.band_edges: expected a list of integers, got [-5.7, 5]"),
        ("design", 'target={"behavior":3,"band_edges":[-5,5],"angles_deg":[true,10,20]}',
         "target.angles_deg: expected a list of finite numbers, got [True, 10, 20]"),
        ("compare-hbf", "compare=5", "compare: expected dict, got 5"),
        ("design", 'target={"behavior":3,"band_edges":[-5,5],"angles_deg":[95,0,1]}',
         "target.angles_deg[0]: 95 deg outside the field of view [-90, 90]"),
        ("design", 'target={"behavior":1,"theta0_deg":80,"delta_theta_deg":45}',
         "target.theta0_deg + target.delta_theta_deg/2: 102.5 deg outside the field of view [-90, 90]"),
        ("design", 'algorithm={"hbf":{"structure":"pc","n_rf":0}}',
         "algorithm.hbf: n_rf, iters and restarts must be positive"),
        ("design", "algorithm.jpta.variant=newton",
         "algorithm.jpta.variant: unknown value 'newton' (choose from ['line_search', 'wls'])"),
        ("design", 'algorithm={"hbf":{"structure":"fully_connected","n_rf":2}}',
         "algorithm.hbf.structure: unknown value 'fully_connected' (choose from ['fc', 'pc'])"),
        ("design", "target.weight_scheme=flat",
         "target.weight_scheme: unknown value 'flat' (choose from ['uniform', 'power', 'saturating'])"),
        ("compare-hbf", 'compare.structures=["fc","xc"]',
         "compare.structures: unknown value 'xc' (choose from ['fc', 'pc'])"),
        ("compare-hbf", "compare.structures=[null]", "compare.structures: expected a list of strings, got [None]"),
        ("design", "algorithm.jpta.label=[1, 2]", "algorithm.jpta.label: expected str, got [1, 2]"),
        ("design", 'algorithm={"heuristic":{"label":5}}', "algorithm.heuristic.label: expected str, got 5"),
        ("design", 'algorithm={"hbf":{"n_rf":2,"label":true}}', "algorithm.hbf.label: expected str, got True"),
        ("compare-hbf", "compare.n_rf_values=[3,5,100]",
         "compare.n_rf_values: 100 chains fit none of the structures ['fc', 'pc'] on 8 antennas"),
        ("compare-hbf", 'compare={"n_rf_values":[2,3],"structures":["pc"]}',
         "compare.n_rf_values: 3 chains fit none of the structures ['pc'] on 8 antennas"),
        ("compare-hbf", "compare.n_rf_values=[]", "compare.n_rf_values: must not be empty"),
        ("compare-hbf", "compare.n_rf_values=[2,4,2,4,2]", "compare.n_rf_values: repeats [2, 4]"),
        ("compare-hbf", 'compare.structures=["pc","fc","pc"]', "compare.structures: repeats ['pc']"),
        ("compare-hbf", "compare.structures=[]", "compare.structures: must not be empty"),
        ("sweep", 'sweep={"parameter":"num_ttds","values":[2,4,2]}', "sweep.values: repeats [2.0]"),
        ("sweep", 'sweep={"parameter":"num_ttds","values":[]}', "sweep.values: must not be empty"),
        ("compare-hbf", "algorithm.jpta.max_itr=3", "algorithm.jpta.max_itr: unknown key (did you mean 'max_iter'?)"),
        ("compare-hbf", 'algorithm={"hbf":{"structure":"pc","n_rf":3}}',
         "algorithm.hbf: n_rf (3) must divide the antenna count (8)"),
        ("design", "system.num_subcarriers=10000000000000",
         "system.num_subcarriers: 10000000000000 is more than 32768"),
        ("design", "algorithm.jpta.grid=100000000000", "algorithm.jpta.grid: 100000000000 is more than 1048576"),
        ("design", "system.num_antennas=100000000000", "system.num_antennas: 100000000000 is more than 4096"),
        ("design", "system.carrier_freq_ghz=1e300",
         "system.carrier_freq_ghz: 1e+300 makes carrier_freq + bandwidth / 2 in Hz overflow"),
        ("design", "system.delay_range=1e308", "system.delay_range: 1e+308 makes the delay phases 2 pi f tau overflow"),
        ("design", "system.bandwidth_ghz=1e-320", "system.bandwidth_ghz: 9.99989e-321 makes bandwidth in Hz subnormal"),
        ("design", "system.total_power=1e-320",
         "system.total_power: 9.99989e-321 makes total_power^2 leave the normal double range"),
        ("design", "system.total_power=1e200",
         "system.total_power: 1e+200 makes total_power^2 leave the normal double range"),
        ("design", "foo", "override 'foo': expected key.path=value"),
        ("design", "system.num_antennas.x=1",
         "override 'system.num_antennas.x=1': num_antennas is not a config section"),
        ("design", "algorithm=null", "algorithm: provide an 'algorithm' block or an 'algorithms' list"),
        ("design", 'algorithm={"jpta":{},"heuristic":{}}',
         "algorithm: exactly one of ('jpta', 'heuristic', 'hbf') per entry, found ['jpta', 'heuristic']"),
        ("sweep", "sweep.parameter=foo",
         "sweep.parameter: unknown parameter 'foo' (choose from ('num_ttds', 'delay_range', 'max_iter', 'n_rf'))"),
        ("design", "target.behavior=7", "target.behavior: unsupported behavior 7 (use 1, 2, 3 or custom_file)"),
    ],
)
def test_malformed_config_fields_are_config_errors(tmp_path, capsys, command, override, message):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x"), "--set", override]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["sweep", "compare-hbf", "reproduce"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_must_be_positive(tmp_path, capsys, command, workers):
    args = ["fig5"] if command == "reproduce" else ["--config", str(write_config(tmp_path, BASE_CONFIG))]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out", str(tmp_path / "x"), "--workers", workers])
    assert exc.value.code == 2
    assert f"--workers: expected a positive integer, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_hbf_emits_reference_and_structures(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.pop("algorithm")
    config["compare"] = {"n_rf_values": [1, 2, 4], "structures": ["fc", "pc"], "restarts": 2}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "cmp"
    assert main(["compare-hbf", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    rows = read_rows(out / "results.csv")
    algos = {r["algorithm"] for r in rows}
    assert algos == {"jpta_line_search", "hbf_fc", "hbf_pc"}
    fc = {float(r["value"]): float(r["f_obj"]) for r in rows if r["algorithm"] == "hbf_fc"}
    assert len(fc) == 3


def test_null_label_takes_the_default(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    override = ["--set", "algorithm.jpta.label=null"]
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x"), *override]) == 0
    assert read_rows(tmp_path / "x" / "fit_report.csv")[0]["algorithm"] == "jpta_line_search"


def test_compare_hbf_notes_each_chain_count_a_structure_skips(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.pop("algorithm")
    config["compare"] = {"n_rf_values": [2, 3, 5], "restarts": 1}
    cfg = write_config(tmp_path, config)
    assert main(["compare-hbf", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0
    rows = read_rows(tmp_path / "cmp" / "results.csv")
    fitted = sorted((r["algorithm"], float(r["value"])) for r in rows if r["algorithm"] != "jpta_line_search")
    assert fitted == [("hbf_fc", 2.0), ("hbf_fc", 3.0), ("hbf_fc", 5.0), ("hbf_pc", 2.0)]
    notes = json.loads((tmp_path / "cmp" / "run_meta.json").read_text())["notes"]
    assert notes == ["compare.n_rf_values: pc skips [3, 5] on 8 antennas"]


def test_compare_hbf_bad_fields_are_config_errors(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    for compare, field in (
        ({"n_rf_values": [1, 2], "iters": "many"}, "compare.iters"),
        ({"n_rf_values": [0, 2], "structures": ["pc"]}, "compare.n_rf_values"),
        ({"n_rf_values": [1, 2], "iters": 0}, "compare.iters: expected a positive integer, got 0"),
        ({"n_rf_values": [1, 2], "restarts": 0}, "compare.restarts: expected a positive integer, got 0"),
    ):
        config["compare"] = compare
        cfg = write_config(tmp_path, config)
        assert main(["compare-hbf", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2, field
        assert field in capsys.readouterr().err


def test_gain_map_subcommand_round_trip(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    main(["design", "--config", str(cfg), "--out", str(out)])
    out2 = tmp_path / "map"
    assert main([
        "gain-map", "--config", str(cfg), "--out", str(out2),
        "--beamformer", str(out / "beamformer.txt"),
    ]) == 0
    stored = float(read_rows(out / "fit_report.csv")[0]["f_obj"])
    recomputed = float(read_rows(out2 / "fit_report.csv")[0]["f_obj"])
    assert abs(stored - recomputed) < 1e-9


@pytest.mark.parametrize(
    "override, section, stored, needed",
    [
        ("system.num_antennas=16", "phases_rad", 8, 16),
        ("system.num_subcarriers=32", "alpha_re_im", 16, 32),
        ("system.num_ttds=8", "delays_ns", 4, 8),
    ],
)
def test_gain_map_rejects_a_beamformer_file_of_another_shape(tmp_path, capsys, override, section, stored, needed):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["gain-map", "--config", str(cfg), "--out", str(tmp_path / "map"),
                 "--beamformer", str(out / "beamformer.txt"), "--set", override])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: beamformer file: section [{section}] holds {stored} values, the config needs {needed}\n"
    )


GAIN_MAP_ARGS = ["gain-map", "--config", "c.json", "--beamformer", "bf.txt"]


@pytest.mark.parametrize("argv, rejected", [
    ([*GAIN_MAP_ARGS, "--seed", "1"], "--seed 1"),
    ([*GAIN_MAP_ARGS, "--workers", "2"], "--workers 2"),
    (["design", "--config", "c.json", "--workers", "2"], "--workers 2"),
    (["reproduce", "fig4", "--fast", "--config", "x"], "--config x"),
])
def test_a_command_rejects_the_flags_it_does_not_take(tmp_path, capsys, argv, rejected):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {rejected}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["design", "--config", "c.json"],
    ["sweep", "--config", "c.json"],
    ["compare-hbf", "--config", "c.json"],
    ["reproduce", "fig4"],
    GAIN_MAP_ARGS,
])
def test_every_command_parses_the_same_defaults(argv):
    parser = cli._build_parser()
    assert parser.parse_args([*argv, "--out", "x", "--set", "a=1", "--set", "b=2"]).overrides == ["a=1", "b=2"]
    args = parser.parse_args([*argv, "--out", "x"])  # the default list is not the one the last parse appended to
    assert (args.command, args.out, args.seed, args.workers, args.overrides) == (argv[0], "x", 0, 1, [])


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "x")]) == 2
    assert "unknown figure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["target.behavior=7", "output.theta_step_deg=5", "algorithm.jpta.max_iter=1"], "target.behavior"),
        (["system.num_antennas=8", "algorithm.jpta.max_iter=1"], "algorithm.jpta.max_iter"),
        (["output={}"], "output"),
    ],
)
def test_reproduce_takes_only_system_overrides(tmp_path, capsys, overrides, key):
    args = [arg for item in overrides for arg in ("--set", item)]
    assert main(["reproduce", "fig11", "--out", str(tmp_path / "x"), "--fast", *args]) == 2
    assert capsys.readouterr().err == f"config error: {key}: reproduce presets take only system.* overrides\n"
    assert not (tmp_path / "x").exists()


def test_reproduce_fig4_small_override(tmp_path):
    out = tmp_path / "fig4"
    code = main([
        "reproduce", "fig4", "--out", str(out), "--fast",
        "--set", "system.num_antennas=8", "--set", "system.num_ttds=8",
        "--set", "system.num_subcarriers=32", "--set", "system.delay_range=8",
    ])
    assert code == 0
    for name in ("ideal_behavior1.csv", "jpta_behavior1.csv", "ideal_behavior2.csv", "jpta_behavior2.csv"):
        assert (out / name).exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert any("fast" in note for note in meta["notes"])
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["system"]["num_subcarriers"] == 32


def test_reproduce_fig11_three_angle_maps(tmp_path):
    out = tmp_path / "fig11"
    code = main([
        "reproduce", "fig11", "--out", str(out), "--fast",
        "--set", "system.num_antennas=8", "--set", "system.num_ttds=8",
        "--set", "system.num_subcarriers=24", "--set", "system.delay_range=8",
    ])
    assert code == 0
    assert (out / "ideal_behavior3.csv").exists()
    assert (out / "jpta_behavior3.csv").exists()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reproduce_fig11_needs_a_subcarrier_per_sub_band(tmp_path, capsys, k):
    code = main(["reproduce", "fig11", "--out", str(tmp_path / "x"), "--fast", *TINY_PRESET,
                 "--set", f"system.num_subcarriers={k}"])
    if k < 3:
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: system.num_subcarriers: fig11 needs a subcarrier in each of its 3 sub-bands, got {k}\n")
    else:
        assert code == 0
        assert (tmp_path / "x" / "jpta_behavior3.csv").exists()


WIDE_PHASES = ["system.delay_range=1", "system.carrier_freq_ghz=1e294", "system.bandwidth_ghz=1e-13"]


@pytest.mark.parametrize(
    ("argv", "overrides", "message"),
    [
        (["reproduce", "fig4", "--fast"], ["system.num_ttds=3"],
         "system: default contiguous mapping needs num_ttds (3) to divide num_antennas (64); "
         "pass ttd_groups explicitly otherwise"),
        # the sweep's first point has one delay line for four groups; the error names the preset's point
        (["reproduce", "fig5", "--fast"], ["system.num_antennas=4", "system.num_ttds=4",
                                           "system.ttd_groups=[[1],[2],[3],[4]]"],
         "behavior1:[num_ttds=1]: system: expected 1 antenna groups, got 4"),
        # a sweep point, and a random draw, whose delay phases overflow where the base config's do not
        (["reproduce", "fig6", "--fast"], WIDE_PHASES,
         "behavior1:[delay_range=4]: system.delay_range: 4 makes the delay phases 2 pi f tau overflow"),
        (["reproduce", "fig7", "--fast"], WIDE_PHASES,
         "behavior1:[draw=1]: system.delay_range: 61.0278 makes the delay phases 2 pi f tau overflow"),
        (["reproduce", "fig8", "--fast"], ["system.num_antennas=0"], "system: num_antennas must be a positive integer"),
        (["reproduce", "fig9", "--fast"], ["system.total_power=0"], "system: total_power must be positive"),
        (["reproduce", "fig11", "--fast"], ["system.num_subcarriers=2"],
         "system.num_subcarriers: fig11 needs a subcarrier in each of its 3 sub-bands, got 2"),
        (["design"], ["algorithm=null", 'algorithms=[{"jpta":{}},{"heuristic":{}}]'],
         "design: expected exactly one algorithm block"),
        (["sweep"], ['sweep={"parameter":"num_ttds","values":[1,2,3]}'],
         "system: default contiguous mapping needs num_ttds (3) to divide num_antennas (8); "
         "pass ttd_groups explicitly otherwise"),
        (["compare-hbf"], ["compare.n_rf_values=[3,5,100]"],
         "compare.n_rf_values: 100 chains fit none of the structures ['fc', 'pc'] on 8 antennas"),
        # checked after the stored beamformer is parsed
        (["gain-map"], ["output.theta_step_deg=1e-9"],
         "output.theta_step_deg: 1e-09 gives 180000000001 angles, more than 18001"),
        # the run builds the target, and so reads the custom file ({tmp} is the test's directory)
        (["gain-map"], ['target={"custom_file": "{tmp}/target.txt"}'],
         "target: {tmp}/target.txt:1: expected 8 re,im pairs, got 1"),
        (["design"], ["algorithm=null", "algorithms=[]"], "algorithms: must not be empty"),
        (["design"], ["algorithm=null", "algorithms=[1]"], "algorithms[0]: each entry must be an object"),
        (["design", "--config", "{tmp}/list.json"], [], "config file {tmp}/list.json: top level must be a JSON object"),
        (["gain-map", "--beamformer", "{tmp}/no_alpha.txt"], [],
         "beamformer file: {tmp}/no_alpha.txt: missing section [alpha_re_im]"),
    ],
    ids=["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "design", "sweep", "compare-hbf", "gain-map",
         "gain-map-target", "empty-algorithms", "algorithm-not-an-object", "config-not-an-object",
         "beamformer-section-missing"],
)
def test_a_bad_input_leaves_no_output_directory(tmp_path, capsys, argv, overrides, message):
    # every command checks its whole config while it plans, and creates --out only after its runs
    (tmp_path / "target.txt").write_text("1,0\n")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "no_alpha.txt").write_text("[delays_ns]\n[phases_rad]\n")
    tmp = str(tmp_path)
    command, *flags = [item.replace("{tmp}", tmp) for item in argv]
    overrides, message = [item.replace("{tmp}", tmp) for item in overrides], message.replace("{tmp}", tmp)
    if command != "reproduce":  # a case's own flags come later, and so replace these
        config = ["--config", str(write_config(tmp_path, BASE_CONFIG))]
        flags = [*config, *flags]
    if command == "gain-map":
        assert main(["design", *config, "--out", str(tmp_path / "design")]) == 0
        flags = ["--beamformer", str(tmp_path / "design" / "beamformer.txt"), *flags]
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([command, *flags, "--out", str(tmp_path / "x"), *sets]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


def _output_bytes(out_dir):
    """Every output file under ``out_dir`` but run_meta.json, by relative path."""
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != "run_meta.json"}


def test_reproduce_sweep_presets_smoke(tmp_path):
    # every preset runs serially and in a pool of two, and both write the same bytes
    cases = [
        ("fig4", TINY_PRESET, "jpta_behavior2.csv"),
        ("fig5", TINY_PRESET, "f_obj_vs_num_ttds.csv"),
        ("fig6", TINY_PRESET, "f_obj_vs_delay_range.csv"),
        ("fig7", TINY_PRESET, "convergence_ratio.csv"),
        ("fig8", TINY_PRESET, "f_obj_vs_n_rf.csv"),
        (
            "fig9",
            [
                "--set", "system.num_antennas=32", "--set", "system.num_ttds=32",
                "--set", "system.num_subcarriers=16", "--set", "system.delay_range=8",
            ],
            "hbf_fc_22rf_behavior1.csv",
        ),
        ("fig11", TINY_PRESET, "jpta_behavior3.csv"),
    ]
    for figure, overrides, artifact in cases:
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"{figure}-{workers}"
            code = main(["reproduce", figure, "--out", str(out), "--fast", "--workers", workers, *overrides])
            assert code == 0, figure
            assert (out / artifact).exists(), figure
            written.append(_output_bytes(out))
        assert written[0] == written[1], figure


def test_fig9_notes_each_map_whose_chain_count_does_not_fit(tmp_path):
    out = tmp_path / "fig9"
    assert main(["reproduce", "fig9", "--out", str(out), "--fast", *TINY_PRESET]) == 0
    assert sorted(p.name for p in out.glob("hbf_*.csv")) == ["hbf_fc_2rf_behavior2.csv"]
    assert json.loads((out / "run_meta.json").read_text())["notes"] == [
        "fast mode: num_subcarriers reduced to 16",
        "hbf_fc_22rf_behavior1: skipped, 22 fc chains do not fit 4 antennas",
        "hbf_pc_32rf_behavior1: skipped, 32 pc chains do not fit 4 antennas",
        "hbf_pc_32rf_behavior2: skipped, 32 pc chains do not fit 4 antennas",
    ]


def test_fast_note_names_the_resolved_subcarrier_count(tmp_path):
    out = tmp_path / "fig11"
    assert main(["reproduce", "fig11", "--out", str(out), "--fast"]) == 0
    assert json.loads((out / "resolved_config.json").read_text())["system"]["num_subcarriers"] == 256
    assert json.loads((out / "run_meta.json").read_text())["notes"] == ["fast mode: num_subcarriers reduced to 256"]


def test_fig8_merges_the_per_behavior_results(tmp_path):
    out = tmp_path / "fig8"
    assert main(["reproduce", "fig8", "--out", str(out), "--fast", *TINY_PRESET]) == 0
    with open(out / "f_obj_vs_n_rf.csv", newline="") as fh:
        merged = list(csv.reader(fh))
    expected = []
    for name in ("behavior1", "behavior2"):
        with open(out / name / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        expected += [[name, *row] for row in rows]
    assert merged[0] == ["behavior", *header]
    assert merged[1:] == expected
    assert {row[0] for row in expected} == {"behavior1", "behavior2"} and len(expected) > 2


def test_fig7_ratio_rows_end_at_one(tmp_path):
    out = tmp_path / "fig7"
    assert main(["reproduce", "fig7", "--out", str(out), "--fast", *TINY_PRESET]) == 0
    rows = read_rows(out / "convergence_ratio.csv")
    assert [(r["behavior"], int(r["iteration"])) for r in rows] == [
        (f"behavior{b}", i) for b in (1, 2) for i in range(1, 31)
    ]
    assert [r["mean_ratio"] for r in rows if r["iteration"] == "30"] == ["1", "1"]


def test_custom_target_flow(tmp_path):
    from jpta.beam_targets import write_custom_target

    system = cli.build_system(BASE_CONFIG)
    grid = build_grid(system)
    target = behavior1_target(system, grid, math.radians(10.0), math.radians(20.0))
    tfile = tmp_path / "target.txt"
    write_custom_target(tfile, target.vectors)
    config = json.loads(json.dumps(BASE_CONFIG))
    config["target"] = {"custom_file": str(tfile)}
    config["output"] = {}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    assert float(read_rows(out / "fit_report.csv")[0]["f_obj"]) > 0.9


def test_non_finite_system_field_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    for raw in ("NaN", "Infinity", "-Infinity"):
        code = main(["design", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--set", f"system.delay_range={raw}"])
        assert code == 2, raw
        assert "system.delay_range" in capsys.readouterr().err, raw


@pytest.mark.parametrize(
    "override, field",
    [
        ("algorithm.jpta.discrete_delays_ns=[NaN]", "algorithm.jpta.discrete_delays_ns"),
        ("algorithm.jpta.discrete_delays_ns=[\"x\"]", "algorithm.jpta.discrete_delays_ns"),
        ("algorithm.jpta.discrete_delays_ns=[0.6,0.2]", "discrete delay set must be sorted"),
        ("algorithm.jpta.grid=2", "grid"),
        ("algorithm.jpta.discrete_delays_ns=[]", "must not be empty"),
        # kappa/W = 8 / 10 GHz = 0.8 ns
        ("algorithm.jpta.discrete_delays_ns=[0,0.9]", "within [0, kappa/W]"),
        ("algorithm.jpta.discrete_delays_ns=[-0.1,0.4]", "within [0, kappa/W]"),
        ("algorithm.jpta.max_iter=0", "at least 1"),
        ("algorithm.jpta.init_phase_seed=-1", "init_phase_seed (-1) must be non-negative"),
    ],
)
def test_bad_jpta_options_are_config_errors(tmp_path, capsys, override, field):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x"), "--set", override]) == 2
    err = capsys.readouterr().err
    key = override.partition("=")[0]
    assert f"config error: {key}: " in err and field in err


def test_discrete_delays_ns_may_end_at_the_tuning_range(tmp_path):
    # 8 / 10 GHz = 0.8 ns, but 0.8 * 1e-9 lands an ulp above 8e-10
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    code = main(["design", "--config", str(cfg), "--out", str(out),
                 "--set", "algorithm.jpta.discrete_delays_ns=[0,0.2,0.4,0.6,0.8]"])
    assert code == 0
    delays_ns = parse_beamformer_file(out / "beamformer.txt").delays / 1e-9
    assert set(np.round(delays_ns, 9)) <= {0.0, 0.2, 0.4, 0.6, 0.8}


def test_custom_target_with_nan_entry_is_config_error(tmp_path, capsys):
    from jpta.beam_targets import write_custom_target

    system = cli.build_system(BASE_CONFIG)
    grid = build_grid(system)
    tfile = tmp_path / "target.txt"
    write_custom_target(tfile, behavior1_target(system, grid, 0.2, 0.3).vectors)
    lines = tfile.read_text().splitlines()
    lines[3] = "nan,0 " + lines[3].split(" ", 1)[1]
    tfile.write_text("\n".join(lines) + "\n")
    config = json.loads(json.dumps(BASE_CONFIG))
    config["target"] = {"custom_file": str(tfile)}
    cfg = write_config(tmp_path, config)
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, bad, reason",
    [
        ("phases_rad", "nan", "non-finite value 'nan'"),
        ("alpha_re_im", "0.5 0.25 1", "malformed entry '0.5 0.25 1': expected 2 values, got 3"),
        ("delays_ns", "abc", "malformed entry 'abc': could not convert string to float: 'abc'"),
        ("phases_rad", "[phases_rad]", "repeated header"),
    ],
    ids=["nan", "three_values", "not_a_number", "repeated_header"],
)
def test_beamformer_file_with_nan_is_config_error(tmp_path, capsys, section, bad, reason):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "beamformer.txt"
    lines = path.read_text().split("\n")
    lineno = lines.index(f"[{section}]") + 2
    lines[lineno - 1] = bad
    path.write_text("\n".join(lines))
    capsys.readouterr()
    code = main(["gain-map", "--config", str(cfg), "--out", str(tmp_path / "map"), "--beamformer", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: beamformer file: {path}:{lineno}: section [{section}]: {reason}\n"


def test_beamformer_file_content_before_the_first_header_names_the_line(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "beamformer.txt"
    path.write_text("# stray value\n\n0.5\n" + path.read_text())
    capsys.readouterr()
    code = main(["gain-map", "--config", str(cfg), "--out", str(tmp_path / "map"), "--beamformer", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: beamformer file: {path}:3: content before the first section header\n")


def test_gain_map_csv_bytes_match_csv_writer(tmp_path):
    system = cli.build_system({"system": {**BASE_CONFIG["system"], "num_subcarriers": 3}})
    grid = build_grid(system)
    thetas = np.deg2rad([-90.0, -0.0, 37.5])
    gains = np.array([
        [64.0, 0.0, 1e-11],
        [0.123456789012345, 3.0, 2.5e-3],
        [7.0, 63.99999999999, 1e-12],
    ])
    path = tmp_path / "gain_map.csv"
    formats.write_gain_map_csv(path, grid, gains, thetas)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["k", "f_hz", "theta_deg", "gain_linear", "gain_db"])
    db = linear_to_db(gains)
    for i, k in enumerate(grid.indices):
        for t, theta_deg in enumerate(np.rad2deg(thetas)):
            writer.writerow([int(k)] + [format(float(v), ".12g")
                                        for v in (grid.frequencies[i], theta_deg, gains[i, t], db[i, t])])
    data = path.read_bytes()
    assert data == expected.getvalue().encode("ascii")
    assert data.count(b"\r\n") == 1 + gains.size
    assert b"\r\n-1,96666666666.7,-0,0,-100\r\n" in data  # integer k, -0 angle, zero gain at the floor
    assert data.count(b",-100\r\n") == 3  # the dB floor


def _written_gain_map_matching_savetxt(tmp_path, grid, gains, thetas):
    """The bytes ``write_gain_map_csv`` writes, checked equal to those of ``np.savetxt`` on the same rows."""
    path = tmp_path / "gain_map.csv"
    formats.write_gain_map_csv(path, grid, gains, thetas)
    rows = np.column_stack([
        np.repeat(grid.indices, thetas.size),
        np.repeat(grid.frequencies, thetas.size),
        np.tile(np.rad2deg(thetas), grid.num_subcarriers),
        gains.ravel(),
        linear_to_db(gains).ravel(),
    ])
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, rows, fmt=["%d"] + ["%.12g"] * 4, delimiter=",",
               header=",".join(formats.GAIN_MAP_HEADER), comments="", newline="\r\n")
    data = path.read_bytes()
    assert data == expected.read_bytes()
    return data


def test_gain_map_csv_bytes_match_savetxt_on_a_large_map(tmp_path):
    system = cli.build_system({"system": {**BASE_CONFIG["system"], "num_subcarriers": 16}})
    grid = build_grid(system)
    thetas = cli.default_theta_grid(0.05)
    rng = np.random.default_rng(5)
    gains = rng.random((16, thetas.size)) * 64.0
    gains[:, ::97] = 0.0
    gains[3::4, 5::89] = 1e-10  # exactly at the -100 dB floor
    gains[1::5, 7::61] = 3e-13  # below it
    assert gains.size == 57616 > 2**14
    data = _written_gain_map_matching_savetxt(tmp_path, grid, gains, thetas)
    assert data.count(b",0,-100\r\n") >= 16 * 37 and b",1e-10,-100\r\n" in data and b",3e-13,-100\r\n" in data


def test_gain_map_csv_bytes_match_savetxt_with_a_partial_last_block(tmp_path):
    num_subcarriers = 37
    assert num_subcarriers % formats.GAIN_MAP_BLOCK
    system = cli.build_system({"system": {**BASE_CONFIG["system"], "num_subcarriers": num_subcarriers}})
    grid = build_grid(system)
    thetas = np.deg2rad([-90.0, -12.5, -0.0, 45.0, 90.0])
    gains = np.random.default_rng(7).random((num_subcarriers, thetas.size)) * 64.0
    gains[::3, 1] = 0.0
    gains[-1] = 2e-12  # below the -100 dB floor, in the partial last block
    gains[5, 2] = 1e-10  # exactly at the floor
    data = _written_gain_map_matching_savetxt(tmp_path, grid, gains, thetas)
    assert data.endswith(b"\r\n18,%s,90,2e-12,-100\r\n" % format(float(grid.frequencies[-1]), ".12g").encode())
    assert data.count(b",0,-100\r\n") == 12 and data.count(b",2e-12,-100\r\n") == thetas.size


def test_gain_map_csv_rejects_gains_of_the_wrong_shape_before_opening_the_file(tmp_path):
    system = cli.build_system({"system": {**BASE_CONFIG["system"], "num_subcarriers": 4}})
    thetas = np.deg2rad([-30.0, 0.0, 30.0])
    path = tmp_path / "gain_map.csv"
    with pytest.raises(ValueError, match=re.escape("gains of shape (3, 4), expected (subcarriers, angles) = (4, 3)")):
        formats.write_gain_map_csv(path, build_grid(system), np.ones((3, 4)), thetas)
    assert not path.exists()


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_binds_every_name_the_benchmark_uses():
    # tracing.bindings() drops a missing name silently, so its layer would read 0
    tracing = _load_bench_module("tracing")
    unbound = [name for name in tracing.BINDING_LAYERS if not callable(getattr(cli, name, None))]
    assert unbound == []
    tree = ast.parse((BENCH_DIR / "worker.py").read_text(encoding="utf-8"))
    called = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"
    }
    assert {"_build_parser", "_preset_config", "apply_overrides", "build_system", "main"} <= called
    assert [name for name in called if not hasattr(cli, name)] == []


def test_traced_presets_record_every_layer(tmp_path):
    # a binding captured in a table or default argument escapes the tracer, and its layer reads 0
    tracing = _load_bench_module("tracing")
    tracer = tracing.Tracer("test")
    tracer.install(cli)
    try:
        for figure in ("fig4", "fig8"):
            argv = ["reproduce", figure, "--out", str(tmp_path / figure), "--fast", *TINY_PRESET]
            assert tracer.run(cli.main, argv) == 0
    finally:
        tracer.uninstall(cli)
    summary = tracer.summary()
    layers = ("design", "array_model.gain_map", "hbf.fc", "hbf.pc", "beam_targets", "metrics", "cli.write")
    assert [layer for layer in layers if summary[f"{layer}.calls"] < 1] == []
    called = {span["name"] for span in tracer.spans}
    assert {"behavior1_target", "behavior2_target", "build_fit_report", "fit_objective"} <= called


def test_config_binds_no_traced_layer():
    # a traced name bound in `jpta.config` would be called past the tracer, which wraps only `jpta.cli`
    tracing = _load_bench_module("tracing")
    assert [name for name in tracing.BINDING_LAYERS if hasattr(jpta_config, name)] == []
    assert [name for name in dir(jpta_config)
            if name.startswith(tracing.WRITER_PREFIX) and callable(getattr(jpta_config, name))] == []
    probe = "import sys, jpta.config; print(sorted(name for name in sys.modules if name.startswith('jpta.cli')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_cli_writes_every_file_through_jpta_formats():
    # the tracer counts the bytes of each `write_*` name bound in `jpta.cli`, wherever the writer is defined
    tracing = _load_bench_module("tracing")
    writers = {name for name, layer in tracing.bindings(cli).items() if layer == tracing.WRITE_LAYER}
    parent = {"write_beamformer_file", "write_fit_report", "write_gain_map_csv", "write_provenance",
              "write_records_csv"}
    summaries = {"write_behavior_records_csv", "write_convergence_ratio_csv"}  # fig8's and fig7's tables
    assert writers - parent == {"write_hbf_matrices", *summaries} and parent <= writers
    assert [name for name in writers if getattr(cli, name) is not getattr(formats, name)] == []
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defined = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    assert [name for name in defined if name.startswith(("write_", "parse_"))] == []
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "csv" not in imported and "savetxt" not in attributes
    # a table laid out in `jpta.cli` would be written past the `write_*` names, so its bytes would go uncounted
    assert {"_fmt", "save_rows", "RESULT_HEADER"} & imported == set()
    probe = "import sys, jpta.formats; print(sorted(name for name in sys.modules if name.startswith('jpta.cli')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_each_command_builds_each_distinct_target_once(tmp_path, monkeypatch):
    # a config check parses the target block and the runs build the target; gain maps reuse the runs' targets
    built = []
    build_target = cli.build_target

    def counted(target, system, grid):
        built.append(repr(target))
        return build_target(target, system, grid)

    monkeypatch.setattr(cli, "build_target", counted)
    sweep = write_config(tmp_path, {**BASE_CONFIG, "algorithm": None, "algorithms": [{"jpta": {}}, {"heuristic": {}}],
                                    "sweep": {"parameter": "num_ttds", "values": [1, 2, 4]}}, "sweep.json")
    compare = write_config(tmp_path, {**BASE_CONFIG, "compare": {"n_rf_values": [1, 2], "restarts": 1}},
                           "compare.json")
    design = write_config(tmp_path, BASE_CONFIG, "design.json")
    fig9 = ["--set", "system.num_antennas=32", "--set", "system.num_ttds=32",
            "--set", "system.num_subcarriers=16", "--set", "system.delay_range=8"]  # all four maps fit
    runs = [
        (["reproduce", "fig4", "--fast", *TINY_PRESET], 2),
        (["reproduce", "fig8", "--fast", *TINY_PRESET], 2),
        (["reproduce", "fig9", "--fast", *fig9], 2),
        (["reproduce", "fig11", "--fast", *TINY_PRESET], 1),
        (["sweep", "--config", str(sweep)], 1),
        (["compare-hbf", "--config", str(compare)], 1),
        (["design", "--config", str(design)], 1),
        (["gain-map", "--config", str(design), "--beamformer", str(tmp_path / "run6" / "beamformer.txt")], 1),
    ]
    for i, (argv, targets) in enumerate(runs):
        built.clear()
        assert main([*argv, "--out", str(tmp_path / f"run{i}")]) == 0, argv
        assert (len(built), len(set(built))) == (targets, targets), argv


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_run_parses_nothing(tmp_path, monkeypatch, workers):
    # every task holds parsed values, so that no run reads the config; forked pool workers inherit the patch
    if workers != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched parsers reach only forked workers")
    design = write_config(tmp_path, BASE_CONFIG, "design.json")
    sweep = write_config(tmp_path, {**BASE_CONFIG, "algorithm": None, "algorithms": [{"jpta": {}}, {"heuristic": {}}],
                                    "sweep": {"parameter": "num_ttds", "values": [1, 2, 4]}}, "sweep.json")
    compare = write_config(tmp_path, {**BASE_CONFIG, "compare": {"n_rf_values": [1, 2], "restarts": 1}},
                           "compare.json")
    pool = ["--workers", workers]
    stored = tmp_path / "plain-design" / "beamformer.txt"
    runs = {
        "design": ["design", "--config", str(design)],
        "gain-map": ["gain-map", "--config", str(design), "--beamformer", str(stored)],
        "sweep": ["sweep", "--config", str(sweep), *pool],
        "compare-hbf": ["compare-hbf", "--config", str(compare), *pool],
        "fig4": ["reproduce", "fig4", "--fast", *TINY_PRESET, *pool],
        "fig8": ["reproduce", "fig8", "--fast", *TINY_PRESET, *pool],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"plain-{name}")]) == 0, name

    def unparsed(*args, **kwargs):
        raise AssertionError("a run parsed its config")

    run_tasks = cli._map

    def run_without_parsers(tasks, workers):
        with monkeypatch.context() as patch:
            for parser in ("build_system", "read_target", "algorithms"):
                patch.setattr(cli, parser, unparsed)
            return run_tasks(tasks, workers)

    monkeypatch.setattr(cli, "_map", run_without_parsers)
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"patched-{name}")]) == 0, name
        assert _output_bytes(tmp_path / f"patched-{name}") == _output_bytes(tmp_path / f"plain-{name}"), name


def test_serial_runs_import_no_process_pool(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    probe = (
        "import sys\n"
        "from jpta.cli import main\n"
        f"assert main(['reproduce', 'fig4', '--fast', '--out', {str(tmp_path / 'fig4')!r}, *{TINY_PRESET!r}]) == 0\n"
        f"assert main(['design', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'design')!r}]) == 0\n"
        "print(sorted(name for name in ('concurrent.futures', 'multiprocessing') if name in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    ("command", "overrides", "message"),
    [
        ("design", ["system.num_subcarriers=32768", "system.num_antennas=1024"],
         "system.num_subcarriers: 32768 subcarriers times 1024 antennas is 33554432 cells, more than 16777216"),
        ("design", ["system.num_subcarriers=32768", "algorithm.jpta.grid=1048576"],
         "algorithm.jpta.grid: 32768 subcarriers times 65537 coarse delays is 2147516416 cells, more than 16777216"),
        ("design", ["system.num_subcarriers=2048", "output.theta_step_deg=0.01"],
         "output.theta_step_deg: 2048 subcarriers times 18001 angles is 36866048 cells, more than 16777216"),
        ("reproduce", ["system.num_subcarriers=32769"], "system.num_subcarriers: 32769 is more than 32768"),
    ],
)
def test_oversized_tables_exit_2_before_the_output_directory(tmp_path, capsys, command, overrides, message):
    args = ["fig4"] if command == "reproduce" else ["--config", str(write_config(tmp_path, BASE_CONFIG))]
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([command, *args, "--out", str(tmp_path / "x"), *sets]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_preset_maps_and_default_line_searches_fit_the_size_limits():
    # presets check only their system, so their gain maps and line searches must fit at every allowed K
    cli.build_system(cli._preset_config(fast=False))
    k = jpta_config.MAX_SUBCARRIERS
    assert k * cli.default_theta_grid().size <= jpta_config.MAX_CELLS
    assert k * (DesignOptions().line_search_grid // 16 + 1) <= jpta_config.MAX_CELLS


def _enclosing_functions(node, name, path=()):
    """The nested function names, outermost first, around each use of ``name`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = (*path, child.name) if isinstance(child, ast.FunctionDef) else path
        if getattr(child, "id", getattr(child, "attr", None)) == name:
            yield inner
        yield from _enclosing_functions(child, name, inner)


def test_one_pool_and_one_run_path():
    # `_map` is the only place that builds a process pool, and every run goes through it
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    users = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(fn.name)
    assert users["ProcessPoolExecutor"] == {"_map"}
    assert users["run_algorithm"] == {"_run_task"}
    # a stored beamformer is evaluated by the same run path as a design
    assert users["effective_beamformer_matrix"] == users["build_fit_report"] == {"run_algorithm"}
    # `_run_plan` alone creates --out and writes its provenance, after every run; fig8's writer makes its two
    # behavior subdirectories and writes theirs
    for name in ("mkdir", "write_provenance"):
        assert list(_enclosing_functions(tree, name)) == [("_reproduce_fig8", "write"), ("_run_plan",)], name
    # `run_algorithm` only runs an entry that `algorithms` parsed
    (run,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "run_algorithm"]
    assert "config" not in [arg.arg for arg in run.args.args]
    named = {node.id for node in ast.walk(run) if isinstance(node, ast.Name)}
    assert {"_read", "_section", "ConfigError"} & named == set()
    # `jpta.config` reads every config section: the runner neither binds nor names its reader or its table
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert {"_read", "_section", "_SCHEMA"} & names == set()
    # `algorithms` is the one reader of algorithm bodies: every other `_read` or `_section` call names a fixed
    # section that is not a body, except in `_section`, which reads the top-level section it is given, and in
    # `read_config`, which gives it top-level names
    readers = {}
    config_tree = ast.parse(Path(jpta_config.__file__).read_text(encoding="utf-8"))
    for fn in [node for node in ast.walk(config_tree) if isinstance(node, ast.FunctionDef)]:
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("_read", "_section"):
                section = call.args[1]
                if not isinstance(section, ast.Constant) or section.value in jpta_config._SCHEMA["algorithm"]:
                    readers.setdefault(call.func.id, set()).add(fn.name)
    assert readers == {"_read": {"_section", "algorithms"}, "_section": {"read_config"}}


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when none is loaded."""
    maps = Path("/proc/self/maps")
    paths = {line.split()[-1] for line in maps.read_text().splitlines()} if maps.exists() else set()
    for lib in map(ctypes.CDLL, [p for p in paths if "openblas" in Path(p).name.lower()]):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def _report_blas_threads(*args, **kwargs):
    return cli.RunOutput(report=_blas_threads())


def test_pool_workers_run_one_blas_thread(monkeypatch):
    parent = _blas_threads()
    if parent is None:
        pytest.skip("no OpenBLAS library is loaded")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched run_algorithm reaches only forked workers")
    monkeypatch.setattr(cli, "run_algorithm", _report_blas_threads)
    outputs = cli._map(cli._tasks(BASE_CONFIG) * 4, workers=2)
    assert [output.report for output in outputs] == [1] * 4
    assert _blas_threads() == parent


def _readme_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration file"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))


def test_schema_accepts_every_key_the_readme_names():
    config = _readme_config()
    jpta_config._read(config, "", "")
    for name in ("system", "target", "sweep", "compare", "output"):
        jpta_config._read(config[name], name, name)
    for i, entry in enumerate(config["algorithms"]):
        jpta_config._read(entry, "algorithm", f"algorithms[{i}]")
        ((kind, body),) = entry.items()
        jpta_config._read({**body, "label": "x"}, kind, kind)
    prose = {"custom_file": "t.txt", "rescale": True, "theta1_deg": -45.0, "theta2_deg": 30.0,
             "band_edges": [-5, 5], "angles_deg": [-45.0, 0.0, 30.0]}
    assert jpta_config._read(prose, "target", "target") == prose


def test_every_schema_key_is_read_outside_the_table():
    # a key the schema accepts but no code reads would be accepted and then ignored
    tree = ast.parse(Path(jpta_config.__file__).read_text(encoding="utf-8"))
    (table,) = [node for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_SCHEMA"]]
    keys = {key.value for section in table.value.values for key in section.keys}
    inside = {id(node) for node in ast.walk(table)}
    runner = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = {node.value for module in (tree, runner) for node in ast.walk(module)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in inside}
    assert keys == set().union(*(jpta_config._SCHEMA[s] for s in jpta_config._SCHEMA))
    assert sorted(keys - used) == []


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("design", lambda c: c.update(sytem=c.pop("system")), "sytem: unknown key (did you mean 'system'?)"),
        ("design", lambda c: c["target"].update(wieght_scheme="power"),
         "target.wieght_scheme: unknown key (did you mean 'weight_scheme'?)"),
        ("design", lambda c: c["algorithm"]["jpta"].update(max_iters=1),
         "algorithm.jpta.max_iters: unknown key (did you mean 'max_iter'?)"),
        ("design", lambda c: c["algorithm"]["jpta"].update(varaint="wls"),
         "algorithm.jpta.varaint: unknown key (did you mean 'variant'?)"),
        ("design", lambda c: c["output"].update(gain_mapp=True),
         "output.gain_mapp: unknown key (did you mean 'gain_map'?)"),
        ("sweep", lambda c: c.update(algorithms=[{"jpta": {}}, {"hbf": {"n_rf": 2, "restart": 2}}]),
         "algorithms[1].hbf.restart: unknown key (did you mean 'restarts'?)"),
        ("sweep", lambda c: c.update(algorithms=[{"heuristic": {}, "comment": "closed form"}]),
         "algorithms[0].comment: unknown key"),
        ("compare-hbf", lambda c: c.update(compare={"n_rf_value": [1, 2]}),
         "compare.n_rf_value: unknown key (did you mean 'n_rf_values'?)"),
        ("sweep", lambda c: c["sweep"].update(value=[1, 2]), "sweep.value: unknown key (did you mean 'values'?)"),
        ("gain-map", lambda c: c["system"].update(delay_rnage=8.0),
         "system.delay_rnage: unknown key (did you mean 'delay_range'?)"),
    ],
)
def test_unknown_keys_exit_2_with_their_path_and_a_hint(tmp_path, capsys, command, edit, message):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["sweep"] = {"parameter": "num_ttds", "values": [1, 2]}
    if command == "sweep":
        config["algorithms"] = [config.pop("algorithm")]
    edit(config)
    out = tmp_path / "x"
    extra = ["--beamformer", str(tmp_path / "bf.txt")] if command == "gain-map" else []
    assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_reproduce_rejects_an_unknown_system_key(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["reproduce", "fig4", "--out", str(out), "--fast", "--set", "system.num_antenas=8"]) == 2
    assert capsys.readouterr().err == "config error: system.num_antenas: unknown key (did you mean 'num_antennas'?)\n"
    assert not out.exists()


def test_unused_keys_of_a_read_section_are_kind_checked(tmp_path, capsys):
    # a behavior-1 target does not use theta1_deg, but the target section is read whole
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "x"
    assert main(["design", "--config", str(cfg), "--out", str(out), "--set", "target.theta1_deg=x"]) == 2
    assert capsys.readouterr().err == "config error: target.theta1_deg: expected a finite number, got 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "sweep"])
def test_algorithm_and_algorithms_together_exit_2(tmp_path, capsys, command):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["algorithm"] = {"jpta": {"variant": "wls", "max_iter": 1}}
    config["algorithms"] = [{"jpta": {}}]
    config["sweep"] = {"parameter": "num_ttds", "values": [1, 2]}
    out = tmp_path / "x"
    assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: algorithm: give an 'algorithm' block or an 'algorithms' list, not both\n")
    assert not out.exists()


def test_compare_hbf_replaces_the_configs_algorithm_block(tmp_path):
    config = json.loads(json.dumps(BASE_CONFIG))
    config["compare"] = {"n_rf_values": [1, 2], "restarts": 1}
    bare = {key: value for key, value in config.items() if key != "algorithm"}
    for name, cfg in (("with", config), ("without", bare)):
        assert main(["compare-hbf", "--config", str(write_config(tmp_path, cfg, f"{name}.json")),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "with" / "results.csv").read_bytes() == (tmp_path / "without" / "results.csv").read_bytes()


@pytest.mark.parametrize(
    "parameter, algorithms, section",
    [
        ("n_rf", [{"jpta": {}}, {"heuristic": {}}], "hbf"),
        ("max_iter", [{"heuristic": {}}, {"hbf": {"n_rf": 2}}], "jpta"),
    ],
)
def test_sweep_whose_parameter_sets_no_block_exits_2(tmp_path, capsys, parameter, algorithms, section):
    config = json.loads(json.dumps(BASE_CONFIG))
    config.pop("algorithm")
    config["algorithms"] = algorithms
    config["sweep"] = {"parameter": parameter, "values": [1, 2]}
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep.parameter: {parameter} sets no algorithm block; it sets only '{section}' blocks\n")
    assert not out.exists()


def test_fig8_results_equal_compare_hbf_on_each_behavior(tmp_path):
    # each behavior's rows are sorted on their own, not in one merged sort
    out = tmp_path / "fig8"
    assert main(["reproduce", "fig8", "--out", str(out), "--fast", "--seed", "3", *TINY_PRESET]) == 0
    system = cli.apply_overrides(cli._preset_config(True), TINY_PRESET[1::2])["system"]
    for name, target in (("behavior1", cli.PRESET_BEHAVIOR1), ("behavior2", cli.PRESET_BEHAVIOR2)):
        config = {"system": system, "target": target, "compare": {"n_rf_values": [1, 2, 4]}}
        cfg = write_config(tmp_path, config, f"{name}.json")
        assert main(["compare-hbf", "--config", str(cfg), "--out", str(tmp_path / name), "--seed", "3"]) == 0
        assert (out / name / "results.csv").read_bytes() == (tmp_path / name / "results.csv").read_bytes(), name


_RUNS = ("design_jpta", "heuristic_behavior1", "heuristic_behavior2", "pe_altmin_fc", "altmin_pc")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"algorithms": [{"jpta": {}}, {"jpta": {"variant": "wls", "max_iter": 0}}]},
         "algorithms[1].jpta.max_iter: max_iter must be at least 1"),
        ({"algorithms": [{"jpta": {}}, {"hbf": {"structure": "pc", "n_rf": 3}}]},
         "algorithms[1].hbf: n_rf (3) must divide the antenna count (8)"),
        ({"algorithms": [{"jpta": {}}, {"heuristic": {}}],
          "target": {"behavior": 3, "band_edges": [-3, 3], "angles_deg": [-45.0, 0.0, 30.0]}},
         "algorithms[1].heuristic: closed-form designs exist only for behaviors 1 and 2"),
        ({"algorithms": [{"jpta": {}}], "sweep": {"parameter": "num_ttds", "values": [1, 2, 3]}},
         "system: default contiguous mapping needs num_ttds (3) to divide num_antennas (8); "
         "pass ttd_groups explicitly otherwise"),
        ({"sweep": {"parameter": "max_iter", "values": [2, 0]}},
         "algorithm.jpta.max_iter: max_iter must be at least 1"),
        ({"algorithms": [{"jpta": {}}, {"hbf": {"n_rf": 2, "seed": -3}}]},
         "algorithms[1].hbf: seed (-3) must be non-negative"),
    ],
)
def test_every_entry_is_checked_before_the_first_run(tmp_path, capsys, monkeypatch, edit, message):
    # each of these ran at least one design before its error, which named `algorithm.<kind>`
    calls = []
    for name in _RUNS:
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    config = {**json.loads(json.dumps(BASE_CONFIG)), "sweep": {"parameter": "num_ttds", "values": [1, 2]}, **edit}
    if "algorithms" in config:
        config.pop("algorithm")
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() and calls == []


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    config = {**BASE_CONFIG, "algorithm": {"hbf": {"n_rf": 2}}}
    out = tmp_path / "x"
    assert main(["design", "--config", str(write_config(tmp_path, config)), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed: expected a non-negative integer, got -1\n"
    assert not out.exists()


def test_n_rf_sweep_base_entry_may_leave_n_rf_out(tmp_path):
    # the sweep sets n_rf in every hbf entry, so each point is parsed, not the base config
    config = {key: value for key, value in BASE_CONFIG.items() if key != "algorithm"}
    sweep = {**config, "algorithms": [{"jpta": {}}, {"hbf": {"structure": "pc"}}],
             "sweep": {"parameter": "n_rf", "values": [2, 4]}}
    compare = {**config, "compare": {"n_rf_values": [2, 4], "structures": ["pc"]}}
    for name, command, cfg in (("sweep", "sweep", sweep), ("compare", "compare-hbf", compare)):
        args = ["--config", str(write_config(tmp_path, cfg, f"{name}.json")), "--out", str(tmp_path / name)]
        assert main([command, *args, "--seed", "5"]) == 0
    swept = (tmp_path / "sweep" / "results.csv").read_text().splitlines()
    compared = (tmp_path / "compare" / "results.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in swept[1:]] == ["hbf_pc[n_rf=2]", "hbf_pc[n_rf=4]"]
    assert swept == [row for row in compared if not row.startswith("jpta[reference]")]


@pytest.mark.parametrize(
    "command, section, message",
    [
        ("design", {"sweep": {"parameter": "num_ttds", "valus": [1]}},
         "sweep.valus: unknown key (did you mean 'values'?)"),
        ("compare-hbf", {"sweep": {"parameter": "num_ttds", "valus": [1]}},
         "sweep.valus: unknown key (did you mean 'values'?)"),
        ("gain-map", {"sweep": {"parameter": "num_ttds", "values": ["x"]}},
         "sweep.values: expected a list of finite numbers, got ['x']"),
        ("design", {"compare": {"n_rf_value": [1, 2]}},
         "compare.n_rf_value: unknown key (did you mean 'n_rf_values'?)"),
        ("sweep", {"compare": {"structures": "pc"}}, "compare.structures: expected list, got 'pc'"),
        ("compare-hbf", {"output": {"gain_mapp": True}}, "output.gain_mapp: unknown key (did you mean 'gain_map'?)"),
        ("sweep", {"output": {"theta_step": 2.0}}, "output.theta_step: unknown key (did you mean 'theta_step_deg'?)"),
    ],
)
def test_sections_a_command_does_not_use_are_checked(tmp_path, capsys, command, section, message):
    config = {**BASE_CONFIG, "sweep": {"parameter": "num_ttds", "values": [1, 2]}, **section}
    out = tmp_path / "x"
    extra = ["--beamformer", str(tmp_path / "bf.txt")] if command == "gain-map" else []
    assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
