import ast
import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

from jpta import cli
from jpta.array_model import build_grid, effective_beamformer_matrix
from jpta.beam_targets import behavior1_target
from jpta.cli import main, parse_beamformer_file
from jpta.metrics import fit_objective, linear_to_db

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

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


def test_out_of_range_angle_is_config_error(tmp_path, capsys):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["target"]["theta0_deg"] = 95.0
    cfg = write_config(tmp_path, bad)
    assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "theta0_deg" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "system": [,]\n}\n')
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic breakdown")

    monkeypatch.setattr(cli, "design_jpta", boom)
    code = main(["design", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "sweep" in capsys.readouterr().err


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


def test_compare_hbf_bad_fields_are_config_errors(tmp_path, capsys):
    config = json.loads(json.dumps(BASE_CONFIG))
    for compare, field in (
        ({"n_rf_values": [1, 2], "iters": "many"}, "compare.iters"),
        ({"n_rf_values": [0, 2], "structures": ["pc"]}, "compare.n_rf_values"),
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


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "x")]) == 2
    assert "unknown figure" in capsys.readouterr().err


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


def test_reproduce_sweep_presets_smoke(tmp_path):
    tiny = [
        "--set", "system.num_antennas=4", "--set", "system.num_ttds=4",
        "--set", "system.num_subcarriers=16", "--set", "system.delay_range=4",
    ]
    cases = [
        ("fig5", tiny, "f_obj_vs_num_ttds.csv"),
        ("fig6", tiny, "f_obj_vs_delay_range.csv"),
        ("fig7", tiny, "convergence_ratio.csv"),
        ("fig8", tiny, "f_obj_vs_n_rf.csv"),
        (
            "fig9",
            [
                "--set", "system.num_antennas=32", "--set", "system.num_ttds=32",
                "--set", "system.num_subcarriers=16", "--set", "system.delay_range=8",
            ],
            "hbf_fc_22rf_behavior1.csv",
        ),
    ]
    for figure, overrides, artifact in cases:
        out = tmp_path / figure
        code = main(["reproduce", figure, "--out", str(out), "--fast", *overrides])
        assert code == 0, figure
        assert (out / artifact).exists(), figure


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


def test_beamformer_file_with_nan_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "beamformer.txt").read_text()
    head, _, tail = text.partition("[phases_rad]\n")
    (out / "beamformer.txt").write_text(head + "[phases_rad]\nnan\n" + tail.split("\n", 1)[1])
    code = main(["gain-map", "--config", str(cfg), "--out", str(tmp_path / "map"),
                 "--beamformer", str(out / "beamformer.txt")])
    assert code == 2
    assert "phases_rad" in capsys.readouterr().err


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
    cli.write_gain_map_csv(path, grid, gains, thetas)
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
