"""Config values at the edges of what `jpta.config` accepts: a run exits 0 or 2 and writes only finite numbers."""

import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpta.array_model import SystemConfig, build_grid
from jpta.beam_targets import WeightScheme, behavior1_target
from jpta.cli import main
from jpta.design import design_jpta

BASE_SYSTEM = {"num_antennas": 8, "num_ttds": 2, "carrier_freq_ghz": 100.0, "bandwidth_ghz": 10.0,
               "num_subcarriers": 16, "delay_range": 8.0}
BEHAVIOR1 = {"behavior": 1, "theta0_deg": 30.0, "delta_theta_deg": 45.0}
VARIANTS = {"line_search": {"jpta": {}}, "wls": {"jpta": {"variant": "wls"}}, "closed_form": {"heuristic": {}}}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def design(config: dict, tmp: Path) -> tuple[int, Path]:
    """The exit code and the output directory of a `design` run of ``config`` in ``tmp``."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out = tmp / "out"
    return main(["design", "--config", str(path), "--out", str(out)]), out


def non_finite(out: Path) -> list[str]:
    """Each file under ``out`` that holds a nan or an infinity, with the first one it holds."""
    files = sorted(out.iterdir()) if out.exists() else []
    return [f"{path.name}: {m.group()}" for path in files if (m := NON_FINITE.search(path.read_text()))]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("system, error", [
    ({"delay_range": 0.0}, None),  # a zero-width delay window
    ({"carrier_freq_ghz": 1e-300, "bandwidth_ghz": 1e-301}, "system.bandwidth_ghz: "),  # W^2 underflows
    ({"delay_range": 1e300, "bandwidth_ghz": 1e-300}, "system.delay_range: "),  # delay_range / W overflows
    # the line search would square delays past the double range
    ({"delay_range": 1e300}, "system.delay_range: 1e+300 makes the line search's squared delays overflow"),
    ({"num_subcarriers": 1, "delay_range": 1e200},
     "system.delay_range: 1e+200 makes the line search's squared delays overflow"),
    # just inside that bound
    ({"delay_range": 2e152}, None),
    ({"num_subcarriers": 1, "delay_range": 8e152}, None),
    ({"carrier_freq_ghz": 1e-139, "bandwidth_ghz": 1e-140, "delay_range": 2e21}, None),  # a 2e170 s window
])
def test_degenerate_delay_windows_design_or_exit_2(tmp_path, capsys, variant, system, error):
    config = {"system": {**BASE_SYSTEM, **system}, "target": BEHAVIOR1, "algorithm": VARIANTS[variant]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, out = design(config, tmp_path)
    err = capsys.readouterr().err
    if error is None:
        assert status == 0, err
        assert non_finite(out) == []
        if system["delay_range"] == 0.0:
            delays = (out / "beamformer.txt").read_text().split("[delays_ns]\n")[1].split("[")[0]
            assert delays.split() == ["0", "0"]
    else:
        assert status == 2 and err.startswith(f"config error: {error}"), err
        assert not out.exists()


def test_line_search_keeps_every_interval_whose_bound_is_nan():
    # one subcarrier bends nothing, and the bound squares a 1e190 s window past the double range: 0 * inf;
    # the config rejects such a window, so the design runs on a directly built system
    system = SystemConfig(num_antennas=8, num_ttds=2, carrier_freq=100e9, bandwidth=10e9, num_subcarriers=1,
                          delay_range=1e200)
    grid = build_grid(system)
    target = behavior1_target(system, grid, math.radians(30.0), math.radians(45.0))
    with pytest.warns(RuntimeWarning):  # overflow in far**2, then 0 * inf
        bf, trace = design_jpta(system, grid, target)
    assert all(np.isfinite(values).all() for values in (bf.delays, bf.phases, bf.alpha, trace))


FINITE = {"allow_nan": False, "allow_infinity": False}
POSITIVE = st.floats(min_value=0.0, exclude_min=True, **FINITE)
# every positive double, with the everyday magnitudes drawn often enough that most configs design
SCALE = POSITIVE | st.floats(1e-3, 1e3)
ANGLE = st.floats(-90.0, 90.0)


@st.composite
def small_configs(draw) -> dict:
    """A design config with K <= 32 subcarriers, M <= 16 antennas, a line-search grid and iteration count up to
    the defaults, and every value across the whole range `jpta.config` accepts, or just outside it."""
    m = draw(st.integers(1, 16))
    n = draw(st.integers(1, m))
    bandwidth = draw(SCALE)
    # a carrier anywhere, or mostly a multiple of the bandwidth from just above the edge, bandwidth / 2
    ratio = st.floats(0.5, 1e6, exclude_min=True)
    carrier = draw(POSITIVE) if draw(st.integers(0, 3)) == 0 else bandwidth * draw(ratio)
    system = {"num_antennas": m, "num_ttds": n, "num_subcarriers": draw(st.integers(1, 32)),
              "carrier_freq_ghz": carrier, "bandwidth_ghz": bandwidth,
              "delay_range": draw(st.just(0.0) | SCALE)}
    if m % n or draw(st.booleans()):
        order = draw(st.permutations(range(1, m + 1)))
        cuts = sorted(draw(st.permutations(range(1, m)))[:n - 1])
        system["ttd_groups"] = [order[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
    if draw(st.booleans()):
        system["total_power"] = draw(SCALE)
    if draw(st.booleans()):
        theta0 = draw(ANGLE)
        width = 2 * (90 - abs(theta0)) * draw(st.floats(-1, 1))  # sweep edges inside [-90, 90], ends included
        target = {"behavior": 1, "theta0_deg": theta0, "delta_theta_deg": width}
    else:
        target = {"behavior": 2, "theta1_deg": draw(ANGLE), "theta2_deg": draw(ANGLE)}
    scheme = draw(st.none() | st.sampled_from([s.value for s in WeightScheme]))
    if scheme is not None:
        target["weight_scheme"] = scheme
    variant = draw(st.sampled_from(list(VARIANTS)))
    if variant == "closed_form":
        algorithm = {"heuristic": {}}
    else:
        body = {"variant": variant, "max_iter": draw(st.integers(1, 10)), "grid": draw(st.integers(3, 4096)),
                "nonnegative": draw(st.booleans()), "epsilon": draw(st.none() | st.floats(**FINITE)),
                "init_phase_seed": draw(st.none() | st.integers(0, 2**64))}
        if draw(st.booleans()):  # a sorted delay set inside [0, delay_range / bandwidth_ghz] ns, ends included
            fractions = draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))
            body["discrete_delays_ns"] = sorted(system["delay_range"] / bandwidth * f for f in fractions)
        algorithm = {"jpta": body}
    output = {"gain_map": draw(st.booleans()), "theta_step_deg": draw(st.floats(0.01, 360.0))}
    return {"system": system, "target": target, "algorithm": algorithm, "output": output}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=small_configs())
def test_designs_across_the_accepted_config_ranges_exit_0_or_2_with_finite_outputs(config):
    with tempfile.TemporaryDirectory() as tmp:
        status, out = design(config, Path(tmp))
        assert status in (0, 2)
        assert non_finite(out) == []
