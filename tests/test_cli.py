import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fasrelay
from fasrelay import blercore, cli
from fasrelay import (ConfigError, EeConfig, McConfig, ScenarioConfig,
                      TrajectoryEvaluator, fas_spectrum, linearize)
from fasrelay.blercore import CHI_VARIANTS, chebyshev_nodes
from fasrelay.cli import (_KEYS, COMMANDS, ExperimentSpec, _analytic_averages,
                          main, parse_config, render, run)
from fasrelay.chanmodel import jakes_matrix
from fasrelay.mcoracle import _CHUNK, MC_MODES, McEstimate, mc_average_bler

from conftest import read_rows, run_rows

_SWEEP_KEYS = tuple(key for key, (_, _, home) in _KEYS.items()
                    if home[0] == "sweeps")


def test_empty_config_gives_reference_defaults():
    spec = parse_config("", "bler-sweep")
    scn = spec.scenario
    assert scn.carrier_freq == 2.5e9
    assert scn.noise_power == pytest.approx(1e-13)
    assert scn.flight_radius == 50.0
    assert scn.bs_position == (100.0, 0.0, 40.0)
    assert scn.ue_position == (-100.0, 100.0, 0.0)
    assert (scn.los_a, scn.los_b) == (12.08, 0.11)
    assert (scn.eta_los, scn.eta_nlos) == (1.6, 23.0)
    assert (scn.m_los, scn.m_nlos) == (5, 1)
    assert spec.ee.payload_bits == 80.0
    assert spec.ee.bandwidth == 1e7
    assert spec.ee.port_time == pytest.approx(2e-6)
    assert spec.ee.bler_threshold == 1e-3
    assert spec.aperture == 0.5
    assert spec.blocklength == 100
    # an empty config is the dataclass defaults, under every command
    for cmd in COMMANDS:
        mc = McConfig() if cmd == "validate" else None
        assert parse_config("", cmd) == ExperimentSpec(
            cmd, ScenarioConfig(), EeConfig(), mc)
    # one end of a range keeps the other end's default
    assert (parse_config("z_min = 300\n", "optimize").ee.z_range
            == (300.0, EeConfig().z_range[1]))
    assert (parse_config("n_max = 7\n", "optimize").ee.n_range
            == (EeConfig().n_range[0], 7))


def test_sweep_axes_checked_in_schema_order():
    # sweep_n_ports precedes sweep_z in the schema, so its error is the one
    # reported, whatever the order of the lines
    with pytest.raises(ConfigError) as err:
        parse_config("sweep_z = -1\nsweep_n_ports = 0\n", "bler-sweep")
    assert err.value.line == 2
    assert "sweep_n_ports" in str(err.value)


def test_dbm_and_unit_suffixes():
    spec = parse_config(
        "p1 = 40 dBm\nnoise_power = -100 dBm\ncarrier_freq = 2.5 GHz\n"
        "bandwidth = 10 MHz\nport_time = 2 us\ncircuit_power = 5 dBm\n",
        "bler-sweep")
    assert spec.scenario.p1 == pytest.approx(10.0)
    assert spec.scenario.noise_power == pytest.approx(1e-13)
    assert spec.scenario.carrier_freq == pytest.approx(2.5e9)
    assert spec.ee.bandwidth == pytest.approx(1e7)
    assert spec.ee.port_time == pytest.approx(2e-6)
    assert spec.ee.circuit_power == pytest.approx(10.0 ** -2.5)


def test_micro_sign_suffix():
    spec = parse_config("port_time = 2 µs\n", "bler-sweep")
    assert spec.ee.port_time == pytest.approx(2e-6)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("p1 = 40 dBm\nbogus_key = 3\n", "bler-sweep")
    assert err.value.line == 2


def test_repeated_key_reports_both_lines():
    # the second blocklength would silently override the first
    with pytest.raises(ConfigError) as err:
        parse_config("blocklength = 100\np1 = 40 dBm\nblocklength = 200\n",
                     "bler-sweep")
    assert err.value.line == 3
    assert "already set on line 1" in str(err.value)


def test_unit_mismatch_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("\ncarrier_freq = 40 dBm\n", "bler-sweep")
    assert err.value.line == 2


def test_integer_invariant_violation():
    with pytest.raises(ConfigError) as err:
        parse_config("m_los = 2.5\n", "bler-sweep")
    assert err.value.line == 1


def test_cross_field_invariant_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("eta_los = 25 dB\neta_nlos = 3 dB\n", "bler-sweep")
    assert err.value.line in (1, 2)


def test_comments_and_blanks_ignored():
    spec = parse_config("# full comment\n\np1 = 40 dBm  # trailing\n",
                        "bler-sweep")
    assert spec.scenario.p1 == pytest.approx(10.0)


def test_sweep_range_syntax():
    spec = parse_config("sweep_p2_dbm = 0:27:10\n", "bler-sweep")
    assert len(spec.sweeps["sweep_p2_dbm"]) == 10
    assert spec.sweeps["sweep_p2_dbm"][0] == 0.0
    assert spec.sweeps["sweep_p2_dbm"][-1] == 27.0


def test_round_trip_render_parse():
    text = ("p1 = 40 dBm\nsweep_p2_dbm = 0, 10, 20\nblocklength = 200\n"
            "n_ports = 4\nseed = 42\ntrials = 1000\noutput = x.csv\n")
    spec = parse_config(text, "validate")
    again = parse_config(render(spec), "validate")
    assert again == spec


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        parse_config("", "frobnicate")


def test_bler_sweep_rows_and_echo(tmp_path):
    rows = run_rows(parse_config(
        "sweep_p2_dbm = 0:20:5\nsweep_n_ports = 1, 2\ntraj_nodes = 32\n",
        "bler-sweep"), tmp_path)
    assert len(rows) == 10  # cardinality preserved, nothing dropped
    assert {r["n_ports"] for r in rows} == {"1", "2"}
    for r in rows:
        assert float(r["bler_analytic"]) <= 1.0
        assert float(r["error_floor"]) <= float(r["bler_analytic"]) + 1e-12
        assert r["p1_dbm"] == "40.0"
    body = (tmp_path / "rows.csv.meta").read_text()
    assert "config_sha256" in body and "rows = 10" in body


def test_validate_emits_mc_columns_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text = ("sweep_p2_dbm = 6, 12\ntrials = 20000\nseed = 77\n"
            "traj_nodes = 32\n")
    spec = parse_config(text + f"output = {out1}\n", "validate")
    assert run(spec) == 0
    spec2 = parse_config(text + f"output = {out2}\n", "validate")
    assert run(spec2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    for r in rows:
        assert abs(float(r["bler_analytic"]) - float(r["bler_mc"])) \
            <= 1.0  # structural check; closeness is asserted elsewhere
        assert float(r["bler_mc_se"]) > 0.0
        assert r["mc_trials"] == "20000"


def test_validate_without_monte_carlo_settings_is_a_value_error():
    # rejected when built, not with a TypeError from run
    with pytest.raises(ValueError, match="Monte Carlo"):
        ExperimentSpec("validate", ScenarioConfig(), EeConfig(), None,
                       sweeps={"sweep_p2_dbm": [10.0]})


def test_validate_seed_override_changes_mc(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text = "sweep_p2_dbm = 12\ntrials = 5000\nseed = 77\ntraj_nodes = 32\n"
    run(parse_config(text + f"output = {out1}\n", "validate"))
    run(parse_config(text + f"output = {out2}\n", "validate"), seed=78)
    a = read_rows(out1)[0]
    b = read_rows(out2)[0]
    assert a["bler_mc"] != b["bler_mc"]
    assert a["bler_analytic"] == b["bler_analytic"]


@pytest.mark.parametrize("command, text, missing", [
    pytest.param("aperture-sweep", "sweep_aperture = 0.5, 1\n",
                 ("p2", "sweep_p2_dbm"), id="aperture-sweep-p2"),
    pytest.param("aperture-sweep", "p2 = 10 dBm\n", ("sweep_aperture",),
                 id="aperture-sweep-sweep_aperture"),
    pytest.param("bler-sweep", "", ("p2", "sweep_p2_dbm"), id="bler-sweep-p2"),
    pytest.param("validate", "trials = 100\n", ("p2", "sweep_p2_dbm"),
                 id="validate-p2"),
    pytest.param("power-vs-altitude", "sweep_n_ports = 2\n", ("sweep_z",),
                 id="power-vs-altitude-sweep_z"),
    pytest.param("ee-contour", "sweep_blocklength = 300\n", ("sweep_z",),
                 id="ee-contour-sweep_z"),
    pytest.param("ee-contour", "sweep_z = 300\n", ("sweep_blocklength",),
                 id="ee-contour-sweep_blocklength"),
])
def test_aperture_sweep_requires_power(tmp_path, command, text, missing):
    # a command without an axis or power it needs stops before any work,
    # with an error that names the missing key
    out = tmp_path / "x.csv"
    with pytest.raises(ConfigError) as err:
        run(parse_config(text, command), out_path=str(out))
    for key in missing:
        assert re.search(rf"\b{key}\b", str(err.value)), (key, str(err.value))
    assert not out.exists()


def test_aperture_sweep_rows(tmp_path):
    # one row per (N, aperture), N outermost; sweep_n_ports replaces n_ports
    for ports, n_axis in (("n_ports = 4", ["4"]),
                          ("sweep_n_ports = 1, 4", ["1", "4"])):
        rows = run_rows(parse_config(
            f"{ports}\np2 = 15 dBm\nsweep_aperture = 0.5, 1, 2\n"
            "traj_nodes = 32\n", "aperture-sweep"), tmp_path)
        assert [(r["n_ports"], r["aperture"]) for r in rows] == [
            (n, w) for n in n_axis for w in ("0.5", "1.0", "2.0")]
        blers = [float(r["bler_analytic"]) for r in rows
                 if r["n_ports"] == "4"]
        assert blers[0] > blers[-1]


@pytest.mark.parametrize("command, text", [
    ("bler-sweep", ""),
    ("validate", "trials = 1000\n"),
    ("aperture-sweep", "sweep_aperture = 0.5\n"),
], ids=["bler-sweep", "validate", "aperture-sweep"])
def test_aperture_sweep_evaluates_p2_in_watts(tmp_path, command, text):
    # this p2 does not survive a round trip through dBm; the row must be
    # evaluated at p2 itself and echo its dBm value
    p2 = 0.00033761994411113367
    [row] = run_rows(parse_config(f"n_ports = 2\np2 = {p2!r}\n{text}"
                                  "traj_nodes = 32\n", command), tmp_path)
    fbl = linearize(80 / 100, 100, "2^R-1")
    ev = TrajectoryEvaluator(ScenarioConfig(), fbl, 32)
    fas = fas_spectrum(2, 0.5)
    assert float(row["bler_analytic"]) == ev.e2e_avg(p2, fas.lambdas)
    assert float(row["p2_dbm"]) == 10.0 * math.log10(p2 * 1000.0)
    if command == "validate":
        mc = McConfig(seed=int(row["row_seed"]), trials=1000)
        assert float(row["bler_mc"]) == mc_average_bler(
            ScenarioConfig(), fas, fbl, p2, mc).mean


def test_power_vs_altitude_rows(tmp_path):
    rows = run_rows(parse_config(
        "p1 = 46 dBm\nblocklength = 200\nsweep_z = 300, 500\n"
        "sweep_n_ports = 8\ntraj_nodes = 32\np_max = 40 dBm\n",
        "power-vs-altitude"), tmp_path)
    assert len(rows) == 2
    for r in rows:
        assert r["feasible"] == "true"
        assert float(r["p2_star_dbm"]) < 20.0


def test_ee_vs_ports_infeasible_rows_carry_zero(tmp_path):
    rows = run_rows(parse_config(
        "p1 = 46 dBm\nuav_altitude = 400\nsweep_blocklength = 200\n"
        "sweep_n_ports = 8, 9, 10, 11\ntraj_nodes = 32\np_max = 40 dBm\n",
        "ee-vs-ports"), tmp_path)
    by_n = {r["n_ports"]: r for r in rows}
    for n in ("10", "11"):
        assert by_n[n]["feasible"] == "false"
        assert float(by_n[n]["ee_bits_per_joule"]) == 0.0
    assert by_n["9"]["feasible"] == "true"


def test_optimize_writes_trace_and_summary(tmp_path):
    rows = run_rows(parse_config(
        "p1 = 46 dBm\nz_min = 300\nz_max = 500\nz_step = 100\n"
        "l_set = 300\nn_min = 1\nn_max = 3\ntraj_nodes = 32\n"
        "p_max = 40 dBm\n", "optimize"), tmp_path)
    assert len(rows) == 3
    assert sum(r["is_optimum"] == "true" for r in rows) == 1
    meta = (tmp_path / "rows.csv.meta").read_text()
    assert "l_star = 300" in meta
    gap = [line for line in meta.splitlines()
           if line.startswith("table_check_max_rel = ")]
    assert len(gap) == 1
    assert 0.0 <= float(gap[0].split(" = ")[1]) <= 1e-8


def test_ee_contour_preset_reduced_grid(tmp_path):
    # exercise the checked-in contour preset end to end on a reduced grid;
    # a key may be set once, so the preset's lines for the reduced keys go
    from pathlib import Path
    preset = Path(__file__).resolve().parent.parent / "configs" / "ee_contour.conf"
    reduced = ("sweep_z = 300, 400\nsweep_blocklength = 300\nn_max = 3\n"
               "traj_nodes = 32\n")
    names = {line.split("=")[0].strip() for line in reduced.splitlines()}
    text = "".join(line + "\n" for line in preset.read_text().splitlines()
                   if line.split("=")[0].strip() not in names) + reduced
    rows = run_rows(parse_config(text, "ee-contour"), tmp_path)
    assert len(rows) == 2
    for r in rows:
        assert r["feasible"] == "true"
        assert int(r["n_star"]) <= 3
        assert float(r["ee_bits_per_joule"]) > 0.0


def test_ee_contour_rows_match_optimize_trace(tmp_path):
    # both commands print one port search per (L, Z) through the same columns
    grid = ("p1 = 46 dBm\nn_min = 1\nn_max = 2\ntraj_nodes = 32\n"
            "p_max = 40 dBm\n")
    opt = run_rows(parse_config(grid + "l_set = 300, 400\nz_min = 300\n"
                                "z_max = 400\nz_step = 100\n", "optimize"),
                   tmp_path)
    contour = run_rows(parse_config(grid + "sweep_blocklength = 300, 400\n"
                                    "sweep_z = 300, 400\n", "ee-contour"),
                       tmp_path)
    assert len(opt) == len(contour) == 4
    for a, b in zip(opt, contour):
        assert list(a) == list(b) + ["is_optimum"]
        assert (a.pop("command"), b.pop("command")) == ("optimize",
                                                         "ee-contour")
        del a["is_optimum"]
        assert a == b


_ECHO_HEADER = [
    "command", "p1_dbm", "noise_dbm", "carrier_freq_hz", "flight_radius_m",
    "eta_los_db", "eta_nlos_db", "m_los", "m_nlos", "payload_bits",
    "bandwidth_hz", "circuit_power_w", "switch_power_w", "port_time_s",
    "bler_threshold", "chi_variant", "rank_tolerance", "traj_nodes",
    "uav_altitude_m"]
_ANALYTIC_HEADER = ["n_ports", "aperture", "blocklength", "p2_dbm", "n_eff",
                    "bler_analytic", "bler_hop1", "bler_hop2", "bler_e2e_asym"]
_SEARCH_HEADER = ["blocklength", "aperture", "feasible", "n_star",
                  "p2_star_dbm", "ee_bits_per_joule"]


@pytest.mark.parametrize("command, text, header", [
    ("bler-sweep", "sweep_p2_dbm = 10\n", _ANALYTIC_HEADER + ["error_floor"]),
    ("validate", "sweep_p2_dbm = 10\ntrials = 1000\n",
     _ANALYTIC_HEADER + ["error_floor", "bler_mc", "bler_mc_se", "mc_trials",
                         "mc_mode", "row_seed"]),
    ("aperture-sweep", "p2 = 10 dBm\nsweep_aperture = 0.5\n",
     _ANALYTIC_HEADER),
    ("power-vs-altitude", "sweep_z = 300\n",
     ["n_ports", "aperture", "blocklength", "n_eff", "feasible", "p2_star_w",
      "p2_star_dbm"]),
    ("ee-vs-ports", "sweep_n_ports = 2\n",
     ["n_ports", "aperture", "blocklength", "feasible", "p2_star_dbm",
      "eps_o", "ee_bits_per_joule"]),
    ("ee-contour", "sweep_z = 300\nsweep_blocklength = 300\nn_max = 2\n",
     _SEARCH_HEADER),
    ("optimize", "z_min = 300\nz_max = 300.5\nl_set = 300\nn_max = 2\n",
     _SEARCH_HEADER + ["is_optimum"]),
])
def test_csv_header_is_pinned(tmp_path, command, text, header):
    # the exact columns of each command, in order
    rows = run_rows(parse_config(text + "traj_nodes = 32\n", command),
                    tmp_path)
    assert list(rows[0]) == _ECHO_HEADER + header


def test_run_unwritable_output_is_an_error(tmp_path):
    spec = parse_config("sweep_p2_dbm = 10\ntraj_nodes = 32\n", "bler-sweep")
    with pytest.raises(OSError):
        run(spec, out_path=str(tmp_path / "missing_dir" / "x.csv"))


def main_on(tmp_path, command, text, *args):
    """main's exit status on the config text, which it reads from
    tmp_path / "c.conf", writing its CSV to tmp_path / "o.csv"."""
    conf = tmp_path / "c.conf"
    conf.write_text(text)
    return main([command, "--config", str(conf),
                 "--out", str(tmp_path / "o.csv"), *args])


def test_main_entry_point(tmp_path):
    assert main_on(tmp_path, "bler-sweep",
                   "sweep_p2_dbm = 10\ntraj_nodes = 32\n") == 0
    assert (tmp_path / "o.csv").exists()
    assert main(["bler-sweep", "--config", str(tmp_path / "nope.conf")]) == 1


def test_main_rejects_the_removed_iteration_cap(tmp_path, capsys):
    # ITP's own step bound ends every solve: the schema has no iteration cap
    assert main_on(tmp_path, "optimize",
                   "n_max = 2\nmax_bisect_iters = 60\n") == 1
    assert capsys.readouterr().err == (
        "error: line 2: unknown key 'max_bisect_iters'\n")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_main_rejects_a_seed_outside_64_bits(tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main_on(tmp_path, command, "sweep_p2_dbm = 10\ntraj_nodes = 32\n",
                "--seed", str(seed))
    assert exc.value.code == 2
    assert "argument --seed: seed must fit in 64 bits" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command, text", [
    ("bler-sweep", "sweep_p2_dbm = 10\n"),
    ("optimize", "n_max = 2\n"),
])
def test_main_rejects_a_payload_without_a_surrogate(tmp_path, capsys, command,
                                                    text):
    # 2^rate overflows from 1024 bits per symbol on
    assert main_on(tmp_path, command, text + "payload_bits = 1e6\n") == 1
    assert capsys.readouterr().err.startswith("error: line 2: payload_bits")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command, text", [
    # 2^rate overflows at rate 1250 (blocklength 4)
    ("ee-vs-ports", "payload_bits = 5e3\nsweep_blocklength = 300, 4\n"),
    ("ee-contour", "payload_bits = 5e3\nsweep_blocklength = 300, 4\n"),
    ("optimize", "payload_bits = 5e3\nl_set = 4\n"),
    # the ramp is below the spacing of doubles at tau (rate 200)
    ("ee-vs-ports", "payload_bits = 2e4\n"),
    ("bler-sweep", "payload_bits = 2e4\n"),
    # 2^(2 rate) overflows at rate 600
    ("power-vs-altitude", "payload_bits = 6e4\nchi_variant = 2^2R-1\n"),
])
def test_payload_is_checked_at_every_blocklength_in_use(command, text):
    with pytest.raises(ConfigError) as err:
        parse_config(text, command)
    assert err.value.line == 1


@pytest.mark.parametrize("command, payload, text", [
    # the surrogate exists at rate 50 (2^R-1) and at rate 200 (2^2R-1)
    ("ee-vs-ports", "5e3", ""),
    ("ee-vs-ports", "2e4", "chi_variant = 2^2R-1\n"),
    # rate 20 at the one blocklength optimize uses, 200 at the default
    # blocklength it does not
    ("optimize", "2e4", "l_set = 1000\n"),
    # rate 13.3 at the one blocklength bler-sweep uses, 133 at the l_set
    # entry 300 it does not
    ("bler-sweep", "4e4", "blocklength = 3000\n"),
    ("ee-vs-ports", "4e4", "sweep_blocklength = 3000, 4000\n"),
    ("ee-contour", "4e4", "sweep_blocklength = 3000\n"),
])
def test_payload_is_not_checked_at_unused_blocklengths(command, payload,
                                                       text):
    parse_config(f"payload_bits = {payload}\n{text}", command)
    # 1e6 bits have no surrogate at the blocklengths in use either
    with pytest.raises(ConfigError) as err:
        parse_config(f"payload_bits = 1e6\n{text}", command)
    assert err.value.line == 1


def _package_env():
    """Environment for a subprocess that imports this checkout's package."""
    src = str(Path(fasrelay.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_out_mpmath():
    # mpmath is a test-only dependency: the package must run without it;
    # scipy.interpolate costs 0.36 s and 24 MB to import and is not used
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fasrelay.cli; "
         "print('mpmath' in sys.modules, 'scipy.interpolate' in sys.modules)"],
        env=_package_env(), capture_output=True, text=True, check=True,
        timeout=60)
    assert out.stdout.strip() == "False False"


def test_public_surface_resolves():
    # an export left behind by a deleted name fails here
    missing = [name for name in fasrelay.__all__ if not hasattr(fasrelay, name)]
    assert not missing
    out = subprocess.run([sys.executable, "-c", "from fasrelay import *"],
                         env=_package_env(), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr


# Malformed values that used to be accepted or to end in a traceback; each
# must be a ConfigError carrying the line of the key.
_BAD_LINES = [
    "blocklength = 1e400",
    "n_max = 1e400",
    "seed = 1e400",
    "blocklength = nan",
    "sweep_p2_dbm = nan",
    "p1 = nan dBm",
    "z_step = nan",
    "sweep_n_ports = 1:12:5",
    "sweep_n_ports = 2.5",
    "sweep_n_ports = 0",
    "sweep_aperture = -1",
    "sweep_blocklength = 0",
    "p1 = 4000 dBm",
    "carrier_freq = 1e305 GHz",
    "sweep_z = -1e308:1e308:3",
    "sweep_p2_dbm = 4000",
    "sweep_p2_dbm = -4000",
    "sweep_z = -50, 0, 100",
    "uav_altitude = 0",
    "z_min = -10",
    "payload_bits = 1e6",
    "payload_bits = 1e-300",
]


@pytest.mark.parametrize("bad", _BAD_LINES)
def test_malformed_value_reports_its_line(bad):
    # the shorter key of the same name comes first, so the line must be
    # the sweep key's own
    text = "n_ports = 2\naperture = 0.5\nblocklength = 100\n" + bad + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, "validate")
    assert err.value.line == 4


@pytest.mark.parametrize("text", [
    "los_a = 1\nlos_b = -1\n",
    "switch_power = 0\ncircuit_power = -1\n",
    "trials = 10\nmc_batch = 0\n",
    "payload_bits = 80\nbandwidth = -1\n",
])
def test_invariant_error_reports_its_own_line(text):
    # a check on a dataclass field names that field's key, so the error
    # carries the line of the offending key and not of a valid neighbour
    with pytest.raises(ConfigError) as err:
        parse_config(text, "validate")
    assert err.value.line == 2
    assert text.splitlines()[1].split(" =")[0] in str(err.value)


def _bad_values(cls, f):
    """A NaN, and for an integer field also 2.5 (and True where it is one
    integer), in a value of field f of config class cls; a tuple field gets
    it in its last entry."""
    default = getattr(cls(), f.name)
    bad = [math.nan] + ([2.5] if "int" in f.type else [])
    if not isinstance(default, tuple):
        return bad + ([True] if f.type == "int" else [])
    return [(*default[:-1], value) for value in bad]


@pytest.mark.parametrize("cls, f", [
    pytest.param(cls, f, id=f"{cls.__name__}-{f.name}")
    for cls in (ScenarioConfig, EeConfig, McConfig)
    for f in fields(cls) if f.type != "str"])
def test_a_nan_or_non_integer_field_fails_at_construction(cls, f):
    # a NaN fails every comparison, so `x <= 0` let it through to a silent
    # 0.0 or NaN far from the config; the error names the field
    for value in _bad_values(cls, f):
        with pytest.raises(ValueError, match=rf"^{f.name}\b"):
            cls(**{f.name: value})


def _spec(**fields_):
    return ExperimentSpec("bler-sweep", ScenarioConfig(), EeConfig(), None,
                          **fields_)


@pytest.mark.parametrize("name, call", [
    ("rate", lambda: blercore.instantaneous_bler(1.0, math.nan, 100)),
    ("blocklength", lambda: blercore.instantaneous_bler(1.0, 0.8, math.nan)),
    ("blocklength", lambda: blercore.instantaneous_bler(1.0, 0.8, 2.5)),
    ("n_ports", lambda: fas_spectrum(2.5, 0.5)),
    ("n_ports", lambda: jakes_matrix(2.5, 0.5)),
    ("rank_tolerance", lambda: fas_spectrum(2, 0.5, math.nan)),
    ("mean", lambda: McEstimate(math.nan, math.nan, 10)),
    ("trials", lambda: McEstimate(0.1, 0.0, 2.5)),
    ("aperture", lambda: _spec(aperture=math.nan)),
    ("p2", lambda: _spec(p2=math.nan)),
    ("n_ports", lambda: _spec(n_ports=math.nan)),
    ("n_ports", lambda: _spec(n_ports=True)),
    ("traj_nodes", lambda: _spec(traj_nodes=2.5))])
def test_a_nan_or_non_integer_argument_fails_at_the_api(name, call):
    # each of these returned 0.0, rounded 2.5 up to 3 ports, kept one
    # branch or constructed; the error names the parameter
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()


def test_integer_lists_share_one_parser():
    spec = parse_config("sweep_n_ports = 1:12:12\nsweep_blocklength = 2e2, 300\n"
                        "l_set = 3e2:6e2:4\n", "ee-vs-ports")
    assert spec.sweeps["sweep_n_ports"] == list(range(1, 13))
    assert spec.sweeps["sweep_blocklength"] == [200, 300]
    assert spec.ee.l_set == (300, 400, 500, 600)
    assert all(type(v) is int for v in spec.sweeps["sweep_n_ports"])


def test_large_integer_parses_exactly():
    spec = parse_config(f"seed = {2 ** 64 - 1}\n", "validate")
    assert spec.mc.seed == 2 ** 64 - 1


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-10 ** 30, max_value=10 ** 30).map(str),
    st.sampled_from(["0", "-1", "1", "2.5", "1e400", "-1e400", "nan", "inf",
                     "1e-400", "1_000", ""]),
)
_TOKEN = st.one_of(
    _NUMBER,
    st.tuples(_NUMBER, st.sampled_from(["dBm", "W", "mW", "GHz", "us", "dB",
                                        "db", "µs", "bogus"])).map(" ".join),
    st.tuples(_NUMBER, _NUMBER, st.integers(-2, 30)).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}"),
    st.lists(_NUMBER, min_size=1, max_size=4).map(", ".join),
    st.sampled_from(sorted(set(CHI_VARIANTS) | set(MC_MODES))),
    st.text(max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.sampled_from(sorted(_KEYS)), _TOKEN),
                      max_size=6),
       command=st.sampled_from(COMMANDS))
@example(lines=[("blocklength", "1e400")], command="validate")
@example(lines=[("n_max", "1e400")], command="optimize")
@example(lines=[("seed", "1e400")], command="validate")
@example(lines=[("blocklength", "nan")], command="bler-sweep")
@example(lines=[("sweep_p2_dbm", "nan")], command="bler-sweep")
@example(lines=[("sweep_p2_dbm", "4000")], command="bler-sweep")
@example(lines=[("sweep_p2_dbm", "-4000")], command="bler-sweep")
@example(lines=[("p1", "nan dBm")], command="bler-sweep")
@example(lines=[("z_step", "nan")], command="optimize")
@example(lines=[("sweep_n_ports", "1:12:5")], command="ee-vs-ports")
@example(lines=[("sweep_n_ports", "2.5")], command="ee-vs-ports")
@example(lines=[("sweep_n_ports", "0")], command="ee-vs-ports")
@example(lines=[("sweep_aperture", "-1")], command="aperture-sweep")
@example(lines=[("sweep_blocklength", "0")], command="ee-contour")
def test_random_config_raises_only_config_error(lines, command):
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        parse_config(text, command)
    except ConfigError:
        pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_UNIT = st.floats(min_value=1e-12, max_value=1.0, exclude_max=True)
_COUNT = st.integers(min_value=1, max_value=2 ** 64)
# the rate at the shortest blocklength a command uses; its other
# blocklengths are up to 1e6 times longer, so every rate it sees lies in
# [1e-15, 30] bits per symbol, where the surrogate exists at any blocklength
# up to 2^64 (2^rate - 1 is 0 below 1.6e-16, and the ramp is below the
# spacing of doubles at tau from about 40 on at 2^64 symbols)
_RATE = st.floats(min_value=1e-9, max_value=30.0)
# relay powers whose value in watts is finite and positive
_DBM = st.floats(min_value=-3000.0, max_value=3000.0)


@st.composite
def _specs(draw):
    eta = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2)))
    scenario = ScenarioConfig(
        bs_position=draw(st.tuples(_FINITE, _FINITE, _FINITE)),
        ue_position=draw(st.tuples(_FINITE, _FINITE, _FINITE)),
        flight_radius=draw(_POSITIVE), uav_altitude=draw(_POSITIVE),
        los_a=draw(_POSITIVE), los_b=draw(_POSITIVE),
        eta_los=eta[0], eta_nlos=eta[1], carrier_freq=draw(_POSITIVE),
        noise_power=draw(_POSITIVE), p1=draw(_POSITIVE),
        m_los=draw(_COUNT), m_nlos=draw(_COUNT))
    z = sorted(draw(st.lists(_POSITIVE, min_size=2, max_size=2, unique=True)))
    n = sorted(draw(st.lists(_COUNT, min_size=2, max_size=2)))
    command = draw(st.sampled_from(COMMANDS))
    names = draw(st.lists(st.sampled_from(_SWEEP_KEYS), unique=True))
    # the one source of the blocklengths the command evaluates
    in_use = {"optimize": "l_set", "ee-contour": "sweep_blocklength",
              "ee-vs-ports": ("sweep_blocklength"
                              if "sweep_blocklength" in names
                              else "blocklength")}.get(command, "blocklength")
    shortest = draw(_COUNT)
    near = st.integers(shortest, min(2 ** 64, shortest * 10 ** 6))
    lengths = {source: near if source == in_use else _COUNT
               for source in ("blocklength", "l_set", "sweep_blocklength")}
    blocklength = draw(lengths["blocklength"])
    l_set = tuple(draw(st.lists(lengths["l_set"], min_size=1, max_size=4)))
    axes = {"sweep_p2_dbm": _DBM, "sweep_z": _POSITIVE,
            "sweep_aperture": _POSITIVE, "sweep_n_ports": _COUNT,
            "sweep_blocklength": lengths["sweep_blocklength"]}
    sweeps = {name: draw(st.lists(axes[name], min_size=1, max_size=4))
              for name in names}
    used = {"blocklength": [blocklength], "l_set": l_set,
            "sweep_blocklength": sweeps.get("sweep_blocklength", [])}[in_use]
    ee = EeConfig(
        payload_bits=(draw(_RATE) * min(used) if used else draw(_POSITIVE)),
        bandwidth=draw(_POSITIVE),
        circuit_power=draw(st.just(0.0) | _POSITIVE),
        switch_power=draw(st.just(0.0) | _POSITIVE),
        port_time=draw(_POSITIVE), bler_threshold=draw(_UNIT),
        p_max=draw(_POSITIVE), z_range=tuple(z),
        l_set=l_set, n_range=tuple(n), z_step=draw(_POSITIVE),
        bisect_tol=draw(_UNIT))
    mc = None
    if command == "validate" or draw(st.booleans()):
        mc = McConfig(seed=draw(st.integers(0, 2 ** 64 - 1)),
                      trials=draw(_COUNT), mode=draw(st.sampled_from(MC_MODES)),
                      batch=draw(_COUNT))
    return ExperimentSpec(
        command=command, scenario=scenario, ee=ee, mc=mc,
        blocklength=blocklength,
        chi_variant=draw(st.sampled_from(CHI_VARIANTS)),
        n_ports=draw(_COUNT), aperture=draw(_POSITIVE),
        rank_tolerance=draw(_UNIT),
        traj_nodes=draw(st.integers(min_value=2, max_value=2 ** 64)),
        p2=draw(st.none() | _POSITIVE), sweeps=sweeps,
        output_path=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)))


@settings(max_examples=200, deadline=None)
@given(spec=_specs())
def test_render_parse_round_trip(spec):
    assert parse_config(render(spec), spec.command) == spec


def test_main_reports_bad_config_line_without_traceback(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("n_ports = 2\nsweep_n_ports = 0\nsweep_p2_dbm = 10\n")
    out = subprocess.run(
        [sys.executable, "-m", "fasrelay.cli", "bler-sweep", "--config",
         str(conf), "--out", str(tmp_path / "x.csv")],
        env=_package_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: line 2: sweep_n_ports")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.csv").exists()


# the optimize-grid benchmark study at 400 m, L = 300 and N = 1-3, and the
# bler-sweep one at 400 m, L = 100 and N = 1, 2 at 20 and 40 dBm
_OPTIMIZE_AT_400 = ("aperture = 0.5\np1 = 46 dBm\nbler_threshold = 1e-3\n"
                    "p_max = 40 dBm\nn_min = 1\nn_max = 3\nz_min = 400\n"
                    "z_max = 410\nz_step = 20\nl_set = 300\n")
_BLER_SWEEP_AT_400 = ("blocklength = 100\np1 = 40 dBm\nuav_altitude = 400\n"
                      "sweep_n_ports = 1, 2\nsweep_aperture = 0.5\n"
                      "sweep_p2_dbm = 20, 40\n")


@pytest.mark.parametrize("command, text", [
    ("optimize", _OPTIMIZE_AT_400), ("bler-sweep", _BLER_SWEEP_AT_400)],
    ids=["optimize", "bler-sweep"])
@pytest.mark.parametrize("extreme", [
    "noise_power = 1e300", "noise_power = 1e-320", "eta_nlos = 1e308",
    "eta_los = -1e308", "carrier_freq = 1e308", "carrier_freq = 1e-300"])
def test_main_rejects_an_snr_scale_outside_the_double_range(
        tmp_path, capsys, command, text, extreme):
    # hop 1's vartheta m sigma^2 / (p1 beta1) is inf, 0 or so small that
    # chi / vartheta overflows: optimize raised a ValueError from deep in
    # the solve, and bler-sweep wrote nan cells (both an OverflowError at
    # eta_los = -1e308). No warning reaches stderr before the error either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main_on(tmp_path, command, text + extreme + "\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: hop-1 vartheta")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("extreme", [
    "uav_altitude = 1e200", "bs_position = 0, 0, 1e200"])
def test_main_rejects_a_height_whose_square_overflows(tmp_path, capsys,
                                                      extreme):
    # (uz - z)^2 is past the double range: trajectory_geometry raised a raw
    # OverflowError there. The square is inf now, the path gain 0, and the
    # SNR scale a typed error, with no warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main_on(tmp_path, "bler-sweep",
                       f"{extreme}\np2 = 10 dBm\ntraj_nodes = 16\n")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: hop-1 vartheta")
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_main_reports_a_run_time_error_without_traceback(tmp_path, capsys):
    # at m_los = 40 the LoS table misses its 1e-8 contract at the solved
    # power (a gap of 9.6e-8): a TableAccuracyError, reported as an error
    code = main_on(tmp_path, "power-vs-altitude",
                   "blocklength = 50\np1 = 46 dBm\nm_los = 40\n"
                   "sweep_z = 1000\nsweep_n_ports = 4\naperture = 2\n"
                   "bler_threshold = 1e-2\np_max = 20 dBm\ntraj_nodes = 16\n")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: tabulated end-to-end BLER")
    assert "Traceback" not in err


def test_asymptote_of_a_link_with_zero_weight_adds_zero(tmp_path):
    # at L = 10 the NLoS asymptote overflows to inf at every node, and
    # where p_los2 is 1 its weight is 0: every probability cell stays
    # finite and at most the sum of the trajectory weights, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main_on(tmp_path, "bler-sweep",
                       "blocklength = 10\npayload_bits = 917.6\np1 = 40 dBm\n"
                       "uav_altitude = 1000\nlos_b = 20\nm_nlos = 3\n"
                       "n_ports = 8\naperture = 4\n"
                       "sweep_p2_dbm = -20:20:3\n") == 0
    rows = read_rows(tmp_path / "o.csv")
    assert len(rows) == 3
    # (pi / 2M) / sin(pi / 2M) at M = 128, plus the rounding of the sum
    bound = (math.pi / 256.0) / math.sin(math.pi / 256.0) * (1.0 + 1e-14)
    for r in rows:
        for col in ("bler_analytic", "bler_hop1", "bler_hop2",
                    "bler_e2e_asym", "error_floor"):
            assert 0.0 <= float(r[col]) <= bound, (col, r[col])


def test_analytic_points_match_per_power_calls(urban):
    # one pass over a power axis gives each power the averages of its own
    # call
    ev = TrajectoryEvaluator(urban, linearize(0.8, 100))
    p2s = [10.0 ** (k / 4.0 - 6.0) for k in range(20)]
    for n, w in ((1, 0.5), (4, 0.5), (12, 2.0)):
        fas = fas_spectrum(n, w)
        whole = [c[0].tolist() for c in _analytic_averages(ev, [fas], p2s)]
        alone = [[c[0, 0] for c in _analytic_averages(ev, [fas], [p])]
                 for p in p2s]
        assert np.array(whole).T.tolist() == alone


def test_sweep_passes_group_spectra_by_rank(tmp_path, monkeypatch):
    # the benchmark's bler-sweep study at 400 m (48 spectra of 12 ranks, 2
    # powers, 128 nodes): every pass holds spectra of one rank and at most
    # _PASS_POINTS points, the rank-1 pass exactly that many; with the
    # budget at one spectrum per pass the CSV keeps its bytes. A spectrum
    # with more points than the budget (9 powers) runs alone
    passes = []
    averages = cli._analytic_averages

    def recorded(ev, spectra, p2s):
        passes.append(([fas.n_eff for fas in spectra],
                       len(spectra) * len(p2s) * ev.theta.size))
        return averages(ev, spectra, p2s)

    monkeypatch.setattr(cli, "_analytic_averages", recorded)
    text = ("blocklength = 100\np1 = 40 dBm\nuav_altitude = 400\n"
            "sweep_n_ports = 1:12:12\nsweep_aperture = 0.5, 1, 2, 4\n")
    spec = parse_config(text + "sweep_p2_dbm = 20:40:2\n", "bler-sweep")
    run(spec, out_path=str(tmp_path / "grouped.csv"))
    assert sum(len(ranks) for ranks, _ in passes) == 48
    assert all(len(set(ranks)) == 1 for ranks, _ in passes)
    assert len({ranks[0] for ranks, _ in passes}) == 12
    assert max(points for _, points in passes) == cli._PASS_POINTS
    assert (1, 1, 1, 1) in {tuple(ranks) for ranks, _ in passes}
    assert len(passes) < 48
    passes.clear()
    monkeypatch.setattr(cli, "_PASS_POINTS", 1)
    run(spec, out_path=str(tmp_path / "alone.csv"))
    assert len(passes) == 48
    assert (tmp_path / "grouped.csv").read_bytes() == (
        tmp_path / "alone.csv").read_bytes()
    passes.clear()
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_analytic_averages", recorded)
    run(parse_config(text + "sweep_p2_dbm = 0:40:9\n", "bler-sweep"),
        out_path=str(tmp_path / "over.csv"))
    assert [len(ranks) for ranks, _ in passes] == [1] * 48
    assert {points for _, points in passes} == {9 * 128}


def test_bler_sweep_runs_the_los_kernel_on_few_nodes(tmp_path, monkeypatch):
    # the benchmark's bler-sweep study at 400 m (96 rows, 128 nodes): the
    # NLoS kernel runs at every (power, node) point, the LoS kernel only
    # where its asymptote and its integrand at rho_h both leave it a bit of
    # the mix (512 of 12,288; 2,176 by the asymptote alone)
    points = {}
    kernel = blercore.avg_bler_hop2

    def counted(params, vartheta2, m2, lambdas):
        # a call on stacked spectra evaluates every (spectrum, vartheta)
        # pair
        shape = np.broadcast_shapes(np.shape(vartheta2),
                                    np.shape(lambdas)[:-1])
        points[m2] = points.get(m2, 0) + math.prod(shape)
        return kernel(params, vartheta2, m2, lambdas)

    monkeypatch.setattr(blercore, "avg_bler_hop2", counted)
    text = ("blocklength = 100\np1 = 40 dBm\nuav_altitude = 400\n"
            "sweep_n_ports = 1:12:12\nsweep_aperture = 0.5, 1, 2, 4\n"
            "sweep_p2_dbm = 20:40:2\n")
    run(parse_config(text, "bler-sweep"), out_path=str(tmp_path / "b.csv"))
    all_points = 96 * 128
    # m_los = 5, m_nlos = 1
    assert points[1] == all_points
    assert 0 < points[5] <= 0.05 * all_points


def test_falling_altitude_axis_fills_no_panel_twice(tmp_path, monkeypatch):
    # the power-vs-altitude preset on its altitude axis reversed: tables
    # grown downward run the kernel on as many points as grown upward, and
    # the rows are the same
    points = []
    kernel = blercore.avg_bler_hop2

    def counted(params, vartheta2, m2, lambdas):
        points.append(np.size(vartheta2))
        return kernel(params, vartheta2, m2, lambdas)

    monkeypatch.setattr(blercore, "avg_bler_hop2", counted)
    preset = Path(__file__).resolve().parent.parent / "configs" / \
        "power_vs_altitude.conf"
    text = "".join(line + "\n" for line in preset.read_text().splitlines()
                   if not line.startswith(("sweep_z", "output")))
    made, rows = {}, {}
    for axis in ("100:800:71", "800:100:71"):
        del points[:]
        out = tmp_path / "pva.csv"
        run(parse_config(text + f"sweep_z = {axis}\n", "power-vs-altitude"),
            out_path=str(out))
        made[axis] = sum(points)
        rows[axis] = sorted(tuple(r.items()) for r in read_rows(out))
    assert made["100:800:71"] == made["800:100:71"]
    assert rows["100:800:71"] == rows["800:100:71"]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_valid_config(rng, command):
    """A small config of the command, with scenario constants drawn from the
    ranges of the run-time fuzzing probe behind the ROADMAP item on
    contracts at every valid input, and p_max from 0 to 80 dBm. A sweep's
    second relay power is as often an extreme one, down to -3200 dBm, where
    the hop-2 vartheta overflows to inf. validate draws trials across up to
    three chunks of the Monte Carlo batch and a batch size that may leave a
    partial last batch, at most 64 batches."""
    lines = [f"p1 = {rng.uniform(-20, 80)!r} dBm",
             f"noise_power = {rng.uniform(-150, -60)!r} dBm",
             f"uav_altitude = {_log_uniform(rng, 1, 1e4)!r}",
             f"m_los = {rng.choice((1, 2, 5, 10, 40))}",
             f"m_nlos = {rng.choice((1, 2, 3))}",
             f"payload_bits = {_log_uniform(rng, 1, 3000)!r}",
             f"aperture = {_log_uniform(rng, 0.03, 30)!r}",
             f"bler_threshold = {_log_uniform(rng, 1e-9, 0.3)!r}",
             f"p_max = {rng.uniform(0, 80)!r} dBm",
             f"traj_nodes = {rng.randint(2, 128)}",
             f"blocklength = {rng.randint(10, 1000)}",
             f"n_ports = {rng.randint(1, 6)}"]
    if command in ("bler-sweep", "validate"):
        second = (rng.uniform(-3200, -20) if rng.random() < 0.5
                  else rng.uniform(-20, 60))
        lines.append(f"sweep_p2_dbm = {rng.uniform(-20, 60)!r}, {second!r}")
    if command == "validate":
        trials = rng.randint(1, 3 * _CHUNK)
        lines += [f"trials = {trials}",
                  f"mc_batch = {rng.randint(-(-trials // 64), trials + _CHUNK)}",
                  f"mc_mode = {rng.choice(MC_MODES)}",
                  f"seed = {rng.randrange(2 ** 64)}"]
    if command == "power-vs-altitude":
        lines.append("sweep_z = " + ", ".join(
            repr(_log_uniform(rng, 1, 1e4)) for _ in range(2)))
    if command == "optimize":
        z = _log_uniform(rng, 1, 1e4)
        lines += [f"z_min = {z!r}", f"z_max = {2 * z!r}", f"z_step = {z!r}",
                  f"l_set = {rng.randint(10, 1000)}", "n_min = 1",
                  f"n_max = {rng.randint(1, 3)}"]
    return "\n".join(lines) + "\n"


# the probability cells averaged over the trajectory rule
_RULE_AVERAGED = ("bler_analytic", "bler_hop1", "bler_hop2", "bler_e2e_asym",
                  "error_floor")


# a subnormal relay power (1e-313 W) on a clamped ramp: the hop-2 vartheta
# is inf, where the kernels' arithmetic would meet 0 * inf
_INFINITE_VARTHETA = ("payload_bits = 2\nblocklength = 100\n"
                      "sweep_p2_dbm = -3100, 10\ntraj_nodes = 16\n")

# relay power 3085 dBm: a subnormal hop-2 vartheta
_SUBNORMAL_VARTHETA = ("n_ports = 2\np1 = 40 dBm\nuav_altitude = 100\n"
                       "sweep_p2_dbm = 3085, 10\ntraj_nodes = 16\n")
# -3070 dBm on a clamped ramp: vartheta / lambda_n past the largest double
_HUGE_VARTHETA = ("payload_bits = 2\nblocklength = 100\nn_ports = 8\n"
                  "aperture = 4\nsweep_p2_dbm = -3070, 10\ntraj_nodes = 16\n")


def _configs(rng):
    yield "bler-sweep", _INFINITE_VARTHETA
    yield "bler-sweep", _SUBNORMAL_VARTHETA
    yield "bler-sweep", _HUGE_VARTHETA
    for _ in range(16):
        for command in ("bler-sweep", "power-vs-altitude", "optimize",
                        "validate"):
            yield command, _random_valid_config(rng, command)


def test_random_valid_configs_through_main(tmp_path, capsys):
    # every run writes finite cells and probabilities in [0, 1], with
    # nothing on stderr and no warning, or exits 1 with "error:". A
    # trajectory average reads up to the sum of the rule's weights,
    # (pi / 2M) / sin(pi / 2M) > 1, where all its nodes saturate (the known
    # defect of chebyshev_nodes; 1.11 at M = 2)
    conf, out = tmp_path / "c.conf", tmp_path / "c.csv"
    for command, text in _configs(random.Random(2026)):
        conf.write_text(text)
        out.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(conf), "--out", str(out)])
        err = capsys.readouterr().err
        if code != 0:
            assert code == 1 and err.startswith("error:"), (text, err)
            continue
        assert err == "", (text, err)
        assert not caught, (text, [str(w.message) for w in caught])
        nodes = int(parse_config(text, command).traj_nodes)
        weight_sum = float(chebyshev_nodes(nodes)[1].sum())
        for row in read_rows(out):
            for col, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (text, col, cell)
                if col == "bler_mc":
                    assert 0.0 <= value <= 1.0, (text, cell)
                if col in _RULE_AVERAGED:
                    assert 0.0 <= value <= weight_sum * (1.0 + 1e-14), (
                        text, col, cell)
