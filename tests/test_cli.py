import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fasrelay
from fasrelay import ConfigError
from fasrelay.cli import main, parse_config, render, run


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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
    out = tmp_path / "sweep.csv"
    spec = parse_config(
        f"sweep_p2_dbm = 0:20:5\nsweep_n_ports = 1, 2\ntraj_nodes = 32\n"
        f"output = {out}\n", "bler-sweep")
    assert run(spec) == 0
    rows = read_csv(out)
    assert len(rows) == 10  # cardinality preserved, nothing dropped
    assert {r["n_ports"] for r in rows} == {"1", "2"}
    for r in rows:
        assert float(r["bler_analytic"]) <= 1.0
        assert float(r["error_floor"]) <= float(r["bler_analytic"]) + 1e-12
        assert r["p1_dbm"] == "40.0"
    meta = (str(out) + ".meta")
    body = open(meta).read()
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
    rows = read_csv(out1)
    for r in rows:
        assert abs(float(r["bler_analytic"]) - float(r["bler_mc"])) \
            <= 1.0  # structural check; closeness is asserted elsewhere
        assert float(r["bler_mc_se"]) > 0.0
        assert r["mc_trials"] == "20000"


def test_validate_seed_override_changes_mc(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    text = "sweep_p2_dbm = 12\ntrials = 5000\nseed = 77\ntraj_nodes = 32\n"
    run(parse_config(text + f"output = {out1}\n", "validate"))
    run(parse_config(text + f"output = {out2}\n", "validate"), seed=78)
    a = read_csv(out1)[0]
    b = read_csv(out2)[0]
    assert a["bler_mc"] != b["bler_mc"]
    assert a["bler_analytic"] == b["bler_analytic"]


def test_aperture_sweep_requires_power(tmp_path):
    spec = parse_config("sweep_aperture = 0.5, 1\n", "aperture-sweep")
    with pytest.raises(ConfigError):
        run(spec, out_path=str(tmp_path / "x.csv"))


def test_aperture_sweep_rows(tmp_path):
    out = tmp_path / "w.csv"
    spec = parse_config(
        f"n_ports = 4\np2 = 15 dBm\nsweep_aperture = 0.5, 1, 2\n"
        f"traj_nodes = 32\noutput = {out}\n", "aperture-sweep")
    assert run(spec) == 0
    rows = read_csv(out)
    assert [r["aperture"] for r in rows] == ["0.5", "1.0", "2.0"]
    blers = [float(r["bler_analytic"]) for r in rows]
    assert blers[0] > blers[-1]


def test_power_vs_altitude_rows(tmp_path):
    out = tmp_path / "z.csv"
    spec = parse_config(
        f"p1 = 46 dBm\nblocklength = 200\nsweep_z = 300, 500\n"
        f"sweep_n_ports = 8\ntraj_nodes = 32\np_max = 40 dBm\n"
        f"output = {out}\n", "power-vs-altitude")
    assert run(spec) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert r["feasible"] == "true"
        assert float(r["p2_star_dbm"]) < 20.0


def test_ee_vs_ports_infeasible_rows_carry_zero(tmp_path):
    out = tmp_path / "n.csv"
    spec = parse_config(
        f"p1 = 46 dBm\nuav_altitude = 400\nsweep_blocklength = 200\n"
        f"sweep_n_ports = 8, 9, 10, 11\ntraj_nodes = 32\np_max = 40 dBm\n"
        f"output = {out}\n", "ee-vs-ports")
    assert run(spec) == 0
    rows = read_csv(out)
    by_n = {r["n_ports"]: r for r in rows}
    for n in ("10", "11"):
        assert by_n[n]["feasible"] == "false"
        assert float(by_n[n]["ee_bits_per_joule"]) == 0.0
    assert by_n["9"]["feasible"] == "true"


def test_optimize_writes_trace_and_summary(tmp_path):
    out = tmp_path / "opt.csv"
    spec = parse_config(
        f"p1 = 46 dBm\nz_min = 300\nz_max = 500\nz_step = 100\n"
        f"l_set = 300\nn_min = 1\nn_max = 3\ntraj_nodes = 32\n"
        f"p_max = 40 dBm\noutput = {out}\n", "optimize")
    assert run(spec) == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert sum(r["is_optimum"] == "true" for r in rows) == 1
    meta = open(str(out) + ".meta").read()
    assert "l_star = 300" in meta
    gap = [line for line in meta.splitlines()
           if line.startswith("table_check_max_rel = ")]
    assert len(gap) == 1
    assert 0.0 <= float(gap[0].split(" = ")[1]) <= 1e-8


def test_ee_contour_preset_reduced_grid(tmp_path):
    # exercise the checked-in contour preset end to end on a reduced grid
    # (later keys override earlier ones)
    from pathlib import Path
    preset = Path(__file__).resolve().parent.parent / "configs" / "ee_contour.conf"
    text = preset.read_text() + (
        "\nsweep_z = 300, 400\nsweep_blocklength = 300\nn_max = 3\n"
        "traj_nodes = 32\n")
    out = tmp_path / "contour.csv"
    spec = parse_config(text, "ee-contour")
    assert run(spec, out_path=str(out)) == 0
    rows = read_csv(out)
    assert len(rows) == 2
    for r in rows:
        assert r["feasible"] == "true"
        assert int(r["n_star"]) <= 3
        assert float(r["ee_bits_per_joule"]) > 0.0


def test_run_unwritable_output_is_an_error(tmp_path):
    spec = parse_config("sweep_p2_dbm = 10\ntraj_nodes = 32\n", "bler-sweep")
    with pytest.raises(OSError):
        run(spec, out_path=str(tmp_path / "missing_dir" / "x.csv"))


def test_main_entry_point(tmp_path):
    conf = tmp_path / "c.conf"
    out = tmp_path / "o.csv"
    conf.write_text("sweep_p2_dbm = 10\ntraj_nodes = 32\n")
    assert main(["bler-sweep", "--config", str(conf), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["bler-sweep", "--config", str(tmp_path / "nope.conf")]) == 1


def test_main_threads_flag_preserves_output(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("sweep_p2_dbm = 0:20:6\ntraj_nodes = 32\n")
    out1 = tmp_path / "s.csv"
    out2 = tmp_path / "t.csv"
    assert main(["bler-sweep", "--config", str(conf), "--out", str(out1)]) == 0
    assert main(["bler-sweep", "--config", str(conf), "--out", str(out2),
                 "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_import_leaves_out_mpmath():
    # mpmath is a test-only dependency: the package must run without it;
    # scipy.interpolate costs 0.36 s and 24 MB to import and is not used
    src = str(Path(fasrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fasrelay.cli; "
         "print('mpmath' in sys.modules, 'scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False False"
