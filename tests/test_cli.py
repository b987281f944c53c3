import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fasrelay
from fasrelay import ConfigError, EeConfig, McConfig, ScenarioConfig
from fasrelay.blercore import CHI_VARIANTS
from fasrelay.cli import (_KEYS, _SWEEP_KEYS, COMMANDS, ExperimentSpec, main,
                          parse_config, render, run)
from fasrelay.mcoracle import MC_MODES


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


def test_ee_contour_rows_match_optimize_trace(tmp_path):
    # both commands print one port search per (L, Z) through the same columns
    grid = (f"p1 = 46 dBm\nn_min = 1\nn_max = 2\ntraj_nodes = 32\n"
            f"p_max = 40 dBm\n")
    opt, contour = tmp_path / "opt.csv", tmp_path / "contour.csv"
    run(parse_config(grid + "l_set = 300, 400\nz_min = 300\nz_max = 400\n"
                     "z_step = 100\n", "optimize"), out_path=str(opt))
    run(parse_config(grid + "sweep_blocklength = 300, 400\n"
                     "sweep_z = 300, 400\n", "ee-contour"),
        out_path=str(contour))
    with open(opt, newline="", encoding="utf-8") as fh:
        opt_rows = list(csv.reader(fh))
    with open(contour, newline="", encoding="utf-8") as fh:
        contour_rows = list(csv.reader(fh))
    assert opt_rows[0] == contour_rows[0] + ["is_optimum"]
    assert len(opt_rows) == len(contour_rows) == 5
    command = contour_rows[0].index("command")
    for a, b in zip(opt_rows[1:], contour_rows[1:]):
        assert (a[:command] + a[command + 1:-1]
                == b[:command] + b[command + 1:])
    assert [r[command] for r in contour_rows[1:]] == ["ee-contour"] * 4


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
]


@pytest.mark.parametrize("bad", _BAD_LINES)
def test_malformed_value_reports_its_line(bad):
    # the shorter key of the same name comes first, so the line must be
    # the sweep key's own
    text = "n_ports = 2\naperture = 0.5\nblocklength = 100\n" + bad + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, "validate")
    assert err.value.line == 4


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


@st.composite
def _specs(draw):
    eta = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2)))
    scenario = ScenarioConfig(
        bs_position=draw(st.tuples(_FINITE, _FINITE, _FINITE)),
        ue_position=draw(st.tuples(_FINITE, _FINITE, _FINITE)),
        flight_radius=draw(_POSITIVE), uav_altitude=draw(_FINITE),
        los_a=draw(_POSITIVE), los_b=draw(_POSITIVE),
        eta_los=eta[0], eta_nlos=eta[1], carrier_freq=draw(_POSITIVE),
        noise_power=draw(_POSITIVE), p1=draw(_POSITIVE),
        m_los=draw(_COUNT), m_nlos=draw(_COUNT))
    z = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    n = sorted(draw(st.lists(_COUNT, min_size=2, max_size=2)))
    ee = EeConfig(
        payload_bits=draw(_POSITIVE), bandwidth=draw(_POSITIVE),
        circuit_power=draw(st.just(0.0) | _POSITIVE),
        switch_power=draw(st.just(0.0) | _POSITIVE),
        port_time=draw(_POSITIVE), bler_threshold=draw(_UNIT),
        p_max=draw(_POSITIVE), z_range=tuple(z),
        l_set=tuple(draw(st.lists(_COUNT, min_size=1, max_size=4))),
        n_range=tuple(n), z_step=draw(_POSITIVE), bisect_tol=draw(_UNIT),
        max_bisect_iters=draw(_COUNT))
    command = draw(st.sampled_from(COMMANDS))
    mc = None
    if command == "validate" or draw(st.booleans()):
        mc = McConfig(seed=draw(st.integers(0, 2 ** 64 - 1)),
                      trials=draw(_COUNT), mode=draw(st.sampled_from(MC_MODES)),
                      batch=draw(_COUNT))
    axes = {"sweep_p2_dbm": _FINITE, "sweep_z": _FINITE,
            "sweep_aperture": _POSITIVE, "sweep_n_ports": _COUNT,
            "sweep_blocklength": _COUNT}
    names = draw(st.lists(st.sampled_from(_SWEEP_KEYS), unique=True))
    sweeps = {name: draw(st.lists(axes[name], min_size=1, max_size=4))
              for name in names}
    return ExperimentSpec(
        command=command, scenario=scenario, ee=ee, mc=mc,
        blocklength=draw(_COUNT), chi_variant=draw(st.sampled_from(CHI_VARIANTS)),
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
    src = str(Path(fasrelay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "fasrelay.cli", "bler-sweep", "--config",
         str(conf), "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.startswith("error: line 2: sweep_n_ports")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "x.csv").exists()
