import importlib.util
import json
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rss=None, study_s=1.0, **sha):
    """A bench result holding one preset per keyword, with its CSV sha256,
    and with the median study time study_s and the median peak RSS rss when
    given (None: a file written before either was recorded)."""
    result = {"presets": {name: {"sha256": {"csv": csv, "meta": "m"}}
                          for name, csv in sha.items()}}
    for entry in result["presets"].values():
        if study_s is not None:
            entry["study_s_median"] = study_s
        if rss is not None:
            entry["peak_rss_mb_median"] = rss
    return result


def _line(out: str, name: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(name))


def test_compare_identical_presets(bench, capsys):
    assert bench.compare(_result(a="1", b="2"), _result(a="1", b="2"))
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a") and "identical" in _line(out, "b")
    assert "note:" not in out


def test_compare_notes_differing_library_versions(bench, capsys):
    ours, other = _result(a="1"), _result(a="2")
    ours.update(python="3.11.7", numpy="2.4.6", scipy="1.17.1")
    other.update(python="3.12.1", numpy="2.4.6", scipy="1.16.0")
    # the note does not change the verdict: a differing preset still fails
    assert not bench.compare(ours, other)
    out = capsys.readouterr().out
    [note] = [line for line in out.splitlines() if line.startswith("note:")]
    assert "python 3.12.1 -> 3.11.7" in note
    assert "scipy 1.16.0 -> 1.17.1" in note
    assert "numpy" not in note
    other["presets"] = ours["presets"]
    assert bench.compare(ours, other)
    assert "note:" in capsys.readouterr().out


def test_compare_a_differing_preset(bench, capsys):
    assert not bench.compare(_result(a="1", b="2"), _result(a="1", b="3"))
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a")
    assert "differs: csv " in _line(out, "b")


def test_compare_a_differing_meta(bench, capsys):
    other = _result(a="1")
    other["presets"]["a"]["sha256"]["meta"] = "n"
    assert not bench.compare(_result(a="1"), other)
    assert "differs: meta " in _line(capsys.readouterr().out, "a")


def test_compare_a_differing_csv_and_meta(bench, capsys):
    other = _result(a="2")
    other["presets"]["a"]["sha256"]["meta"] = "n"
    assert not bench.compare(_result(a="1"), other)
    assert "differs: csv, meta " in _line(capsys.readouterr().out, "a")


@pytest.mark.parametrize("ours, other", [
    (_result(a="1", b="2"), _result(a="1")),
    (_result(a="1"), _result(a="1", b="2")),
])
def test_compare_a_missing_preset(bench, capsys, ours, other):
    assert not bench.compare(ours, other)
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a")
    assert "missing" in _line(out, "b")


def test_compare_prints_both_peak_rss_medians(bench, capsys):
    assert bench.compare(_result(rss=66.7, a="1"), _result(rss=84.9, a="1"))
    assert "84.9 MB -> 66.7 MB" in _line(capsys.readouterr().out, "a")


def test_compare_a_file_without_peak_rss(bench, capsys):
    assert bench.compare(_result(rss=66.7, a="1"), _result(a="1"))
    assert "n/a -> 66.7 MB" in _line(capsys.readouterr().out, "a")


def test_compare_a_file_without_study_time(bench, capsys):
    # a file written before study times were recorded (wall times only)
    assert bench.compare(_result(study_s=0.25, a="1"),
                         _result(study_s=None, a="1"))
    assert "n/a -> 0.250 s" in _line(capsys.readouterr().out, "a")


def test_compare_prints_the_quartiles_and_raw_times(bench, capsys):
    # each side's median study time, its quartiles and its median raw
    # cli.run time; "n/a" for what an older file did not record
    ours, other = _result(study_s=1.2, a="1"), _result(study_s=1.0, a="1")
    ours["presets"]["a"].update(study_s_quartiles=[1.1, 1.3],
                                raw_study_s_median=1.25)
    assert bench.compare(ours, other)
    assert ("1.000 s [n/a] raw n/a -> 1.200 s [1.100, 1.300] raw 1.250 s"
            in _line(capsys.readouterr().out, "a"))


def test_bench_records_each_peak_rss_and_the_median(bench, monkeypatch):
    runs = iter([(1.0, 0.1, 80.0), (3.0, 0.2, 60.0), (2.0, 0.1, 70.0),
                 (4.0, 0.3, 90.0), (5.0, 0.2, 50.0)])

    values = {"csv": {"n_star": ["2"]}, "meta": {"rows": "1"}}

    def fake_run(name, command, workdir, env):
        study_s, cal_s, rss = next(runs)
        return study_s, cal_s, rss, {"sha256": {"csv": name, "meta": "m"},
                                     "values": values}

    layers = {"min_power_s": 0.002, "port_search_s": 0.03,
              "e2e_avg_s": 0.0002}
    monkeypatch.setattr(bench, "PRESETS", {"a": "bler-sweep"})
    monkeypatch.setattr(bench, "run_preset", fake_run)
    monkeypatch.setattr(bench, "run_layers", lambda env: layers)
    result = bench.bench(repeats=4)
    assert result["layers"] == layers
    entry = result["presets"]["a"]
    assert entry["study_s"] == [1.0, 3.0, 2.0, 4.0]
    assert entry["cal_s"] == [0.1, 0.2, 0.1, 0.3]
    assert entry["peak_rss_mb"] == [80.0, 60.0, 70.0, 90.0]
    assert entry["peak_rss_mb_median"] == 75.0
    assert entry["study_s_median"] == 2.5
    assert entry["study_s_quartiles"] == pytest.approx([1.75, 3.25])
    # the raw times study_s * cal_s / CAL_REF_S are 0.1, 0.6, 0.2 and 1.2
    # over CAL_REF_S: their median is not the product of the medians
    assert entry["raw_study_s_median"] == pytest.approx(
        0.4 / bench.RUNNER.CAL_REF_S)
    assert entry["values"] == values
    # with one repeat both quartiles are the one time
    entry = bench.bench(repeats=1)["presets"]["a"]
    assert entry["study_s_quartiles"] == [5.0, 5.0]
    assert entry["raw_study_s_median"] == pytest.approx(
        1.0 / bench.RUNNER.CAL_REF_S)


def test_compare_prints_the_layer_timings(bench, capsys):
    # one line after the presets: both files' solve, search and e2e_avg
    # times, "n/a" for a file written before they were recorded
    ours, other = _result(a="1"), _result(a="1")
    ours["layers"] = {"min_power_s": 0.0021, "port_search_s": 0.0315,
                      "e2e_avg_s": 0.000186}
    assert bench.compare(ours, other)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "layers: min_power n/a -> 2.10 ms, port search n/a -> 31.50 ms, "
        "e2e_avg n/a -> 186.00 us")
    # a file written before the e2e_avg timing was recorded
    other["layers"] = {"min_power_s": 0.0025, "port_search_s": 0.0355}
    assert bench.compare(ours, other)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "layers: min_power 2.50 ms -> 2.10 ms, port search 35.50 ms -> "
        "31.50 ms, e2e_avg n/a -> 186.00 us")
    other["layers"]["e2e_avg_s"] = 0.0002
    assert bench.compare(ours, other)
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        ", e2e_avg 200.00 us -> 186.00 us")


_LAYER_KEYS = {"min_power_s", "port_search_s", "e2e_avg_s"}


def test_layer_times_time_a_solve_and_a_search(bench):
    times = bench.layer_times(runs=1)
    assert set(times) == _LAYER_KEYS
    # a search solves 12 port counts, the solve one of them, and a solve
    # fills its tables and ends on one direct e2e_avg
    assert 0.0 < times["e2e_avg_s"] < times["min_power_s"] \
        < times["port_search_s"]


def test_run_layers_runs_in_a_process_of_its_own(bench):
    times = bench.run_layers(bench.study_env())
    assert set(times) == _LAYER_KEYS
    assert all(t > 0.0 for t in times.values())


def test_run_preset_runs_the_study_script(bench, tmp_path):
    # the smallest preset through the benchmark's study script, pinned to
    # one thread: the study time scaled by CAL_REF_S / cal_s, the peak RSS
    # of the study process and the CSV that cli.run writes
    study_s, cal_s, rss, outputs = bench.run_preset(
        "bler_vs_aperture", "aperture-sweep", tmp_path, bench.study_env())
    res = json.loads((tmp_path / "bler_vs_aperture.json").read_text())
    assert study_s == res["study_s"] * bench.RUNNER.CAL_REF_S / cal_s
    assert (cal_s, rss) == (res["cal_s"], res["peak_rss_mb"])
    # the child's peak is at least the interpreter with numpy and scipy
    assert rss > 20.0
    assert outputs == bench.read_outputs(tmp_path / "bler_vs_aperture.csv")


def test_run_preset_reports_a_failed_study(bench, tmp_path):
    with pytest.raises(SystemExit, match="(?s)a: exit 1.*FileNotFoundError"):
        # no configs/a.conf: the study script fails on opening it
        bench.run_preset("a", "bler-sweep", tmp_path, bench.study_env())


def test_read_outputs_keeps_the_cells_as_written(bench, tmp_path):
    out = tmp_path / "a.csv"
    out.write_text("feasible,p2_star_dbm\ntrue,7.25\nfalse,\n")
    out.with_name("a.csv.meta").write_text("rows = 2\nz_star = 100.0\n")
    got = bench.read_outputs(out)
    assert got["values"] == {
        "csv": {"feasible": ["true", "false"], "p2_star_dbm": ["7.25", ""]},
        "meta": {"rows": "2", "z_star": "100.0"}}
    assert got["sha256"]["csv"] == bench._sha256(out)


def _valued(values):
    """A bench result of one preset "a" holding values, its sha256 a digest
    of them."""
    result = _result(a=repr(values))
    result["presets"]["a"]["values"] = values
    return result


def test_compare_prints_the_moves_of_a_doctored_file(bench, capsys):
    before = {"csv": {"bler_analytic": ["0.25", "0.5"],
                      "bler_mc": ["0.25", "0.5"],
                      "p2_star_dbm": ["10.0", "12.0"],
                      "feasible": ["true", "true"], "n_star": ["2", "3"],
                      "p1_dbm": ["46.0", "46.0"]},
              "meta": {"feasible": "True", "n_star": "3",
                       "p2_star_w": "0.01", "rows": "2"}}
    doctored = {"csv": {**before["csv"],
                        "bler_analytic": ["0.25", "0.5000005"],
                        "p2_star_dbm": ["10.001", "12.0"],
                        "feasible": ["true", "false"], "n_star": ["2", "2"],
                        "p1_dbm": ["46.0", "40.0"]},
                "meta": {**before["meta"], "n_star": "2",
                         "p2_star_w": "0.010002"}}
    # 10 -> 10.001 dBm is 2.3e-4 in watts, above p2_star_w's 2e-4
    assert not bench.compare(_valued(doctored), _valued(before))
    out = capsys.readouterr().out.splitlines()
    assert "differs: csv" in out[0]
    assert [line.split() for line in out[1:]] == [
        ["analytic", "1e-06", "(bler_analytic)"],
        ["solved", "0.00023", "(p2_star_dbm)"],
        ["monte", "carlo", "identical"],
        ["feasible", "row", "2:", "true", "->", "false"],
        ["n_star", "row", "2:", "3", "->", "2"],
        ["optimum", "n_star:", "3", "->", "2"],
        ["other", "changes:", "p1_dbm"]]
    # an identical preset, or one whose values a file lacks, prints no moves
    assert bench.compare(_valued(before), _valued(before))
    assert len(capsys.readouterr().out.splitlines()) == 1
    lacking = _valued(before)
    del lacking["presets"]["a"]["values"]
    assert not bench.compare(_valued(doctored), lacking)
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_compare_a_config_schema_change(bench, capsys):
    # a .meta that differs only in config_sha256 (a config key added or
    # removed) leaves the verdict identical and names the digests on a line
    # of their own; any other .meta entry still differs
    values = {"csv": {"bler_analytic": ["0.25"]},
              "meta": {"config_sha256": "aa", "rows": "1"}}
    other = _valued(values)
    ours = _valued({**values, "meta": {**values["meta"],
                                       "config_sha256": "bb"}})
    ours["presets"]["a"]["sha256"] = {"csv": other["presets"]["a"]["sha256"][
        "csv"], "meta": "n"}
    assert bench.compare(ours, other)
    out = capsys.readouterr().out.splitlines()
    assert "identical" in out[0]
    assert out[1:] == ["    config_sha256: aa -> bb (config schema)"]
    ours["presets"]["a"]["values"]["meta"]["rows"] = "2"
    assert not bench.compare(ours, other)
    out = capsys.readouterr().out.splitlines()
    assert "differs: meta " in out[0]
    assert "config_sha256" in out[-1] and "rows" in out[-1]
    # without recorded values the change cannot be told apart
    del ours["presets"]["a"]["values"]
    assert not bench.compare(ours, other)
    assert "differs: meta " in capsys.readouterr().out


def test_compare_prints_monte_carlo_moves_in_standard_errors(bench, capsys):
    # a moved bler_mc cell adds the largest |a - b| / bler_mc_se of the
    # other file and its row to the monte carlo line; an empty cell counts
    # as inf, and a file without standard errors adds nothing
    before = {"csv": {"bler_mc": ["0.01", "0.002", "0.5"],
                      "bler_mc_se": ["0.001", "0.0001", "0.01"]},
              "meta": {}}
    moved = {"csv": {"bler_mc": ["0.0105", "0.0023", "0.5"],
                     "bler_mc_se": ["0.001", "0.0001", "0.01"]},
             "meta": {}}
    assert not bench.compare(_valued(moved), _valued(before))
    out = capsys.readouterr().out.splitlines()
    # row 2 moved by 3 SE (0.13 relative), row 1 by 0.5 SE (0.048)
    assert out[1].split() == ["monte", "carlo", "0.13", "(bler_mc),", "3",
                              "SE", "(row", "2)"]
    empty = {"csv": {**moved["csv"], "bler_mc": ["0.0105", "", "0.5"]},
             "meta": {}}
    assert not bench.compare(_valued(empty), _valued(before))
    assert capsys.readouterr().out.splitlines()[1].split()[-4:] == [
        "inf", "SE", "(row", "2)"]
    without = [{"csv": {"bler_mc": v["csv"]["bler_mc"]}, "meta": {}}
               for v in (moved, before)]
    assert not bench.compare(*map(_valued, without))
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "monte", "carlo", "0.13", "(bler_mc)"]
    # an identical bler_mc column prints no standard errors
    same = {"csv": {**before["csv"], "bler_mc_se": ["0.001", "0.0001",
                                                    "0.02"]}, "meta": {}}
    assert not bench.compare(_valued(same), _valued(before))
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "monte", "carlo", "0.5", "(bler_mc_se)"]
