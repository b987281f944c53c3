import importlib.util
import os
import resource
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(rss=None, **sha):
    """A bench result holding one preset per keyword, with its CSV sha256,
    and with the median peak RSS rss when given (None: a file written before
    peak RSS was recorded)."""
    result = {"presets": {name: {"sha256": {"csv": csv, "meta": "m"},
                                 "wall_s_median": 1.0}
                          for name, csv in sha.items()}}
    if rss is not None:
        for entry in result["presets"].values():
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


def test_bench_records_each_peak_rss_and_the_median(bench, monkeypatch):
    runs = iter([(1.0, 80.0), (3.0, 60.0), (2.0, 70.0), (4.0, 90.0)])

    def fake_run(name, command, workdir, env):
        wall, rss = next(runs)
        return wall, rss, {"csv": name, "meta": "m"}

    monkeypatch.setattr(bench, "PRESETS", {"a": "bler-sweep"})
    monkeypatch.setattr(bench, "run_preset", fake_run)
    entry = bench.bench(repeats=4)["presets"]["a"]
    assert entry["peak_rss_mb"] == [80.0, 60.0, 70.0, 90.0]
    assert entry["peak_rss_mb_median"] == 75.0
    assert entry["wall_s_median"] == 2.5


def test_run_process_reports_the_child_peak_rss(bench):
    # a child that touches 64 MB more than the calling process holds peaks
    # above the caller's RSS by about that much
    caller = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    code, stderr, wall, rss = bench.run_process(
        [sys.executable, "-c",
         f"bytearray({int(caller) + 64} * 2 ** 20)"], dict(os.environ))
    assert (code, stderr) == (0, "")
    assert wall > 0
    assert caller + 64 <= rss < caller + 128


def test_run_process_reports_the_exit_code(bench):
    code, stderr, _, _ = bench.run_process(
        [sys.executable, "-c", "import sys; sys.exit('boom')"],
        dict(os.environ))
    assert code == 1
    assert "boom" in stderr
