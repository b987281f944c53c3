import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**sha):
    """A bench result holding one preset per keyword, with its CSV sha256."""
    return {"presets": {name: {"sha256": {"csv": csv, "meta": "m"},
                               "wall_s_median": 1.0}
                        for name, csv in sha.items()}}


def _line(out: str, name: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(name))


def test_compare_identical_presets(bench, capsys):
    assert bench.compare(_result(a="1", b="2"), _result(a="1", b="2"))
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a") and "identical" in _line(out, "b")


def test_compare_a_differing_preset(bench, capsys):
    assert not bench.compare(_result(a="1", b="2"), _result(a="1", b="3"))
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a")
    assert "differs" in _line(out, "b")


def test_compare_a_differing_meta(bench, capsys):
    other = _result(a="1")
    other["presets"]["a"]["sha256"]["meta"] = "n"
    assert not bench.compare(_result(a="1"), other)
    assert "differs" in _line(capsys.readouterr().out, "a")


@pytest.mark.parametrize("ours, other", [
    (_result(a="1", b="2"), _result(a="1")),
    (_result(a="1"), _result(a="1", b="2")),
])
def test_compare_a_missing_preset(bench, capsys, ours, other):
    assert not bench.compare(ours, other)
    out = capsys.readouterr().out
    assert "identical" in _line(out, "a")
    assert "missing" in _line(out, "b")
