"""Time every preset in configs/ and fingerprint what it writes.

    python tools/bench.py LABEL [--repeats K] [--against BENCH_OTHER.json]

Each preset runs with its command through the benchmark's study script
(``python perfbench/study.py COMMAND PRESET OUT RESULT``) in a fresh
interpreter with the benchmark's thread pools pinned to one thread, on the
``src/`` tree next to this script. The K repeats are interleaved: every
preset once, then every preset again. The script writes BENCH_<LABEL>.json
in the current directory, holding per preset: the command; the study time
of each run, the wall time of ``cli.run`` scaled by ``CAL_REF_S / cal_s``
as ``perfbench/run.py`` scales it, so that interpreter start and a host
whose speed drifts do not move it; the study's calibration time ``cal_s``
and its peak resident memory, from the study's result file; the medians
of both; the quartiles of the study time by ``perfbench/run.py``'s rule
(with one repeat both equal it); the median raw ``cli.run`` time,
``study_s * cal_s / CAL_REF_S``, which a noisy calibration does not
widen; the sha256 of the CSV and of its ``.meta`` sidecar; and their
values: the CSV's cells by column and the ``.meta`` entries, as written. A
preset whose output differs between repeats is an error.

After the presets it times three layers in one more fresh process, at the
optimize-grid anchor of the benchmark (``perfbench/workloads.py``: L = 300,
z = 500 m, N = 1..12): one minimum-power solve at N = 12 and one port
search over N = 1..12, each on fresh hop-2 tables, and one direct
end-to-end BLER average (``e2e_avg``) at N = 12 and the power that solve
returns, as the median of 21 runs in that process after one warm-up run of
each. They are raw ``time.perf_counter`` seconds, not scaled by a
calibration, and go to ``layers`` in the file.

With --against, it then prints per preset whether the CSV and ``.meta``
are identical to those of the other file, or which of them differ
(``differs: csv``, ``differs: meta`` or ``differs: csv, meta``), with both
median study times, each followed by its quartiles in brackets and its
median raw time, and both median peak RSS, then, where either file holds
them, one line with both files' layer timings ("n/a" for what a file
written before it was recorded lacks),
and exits 1 if any preset differs or is missing from either file. When the
two files record different python, numpy or scipy versions it first prints
one ``note:`` line naming them, since bits may legitimately differ across
library versions; the exit code still depends only on the comparison.

A preset whose CSV is identical and whose ``.meta`` differs only in
``config_sha256`` (the digest of the fully rendered config, which changes
with the set of config keys) reads ``identical``, with that change on an
indented line of its own: a config-schema change is not an output change.

Under a preset that differs and whose values both files hold, indented
lines say what moved. For each column class present it prints the largest
relative move |a - b| / max(|a|, |b|) and its column, or ``identical``; a
``*_dbm`` column moves as the power in watts it stands for:

* ``analytic``: ``error_floor`` and the ``bler_*`` columns but the Monte
  Carlo ones and the ``bler_threshold`` echo;
* ``solved``: ``p2_star_*``, ``ee_bits_per_joule``, ``eps_o`` and the
  ``.meta`` ``p2_star_w``, ``ee_star`` and ``eps_star``;
* ``monte carlo``: ``bler_mc*``. Where a ``bler_mc`` cell moved and both
  files hold ``bler_mc_se``, the line adds the largest move of ``bler_mc``
  in standard errors, |a - b| / ``bler_mc_se`` of the other file, and its
  row: a new Monte Carlo stream moves it by a few, a model change by more.

Then it prints one line per changed ``feasible``, ``is_optimum`` or
``n_star`` cell, one per changed ``.meta`` optimum entry (``feasible``,
``l_star``, ``z_star``, ``n_star``), and one naming every other column or
entry that differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
STUDY = ROOT / "perfbench" / "study.py"


def _load_runner():
    """The benchmark's runner module, read for its CAL_REF_S, THREAD_VARS
    and quartile rule."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _load_runner()

# preset -> the command it is written for
PRESETS = {
    "bler_fas_vs_fpa": "bler-sweep",
    "bler_vs_aperture": "aperture-sweep",
    "ee_contour": "ee-contour",
    "ee_vs_ports": "ee-vs-ports",
    "optimize_global": "optimize",
    "power_vs_altitude": "power-vs-altitude",
    "validate_bler_vs_power": "validate",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(out: Path) -> dict:
    """The sha256 and the values of a CSV and its .meta: the CSV's cells by
    column and the .meta entries, as written."""
    meta = out.with_name(out.name + ".meta")
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    entries = (line.split(" = ", 1) for line in
               meta.read_text(encoding="utf-8").splitlines())
    return {"sha256": {"csv": _sha256(out), "meta": _sha256(meta)},
            "values": {"csv": {col: [row[i] for row in rows]
                               for i, col in enumerate(header)},
                       "meta": dict(entries)}}


def run_preset(name: str, command: str, workdir: Path, env: dict):
    """One fresh-process run of a preset through the study script: its
    study time scaled to the calibration reference, its calibration time,
    its peak RSS in MB and its outputs (`read_outputs`)."""
    out = workdir / f"{name}.csv"
    result = workdir / f"{name}.json"
    argv = [sys.executable, str(STUDY), command,
            str(ROOT / "configs" / f"{name}.conf"), str(out), str(result)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    res = json.loads(result.read_text(encoding="utf-8")) \
        if proc.returncode == 0 else {}
    if res.get("code") != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    study_s = res["study_s"] * RUNNER.CAL_REF_S / res["cal_s"]
    return study_s, res["cal_s"], res["peak_rss_mb"], read_outputs(out)


# runs of each layer timing after its warm-up; the median is recorded
LAYER_RUNS = 21


def layer_times(runs: int = LAYER_RUNS) -> dict:
    """The median seconds, over runs after one warm-up, of one
    minimum-power solve at the largest port count (``min_power_s``), of
    one port search (``port_search_s``) and of one direct ``e2e_avg`` at
    the largest port count and the power its solve returns
    (``e2e_avg_s``) at the optimize-grid anchor. The solve and the search
    run on fresh hop-2 tables: the solve on a new evaluator, built outside
    the timed call, and the search building its own. The ``e2e_avg`` calls
    share one evaluator, built before any of them."""
    from dataclasses import replace
    from fasrelay import (TrajectoryEvaluator, best_port_count, fas_spectrum,
                          linearize, min_power)
    from fasrelay.cli import parse_config

    z = 500.0
    study = RUNNER.workloads.optimize_grid(int(z))
    spec = parse_config(study.config, study.command)
    ee, [blocklength] = spec.ee, spec.ee.l_set
    fbl = linearize(ee.payload_bits / blocklength, blocklength,
                    spec.chi_variant)
    scenario = replace(spec.scenario, uav_altitude=z)
    lambdas = fas_spectrum(ee.n_range[1], spec.aperture,
                           spec.rank_tolerance).lambdas

    def solve():
        ev = TrajectoryEvaluator(scenario, fbl, spec.traj_nodes)
        start = time.perf_counter()
        min_power(ev, lambdas, ee)
        return time.perf_counter() - start

    def search():
        start = time.perf_counter()
        best_port_count(spec.scenario, fbl, ee, z, spec.aperture,
                        spec.rank_tolerance, spec.traj_nodes)
        return time.perf_counter() - start

    ev = TrajectoryEvaluator(scenario, fbl, spec.traj_nodes)
    power = min_power(ev, lambdas, ee)[0]

    def e2e_avg():
        start = time.perf_counter()
        ev.e2e_avg(power, lambdas)
        return time.perf_counter() - start

    times = {}
    for name, timed in (("min_power_s", solve), ("port_search_s", search),
                        ("e2e_avg_s", e2e_avg)):
        timed()
        times[name] = statistics.median(timed() for _ in range(runs))
    return times


def run_layers(env: dict) -> dict:
    """`layer_times` in a fresh process with the environment env."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import bench; print(json.dumps(bench.layer_times()))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools")],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"layer timings: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def study_env() -> dict:
    """The environment of a study process: the ``src/`` tree next to this
    script, and one thread in each of the benchmark's thread pools."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in RUNNER.THREAD_VARS})
    return env


def bench(repeats: int) -> dict:
    env = study_env()
    presets = {name: {"command": command, "study_s": [], "cal_s": [],
                      "peak_rss_mb": []}
               for name, command in PRESETS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            for name, entry in presets.items():
                study_s, cal_s, rss, outputs = run_preset(
                    name, entry["command"], Path(tmp), env)
                entry["study_s"].append(study_s)
                entry["cal_s"].append(cal_s)
                entry["peak_rss_mb"].append(rss)
                if entry.setdefault("sha256", outputs["sha256"]) != \
                        outputs["sha256"]:
                    raise SystemExit(f"{name}: output differs between repeats")
                entry["values"] = outputs["values"]
    for entry in presets.values():
        times = entry["study_s"]
        entry["study_s_median"] = statistics.median(times)
        entry["study_s_quartiles"] = list(RUNNER._quartiles(times))
        entry["raw_study_s_median"] = statistics.median(
            s * cal / RUNNER.CAL_REF_S for s, cal in zip(times, entry["cal_s"]))
        entry["peak_rss_mb_median"] = statistics.median(entry["peak_rss_mb"])
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "repeats": repeats,
            "cal_ref_s": RUNNER.CAL_REF_S, "presets": presets,
            "layers": run_layers(env)}


def _study(entry: dict) -> str:
    """The median study time, its quartiles and the median raw time."""
    study_s = entry.get("study_s_median")
    if study_s is None:
        return "n/a"
    quartiles = entry.get("study_s_quartiles")
    spread = "n/a" if quartiles is None else \
        f"{quartiles[0]:.3f}, {quartiles[1]:.3f}"
    raw = entry.get("raw_study_s_median")
    raw = "n/a" if raw is None else f"{raw:.3f} s"
    return f"{study_s:.3f} s [{spread}] raw {raw}"


def _rss(entry: dict) -> str:
    rss = entry.get("peak_rss_mb_median")
    return "n/a" if rss is None else f"{rss:.1f} MB"


# layer timings --against prints: (label, key in ``layers``, unit, scale)
_LAYERS = (("min_power", "min_power_s", "ms", 1e3),
           ("port search", "port_search_s", "ms", 1e3),
           ("e2e_avg", "e2e_avg_s", "us", 1e6))


def _layers(ours: dict, other: dict) -> str:
    """The line of both files' layer timings, other first."""
    def show(result: dict, name: str, unit: str, scale: float) -> str:
        seconds = result.get("layers", {}).get(name)
        return "n/a" if seconds is None else f"{seconds * scale:.2f} {unit}"
    return "layers: " + ", ".join(
        f"{label} {show(other, *key)} -> {show(ours, *key)}"
        for label, *key in _LAYERS)


_CLASSES = ("analytic", "solved", "monte carlo")
# the cells and .meta entries --against prints every change of
_FLAGS = ("feasible", "is_optimum", "n_star")
_OPTIMUM = ("feasible", "l_star", "z_star", "n_star")


def _column_class(col: str):
    """The class of a CSV column or a .meta entry ("meta <key>") whose
    largest move --against prints, or None."""
    if col.startswith("bler_mc"):
        return "monte carlo"
    if col == "error_floor" or (col.startswith("bler_")
                                and col != "bler_threshold"):
        return "analytic"
    name = col.removeprefix("meta ")
    if name.startswith("p2_star_") or name in (
            "ee_bits_per_joule", "eps_o", "ee_star", "eps_star"):
        return "solved"
    return None


def _rel_move(a: str, b: str, dbm: bool = False) -> float:
    """|a - b| / max(|a|, |b|) of two cells as written, dBm cells (dbm) as
    the powers they stand for: 0 when the cells are equal, inf when either
    is not a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
        if dbm:
            x, y = 10.0 ** (x / 10.0), 10.0 ** (y / 10.0)
    except (ValueError, OverflowError):
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _se_move(cols: dict, before: dict) -> str:
    """The largest |a - b| / bler_mc_se of the other file over the
    ``bler_mc`` cells, and its row, as a suffix of the ``monte carlo`` line;
    empty when either file lacks the standard errors. A cell that is not a
    finite number, or a move against a standard error that is not
    positive, counts as inf."""
    if "bler_mc_se" not in cols or "bler_mc_se" not in before:
        return ""

    def z(a: str, b: str, se: str) -> float:
        if a == b:
            return 0.0
        try:
            x, y, s = float(a), float(b), float(se)
        except ValueError:
            return math.inf
        if not (s > 0.0 and math.isfinite(x) and math.isfinite(y)):
            return math.inf
        return abs(x - y) / s

    moves = [z(a, b, se) for a, b, se in zip(
        cols["bler_mc"], before["bler_mc"], before["bler_mc_se"])]
    row = max(range(len(moves)), key=moves.__getitem__)
    return f", {moves[row]:.3g} SE (row {row + 1})"


def value_moves(ours: dict, other: dict) -> list:
    """The indented lines that say what moved between the values of one
    preset in two files (`read_outputs`), other first."""
    a_csv, b_csv = ours["csv"], other["csv"]
    a_rows = len(next(iter(a_csv.values()), []))
    b_rows = len(next(iter(b_csv.values()), []))
    if a_csv.keys() != b_csv.keys() or a_rows != b_rows:
        return [f"    columns or rows differ: {len(b_csv)} x {b_rows} -> "
                f"{len(a_csv)} x {a_rows}"]
    # a .meta entry joins the columns as a one-cell column "meta <key>"
    cols = {**a_csv, **{f"meta {k}": [v] for k, v in ours["meta"].items()}}
    before = {**b_csv, **{f"meta {k}": [v] for k, v in other["meta"].items()}}
    lines, seen = [], set()
    for label in _CLASSES:
        moves = {col: max((_rel_move(a, b, col.endswith("_dbm")) for a, b
                           in zip(cells, before.get(col, ()))),
                          default=math.inf)
                 for col, cells in cols.items() if _column_class(col) == label}
        seen |= moves.keys()
        if moves:
            col = max(moves, key=moves.get)
            verdict = f"{moves[col]:.3g} ({col})" if moves[col] else "identical"
            if label == "monte carlo" and moves.get("bler_mc"):
                verdict += _se_move(cols, before)
            lines.append(f"    {label:12s} {verdict}")
    for col in _FLAGS:
        seen.add(col)
        for row, (a, b) in enumerate(zip(cols.get(col, ()),
                                         before.get(col, ()))):
            if a != b:
                lines.append(f"    {col} row {row + 1}: {b} -> {a}")
    for key in _OPTIMUM:
        seen.add(f"meta {key}")
        a, b = ours["meta"].get(key), other["meta"].get(key)
        if a != b:
            lines.append(f"    optimum {key}: {b} -> {a}")
    others = sorted(col for col in cols.keys() | before.keys()
                    if col not in seen and cols.get(col) != before.get(col))
    if others:
        lines.append(f"    other changes: {', '.join(others)}")
    return lines


def compare(ours: dict, other: dict) -> bool:
    """Print one line per preset, after a note on any differing library
    version; True when every preset is identical."""
    versions = [f"{key} {other.get(key)} -> {ours.get(key)}"
                for key in ("python", "numpy", "scipy")
                if ours.get(key) != other.get(key)]
    if versions:
        print(f"note: the environments differ ({', '.join(versions)}); "
              "bits may differ across library versions")
    same = True
    for name in sorted(set(ours["presets"]) | set(other["presets"])):
        a, b = ours["presets"].get(name), other["presets"].get(name)
        if a is None or b is None:
            print(f"{name:24s} missing")
            same = False
            continue
        differs = [part for part in ("csv", "meta")
                   if a["sha256"][part] != b["sha256"][part]]
        schema = differs == ["meta"] and _schema_only(a, b)
        if schema:
            differs = []
        same &= not differs
        verdict = f"differs: {', '.join(differs)}" if differs else "identical"
        print(f"{name:24s} {verdict:18s} {_study(b)} -> {_study(a)}  "
              f"{_rss(b)} -> {_rss(a)}")
        if schema:
            print(f"    config_sha256: {b['values']['meta']['config_sha256']}"
                  f" -> {a['values']['meta']['config_sha256']} (config "
                  "schema)")
        if differs and "values" in a and "values" in b:
            print("\n".join(value_moves(a["values"], b["values"])))
    if "layers" in ours or "layers" in other:
        print(_layers(ours, other))
    return same


def _schema_only(ours: dict, other: dict) -> bool:
    """Whether the .meta entries of two runs of a preset, both recorded,
    differ in config_sha256 alone."""
    if "values" not in ours or "values" not in other:
        return False
    a, b = ours["values"]["meta"], other["values"]["meta"]
    return a.keys() == b.keys() and [k for k in a if a[k] != b[k]] == [
        "config_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=1,
                        help="interleaved runs of every preset (default 1)")
    parser.add_argument("--against", type=Path, default=None,
                        help="a BENCH_*.json to compare the outputs with")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    result = dict(label=args.label, **bench(args.repeats))
    Path(f"BENCH_{args.label}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.against is None:
        return 0
    other = json.loads(args.against.read_text(encoding="utf-8"))
    return 0 if compare(result, other) else 1


if __name__ == "__main__":
    raise SystemExit(main())
