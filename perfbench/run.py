"""fasrelay study benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Workloads (``workloads.py``): ``optimize-grid``, ``bler-sweep``,
``validate-mc``. Every study runs in a fresh single-threaded process, one at
a time, with the BLAS thread pools pinned to 1 thread.

``--trace 0`` measures the end-to-end metrics. It spawns a few processes
that only import the CLI and parse the config (set-up probes), then runs the
seed's cycle of configs (``workloads.cycle``) as studies, whole cycles over
and over, for at least three cycles and no cycle past ``--seconds``.
``setup_s`` is the median over probes and studies of spawn-to-parsed time,
``study_s`` the median over cycles of the mean wall time of ``cli.run``,
both scaled by each process's calibration (``CAL_REF_S / cal_s``; the
unscaled figures are printed beside them), and ``peak_rss_mb`` the median
peak resident memory of a study process.

``--trace 1`` runs the seed's first study once untraced and twice traced,
with spans around the public functions of every fasrelay module
(``tracer.py``), and reports the per-layer metrics of the first traced run.
The exact work counts must repeat between the two traced runs, and all three
CSV bodies must be byte-identical.

Every study's outputs are checked against the stored reference
(``check.py``); a study that fails or exits non-zero fails all its rows.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (rows) and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_CYCLES = 3
SETUP_PROBES = 4
# Timings are scaled to a host on which study.calibrate() takes this long,
# about its fastest on the reference host (Xeon, 2.0 GHz). Other tenants of a
# shared host slow its CPU by up to 2x for minutes at a time; the calibration
# slows with it, and wall time times CAL_REF_S / cal_s stays put.
CAL_REF_S = 0.12
# A run must end within 180 s; no further study starts once the slowest one
# so far would push it past this.
BUDGET_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class Runner:
    """Spawns study processes inside one work directory of the checkout."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.env["TMPDIR"] = str(work)

    def spawn(self, study: workloads.Study, *flags: str, timeout: float):
        """Run one study process; returns (result dict or None, csv path)."""
        self.count += 1
        base = self.work / f"s{self.count}"
        config = base.with_suffix(".conf")
        config.write_text(study.config, encoding="utf-8")
        out = base.with_suffix(".csv")
        result_path = base.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "study.py"), study.command,
               str(config), str(out), str(result_path), *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"study {study.variant} timed out", file=sys.stderr)
            return None, out
        if proc.returncode != 0 or not result_path.exists():
            print(f"study {study.variant} failed ({proc.returncode}):\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None, out
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result.get("code", 0) != 0:
            return None, out
        result["setup_s"] = result["ready"] - spawned
        return result, out

    def check(self, study: workloads.Study, out: Path | None) -> tuple[int, int]:
        """(rows attempted, rows failed); a study without output fails all."""
        if out is None:
            rows = check.reference_rows(self.workload, study.variant)
            return rows, rows
        meta = out.with_name(out.name + ".meta")
        return check.check_study(self.workload, study.variant, study.config,
                                 out, meta)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(runner: Runner, seconds: float) -> tuple[dict, int, int, dict]:
    """End-to-end run; returns (metrics, attempted, failed, samples)."""
    studies = workloads.cycle(runner.workload, runner.seed)
    start = time.monotonic()
    setups: list[float] = []
    cycles: list[float] = []
    rss: list[float] = []
    raw: dict[str, list[float]] = {"setup_s": [], "study_s": []}
    for i in range(SETUP_PROBES + 1):
        res, _ = runner.spawn(studies[0], "--setup-only", timeout=60.0)
        # Probe 0 only writes the bytecode cache and warms the page cache,
        # which users do not pay for on every study.
        if res is not None and i > 0:
            setups.append(res["setup_s"] * CAL_REF_S / res["cal_s"])
            raw["setup_s"].append(res["setup_s"])
    bodies: dict[str, str] = {}
    attempted = failed = 0
    cycle_s = 0.0
    while True:
        cycle_start = time.monotonic()
        scaled = []
        for study in studies:
            elapsed = time.monotonic() - start
            res, out = runner.spawn(study, timeout=BUDGET_S + 20.0 - elapsed)
            rows, bad = runner.check(study, out if res else None)
            attempted += rows
            if res is None:
                failed += rows
                break
            # every repeat of a config must be byte-identical
            body = out.read_text(encoding="utf-8")
            bad += check.differing_rows(bodies.setdefault(study.variant, body), body)
            failed += min(rows, bad)
            print(f"study {study.variant}: {res['study_s']:.3f} s, calibration "
                  f"{res['cal_s']:.3f} s, {min(rows, bad)} of {rows} rows failed",
                  flush=True)
            scale = CAL_REF_S / res["cal_s"]
            scaled.append(res["study_s"] * scale)
            setups.append(res["setup_s"] * scale)
            rss.append(res["peak_rss_mb"])
            raw["setup_s"].append(res["setup_s"])
            raw["study_s"].append(res["study_s"])
        if len(scaled) < len(studies):
            break
        cycles.append(statistics.fmean(scaled))
        cycle_s = max(cycle_s, time.monotonic() - cycle_start)
        # no cycle starts that would end past --seconds, once the minimum is in
        elapsed = time.monotonic() - start
        if len(cycles) >= MIN_CYCLES and elapsed + cycle_s > seconds:
            break
        if elapsed + cycle_s > BUDGET_S:
            break
    samples = {"setup_s": setups, "study_s": cycles, "peak_rss_mb": rss}
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    samples.update({f"{k} unscaled": v for k, v in raw.items()})
    return metrics, attempted, failed, samples


def measure_traced(runner: Runner) -> tuple[dict, int, int]:
    """Traced run; returns (per-layer metrics, attempted, failed)."""
    study = workloads.cycle(runner.workload, runner.seed)[0]
    runs = []
    start = time.monotonic()
    for flags in ((), ("--trace",), ("--trace",)):
        res, out = runner.spawn(study, *flags,
                                timeout=BUDGET_S + 20.0 - (time.monotonic() - start))
        runs.append((res, out))
        if res is None:
            break
    if any(res is None for res, _ in runs):
        attempted, failed = runner.check(study, None)
        return {}, attempted, failed
    attempted, failed = runner.check(study, runs[0][1])
    bodies = [out.read_text(encoding="utf-8") for _, out in runs]
    for body in bodies[1:]:
        failed += check.differing_rows(bodies[0], body)
    failed = min(failed, attempted)
    traced = [res for res, _ in runs[1:]]
    mismatched = [name for name in tracer.EXACT_COUNTS
                  if traced[0]["layers"][name] != traced[1]["layers"][name]]
    if mismatched:
        print(f"work counts differ between traced runs: {mismatched}",
              file=sys.stderr)
    attempted += len(tracer.EXACT_COUNTS)
    failed += len(mismatched)
    # the first traced run reports; the second only repeats its counts
    metrics = dict(traced[0]["layers"])
    metrics["trace.untraced_study_s"] = runs[0][0]["study_s"]
    metrics["trace.overhead_s"] = traced[0]["study_s"] - runs[0][0]["study_s"]
    metrics["check.failed_ratio"] = failed / attempted
    return metrics, attempted, failed


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "fasrelay" / "cli.py").is_file():
        print(f"error: no fasrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        print("environment " + json.dumps(environment()), flush=True)
        if args.trace:
            values, attempted, failed = measure_traced(runner)
            units = metric_units("per_layer")
            for name in units:
                print(f"{name} = {values.get(name, float('nan'))!r} {units[name]}")
        else:
            values, attempted, failed, samples = measure(runner, args.seconds)
            units = metric_units("end_to_end")
            for name, vals in samples.items():
                if vals:
                    q1, q3 = _quartiles(vals)
                    unit = units[name.split()[0]]
                    print(f"{name} = median {statistics.median(vals)!r} {unit} "
                          f"(n={len(vals)}, q1={q1!r}, q3={q3!r})")
        print(f"failed_ratio = {failed / attempted if attempted else 1.0!r} "
              f"({failed} of {attempted} rows)")
        complete = all(name in values for name in units)
        report = {
            "correct": failed == 0 and complete,
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items() if name in values},
        }
        print(json.dumps(report))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
