"""Measure the benchmark over several seeds and record the baseline.

    python3 perfbench/baseline.py [--seeds 10] [--trace-seeds 0 1]
                                  [--workloads NAME ...] [--out FILE]

Runs ``run.py`` once per workload and seed (end-to-end metrics), then once
traced per workload and trace seed, and prints for every end-to-end metric
its median, quartiles and spread (quartile distance over the median), and
every per-layer metric of each traced run by name with its unit. With
``--out`` it writes those figures, the traced per-layer tables, the
environment and the layer map below to a JSON file (``baseline.json`` holds
the first baseline).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each layer's metrics should move, on which
# workload; written down before any optimisation is measured.
LAYER_MAP = {
    "cli": {"metrics": ["cli.parse_s", "cli.self_s"],
            "moves": "setup_s on every workload; study_s on bler-sweep, which writes the most rows"},
    "optimizer": {"metrics": ["optimizer.port_searches", "optimizer.port_search_s_p50",
                              "optimizer.power_solves", "optimizer.evals_per_solve",
                              "optimizer.feasible_ratio", "optimizer.self_s"],
                  "moves": "study_s on optimize-grid; zero on the other workloads"},
    "blercore": {"metrics": ["blercore.e2e_avg_calls", "blercore.e2e_avg_us_p50",
                             "blercore.e2e_avg_us_p99", "blercore.hop2_calls",
                             "blercore.hop2_self_s", "blercore.evaluator_builds",
                             "blercore.evaluator_build_s", "blercore.asymptote_calls",
                             "blercore.asymptote_s", "blercore.self_s"],
                 "moves": "hop-2 and e2e_avg metrics: study_s on optimize-grid and bler-sweep; "
                          "asymptote and evaluator-build metrics: study_s on bler-sweep"},
    "chanmodel": {"metrics": ["chanmodel.spectrum_calls", "chanmodel.spectrum_miss_ratio",
                              "chanmodel.eigen_s", "chanmodel.self_s"],
                  "moves": "study_s on bler-sweep"},
    "geometry": {"metrics": ["geometry.traj_calls", "geometry.traj_points",
                             "geometry.traj_s", "geometry.self_s"],
                 "moves": "study_s on validate-mc"},
    "numerics": {"metrics": ["numerics.gamma_cdf_calls", "numerics.gamma_cdf_elems",
                             "numerics.gamma_cdf_s", "numerics.gamma_cdf_ns_per_elem",
                             "numerics.eigh_calls", "numerics.eigh_s", "numerics.self_s"],
                 "moves": "gamma metrics: study_s on optimize-grid and bler-sweep, flat on "
                          "validate-mc; eigh metrics: study_s on bler-sweep"},
    "mcoracle": {"metrics": ["mcoracle.trials", "mcoracle.trials_per_s",
                             "mcoracle.batch_s_p50", "mcoracle.sampler_s",
                             "mcoracle.self_s"],
                 "moves": "study_s and peak_rss_mb on validate-mc"},
}


def environment() -> dict:
    """run.py's record (library versions, core count) plus the CPU model and
    cache sizes."""
    env = run.environment()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def read(name, base=index):
            with open(os.path.join(base, name), encoding="utf-8") as fh:
                return fh.read().strip()
        try:
            caches[f"L{read('level')} {read('type').lower()}"] = read("size")
        except OSError:
            continue
    env["caches"] = caches
    return env


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[0, 1])
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"environment": environment(), "run_seconds": seconds,
           "layer_map": LAYER_MAP, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(name, seed, seconds, 0)
            runs.append(res)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}", flush=True)
        entry = {"why": why.get(name, ""), "seeds": list(range(
            args.first_seed, args.first_seed + args.seeds)), "end_to_end": {},
            "failed_ratio": [r["failed"] / r["attempted"] for r in runs]}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = summ = summarize(values)
            flag = "ok" if summ["spread"] < bounds[metric] / 3 else "WIDE"
            print(f"  {name} {metric}: median {summ['median']:.4g} {units[metric]} "
                  f"q1 {summ['q1']:.4g} q3 {summ['q3']:.4g} spread "
                  f"{summ['spread']:.3f} (bound {bounds[metric]}) {flag}", flush=True)
        entry["traced"] = {}
        for seed in args.trace_seeds:
            res = run_once(name, seed, seconds, 1)
            entry["traced"][str(seed)] = {
                "failed": res["failed"], "attempted": res["attempted"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
            print(f"  {name} traced seed {seed}: failed {res['failed']}/"
                  f"{res['attempted']}", flush=True)
            for metric, val in res["metrics"].items():
                print(f"    {metric} = {val['value']:.6g} {val['unit']}")
        out["workloads"][name] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
