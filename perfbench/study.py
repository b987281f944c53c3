"""Run one fasrelay study in this (fresh) process and write what it measured.

    python3 perfbench/study.py COMMAND CONFIG OUT_CSV RESULT_JSON [--trace] [--setup-only]

The study goes through the CLI module the way ``fasrelay <command>`` does:
import ``fasrelay.cli``, parse the config, call ``cli.run``. The result JSON
holds the monotonic clock reading once the config is parsed (the parent
subtracts its spawn time to get the set-up time), the wall time of
``cli.run``, the process's peak resident memory and, with ``--trace``, the
per-layer metrics. ``--setup-only`` stops after parsing.

Untraced, the process also times a fixed calibration computation that uses
no fasrelay code, once after parsing and once after ``cli.run``, and reports
the mean as ``cal_s``. The parent scales its timings by it (see ``run.py``),
so that a host whose speed drifts does not move the reported times.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def calibrate() -> float:
    """Wall time of a fixed mix of the work fasrelay does, none of it
    fasrelay's: an interpreter loop, scipy's regularized gamma function over
    arrays and small symmetric eigensolves."""
    import numpy as np
    from scipy import special
    rng = np.random.default_rng(0)
    shape = rng.uniform(1.0, 40.0, 20000)
    x = rng.uniform(0.1, 60.0, 20000)
    gram = rng.standard_normal((12, 12))
    gram = gram @ gram.T
    start = time.perf_counter()
    acc = 0
    for i in range(240000):
        acc += i * i
    for _ in range(24):
        special.gammainc(shape, x)
    for _ in range(800):
        np.linalg.eigh(gram)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    command, config_path, out_path, result_path, *flags = argv
    from fasrelay import cli

    tracer = None
    if "--trace" in flags:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    with open(config_path, encoding="utf-8") as fh:
        spec = cli.parse_config(fh.read(), command)
    result = {"ready": time.monotonic()}
    cals = [] if tracer is not None else [calibrate()]
    if "--setup-only" not in flags:
        start = time.perf_counter()
        result["code"] = cli.run(spec, out_path=out_path)
        result["study_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, result["study_s"])
        elif cals:
            cals.append(calibrate())
    if cals:
        result["cal_s"] = sum(cals) / len(cals)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
