"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs every config a workload can produce (``workloads.reference_studies``)
through the same study process as the benchmark and stores its CSV
(gzipped), ``.meta`` sidecar and config under ``perfbench/reference/``.
Run it from the root of the checkout whose outputs are the reference.
"""

from __future__ import annotations

import gzip
import shutil
import sys
from pathlib import Path

import check
import run
import workloads


def capture(workload: str, work: Path) -> None:
    runner = run.Runner(workload, 0, work)
    for study in workloads.reference_studies(workload):
        res, out = runner.spawn(study, timeout=600.0)
        if res is None:
            raise SystemExit(f"{workload} {study.variant}: study failed")
        csv_path, meta_path, conf_path = check.reference_paths(workload, study.variant)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        # mtime=0 keeps the archive bytes a function of the CSV alone
        with open(out, "rb") as src, open(csv_path, "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as dst:
            shutil.copyfileobj(src, dst)
        shutil.copyfile(out.with_name(out.name + ".meta"), meta_path)
        conf_path.write_text(study.config, encoding="utf-8")
        print(f"{workload} {study.variant}: {res['study_s']:.2f} s", flush=True)


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    work = run.ROOT / ".perfbench-work" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            capture(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
