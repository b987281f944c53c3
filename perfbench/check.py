"""Output checks behind ``failed_ratio``: a study's CSV and ``.meta`` against
the reference captured for its config, and repeated studies against each
other.

Tolerances follow the accuracy contracts of the package:

* analytic BLER columns within 1e-6 relative (the hop-2 engine is within
  1.75e-7 of exact, and a more exact kernel may move values by about that);
* solved powers and energy efficiencies within ``bisect_tol`` = 1e-4
  relative;
* ``bler_mc`` within 5 combined standard errors of the reference estimate,
  so a stream drawn from another seed, or reordered, still passes, and its
  standard error within a factor of 2 of the reference's;
* every other column, feasibility flags, ``n_star`` and the optimum
  (L*, Z*, N*) in ``.meta`` exactly.

A row fails when it is missing, holds a non-finite value where the reference
is finite, or is outside tolerance. Columns the reference lacks are not
checked, so a later version may add columns.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ANALYTIC_REL = 1e-6
SOLVE_REL = 1e-4
MC_SIGMAS = 5.0
# eps_star is the BLER at the solved power; a power within SOLVE_REL moves it
# by up to the diversity order (m * n_eff <= 60 here) times that.
EPS_STAR_REL = 1e-2

_ANALYTIC = {"bler_analytic", "bler_hop1", "bler_hop2", "bler_e2e_asym",
             "error_floor"}
_SOLVED = {"ee_bits_per_joule", "p2_star_w"}
_SOLVED_DBM = {"p2_star_dbm"}
_TOLERANT = _ANALYTIC | _SOLVED | _SOLVED_DBM | {"bler_mc", "bler_mc_se"}
# Columns derived from the Monte Carlo seed; exact only at the reference seed.
_SEEDED = {"row_seed"}


def reference_paths(workload: str, variant: str) -> tuple[Path, Path, Path]:
    """The stored CSV (gzipped), sidecar and config of one variant."""
    base = REFERENCE_DIR / workload
    return (base / f"{variant}.csv.gz", base / f"{variant}.meta",
            base / f"{variant}.conf")


def load_reference(workload: str, variant: str) -> tuple[str, str, str]:
    csv_path, meta_path, conf_path = reference_paths(workload, variant)
    with gzip.open(csv_path, "rt", encoding="utf-8", newline="") as fh:
        csv_text = fh.read()
    return (csv_text, meta_path.read_text(encoding="utf-8"),
            conf_path.read_text(encoding="utf-8"))


def reference_rows(workload: str, variant: str) -> int:
    """Rows a study of this variant is checked on: CSV rows plus the sidecar."""
    return len(read_rows(load_reference(workload, variant)[0])[1]) + 1


def read_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return (rows[0], rows[1:]) if rows else ([], [])


def read_meta(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key] = val
    return out


def _rel_ok(a: float, b: float, rel: float) -> bool:
    # the 1e-300 floor only absorbs underflow to zero
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _num(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cell_ok(col: str, got: str, ref: str, row_got: dict, row_ref: dict,
             same_seed: bool) -> bool:
    if col in _SEEDED:
        return got == ref if same_seed else got.isdigit()
    r = _num(ref)
    if col not in _TOLERANT or r is None or not math.isfinite(r):
        return got == ref
    g = _num(got)
    if g is None or not math.isfinite(g):
        return False
    if col == "bler_mc":
        se_g, se_r = _num(row_got.get("bler_mc_se", "")), _num(row_ref["bler_mc_se"])
        return (se_g is not None and se_r is not None and math.isfinite(se_g)
                and abs(g - r) <= MC_SIGMAS * math.hypot(se_g, se_r))
    if col == "bler_mc_se":
        return 0.5 * r <= g <= 2.0 * r
    if col in _SOLVED_DBM:
        g, r = 10.0 ** (g / 10.0), 10.0 ** (r / 10.0)
    return _rel_ok(g, r, ANALYTIC_REL if col in _ANALYTIC else SOLVE_REL)


def compare_csv(got_text: str, ref_text: str, same_seed: bool) -> tuple[int, int]:
    """(rows attempted, rows failed) of one study's CSV against its reference."""
    ref_head, ref_rows = read_rows(ref_text)
    got_head, got_rows = read_rows(got_text)
    attempted = len(ref_rows)
    if any(col not in got_head for col in ref_head) or len(got_rows) != attempted:
        return attempted, attempted
    failed = 0
    for got, ref in zip(got_rows, ref_rows):
        if len(got) != len(got_head):
            failed += 1
            continue
        row_got = dict(zip(got_head, got))
        row_ref = dict(zip(ref_head, ref))
        if not all(_cell_ok(col, row_got[col], row_ref[col], row_got, row_ref,
                            same_seed) for col in ref_head):
            failed += 1
    return attempted, failed


def compare_meta(got_text: str, ref_text: str, same_seed: bool) -> bool:
    """The sidecar's command, row count, seed and optimum tuple."""
    got, ref = read_meta(got_text), read_meta(ref_text)
    for key in ("command", "rows", "feasible", "l_star", "z_star", "n_star"):
        if key in ref and got.get(key) != ref[key]:
            return False
    if same_seed and got.get("seed") != ref.get("seed"):
        return False
    for key, rel in (("p2_star_w", SOLVE_REL), ("ee_star", SOLVE_REL),
                     ("eps_star", EPS_STAR_REL)):
        if key not in ref:
            continue
        r, g = _num(ref[key]), _num(got.get(key, ""))
        if r is None:
            if got.get(key) != ref[key]:
                return False
            continue
        if g is None or not math.isfinite(g) or not _rel_ok(g, r, rel):
            return False
    return True


def check_study(workload: str, variant: str, config: str, csv_path: Path,
                meta_path: Path) -> tuple[int, int]:
    """(attempted, failed) for one study: its CSV rows plus the sidecar as
    one more row. A missing output fails everything. Seed-derived values
    are compared exactly only when the config is the reference's own."""
    ref_text, ref_meta_text, ref_config = load_reference(workload, variant)
    same_seed = config == ref_config
    attempted = len(read_rows(ref_text)[1]) + 1
    try:
        got_text = csv_path.read_text(encoding="utf-8")
        got_meta = meta_path.read_text(encoding="utf-8")
    except OSError:
        return attempted, attempted
    rows, failed = compare_csv(got_text, ref_text, same_seed)
    meta_ok = compare_meta(got_meta, ref_meta_text, same_seed)
    return rows + 1, failed + (not meta_ok)


def differing_rows(a: str, b: str) -> int:
    """Rows of two CSV bodies that are not byte-identical (header included;
    a missing row counts as differing)."""
    la, lb = a.splitlines(), b.splitlines()
    diff = sum(x != y for x, y in zip(la, lb))
    return diff + abs(len(la) - len(lb))
