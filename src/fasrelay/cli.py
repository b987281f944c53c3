"""Configuration-driven command line front end.

Reads a flat ``key = value`` config (units parsed explicitly: dBm, dB, GHz,
MHz, kHz, us, ms), runs one of the experiment commands, and writes a CSV
with every input echoed per row plus a metadata sidecar (config hash, seed,
version). Same config + same seed produces byte-identical CSV bodies; Monte
Carlo rows derive their substream seed from the base seed and the row index
via numpy's SeedSequence (spawn_key = row index).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .blercore import (CHI_VARIANTS, TrajectoryEvaluator,
                       avg_bler_hop2_asymptotic, linearize)
from .chanmodel import fas_spectrum
from .errors import ConfigError
from .geometry import ScenarioConfig
from .mcoracle import MC_MODES, McConfig, mc_average_bler
from .optimizer import (EeConfig, PortSearchResult, best_port_count,
                        global_optimize, min_power, port_entry)

COMMANDS = ("bler-sweep", "validate", "aperture-sweep", "power-vs-altitude",
            "ee-vs-ports", "ee-contour", "optimize")

# dimension -> unit suffix -> SI factor; "dbm" is a power unit of its own
_UNITS = {
    "power": {"w": 1.0, "mw": 1e-3, "uw": 1e-6},
    "frequency": {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "level": {"db": 1.0},
    "plain": {},
}


def _to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts * 1000.0)


def _from_dbm(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _parse_number(token: str, line: int) -> float:
    try:
        x = float(token)
    except ValueError:
        raise ConfigError(f"expected a number, got {token!r}", line)
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {token!r}", line)
    return x


def _parse_quantity(value: str, dimension: str, line: int) -> float:
    """Parse a scalar with an optional unit suffix, checked against the
    key's dimension (power, frequency, time, level, or plain)."""
    parts = value.split()
    if len(parts) not in (1, 2):
        raise ConfigError(f"cannot parse quantity {value!r}", line)
    x = _parse_number(parts[0], line)
    if len(parts) == 1:
        return x
    unit = parts[1].lower()
    if dimension == "power" and unit == "dbm":
        try:
            out = _from_dbm(x)
        except OverflowError:
            out = math.inf
    elif unit in _UNITS[dimension]:
        out = x * _UNITS[dimension][unit]
    else:
        raise ConfigError(
            f"unit {parts[1]!r} invalid for a {dimension} value", line)
    if not math.isfinite(out):
        raise ConfigError(f"{value!r} is out of range", line)
    return out


def _parse_int(value: str, line: int) -> int:
    """An integer literal (exact at any size) or a number without a
    fractional part, such as 1e3."""
    try:
        return int(value)
    except ValueError:
        pass
    x = _parse_number(value, line)
    if x != int(x):
        raise ConfigError(f"expected an integer, got {value!r}", line)
    return int(x)


def _parse_list(value: str, line: int, parse=_parse_number) -> list:
    """Comma list (1, 2, 3) or linspace shorthand lo:hi:count; every point
    goes through parse."""
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError("range syntax is lo:hi:count", line)
        lo = _parse_number(parts[0], line)
        hi = _parse_number(parts[1], line)
        count = _parse_int(parts[2], line)
        if count < 1:
            raise ConfigError("range count must be >= 1", line)
        if count == 1:
            tokens = [repr(lo)]
        else:
            tokens = [repr(lo + (hi - lo) * i / (count - 1))
                      for i in range(count)]
    else:
        tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("empty list", line)
    return [parse(tok, line) for tok in tokens]


def _parse_vec3(value: str, line: int) -> tuple[float, float, float]:
    parts = [tok.strip() for tok in value.split(",")]
    if len(parts) != 3:
        raise ConfigError("expected three comma-separated coordinates", line)
    return tuple(_parse_number(p, line) for p in parts)


# key -> (kind, dimension) ; kind drives the parser, dimension the units
_KEYS = {
    "bs_position": ("vec3", None),
    "ue_position": ("vec3", None),
    "flight_radius": ("scalar", "plain"),
    "uav_altitude": ("scalar", "plain"),
    "los_a": ("scalar", "plain"),
    "los_b": ("scalar", "plain"),
    "eta_los": ("scalar", "level"),
    "eta_nlos": ("scalar", "level"),
    "carrier_freq": ("scalar", "frequency"),
    "noise_power": ("scalar", "power"),
    "p1": ("scalar", "power"),
    "m_los": ("int", None),
    "m_nlos": ("int", None),
    "payload_bits": ("scalar", "plain"),
    "blocklength": ("int", None),
    "chi_variant": ("enum", CHI_VARIANTS),
    "n_ports": ("int", None),
    "aperture": ("scalar", "plain"),
    "rank_tolerance": ("scalar", "plain"),
    "traj_nodes": ("int", None),
    "p2": ("scalar", "power"),
    "bandwidth": ("scalar", "frequency"),
    "circuit_power": ("scalar", "power"),
    "switch_power": ("scalar", "power"),
    "port_time": ("scalar", "time"),
    "bler_threshold": ("scalar", "plain"),
    "p_max": ("scalar", "power"),
    "z_min": ("scalar", "plain"),
    "z_max": ("scalar", "plain"),
    "z_step": ("scalar", "plain"),
    "l_set": ("intlist", None),
    "n_min": ("int", None),
    "n_max": ("int", None),
    "bisect_tol": ("scalar", "plain"),
    "max_bisect_iters": ("int", None),
    "seed": ("int", None),
    "trials": ("int", None),
    "mc_mode": ("enum", MC_MODES),
    "mc_batch": ("int", None),
    "sweep_p2_dbm": ("list", None),
    "sweep_n_ports": ("intlist", None),
    "sweep_aperture": ("list", None),
    "sweep_z": ("list", None),
    "sweep_blocklength": ("intlist", None),
    "output": ("str", None),
}

_MC_KEYS = ("seed", "trials", "mc_mode", "mc_batch")
_SWEEP_KEYS = ("sweep_p2_dbm", "sweep_n_ports", "sweep_aperture", "sweep_z",
               "sweep_blocklength")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment description (command, scenario, search
    configuration, optional Monte Carlo settings, sweep axes, output)."""

    command: str
    scenario: ScenarioConfig
    ee: EeConfig
    mc: McConfig | None
    blocklength: int = 100
    chi_variant: str = "2^R-1"
    n_ports: int = 2
    aperture: float = 0.5
    rank_tolerance: float = 1e-9
    traj_nodes: int = 128
    p2: float | None = None
    sweeps: dict = field(default_factory=dict)
    output_path: str = "out.csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.blocklength < 1:
            raise ValueError("blocklength must be >= 1")
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if self.aperture <= 0:
            raise ValueError("aperture must be positive")
        if not 0.0 < self.rank_tolerance < 1.0:
            raise ValueError("rank_tolerance must lie in (0, 1)")
        if self.traj_nodes < 2:
            raise ValueError("traj_nodes must be >= 2")
        if self.p2 is not None and self.p2 <= 0:
            raise ValueError("p2 must be positive")
        for name, pts in self.sweeps.items():
            if len(pts) < 1:
                raise ValueError(f"sweep axis {name} must have >= 1 point")
            if name in ("sweep_n_ports", "sweep_blocklength") and min(pts) < 1:
                raise ValueError(f"{name} entries must be >= 1")
            if name == "sweep_aperture" and min(pts) <= 0:
                raise ValueError(f"{name} entries must be positive")


def parse_config(text: str, command: str) -> ExperimentSpec:
    """Parse a flat key = value document into a validated ExperimentSpec.

    Unknown keys, unit mismatches, and invariant violations raise
    ConfigError carrying the offending line number.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    raw: dict = {}
    lines: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected key = value", lineno)
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        kind, dim = _KEYS[key]
        if kind == "scalar":
            raw[key] = _parse_quantity(value, dim, lineno)
        elif kind == "int":
            raw[key] = _parse_int(value, lineno)
        elif kind == "vec3":
            raw[key] = _parse_vec3(value, lineno)
        elif kind == "enum":
            if value not in dim:
                raise ConfigError(f"{key} must be one of {dim}, got {value!r}", lineno)
            raw[key] = value
        elif kind == "list":
            raw[key] = tuple(_parse_list(value, lineno))
        elif kind == "intlist":
            raw[key] = tuple(_parse_list(value, lineno, _parse_int))
        else:
            raw[key] = value
        lines[key] = lineno

    def line_of(message: str) -> int | None:
        # the longest key named wins: sweep_n_ports over n_ports
        named = [key for key in lines if key in message]
        return lines[max(named, key=len)] if named else None

    scenario_fields = {k: raw[k] for k in
                       ("bs_position", "ue_position", "flight_radius",
                        "uav_altitude", "los_a", "los_b", "eta_los",
                        "eta_nlos", "carrier_freq", "noise_power", "p1",
                        "m_los", "m_nlos") if k in raw}
    ee_fields = {k: raw[k] for k in
                 ("payload_bits", "bandwidth", "circuit_power", "switch_power",
                  "port_time", "bler_threshold", "p_max", "l_set",
                  "z_step", "bisect_tol", "max_bisect_iters") if k in raw}
    if "z_min" in raw or "z_max" in raw:
        ee_fields["z_range"] = (raw.get("z_min", 100.0), raw.get("z_max", 800.0))
    if "n_min" in raw or "n_max" in raw:
        ee_fields["n_range"] = (raw.get("n_min", 1), raw.get("n_max", 12))
    mc_fields = {"seed": raw.get("seed"), "trials": raw.get("trials"),
                 "mode": raw.get("mc_mode"), "batch": raw.get("mc_batch")}
    mc_fields = {k: v for k, v in mc_fields.items() if v is not None}
    try:
        scenario = ScenarioConfig(**scenario_fields)
        ee = EeConfig(**ee_fields)
        mc = McConfig(**mc_fields) if (mc_fields or command == "validate") else None
        return ExperimentSpec(
            command=command, scenario=scenario, ee=ee, mc=mc,
            blocklength=raw.get("blocklength", 100),
            chi_variant=raw.get("chi_variant", "2^R-1"),
            n_ports=raw.get("n_ports", 2),
            aperture=raw.get("aperture", 0.5),
            rank_tolerance=raw.get("rank_tolerance", 1e-9),
            traj_nodes=raw.get("traj_nodes", 128),
            p2=raw.get("p2"),
            sweeps={k: list(raw[k]) for k in _SWEEP_KEYS if k in raw},
            output_path=raw.get("output", "out.csv"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), line_of(str(exc))) from exc


def render(spec: ExperimentSpec) -> str:
    """Emit a flat config that parses back to the same spec (SI units)."""
    out = []
    scn = spec.scenario
    out.append("bs_position = " + ", ".join(repr(v) for v in scn.bs_position))
    out.append("ue_position = " + ", ".join(repr(v) for v in scn.ue_position))
    for key, val in (("flight_radius", scn.flight_radius),
                     ("uav_altitude", scn.uav_altitude),
                     ("los_a", scn.los_a), ("los_b", scn.los_b),
                     ("eta_los", scn.eta_los), ("eta_nlos", scn.eta_nlos),
                     ("carrier_freq", scn.carrier_freq),
                     ("noise_power", scn.noise_power), ("p1", scn.p1),
                     ("m_los", scn.m_los), ("m_nlos", scn.m_nlos)):
        out.append(f"{key} = {val!r}")
    ee = spec.ee
    for key, val in (("payload_bits", ee.payload_bits),
                     ("bandwidth", ee.bandwidth),
                     ("circuit_power", ee.circuit_power),
                     ("switch_power", ee.switch_power),
                     ("port_time", ee.port_time),
                     ("bler_threshold", ee.bler_threshold),
                     ("p_max", ee.p_max), ("z_min", ee.z_range[0]),
                     ("z_max", ee.z_range[1]), ("z_step", ee.z_step),
                     ("bisect_tol", ee.bisect_tol),
                     ("max_bisect_iters", ee.max_bisect_iters)):
        out.append(f"{key} = {val!r}")
    out.append("l_set = " + ", ".join(str(l) for l in ee.l_set))
    out.append(f"n_min = {ee.n_range[0]}")
    out.append(f"n_max = {ee.n_range[1]}")
    for key, val in (("blocklength", spec.blocklength),
                     ("chi_variant", spec.chi_variant),
                     ("n_ports", spec.n_ports), ("aperture", spec.aperture),
                     ("rank_tolerance", spec.rank_tolerance),
                     ("traj_nodes", spec.traj_nodes)):
        out.append(f"{key} = {val!r}" if not isinstance(val, str) else f"{key} = {val}")
    if spec.p2 is not None:
        out.append(f"p2 = {spec.p2!r}")
    if spec.mc is not None:
        out.append(f"seed = {spec.mc.seed}")
        out.append(f"trials = {spec.mc.trials}")
        out.append(f"mc_mode = {spec.mc.mode}")
        out.append(f"mc_batch = {spec.mc.batch}")
    for name in _SWEEP_KEYS:
        if name in spec.sweeps:
            out.append(f"{name} = " + ", ".join(repr(v) for v in spec.sweeps[name]))
    out.append(f"output = {spec.output_path}")
    return "\n".join(out) + "\n"


def _row_seed(base_seed: int, row_index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(row_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _echo_columns(spec: ExperimentSpec) -> dict:
    scn = spec.scenario
    return {
        "command": spec.command,
        "p1_dbm": _to_dbm(scn.p1),
        "noise_dbm": _to_dbm(scn.noise_power),
        "carrier_freq_hz": scn.carrier_freq,
        "flight_radius_m": scn.flight_radius,
        "eta_los_db": scn.eta_los,
        "eta_nlos_db": scn.eta_nlos,
        "m_los": scn.m_los,
        "m_nlos": scn.m_nlos,
        "payload_bits": spec.ee.payload_bits,
        "bandwidth_hz": spec.ee.bandwidth,
        "circuit_power_w": spec.ee.circuit_power,
        "switch_power_w": spec.ee.switch_power,
        "port_time_s": spec.ee.port_time,
        "bler_threshold": spec.ee.bler_threshold,
        "chi_variant": spec.chi_variant,
        "rank_tolerance": spec.rank_tolerance,
        "traj_nodes": spec.traj_nodes,
    }


def _axis(spec: ExperimentSpec, name: str, default) -> list | None:
    value = spec.sweeps.get(name, default)
    return None if value is None else list(value)


def _base_evaluator(spec: ExperimentSpec,
                    blocklength: int) -> TrajectoryEvaluator:
    """Geometry and hop-1 arrays of the spec's scenario at one blocklength,
    shared by every row of a sweep at that blocklength."""
    fbl = linearize(spec.ee.payload_bits / blocklength, blocklength,
                    spec.chi_variant)
    return TrajectoryEvaluator(spec.scenario, fbl, None, spec.traj_nodes)


def _analytic_point(spec: ExperimentSpec, base: TrajectoryEvaluator,
                    n_ports: int, aperture: float, p2: float) -> dict:
    fas = fas_spectrum(n_ports, aperture, spec.rank_tolerance)
    ev = base.with_spectrum(fas)
    eps2 = ev.hop2_mixed(*ev.hop2_components(p2))
    e2e = ev.end_to_end(eps2)
    asym = [avg_bler_hop2_asymptotic(ev.fbl, vt2, ev.cfg.nakagami_m(lt),
                                     fas.lambdas)
            for lt, vt2 in zip(("los", "nlos"), ev.hop2_varthetas(p2))]
    eps2_asym = np.minimum(ev.hop2_mixed(*asym), 1.0)
    e2e_asym = ev.end_to_end(eps2_asym)
    return {
        "n_eff": fas.n_eff,
        "bler_analytic": float(ev.weights @ e2e),
        "bler_hop1": float(ev.weights @ ev.eps1_mixed),
        "bler_hop2": float(ev.weights @ eps2),
        "bler_e2e_asym": float(ev.weights @ e2e_asym),
    }


def _rows_bler_like(spec: ExperimentSpec, seed: int, with_mc: bool):
    p2_axis = _axis(spec, "sweep_p2_dbm", None)
    if p2_axis is None:
        raise ConfigError("this command requires sweep_p2_dbm")
    n_axis = _axis(spec, "sweep_n_ports", [spec.n_ports])
    w_axis = _axis(spec, "sweep_aperture", [spec.aperture])
    jobs = []
    for n in n_axis:
        for w in w_axis:
            for p2_dbm in p2_axis:
                jobs.append((int(n), float(w), float(p2_dbm)))
    base = _base_evaluator(spec, spec.blocklength)

    def compute(args):
        idx, (n, w, p2_dbm) = args
        p2 = _from_dbm(p2_dbm)
        scn = spec.scenario
        row = _echo_columns(spec)
        row.update({"uav_altitude_m": scn.uav_altitude, "n_ports": n,
                    "aperture": w, "blocklength": spec.blocklength,
                    "p2_dbm": p2_dbm})
        row.update(_analytic_point(spec, base, n, w, p2))
        # the limit of the end-to-end BLER as the relay power grows
        row["error_floor"] = row["bler_hop1"]
        if with_mc:
            mc = replace(spec.mc, seed=_row_seed(seed, idx))
            fas = fas_spectrum(n, w, spec.rank_tolerance)
            est = mc_average_bler(scn, fas, base.fbl, p2, mc)
            row.update({"bler_mc": est.mean, "bler_mc_se": est.std_error,
                        "mc_trials": est.trials, "mc_mode": mc.mode,
                        "row_seed": mc.seed})
        return row

    return list(enumerate(jobs)), compute


def _rows_aperture(spec: ExperimentSpec, seed: int):
    w_axis = _axis(spec, "sweep_aperture", None)
    if w_axis is None:
        raise ConfigError("aperture-sweep requires sweep_aperture")
    if spec.p2 is None and "sweep_p2_dbm" not in spec.sweeps:
        raise ConfigError("aperture-sweep requires p2 or sweep_p2_dbm")
    p2_axis = _axis(spec, "sweep_p2_dbm", [_to_dbm(spec.p2)] if spec.p2 else None)
    jobs = [(float(w), float(p)) for w in w_axis for p in p2_axis]
    base = _base_evaluator(spec, spec.blocklength)

    def compute(args):
        idx, (w, p2_dbm) = args
        scn = spec.scenario
        row = _echo_columns(spec)
        row.update({"uav_altitude_m": scn.uav_altitude,
                    "n_ports": spec.n_ports, "aperture": w,
                    "blocklength": spec.blocklength, "p2_dbm": p2_dbm})
        row.update(_analytic_point(spec, base, spec.n_ports, w,
                                   _from_dbm(p2_dbm)))
        return row

    return list(enumerate(jobs)), compute


def _rows_power_vs_altitude(spec: ExperimentSpec, seed: int):
    z_axis = _axis(spec, "sweep_z", None)
    if z_axis is None:
        raise ConfigError("power-vs-altitude requires sweep_z")
    n_axis = _axis(spec, "sweep_n_ports", [spec.n_ports])
    jobs = [(float(z), int(n)) for n in n_axis for z in z_axis]

    def compute(args):
        idx, (z, n) = args
        fbl = linearize(spec.ee.payload_bits / spec.blocklength,
                        spec.blocklength, spec.chi_variant)
        fas = fas_spectrum(n, spec.aperture, spec.rank_tolerance)
        p2 = min_power(spec.scenario, fas, fbl, spec.ee, z, spec.traj_nodes)
        row = _echo_columns(spec)
        row.update({"uav_altitude_m": z, "n_ports": n,
                    "aperture": spec.aperture, "blocklength": spec.blocklength,
                    "n_eff": fas.n_eff,
                    "feasible": p2 is not None,
                    "p2_star_w": p2 if p2 is not None else "",
                    "p2_star_dbm": _to_dbm(p2) if p2 is not None else ""})
        return row

    return list(enumerate(jobs)), compute


def _rows_ee_vs_ports(spec: ExperimentSpec, seed: int):
    n_axis = _axis(spec, "sweep_n_ports",
                   list(range(spec.ee.n_range[0], spec.ee.n_range[1] + 1)))
    l_axis = _axis(spec, "sweep_blocklength", [spec.blocklength])
    jobs = [(int(l), int(n)) for l in l_axis for n in n_axis]
    bases = {l: _base_evaluator(spec, l) for l, _ in jobs}

    def compute(args):
        idx, (l, n) = args
        row = _echo_columns(spec)
        row.update({"uav_altitude_m": spec.scenario.uav_altitude,
                    "n_ports": n, "aperture": spec.aperture,
                    "blocklength": l})
        entry = port_entry(bases[l], n, spec.aperture, spec.ee,
                           spec.rank_tolerance)
        row.update({"feasible": entry.feasible,
                    "p2_star_dbm": _to_dbm(entry.p2) if entry.feasible else "",
                    "eps_o": entry.eps_o if entry.feasible else "",
                    "ee_bits_per_joule": entry.ee})
        return row

    return list(enumerate(jobs)), compute


def _port_search_columns(spec: ExperimentSpec, res: PortSearchResult) -> dict:
    """Echo columns plus the outcome of one port search at one (L, Z), shared
    by the ee-contour and optimize rows."""
    row = _echo_columns(spec)
    row.update({"uav_altitude_m": res.z_u, "blocklength": res.blocklength,
                "aperture": spec.aperture,
                "feasible": res.feasible,
                "n_star": res.n_star if res.feasible else "",
                "p2_star_dbm": _to_dbm(res.p2_star) if res.feasible else "",
                "ee_bits_per_joule": res.ee_star})
    return row


def _rows_ee_contour(spec: ExperimentSpec, seed: int):
    z_axis = _axis(spec, "sweep_z", None)
    l_axis = _axis(spec, "sweep_blocklength", None)
    if z_axis is None or l_axis is None:
        raise ConfigError("ee-contour requires sweep_z and sweep_blocklength")
    jobs = [(int(l), float(z)) for l in l_axis for z in z_axis]
    fbls = {l: linearize(spec.ee.payload_bits / l, l, spec.chi_variant)
            for l, _ in jobs}

    def compute(args):
        idx, (l, z) = args
        res = best_port_count(spec.scenario, fbls[l], spec.ee, z,
                              spec.aperture, spec.rank_tolerance,
                              spec.traj_nodes)
        return _port_search_columns(spec, res)

    return list(enumerate(jobs)), compute


def _rows_optimize(spec: ExperimentSpec, seed: int):
    sol = global_optimize(spec.scenario, spec.ee, spec.aperture,
                          spec.rank_tolerance, spec.traj_nodes,
                          spec.chi_variant)
    rows = [dict(_port_search_columns(spec, res),
                 is_optimum=(sol.feasible and res.feasible
                             and res.blocklength == sol.l_star
                             and res.z_u == sol.z_star))
            for res in sol.trace]
    return rows, sol


def run(spec: ExperimentSpec, seed: int | None = None, threads: int = 1,
        out_path: str | None = None) -> int:
    """Execute the experiment and write CSV plus a metadata sidecar.

    Returns 0 when every requested computation completed; infeasible
    optimization points are data, not errors.
    """
    path = out_path or spec.output_path
    base_seed = seed if seed is not None else (spec.mc.seed if spec.mc else 20240801)
    summary = {}
    if spec.command == "optimize":
        rows, sol = _rows_optimize(spec, base_seed)
        summary = {"feasible": sol.feasible, "l_star": sol.l_star,
                   "z_star": sol.z_star, "n_star": sol.n_star,
                   "p2_star_w": sol.p2_star, "ee_star": sol.ee_star,
                   "eps_star": sol.eps_star,
                   "table_check_max_rel": sol.table_check_max_rel}
    else:
        builders = {
            "bler-sweep": lambda: _rows_bler_like(spec, base_seed, False),
            "validate": lambda: _rows_bler_like(spec, base_seed, True),
            "aperture-sweep": lambda: _rows_aperture(spec, base_seed),
            "power-vs-altitude": lambda: _rows_power_vs_altitude(spec, base_seed),
            "ee-vs-ports": lambda: _rows_ee_vs_ports(spec, base_seed),
            "ee-contour": lambda: _rows_ee_contour(spec, base_seed),
        }
        jobs, compute = builders[spec.command]()
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(compute, jobs))
        else:
            rows = [compute(job) for job in jobs]

    if not rows:
        raise RuntimeError("no rows produced")
    header = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in header])

    digest = hashlib.sha256(render(spec).encode("utf-8")).hexdigest()
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"command = {spec.command}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"seed = {base_seed}\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"rows = {len(rows)}\n")
        for key, val in summary.items():
            fh.write(f"{key} = {val}\n")
    return 0


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fasrelay",
        description="Two-hop relay BLER analysis and energy-efficiency "
                    "optimization with a position-switching receiver array.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", default=None, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the base random seed")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads for sweep points (optimize "
                              "ignores it)")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_config(text, args.command)
        return run(spec, seed=args.seed, threads=args.threads,
                   out_path=args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
