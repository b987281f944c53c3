"""Configuration-driven command line front end.

Reads a flat ``key = value`` config (units parsed explicitly: dBm, dB, GHz,
MHz, kHz, us, ms), runs one of the experiment commands, and writes a CSV
with every input echoed per row plus a metadata sidecar (config hash, seed,
version). Same config + same seed produces byte-identical CSV bodies; Monte
Carlo rows derive their substream seed from the base seed and the row index
via numpy's SeedSequence (spawn_key = row index).

The key table ``_KEYS`` is the config schema: parsing and ``render`` both
read it, and a key the config omits keeps its dataclass default.

Each command has one row builder in ``_BUILDERS``: ``builder(spec, seed)``
returns ``(rows, summary)``, the rows in CSV order (each made by ``_row``:
the echoed inputs, the altitude, then the command's own columns) and the
entries its ``.meta`` adds, which only ``optimize`` has. bler-sweep,
validate and aperture-sweep share one builder over ports x apertures x
relay powers. ``run`` checks the sweep axes a command cannot run without
(``_REQUIRED``) before it calls the builder.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import __version__
from .blercore import (CHI_VARIANTS, DEFAULT_TRAJECTORY_NODES,
                       TrajectoryEvaluator, linearize)
from .chanmodel import DEFAULT_RANK_TOLERANCE, fas_spectrum
from .errors import ConfigError, FasRelayError
from .geometry import ScenarioConfig
from .mcoracle import MC_MODES, McConfig, mc_average_bler
from .optimizer import (EeConfig, PortSearchResult, global_optimize,
                        min_power, port_search_grid)

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
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


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
        out = _from_dbm(x)
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


# The config schema: key -> (kind, dimension, home), in render order. kind
# drives the parser and dimension the units; home is (section, field), or
# (section, field, index) for one end of a range, with sections scenario,
# ee, mc (the dataclasses), spec (ExperimentSpec) and sweeps (its axes).
# parse_config and render name no key themselves; a key the config omits
# keeps its dataclass default.
_KEYS = {
    "bs_position": ("vec3", None, ("scenario", "bs_position")),
    "ue_position": ("vec3", None, ("scenario", "ue_position")),
    "flight_radius": ("scalar", "plain", ("scenario", "flight_radius")),
    "uav_altitude": ("scalar", "plain", ("scenario", "uav_altitude")),
    "los_a": ("scalar", "plain", ("scenario", "los_a")),
    "los_b": ("scalar", "plain", ("scenario", "los_b")),
    "eta_los": ("scalar", "level", ("scenario", "eta_los")),
    "eta_nlos": ("scalar", "level", ("scenario", "eta_nlos")),
    "carrier_freq": ("scalar", "frequency", ("scenario", "carrier_freq")),
    "noise_power": ("scalar", "power", ("scenario", "noise_power")),
    "p1": ("scalar", "power", ("scenario", "p1")),
    "m_los": ("int", None, ("scenario", "m_los")),
    "m_nlos": ("int", None, ("scenario", "m_nlos")),
    "payload_bits": ("scalar", "plain", ("ee", "payload_bits")),
    "bandwidth": ("scalar", "frequency", ("ee", "bandwidth")),
    "circuit_power": ("scalar", "power", ("ee", "circuit_power")),
    "switch_power": ("scalar", "power", ("ee", "switch_power")),
    "port_time": ("scalar", "time", ("ee", "port_time")),
    "bler_threshold": ("scalar", "plain", ("ee", "bler_threshold")),
    "p_max": ("scalar", "power", ("ee", "p_max")),
    "z_min": ("scalar", "plain", ("ee", "z_range", 0)),
    "z_max": ("scalar", "plain", ("ee", "z_range", 1)),
    "z_step": ("scalar", "plain", ("ee", "z_step")),
    "bisect_tol": ("scalar", "plain", ("ee", "bisect_tol")),
    "l_set": ("intlist", None, ("ee", "l_set")),
    "n_min": ("int", None, ("ee", "n_range", 0)),
    "n_max": ("int", None, ("ee", "n_range", 1)),
    "blocklength": ("int", None, ("spec", "blocklength")),
    "chi_variant": ("enum", CHI_VARIANTS, ("spec", "chi_variant")),
    "n_ports": ("int", None, ("spec", "n_ports")),
    "aperture": ("scalar", "plain", ("spec", "aperture")),
    "rank_tolerance": ("scalar", "plain", ("spec", "rank_tolerance")),
    "traj_nodes": ("int", None, ("spec", "traj_nodes")),
    "p2": ("scalar", "power", ("spec", "p2")),
    "seed": ("int", None, ("mc", "seed")),
    "trials": ("int", None, ("mc", "trials")),
    "mc_mode": ("enum", MC_MODES, ("mc", "mode")),
    "mc_batch": ("int", None, ("mc", "batch")),
    "sweep_p2_dbm": ("list", None, ("sweeps", "sweep_p2_dbm")),
    "sweep_n_ports": ("intlist", None, ("sweeps", "sweep_n_ports")),
    "sweep_aperture": ("list", None, ("sweeps", "sweep_aperture")),
    "sweep_z": ("list", None, ("sweeps", "sweep_z")),
    "sweep_blocklength": ("intlist", None, ("sweeps", "sweep_blocklength")),
    "output": ("str", None, ("spec", "output_path")),
}

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
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE
    traj_nodes: int = DEFAULT_TRAJECTORY_NODES
    p2: float | None = None
    sweeps: dict = field(default_factory=dict)
    output_path: str = "out.csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for name, least in (("blocklength", 1), ("n_ports", 1),
                            ("traj_nodes", 2)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        # `not x > 0`: a NaN fails every comparison, so it would pass
        # `x <= 0`
        if not self.aperture > 0:
            raise ValueError("aperture must be positive")
        if not 0.0 < self.rank_tolerance < 1.0:
            raise ValueError("rank_tolerance must lie in (0, 1)")
        if self.p2 is not None and not self.p2 > 0:
            raise ValueError("p2 must be positive")
        if self.command == "validate" and self.mc is None:
            raise ValueError("validate needs Monte Carlo settings (mc)")
        for name, pts in self.sweeps.items():
            if len(pts) < 1:
                raise ValueError(f"sweep axis {name} must have >= 1 point")
            if name in ("sweep_n_ports", "sweep_blocklength") and min(pts) < 1:
                raise ValueError(f"{name} entries must be >= 1")
            if name in ("sweep_aperture", "sweep_z") and min(pts) <= 0:
                raise ValueError(f"{name} entries must be positive")
            if name == "sweep_p2_dbm" and not all(
                    0.0 < _from_dbm(p) < math.inf for p in pts):
                raise ValueError(f"{name} entries must give a finite "
                                 "positive power in watts")
        # the payload needs a surrogate at each blocklength in use
        for l in sorted(set(_blocklengths(self))):
            try:
                _fbl(self, l)
            except ValueError as exc:
                raise ValueError(f"payload_bits = {self.ee.payload_bits!r} at "
                                 f"blocklength {l}: {exc}") from exc


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
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in lines:
            raise ConfigError(f"{key!r} is already set on line {lines[key]}",
                              lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        kind, dim, _ = _KEYS[key]
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

    # each section gets the fields the config names and nothing else; the
    # sweeps go in table order, which fixes the order their checks run in
    kwargs = {s: {} for s in ("scenario", "ee", "mc", "spec", "sweeps")}
    for key, (_, _, (section, name, *index)) in _KEYS.items():
        if key not in raw:
            continue
        value = raw[key]
        if index:
            # one end of a range; the other keeps the dataclass default,
            # which is the class attribute of the field (ranges are in ee)
            ends = list(kwargs[section].get(name, getattr(EeConfig, name)))
            ends[index[0]] = value
            value = tuple(ends)
        kwargs[section][name] = list(value) if section == "sweeps" else value
    try:
        scenario = ScenarioConfig(**kwargs["scenario"])
        ee = EeConfig(**kwargs["ee"])
        mc = (McConfig(**kwargs["mc"]) if kwargs["mc"] or command == "validate"
              else None)
        return ExperimentSpec(command, scenario, ee, mc,
                              sweeps=kwargs["sweeps"], **kwargs["spec"])
    except ValueError as exc:
        raise ConfigError(str(exc), line_of(str(exc))) from exc


def render(spec: ExperimentSpec) -> str:
    """Emit a flat config that parses back to the same spec (SI units): one
    line per key of the schema that has a value, in table order."""
    sections = {"scenario": vars(spec.scenario), "ee": vars(spec.ee),
                "mc": vars(spec.mc) if spec.mc else {}, "spec": vars(spec),
                "sweeps": spec.sweeps}
    out = []
    for key, (_, _, (section, name, *index)) in _KEYS.items():
        value = sections[section].get(name)
        if value is None:
            continue
        if index:
            value = value[index[0]]
        if isinstance(value, (tuple, list)):
            value = ", ".join(map(str, value))
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def _row_seed(base_seed: int, row_index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(row_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _row(spec: ExperimentSpec, z: float, **cols) -> dict:
    """One CSV row: the echoed inputs, the altitude z, then cols in order."""
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
        "uav_altitude_m": z,
        **cols,
    }


def _blocklengths(spec: ExperimentSpec) -> list[int]:
    """The blocklengths the spec's command evaluates."""
    if spec.command == "optimize":
        return list(spec.ee.l_set)
    if spec.command == "ee-contour":
        return list(spec.sweeps.get("sweep_blocklength", []))
    if spec.command == "ee-vs-ports":
        return list(spec.sweeps.get("sweep_blocklength", [spec.blocklength]))
    return [spec.blocklength]


def _fbl(spec: ExperimentSpec, blocklength: int):
    """Linearized finite-blocklength parameters of the spec's packet."""
    return linearize(spec.ee.payload_bits / blocklength, blocklength,
                     spec.chi_variant)


# the (spectra x powers x nodes) points one hop-2 pass of `_rows_analytic`
# evaluates at most: a (points x 16) float64 temporary of the kernel is then
# 128 KB, as a Monte Carlo chunk's buffers are
_PASS_POINTS = 1024


def _analytic_averages(ev: TrajectoryEvaluator, spectra, p2s):
    """The trajectory averages (end-to-end, hop 2, end-to-end asymptote) of
    the port spectra of one rank at the relay powers p2s, in one pass: one
    kernel and one asymptote call per link type cover every (spectrum,
    power, node) point, and each (spectrum, power) row is averaged on its
    own. Three (spectra, powers) arrays."""
    p2 = np.asarray(p2s, dtype=float)[:, None]
    lam = np.array([fas.lambdas for fas in spectra])[:, None, None, :]
    asym = ev.hop2_asymptotes(p2, lam)
    eps2 = ev.hop2_mixed(*ev.hop2_components(p2, lam, asym[0]))
    e2e_asym = ev.end_to_end(np.minimum(ev.hop2_mixed(*asym), 1.0))
    return tuple(ev.average(x) for x in (ev.end_to_end(eps2), eps2, e2e_asym))


def _rows_analytic(spec: ExperimentSpec, seed: int):
    """bler-sweep, validate and aperture-sweep: the analytic columns over
    ports x apertures x relay powers. bler-sweep and validate add the error
    floor, and validate adds one Monte Carlo estimate per row.

    The spectra of the sweep are evaluated in groups of equal rank n_eff,
    cut into passes of at most _PASS_POINTS (spectra x powers x nodes)
    points; a spectrum with more points than that runs alone. Every value
    has the bits of its spectrum's own evaluation (see the `blercore`
    module docstring), and the rows keep the sweep's order."""
    # (echoed dBm, evaluated watts): a p2 given in watts is evaluated as is
    if "sweep_p2_dbm" in spec.sweeps:
        powers = [(float(p), _from_dbm(p))
                  for p in spec.sweeps["sweep_p2_dbm"]]
    elif spec.p2 is not None:
        powers = [(_to_dbm(spec.p2), spec.p2)]
    else:
        raise ConfigError(f"{spec.command} requires p2 or sweep_p2_dbm")
    scn = spec.scenario
    ev = TrajectoryEvaluator(scn, _fbl(spec, spec.blocklength),
                             spec.traj_nodes)
    axes = [(int(n), float(w)) for n, w in product(
        spec.sweeps.get("sweep_n_ports", [spec.n_ports]),
        spec.sweeps.get("sweep_aperture", [spec.aperture]))]
    spectra = [fas_spectrum(n, w, spec.rank_tolerance) for n, w in axes]
    ranks = {}
    for i, fas in enumerate(spectra):
        ranks.setdefault(fas.n_eff, []).append(i)
    per_pass = max(1, _PASS_POINTS // (len(powers) * spec.traj_nodes))
    p2s = [p2 for _, p2 in powers]
    # spectrum index -> its (end-to-end, hop 2, asymptote) rows, one per power
    averages = {}
    for group in ranks.values():
        for k in range(0, len(group), per_pass):
            chunk = group[k:k + per_pass]
            columns = _analytic_averages(ev, [spectra[i] for i in chunk], p2s)
            averages.update(zip(chunk, zip(*(c.tolist() for c in columns))))
    hop1 = ev.hop1_avg()
    rows = []
    for i, ((n, w), fas) in enumerate(zip(axes, spectra)):
        for (p2_dbm, p2), analytic, hop2, e2e in zip(powers, *averages[i]):
            cols = dict(n_ports=n, aperture=w, blocklength=spec.blocklength,
                        p2_dbm=p2_dbm, n_eff=fas.n_eff,
                        bler_analytic=analytic, bler_hop1=hop1,
                        bler_hop2=hop2, bler_e2e_asym=e2e)
            if spec.command != "aperture-sweep":
                # the limit of the end-to-end BLER as the relay power grows
                cols["error_floor"] = hop1
            if spec.command == "validate":
                mc = replace(spec.mc, seed=_row_seed(seed, len(rows)))
                est = mc_average_bler(scn, fas, ev.fbl, p2, mc)
                cols.update(bler_mc=est.mean, bler_mc_se=est.std_error,
                            mc_trials=est.trials, mc_mode=mc.mode,
                            row_seed=mc.seed)
            rows.append(_row(spec, scn.uav_altitude, **cols))
    return rows, {}


def _rows_power_vs_altitude(spec: ExperimentSpec, seed: int):
    z_axis = [float(z) for z in spec.sweeps["sweep_z"]]
    fbl = _fbl(spec, spec.blocklength)
    # one evaluator per altitude, shared by its port counts
    tables = {}
    evs = {z: TrajectoryEvaluator(replace(spec.scenario, uav_altitude=z), fbl,
                                  spec.traj_nodes, tables) for z in z_axis}
    rows = []
    for n, z in product(spec.sweeps.get("sweep_n_ports", [spec.n_ports]),
                        z_axis):
        fas = fas_spectrum(int(n), spec.aperture, spec.rank_tolerance)
        found = min_power(evs[z], fas.lambdas, spec.ee)
        p2 = None if found is None else found[0]
        rows.append(_row(
            spec, z, n_ports=int(n), aperture=spec.aperture,
            blocklength=spec.blocklength, n_eff=fas.n_eff,
            feasible=p2 is not None, p2_star_w=p2,
            p2_star_dbm=None if p2 is None else _to_dbm(p2)))
    return rows, {}


def _rows_ee_vs_ports(spec: ExperimentSpec, seed: int):
    n_axis = spec.sweeps.get(
        "sweep_n_ports", range(spec.ee.n_range[0], spec.ee.n_range[1] + 1))
    trace = port_search_grid(
        spec.scenario, spec.ee, spec.aperture, _blocklengths(spec),
        [spec.scenario.uav_altitude], spec.rank_tolerance, spec.traj_nodes,
        spec.chi_variant, [int(n) for n in n_axis])
    return [_row(spec, res.z_u, n_ports=e.n_ports, aperture=spec.aperture,
                 blocklength=res.blocklength, feasible=e.feasible,
                 p2_star_dbm=_to_dbm(e.p2) if e.feasible else None,
                 eps_o=e.eps_o, ee_bits_per_joule=e.ee)
            for res in trace for e in res.entries], {}


def _port_search_row(spec: ExperimentSpec, res: PortSearchResult) -> dict:
    """The row of one port search at one (L, Z), shared by the ee-contour
    and optimize rows."""
    return _row(spec, res.z_u, blocklength=res.blocklength,
                aperture=spec.aperture, feasible=res.feasible,
                n_star=res.n_star,
                p2_star_dbm=_to_dbm(res.p2_star) if res.feasible else None,
                ee_bits_per_joule=res.ee_star)


def _rows_ee_contour(spec: ExperimentSpec, seed: int):
    return [_port_search_row(spec, res) for res in port_search_grid(
        spec.scenario, spec.ee, spec.aperture, _blocklengths(spec),
        spec.sweeps["sweep_z"], spec.rank_tolerance, spec.traj_nodes,
        spec.chi_variant)], {}


def _rows_optimize(spec: ExperimentSpec, seed: int):
    sol = global_optimize(spec.scenario, spec.ee, spec.aperture,
                          spec.rank_tolerance, spec.traj_nodes,
                          spec.chi_variant)
    rows = [dict(_port_search_row(spec, res),
                 is_optimum=(sol.feasible and res.feasible
                             and res.blocklength == sol.l_star
                             and res.z_u == sol.z_star))
            for res in sol.trace]
    summary = {"feasible": sol.feasible, "l_star": sol.l_star,
               "z_star": sol.z_star, "n_star": sol.n_star,
               "p2_star_w": sol.p2_star, "ee_star": sol.ee_star,
               "eps_star": sol.eps_star,
               "table_check_max_rel": sol.table_check_max_rel}
    return rows, summary


# command -> builder(spec, seed) -> (rows in CSV order, .meta summary)
_BUILDERS = {"bler-sweep": _rows_analytic, "validate": _rows_analytic,
             "aperture-sweep": _rows_analytic,
             "power-vs-altitude": _rows_power_vs_altitude,
             "ee-vs-ports": _rows_ee_vs_ports, "ee-contour": _rows_ee_contour,
             "optimize": _rows_optimize}

# command -> the sweep axes it cannot run without
_REQUIRED = {"aperture-sweep": ("sweep_aperture",),
             "power-vs-altitude": ("sweep_z",),
             "ee-contour": ("sweep_z", "sweep_blocklength")}


def run(spec: ExperimentSpec, seed: int | None = None,
        out_path: str | None = None) -> int:
    """Execute the experiment and write CSV plus a metadata sidecar.

    Returns 0 when every requested computation completed; infeasible
    optimization points are data, not errors.
    """
    path = out_path or spec.output_path
    base_seed = seed if seed is not None else (spec.mc or McConfig()).seed
    missing = [axis for axis in _REQUIRED.get(spec.command, ())
               if axis not in spec.sweeps]
    if missing:
        raise ConfigError(f"{spec.command} requires {' and '.join(missing)}")
    rows, summary = _BUILDERS[spec.command](spec, base_seed)

    if not rows:
        raise RuntimeError("no rows produced")
    header = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row[k]) for k in header])

    digest = hashlib.sha256(render(spec).encode("utf-8")).hexdigest()
    meta = {"command": spec.command, "config_sha256": digest,
            "seed": base_seed, "version": __version__, "rows": len(rows),
            **summary}
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {val}\n" for key, val in meta.items())
    return 0


def _format_cell(value):
    # csv.writer writes None as an empty cell and numbers by str(), which
    # gives repr(float(x)) for numpy floats too; only bools are spelled here
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _seed(text: str) -> int:
    """The --seed argument: an integer in McConfig's range, 0 <= seed < 2^64."""
    try:
        return McConfig(seed=int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
        cmd.add_argument("--seed", type=_seed, default=None,
                         help="override the base random seed")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = parse_config(fh.read(), args.command)
        return run(spec, seed=args.seed, out_path=args.out)
    except (FasRelayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
