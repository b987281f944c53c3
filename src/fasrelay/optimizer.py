"""Energy-efficiency model and the hierarchical search over
(blocklength, altitude, port count, transmit power).

The inner problem (minimum power meeting the reliability target) is solved
by a bracketed root search after an explicit monotonicity precheck; the
outer levels are exhaustive over their discrete grids, so no unimodality
assumption is ever exploited. Infeasible points carry a zero-EE sentinel
plus an explicit flag so that "zero goodput" and "constraint violating"
stay distinguishable.

Each power solve reads the end-to-end BLER by
`TrajectoryEvaluator.e2e_avg_tabulated`, hop 2 from the table pair of its
blocklength and spectrum (design and accuracy, about 1e-12 relative, in
`blercore`): the precheck its 10 powers in one call, whose lookups grow
the pair to the vartheta they reach, and the search one power per step.
The searches of `global_optimize` share one table dict: 96 tables on the
`optimize` preset, a pair per (L, N). The power found is then re-evaluated
by the direct kernel: that value is the one reported and used for the
efficiency, and a solve whose table value there is more than 1e-8
relative off it raises `TableAccuracyError`. The largest such gap of a
search is reported as `table_check_max_rel`.

The search from the precheck bracket is one ITP sequence (`_itp`) on
log eps against log power: regula falsi steps, truncated and projected so
that it never takes more steps than bisection plus one, and ends where
the bracket is at most bisect_tol wide relative to its feasible end. On the
`optimize` preset a solve makes 11.2 table lookups: one per link type for
the precheck, then one per link type at each of 4.59 powers, where a plain
bisection evaluates about 15.

`min_powers` solves the port counts of one port search (or of one
blocklength of `ee-vs-ports`) together, each step as it would alone. The
prechecks run one per port count, in order; then the ITP sequences advance
in lock-step, and each round reads the next power of every pending
sequence in one `e2e_avg_tabulated` call, whose table lookups go through
one barycentric pass per group of at most 1,280 points. On the `optimize`
preset the 116 searches of 12 solves each take 5 rounds, 580 in all, for
the 15,568 lookups of 1,392 solves, and the direct checks run as one
stacked `e2e_avg` per rank: 696 calls, not 1,392. Every value keeps the
bits of its solve alone. A solve that raises a `FasRelayError`, at its
precheck, at a table fill of a round or at its direct check, drops out;
once all are done the error of the smallest failing port count is
raised, as a loop over the port counts in order would raise it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blercore import (DEFAULT_TRAJECTORY_NODES, FblParams,
                       TrajectoryEvaluator, linearize)
from .chanmodel import DEFAULT_RANK_TOLERANCE, fas_spectrum
from .errors import (CausalityError, FasRelayError, MonotonicityError,
                     TableAccuracyError)
from .geometry import ScenarioConfig


@dataclass(frozen=True)
class EeConfig:
    """Constraint set and search grids for the energy-efficiency problem."""

    payload_bits: float = 80.0
    bandwidth: float = 1e7
    circuit_power: float = 10.0 ** -2.5   # 5 dBm
    switch_power: float = 1e-3            # 0 dBm
    port_time: float = 2e-6
    bler_threshold: float = 1e-3
    p_max: float = 10.0
    z_range: tuple[float, float] = (100.0, 800.0)
    l_set: tuple[int, ...] = (300, 400, 500, 600)
    n_range: tuple[int, int] = (1, 12)
    z_step: float = 10.0
    bisect_tol: float = 1e-4

    def __post_init__(self):
        # `not x > 0`: a NaN fails every comparison, so it would pass
        # `x <= 0`
        for name in ("payload_bits", "bandwidth"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("circuit_power", "switch_power"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.port_time > 0:
            raise ValueError("port_time must be positive")
        if not 0.0 < self.bler_threshold < 1.0:
            raise ValueError("bler_threshold must lie in (0, 1)")
        if not self.p_max > 0:
            raise ValueError("p_max must be positive")
        if not self.z_range[0] > 0:
            raise ValueError("z_min must be positive")
        if not self.z_range[0] < self.z_range[1]:
            raise ValueError("z_range must satisfy z_min < z_max")
        if not self.l_set:
            raise ValueError("l_set must be non-empty")
        if not all(float(l).is_integer() and l >= 1 for l in self.l_set):
            raise ValueError("l_set entries must be positive integers")
        if not (all(float(n).is_integer() for n in self.n_range)
                and 1 <= self.n_range[0] <= self.n_range[1]):
            raise ValueError("n_range must be integers with "
                             "1 <= n_min <= n_max")
        if not self.z_step > 0:
            raise ValueError("z_step must be positive")
        # below 2^-52, the largest spacing of doubles relative to the
        # larger one, a bracket of adjacent doubles may miss the tolerance;
        # from 2^-52 on, a solve looks up at most 55 powers after the
        # precheck
        if not 2.0 ** -52 <= self.bisect_tol < 1.0:
            raise ValueError("bisect_tol must lie in [2^-52, 1)")

    def altitude_grid(self) -> np.ndarray:
        z_min, z_max = self.z_range
        count = int(math.floor((z_max - z_min) / self.z_step + 1e-9)) + 1
        return z_min + self.z_step * np.arange(count)


def violates_causality(n_ports: int, port_time: float, blocklength: int,
                       bandwidth: float) -> bool:
    """True when port scanning cannot finish strictly inside the block.

    The comparison N * port_time < blocklength / bandwidth is evaluated in
    the scale-free form N * port_time * bandwidth < blocklength with a tiny
    relative guard, so exact boundary cases (scan time equal to the block)
    count as violations regardless of rounding in the float products.
    """
    return n_ports * port_time * bandwidth >= blocklength * (1.0 - 1e-12)


def energy_efficiency(payload_bits: float, eps_o: float, p2: float,
                      blocklength: int, bandwidth: float, n_ports: int,
                      port_time: float, circuit_power: float,
                      switch_power: float) -> float:
    """Successfully delivered bits per joule for one block.

    Energy = transmit power over the data portion of the block, static
    circuit power over the whole block, and switching power while the ports
    are scanned. Scanning must finish strictly before the block ends.
    """
    if not 0.0 <= eps_o <= 1.0:
        raise ValueError("eps_o must lie in [0, 1]")
    if p2 < 0:
        raise ValueError("p2 must be nonnegative")
    t_block = blocklength / bandwidth
    t_switch = n_ports * port_time
    if violates_causality(n_ports, port_time, blocklength, bandwidth):
        raise CausalityError(
            f"port scan time {t_switch:.3e}s must be below the block duration "
            f"{t_block:.3e}s (N={n_ports}, L={blocklength})")
    energy = p2 * (t_block - t_switch) + circuit_power * t_block + switch_power * t_switch
    return payload_bits * (1.0 - eps_o) / energy


_PRECHECK_POINTS = 10
_PRECHECK_SLACK = 1e-12
# Largest relative gap allowed between the tabulated and the direct
# end-to-end BLER at the power a solve returns.
_TABLE_CHECK_REL = 1e-8
# ITP constants (Oliveira & Takahashi 2020): the truncation scale kappa1
# over the initial log-width, the truncation exponent kappa2 and the slack
# n0 of steps over bisection's count
_ITP_KAPPA1 = 0.05
_ITP_KAPPA2 = 2.0
_ITP_N0 = 1


def _itp(threshold: float, lo: float, eps_lo: float, hi: float,
         eps_hi: float, bisect_tol: float):
    """The smallest feasible power of the bracket [lo, hi], lo infeasible
    (BLER eps_lo > threshold) and hi feasible (eps_hi <= threshold), to
    bisect_tol, as a generator: it yields each power to look up, takes its
    BLER by `send`, and returns (hi, eps_hi) once hi - lo <= bisect_tol * hi
    or after n_max powers.

    One ITP sequence (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on
    g = log(eps / threshold) against x = log p, about linear where the BLER
    is a power law. Each step takes the regula falsi point of the bracket
    [a, b] (its midpoint where eps_hi is 0, g = -inf), moves it toward the
    midpoint by kappa1 (b - a)^kappa2 and projects it into the midpoint's
    neighbourhood of radius e 2^(n_max - j) - (b - a) / 2, where
    2 e = -log1p(-bisect_tol) is the log-width at which hi - lo =
    bisect_tol * hi and n_max = ceil(log2((b0 - a0) / 2 e)) + n0 is
    bisection's step count plus n0. The power looked up replaces the end on
    its side of the threshold. Whatever the BLER, the bracket is at most
    2 e wide after n_max steps, so that cap binds only through the rounding
    of log p, which leaves hi - lo above bisect_tol * hi by at most 2e-8 of
    it (measured at bisect_tol = 1e-7).
    """
    a, b = math.log(lo), math.log(hi)
    two_eps = -math.log1p(-bisect_tol)
    kappa1 = _ITP_KAPPA1 / (b - a)
    n_max = math.ceil(math.log2((b - a) / two_eps)) + _ITP_N0
    ga = math.log(eps_lo / threshold)
    for j in range(n_max):
        if hi - lo <= bisect_tol * hi:
            break
        mid = 0.5 * (a + b)
        if eps_hi > 0.0:
            gb = math.log(eps_hi / threshold)
            x = (a * gb - b * ga) / (gb - ga)
        else:
            x = mid
        delta = kappa1 * (b - a) ** _ITP_KAPPA2
        side = math.copysign(1.0, mid - x)
        x = x + side * delta if delta <= abs(mid - x) else mid
        radius = 0.5 * two_eps * 2.0 ** (n_max - j) - 0.5 * (b - a)
        if abs(x - mid) > radius:
            x = mid - side * radius
        p = math.exp(x)
        eps = yield p
        if eps > threshold:
            a, lo, ga = x, p, math.log(eps / threshold)
        else:
            b, hi, eps_hi = x, p, eps
    return hi, eps_hi


def _rows(call, rows: list, errors: dict) -> list:
    """call(rows), one value per row; where it raises a `FasRelayError`,
    call([row]) for each row instead, a failing row's value None and its
    error in errors. A failed table fill changes no table, so a row read
    alone has the bits of its read in the whole call."""
    try:
        return list(call(rows))
    except FasRelayError:
        values = []
        for row in rows:
            try:
                values.append(call([row])[0])
            except FasRelayError as err:
                errors[row] = err
                values.append(None)
        return values


def _advance(search, eps):
    """The next power that the `_itp` search looks up after the BLER eps
    (None to start it), or its result: (power, None) or (None, result)."""
    try:
        return search.send(eps), None
    except StopIteration as stop:
        return None, stop.value


def min_powers(ev: TrajectoryEvaluator, spectra, ee: EeConfig) -> list:
    """The smallest transmit power in (0, p_max] that meets the reliability
    target on ev (scenario and blocklength) with each port spectrum of
    spectra, to within bisect_tol, solved together.

    The BLER is `ev.e2e_avg_tabulated`. Each spectrum's precheck reads its
    10 powers in one call, in the order of spectra, and checks that the
    BLER falls across them; its last infeasible and first feasible power
    bracket its search `_itp`. The searches then run in lock-step: each
    round reads the next power of every pending search in one call, row k
    of its power column against spectrum k. The powers found are
    re-evaluated by the direct kernel, one stacked call per rank. Returns
    one (power, direct BLER at power, relative gap of the tables there) per
    spectrum, or None where even p_max misses the target. The power meets
    the target on the tables, and on a BLER that falls with power,
    power * (1 - bisect_tol) does not. Each value has the bits of its
    spectrum's solve alone.

    A spectrum whose precheck, table fill or direct check raises a
    `FasRelayError` drops out, and once every spectrum is done the error of
    the first failing one in spectra is raised, as a loop over spectra in
    order would raise it.
    """
    grid = ee.p_max * np.logspace(-8.0, 0.0, _PRECHECK_POINTS)
    threshold = ee.bler_threshold
    results, errors, searches, powers = {}, {}, {}, {}
    for k, lambdas in enumerate(spectra):
        try:
            # a row's lookup and average are those of its power alone
            eps = ev.e2e_avg_tabulated(grid[:, None], lambdas).tolist()
            for i in range(len(eps) - 1):
                if eps[i + 1] > eps[i] + _PRECHECK_SLACK:
                    raise MonotonicityError(
                        "end-to-end BLER failed to decrease with transmit "
                        f"power: eps({grid[i]:.3e} W)={eps[i]:.6e} -> "
                        f"eps({grid[i + 1]:.3e} W)={eps[i + 1]:.6e}")
        except FasRelayError as err:
            errors[k] = err
            continue
        if eps[-1] > threshold:
            results[k] = None
        elif eps[0] <= threshold:
            results[k] = float(grid[0]), eps[0]
        else:
            i = max(i for i in range(len(eps)) if eps[i] > threshold)
            searches[k] = _itp(threshold, float(grid[i]), eps[i],
                               float(grid[i + 1]), eps[i + 1], ee.bisect_tol)
            powers[k], results[k] = _advance(searches[k], None)
    while powers:
        pending = list(powers)
        eps = _rows(lambda rows: ev.e2e_avg_tabulated(
            np.array([[powers[k]] for k in rows]),
            [spectra[k] for k in rows]).tolist(), pending, errors)
        powers = {}
        for k, e in zip(pending, eps):
            if e is not None:
                p, results[k] = _advance(searches[k], e)
                if p is not None:
                    powers[k] = p
    ranks = {}
    for k, found in results.items():
        if found is not None:
            ranks.setdefault(len(spectra[k]), []).append(k)
    for group in ranks.values():
        direct = _rows(lambda rows: ev.e2e_avg(
            np.array([results[k][0] for k in rows])[:, None],
            np.array([spectra[k] for k in rows], dtype=float)[:, None, :]
        ).tolist(), group, errors)
        for k, d in zip(group, direct):
            if d is None:
                continue
            hi, eps_hi = results[k]
            gap = abs(eps_hi - d) / max(d, np.finfo(float).tiny)
            if gap > _TABLE_CHECK_REL:
                errors[k] = TableAccuracyError(
                    f"tabulated end-to-end BLER {eps_hi:.12e} at {hi:.6e} W "
                    f"is {gap:.2e} relative off the direct value {d:.12e}")
            results[k] = hi, d, gap
    if errors:
        raise errors[min(errors)]
    return [results[k] for k in range(len(spectra))]


def min_power(ev: TrajectoryEvaluator, lambdas, ee: EeConfig):
    """`min_powers` of the one spectrum lambdas: (power, direct BLER at
    power, relative gap of the tables there), or None when even p_max
    misses the target."""
    return min_powers(ev, [lambdas], ee)[0]


@dataclass(frozen=True)
class PortEntry:
    """One port count's solve; table_check_rel is the table-vs-direct relative
    gap at the solved power (None when no power was solved)."""

    n_ports: int
    feasible: bool
    p2: float | None
    eps_o: float | None
    ee: float
    table_check_rel: float | None = None


def port_entries(ev: TrajectoryEvaluator, port_counts, aperture: float,
                 ee: EeConfig,
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE
                 ) -> tuple[PortEntry, ...]:
    """Causality cut, minimum-power solve and energy efficiency of each of
    port_counts ports at the given aperture on the scenario and blocklength
    of ev, one entry per port count in order. The admitted port counts are
    solved together by `min_powers`; a cut port count fills no table."""
    blocklength = ev.fbl.blocklength
    admitted = [n for n in port_counts if not violates_causality(
        n, ee.port_time, blocklength, ee.bandwidth)]
    found = dict(zip(admitted, min_powers(
        ev, [fas_spectrum(n, aperture, rank_tolerance).lambdas
             for n in admitted], ee)))
    entries = []
    for n in port_counts:
        if found.get(n) is None:
            entries.append(PortEntry(n_ports=n, feasible=False, p2=None,
                                     eps_o=None, ee=0.0))
            continue
        p2, eps_o, gap = found[n]
        val = energy_efficiency(ee.payload_bits, eps_o, p2, blocklength,
                                ee.bandwidth, n, ee.port_time,
                                ee.circuit_power, ee.switch_power)
        entries.append(PortEntry(n_ports=n, feasible=True, p2=p2,
                                 eps_o=eps_o, ee=val, table_check_rel=gap))
    return tuple(entries)


@dataclass(frozen=True)
class PortSearchResult:
    """Port-count search at one (blocklength, altitude): every port count's
    entry and the EE maximizer among the feasible ones."""

    blocklength: int
    z_u: float
    n_star: int | None
    p2_star: float | None
    ee_star: float
    feasible: bool
    entries: tuple[PortEntry, ...]

    @property
    def table_check_max_rel(self) -> float:
        """Largest table-vs-direct relative gap over the solved powers."""
        return max((e.table_check_rel for e in self.entries
                    if e.table_check_rel is not None),
                   default=0.0)


def best_port_count(cfg: ScenarioConfig, fbl: FblParams, ee: EeConfig,
                    z_u: float, aperture: float,
                    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
                    nodes: int = DEFAULT_TRAJECTORY_NODES,
                    tables=None) -> PortSearchResult:
    """Evaluate every admissible port count at fixed altitude and pick the
    EE maximizer. The correlation spectrum is rebuilt per N at the fixed
    aperture, so port spacing shrinks as ports are added."""
    z_u = float(z_u)
    ev = TrajectoryEvaluator(replace(cfg, uav_altitude=z_u), fbl, nodes,
                             tables)
    entries = port_entries(ev, range(ee.n_range[0], ee.n_range[1] + 1),
                           aperture, ee, rank_tolerance)
    feasible = [e for e in entries if e.feasible]
    if not feasible:
        return PortSearchResult(blocklength=fbl.blocklength, z_u=z_u,
                                n_star=None, p2_star=None, ee_star=0.0,
                                feasible=False, entries=entries)
    # max keeps the first maximizer, so ties go to the smaller N
    best = max(feasible, key=lambda e: e.ee)
    return PortSearchResult(blocklength=fbl.blocklength, z_u=z_u,
                            n_star=best.n_ports, p2_star=best.p2,
                            ee_star=best.ee, feasible=True, entries=entries)


@dataclass(frozen=True)
class EeSolution:
    """Outcome of the full hierarchical search; the trace holds the port
    search of every (L, Z) with all of its per-N entries.

    eps_star is the direct kernel's BLER at the optimum; table_check_max_rel
    is the largest table-vs-direct relative gap at any solved power.
    """

    l_star: int | None
    z_star: float | None
    n_star: int | None
    p2_star: float | None
    ee_star: float
    eps_star: float | None
    feasible: bool
    trace: tuple[PortSearchResult, ...]
    table_check_max_rel: float


def global_optimize(cfg: ScenarioConfig, ee: EeConfig, aperture: float,
                    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
                    nodes: int = DEFAULT_TRAJECTORY_NODES,
                    chi_variant: str = "2^R-1") -> EeSolution:
    """Exhaustive search over the blocklength set and the altitude grid,
    solving the port-count problem at every (L, Z). Grid search is kept
    deliberately assumption-free since EE versus altitude is not known to
    be unimodal. Ties break toward smaller (L, Z, N), which keeps the
    result invariant to the ordering of l_set."""
    fbls = [linearize(ee.payload_bits / int(l), int(l), chi_variant)
            for l in ee.l_set]
    grid = ee.altitude_grid()
    # best_port_count is called by its module-level name, so wrapping it
    # (a profiler, a tracer) sees every port search
    tables = {}
    trace = tuple(best_port_count(cfg, fbl, ee, z, aperture, rank_tolerance,
                                  nodes, tables)
                  for fbl in fbls for z in grid)
    table_rel = max((res.table_check_max_rel for res in trace), default=0.0)
    feasible = [res for res in trace if res.feasible]
    if not feasible:
        return EeSolution(l_star=None, z_star=None, n_star=None, p2_star=None,
                          ee_star=0.0, eps_star=None, feasible=False,
                          trace=trace, table_check_max_rel=table_rel)
    best = max(feasible, key=lambda r: (r.ee_star, -r.blocklength, -r.z_u,
                                        -r.n_star))
    # the winning entry's BLER is the direct kernel's value at p2_star
    eps_star = next(e.eps_o for e in best.entries if e.n_ports == best.n_star)
    return EeSolution(l_star=best.blocklength, z_star=best.z_u,
                      n_star=best.n_star, p2_star=best.p2_star,
                      ee_star=best.ee_star, eps_star=eps_star, feasible=True,
                      trace=trace, table_check_max_rel=table_rel)
