"""Energy-efficiency model and the hierarchical search over
(blocklength, altitude, port count, transmit power).

The inner problem (minimum power meeting the reliability target) is solved
by bisection after an explicit monotonicity precheck; the outer levels are
exhaustive over their discrete grids, so no unimodality assumption is ever
exploited. Infeasible points carry a zero-EE sentinel plus an explicit
flag so that "zero goodput" and "constraint violating" stay distinguishable.

Each power solve builds one hop-2 table per link type over the precheck
grid's power range (`blercore.TabulatedEvaluator`; the table design and
its measured accuracy, about 1e-12 relative, are in `blercore`). The
tables' sampled values must rise with vartheta, and the precheck and the
bisection read the end-to-end BLER from them. The power found is then
re-evaluated by the direct kernel: that value is the one reported and used
for the efficiency, and a solve whose table value there is more than 1e-8
relative off it raises `TableAccuracyError`. The largest such gap of a
search is reported as `table_check_max_rel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blercore import (DEFAULT_TRAJECTORY_NODES, FblParams,
                       TabulatedEvaluator, TrajectoryEvaluator, linearize)
from .chanmodel import DEFAULT_RANK_TOLERANCE, fas_spectrum
from .errors import CausalityError, MonotonicityError, TableAccuracyError
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
    max_bisect_iters: int = 60

    def __post_init__(self):
        if self.payload_bits <= 0 or self.bandwidth <= 0:
            raise ValueError("payload_bits and bandwidth must be positive")
        if self.circuit_power < 0 or self.switch_power < 0:
            raise ValueError("static powers must be nonnegative")
        if self.port_time <= 0:
            raise ValueError("port_time must be positive")
        if not 0.0 < self.bler_threshold < 1.0:
            raise ValueError("bler_threshold must lie in (0, 1)")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if not self.z_range[0] < self.z_range[1]:
            raise ValueError("z_range must satisfy z_min < z_max")
        if not self.l_set:
            raise ValueError("l_set must be non-empty")
        if any(int(l) != l or l < 1 for l in self.l_set):
            raise ValueError("l_set entries must be positive integers")
        if self.n_range[0] < 1 or self.n_range[1] < self.n_range[0]:
            raise ValueError("n_range must satisfy 1 <= n_min <= n_max")
        if self.z_step <= 0:
            raise ValueError("z_step must be positive")
        if not 0.0 < self.bisect_tol < 1.0:
            raise ValueError("bisect_tol must lie in (0, 1)")
        if self.max_bisect_iters < 1:
            raise ValueError("max_bisect_iters must be positive")

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


def _check_monotone(table) -> None:
    falls = np.flatnonzero(np.diff(table.values) < -_PRECHECK_SLACK)
    if falls.size:
        i = falls[0]
        raise MonotonicityError(
            "hop-2 BLER table failed to increase with vartheta: "
            f"eps({table.nodes[i]:.3e})={table.values[i]:.6e} -> "
            f"eps({table.nodes[i + 1]:.3e})={table.values[i + 1]:.6e}")


def _min_power_on(ev: TrajectoryEvaluator, ee: EeConfig):
    """Bisection for the smallest feasible transmit power on a prepared
    evaluator.

    The precheck and the bisection read hop 2 from the evaluator's tables
    over the precheck grid's power range; the power found is re-evaluated by
    the direct kernel. Returns (power, direct bler at power, relative gap of
    the table there) or None when infeasible.
    """
    grid = ee.p_max * np.logspace(-8.0, 0.0, _PRECHECK_POINTS)
    tab = TabulatedEvaluator(ev, float(grid[0]), float(grid[-1]))
    for table in tab.tables:
        _check_monotone(table)
    eps = [tab.e2e_avg(p) for p in grid]
    for i in range(len(eps) - 1):
        if eps[i + 1] > eps[i] + _PRECHECK_SLACK:
            raise MonotonicityError(
                "end-to-end BLER failed to decrease with transmit power: "
                f"eps({grid[i]:.3e} W)={eps[i]:.6e} -> "
                f"eps({grid[i + 1]:.3e} W)={eps[i + 1]:.6e}")
    if eps[-1] > ee.bler_threshold:
        return None
    if eps[0] <= ee.bler_threshold:
        hi, eps_hi = float(grid[0]), eps[0]
    else:
        idx = max(i for i in range(len(eps)) if eps[i] > ee.bler_threshold)
        lo, hi = float(grid[idx]), float(grid[idx + 1])
        eps_hi = eps[idx + 1]
        for _ in range(ee.max_bisect_iters):
            if hi - lo <= ee.bisect_tol * hi:
                break
            mid = 0.5 * (lo + hi)
            e_mid = tab.e2e_avg(mid)
            if e_mid <= ee.bler_threshold:
                hi, eps_hi = mid, e_mid
            else:
                lo = mid
    direct = ev.e2e_avg(hi)
    gap = abs(eps_hi - direct) / max(direct, np.finfo(float).tiny)
    if gap > _TABLE_CHECK_REL:
        raise TableAccuracyError(
            f"tabulated end-to-end BLER {eps_hi:.12e} at {hi:.6e} W is "
            f"{gap:.2e} relative off the direct value {direct:.12e}")
    return hi, direct, gap


def min_power(cfg: ScenarioConfig, fas, fbl: FblParams, ee: EeConfig,
              z_u: float, nodes: int = DEFAULT_TRAJECTORY_NODES):
    """Smallest transmit power in (0, p_max] meeting the reliability target
    at altitude z_u, or None when even p_max misses it."""
    scenario = replace(cfg, uav_altitude=float(z_u))
    ev = TrajectoryEvaluator(scenario, fbl, fas, nodes)
    found = _min_power_on(ev, ee)
    return None if found is None else found[0]


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


def port_entry(ev: TrajectoryEvaluator, n_ports: int, aperture: float,
               ee: EeConfig,
               rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> PortEntry:
    """Causality cut, minimum-power solve and energy efficiency of n_ports
    ports on the scenario and blocklength of ev (its spectrum is replaced
    by the n_ports spectrum at the given aperture)."""
    blocklength = ev.fbl.blocklength
    infeasible = PortEntry(n_ports=n_ports, feasible=False, p2=None,
                           eps_o=None, ee=0.0)
    if violates_causality(n_ports, ee.port_time, blocklength, ee.bandwidth):
        return infeasible
    fas = fas_spectrum(n_ports, aperture, rank_tolerance)
    found = _min_power_on(ev.with_spectrum(fas), ee)
    if found is None:
        return infeasible
    p2, eps_o, gap = found
    val = energy_efficiency(ee.payload_bits, eps_o, p2, blocklength,
                            ee.bandwidth, n_ports, ee.port_time,
                            ee.circuit_power, ee.switch_power)
    return PortEntry(n_ports=n_ports, feasible=True, p2=p2, eps_o=eps_o,
                     ee=val, table_check_rel=gap)


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
                    nodes: int = DEFAULT_TRAJECTORY_NODES) -> PortSearchResult:
    """Evaluate every admissible port count at fixed altitude and pick the
    EE maximizer. The correlation spectrum is rebuilt per N at the fixed
    aperture, so port spacing shrinks as ports are added."""
    z_u = float(z_u)
    ev = TrajectoryEvaluator(replace(cfg, uav_altitude=z_u), fbl, None, nodes)
    entries = tuple(port_entry(ev, n, aperture, ee, rank_tolerance)
                    for n in range(ee.n_range[0], ee.n_range[1] + 1))
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
    trace = []
    for l in ee.l_set:
        fbl = linearize(ee.payload_bits / int(l), int(l), chi_variant)
        trace.extend(best_port_count(cfg, fbl, ee, z, aperture,
                                     rank_tolerance, nodes)
                     for z in ee.altitude_grid())
    trace = tuple(trace)
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
