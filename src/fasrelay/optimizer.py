"""Energy-efficiency model and the hierarchical search over
(blocklength, altitude, port count, transmit power).

The inner problem (minimum power meeting the reliability target) is solved
by bisection after an explicit monotonicity precheck; the outer levels are
exhaustive over their discrete grids, so no unimodality assumption is ever
exploited. Infeasible points carry a zero-EE sentinel plus an explicit
flag so that "zero goodput" and "constraint violating" stay distinguishable.

Each power solve reads hop 2 from the cached table pair of its blocklength
and spectrum (`blercore.hop2_table`; the table design and its measured
accuracy, about 1e-12 relative, are in `blercore`), covered over the
vartheta its trajectory reaches on the precheck grid's powers: the
`optimize` preset fills one pair per (L, N), 96 tables. `Hop2Table.cover`
checks that a table rises with vartheta. The precheck and the bisection
combine the tables' values by `e2e_avg_from`, the precheck its 10 powers
in one lookup per link type and one call; a row's values and average are
the bits of its power's own. The power found is then re-evaluated by the
direct kernel: that value is the one reported and used for the
efficiency, and a solve whose table value there is more than 1e-8
relative off it raises `TableAccuracyError`. The largest such gap of a
search is reported as `table_check_max_rel`.

The bisection is certified rather than looked up step by step. One
Illinois sequence on log eps against log power (`_locate`) predicts the
crossing, and each round looks up a point of the bisection's path near it,
certifying powers whose tabulated BLER clears the threshold by the
relative margin delta = _CERTIFY_REL = 1e-6; the unchanged bisection is
then replayed, and only a midpoint between the nearest certificates is
looked up. The kernel falls with power and the tables hold it to within
1e-8 (about 1e-12 measured), so delta >> 2e-8 decides each comparison as a
lookup would, and every solve returns the bits of the plain bisection. On
the `optimize` preset a solve makes 11.7 table lookups: one per link type
for the precheck, then one per link type at each of 4.85 powers, where the
plain bisection evaluates 15.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blercore import (DEFAULT_TRAJECTORY_NODES, FblParams,
                       TrajectoryEvaluator, hop2_table, linearize)
from .chanmodel import DEFAULT_RANK_TOLERANCE, fas_spectrum
from .errors import CausalityError, MonotonicityError, TableAccuracyError
from .geometry import LINK_TYPES, ScenarioConfig


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
        for name in ("payload_bits", "bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("circuit_power", "switch_power"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.port_time <= 0:
            raise ValueError("port_time must be positive")
        if not 0.0 < self.bler_threshold < 1.0:
            raise ValueError("bler_threshold must lie in (0, 1)")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if self.z_range[0] <= 0:
            raise ValueError("z_min must be positive")
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
# Relative margin by which a tabulated BLER must clear the threshold to
# settle the bisection's comparison at every power on its far side.
_CERTIFY_REL = 1e-6


def _bisect(lo: float, hi: float, feasible, ee: EeConfig):
    """The bisection of a power solve from infeasible lo and feasible hi:
    halve until hi - lo <= bisect_tol * hi or for max_bisect_iters steps,
    keeping the half that feasible(mid) picks. Returns the final (lo, hi)."""
    for _ in range(ee.max_bisect_iters):
        if hi - lo <= ee.bisect_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _wanted_certificates(lo: float, hi: float, x: float, h: float,
                         ee: EeConfig):
    """On the bisection path from [lo, hi] to a crossing at log p = x, the
    last infeasible and the last feasible point at least h from x in log p
    (lo and hi when there is none)."""
    root = math.exp(x)
    below, above = [lo], [hi]

    def feasible(mid):
        (above if mid >= root else below).append(mid)
        return mid >= root

    _bisect(lo, hi, feasible, ee)
    return (max((p for p in below if p <= root * math.exp(-h)), default=lo),
            min((p for p in above if p >= root * math.exp(h)), default=hi))


def _log_ratio(eps: float, threshold: float) -> float:
    return math.log(eps / threshold) if eps > 0.0 else -math.inf


def _locate(table_eps, threshold: float, lo: float, hi: float, ee: EeConfig):
    """Certificates (p_a, p_b) for the bisection from the precheck bracket
    [lo, hi]: p_a is lo or the largest evaluated power whose tabulated BLER
    exceeds threshold * (1 + _CERTIFY_REL), p_b is hi or the smallest one
    whose BLER is at most threshold * (1 - _CERTIFY_REL).

    One Illinois sequence (Dowell & Jarratt, BIT 1971: regula falsi that
    halves the value of an end kept twice in a row) on g = log(eps /
    threshold) against x = log p, about linear where the BLER is a power
    law. Each round's Illinois point x (the bracket's midpoint when x is
    not strictly inside) predicts the crossing, and so the bisection's
    path; the certificates wanted are the points of that path nearest x
    but at least h = 2 _CERTIFY_REL / |slope| from it, where they clear
    the margin. The round looks up the wanted p_b while p_b is not
    certified, else the wanted p_a, and that power replaces the bracket's
    end on its side of the threshold. Stops when both are certified, when
    a round would look up the last round's power again, or after ten
    rounds.
    """
    upper = threshold * (1.0 + _CERTIFY_REL)
    lower = threshold * (1.0 - _CERTIFY_REL)
    p_a, p_b = lo, hi
    a, ga = math.log(lo), _log_ratio(table_eps(lo), threshold)
    b, gb = math.log(hi), _log_ratio(table_eps(hi), threshold)
    wa, wb = ga, gb                     # the ends' Illinois weights
    kept, p = 0, hi
    for _ in range(10):
        x = b - wb * (b - a) / (wb - wa)
        if not a < x < b:
            x = 0.5 * (a + b)
        h = 2.0 * _CERTIFY_REL * (b - a) / abs(gb - ga)
        q_a, q_b = _wanted_certificates(lo, hi, x, h, ee)
        if p_a >= q_a and p_b <= q_b:
            break
        q = q_b if p_b > q_b else q_a
        if q == p:
            break
        p = q
        eps = table_eps(p)
        if eps > upper:
            p_a = max(p_a, p)
        elif eps <= lower:
            p_b = min(p_b, p)
        y, g = math.log(p), _log_ratio(eps, threshold)
        if not a < y < b:
            continue
        if eps > threshold:
            a, ga, wa = y, g, g
            if kept < 0:
                wb *= 0.5
            kept = -1
        else:
            b, gb, wb = y, g, g
            if kept > 0:
                wa *= 0.5
            kept = 1
    return p_a, p_b


def min_power(ev: TrajectoryEvaluator, lambdas, ee: EeConfig):
    """Bisection for the smallest transmit power in (0, p_max] that meets
    the reliability target on ev (scenario and blocklength) with the port
    spectrum lambdas.

    The precheck and the bisection read hop 2 from the cached table pair
    of (ev.fbl, lambdas), covered over the vartheta of ev's trajectory on
    the precheck grid's powers, and combine it by `ev.e2e_avg_from` (its
    one LoS/NLoS mix and trajectory average), the precheck's in one call.
    The power found is re-evaluated by the direct kernel. Returns (power,
    direct BLER at power, relative gap of the tables there), or None when
    even p_max misses the target.

    The bisection is replayed against certificates from `_locate`: a
    midpoint at or above p_b is feasible and one at or below p_a is
    infeasible without a lookup, and one in between is looked up, with the
    bits of the plain bisection (see the module docstring). A final power
    never looked up is looked up once; above the threshold it raises
    `MonotonicityError`.
    """
    grid = ee.p_max * np.logspace(-8.0, 0.0, _PRECHECK_POINTS)
    pair = tuple(hop2_table(ev.fbl, ev.cfg.nakagami_m(lt), lambdas)
                 for lt in LINK_TYPES)
    # the precheck's (powers x nodes) varthetas, one lookup per link type;
    # a row's lookup and average are those of its power alone
    vts = ev.hop2_varthetas(grid[:, None])
    for table, vt in zip(pair, vts):
        table.cover(float(vt[-1].min()), float(vt[0].max()))
    eps = ev.e2e_avg_from(*(table(vt) for table, vt in zip(pair, vts))).tolist()
    known = dict(zip(grid.tolist(), eps))

    def table_eps(p2: float) -> float:
        if p2 not in known:
            known[p2] = ev.e2e_avg_from(*(table(vt) for table, vt
                                          in zip(pair, ev.hop2_varthetas(p2))))
        return known[p2]

    for i in range(len(eps) - 1):
        if eps[i + 1] > eps[i] + _PRECHECK_SLACK:
            raise MonotonicityError(
                "end-to-end BLER failed to decrease with transmit power: "
                f"eps({grid[i]:.3e} W)={eps[i]:.6e} -> "
                f"eps({grid[i + 1]:.3e} W)={eps[i + 1]:.6e}")
    threshold = ee.bler_threshold
    if eps[-1] > threshold:
        return None
    if eps[0] <= threshold:
        hi = float(grid[0])
    else:
        idx = max(i for i in range(len(eps)) if eps[i] > threshold)
        lo, hi = float(grid[idx]), float(grid[idx + 1])
        p_a, p_b = _locate(table_eps, threshold, lo, hi, ee)

        def feasible(mid: float) -> bool:
            if mid in known or p_a < mid < p_b:
                return table_eps(mid) <= threshold
            return mid >= p_b

        _, hi = _bisect(lo, hi, feasible, ee)
        if hi not in known and table_eps(hi) > threshold:
            raise MonotonicityError(
                "end-to-end BLER failed to decrease with transmit power: "
                f"eps({p_b:.6e} W) <= {threshold:.6e} * "
                f"(1 - {_CERTIFY_REL:g}) but eps({hi:.6e} W)="
                f"{known[hi]:.6e}")
    eps_hi = known[hi]
    direct = ev.e2e_avg(hi, lambdas)
    gap = abs(eps_hi - direct) / max(direct, np.finfo(float).tiny)
    if gap > _TABLE_CHECK_REL:
        raise TableAccuracyError(
            f"tabulated end-to-end BLER {eps_hi:.12e} at {hi:.6e} W is "
            f"{gap:.2e} relative off the direct value {direct:.12e}")
    return hi, direct, gap


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
    ports at the given aperture on the scenario and blocklength of ev. A
    cut port count fills no table."""
    blocklength = ev.fbl.blocklength
    infeasible = PortEntry(n_ports=n_ports, feasible=False, p2=None,
                           eps_o=None, ee=0.0)
    if violates_causality(n_ports, ee.port_time, blocklength, ee.bandwidth):
        return infeasible
    fas = fas_spectrum(n_ports, aperture, rank_tolerance)
    found = min_power(ev, fas.lambdas, ee)
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
    ev = TrajectoryEvaluator(replace(cfg, uav_altitude=z_u), fbl, nodes)
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
    fbls = [linearize(ee.payload_bits / int(l), int(l), chi_variant)
            for l in ee.l_set]
    grid = ee.altitude_grid()
    # best_port_count is called by its module-level name, so wrapping it
    # (a profiler, a tracer) sees every port search
    trace = tuple(best_port_count(cfg, fbl, ee, z, aperture, rank_tolerance,
                                  nodes)
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
