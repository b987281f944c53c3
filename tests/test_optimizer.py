import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fasrelay import (CausalityError, EeConfig, MonotonicityError,
                      ScenarioConfig, TableAccuracyError, TrajectoryEvaluator,
                      best_port_count, energy_efficiency, fas_spectrum,
                      global_optimize, linearize, min_power)
from fasrelay import blercore, optimizer
from fasrelay.cli import parse_config, run
from fasrelay.optimizer import violates_causality

from conftest import direct_min_power, solved_power


@pytest.fixture
def cfg46():
    """Urban scenario with the higher source power used by the power and
    efficiency studies."""
    return ScenarioConfig(p1=10.0 ** 1.6)


@pytest.fixture
def fbl200():
    return linearize(80.0 / 200.0, 200)


def test_energy_efficiency_hand_accounting():
    # B = 80 bits, L = 100 over 10 MHz -> 10 us block; N = 2 ports at 2 us
    # t_tx = 6 us; energy = 0.1*6e-6 + 3.1623e-3*1e-5 + 1e-3*4e-6
    val = energy_efficiency(80.0, 0.0, 0.1, 100, 1e7, 2, 2e-6,
                            10.0 ** -2.5, 1e-3)
    energy = 0.1 * 6e-6 + 10.0 ** -2.5 * 1e-5 + 1e-3 * 4e-6
    assert energy == pytest.approx(6.35623e-7, rel=1e-5)
    assert val == pytest.approx(80.0 / energy, rel=1e-12)
    assert val == pytest.approx(1.25861e8, rel=1e-5)


def test_energy_efficiency_zero_goodput():
    assert energy_efficiency(80.0, 1.0, 0.1, 100, 1e7, 2, 2e-6, 1e-3, 1e-3) == 0.0


def test_causality_violation_is_exact():
    # ten ports at 2 us exactly fill a 200-use block at 10 MHz
    assert violates_causality(10, 2e-6, 200, 1e7)
    assert not violates_causality(9, 2e-6, 200, 1e7)
    with pytest.raises(CausalityError):
        energy_efficiency(80.0, 0.0, 0.1, 200, 1e7, 10, 2e-6, 1e-3, 1e-3)


def test_min_power_infeasible_when_cap_misses(cfg46, fbl200):
    fas = fas_spectrum(1, 0.5)
    ee = EeConfig(p_max=1e-6, bler_threshold=1e-3)
    assert solved_power(cfg46, fas, fbl200, ee, 450.0) is None


def test_min_power_bracket_contract(cfg46, fbl200):
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3, bisect_tol=1e-4)
    p_star = solved_power(cfg46, fas, fbl200, ee, 450.0)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    at = ev.e2e_avg(p_star, fas.lambdas)
    below = ev.e2e_avg(p_star * (1.0 - 2.0 * ee.bisect_tol), fas.lambdas)
    assert at <= ee.bler_threshold < below


def test_min_power_matches_grid_scan_oracle(cfg46, fbl200):
    # 0.01 dB-resolution exhaustive scan as the independent reference
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3, bisect_tol=1e-4)
    p_star = solved_power(cfg46, fas, fbl200, ee, 450.0)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    grid_dbm = np.arange(0.0, 20.0, 0.01)
    feas = None
    for dbm_val in grid_dbm:
        p = 10.0 ** ((dbm_val - 30.0) / 10.0)
        if ev.e2e_avg(p, fas.lambdas) <= ee.bler_threshold:
            feas = p
            break
    assert feas is not None
    # scan resolution 0.01 dB ~ 0.23% relative; bisection must land inside
    assert p_star == pytest.approx(feas, rel=4e-3)


def test_feasible_set_monotone(cfg46, fbl200):
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3)
    p_star = solved_power(cfg46, fas, fbl200, ee, 450.0)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    for factor in (1.5, 4.0, 40.0):
        assert ev.e2e_avg(p_star * factor, fas.lambdas) <= ee.bler_threshold


def test_bler_strictly_decreasing_on_power_grid(cfg46, fbl200):
    # the precheck grid the bisection relies on
    fas = fas_spectrum(2, 0.5)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    grid = 10.0 * np.logspace(-8, 0, 10)
    eps = [ev.e2e_avg(p, fas.lambdas) for p in grid]
    for a, b in zip(eps, eps[1:]):
        assert b <= a + 1e-12


def test_min_power_matches_direct_bisection(cfg46):
    # the table-driven solve against the same bisection on direct kernel
    # calls: same feasibility, power within bisect_tol, and the reported
    # BLER is the direct value; p_max = 40 dBm (the presets') and 10 dBm,
    # where most of the grid is infeasible
    outcomes = {True: 0, False: 0}
    for p_max in (10.0, 1e-2):
        ee = EeConfig(p_max=p_max, bler_threshold=1e-3, bisect_tol=1e-4)
        for blocklength in (100, 300, 600):
            fbl = linearize(80.0 / blocklength, blocklength)
            for z in (100.0, 400.0, 800.0):
                ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl)
                for n in range(1, 13):
                    lambdas = fas_spectrum(n, 0.5).lambdas
                    want = direct_min_power(ev, lambdas, ee)
                    got = min_power(ev, lambdas, ee)
                    assert (got is None) == (want is None), (p_max, blocklength, z, n)
                    outcomes[want is None] += 1
                    if want is None:
                        continue
                    p2, eps, gap = got
                    assert p2 == pytest.approx(want[0], rel=ee.bisect_tol)
                    assert eps == ev.e2e_avg(p2, lambdas)
                    assert 0.0 <= gap <= 1e-8
    assert outcomes[True] > 0 and outcomes[False] > 0


# (blocklength, altitude, port count, p_max, (power, direct BLER, table gap)
# as float.hex) of solves on cfg46 at the default threshold and tolerance:
# the last one meets the target at the precheck grid's first power, 1 W
_PINNED_SOLVES = (
    (100, 100.0, 1, 10.0, ("0x1.7b05b0244dcbcp+1", "0x1.0624dd078a184p-10", "0x0.0p+0")),
    (100, 800.0, 12, 10.0, ("0x1.5ae09df4f2512p-5", "0x1.0624ce664acf1p-10", "0x1.7700152638a99p-51")),
    (300, 400.0, 4, 10.0, ("0x1.26019f062a839p-6", "0x1.0624dcade6bd1p-10", "0x1.f40000f66f3f3p-52")),
    (300, 100.0, 12, 10.0, ("0x1.60dee5de50d7cp-8", "0x1.0624dd2a64f9ep-10", "0x1.f4000008fb974p-53")),
    (600, 800.0, 1, 10.0, ("0x1.8981aeb87b0b4p-4", "0x1.0624b9cbf7d63p-10", "0x1.f400437ef74e8p-53")),
    (600, 400.0, 12, 10.0, ("0x1.8a0c8481be6c5p-9", "0x1.0624dd2d5ceb2p-10", "0x1.f4000003521dbp-52")),
    (600, 100.0, 4, 1e-2, ("0x1.af7fb6b03dcafp-8", "0x1.0624c8ebd44d7p-10", "0x1.f40026a5f3f57p-53")),
    (300, 400.0, 4, 1e8, ("0x1.0000000000000p+0", "0x1.5730858f6f51ep-19", "0x0.0p+0")),
)


def test_min_power_bits_are_pinned(cfg46):
    # a change to the solve's search must keep every bit it returns
    for blocklength, z, n, p_max, want in _PINNED_SOLVES:
        ee = EeConfig(p_max=p_max)
        ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z),
                                 linearize(80.0 / blocklength, blocklength))
        got = min_power(ev, fas_spectrum(n, 0.5).lambdas, ee)
        assert tuple(float.hex(float(x)) for x in got) == want, \
            (blocklength, z, n, p_max)


# port searches on cfg46 at aperture 0.5, (blocklength, altitude, p_max):
# three altitudes at L = 200 (N >= 10 cut by causality) and at L = 300,
# then one where N = 1-8 miss the target and one with both
_PORT_SEARCH_CASES = (
    (200, 150.0, 10.0), (200, 450.0, 10.0), (200, 750.0, 10.0),
    (300, 150.0, 10.0), (300, 450.0, 10.0), (300, 750.0, 10.0),
    (300, 450.0, 1e-2), (200, 450.0, 3e-2))


def _hex(x):
    return "None" if x is None else float.hex(float(x))


def _port_search_pins(blocklength, z, p_max):
    """n_star, feasible and every entry's fields of one port search, one
    line each, floats as float.hex."""
    res = best_port_count(ScenarioConfig(p1=10.0 ** 1.6),
                          linearize(80.0 / blocklength, blocklength),
                          EeConfig(p_max=p_max), z, 0.5)
    lines = [f"{res.n_star} {res.feasible} {_hex(res.p2_star)} "
             f"{_hex(res.ee_star)}"]
    lines += [f"{e.n_ports} {e.feasible} {_hex(e.p2)} {_hex(e.eps_o)} "
              f"{_hex(e.ee)} {_hex(e.table_check_rel)}" for e in res.entries]
    return "\n".join(lines)


def _ee_vs_ports_pins():
    """feasible, power, BLER and efficiency of every row of a reduced
    ee-vs-ports study (L = 200 and 300, N = 1-12, 32 nodes)."""
    from fasrelay.cli import _rows_ee_vs_ports
    spec = parse_config(
        "p1 = 46 dBm\nuav_altitude = 400\nsweep_blocklength = 200, 300\n"
        "sweep_n_ports = 1:12:12\ntraj_nodes = 32\np_max = 40 dBm\n",
        "ee-vs-ports")
    rows, _ = _rows_ee_vs_ports(spec, 0)
    return "\n".join(
        f"{r['blocklength']} {r['n_ports']} {r['feasible']} "
        f"{_hex(r['p2_star_dbm'])} {_hex(r['eps_o'])} "
        f"{_hex(r['ee_bits_per_joule'])}" for r in rows)


# sha256 of `_port_search_pins` per case of _PORT_SEARCH_CASES, then of
# `_ee_vs_ports_pins`
_PORT_SEARCH_DIGESTS = (
    "5eda96397d8906c9a46d328b3b0964f115ce5367d7abaa05de6fe5e9edec038a",
    "7cbf00ebe916f46d47bbe303f9d67a79f18cf4031ad93698a8e5540a6c3cd8e7",
    "62e5c33c394a3b48cb6de090f321980bb32ebea424bb4d26270f59f2f1ecb27e",
    "5c9f0f1dbf10db8b08faee9c6459a41365f20d15c00970501f2f8fb7706fd365",
    "7f2883f0c1a4f968e085926debc1c5ae660a216ede8c1982cdf0d0c02b9d7173",
    "4ad8ec0ca13a576fd978798e744bc13ac81352801e7195219f9f02aae2cb5061",
    "ab5051e2b0cf8a9e3f6b2469017902e751f66222192369065a927c962bb7ce86",
    "f601831d91831c036ccdd82b67aecfb45eca438535fe38a41bf1f35fce2ff1b9",
)
_EE_VS_PORTS_DIGEST = (
    "5d9cff760f2b0b9e2592536edb7a7ddc232fd0ab18778e0b586541cf2a12474d")


def test_port_search_bits_are_pinned():
    # a change to how a search solves its port counts must keep every bit
    # of every entry, of the optimum and of ee-vs-ports
    for case, want in zip(_PORT_SEARCH_CASES, _PORT_SEARCH_DIGESTS):
        pins = _port_search_pins(*case)
        assert hashlib.sha256(pins.encode()).hexdigest() == want, (case, pins)
    pins = _ee_vs_ports_pins()
    assert hashlib.sha256(pins.encode()).hexdigest() == _EE_VS_PORTS_DIGEST, \
        pins


def test_min_power_rejects_falling_hop2_table(cfg46, fbl200, monkeypatch):
    kernel = blercore.avg_bler_hop2

    def wavy(params, vartheta, m2, lambdas):
        # not monotone in vartheta
        vt = np.asarray(vartheta, dtype=float)
        return kernel(params, vt, m2, lambdas) * (1.0 + 0.5 * np.sin(20.0 * np.log(vt)))

    monkeypatch.setattr(blercore, "avg_bler_hop2", wavy)
    with pytest.raises(MonotonicityError, match="table"):
        solved_power(cfg46, fas_spectrum(4, 0.5), fbl200,
                     EeConfig(p_max=10.0), 450.0)


def test_min_power_rejects_rising_precheck(cfg46, fbl200, monkeypatch):
    # end-to-end BLER that grows with power on the precheck grid: one minus
    # the tabulated hop-2 values, which fall with power; one value per row
    # of (powers x nodes) arrays, as e2e_avg_from gives
    monkeypatch.setattr(blercore.TrajectoryEvaluator, "e2e_avg_from",
                        lambda self, e2_los, e2_nlos:
                        1.0 - e2_los.mean(axis=-1))
    with pytest.raises(MonotonicityError, match="decrease"):
        solved_power(cfg46, fas_spectrum(4, 0.5), fbl200,
                     EeConfig(p_max=10.0), 450.0)


def test_min_power_checks_table_against_direct(cfg46, fbl200, monkeypatch):
    # a table 1e-6 off the kernel fails the check at the solved power
    read = blercore._read_tables
    monkeypatch.setattr(blercore, "_read_tables",
                        lambda tables, vt: read(tables, vt) * (1.0 - 1e-6))
    with pytest.raises(TableAccuracyError):
        solved_power(cfg46, fas_spectrum(4, 0.5), fbl200,
                     EeConfig(p_max=10.0), 450.0)


def _failing_solves(monkeypatch, precheck=None, round_fill=None,
                    direct=None):
    """Patch the solve of port count precheck to fail at its precheck's
    table fill and that of round_fill at a table fill of its first
    lock-step round (each read of its tables after the precheck), both
    with a `MonotonicityError` naming N, and that of direct at its direct
    check (`TableAccuracyError`: each direct BLER of its rank 1e-6 off)."""
    failing = {fas_spectrum(n, 0.5).lambdas: (n, first_read)
               for n, first_read in ((precheck, True), (round_fill, False))
               if n is not None}
    grow, read = blercore.Hop2Table._grow, set()

    def failing_grow(self, s_lo, s_hi):
        n, first_read = failing.get(self._lambdas, (None, False))
        if n is not None and (first_read or self in read):
            raise MonotonicityError(f"hop-2 BLER table of N = {n} fails")
        read.add(self)
        grow(self, s_lo, s_hi)

    monkeypatch.setattr(blercore.Hop2Table, "_grow", failing_grow)
    if direct is not None:
        rank = fas_spectrum(direct, 0.5).n_eff
        e2e_avg = blercore.TrajectoryEvaluator.e2e_avg

        def off(self, p2, lambdas):
            eps = e2e_avg(self, p2, lambdas)
            return eps * (1.0 + 1e-6) if np.shape(lambdas)[-1] == rank else eps

        monkeypatch.setattr(blercore.TrajectoryEvaluator, "e2e_avg", off)


def test_a_port_search_raises_the_error_of_its_smallest_failing_port_count(
        cfg46, fbl200, monkeypatch):
    # each port count's solve records its result or its error, and the
    # search raises the error of the smallest failing N, as a loop over N
    # in order would. N = 7 fails first in time, at a table fill of its
    # first lock-step round, and N = 3 last, at its direct check: N = 3's
    # error is raised, with its message. A fill failure charged to its
    # whole round, or to the round's first row, would raise N = 7's
    ee = EeConfig(p_max=10.0, n_range=(1, 9))

    def search():
        return best_port_count(cfg46, fbl200, ee, 450.0, 0.5)

    with monkeypatch.context() as patch:
        _failing_solves(patch, round_fill=7, direct=3)
        ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
        with pytest.raises(TableAccuracyError) as alone:
            min_power(ev, fas_spectrum(3, 0.5).lambdas, ee)
        with pytest.raises(TableAccuracyError) as err:
            search()
        assert str(err.value) == str(alone.value)
    # (failing solves, the error raised: its class, or a MonotonicityError
    # naming its N)
    for failing, raised in (
            (dict(round_fill=7), "N = 7"),
            (dict(precheck=5, direct=2), TableAccuracyError),
            (dict(precheck=2, round_fill=5, direct=1), TableAccuracyError),
            (dict(precheck=2, round_fill=5), "N = 2"),
            (dict(precheck=6, round_fill=4), "N = 4")):
        with monkeypatch.context() as patch:
            _failing_solves(patch, **failing)
            if isinstance(raised, str):
                with pytest.raises(MonotonicityError, match=raised):
                    search()
            else:
                with pytest.raises(raised):
                    search()
    assert search().feasible


def test_best_port_count_singleton(cfg46, fbl200):
    ee = EeConfig(p_max=10.0, n_range=(4, 4))
    res = best_port_count(cfg46, fbl200, ee, 450.0, 0.5)
    assert res.feasible
    assert res.n_star == 4
    assert len(res.entries) == 1


def test_best_port_count_matches_enumeration(cfg46, fbl200):
    ee = EeConfig(p_max=10.0, n_range=(1, 6))
    res = best_port_count(cfg46, fbl200, ee, 450.0, 0.5)
    # independent enumeration over the same grid
    best_ee = 0.0
    best_n = None
    for n in range(1, 7):
        fas = fas_spectrum(n, 0.5)
        p2 = solved_power(cfg46, fas, fbl200, ee, 450.0)
        if p2 is None:
            continue
        eps = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0),
                                  fbl200).e2e_avg(p2, fas.lambdas)
        val = energy_efficiency(ee.payload_bits, eps, p2, 200, ee.bandwidth,
                                n, ee.port_time, ee.circuit_power,
                                ee.switch_power)
        if val > best_ee:
            best_ee, best_n = val, n
    assert res.n_star == best_n
    assert res.ee_star == pytest.approx(best_ee, rel=1e-9)


def test_best_port_count_excludes_causality_violations(cfg46, fbl200):
    ee = EeConfig(p_max=10.0, n_range=(1, 12))
    res = best_port_count(cfg46, fbl200, ee, 450.0, 0.5)
    for entry in res.entries:
        if entry.n_ports >= 10:
            assert not entry.feasible
            assert entry.ee == 0.0


def _enumerate_altitudes(cfg, fbl, ee, aperture):
    """Port search at every altitude of the grid and the first EE maximizer
    among the feasible ones (ties to the lower altitude)."""
    searches = [best_port_count(cfg, fbl, ee, float(z), aperture)
                for z in ee.altitude_grid()]
    best = None
    for res in searches:
        if res.feasible and (best is None or res.ee_star > best.ee_star):
            best = res
    return searches, best


def test_global_optimize_singleton_grid(cfg46, fbl200):
    ee = EeConfig(p_max=10.0, n_range=(2, 2), z_range=(400.0, 401.0),
                  z_step=10.0, l_set=(200,))
    sol = global_optimize(cfg46, ee, 0.5)
    assert sol.feasible
    assert (sol.l_star, sol.z_star, sol.n_star) == (200, 400.0, 2)
    assert len(sol.trace) == 1
    assert sol.trace[0] == best_port_count(cfg46, fbl200, ee, 400.0, 0.5)


def test_global_optimize_altitude_argmax(cfg46, fbl200):
    ee = EeConfig(p_max=10.0, n_range=(2, 2), z_range=(200.0, 600.0),
                  z_step=100.0, l_set=(200,))
    sol = global_optimize(cfg46, ee, 0.5)
    searches, best = _enumerate_altitudes(cfg46, fbl200, ee, 0.5)
    assert sol.feasible
    assert sol.trace == tuple(searches)
    assert sol.z_star == best.z_u
    assert sol.ee_star == best.ee_star
    assert all(sol.ee_star >= res.ee_star for res in searches)


def test_global_optimize_singleton_reduces_to_altitude_search(cfg46):
    ee = EeConfig(p_max=10.0, n_range=(1, 4), z_range=(300.0, 500.0),
                  z_step=100.0, l_set=(300,))
    sol = global_optimize(cfg46, ee, 0.5)
    fbl = linearize(80.0 / 300.0, 300)
    _, best = _enumerate_altitudes(cfg46, fbl, ee, 0.5)
    assert sol.feasible and best is not None
    assert sol.l_star == 300
    assert (sol.z_star, sol.n_star) == (best.z_u, best.n_star)
    assert (sol.p2_star, sol.ee_star) == (best.p2_star, best.ee_star)


def test_global_optimize_trace_and_self_consistency(cfg46):
    ee = EeConfig(p_max=10.0, n_range=(1, 3), z_range=(300.0, 500.0),
                  z_step=100.0, l_set=(300, 400))
    sol = global_optimize(cfg46, ee, 0.5)
    assert len(sol.trace) == 2 * 3  # two lengths, three altitudes
    assert [(res.blocklength, res.z_u) for res in sol.trace] == \
        [(l, z) for l in (300, 400) for z in (300.0, 400.0, 500.0)]
    # every port count's entry stays in the trace
    assert all([e.n_ports for e in res.entries] == [1, 2, 3]
               for res in sol.trace)
    assert sol.feasible
    # eps_star is the winning entry's BLER, which is the direct kernel's
    # value at the optimum
    win = next(res for res in sol.trace
               if (res.blocklength, res.z_u) == (sol.l_star, sol.z_star))
    entry = win.entries[sol.n_star - ee.n_range[0]]
    assert entry.n_ports == sol.n_star and entry.p2 == sol.p2_star
    assert sol.eps_star == entry.eps_o
    direct = TrajectoryEvaluator(replace(cfg46, uav_altitude=sol.z_star),
                                 linearize(80.0 / sol.l_star, sol.l_star))
    assert sol.eps_star == direct.e2e_avg(
        sol.p2_star, fas_spectrum(sol.n_star, 0.5).lambdas)
    assert sol.table_check_max_rel == max(res.table_check_max_rel
                                          for res in sol.trace)
    # re-evaluating the EE at the returned tuple reproduces ee_star
    val = energy_efficiency(ee.payload_bits, sol.eps_star, sol.p2_star,
                            sol.l_star, ee.bandwidth, sol.n_star,
                            ee.port_time, ee.circuit_power, ee.switch_power)
    assert val == pytest.approx(sol.ee_star, rel=1e-12)
    assert sol.eps_star <= ee.bler_threshold
    assert 0.0 <= sol.table_check_max_rel <= 1e-8
    assert not violates_causality(sol.n_star, ee.port_time, sol.l_star,
                                  ee.bandwidth)


def test_best_port_count_shared_tables_change_nothing(cfg46, table_fills):
    # port searches on one table dict that the searches at other altitudes
    # grew, in rising and in falling altitude order, against searches on
    # fresh tables: equal entries, table_check_rel included, and tables
    # filled for the admissible port counts only
    ee = EeConfig(p_max=10.0, n_range=(1, 12), l_set=(200,))
    fbl = linearize(80.0 / 200.0, 200)
    altitudes = (150.0, 450.0, 750.0)
    own = {}
    for z in altitudes:
        own[z] = best_port_count(cfg46, fbl, ee, z, 0.5)
        assert any(e.feasible for e in own[z].entries)
    admissible = [n for n in range(1, 13)
                  if not violates_causality(n, ee.port_time, 200, ee.bandwidth)]
    for order in (altitudes, altitudes[::-1]):
        tables = {}
        del table_fills[:]
        for z in order:
            got = best_port_count(cfg46, fbl, ee, z, 0.5, tables=tables)
            assert got == own[z], (order, z)
        assert {args[2] for args in table_fills} == {
            fas_spectrum(n, 0.5).lambdas for n in admissible}
        assert len(tables) == 2 * len(admissible)
    # falling altitudes lower the smallest vartheta: the tables grew
    assert len(table_fills) > 2 * len(admissible)


def test_a_study_fills_tables_of_its_own(tmp_path, table_fills):
    # the power-vs-altitude preset run twice in one process: each run fills
    # its 4 tables (N = 1 and 8, both link types) from empty, so the second
    # reads nothing that the first grew, and writes the same bytes
    preset = Path(__file__).resolve().parent.parent / "configs" / \
        "power_vs_altitude.conf"
    spec = parse_config(preset.read_text(), "power-vs-altitude")
    out = tmp_path / "pva.csv"
    written = []
    for _ in range(2):
        del table_fills[:]
        assert run(spec, out_path=str(out)) == 0
        assert len(set(table_fills)) == len(table_fills) == 4
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_min_power_takes_a_list_or_an_array_spectrum(cfg46, fbl200):
    # the tabulated read keys a spectrum by its tuple; a list or an array
    # raised TypeError (unhashable) there
    cfg = replace(cfg46, uav_altitude=450.0)
    want = min_power(TrajectoryEvaluator(cfg, fbl200), (2.0,), EeConfig())
    assert want is not None
    for lam in ([2.0], np.array([2.0])):
        assert min_power(TrajectoryEvaluator(cfg, fbl200), lam,
                         EeConfig()) == want


@pytest.fixture
def table_fills(monkeypatch):
    """The (params, m2, lambdas) of the table of every kernel fill that a
    `Hop2Table` lookup makes while the test runs."""
    fills = []
    grow = blercore.Hop2Table._grow

    def counted(self, s_lo, s_hi):
        nodes = self.nodes
        grow(self, s_lo, s_hi)
        if self.nodes is not nodes:
            fills.append((self._params, self._m2, self._lambdas))

    monkeypatch.setattr(blercore.Hop2Table, "_grow", counted)
    return fills


@pytest.fixture
def table_lookups(monkeypatch):
    """The table of every `Hop2Table` lookup made while the test runs: one
    per table that a `_read_tables` pass reads, whether for one table's
    call or for the rows of an evaluator's read."""
    lookups = []
    read = blercore._read_tables

    def counted(tables, vartheta):
        lookups.extend(tables)
        return read(tables, vartheta)

    monkeypatch.setattr(blercore, "_read_tables", counted)
    return lookups


def _expected_solve(ev, lambdas, ee):
    """The plain table-driven bisection's solve, as `min_power` reports
    one: its power, the direct BLER there and the gap of its tabulated
    BLER to the direct one."""
    want = direct_min_power(ev, lambdas, ee, tabulated=True)
    if want is None:
        return None
    p2, eps_table = want
    direct = ev.e2e_avg(p2, lambdas)
    return p2, direct, abs(eps_table - direct) / max(direct, np.finfo(float).tiny)


def _search_bound(ee):
    """ITP's bound on the powers a solve looks up after the precheck,
    ceil(log2(log(hi0 / lo0) / w)) + 1 with w = -log1p(-bisect_tol) for
    the precheck bracket [lo0, hi0]."""
    grid = ee.p_max * np.logspace(-8.0, 0.0, 10)
    width = float(np.max(np.diff(np.log(grid))))
    return math.ceil(math.log2(width / -math.log1p(-ee.bisect_tol))) + 1


def _solve_and_check(ev, lambdas, ee, table_lookups):
    """min_power on ev and lambdas against the plain table bisection
    `_expected_solve`: the same feasibility; a power that meets the target
    on the tables, within bisect_tol of the plain one; the direct BLER
    there and the tables' gap to it; at most `_search_bound` powers after
    the precheck, two lookups each. Returns the lookups after the precheck
    of the plain bisection (one per power there) and of min_power (one
    per link type), and whether the target is met."""
    del table_lookups[:]
    want = _expected_solve(ev, lambdas, ee)
    plain = len(table_lookups) - 2 * 10
    del table_lookups[:]
    got = min_power(ev, lambdas, ee)
    looked_up = len(table_lookups) - 2
    case = (ee, ev.fbl.blocklength, ev.cfg.uav_altitude, len(lambdas))
    assert (got is None) == (want is None), case
    assert looked_up <= 2 * _search_bound(ee), (looked_up, case)
    if got is None:
        return plain, looked_up, False
    p2, eps, gap = got
    tabulated = ev.e2e_avg_tabulated(p2, lambdas)
    assert tabulated <= ee.bler_threshold, case
    assert abs(p2 - want[0]) <= ee.bisect_tol * max(p2, want[0]), case
    assert eps == ev.e2e_avg(p2, lambdas)
    assert gap == abs(tabulated - eps) / max(eps, np.finfo(float).tiny)
    return plain, looked_up, True


def test_min_power_meets_the_table_bisection_contract(cfg46, table_lookups):
    # the ITP search against the plain table bisection, with at most half
    # its lookups after the precheck. The presets' tolerance gets its own
    # bound, since the 1e-7 cases dominate the sum over all cases
    looked_up = {"plain": 0, "itp": 0}
    presets_regime = {"plain": 0, "itp": 0}
    outcomes = {True: 0, False: 0}
    cases = [EeConfig(p_max=p_max, bler_threshold=thr, bisect_tol=tol)
             for p_max in (10.0, 1e-2) for thr in (1e-2, 1e-3, 1e-5)
             for tol in (1e-4, 1e-7)]
    altitudes = (100.0, 400.0, 800.0)
    for blocklength in (100, 300, 600):
        fbl = linearize(80.0 / blocklength, blocklength)
        for z in altitudes:
            ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl)
            for n in range(1, 13):
                lambdas = fas_spectrum(n, 0.5).lambdas
                for ee in cases:
                    plain, itp, met = _solve_and_check(ev, lambdas, ee,
                                                       table_lookups)
                    outcomes[met] += 1
                    looked_up["plain"] += plain
                    looked_up["itp"] += itp
                    if ee.bisect_tol == 1e-4:
                        presets_regime["plain"] += plain
                        presets_regime["itp"] += itp
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert looked_up["itp"] <= 0.5 * looked_up["plain"], looked_up
    assert presets_regime["itp"] <= 0.45 * presets_regime["plain"], \
        presets_regime


def test_min_power_on_a_staircase_bler(cfg46, fbl200, monkeypatch,
                                       table_lookups):
    # a BLER flat between quarter-decade steps: the regula falsi point
    # sees no slope there, and the threshold 1e-3 is one of the steps
    e2e_avg_from = blercore.TrajectoryEvaluator.e2e_avg_from

    def staircase(self, e2_los, e2_nlos):
        # elementwise, so (powers x nodes) arrays get one value per row
        eps = e2e_avg_from(self, e2_los, e2_nlos)
        return 10.0 ** (np.ceil(4.0 * np.log10(eps)) / 4.0)

    monkeypatch.setattr(blercore.TrajectoryEvaluator, "e2e_avg_from",
                        staircase)
    for thr in (1e-3, 3e-3):
        ee = EeConfig(p_max=10.0, bler_threshold=thr)
        for z in (100.0, 400.0, 800.0):
            ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl200)
            for n in (1, 4, 8):
                lambdas = fas_spectrum(n, 0.5).lambdas
                assert _solve_and_check(ev, lambdas, ee, table_lookups)[2]


def test_min_power_on_a_bler_that_reaches_zero(cfg46, fbl200, monkeypatch,
                                               table_lookups):
    # a BLER that drops to exactly 0 below 1e-3: log(eps / threshold) is
    # -inf at a feasible end, so the regula falsi point is not finite
    e2e_avg_from = blercore.TrajectoryEvaluator.e2e_avg_from

    def cut(self, e2_los, e2_nlos):
        # elementwise, so (powers x nodes) arrays get one value per row
        eps = e2e_avg_from(self, e2_los, e2_nlos)
        return eps * (eps >= 1e-3)

    monkeypatch.setattr(blercore.TrajectoryEvaluator, "e2e_avg_from", cut)
    for thr in (1e-3, 5e-4, 2e-3):
        ee = EeConfig(p_max=10.0, bler_threshold=thr)
        for z in (100.0, 400.0, 800.0):
            ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl200)
            for n in (1, 4, 8):
                lambdas = fas_spectrum(n, 0.5).lambdas
                assert _solve_and_check(ev, lambdas, ee, table_lookups)[2]


def test_min_power_threshold_equal_to_a_grid_bler(cfg46, fbl200):
    # the target is met with equality at a precheck power
    ee = EeConfig(p_max=10.0)
    grid = ee.p_max * np.logspace(-8.0, 0.0, 10)
    for z, n in ((100.0, 1), (400.0, 4), (800.0, 8)):
        ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl200)
        lambdas = fas_spectrum(n, 0.5).lambdas
        eps = [ev.e2e_avg_tabulated(p, lambdas) for p in grid]
        k = next(i for i, e in enumerate(eps) if e < 0.5)
        tied = replace(ee, bler_threshold=eps[k])
        want = _expected_solve(ev, lambdas, tied)
        assert want is not None and want[0] <= grid[k]
        assert min_power(ev, lambdas, tied) == want


def test_min_power_at_the_smallest_tolerance(cfg46, fbl200, table_lookups):
    # below 2^-52 a bracket of adjacent doubles may miss the tolerance; at
    # 2^-52 ITP's own bound, 55 powers from the precheck bracket, ends it
    with pytest.raises(ValueError, match="bisect_tol"):
        EeConfig(bisect_tol=2.0 ** -53)
    ee = EeConfig(p_max=10.0, bisect_tol=2.0 ** -52)
    assert _search_bound(ee) == 55
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    for n in (1, 4, 12):
        del table_lookups[:]
        lambdas = fas_spectrum(n, 0.5).lambdas
        p2 = min_power(ev, lambdas, ee)[0]
        # two lookups per power, one per link type
        assert 0 < len(table_lookups) - 2 <= 2 * 55, n
        assert ev.e2e_avg_tabulated(p2, lambdas) <= ee.bler_threshold


def test_min_power_infeasible_looks_up_only_the_precheck(cfg46, fbl200,
                                                         table_lookups):
    ee = EeConfig(p_max=1e-6, bler_threshold=1e-3)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=450.0), fbl200)
    assert min_power(ev, fas_spectrum(1, 0.5).lambdas, ee) is None
    assert len(table_lookups) == 2


def test_min_power_met_at_the_first_grid_power_skips_the_search(
        cfg46, table_lookups, monkeypatch):
    def no_search(*args):
        raise AssertionError("no search when the first power meets the target")

    monkeypatch.setattr(optimizer, "_itp", no_search)
    ee = EeConfig(p_max=1e8)
    ev = TrajectoryEvaluator(replace(cfg46, uav_altitude=400.0),
                             linearize(80.0 / 300.0, 300))
    p2, _, _ = min_power(ev, fas_spectrum(4, 0.5).lambdas, ee)
    assert p2 == ee.p_max * 1e-8
    assert len(table_lookups) == 2


def test_global_optimize_fills_one_table_pair_per_l_and_n(cfg46, table_fills):
    ee = EeConfig(p_max=10.0, n_range=(1, 3), z_range=(200.0, 600.0),
                  z_step=100.0, l_set=(300, 400))
    sol = global_optimize(cfg46, ee, 0.5)
    assert len(sol.trace) == 2 * 5
    # 2 blocklengths x 3 port counts x 2 link types, not one pair per solve
    assert len(table_fills) == 2 * 3 * 2


def test_power_vs_altitude_fills_one_table_pair_per_port_count(tmp_path,
                                                              table_fills):
    spec = parse_config(
        "p1 = 46 dBm\nblocklength = 200\nsweep_z = 200, 400, 600\n"
        "sweep_n_ports = 1, 8\ntraj_nodes = 32\np_max = 40 dBm\n",
        "power-vs-altitude")
    assert run(spec, out_path=str(tmp_path / "z.csv")) == 0
    # 2 port counts x 2 link types for the whole altitude sweep
    assert len(table_fills) == 2 * 2
    assert {args[2] for args in table_fills} == {
        fas_spectrum(n, 0.5).lambdas for n in (1, 8)}


def test_ee_vs_ports_fills_no_table_for_a_cut_port_count(tmp_path,
                                                         table_fills):
    # at L = 200 the scan of 10 or more ports outlasts the block
    spec = parse_config(
        "p1 = 46 dBm\nuav_altitude = 400\nsweep_blocklength = 200\n"
        "sweep_n_ports = 8, 9, 10, 11\ntraj_nodes = 32\np_max = 40 dBm\n",
        "ee-vs-ports")
    assert run(spec, out_path=str(tmp_path / "n.csv")) == 0
    assert len(table_fills) == 2 * 2
    assert {args[2] for args in table_fills} == {
        fas_spectrum(n, 0.5).lambdas for n in (8, 9)}


def test_direct_checks_run_the_los_kernel_on_few_nodes(tmp_path,
                                                      monkeypatch):
    # the benchmark's optimize study at 400 m (L = 300, N = 1..12): each
    # solve checks its table against one direct evaluation, where the NLoS
    # kernel runs at every node and the LoS kernel only where its asymptote
    # and its integrand at rho_h both leave it a bit of the mix (128 of
    # 1,536; 1,152 by the asymptote alone)
    points, direct = {}, []
    kernel = blercore.avg_bler_hop2
    components = blercore.TrajectoryEvaluator.hop2_components

    def counted(params, vartheta2, m2, lambdas):
        if direct:
            points[m2] = points.get(m2, 0) + np.size(vartheta2)
        return kernel(params, vartheta2, m2, lambdas)

    def checked(self, *args):
        direct.append(True)
        try:
            return components(self, *args)
        finally:
            direct.pop()

    monkeypatch.setattr(blercore, "avg_bler_hop2", counted)
    monkeypatch.setattr(blercore.TrajectoryEvaluator, "hop2_components",
                        checked)
    spec = parse_config(
        "aperture = 0.5\np1 = 46 dBm\nbler_threshold = 1e-3\n"
        "p_max = 40 dBm\nn_min = 1\nn_max = 12\nz_min = 400\n"
        "z_max = 410\nz_step = 20\nl_set = 300\n", "optimize")
    assert run(spec, out_path=str(tmp_path / "o.csv")) == 0
    all_points = 12 * 128
    # m_los = 5, m_nlos = 1
    assert points[1] == all_points
    assert 0 < points[5] <= 0.125 * all_points


def test_global_optimize_order_invariant(cfg46):
    base = dict(p_max=10.0, n_range=(1, 3), z_range=(300.0, 500.0),
                z_step=100.0)
    a = global_optimize(cfg46, EeConfig(l_set=(300, 400), **base), 0.5)
    b = global_optimize(cfg46, EeConfig(l_set=(400, 300), **base), 0.5)
    assert (a.l_star, a.z_star, a.n_star) == (b.l_star, b.z_star, b.n_star)
    assert a.ee_star == pytest.approx(b.ee_star, rel=1e-14)


def test_global_optimize_all_infeasible_flag(cfg46):
    ee = EeConfig(p_max=1e-9, n_range=(1, 2), z_range=(300.0, 400.0),
                  z_step=100.0, l_set=(300,))
    sol = global_optimize(cfg46, ee, 0.5)
    assert not sol.feasible
    assert sol.ee_star == 0.0
    assert sol.l_star is None
    assert len(sol.trace) == 2
    assert all(not res.feasible and res.ee_star == 0.0 for res in sol.trace)
    assert all(len(res.entries) == 2 for res in sol.trace)


def test_ee_config_validation():
    with pytest.raises(ValueError):
        EeConfig(bler_threshold=0.0)
    with pytest.raises(ValueError):
        EeConfig(z_range=(500.0, 100.0))
    with pytest.raises(ValueError):
        EeConfig(l_set=())
    with pytest.raises(ValueError):
        EeConfig(n_range=(0, 4))
