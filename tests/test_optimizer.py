from dataclasses import replace

import numpy as np
import pytest

from fasrelay import (CausalityError, EeConfig, MonotonicityError,
                      ScenarioConfig, TableAccuracyError, best_port_count,
                      energy_efficiency, fas_spectrum, global_optimize,
                      linearize, min_power, trajectory_avg_bler)
from fasrelay import blercore
from fasrelay.blercore import TrajectoryEvaluator
from fasrelay.optimizer import _min_power_on, violates_causality

from conftest import direct_min_power


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
    assert min_power(cfg46, fas, fbl200, ee, 450.0) is None


def test_min_power_bracket_contract(cfg46, fbl200):
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3, bisect_tol=1e-4)
    p_star = min_power(cfg46, fas, fbl200, ee, 450.0)
    scn = replace(cfg46, uav_altitude=450.0)
    at = trajectory_avg_bler(scn, fas, fbl200, p_star).value
    below = trajectory_avg_bler(scn, fas, fbl200,
                                p_star * (1.0 - 2.0 * ee.bisect_tol)).value
    assert at <= ee.bler_threshold < below


def test_min_power_matches_grid_scan_oracle(cfg46, fbl200):
    # 0.01 dB-resolution exhaustive scan as the independent reference
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3, bisect_tol=1e-4)
    p_star = min_power(cfg46, fas, fbl200, ee, 450.0)
    scn = replace(cfg46, uav_altitude=450.0)
    grid_dbm = np.arange(0.0, 20.0, 0.01)
    feas = None
    for dbm_val in grid_dbm:
        p = 10.0 ** ((dbm_val - 30.0) / 10.0)
        if trajectory_avg_bler(scn, fas, fbl200, p).value <= ee.bler_threshold:
            feas = p
            break
    assert feas is not None
    # scan resolution 0.01 dB ~ 0.23% relative; bisection must land inside
    assert p_star == pytest.approx(feas, rel=4e-3)


def test_feasible_set_monotone(cfg46, fbl200):
    fas = fas_spectrum(8, 0.5)
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3)
    p_star = min_power(cfg46, fas, fbl200, ee, 450.0)
    scn = replace(cfg46, uav_altitude=450.0)
    for factor in (1.5, 4.0, 40.0):
        assert trajectory_avg_bler(scn, fas, fbl200, p_star * factor).value \
            <= ee.bler_threshold


def test_bler_strictly_decreasing_on_power_grid(cfg46, fbl200):
    # the precheck grid the bisection relies on
    fas = fas_spectrum(2, 0.5)
    scn = replace(cfg46, uav_altitude=450.0)
    grid = 10.0 * np.logspace(-8, 0, 10)
    eps = [trajectory_avg_bler(scn, fas, fbl200, p).value for p in grid]
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
                base = TrajectoryEvaluator(replace(cfg46, uav_altitude=z), fbl)
                for n in range(1, 13):
                    ev = base.with_spectrum(fas_spectrum(n, 0.5))
                    want = direct_min_power(ev, ee)
                    got = _min_power_on(ev, ee)
                    assert (got is None) == (want is None), (p_max, blocklength, z, n)
                    outcomes[want is None] += 1
                    if want is None:
                        continue
                    p2, eps, gap = got
                    assert p2 == pytest.approx(want[0], rel=ee.bisect_tol)
                    assert eps == ev.e2e_avg(p2)
                    assert 0.0 <= gap <= 1e-8
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_min_power_rejects_falling_hop2_table(cfg46, fbl200, monkeypatch):
    kernel = blercore.avg_bler_hop2

    def wavy(params, vartheta, m2, lambdas):
        # not monotone in vartheta
        vt = np.asarray(vartheta, dtype=float)
        return kernel(params, vt, m2, lambdas) * (1.0 + 0.5 * np.sin(20.0 * np.log(vt)))

    monkeypatch.setattr(blercore, "avg_bler_hop2", wavy)
    with pytest.raises(MonotonicityError, match="table"):
        min_power(cfg46, fas_spectrum(4, 0.5), fbl200, EeConfig(p_max=10.0),
                  450.0)


def test_min_power_rejects_rising_precheck(cfg46, fbl200, monkeypatch):
    # end-to-end BLER that grows with power on the precheck grid
    monkeypatch.setattr(blercore.TabulatedEvaluator, "e2e_avg",
                        lambda self, p2: min(1.0, 1e-3 * p2))
    with pytest.raises(MonotonicityError, match="decrease"):
        min_power(cfg46, fas_spectrum(4, 0.5), fbl200, EeConfig(p_max=10.0),
                  450.0)


def test_min_power_checks_table_against_direct(cfg46, fbl200, monkeypatch):
    # a table 1e-6 off the kernel fails the check at the solved power
    interpolate = blercore.Hop2Table._interpolate
    monkeypatch.setattr(blercore.Hop2Table, "_interpolate",
                        lambda self, vt: interpolate(self, vt) * (1.0 - 1e-6))
    with pytest.raises(TableAccuracyError):
        min_power(cfg46, fas_spectrum(4, 0.5), fbl200, EeConfig(p_max=10.0),
                  450.0)


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
        p2 = min_power(cfg46, fas, fbl200, ee, 450.0)
        if p2 is None:
            continue
        scn = replace(cfg46, uav_altitude=450.0)
        eps = trajectory_avg_bler(scn, fas, fbl200, p2).value
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
                                 linearize(80.0 / sol.l_star, sol.l_star),
                                 fas_spectrum(sol.n_star, 0.5))
    assert sol.eps_star == direct.e2e_avg(sol.p2_star)
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
