import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasrelay import (DegenerateGeometryError, ScenarioConfig, SnrScaleError,
                      TrajectoryEvaluator, avg_bler_hop1, fas_spectrum)
from fasrelay.geometry import SPEED_OF_LIGHT, trajectory_geometry

from conftest import direct_trajectory_geometry


def _bs_at(dx, dz, **fields):
    """Scenario whose BS sits dx metres short of the UAV along x and dz
    metres below it at theta = 0 (UAV at (50, 0, 100)), so the hop-1
    elevation there is atan2(dz, dx)."""
    return ScenarioConfig(bs_position=(50.0 - dx, 0.0, 100.0 - dz), **fields)


def _at_theta0(cfg):
    return trajectory_geometry(cfg, np.array([0.0]))


def _slant_range(cfg, theta, node):
    r = cfg.flight_radius
    return math.dist((r * math.cos(theta), r * math.sin(theta),
                      cfg.uav_altitude), node)


def _free_space(cfg, d, eta_db):
    amp = SPEED_OF_LIGHT / (4.0 * math.pi * cfg.carrier_freq * d)
    return amp * amp * 10.0 ** (-eta_db / 10.0)


def test_slant_ranges_reference_geometry(urban):
    geo = trajectory_geometry(urban, np.array([0.0, math.pi]))
    # UAV at (50, 0, 100), BS at (100, 0, 40), UE at (-100, 100, 0)
    assert geo.d1[0] == pytest.approx(math.sqrt(6100.0), rel=1e-12)
    assert geo.d2[0] == pytest.approx(math.sqrt(42500.0), rel=1e-12)
    assert geo.d2[1] == pytest.approx(150.0, rel=1e-12)


def test_slant_ranges_degenerate_endpoint():
    cfg = ScenarioConfig(bs_position=(50.0, 0.0, 100.0), uav_altitude=100.0)
    with pytest.raises(DegenerateGeometryError):
        trajectory_geometry(cfg, np.array([0.0]))


def test_evaluator_rejects_a_hop2_scale_outside_the_double_range(fbl100):
    # a UE 1e200 m away: beta2 underflows to 0 and m sigma^2 / beta2 is inf,
    # while hop 1 stays in range
    cfg = ScenarioConfig(ue_position=(-1e200, 100.0, 0.0))
    with pytest.raises(SnrScaleError, match="^hop-2 scale"):
        TrajectoryEvaluator(cfg, fbl100, nodes=16)


def test_a_height_whose_square_overflows_gives_an_infinite_range():
    # (uz - z)^2 past the double range is inf, so the slant range is inf and
    # the path gain 0; a finite square keeps the bits of the direct formula
    theta = np.array([0.0, 1.0])
    for cfg, hops in ((ScenarioConfig(uav_altitude=1e200), "12"),
                      (ScenarioConfig(bs_position=(0.0, 0.0, 1e200)), "1")):
        geo = trajectory_geometry(cfg, theta)
        for hop in hops:
            assert np.all(getattr(geo, "d" + hop) == math.inf)
            assert all(np.all(beta == 0.0)
                       for beta in getattr(geo, "beta" + hop).values())
    cfg = ScenarioConfig(uav_altitude=1e150)
    geo, ref = trajectory_geometry(cfg, theta), \
        direct_trajectory_geometry(cfg, theta)
    assert geo.d1.tolist() == ref["d1"].tolist()
    assert geo.d2.tolist() == ref["d2"].tolist()


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-10.0, 10.0))
def test_slant_ranges_periodic(theta):
    geo = trajectory_geometry(ScenarioConfig(),
                              np.array([theta, theta + 2.0 * math.pi]))
    assert geo.d1[0] == pytest.approx(geo.d1[1], rel=1e-9)
    assert geo.d2[0] == pytest.approx(geo.d2[1], rel=1e-9)


def test_slant_range_spread_bounded_by_diameter(urban):
    geo = trajectory_geometry(urban, np.linspace(0.0, 2.0 * math.pi, 721))
    assert geo.d1.max() - geo.d1.min() <= 2.0 * urban.flight_radius + 1e-9
    assert geo.d2.max() - geo.d2.min() <= 2.0 * urban.flight_radius + 1e-9


def test_elevation_angle_reference_values():
    def phi(dx, dz):
        return float(_at_theta0(_bs_at(dx, dz)).phi1[0])

    assert phi(0.0, 100.0) == pytest.approx(90.0)
    assert phi(math.sqrt(7500.0), 50.0) == pytest.approx(30.0)
    assert phi(math.sqrt(12500.0), 100.0) == pytest.approx(
        math.degrees(math.asin(2.0 / 3.0)), rel=1e-12)
    assert phi(math.sqrt(7500.0), -50.0) == pytest.approx(-30.0)


def test_los_probability_reference_values():
    a, b = 12.08, 0.11
    at_a = _at_theta0(_bs_at(100.0, 100.0 * math.tan(math.radians(a))))
    assert at_a.phi1[0] == pytest.approx(a, rel=1e-12)
    assert at_a.p_los1[0] == pytest.approx(1.0 / (1.0 + a), rel=1e-12)
    overhead = _at_theta0(_bs_at(0.0, 100.0))
    assert overhead.phi1[0] == 90.0
    # direct high-precision evaluations of the logistic form
    assert overhead.p_los1[0] == pytest.approx(
        1.0 / (1.0 + a * math.exp(-b * (90.0 - a))), rel=1e-15)
    assert overhead.p_los1[0] == pytest.approx(0.9977162, abs=5e-7)
    level = _at_theta0(_bs_at(100.0, 0.0))
    assert level.phi1[0] == 0.0
    assert level.p_los1[0] == pytest.approx(0.0214499, abs=5e-7)


@settings(max_examples=80, deadline=None)
@given(phi=st.floats(-90.0, 89.0), dphi=st.floats(0.001, 50.0))
def test_los_probability_monotone_in_elevation(phi, dphi):
    # BS and UE 100 m from the UAV at theta = 0, seen at elevations phi and hi
    hi = min(phi + dphi, 90.0)
    lo_rad, hi_rad = math.radians(phi), math.radians(hi)
    cfg = ScenarioConfig(
        bs_position=(50.0 - 100.0 * math.cos(lo_rad), 0.0,
                     100.0 - 100.0 * math.sin(lo_rad)),
        ue_position=(50.0 - 100.0 * math.cos(hi_rad), 0.0,
                     100.0 - 100.0 * math.sin(hi_rad)))
    geo = _at_theta0(cfg)
    assert geo.p_los1[0] <= geo.p_los2[0]


def test_path_loss_unit_distance_identity():
    # the BS right below a UAV flying at the unit-gain distance
    f_c = 2.5e9
    d = SPEED_OF_LIGHT / (4.0 * math.pi * f_c)
    cfg = ScenarioConfig(bs_position=(50.0, 0.0, 0.0), uav_altitude=d,
                         carrier_freq=f_c, eta_los=0.0)
    assert _at_theta0(cfg).beta1["los"][0] == pytest.approx(1.0, rel=1e-12)


def test_path_loss_reference_values():
    # free-space amplitude-squared at 100 m and 2.5 GHz
    ref = (SPEED_OF_LIGHT / (4.0 * math.pi * 2.5e9 * 100.0)) ** 2
    assert ref == pytest.approx(9.1063e-9, rel=1e-4)
    geo = _at_theta0(_bs_at(0.0, 100.0, carrier_freq=2.5e9, eta_los=0.0,
                               eta_nlos=1.6))
    assert geo.d1[0] == 100.0
    assert geo.beta1["los"][0] == pytest.approx(ref, rel=1e-14)
    assert geo.beta1["nlos"][0] == pytest.approx(ref * 10.0 ** -0.16, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(d=st.floats(1.0, 1e5), eta_lo=st.floats(0.0, 20.0),
       extra=st.floats(0.0, 30.0))
def test_path_loss_ordering_in_excess_loss(d, eta_lo, extra):
    cfg = ScenarioConfig(bs_position=(50.0, 0.0, 0.0), uav_altitude=d,
                         eta_los=eta_lo, eta_nlos=eta_lo + extra)
    geo = _at_theta0(cfg)
    assert geo.beta1["los"][0] >= geo.beta1["nlos"][0]


def test_elevation_increases_with_altitude(urban):
    phis = []
    for z in (60.0, 120.0, 300.0, 700.0):
        geo = trajectory_geometry(replace(urban, uav_altitude=z),
                                  np.array([0.7]))
        phis.append((geo.phi1[0], geo.phi2[0]))
    for (a1, a2), (b1, b2) in zip(phis, phis[1:]):
        assert b1 > a1
        assert b2 > a2


def test_link_state_hop1_fields(urban, fbl100):
    # hop 1 at every node: distance, gain, average SNR p1 beta / sigma^2 and
    # rate parameter m / gamma_bar, as the evaluator mixes them
    ev = TrajectoryEvaluator(urban, fbl100, nodes=16)
    geo = ev.geo
    eps1 = []
    for i, t in enumerate(ev.theta):
        d1 = _slant_range(urban, t, urban.bs_position)
        assert geo.d1[i] == pytest.approx(d1, rel=1e-14)
        per_type = []
        for lt in ("los", "nlos"):
            beta = _free_space(urban, d1, urban.eta_db(lt))
            assert geo.beta1[lt][i] == pytest.approx(beta, rel=1e-13)
            gamma_bar = urban.p1 * beta / urban.noise_power
            m = urban.nakagami_m(lt)
            per_type.append(avg_bler_hop1(fbl100, m / gamma_bar, m))
        p = geo.p_los1[i]
        eps1.append(p * per_type[0] + (1.0 - p) * per_type[1])
    assert ev.eps1_mixed == pytest.approx(np.array(eps1), rel=1e-12)


def test_link_state_probability_pairing(urban, fbl100):
    # the hop-2 LoS and NLoS probabilities sum to one at every node
    ev = TrajectoryEvaluator(urban, fbl100)
    ones = np.ones_like(ev.theta)
    assert ev.hop2_mixed(ones, ones) == pytest.approx(ones, abs=1e-14)


def test_link_state_hop2_vartheta_cancellation(urban, fbl100):
    # the eigenvalue sum cancels: vartheta2 = m * lam_sum / gamma_bar with
    # gamma_bar = p2 * beta * lam_sum / sigma^2 is m * sigma^2 / (p2 * beta)
    fas = fas_spectrum(2, 0.5)
    lam_sum = sum(fas.lambdas)
    p2 = 0.37
    ev = TrajectoryEvaluator(urban, fbl100, nodes=16)
    vt_los, _ = ev.hop2_varthetas(p2)
    for i, t in enumerate(ev.theta):
        beta = _free_space(urban, _slant_range(urban, t, urban.ue_position),
                           urban.eta_los)
        gamma_bar = p2 * beta * lam_sum / urban.noise_power
        assert vt_los[i] == pytest.approx(urban.m_los * lam_sum / gamma_bar,
                                          rel=1e-13)


def test_link_state_requires_spectrum_for_hop2(urban, fbl100):
    with pytest.raises(ValueError, match="lambdas"):
        TrajectoryEvaluator(urban, fbl100).e2e_avg(0.1, ())


def test_scenario_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        ScenarioConfig(m_los=0)
    with pytest.raises(ValueError):
        ScenarioConfig(eta_los=30.0, eta_nlos=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(flight_radius=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(uav_altitude=0.0)


def test_trajectory_geometry_matches_scalar_ops(urban):
    # per-angle scalar arithmetic as the reference for the array form
    thetas = np.linspace(0.0, 2.0 * math.pi, 17)
    geo = trajectory_geometry(urban, thetas)
    for i, t in enumerate(thetas):
        d1 = _slant_range(urban, t, urban.bs_position)
        d2 = _slant_range(urban, t, urban.ue_position)
        assert geo.d1[i] == pytest.approx(d1, rel=1e-14)
        assert geo.d2[i] == pytest.approx(d2, rel=1e-14)
        phi1 = math.degrees(math.asin(
            (urban.uav_altitude - urban.bs_position[2]) / d1))
        assert geo.phi1[i] == pytest.approx(phi1, rel=1e-12)
        p = 1.0 / (1.0 + urban.los_a * math.exp(-urban.los_b * (phi1 - urban.los_a)))
        assert geo.p_los1[i] == pytest.approx(p, rel=1e-12)
        for lt in ("los", "nlos"):
            assert geo.beta2[lt][i] == pytest.approx(
                _free_space(urban, d2, urban.eta_db(lt)), rel=1e-13)


def test_trajectory_geometry_in_place_matches_direct_formula(urban):
    # the input angles stay untouched, no two returned arrays share a
    # buffer, and every value has the bits of the reference's formulas
    for cfg in (urban, replace(urban, uav_altitude=450.0, flight_radius=120.0)):
        theta = np.random.default_rng(12).uniform(0.0, 2.0 * math.pi, 1_000)
        before = theta.copy()
        geo = trajectory_geometry(cfg, theta)
        assert np.array_equal(theta, before)
        got = {"d1": geo.d1, "d2": geo.d2, "phi1": geo.phi1, "phi2": geo.phi2,
               "p_los1": geo.p_los1, "p_los2": geo.p_los2}
        for hop, betas in (("1", geo.beta1), ("2", geo.beta2)):
            for lt in ("los", "nlos"):
                got[f"beta{hop}_{lt}"] = betas[lt]
        arrays = [theta, *got.values()]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        ref = direct_trajectory_geometry(cfg, theta)
        assert got.keys() == ref.keys()
        for name, ref_values in ref.items():
            assert np.array_equal(got[name], ref_values), name
    # a scalar angle is one angle
    one = trajectory_geometry(urban, 0.3)
    assert one.d1.shape == (1,)
    assert one.d1[0] == trajectory_geometry(urban, np.array([0.3])).d1[0]
