import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from fasrelay import (ScenarioConfig, TrajectoryEvaluator, avg_bler_hop1,
                      avg_bler_hop2, avg_bler_hop2_asymptotic, chebyshev_nodes,
                      fas_spectrum, instantaneous_bler, linearize)
from fasrelay import MonotonicityError, blercore
from fasrelay.blercore import (Hop2Table, _GL16, _GL32, _GRADED, _branch_cdf,
                               _Mixture, _node_table, _saturation_z)
from fasrelay.cli import _fbl, parse_config
from fasrelay.geometry import LINK_TYPES, trajectory_geometry

from conftest import (avg_bler_hop2_all_factors, exact_avg_bler, normal_rate,
                      plain_instantaneous_bler, quad_hop1, quad_hop2)


# ---------------------------------------------------------------------------
# linearization constants
# ---------------------------------------------------------------------------

def test_linearize_reference_values():
    p = linearize(0.8, 100)
    # direct evaluation of the defining formulas
    tau = 2.0 ** 0.8 - 1.0
    chi = 1.0 / math.sqrt(2.0 * math.pi * tau / 100.0)
    assert p.tau == pytest.approx(tau, rel=1e-15)
    assert p.chi == pytest.approx(chi, rel=1e-15)
    assert p.tau == pytest.approx(0.7411011, abs=5e-8)
    assert p.chi == pytest.approx(4.6341633, abs=5e-8)
    assert p.rho_l == pytest.approx(0.6332068, abs=5e-8)
    assert p.rho_h == pytest.approx(0.8489955, abs=5e-8)


def test_linearize_width_identity():
    for rate, length in ((0.5, 64), (1.0, 100), (2.0, 300), (0.8, 100)):
        p = linearize(rate, length)
        assert p.rho_h - p.rho_l == pytest.approx(1.0 / p.chi, rel=1e-12)
        assert p.payload_bits == pytest.approx(rate * length)


def test_linearize_unit_rate():
    assert linearize(1.0, 100).tau == pytest.approx(1.0, rel=1e-15)


def test_linearize_clamps_lower_edge():
    p = linearize(0.0004, 2000)
    assert p.rho_l == 0.0
    assert p.rho_h > 0.0
    assert p.tau - 1.0 / (2.0 * p.chi) < 0.0


def test_linearize_slope_variant():
    p_alt = linearize(0.8, 100, chi_variant="2^2R-1")
    chi_alt = 1.0 / math.sqrt(2.0 * math.pi * (2.0 ** 1.6 - 1.0) / 100.0)
    assert p_alt.chi == pytest.approx(chi_alt, rel=1e-15)
    assert p_alt.tau == pytest.approx(2.0 ** 0.8 - 1.0, rel=1e-15)  # tau unchanged
    with pytest.raises(ValueError):
        linearize(0.8, 100, chi_variant="bogus")


# ---------------------------------------------------------------------------
# rate and instantaneous error probability
# ---------------------------------------------------------------------------

def test_fbl_rate_median_epsilon_is_capacity():
    # at eps = 1/2 the rate is the capacity, where the BLER reads 1/2
    for g in (0.1, 1.0, 30.0):
        assert normal_rate(g, 200, 0.5) == math.log2(1.0 + g)
        assert instantaneous_bler(g, math.log2(1.0 + g), 200) == pytest.approx(
            0.5, rel=1e-12)


def test_fbl_rate_zero_snr():
    # C = V = 0 at zero SNR: no positive rate gets through there
    assert normal_rate(0.0, 100, 1e-3) == normal_rate(0.0, 100, 0.9) == 0.0
    for rate in (1e-12, 0.8, 5.0):
        assert instantaneous_bler(0.0, rate, 100) == 1.0


def test_fbl_rate_reference_value():
    # C - sqrt(Z/L) * Qinv via an independent erfc-based oracle, read back
    # as the BLER it was solved for
    qinv = -float(special.ndtri(1e-3))
    ref = 1.0 - math.sqrt(0.75 * math.log2(math.e) ** 2 / 100.0) * qinv
    assert normal_rate(1.0, 100, 1e-3) == pytest.approx(ref, rel=1e-12)
    assert ref == pytest.approx(0.6139032, abs=5e-7)
    assert instantaneous_bler(1.0, ref, 100) == pytest.approx(1e-3, rel=1e-9)


def test_fbl_rate_can_go_negative():
    # no positive rate reaches 1e-9 at SNR 1e-6
    assert normal_rate(1e-6, 100, 1e-9) < 0.0
    assert instantaneous_bler(1e-6, 1e-12, 100) > 1e-9


def test_instantaneous_bler_half_at_threshold():
    rate = math.log2(1.0 + 0.9)
    assert instantaneous_bler(0.9, rate, 150) == pytest.approx(0.5, rel=1e-12)


def test_instantaneous_bler_limits():
    assert instantaneous_bler(0.0, 0.8, 100) == 1.0
    assert instantaneous_bler(1e9, 0.8, 100) == 0.0
    # 1 + gamma rounds to 1 at 1e-300: the Q argument is -inf there too
    vals = instantaneous_bler(np.array([0.0, 1e-300, np.inf]), 0.8, 100)
    assert vals.tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        instantaneous_bler(np.array([1.0, np.nan]), 0.8, 100)
    with pytest.raises(ValueError):
        instantaneous_bler(math.nan, 0.8, 100)


def test_instantaneous_bler_inverts_rate():
    rate = normal_rate(1.0, 100, 1e-3)
    assert instantaneous_bler(1.0, rate, 100) == pytest.approx(1e-3, rel=1e-9)


def test_instantaneous_bler_monotone_in_snr():
    rate = 0.8
    gammas = np.logspace(-3, 2, 60)
    vals = [instantaneous_bler(g, rate, 100) for g in gammas]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# (1 + gamma)^2 overflows to inf past 1.3e154, where R > 512 leaves SNRs live
@pytest.mark.filterwarnings("ignore:overflow encountered in square")
@settings(max_examples=80, deadline=None)
@given(blocklength=st.integers(1, 100_000), rate=st.floats(1e-3, 1e3),
       shares=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=40))
@example(blocklength=1, rate=1e3, shares=[0.0, 0.5, 0.99, 1.0, 1.5])
@example(blocklength=100_000, rate=1e3, shares=[0.0, 0.999, 1.0, 1.001])
def test_instantaneous_bler_is_the_plain_formula_to_the_bit(blocklength, rate,
                                                            shares):
    # the SNRs whose capacity is a share of that at gamma_0 straddle it
    c0 = rate + 40.0 * math.log2(math.e) / math.sqrt(blocklength)
    with np.errstate(over="ignore"):
        gamma = np.exp2(np.multiply(shares, c0)) - 1.0
    g0 = blercore._zero_snr(rate, blocklength)
    if math.isinf(g0):
        # 2^c0 - 1 overflows a double (c0 > 1024, as at R = 1e3 and L = 1):
        # every finite SNR is evaluated
        assert c0 > 1023.0
    else:
        above = np.nextafter(g0, math.inf)
        gamma = np.concatenate((gamma, [np.nextafter(g0, 0.0), g0, above,
                                        2.0 * g0, math.inf]))
        assert instantaneous_bler(above, rate, blocklength) == 0.0
        assert plain_instantaneous_bler(above, rate, blocklength) == 0.0
    got = instantaneous_bler(gamma, rate, blocklength)
    assert got.tobytes() == plain_instantaneous_bler(gamma, rate,
                                                     blocklength).tobytes()
    # the skip keeps the shape of an n-d array and the bits of its entries
    square = np.resize(gamma, (2, gamma.size))
    assert (instantaneous_bler(square, rate, blocklength).tobytes()
            == plain_instantaneous_bler(square, rate, blocklength).tobytes())
    # a scalar or 0-d SNR gives a float
    for scalar in (gamma[0], np.float64(gamma[-1]), np.array(gamma[-1])):
        value = instantaneous_bler(scalar, rate, blocklength)
        assert type(value) is float
        assert value == plain_instantaneous_bler(scalar, rate, blocklength)


# ---------------------------------------------------------------------------
# hop-1 closed form
# ---------------------------------------------------------------------------

def test_hop1_matches_quadrature_oracle(fbl100):
    val = avg_bler_hop1(fbl100, 1.0, 1)
    ref = quad_hop1(fbl100, 1.0, 1)
    assert ref == pytest.approx(0.5224859, abs=5e-8)
    assert val == pytest.approx(ref, rel=1e-10)


def test_hop1_matches_printed_nested_sum(fbl100):
    # the nested finite-sum arrangement, evaluated directly
    for m in (1, 2, 5):
        for vt in (0.05, 0.7, 3.0, 40.0):
            total = 0.0
            for j in range(m):
                # Poisson survival e^-z sum_{i<=j} z^i/i! = Q(j + 1, z)
                total += (special.gammaincc(j + 1, fbl100.rho_l * vt)
                          - special.gammaincc(j + 1, fbl100.rho_h * vt))
            literal = fbl100.chi * (fbl100.width - total / vt)
            assert avg_bler_hop1(fbl100, vt, m) == pytest.approx(literal, rel=1e-9)


def test_hop1_quadrature_grid(fbl100):
    for m in (1, 2, 5):
        for vt in np.logspace(-3, 2, 8):
            assert avg_bler_hop1(fbl100, vt, m) == pytest.approx(
                quad_hop1(fbl100, vt, m), rel=1e-8, abs=1e-300)


def test_hop1_limits(fbl100):
    assert avg_bler_hop1(fbl100, 1e-9, 5) < 1e-40
    assert avg_bler_hop1(fbl100, 1e9, 1) == pytest.approx(1.0, rel=1e-9)


def test_hop1_monotone_in_vartheta(fbl100):
    vts = np.logspace(-3, 3, 40)
    vals = [avg_bler_hop1(fbl100, vt, 2) for vt in vts]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# hop-2 closed form
# ---------------------------------------------------------------------------

def test_hop2_single_branch_reduces_to_hop1(fbl100):
    for vt in (0.01, 0.8, 12.0):
        assert avg_bler_hop2(fbl100, vt, 1, (1.0,)) == pytest.approx(
            avg_bler_hop1(fbl100, vt, 1), rel=1e-10)


def test_hop2_two_equal_branches_reference(fbl100):
    # chi * int (1 - e^-x)^2 over the ramp, closed form by expansion
    rl, rh, chi = fbl100.rho_l, fbl100.rho_h, fbl100.chi
    ref = chi * ((rh - rl) + 2.0 * (math.exp(-rh) - math.exp(-rl))
                 - 0.5 * (math.exp(-2.0 * rh) - math.exp(-2.0 * rl)))
    assert ref == pytest.approx(0.2738757, abs=5e-8)
    assert avg_bler_hop2(fbl100, 1.0, 1, (1.0, 1.0)) == pytest.approx(ref, rel=1e-11)


def test_hop2_saturates_at_one(fbl100):
    assert avg_bler_hop2(fbl100, 1e9, 2, (1.3, 0.7)) == pytest.approx(1.0, rel=1e-9)


def test_hop2_quadrature_grid_random_branches(fbl100):
    rng = np.random.default_rng(2024)
    for m in (1, 2, 5):
        for ne in (1, 2, 3, 4):
            lams = tuple(rng.uniform(0.2, 2.0, ne))
            for vt in np.logspace(-3, 2, 6):
                val = avg_bler_hop2(fbl100, vt, m, lams)
                ref = quad_hop2(fbl100, vt, m, lams)
                assert val == pytest.approx(ref, rel=1e-8, abs=1e-300)


def test_hop2_extreme_branch_spread(fbl100):
    # eigenvalue spreads of many decades exercise the saturated-branch drop
    lams = (5.11, 2.668, 0.2172, 4.483e-3, 4.289e-5, 2.131e-7)
    for vt in (1e-4, 1e-2, 1.0, 1e2, 1e5):
        val = avg_bler_hop2(fbl100, vt, 5, lams)
        ref = quad_hop2(fbl100, vt, 5, lams)
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-300)


def test_hop2_clamped_interval_contract():
    # A clamped ramp (rho_l = 0) or a near-clamped one (rho_l = 0.05 width)
    # puts the knees of the branch CDFs close to the lower edge; large
    # vartheta and many branches sharpen them.
    clamped = linearize(0.0004, 2000)
    near = linearize(math.log2(1.0 + 0.55 ** 2 * 2.0 * math.pi / 100.0), 100)
    assert clamped.rho_l == 0.0
    assert near.rho_l == pytest.approx(0.05 * near.width, rel=1e-9)
    cases = [(1, (1.0,), 0.5), (2, (1.3, 0.7), 3.0), (5, (1.0, 0.5), 200.0),
             (1, (1.0, 0.2), 1e5), (1, (1.0,), 1e6), (5, (1.3, 0.7), 1e6)]
    for n_ports in (8, 12):
        lams = fas_spectrum(n_ports, 4.0).lambdas
        cases += [(m, lams, vt) for m in (1, 5) for vt in (1e-2, 1.0, 1e2, 1e4, 1e6)]
    cases += [(m, (1.0,) * 16, vt) for m in (1, 5) for vt in (1e-3, 1.0, 1e3, 1e6)]
    for p in (clamped, near):
        for m, lams, vt in cases:
            assert avg_bler_hop2(p, vt, m, lams) == pytest.approx(
                quad_hop2(p, vt, m, lams), rel=1e-8, abs=1e-300)
    # one branch, m = 1 on a clamped ramp has the closed form
    # chi * (rho_h - (1 - e^{-vartheta rho_h}) / vartheta)
    p = linearize(0.01, 50)
    assert p.rho_l == 0.0
    for vt in (1.0, 1e3, 1e6):
        ref = p.chi * (p.rho_h + math.expm1(-vt * p.rho_h) / vt)
        assert quad_hop2(p, vt, 1, (1.0,)) == pytest.approx(ref, rel=1e-10)
        assert avg_bler_hop2(p, vt, 1, (1.0,)) == pytest.approx(ref, rel=1e-8)


def _ramp(r, blocklength):
    """The ramp at blocklength whose rho_l is r widths: with tau = 2^R - 1,
    rho_l / width = sqrt(tau blocklength / 2 pi) - 1/2."""
    tau = 2.0 * math.pi * (r + 0.5) ** 2 / blocklength
    return linearize(math.log2(1.0 + tau), blocklength)


def test_hop2_short_table_contract():
    # 16 nodes from rho_l = 2 width on: just below that the kernel keeps the
    # 32-node panel, and at it (the nearest double above) it switches
    below, at = _ramp(1.999, 300), _ramp(2.0, 300)
    assert below.rho_l < 2.0 * below.width <= at.rho_l < 2.0 * at.width + 1e-12
    ramps = ((below, _GL32), (at, _GL16), (_ramp(2.5, 300), _GL16),
             (_ramp(3.0, 300), _GL16))
    spectra = [fas_spectrum(n, w).lambdas for n in (1, 2, 8, 12, 40)
               for w in (0.5, 4.0)] + [(1.0,) * 16]
    for p, table in ramps:
        assert _node_table(p) is table
        for m in (1, 2, 5):
            for lams in spectra:
                for vt in np.geomspace(1e-6, 1e8, 29):
                    assert avg_bler_hop2(p, vt, m, lams) == pytest.approx(
                        quad_hop2(p, vt, m, lams), rel=1e-8, abs=1e-300)


def test_presets_run_on_the_short_table():
    # every blocklength a preset can evaluate has rho_l >= 2 width, so the
    # presets and the benchmark studies built from them run on 16 nodes; a
    # preset that leaves that table should fail here, not slow down quietly
    presets = sorted((Path(__file__).resolve().parent.parent
                      / "configs").glob("*.conf"))
    assert presets
    for path in presets:
        # the blocklength keys do not depend on the command
        spec = parse_config(path.read_text(encoding="utf-8"), "optimize")
        lengths = {spec.blocklength, *spec.ee.l_set,
                   *spec.sweeps.get("sweep_blocklength", ())}
        for blocklength in lengths:
            assert _node_table(_fbl(spec, blocklength)) is _GL16, (
                path.name, blocklength)


def test_hop2_many_branches_uses_quadrature_route(fbl100):
    # 2^16 subsets put the closed form out of reach; quadrature is the reference
    lams = tuple(np.full(16, 1.0))
    val = avg_bler_hop2(fbl100, 0.9, 1, lams)
    ref = quad_hop2(fbl100, 0.9, 1, lams)
    assert val == pytest.approx(ref, rel=1e-8)


_NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda p, ev: avg_bler_hop1(p, np.array([1.0, _NAN]), 2),
    lambda p, ev: avg_bler_hop2(p, _NAN, 1, (1.0,)),
    lambda p, ev: avg_bler_hop2(p, 1.0, 5, (1.0, _NAN)),
    lambda p, ev: avg_bler_hop2_asymptotic(p, _NAN, 2, (1.0,)),
    lambda p, ev: avg_bler_hop2_asymptotic(p, 1.0, 2, (_NAN,)),
    lambda p, ev: ev.e2e_avg(_NAN, (1.0,)),
    lambda p, ev: ev.e2e_avg(1.0, (0.5, _NAN)),
    lambda p, ev: ev.e2e_avg_tabulated(np.array([[1.0], [_NAN]]), (1.0,))])
def test_nan_inputs_raise(urban, fbl100, call):
    # a NaN fails every comparison, so `x <= 0` let it through to a NaN BLER
    with pytest.raises(ValueError, match="positive"):
        call(fbl100, TrajectoryEvaluator(urban, fbl100, 16))


def test_hop2_validation_errors(fbl100):
    with pytest.raises(ValueError):
        avg_bler_hop2(fbl100, 1.0, 1, ())
    with pytest.raises(ValueError):
        avg_bler_hop2(fbl100, -1.0, 1, (1.0,))
    with pytest.raises(ValueError):
        avg_bler_hop2(fbl100, 1.0, 1.5, (1.0,))


def test_gammainc_is_one_past_saturation():
    # the kernel leaves every factor with argument >= _saturation_z(m) at 1.0;
    # the m = 1 route evaluates every factor and must give 1.0 there as well
    for m in range(1, 41):
        sat = _saturation_z(m)
        z = np.concatenate([[sat, np.nextafter(sat, np.inf)],
                            np.geomspace(sat, 1e300, 3000), [np.inf]])
        assert np.all(special.gammainc(m, z) == 1.0), m
        if m == 1:
            assert np.all(_branch_cdf(m, z) == 1.0)


def _saturated_share(params, vt, m, lams):
    """Share of the kernel's gamma factors at or past the saturation point,
    per vartheta."""
    x_unit = _node_table(params)[0]
    sat = _saturation_z(m)
    top = np.clip(sat * max(lams) / vt, params.rho_l, params.rho_h)
    x = params.rho_l + (top - params.rho_l)[:, None] * x_unit
    z = x[:, :, None] * (vt[:, None, None] / np.asarray(lams))
    return np.mean(z >= sat, axis=(1, 2))


# a ramp on each hop-2 node table: 16 nodes (rho_l >= 2 width), 32 nodes
# (width / 4 <= rho_l < 2 width) and the graded rule (a clamped ramp)
_TABLE_RAMPS = ((linearize(80.0 / 300.0, 300), _GL16),
                (linearize(0.4, 50), _GL32), (linearize(0.02, 100), _GRADED))


def test_hop2_skip_matches_all_factors():
    # no, partial and full saturation of the factors, on every node table
    assert _TABLE_RAMPS[2][0].rho_l == 0.0
    vt = np.geomspace(1e-6, 1e8, 141)
    for params, table in _TABLE_RAMPS:
        assert _node_table(params) is table
        regimes = set()
        for n in (1, 2, 8, 12):
            lams = fas_spectrum(n, 0.5).lambdas
            for m in (1, 2, 5):
                got = avg_bler_hop2(params, vt, m, lams)
                assert np.array_equal(
                    got, avg_bler_hop2_all_factors(params, vt, m, lams))
                assert avg_bler_hop2(params, vt[70], m, lams) == float(
                    avg_bler_hop2_all_factors(params, vt[70], m, lams))
                share = _saturated_share(params, vt, m, lams)
                regimes.update("none" if f == 0.0 else "full" if f == 1.0
                               else "partial" for f in share)
        assert regimes >= ({"none", "partial"} if params.rho_l == 0.0
                           else {"none", "partial", "full"})


def test_rayleigh_factors_do_not_call_gammainc(monkeypatch):
    # the m = 1 factors go through -expm1(-z); a gammainc call at m = 1 from
    # the kernel or a table fill would bring back the slow path
    calls = []
    gammainc = special.gammainc

    def guarded(m, z):
        if m == 1:
            raise AssertionError("gammainc called with m = 1")
        calls.append(m)
        return gammainc(m, z)

    monkeypatch.setattr(blercore.special, "gammainc", guarded)
    vt = np.geomspace(1e-6, 1e8, 141)
    lams = fas_spectrum(8, 0.5).lambdas
    for params, table in _TABLE_RAMPS:
        assert _node_table(params) is table
        assert np.all(np.isfinite(avg_bler_hop2(params, vt, 1, lams)))
        table = Hop2Table(params, 1, lams)
        _look_up_range(table, 1e-6, 1e4)
        assert np.all(np.isfinite(table.values))
    assert not calls
    # the guard is live: other shapes still reach gammainc
    avg_bler_hop2(_TABLE_RAMPS[0][0], 1.0, 5, lams)
    assert calls


def test_hop2_value_does_not_depend_on_the_batch():
    # each value is reduced on its own, so its bits are the same alone, in a
    # 141-point call and in sub-batches of 1-64 points of a 1,000-point call
    p = _TABLE_RAMPS[0][0]
    vt = np.geomspace(1e-6, 1e8, 141)
    vt[70] = 10.0
    assert avg_bler_hop2(p, 10.0, 1, (1.0,)) == avg_bler_hop2(p, vt, 1, (1.0,))[70]
    vt = np.geomspace(1e-6, 1e8, 1000)
    lams = fas_spectrum(8, 0.5).lambdas
    for (params, _), m in zip(_TABLE_RAMPS, (1, 2, 5)):
        whole = avg_bler_hop2(params, vt, m, lams)
        for size in range(1, 65):
            parts = [np.atleast_1d(avg_bler_hop2(params, vt[i:i + size], m, lams))
                     for i in range(0, vt.size, size)]
            assert np.array_equal(np.concatenate(parts), whole), size


# ---------------------------------------------------------------------------
# hop-2 tables
# ---------------------------------------------------------------------------

# the accuracy the optimizer checks at every solved power
_TABLE_REL = 1e-8


def _table_gap(table, params, m, lambdas, lo, hi, points=801):
    """Largest relative gap to the kernel on a log grid over [lo, hi]
    (about 90 points per decade, saturated part included)."""
    vt = np.geomspace(lo, hi, points)
    direct = avg_bler_hop2(params, vt, m, lambdas)
    return float(np.max(np.abs(table(vt) - direct) / direct))


def _look_up_range(table, lo, hi):
    """A lookup at both ends of [lo, min(hi, vt_sat)], which grows table to
    the panels that meet that range."""
    return table([lo, min(hi, table.vt_sat)])


def _tabulated(ev, p2, lambdas):
    """Per-node hop-2 BLERs at p2 from the cached table pair, LoS then NLoS,
    as `TrajectoryEvaluator.e2e_avg_tabulated` reads them."""
    return tuple(blercore.hop2_table(ev.fbl, ev.cfg.nakagami_m(lt), lambdas)(vt)
                 for lt, vt in zip(LINK_TYPES, ev.hop2_varthetas(p2)))


def test_hop2_table_matches_kernel():
    # the optimizer's tables: relay power p_max * [1e-8, 1] with p_max = 10 W
    cfg = ScenarioConfig(p1=10.0 ** 1.6)
    worst, capped = 0.0, 0
    for blocklength in (100, 300, 600):
        fbl = linearize(80.0 / blocklength, blocklength)
        for z in (100.0, 400.0, 500.0, 800.0):
            ev = TrajectoryEvaluator(replace(cfg, uav_altitude=z), fbl)
            for n in (1, 2, 4, 8, 12):
                fas = fas_spectrum(n, 0.5)
                # the lookups grow each table over the vartheta that relay
                # powers [1e-7, 10] W reach, as a power solve's do
                for lt, near, far in zip(LINK_TYPES, ev.hop2_varthetas(10.0),
                                         ev.hop2_varthetas(1e-7)):
                    lo, hi = float(near.min()), float(far.max())
                    m = cfg.nakagami_m(lt)
                    table = Hop2Table(fbl, m, fas.lambdas)
                    worst = max(worst, _table_gap(table, fbl, m, fas.lambdas,
                                                  lo, hi))
                    if table.vt_sat < hi:
                        capped += 1
                        # past vartheta_sat the kernel's exact constant
                        assert table(hi) == avg_bler_hop2(fbl, hi, m,
                                                          fas.lambdas)
    assert capped > 0
    assert worst <= _TABLE_REL


def test_hop2_table_clamped_ramp():
    # rho_l = 0 has no saturation point: the panels span the whole range
    fbl = linearize(0.02, 100)
    assert fbl.rho_l == 0.0
    for n in (1, 4, 12):
        lams = fas_spectrum(n, 0.5).lambdas
        for m in (1, 5):
            table = Hop2Table(fbl, m, lams)
            _look_up_range(table, 1e-6, 1e4)
            assert table.vt_sat == math.inf
            assert table.nodes.size == 10 * 32
            assert _table_gap(table, fbl, m, lams, 1e-6, 1e4) <= _TABLE_REL


def _lattice_anchor(params, m, lams):
    """log10 of the table lattice's anchor: vartheta_sat, or 1 on a clamped
    ramp."""
    if params.rho_l == 0.0:
        return 0.0
    return math.log10(_saturation_z(m) * max(lams) / params.rho_l)


def _off_lattice(vt, anchor):
    """The points at least 1e-6 decades away from a panel edge."""
    s = np.log10(vt) - anchor
    return vt[np.abs(s - np.round(s)) > 1e-6]


def _check_growing_lookup(make, vt, panels):
    """A lookup of vt on a table make() builds grows it to panels, with the
    nodes and values of a lookup inside the first and last of those panels,
    and returns that table's value there, the kernel's to 1e-8."""
    grown, ranged = make(), make()
    got = grown(vt)
    a = _lattice_anchor(grown._params, grown._m2, grown._lambdas)
    _look_up_range(ranged, 10.0 ** (a + panels.start + 0.25),
                   10.0 ** (a + panels.stop - 0.25))
    assert grown.panels == ranged.panels == panels
    for name in ("nodes", "values"):
        assert np.array_equal(getattr(grown, name), getattr(ranged, name))
    assert np.array_equal(got, ranged(vt))
    direct = avg_bler_hop2(grown._params, vt, grown._m2, grown._lambdas)
    assert np.all(np.abs(got - direct) <= _TABLE_REL * direct)


def test_hop2_table_never_extrapolates(fbl100):
    # panels [a - 5, a - 3) of the lattice anchored at a = log10 vartheta_sat:
    # a lookup inside them or past vartheta_sat keeps them, and one below
    # them, between them and vartheta_sat, or across a gap grows them first
    lams = (1.3, 0.7)
    a = _lattice_anchor(fbl100, 5, lams)

    def held():
        table = Hop2Table(fbl100, 5, lams)
        _look_up_range(table, 10.0 ** (a - 4.5), 10.0 ** (a - 3.5))
        return table

    for s, panels in (([-5.0 + 1e-9, -4.0, -3.0 - 1e-9], range(-5, -3)),
                      (0.5, range(-5, -3)), (-5.0 - 1e-9, range(-6, -3)),
                      (-3.0 + 1e-9, range(-5, -2)), (-0.5, range(-5, 0)),
                      ([-4.0, -1.5], range(-5, -1)),
                      ([-6.5, 0.5], range(-7, -3))):
        _check_growing_lookup(held, 10.0 ** (a + np.asarray(s)), panels)
    # NaN and non-positive vartheta raise, and leave the table as it was
    table = held()
    for vt in (float("nan"), 0.0, -1.0, [10.0 ** (a - 6.5), float("nan")],
               [-1.0, 10.0 ** (a + 0.5)]):
        with pytest.raises(ValueError):
            table(vt)
        assert table.panels == range(-5, -3)


def test_hop2_table_cover_rejects_a_falling_kernel(fbl100, monkeypatch):
    # a kernel that falls with vartheta fails the lookups that would
    # add its panels, and the table keeps what it held, so asking again
    # raises again.
    # The slack is relative, so a fall is seen at every magnitude: on the
    # panels 1-2 decades below vartheta_sat, whose values exceed 1e-6, and
    # on those 3-7 decades below it, whose values lie below 1e-13
    lams = (1.3, 0.7)
    a = _lattice_anchor(fbl100, 5, lams)
    kernel = blercore.avg_bler_hop2

    def wavy(params, vartheta, m2, lambdas):
        vt = np.asarray(vartheta, dtype=float)
        # falls by up to a factor 19 within each decade
        return kernel(params, vt, m2, lambdas) * (1.0 + 0.9 * np.sin(40.0 * np.log(vt)))

    # (lowest, highest) panel asked for, in decades from vartheta_sat; the
    # held table holds the highest
    for deep, shallow in ((-2, -1), (-7, -4)):
        held = Hop2Table(fbl100, 5, lams)
        _look_up_range(held, 10.0 ** (a + shallow + 0.1),
                       10.0 ** (a + shallow + 0.9))
        assert held.panels == range(shallow, shallow + 1)
        if shallow == -4:
            assert held.values.max() < 1e-13
        empty = Hop2Table(fbl100, 5, lams)
        for table in (held, empty):
            panels, nodes = table.panels, table.nodes.copy()
            values = table.values.copy()
            looked_up = table(nodes)
            monkeypatch.setattr(blercore, "avg_bler_hop2", wavy)
            for grow in (lambda: _look_up_range(table, 10.0 ** (a + deep + 0.1),
                                                10.0 ** (a + shallow + 0.9)),
                         lambda: table(10.0 ** (a + deep + 0.1))) * 2:
                with pytest.raises(MonotonicityError, match="table"):
                    grow()
                assert table.panels == panels
                assert np.array_equal(table.nodes, nodes)
                assert np.array_equal(table.values, values)
                assert np.array_equal(table(nodes), looked_up)
            monkeypatch.undo()


def test_hop2_table_with_no_panels_saturates(fbl100):
    lams = (1.3, 0.7)
    table = Hop2Table(fbl100, 5, lams)
    assert table.vt_sat < math.inf
    # a lookup past vartheta_sat needs no panel
    vt = table.vt_sat * np.array([1.0 + 1e-12, 2.0, 1e6])
    assert np.array_equal(table(vt), avg_bler_hop2(fbl100, vt, 5, lams))
    assert np.all(table(vt) == table.saturated)
    assert table.nodes.size == 0
    # a lookup below vartheta_sat grows an empty table to its panel; a
    # clamped ramp has no vartheta_sat, and its lattice counts from 1
    _check_growing_lookup(lambda: Hop2Table(fbl100, 5, lams),
                          0.5 * table.vt_sat, range(-1, 0))
    clamped = linearize(0.02, 100)
    _check_growing_lookup(lambda: Hop2Table(clamped, 1, lams), 1e8,
                          range(8, 9))
    # at vartheta = inf a clamped ramp's table, like the kernel, reads the
    # saturated value and grows no panel
    at_inf = Hop2Table(clamped, 1, lams)
    assert at_inf(math.inf) == avg_bler_hop2(clamped, math.inf, 1, lams)
    assert at_inf(math.inf) == at_inf.saturated
    assert at_inf.nodes.size == 0


@pytest.mark.parametrize("payload", [2, 80], ids=["clamped", "capped"])
def test_infinite_vartheta_reads_the_saturated_value(payload):
    # an SNR scale that underflows to 0 gives vartheta = inf: both kernels
    # and the table read their limit min(chi width, 1) there, with no
    # warning, and every finite entry keeps the bits of its own call
    fbl = linearize(payload / 100, 100)
    saturated = min(fbl.chi * fbl.width, 1.0)
    vt = np.array([[0.5, math.inf], [math.inf, 3.0]])
    lams = (1.3, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 5):
            for got, alone in (
                    (avg_bler_hop1(fbl, vt, m),
                     lambda v: avg_bler_hop1(fbl, v, m)),
                    (avg_bler_hop2(fbl, vt, m, lams),
                     lambda v: avg_bler_hop2(fbl, v, m, lams)),
                    (Hop2Table(fbl, m, lams)(vt),
                     lambda v: Hop2Table(fbl, m, lams)(v))):
                assert got.shape == vt.shape
                assert got[0, 1] == got[1, 0] == alone(math.inf) == saturated
                assert got[0, 0] == alone(0.5) and got[1, 1] == alone(3.0)
        # a subnormal relay power: every hop-2 vartheta overflows to inf
        ev = TrajectoryEvaluator(ScenarioConfig(), fbl, 16)
        assert all(np.all(vt == math.inf) for vt in ev.hop2_varthetas(1e-313))
        direct = ev.e2e_avg(1e-313, lams)
        assert direct == ev.e2e_avg_tabulated(1e-313, lams)
        assert direct == ev.average(ev.end_to_end(np.full(16, saturated)))


def test_overflowing_vartheta_reads_the_saturated_value():
    # a finite vartheta whose product with rho_l overflows: hop 1 met
    # inf - inf and hop 2 an overflow in its branch arguments, on a clamped
    # ramp also where top was not rho_l. Both read
    # min(chi width, 1) with no warning, as every vartheta from
    # _saturation_z(m + 1) / rho_l (hop 1) and from an empty integration
    # interval (hop 2) on does; below that hop 1 keeps its formula
    cases = ((linearize(8.0, 100), 1e307, 1), (linearize(3, 10), 1.7e308, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fbl, vt, m in cases:
            saturated = min(fbl.chi * fbl.width, 1.0)
            assert avg_bler_hop1(fbl, vt, m) == saturated
            assert avg_bler_hop2(fbl, vt, m, (1.0,)) == saturated
            assert avg_bler_hop2(fbl, vt, m, (0.25, 4.0)) == saturated
            vt_sat = _saturation_z(m + 1) / fbl.rho_l
            below = np.nextafter(vt_sat, 0.0)

            def h(z):
                return z * special.gammainc(m, z) - m * special.gammainc(
                    m + 1, z)

            formula = fbl.chi / below * (h(fbl.rho_h * below)
                                         - h(fbl.rho_l * below))
            assert avg_bler_hop1(fbl, np.array([below, vt_sat, vt]),
                                 m).tolist() == [min(formula, 1.0),
                                                 saturated, saturated]
        # the remainder alone, chi * width as rounded
        assert avg_bler_hop2(linearize(8.0, 100), 1e307, 1, (1.0,)) == (
            0.9999999999999991)
        # a clamped ramp's interval [0, top] is empty at no finite vartheta;
        # from top = spacing(rho_h) / 8 down the value is the remainder
        # alone, the bits of the quadrature, where vartheta / lambda_n would
        # overflow too
        for fbl in (linearize(0.02, 100), linearize(0.4 / 50, 50)):
            saturated = min(fbl.chi * fbl.width, 1.0)
            for m in (1, 2, 5):
                for lams in ((1.0,), fas_spectrum(8, 4.0).lambdas):
                    edge = _saturation_z(m) * max(lams) / (
                        math.ulp(fbl.rho_h) / 8)
                    vt = np.r_[edge * np.geomspace(0.25, 4.0, 33), 1e300,
                               1.7e308]
                    with np.errstate(over="ignore"):
                        want = avg_bler_hop2_all_factors(fbl, vt, m, lams)
                    got = avg_bler_hop2(fbl, vt, m, lams)
                    assert got.tobytes() == want.tobytes()
                    assert np.all(got[16:] == saturated)


def test_subnormal_vartheta_reads_the_limit_zero():
    # chi / vartheta overflowed in hop 1 (inf * 0 = nan) and the top of
    # hop 2's interval overflowed, with warnings. Hop 1 reads 0.0, the
    # limit, and keeps the bits of its formula wherever that was finite,
    # every normal vartheta included; hop 2 the bits of its formula with
    # top = rho_h, below the smallest normal double, with no warning
    fbl, tiny = linearize(0.8, 100), np.finfo(float).tiny
    lo = np.r_[5e-324, 1e-310, np.geomspace(tiny, 1e-290, 400)]

    def h(z, m):
        return z * special.gammainc(m, z) - m * special.gammainc(m + 1, z)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 5):
            for vt in (1e-310, 5e-324):
                assert avg_bler_hop1(fbl, vt, m) == 0.0
                for lams in ((1.0,), (0.25, 4.0), fas_spectrum(8, 0.5).lambdas):
                    with np.errstate(over="ignore"):
                        want = avg_bler_hop2_all_factors(fbl, vt, m, lams)
                    assert avg_bler_hop2(fbl, vt, m, lams) == want < tiny
                assert avg_bler_hop2(fbl, vt, m, (0.25, 4.0)) == 0.0
            got = avg_bler_hop1(fbl, lo, m)
            with np.errstate(over="ignore", invalid="ignore"):
                formula = np.clip(fbl.chi / lo * (h(fbl.rho_h * lo, m)
                                                  - h(fbl.rho_l * lo, m)), 0, 1)
            finite = np.isfinite(formula)
            assert np.array_equal(got[finite], formula[finite])
            assert np.all(got[~finite] == 0.0) and not finite[:3].any()


def test_hop2_table_value_does_not_depend_on_its_range():
    # tables grown by range lookups in several orders hold the nodes and
    # values of one lookup of the union, and every lookup in the panels
    # grown so far returns that table's bits: capped (rho_l > 0) and
    # clamped (rho_l = 0) ramps, ranges inside one panel, across several,
    # starting on a lattice line, past saturation, and apart
    capped, clamped = linearize(80.0 / 300.0, 300), linearize(0.02, 100)
    assert capped.rho_l > 0.0 and clamped.rho_l == 0.0
    ranges = ((-5.4, -0.35), (-3.0, -0.6), (-2.2, -1.9), (-4.7, 0.9),
              (-7.0, -5.5), (-6.0, -4.0))
    orders = (ranges, ranges[::-1], tuple(ranges[i] for i in (2, 4, 0, 5, 3, 1)))
    for params in (capped, clamped):
        for n in (1, 4, 12):
            lams = fas_spectrum(n, 0.5).lambdas
            for m in (1, 5):
                a = _lattice_anchor(params, m, lams)
                union = Hop2Table(params, m, lams)
                _look_up_range(union, 10.0 ** (a - 7.0), 10.0 ** (a + 0.9))
                if params is capped:
                    assert union.vt_sat < 10.0 ** (a + 0.9)
                for order in orders:
                    grown = Hop2Table(params, m, lams)
                    for lo, hi in order:
                        _look_up_range(grown, 10.0 ** (a + lo),
                                       10.0 ** (a + hi))
                        vt = _off_lattice(
                            np.geomspace(10.0 ** (a + lo), 10.0 ** (a + hi),
                                         301), a)
                        assert vt.size > 250
                        assert np.array_equal(grown(vt), union(vt)), (lo, hi)
                    assert np.array_equal(grown.nodes, union.nodes)
                    assert np.array_equal(grown.values, union.values)


def test_hop2_table_fills_each_panel_once(monkeypatch):
    # growing a table in any order runs the kernel on each panel's nodes
    # once: as many points as one lookup of the union
    points = []
    kernel = blercore.avg_bler_hop2

    def counted(params, vartheta2, m2, lambdas):
        points.append(np.size(vartheta2))
        return kernel(params, vartheta2, m2, lambdas)

    monkeypatch.setattr(blercore, "avg_bler_hop2", counted)
    params, lams = linearize(80.0 / 300.0, 300), fas_spectrum(4, 0.5).lambdas
    a = _lattice_anchor(params, 5, lams)
    ranges = ((-2.2, -1.9), (-5.4, -0.35), (-7.0, -5.5), (-4.7, 0.9))
    for order in (ranges, ranges[::-1]):
        del points[:]
        table = Hop2Table(params, 5, lams)
        for lo, hi in order:
            _look_up_range(table, 10.0 ** (a + lo), 10.0 ** (a + hi))
        assert table.panels == range(-7, 0)
        assert sum(points) == table.nodes.size == 7 * 32


def test_batched_rows_match_per_row_calls():
    # a (P, nodes) vartheta array through the kernel and through a table
    # gives each row the bits of that row's own call: P = 1, 2 and 10 rows,
    # m = 1, 2 and 5, the three node tables (the last a clamped ramp), and
    # a last row wholly past vartheta_sat on the capped ramps
    rng = np.random.default_rng(7)
    lams = fas_spectrum(6, 0.5).lambdas
    for params, _ in _TABLE_RAMPS:
        for m in (1, 2, 5):
            a = _lattice_anchor(params, m, lams)
            for rows in (1, 2, 10):
                vt = 10.0 ** (a + rng.uniform(-6.0, 0.5, (rows, 128)))
                # a clamped ramp has no vartheta_sat: its last row lies
                # 4-5 decades above the lattice anchor instead
                capped = params.rho_l > 0.0
                vt[-1] = 10.0 ** (a + (0.2 if capped else 4.0)
                                  + rng.uniform(0.0, 1.0, 128))
                table = Hop2Table(params, m, lams)
                kernel = avg_bler_hop2(params, vt, m, lams)
                looked_up = table(vt)
                for i in range(rows):
                    assert np.array_equal(
                        kernel[i], avg_bler_hop2(params, vt[i], m, lams))
                    assert np.array_equal(looked_up[i], table(vt[i]))
                if capped:
                    assert np.all(kernel[-1] == table.saturated)


def test_evaluator_rows_match_per_power_calls(urban, fbl100):
    # a column of powers gives per-node varthetas, hop-2 values and
    # end-to-end averages with the bits of each power's own call
    ev = TrajectoryEvaluator(urban, fbl100)
    lams = fas_spectrum(4, 0.5).lambdas
    p2 = 10.0 ** np.linspace(-9.0, 1.0, 10)
    vts = ev.hop2_varthetas(p2[:, None])
    comps = ev.hop2_components(p2[:, None], lams)
    # the (powers x nodes) arrays averaged in one call each
    e2e = ev.e2e_avg_from(*comps)
    nodes = ev.end_to_end(ev.hop2_mixed(*comps))
    averages = ev.average(nodes)
    assert e2e.shape == averages.shape == p2.shape
    for i, p in enumerate(p2):
        for got, want in zip(vts, ev.hop2_varthetas(float(p))):
            assert np.array_equal(got[i], want)
        alone = ev.e2e_avg_from(*(c[i] for c in comps))
        assert isinstance(alone, float)
        assert e2e[i] == alone == ev.e2e_avg(p, lams)
        assert averages[i] == ev.average(nodes[i]) == alone
    with pytest.raises(ValueError):
        ev.hop2_varthetas(np.array([[1.0], [0.0]]))


def _hex(values):
    """The bits of every value of an array, a float or a list."""
    return [float(v).hex() for v in np.ravel(values)]


def _rank_groups(spectra):
    """The lambdas of the spectra by rank, n_eff -> list of tuples."""
    groups = {}
    for fas in spectra:
        groups.setdefault(fas.n_eff, []).append(fas.lambdas)
    return groups


# N = 1, 2, 6 and 12 at apertures 0.5 and 4: ranks 1 and 2 (two spectra
# each), 6 (N = 6 at both apertures and N = 12 at 0.5) and 12 (one)
_STACK_GROUPS = _rank_groups(fas_spectrum(n, w) for n in (1, 2, 6, 12)
                             for w in (0.5, 4.0))


def test_rayleigh_factors_in_one_buffer_keep_the_bits_of_negated_expm1():
    # the m = 1 kernel multiplies the expm1(-z) in one buffer and restores
    # the sign once for an odd branch count: the bits of the product of the
    # -expm1(-z) factors for 1 to 7 branches, on every node table
    rng = np.random.default_rng(11)
    vt = np.geomspace(1e-6, 1e6, 200)
    for params, _ in _TABLE_RAMPS:
        for n in range(1, 8):
            lams = tuple(10.0 ** rng.uniform(-2.0, 1.5, n))
            assert _hex(avg_bler_hop2(params, vt, 1, lams)) == _hex(
                avg_bler_hop2_all_factors(params, vt, 1, lams)), n


@pytest.mark.parametrize("params", [_TABLE_RAMPS[0][0], _TABLE_RAMPS[2][0]],
                         ids=["capped", "clamped"])
def test_stacked_spectra_match_per_spectrum_calls(params):
    # spectra of one rank stacked on a leading axis against (powers, nodes)
    # varthetas, and one lambda row per vartheta: the kernel and the
    # asymptote give every value the bits of its spectrum's own call, at 1,
    # 2 and 11 powers and m = 1, 2, 5, with saturated intervals (past
    # vartheta_sat on the capped ramp) and an infinite vartheta
    assert {n: len(g) for n, g in _STACK_GROUPS.items()} == {
        1: 2, 2: 2, 6: 3, 12: 1}
    rng = np.random.default_rng(27)
    for m in (1, 2, 5):
        for powers in (1, 2, 11):
            vt = 10.0 ** rng.uniform(-6.0, 4.0, (powers, 16))
            vt[-1, -1] = math.inf
            for group in _STACK_GROUPS.values():
                stacked = np.array(group)[:, None, None, :]
                rows = np.array(group)[rng.integers(len(group), size=vt.size)]
                for f in (avg_bler_hop2, avg_bler_hop2_asymptotic):
                    got = f(params, vt, m, stacked)
                    assert got.shape == (len(group), powers, 16)
                    for lams, values in zip(group, got):
                        assert _hex(values) == _hex(f(params, vt, m, lams))
                    assert _hex(f(params, vt.ravel(), m, rows)) == [
                        float(f(params, v, m, tuple(r))).hex()
                        for v, r in zip(vt.ravel(), rows)]
    with pytest.raises(ValueError, match="positive"):
        avg_bler_hop2(params, 1.0, 1, np.array([[1.0, 2.0], [0.5, _NAN]]))
    with pytest.raises(ValueError):
        avg_bler_hop2(params, 1.0, 1, np.empty((2, 0)))


@pytest.mark.parametrize("powers", [1, 2, 11])
def test_stacked_components_and_averages_match_per_spectrum_calls(
        urban, fbl100, powers):
    # hop-2 components over (spectra, powers, nodes), the LoS kernel on its
    # live points with one lambda row each, the mixes and `average` per
    # leading index: each (spectrum, power) has the bits of its own
    # per-spectrum call, and of `e2e_avg`. The powers reach from where the
    # LoS kernel runs nowhere to where it runs at every node, and a
    # subnormal power puts every vartheta at inf
    ev = TrajectoryEvaluator(urban, fbl100, 32)
    p2 = np.concatenate([[1e-313], np.geomspace(1e-9, 10.0, 10)])[-powers:]
    p2 = p2[:, None]
    for group in _STACK_GROUPS.values():
        stacked = np.array(group)[:, None, None, :]
        asym = ev.hop2_asymptotes(p2, stacked)
        comps = ev.hop2_components(p2, stacked, asym[0])
        e2e = ev.average(ev.end_to_end(ev.hop2_mixed(*comps)))
        assert e2e.shape == (len(group), powers)
        for i, lams in enumerate(group):
            alone = ev.hop2_components(p2, lams)
            for got, want in zip(comps, alone):
                assert _hex(got[i]) == _hex(want)
            for got, want in zip(asym, ev.hop2_asymptotes(p2, lams)):
                assert _hex(got[i]) == _hex(want)
            assert _hex(e2e[i]) == _hex(ev.e2e_avg_from(*alone)) == _hex(
                [ev.e2e_avg(float(p), lams) for p in p2[:, 0]])


def _full_components(ev, p2, lambdas):
    """Both kernels at every node, LoS then NLoS: the reference for
    `hop2_components`, which skips LoS nodes."""
    return tuple(avg_bler_hop2(ev.fbl, vt, ev.cfg.nakagami_m(lt), lambdas)
                 for lt, vt in zip(LINK_TYPES, ev.hop2_varthetas(p2)))


def test_skipped_los_nodes_keep_the_bits_of_the_mix():
    # seeded random scenarios, relay powers 1e-12 to 1e8 W: the LoS entry
    # is the kernel or 0.0, and the mix, the end-to-end averages and
    # `e2e_avg` have the bits of the full kernels
    rng = np.random.default_rng(24)
    # the zero-weight case of the CLI tests: p_los2 = 1 at every node and an
    # inf asymptote on both links
    cases = [(ScenarioConfig(p1=10.0, uav_altitude=1000.0, los_b=20.0,
                             m_nlos=3), linearize(91.76, 10),
              fas_spectrum(8, 4.0).lambdas)]
    for _ in range(60):
        eta_los = rng.uniform(0.0, 10.0)
        cfg = ScenarioConfig(uav_altitude=10.0 ** rng.uniform(1.0, 3.3),
                             eta_los=eta_los,
                             eta_nlos=eta_los + rng.uniform(0.0, 25.0),
                             m_los=int(rng.integers(1, 11)),
                             m_nlos=int(rng.integers(1, 11)))
        blocklength = int(rng.choice((50, 100, 300, 2000)))
        # 2 bits is a clamped ramp (rho_l = 0)
        bits = float(rng.choice((80.0, 2.0)))
        lambdas = fas_spectrum(int(rng.integers(1, 13)),
                               float(rng.choice((0.5, 1.0, 4.0)))).lambdas
        cases.append((cfg, linearize(bits / blocklength, blocklength),
                      lambdas))
    seen = dict(skipped=0, kept=0, weight_0=0, weight_1=0, m_nlos_above=0,
                nlos_not_normal=0)
    for i, (cfg, fbl, lambdas) in enumerate(cases):
        ev = TrajectoryEvaluator(cfg, fbl)
        if i % 3 == 1:
            # LoS probabilities of exactly 0 and 1 at random nodes
            p = ev.geo.p_los2.copy()
            p[rng.random(p.size) < 0.3] = 0.0
            p[rng.random(p.size) < 0.3] = 1.0
            ev.geo = replace(ev.geo, p_los2=p)
            ev._mix2 = _Mixture(p)
        elif i % 3 == 2:
            # LoS weights at 3/4 of the spacing of doubles near 1, where a
            # saturated LoS value changes a bit of a saturated NLoS one: a
            # bound used without the rounding margin of `los_negligible`
            # would drop it
            p = ev.geo.p_los2.copy()
            p[::4] = 0.75 * np.spacing(0.5)
            ev.geo = replace(ev.geo, p_los2=p)
            ev._mix2 = _Mixture(p)
        p2 = 10.0 ** rng.uniform(-12.0, 8.0, 6)
        got = ev.hop2_components(p2[:, None], lambdas)
        full = _full_components(ev, p2[:, None], lambdas)
        kept = got[0] != 0.0
        assert got[1].tobytes() == full[1].tobytes()
        assert np.array_equal(got[0][kept], full[0][kept])
        mixed = ev.hop2_mixed(*got)
        assert mixed.tobytes() == ev.hop2_mixed(*full).tobytes()
        assert (ev.e2e_avg_from(*got).tobytes()
                == ev.e2e_avg_from(*full).tobytes())
        # the scalar path of the optimizer's direct checks
        for p in p2[:2]:
            assert (ev.e2e_avg(float(p), lambdas)
                    == ev.e2e_avg_from(*_full_components(ev, p, lambdas)))
        seen["skipped"] += int(np.sum(full[0][~kept] != 0.0))
        seen["kept"] += int(kept.sum())
        seen["weight_0"] += int(np.sum(ev.geo.p_los2 == 0.0))
        seen["weight_1"] += int(np.sum(ev.geo.p_los2 == 1.0))
        seen["m_nlos_above"] += cfg.m_nlos > cfg.m_los
        seen["nlos_not_normal"] += int(np.sum(full[1] < np.finfo(float).tiny))
    assert all(seen.values()), seen


@settings(max_examples=25, deadline=None)
@given(z=st.floats(100.0, 800.0), n=st.integers(1, 12),
       blocklength=st.sampled_from((100, 300, 600)),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_tabulated_e2e_bounded_and_monotone(z, n, blocklength, u, v):
    cfg = ScenarioConfig(p1=10.0 ** 1.6, uav_altitude=z)
    fbl = linearize(80.0 / blocklength, blocklength)
    ev = TrajectoryEvaluator(cfg, fbl)
    lambdas = fas_spectrum(n, 0.5).lambdas
    p_lo, p_hi = 1e-7, 10.0
    p_a, p_b = np.clip(p_lo * (p_hi / p_lo) ** np.sort([u, v]), p_lo, p_hi)
    # the same bounds and monotonicity on the tables and the direct kernel
    for hop2 in (lambda p: _tabulated(ev, p, lambdas),
                 lambda p: ev.hop2_components(p, lambdas)):
        e_a, e_b = (ev.e2e_avg_from(*hop2(p)) for p in (p_a, p_b))
        for p, e in ((p_a, e_a), (p_b, e_b)):
            nodes = ev.end_to_end(ev.hop2_mixed(*hop2(p)))
            assert np.all(ev.eps1_mixed <= nodes) and np.all(nodes <= 1.0)
            # the trajectory rule's weights sum to slightly above 1
            assert ev.hop1_avg() <= e <= float(np.sum(ev.weights))
        assert e_b <= e_a * (1.0 + 1e-10)


def test_e2e_not_below_hop1_where_hop2_is_below_rounding():
    # at some of these nodes hop 2 is below the spacing of doubles at 1, so
    # 1 - (1 - eps1)(1 - eps2) loses it and can round below eps1; combining
    # must keep the end-to-end value >= hop 1 on the table and direct paths
    cfg = ScenarioConfig(p1=10.0 ** 1.6, uav_altitude=100.0)
    fbl = linearize(80.0 / 600, 600)
    ev = TrajectoryEvaluator(cfg, fbl)
    lambdas = fas_spectrum(7, 0.5).lambdas
    for e2 in (_tabulated(ev, 10.0, lambdas),
               ev.hop2_components(10.0, lambdas)):
        eps2 = ev.hop2_mixed(*e2)
        assert np.any(eps2 < np.finfo(float).eps)
        assert np.all(ev.end_to_end(eps2) >= ev.eps1_mixed)


# ---------------------------------------------------------------------------
# high-SNR asymptote
# ---------------------------------------------------------------------------

def test_asymptotic_single_branch_identity(fbl100):
    # with one unit branch and m=1 the expression collapses to tau * vartheta
    # (pre-clamp, since (rho_h + rho_l)/2 = tau and chi * width = 1)
    for vt in (0.01, 0.003):
        assert avg_bler_hop2_asymptotic(fbl100, vt, 1, (1.0,)) == pytest.approx(
            fbl100.tau * vt, rel=1e-12)
    assert avg_bler_hop2_asymptotic(fbl100, 0.01, 1, (1.0,)) == pytest.approx(
        0.0074110, abs=5e-8)


def test_asymptotic_power_law_slope(fbl100):
    for m, lams in ((1, (1.0, 0.8)), (2, (1.3, 0.7)), (3, (1.0,))):
        vts = np.logspace(-4, -2, 7)
        vals = [avg_bler_hop2_asymptotic(fbl100, vt, m, lams) for vt in vts]
        slope = np.polyfit(np.log10(vts), np.log10(vals), 1)[0]
        assert slope == pytest.approx(m * len(lams), rel=1e-9)


def test_asymptotic_converges_to_exact(fbl100):
    for m, lams in ((1, (1.30425, 0.69575)), (2, (1.3, 0.7))):
        vt = 1e-4
        exact = avg_bler_hop2(fbl100, vt, m, lams)
        asym = avg_bler_hop2_asymptotic(fbl100, vt, m, lams)
        assert asym / exact == pytest.approx(1.0, abs=2e-3)


def _bounded_kernels():
    """(fbl, m, lambdas, vartheta, kernel) rows of the hop-2 kernel on 6
    ramps (two clamped, rho_l = 0) x 7 shapes x 8 spectra x 321 vartheta,
    1e-8 to 1e8 at 20 points per decade."""
    fbls = [linearize(80.0 / L, L) for L in (50, 100, 300, 2000)]
    fbls += [linearize(2.0 / 100, 100), linearize(0.4 / 50, 50)]
    spectra = [fas_spectrum(n, w).lambdas for n, w in
               [(n, 0.5) for n in (1, 2, 4, 8, 12)]
               + [(12, 4.0), (40, 4.0), (16, 100.0)]]
    vt = 10.0 ** (np.arange(-160, 161) / 20.0)
    for fbl in fbls:
        for m in (1, 2, 3, 5, 10, 20, 40):
            for lams in spectra:
                yield fbl, m, lams, vt, avg_bler_hop2(fbl, vt, m, lams)


def test_kernel_never_exceeds_the_asymptote():
    # P(m, z) <= z^m / m!, and Gauss-Legendre falls short of the integral of
    # the monomial z^(m N): the kernel is at most the asymptote wherever
    # both are normal doubles (largest ratio 0.99999999994 on this grid).
    # The skip of `hop2_components` relies on it there, not on subnormals
    # (ratio up to 1.154)
    tiny = np.finfo(float).tiny
    normal = 0
    for fbl, m, lams, vt, kernel in _bounded_kernels():
        asym = avg_bler_hop2_asymptotic(fbl, vt, m, lams)
        both = (kernel >= tiny) & (tiny <= asym) & (asym < np.inf)
        assert np.all(kernel[both] <= asym[both]), (fbl, m, lams)
        normal += int(both.sum())
    assert normal > 70_000


def test_kernel_never_exceeds_the_endpoint_bound():
    # the integrand at rho_h bounds the kernel: 89,687 points where both
    # are normal, equal at saturation (chi width), and on subnormal kernel
    # values at most 0.11 max(bound, tiny). At extreme vartheta the bound
    # is finite with no warning (the cap keeps a huge vartheta's branch
    # arguments finite) and chi width from the saturation point on
    tiny = np.finfo(float).tiny
    normal = equal = 0
    extremes = np.array([5e-324, 1e-310, 1e300, 1.7e308, np.inf])
    for fbl, m, lams, vt, kernel in _bounded_kernels():
        lam = np.asarray(lams)
        bound = blercore._hop2_endpoint_bound(fbl, vt, m, lam)
        assert np.all(kernel <= np.maximum(bound, tiny)), (fbl, m, lams)
        both = (kernel >= tiny) & (bound >= tiny)
        normal += int(both.sum())
        equal += int(np.sum(kernel[both] == bound[both]))
        sub = kernel < tiny
        assert np.all(kernel[sub] <= 0.2 * np.maximum(bound[sub], tiny))
        bound = blercore._hop2_endpoint_bound(fbl, extremes, m, lam)
        assert np.all(bound[:2] < tiny)
        assert np.all(bound[2:] == fbl.chi * fbl.width)
    assert normal > 89_000 and equal > 0


def test_asymptote_is_finite_up_to_the_largest_double(fbl100):
    # one branch at m = 1: the asymptote is tau * vartheta / lambda, its
    # log ln here; inf only where exp(ln) passes the largest double (ln >
    # 709.78)
    lam = 1e-100
    ln = np.array([709.5, 709.78, 709.79, 720.0])
    vt = np.exp(ln + math.log(lam) - math.log(fbl100.tau))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym = avg_bler_hop2_asymptotic(fbl100, vt, 1, (lam,))
    assert asym[:2] == pytest.approx(np.exp(ln[:2]), rel=1e-12)
    assert np.all(asym[2:] == np.inf)
    assert avg_bler_hop2_asymptotic(fbl100, float(vt[0]), 1,
                                     (lam,)) == asym[0]


# ---------------------------------------------------------------------------
# mixing and combining
# ---------------------------------------------------------------------------

def _mixing_evaluator(p_los2=0.5, eps1_mixed=0.0):
    """An evaluator whose hop-2 LoS probabilities and mixed hop-1 values are
    set by hand, to check its mixing and combining on given numbers."""
    ev = TrajectoryEvaluator(ScenarioConfig(), linearize(0.8, 100), nodes=2)
    ev.geo = replace(ev.geo, p_los2=np.asarray(p_los2, dtype=float))
    # the evaluator builds its hop-2 mixture from the geometry once
    ev._mix2 = _Mixture(ev.geo.p_los2)
    ev.eps1_mixed = np.asarray(eps1_mixed, dtype=float)
    return ev


def test_mix_has_the_bits_of_the_formula():
    rng = np.random.default_rng(20)
    p = rng.uniform(0.0, 1.0, 2000)
    p = p[(0.0 < p) & (p < 1.0)]
    los, nlos = 10.0 ** rng.uniform(-300.0, 0.0, (2, p.size))
    mix = _Mixture(p)
    assert np.array_equal(mix(los, nlos), p * los + (1.0 - p) * nlos)
    # (powers x nodes) values against one node array of weights: each row
    # mixes as it does alone
    rows = 10.0 ** rng.uniform(-300.0, 0.0, (2, 5, p.size))
    assert np.array_equal(mix(*rows), [mix(a, b) for a, b in zip(*rows)])


def test_mix_weight_zero_adds_zero_against_inf():
    got = _Mixture(np.array([0.0, 1.0, 0.5]))(np.array([np.inf, 0.25, 0.5]),
                                              np.array([0.5, np.inf, 0.25]))
    assert np.all(np.isfinite(got))
    assert got.tolist() == [0.5, 0.25, 0.375]


def test_negligible_los_values_leave_the_mix_bits():
    # wherever `los_negligible` holds, any LoS value up to twice
    # max(bound, tiny) gives the bits of LoS value 0.0, on all-positive and
    # masked (weights 0 and 1) mixtures
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 1.0, 4000)
    nlos = 10.0 ** rng.uniform(-320.0, 0.0, p.size)
    bound = nlos * 10.0 ** rng.uniform(-40.0, 3.0, p.size)
    for weights in (p, np.where(rng.random(p.size) < 0.2,
                                rng.choice((0.0, 1.0), p.size), p)):
        mix = _Mixture(weights)
        skip = mix.los_negligible(bound, nlos)
        zero = mix(0.0, nlos)[skip]
        for share in (0.0, 0.3, 1.0, 2.0):
            los = share * np.maximum(bound, tiny)
            assert mix(los, nlos)[skip].tobytes() == zero.tobytes()
        assert 1000 < skip.sum() < p.size
        # never where w_nlos * nlos is subnormal or 0
        assert not np.any(skip & ((1.0 - weights) * nlos < tiny))
    # a bound at or past the rule, inf, or nan (0 * inf) is never
    # negligible, and gives no warning
    mix = _Mixture(np.array([0.5, 0.5, 0.5, 0.0, 0.0, 1.0]))
    nlos = np.array([1.0, 1.0, 1e-310, 0.5, 0.5, 0.5])
    edge = np.spacing(0.5) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mix.los_negligible(
            np.array([edge / 2.0, edge, 0.0, 1.0, np.inf, 0.0]), nlos)
    assert got.tolist() == [True, False, False, True, False, False]


def test_mixture_reference_cases():
    ev = _mixing_evaluator(p_los2=[1.0, 0.5])
    val = ev.hop2_mixed(np.array([0.4, 0.1]), np.array([0.9, 0.3]))
    assert val[0] == 0.4
    assert val[1] == pytest.approx(0.2)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0, 1), b=st.floats(0, 1), p=st.floats(0, 1))
def test_mixture_is_convex_combination(a, b, p):
    val = _mixing_evaluator(p_los2=[p]).hop2_mixed(np.array([a]), np.array([b]))
    assert min(a, b) - 1e-15 <= val[0] <= max(a, b) + 1e-15


def test_e2e_reference_cases():
    ev = _mixing_evaluator(eps1_mixed=[0.0, 0.1, 1.0])
    val = ev.end_to_end(np.array([0.3, 0.1, 0.05]))
    assert val[0] == pytest.approx(0.3)
    assert val[1] == pytest.approx(0.19)
    assert val[2] == 1.0


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0, 1), b=st.floats(0, 1))
def test_e2e_bounds(a, b):
    val = _mixing_evaluator(eps1_mixed=[a]).end_to_end(np.array([b]))[0]
    assert max(a, b) - 1e-15 <= val <= min(1.0, a + b) + 1e-15


# ---------------------------------------------------------------------------
# trajectory averaging
# ---------------------------------------------------------------------------

def test_chebyshev_two_node_angles():
    theta, _ = chebyshev_nodes(2)
    x = math.cos(math.pi / 4.0)
    assert sorted(theta) == pytest.approx(
        sorted([math.pi * x + math.pi, -math.pi * x + math.pi]), rel=1e-12)
    assert sorted(theta) == pytest.approx([0.9201512, 5.3630341], abs=5e-7)


def test_chebyshev_constant_integrand_error():
    # sum of weights = (pi/2M) / sin(pi/2M) -> 1; known error law
    for m_nodes, bound in ((16, 2e-3), (512, 1e-4)):
        _, w = chebyshev_nodes(m_nodes)
        total = float(np.sum(w))
        expected = (math.pi / (2 * m_nodes)) / math.sin(math.pi / (2 * m_nodes))
        assert total == pytest.approx(expected, rel=1e-12)
        assert abs(total - 1.0) < bound


def test_trajectory_matches_midpoint_reference(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    p2 = 10.0 ** ((18.0 - 30.0) / 10.0)
    approx = TrajectoryEvaluator(urban, fbl100, nodes=128).e2e_avg(
        p2, fas.lambdas)
    k = 10_000
    theta = (np.arange(k) + 0.5) * 2.0 * math.pi / k
    # midpoint reference through the same per-angle composition
    geo = trajectory_geometry(urban, theta)
    eps1 = np.zeros(k)
    eps2 = np.zeros(k)
    for lt, prob1, prob2 in (("los", geo.p_los1, geo.p_los2),
                             ("nlos", 1.0 - geo.p_los1, 1.0 - geo.p_los2)):
        m = urban.nakagami_m(lt)
        vt1 = m * urban.noise_power / (urban.p1 * geo.beta1[lt])
        vt2 = m * urban.noise_power / (p2 * geo.beta2[lt])
        eps1 += prob1 * avg_bler_hop1(fbl100, vt1, m)
        eps2 += prob2 * avg_bler_hop2(fbl100, vt2, m, fas.lambdas)
    ref = float(np.mean(1.0 - (1.0 - eps1) * (1.0 - eps2)))
    assert abs(approx - ref) < 1e-6


def test_trajectory_breakdown_nodes(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    ev = TrajectoryEvaluator(urban, fbl100, nodes=16)
    e2_los, e2_nlos = ev.hop2_components(0.05, fas.lambdas)
    eps2 = ev.hop2_mixed(e2_los, e2_nlos)
    nodes = ev.end_to_end(eps2)
    assert len(nodes) == 16
    manual = sum(w * e for w, e in zip(ev.weights, nodes))
    assert ev.e2e_avg(0.05, fas.lambdas) == pytest.approx(manual, rel=1e-12)
    assert np.all((0.0 <= eps2) & (eps2 <= 1.0))
    assert nodes == pytest.approx(
        1.0 - (1.0 - ev.eps1_mixed) * (1.0 - eps2), abs=1e-12)


def test_error_floor_bounds_trajectory(urban, fbl100):
    ev = TrajectoryEvaluator(urban, fbl100)
    floor = ev.hop1_avg()
    for p2_dbm in (5.0, 15.0, 25.0, 45.0):
        val = ev.e2e_avg(10 ** ((p2_dbm - 30) / 10),
                         fas_spectrum(2, 0.5).lambdas)
        assert val >= floor - 1e-12


def test_error_floor_constant_hop1():
    # the floor is the weighted node average of the first-hop mixture
    cfg = ScenarioConfig()
    p = linearize(0.8, 100)
    ev = TrajectoryEvaluator(cfg, p, nodes=64)
    geo = trajectory_geometry(cfg, ev.theta)
    eps1 = sum(prob * avg_bler_hop1(
        p, cfg.nakagami_m(lt) * cfg.noise_power / (cfg.p1 * geo.beta1[lt]),
        cfg.nakagami_m(lt))
        for lt, prob in (("los", geo.p_los1), ("nlos", 1.0 - geo.p_los1)))
    assert ev.hop1_avg() == pytest.approx(float(ev.weights @ eps1), rel=1e-14)


def test_error_floor_angle_independent_first_hop():
    # source on the trajectory axis makes the first hop constant over the
    # circle; the floor then reproduces that constant up to the node rule's
    # known constant-mode error (pi/2M)/sin(pi/2M)
    cfg = ScenarioConfig(bs_position=(0.0, 0.0, 40.0))
    p = linearize(0.8, 100)
    ev = TrajectoryEvaluator(cfg, p, nodes=128)
    eps1 = np.asarray(ev.eps1_mixed)
    assert eps1.max() - eps1.min() < 1e-15
    const = float(eps1[0])
    floor = ev.hop1_avg()
    assert floor == pytest.approx(const, rel=3e-5)
    quad_const = (math.pi / 256.0) / math.sin(math.pi / 256.0)
    assert floor == pytest.approx(const * quad_const, rel=1e-12)


def test_linearized_average_tracks_exact_average(urban, fbl100):
    # the surrogate's absolute error against the exact Q-average stays below
    # 1e-2 on the rate-parameter states the reference scenario actually
    # produces (both hops, both link types, relay power swept 0..27 dBm)
    fas = fas_spectrum(2, 0.5)
    ev = TrajectoryEvaluator(urban, fbl100, nodes=8)
    states = []
    for lt in ("los", "nlos"):
        m = urban.nakagami_m(lt)
        vt1 = m * urban.noise_power / (urban.p1 * ev.geo.beta1[lt])
        states.extend((float(v), m, None) for v in vt1[::3])
        for p2_dbm in (0.0, 12.0, 27.0):
            p2 = 10.0 ** ((p2_dbm - 30.0) / 10.0)
            vt2 = m * urban.noise_power / (p2 * ev.geo.beta2[lt])
            states.extend((float(v), m, fas.lambdas) for v in vt2[::3])
    worst = 0.0
    for vt, m, branch in states:
        if branch is None:
            lin = avg_bler_hop1(fbl100, vt, m)
        else:
            lin = avg_bler_hop2(fbl100, vt, m, branch)
        exact = exact_avg_bler(vt, m, branch, fbl100.rate, fbl100.blocklength)
        worst = max(worst, abs(lin - exact))
    assert worst < 1e-2
