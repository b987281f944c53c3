import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from fasrelay import (McConfig, McEstimate, TrajectoryEvaluator,
                      fas_spectrum, jakes_matrix, mc_average_bler,
                      sample_fas_gain_model, sample_fas_gain_physical,
                      sample_hop1_gain)
from fasrelay.blercore import instantaneous_bler
from fasrelay.geometry import trajectory_geometry
from fasrelay.mcoracle import substreams

from conftest import cdf_hop1, cdf_hop2, ks_statistic

# 1% critical value of the one-sample KS statistic (asymptotic)
_KS_CRIT = 1.6276


def _rng(seed=1234):
    return np.random.Generator(np.random.PCG64(seed))


def test_hop1_gain_unit_mean_and_variance():
    rng = _rng(7)
    n = 1_000_000
    draws = sample_hop1_gain(1, rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert draws.mean() == pytest.approx(1.0, abs=4.0 * se)
    # exponential distribution has unit variance at unit mean
    assert draws.var(ddof=1) == pytest.approx(1.0, abs=0.01)
    draws5 = sample_hop1_gain(5, rng, n)
    assert draws5.mean() == pytest.approx(1.0, abs=4.0 * draws5.std() / math.sqrt(n))
    assert draws5.var(ddof=1) == pytest.approx(0.2, abs=0.005)


def test_hop1_gain_ks_against_cdf():
    rng = _rng(42)
    n = 100_000
    for m in (1, 2, 5):
        draws = sample_hop1_gain(m, rng, n)
        # SNR scaling: with vartheta = m the CDF argument matches the
        # unit-mean Gamma gain directly
        stat = ks_statistic(draws, lambda x: cdf_hop1(x, float(m), m))
        assert stat < _KS_CRIT / math.sqrt(n)


def test_ks_statistic_matches_pointwise_cdf():
    # one array call to the CDF gives the statistic of one call per sample
    lams = fas_spectrum(2, 0.5).lambdas
    draws = sample_fas_gain_model(2, lams, _rng(9), 2_000) / sum(lams)
    cdf = lambda x: cdf_hop2(x, 2 * sum(lams), 2, lams)  # noqa: E731
    xs = np.sort(draws)
    f = np.array([cdf(x) for x in xs])
    loop = max(np.max(np.arange(1, xs.size + 1) / xs.size - f),
               np.max(f - np.arange(0, xs.size) / xs.size))
    assert ks_statistic(draws, cdf) == loop


def test_fas_gain_model_single_branch_matches_hop1():
    n = 200_000
    a = sample_fas_gain_model(3, (1.0,), _rng(5), n)
    b = sample_hop1_gain(3, _rng(5), n)
    # same stream, same construction: identical samples
    assert np.array_equal(a, b)


def test_fas_gain_model_dominance():
    n = 200_000
    one = sample_fas_gain_model(1, (1.0,), _rng(11), n)
    two = sample_fas_gain_model(1, (1.0, 1.0), _rng(12), n)
    xs = np.linspace(0.05, 4.0, 25)
    emp_one = np.array([(one <= x).mean() for x in xs])
    emp_two = np.array([(two <= x).mean() for x in xs])
    assert np.all(emp_two <= emp_one + 4.0 / math.sqrt(n))


def test_fas_gain_model_ks_against_cdf():
    n = 100_000
    lams = fas_spectrum(2, 0.5).lambdas
    sumlam = sum(lams)
    for m in (1, 5):
        draws = sample_fas_gain_model(m, lams, _rng(100 + m), n)
        # under vartheta2 = m * sum(lams) the normalized-SNR CDF evaluated at
        # gain/sum(lams) matches the raw selected gain
        stat = ks_statistic(draws / sumlam,
                            lambda x: cdf_hop2(x, m * sumlam, m, lams))
        assert stat < _KS_CRIT / math.sqrt(n)


def test_fas_gain_physical_single_port_reduction():
    n = 50_000
    j = jakes_matrix(1, 0.5)
    draws = sample_fas_gain_physical(2, j, _rng(3), n)
    stat = ks_statistic(draws, lambda x: cdf_hop1(x, 2.0, 2))
    assert stat < _KS_CRIT / math.sqrt(n)


def test_fas_gain_physical_port_power_correlation():
    # for a complex Gaussian pair with amplitude correlation r, the power
    # correlation is r^2; check the two-port half-wavelength case
    n = 400_000
    rng = _rng(17)
    j = jakes_matrix(2, 0.5)
    w, v = np.linalg.eigh(j)
    color = v * np.sqrt(np.clip(w, 0.0, None))
    g = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) * math.sqrt(0.5)
    h = g @ color.T
    p = np.abs(h) ** 2
    corr = np.corrcoef(p[:, 0], p[:, 1])[0, 1]
    assert corr == pytest.approx(special.j0(math.pi) ** 2, abs=0.01)


def test_fas_gain_physical_gap_shrinks_with_aperture():
    # the eigen-branch model slightly overshoots the physical selected-gain
    # mean (unequal branch powers raise the maximum); the gap collapses from
    # ~13% at half-stride spacing to ~3.3% once ports decorrelate and stays
    # bounded there (frozen from a 4e5-trial comparative run)
    n = 200_000
    gaps = {}
    for w in (2.0, 4.0):
        spec = fas_spectrum(4, w)
        j = jakes_matrix(4, w)
        phys = sample_fas_gain_physical(1, j, _rng(23), n)
        model = sample_fas_gain_model(1, spec.lambdas, _rng(29), n)
        gaps[w] = abs(phys.mean() - model.mean()) / model.mean()
    assert gaps[4.0] < gaps[2.0]
    assert gaps[4.0] < 0.05


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0)
    with pytest.raises(ValueError):
        McConfig(mode="other")
    with pytest.raises(ValueError):
        McEstimate(mean=0.5, std_error=-1.0, trials=10)


def test_mc_average_bler_determinism(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    mc = McConfig(seed=99, trials=40_000, batch=16_384)
    a = mc_average_bler(urban, fas, fbl100, 0.05, mc)
    b = mc_average_bler(urban, fas, fbl100, 0.05, mc)
    assert a == b


def test_mc_average_bler_batch_split_invariance(urban, fbl100):
    # running the batches by hand on the same derived substreams and pooling
    # reproduces the single-call estimate exactly
    from fasrelay.mcoracle import simulate_batch
    fas = fas_spectrum(2, 0.5)
    trials, batch = 50_000, 20_000
    mc = McConfig(seed=1234, trials=trials, batch=batch)
    whole = mc_average_bler(urban, fas, fbl100, 0.05, mc)
    sizes = [batch, batch, trials - 2 * batch]
    rngs = substreams(1234, len(sizes))
    acc = 0.0
    count = 0
    for rng, n in zip(rngs, sizes):
        s, _, n_done = simulate_batch(urban, fas, fbl100, 0.05, "model", rng, n)
        acc += s
        count += n_done
    assert count == trials
    assert acc / count == pytest.approx(whole.mean, rel=1e-13)


def test_mc_average_bler_different_batch_sizes_agree_statistically(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    a = mc_average_bler(urban, fas, fbl100, 0.05,
                        McConfig(seed=8, trials=60_000, batch=60_000))
    b = mc_average_bler(urban, fas, fbl100, 0.05,
                        McConfig(seed=8, trials=60_000, batch=7_000))
    assert abs(a.mean - b.mean) < 6.0 * max(a.std_error, b.std_error)


def test_mc_estimate_bounds(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    est = mc_average_bler(urban, fas, fbl100, 0.01,
                          McConfig(seed=5, trials=20_000))
    assert 0.0 <= est.mean <= 1.0
    assert est.std_error <= 0.5 / math.sqrt(est.trials)


def test_mc_fixed_gain_hook_matches_deterministic_mixture(urban, fbl100):
    # with gains pinned, randomness is only the angle and the type draws;
    # the estimate must match the geometric average of instantaneous values
    fas = fas_spectrum(2, 0.5)
    p2 = 0.02
    est = mc_average_bler(urban, fas, fbl100, p2,
                          McConfig(seed=7, trials=400_000), fixed_gains=(1.0, 1.0))
    k = 4001
    theta = (np.arange(k) + 0.5) * 2 * math.pi / k
    geo = trajectory_geometry(urban, theta)
    acc = 0.0
    for i in range(k):
        e1 = sum(p * instantaneous_bler(
            urban.p1 * geo.beta1[lt][i] / urban.noise_power, fbl100.rate,
            fbl100.blocklength)
            for lt, p in (("los", geo.p_los1[i]), ("nlos", 1 - geo.p_los1[i])))
        e2 = sum(p * instantaneous_bler(
            p2 * geo.beta2[lt][i] / urban.noise_power, fbl100.rate,
            fbl100.blocklength)
            for lt, p in (("los", geo.p_los2[i]), ("nlos", 1 - geo.p_los2[i])))
        acc += e1 + e2 - e1 * e2
    ref = acc / k
    assert est.mean == pytest.approx(ref, abs=4.0 * est.std_error)


def test_mc_matches_analytic_within_sampling_noise(urban, fbl100):
    # closed forms and simulation agree within a few standard errors plus
    # the surrogate's bias against the exact Q-average (-4.9% to +0.6% on the
    # validate preset, see the blercore module docstring)
    fas = fas_spectrum(2, 0.5)
    ev = TrajectoryEvaluator(urban, fbl100)
    for p2_dbm in (6.0, 24.0):
        p2 = 10 ** ((p2_dbm - 30) / 10)
        ana = ev.e2e_avg(p2, fas.lambdas)
        est = mc_average_bler(urban, fas, fbl100, p2,
                              McConfig(seed=31337, trials=150_000))
        assert abs(ana - est.mean) < 3.0 * est.std_error + 0.06 * ana


# (sum, sum of squares) of one 20,000-trial batch at p2 = 0.01 W on the
# PCG64(2024) stream, as produced by the reference implementation. The stream
# order and the floating-point order of every per-trial operation are part of
# the contract: a rewrite of the batch arithmetic must reproduce these bits.
_PINNED_BATCHES = {
    # (ports, mode, fixed_gains): (sum, sum of squares)
    (2, "model", None): ("0x1.fc7e890072b92p+10", "0x1.b123fecd5c693p+10"),
    (8, "model", None): ("0x1.aeb78400eb9c5p+7", "0x1.58334c925e7d0p+7"),
    (4, "physical", None): ("0x1.3861839d59a6fp+10", "0x1.fa5c023afc488p+9"),
    (2, "model", (0.3, 0.1)): ("0x1.2ae7fffd7f72ep+13", "0x1.2ae7fffafee5ep+13"),
}


def test_simulate_batch_bits_are_pinned(urban, fbl100):
    from fasrelay.mcoracle import simulate_batch
    for (n_ports, mode, fixed), (s_hex, sq_hex) in _PINNED_BATCHES.items():
        fas = fas_spectrum(n_ports, 0.5)
        s, sq, n = simulate_batch(urban, fas, fbl100, 0.01, mode, _rng(2024),
                                  20_000, fixed)
        assert n == 20_000
        assert (s.hex(), sq.hex()) == (s_hex, sq_hex), (n_ports, mode, fixed)
    # two batches (20,000 + 10,000) pooled by mc_average_bler
    est = mc_average_bler(urban, fas_spectrum(2, 0.5), fbl100, 0.01,
                          McConfig(seed=77, trials=30_000, batch=20_000))
    assert est.trials == 30_000
    assert (est.mean.hex(), est.std_error.hex()) == (
        "0x1.a096b08662b42p-4", "0x1.a0cbf592ce7e7p-10")


# (sum, sum of squares) of batches that span several row chunks of the batch
# arithmetic (the validate preset's 250,000-trial batch; 65,537 trials ends
# in a one-trial chunk) and of one- and two-trial batches, on the PCG64(2024)
# stream, as produced by the whole-array implementation.
_PINNED_LONG_AND_SHORT_BATCHES = {
    # (trials, ports, mode, fixed_gains, p2 in W): (sum, sum of squares)
    (250_000, 2, "model", None, 0.01): (
        "0x1.9667a9f51ac0ap+14", "0x1.5ba505dcb5e77p+14"),
    (65_537, 8, "model", None, 0.01): (
        "0x1.6006df5ec206ep+9", "0x1.172f311518788p+9"),
    (65_537, 4, "physical", None, 0.01): (
        "0x1.022aa2a4a3d8fp+12", "0x1.a1f245f8e1d52p+11"),
    (65_537, 2, "model", (0.3, 0.1), 0.01): (
        "0x1.f0d3fffbfee61p+14", "0x1.f0d3fff7fdcc2p+14"),
    (1, 2, "model", None, 1e-4): (
        "0x1.87a3f49c40000p-18", "0x1.2b931f1b5a19ep-35"),
    (2, 2, "model", None, 1e-4): (
        "0x1.000000000202cp+0", "0x1.0000000000000p+0"),
}


@pytest.mark.parametrize("case", _PINNED_LONG_AND_SHORT_BATCHES, ids=lambda c: (
    f"{c[0]}-trials-{c[2]}-N{c[1]}" + ("-fixed-gains" if c[3] else "")))
def test_simulate_batch_bits_are_pinned_long_and_short(urban, fbl100, case):
    from fasrelay.mcoracle import simulate_batch
    trials, n_ports, mode, fixed, p2 = case
    fas = fas_spectrum(n_ports, 0.5)
    s, sq, n = simulate_batch(urban, fas, fbl100, p2, mode, _rng(2024),
                              trials, fixed)
    assert n == trials
    assert (s.hex(), sq.hex()) == _PINNED_LONG_AND_SHORT_BATCHES[case]


# (sum, sum of squares) of batches where the per-trial BLERs are 0.0 for most
# trials and the LoS shares are lopsided, on the PCG64(2024) stream, as
# produced by the implementation that evaluated Q on every trial and
# unpacked the gains by boolean masks: at 400 m the LoS shares are 0.98 on
# both hops, and at p2 = 100 W every hop-2 BLER of the batch is 0.0.
_PINNED_HIGH_SNR_BATCHES = {
    # (trials, ports, mode, altitude in m, p2 in W): (sum, sum of squares)
    (65_537, 2, "model", 400.0, 0.01): (
        "0x1.4521cbf73bbe2p+10", "0x1.39d5b8bbdae0bp+10"),
    (20_000, 4, "physical", 400.0, 0.01): (
        "0x1.539f95aef5162p+8", "0x1.439fe7c8ea0d6p+8"),
    (20_000, 2, "model", 100.0, 100.0): (
        "0x1.1511663ef0504p+2", "0x1.ee27fc2a2c898p+1"),
}


@pytest.mark.parametrize("case", _PINNED_HIGH_SNR_BATCHES, ids=lambda c: (
    f"{c[3]:.0f}m-{c[4]:g}W-{c[2]}-N{c[1]}"))
def test_simulate_batch_bits_are_pinned_at_high_snr(urban, fbl100, case,
                                                    monkeypatch):
    from fasrelay import mcoracle
    trials, n_ports, mode, altitude, p2 = case
    cfg = replace(urban, uav_altitude=altitude)
    # the batch evaluates hop 1 and then hop 2 per row chunk
    blers = []

    def recorded(gamma, rate, blocklength):
        blers.append(instantaneous_bler(gamma, rate, blocklength))
        return blers[-1].copy()

    monkeypatch.setattr(mcoracle, "instantaneous_bler", recorded)
    s, sq, n = mcoracle.simulate_batch(cfg, fas_spectrum(n_ports, 0.5), fbl100,
                                       p2, mode, _rng(2024), trials)
    assert n == trials
    assert (s.hex(), sq.hex()) == _PINNED_HIGH_SNR_BATCHES[case]
    hop1, hop2 = (np.concatenate(blers[hop::2]) for hop in (0, 1))
    assert hop1.size == hop2.size == trials
    if p2 == 100.0:
        assert not hop2.any()
    else:
        geo = trajectory_geometry(cfg, np.linspace(0.0, 2.0 * math.pi, 1001))
        assert min(geo.p_los1.mean(), geo.p_los2.mean()) > 0.97


def test_simulate_batch_memory_peak(urban, fbl100):
    # one 250,000-trial model batch holds at most 4.5 trial-length float64
    # arrays at once (4.24 measured): three trial-length buffers and two
    # LoS masks carry the batch, and the geometry, gains and BLERs are
    # formed in row chunks whose temporaries are 16,384 doubles each
    from fasrelay.mcoracle import simulate_batch
    n = 250_000
    fas = fas_spectrum(2, 0.5)
    tracemalloc.start()
    try:
        simulate_batch(urban, fas, fbl100, 0.01, "model", _rng(5), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n * 8
