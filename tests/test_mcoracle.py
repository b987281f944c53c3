import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from fasrelay import (McConfig, McEstimate, TrajectoryEvaluator,
                      eigen_spectrum, fas_spectrum, jakes_matrix,
                      mc_average_bler, sample_fas_gain_model,
                      sample_fas_gain_physical)
from fasrelay.blercore import (_Mixture, avg_bler_hop1, avg_bler_hop2,
                               instantaneous_bler)
from fasrelay.geometry import LINK_TYPES, trajectory_geometry
from fasrelay.mcoracle import substreams

from conftest import cdf_hop1, cdf_hop2, ks_statistic

# 1% critical value of the one-sample KS statistic (asymptotic)
_KS_CRIT = 1.6276


def _rng(seed=1234):
    return np.random.Generator(np.random.PCG64(seed))


def test_hop1_gain_unit_mean_and_variance():
    rng = _rng(7)
    n = 1_000_000
    draws = sample_fas_gain_model(1, (1.0,), rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert draws.mean() == pytest.approx(1.0, abs=4.0 * se)
    # exponential distribution has unit variance at unit mean
    assert draws.var(ddof=1) == pytest.approx(1.0, abs=0.01)
    draws5 = sample_fas_gain_model(5, (1.0,), rng, n)
    assert draws5.mean() == pytest.approx(1.0, abs=4.0 * draws5.std() / math.sqrt(n))
    assert draws5.var(ddof=1) == pytest.approx(0.2, abs=0.005)


def test_hop1_gain_ks_against_cdf():
    rng = _rng(42)
    n = 100_000
    for m in (1, 2, 5):
        draws = sample_fas_gain_model(m, (1.0,), rng, n)
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
    # one unit branch is the hop-1 gain Gamma(3, 1/3): numpy's Gamma(3)
    # sampler, scaled by 1/3; at m = 1 the exponential sampler gives the
    # bits of standard_gamma(1)
    a = sample_fas_gain_model(3, (1.0,), _rng(5), n)
    assert np.array_equal(a, _rng(5).standard_gamma(3, (1, n))[0] * (1 / 3))
    b = sample_fas_gain_model(1, (1.0,), _rng(6), n)
    assert np.array_equal(b, _rng(6).standard_gamma(1, n))
    # two branches: the larger of the scaled rows of one (2, n) draw
    lams = (1.5, 0.5)
    c = sample_fas_gain_model(2, lams, _rng(7), n)
    g = _rng(7).standard_gamma(2, (2, n))
    assert np.array_equal(c, np.maximum(g[0] * (1.5 / 2), g[1] * (0.5 / 2)))


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


def test_a_nan_aperture_is_rejected(urban, fbl100):
    # `eigen_spectrum`'s aperture defaults to NaN, which `physical` mode
    # passes to the Jakes matrix: both calls say so, not "gamma must be
    # nonnegative" from a NaN correlation
    with pytest.raises(ValueError, match="aperture must be positive"):
        jakes_matrix(3, math.nan)
    fas = eigen_spectrum(jakes_matrix(3, 0.5))
    with pytest.raises(ValueError, match="aperture must be positive"):
        mc_average_bler(urban, fas, fbl100, 0.1,
                        McConfig(trials=100, mode="physical"))


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


_LATTICE_GRID = {
    "altitude": (20.0, 100.0, 200.0, 400.0, 800.0),
    "p1_dbm": (30.0, 40.0, 46.0),
    "ports": (1, 2, 8),
    "p2_dbm": (0.0, 10.0, 20.0, 30.0, 40.0),
}


def _lattice_means(cfg, fbl, nodes):
    """Mean over the `nodes`-node midpoint lattice of the trajectory of the
    closed-form end-to-end BLER, per (p1 dBm, ports, p2 dBm) of
    _LATTICE_GRID."""
    theta = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    geo = trajectory_geometry(cfg, theta)

    def mixed(p_los, beta, dbm, avg):
        p = 10.0 ** ((dbm - 30.0) / 10.0)
        return _Mixture(p_los)(*(avg(cfg.nakagami_m(lt) * cfg.noise_power
                                     / (p * beta[lt]), cfg.nakagami_m(lt))
                                 for lt in LINK_TYPES))

    eps1 = {p1: mixed(geo.p_los1, geo.beta1, p1,
                      lambda vt, m: avg_bler_hop1(fbl, vt, m))
            for p1 in _LATTICE_GRID["p1_dbm"]}
    means = {}
    for n_ports in _LATTICE_GRID["ports"]:
        lams = fas_spectrum(n_ports, 0.5).lambdas
        for p2 in _LATTICE_GRID["p2_dbm"]:
            eps2 = mixed(geo.p_los2, geo.beta2, p2,
                         lambda vt, m: avg_bler_hop2(fbl, vt, m, lams))
            for p1, e1 in eps1.items():
                means[p1, n_ports, p2] = float(np.mean(e1 + eps2 * (1.0 - e1)))
    return means


@pytest.mark.parametrize("altitude", _LATTICE_GRID["altitude"],
                         ids=lambda z: f"{z:.0f}m")
def test_angle_lattice_mean_matches_a_16x_finer_lattice(urban, fbl100,
                                                        altitude):
    # a batch estimates the mean of the trajectory integrand over the
    # 4,096-node midpoint lattice; on the closed-form BLER, a smooth periodic
    # integrand like the exact one, that mean is the 65,536-node mean to
    # rounding (at most 5.6e-16 relative over the 225 configs of the grid)
    from fasrelay.mcoracle import _ANGLES
    cfg = replace(urban, uav_altitude=altitude)
    coarse = _lattice_means(cfg, fbl100, _ANGLES)
    fine = _lattice_means(cfg, fbl100, 16 * _ANGLES)
    assert max(abs(coarse[k] / fine[k] - 1.0) for k in fine) <= 1e-13


def test_lattice_node_of_each_angle():
    # a trial draws its angle as a fraction of the circle in [0, 1) and
    # reads node k on [k, k + 1) / _ANGLES: exactly, at every arc boundary
    from fasrelay.mcoracle import _ANGLES, _node
    k = np.arange(1, _ANGLES)
    assert _node(np.zeros(1))[0] == 0
    np.testing.assert_array_equal(_node(k / _ANGLES), k)
    np.testing.assert_array_equal(_node(np.nextafter(k / _ANGLES, 0.0)), k - 1)
    # the largest fraction below 1 (an angle just short of 2 pi) reads the
    # last node, and no draw reads past it
    assert _node(np.array([np.nextafter(1.0, 0.0)]))[0] == _ANGLES - 1
    assert _node(_rng(3).random(1_000_000)).max() == _ANGLES - 1
    # each node's angle lies in its own arc
    mid = (np.arange(_ANGLES) + 0.5) / _ANGLES
    np.testing.assert_array_equal(_node(mid), np.arange(_ANGLES))
    # the fractions are the draws rng.uniform(0, 2 pi) scales to the angles
    n = 100_000
    assert np.array_equal(_rng(4).uniform(0.0, 2.0 * math.pi, n),
                          2.0 * math.pi * _rng(4).random(n))


@pytest.mark.parametrize("mode, fixed", [("model", None), ("physical", None),
                                         ("model", (0.3, 0.1))])
def test_simulate_batch_builds_the_lattice_geometry_once(urban, fbl100,
                                                        monkeypatch, mode,
                                                        fixed):
    from fasrelay import mcoracle
    angles = []

    def counted(cfg, theta):
        angles.append(np.array(theta))
        return trajectory_geometry(cfg, theta)

    monkeypatch.setattr(mcoracle, "trajectory_geometry", counted)
    # three chunks of the batch
    mcoracle.simulate_batch(urban, fas_spectrum(2, 0.5), fbl100, 0.01, mode,
                            _rng(8), 40_000, fixed)
    assert len(angles) == 1
    np.testing.assert_array_equal(
        angles[0], (np.arange(4096) + 0.5) * (2.0 * math.pi / 4096))


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
# PCG64(2024) stream, each trial's geometry read at the node of its angle on
# the 4,096-node lattice. The per-chunk stream order and the floating-point
# order of every per-trial operation and of the chunk sums are part of the
# contract: a rewrite of the batch arithmetic must reproduce these bits.
_PINNED_BATCHES = {
    # (ports, mode, fixed_gains): (sum, sum of squares)
    (2, "model", None): ("0x1.021d478f87b39p+11", "0x1.b934d31de0bc4p+10"),
    (8, "model", None): ("0x1.ad44ade9d00fdp+7", "0x1.4cdb09ddcf32ep+7"),
    (4, "physical", None): ("0x1.480ee789d5ebap+10", "0x1.0aee0a8be2346p+10"),
    (2, "model", (0.3, 0.1)): ("0x1.2ea7fffdb25eap+13", "0x1.2ea7fffb64bd4p+13"),
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
        "0x1.ab37de63ebbffp-4", "0x1.a7a535f164960p-10")


# (sum, sum of squares) of batches that span several chunks (the validate
# preset's 250,000-trial batch; 65,537 trials ends in a one-trial chunk) and
# of one- and two-trial batches, on the PCG64(2024) stream, as the chunked
# lattice batch produces them.
_PINNED_LONG_AND_SHORT_BATCHES = {
    # (trials, ports, mode, fixed_gains, p2 in W): (sum, sum of squares)
    (250_000, 2, "model", None, 0.01): (
        "0x1.911dfb02798c1p+14", "0x1.56650b68e4de9p+14"),
    (65_537, 8, "model", None, 0.01): (
        "0x1.6260c3af7425ep+9", "0x1.1ac6a286720f1p+9"),
    (65_537, 4, "physical", None, 0.01): (
        "0x1.05af17fa360ffp+12", "0x1.aafbb9ed3e767p+11"),
    (65_537, 2, "model", (0.3, 0.1), 0.01): (
        "0x1.efabfffbfce57p+14", "0x1.efabfff7f9cacp+14"),
    (1, 2, "model", None, 1e-4): (
        "0x1.0a9b8d1720126p-32", "0x1.15a79fb836698p-64"),
    (2, 2, "model", None, 1e-4): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
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
# trials and the LoS shares are lopsided, on the PCG64(2024) stream, as the
# chunked lattice batch produces them: at 400 m the LoS shares are 0.98 on
# both hops, and at p2 = 100 W every hop-2 BLER of the batch is 0.0, so both
# hop-2 calls skip every Q evaluation, while 1.8% of the hop-1 BLERs are not
# 0.0 and are paired with their trials' hop-2 BLERs.
_PINNED_HIGH_SNR_BATCHES = {
    # (trials, ports, mode, altitude in m, p2 in W): (sum, sum of squares)
    (65_537, 2, "model", 400.0, 0.01): (
        "0x1.45825c38309f8p+10", "0x1.39846f07a77c3p+10"),
    (20_000, 4, "physical", 400.0, 0.01): (
        "0x1.8030ae8ee3335p+8", "0x1.6d66931b1a8fep+8"),
    (20_000, 2, "model", 100.0, 100.0): (
        "0x1.def8f42ff3619p+0", "0x1.9b6782d4fedecp+0"),
}


@pytest.mark.parametrize("case", _PINNED_HIGH_SNR_BATCHES, ids=lambda c: (
    f"{c[3]:.0f}m-{c[4]:g}W-{c[2]}-N{c[1]}"))
def test_simulate_batch_bits_are_pinned_at_high_snr(urban, fbl100, case,
                                                    monkeypatch):
    from fasrelay import mcoracle
    trials, n_ports, mode, altitude, p2 = case
    cfg = replace(urban, uav_altitude=altitude)
    # the batch evaluates hop 1 and then hop 2 per chunk
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
        assert np.count_nonzero(hop1) == 358
    else:
        geo = trajectory_geometry(cfg, np.linspace(0.0, 2.0 * math.pi, 1001))
        assert min(geo.p_los1.mean(), geo.p_los2.mean()) > 0.97


def _trial_order_batch(cfg, fas, fbl, p2, mode, rng, n, fixed_gains=None):
    """(sum, sum of squares) of the batch's stream, each trial's end-to-end
    BLER formed in trial order through boolean masks and summed by
    math.fsum."""
    from fasrelay.mcoracle import _ANGLES, _CHUNK
    geo = trajectory_geometry(cfg, (np.arange(_ANGLES) + 0.5)
                              * (2.0 * math.pi / _ANGLES))
    eps = []
    for start in range(0, n, _CHUNK):
        c = min(_CHUNK, n - start)
        u = rng.random((3, c))
        node = (u[0] * _ANGLES).astype(int)
        hops = []
        for hop, (p_los, beta, p) in enumerate((
                (geo.p_los1, geo.beta1, cfg.p1), (geo.p_los2, geo.beta2, p2))):
            los = u[1 + hop] < p_los[node]
            snr = np.empty(c)
            for lt, mask in (("los", los), ("nlos", ~los)):
                k, m = int(mask.sum()), cfg.nakagami_m(lt)
                if fixed_gains is not None:
                    g = np.full(k, fixed_gains[hop])
                elif hop == 0:
                    g = sample_fas_gain_model(m, (1.0,), rng, k)
                elif mode == "model":
                    g = sample_fas_gain_model(m, fas.lambdas, rng, k)
                else:
                    g = sample_fas_gain_physical(
                        m, jakes_matrix(fas.n_ports, fas.aperture), rng, k)
                snr[mask] = np.multiply(beta[lt][node[mask]], p) \
                    / cfg.noise_power * g
            hops.append(instantaneous_bler(snr, fbl.rate, fbl.blocklength))
        eps.append(hops[0] + hops[1] * (1.0 - hops[0]))
    eps = np.concatenate(eps)
    return math.fsum(eps), math.fsum(eps * eps)


@pytest.mark.parametrize("case", [
    (40_000, 2, "model", None, 0.01, 100.0),
    (40_000, 4, "physical", None, 0.01, 100.0),
    (40_000, 2, "model", (0.3, 0.1), 0.01, 100.0),
    (33_000, 8, "model", None, 1e-3, 400.0),
    (3, 2, "model", None, 1e-4, 100.0),
], ids=lambda c: f"{c[0]}-trials-{c[2]}-N{c[1]}-{c[5]:.0f}m"
    + ("-fixed-gains" if c[3] else ""))
def test_simulate_batch_matches_a_trial_order_reference(urban, fbl100, case):
    # a chunk packs each hop's trials by link state and pairs the hops only
    # where the hop-1 BLER is not 0.0; on the same stream, the trial-order
    # formula over boolean masks gives the same sums to rounding
    from fasrelay.mcoracle import simulate_batch
    n, n_ports, mode, fixed, p2, altitude = case
    cfg = replace(urban, uav_altitude=altitude)
    fas = fas_spectrum(n_ports, 0.5)
    s, sq, _ = simulate_batch(cfg, fas, fbl100, p2, mode, _rng(3), n, fixed)
    ref_s, ref_sq = _trial_order_batch(cfg, fas, fbl100, p2, mode, _rng(3), n,
                                       fixed)
    assert s == pytest.approx(ref_s, rel=1e-13)
    assert sq == pytest.approx(ref_sq, rel=1e-13)


def _batch_peak(cfg, fbl, mode, n_ports, n):
    """tracemalloc peak of one simulate_batch, in bytes."""
    from fasrelay.mcoracle import simulate_batch
    fas = fas_spectrum(n_ports, 0.5)
    tracemalloc.start()
    try:
        simulate_batch(cfg, fas, fbl, 0.01, mode, _rng(5), n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_batch_memory_peak(urban, fbl100):
    # a chunk of 16,384 trials holds its own draws, SNRs and BLERs, and the
    # geometry is that of 4,096 lattice nodes, so the peak does not grow
    # with the batch: 2.68 MB measured at 250,000 and at 1,000,000 trials
    for n in (250_000, 1_000_000):
        assert _batch_peak(urban, fbl100, "model", 2, n) <= 3.5e6, n


def test_simulate_batch_memory_peak_physical(urban, fbl100):
    # physical mode colors one chunk's Gaussian ports at a time: 7.9 MB
    # measured at 12 ports and 250,000 trials
    assert _batch_peak(urban, fbl100, "physical", 12, 250_000) <= 20e6
