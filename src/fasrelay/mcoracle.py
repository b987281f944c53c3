"""Monte Carlo reference engine.

Samples fading realizations and averages exact instantaneous block error
rates, independently of every closed form in `blercore`, so the two can be
cross-validated. Two fading modes exist for the selected-port hop:

* ``model``    - the tractable eigen-branch model the closed forms use
                 (max over independent scaled Gamma branches);
* ``physical`` - ports colored by the correlation matrix, selection over
                 actual per-port powers. No closed form claims to match this
                 exactly; it is used comparatively.

All randomness flows from one 64-bit seed through numpy's SeedSequence;
trial batches draw from spawned child streams (spawn key = batch index), so
identical (seed, trials, batch) inputs give bit-identical estimates and
pooling externally run batches reproduces the internal result.

The order in which a batch consumes its stream is a contract: trajectory
angles, hop-1 then hop-2 LoS uniforms, hop-1 gains (LoS trials, then NLoS),
hop-2 gains (likewise, one branch or one Gaussian pair after another). So is
the floating-point order of every per-trial operation: a rewrite of the
batch arithmetic must reproduce the estimates bit for bit
(`tests/test_mcoracle.py` pins them).

Batch memory: a `simulate_batch` of n trials holds at most about 14 float64
arrays of length n at once in ``model`` mode (tracemalloc peak 28 MB at
n = 250,000), reached inside `trajectory_geometry`. Each trial keeps only its
large-scale gains of the geometry, which is dropped before the fading draws;
the SNRs, BLERs and the decode-and-forward combination are formed in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blercore import FblParams, instantaneous_bler
from .chanmodel import FasSpectrum, jakes_matrix
from .geometry import ScenarioConfig, trajectory_geometry

MC_MODES = ("model", "physical")


@dataclass(frozen=True)
class McConfig:
    seed: int = 20240801
    trials: int = 100_000
    mode: str = "model"
    batch: int = 250_000

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.mode not in MC_MODES:
            raise ValueError(f"mode must be one of {MC_MODES}")
        if self.batch < 1:
            raise ValueError("batch (mc_batch) must be positive")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def substreams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators for batch index 0..count-1."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _gamma_unit_mean(m: int, rng: np.random.Generator, n: int) -> np.ndarray:
    # Sum of m exponential draws, scaled to unit mean: Gamma(m, 1/m). The
    # columns are summed left to right, the order sum(axis=-1) takes.
    u = rng.random((n, m))
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    if m == 1:
        return u[:, 0]
    total = u[:, 0] + u[:, 1]
    for k in range(2, m):
        total += u[:, k]
    total /= m
    return total


def sample_hop1_gain(m1: int, rng: np.random.Generator, size=None):
    """Unit-mean Nakagami power gain |g|^2 ~ Gamma(m1, 1/m1)."""
    if m1 < 1 or int(m1) != m1:
        raise ValueError("m1 must be a positive integer")
    g = _gamma_unit_mean(int(m1), rng, size if size is not None else 1)
    return g if size is not None else float(g[0])


def sample_fas_gain_model(m2: int, lambdas, rng: np.random.Generator, size=None):
    """Selected gain of the eigen-branch model: max_n lambda_n |g_n|^2."""
    if m2 < 1 or int(m2) != m2:
        raise ValueError("m2 must be a positive integer")
    lams = [float(l) for l in lambdas]
    if not lams or any(l <= 0 for l in lams):
        raise ValueError("lambdas must be non-empty and positive")
    n = size if size is not None else 1
    best = np.full(n, -np.inf)
    for lam in lams:
        branch = _gamma_unit_mean(int(m2), rng, n)
        branch *= lam
        np.maximum(best, branch, out=best)
    return best if size is not None else float(best[0])


def sample_fas_gain_physical(m2: int, j: np.ndarray, rng: np.random.Generator,
                             size=None):
    """Selected gain with ports colored by the correlation matrix.

    Draws m2 independent colored circular complex normal vectors, averages
    the per-port powers (unit mean per port), and selects the best port.
    For m2 > 1 this yields Gamma marginals of the right shape with
    approximately the intended inter-port correlation; an exact correlated
    construction does not exist for general correlation matrices.
    """
    if m2 < 1 or int(m2) != m2:
        raise ValueError("m2 must be a positive integer")
    j = np.asarray(j, dtype=float)
    n_ports = j.shape[0]
    w, v = np.linalg.eigh(j)
    color = v * np.sqrt(np.clip(w, 0.0, None))
    n = size if size is not None else 1
    power = np.zeros((n, n_ports))
    g = np.empty((n, n_ports), dtype=complex)
    re_im = g.view(float).reshape(n, n_ports, 2)
    for _ in range(int(m2)):
        re_im[..., 0] = rng.standard_normal((n, n_ports))
        re_im[..., 1] = rng.standard_normal((n, n_ports))
        re_im *= math.sqrt(0.5)
        h = np.abs(g @ color.T)
        np.square(h, out=h)
        power += h
    power /= m2
    best = power.max(axis=1)
    return best if size is not None else float(best[0])


def simulate_batch(cfg: ScenarioConfig, fas: FasSpectrum, fbl: FblParams,
                   p2: float, mode: str, rng: np.random.Generator, n: int,
                   corr_matrix=None, fixed_gains=None):
    """One simulation batch on a supplied generator.

    Returns (sum, sum of squares, n) of the per-trial end-to-end error
    probabilities, so externally run batches pool to exactly the estimate
    `mc_average_bler` produces with the same stream partitioning.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    geo = trajectory_geometry(cfg, theta)
    los1 = rng.random(n) < geo.p_los1
    los2 = rng.random(n) < geo.p_los2
    # the large-scale gains are all the fading step needs of the geometry
    gamma1 = np.where(los1, geo.beta1["los"], geo.beta1["nlos"])
    gamma2 = np.where(los2, geo.beta2["los"], geo.beta2["nlos"])
    del theta, geo

    # gamma = p * beta / sigma^2 * g, in that operation order
    gamma1 *= cfg.p1
    gamma1 /= cfg.noise_power
    gamma2 *= p2
    gamma2 /= cfg.noise_power
    if fixed_gains is None:
        # one buffer takes each hop's gains: the two masks of a hop cover it
        g = np.empty(n)
        for lt, mask in (("los", los1), ("nlos", ~los1)):
            cnt = int(mask.sum())
            if cnt:
                g[mask] = sample_hop1_gain(cfg.nakagami_m(lt), rng, cnt)
        gamma1 *= g
        for lt, mask in (("los", los2), ("nlos", ~los2)):
            cnt = int(mask.sum())
            if cnt:
                m2 = cfg.nakagami_m(lt)
                if mode == "model":
                    g[mask] = sample_fas_gain_model(m2, fas.lambdas, rng, cnt)
                else:
                    g[mask] = sample_fas_gain_physical(m2, corr_matrix, rng, cnt)
        gamma2 *= g
        del g
    else:
        gamma1 *= float(fixed_gains[0])
        gamma2 *= float(fixed_gains[1])

    # eps_t = 1 - (1 - eps1)(1 - eps2), in place
    eps_t = instantaneous_bler(gamma1, fbl.rate, fbl.blocklength)
    del gamma1
    eps2 = instantaneous_bler(gamma2, fbl.rate, fbl.blocklength)
    del gamma2
    np.subtract(1.0, eps_t, out=eps_t)
    np.subtract(1.0, eps2, out=eps2)
    eps_t *= eps2
    np.subtract(1.0, eps_t, out=eps_t)
    total = float(eps_t.sum())
    np.multiply(eps_t, eps_t, out=eps2)
    return total, float(eps2.sum()), n


def mc_average_bler(cfg: ScenarioConfig, fas: FasSpectrum, fbl: FblParams,
                    p2: float, mc: McConfig, fixed_gains=None) -> McEstimate:
    """Estimate the trajectory-averaged end-to-end BLER by simulation.

    Per trial: a uniform trajectory angle, LoS/NLoS states drawn from the
    elevation-dependent probabilities, fading gains per hop, exact
    instantaneous BLERs, and decode-and-forward combining. `fixed_gains`
    substitutes deterministic channel gains (g1, g2) for the fading draws,
    leaving only the geometric randomness (validation hook).
    """
    if p2 <= 0:
        raise ValueError("p2 must be positive")
    n_batches = (mc.trials + mc.batch - 1) // mc.batch
    rngs = substreams(mc.seed, n_batches)
    corr = None
    if mc.mode == "physical" and fixed_gains is None:
        corr = jakes_matrix(fas.n_ports, fas.aperture)

    total = 0
    acc = 0.0
    acc_sq = 0.0
    for b in range(n_batches):
        n = min(mc.batch, mc.trials - b * mc.batch)
        s, sq, n = simulate_batch(cfg, fas, fbl, p2, mc.mode, rngs[b], n,
                                  corr, fixed_gains)
        total += n
        acc += s
        acc_sq += sq

    mean = acc / total
    if total > 1:
        var = max(0.0, (acc_sq - total * mean * mean) / (total - 1))
        se = math.sqrt(var / total)
    else:
        se = 0.0
    return McEstimate(mean=mean, std_error=se, trials=total)
