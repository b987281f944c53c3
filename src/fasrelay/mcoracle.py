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


def _gamma_unit_mean(m: int, rng: np.random.Generator, size) -> np.ndarray:
    # Sum of m exponential draws, scaled to unit mean: Gamma(m, 1/m).
    u = rng.random((size, m) if size is not None else m)
    draws = -np.log1p(-u)
    return draws.sum(axis=-1) / m


def sample_hop1_gain(m1: int, rng: np.random.Generator, size=None):
    """Unit-mean Nakagami power gain |g|^2 ~ Gamma(m1, 1/m1)."""
    if m1 < 1 or int(m1) != m1:
        raise ValueError("m1 must be a positive integer")
    return _gamma_unit_mean(int(m1), rng, size)


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
        best = np.maximum(best, lam * _gamma_unit_mean(int(m2), rng, n))
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
    for _ in range(int(m2)):
        g = (rng.standard_normal((n, n_ports)) + 1j * rng.standard_normal((n, n_ports)))
        g *= math.sqrt(0.5)
        h = g @ color.T
        power += np.abs(h) ** 2
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

    if fixed_gains is None:
        g1 = np.empty(n)
        for lt, mask in (("los", los1), ("nlos", ~los1)):
            cnt = int(mask.sum())
            if cnt:
                g1[mask] = sample_hop1_gain(cfg.nakagami_m(lt), rng, cnt)
        g2 = np.empty(n)
        for lt, mask in (("los", los2), ("nlos", ~los2)):
            cnt = int(mask.sum())
            if cnt:
                m2 = cfg.nakagami_m(lt)
                if mode == "model":
                    g2[mask] = sample_fas_gain_model(m2, fas.lambdas, rng, cnt)
                else:
                    g2[mask] = sample_fas_gain_physical(m2, corr_matrix, rng, cnt)
    else:
        g1 = np.full(n, float(fixed_gains[0]))
        g2 = np.full(n, float(fixed_gains[1]))

    beta1 = np.where(los1, geo.beta1["los"], geo.beta1["nlos"])
    beta2 = np.where(los2, geo.beta2["los"], geo.beta2["nlos"])
    gamma1 = cfg.p1 * beta1 / cfg.noise_power * g1
    gamma2 = p2 * beta2 / cfg.noise_power * g2
    eps1 = instantaneous_bler(gamma1, fbl.rate, fbl.blocklength)
    eps2 = instantaneous_bler(gamma2, fbl.rate, fbl.blocklength)
    eps_t = 1.0 - (1.0 - eps1) * (1.0 - eps2)
    return float(eps_t.sum()), float((eps_t * eps_t).sum()), n


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
