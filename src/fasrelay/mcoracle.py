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

Angle lattice: every trial draws its own angle, as the fraction u in [0, 1)
of the circle that ``rng.uniform(0, 2 pi)`` would scale, and reads the
geometry (LoS probabilities and p beta / sigma^2 per link type) of node
k = floor(u _ANGLES) of the midpoint lattice theta_k = 2 pi (k + 1/2) /
_ANGLES, built once per batch. k is exact and each node has probability
1/_ANGLES, so a batch is an unbiased estimate of the lattice mean of the
trajectory integrand. The integrand is smooth and periodic in the angle,
where the midpoint rule converges geometrically: on the closed-form BLER the
4,096-node mean is within 5.6e-16 relative of the 65,536-node mean over 225
configs (altitudes 20-800 m, p1 30-46 dBm, N = 1, 2, 8, p2 0-40 dBm), far
below any standard error the engine reports.

Batch memory: three float64 arrays of length n carry a `simulate_batch` of
n trials, with two boolean LoS masks. The lattice reads, the gain draws,
each trial's share of its hop's gains and the BLERs are formed over chunks
of `_CHUNK` trials, whose temporaries stay in cache; only the two final sums
run over whole arrays, because a chunked sum would round differently. In
``model`` mode the tracemalloc peak is 3.80 arrays of length n (7.6 MB at
n = 250,000; 14 arrays when every step ran over whole arrays). ``physical``
mode draws each Gaussian block for all of a link type's trials at once,
because its stream holds every real part before every imaginary part; it
peaks at 10.6 arrays of length n at N = 2.

Batch time: the geometry costs one evaluation on the lattice per batch,
where an angle per trial spent about a third of a 250,000-trial ``model``
batch in it (sin and cos alone take about 20 ns each per angle). A trial
whose SNR reaches `instantaneous_bler`'s gamma_0 has a BLER of exactly 0.0
and costs no Q evaluation. At the ``validate`` preset's 40 dBm and 100 m
that is about 98% of the hop-1 trials, and about half (9 and 18 dBm) to
three quarters (27 dBm) of the hop-2 trials. Each hop's packed gains return
to trial order through index arrays, which take half the time of boolean
masks at the preset's LoS shares (42% and 52%). What remains of a ``model``
batch there is mostly the gain draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blercore import FblParams, instantaneous_bler
from .chanmodel import FasSpectrum, jakes_matrix
from .geometry import LINK_TYPES, ScenarioConfig, trajectory_geometry

MC_MODES = ("model", "physical")

# rows per chunk of the batch arithmetic: a chunk's float64 temporaries
# (128 KB each) stay in cache
_CHUNK = 16_384

# nodes of the trajectory angle lattice (module docstring); a power of 2, so
# that each trial's node is exact
_ANGLES = 4096


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


def _chunks(n: int):
    """Slices of _CHUNK consecutive rows covering range(n)."""
    return (slice(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK))


def _node(turns: np.ndarray) -> np.ndarray:
    """Lattice node of each angle given as a fraction of the circle in
    [0, 1): floor(turns * _ANGLES), exact, since _ANGLES is a power of 2."""
    return np.multiply(turns, _ANGLES).astype(np.intp)


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


def _branch_max(m: int, lambdas, rng: np.random.Generator,
                out: np.ndarray) -> None:
    """Write max_k lambda_k Gamma_k(m, 1/m) into out, one branch after
    another for every row, _CHUNK rows at a time. Consecutive (c, m) draws
    continue the stream of one draw for all rows, and max(-inf, x) = x, so
    the bits are those of whole-array draws and a running max from -inf."""
    for k, lam in enumerate(lambdas):
        for s in _chunks(out.size):
            branch = _gamma_unit_mean(m, rng, s.stop - s.start)
            if k:
                branch *= lam
                np.maximum(out[s], branch, out=out[s])
            else:
                np.multiply(branch, lam, out=out[s])


def sample_fas_gain_model(m2: int, lambdas, rng: np.random.Generator, size=None):
    """Selected gain of the eigen-branch model: max_n lambda_n |g_n|^2."""
    if m2 < 1 or int(m2) != m2:
        raise ValueError("m2 must be a positive integer")
    lams = [float(l) for l in lambdas]
    if not lams or any(l <= 0 for l in lams):
        raise ValueError("lambdas must be non-empty and positive")
    best = np.empty(size if size is not None else 1)
    _branch_max(int(m2), lams, rng, best)
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
                   fixed_gains=None):
    """One simulation batch on a supplied generator.

    Returns (sum, sum of squares, n) of the per-trial end-to-end error
    probabilities, so externally run batches pool to exactly the estimate
    `mc_average_bler` produces with the same stream partitioning. The
    ``physical`` mode colors the ports by the Jakes matrix of fas.
    """
    # three trial-length buffers carry the batch: snr1 holds the angles (as
    # fractions of the circle) and then the hop-1 SNRs, snr2 the hop-1 LoS
    # uniforms and then the hop-2 SNRs, work the hop-2 LoS uniforms, then
    # each hop's gains, then the BLERs. rng.random draws the values
    # rng.uniform(0, 2 pi) would scale to the angles.
    snr1 = rng.random(n)
    snr2 = rng.random(n)
    work = rng.random(n)
    los = (np.empty(n, dtype=bool), np.empty(n, dtype=bool))
    # gamma = p * beta / sigma^2 * g, in that operation order; per hop, a
    # table of the LoS and then the NLoS p * beta / sigma^2 of every node
    geo = trajectory_geometry(cfg, (np.arange(_ANGLES) + 0.5)
                              * (2.0 * math.pi / _ANGLES))
    scales = [np.concatenate([np.multiply(beta[lt], p) / cfg.noise_power
                              for lt in LINK_TYPES])
              for beta, p in ((geo.beta1, cfg.p1), (geo.beta2, p2))]
    for s in _chunks(n):
        node = _node(snr1[s])
        np.less(snr2[s], geo.p_los1[node], out=los[0][s])
        np.less(work[s], geo.p_los2[node], out=los[1][s])
        for snr, mask, scale in ((snr1, los[0], scales[0]),
                                 (snr2, los[1], scales[1])):
            # an NLoS trial reads the second half of the scale table
            at = np.logical_not(mask[s]).astype(np.intp)
            at *= _ANGLES
            at += node
            np.take(scale, at, out=snr[s])
    del geo, scales  # not held through the gain draws

    for hop, (snr, mask) in enumerate(zip((snr1, snr2), los)):
        # the hop's gains packed in work: its LoS trials in order, then its
        # NLoS trials
        split = int(np.count_nonzero(mask))
        for lt, part in (("los", work[:split]), ("nlos", work[split:])):
            m = cfg.nakagami_m(lt)
            if fixed_gains is not None:
                part.fill(float(fixed_gains[hop]))
            elif hop == 0 or mode == "model":
                _branch_max(m, fas.lambdas if hop else (1.0,), rng, part)
            elif part.size:
                part[:] = sample_fas_gain_physical(
                    m, jakes_matrix(fas.n_ports, fas.aperture), rng, part.size)
        # each trial's SNR times its own gain; index arrays scatter a chunk
        # at a mixed LoS share in half the time of boolean masks
        los_at, nlos_at = 0, split
        for s in _chunks(n):
            sel = mask[s]
            k = int(np.count_nonzero(sel))
            g = np.empty(sel.size)
            g[np.flatnonzero(sel)] = work[los_at:los_at + k]
            g[np.flatnonzero(~sel)] = work[nlos_at:nlos_at + sel.size - k]
            snr[s] *= g
            los_at += k
            nlos_at += sel.size - k

    # eps_t = 1 - (1 - eps1)(1 - eps2), into work
    for s in _chunks(n):
        eps_t = instantaneous_bler(snr1[s], fbl.rate, fbl.blocklength)
        eps2 = instantaneous_bler(snr2[s], fbl.rate, fbl.blocklength)
        np.subtract(1.0, eps_t, out=eps_t)
        np.subtract(1.0, eps2, out=eps2)
        eps_t *= eps2
        np.subtract(1.0, eps_t, out=work[s])
    # whole-array sums: a chunked sum would change the pairwise summation
    np.multiply(work, work, out=snr1)
    return float(work.sum()), float(snr1.sum()), n


def mc_average_bler(cfg: ScenarioConfig, fas: FasSpectrum, fbl: FblParams,
                    p2: float, mc: McConfig, fixed_gains=None) -> McEstimate:
    """Estimate the trajectory-averaged end-to-end BLER by simulation.

    Per trial: a uniform trajectory angle, whose geometry is read at its
    node of the angle lattice (module docstring), LoS/NLoS states drawn
    from the elevation-dependent probabilities, fading gains per hop, exact
    instantaneous BLERs, and decode-and-forward combining. `fixed_gains`
    substitutes deterministic channel gains (g1, g2) for the fading draws,
    leaving only the geometric randomness (validation hook).
    """
    if p2 <= 0:
        raise ValueError("p2 must be positive")
    n_batches = (mc.trials + mc.batch - 1) // mc.batch
    rngs = substreams(mc.seed, n_batches)

    total = 0
    acc = 0.0
    acc_sq = 0.0
    for b in range(n_batches):
        n = min(mc.batch, mc.trials - b * mc.batch)
        s, sq, n = simulate_batch(cfg, fas, fbl, p2, mc.mode, rngs[b], n,
                                  fixed_gains)
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
