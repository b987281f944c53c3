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

Stream contract: a batch is cut into chunks of `_CHUNK` trials, and each
chunk draws, evaluates and sums its own trials. A chunk of c trials takes
from the batch generator one ``random((3, c))`` (its angles, as fractions
of the circle that ``rng.uniform(0, 2 pi)`` would scale, then the hop-1
and the hop-2 LoS uniforms), then the hop-1 gains of its LoS trials and of
its NLoS trials, then the hop-2 gains in the same way. A ``model`` gain is
the max over branches of one ``standard_gamma(m, (branches, k))`` draw,
row n scaled by lambda_n / m (numpy's exact Marsaglia-Tsang sampler;
at m = 1 the exponential fill that gives the same bits). A ``physical``
gain draws, for each of its m vectors, one (2k, ports) standard normal
block of the real and then the imaginary parts. The chunk forms each hop's
SNRs in packed order (LoS trials, then NLoS trials), evaluates the BLERs
there, and combines the hops as eps1 + eps2 (1 - eps1), which is eps2 to
the bit where eps1 = 0.0; so only the trials with a nonzero hop-1 BLER
are paired with their hop-2 slots. The batch returns the sums of the
chunk sums, added in chunk order. `_CHUNK`, this order and the floating-
point order of every per-trial operation are part of the contract:
`tests/test_mcoracle.py` pins the estimates' bits.

Angle lattice: every trial draws its own angle and reads the geometry (LoS
probabilities and p beta / sigma^2 per link type) of node k = floor(u
_ANGLES) of the midpoint lattice theta_k = 2 pi (k + 1/2) / _ANGLES, built
once per batch. k is exact and each node has probability 1/_ANGLES, so a
batch is an unbiased estimate of the lattice mean of the trajectory
integrand. The integrand is smooth and periodic in the angle, where the
midpoint rule converges geometrically: on the closed-form BLER the
4,096-node mean is within 5.6e-16 relative of the 65,536-node mean over 225
configs (altitudes 20-800 m, p1 30-46 dBm, N = 1, 2, 8, p2 0-40 dBm), far
below any standard error the engine reports.

Batch memory: a batch holds its lattice geometry and one chunk's draws,
SNRs and BLERs, so its peak does not grow with n. Under tracemalloc a
``model`` batch peaks at 2.7 MB at n = 250,000 and at n = 1,000,000, and a
``physical`` batch at 3.1 MB with 2 ports and 7.9 MB with 12.

Batch time: the geometry costs one evaluation on the lattice per batch. A
trial whose SNR reaches `instantaneous_bler`'s gamma_0 has a BLER of
exactly 0.0 and costs no Q evaluation: at the ``validate`` preset's 40 dBm
and 100 m that is 98% of the hop-1 trials, and about half (9 and 18 dBm)
to three quarters (27 dBm) of the hop-2 trials. On that preset's four
250,000-trial batches (one BLAS thread) the LoS Gamma(5) gains take 31% of
the time (`standard_gamma` at 22 ns a gain, against 27 ns for a sum of
five exponentials -log1p(-u)), the Q evaluations 22%, the NLoS exponential
gains 9%, the uniforms 9%, the LoS masks and packing 8%, the lattice
gathers 7% and the pairing of the hops 6%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blercore import FblParams, instantaneous_bler
from .chanmodel import FasSpectrum, jakes_matrix
from .geometry import LINK_TYPES, ScenarioConfig, trajectory_geometry

MC_MODES = ("model", "physical")

# trials per chunk of a batch: a chunk draws, evaluates and sums its own
# trials, so the value is part of the stream contract; its float64
# temporaries (128 KB each) stay in cache
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
        # each message names the config key of its field
        for name, key in (("seed", "seed"), ("trials", "trials"),
                          ("batch", "batch (mc_batch)")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
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
        if (isinstance(self.trials, bool)
                or not isinstance(self.trials, (int, np.integer))
                or self.trials < 1):
            raise ValueError(f"trials must be a positive integer, got "
                             f"{self.trials!r}")
        # a NaN fails the comparisons
        if not self.mean >= 0:
            raise ValueError("mean must be nonnegative")
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")


def substreams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators for batch index 0..count-1."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _node(turns: np.ndarray) -> np.ndarray:
    """Lattice node of each angle given as a fraction of the circle in
    [0, 1): floor(turns * _ANGLES), exact, since _ANGLES is a power of 2."""
    return np.multiply(turns, _ANGLES).astype(np.intp)


def sample_fas_gain_model(m2: int, lambdas, rng: np.random.Generator, size=None):
    """Selected gain of the eigen-branch model: max_n lambda_n |g_n|^2 with
    |g_n|^2 ~ Gamma(m2, 1/m2), from one `standard_gamma` draw of shape
    (branches, size) whose row n is scaled by lambda_n / m2."""
    if m2 < 1 or int(m2) != m2:
        raise ValueError("m2 must be a positive integer")
    lams = np.array([float(l) for l in lambdas])
    if not lams.size or not np.all(lams > 0):
        raise ValueError("lambdas must be non-empty and positive")
    m = int(m2)
    shape = (lams.size, size if size is not None else 1)
    # standard_gamma(1) is the exponential ziggurat: these are its bits,
    # from a fill loop that costs a fifth less
    g = (rng.standard_exponential(shape) if m == 1
         else rng.standard_gamma(m, shape))
    g *= (lams / m)[:, None]
    best = g.max(axis=0) if lams.size > 1 else g[0]
    return best if size is not None else float(best[0])


def _coloring(j: np.ndarray) -> np.ndarray:
    """C^T for a port coloring C C^T = j, from the eigenpairs of j."""
    w, v = np.linalg.eigh(np.asarray(j, dtype=float))
    return (v * np.sqrt(np.clip(w, 0.0, None))).T


def _colored_max(m2: int, color_t: np.ndarray, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """The best port's power, averaged over m2 colored circular complex
    normal vectors, for n trials. Each vector takes one (2n, ports) standard
    normal block: the real parts of the n trials, then their imaginary
    parts, colored by one real product; a part of unit variance carries
    twice the power of a unit-mean circular one."""
    power = np.zeros((n, color_t.shape[0]))
    for _ in range(m2):
        h = rng.standard_normal((2 * n, color_t.shape[0])) @ color_t
        np.square(h, out=h)
        power += h[:n]
        power += h[n:]
    best = power.max(axis=1)
    best /= 2 * m2
    return best


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
    best = _colored_max(int(m2), _coloring(j), rng,
                        size if size is not None else 1)
    return best if size is not None else float(best[0])


def simulate_batch(cfg: ScenarioConfig, fas: FasSpectrum, fbl: FblParams,
                   p2: float, mode: str, rng: np.random.Generator, n: int,
                   fixed_gains=None):
    """One simulation batch on a supplied generator.

    Returns (sum, sum of squares, n) of the per-trial end-to-end error
    probabilities, so externally run batches pool to exactly the estimate
    `mc_average_bler` produces with the same stream partitioning. The
    ``physical`` mode colors the ports by the Jakes matrix of fas. Each
    chunk of _CHUNK trials draws, evaluates and sums its own trials (module
    docstring).
    """
    geo = trajectory_geometry(cfg, (np.arange(_ANGLES) + 0.5)
                              * (2.0 * math.pi / _ANGLES))
    # per hop: the LoS probability of every node, and p beta / sigma^2 of
    # every node per link type (gamma = p beta / sigma^2 * g, in that order)
    hops = [(p_los, [np.multiply(beta[lt], p) / cfg.noise_power
                     for lt in LINK_TYPES])
            for p_los, beta, p in ((geo.p_los1, geo.beta1, cfg.p1),
                                   (geo.p_los2, geo.beta2, p2))]
    shapes = [cfg.nakagami_m(lt) for lt in LINK_TYPES]
    # per hop: the gains of k trials of a link type's shape m
    if fixed_gains is not None:
        draws = [lambda m, k, g=float(g): np.full(k, g) for g in fixed_gains]
    elif mode == "model":
        draws = [lambda m, k, lams=lams: sample_fas_gain_model(m, lams, rng, k)
                 for lams in ((1.0,), fas.lambdas)]
    else:
        color_t = _coloring(jakes_matrix(fas.n_ports, fas.aperture))
        draws = [lambda m, k: sample_fas_gain_model(m, (1.0,), rng, k),
                 lambda m, k: _colored_max(m, color_t, rng, k)]

    total = total_sq = 0.0
    for start in range(0, n, _CHUNK):
        c = min(_CHUNK, n - start)
        # the angles as fractions of the circle (the values
        # rng.uniform(0, 2 pi) would scale), then each hop's LoS uniforms
        turns, *uniforms = rng.random((3, c))
        node = _node(turns)
        packed = []
        for (p_los, scale), u, draw in zip(hops, uniforms, draws):
            los = u < p_los[node]
            trials = (np.flatnonzero(los), np.flatnonzero(~los))
            # the hop's SNRs packed: its LoS trials in order, then its NLoS
            # trials
            snr = np.empty(c)
            part = np.split(snr, [trials[0].size])
            for at, m, sc, out in zip(trials, shapes, scale, part):
                np.take(sc, node[at], out=out)
                out *= draw(m, at.size)
            packed.append((instantaneous_bler(snr, fbl.rate, fbl.blocklength),
                           los, trials))
        (eps1, _, trials1), (eps_t, los2, trials2) = packed
        # eps_t = eps1 + eps2 (1 - eps1) is eps2 itself where eps1 = 0.0, so
        # only the trials of the nonzero hop-1 BLERs are paired: each finds
        # its hop-2 slot from the hop-2 LoS trials before it
        hit = np.flatnonzero(eps1)
        if hit.size:
            split = np.searchsorted(hit, trials1[0].size)
            trial = np.concatenate((trials1[0][hit[:split]],
                                    trials1[1][hit[split:] - trials1[0].size]))
            before = np.searchsorted(trials2[0], trial)
            slot = np.where(los2[trial], before,
                            trials2[0].size + trial - before)
            e1 = eps1[hit]
            eps_t[slot] = e1 + eps_t[slot] * (1.0 - e1)
        total += float(eps_t.sum())
        np.square(eps_t, out=eps_t)
        total_sq += float(eps_t.sum())
    return total, total_sq, n


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
