import csv
import math
from dataclasses import replace
from functools import lru_cache, partial
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from fasrelay import (ScenarioConfig, TrajectoryEvaluator, blercore,
                      chebyshev_nodes, linearize, min_power,
                      sample_fas_gain_model)
from fasrelay.cli import run
from fasrelay.geometry import trajectory_geometry

_LOG2E = math.log2(math.e)
_EPS = 2.2e-16


@pytest.fixture(autouse=True)
def fresh_hop2_tables():
    """Every test starts with an empty hop-2 table cache, so no test reads
    tables that an earlier one filled or grew."""
    blercore.hop2_table.cache_clear()


@pytest.fixture
def urban():
    """Reference urban scenario (all defaults)."""
    return ScenarioConfig()


@pytest.fixture
def fbl100():
    """80 bits over 100 channel uses."""
    return linearize(0.8, 100)


def direct_trajectory_geometry(cfg, theta):
    """Both hops' geometry by the direct array formulas, one expression per
    quantity: the reference for `trajectory_geometry`'s in-place form, with
    names d1, phi1, p_los1, beta1_los, beta1_nlos and likewise for hop 2."""
    from fasrelay.geometry import SPEED_OF_LIGHT
    ux = cfg.flight_radius * np.cos(theta)
    uy = cfg.flight_radius * np.sin(theta)
    uz = cfg.uav_altitude
    out = {}
    for hop, node in (("1", cfg.bs_position), ("2", cfg.ue_position)):
        d = np.sqrt((ux - node[0]) ** 2 + (uy - node[1]) ** 2 + (uz - node[2]) ** 2)
        phi = np.degrees(np.arcsin((uz - node[2]) / d))
        amp = SPEED_OF_LIGHT / (4.0 * math.pi * cfg.carrier_freq * d)
        out["d" + hop] = d
        out["phi" + hop] = phi
        out["p_los" + hop] = 1.0 / (1.0 + cfg.los_a * np.exp(-cfg.los_b * (phi - cfg.los_a)))
        for lt in ("los", "nlos"):
            out[f"beta{hop}_{lt}"] = amp * amp * 10.0 ** (-cfg.eta_db(lt) / 10.0)
    return out


def plain_instantaneous_bler(gamma, rate, blocklength):
    """Q((C - R) / sqrt(V / L)) on every SNR of an array, with
    C = log2(1 + gamma) and V = (1 - (1 + gamma)^-2) log2(e)^2, written out
    in the operation order of `blercore.instantaneous_bler` and with no SNR
    skipped: the reference that holds its zero region to the bit."""
    opg = 1.0 + np.asarray(gamma, dtype=float)
    cap = np.log2(opg) - rate
    with np.errstate(over="ignore"):
        disp = np.sqrt((1.0 - 1.0 / np.square(opg)) * _LOG2E * _LOG2E
                       / blocklength)
    with np.errstate(divide="ignore"):
        return 0.5 * special.erfc(cap / disp / math.sqrt(2.0))


def normal_rate(gamma, blocklength, eps):
    """The normal-approximation rate C - sqrt(V / L) Q^-1(eps) at SNR gamma,
    at which `blercore.instantaneous_bler` reads eps."""
    disp = (1.0 - (1.0 + gamma) ** -2) * _LOG2E * _LOG2E
    return (math.log2(1.0 + gamma) + math.sqrt(disp / blocklength)
            * NormalDist().inv_cdf(eps))


def gamma_lower_cdf(z, m):
    """Regularized lower incomplete gamma P(m, z)."""
    return float(special.gammainc(m, z))


def cdf_hop1(x, vartheta, m):
    """First-hop SNR CDF P(m, x vartheta), at a scalar or an array of x."""
    return special.gammainc(m, np.multiply(x, vartheta))


def cdf_hop2(x, vartheta2, m, lambdas):
    """Selected-port SNR CDF: the product over the retained branches of
    P(m, x vartheta2 / lambda_n)."""
    return math.prod(special.gammainc(m, np.multiply(x, vartheta2) / lam)
                     for lam in lambdas)


def _saturation(m):
    # argument beyond which P(m, z) is 1 to double precision
    return 40.0 + 5.0 * m


def _breakpoints(params, vartheta, m, lambdas):
    """Knees m * lambda_n / vartheta of the branch CDFs and the point past
    which every branch is saturated, inside the ramp."""
    pts = [m * lam / vartheta for lam in lambdas]
    pts.append(_saturation(m) * max(lambdas) / vartheta)
    return sorted(p for p in pts if params.rho_l < p < params.rho_h) or None


def quad_hop1(params, vartheta, m):
    """Independent quadrature oracle for the hop-1 average BLER."""
    val, _ = integrate.quad(lambda x: gamma_lower_cdf(x * vartheta, m),
                            params.rho_l, params.rho_h,
                            points=_breakpoints(params, vartheta, m, (1.0,)),
                            epsabs=1e-300, epsrel=1e-12, limit=300)
    return params.chi * val


def quad_hop2(params, vartheta, m, lambdas):
    """Independent quadrature oracle for the hop-2 average BLER."""
    def integrand(x):
        prod = 1.0
        for lam in lambdas:
            prod *= gamma_lower_cdf(x * vartheta / lam, m)
        return prod

    val, _ = integrate.quad(integrand, params.rho_l, params.rho_h,
                            points=_breakpoints(params, vartheta, m, lambdas),
                            epsabs=1e-300, epsrel=1e-11, limit=300)
    return params.chi * val


def avg_bler_hop2_all_factors(params, vartheta2, m2, lambdas):
    """`blercore.avg_bler_hop2` with every branch factor evaluated, the
    saturated ones included: same node tables, same factor rule
    (`blercore._branch_cdf`), same products and the same reduction, so the
    kernel that skips saturated factors must match it bit for bit."""
    vt = np.asarray(vartheta2, dtype=float)
    x_unit, w_unit = blercore._node_table(params)
    top = np.clip(blercore._saturation_z(m2) * max(lambdas) / vt,
                  params.rho_l, params.rho_h)
    span = top - params.rho_l
    x = params.rho_l + span[..., None] * x_unit
    prod = np.ones_like(x)
    for lam in lambdas:
        prod *= blercore._branch_cdf(m2, x * (vt[..., None] / lam))
    quad = np.einsum("...j,j->...", prod, w_unit)
    return np.clip(params.chi * (span * quad + (params.rho_h - top)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# The paper's closed form for the hop-2 average: prod_n (1 - S_n(x)) expands
# over branch subsets; each subset contributes e^{-b_S x} times a polynomial
# whose coefficients are the convolution of the per-branch survival
# polynomials, and G(x; a, b) is the antiderivative of x^a e^{-b x}. The
# alternating sum cancels when every branch CDF is tiny, so it is evaluated
# in doubles only where the predicted rounding loss allows, and in mpmath
# elsewhere.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _subset_table(m, lambdas):
    """(sign, sum of reciprocal eigenvalues, scale-free coefficients) per
    non-empty branch subset; actual coefficients are c_a = vartheta^a * c~_a."""
    table = []
    for mask in range(1, 1 << len(lambdas)):
        coeffs = np.array([1.0])
        inv_sum = 0.0
        for idx, lam in enumerate(lambdas):
            if mask >> idx & 1:
                inv_sum += 1.0 / lam
                branch = np.array([(1.0 / lam) ** j / math.factorial(j) for j in range(m)])
                coeffs = np.convolve(coeffs, branch)
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        table.append((sign, inv_sum, tuple(coeffs)))
    return tuple(table)


def _g_anti(x, a, b):
    """Antiderivative of t^a e^{-b t} at t = x in doubles; the zero limit
    when the exponential underflows."""
    u = b * x
    if u > 745.0:
        return 0.0
    if x == 0.0:
        ln = math.lgamma(a + 1) - (a + 1) * math.log(b)
        return -math.exp(ln) if ln < 709.0 else -math.inf
    # terms (a!/j!) x^j / b^{a-j+1}, j = a down to 0
    terms = [x ** a / b]
    for j in range(a, 0, -1):
        terms.append(terms[-1] * j / (x * b))
    return -math.exp(-u) * math.fsum(sorted(terms))


def _subset_double(params, vartheta, m, lambdas):
    acc = params.width
    for sign, inv_sum, coeffs in _subset_table(m, lambdas):
        b = vartheta * inv_sum
        s = 0.0
        for a, c in enumerate(coeffs):
            if c:
                s += c * vartheta ** a * (_g_anti(params.rho_h, a, b)
                                          - _g_anti(params.rho_l, a, b))
        acc += sign * s
    return params.chi * acc


def _subset_mp(params, vartheta, m, lambdas, dps):
    with mp.workdps(dps):
        rho_l, rho_h = mp.mpf(params.rho_l), mp.mpf(params.rho_h)
        vt = mp.mpf(vartheta)
        lams = [mp.mpf(l) for l in lambdas]

        def g_anti(x, a, b):
            if x == 0:
                return -mp.factorial(a) / b ** (a + 1)
            t = x ** a / b
            s = t
            for j in range(a, 0, -1):
                t = t * j / (x * b)
                s += t
            return -mp.e ** (-b * x) * s

        acc = rho_h - rho_l
        for mask in range(1, 1 << len(lams)):
            coeffs = [mp.mpf(1)]
            b = mp.mpf(0)
            for idx, lam in enumerate(lams):
                if mask >> idx & 1:
                    c = vt / lam
                    b += c
                    branch = [c ** j / mp.factorial(j) for j in range(m)]
                    new = [mp.mpf(0)] * (len(coeffs) + m - 1)
                    for i, ci in enumerate(coeffs):
                        for j, bj in enumerate(branch):
                            new[i + j] += ci * bj
                    coeffs = new
            sign = -1 if bin(mask).count("1") % 2 else 1
            acc += sign * mp.fsum(c * (g_anti(rho_h, a, b) - g_anti(rho_l, a, b))
                                  for a, c in enumerate(coeffs))
        return float(mp.mpf(params.chi) * acc)


def closed_form_hop2(params, vartheta, m, lambdas):
    """Hop-2 average BLER by the paper's subset expansion.

    Branches saturated over the whole ramp (CDF factor 1 in doubles) are
    dropped. The predicted relative rounding loss in doubles has two
    channels: the alternating subset sum collapses the leading width term
    down to about F * width, and for small b the antiderivative terms grow
    like lambda / vartheta before the endpoint difference cancels them.
    Where that loss exceeds 1e-10 the expansion runs in mpmath with enough
    guard digits.
    """
    lams = tuple(float(l) for l in lambdas)
    if params.rho_l > 0.0:
        lams = tuple(l for l in lams if params.rho_l * vartheta / l < _saturation(m))
    if not lams:
        return min(1.0, params.chi * params.width)
    x_ref = params.rho_l if params.rho_l > 0.0 else 0.5 * params.rho_h
    f_ref = math.prod(gamma_lower_cdf(x_ref * vartheta / l, m) for l in lams)
    intermediate = 2.0 ** len(lams) * params.width + max(lams) / vartheta
    loss = _EPS * intermediate / (max(f_ref, 1e-300) * params.width)
    if loss <= 1e-10:
        val = _subset_double(params, vartheta, m, lams)
        if math.isfinite(val):
            return min(max(val, 0.0), 1.0)
    digits = 30 + len(lams) + max(0, math.ceil(math.log10(max(loss / _EPS, 1.0))))
    return min(max(_subset_mp(params, vartheta, m, lams, min(digits, 400)), 0.0), 1.0)


def exact_avg_bler(vartheta, m, lambdas, rate, blocklength):
    """Average of the exact Q-shaped instantaneous BLER against the SNR CDF
    (no piecewise-linear surrogate); integration by parts concentrates the
    integrand into a bump around the rate threshold."""
    def neg_eps_prime(x):
        cap = np.log2(1 + x)
        disp = (1 - 1 / (1 + x) ** 2) * _LOG2E * _LOG2E
        arg = (cap - rate) / np.sqrt(disp / blocklength)
        d_cap = _LOG2E / (1 + x)
        d_disp = 2 * _LOG2E * _LOG2E / (1 + x) ** 3
        s = np.sqrt(disp / blocklength)
        d_arg = d_cap / s - (cap - rate) * d_disp / (2 * blocklength * s ** 3)
        return np.exp(-arg ** 2 / 2) / math.sqrt(2 * math.pi) * d_arg

    def cdf(x):
        if lambdas is None:
            return gamma_lower_cdf(x * vartheta, m)
        prod = 1.0
        for lam in lambdas:
            prod *= gamma_lower_cdf(x * vartheta / lam, m)
        return prod

    hi = 2.0 ** rate + 50.0 * math.sqrt(1.0 / blocklength)
    val, _ = integrate.quad(lambda x: cdf(x) * neg_eps_prime(x), 0.0, hi,
                            epsabs=1e-300, epsrel=1e-10, limit=400)
    return val


@lru_cache(maxsize=64)
def _mixed_exact(cfg, fbl, nodes, hop, power, lambdas):
    """`exact_avg_bler` of one hop at each Chebyshev node, LoS/NLoS mixed.
    Hop 1 depends on neither p2 nor the ports, so every row of a power or
    port sweep shares one hop-1 array."""
    geo = trajectory_geometry(cfg, chebyshev_nodes(nodes)[0])
    beta, p_los = ((geo.beta1, geo.p_los1) if hop == 1
                   else (geo.beta2, geo.p_los2))
    eps = np.zeros(nodes)
    for lt, share in (("los", p_los), ("nlos", 1.0 - p_los)):
        m = cfg.nakagami_m(lt)
        vts = m * cfg.noise_power / (power * beta[lt])
        eps += share * np.array([
            exact_avg_bler(vt, m, lambdas, fbl.rate, fbl.blocklength)
            for vt in vts])
    eps.flags.writeable = False
    return eps


def exact_traj_bler(cfg, lambdas, fbl, p2, nodes=128):
    """Trajectory average of the exact Q-shaped end-to-end BLER.

    Each Chebyshev node (the rule of `chebyshev_nodes`) gets `exact_avg_bler`
    per hop and link type, then LoS/NLoS mixing and decode-and-forward
    combining; no surrogate closed form is involved. This is the expectation
    the simulation engine estimates.
    """
    weights = chebyshev_nodes(nodes)[1]
    eps1 = _mixed_exact(cfg, fbl, nodes, 1, cfg.p1, None)
    eps2 = _mixed_exact(cfg, fbl, nodes, 2, p2, tuple(lambdas))
    return float(weights @ (1.0 - (1.0 - eps1) * (1.0 - eps2)))


def surrogate_mc_bler(cfg, lambdas, fbl, p2, seed, trials, batch):
    """Monte Carlo mean and standard error of the piecewise-linear surrogate
    end-to-end BLER, the quantity the closed forms average.

    Per trial the surrogate is chi * (rho_h - clip(snr, rho_l, rho_h)), whose
    expectation is chi * int_{rho_l}^{rho_h} F(x) dx for any SNR law F.
    Channels are drawn only through the public samplers, batch by batch from
    SeedSequence(seed).spawn children, in a whole-batch order of its own:
    every angle, the hop-1 and then the hop-2 LoS uniforms, then each hop's
    gains (LoS trials, then NLoS). The simulation engine draws the same
    quantities chunk by chunk, so the two share the distribution of a
    trial, not its stream. The geometry is evaluated at each drawn angle
    itself, not at the engine's lattice node, so the analytic-vs-surrogate
    check does not rest on the lattice.
    """
    def ramp(snr):
        return fbl.chi * (fbl.rho_h - np.clip(snr, fbl.rho_l, fbl.rho_h))

    n_batches = (trials + batch - 1) // batch
    acc = acc_sq = 0.0
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_batches)):
        rng = np.random.Generator(np.random.PCG64(child))
        n = min(batch, trials - b * batch)
        geo = trajectory_geometry(cfg, rng.uniform(0.0, 2.0 * math.pi, n))
        los1 = rng.random(n) < geo.p_los1
        los2 = rng.random(n) < geo.p_los2
        g1 = np.empty(n)
        for lt, mask in (("los", los1), ("nlos", ~los1)):
            if mask.any():
                g1[mask] = sample_fas_gain_model(cfg.nakagami_m(lt), (1.0,),
                                                 rng, int(mask.sum()))
        g2 = np.empty(n)
        for lt, mask in (("los", los2), ("nlos", ~los2)):
            if mask.any():
                g2[mask] = sample_fas_gain_model(cfg.nakagami_m(lt), lambdas,
                                                 rng, int(mask.sum()))
        beta1 = np.where(los1, geo.beta1["los"], geo.beta1["nlos"])
        beta2 = np.where(los2, geo.beta2["los"], geo.beta2["nlos"])
        eps1 = ramp(cfg.p1 * beta1 / cfg.noise_power * g1)
        eps2 = ramp(p2 * beta2 / cfg.noise_power * g2)
        eps = 1.0 - (1.0 - eps1) * (1.0 - eps2)
        acc += float(eps.sum())
        acc_sq += float((eps * eps).sum())
    mean = acc / trials
    var = max(0.0, (acc_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a CDF that takes
    an array of points."""
    xs = np.sort(np.asarray(samples))
    n = xs.size
    f = np.asarray(cdf(xs))
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def read_rows(path):
    """The rows of a CSV file as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_rows(spec, tmp_path):
    """The rows `cli.run` writes for spec, to tmp_path / "rows.csv"."""
    out = tmp_path / "rows.csv"
    assert run(spec, out_path=str(out)) == 0
    return read_rows(out)


def solved_power(cfg, fas, fbl, ee, z_u):
    """The power `min_power` solves at altitude z_u, or None when p_max
    misses the target."""
    ev = TrajectoryEvaluator(replace(cfg, uav_altitude=z_u), fbl)
    found = min_power(ev, fas.lambdas, ee)
    return None if found is None else found[0]


def direct_min_power(ev, lambdas, ee, tabulated=False, points=10,
                     slack=1e-12):
    """Reference minimum-power solve on the spectrum lambdas: the precheck
    grid and the plain bisection of the optimizer, every comparison
    evaluated by the direct kernel, ev.e2e_avg, or where tabulated by
    ev.e2e_avg_tabulated (the plain table-driven bisection). Returns
    (power, bler at power) or None when p_max misses the target."""
    e2e_avg = partial(ev.e2e_avg_tabulated if tabulated else ev.e2e_avg,
                      lambdas=lambdas)
    grid = ee.p_max * np.logspace(-8.0, 0.0, points)
    eps = [e2e_avg(p) for p in grid]
    assert all(b <= a + slack for a, b in zip(eps, eps[1:]))
    if eps[-1] > ee.bler_threshold:
        return None
    if eps[0] <= ee.bler_threshold:
        return float(grid[0]), eps[0]
    idx = max(i for i in range(len(eps)) if eps[i] > ee.bler_threshold)
    lo, hi = float(grid[idx]), float(grid[idx + 1])
    eps_hi = eps[idx + 1]
    # adjacent doubles are at most 2^-52 hi apart, so a bisect_tol of at
    # least 2^-52 ends the loop
    while hi - lo > ee.bisect_tol * hi:
        mid = 0.5 * (lo + hi)
        e_mid = e2e_avg(mid)
        if e_mid <= ee.bler_threshold:
            hi, eps_hi = mid, e_mid
        else:
            lo = mid
    return hi, eps_hi
