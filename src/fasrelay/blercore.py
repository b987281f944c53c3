"""Finite-blocklength block error rates for the two-hop link.

The chain is: normal-approximation rate and instantaneous BLER, a piecewise
linear surrogate for the Q-shaped BLER-vs-SNR curve, averages of that
surrogate against the per-hop SNR CDFs, LoS/NLoS mixing, decode-and-forward
combining, and averaging around the circular trajectory.

Hop 1 has a closed form in regularized gamma functions. Hop 2 is the average
chi * int_{rho_l}^{rho_h} prod_n P(m, x vartheta / lambda_n) dx, computed by
one kernel for an array of vartheta: a fixed Gauss-Legendre table integrates
the product of `scipy.special.gammainc` factors over [rho_l, top], where
top = clip(_saturation_z(m) * max(lambda) / vartheta, rho_l, rho_h), and the
remainder chi * (rho_h - top) is added exactly, since beyond top every factor
is 1 to double precision. The table follows from the ramp. Where
rho_l >= width / 4 it is one 32-node panel; a clamped or near-clamped ramp
(payload of a few bits) puts the knees of the branch CDFs close to the lower
edge, and there it is two 32-node panels split at 1/8 of [rho_l, top].
Against breakpoint-aware quadrature (L = 50-2000, N = 1-40 at apertures
0.5-4 and 16 equal branches, m = 1, 2, 5, vartheta = 1e-6-1e8) the kernel
stays within 1.3e-13 relative on ramps with rho_l >= 2.5 width (every preset
and benchmark workload), 2.5e-10 on the rest of the one-panel range and
2.5e-9 with two panels; the worst case is 16 branches at m = 5 (diversity
order 80) deep in the tail. The test suite holds the kernel to 1e-8
relative against quadrature and against the paper's subset expansion.

Hop 2 depends on the relay power and the altitude only through vartheta, so
a power search can read it from a table instead (`Hop2Table`, one per link
type, built from a `TrajectoryEvaluator` by `TabulatedEvaluator`): log eps2
against log vartheta, piecewise Chebyshev with one panel per decade and 32
first-kind nodes per panel, filled by one kernel call. A table spans the
vartheta the trajectory reaches over the search's power range,
[min_i c_i / p_hi, max_i c_i / p_lo] with c_i = m sigma^2 / beta2_i, capped
where rho_l > 0 at vartheta_sat = _saturation_z(m) max(lambda) / rho_l,
past which the kernel returns the constant min(chi width, 1); it never
extrapolates. For the optimizer's power range p_max [1e-8, 1] at
p_max = 40 dBm (L = 100, 300, 600; altitude 100, 400, 500, 800 m;
N = 1, 2, 4, 8, 12; both link types) a table holds 128-288 nodes and stays
within 9.7e-13 relative of the kernel on 801 log-spaced points; on clamped
ramps (rho_l = 0, no cap, vartheta 1e-6-1e4, m = 1, 2, 5) within 3.0e-12.
The tests hold tables to 1e-8.

The surrogate is the linearization of Makki, Svensson & Zorzi (IEEE WCL
2014); the Monte Carlo engine in `mcoracle` averages the exact normal-
approximation BLER of Polyanskiy, Poor & Verdu (IEEE T-IT 2010) instead. The
two expectations differ by the surrogate's bias, not by sampling noise. On
the `validate_bler_vs_power.conf` preset (L = 100, N = 2, 100 m, relay power
0-27 dBm) the trajectory-averaged surrogate BLER lies between -4.9% and +0.6%
relative to the exact Q-average computed by quadrature on the same 128-node
rule; at 1e6 trials per point that bias is up to 8.5 standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import ScenarioConfig, trajectory_geometry

_LOG2E = math.log2(math.e)
_SQRT2 = math.sqrt(2.0)

CHI_VARIANTS = ("2^R-1", "2^2R-1")


def _saturation_z(m: int) -> float:
    # Beyond this argument a branch CDF equals 1 to better than 1e-16.
    return 40.0 + 5.0 * m


def _unit_rule(panels) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] from (start, end, order)
    panels."""
    xs, ws = [], []
    for a, b, order in panels:
        x, w = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (b - a)
        xs.append(a + half * (x + 1.0))
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


# Hop-2 node tables on [rho_l, top], scaled from [0, 1]; see the module
# docstring for the rule that picks one and the accuracy each reaches.
_ONE_PANEL = _unit_rule(((0.0, 1.0, 32),))
_GRADED = _unit_rule(((0.0, 0.125, 32), (0.125, 1.0, 32)))

# Hop-2 table panels (see Hop2Table): first-kind Chebyshev nodes on [-1, 1],
# ascending, and their barycentric weights (-1)^j sin((2j + 1) pi / 2n).
_CHEB_N = 32
_CHEB_T = np.polynomial.chebyshev.chebpts1(_CHEB_N)
_CHEB_W = (-1.0) ** np.arange(_CHEB_N) * np.sqrt(1.0 - _CHEB_T ** 2)
_LN10 = math.log(10.0)
_TINY = np.finfo(float).tiny


def q_func(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x); accepts arrays."""
    return 0.5 * special.erfc(x / _SQRT2)


def _shape(m, name: str) -> int:
    if m < 1 or int(m) != m:
        raise ValueError(f"{name} must be a positive integer")
    return int(m)


def _positive(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    return arr


def _as_result(out: np.ndarray):
    # a scalar argument gives a float, an array an array of its shape
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FblParams:
    """Blocklength/rate constants of the piecewise-linear BLER surrogate.

    chi is the central slope, tau the SNR where the surrogate crosses 1/2,
    and [rho_l, rho_h] the ramp interval; rho_l is clamped at zero because
    SNR cannot be negative (possible for small blocklength-rate products).
    """

    payload_bits: float
    blocklength: int
    rate: float
    chi: float
    tau: float
    rho_l: float
    rho_h: float
    chi_variant: str = "2^R-1"

    def __post_init__(self):
        if self.blocklength < 1 or int(self.blocklength) != self.blocklength:
            raise ValueError("blocklength must be a positive integer")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.chi <= 0:
            raise ValueError("chi must be positive")
        if abs(self.payload_bits - self.rate * self.blocklength) > 1e-9 * max(1.0, self.payload_bits):
            raise ValueError("payload_bits must equal rate * blocklength")
        if self.rho_l < 0 or self.rho_h <= self.rho_l:
            raise ValueError("need 0 <= rho_l < rho_h")
        if self.chi_variant not in CHI_VARIANTS:
            raise ValueError(f"chi_variant must be one of {CHI_VARIANTS}")

    @property
    def width(self) -> float:
        return self.rho_h - self.rho_l


def linearize(rate: float, blocklength: int, chi_variant: str = "2^R-1") -> FblParams:
    """Constants of the piecewise-linear surrogate for (rate, blocklength).

    The default slope uses 2^R - 1 under the square root; the "2^2R-1"
    variant is exposed for sensitivity studies against the convention used
    elsewhere in the finite-blocklength literature.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    tau = 2.0 ** rate - 1.0
    if chi_variant == "2^R-1":
        v = tau
    elif chi_variant == "2^2R-1":
        v = 2.0 ** (2.0 * rate) - 1.0
    else:
        raise ValueError(f"chi_variant must be one of {CHI_VARIANTS}")
    chi = 1.0 / math.sqrt(2.0 * math.pi * v / blocklength)
    half = 1.0 / (2.0 * chi)
    return FblParams(payload_bits=rate * blocklength, blocklength=int(blocklength),
                     rate=rate, chi=chi, tau=tau,
                     rho_l=max(0.0, tau - half), rho_h=tau + half,
                     chi_variant=chi_variant)


def fbl_rate(gamma: float, blocklength: int, epsilon: float) -> float:
    """Normal-approximation coding rate at SNR gamma (may be negative)."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    cap = math.log2(1.0 + gamma)
    disp = (1.0 - 1.0 / (1.0 + gamma) ** 2) * _LOG2E * _LOG2E
    # Q^-1(eps) = -Phi^-1(eps)
    return cap + math.sqrt(disp / blocklength) * float(special.ndtri(epsilon))


def instantaneous_bler(gamma, rate: float, blocklength: int):
    """Q((C - R) / sqrt(V / L)) at an SNR or an array of SNRs; 1 at
    gamma = 0, where the rate is unreachable and the dispersion vanishes."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    cap = np.log2(1.0 + g)
    disp = (1.0 - 1.0 / (1.0 + g) ** 2) * _LOG2E * _LOG2E
    out = np.ones_like(g)
    ok = g > 0.0
    # a gamma so small that the dispersion rounds to 0 gives Q(-inf) = 1
    with np.errstate(divide="ignore"):
        out[ok] = q_func((cap[ok] - rate) / np.sqrt(disp[ok] / blocklength))
    return _as_result(out)


def avg_bler_hop1(params: FblParams, vartheta, m1: int):
    """Average BLER of a single Nakagami hop with rate parameter vartheta
    (a scalar or an array).

    chi * int_{rho_l}^{rho_h} P(m, x t) dx has the exact antiderivative
    (chi/t) * H(x t) with H(z) = z P(m, z) - m P(m+1, z); the regularized
    gamma functions keep the deep tail (t -> 0) relatively accurate, which
    the printed nested-sum arrangement does not.
    """
    vt = _positive(vartheta, "vartheta")
    m1 = _shape(m1, "m1")

    def h(z):
        return z * special.gammainc(m1, z) - m1 * special.gammainc(m1 + 1, z)

    val = params.chi / vt * (h(params.rho_h * vt) - h(params.rho_l * vt))
    return _as_result(np.clip(val, 0.0, 1.0))


def _validated_lambdas(lambdas) -> tuple:
    lams = tuple(float(l) for l in lambdas)
    if not lams:
        raise ValueError("lambdas must be non-empty")
    if any(l <= 0 for l in lams):
        raise ValueError("lambdas must be positive")
    return lams


def avg_bler_hop2(params: FblParams, vartheta2, m2: int, lambdas):
    """Average BLER of the selected-port hop at rate parameter vartheta2
    (a scalar or an array): chi * int_{rho_l}^{rho_h} of the product of the
    branch CDFs P(m2, x vartheta2 / lambda_n), by the node table of the
    module docstring plus the exact saturated remainder."""
    vt = _positive(vartheta2, "vartheta2")
    m2 = _shape(m2, "m2")
    lams = _validated_lambdas(lambdas)
    x_unit, w_unit = (_ONE_PANEL if params.rho_l >= 0.25 * params.width
                      else _GRADED)
    top = np.clip(_saturation_z(m2) * max(lams) / vt, params.rho_l, params.rho_h)
    span = top - params.rho_l
    x = params.rho_l + span[..., None] * x_unit
    prod = np.ones_like(x)
    for lam in lams:
        prod *= special.gammainc(m2, x * (vt[..., None] / lam))
    val = params.chi * (span * (prod @ w_unit) + (params.rho_h - top))
    return _as_result(np.clip(val, 0.0, 1.0))


class Hop2Table:
    """Interpolant of the hop-2 average BLER on [vt_lo, vt_hi], filled by
    one `avg_bler_hop2` call and never extrapolated.

    log eps2 is piecewise Chebyshev in log vartheta: the range is cut into
    panels of equal width, each at most one decade, and each panel holds
    the polynomial interpolating log eps2 at its 32 first-kind Chebyshev
    nodes, evaluated by the barycentric formula. With rho_l > 0 the panels
    stop at vartheta_sat = _saturation_z(m2) * max(lambda) / rho_l; from
    there on the kernel returns the constant min(chi * width, 1), and so
    does the table. `nodes` and `values` hold the sampled vartheta
    (ascending) and the kernel's values there.
    """

    def __init__(self, params: FblParams, m2: int, lambdas, vt_lo: float,
                 vt_hi: float):
        if not 0.0 < vt_lo < vt_hi:
            raise ValueError("need 0 < vt_lo < vt_hi")
        lams = _validated_lambdas(lambdas)
        self.lo, self.hi = float(vt_lo), float(vt_hi)
        self.saturated = min(params.chi * params.width, 1.0)
        top = self.hi
        if params.rho_l > 0.0:
            top = min(top, _saturation_z(_shape(m2, "m2")) * max(lams) / params.rho_l)
        self._x0 = math.log(self.lo)
        span = math.log(top) - self._x0 if top > self.lo else 0.0
        panels = max(1, math.ceil(span / _LN10 - 1e-9)) if span > 0.0 else 0
        # the polynomials cover [lo, top]; with no panel every value saturates
        self.top = top if panels else 0.0
        self._h = span / panels if panels else 1.0
        x = self._x0 + self._h * (np.arange(panels)[:, None] + 0.5 * (_CHEB_T + 1.0))
        self.nodes = np.exp(x).ravel()
        self.values = avg_bler_hop2(params, self.nodes, m2, lams)
        # an underflowed value enters as the smallest normal double
        self._log_values = np.log(np.maximum(self.values, _TINY)).reshape(
            panels, _CHEB_N)

    def __call__(self, vartheta):
        vt = np.asarray(vartheta, dtype=float)
        flat = vt.reshape(-1)
        vt_max = flat.max() if flat.size else self.lo
        if flat.size and not (flat.min() >= self.lo and vt_max <= self.hi):
            raise ValueError(f"vartheta outside the table range "
                             f"[{self.lo:.6e}, {self.hi:.6e}]")
        if vt_max <= self.top:
            out = self._interpolate(flat)
        else:
            out = np.full(flat.shape, self.saturated)
            live = flat <= self.top
            out[live] = self._interpolate(flat[live])
        return _as_result(out.reshape(vt.shape))

    def _interpolate(self, vt: np.ndarray) -> np.ndarray:
        pos = (np.log(vt) - self._x0) / self._h
        idx = np.minimum(pos.astype(int), len(self._log_values) - 1)
        dist = (2.0 * (pos - idx) - 1.0)[:, None] - _CHEB_T
        dist[dist == 0.0] = 1e-300      # at a node the formula gives its value
        bary = _CHEB_W / dist
        log_eps = np.einsum("ij,ij->i", bary, self._log_values[idx]) / bary.sum(axis=1)
        # a rounding error must not lift a value near saturation above 1
        return np.exp(np.minimum(log_eps, 0.0))


def avg_bler_hop2_asymptotic(params: FblParams, vartheta2, m2: int, lambdas):
    """Leading-order hop-2 average BLER in the high-SNR (small vartheta)
    regime, at a scalar or an array of vartheta2; the value is a power law
    of slope m2 * n_eff and may exceed 1 far outside that regime."""
    vt = _positive(vartheta2, "vartheta2")
    m2 = _shape(m2, "m2")
    lams = _validated_lambdas(lambdas)
    n_eff = len(lams)
    p = m2 * n_eff
    ln0 = math.log(params.chi) + (p + 1) * math.log(params.rho_h) - math.log(p + 1)
    if params.rho_l > 0.0:
        ln0 += math.log1p(-((params.rho_l / params.rho_h) ** (p + 1)))
    ln = ln0 + n_eff * (m2 * np.log(vt) - math.lgamma(m2 + 1))
    ln -= m2 * math.fsum(math.log(l) for l in lams)
    return _as_result(np.where(ln > 709.0, np.inf, np.exp(np.minimum(ln, 709.0))))


def mixture_bler(eps_los: float, eps_nlos: float, p_los: float) -> float:
    """Expectation of the per-type BLERs over the link-type probabilities."""
    for name, v in (("eps_los", eps_los), ("eps_nlos", eps_nlos), ("p_los", p_los)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return eps_los * p_los + eps_nlos * (1.0 - p_los)


def e2e_bler(eps1: float, eps2: float) -> float:
    """Decode-and-forward end-to-end combining: 1 - (1-eps1)(1-eps2)."""
    for name, v in (("eps1", eps1), ("eps2", eps2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return 1.0 - (1.0 - eps1) * (1.0 - eps2)


@dataclass(frozen=True)
class BlerBreakdown:
    """Per-angle BLER components: four hop/type values, mixed hop values,
    and the end-to-end combination (consistency-checked on construction)."""

    hop1_los: float
    hop1_nlos: float
    hop2_los: float
    hop2_nlos: float
    hop1_mixed: float
    hop2_mixed: float
    end_to_end: float

    def __post_init__(self):
        vals = (self.hop1_los, self.hop1_nlos, self.hop2_los, self.hop2_nlos,
                self.hop1_mixed, self.hop2_mixed, self.end_to_end)
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError("all BLER components must lie in [0, 1]")
        expected = 1.0 - (1.0 - self.hop1_mixed) * (1.0 - self.hop2_mixed)
        if abs(self.end_to_end - expected) > 1e-12:
            raise ValueError("end_to_end inconsistent with the hop mixture values")


# ---------------------------------------------------------------------------
# Trajectory averaging.
# ---------------------------------------------------------------------------

DEFAULT_TRAJECTORY_NODES = 128
_LINK_TYPES = ("los", "nlos")


def chebyshev_nodes(n_nodes: int):
    """Chebyshev abscissae mapped onto [0, 2pi) plus the quadrature weights
    that make the rule a consistent estimator of the circular mean:
    theta_m = pi x_m + pi, weight_m = (pi / 2M) sqrt(1 - x_m^2).

    Known defect, left as is: the weights sum to (pi / 2M) / sin(pi / 2M),
    not 1 (1 + 2.5e-5 at M = 128), so an average whose nodes all saturate
    at 1 reads 1.0000251; `bler_e2e_asym` does so in 19-20 of the 96 rows
    of every study under `perfbench/reference/bler-sweep`. Normalizing the
    weights moves those reference values beyond the checker's 1e-6
    tolerance, so the fix waits for a re-capture of the references."""
    if n_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    m = np.arange(1, n_nodes + 1)
    x = np.cos((2 * m - 1) * math.pi / (2 * n_nodes))
    theta = math.pi * x + math.pi
    weights = (math.pi / (2 * n_nodes)) * np.sqrt(1.0 - x * x)
    return theta, weights


class TrajectoryEvaluator:
    """Caches per-angle geometry so repeated evaluations at different
    transmit powers (bisection, port sweeps) only redo the hop-2 averages.

    `TabulatedEvaluator` gives the same end-to-end BLER with hop 2 read
    from one `Hop2Table` per link type over a power range: two kernel calls
    on about 200 vartheta each for the whole range, against two calls on
    the 128 nodes per power here; the tables agree with this direct path to about
    1e-12 relative (see the module docstring). Both paths share the mixing,
    combining and averaging below.

    The weighted reduction runs in fixed node order, so results are
    bit-reproducible for a given node count.
    """

    def __init__(self, cfg: ScenarioConfig, fbl: FblParams, fas=None,
                 nodes: int = DEFAULT_TRAJECTORY_NODES):
        self.cfg = cfg
        self.fbl = fbl
        self.fas = fas
        theta, weights = chebyshev_nodes(nodes)
        self.theta = theta
        self.weights = weights
        geo = trajectory_geometry(cfg, theta)
        self.geo = geo
        sigma2 = cfg.noise_power
        self._eps1 = {}
        for lt in _LINK_TYPES:
            vt1 = cfg.nakagami_m(lt) * sigma2 / (cfg.p1 * geo.beta1[lt])
            self._eps1[lt] = avg_bler_hop1(fbl, vt1, cfg.nakagami_m(lt))
        self.eps1_mixed = (geo.p_los1 * self._eps1["los"]
                           + (1.0 - geo.p_los1) * self._eps1["nlos"])

    def with_spectrum(self, fas) -> "TrajectoryEvaluator":
        """Shallow copy sharing the geometry and hop-1 arrays but swapping
        the port spectrum (used when sweeping the port count at fixed
        scenario and blocklength)."""
        clone = object.__new__(TrajectoryEvaluator)
        clone.__dict__.update(self.__dict__)
        clone.fas = fas
        return clone

    def hop1_components(self):
        return self._eps1["los"], self._eps1["nlos"]

    def hop1_avg(self) -> float:
        return float(self.weights @ self.eps1_mixed)

    def hop2_varthetas(self, p2: float):
        """Hop-2 rate parameters m sigma^2 / (p2 beta2) at every node, for
        LoS then NLoS."""
        if self.fas is None:
            raise ValueError("hop-2 evaluation requires a FasSpectrum")
        if p2 <= 0:
            raise ValueError("p2 must be positive")
        cfg = self.cfg
        return tuple(cfg.nakagami_m(lt) * cfg.noise_power / (p2 * self.geo.beta2[lt])
                     for lt in _LINK_TYPES)

    def hop2_components(self, p2: float):
        return tuple(avg_bler_hop2(self.fbl, vt, self.cfg.nakagami_m(lt),
                                   self.fas.lambdas)
                     for lt, vt in zip(_LINK_TYPES, self.hop2_varthetas(p2)))

    def hop2_mixed(self, e2_los, e2_nlos):
        """LoS/NLoS mixture of per-node hop-2 values."""
        return self.geo.p_los2 * e2_los + (1.0 - self.geo.p_los2) * e2_nlos

    def end_to_end(self, eps2_mixed):
        """Decode-and-forward combination with hop 1 at every node."""
        return 1.0 - (1.0 - self.eps1_mixed) * (1.0 - eps2_mixed)

    def e2e_avg_from(self, e2_los, e2_nlos) -> float:
        """Trajectory-averaged end-to-end BLER from per-node hop-2 values."""
        return float(self.weights @ self.end_to_end(self.hop2_mixed(e2_los, e2_nlos)))

    def e2e_avg(self, p2: float) -> float:
        return self.e2e_avg_from(*self.hop2_components(p2))


class TabulatedEvaluator:
    """End-to-end BLER of a `TrajectoryEvaluator` at relay powers in
    [p_lo, p_hi], with hop 2 read from one `Hop2Table` per link type.

    Each table spans the vartheta the trajectory reaches over that power
    range, [min_i c_i / p_hi, max_i c_i / p_lo] with c_i = m sigma^2 /
    beta2_i, so it costs one kernel call on about 200-300 vartheta instead
    of 128 per power. Mixing, combining and the trajectory average are the
    evaluator's own.
    """

    def __init__(self, ev: TrajectoryEvaluator, p_lo: float, p_hi: float):
        if not 0.0 < p_lo < p_hi:
            raise ValueError("need 0 < p_lo < p_hi")
        self.ev = ev
        near, far = ev.hop2_varthetas(p_hi), ev.hop2_varthetas(p_lo)
        self.tables = tuple(
            Hop2Table(ev.fbl, ev.cfg.nakagami_m(lt), ev.fas.lambdas,
                      float(lo.min()), float(hi.max()))
            for lt, lo, hi in zip(_LINK_TYPES, near, far))

    def hop2_components(self, p2: float):
        return tuple(table(vt) for table, vt
                     in zip(self.tables, self.ev.hop2_varthetas(p2)))

    def e2e_avg(self, p2: float) -> float:
        return self.ev.e2e_avg_from(*self.hop2_components(p2))


@dataclass(frozen=True)
class TrajectoryBler:
    """Trajectory-averaged end-to-end BLER with the per-node breakdowns."""

    value: float
    theta: tuple[float, ...]
    weights: tuple[float, ...]
    nodes: tuple[BlerBreakdown, ...]


def trajectory_avg_bler(cfg: ScenarioConfig, fas, fbl: FblParams, p2: float,
                        nodes: int = DEFAULT_TRAJECTORY_NODES) -> TrajectoryBler:
    """Average the end-to-end BLER around the circular trajectory.

    Uses the Chebyshev-node rule above; agrees with direct integration of
    the same integrand to well below 1e-6 absolute for nodes >= 64.
    """
    ev = TrajectoryEvaluator(cfg, fbl, fas, nodes)
    e1_los, e1_nlos = ev.hop1_components()
    e2_los, e2_nlos = ev.hop2_components(p2)
    eps2_mixed = ev.hop2_mixed(e2_los, e2_nlos)
    e2e = ev.end_to_end(eps2_mixed)
    breakdowns = tuple(
        BlerBreakdown(hop1_los=float(e1_los[i]), hop1_nlos=float(e1_nlos[i]),
                      hop2_los=float(e2_los[i]), hop2_nlos=float(e2_nlos[i]),
                      hop1_mixed=float(ev.eps1_mixed[i]),
                      hop2_mixed=float(eps2_mixed[i]),
                      end_to_end=float(e2e[i]))
        for i in range(len(ev.theta)))
    return TrajectoryBler(value=float(ev.weights @ e2e),
                          theta=tuple(float(t) for t in ev.theta),
                          weights=tuple(float(w) for w in ev.weights),
                          nodes=breakdowns)


def error_floor(cfg: ScenarioConfig, fbl: FblParams,
                nodes: int = DEFAULT_TRAJECTORY_NODES) -> float:
    """Limit of the trajectory-averaged BLER as the relay power grows:
    the first-hop average alone."""
    return TrajectoryEvaluator(cfg, fbl, None, nodes).hop1_avg()
