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
scatter of the skip would cost more than -expm1 itself. The m = 1 factors
are formed in one buffer as expm1(-z) and multiplied in; negation is exact,
so that product is the product of the -expm1(-z) up to its sign, which is
restored once for an odd branch count (on a 2-core Xeon with one BLAS
thread, 5-13% faster than a fresh array per step at n_eff = 6-12 and
256-1,024 points, 1-5% at n_eff = 2, with the same bits). Where
[rho_l, top] is empty (top = rho_l, vartheta = inf included), or on a
clamped ramp at most an eighth of the spacing of doubles at rho_h, the
average is the remainder alone to the bit, the constant min(chi width, 1),
and the kernel returns it without forming the branch arguments, which could
overflow or meet 0 * inf there; hop 1 returns the same constant from
vartheta = _saturation_z(m + 1) / rho_l on, where both of its gamma
functions are 1.0 at both ends of the ramp.
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
(NLoS) factors, nearly half of all, need no `gammainc` call. The tests hold
every table to 1e-8 relative against quadrature and against the paper's
subset expansion.

The direct path (`TrajectoryEvaluator.hop2_components`) runs the NLoS
kernel at every (power, node) point and the LoS kernel only where its value
could change a bit of the LoS/NLoS mix, by two upper bounds on the kernel.
First, at every point: P(m, z) <= z^m / m!, and Gauss-Legendre falls short
of the integral of the monomial that the product of these bounds makes, so
the kernel is at most `avg_bler_hop2_asymptotic`, the paper's leading-order
term. On 77,451 points where both are normal doubles (L = 50-2000 at 80
bits and two clamped ramps; m = 1-40; N = 1-40; vartheta 1e-8-1e8 at 20
points per decade) the largest kernel/asymptote ratio is 0.99999999994;
among subnormal kernel values it reaches 1.154. That bound is loose near
the knee of the branch CDFs (46x at z = m = 5, to the power n_eff). So,
where it leaves a point live, `_hop2_endpoint_bound` follows: the integrand
rises with x, so the kernel (positive weights summing to 1, nodes below
top, the remainder's factors 1.0) is at most the integrand at rho_h times
chi width, at n_eff factors a point against the kernel's 16 n_eff. On the
same grid (89,687 points where both are normal) the largest kernel/bound
ratio is 1.0, an equality at saturation, and subnormal kernel values stay
within 0.11 of max(bound, tiny). The rule for either bound
(`_Mixture.los_negligible`): the mix adds a = fl(w_los los) and
b = fl(w_nlos nlos), both >= 0, and fl(a + b) = b wherever a < spacing(b)/2.
A LoS entry is set to 0.0 without a kernel call only where
2 w_los max(bound, tiny) is below spacing(b)/2 and b is a normal double:
the factor 2 covers rounding, and the smallest normal double stands in for
the bound where a subnormal value may pass it. The mix then has the bits
of the full computation. With the urban defaults (m_los = 5 against
m_nlos = 1, and 21.4 dB more loss on NLoS) the LoS term sits orders of
magnitude below the NLoS term from moderate SNR on. On one seed-1 cycle of
the benchmark workloads the asymptote leaves 7,720 of bler-sweep's 36,864
LoS points live and the endpoint bound 2,216, as many as the kernel's own
value would keep, and 3,456 and 384 of the 4,608 of optimize-grid's direct
checks; `gammainc` evaluates 80 k elements on that bler-sweep cycle, the
bound's included, against 474 k with the asymptote alone.

A sweep evaluates many port spectra at the same varthetas, and a kernel
call has a fixed cost of 30-45 us whatever its size (2-core Xeon), about
half of a bler-sweep study when each spectrum had calls of its own. So the
hop-2 kernel and the asymptote also take spectra of one rank stacked on the
leading axes of an array whose last axis holds the branches, broadcast
against vartheta: shape
(spectra, 1, 1, n_eff) against (powers, nodes) gives (spectra, powers,
nodes). `TrajectoryEvaluator.hop2_components`, the mixes, `end_to_end` and
`average` carry the leading axes through, and the LoS kernel's live points
carry one lambda row each. Every value keeps the bits of its own
one-spectrum call: vartheta / lambda_n is formed per element, the branch
product runs in branch order, each point's top uses its own spectrum's
largest lambda, `einsum` reduces each point's row on its own, the
asymptote takes the exactly rounded `math.fsum` of each spectrum's logs,
and `average` is one `weights @ row` per leading index; every other step is
elementwise. A tuple of lambdas is the one-spectrum case of the same code.

Hop 2 depends on the relay power and the altitude only through vartheta, so
a power search can read it from a table instead (`Hop2Table`, one per link
type and spectrum, in a dict of the evaluators that share it): log eps2
against log vartheta, piecewise Chebyshev with 32 first-kind nodes per
panel. The panels are whole decades of a fixed lattice, counted from
vartheta_sat = _saturation_z(m) max(lambda) / rho_l where rho_l > 0 (past
it the kernel returns the constant min(chi width, 1)) and from 1 where
rho_l = 0, so a table's value at a vartheta depends on (fbl, m, lambda,
vartheta) and not on the panels it holds. A lookup first grows the table
to the panels that its points below vartheta_sat meet, so a table never
extrapolates, and `TrajectoryEvaluator.e2e_avg_tabulated` reads a power
solve's end-to-end BLER through the pair of a spectrum, or those of
several solves at once through the pairs of their spectra, every table's
rows in one barycentric pass (`_read_tables`). For the optimizer's
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

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import MonotonicityError, SnrScaleError
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
    # a NaN is not an integer
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"{name} must be a positive integer")
    return int(m)


def _positive(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    # a NaN fails the comparison
    if not np.all(arr > 0):
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
        # `not x > 0`: a NaN fails every comparison, so it would pass
        # `x <= 0`
        if not (self.blocklength >= 1
                and float(self.blocklength).is_integer()):
            raise ValueError("blocklength must be a positive integer")
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.chi > 0:
            raise ValueError("chi must be positive")
        if not abs(self.payload_bits - self.rate * self.blocklength) <= 1e-9 * max(1.0, self.payload_bits):
            raise ValueError("payload_bits must equal rate * blocklength")
        if not 0 <= self.rho_l < self.rho_h:
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
    argument is -inf and Q(-inf) = 1. A NaN SNR, a rate that is not
    positive (NaN included) and a blocklength that is not a positive
    integer raise ValueError.

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
    # a NaN fails the comparison
    if not rate > 0:
        raise ValueError("rate must be positive")
    _shape(blocklength, "blocklength")
    flat = g.ravel()
    # index arrays gather and scatter a mixed array in half the time of a
    # boolean mask
    live = np.flatnonzero(flat < _zero_snr(rate, blocklength))
    out = np.zeros(flat.size)
    out[live] = _normal_approx_bler(flat[live], rate, blocklength)
    return _as_result(out.reshape(g.shape))


def _saturated(params: FblParams) -> float:
    """A hop's average BLER at zero SNR, min(chi * width, 1): the surrogate
    at every SNR up to rho_l."""
    return min(params.chi * params.width, 1.0)


def _saturated_where(params: FblParams, saturated: np.ndarray, avg):
    """The one rule of both hop averages at an SNR scale so small that every
    gamma factor of their formula is exactly 1.0 (vartheta = inf included,
    where their arithmetic would meet 0 * inf or overflow): the limit
    `_saturated(params)` at the entries of the boolean array saturated, and
    avg(live) at the others, live the boolean array of those."""
    out = np.full(saturated.shape, _saturated(params))
    live = ~saturated
    out[live] = avg(live)
    return _as_result(out)


def avg_bler_hop1(params: FblParams, vartheta, m1: int):
    """Average BLER of a single Nakagami hop with rate parameter vartheta
    (a scalar or an array); from vartheta = _saturation_z(m1 + 1) / rho_l on
    (inf included), the limit min(chi * width, 1) (`_saturated_where`), and
    at a vartheta so small that chi / vartheta overflows the limit 0.0.

    chi * int_{rho_l}^{rho_h} P(m, x t) dx has the exact antiderivative
    (chi/t) * H(x t) with H(z) = z P(m, z) - m P(m+1, z); the regularized
    gamma functions keep the deep tail (t -> 0) relatively accurate, which
    the printed nested-sum arrangement does not. From rho_l t =
    _saturation_z(m + 1) on, both gamma functions are 1.0 at both ends, the
    average is chi * width to double precision, and the formula would only
    round it, or overflow to inf - inf.
    """
    vt = _positive(vartheta, "vartheta")
    m1 = _shape(m1, "m1")
    vt_sat = (_saturation_z(m1 + 1) / params.rho_l if params.rho_l > 0.0
              else math.inf)
    saturated = vt >= vt_sat
    if saturated.any():
        return _saturated_where(params, saturated, lambda live: (
            avg_bler_hop1(params, vt[live], m1)))

    def h(z):
        return z * special.gammainc(m1, z) - m1 * special.gammainc(m1 + 1, z)

    # chi / vt overflows below chi / max_double; below this floor both
    # values of h are 0.0, so the floor keeps the value's bits, or makes it
    # 0.0 where the formula met inf * 0
    ratio = params.chi / np.maximum(vt, _TINY * max(params.chi, 1.0))
    val = ratio * (h(params.rho_h * vt) - h(params.rho_l * vt))
    return _as_result(np.clip(val, 0.0, 1.0))


def _branches(lambdas) -> np.ndarray:
    """Port spectra as an array whose last axis holds the branches: a
    tuple is one spectrum, an array of shape (..., n_eff) one per leading
    index."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] == 0:
        raise ValueError("lambdas must be non-empty")
    # a NaN is the min and fails the comparison
    if not lam.min() > 0:
        raise ValueError("lambdas must be positive")
    return lam


def _one_spectrum(lambdas) -> tuple[float, ...]:
    """The branches of one port spectrum as the tuple that keys its hop-2
    tables; stacked spectra raise ValueError."""
    lam = _branches(lambdas)
    if lam.ndim > 1:
        raise ValueError("a hop-2 table holds one spectrum")
    return tuple(lam.tolist())


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
    module docstring plus the exact saturated remainder. lambdas is one
    spectrum (a tuple) or spectra stacked on the leading axes of an array
    whose last axis holds the branches, broadcast against vartheta2; each
    value has the bits of its own one-spectrum call. Where the integration
    interval [rho_l, top] is empty (vartheta2 = inf included), or on a
    clamped ramp (rho_l = 0) no longer than an eighth of the spacing of
    doubles at rho_h, the value is the remainder alone, the limit
    min(chi * width, 1) (`_saturated_where`), which the quadrature gives
    there to the bit or could only reach as 0 * inf or through an
    overflow. A subnormal vartheta2 takes top = rho_h without overflowing,
    with the bits of its formula."""
    vt = _positive(vartheta2, "vartheta2")
    m2 = _shape(m2, "m2")
    lam = _branches(lambdas)
    z_sat = _saturation_z(m2) * lam.max(axis=-1)
    # a subnormal vartheta would overflow z_sat / vt; below z_sat / (2 rho_h)
    # the quotient clips to rho_h all the same. clip(a, lo, hi) as
    # min(max(a, lo), hi), at half of np.clip's fixed cost
    top = np.minimum(np.maximum(
        z_sat / np.maximum(vt, z_sat / (2.0 * params.rho_h)), params.rho_l),
        params.rho_h)
    # on a clamped ramp an interval up to an eighth of the spacing of
    # doubles at rho_h adds less than half of it to the remainder rho_h -
    # top, which rounds to rho_h: the value is the remainder alone there
    # too, where vartheta / lambda can overflow
    empty = params.rho_l if params.rho_l > 0.0 else math.ulp(params.rho_h) / 8
    # top >= rho_l, so one reduction tells whether any interval is empty
    if top.min() <= empty:
        # one lambda row and one vartheta per live point
        rows = np.broadcast_to(lam, top.shape + lam.shape[-1:])
        vts = np.broadcast_to(vt, top.shape)
        return _saturated_where(params, top <= empty, lambda live: (
            _hop2_average(params, vts[live], m2, rows[live], top[live])))
    return _as_result(_hop2_average(params, vt, m2, lam, top))


def _hop2_average(params: FblParams, vt: np.ndarray, m2: int,
                  lam: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The hop-2 average on validated, broadcastable vartheta and branch
    arrays with the upper integration limits top (top > rho_l)."""
    x_unit, w_unit = _node_table(params)
    span = top - params.rho_l
    x = params.rho_l + span[..., None] * x_unit
    vt = vt[..., None]
    prod = np.ones_like(x)
    z = np.empty_like(x)
    n_eff = lam.shape[-1]
    for n in range(n_eff):
        # vartheta / lambda per element, as a one-spectrum call forms it
        np.multiply(x, vt / lam[..., n, None], out=z)
        if m2 == 1:
            # P(1, z) = -expm1(-z); the product of the expm1(-z) is that of
            # the factors up to its sign, since negation is exact. -expm1 on
            # every factor costs less than a mask's gather/scatter
            np.negative(z, out=z)
            np.expm1(z, out=z)
            prod *= z
        else:
            # gammainc is exactly 1.0 from _saturation_z(m2) on, so only the
            # factors below it are evaluated. Boolean indexing, not
            # gammainc's out=/where=: with scipy 1.17 that form leaves 1.0
            # at some entries the mask selects.
            live = z < _saturation_z(m2)
            prod[live] *= _branch_cdf(m2, z[live])
    if m2 == 1 and n_eff % 2:
        np.negative(prod, out=prod)
    # einsum sums each row on its own, so a value's bits do not depend on
    # how many vartheta share the call; a BLAS matvec rounds rows in blocks
    quad = np.einsum("...j,j->...", prod, w_unit)
    val = params.chi * (span * quad + (params.rho_h - top))
    return np.minimum(np.maximum(val, 0.0), 1.0)


class Hop2Table:
    """Interpolant of the hop-2 average BLER on the lattice panels its
    lookups asked for, never extrapolated.

    log eps2 is piecewise Chebyshev in log vartheta on the module
    docstring's lattice of whole decades (vt_sat = inf where rho_l = 0),
    each panel holding the polynomial that interpolates log eps2 at its 32
    first-kind Chebyshev nodes, evaluated by the barycentric formula. A
    lookup first grows the table to the panels its points below vt_sat
    meet; past vt_sat, and at vartheta = inf, it returns the kernel's
    constant min(chi * width, 1).
    A NaN or non-positive vartheta raises ValueError. A value depends on
    (params, m2, lambdas, vartheta) only, not on the panels held or their
    order, so a shared table reads as a fresh one. `nodes` and `values`
    hold the sampled vartheta (ascending) and the kernel's values.

    A call is the one-table case of `_read_tables`, which reads the rows
    of several tables in one barycentric pass per group of at most
    _READ_POINTS points, each point on its own table's anchor, panels and
    log values, with the bits of its table's call alone: a power solve's
    lookups of both link types, or those of every pending solve of a port
    search (`TrajectoryEvaluator.e2e_avg_tabulated`).
    """

    def __init__(self, params: FblParams, m2: int, lambdas):
        self._params, self._m2 = params, _shape(m2, "m2")
        self._lambdas = _one_spectrum(lambdas)
        self.saturated = _saturated(params)
        self.vt_sat, self._anchor = math.inf, 0.0
        if params.rho_l > 0.0:
            self.vt_sat = (_saturation_z(self._m2) * max(self._lambdas)
                           / params.rho_l)
            self._anchor = math.log10(self.vt_sat)
        # panel k spans the decades [k, k + 1] counted from the anchor
        self.panels = range(0)
        self.nodes = self.values = np.empty(0)
        self._log_values = np.empty((0, _CHEB_N))

    def _grow(self, s_lo: float, s_hi: float) -> None:
        """Grow the table to the panels that meet [s_lo, s_hi], in decades
        from the anchor, keeping them contiguous: one kernel call fills the
        panels below and above the ones held, which are kept as they are.
        Held and new values of which one falls to the next node's by more
        than _TABLE_SLACK relative raise `MonotonicityError`, changing
        nothing."""
        if not s_hi < math.inf:
            raise ValueError("an infinite vartheta has no table value below "
                             "vt_sat")
        k_lo = math.floor(s_lo)
        # a point on a lattice line still needs the panel above it
        k_end = max(math.ceil(s_hi), k_lo + 1)
        held = self.panels
        if held.start <= k_lo and k_end <= held.stop:
            return
        # with no panels held, every panel asked for is new
        held = held or range(k_end, k_end)
        k_lo, k_end = min(k_lo, held.start), max(k_end, held.stop)
        new = np.r_[k_lo:held.start, held.stop:k_end]
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
        return _as_result(_read_tables((self,), vt.reshape(1, -1)).reshape(
            vt.shape))


# the most points of one barycentric pass of `_read_tables` over several
# rows: the precheck's 10 powers at 128 trajectory nodes, a power solve's
# largest read of one table
_READ_POINTS = 1280


def _read_tables(tables, vartheta: np.ndarray) -> np.ndarray:
    """The value of tables[k] at every vartheta of row k of the (K, P)
    array vartheta, as an array of its shape: past a table's vt_sat its
    constant min(chi * width, 1), and below it the table's interpolant, in
    one barycentric pass per group of rows of at most _READ_POINTS points
    (a longer row alone). Every value has the bits of its table's lookup
    alone. A NaN or non-positive vartheta raises ValueError."""
    if not vartheta.size:
        return np.empty(vartheta.shape)
    # a NaN is the min and fails the comparison
    if not vartheta.min() > 0.0:
        raise ValueError("vartheta must be positive")
    # the largest vartheta a table interpolates: vt_sat, or the largest
    # double where vt_sat = inf
    top = np.array([[min(t.vt_sat, sys.float_info.max)] for t in tables])
    live = vartheta <= top
    if not live.all():
        # each row reads its points below top in a pass of its own
        out = np.repeat([[t.saturated] for t in tables], vartheta.shape[1],
                        axis=1)
        for k in np.flatnonzero(live.any(axis=1)).tolist():
            out[k][live[k]] = _barycentric_pass(
                tables[k:k + 1], vartheta[k][live[k]][None])[0]
        return out
    per_pass = max(1, _READ_POINTS // vartheta.shape[1])
    if len(tables) <= per_pass:
        return _barycentric_pass(tables, vartheta)
    return np.concatenate([
        _barycentric_pass(tables[i:i + per_pass], vartheta[i:i + per_pass])
        for i in range(0, len(tables), per_pass)])


def _barycentric_pass(tables, vartheta: np.ndarray) -> np.ndarray:
    """`_read_tables` on rows whose points all lie below their table's top.
    Each table first grows to the panels that its row's points meet, in
    row order; then every point is read on its own table's anchor, panels
    and values."""
    s = np.log10(vartheta) - np.array([[t._anchor] for t in tables])
    for table, s_lo, s_hi in zip(tables, s.min(axis=1).tolist(),
                                 s.max(axis=1).tolist()):
        table._grow(s_lo, s_hi)
    # per row: its table's first panel, its last panel's index, and the
    # index of its first panel among the stacked panels of all rows
    held, stacked = [], 0
    for t in tables:
        held.append((t.panels.start, len(t.panels) - 1, stacked))
        stacked += len(t.panels)
    k_lo, last, first = np.array(held).T[..., None]
    # the panel below s; truncation toward zero and the cap keep a point
    # on a lattice line at either end of the panels in the panel inside
    idx = np.minimum((s - k_lo).astype(int), last)
    dist = (2.0 * (s - (idx + k_lo)) - 1.0).reshape(-1, 1) - _CHEB_T
    # at a node the formula gives its value
    np.copyto(dist, 1e-300, where=dist == 0.0)
    # in place: a (points x 32) array fewer to allocate per pass
    bary = np.divide(_CHEB_W, dist, out=dist)
    idx += first
    rows = np.take(np.concatenate([t._log_values for t in tables]),
                   idx.reshape(-1), axis=0)
    log_eps = np.einsum("ij,ij->i", bary, rows) / bary.sum(axis=1)
    # a rounding error must not lift a value near saturation above 1
    return np.exp(np.minimum(log_eps, 0.0)).reshape(vartheta.shape)


def avg_bler_hop2_asymptotic(params: FblParams, vartheta2, m2: int, lambdas):
    """Leading-order hop-2 average BLER in the high-SNR (small vartheta)
    regime, at a scalar or an array of vartheta2; the value is a power law
    of slope m2 * n_eff and may exceed 1 far outside that regime. It bounds
    `avg_bler_hop2` from above (see the module docstring) and is inf only
    past the largest double. lambdas is one spectrum or stacked spectra of
    one rank, as in `avg_bler_hop2`, each value with the bits of its own
    one-spectrum call."""
    vt = _positive(vartheta2, "vartheta2")
    m2 = _shape(m2, "m2")
    lam = _branches(lambdas)
    n_eff = lam.shape[-1]
    p = m2 * n_eff
    ln0 = math.log(params.chi) + (p + 1) * math.log(params.rho_h) - math.log(p + 1)
    if params.rho_l > 0.0:
        ln0 += math.log1p(-((params.rho_l / params.rho_h) ** (p + 1)))
    ln = ln0 + n_eff * (m2 * np.log(vt) - math.lgamma(m2 + 1))
    # the exactly rounded sum of the logs of each spectrum's branches
    log_sums = np.array([math.fsum(map(math.log, row))
                         for row in lam.reshape(-1, n_eff).tolist()])
    ln = ln - m2 * log_sums.reshape(lam.shape[:-1])
    # exp overflows to inf from ln = 709.78 on
    with np.errstate(over="ignore"):
        return _as_result(np.exp(ln))


def _hop2_endpoint_bound(params: FblParams, vt: np.ndarray, m2: int,
                         lam: np.ndarray) -> np.ndarray:
    """An upper bound on `avg_bler_hop2` at validated, broadcastable
    vartheta and branch arrays: the integrand at the top of the ramp,
    B = chi * width * prod_n P(m2, rho_h vartheta / lambda_n), with the
    factors of `_branch_cdf`.

    Each branch CDF rises with x, so the integrand rises on [rho_l, rho_h].
    The kernel's Gauss-Legendre sum has positive weights that sum to 1 and
    nodes below top, so it is at most the integrand at top; beyond top every
    factor is 1.0, so the remainder chi * (rho_h - top) obeys the same
    bound. Hence kernel <= B, up to rounding. B costs n_eff factors per
    point, the kernel 16 n_eff or more."""
    # past vartheta = _saturation_z(m2) max(lambda) / rho_h every factor is
    # 1.0; the cap keeps vartheta / lambda finite for a huge vartheta
    cap = _saturation_z(m2) * lam.max(axis=-1) / params.rho_h
    # per element as the kernel forms them, x (vartheta / lambda)
    z = params.rho_h * (np.minimum(vt, cap)[..., None] / lam)
    return params.chi * params.width * np.prod(_branch_cdf(m2, z), axis=-1)


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


class _Mixture:
    """The LoS/NLoS mixture of LoS probabilities p_los (an array): called on
    (los, nlos), p_los * los + (1 - p_los) * nlos, broadcast. A link of
    weight 0 adds 0, even where its value is inf (0 * inf is nan); every
    other value has the bits of the formula. The weights and their masks
    depend only on p_los and are built once, since an evaluator mixes on
    one geometry at every power."""

    def __init__(self, p_los):
        self._links = tuple((w, w > 0.0) for w in (p_los, 1.0 - p_los))
        # where every weight is positive the masks select every value, and
        # the formula itself gives their bits at a third of the cost
        self._masked = not all(mask.all() for _, mask in self._links)

    def __call__(self, los, nlos):
        (w_los, m_los), (w_nlos, m_nlos) = self._links
        if not self._masked:
            return w_los * los + w_nlos * nlos
        shape = np.broadcast_shapes(np.shape(w_los), np.shape(los),
                                    np.shape(nlos))
        out = np.multiply(w_los, los, out=np.zeros(shape), where=m_los)
        out += np.multiply(w_nlos, nlos, out=np.zeros(shape), where=m_nlos)
        return out

    def los_negligible(self, los_bound, nlos, at=None):
        """Where every LoS value in [0, los_bound] leaves the mixture with
        the bits it has at LoS value 0.0: with a = w_los * los and b =
        w_nlos * nlos as rounded, fl(a + b) = b wherever 0 <= a <
        spacing(b) / 2. That holds where 2 w_los max(los_bound, tiny) is
        below spacing(b) / 2 and b is a normal double; the factor 2 covers
        a bound that a value exceeds by rounding, and the smallest normal
        double stands in for a bound that does not hold on subnormal
        values. An inf or nan bound is negligible nowhere. With at, an
        index tuple into nlos, los_bound holds the bounds at those points
        only, and so does the result."""
        (w_los, _), (w_nlos, _) = self._links
        if at is not None:
            w_los, w_nlos, nlos = (np.broadcast_to(a, np.shape(nlos))[at]
                                   for a in (w_los, w_nlos, nlos))
        b = w_nlos * nlos
        with np.errstate(over="ignore", invalid="ignore"):
            a_max = 4.0 * (w_los * np.maximum(los_bound, _TINY))
        return (b >= _TINY) & (a_max < np.spacing(b))


def _check_snr_scale(name: str, scale, chi: float) -> None:
    """Raise `SnrScaleError` unless every value of the arrays scale (a rate
    parameter m sigma^2 / (p beta) per link type, or its p-free part) is
    positive and finite, with chi / scale finite: outside that the BLERs
    overflow to inf or NaN."""
    for values in scale:
        # a nan is the min and the max and fails every comparison; chi /
        # scale is largest at the smallest scale
        lo, hi = float(values.min()), float(values.max())
        if not (0.0 < lo and hi < math.inf and chi / lo < math.inf):
            raise SnrScaleError(
                f"{name} spans [{lo:.3e}, {hi:.3e}] over the trajectory, "
                "outside the double range (sigma^2 is noise_power; beta the "
                "path gain of carrier_freq, eta_los, eta_nlos and the node "
                "positions)")


class TrajectoryEvaluator:
    """The trajectory-averaged BLER of one scenario and blocklength, and its
    per-node parts.

    `e2e_avg(p2, lambdas)` is the end-to-end BLER averaged around the circle
    at relay power p2 on the port spectrum lambdas, and `hop1_avg()` its
    limit as p2 grows (the error floor). The per-node arrays compose it:
    `eps1_mixed` (hop 1, LoS/NLoS mixed), `hop2_components` (hop 2 per link
    type), `hop2_mixed` and `end_to_end`. A LoS entry of `hop2_components`
    is the kernel's value where that could change a bit of `hop2_mixed` and
    0.0 where the LoS asymptote or endpoint bound rules it out (see the
    module docstring); the NLoS entries and the mix are those of the kernel
    at every node. Both mixtures are the one rule `_Mixture`, and every
    trajectory average is the one reduction `average`.
    Against the 10,000-point midpoint sum of C12 (urban scenario, L = 100,
    N = 2) the Chebyshev rule of `chebyshev_nodes` is 2.5e-5 absolute off
    at -20 dBm and 1.9e-7 at 18 dBm with 128 nodes, and 1.0e-4 and 7.7e-7
    with 64; the ROADMAP item on the periodic midpoint rule replaces it.

    Geometry and hop 1 are computed once, so repeated evaluations at
    different transmit powers (bisection, port sweeps) only redo the hop-2
    averages. A column of P powers goes through one call per link type and
    gives (P, nodes) arrays and one average per row, each row the bits of
    its power's own call: the kernel and `average` reduce each row on its
    own, and every other step is elementwise. Spectra of one rank stacked
    as (S, 1, 1, n_eff) lambdas give (S, P, nodes) arrays and (S, P)
    averages the same way (see the module docstring). `e2e_avg_tabulated` is
    `e2e_avg` with hop 2 read from the dict `tables` (given or fresh)
    instead, as a power solve reads it.
    """

    def __init__(self, cfg: ScenarioConfig, fbl: FblParams,
                 nodes: int = DEFAULT_TRAJECTORY_NODES, tables=None):
        # nodes = 2.5 would build 3 nodes weighted for 2.5, summing to 0.967
        if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)):
            raise ValueError(f"nodes must be an integer, got {nodes!r}")
        self.cfg = cfg
        self.fbl = fbl
        self.tables = {} if tables is None else tables
        self.theta, self.weights = chebyshev_nodes(nodes)
        geo = self.geo = trajectory_geometry(cfg, self.theta)
        # an SNR scale past the double range divides by 0 or overflows here;
        # the check below reports it
        with np.errstate(over="ignore", divide="ignore"):
            vt1 = [cfg.nakagami_m(lt) * cfg.noise_power / (cfg.p1 * geo.beta1[lt])
                   for lt in LINK_TYPES]
            scale2 = [cfg.nakagami_m(lt) * cfg.noise_power / geo.beta2[lt]
                      for lt in LINK_TYPES]
        _check_snr_scale("hop-1 vartheta m sigma^2 / (p1 beta1)", vt1, fbl.chi)
        _check_snr_scale("hop-2 scale m sigma^2 / beta2", scale2, fbl.chi)
        eps1_los, eps1_nlos = (avg_bler_hop1(fbl, vt, cfg.nakagami_m(lt))
                               for lt, vt in zip(LINK_TYPES, vt1))
        self.eps1_mixed = _Mixture(geo.p_los1)(eps1_los, eps1_nlos)
        self._mix2 = _Mixture(geo.p_los2)

    def average(self, values):
        """A float for a node array, and for (..., nodes) an array of one
        per leading index: each is `weights @ row`, with the bits of its own
        call (the BLAS matvec of `values @ weights` rounds rows in blocks)."""
        values = np.asarray(values)
        if values.ndim == 1:
            return float(self.weights @ values)
        rows = values.reshape(-1, values.shape[-1])
        return np.array([self.weights @ row for row in rows]).reshape(
            values.shape[:-1])

    def hop1_avg(self) -> float:
        return self.average(self.eps1_mixed)

    def hop2_varthetas(self, p2):
        """Hop-2 rate parameters m sigma^2 / (p2 beta2) at every node, for
        LoS then NLoS. A column of P powers, shape (P, 1), gives (P, nodes)
        arrays whose rows hold the bits each power gives alone. A power so
        small that p2 beta2 underflows gives vartheta = inf, where the
        kernels and tables take their limit min(chi * width, 1)."""
        if not np.all(np.asarray(p2) > 0):
            raise ValueError("p2 must be positive")
        with np.errstate(divide="ignore", over="ignore"):
            return tuple(self.cfg.nakagami_m(lt) * self.cfg.noise_power
                         / (p2 * self.geo.beta2[lt]) for lt in LINK_TYPES)

    def hop2_asymptotes(self, p2, lambdas):
        """`avg_bler_hop2_asymptotic` at `hop2_varthetas(p2)`, LoS then
        NLoS."""
        return tuple(avg_bler_hop2_asymptotic(self.fbl, vt,
                                              self.cfg.nakagami_m(lt), lambdas)
                     for lt, vt in zip(LINK_TYPES, self.hop2_varthetas(p2)))

    def hop2_components(self, p2, lambdas, asym_los=None):
        """Per-node hop-2 BLERs at `hop2_varthetas(p2)`, LoS then NLoS: the
        NLoS entry is the kernel at every node; the LoS entry is the kernel
        where it could change a bit of `hop2_mixed`, and 0.0 where the
        LoS asymptote asym_los (computed here if not given) or, at the
        points that leaves, `_hop2_endpoint_bound` keeps it below that
        (`_Mixture.los_negligible`), so the mixture has the bits of both
        kernels in full. lambdas is one spectrum or stacked spectra of
        one rank, as in `avg_bler_hop2`; the arrays have the broadcast
        shape of both."""
        vt_los, vt_nlos = self.hop2_varthetas(p2)
        m_los, m_nlos = (self.cfg.nakagami_m(lt) for lt in LINK_TYPES)
        nlos = avg_bler_hop2(self.fbl, vt_nlos, m_nlos, lambdas)
        if asym_los is None:
            asym_los = avg_bler_hop2_asymptotic(self.fbl, vt_los, m_los,
                                                lambdas)
        mix = self._mix2
        live = np.nonzero(~mix.los_negligible(asym_los, nlos))
        los = np.zeros(nlos.shape)
        if not live[0].size:
            return los, nlos
        # one vartheta per live point, and for stacked spectra one lambda
        # row; one spectrum broadcasts against any vartheta
        vt = np.broadcast_to(vt_los, nlos.shape)[live]
        lam = np.asarray(lambdas, dtype=float)
        if lam.ndim > 1:
            lam = np.broadcast_to(lam, nlos.shape + lam.shape[-1:])[live]
        # the asymptote is loose near the knee of the branch CDFs
        keep = np.flatnonzero(~mix.los_negligible(
            _hop2_endpoint_bound(self.fbl, vt, m_los, lam), nlos, live))
        if keep.size:
            los[tuple(i[keep] for i in live)] = avg_bler_hop2(
                self.fbl, vt[keep], m_los, lam[keep] if lam.ndim > 1 else lam)
        return los, nlos

    def hop2_mixed(self, e2_los, e2_nlos):
        """LoS/NLoS mixture of per-node hop-2 values."""
        return self._mix2(e2_los, e2_nlos)

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

    def e2e_avg_tabulated(self, p2, lambdas):
        """The end-to-end BLER at a relay power, or one per row for a (P, 1)
        column, with hop 2 read at `hop2_varthetas(p2)` from the `Hop2Table`
        pair of (fbl, m, lambdas) in `tables`, each built on its first lookup
        and within about 1e-12 relative of the direct path. A list or an
        array reads the pair of its tuple; stacked spectra raise ValueError.
        lambdas may also be a list of K spectra, each a tuple, list or 1-D
        array, against a (K, 1) column: row k reads the pair of spectrum k,
        and the 2K reads go through one `_read_tables`, with the bits of
        each row's own call."""
        several = (isinstance(lambdas, list) and bool(lambdas) and (
            isinstance(lambdas[0], tuple) or np.ndim(lambdas[0]) == 1))
        spectra = [lam if isinstance(lam, tuple) else _one_spectrum(lam)
                   for lam in (lambdas if several else [lambdas])]
        tables, vts = [], self.hop2_varthetas(p2)
        for lt in LINK_TYPES:
            for lam in spectra:
                key = (self.fbl, self.cfg.nakagami_m(lt), lam)
                if key not in self.tables:
                    self.tables[key] = Hop2Table(*key)
                tables.append(self.tables[key])
        k = len(spectra)
        eps2 = _read_tables(tables, np.concatenate(
            [vt.reshape(k, -1) for vt in vts]))
        return self.e2e_avg_from(eps2[:k].reshape(vts[0].shape),
                                 eps2[k:].reshape(vts[1].shape))
