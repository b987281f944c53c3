"""Accuracy of the special functions the closed forms and the correlation
model rest on, each against an mpmath reference: Bessel J0 in the port
correlation matrix, Q and its inverse in the rate and the instantaneous BLER,
the regularized incomplete gamma functions in the hop CDFs and averages, and
the symmetric eigensolver behind the eigen-spectrum."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from fasrelay import (avg_bler_hop1, avg_bler_hop2, eigen_spectrum,
                      instantaneous_bler, jakes_matrix)
from fasrelay.blercore import _branch_cdf, q_func

from conftest import cdf_hop1, normal_rate



def test_bessel_j0_absolute_accuracy():
    # the first row of the correlation matrix is J0(2 pi W delta / (N - 1));
    # these apertures cover arguments from 0 to about 150
    for n_ports, aperture in ((401, 1.3), (301, 24.0)):
        row = jakes_matrix(n_ports, aperture)[0]
        args = 2.0 * math.pi * aperture * np.arange(n_ports) / (n_ports - 1)
        ref = np.array([float(mp.besselj(0, x)) for x in args])
        assert np.max(np.abs(row - ref)) < 1e-12


def test_bessel_j0_known_points():
    # half-wavelength spacing of two ports correlates them by J0(pi)
    j = jakes_matrix(2, 0.5)
    assert j[0, 0] == j[1, 1] == 1.0
    assert j[0, 1] == j[1, 0]
    assert j[0, 1] == pytest.approx(float(mp.besselj(0, mp.pi)), abs=1e-14)


def test_q_func_identities():
    assert q_func(0.0) == 0.5
    assert abs(q_func(1.0) - 0.5 * math.erfc(1.0 / math.sqrt(2.0))) == 0.0
    assert q_func(40.0) == 0.0  # underflow region
    assert abs(q_func(-40.0) - 1.0) < 1e-15


@pytest.mark.parametrize("eps", [1e-15, 1e-9, 1e-6, 1e-3, 0.0228, 0.3, 0.5,
                                 0.77, 0.999, 1 - 1e-9])
def test_q_func_inv_against_library(eps):
    # Q at Q^-1(eps) = sqrt(2) erfinv(1 - 2 eps), from mpmath, is eps
    with mp.workdps(40):
        ref = float(mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(eps)))
    assert q_func(ref) == pytest.approx(eps, rel=1e-10, abs=1e-12)


def test_q_func_inv_round_trip():
    # the instantaneous BLER (Q) at the rate solved for eps (Q^-1)
    for eps in np.logspace(-12, -0.05, 50):
        rate = normal_rate(10.0, 100, eps)
        assert instantaneous_bler(10.0, rate, 100) == pytest.approx(eps, rel=1e-9)


def test_q_func_inv_rejects_bad_domain():
    # the BLER of a non-positive rate or a negative SNR raises
    for gamma, rate in ((1.0, 0.0), (1.0, -0.1), (-0.1, 0.8), (-math.inf, 0.8)):
        with pytest.raises(ValueError):
            instantaneous_bler(gamma, rate, 100)


def test_gamma_cdf_matches_library_across_shapes():
    zs = np.concatenate([[0.0], np.logspace(-8, np.log10(50.0), 200)])
    for m in range(1, 9):
        ref = np.array([float(mp.gammainc(m, 0, z, regularized=True)) for z in zs])
        got = cdf_hop1(zs, 1.0, m)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_gamma_cdf_deep_tail_keeps_relative_accuracy():
    # the hop averages rest on scipy's regularized lower gamma; it keeps
    # full relative accuracy down to the deep tail the high-SNR regime uses
    zs = np.logspace(-60, np.log10(80.0), 160)
    worst = 0.0
    with mp.workdps(30):
        for m in range(1, 14):
            got = special.gammainc(m, zs)
            for z, g in zip(zs, got):
                ref = float(mp.gammainc(m, 0, z, regularized=True))
                if ref >= 1e-300:
                    worst = max(worst, abs(g - ref) / ref)
    assert worst < 1e-12


def test_rayleigh_branch_cdf_is_correctly_rounded():
    # the hop-2 kernel's m = 1 factor -expm1(-z) is P(1, z) correctly
    # rounded, from the deep tail to past saturation
    zs = np.geomspace(1e-300, 1e2, 3000)
    got = _branch_cdf(1, zs)
    with mp.workdps(40):
        ref = [float(mp.gammainc(1, 0, mp.mpf(z), regularized=True)) for z in zs]
    assert np.array_equal(got, ref)


def test_gamma_cdf_survival_complement():
    # the upper function is the Poisson survival sum e^-z sum_{j<m} z^j / j!
    # and complements the hop CDF
    for m in (1, 3, 6):
        for z in (0.5, 2.0, 10.0):
            with mp.workdps(30):
                poisson = float(mp.exp(-z) * mp.fsum(
                    mp.mpf(z) ** j / mp.factorial(j) for j in range(m)))
            assert special.gammaincc(m, z) == pytest.approx(poisson, rel=1e-13)
            assert cdf_hop1(z, 1.0, m) + special.gammaincc(m, z) == pytest.approx(
                1.0, abs=1e-14)


def test_gamma_cdf_rejects_non_integer_shape(fbl100):
    # the hop averages take the shape of their gamma CDFs as an integer
    with pytest.raises(ValueError):
        avg_bler_hop1(fbl100, 1.0, 0)
    with pytest.raises(ValueError):
        avg_bler_hop1(fbl100, 1.0, 1.5)
    with pytest.raises(ValueError):
        avg_bler_hop2(fbl100, 1.0, -2, (1.0,))


def test_jacobi_matches_library_eigensolver():
    # eigen-spectra of correlation matrices against mpmath's eigensolver
    for n_ports, aperture in ((1, 0.5), (2, 0.5), (3, 1.0), (8, 0.5),
                              (16, 2.0), (32, 0.5)):
        j = jakes_matrix(n_ports, aperture)
        with mp.workdps(30):
            ref = mp.eigsy(mp.matrix(j.tolist()), eigvals_only=True)
        ref = np.clip(sorted((float(e) for e in ref), reverse=True), 0.0, None)
        got = np.array(eigen_spectrum(j).eigenvalues)
        assert np.max(np.abs(got - ref)) < 1e-11 * ref[0]


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigen_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))
