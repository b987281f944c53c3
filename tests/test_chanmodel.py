import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fasrelay import (avg_bler_hop1, avg_bler_hop2, eigen_spectrum,
                      fas_spectrum, jakes_matrix)
from fasrelay.chanmodel import FasSpectrum

from conftest import cdf_hop1, cdf_hop2


def test_jakes_unit_diagonal_any_aperture():
    for n in (2, 4, 9):
        for w in (0.1, 0.5, 3.0):
            j = jakes_matrix(n, w)
            assert np.allclose(np.diagonal(j), 1.0)
            assert np.allclose(j, j.T)
            assert np.max(np.abs(j)) <= 1.0 + 1e-15


def test_jakes_two_port_half_wavelength():
    j = jakes_matrix(2, 0.5)
    # off-diagonal is the order-zero Bessel function at pi
    assert j[0, 1] == pytest.approx(special.j0(math.pi), abs=1e-13)
    assert j[0, 1] == pytest.approx(-0.304242, abs=5e-7)


def test_jakes_three_port_half_wavelength():
    j = jakes_matrix(3, 0.5)
    assert j[0, 1] == pytest.approx(special.j0(math.pi / 2.0), abs=1e-13)
    assert j[0, 1] == pytest.approx(0.4720012, abs=5e-7)
    assert j[0, 2] == pytest.approx(special.j0(math.pi), abs=1e-13)


def test_jakes_single_port_is_identity():
    assert np.array_equal(jakes_matrix(1, 0.5), np.array([[1.0]]))
    spec = fas_spectrum(1, 0.5)
    assert spec.eigenvalues == (1.0,)
    assert spec.n_eff == 1


def test_eigen_spectrum_identity_matrix():
    spec = eigen_spectrum(np.eye(5))
    assert spec.n_eff == 5
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in spec.eigenvalues)


def test_eigen_spectrum_fully_correlated():
    spec = eigen_spectrum(np.ones((4, 4)))
    assert spec.n_eff == 1
    assert spec.eigenvalues[0] == pytest.approx(4.0, rel=1e-12)
    assert all(v <= 1e-10 for v in spec.eigenvalues[1:])


def test_eigen_spectrum_two_port_values():
    # eigenvalues of [[1, r], [r, 1]] are 1 +- |r| with r = J0(pi)
    spec = fas_spectrum(2, 0.5)
    r = abs(special.j0(math.pi))
    assert spec.eigenvalues[0] == pytest.approx(1.0 + r, rel=1e-10)
    assert spec.eigenvalues[1] == pytest.approx(1.0 - r, rel=1e-10)
    assert spec.n_eff == 2
    assert spec.eigenvalues[0] == pytest.approx(1.30424, abs=5e-6)
    assert spec.eigenvalues[1] == pytest.approx(0.69576, abs=5e-6)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 16), w=st.floats(0.05, 8.0))
def test_eigen_spectrum_trace_preserved(n, w):
    spec = fas_spectrum(n, w)
    assert sum(spec.eigenvalues) == pytest.approx(n, abs=1e-10 * n)
    assert spec.eigenvalues == tuple(sorted(spec.eigenvalues, reverse=True))
    assert 1 <= spec.n_eff <= n


def test_rank_tolerance_controls_retention():
    loose = fas_spectrum(8, 0.5, rank_tolerance=1e-3)
    tight = fas_spectrum(8, 0.5, rank_tolerance=1e-12)
    assert loose.n_eff <= tight.n_eff


def test_spectrum_type_validation():
    with pytest.raises(ValueError):
        FasSpectrum(n_ports=2, aperture=0.5, eigenvalues=(1.5, 1.5),
                    n_eff=1, rank_tolerance=1e-9)  # trace violated
    with pytest.raises(ValueError):
        FasSpectrum(n_ports=2, aperture=0.5, eigenvalues=(2.0,),
                    n_eff=1, rank_tolerance=1e-9)  # wrong length


def test_cdf_hop1_reference_values():
    assert cdf_hop1(0.0, 1.0, 3) == 0.0
    assert cdf_hop1(1.0, 1.0, 1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert cdf_hop1(1.0, 1.0, 2) == pytest.approx(float(special.gammainc(2, 1.0)), rel=1e-13)
    assert cdf_hop1(1.0, 1.0, 2) == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)


def test_cdf_hop1_matches_incomplete_gamma_form():
    # finite-sum form and the regularized lower gamma agree to 1e-12
    xs = np.linspace(0.0, 50.0, 101)
    for m in range(1, 9):
        for vt in (0.3, 1.0, 2.7):
            got = cdf_hop1(xs, vt, m)
            ref = special.gammainc(m, xs * vt)
            assert np.max(np.abs(got - ref)) < 1e-12


def test_cdf_hop2_single_branch_reduction():
    for x in (0.0, 0.4, 2.2, 9.0):
        for m in (1, 4):
            assert cdf_hop2(x, 0.7, m, (1.0,)) == pytest.approx(
                cdf_hop1(x, 0.7, m), rel=1e-14, abs=1e-300)


def test_cdf_hop2_reference_value():
    val = cdf_hop2(1.0, 1.0, 1, (1.0, 1.0))
    assert val == pytest.approx((1.0 - math.exp(-1.0)) ** 2, rel=1e-13)
    assert val == pytest.approx(0.399576, abs=5e-7)


def test_cdf_hop2_matches_per_branch_product():
    # product of per-branch regularized gammas, cross-library check
    lams = (1.30425, 0.69575)
    xs = np.linspace(0.0, 50.0, 81)
    for m in (1, 2, 5):
        got = cdf_hop2(xs, 0.9, m, lams)
        ref = np.ones_like(xs)
        for lam in lams:
            ref *= special.gammainc(m, xs * 0.9 / lam)
        assert np.max(np.abs(got - ref)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.01, 30.0), m=st.integers(1, 5),
       lams=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
def test_cdf_hop2_more_branches_dominated(x, m, lams):
    # the maximum over more branches is stochastically larger
    full = cdf_hop2(x, 1.0, m, lams)
    subset = cdf_hop2(x, 1.0, m, lams[:1])
    assert full <= subset + 1e-14


def test_cdf_domain_errors(fbl100):
    # the hop averages reject an empty branch set and a non-positive rate
    # parameter
    with pytest.raises(ValueError):
        avg_bler_hop2(fbl100, 1.0, 1, ())
    with pytest.raises(ValueError):
        avg_bler_hop1(fbl100, 0.0, 1)
