"""Spatial correlation model of the multi-port receiver.

Port positions are spread uniformly over an aperture of W wavelengths, which
gives the classic isotropic-scattering correlation J0(2 pi W (m-n)/(N-1))
between ports m and n. The eigenvalues of that matrix act as effective
independent diversity branches; the number retained above a relative
threshold is the effective rank used throughout the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

DEFAULT_RANK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FasSpectrum:
    """Eigen-spectrum of the port correlation matrix.

    `eigenvalues` holds all N values in descending order (trace N preserved);
    `lambdas` exposes the n_eff retained branches that the analytical model
    treats as independent.
    """

    n_ports: int
    aperture: float
    eigenvalues: tuple[float, ...]
    n_eff: int
    rank_tolerance: float

    def __post_init__(self):
        if self.n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        if not 1 <= self.n_eff <= self.n_ports:
            raise ValueError("n_eff must lie in [1, n_ports]")
        if len(self.eigenvalues) != self.n_ports:
            raise ValueError("need one eigenvalue per port")
        if any(ev < 0 for ev in self.eigenvalues):
            raise ValueError("eigenvalues must be nonnegative")
        trace = sum(self.eigenvalues)
        if abs(trace - self.n_ports) > 1e-9 * self.n_ports:
            raise ValueError(f"eigenvalue sum {trace} violates trace {self.n_ports}")

    @property
    def lambdas(self) -> tuple[float, ...]:
        return self.eigenvalues[: self.n_eff]


def jakes_matrix(n_ports: int, aperture: float) -> np.ndarray:
    """Port correlation matrix J[m, n] = J0(2 pi W (m - n) / (N - 1)).

    A single port has no spacing to speak of; the 1x1 identity keeps the
    fixed-antenna baseline well defined.
    """
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    if aperture <= 0:
        raise ValueError("aperture must be positive")
    if n_ports == 1:
        return np.array([[1.0]])
    idx = np.arange(n_ports)
    delta = np.abs(idx[:, None] - idx[None, :])
    return special.j0(2.0 * math.pi * aperture * delta / (n_ports - 1))


def eigen_spectrum(j: np.ndarray, rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
                   aperture: float = math.nan) -> FasSpectrum:
    """Descending eigenvalues of a correlation matrix plus the effective rank.

    Tiny negative eigenvalues from roundoff are clipped to zero; branches are
    retained while they exceed rank_tolerance relative to the largest one.
    """
    j = np.asarray(j, dtype=float)
    n = j.shape[0]
    if j.shape != (n, n):
        raise ValueError("correlation matrix must be square")
    # exact symmetry, the common case, first: it implies allclose at a
    # fraction of its cost, and a NaN falls through to allclose
    if not (np.array_equal(j, j.T) or np.allclose(j, j.T, atol=1e-12)):
        raise ValueError("correlation matrix must be symmetric")
    if np.any(np.abs(np.diagonal(j) - 1.0) > 1e-12):
        raise ValueError("correlation matrix must have unit diagonal")
    if rank_tolerance <= 0 or rank_tolerance >= 1:
        raise ValueError("rank_tolerance must lie in (0, 1)")
    values = np.clip(np.linalg.eigvalsh(j), 0.0, None)[::-1]
    n_eff = int(np.count_nonzero(values > rank_tolerance * values[0]))
    n_eff = max(n_eff, 1)
    return FasSpectrum(n_ports=n, aperture=float(aperture),
                       eigenvalues=tuple(values.tolist()),
                       n_eff=n_eff, rank_tolerance=rank_tolerance)


@lru_cache(maxsize=256)
def fas_spectrum(n_ports: int, aperture: float,
                 rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> FasSpectrum:
    """Build and decompose the correlation matrix for (N, W) in one step."""
    return eigen_spectrum(jakes_matrix(n_ports, aperture), rank_tolerance,
                          aperture=aperture)
