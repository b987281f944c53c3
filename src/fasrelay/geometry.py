"""Scenario constants and the per-angle geometry of both hops.

The UAV flies a circle of radius r at altitude Z_U around the origin; the
base station and user are fixed. `trajectory_geometry` gives, at an array
of trajectory angles, each hop's slant range, signed elevation angle seen
from the ground node, LoS probability 1 / (1 + a exp(-b (phi - a))) and
linear large-scale gain (c / 4 pi f d)^2 10^(-eta/10) per link type. It is
a pure function of the scenario constants and the angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

LINK_TYPES = ("los", "nlos")


@dataclass(frozen=True)
class ScenarioConfig:
    """Environment and hardware constants for the urban two-hop scenario.

    Powers are stored in watts; dBm conversion happens only at the config
    parsing boundary. Defaults reproduce the urban reference setup.
    """

    bs_position: tuple[float, float, float] = (100.0, 0.0, 40.0)
    ue_position: tuple[float, float, float] = (-100.0, 100.0, 0.0)
    flight_radius: float = 50.0
    uav_altitude: float = 100.0
    los_a: float = 12.08
    los_b: float = 0.11
    eta_los: float = 1.6      # dB excess path loss
    eta_nlos: float = 23.0    # dB excess path loss
    carrier_freq: float = 2.5e9
    noise_power: float = 1e-13   # -100 dBm
    p1: float = 10.0             # 40 dBm BS transmit power
    m_los: int = 5
    m_nlos: int = 1

    def __post_init__(self):
        # `not x > 0` and `isnan`: a NaN fails every comparison, so it
        # would pass `x <= 0`
        for name in ("bs_position", "ue_position"):
            pos = getattr(self, name)
            if len(pos) != 3 or any(math.isnan(v) for v in pos):
                raise ValueError(f"{name} must be a 3-vector of numbers")
        for name in ("flight_radius", "uav_altitude", "carrier_freq",
                     "noise_power", "p1", "los_a", "los_b"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("m_los", "m_nlos"):
            m = getattr(self, name)
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"{name} must be a positive integer, got {m!r}")
        for name in ("eta_los", "eta_nlos"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        if self.eta_los > self.eta_nlos:
            raise ValueError("eta_los must not exceed eta_nlos")

    def nakagami_m(self, link_type: str) -> int:
        if link_type == "los":
            return self.m_los
        if link_type == "nlos":
            return self.m_nlos
        raise ValueError(f"unknown link type {link_type!r}")

    def eta_db(self, link_type: str) -> float:
        return self.eta_los if link_type == "los" else self.eta_nlos


@dataclass(frozen=True)
class TrajectoryGeometry:
    """Per-angle geometry arrays for both hops, shared by the BLER engines."""

    theta: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    p_los1: np.ndarray
    p_los2: np.ndarray
    beta1: dict = field(repr=False, default_factory=dict)  # link_type -> array
    beta2: dict = field(repr=False, default_factory=dict)


def _power_ratio(db: float) -> float:
    """10^(db / 10), inf past the double range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


# a distance or gain past the double range is inf, 0 or nan here, quietly;
# `TrajectoryEvaluator` reports the SNR scale it gives
@np.errstate(over="ignore", invalid="ignore")
def trajectory_geometry(cfg: ScenarioConfig, theta: np.ndarray) -> TrajectoryGeometry:
    """Geometry of both hops at the trajectory angles theta (index 1: UAV
    to BS, index 2: UAV to UE; a scalar angle gives arrays of length 1),
    one expression per quantity; raises DegenerateGeometryError where the
    UAV coincides with a ground node."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    ux = cfg.flight_radius * np.cos(theta)
    uy = cfg.flight_radius * np.sin(theta)
    uz = cfg.uav_altitude
    hops = []
    for x, y, z in (cfg.bs_position, cfg.ue_position):
        # the height's square as a float64: the bits of a float's (both are
        # C pow), but inf past the double range instead of OverflowError
        d = np.sqrt((ux - x) ** 2 + (uy - y) ** 2 + np.float64(uz - z) ** 2)
        if np.any(d == 0.0):
            raise DegenerateGeometryError("trajectory grid touches a link endpoint")
        phi = np.degrees(np.arcsin((uz - z) / d))
        p_los = 1.0 / (1.0 + cfg.los_a * np.exp(-cfg.los_b * (phi - cfg.los_a)))
        fspl = (SPEED_OF_LIGHT / (d * (4.0 * math.pi * cfg.carrier_freq))) ** 2
        hops.append((d, phi, p_los, {lt: fspl * _power_ratio(-cfg.eta_db(lt))
                                     for lt in LINK_TYPES}))
    (d1, phi1, p_los1, beta1), (d2, phi2, p_los2, beta2) = hops
    return TrajectoryGeometry(theta, d1, d2, phi1, phi2, p_los1, p_los2,
                              beta1, beta2)
