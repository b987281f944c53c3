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
        if len(self.bs_position) != 3 or len(self.ue_position) != 3:
            raise ValueError("node positions must be 3-vectors")
        if self.flight_radius <= 0:
            raise ValueError("flight_radius must be positive")
        if self.uav_altitude <= 0:
            raise ValueError("uav_altitude must be positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.p1 <= 0:
            raise ValueError("p1 must be positive")
        for name in ("m_los", "m_nlos"):
            m = getattr(self, name)
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"{name} must be a positive integer, got {m!r}")
        for name in ("los_a", "los_b"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
    to BS, index 2: UAV to UE; a scalar angle gives arrays of length 1);
    raises DegenerateGeometryError where the UAV coincides with a ground
    node."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    r = cfg.flight_radius
    ux = np.cos(theta)
    ux *= r
    uy = np.sin(theta)
    uy *= r
    uz = cfg.uav_altitude
    out = {}
    # each array below is built in place, in the operation order of
    # d = sqrt((ux - x)^2 + (uy - y)^2 + (uz - z)^2),
    # phi = degrees(arcsin((uz - z) / d)), p_los = 1 / (1 + a exp(-b (phi - a)))
    # and beta = (c / (4 pi f d))^2 10^(-eta/10)
    for name, node in (("1", cfg.bs_position), ("2", cfg.ue_position)):
        d = np.subtract(ux, node[0])
        np.square(d, out=d)
        dy = np.subtract(uy, node[1])
        np.square(dy, out=dy)
        d += dy
        del dy
        # a float's bits (both are C pow), but inf past the double range
        d += np.float64(uz - node[2]) ** 2
        np.sqrt(d, out=d)
        if np.any(d == 0.0):
            raise DegenerateGeometryError("trajectory grid touches a link endpoint")
        phi = np.divide(uz - node[2], d)
        np.arcsin(phi, out=phi)
        np.degrees(phi, out=phi)
        p_los = np.subtract(phi, cfg.los_a)
        p_los *= -cfg.los_b
        np.exp(p_los, out=p_los)
        p_los *= cfg.los_a
        p_los += 1.0
        np.divide(1.0, p_los, out=p_los)
        fspl = np.multiply(d, 4.0 * math.pi * cfg.carrier_freq)
        np.divide(SPEED_OF_LIGHT, fspl, out=fspl)
        np.square(fspl, out=fspl)
        betas = {lt: fspl * _power_ratio(-cfg.eta_db(lt)) for lt in LINK_TYPES}
        out[name] = (d, phi, p_los, betas)
    return TrajectoryGeometry(
        theta=theta,
        d1=out["1"][0], d2=out["2"][0],
        phi1=out["1"][1], phi2=out["2"][1],
        p_los1=out["1"][2], p_los2=out["2"][2],
        beta1=out["1"][3], beta2=out["2"][3],
    )
