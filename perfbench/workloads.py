"""Seeded study workloads: a seed turns into a cycle of fasrelay configs.

Every workload is a scaled-down version of a shipped study. A run repeats
the seed's cycle of configs and measures each whole cycle. For the two
analytic workloads the cycle holds one altitude near each of three anchors;
the seed draws each altitude's offset from its anchor and the order. The
work of a study changes with altitude by up to 30% across the anchors, so one altitude per seed would make seeds differ in cost; a cycle
over all anchors costs nearly the same for every seed. Offsets and anchors
come from a fixed set, so that a stored reference output exists for every
config a seed can produce (see ``check.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Study:
    """One generated study: the CLI command, its config text, and the name
    of the stored reference output it must reproduce."""

    command: str
    config: str
    variant: str


def optimize_grid(z0: int) -> Study:
    """optimize_global.conf reduced to L = 300 and the one altitude z0 (the
    altitude grid z0..z0+10 in 20 m steps holds z0 alone): 1 port search
    over N = 1..12, 12 power solves."""
    config = "\n".join([
        "aperture = 0.5",
        "p1 = 46 dBm",
        "bler_threshold = 1e-3",
        "p_max = 40 dBm",
        "n_min = 1",
        "n_max = 12",
        f"z_min = {z0}",
        f"z_max = {z0 + 10}",
        "z_step = 20",
        "l_set = 300",
    ]) + "\n"
    return Study("optimize", config, f"z{z0}")


def bler_sweep(z: int) -> Study:
    """N = 1..12 x aperture {0.5, 1, 2, 4} x relay power {20, 40} dBm = 96
    rows at altitude z."""
    config = "\n".join([
        "blocklength = 100",
        "p1 = 40 dBm",
        f"uav_altitude = {z}",
        "sweep_n_ports = 1:12:12",
        "sweep_aperture = 0.5, 1, 2, 4",
        "sweep_p2_dbm = 20:40:2",
    ]) + "\n"
    return Study("bler-sweep", config, f"z{z}")


def validate_mc(seed: int) -> Study:
    """validate_bler_vs_power.conf at 4 of its relay powers (0, 9, 18, 27
    dBm) and one full batch (250k trials) per point; the Monte Carlo seed is
    the workload seed, and the analytic columns do not depend on it."""
    config = "\n".join([
        "blocklength = 100",
        "n_ports = 2",
        "aperture = 0.5",
        "p1 = 40 dBm",
        "uav_altitude = 100",
        "sweep_p2_dbm = 0:27:4",
        f"seed = {seed}",
        "trials = 250000",
        "mc_mode = model",
    ]) + "\n"
    return Study("validate", config, "mc")


OFFSETS = (-20, -10, 0, 10, 20)

# workload -> (config function, altitude anchors the cycle walks; None if the
# config is built from the seed itself). The hop-2 fallback of bler-sweep
# takes a path about 3x as long between 420 m and 500 m (more antiderivative
# evaluations), so its anchors keep every offset on one side of that step.
WORKLOADS = {
    "optimize-grid": (optimize_grid, (400, 500, 600)),
    "bler-sweep": (bler_sweep, (400, 530, 600)),
    "validate-mc": (validate_mc, None),
}


def cycle(workload: str, seed: int) -> list[Study]:
    """The run's cycle: one altitude near each anchor, at seed-drawn offsets,
    in a seed-shuffled order; or the one config at the seed itself."""
    build, anchors = WORKLOADS[workload]
    if anchors is None:
        return [build(seed)]
    rng = random.Random(seed)
    altitudes = [anchor + rng.choice(OFFSETS) for anchor in anchors]
    rng.shuffle(altitudes)
    return [build(z) for z in altitudes]


def reference_studies(workload: str, seed: int = 0) -> list[Study]:
    """Every config the workload can produce, or its config at ``seed`` for
    a workload that does not walk the anchors."""
    build, anchors = WORKLOADS[workload]
    if anchors is None:
        return [build(seed)]
    return [build(a + o) for a in anchors for o in OFFSETS]
