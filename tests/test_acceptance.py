"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured numbers (run with `pytest tests/test_acceptance.py -s`).

Criteria are asserted at their stated tolerances, each against a reference
that does not share the code under test: quadrature of the same integrand,
simulation, or an oracle in `conftest`. C10 still fails: the model's optimum
sits at a corner of the search box (the README gives the measured cause).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from fasrelay import (McConfig, TrajectoryEvaluator, avg_bler_hop1,
                      avg_bler_hop2, avg_bler_hop2_asymptotic, fas_spectrum,
                      linearize, mc_average_bler, sample_fas_gain_model)
from fasrelay.cli import parse_config, run
from fasrelay.geometry import trajectory_geometry
from fasrelay.optimizer import EeConfig

from conftest import (cdf_hop1, cdf_hop2, closed_form_hop2, exact_traj_bler,
                      ks_statistic, quad_hop1, quad_hop2, run_rows,
                      solved_power, surrogate_mc_bler)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _preset(name: str, command: str):
    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    return parse_config(text, command)


def test_c01_closed_forms_match_quadrature(fbl100):
    # hop 2 is checked against two references: quadrature of the CDF
    # product and the paper's subset expansion
    start = time.time()
    rng = np.random.default_rng(11)
    worst = worst_closed = 0.0
    thetas = np.logspace(-3.0, 2.0, 6)
    for m in (1, 2, 5):
        for vt in thetas:
            ref = quad_hop1(fbl100, vt, m)
            rel = abs(avg_bler_hop1(fbl100, vt, m) - ref) / max(ref, 1e-300)
            worst = max(worst, rel)
        for ne in (1, 2, 3, 4):
            for _ in range(20):
                lams = tuple(rng.uniform(0.2, 2.0, ne))
                for vt in thetas:
                    val = avg_bler_hop2(fbl100, vt, m, lams)
                    ref = quad_hop2(fbl100, vt, m, lams)
                    closed = closed_form_hop2(fbl100, vt, m, lams)
                    worst = max(worst, abs(val - ref) / max(ref, 1e-300))
                    worst_closed = max(worst_closed,
                                       abs(val - closed) / max(closed, 1e-300))
    elapsed = time.time() - start
    _report("C01 closed-form vs quadrature and subset expansion",
            worst < 1e-8 and worst_closed < 1e-8 and elapsed < 10.0,
            f"max rel err {worst:.3e} vs quadrature, {worst_closed:.3e} vs "
            f"subset expansion (tol 1e-8), {elapsed:.1f}s (budget 10s)")


def test_c02_analytic_matches_monte_carlo(tmp_path):
    # The closed forms average the piecewise-linear BLER surrogate; the
    # simulator averages the exact Q-shaped BLER. Each is checked against an
    # independent oracle for its own expectation, and the surrogate's bias
    # (analytic / exact - 1) is reported per row.
    start = time.time()
    spec = _preset("validate_bler_vs_power.conf", "validate")
    rows = run_rows(spec, tmp_path)
    assert len(rows) == 10
    fbl = linearize(spec.ee.payload_bits / spec.blocklength, spec.blocklength,
                    spec.chi_variant)
    mc_sigmas, ana_sigmas, gaps = [], [], []
    for r in rows:
        p2 = 10.0 ** ((float(r["p2_dbm"]) - 30.0) / 10.0)
        lams = fas_spectrum(int(r["n_ports"]), float(r["aperture"]),
                            spec.rank_tolerance).lambdas
        ana = float(r["bler_analytic"])
        mc = float(r["bler_mc"])
        se = float(r["bler_mc_se"])
        exact = exact_traj_bler(spec.scenario, lams, fbl, p2, spec.traj_nodes)
        sur, sur_se = surrogate_mc_bler(spec.scenario, lams, fbl, p2,
                                        int(r["row_seed"]), int(r["mc_trials"]),
                                        spec.mc.batch)
        mc_sigmas.append(abs(mc - exact) / se)
        ana_sigmas.append(abs(ana - sur) / sur_se)
        gaps.append(ana / exact - 1.0)
    elapsed = time.time() - start
    detail = ("per-point |mc-exact|/se = "
              + ", ".join(f"{s:.1f}" for s in mc_sigmas)
              + "; |analytic-surrogate mc|/se = "
              + ", ".join(f"{s:.1f}" for s in ana_sigmas)
              + "; surrogate gap analytic/exact-1 = "
              + ", ".join(f"{g:+.1%}" for g in gaps)
              + f"; {elapsed:.0f}s (budget 300s); 1e6 trials/point")
    _report("C02 simulation validation (3 sigma at 1e6 trials)",
            max(mc_sigmas) <= 3.0 and max(ana_sigmas) <= 3.0
            and elapsed < 300.0, detail)


_SLOPE_CASES = (
    (1, (1.30425, 0.69575), (3.0, 5.0)),
    (2, (1.30425, 0.69575), (1.2, 3.2)),
    (5, (1.0,), (1.2, 3.2)),
)


def test_c03_diversity_order(fbl100):
    start = time.time()
    details = []
    ok = True
    for m, lams, (lo, hi) in _SLOPE_CASES:
        target = m * len(lams)
        gbar = np.logspace(lo, hi, 9)
        sumlam = sum(lams)
        eps = np.array([avg_bler_hop2(fbl100, m * sumlam / g, m, lams)
                        for g in gbar])
        slope = np.polyfit(np.log10(gbar), np.log10(eps), 1)[0]
        rel = abs(slope + target) / target
        ok &= rel < 0.05
        details.append(f"(m={m},n_eff={len(lams)}): {slope:.3f} vs {-target} "
                       f"({rel:.2%})")
    elapsed = time.time() - start
    _report("C03 diversity order (5% on fitted slope)",
            ok and elapsed < 5.0, "; ".join(details) + f"; {elapsed:.1f}s")


def _first_order_coeff(fbl, m, lams):
    """c in asymptote / exact = 1 + c * vartheta + O(vartheta^2).

    From P(m, z) = z^m / m! * (1 - m z / (m + 1) + O(z^2)) per branch,
    averaged over x^p on [rho_l, rho_h] with p = m * n_eff.
    """
    p = m * len(lams)
    rl, rh = fbl.rho_l, fbl.rho_h
    mean_x = (p + 1) / (p + 2) * (rh ** (p + 2) - rl ** (p + 2)) \
        / (rh ** (p + 1) - rl ** (p + 1))
    return m / (m + 1) * sum(1.0 / lam for lam in lams) * mean_x


def test_c04_asymptotic_consistency(fbl100):
    # The asymptote is the leading-order term, so its relative error is
    # c * vartheta (1 + O(vartheta)): the band must hold wherever that first
    # order term is small, and the measured error must follow it.
    start = time.time()
    details = []
    ok = True
    for m, lams, _ in _SLOPE_CASES:
        c = _first_order_coeff(fbl100, m, lams)

        def ratio(vt):
            return (avg_bler_hop2_asymptotic(fbl100, vt, m, lams)
                    / avg_bler_hop2(fbl100, vt, m, lams))

        grid = np.logspace(-4.0, 2.0, 61)
        ratios = np.array([ratio(vt) for vt in grid])
        domain = ratios[c * grid <= 0.01]
        worst = domain[np.argmax(np.abs(domain - 1.0))]
        low = grid <= 1e-3
        coeff_err = np.max(np.abs((ratios[low] - 1.0) / (c * grid[low]) - 1.0))
        ok &= 0.98 <= worst <= 1.02 and coeff_err <= 0.01
        # the vartheta at which the ratio, rising from 1, leaves the band
        k = int(np.argmax(ratios > 1.02))
        entry = "none on the grid"
        if k > 0:
            vt = 10.0 ** optimize.brentq(lambda x: ratio(10.0 ** x) - 1.02,
                                         math.log10(grid[k - 1]),
                                         math.log10(grid[k]))
            entry = (f"{vt:.3e} "
                     f"(exact={avg_bler_hop2(fbl100, vt, m, lams):.1e})")
        details.append(
            f"(m={m},n_eff={len(lams)}): c={c:.4f}, worst ratio {worst:.4f} "
            f"where c*vt <= 0.01, max |(ratio-1)/(c*vt) - 1| = "
            f"{coeff_err:.1e} for vt <= 1e-3, enters band at vt={entry}")
    elapsed = time.time() - start
    _report("C04 asymptote/exact in [0.98, 1.02] wherever c*vartheta <= 0.01, "
            "first-order coefficient within 1%",
            ok and elapsed < 5.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c05_error_floor(urban, fbl100):
    start = time.time()
    fas = fas_spectrum(2, 0.5)
    ev = TrajectoryEvaluator(urban, fbl100)
    floor = ev.hop1_avg()
    ee = EeConfig(p_max=10.0, bler_threshold=1e-3)
    p_star = solved_power(urban, fas, fbl100, ee, urban.uav_altitude)
    val = ev.e2e_avg(p_star * 1e4, fas.lambdas)
    rel = abs(val - floor) / floor
    elapsed = time.time() - start
    _report("C05 error floor reached 40 dB past the threshold power",
            rel < 0.01 and elapsed < 10.0,
            f"floor={floor:.4e}, at +40dB={val:.4e}, rel diff {rel:.2e}; "
            f"{elapsed:.1f}s")


def _crossing_dbm(rows, target):
    """log-linear interpolation of the power where the BLER crosses target."""
    pts = sorted((float(r["p2_dbm"]), float(r["bler_analytic"])) for r in rows)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if y0 >= target >= y1 and y1 > 0.0:
            t = (math.log10(target) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
            return x0 + t * (x1 - x0)
    return None


def _log_slope(rows, p_dbm):
    """Slope in decades per dB of the analytic curve segment holding p_dbm."""
    pts = sorted((float(r["p2_dbm"]), float(r["bler_analytic"])) for r in rows)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= p_dbm <= x1:
            return (math.log10(y1) - math.log10(y0)) / (x1 - x0)
    raise ValueError(f"{p_dbm} dBm lies outside the sweep")


def test_c06_port_selection_gain_over_fixed_antenna(tmp_path):
    # The gap is not a model constant: the NLoS share of the hop-2 trajectory
    # gets twice the diversity order from two ports, so the gap widens as the
    # target falls. The reported crossings are confirmed by simulation, which
    # is independent of every closed form, in both fading modes; the local
    # slope of each analytic curve converts the simulated BLER offset into a
    # simulated crossing power.
    start = time.time()
    spec = _preset("bler_fas_vs_fpa.conf", "bler-sweep")
    rows = run_rows(spec, tmp_path)
    curves = {n: [r for r in rows if r["n_ports"] == str(n)] for n in (1, 2)}
    cross = {n: _crossing_dbm(curves[n], 1e-4) for n in curves}
    assert None not in cross.values()
    gap = cross[1] - cross[2]
    fbl = linearize(spec.ee.payload_bits / spec.blocklength, spec.blocklength,
                    spec.chi_variant)
    ok = True
    sims = []
    for mode in ("model", "physical"):
        shifted = {}
        for n, p_dbm in cross.items():
            fas = fas_spectrum(n, spec.aperture, spec.rank_tolerance)
            est = mc_average_bler(spec.scenario, fas, fbl,
                                  10.0 ** ((p_dbm - 30.0) / 10.0),
                                  McConfig(trials=4_000_000, mode=mode))
            z = (est.mean - 1e-4) / est.std_error
            ok &= abs(z) <= 3.0
            slope = _log_slope(curves[n], p_dbm)
            shifted[n] = p_dbm - math.log10(est.mean / 1e-4) / slope
            sims.append(f"{mode} N={n}: {est.mean:.3e} ({z:+.1f} sigma)")
        sim_gap = shifted[1] - shifted[2]
        ok &= abs(sim_gap - gap) <= 1.0
        sims.append(f"{mode} simulated gap {sim_gap:.2f} dB")
    gap_1e3 = _crossing_dbm(curves[1], 1e-3) - _crossing_dbm(curves[2], 1e-3)
    elapsed = time.time() - start
    _report("C06 two-port power gain at BLER 1e-4 confirmed by simulation "
            "(3 sigma, +-1 dB)", ok,
            f"P2(N=1)={cross[1]:.2f} dBm, P2(N=2)={cross[2]:.2f} dBm, "
            f"gap={gap:.2f} dB; MC at the crossings (4e6 trials): "
            + "; ".join(sims) + f"; gap at BLER 1e-3 {gap_1e3:.2f} dB; "
            f"{elapsed:.0f}s")


def test_c07_aperture_saturation(tmp_path):
    rows = run_rows(_preset("bler_vs_aperture.conf", "aperture-sweep"), tmp_path)
    bler = {float(r["aperture"]): float(r["bler_analytic"]) for r in rows}
    decreasing = all(bler[a] > bler[b] for a, b in ((0.5, 1.0), (1.0, 2.0),
                                                    (2.0, 4.0)))
    ratio = (bler[2.0] - bler[4.0]) / (bler[0.5] - bler[2.0])
    _report("C07 aperture gains saturate (2->4 below 10% of 0.5->2)",
            decreasing and ratio < 0.10,
            f"bler={ {w: f'{v:.3e}' for w, v in sorted(bler.items())} }, "
            f"improvement ratio {ratio:.2%}")


def test_c08_altitude_tradeoff(tmp_path):
    start = time.time()
    rows = run_rows(_preset("power_vs_altitude.conf", "power-vs-altitude"), tmp_path)
    prof = {}
    for r in rows:
        assert r["feasible"] == "true"
        prof.setdefault(r["n_ports"], {})[float(r["uav_altitude_m"])] = \
            float(r["p2_star_dbm"])
    zs = sorted(prof["1"])
    assert len(zs) == 71 and zs[0] == 100.0 and zs[-1] == 800.0
    # the baseline (single-antenna) profile carries the blockage-vs-path-loss
    # trade-off; the multi-port array is compared against it at its minimizer
    fpa_min_z = min(zs, key=lambda z: prof["1"][z])
    interior = 300.0 <= fpa_min_z <= 600.0
    gap = prof["1"][fpa_min_z] - prof["8"][fpa_min_z]
    elapsed = time.time() - start
    _report("C08 interior optimal altitude and >= 10 dB port-selection saving",
            interior and gap >= 10.0,
            f"baseline minimizer {fpa_min_z:.0f} m, P2*(N=1)="
            f"{prof['1'][fpa_min_z]:.2f} dBm, P2*(N=8)="
            f"{prof['8'][fpa_min_z]:.2f} dBm, gap {gap:.1f} dB; {elapsed:.0f}s")


def test_c09_efficiency_vs_ports_structure(tmp_path):
    start = time.time()
    rows = run_rows(_preset("ee_vs_ports.conf", "ee-vs-ports"), tmp_path)
    ok = True
    details = []
    by_l = {}
    for r in rows:
        by_l.setdefault(int(r["blocklength"]), {})[int(r["n_ports"])] = r
    # exact causality cut at the short blocklength
    for n, r in sorted(by_l[200].items()):
        expected_feasible = n < 10
        if (r["feasible"] == "true") != expected_feasible:
            ok = False
        if not expected_feasible and float(r["ee_bits_per_joule"]) != 0.0:
            ok = False
    details.append("L=200: every N >= 10 infeasible with zero efficiency")
    # longer blocklengths: rise-then-fall with an interior maximum
    for l in (300, 400):
        ee_seq = [float(by_l[l][n]["ee_bits_per_joule"])
                  for n in sorted(by_l[l])]
        peak = max(range(len(ee_seq)), key=ee_seq.__getitem__)
        interior = 0 < peak < len(ee_seq) - 1
        above_ends = ee_seq[peak] > ee_seq[0] and ee_seq[peak] > ee_seq[-1]
        ok &= interior and above_ends
        details.append(f"L={l}: peak at N={sorted(by_l[l])[peak]} "
                       f"(interior={interior}, above endpoints={above_ends})")
    # whether a peak is the causality cut rather than a turn of the curve
    for l, by_n in sorted(by_l.items()):
        last = max((n for n, r in by_n.items() if r["feasible"] == "true"),
                   default=None)
        peak_n = max(by_n, key=lambda n: float(by_n[n]["ee_bits_per_joule"]))
        details.append(f"L={l}: last feasible N={last}, "
                       f"peak on it={peak_n == last}")
    elapsed = time.time() - start
    _report("C09 efficiency-vs-ports structure",
            ok and True, "; ".join(details) + f"; {elapsed:.0f}s")


def test_c10_global_optimum_region(tmp_path):
    start = time.time()
    spec = _preset("optimize_global.conf", "optimize")
    out = tmp_path / "opt.csv"
    assert run(spec, out_path=str(out)) == 0
    meta = dict(line.split(" = ", 1)
                for line in open(str(out) + ".meta").read().splitlines())
    l_star = int(meta["l_star"])
    z_star = float(meta["z_star"])
    elapsed = time.time() - start
    _report("C10 global optimum at the shortest blocklength and mid altitude",
            l_star == 300 and 300.0 <= z_star <= 500.0,
            f"L*={l_star} (want 300), Z*={z_star:.0f} m (want [300, 500]); "
            f"{elapsed:.0f}s")


def test_c11_sampler_distributions():
    n = 100_000
    crit = 1.6276 / math.sqrt(n)
    rng = np.random.Generator(np.random.PCG64(20260808))
    stats = []
    ok = True
    for m in (1, 2, 5):
        draws = sample_fas_gain_model(m, (1.0,), rng, n)
        stat = ks_statistic(draws, lambda x, m=m: cdf_hop1(x, float(m), m))
        stats.append(f"hop1 m={m}: {stat * math.sqrt(n):.3f}")
        ok &= stat < crit
    lams = fas_spectrum(2, 0.5).lambdas
    sumlam = sum(lams)
    for m in (1, 5):
        draws = sample_fas_gain_model(m, lams, rng, n) / sumlam
        stat = ks_statistic(draws,
                            lambda x, m=m: cdf_hop2(x, m * sumlam, m, lams))
        stats.append(f"hop2 m={m}: {stat * math.sqrt(n):.3f}")
        ok &= stat < crit
    _report("C11 sampled distributions match the hop CDFs (KS at 1%)",
            ok, "sqrt(n)*D = " + ", ".join(stats) + " (crit 1.628)")


def test_c12_trajectory_quadrature_crosscheck(urban, fbl100):
    fas = fas_spectrum(2, 0.5)
    p2 = 10.0 ** ((18.0 - 30.0) / 10.0)  # near the reliability operating zone
    approx = TrajectoryEvaluator(urban, fbl100, nodes=128).e2e_avg(
        p2, fas.lambdas)
    k = 10_000
    theta = (np.arange(k) + 0.5) * 2.0 * math.pi / k
    geo = trajectory_geometry(urban, theta)
    eps1 = np.zeros(k)
    eps2 = np.zeros(k)
    for lt, w1, w2 in (("los", geo.p_los1, geo.p_los2),
                       ("nlos", 1.0 - geo.p_los1, 1.0 - geo.p_los2)):
        m = urban.nakagami_m(lt)
        eps1 += w1 * avg_bler_hop1(
            fbl100, m * urban.noise_power / (urban.p1 * geo.beta1[lt]), m)
        eps2 += w2 * avg_bler_hop2(
            fbl100, m * urban.noise_power / (p2 * geo.beta2[lt]), m, fas.lambdas)
    ref = float(np.mean(1.0 - (1.0 - eps1) * (1.0 - eps2)))
    err = abs(approx - ref)
    _report("C12 128-node trajectory rule vs 1e4-point midpoint reference",
            err < 1e-6,
            f"|{approx:.8e} - {ref:.8e}| = {err:.2e} (tol 1e-6)")
