"""Acceptance gate: the ten headline checks, one test per criterion.

Each test re-runs one published claim end to end at its stated tolerance
and budget, so `pytest -v tests/test_acceptance.py` reads as the
certification checklist. Nothing here is mocked; failures mean the
claim did not reproduce.
"""

import math
import os
import time

import numpy as np
import pytest

from abcertify.bounds import (
    angle_table,
    calibrated_coefficients,
    calibrated_poly,
    final_bound,
    interaction_probability,
    interval_certificates,
    radius_table,
    regime_bound,
    size_table,
    ten_pow,
)
from abcertify.certify import grid_majorant, sweep
from abcertify.config import get_config
from abcertify.fields import FieldModel, supnorm_constants
from abcertify.kinematics import (
    RADIUS_FACTOR,
    gaussian_window,
    rho,
    weighted_window,
    z_crossing,
)
from abcertify.xreal import XReal
from conftest import build_full_window, build_window
from oracles import (
    capture_fraction_quad,
    fd_curl,
    fd_divergence,
    gaussian_window_quad,
    weighted_window_quad,
    window_integral_quad,
)
from published import (
    FROZEN_TOTAL_PAIRS,
    PUBLISHED_ANGLE_DEG,
    PUBLISHED_BIG_SIGMA,
    PUBLISHED_PLATEAU,
    PUBLISHED_RADIUS,
    PUBLISHED_SMALL_SIGMA,
)

_SQRT_2 = math.sqrt(2.0)
_TABLE_TOL = 5e-3  # published values are quoted to ~5 digits
_COMBOS = [(m, e) for m in ("k1", "k2") for e in ("e1", "e2", "e3")]


def _sample_points(cfg, n, seed):
    rng = np.random.default_rng(seed)
    rs = rng.uniform(1e-6, 1.4 * cfg.magnet.r2_tilde, n)
    phis = rng.uniform(0.0, 2.0 * math.pi, n)
    zs = rng.uniform(-1.5 * cfg.magnet.h_tilde, 1.5 * cfg.magnet.h_tilde, n)
    return [
        (r * math.cos(p), r * math.sin(p), z) for r, p, z in zip(rs, phis, zs)
    ]


def test_criterion_01_big_sigma_table_within_half_percent(cfg):
    t0 = time.perf_counter()
    rows = size_table(cfg, "big")
    elapsed = time.perf_counter() - t0
    assert [k for k, _ in rows] == list(range(1, 11))
    for (k, ratio), want in zip(rows, PUBLISHED_BIG_SIGMA):
        assert ratio == pytest.approx(want, rel=_TABLE_TOL), f"row {k}"
    assert elapsed < 1.0


def test_criterion_02_small_sigma_table_within_half_percent(cfg):
    t0 = time.perf_counter()
    rows = size_table(cfg, "small")
    elapsed = time.perf_counter() - t0
    for (k, ratio), want in zip(rows, PUBLISHED_SMALL_SIGMA):
        assert ratio == pytest.approx(want, rel=_TABLE_TOL), f"row {k}"
    assert elapsed < 1.0


def test_criterion_03_radius_table_and_99_percent_capture(cfg):
    for (k, ratio), want in zip(radius_table(cfg), PUBLISHED_RADIUS):
        assert ratio == pytest.approx(want, rel=_TABLE_TOL), f"row {k}"
    # the radius factor really captures 99.0% of the packet mass
    captured = capture_fraction_quad(RADIUS_FACTOR)
    assert abs(captured - 0.990) <= 1e-3


def test_criterion_04_angle_table_and_rate_factor_identity(cfg):
    angles = angle_table(cfg)
    for (k, angle), want in zip(angles, PUBLISHED_ANGLE_DEG):
        assert angle == pytest.approx(want, rel=_TABLE_TOL), f"row {k}"
    # per row, the decay exponent matches 2.7535 / sin^2(angle/2) to
    # four significant digits
    for (k, ratio), (_, angle) in zip(size_table(cfg, "small"), angles):
        lhs = cfg.rate_exponent(ratio * cfg.r1)
        rhs = 2.7535 / math.sin(math.radians(angle) / 2.0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-4), f"row {k}"


def test_criterion_05_plateau_bound_and_probability(cfg):
    lo, hi = PUBLISHED_PLATEAU
    grid = np.geomspace(lo, hi, 1000)
    cap_bound = ten_pow(-99, "down")
    cap_prob = ten_pow(-199, "down")
    t0 = time.perf_counter()
    for s in grid:
        assert XReal.cmp(final_bound(cfg, float(s)).total, cap_bound) <= 0
        assert XReal.cmp(interaction_probability(cfg, float(s)), cap_prob) <= 0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_interval_certificates_every_combo():
    for magnet, energy in _COMBOS:
        out = interval_certificates(get_config(magnet, energy), n=10_000)
        assert set(out) == {
            "crossing_range_above",
            "crossover_scale_range",
            "ring_factor_cap",
            "spread_ratio_cap",
            "crossing_range_below",
        }
        for name, rec in out.items():
            assert rec["violations"] == 0, (magnet, energy, name)


def test_criterion_07_full_pair_sweep_passes(cfg):
    jobs = min(4, max(2, os.cpu_count() or 1))
    t0 = time.perf_counter()
    results = sweep(cfg, None, jobs=jobs)
    elapsed = time.perf_counter() - t0
    assert len(results) == FROZEN_TOTAL_PAIRS
    failures = [r for r in results if not r.passed]
    assert failures == [], [f.csv_row() for f in failures[:5]]
    assert all(r.flags == "ok" for r in results)
    assert elapsed < 600.0


def test_criterion_08_grid_majorants_dominate_quadrature():
    rng = np.random.default_rng(20260813)
    violations = []
    for i in range(1000):
        sigma = rng.uniform(0.5, 3.0)
        mv = rng.uniform(2.0, 10.0)
        zeta = rng.uniform(0.01, 0.3)
        lo_t = rng.uniform(0.2, 1.2)
        hi_cap = min(2.5, 0.9 * sigma * mv)
        if hi_cap <= lo_t + 0.1:
            continue
        hi_t = rng.uniform(lo_t + 0.1, hi_cap)
        s = z_crossing(lo_t, sigma, mv, zeta)
        z_cap = z_crossing(hi_t, sigma, mv, zeta)
        delta0 = rng.uniform(0.05, 1.0)
        r1 = (1.0 + rng.uniform(0.05, 1.5)) / rho(sigma, mv, z_cap)
        # the full grid for every kind, and the window built for each
        # kind, which is the majorant the certificate uses
        full = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
        for kind in ("b3", "b4", "b5", "b6"):
            truth = window_integral_quad(
                kind, sigma, mv, zeta, s, z_cap, r1=r1, rel=1e-7
            )
            built = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
            for name, win in (("full", full), ("built", built)):
                bound = grid_majorant(win, kind)
                if bound == -math.inf or bound < math.log(truth):
                    violations.append((i, kind, name))
    assert violations == []


def test_criterion_09_field_certificates(cfg, field_model):
    flux = cfg.flux
    tol = 1e-9 * max(1.0, abs(flux))

    # linked flux: full inside the hole, zero outside the magnet
    for r in np.linspace(1e-7, cfg.magnet.r1_tilde, 7):
        assert abs(field_model.flux_linked(float(r)) - flux) <= tol
    for r in np.linspace(cfg.magnet.r2_tilde, 2.0 * cfg.magnet.r2_tilde, 4):
        assert abs(field_model.flux_linked(float(r))) <= tol

    # gauge function on each connected branch of its domain
    assert abs(field_model.lambda_gauge((2e-4, 0.0, -5e-6))) <= tol
    assert abs(field_model.lambda_gauge((1e-5, 0.0, 5e-6)) - flux) <= tol
    assert abs(field_model.lambda_gauge((4e-4, 0.0, 0.0)) - flux) <= tol
    x_in = (1e-5, 0.0, 0.0)
    want = flux * field_model.axial_mass_below(x_in[2]) / field_model.w_axial
    assert abs(field_model.lambda_gauge(x_in) - want) <= tol

    # sampled sup-norms stay below the certified constants
    sigma = 1e-7
    consts = supnorm_constants(cfg, sigma)
    scale = abs(flux)
    for x in _sample_points(cfg, 200, 97):
        jac = field_model.b_partials(x)
        assert np.linalg.norm(field_model.b_field(x)) / scale <= consts["b"]
        assert np.abs(jac[:, :2]).max() / scale <= consts["b_perp"]
        assert np.abs(jac[:, 2]).max() / scale <= consts["b_axial"]
        assert abs(field_model.a3(x)) / scale <= consts["a"]
        assert field_model.chi(x, sigma) <= consts["chi"]
        assert abs(field_model.chi_curvature(x, sigma)) <= consts["chi_p2"]

    # divergence-free field and curl identity, finite differences
    h = 1e-4 * min(cfg.eps_tilde, cfg.delta_tilde)
    b_floor = 1e-3 * abs(flux) / field_model.normalisation
    curl_checked = 0
    for x in _sample_points(cfg, 1000, 101):
        div = abs(fd_divergence(field_model.b_field, x, h))
        div_scale = float(np.abs(field_model.b_partials(x)).sum()) + abs(
            flux
        ) / field_model.normalisation
        assert div <= 1e-4 * div_scale
    rng = np.random.default_rng(103)
    while curl_checked < 1000:
        r = rng.uniform(1e-6, 1.4 * cfg.magnet.r2_tilde)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-1.5 * cfg.magnet.h_tilde, 1.5 * cfg.magnet.h_tilde)
        x = (r * math.cos(phi), r * math.sin(phi), z)
        bvec = field_model.b_field(x)
        bnorm = np.linalg.norm(bvec)
        if bnorm < b_floor:
            continue
        curl = fd_curl(field_model.a_potential, x, h)
        assert np.abs(curl - bvec).max() <= 1e-3 * bnorm
        curl_checked += 1


def test_criterion_10_property_suites(cfg):
    # (a) the decay exponential beats the calibrated polynomials
    co = calibrated_coefficients(cfg)
    for reg in ("incoming", "interacting", "outgoing"):
        prev = math.inf
        for s in np.geomspace(cfg.sigma_min, cfg.sigma_max, 10_000):
            val = -cfg.rate_exponent(s) + math.log(
                max(calibrated_poly(co[reg], s), 1e-300)
            )
            assert val <= prev + 1e-12
            prev = val

    # (b) regime ordering: totals at the working width, polys pointwise
    t_in = regime_bound(cfg, 1e-7, "incoming").total
    t_int = regime_bound(cfg, 1e-7, "interacting").total
    t_out = regime_bound(cfg, 1e-7, "outgoing").total
    slack = 4.0 * math.ulp(max(abs(t_int.log_mag), abs(t_out.log_mag)))
    assert t_in.log_mag <= t_int.log_mag + slack
    assert t_int.log_mag <= t_out.log_mag + slack
    for s in np.geomspace(cfg.sigma_min, cfg.sigma_max, 2000):
        p_out = calibrated_poly(co["outgoing"], s)
        p_int = calibrated_poly(co["interacting"], s)
        p_in = calibrated_poly(co["incoming"], s)
        assert p_out >= p_int >= p_in + _SQRT_2

    # (c) crossing-location envelope over a width interval
    rng = np.random.default_rng(331)
    for _ in range(1000):
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.0, 1.0)
        lo, mid, hi = np.sort(rng.uniform(0.2, 4.0, 3))
        omega = rng.uniform(1e-3, 0.999) * lo * mv
        z_mid = z_crossing(omega, mid, mv, zeta)
        z_ends = max(
            z_crossing(omega, lo, mv, zeta), z_crossing(omega, hi, mv, zeta)
        )
        assert z_mid <= z_ends * (1.0 + 1e-9)

    # (d) crossing solver residual
    rng = np.random.default_rng(337)
    for _ in range(1000):
        sigma = rng.uniform(0.2, 4.0)
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.0, 1.0)
        omega = rng.uniform(1e-4, 0.999) * sigma * mv
        z = z_crossing(omega, sigma, mv, zeta)
        assert abs((z - zeta) * rho(sigma, mv, z) - omega) <= 1e-10 * omega

    # (e) closed-form window integrals against adaptive quadrature
    rng = np.random.default_rng(347)
    for _ in range(10_000):
        sigma = rng.uniform(0.2, 4.0)
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.01, 1.0)
        s = rng.uniform(0.0, 2.0)
        # the window is nonempty only while z - s < 2 zeta
        z = s + rng.uniform(0.0, 2.0 * zeta)
        plain = gaussian_window(sigma, mv, z, s, zeta)
        weighted = weighted_window(sigma, mv, z, s, zeta)
        assert plain == pytest.approx(
            gaussian_window_quad(sigma, mv, z, s, zeta), abs=1e-12
        )
        assert weighted == pytest.approx(
            weighted_window_quad(sigma, mv, z, s, zeta), abs=1e-12
        )
