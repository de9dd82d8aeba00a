"""Bound engine: calibration, regimes, certificates, tables, thresholds."""

import hashlib
import itertools
import math
import pickle
import random

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from abcertify import bounds, kinematics
from abcertify.bounds import (
    POWERS,
    REGIMES,
    _DETAILED,
    assembled_norms,
    calibrated_coefficients,
    calibrated_poly,
    envelope_sides,
    final_bound,
    interaction_probability,
    interval_certificates,
    plateau_interval,
    radius_table,
    regime_bound,
    size_table,
    angle_table,
    sweep_rows,
    params_sweep,
    tail_payload,
    ten_pow,
    threshold_sigma,
)
from abcertify.config import BEAMS, MAGNETS, apply_overrides, get_config
from abcertify.fields import norm_bundle, ring_tail
from abcertify.kinematics import z_of_sigma
from abcertify.partition import SET_NAMES, sweep_pairs
from abcertify.xreal import add_down, add_up, exp_neg_log, f64_up, mul_up, sci_strings

import published
from golden import golden_widths as _golden_widths

_SQRT_2 = math.sqrt(2.0)


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1.0))


# ----------------------------------------------------------------------
# directed powers of ten
# ----------------------------------------------------------------------


def test_ten_pow_brackets_truth():
    for k in (-456, -420, -101, -100, -3, 7):
        true_log = float(mpmath.mpf(k) * mpmath.log(10))
        up = ten_pow(k)
        down = ten_pow(k, "down")
        assert down <= true_log <= up
        assert ulps(up, down) <= 8.0


# ----------------------------------------------------------------------
# norm assembly and calibration
# ----------------------------------------------------------------------


def test_assembled_norms_unit_vector(cfg):
    mv = cfg.mv
    a = assembled_norms((1.0, 0.0, 0.0, 0.0, 0.0), mv)
    assert a[0] == pytest.approx(1.0 / (_SQRT_2 * mv), rel=1e-14)
    assert a[1] == pytest.approx(
        (4.0 / math.pi**0.25) * (_SQRT_2 / (2.0 * mv)), rel=1e-14
    )
    assert a[2] == a[3] == a[4] == 0.0


def test_assembled_norms_linear(cfg):
    rng = np.random.default_rng(17)
    w = rng.uniform(0.5, 2.0, 5)
    one = np.array(assembled_norms(tuple(w), cfg.mv))
    three = np.array(assembled_norms(tuple(3.0 * w), cfg.mv))
    assert np.allclose(three, 3.0 * one, rtol=1e-13)


def test_assembled_norms_component_ordering(cfg):
    # w4 <= w1 and w5 <= w2 force a4 <= a1 and a5 <= a3
    m = norm_bundle(cfg, delta=cfg.magnet.h_tilde)
    assert m[3] <= m[0] and m[4] <= m[1]
    a = assembled_norms(m, cfg.mv)
    assert a[3] <= a[0] and a[4] <= a[2]


def test_assembled_norms_frozen(cfg, cfg_k1e1):
    a1 = assembled_norms(norm_bundle(cfg_k1e1, delta=1e-6), cfg_k1e1.mv)
    for got, want in zip(a1, published.FROZEN_A_NORMS_K1E1):
        assert got == pytest.approx(want, rel=1e-6)
    a2 = assembled_norms(norm_bundle(cfg, delta=1e-6), cfg.mv)
    for got, want in zip(a2, published.FROZEN_A_NORMS_K2E1):
        assert got == pytest.approx(want, rel=1e-6)


def test_calibrated_coefficients_frozen(cfg, cfg_k1e1):
    for c, out_ref, lead_ref in (
        (cfg, published.FROZEN_OUTGOING_COEFFS_K2E1, published.FROZEN_INCOMING_LEAD_K2E1),
        (cfg_k1e1, published.FROZEN_OUTGOING_COEFFS_K1E1, published.FROZEN_INCOMING_LEAD_K1E1),
    ):
        co = calibrated_coefficients(c)
        for got, want in zip(co["outgoing"], out_ref):
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-6)
        assert co["incoming"][0] == pytest.approx(lead_ref, rel=1e-6)


def test_calibrated_coefficients_cached_per_config(cfg, monkeypatch):
    calls = []
    real = bounds.norm_bundle
    monkeypatch.setattr(bounds, "norm_bundle", lambda *a, **k: calls.append(a) or real(*a, **k))
    bounds._calibrated.cache_clear()
    bounds._floor_norms.cache_clear()
    first = calibrated_coefficients(cfg)
    payload = tail_payload("outgoing", 0.3, 1e-7, cfg)
    assert len(calls) == 1
    for _ in range(3):
        assert calibrated_coefficients(cfg) == first
        assert tail_payload("outgoing", 0.3, 1e-7, cfg) == payload
    assert len(calls) == 1
    # each caller gets its own dict; changing it leaks into no other call
    again = calibrated_coefficients(cfg)
    assert again is not first
    again["outgoing"] = (0.0,) * 5
    assert calibrated_coefficients(cfg) == first
    # an equal config hits the cache, a different one gets its own vectors
    assert calibrated_coefficients(replace(cfg)) == first
    assert len(calls) == 1
    assert calibrated_coefficients(replace(cfg, eps_scale=2.0)) != first
    assert len(calls) == 2


def test_pair_allowance_reads_coefficients_kept_on_the_config(monkeypatch):
    # pair_allowance reads the calibrated vectors kept on its config, not
    # the lru_cache keyed by the config's hash; a changed config
    # (apply_overrides, replace) keeps its own, and a pickled one (as
    # --jobs workers receive it) carries the same values
    base = get_config("k2", "e1")
    mu1, mu2 = 3e-10, 3.03e-10  # near sigma_min, where the calibrated term counts
    want = bounds.pair_allowance(base, mu1, mu2)
    changed = (
        apply_overrides(base, {"magnet.h_tilde": "2e-6"}),
        apply_overrides(base, {"beam.mv": "2.5e10"}),
        replace(base, eps_scale=2.0),
    )
    fresh = [bounds.pair_allowance(c, mu1, mu2) for c in changed]
    copy = pickle.loads(pickle.dumps(base))
    assert bounds._coefficients(copy) == bounds._calibrated(base)

    def no_hash(cfg):
        raise AssertionError("config hashed for its coefficients")

    monkeypatch.setattr(bounds, "_calibrated", no_hash)
    assert bounds.pair_allowance(base, mu1, mu2) == want
    assert bounds.pair_allowance(copy, mu1, mu2) == want
    for c, got in zip(changed, fresh):
        assert got != want
        assert bounds.pair_allowance(c, mu1, mu2) == got
    # a new config computes its own vectors
    with pytest.raises(AssertionError, match="hashed"):
        bounds.pair_allowance(replace(base, eps_scale=3.0), mu1, mu2)


def test_coefficient_structure(cfg):
    co = calibrated_coefficients(cfg)
    assert len(POWERS) == 5 and POWERS == (1.0, 0.5, 0.0, -0.5, -1.0)
    assert co["interacting"][0] == co["incoming"][0]
    assert ulps(co["outgoing"][0], 3.0 * co["incoming"][0]) <= 4.0
    # sign pattern: growing powers positive, incoming tails negative
    for reg in ("incoming", "interacting", "outgoing"):
        assert co[reg][0] > 0.0 and co[reg][1] > 0.0
    assert co["incoming"][2] < 0.0 and co["incoming"][3] < 0.0
    assert co["incoming"][4] == 0.0 and co["outgoing"][4] == 0.0
    assert co["interacting"][4] > 0.0


def test_detailed_literal_is_frozen():
    assert _DETAILED == (1.04e14, 3.91e8, -1.41e3, -1.14e-2, 0.0)


def test_calibrated_poly_evaluates_powers(cfg):
    coeffs = (2.0, 3.0, 5.0, 7.0, 11.0)
    s = 0.37
    expect = sum(c * s**p for c, p in zip(coeffs, POWERS))
    assert calibrated_poly(coeffs, s) == pytest.approx(expect, rel=1e-14)


def test_poly_family_ordering(cfg):
    # pointwise: outgoing >= interacting >= incoming + sqrt(2)
    co = calibrated_coefficients(cfg)
    for s in np.geomspace(cfg.sigma_min, cfg.sigma_max, 2000):
        p_out = calibrated_poly(co["outgoing"], s)
        p_int = calibrated_poly(co["interacting"], s)
        p_in = calibrated_poly(co["incoming"], s)
        assert p_out >= p_int >= p_in + _SQRT_2


def test_headline_config_dominates_every_combo(cfg):
    lead = calibrated_coefficients(cfg)["outgoing"]
    grid = np.geomspace(cfg.sigma_min, cfg.sigma_max, 500)
    for mag in ("k1", "k2"):
        for beam in ("e1", "e2", "e3"):
            other = calibrated_coefficients(get_config(mag, beam))["outgoing"]
            assert all(a >= b for a, b in zip(lead, other))
            for s in grid[::25]:
                assert calibrated_poly(lead, s) >= calibrated_poly(other, s)


# ----------------------------------------------------------------------
# tail payloads and envelopes
# ----------------------------------------------------------------------


def test_tail_payload_identities(cfg):
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = rng.uniform(1e-3, 0.5)
        s = 10.0 ** rng.uniform(-9.0, -5.0)
        p_in = tail_payload("incoming", z, s, cfg)
        p_int = tail_payload("interacting", z, s, cfg)
        p_out = tail_payload("outgoing", z, s, cfg)
        assert p_in > 0.0 and p_int > 0.0 and p_out > 0.0
        # the two routes to the ring surplus agree up to cancellation noise
        extra_a = p_out - 3.0 * p_in
        extra_b = p_int - p_in
        assert extra_a == pytest.approx(extra_b, abs=1e-12 * p_out)


# the tightest width of the incoming envelope (k2/e1) on a 20,000-point
# geomspace over [sigma_min, sigma_max]: its margin is ~1.03e-7 decades
_TIGHTEST_INCOMING_WIDTH = 1.771639632945827e-09


def test_envelope_lhs_below_rhs(cfg):
    widths = np.append(np.geomspace(cfg.sigma_min, cfg.sigma_max, 2000), _TIGHTEST_INCOMING_WIDTH)
    for regime in ("incoming", "interacting", "outgoing"):
        for s in widths.tolist():
            lhs, rhs = envelope_sides(cfg, regime, s)
            assert lhs <= rhs, (regime, s)
    lhs, rhs = envelope_sides(cfg, "incoming", _TIGHTEST_INCOMING_WIDTH)
    assert 0.0 < (rhs - lhs) / math.log(10.0) < 2e-7


def test_envelope_rhs_rounds_down(cfg):
    # the comparison side never exceeds exp(-rate) p + 1e-420 for its
    # float rate and polynomial, checked in 200-bit arithmetic
    for regime in ("incoming", "interacting", "outgoing"):
        coeffs = calibrated_coefficients(cfg)[regime]
        for s in np.geomspace(cfg.sigma_min, cfg.sigma_max, 200).tolist():
            _, rhs = envelope_sides(cfg, regime, s)
            rate, p = cfg.rate_exponent(s), bounds._poly_nonneg(coeffs, s)
            with mpmath.workprec(200):
                exact = mpmath.log(mpmath.exp(-mpmath.mpf(rate)) * p + mpmath.mpf(10) ** -420)
                assert mpmath.mpf(rhs) <= exact, (regime, s)


def test_pair_allowance_rounds_down(any_cfg):
    # each family's allowance log never exceeds the published
    # 4 e^{-r1^2/2mu1^2} + c e^{-rate(mu2)} max(0, P(mu2)) + 10^-101,
    # with c = 10^-3 (interacting) and 10^-7 (outgoing) and the exp
    # arguments and P(mu2) taken as the floats they are, on seeded
    # sweep pairs, checked in 200-bit arithmetic
    jobs = sweep_pairs(any_cfg, SET_NAMES)
    picks = random.Random(18).sample(range(len(jobs)), 100)
    coeffs = calibrated_coefficients(any_cfg)
    r1 = any_cfg.r1
    for i in picks:
        _, _, mu1, mu2, _ = jobs[i]
        logs = bounds.pair_allowance(any_cfg, mu1, mu2)
        size_arg, rate = r1 * r1 / (2.0 * mu1 * mu1), any_cfg.rate_exponent(mu2)
        for family, c, got in zip(("interacting", "outgoing"), (3, 7), logs):
            p = max(0.0, calibrated_poly(coeffs[family], mu2))
            with mpmath.workprec(200):
                exact = mpmath.log(
                    4 * mpmath.exp(-mpmath.mpf(size_arg))
                    + mpmath.mpf(10) ** -c * mpmath.exp(-mpmath.mpf(rate)) * p
                    + mpmath.mpf(10) ** -101
                )
                assert mpmath.mpf(got) <= exact, (family, i)


def test_envelope_regimes_read_the_table(cfg):
    s = 1e-7
    out = envelope_sides(cfg, "outgoing", s)
    for alias in ("scattering", "uniform"):
        assert envelope_sides(cfg, alias, s) == out
    with pytest.raises(ValueError, match="regime 'detailed' has no envelope certificate"):
        envelope_sides(cfg, "detailed", s)
    with pytest.raises(ValueError, match="unknown regime 'nope'"):
        tail_payload("nope", 0.3, s, cfg)


# sha256 over the bits of both sides of envelope_sides for the three
# families, and of ring_tail at the crossing distance (zeta = z and
# zeta = 0), for the six configs at 40 widths each over [sigma_min,
# sigma_max]; re-recorded when the widths stopped coming from np.geomspace
_GOLDEN_ENVELOPE_SHA256 = "90aaebc81cf511e692e81076d8351ceea61ee276b2cb1cc36b4a35a36f648bae"


def test_envelope_sides_match_golden_digest():
    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        cfg = get_config(magnet, beam)
        for s in _golden_widths(cfg.sigma_min, cfg.sigma_max):
            z = z_of_sigma(s, cfg)
            parts = [
                side
                for family in ("incoming", "interacting", "outgoing")
                for side in envelope_sides(cfg, family, s)
            ]
            parts += [ring_tail(cfg, s, z, z), ring_tail(cfg, s, 0.0, z)]
            digest.update(" ".join(float.hex(v) for v in parts).encode())
    assert digest.hexdigest() == _GOLDEN_ENVELOPE_SHA256


def test_interval_certificates_smoke(any_cfg):
    out = interval_certificates(any_cfg, n=500)
    assert set(out) == {
        "crossing_range_above",
        "crossover_scale_range",
        "ring_factor_cap",
        "spread_ratio_cap",
        "crossing_range_below",
    }
    for name, rec in out.items():
        assert rec["violations"] == 0, name
        # exact ties may report a margin a few rounding errors below zero
        assert rec["margin"] >= -1e-18


def test_interval_certificates_return_python_scalars(cfg):
    out = interval_certificates(cfg, n=500)
    assert list(out) == [
        "crossing_range_above",
        "crossover_scale_range",
        "ring_factor_cap",
        "spread_ratio_cap",
        "crossing_range_below",
    ]
    for rec in out.values():
        assert list(rec) == ["violations", "margin"]
        assert type(rec["violations"]) is int
        assert type(rec["margin"]) is float
    assert interval_certificates(cfg, n=np.int64(500)) == out


@pytest.mark.parametrize("n", [-1, 0, 1, 2.5, 1e3])
def test_interval_certificates_reject_vacuous_grids(cfg, n):
    with pytest.raises(ValueError, match="at least 2"):
        interval_certificates(cfg, n=n)


def test_interval_certificates_grids_are_geomspace_bits(monkeypatch):
    # the grids are np.geomspace's, built from np.logspace without its
    # sign and dtype handling; a numpy whose two disagree must fail here
    seen = []
    solve = bounds.z_of_sigma

    def capturing(sigma, c):
        seen.append(sigma.copy())
        return solve(sigma, c)

    monkeypatch.setattr(bounds, "z_of_sigma", capturing)
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        c = get_config(magnet, beam)
        for n in (2, 3, 400, 517, 600, 10_000):
            seen.clear()
            interval_certificates(c, n=n)
            want = np.concatenate(
                (np.geomspace(c.sigma0, c.sigma_max, n), np.geomspace(c.sigma_min, c.sigma0, n))
            )
            assert len(seen) == 1
            assert seen[0].tobytes() == want.tobytes(), (magnet, beam, n)


def test_interval_certificates_count_non_finite_margins(cfg, monkeypatch):
    real = bounds.z_of_sigma

    def poisoned(sigma, c):
        # one call solves both grids: poison elements 1 and 2 of each half
        z = real(sigma, c).copy()
        halves = z.reshape(2, -1)
        halves[:, 1] = math.nan
        halves[:, 2] = math.inf
        return z

    monkeypatch.setattr(bounds, "z_of_sigma", poisoned)
    with np.errstate(invalid="ignore"):  # inf - inf in the spread ratio
        out = interval_certificates(cfg, n=50)
    assert out["crossing_range_above"]["violations"] == 2
    assert out["crossing_range_below"]["violations"] == 2
    assert out["crossover_scale_range"]["violations"] == 0


def test_interval_certificates_solve_both_grids_in_one_call(cfg, monkeypatch):
    sizes = []
    solve = kinematics.z_crossing_vec

    def counting(omega_inv, *args):
        sizes.append(np.size(omega_inv))
        return solve(omega_inv, *args)

    monkeypatch.setattr(kinematics, "z_crossing_vec", counting)
    interval_certificates(cfg, n=517)
    assert sizes == [2 * 517]


# sha256 over each certificate's violation count and the float.hex of
# its margin, for the six configs at n = 500 and 10,000, as computed by
# the per-width loops the array pass replaced
_GOLDEN_CERT_SHA256 = "af9ffe18b37ec1bcb7d9295d0487c948f0436cfd714fa49a07839ea4c59875de"


def test_interval_certificates_match_golden_digest():
    digest = hashlib.sha256()
    for n in (500, 10_000):
        for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
            out = interval_certificates(get_config(magnet, beam), n=n)
            for name in sorted(out):
                rec = out[name]
                line = f"{n} {magnet} {beam} {name} {rec['violations']} {rec['margin'].hex()}"
                digest.update(line.encode())
    assert digest.hexdigest() == _GOLDEN_CERT_SHA256


# ----------------------------------------------------------------------
# regimes
# ----------------------------------------------------------------------


def test_regime_validation(cfg):
    assert REGIMES == (
        "incoming",
        "interacting",
        "outgoing",
        "scattering",
        "uniform",
        "detailed",
    )
    with pytest.raises(ValueError):
        regime_bound(cfg, 1e-7, "sideways")


def test_regime_report_reassembles(cfg):
    for regime in REGIMES:
        for s in (3e-9, 1e-7, 1e-5):
            rep = regime_bound(cfg, s, regime)
            re = add_up(add_up(rep.size_term.log_mag, rep.spread_term.log_mag), rep.additive_term.log_mag)
            assert ulps(re, rep.total.log_mag) <= 2.0


# sha256 over the bits of every regime_bound component, final_bound and
# interaction_probability for the six configs at 40 widths each over
# [1e-10, sigma_max], re-recorded when the widths stopped coming from
# np.geomspace (before that, when add_up took the log-sum step's absolute
# guard: sums whose log is near 0 moved by a few 2^-53)
_GOLDEN_BOUND_SHA256 = "f67765a0018413674257b8c0ae2d9315359b01541f09c7c5b6429fc591e376ee"


def test_bounds_match_golden_digest():
    def bits(lm):
        # zero prints as it did when it was a flag beside a 0.0 log
        zero = lm == -math.inf
        return f"{zero}:{(0.0 if zero else lm).hex()}"

    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        cfg = get_config(magnet, beam)
        for s in _golden_widths(1e-10, cfg.sigma_max):
            reports = [regime_bound(cfg, s, regime) for regime in REGIMES]
            for rep in reports + [final_bound(cfg, s)]:
                parts = list(rep._logs())
                if rep.regime == "final":
                    parts.append(interaction_probability(cfg, s))
                line = " ".join([rep.poly_value.hex()] + [bits(t) for t in parts])
                digest.update(line.encode())
    assert digest.hexdigest() == _GOLDEN_BOUND_SHA256


def test_worst_case_regimes_coincide(cfg):
    for s in (1e-8, 1e-6):
        t_out = regime_bound(cfg, s, "outgoing").total.log_mag
        assert regime_bound(cfg, s, "scattering").total.log_mag == t_out
        assert regime_bound(cfg, s, "uniform").total.log_mag == t_out


def test_regime_ordering_across_widths(cfg):
    # incoming <= interacting <= outgoing (up to fold rounding)
    for s in (cfg.sigma_min, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, cfg.sigma_max):
        t_in = regime_bound(cfg, s, "incoming").total
        t_int = regime_bound(cfg, s, "interacting").total
        t_out = regime_bound(cfg, s, "outgoing").total
        slack = 4.0 * math.ulp(max(abs(t_int.log_mag), abs(t_out.log_mag)))
        assert t_in.log_mag <= t_int.log_mag + slack
        assert t_int.log_mag <= t_out.log_mag + slack


def test_rate_times_poly_nonincreasing(cfg):
    # the width-exponential beats every polynomial growth on the range
    co = calibrated_coefficients(cfg)
    grid = np.geomspace(cfg.sigma_min, cfg.sigma_max, 1000)
    for reg in ("incoming", "interacting", "outgoing"):
        prev = math.inf
        for s in grid:
            val = -cfg.rate_exponent(s) + math.log(
                max(calibrated_poly(co[reg], s), 1e-300)
            )
            assert val <= prev + 1e-12
            prev = val


# ----------------------------------------------------------------------
# headline bound
# ----------------------------------------------------------------------


def test_final_bound_structure(cfg):
    s = 2e-9
    rep = final_bound(cfg, s)
    assert rep.regime == "final"
    size_log = -cfg.r1**2 / (2.0 * s * s) + math.log(7.0)
    assert ulps(rep.size_term.log_mag, size_log) <= 2.0
    rate_log = -cfg.rate_exponent(s) + math.log(177e3)
    assert ulps(rep.spread_term.log_mag, rate_log) <= 2.0
    assert rep.additive_term.log_mag == ten_pow(-100)
    re = add_up(add_up(rep.size_term.log_mag, rep.spread_term.log_mag), rep.additive_term.log_mag)
    assert ulps(re, rep.total.log_mag) <= 2.0


def test_final_bound_plateau_value(cfg):
    total = final_bound(cfg, 1e-7).total
    assert abs(total.log_mag / math.log(10.0) + 100.0) <= 1e-12 * 100.0


def test_final_bound_monotone_branches(cfg):
    small = [
        final_bound(cfg, s).total.log_mag
        for s in np.geomspace(cfg.sigma_min, 1.05e-9, 300)
    ]
    assert all(b < a for a, b in zip(small, small[1:]))
    big = [
        final_bound(cfg, s).total.log_mag
        for s in np.geomspace(8.2e-6, cfg.sigma_max, 300)
    ]
    assert all(b > a for a, b in zip(big, big[1:]))


def test_detailed_stays_below_headline(cfg):
    for s in np.geomspace(1.55e-9, cfg.sigma_max, 400):
        det = regime_bound(cfg, s, "detailed").total
        fin = final_bound(cfg, s).total
        assert det.log_mag <= fin.log_mag


def test_interaction_probability_is_squared_envelope(cfg):
    for s in (1e-9, 1e-7, 2e-5):
        prob = interaction_probability(cfg, s)
        size = mul_up(exp_neg_log(cfg.r1**2 / (2.0 * s * s)), f64_up(7.0))
        spread = mul_up(exp_neg_log(cfg.rate_exponent(s)), f64_up(177001.0))
        inner = add_up(add_up(size, spread), ten_pow(-100))
        assert ulps(prob, mul_up(inner, inner)) <= 4.0
    assert interaction_probability(cfg, 1e-7) <= -199.0 * math.log(10.0)


@pytest.mark.parametrize("sigma", [1e-300, 5e-324])
def test_bounds_where_the_width_squared_underflows(cfg, sigma):
    # 2 sigma^2 is 0: the size term takes its limit, zero, as it does at
    # 1e-160, where r1^2 / (2 sigma^2) overflows instead
    final = final_bound(cfg, sigma)
    assert final._logs() == final_bound(cfg, 1e-160)._logs()
    assert final.size_term.log_mag == -math.inf and final.poly_value == 177e3
    spread = mul_up(exp_neg_log(cfg.rate_exponent(sigma)), f64_up(177e3))
    assert final.spread_term.log_mag == spread
    assert final.total.log_mag == add_up(spread, ten_pow(-100))
    for regime in REGIMES:
        rep = regime_bound(cfg, sigma, regime)
        assert rep.size_term.log_mag == -math.inf
        assert rep.total.log_mag >= max(rep.spread_term.log_mag, rep.additive_term.log_mag)
    inner = add_up(
        mul_up(exp_neg_log(cfg.rate_exponent(sigma)), f64_up(177001.0)), ten_pow(-100)
    )
    assert interaction_probability(cfg, sigma) == mul_up(inner, inner)


def _reference_row_logs(cfg, sigma, row):
    """One row's bound at sigma with every constant read at the call and
    every polynomial, constant ones too, summed term by term."""
    coeffs, size_factor, offset, additive, scale = row
    if isinstance(coeffs, str):
        coeffs = calibrated_coefficients(cfg)[coeffs]
    elif isinstance(coeffs, float):
        coeffs = (0.0, 0.0, coeffs, 0.0, 0.0)
    poly = calibrated_poly(coeffs, sigma)
    p = max(0.0, poly)
    r1 = cfg.r1
    rate = exp_neg_log(cfg.rate_exponent(sigma))
    size1 = exp_neg_log(r1 * r1 / (2.0 * sigma * sigma))
    size = mul_up(size1, size_factor)
    spread = mul_up(rate, f64_up(p + offset))
    total = add_up(add_up(size, spread), additive)
    if scale:
        allowance = add_up(
            add_up(mul_up(size1, f64_up(4.0)), mul_up(rate, f64_up(scale * p))),
            ten_pow(-101),
        )
        total, additive = add_up(total, allowance), add_up(additive, allowance)
    return poly, size, spread, additive, total


def test_row_evaluator_matches_the_reference_formula(any_cfg):
    # zero slack: the five outputs of every row, bit for bit, on seeded
    # widths in both threshold brackets and the golden digest's 40
    rng = np.random.default_rng(27)
    widths = np.concatenate((
        np.exp(rng.uniform(math.log(1e-12), math.log(1e-7), 150)),
        np.exp(rng.uniform(math.log(1e-7), math.log(0.999 * any_cfg.r1), 150)),
        np.geomspace(1e-10, any_cfg.sigma_max, 40),
    )).tolist()
    rows = [*bounds._REGIME_TABLE.values(), bounds._FINAL, bounds._ENVELOPE]
    for row in rows:
        logs = bounds._row_logs(any_cfg, row)
        for s in widths:
            got = [x.hex() for x in logs(s)]
            assert got == [x.hex() for x in _reference_row_logs(any_cfg, s, row)], (row, s)
    for c in (177e3, 177001.0):
        assert all(calibrated_poly((0.0, 0.0, c, 0.0, 0.0), s) == c for s in widths)


# ----------------------------------------------------------------------
# thresholds and tables
# ----------------------------------------------------------------------


def test_threshold_round_trip(cfg):
    for s in np.geomspace(8.3e-6, 8.0e-5, 30):
        target = final_bound(cfg, s).total.log_mag
        back = threshold_sigma(cfg, target, "big")
        assert back == pytest.approx(s, rel=1e-5)
    for s in np.geomspace(2.4e-10, 1.0e-9, 30):
        target = final_bound(cfg, s).total.log_mag
        back = threshold_sigma(cfg, target, "small")
        assert back == pytest.approx(s, rel=1e-5)


# sha256 over the float.hex of every threshold output for the six
# configs: both size tables at _TABLE_TARGETS, the plateaus at -99 and
# -50, and the angle and radius tables, re-recorded with the guarded
# add_up (3 of the 552 outputs moved, by at most 3.7e-15 relative)
_GOLDEN_THRESHOLD_SHA256 = "0cfc09b6a4bd0ba14908ae38ba480c105dcf23a06e375335336cb32753284e03"
_TABLE_TARGETS = [*range(1, 11), 1.5, 7.25]


def _threshold_outputs(cfg):
    return (
        size_table(cfg, "big", _TABLE_TARGETS),
        size_table(cfg, "small", _TABLE_TARGETS),
        [plateau_interval(cfg, -99)],
        [plateau_interval(cfg, -50)],
        angle_table(cfg),
        radius_table(cfg),
    )


def _bisect_80(f, lo, hi, iters=80):
    """The bisection before its early exit: always ``iters`` steps."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo == fhi:
        raise ValueError("bound does not cross the target in the given bracket")
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(iters):
        lmid = 0.5 * (llo + lhi)
        if f(math.exp(lmid)) == flo:
            llo = lmid
        else:
            lhi = lmid
    return math.exp(0.5 * (llo + lhi))


def _full_loop(bound, t, lo, hi):
    """``_bisect_80`` on the search's arguments: it evaluates every step."""

    def sign(s):
        total = bound(s)[3]
        return (total > t) - (total < t)

    return _bisect_80(sign, lo, hi)


@pytest.fixture
def bound_calls(monkeypatch):
    """The widths at which the threshold search evaluates the bound: each
    evaluator that ``_row_logs`` returns records them."""
    widths = []
    real = bounds._row_logs

    def counting_factory(cfg, row):
        logs = real(cfg, row)

        def counting(sigma):
            widths.append(sigma)
            return logs(sigma)

        return counting

    monkeypatch.setattr(bounds, "_row_logs", counting_factory)
    return widths


def test_bisection_early_exit_matches_full_loop(any_cfg, monkeypatch, bound_calls):
    fast = _threshold_outputs(any_cfg)
    fast_calls = len(bound_calls)
    monkeypatch.setattr(bounds, "_bisect_log_sigma", _full_loop)
    assert _threshold_outputs(any_cfg) == fast
    # 48 bisections: the search stays inside 6,900 calls for the six
    # configs, the full loop makes 82 calls each
    assert fast_calls <= 6900 // 6


def test_threshold_search_call_budget(bound_calls):
    # the 288 bisections of the golden threshold outputs; evaluating
    # every step of the walk (with its early exit) takes 15,789 calls,
    # and walking between the proved regions took 1,595; deciding every
    # float between them instead evaluates a few more widths and takes
    # no walk step; each table and plateau evaluates a width once
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        _threshold_outputs(get_config(magnet, beam))
    assert len(bound_calls) == 1630


def test_table_evaluates_each_width_once(any_cfg, bound_calls):
    # the searches of one table or plateau share their evaluations: no
    # width twice, and each bracket end exactly once
    big, small = (1e-7, 0.999 * any_cfg.r1), (1e-12, 1e-7)
    tables = [
        (lambda: size_table(any_cfg, "big", _TABLE_TARGETS), big),
        (lambda: size_table(any_cfg, "small", _TABLE_TARGETS), small),
        (lambda: plateau_interval(any_cfg), big + small),
    ]
    for run, ends in tables:
        bound_calls.clear()
        run()
        assert len(bound_calls) == len(set(bound_calls))
        assert set(ends) <= set(bound_calls)


def test_bisection_sign_matches_reported_bound(any_cfg, monkeypatch):
    # the search orders bounds by their log floats; at every width it
    # evaluates (secant steps, proofs of a region and walk steps alike)
    # it reads the reported components, and its sign is the reported
    # total's order against the target
    visited = []
    real = bounds._bisect_log_sigma

    def recording(bound, t, lo, hi, *args):
        def bound_rec(s):
            logs = bound(s)
            visited.append((s, logs, (logs[3] > t) - (logs[3] < t)))
            return logs

        return real(bound_rec, t, lo, hi, *args)

    monkeypatch.setattr(bounds, "_bisect_log_sigma", recording)
    cases = [
        (ten_pow(-k), branch, None) for k in (1, 4.5, 10) for branch in ("big", "small")
    ]
    cases += [(ten_pow(-99, "down"), branch, None) for branch in ("big", "small")]
    # a target equal to a bracket end's bound returns that end at once
    for branch, end in (("big", 1e-7), ("small", 1e-12)):
        cases.append((final_bound(any_cfg, end).total.log_mag, branch, end))
    for target, branch, end in cases:
        visited.clear()
        s = threshold_sigma(any_cfg, target, branch)
        assert len(visited) >= 2
        for sigma, logs, sign in visited:
            rep = final_bound(any_cfg, sigma)
            assert logs == rep._logs()
            total = rep.total.log_mag
            assert sign == (total > target) - (total < target)
        if end is not None:
            assert s == end and visited[0][::2] == (end, 0) and len(visited) == 2


def test_threshold_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        for name, rows in zip(
            ("big", "small", "plateau-99", "plateau-50", "angle", "radius"),
            _threshold_outputs(get_config(magnet, beam)),
        ):
            for row in rows:
                line = " ".join([magnet, beam, name] + [float(x).hex() for x in row])
                digest.update(line.encode())
    assert digest.hexdigest() == _GOLDEN_THRESHOLD_SHA256


def test_proves_sign_reads_the_far_corners_with_the_proved_margin():
    # _proves_sign(sign, size(s1), spread(s1), size(s2), spread(s2), ...)
    # on [s1, s2]: above the target it needs the lower corner (size(s1),
    # spread(s2)) rounded down to clear t; below it needs the upper
    # corner (size(s2), spread(s1)) rounded up plus the rounding bound
    # h(U) - U = 11u|U| + 19u of any width inside to stay under t
    u = 2.0**-53
    rng = np.random.default_rng(12)
    additive = ten_pow(-100)
    for _ in range(2000):
        size1, size2 = sorted(rng.uniform(-400.0, 2.0, 2))
        spread2, spread1 = sorted(rng.uniform(-400.0, 12.0, 2))
        args = (size1, spread1, size2, spread2, additive)
        low = add_down(add_down(size1, spread2), additive)
        assert bounds._proves_sign(1, *args, math.nextafter(low, -math.inf))
        assert not bounds._proves_sign(1, *args, low)
        top = add_up(add_up(size2, spread1), additive)
        assert not bounds._proves_sign(-1, *args, top + 12.0 * u * abs(top) + 20.0 * u)
        assert bounds._proves_sign(-1, *args, top + 2.0**-46 * (abs(top) + 4.0))


def _full_loop_threshold(monkeypatch, cfg, target, branch):
    with monkeypatch.context() as m:
        m.setattr(bounds, "_bisect_log_sigma", _full_loop)
        return threshold_sigma(cfg, target, branch)


def test_threshold_search_matches_full_loop_on_seeded_targets(any_cfg, monkeypatch, bound_calls):
    # 186 targets a config, 1,116 in all, each compared bit for bit
    rng = np.random.default_rng(15)
    brackets = {"big": (1e-7, 0.999 * any_cfg.r1), "small": (1e-12, 1e-7)}
    for branch, ends in brackets.items():
        targets = [ten_pow(-k) for k in rng.uniform(0.5, 98.0, 80)]
        targets += [ten_pow(-99, "down"), ten_pow(-50, "down")]
        # the bound at a recorded threshold, and one ulp either side
        for k in (1, 5, 10):
            s = threshold_sigma(any_cfg, ten_pow(-k), branch)
            b = final_bound(any_cfg, s).total.log_mag
            targets += [math.nextafter(b, d) for d in (-math.inf, b, math.inf)]
        for target in targets:
            want = _full_loop_threshold(monkeypatch, any_cfg, target, branch)
            assert threshold_sigma(any_cfg, target, branch) == want
        # the bound at a bracket end returns that end after two evaluations
        for end in ends:
            target = final_bound(any_cfg, end).total.log_mag
            bound_calls.clear()
            assert threshold_sigma(any_cfg, target, branch) == end
            assert bound_calls == [ends[0], ends[1]]


def _counting(monkeypatch, name):
    """The argument tuples of each call of ``bounds.<name>``, which still runs."""
    calls = []
    real = getattr(bounds, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, name, counting)
    return calls


def test_golden_searches_take_no_walk_step(monkeypatch):
    # each of the 288 searches decides the floats between its proved
    # regions and returns the walk's end without walking
    searches = _counting(monkeypatch, "_bisect_log_sigma")
    walks = _counting(monkeypatch, "_walk")
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        _threshold_outputs(get_config(magnet, beam))
    assert len(searches) == 288 and walks == []


def test_exp_rises_on_the_threshold_brackets(any_cfg):
    # the search's trusted step: one float step in the log of a width in
    # either bracket moves math.exp by 8 ulps or more, so a faithful exp
    # rises there; sampled, each step moves it by at least 6
    rng = np.random.default_rng(31)
    for lo, hi in ((1e-7, 0.999 * any_cfg.r1), (1e-12, 1e-7)):
        llo, lhi = math.log(lo), math.log(hi)
        assert bounds._walk_closes(llo, lhi)
        for L in [*rng.uniform(llo, lhi, 2000).tolist(), llo, math.nextafter(lhi, -math.inf)]:
            s, s_next = math.exp(L), math.exp(math.nextafter(L, math.inf))
            assert s_next - s >= 6.0 * math.ulp(s)


def _lying_bound(lie_floats: int, log_cross: float = -20.0):
    """A synthetic bound for the search at t = 0 whose decisions are not monotone.

    Its size, the only finite component, rises through 0 at the width
    e^log_cross as 10 (1 - (s_c / s)^2) does, and is flat at -1e-15, which
    no region proof can place under 0, on the 2 lie_floats floats of the
    log width below the crossing.  Its total is the size but on the
    lower half of those floats, where it reads +1e-15: the decisions
    there are the upper end's, then lo's again.  The region proofs stay
    sound, as every width they cover has total = size.
    """
    u = math.ulp(log_cross)
    s_lo, s_mid, s_cross = (math.exp(log_cross - k * lie_floats * u) for k in (2, 1, 0))

    def bound(s):
        if s < s_lo:
            size = 10.0 * (1.0 - (s_lo / s) ** 2) - 1e-15
        elif s < s_cross:
            size = -1e-15
        else:
            size = 10.0 * (1.0 - (s_cross / s) ** 2) + 1e-15
        total = 1e-15 if s_lo <= s < s_mid else size
        return size, -math.inf, -math.inf, total

    return bound


def test_non_monotone_decisions_fall_back_to_the_walk(monkeypatch):
    # no gap counts as too long here, so only the decisions force the walk
    monkeypatch.setattr(bounds, "_GAP_FLOATS", 1000)
    walks = _counting(monkeypatch, "_walk")
    for lie_floats in (0, 1, 2, 3):
        walks.clear()
        bound = _lying_bound(lie_floats)
        assert bounds._bisect_log_sigma(bound, 0.0, 1e-12, 1e-7) == _full_loop(bound, 0.0, 1e-12, 1e-7)
        assert len(walks) == (lie_floats > 0)
    # a bracket whose logs are under 8 in magnitude is walked too
    walks.clear()
    bound = _lying_bound(0, log_cross=-3.0)
    assert bounds._bisect_log_sigma(bound, 0.0, 1e-3, 0.5) == _full_loop(bound, 0.0, 1e-3, 0.5)
    assert len(walks) == 1


@pytest.mark.parametrize("branch", ["big", "small"])
def test_threshold_degenerate_targets_raise(cfg, bound_calls, branch):
    # zero, an infinite log target, and targets under the 1e-100 floor
    # and over the largest bound: the two bracket ends show no crossing
    for target in (-math.inf, math.inf, ten_pow(-300), ten_pow(6)):
        bound_calls.clear()
        with pytest.raises(ValueError, match="does not cross"):
            threshold_sigma(cfg, target, branch)
        assert len(bound_calls) == 2


@pytest.mark.parametrize("branch", ["big", "small"])
def test_threshold_nan_target_raises(cfg, bound_calls, branch):
    # a NaN target orders as equal to every width's bound: it is
    # rejected before the search instead of returning the left end
    with pytest.raises(ValueError, match="NaN"):
        threshold_sigma(cfg, math.nan, branch)
    assert bound_calls == []


def test_threshold_requires_crossing(cfg):
    with pytest.raises(ValueError):
        threshold_sigma(cfg, f64_up(10.0), "big")


def test_plateau_interval(cfg):
    lo, hi = plateau_interval(cfg)
    assert lo == pytest.approx(published.FROZEN_PLATEAU_K2E1[0], rel=1e-6)
    assert hi == pytest.approx(published.FROZEN_PLATEAU_K2E1[1], rel=1e-6)
    # the published plateau is contained in the certified one
    assert lo <= published.PUBLISHED_PLATEAU[0]
    assert hi >= published.PUBLISHED_PLATEAU[1]


def test_size_tables_match_published(cfg):
    for (k, got), want in zip(size_table(cfg, "big"), published.PUBLISHED_BIG_SIGMA):
        assert got == pytest.approx(want, rel=5e-3)
    for (k, got), want in zip(size_table(cfg, "small"), published.PUBLISHED_SMALL_SIGMA):
        assert got == pytest.approx(want, rel=5e-3)


def test_radius_table_matches_published(cfg):
    for (k, got), want in zip(radius_table(cfg), published.PUBLISHED_RADIUS):
        assert got == pytest.approx(want, rel=5e-3)


def test_angle_table_matches_published(cfg):
    rows = angle_table(cfg)
    for (k, got), want in zip(rows, published.PUBLISHED_ANGLE_DEG):
        assert got is not None
        assert got == pytest.approx(want, rel=5e-3)


def test_angle_factor_identity(cfg):
    # sin(angle/2) = 2.382 / (sigma mv) turns the rate exponential into
    # exp(-2.7535 / sin^2(angle/2)); check the exponents row by row
    sizes = size_table(cfg, "small")
    angles = angle_table(cfg)
    for (k, ratio), (k2, angle) in zip(sizes, angles):
        assert k == k2
        sigma = ratio * cfg.r1
        lhs = cfg.rate_exponent(sigma)
        rhs = 2.7535 / math.sin(math.radians(angle) / 2.0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-4)


# ----------------------------------------------------------------------
# report sweeps
# ----------------------------------------------------------------------


def test_sweep_rows_structure(cfg):
    rows = sweep_rows(cfg, 1e-8, 1e-6, 5)
    assert len(rows) == 5
    assert rows[0][0] == 1e-8 and rows[-1][0] == 1e-6
    for sigma, size_s, spread_s, add_s, total_s in rows:
        rep = final_bound(cfg, sigma)
        assert [size_s, spread_s, add_s, total_s] == sci_strings(rep._logs())
    lin = sweep_rows(cfg, 1e-8, 1e-6, 3, scale="linear")
    assert lin[1][0] == pytest.approx(0.5 * (1e-8 + 1e-6), rel=1e-12)
    with pytest.raises(ValueError):
        sweep_rows(cfg, 1e-8, 1e-6, 3, scale="cubic")


def test_params_sweep_rows(cfg):
    # at eps_scale 1e-300 eps^2 underflows to 0, which the cutoff's
    # momentum norm would divide by: that pair is rejected too
    rows = params_sweep(cfg, [1.0, 60.0, 1e-300], [1.0], probe_sigmas=[1e-6, 5e-6])
    ok = [r for r in rows if r["status"] == "ok"]
    rejected = [r for r in rows if r["status"] == "rejected"]
    assert len(ok) == 1 and len(rejected) == 2
    assert ok[0]["eps_scale"] == 1.0
    assert ok[0]["worst_log10"] == pytest.approx(-101.0, abs=0.01)
    assert "swallows the hole" in rejected[0]["reason"]
    assert "eps^2 underflows to 0" in rejected[1]["reason"]
