"""Bound engine: calibration, regimes, certificates, tables, thresholds."""

import hashlib
import itertools
import math

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from abcertify import bounds
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
from abcertify.config import BEAMS, MAGNETS, get_config
from abcertify.fields import norm_bundle, ring_tail
from abcertify.kinematics import z_of_sigma
from abcertify.xreal import XReal, add_up, exp_neg_log, f64_up, mul_up

import published

_SQRT_2 = math.sqrt(2.0)


def ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1.0))


# ----------------------------------------------------------------------
# directed powers of ten
# ----------------------------------------------------------------------


def test_ten_pow_brackets_truth():
    for k in (-456, -420, -101, -100, -3, 7):
        true_log = float(mpmath.mpf(k) * mpmath.log(10))
        up = ten_pow(k).log_mag
        down = ten_pow(k, "down").log_mag
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
            assert XReal.cmp(lhs, rhs) <= 0, (regime, s)
    lhs, rhs = envelope_sides(cfg, "incoming", _TIGHTEST_INCOMING_WIDTH)
    assert 0.0 < (rhs.log_mag - lhs.log_mag) / math.log(10.0) < 2e-7


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
                assert mpmath.mpf(rhs.log_mag) <= exact, (regime, s)


def test_envelope_regimes_read_the_table(cfg):
    s = 1e-7
    out = [v.log_mag for v in envelope_sides(cfg, "outgoing", s)]
    for alias in ("scattering", "uniform"):
        assert [v.log_mag for v in envelope_sides(cfg, alias, s)] == out
    with pytest.raises(ValueError, match="regime 'detailed' has no envelope certificate"):
        envelope_sides(cfg, "detailed", s)
    with pytest.raises(ValueError, match="unknown regime 'nope'"):
        tail_payload("nope", 0.3, s, cfg)


# sha256 over the bits of both sides of envelope_sides for the three
# families, and of ring_tail at the crossing distance (zeta = z and
# zeta = 0), for the six configs at 40 widths each over [sigma_min,
# sigma_max]; recorded while the LHS was still built with XReal methods
_GOLDEN_ENVELOPE_SHA256 = "78d3c83043ea9c5fdb7cb3e788f9554624ee4b50ef9e7f7040079454cb4cdee6"


def test_envelope_sides_match_golden_digest():
    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        cfg = get_config(magnet, beam)
        for s in np.geomspace(cfg.sigma_min, cfg.sigma_max, 40).tolist():
            z = z_of_sigma(s, cfg)
            parts = [
                side
                for family in ("incoming", "interacting", "outgoing")
                for side in envelope_sides(cfg, family, s)
            ]
            parts += [ring_tail(cfg, s, z, z), ring_tail(cfg, s, 0.0, z)]
            digest.update(" ".join(float.hex(v.log_mag) for v in parts).encode())
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


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_interval_certificates_reject_vacuous_grids(cfg, n):
    with pytest.raises(ValueError, match="at least 2"):
        interval_certificates(cfg, n=n)


def test_interval_certificates_count_non_finite_margins(cfg, monkeypatch):
    real = bounds.z_of_sigma

    def poisoned(sigma, c):
        z = real(sigma, c).copy()
        z[1] = math.nan
        z[2] = math.inf
        return z

    monkeypatch.setattr(bounds, "z_of_sigma", poisoned)
    with np.errstate(invalid="ignore"):  # inf - inf in the spread ratio
        out = interval_certificates(cfg, n=50)
    assert out["crossing_range_above"]["violations"] == 2
    assert out["crossing_range_below"]["violations"] == 2
    assert out["crossover_scale_range"]["violations"] == 0


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
            labels = [k for k, _ in rep.rows()]
            assert labels == ["size_term", "spread_term", "additive", "total"]


# sha256 over the bits of every regime_bound component, final_bound and
# interaction_probability for the six configs at 40 widths each,
# re-recorded when add_up took the log-sum step's absolute guard (sums
# whose log is near 0 moved by a few 2^-53)
_GOLDEN_BOUND_SHA256 = "c5670678511efa6a30e8c470baf8c04dbdab58020b5f2b8cc435d213a2ae87d8"


def test_bounds_match_golden_digest():
    def bits(x):
        # zero prints as it did when it was a flag beside a 0.0 log
        return f"{x.is_zero}:{(0.0 if x.is_zero else x.log_mag).hex()}"

    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        cfg = get_config(magnet, beam)
        for s in np.geomspace(1e-10, cfg.sigma_max, 40):
            s = float(s)
            reports = [regime_bound(cfg, s, regime) for regime in REGIMES]
            for rep in reports + [final_bound(cfg, s)]:
                parts = [rep.size_term, rep.spread_term, rep.additive_term, rep.total]
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
    assert rep.additive_term.log_mag == ten_pow(-100).log_mag
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
        assert XReal.cmp(det, fin) <= 0


def test_interaction_probability_is_squared_envelope(cfg):
    for s in (1e-9, 1e-7, 2e-5):
        prob = interaction_probability(cfg, s)
        size = mul_up(exp_neg_log(cfg.r1**2 / (2.0 * s * s)), f64_up(7.0))
        spread = mul_up(exp_neg_log(cfg.rate_exponent(s)), f64_up(177001.0))
        inner = add_up(add_up(size, spread), ten_pow(-100).log_mag)
        assert ulps(prob.log_mag, mul_up(inner, inner)) <= 4.0
    assert interaction_probability(cfg, 1e-7).log_mag <= -199.0 * math.log(10.0)


# ----------------------------------------------------------------------
# thresholds and tables
# ----------------------------------------------------------------------


def test_threshold_round_trip(cfg):
    for s in np.geomspace(8.3e-6, 8.0e-5, 30):
        target = final_bound(cfg, s).total
        back = threshold_sigma(cfg, target, "big")
        assert back == pytest.approx(s, rel=1e-5)
    for s in np.geomspace(2.4e-10, 1.0e-9, 30):
        target = final_bound(cfg, s).total
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


def test_bisection_early_exit_matches_full_loop(any_cfg, monkeypatch):
    # every bisection step evaluates the bound core once
    calls = [0]
    real = bounds._bound_logs

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(bounds, "_bound_logs", counting)
    early = _threshold_outputs(any_cfg)
    early_calls, calls[0] = calls[0], 0
    monkeypatch.setattr(bounds, "_bisect_log_sigma", _bisect_80)
    assert _threshold_outputs(any_cfg) == early
    # 48 bisections; the bracket stops moving after 51-53 of the 80 steps
    assert early_calls <= calls[0] - 20 * 48


def test_bisection_sign_matches_reported_bound(any_cfg, monkeypatch):
    # the bisection orders bounds by their log floats; at every width it
    # visits, its sign must be XReal.cmp of the reported total
    visited = []
    real = bounds._bisect_log_sigma

    def recording(f, lo, hi, *args):
        def f_rec(s):
            visited.append((s, f(s)))
            return visited[-1][1]

        return real(f_rec, lo, hi, *args)

    monkeypatch.setattr(bounds, "_bisect_log_sigma", recording)
    cases = [
        (ten_pow(-k), branch, None) for k in (1, 4.5, 10) for branch in ("big", "small")
    ]
    cases += [(ten_pow(-99, "down"), branch, None) for branch in ("big", "small")]
    # a target equal to a bracket end's bound returns that end at once
    for branch, end in (("big", 1e-7), ("small", 1e-12)):
        cases.append((final_bound(any_cfg, end).total, branch, end))
    for target, branch, end in cases:
        visited.clear()
        s = threshold_sigma(any_cfg, target, branch)
        assert len(visited) >= 2
        for sigma, sign in visited:
            assert sign == XReal.cmp(final_bound(any_cfg, sigma).total, target)
        if end is not None:
            assert s == end and visited[0] == (end, 0) and len(visited) == 2


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


def test_threshold_requires_crossing(cfg):
    with pytest.raises(ValueError):
        threshold_sigma(cfg, XReal(f64_up(10.0)), "big")


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
        assert total_s == rep.total.to_sci_string()
        assert size_s == rep.size_term.to_sci_string()
    lin = sweep_rows(cfg, 1e-8, 1e-6, 3, scale="linear")
    assert lin[1][0] == pytest.approx(0.5 * (1e-8 + 1e-6), rel=1e-12)
    with pytest.raises(ValueError):
        sweep_rows(cfg, 1e-8, 1e-6, 3, scale="cubic")


def test_params_sweep_rows(cfg):
    rows = params_sweep(cfg, [1.0, 60.0], [1.0], probe_sigmas=[1e-6, 5e-6])
    ok = [r for r in rows if r["status"] == "ok"]
    rejected = [r for r in rows if r["status"] == "rejected"]
    assert len(ok) == 1 and len(rejected) == 1
    assert ok[0]["eps_scale"] == 1.0
    assert ok[0]["worst_log10"] == pytest.approx(-101.0, abs=0.01)
    assert "reason" in rejected[0]
