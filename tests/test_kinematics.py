"""Wave-packet kinematics: windows, crossings, derived probabilities."""

import math
import warnings

import numpy as np
import pytest

from abcertify.kinematics import (
    RADIUS_FACTOR,
    gaussian_window,
    opening_angle_deg,
    packet_radius,
    rho,
    weighted_window,
    z_crossing,
    z_crossing_vec,
    z_of_sigma,
)
from oracles import (
    gaussian_window_quad,
    rho_ref,
    weighted_window_quad,
)

_SQRT_PI = math.sqrt(math.pi)


def _window_tuples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        sigma = rng.uniform(0.3, 3.0)
        mv = rng.uniform(2.0, 10.0)
        zeta = rng.uniform(0.0, 0.5)
        z = rng.uniform(0.0, 8.0)
        s = z + rng.uniform(0.0, 6.0)
        out.append((sigma, mv, z, s, zeta))
    return out


# ----------------------------------------------------------------------
# spread profile
# ----------------------------------------------------------------------


def test_rho_matches_reference_and_decays():
    rng = np.random.default_rng(3)
    for _ in range(300):
        sigma = rng.uniform(0.1, 5.0)
        mv = rng.uniform(1.0, 20.0)
        z = rng.uniform(0.0, 50.0)
        assert rho(sigma, mv, z) == pytest.approx(rho_ref(sigma, mv, z), rel=1e-15)
    assert rho(2.0, 5.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    zs = np.linspace(0.0, 30.0, 200)
    vals = [rho(1.0, 4.0, z) for z in zs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# window integrals against quadrature
# ----------------------------------------------------------------------


def test_gaussian_window_against_quadrature():
    for sigma, mv, z, s, zeta in _window_tuples(200, seed=21):
        got = gaussian_window(sigma, mv, z, s, zeta)
        ref = gaussian_window_quad(sigma, mv, z, s, zeta)
        assert got == pytest.approx(ref, abs=1e-12)
        assert 0.0 <= got <= _SQRT_PI


def test_weighted_window_against_quadrature():
    for sigma, mv, z, s, zeta in _window_tuples(200, seed=22):
        got = weighted_window(sigma, mv, z, s, zeta)
        ref = weighted_window_quad(sigma, mv, z, s, zeta)
        assert got == pytest.approx(ref, abs=1e-12)
        assert 0.0 <= got <= _SQRT_PI / 2.0


def test_window_vanishes_when_limits_meet():
    # the two integration limits coincide at z = s + 2*zeta
    assert gaussian_window(2.0, 5.0, 1.6, 1.0, 0.3) == 0.0
    assert weighted_window(2.0, 5.0, 1.6, 1.0, 0.3) == 0.0


# ----------------------------------------------------------------------
# crossing solver
# ----------------------------------------------------------------------


def _crossing_tuples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        sigma = rng.uniform(0.2, 4.0)
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.0, 1.0)
        omega = rng.uniform(1e-4, 0.999) * sigma * mv
        out.append((omega, sigma, mv, zeta))
    return out


def test_crossing_residual():
    for omega, sigma, mv, zeta in _crossing_tuples(500, seed=31):
        z = z_crossing(omega, sigma, mv, zeta)
        residual = (z - zeta) * rho(sigma, mv, z) - omega
        assert abs(residual) <= 1e-10 * omega
        assert z > zeta


def test_crossing_monotone_in_omega():
    rng = np.random.default_rng(32)
    for _ in range(200):
        sigma = rng.uniform(0.2, 4.0)
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.0, 1.0)
        omegas = np.sort(rng.uniform(1e-4, 0.999, 8)) * sigma * mv
        zs = z_crossing_vec(omegas, sigma, mv, zeta)
        assert all(b > a for a, b in zip(zs, zs[1:]))


def test_crossing_small_omega_limit():
    zeta = 0.3
    z = z_crossing(1e-12, 2.0, 5.0, zeta)
    assert z == pytest.approx(zeta, abs=1e-11)


def test_crossing_vec_matches_scalar():
    omegas = np.array([0.5, 1.5, 2.0, 7.0])
    vec = z_crossing_vec(omegas, 2.0, 5.0, 0.3)
    scal = [z_crossing(w, 2.0, 5.0, 0.3) for w in omegas]
    assert np.array_equal(vec, np.array(scal))


def test_crossing_domain_errors():
    for bad in (0.0, -1.0, 10.0, 15.0):
        with pytest.raises(ValueError):
            z_crossing(bad, 2.0, 5.0, 0.3)
    # (sigma*mv)^2 underflows: no crossing can be computed
    with pytest.raises(ValueError):
        z_crossing(0.5e-170, 1e-170, 1.0, 0.3)


def test_crossing_vec_rejects_what_scalar_rejects():
    # a NaN threshold, and one whose (sigma*mv)^2 underflows
    cases = [(math.nan, 1.0, 1.0, 0.3), (5e-171, 1e-170, 1.0, 0.3)]
    for omega, sigma, mv, zeta in cases:
        with pytest.raises(ValueError):
            z_crossing(omega, sigma, mv, zeta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                z_crossing_vec(np.array([omega]), sigma, mv, zeta)
            # one bad element among good ones, with array widths and offsets
            with pytest.raises(ValueError):
                z_crossing_vec(
                    np.array([0.5, omega]), np.array([2.0, sigma]), mv, np.array([0.3, zeta])
                )


def test_crossing_vec_broadcasts_widths_and_offsets():
    rng = np.random.default_rng(34)
    sigma = 10.0 ** rng.uniform(-10.0, 0.5, 2000)
    mv = 1.98e10
    zeta = 10.0 ** rng.uniform(-9.0, 0.0, 2000)
    omegas = rng.uniform(1e-6, 1.0 - 1e-9, 2000) * sigma * mv
    vec = z_crossing_vec(omegas, sigma, mv, zeta)
    for i in range(sigma.size):
        want = z_crossing(float(omegas[i]), float(sigma[i]), mv, float(zeta[i]))
        assert vec[i].hex() == want.hex(), i


def test_crossing_vec_leaves_inputs_unchanged():
    # the Newton step writes into its own buffers, never into an input
    rng = np.random.default_rng(35)
    sigma = 10.0 ** rng.uniform(-8.0, 0.0, 300)
    mv = 1.98e10
    zeta = 10.0 ** rng.uniform(-9.0, 0.0, 300)
    omegas = rng.uniform(1e-6, 1.0 - 1e-9, 300) * sigma * mv
    scalar_width = rng.uniform(1e-6, 1.0 - 1e-9, 50) * 2e-6 * mv
    for args in ((omegas, sigma, mv, zeta), (scalar_width, 2e-6, mv, zeta[:50])):
        before = [np.copy(a) for a in args]
        z = z_crossing_vec(*args)
        for a, b in zip(args, before):
            assert np.asarray(a).tobytes() == b.tobytes()
        assert not any(np.shares_memory(z, a) for a in args)


def test_array_width_formulas_match_scalar_bits(any_cfg):
    # a log grid over the certified widths, plus the omega_inv cap at
    # sigma0 and the max branch of delta at 10 sigma = h_tilde, each
    # with its two float neighbours
    cfg = any_cfg
    edges = [cfg.sigma0, cfg.magnet.h_tilde / 10.0]
    extra = [math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    grid = np.concatenate(
        [np.geomspace(cfg.sigma_min, cfg.sigma_max, 3000), edges, extra]
    )
    for name, f in [
        ("omega_inv", cfg.omega_inv),
        ("delta", cfg.delta),
        ("h", cfg.h),
        ("s1", cfg.s1),
        ("z_of_sigma", lambda s: z_of_sigma(s, cfg)),
    ]:
        vec = f(grid)
        assert isinstance(vec, np.ndarray) and vec.shape == grid.shape, name
        for s, v in zip(grid.tolist(), vec.tolist()):
            assert v.hex() == f(s).hex(), (name, s)
    assert cfg.omega_inv(cfg.sigma0) == math.sqrt(2000.0)
    assert cfg.delta(edges[1]) == cfg.magnet.h_tilde


def test_scalar_crossing_bit_identical_to_vec():
    # widths, momenta and offsets over the sweep's magnitudes and beyond
    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(3000):
        sigma = 10.0 ** rng.uniform(-10.0, 0.5)
        mv = 10.0 ** rng.uniform(0.0, 12.0)
        zeta = 10.0 ** rng.uniform(-9.0, 0.0) * rng.choice([-1.0, 1.0])
        omegas = rng.uniform(1e-6, 1.0 - 1e-9, 4) * sigma * mv
        omegas = omegas[(omegas > 0.0) & (omegas < sigma * mv)]
        vec = z_crossing_vec(omegas, sigma, mv, zeta)
        for w, zv in zip(omegas, vec):
            assert z_crossing(float(w), sigma, mv, zeta) == zv, (w, sigma, mv, zeta)
            checked += 1
    assert checked >= 10_000


def test_crossing_envelope_in_sigma():
    # the crossing location over [sigma2, sigma1] is bounded by its ends
    rng = np.random.default_rng(33)
    for _ in range(200):
        mv = rng.uniform(1.0, 12.0)
        zeta = rng.uniform(0.0, 1.0)
        lo, mid, hi = np.sort(rng.uniform(0.2, 4.0, 3))
        omega = rng.uniform(1e-3, 0.999) * lo * mv
        z_mid = z_crossing(omega, mid, mv, zeta)
        z_ends = max(
            z_crossing(omega, lo, mv, zeta), z_crossing(omega, hi, mv, zeta)
        )
        assert z_mid <= z_ends * (1.0 + 1e-9)


def test_z_of_sigma_solves_config_crossing(cfg):
    for s in (1e-8, 1e-7, 1e-6, 1e-5):
        z = z_of_sigma(s, cfg)
        zeta = cfg.h(s)
        residual = (z - zeta) * rho(s, cfg.mv, z) - cfg.omega_inv(s)
        assert abs(residual) <= 1e-10 * cfg.omega_inv(s)


# ----------------------------------------------------------------------
# derived probabilities
# ----------------------------------------------------------------------


def test_packet_radius_and_capture():
    assert RADIUS_FACTOR == 2.382
    assert packet_radius(3e-6) == pytest.approx(2.382 * 3e-6, rel=1e-15)


def test_opening_angle(cfg):
    sigma = 1.6001e-6 * cfg.r1
    angle = opening_angle_deg(sigma, cfg.mv)
    half = math.degrees(math.asin(RADIUS_FACTOR / (sigma * cfg.mv)))
    assert angle == pytest.approx(2.0 * half, rel=1e-12)
    assert opening_angle_deg(1e-10, cfg.mv) is None

