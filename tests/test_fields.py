"""Field model: mollified profiles, potentials, gauge function, norms."""

import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from abcertify import fields
from abcertify.config import BEAMS, MAGNETS, get_config
from abcertify.fields import (
    BUMP_CDF_MASS,
    FieldModel,
    bump,
    bump_cdf,
    bump_cdf_integral,
    coupling_constants,
    curvature_constant,
    geometry_inverse,
    iota,
    norm_bundle,
    plateau,
    plateau_d1,
    plateau_d2,
    plateau_mass,
    potential_ratio,
    ring_tail,
    supnorm_constants,
)
from oracles import (
    bump_integral_quad,
    fd_curl,
    fd_divergence,
    fd_gradient,
    fd_jacobian,
    flux_line_integral,
)

import published
from golden import CHI_SIGMAS as _CHI_SIGMAS
from golden import evaluator_record as _evaluator_record
from golden import golden_points as _golden_points


# ----------------------------------------------------------------------
# mollifier building blocks
# ----------------------------------------------------------------------


def test_bump_shape():
    assert bump(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert bump(1.0) == 0.0 and bump(-1.0) == 0.0 and bump(3.0) == 0.0
    for t in (0.2, 0.7, 0.95):
        assert bump(t) == bump(-t) > 0.0


def test_iota_value():
    assert iota() == pytest.approx(bump_integral_quad(), rel=1e-10)
    assert iota() == pytest.approx(published.PUBLISHED_IOTA, rel=2e-4)


def test_iota_is_the_scipy_quadrature_to_the_bit():
    with warnings.catch_warnings():
        # the error check below is stricter than the default alarm
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(bump, -1.0, 1.0, epsabs=1e-15, epsrel=1e-14, limit=200)
    assert err <= 1e-13
    assert iota() == val


def test_curvature_constant_closed_form():
    q = 1.5 + math.sqrt(0.75)
    expect = 2.0 * math.exp(-q) * q * q * math.sqrt(1.0 - 1.0 / q)
    assert curvature_constant() == pytest.approx(expect, rel=1e-14)


def test_curvature_constant_dominates_sampled_ramp():
    # scaled second derivative of the smoothed step never beats the constant
    a, b, eps = 0.3, 0.9, 0.07
    zs = np.linspace(a - eps, a + eps, 2001)
    worst = max(abs(plateau_d2(z, a, b, eps)) for z in zs)
    assert worst * iota() * eps**2 / 2.0 <= curvature_constant() * (1.0 + 1e-9)


def test_plateau_regions():
    a, b, eps = 0.3, 0.9, 0.1
    for z in (0.4, 0.5, 0.8):
        assert plateau(z, a, b, eps) == 1.0
    for z in (0.1, 0.19999, 1.00001, 2.0):
        assert plateau(z, a, b, eps) == 0.0
    assert plateau(a, a, b, eps) == pytest.approx(0.5, abs=1e-15)
    assert plateau(b, a, b, eps) == pytest.approx(0.5, abs=1e-15)
    ramp = [plateau(z, a, b, eps) for z in np.linspace(a - eps, a + eps, 41)]
    assert all(0.0 <= v <= 1.0 for v in ramp)
    assert all(y >= x for x, y in zip(ramp, ramp[1:]))


def test_bump_cdf_tables_match_mpmath():
    # 401 Chebyshev-Lobatto points of [-1, 1], clustered near both ends;
    # F and the first moment are accumulated cell by cell at 30 digits,
    # and G(t) = t F(t) - int_{-1}^t s psi(s) ds
    with mpmath.workdps(30):
        psi = lambda s: mpmath.exp(-1 / (1 - s * s))
        mass = mpmath.quad(psi, [-1, 0, 1])
        prev = mpmath.mpf(-1)
        cdf = moment = mpmath.mpf(0)
        for k in range(401):
            t = -math.cos(math.pi * k / 400)
            tm = mpmath.mpf(t)
            if k:
                cdf += mpmath.quadgl(psi, [prev, tm])
                moment += mpmath.quadgl(lambda s: s * psi(s), [prev, tm])
            prev = tm
            assert abs(bump_cdf(t) - float(cdf / mass)) <= 1e-14
            assert abs(bump_cdf_integral(t) - float((tm * cdf - moment) / mass)) <= 1e-14
        assert iota() == pytest.approx(float(mass), rel=1e-15)
    assert BUMP_CDF_MASS == pytest.approx(iota(), rel=1e-14)


def _left_half_tables():
    """Rebuild ``fields``' frozen tables: the Chebyshev series of F and
    G = int F on the left half t in [-1, 0], and the bump's mass.

    x = 2t + 1 maps the half onto [-1, 1].  The bump is interpolated
    there at degree 128 (its Chebyshev points stay inside (-1, 1), so
    1 - t^2 > 0), integrated from t = -1 and divided by its own mass,
    twice the half mass since the bump is even: that is F.  Integrating
    once more gives G.  Each table is c0, then the rest highest first,
    the order Clenshaw's recurrence takes them.  The package's literals
    are this build on numpy 2.4's X86_V4 np.exp; another kernel moves
    some coefficients by an ulp or so.
    """
    cheb = np.polynomial.chebyshev

    def half_bump(x):
        t = (x - 1.0) / 2.0
        return np.exp(-1.0 / (1.0 - t * t))

    mass_left = cheb.chebint(cheb.chebinterpolate(half_bump, 128), lbnd=-1, scl=0.5)
    mass = 2.0 * float(cheb.chebval(1.0, mass_left))
    f_coef = mass_left / mass
    g_coef = cheb.chebint(f_coef, lbnd=-1, scl=0.5)
    f_table, g_table = (
        (float(c[0]), [float(v) for v in c[:0:-1]]) for c in (f_coef, g_coef)
    )
    return f_table, g_table, mass


def test_frozen_bump_cdf_tables_and_their_rebuild_match_mpmath():
    # the literals and a fresh build on the running kernel, each held to
    # 1e-14 against 30-digit mpmath at the left-half points of the 401
    # Chebyshev-Lobatto points the evaluators are held to above
    f_new, g_new, mass_new = _left_half_tables()
    f_lit, g_lit = fields._F_TABLE, fields._G_TABLE
    assert (len(f_lit[1]), len(g_lit[1])) == (len(f_new[1]), len(g_new[1])) == (129, 130)
    assert mass_new == pytest.approx(fields.BUMP_CDF_MASS, rel=1e-15)
    for lit, new in ((f_lit, f_new), (g_lit, g_new)):
        assert lit[0] == pytest.approx(new[0], abs=1e-16)
        assert max(abs(a - b) for a, b in zip(lit[1], new[1])) <= 1e-16
    with mpmath.workdps(30):
        psi = lambda s: mpmath.exp(-1 / (1 - s * s))
        mass = mpmath.quad(psi, [-1, 0, 1])
        prev = mpmath.mpf(-1)
        cdf = moment = mpmath.mpf(0)
        for k in range(201):
            t = -math.cos(math.pi * k / 400)
            tm = mpmath.mpf(t)
            if k:
                cdf += mpmath.quadgl(psi, [prev, tm])
                moment += mpmath.quadgl(lambda s: s * psi(s), [prev, tm])
            prev = tm
            want_f, want_g = float(cdf / mass), float((tm * cdf - moment) / mass)
            for f_table, g_table in ((f_lit, g_lit), (f_new, g_new)):
                assert abs(fields._clenshaw(f_table, t) - want_f) <= 1e-14
                assert abs(fields._clenshaw(g_table, t) - want_g) <= 1e-14


def _ramp_profiles():
    """(a, b, eps) of the radial, axial and cutoff plateaus of every config."""
    out = []
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        c = get_config(magnet, beam)
        m, e, d = c.magnet, c.eps_tilde, c.delta_tilde
        out.append((m.r1_tilde + e, m.r2_tilde - e, e))
        out.append((-m.h_tilde + d, m.h_tilde - d, d))
        for sigma in (1e-8, 1e-7, 1e-6):
            out.extend(FieldModel(c)._chi_profiles(sigma))
    return out


@given(
    profile=st.sampled_from(_ramp_profiles()),
    f=st.floats(0.0, 1.0),
    g=st.floats(0.0, 1.0),
)
def test_plateau_ramp_properties(profile, f, g):
    a, b, eps = profile
    lo, hi = min(f, g), max(f, g)
    for centre, inward in ((a, 1.0), (b, -1.0)):
        # a fraction of the way across the ramp, towards the plateau
        v_lo = plateau(centre + inward * eps * (2.0 * lo - 1.0), a, b, eps)
        v_hi = plateau(centre + inward * eps * (2.0 * hi - 1.0), a, b, eps)
        assert 0.0 <= v_lo <= 1.0 and 0.0 <= v_hi <= 1.0
        # monotone up to the table's rounding, twice the float spacing below 1
        assert v_lo <= v_hi + 2.0**-52
        # F(t) + F(-t) = 1, at offsets the floats hold exactly
        s = (centre + eps * f) - centre
        assume(centre - (centre - s) == s)
        total = plateau(centre + s, a, b, eps) + plateau(centre - s, a, b, eps)
        assert abs(total - 1.0) <= 1e-15


_NO_SCIPY_PROBE = """
import contextlib, io, math, sys
import abcertify
from abcertify.cli import main
from abcertify.config import get_config
from abcertify.fields import (
    FieldModel, coupling_constants, iota, norm_bundle, supnorm_constants,
)

cfg = get_config("k2", "e1")
model = FieldModel(cfg)
m, e, d = cfg.magnet, cfg.eps_tilde, cfg.delta_tilde
sigma = 1e-7
(ra, _, re), (_, zb, ze) = model._chi_profiles(sigma)
points = [
    (m.r1_tilde + 0.7 * e, 0.0, 0.1 * m.h_tilde),  # inner radial ramp
    (0.0, m.r2_tilde - 1.3 * e, -0.2 * m.h_tilde),  # outer radial ramp
    (2.2e-4, 1e-5, m.h_tilde - 0.6 * d),  # axial ramp
    (ra + 0.4 * re, 0.0, zb + 0.3 * ze),  # both cutoff ramps
]
iota(), supnorm_constants(cfg, sigma), norm_bundle(cfg, delta=cfg.delta(sigma))
coupling_constants(cfg, sigma)
for x in points:
    model.b_field(x)
    model.b_partials(x)
    model.a3(x)
    model.a3_partials(x)
    model.chi_curvature(x, sigma)
    model.radial_mass_above(math.hypot(x[0], x[1]))
    model.axial_mass_below(x[2])
print("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [
        main(argv)
        for argv in (
            ["eval", "--sigma", "1e-7"],
            ["verify", "--set", "sigma10"],
            ["table", "--which", "big-sigma"],
            ["field", "--check", "flux"],
        )
    ]
print(*codes, "scipy" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_field_evaluators_run_no_quadrature():
    # in a fresh interpreter neither the field layer, evaluated on every
    # ramp, nor the command line imports scipy: numpy is the package's
    # only runtime dependency; and a serial verify, which starts no
    # process pool, never imports multiprocessing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "0", "0", "0", "False", "False"]


def test_plateau_validation():
    with pytest.raises(ValueError):
        plateau(0.5, 0.3, 0.9, 0.5)
    with pytest.raises(ValueError):
        plateau(0.5, 0.3, 0.9, 0.0)
    # a mass shares the value's ramp, and its check
    with pytest.raises(ValueError):
        plateau_mass(0.0, 1.0, 0.3, 0.9, 0.5)
    assert plateau_mass(0.0, 1.0, 0.3, 0.9, 0.1) == pytest.approx(0.6, rel=1e-14)


def test_plateau_derivatives_match_fd():
    a, b, eps = 0.3, 0.9, 0.1
    h = 1e-6
    for z in (0.22, 0.3, 0.35, 0.83, 0.95):
        fd1 = (plateau(z + h, a, b, eps) - plateau(z - h, a, b, eps)) / (2 * h)
        assert plateau_d1(z, a, b, eps) == pytest.approx(fd1, abs=1e-6 + 1e-6 * abs(fd1))
        fd2 = (plateau_d1(z + h, a, b, eps) - plateau_d1(z - h, a, b, eps)) / (2 * h)
        assert plateau_d2(z, a, b, eps) == pytest.approx(fd2, abs=1e-5 + 1e-6 * abs(fd2))


# ----------------------------------------------------------------------
# geometry scalars
# ----------------------------------------------------------------------


def test_geometry_inverse(cfg, cfg_k1e1):
    got = geometry_inverse(cfg)
    assert got == pytest.approx(published.FROZEN_GEOMETRY_INVERSE, rel=1e-6)
    assert got == pytest.approx(published.PUBLISHED_GEOMETRY_INVERSE, rel=2e-4)
    # both magnets share the annulus thickness, so the integral matches
    assert geometry_inverse(cfg_k1e1) == pytest.approx(got, rel=1e-12)
    m = cfg.magnet
    expect = (
        (m.h_tilde - 2.0 * cfg.delta_tilde)
        * (m.r2_tilde - m.r1_tilde - 4.0 * cfg.eps_tilde)
        / math.pi
    )
    # the closed-form box is a lower bound on the quadrature value
    assert got >= expect


def test_potential_ratio(cfg):
    got = potential_ratio(cfg)
    assert got == pytest.approx(published.FROZEN_POTENTIAL_RATIO, rel=1e-6)
    width = cfg.magnet.r2_tilde - cfg.magnet.r1_tilde
    assert got == pytest.approx(width / geometry_inverse(cfg), rel=1e-12)


# ----------------------------------------------------------------------
# the field model
# ----------------------------------------------------------------------


def test_model_windows(field_model, cfg):
    m = cfg.magnet
    assert field_model.w_radial == pytest.approx(
        m.r2_tilde - m.r1_tilde - 2.0 * cfg.eps_tilde, rel=1e-12
    )
    assert field_model.w_axial == pytest.approx(
        2.0 * (m.h_tilde - cfg.delta_tilde), rel=1e-12
    )
    assert field_model.normalisation == pytest.approx(
        field_model.w_radial * field_model.w_axial, rel=1e-12
    )


def test_field_model_is_frozen(cfg):
    # the ramps, scale and normalisation are computed once from cfg, so
    # cfg cannot be swapped under them
    model = FieldModel(cfg)
    norm = model.normalisation
    model.b_field((2e-4, 0.0, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.cfg = get_config("k1", "e1")
    assert model.cfg is cfg and model.normalisation == norm


def test_flux_linked_plateaus(field_model, cfg):
    m = cfg.magnet
    tol = 1e-9 * max(1.0, abs(cfg.flux))
    for r in np.linspace(1e-7, m.r1_tilde, 7):
        assert abs(field_model.flux_linked(float(r)) - cfg.flux) <= tol
    for r in np.linspace(m.r2_tilde, 2.0 * m.r2_tilde, 4):
        assert abs(field_model.flux_linked(float(r))) <= tol


@pytest.mark.parametrize("model", ["field_model"])
def test_flux_line_integral_matches_linked(model, cfg, request):
    field_model = request.getfixturevalue(model)
    tol = 1e-9 * max(1.0, abs(cfg.flux))
    for r in (1e-5, 1e-4, cfg.magnet.r1_tilde):
        assert abs(flux_line_integral(field_model, r) - cfg.flux) <= tol
    assert abs(flux_line_integral(field_model, cfg.magnet.r2_tilde)) <= tol
    mid = 0.5 * (cfg.magnet.r1_tilde + cfg.magnet.r2_tilde)
    assert flux_line_integral(field_model, mid) == pytest.approx(
        field_model.flux_linked(mid), rel=1e-9
    )


def test_field_is_azimuthal(field_model):
    x = (2e-4, 1.3e-4, 2e-7)
    bvec = field_model.b_field(x)
    norm = np.linalg.norm(bvec)
    r = math.hypot(x[0], x[1])
    radial = (bvec[0] * x[0] + bvec[1] * x[1]) / r
    azimuthal = (bvec[1] * x[0] - bvec[0] * x[1]) / r
    assert norm > 0.0
    assert radial == pytest.approx(0.0, abs=1e-6 * norm)
    assert bvec[2] == 0.0
    assert azimuthal == pytest.approx(norm, rel=1e-12)


def test_rotation_invariance(field_model):
    r, z = 2.3e-4, 3e-7
    base = np.linalg.norm(field_model.b_field((r, 0.0, z)))
    a3_base = field_model.a3((r, 0.0, z))
    assert base > 0.0
    for phi in (0.7, 2.2, 4.4):
        x = (r * math.cos(phi), r * math.sin(phi), z)
        assert np.linalg.norm(field_model.b_field(x)) == pytest.approx(base, rel=1e-12)
        assert field_model.a3(x) == pytest.approx(a3_base, rel=1e-12)


def test_analytic_partials_match_fd(field_model, cfg):
    h = 1e-4 * min(cfg.eps_tilde, cfg.delta_tilde)
    pts = [
        (2e-4, 1.3e-4, 2e-7),
        (cfg.magnet.r1_tilde + cfg.eps_tilde, 1e-6, 0.3 * cfg.magnet.h_tilde),
        (cfg.magnet.r2_tilde - cfg.eps_tilde, -2e-5, -0.5 * cfg.magnet.h_tilde),
    ]
    for x in pts:
        jac = field_model.b_partials(x)
        jfd = fd_jacobian(field_model.b_field, x, h)
        assert np.abs(jac - jfd).max() <= 1e-6 * np.abs(jac).max()
        apar = field_model.a3_partials(x)
        afd = fd_gradient(field_model.a3, x, h)
        assert np.abs(apar - afd).max() <= 1e-6 * max(np.abs(apar).max(), 1e-300)


def test_divergence_free(field_model, cfg):
    h = 1e-4 * min(cfg.eps_tilde, cfg.delta_tilde)
    rng = np.random.default_rng(29)
    for _ in range(25):
        r = rng.uniform(1e-6, 1.4 * cfg.magnet.r2_tilde)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-1.5 * cfg.magnet.h_tilde, 1.5 * cfg.magnet.h_tilde)
        x = (r * math.cos(phi), r * math.sin(phi), z)
        div = abs(fd_divergence(field_model.b_field, x, h))
        scale = float(np.abs(field_model.b_partials(x)).sum()) + abs(
            cfg.flux
        ) / field_model.normalisation
        assert div <= 1e-4 * scale


def test_curl_of_potential_is_field(field_model, cfg):
    h = 1e-4 * min(cfg.eps_tilde, cfg.delta_tilde)
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 25:
        r = rng.uniform(1e-6, 1.4 * cfg.magnet.r2_tilde)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-1.5 * cfg.magnet.h_tilde, 1.5 * cfg.magnet.h_tilde)
        x = (r * math.cos(phi), r * math.sin(phi), z)
        bvec = field_model.b_field(x)
        if np.linalg.norm(bvec) < 1e-3 * abs(cfg.flux) / field_model.normalisation:
            continue
        curl = fd_curl(field_model.a_potential, x, h)
        assert np.abs(curl - bvec).max() <= 1e-3 * np.linalg.norm(bvec)
        checked += 1


# sha256 over _evaluator_record at _golden_points for the six configs,
# recorded before the evaluators read ramps built once per model
_GOLDEN_EVALUATOR_SHA256 = "41d53b5b7a64da2a184cd7c9e89bfc20ce987f260b26241f6e29b0c38230a988"


def test_field_evaluators_match_golden_digest():
    digest = hashlib.sha256()
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        model, pts = _golden_points(get_config(magnet, beam))
        for k, x in enumerate(pts):
            line = _evaluator_record(model, x)
            digest.update(line.encode())
            if k % 4 == 0:
                # a list or a float64 array of the point gives the same floats
                assert _evaluator_record(model, list(x)) == line
                assert _evaluator_record(model, np.array(x)) == line
    assert digest.hexdigest() == _GOLDEN_EVALUATOR_SHA256


# ----------------------------------------------------------------------
# gauge function
# ----------------------------------------------------------------------


def test_gauge_branches(field_model, cfg):
    tol = 1e-9 * max(1.0, abs(cfg.flux))
    assert abs(field_model.lambda_gauge((2e-4, 0.0, -5e-6))) <= tol
    assert abs(field_model.lambda_gauge((1e-5, 0.0, 5e-6)) - cfg.flux) <= tol
    assert abs(field_model.lambda_gauge((4e-4, 0.0, 0.0)) - cfg.flux) <= tol
    # above the hole the gauge has already absorbed the full flux
    assert abs(field_model.lambda_gauge((1e-5, 0.0, 2e-6)) - cfg.flux) <= tol
    with pytest.raises(ValueError):
        field_model.lambda_gauge((2e-4, 0.0, 0.0))


def test_gauge_gradient_is_potential_in_hole(field_model):
    for x in ((5e-5, 3e-5, 2e-7), (1e-5, 0.0, 0.0)):
        grad = fd_gradient(field_model.lambda_gauge, x, 1e-10)
        avec = field_model.a_potential(x)
        assert np.abs(grad - avec).max() <= 1e-6 * max(np.abs(avec).max(), 1e-300)


# ----------------------------------------------------------------------
# phase profile and norm constants
# ----------------------------------------------------------------------


def test_chi_plateau_and_range(field_model):
    # deep inside the hole, fully below the slab influence, chi is 1
    assert field_model.chi((1e-5, 2e-5, 0.3), 1e-7) == 1.0
    rng = np.random.default_rng(37)
    for _ in range(50):
        x = (
            rng.uniform(-4e-4, 4e-4),
            rng.uniform(-4e-4, 4e-4),
            rng.uniform(-0.5, 0.5),
        )
        assert 0.0 <= field_model.chi(x, 1e-7) <= 1.0


def test_chi_partials_match_fd(field_model, cfg):
    sigma = 1e-7
    pts = [
        (cfg.magnet.r1_tilde, 0.0, 0.1),
        (2e-4, 1e-4, 0.05),
        (1e-5, 0.0, 0.01),
    ]
    for x in pts:
        grad = field_model.chi_partials(x, sigma)
        fd = fd_gradient(lambda p: field_model.chi(p, sigma), x, 1e-9)
        assert np.abs(grad - fd).max() <= 1e-5 * max(np.abs(grad).max(), 1.0)


def test_supnorm_constants_dominate_samples(field_model, cfg):
    sigma = 1e-7
    consts = supnorm_constants(cfg, sigma)
    assert set(consts) == {
        "b", "b_perp", "b_axial", "a", "a_perp", "a_axial",
        "chi", "chi_perp", "chi_axial", "chi_p2",
    }
    assert consts["a"] == pytest.approx(potential_ratio(cfg), rel=1e-12)
    rng = np.random.default_rng(41)
    scale = abs(cfg.flux)
    for _ in range(60):
        r = rng.uniform(1e-7, 1.5 * cfg.magnet.r2_tilde)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        z = rng.uniform(-2.0 * cfg.magnet.h_tilde, 2.0 * cfg.magnet.h_tilde)
        x = (r * math.cos(phi), r * math.sin(phi), z)
        jac = field_model.b_partials(x)
        assert np.linalg.norm(field_model.b_field(x)) / scale <= consts["b"]
        assert np.abs(jac[:, :2]).max() / scale <= consts["b_perp"]
        assert np.abs(jac[:, 2]).max() / scale <= consts["b_axial"]
        assert abs(field_model.a3(x)) / scale <= consts["a"]
        apar = field_model.a3_partials(x)
        assert np.abs(apar[:2]).max() / scale <= consts["a_perp"]
        assert abs(float(apar[2])) / scale <= consts["a_axial"]
        assert field_model.chi(x, sigma) <= consts["chi"]
        cpar = field_model.chi_partials(x, sigma)
        assert np.abs(cpar[:2]).max() <= consts["chi_perp"]
        assert abs(float(cpar[2])) <= consts["chi_axial"]
        assert abs(field_model.chi_curvature(x, sigma)) <= consts["chi_p2"]


def test_norm_bundle_frozen_and_identities(cfg, cfg_k1e1):
    for c, ref in (
        (cfg, published.FROZEN_M_FLOOR_K2E1),
        (cfg_k1e1, published.FROZEN_M_FLOOR_K1E1),
    ):
        m = norm_bundle(c, delta=c.magnet.h_tilde)
        for got, want in zip(m, ref):
            assert got == pytest.approx(want, rel=1e-6)
    m = norm_bundle(cfg, delta=cfg.magnet.h_tilde)
    sup = supnorm_constants(cfg, 1e-7)
    assert m[0] - m[3] == pytest.approx(sup["chi_p2"], rel=1e-12)
    expect = 2.0 * (
        4.0 / (iota() * cfg.eps * math.e)
        + 2.0 / (iota() * cfg.magnet.h_tilde * math.e)
    )
    assert m[1] - m[4] == pytest.approx(expect, rel=1e-12)


def test_coupling_constants_decay(cfg):
    grid = np.geomspace(1e-9, 1e-5, 200)
    prev = None
    for s in grid:
        cur = coupling_constants(cfg, s)
        assert all(c > 0 for c in cur)
        if prev is not None:
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(prev, cur))
        prev = cur


def test_coupling_csp_scales_inversely_below_floor(cfg):
    # with the fattening pinned at its floor, c_sp * sigma is constant
    vals = [coupling_constants(cfg, s)[2] * s for s in (1e-9, 1e-8, 5e-8, 1e-7)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)


def test_ring_tail_basic(cfg):
    a = ring_tail(cfg, 1e-7, 1.1e-5, 0.2)
    b = ring_tail(cfg, 1e-7, 1.1e-5, 0.4)
    assert isinstance(a, float) and a > -math.inf
    # pushing the cap outward only sheds tail mass
    assert b <= a
