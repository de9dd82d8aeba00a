"""Independent reference computations used by the test suite.

Everything in here deliberately avoids the library's own evaluation
routes: windows are integrated with adaptive quadrature or high-order
Gauss-Legendre rules instead of error-function identities, extended-range
sums go through mpmath, and derivatives come from central differences.
When a test asserts ``library == oracle`` the two sides share no code.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad

# ----------------------------------------------------------------------
# quadrature helpers
# ----------------------------------------------------------------------


def quad_tight(f, a, b, rel=1e-11):
    """Adaptive quadrature that fails loudly when the estimate is loose."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=0.0, epsrel=rel, limit=400)
    if err > 50.0 * rel * max(abs(val), 1e-300):
        raise ArithmeticError(
            f"quadrature too loose: value={val!r} err={err!r} on [{a}, {b}]"
        )
    return val


# A single high-order Gauss-Legendre rule.  The window integrands below are
# entire functions sampled on intervals a few units wide, where a 160-point
# rule is exact to machine precision; this keeps the oracle independent of
# every erf/erfc implementation.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(160)


def gl_integral(fn, lo, hi):
    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(_GL_W, fn(mid + half * _GL_X)))


# ----------------------------------------------------------------------
# co-moving windows
# ----------------------------------------------------------------------


def rho_ref(sigma, mv, z):
    return (sigma * mv) / math.hypot(sigma * sigma * mv, z)


def _window_limits(sigma, mv, z, s, zeta):
    r = rho_ref(sigma, mv, z)
    return (-zeta - s) * r, (zeta - z) * r


def gaussian_window_quad(sigma, mv, z, s, zeta, rel=1e-12):
    """Plain Gaussian window integral, by adaptive quadrature."""
    lo, hi = _window_limits(sigma, mv, z, s, zeta)
    return quad_tight(lambda t: math.exp(-t * t), lo, hi, rel=rel)


def weighted_window_quad(sigma, mv, z, s, zeta, rel=1e-12):
    """Second-moment window integral, by adaptive quadrature."""
    lo, hi = _window_limits(sigma, mv, z, s, zeta)
    return quad_tight(lambda t: t * t * math.exp(-t * t), lo, hi, rel=rel)


def gaussian_window_gl(sigma, mv, z, s, zeta):
    lo, hi = _window_limits(sigma, mv, z, s, zeta)
    return gl_integral(lambda t: np.exp(-t * t), lo, hi)


def weighted_window_gl(sigma, mv, z, s, zeta):
    lo, hi = _window_limits(sigma, mv, z, s, zeta)
    return gl_integral(lambda t: t * t * np.exp(-t * t), lo, hi)


_QUARTER_PI = math.pi ** 0.25


def window_integral_quad(kind, sigma, mv, zeta, s, z_cap, r1=None, rel=1e-8):
    """True value of the integral that ``grid_majorant(kind, ...)`` dominates.

    The integrand is evaluated pointwise from its definition (inner window
    by Gauss-Legendre, weights from the axial spread profile) and integrated
    adaptively over the axial interval [s, z_cap].
    """

    def hole(tau):
        y = r1 * rho_ref(sigma, mv, tau)
        return math.exp(-0.5 * y * y)

    if kind == "b3":
        pref = _QUARTER_PI / math.sqrt(2.0)

        def f(tau):
            return math.sqrt(max(gaussian_window_gl(sigma, mv, tau, z_cap, zeta), 0.0))

    elif kind == "b4":
        pref = _QUARTER_PI / math.sqrt(2.0)

        def f(tau):
            ups = max(gaussian_window_gl(sigma, mv, tau, z_cap, zeta), 0.0)
            return math.sqrt(ups) * hole(tau)

    elif kind == "b5":
        pref = 1.0 / math.sqrt(2.0)

        def f(tau):
            th = max(weighted_window_gl(sigma, mv, tau, z_cap, zeta), 0.0)
            return math.sqrt(th) * hole(tau)

    elif kind == "b6":
        pref = _QUARTER_PI / math.sqrt(2.0)

        def f(tau):
            ups = max(gaussian_window_gl(sigma, mv, tau, z_cap, zeta), 0.0)
            return math.sqrt(ups) * r1 * rho_ref(sigma, mv, tau) * hole(tau)

    else:
        raise ValueError(f"unknown majorant kind {kind!r}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _err = quad(f, s, z_cap, epsabs=0.0, epsrel=rel, limit=300)
    return pref * val


# ----------------------------------------------------------------------
# extended-range reference arithmetic
# ----------------------------------------------------------------------


def mp_logsumexp(logs, dps=60):
    """log(sum(exp(l))) computed in 60-digit arithmetic; -inf entries drop."""
    finite = [l for l in logs if l != -math.inf]
    if not finite:
        return -math.inf
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for l in finite:
            total += mpmath.exp(mpmath.mpf(l))
        return float(mpmath.log(total))


def mp_logsumexp_exact(logs, prec=200):
    """log(sum(exp(l))) as a ``prec``-bit mpf, not rounded to a float.

    Zero-slack checks compare a float against this value in mpmath: a
    float rounded to nearest would hide a bound that is low by less
    than half an ulp.
    """
    finite = [float(l) for l in logs if l != -math.inf]
    if not finite:
        return mpmath.mpf("-inf")
    with mpmath.workprec(prec):
        return mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(l)) for l in finite))


def mp_sci_string(log_mag, dps=60):
    """Reference rendering of exp(log_mag) as m.mmmm x 10^e."""
    with mpmath.workdps(dps):
        log10 = mpmath.mpf(log_mag) / mpmath.log(10)
        exponent = int(mpmath.floor(log10))
        mantissa = mpmath.power(10, log10 - exponent)
        # round-half-even to 4 fractional digits, carrying into the exponent
        scaled = mpmath.nint(mantissa * 10**4)
        if scaled >= 10**5:
            scaled = mpmath.mpf(10**4)
            exponent += 1
        digits = f"{int(scaled):05d}"
    return f"{digits[0]}.{digits[1:]}×10^{exponent:+d}"


# ----------------------------------------------------------------------
# densities and mollifier pieces
# ----------------------------------------------------------------------


def capture_fraction_quad(t, rel=1e-12):
    """Radial mass of the unit isotropic Gaussian inside radius t."""
    val = quad_tight(lambda u: u * u * math.exp(-u * u), 0.0, t, rel=rel)
    return 4.0 / math.sqrt(math.pi) * val


def bump_integral_quad(rel=1e-12):
    return quad_tight(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0, rel=rel)


def flux_line_integral(model, r):
    """Direct quadrature of ``model.a3`` along a vertical line at radius r."""
    m = model.cfg.magnet
    val, _ = quad(
        lambda s: model.a3((r, 0.0, s)),
        -m.h_tilde,
        m.h_tilde,
        epsabs=1e-13 * max(1.0, abs(model.cfg.flux)),
        epsrel=1e-11,
        limit=200,
    )
    return val


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------


def fd_gradient(f, x, h):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(vf, x, h):
    """J[i, j] = d vf_i / d x_j by central differences."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(vf(x + e)) - np.asarray(vf(x - e))) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_divergence(vf, x, h):
    return float(np.trace(fd_jacobian(vf, x, h)))


def fd_curl(vf, x, h):
    j = fd_jacobian(vf, x, h)
    return np.array(
        [j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1]]
    )
