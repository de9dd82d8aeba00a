"""Smoothed toroidal magnet field, its vector potential, and cutoffs.

The magnetic field is azimuthal and factorises into radial and axial
compactly-supported smooth profiles built from the classic bump

    psi(t) = exp(-1/(1 - t^2)) / iota      on |t| < 1,

with iota the bump's normalisation.  Convolving a box with psi gives
plateau functions that are exactly 1 well inside their interval and
exactly 0 outside; all the support/flux statements below are therefore
algebraically exact, not approximate.

On a ramp the plateau is F((z-a)/eps) - F((z-b)/eps), with F the CDF of
psi, and a profile mass is eps times a difference of G, the integral of
F.  F and G are Chebyshev series on the left half [-1, 0], built once at
import from a degree-128 interpolant of the bump and summed by a scalar
Clenshaw loop; the right half follows from F(t) = 1 - F(-t).  Their
error is ~1e-16 (``tests/test_fields.py`` holds them to 1e-14 against
30-digit mpmath at 401 points, and the table's own mass to iota), so no
pointwise evaluator runs a quadrature.  iota, which enters every
certified constant, is scipy's quadrature of the bump frozen to the
bit, so nothing in the package imports scipy; only the tests use it,
as an independent check.

Alongside the pointwise evaluators this module carries the closed-form
sup-norm constants of the field, potential and cutoff, the derived
norm bundle used by the bound engine, and the ring-tail factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .config import _PI4, _SQRT_PI, ExperimentConfig
from .xreal import exp_neg_log, f64_up, mul_up

__all__ = [
    "bump",
    "iota",
    "curvature_constant",
    "bump_cdf",
    "bump_cdf_integral",
    "plateau",
    "plateau_mass",
    "plateau_d1",
    "plateau_d2",
    "FieldModel",
    "norm_bundle",
    "coupling_constants",
    "ring_tail",
    "geometry_inverse",
    "potential_ratio",
    "supnorm_constants",
]

_E = math.e


# ----------------------------------------------------------------------
# the bump and its constants
# ----------------------------------------------------------------------


def bump(t: float) -> float:
    """Unnormalised bump exp(-1/(1-t^2)) on |t| < 1, zero outside."""
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


# The bump's mass to the bit as scipy's adaptive quadrature gives it,
# quad(bump, -1, 1, epsabs=1e-15, epsrel=1e-14, limit=200) with an error
# estimate below 1e-13.  Every certified constant divides by it, so it
# is frozen rather than recomputed, and the field layer needs no scipy
# at run time.  tests/test_fields.py recomputes it and checks it
# against mpmath.
_IOTA = float.fromhex("0x1.c6a650a045c5bp-2")


def iota() -> float:
    """Normalisation of the bump: integral of exp(-1/(1-t^2)) over [-1, 1]."""
    return _IOTA


@lru_cache(maxsize=1)
def curvature_constant() -> float:
    """Peak of |iota * psi'|/2 ... closed form 2 e^-q q^2 sqrt(1-1/q).

    q = 3/2 + sqrt(3/4) maximises the derivative of the bump; the
    constant enters every second-derivative bound of the plateaus.
    """
    q = 1.5 + math.sqrt(0.75)
    return 2.0 * math.exp(-q) * q * q * math.sqrt(1.0 - 1.0 / q)


def _psi(t: float) -> float:
    return bump(t) / iota()


def _psi_d1(t: float) -> float:
    """psi'(t) = psi(t) * (-2t / (1-t^2)^2)."""
    if abs(t) >= 1.0:
        return 0.0
    w = 1.0 - t * t
    return _psi(t) * (-2.0 * t / (w * w))


# ----------------------------------------------------------------------
# the tabulated bump CDF
# ----------------------------------------------------------------------

_CDF_DEGREE = 128
_Table = Tuple[float, List[float]]  # c0, then the rest highest first


def _left_half_tables() -> Tuple[_Table, _Table, float]:
    """Chebyshev series of F and G = int F on the left half t in [-1, 0].

    x = 2t + 1 maps the half onto [-1, 1].  The bump is interpolated
    there (its Chebyshev points stay inside (-1, 1), so 1 - t^2 > 0),
    integrated from t = -1 and divided by its own mass, twice the half
    mass since the bump is even: that is F.  Integrating once more gives
    G.  The tables are stored in the order Clenshaw's recurrence takes
    the coefficients.
    """
    cheb = np.polynomial.chebyshev

    def half_bump(x: np.ndarray) -> np.ndarray:
        t = (x - 1.0) / 2.0
        return np.exp(-1.0 / (1.0 - t * t))

    mass_left = cheb.chebint(cheb.chebinterpolate(half_bump, _CDF_DEGREE), lbnd=-1, scl=0.5)
    mass = 2.0 * float(cheb.chebval(1.0, mass_left))
    f_coef = mass_left / mass
    g_coef = cheb.chebint(f_coef, lbnd=-1, scl=0.5)
    f_table, g_table = (
        (float(c[0]), [float(v) for v in c[:0:-1]]) for c in (f_coef, g_coef)
    )
    return f_table, g_table, mass


def _clenshaw(table: _Table, s: float) -> float:
    """A left-half table at t = s <= 0 (Clenshaw recurrence in x = 2s + 1)."""
    c0, rest = table
    x = s + s + 1.0
    x2 = x + x
    b1 = b2 = 0.0
    for c in rest:
        b1, b2 = c + x2 * b1 - b2, b1
    return c0 + x * b1 - b2


def bump_cdf(t: float) -> float:
    """F(t): mass of the normalised bump on [-1, t]; 0 below -1, 1 above 1.

    The right half comes from the left one by F(t) = 1 - F(-t), so
    F(t) + F(-t) = 1 up to one rounding, and the value is clipped into
    [0, 1] against the table's ~1e-16 noise near t = -1.
    """
    if t <= -1.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    if t <= 0.0:
        return max(0.0, _clenshaw(_F_TABLE, t))
    return 1.0 - max(0.0, _clenshaw(_F_TABLE, -t))


def bump_cdf_integral(t: float) -> float:
    """G(t) = integral of F over [-1, t]; 0 below -1 and t above 1."""
    if t <= -1.0:
        return 0.0
    if t >= 1.0:
        return t
    if t <= 0.0:
        return _clenshaw(_G_TABLE, t)
    # G(t) = G(0) + int_0^t (1 - F(-s)) ds = t + G(-t)
    return t + _clenshaw(_G_TABLE, -t)


_F_TABLE, _G_TABLE, BUMP_CDF_MASS = _left_half_tables()


# ----------------------------------------------------------------------
# plateau (smoothed indicator) functions
# ----------------------------------------------------------------------


# A plateau's ramp: its breakpoints a - eps, a + eps, b - eps, b + eps,
# then a, b and eps, each computed once, as plateau computes them.
_Ramp = Tuple[float, float, float, float, float, float, float]


def _ramp(a: float, b: float, eps: float) -> _Ramp:
    """Check eps < (b - a)/2 once and return the ramp of plateau(., a, b, eps)."""
    if eps <= 0.0 or eps >= (b - a) / 2.0:
        raise ValueError(f"need 0 < eps < (b-a)/2, got eps={eps!r}, a={a!r}, b={b!r}")
    return (a - eps, a + eps, b - eps, b + eps, a, b, eps)


def _ramp_value(z: float, ramp: _Ramp) -> float:
    """plateau(z, a, b, eps), given ramp = _ramp(a, b, eps)."""
    a_lo, a_hi, b_lo, b_hi, a, b, eps = ramp
    if z <= a_lo or z >= b_hi:
        return 0.0
    if a_hi <= z <= b_lo:
        return 1.0
    if z < a_hi:
        return bump_cdf((z - a) / eps)
    return bump_cdf((b - z) / eps)  # 1 - F((z-b)/eps)


def _ramp_mass(lo: float, hi: float, ramp: _Ramp) -> float:
    """plateau_mass(lo, hi, a, b, eps), given ramp = _ramp(a, b, eps)."""
    if hi <= lo:
        return 0.0
    a_lo, a_hi, b_lo, b_hi, a, b, eps = ramp
    G = bump_cdf_integral
    total = 0.0
    # max(lo, v) and min(hi, v) written out: the same float as the
    # builtins, without their ~0.1 us call
    mid_lo, mid_hi = a_hi if a_hi > lo else lo, b_lo if b_lo < hi else hi
    if mid_hi > mid_lo:
        total += mid_hi - mid_lo
    seg_lo, seg_hi = a_lo if a_lo > lo else lo, a_hi if a_hi < hi else hi
    if seg_hi > seg_lo:
        total += eps * (G((seg_hi - a) / eps) - G((seg_lo - a) / eps))
    seg_lo, seg_hi = b_lo if b_lo > lo else lo, b_hi if b_hi < hi else hi
    if seg_hi > seg_lo:
        total += eps * (G((b - seg_lo) / eps) - G((b - seg_hi) / eps))
    return total


def plateau(z: float, a: float, b: float, eps: float) -> float:
    """Smoothed indicator of [a, b]: exactly 1 on [a+eps, b-eps], 0 outside
    [a-eps, b+eps], monotone mollifier ramps in between.

    It is the box convolved with psi_eps, F((z-a)/eps) - F((z-b)/eps).
    Requires eps < (b - a)/2, so the two ramps cannot overlap and on
    each ramp one of the two terms is exactly 0 or 1.
    """
    return _ramp_value(z, _ramp(a, b, eps))


def plateau_mass(lo: float, hi: float, a: float, b: float, eps: float) -> float:
    """integral of plateau(., a, b, eps) over [lo, hi], in closed form.

    The exact plateau middle plus eps times a difference of G on each
    ramp the interval meets; eps is checked as :func:`plateau` checks it.
    """
    return _ramp_mass(lo, hi, _ramp(a, b, eps))


def plateau_d1(z: float, a: float, b: float, eps: float) -> float:
    """Exact derivative of :func:`plateau`: psi_eps(z-a) - psi_eps(z-b)."""
    return (_psi((z - a) / eps) - _psi((z - b) / eps)) / eps


def plateau_d2(z: float, a: float, b: float, eps: float) -> float:
    """Exact second derivative: psi_eps'(z-a) - psi_eps'(z-b)."""
    return (_psi_d1((z - a) / eps) - _psi_d1((z - b) / eps)) / (eps * eps)


# ----------------------------------------------------------------------
# derived geometric constants
# ----------------------------------------------------------------------


def geometry_inverse(cfg: ExperimentConfig) -> float:
    """The area-like constant (h~ - 2 delta~)(r2~ - r1~ - 4 eps~)/pi.

    Its reciprocal bounds the field's sup-norm, so every field-strength
    constant below scales with 1/I.
    """
    m = cfg.magnet
    return (
        (m.h_tilde - 2.0 * cfg.delta_tilde)
        * (m.r2_tilde - m.r1_tilde - 4.0 * cfg.eps_tilde)
        / math.pi
    )


def potential_ratio(cfg: ExperimentConfig) -> float:
    """(r2~ - r1~) / I: sup-norm scale of the vector potential."""
    m = cfg.magnet
    return (m.r2_tilde - m.r1_tilde) / geometry_inverse(cfg)


# ----------------------------------------------------------------------
# the field model
# ----------------------------------------------------------------------


def _xyz(x: Sequence[float]) -> Tuple[float, float, float]:
    """A point's three coordinates as floats."""
    return float(x[0]), float(x[1]), float(x[2])


@dataclass(frozen=True)
class FieldModel:
    """Pointwise evaluators for the field, potential, gauge and cutoff.

    Every profile value is a :func:`plateau` and every profile mass a
    :func:`plateau_mass`, both read off the tabulated bump CDF, so no
    evaluator below runs a quadrature (``tests/test_fields.py`` checks
    that evaluating them never imports scipy).  The radial and axial
    ramps and the flux scale are checked and computed once per model
    (so the model is frozen), and each evaluator converts its point to
    three floats once and runs on floats.  The tests check
    :meth:`flux_linked` against a direct quadrature of :meth:`a3`.
    """

    cfg: ExperimentConfig

    # -- 1-d profiles and normalisation -------------------------------

    @cached_property
    def _radial(self) -> _Ramp:
        m, e = self.cfg.magnet, self.cfg.eps_tilde
        return _ramp(m.r1_tilde + e, m.r2_tilde - e, e)

    @cached_property
    def _axial(self) -> _Ramp:
        m, d = self.cfg.magnet, self.cfg.delta_tilde
        return _ramp(-m.h_tilde + d, m.h_tilde - d, d)

    @cached_property
    def w_radial(self) -> float:
        """integral of the radial profile over its support."""
        m = self.cfg.magnet
        return _ramp_mass(m.r1_tilde, m.r2_tilde, self._radial)

    @cached_property
    def w_axial(self) -> float:
        """integral of the axial profile over its support."""
        m = self.cfg.magnet
        return _ramp_mass(-m.h_tilde, m.h_tilde, self._axial)

    @cached_property
    def normalisation(self) -> float:
        """Product of the two profile masses; divides the flux."""
        return self.w_radial * self.w_axial

    @cached_property
    def _scale(self) -> float:
        return self.cfg.flux / self.normalisation

    def radial_mass_above(self, r: float) -> float:
        """integral of the radial profile over [r, r2~] (cached full mass below r1~)."""
        m = self.cfg.magnet
        if r <= m.r1_tilde:
            return self.w_radial
        return _ramp_mass(r, m.r2_tilde, self._radial)

    def axial_mass_below(self, x3: float) -> float:
        """integral of the axial profile over [-h~, min(x3, h~)]."""
        m = self.cfg.magnet
        if x3 >= m.h_tilde:
            return self.w_axial
        return _ramp_mass(-m.h_tilde, x3, self._axial)

    # -- magnetic field -----------------------------------------------

    def b_field(self, x: Sequence[float]) -> np.ndarray:
        """Azimuthal magnetic field at a Cartesian point."""
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        g = self._scale * _ramp_value(r, self._radial) * _ramp_value(x3, self._axial)
        out = np.zeros(3)
        if g != 0.0 and r != 0.0:
            out[0] = -g * x2 / r
            out[1] = g * x1 / r
        return out

    def b_partials(self, x: Sequence[float]) -> np.ndarray:
        """Jacobian d B_i / d x_j (3x3), analytic."""
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        out = np.zeros((3, 3))
        if r == 0.0:
            return out
        scale, rad, ax = self._scale, self._radial, self._axial
        c, s = x1 / r, x2 / r
        pr = _ramp_value(r, rad)
        pz = _ramp_value(x3, ax)
        g = scale * pr * pz
        g_r = scale * plateau_d1(r, *rad[4:]) * pz
        g_z = scale * pr * plateau_d1(x3, *ax[4:])
        # B = g(r, x3) * (-s, c, 0)
        out[0, 0] = -g_r * c * s + g * c * s / r
        out[0, 1] = -g_r * s * s - g * c * c / r
        out[0, 2] = -g_z * s
        out[1, 0] = g_r * c * c + g * s * s / r
        out[1, 1] = g_r * s * c - g * s * c / r
        out[1, 2] = g_z * c
        return out

    # -- vector potential ----------------------------------------------

    def a3(self, x: Sequence[float]) -> float:
        """Third component of the potential (the only nonzero one)."""
        x1, x2, x3 = _xyz(x)
        pz = _ramp_value(x3, self._axial)
        if pz == 0.0:
            return 0.0
        return self._scale * pz * self.radial_mass_above(math.hypot(x1, x2))

    def a_potential(self, x: Sequence[float]) -> np.ndarray:
        out = np.zeros(3)
        out[2] = self.a3(x)
        return out

    def a3_partials(self, x: Sequence[float]) -> np.ndarray:
        """Gradient of a3, analytic."""
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        scale, ax = self._scale, self._axial
        pz = _ramp_value(x3, ax)
        pz1 = plateau_d1(x3, *ax[4:])
        mass = self.radial_mass_above(r)
        d_r = -scale * pz * _ramp_value(r, self._radial)  # d/dr of the radial mass
        out = np.zeros(3)
        if r != 0.0:
            out[0] = d_r * x1 / r
            out[1] = d_r * x2 / r
        out[2] = scale * pz1 * mass
        return out

    # -- flux ----------------------------------------------------------

    def flux_linked(self, r: float) -> float:
        """Flux of B through the half-plane strip at radius >= r.

        Equals the line integral of the potential along a vertical line
        at radius r crossing the magnet slab.
        """
        return self._scale * self.radial_mass_above(r) * self.w_axial

    # -- gauge function outside the magnet ------------------------------

    def lambda_gauge(self, x: Sequence[float]) -> float:
        """Scalar whose gradient equals the potential away from the ring.

        Defined on the complement of the closed magnet body with a cut
        along the bottom skirt {x3 = -h~, r >= r1~}; the jump across
        the cut is the enclosed flux.  Raises ValueError on the body or
        the cut, where no single-valued gauge exists.
        """
        m = self.cfg.magnet
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        on_body = m.r1_tilde <= r <= m.r2_tilde and -m.h_tilde <= x3 <= m.h_tilde
        if on_body:
            raise ValueError("gauge function is not defined on the magnet body")
        if x3 == -m.h_tilde and r >= m.r1_tilde:
            raise ValueError("point lies on the gauge cut (bottom skirt)")
        if x3 <= -m.h_tilde:
            return 0.0
        if r < m.r1_tilde:
            return (
                self.cfg.flux * self.axial_mass_below(x3) / self.w_axial
            )
        # above the slab, or beside it outside the outer radius
        return self.cfg.flux

    # -- space cutoff ----------------------------------------------------

    def _chi_profiles(self, sigma: float):
        cfg = self.cfg
        eps = cfg.eps
        delta = cfg.delta(sigma)
        h = cfg.h(sigma)
        rad = (cfg.r1 + eps / 2.0, cfg.r2 - eps / 2.0, eps / 2.0)
        ax = (-h + delta / 2.0, h - delta / 2.0, delta / 2.0)
        return rad, ax

    def chi(self, x: Sequence[float], sigma: float) -> float:
        """Cutoff: 0 on the bare magnet body, 1 outside the fattened one."""
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        return 1.0 - plateau(r, ra, rb, re) * plateau(x3, za, zb, ze)

    def chi_partials(self, x: Sequence[float], sigma: float) -> np.ndarray:
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        P = plateau(r, ra, rb, re)
        Q = plateau(x3, za, zb, ze)
        P1 = plateau_d1(r, ra, rb, re)
        Q1 = plateau_d1(x3, za, zb, ze)
        if r == 0.0:
            gx = gy = 0.0
        else:
            gx, gy = -P1 * Q * x1 / r, -P1 * Q * x2 / r
        return np.array([gx, gy, -P * Q1])

    def chi_curvature(self, x: Sequence[float], sigma: float) -> float:
        """|applied momentum-squared|: -(laplacian chi) pointwise."""
        x1, x2, x3 = _xyz(x)
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        P = plateau(r, ra, rb, re)
        Q = plateau(x3, za, zb, ze)
        P1 = plateau_d1(r, ra, rb, re)
        P2 = plateau_d2(r, ra, rb, re)
        Q2 = plateau_d2(x3, za, zb, ze)
        radial = P2 + (P1 / r if r > 0.0 else 0.0)
        return radial * Q + P * Q2


# ----------------------------------------------------------------------
# closed-form sup-norm constants
# ----------------------------------------------------------------------


def _chi_p2(cfg: ExperimentConfig, delta: float) -> float:
    """Sup-norm of the momentum-squared on the cutoff at axial fattening delta."""
    io = iota()
    N = curvature_constant()
    eps = cfg.eps
    if io * eps * eps == 0.0:
        raise ValueError(f"eps={eps:g}: eps^2 underflows to 0 in the cutoff's momentum norm")
    return (
        8.0 * N / (io * eps * eps)
        + 2.0 / (io * eps * cfg.r1 * _E)
        + 8.0 * N / (io * delta * delta)
    )


def supnorm_constants(cfg: ExperimentConfig, sigma: float) -> Dict[str, float]:
    """Certified sup-norms of field/potential/cutoff and their derivatives.

    Keys name the bounded quantity: ``b``, ``b_perp`` (transverse
    derivatives), ``b_axial``, ``a``, ``a_perp``, ``a_axial``, ``chi``,
    ``chi_perp``, ``chi_axial``, ``chi_p2`` (momentum-squared on the
    cutoff).  All are rigorous upper bounds for every point in space.
    """
    m = cfg.magnet
    I = geometry_inverse(cfg)
    J = potential_ratio(cfg)
    io = iota()
    et, dt = cfg.eps_tilde, cfg.delta_tilde
    eps = cfg.eps
    delta = cfg.delta(sigma)
    return {
        "b": 1.0 / I,
        "b_perp": (1.0 / I) * (1.0 / (io * _E * et) + 1.0 / m.r1_tilde),
        "b_axial": (1.0 / I) / (io * _E * dt),
        "a": J,
        "a_perp": 1.0 / I,
        "a_axial": (1.0 / I) * (m.r2_tilde - m.r1_tilde) / (io * _E * dt),
        "chi": 1.0,
        "chi_perp": 2.0 / (io * _E * eps),
        "chi_axial": 2.0 / (io * _E * delta),
        "chi_p2": _chi_p2(cfg, delta),
    }


# ----------------------------------------------------------------------
# derived norm bundle and coupling constants
# ----------------------------------------------------------------------


def norm_bundle(cfg: ExperimentConfig, delta: float) -> Tuple[float, float, float, float, float]:
    """The five combined operator-norm constants (m1..m5) at axial fattening ``delta``.

    ``cfg.delta(sigma)`` is the fattening of width sigma;
    ``delta=cfg.magnet.h_tilde`` evaluates at the floor, which
    dominates every width and is what the calibrated coefficient
    vectors use.
    """
    m = cfg.magnet
    I = geometry_inverse(cfg)
    J = potential_ratio(cfg)
    io = iota()
    eps = cfg.eps
    dr = m.r2_tilde - m.r1_tilde
    dt = cfg.delta_tilde

    chi_p2 = _chi_p2(cfg, delta)
    field_block = (2.0 + dr / (io * dt * _E)) / I
    m1 = chi_p2 + field_block + (4.0 / (io * delta * _E)) * J + J * J
    m2 = 2.0 * (4.0 / (io * eps * _E) + 2.0 / (io * delta * _E)) + 2.0 * J
    m3 = 2.0 / (io * delta * _E) + J
    m4 = field_block + J * J + (4.0 / (io * delta * _E)) * J
    m5 = 2.0 * J
    return (m1, m2, m3, m4, m5)


def coupling_constants(
    cfg: ExperimentConfig, sigma: float
) -> Tuple[float, float, float, float]:
    """The four decaying prefactors (c_pp, c_ps, c_sp, c_ss) at width sigma.

    Each is nonincreasing in sigma, so evaluating at the left end of a
    width interval bounds the whole interval.
    """
    m = cfg.magnet
    I = geometry_inverse(cfg)
    io = iota()
    eps = cfg.eps
    delta = cfg.delta(sigma)
    mv = cfg.mv
    ht = m.h_tilde

    chi_p2 = _chi_p2(cfg, delta)
    c_pp = (chi_p2 + (4.0 * ht / I) * (4.0 / (io * eps * _E))) / (_PI4 * mv) + 4.0 / (
        _PI4 * io * delta * _E
    )
    c_ps = (
        (2.0 * ht / I) * (1.0 / (io * cfg.eps_tilde * _E) + 1.0 / m.r1_tilde)
        + (2.0 * ht / I) ** 2
    ) / (_PI4 * mv)
    c_sp = (8.0 / (io * eps * _E) + 4.0 / (io * delta * _E)) / (_PI4 * sigma * mv)
    c_ss = (4.0 * ht / I) / (_PI4 * sigma * mv)
    return (c_pp, c_ps, c_sp, c_ss)


def ring_tail(cfg: ExperimentConfig, sigma: float, zeta: float, z_cap: float) -> float:
    """Log of an upper bound on the magnet-ring tail mass reaching past z_cap.

    Decays like exp(-(h - z_cap)^2 (sigma mv)^2 / (2 (sigma^2 mv)^2 + 2 zeta^2));
    carried as a log magnitude because the exponent reaches 1e8.
    """
    mv = cfg.mv
    smv = sigma * mv
    s2mv = sigma * sigma * mv
    den = math.hypot(s2mv, zeta)
    m5 = 2.0 * potential_ratio(cfg)
    pref = (m5 / 2.0) * (den / smv) * _SQRT_PI
    gap = cfg.h(sigma) - z_cap
    expo = gap * gap * smv * smv / (2.0 * den * den)
    return mul_up(f64_up(pref), exp_neg_log(expo))
