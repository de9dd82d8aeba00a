"""Smoothed toroidal magnet field, its vector potential, and cutoffs.

The magnetic field is azimuthal and factorises into radial and axial
compactly-supported smooth profiles built from the classic bump

    psi(t) = exp(-1/(1 - t^2)) / iota      on |t| < 1,

with iota the bump's normalisation.  Convolving a box with psi gives
plateau functions that are exactly 1 well inside their interval and
exactly 0 outside; all the support/flux statements below are therefore
algebraically exact, not approximate.

Alongside the pointwise evaluators this module carries the closed-form
sup-norm constants of the field, potential and cutoff, the derived
norm bundle used by the bound engine, and the ring-tail factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .config import ExperimentConfig
from .xreal import XReal

__all__ = [
    "bump",
    "iota",
    "curvature_constant",
    "plateau",
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
_SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# the bump and its constants
# ----------------------------------------------------------------------


def bump(t: float) -> float:
    """Unnormalised bump exp(-1/(1-t^2)) on |t| < 1, zero outside."""
    if abs(t) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - t * t))


@lru_cache(maxsize=1)
def iota() -> float:
    """Normalisation of the bump: integral of exp(-1/(1-t^2)) over [-1, 1]."""
    with warnings.catch_warnings():
        # the explicit error check below is stricter than the default alarm
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(bump, -1.0, 1.0, epsabs=1e-15, epsrel=1e-14, limit=200)
    if err > 1e-13:
        raise RuntimeError(f"bump normalisation quadrature too loose: err={err:g}")
    return val


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
# plateau (smoothed indicator) functions
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _mollifier_window_integral(
    z: float, lo: float, hi: float, eps: float, method: str
) -> float:
    """integral over [lo, hi] of psi((z-y)/eps)/eps dy."""
    if hi <= lo:
        return 0.0
    if method == "adaptive":
        val, _ = quad(
            lambda y: _psi((z - y) / eps) / eps,
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        return val
    # fixed: composite Gauss-Legendre, 4 panels x 48 nodes
    total = 0.0
    edges = np.linspace(lo, hi, 5)
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        y = mid + half * _GL_NODES
        t = (z - y) / eps
        vals = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        vals[inside] = np.exp(-1.0 / (1.0 - ti * ti))
        total += half * float(np.dot(_GL_WEIGHTS, vals)) / (iota() * eps)
    return total


def plateau(z: float, a: float, b: float, eps: float, method: str = "adaptive") -> float:
    """Smoothed indicator of [a, b]: exactly 1 on [a+eps, b-eps], 0 outside
    [a-eps, b+eps], monotone mollifier ramps in between.

    Requires eps < (b - a)/2 so the two ramps cannot overlap.
    """
    if eps <= 0.0 or eps >= (b - a) / 2.0:
        raise ValueError(f"need 0 < eps < (b-a)/2, got eps={eps!r}, a={a!r}, b={b!r}")
    if z <= a - eps or z >= b + eps:
        return 0.0
    if a + eps <= z <= b - eps:
        return 1.0
    lo = max(a, z - eps)
    hi = min(b, z + eps)
    return _mollifier_window_integral(z, lo, hi, eps, method)


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


@dataclass
class FieldModel:
    """Pointwise evaluators for the field, potential, gauge and cutoff.

    ``method`` selects the ramp quadrature: "adaptive" (scipy, default)
    or "fixed" (composite Gauss-Legendre, faster for dense sampling).
    """

    cfg: ExperimentConfig
    method: str = "adaptive"

    # -- 1-d profiles -------------------------------------------------

    def profile_radial(self, r: float) -> float:
        m = self.cfg.magnet
        e = self.cfg.eps_tilde
        return plateau(r, m.r1_tilde + e, m.r2_tilde - e, e, self.method)

    def profile_radial_d1(self, r: float) -> float:
        m = self.cfg.magnet
        e = self.cfg.eps_tilde
        return plateau_d1(r, m.r1_tilde + e, m.r2_tilde - e, e)

    def profile_axial(self, x3: float) -> float:
        m = self.cfg.magnet
        d = self.cfg.delta_tilde
        return plateau(x3, -m.h_tilde + d, m.h_tilde - d, d, self.method)

    def profile_axial_d1(self, x3: float) -> float:
        m = self.cfg.magnet
        d = self.cfg.delta_tilde
        return plateau_d1(x3, -m.h_tilde + d, m.h_tilde - d, d)

    # -- normalisation ------------------------------------------------

    @cached_property
    def w_radial(self) -> float:
        """integral of the radial profile over its support."""
        return self._profile_integral_radial(self.cfg.magnet.r1_tilde)

    @cached_property
    def w_axial(self) -> float:
        """integral of the axial profile over its support."""
        m = self.cfg.magnet
        d = self.cfg.delta_tilde
        return self._cdf(
            -m.h_tilde, m.h_tilde, -m.h_tilde + d, m.h_tilde - d, d, upper=m.h_tilde
        )

    @cached_property
    def normalisation(self) -> float:
        """Product of the two profile masses; divides the flux."""
        return self.w_radial * self.w_axial

    def _cdf(self, lo: float, hi: float, a: float, b: float, eps: float, upper: float) -> float:
        """integral of plateau(., a, b, eps) over [lo, min(hi, upper)].

        Split into exact plateau middle plus quadrature on the ramps.
        """
        hi = min(hi, upper)
        if hi <= lo:
            return 0.0
        total = 0.0
        # plateau == 1 on [a+eps, b-eps]
        p_lo, p_hi = a + eps, b - eps
        mid_lo, mid_hi = max(lo, p_lo), min(hi, p_hi)
        if mid_hi > mid_lo:
            total += mid_hi - mid_lo
        for seg_lo, seg_hi in ((max(lo, a - eps), min(hi, p_lo)), (max(lo, p_hi), min(hi, b + eps))):
            if seg_hi > seg_lo:
                if self.method == "adaptive":
                    val, _ = quad(
                        lambda u: plateau(u, a, b, eps, self.method),
                        seg_lo,
                        seg_hi,
                        epsabs=1e-14,
                        epsrel=1e-13,
                        limit=200,
                    )
                else:
                    half = 0.5 * (seg_hi - seg_lo)
                    mid = 0.5 * (seg_lo + seg_hi)
                    vals = [
                        plateau(float(mid + half * t), a, b, eps, self.method)
                        for t in _GL_NODES
                    ]
                    val = half * float(np.dot(_GL_WEIGHTS, vals))
                total += val
        return total

    def _profile_integral_radial(self, r: float) -> float:
        """integral of the radial profile over [r, r2~]."""
        m = self.cfg.magnet
        e = self.cfg.eps_tilde
        if r >= m.r2_tilde:
            return 0.0
        return self._cdf(
            max(r, m.r1_tilde), m.r2_tilde, m.r1_tilde + e, m.r2_tilde - e, e,
            upper=m.r2_tilde,
        )

    def radial_mass_above(self, r: float) -> float:
        """integral of the radial profile over [r, r2~] (cached full mass below r1~)."""
        if r <= self.cfg.magnet.r1_tilde:
            return self.w_radial
        return self._profile_integral_radial(r)

    def axial_mass_below(self, x3: float) -> float:
        """integral of the axial profile over [-h~, min(x3, h~)]."""
        m = self.cfg.magnet
        d = self.cfg.delta_tilde
        if x3 >= m.h_tilde:
            return self.w_axial
        return self._cdf(-m.h_tilde, x3, -m.h_tilde + d, m.h_tilde - d, d, upper=m.h_tilde)

    # -- magnetic field -----------------------------------------------

    def b_field(self, x: Sequence[float]) -> np.ndarray:
        """Azimuthal magnetic field at a Cartesian point."""
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        g = (self.cfg.flux / self.normalisation) * self.profile_radial(r) * self.profile_axial(x3)
        if g == 0.0 or r == 0.0:
            return np.zeros(3)
        return np.array([-g * x2 / r, g * x1 / r, 0.0])

    def b_magnitude(self, r: float, x3: float) -> float:
        return abs(
            (self.cfg.flux / self.normalisation)
            * self.profile_radial(r)
            * self.profile_axial(x3)
        )

    def b_partials(self, x: Sequence[float]) -> np.ndarray:
        """Jacobian d B_i / d x_j (3x3), analytic."""
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        scale = self.cfg.flux / self.normalisation
        out = np.zeros((3, 3))
        if r == 0.0:
            return out
        c, s = x1 / r, x2 / r
        pr = self.profile_radial(r)
        pz = self.profile_axial(x3)
        g = scale * pr * pz
        g_r = scale * self.profile_radial_d1(r) * pz
        g_z = scale * pr * self.profile_axial_d1(x3)
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
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        pz = self.profile_axial(x3)
        if pz == 0.0:
            return 0.0
        return (self.cfg.flux / self.normalisation) * pz * self.radial_mass_above(r)

    def a_potential(self, x: Sequence[float]) -> np.ndarray:
        return np.array([0.0, 0.0, self.a3(x)])

    def a3_partials(self, x: Sequence[float]) -> np.ndarray:
        """Gradient of a3, analytic."""
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        scale = self.cfg.flux / self.normalisation
        pz = self.profile_axial(x3)
        pz1 = self.profile_axial_d1(x3)
        mass = self.radial_mass_above(r)
        d_r = -scale * pz * self.profile_radial(r)  # d/dr of the radial mass
        if r == 0.0:
            grad_r = np.zeros(2)
        else:
            grad_r = np.array([d_r * x1 / r, d_r * x2 / r])
        return np.array([grad_r[0], grad_r[1], scale * pz1 * mass])

    # -- flux ----------------------------------------------------------

    def flux_linked(self, r: float) -> float:
        """Flux of B through the half-plane strip at radius >= r.

        Equals the line integral of the potential along a vertical line
        at radius r crossing the magnet slab.
        """
        return (
            (self.cfg.flux / self.normalisation)
            * self.radial_mass_above(r)
            * self.w_axial
        )

    def flux_line_integral(self, r: float, n: int = 2001) -> float:
        """Direct quadrature of a3 along a vertical line at radius r."""
        m = self.cfg.magnet
        if self.method == "adaptive":
            val, _ = quad(
                lambda s: self.a3((r, 0.0, s)),
                -m.h_tilde,
                m.h_tilde,
                epsabs=1e-13 * max(1.0, abs(self.cfg.flux)),
                epsrel=1e-11,
                limit=200,
            )
            return val
        xs = np.linspace(-m.h_tilde, m.h_tilde, n)
        vals = [self.a3((r, 0.0, s)) for s in xs]
        return float(np.trapezoid(vals, xs))

    # -- gauge function outside the magnet ------------------------------

    def lambda_gauge(self, x: Sequence[float]) -> float:
        """Scalar whose gradient equals the potential away from the ring.

        Defined on the complement of the closed magnet body with a cut
        along the bottom skirt {x3 = -h~, r >= r1~}; the jump across
        the cut is the enclosed flux.  Raises ValueError on the body or
        the cut, where no single-valued gauge exists.
        """
        m = self.cfg.magnet
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
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
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        return 1.0 - plateau(r, ra, rb, re, self.method) * plateau(x3, za, zb, ze, self.method)

    def chi_partials(self, x: Sequence[float], sigma: float) -> np.ndarray:
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        P = plateau(r, ra, rb, re, self.method)
        Q = plateau(x3, za, zb, ze, self.method)
        P1 = plateau_d1(r, ra, rb, re)
        Q1 = plateau_d1(x3, za, zb, ze)
        if r == 0.0:
            gx = gy = 0.0
        else:
            gx, gy = -P1 * Q * x1 / r, -P1 * Q * x2 / r
        return np.array([gx, gy, -P * Q1])

    def chi_curvature(self, x: Sequence[float], sigma: float) -> float:
        """|applied momentum-squared|: -(laplacian chi) pointwise."""
        x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
        r = math.hypot(x1, x2)
        (ra, rb, re), (za, zb, ze) = self._chi_profiles(sigma)
        P = plateau(r, ra, rb, re, self.method)
        Q = plateau(x3, za, zb, ze, self.method)
        P1 = plateau_d1(r, ra, rb, re)
        P2 = plateau_d2(r, ra, rb, re)
        Q2 = plateau_d2(x3, za, zb, ze)
        radial = P2 + (P1 / r if r > 0.0 else 0.0)
        return radial * Q + P * Q2


# ----------------------------------------------------------------------
# closed-form sup-norm constants
# ----------------------------------------------------------------------


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
    N = curvature_constant()
    et, dt = cfg.eps_tilde, cfg.delta_tilde
    eps = cfg.eps
    delta = cfg.delta(sigma)
    r1 = cfg.r1
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
        "chi_p2": 8.0 * N / (io * eps * eps)
        + 2.0 / (_E * r1 * io * eps)
        + 8.0 * N / (io * delta * delta),
    }


# ----------------------------------------------------------------------
# derived norm bundle and coupling constants
# ----------------------------------------------------------------------


def norm_bundle(
    cfg: ExperimentConfig, sigma: Optional[float] = None, delta: Optional[float] = None
) -> Tuple[float, float, float, float, float]:
    """The five combined operator-norm constants (m1..m5).

    ``delta`` defaults to the width-dependent axial fattening; passing
    ``delta=cfg.magnet.h_tilde`` evaluates at the floor, which
    dominates every width and is what the calibrated coefficient
    vectors use.
    """
    if delta is None:
        if sigma is None:
            raise ValueError("pass either sigma or an explicit delta")
        delta = cfg.delta(sigma)
    m = cfg.magnet
    I = geometry_inverse(cfg)
    J = potential_ratio(cfg)
    io = iota()
    N = curvature_constant()
    eps = cfg.eps
    r1 = cfg.r1
    dr = m.r2_tilde - m.r1_tilde
    dt = cfg.delta_tilde

    chi_p2 = (
        8.0 * N / (io * eps * eps)
        + 2.0 / (io * eps * r1 * _E)
        + 8.0 * N / (io * delta * delta)
    )
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
    N = curvature_constant()
    eps = cfg.eps
    delta = cfg.delta(sigma)
    r1 = cfg.r1
    mv = cfg.mv
    pi4 = math.pi ** 0.25
    ht = m.h_tilde

    chi_p2 = (
        8.0 * N / (io * eps * eps)
        + 2.0 / (io * eps * r1 * _E)
        + 8.0 * N / (io * delta * delta)
    )
    c_pp = (chi_p2 + (4.0 * ht / I) * (4.0 / (io * eps * _E))) / (pi4 * mv) + 4.0 / (
        pi4 * io * delta * _E
    )
    c_ps = (
        (2.0 * ht / I) * (1.0 / (io * cfg.eps_tilde * _E) + 1.0 / m.r1_tilde)
        + (2.0 * ht / I) ** 2
    ) / (pi4 * mv)
    c_sp = (8.0 / (io * eps * _E) + 4.0 / (io * delta * _E)) / (pi4 * sigma * mv)
    c_ss = (4.0 * ht / I) / (pi4 * sigma * mv)
    return (c_pp, c_ps, c_sp, c_ss)


def ring_tail(cfg: ExperimentConfig, sigma: float, zeta: float, z_cap: float) -> XReal:
    """Upper bound on the magnet-ring tail mass reaching past z_cap.

    Decays like exp(-(h - z_cap)^2 (sigma mv)^2 / (2 (sigma^2 mv)^2 + 2 zeta^2));
    carried as an extended-range value because the exponent reaches 1e8.
    """
    mv = cfg.mv
    smv = sigma * mv
    s2mv = sigma * sigma * mv
    den = math.hypot(s2mv, zeta)
    m5 = 2.0 * potential_ratio(cfg)
    pref = (m5 / 2.0) * (den / smv) * _SQRT_PI
    gap = cfg.h(sigma) - z_cap
    expo = gap * gap * smv * smv / (2.0 * den * den)
    return XReal.from_f64(pref).mul(XReal.exp_neg(expo))
