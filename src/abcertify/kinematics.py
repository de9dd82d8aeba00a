"""Free-flight kinematics of the Gaussian beam packet.

A packet of initial width ``sigma`` moving along the z axis with
momentum ``mv`` spreads as it propagates; everything below is a
function of the inverse transverse width

    rho(sigma, z) = sigma*mv / sqrt(sigma^4 (mv)^2 + z^2),

evaluated at the packet centre's travelled distance z.  The module
provides the spread profile itself, axis-window Gaussian integrals in
the co-moving frame, the distance at which the spread crosses a given
threshold, and the pointwise quantities (99%-mass radius, opening
angle) used by the report tables.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .config import _SQRT_PI, ExperimentConfig

__all__ = [
    "rho",
    "theta_inv",
    "gaussian_window",
    "weighted_window",
    "z_crossing",
    "z_of_sigma",
    "packet_radius",
    "opening_angle_deg",
]

# 99% of a 3-d Gaussian's mass lies within this many widths of centre.
RADIUS_FACTOR = 2.382


def rho(sigma: float, mv: float, z: float) -> float:
    """Inverse transverse width of the spread packet at distance z."""
    return sigma * mv / math.hypot(sigma * sigma * mv, z)


def theta_inv(sigma: float, mv: float, z: float, s: float, zeta: float) -> float:
    """Rescaled co-moving coordinate (zeta - s) * rho(sigma, z)."""
    return (zeta - s) * rho(sigma, mv, z)


def _erf_diff(l: float, u: float) -> float:
    """erf(u) - erf(l) with tail-safe cancellation (l <= u)."""
    if l >= 0.0 and u >= 0.0:
        return math.erfc(l) - math.erfc(u)
    if l <= 0.0 and u <= 0.0:
        return math.erfc(-u) - math.erfc(-l)
    return math.erf(u) - math.erf(l)


def gaussian_window(
    sigma: float, mv: float, z: float, s: float, zeta: float
) -> float:
    """integral of exp(-tau^2) over the packet's axial window.

    The limits are theta_inv(sigma, z, s, -zeta) .. theta_inv(sigma, z,
    z, zeta); closed form via erf.  Bounded by sqrt(pi).
    """
    l = theta_inv(sigma, mv, z, s, -zeta)
    u = theta_inv(sigma, mv, z, z, zeta)
    if u <= l:
        return 0.0
    return 0.5 * _SQRT_PI * _erf_diff(l, u)


def weighted_window(
    sigma: float, mv: float, z: float, s: float, zeta: float
) -> float:
    """Same window as :func:`gaussian_window` with integrand tau^2 exp(-tau^2).

    Closed form: (sqrt(pi)/4)(erf(u)-erf(l)) - (u exp(-u^2) - l exp(-l^2))/2.
    Bounded by sqrt(pi)/2.
    """
    l = theta_inv(sigma, mv, z, s, -zeta)
    u = theta_inv(sigma, mv, z, z, zeta)
    if u <= l:
        return 0.0
    a = 0.25 * _SQRT_PI * _erf_diff(l, u)
    b = 0.5 * (u * math.exp(-u * u) - l * math.exp(-l * l))
    return a - b


# ----------------------------------------------------------------------
# threshold crossings of (z - zeta) * rho(sigma, z)
# ----------------------------------------------------------------------


# the type that selects z_crossing's array branch (an exact match, as in
# config's _OPS)
_ARRAY = np.ndarray


def _sqrt_in_place(a):
    """np.sqrt written into its argument, a temporary of the array branch."""
    return np.sqrt(a, out=a)


def z_crossing(omega_inv, sigma, mv, zeta):
    """Distance z > zeta at which (z - zeta) * rho(sigma, z) = omega_inv.

    Requires 0 < omega_inv < sigma*mv (the product approaches sigma*mv
    from below as z grows, so larger targets are never reached); a NaN
    threshold, or a (sigma*mv)^2 that underflows, is rejected too
    (ValueError).  The algebraic root (A zeta + smv omega_inv sqrt(s2 D
    + zeta^2)) / D, with smv = sigma mv, s2 = sigma^2, A = smv^2 and D =
    A - omega_inv^2, gets one Newton step, kept only when it does not
    increase |F| for F(z) = (z - zeta) rho(sigma, z) - omega_inv.  The
    result is a rounded float, not an enclosure: no bound on its
    residual is enforced or proved (ROADMAP item 5 plans a proved one).

    The arguments are floats, or arrays and floats that broadcast
    together.  Floats give a float.  An ``np.ndarray`` among
    ``omega_inv``, ``sigma`` and ``zeta`` gives an array of at least one
    element, element i of which is the float call at element i, bit for
    bit: the one body runs the same operations in the same order, its
    augmented assignments and square roots in place on the array
    branch's own temporaries (never on an input).  The branches differ
    only at the step's guard and the final choice of z or z1, an ``if``
    on floats and ``where`` on arrays.
    """
    arrays = type(omega_inv) is _ARRAY or type(sigma) is _ARRAY or type(zeta) is _ARRAY
    if arrays:
        omega_inv = np.array(omega_inv, dtype=np.float64, copy=None, ndmin=1)
        sqrt = _sqrt_in_place
    else:
        zeta = float(zeta)
        sqrt = math.sqrt
    smv = sigma * mv
    ok = (0.0 < omega_inv) & (omega_inv < smv)
    if not (ok.all() if arrays else ok):
        raise ValueError(
            f"need 0 < omega_inv < sigma*mv, got omega_inv={omega_inv!r}, "
            f"sigma*mv={smv!r}"
        )
    A = smv * smv
    D = A - omega_inv * omega_inv
    ok = D > 0.0
    if not (ok.all() if arrays else ok):  # (sigma*mv)^2 underflowed
        raise ValueError(f"omega_inv={omega_inv!r} too close to sigma*mv={smv!r}")
    s2 = sigma * sigma
    z = sqrt(s2 * D + zeta * zeta)
    z *= smv * omega_inv
    z += A * zeta
    z /= D
    # the Newton step, on g = ((z - zeta) z / den2 - 1) r = -F'(z): g -= 1
    # runs in place, 1 - g would not; negation is exact, so z + F/g is
    # z - F/F' bit for bit
    s2mv = s2 * mv
    q = s2mv * s2mv
    dz = z - zeta
    den2 = z * z
    den2 += q
    g = dz * z
    g /= den2
    g -= 1.0
    r = smv / sqrt(den2)
    g *= r
    f0 = dz  # F(z), in dz's buffer on arrays (dz is not read again)
    f0 *= r
    f0 -= omega_inv
    if arrays:  # z1 is z itself where the step is skipped (no warning there)
        step = g < 0.0
        z1 = z.copy()
        np.add(z, np.divide(f0, g, out=g, where=step), out=z1, where=step)
    elif not g < 0.0:
        return float(z)
    else:
        z1 = z + f0 / g
    f1 = z1 * z1
    f1 += q
    f1 = smv / sqrt(f1)
    f1 *= z1 - zeta
    f1 -= omega_inv  # F(z1)
    if arrays:
        return np.where(np.abs(f1, out=f1) <= np.abs(f0, out=f0), z1, z)
    return float(z1 if abs(f1) <= abs(f0) else z)


def z_of_sigma(sigma, cfg: ExperimentConfig):
    """Capped-threshold crossing distance for a width or an array of widths."""
    return z_crossing(cfg.omega_inv(sigma), sigma, cfg.mv, cfg.h(sigma))


# ----------------------------------------------------------------------
# pointwise packet quantities
# ----------------------------------------------------------------------


def packet_radius(sigma: float) -> float:
    """Radius holding ~99% of the packet's initial probability mass."""
    return RADIUS_FACTOR * sigma


def opening_angle_deg(sigma: float, mv: float) -> Optional[float]:
    """Full apex angle (degrees) of the 99%-mass cone, None if undefined."""
    arg = RADIUS_FACTOR / (sigma * mv)
    if arg > 1.0:
        return None
    return math.degrees(2.0 * math.asin(arg))
