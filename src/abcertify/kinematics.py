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
    "z_crossing_vec",
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


def _crossing_closed_form(omega_inv, smv, s2, zeta):
    """Root of (z - zeta) * rho(sigma, z) = omega_inv (an array).

    (A zeta + smv omega_inv sqrt(s2 D + zeta^2)) / D with smv = sigma mv,
    s2 = sigma^2, A = smv^2 and D = A - omega_inv^2, each step the float
    :func:`z_crossing` computes; from the square root on, the steps run
    in place in the result's buffer.
    """
    A = smv * smv
    D = A - omega_inv * omega_inv
    if not (D > 0.0).all():  # (sigma*mv)^2 underflowed somewhere
        raise ValueError("thresholds too close to sigma*mv: (sigma*mv)^2 underflowed")
    z = s2 * D + zeta * zeta
    np.sqrt(z, out=z)
    z *= smv * omega_inv
    z += A * zeta
    z /= D
    return z


def z_crossing(
    omega_inv: float, sigma: float, mv: float, zeta: float
) -> float:
    """Distance z > zeta at which (z - zeta) * rho(sigma, z) = omega_inv.

    Requires 0 < omega_inv < sigma*mv (the product approaches sigma*mv
    from below as z grows, so larger targets are never reached).  The
    algebraic root gets one Newton step, kept only when it does not
    increase |F| for F(z) = (z - zeta) rho(sigma, z) - omega_inv.  The
    result is a rounded float, not an enclosure: no bound on its
    residual is enforced or proved (ROADMAP item 5 plans a proved one).
    """
    smv = sigma * mv
    if not 0.0 < omega_inv < smv:
        raise ValueError(
            f"need 0 < omega_inv < sigma*mv, got omega_inv={omega_inv!r}, "
            f"sigma*mv={smv!r}"
        )
    # the operations of _crossing_closed_form and _newton_polish, in the
    # same order, on Python floats: bit-identical to z_crossing_vec
    zeta = float(zeta)
    A = smv * smv
    D = A - omega_inv * omega_inv
    if not D > 0.0:  # (sigma*mv)^2 underflowed
        raise ValueError(f"omega_inv={omega_inv!r} too close to sigma*mv={smv!r}")
    s2 = sigma * sigma
    z = (A * zeta + smv * omega_inv * math.sqrt(s2 * D + zeta * zeta)) / D
    s2mv = s2 * mv
    den2 = s2mv * s2mv + z * z
    r = smv / math.sqrt(den2)
    f0 = (z - zeta) * r - omega_inv
    fp = r * (1.0 - (z - zeta) * z / den2)
    if not fp > 0.0:
        return float(z)
    z1 = z - f0 / fp
    f1 = (z1 - zeta) * (smv / math.sqrt(s2mv * s2mv + z1 * z1)) - omega_inv
    return float(z1 if abs(f1) <= abs(f0) else z)


def _newton_polish(z, omega_inv, smv, s2, mv, zeta):
    """One Newton step on F(z) = (z - zeta) rho(z) - omega_inv (on arrays).

    The operations of :func:`z_crossing`'s step, in its order, written
    into four buffers of z's shape (out= and in place): each value is
    the float the scalar solver computes.  ``smv`` and ``s2`` are the
    widths' sigma mv and sigma^2, shared with the closed form.  ``z``
    and the inputs are not modified.
    """
    s2mv = s2 * mv
    q = s2mv * s2mv
    dz = z - zeta
    den2 = z * z
    den2 += q
    fp = dz * z
    fp /= den2
    np.subtract(1.0, fp, out=fp)
    r = np.sqrt(den2, out=den2)
    np.divide(smv, r, out=r)
    fp *= r  # F'(z)
    f0 = np.multiply(dz, r, out=r)
    f0 -= omega_inv  # F(z)
    # z1 = z - F/F', or z itself where the step is skipped (no warning there)
    step = fp > 0.0
    np.divide(f0, fp, out=fp, where=step)
    z1 = z.copy()
    np.subtract(z, fp, out=z1, where=step)
    den2b = np.multiply(z1, z1, out=fp)
    den2b += q
    np.sqrt(den2b, out=den2b)
    np.divide(smv, den2b, out=den2b)
    f1 = np.subtract(z1, zeta, out=dz)
    f1 *= den2b
    f1 -= omega_inv  # F(z1)
    return np.where(np.abs(f1, out=f1) <= np.abs(f0, out=f0), z1, z)


def z_crossing_vec(omega_inv, sigma, mv: float, zeta) -> np.ndarray:
    """Vectorised :func:`z_crossing`, elementwise bit-identical to it.

    ``omega_inv``, ``sigma`` and ``zeta`` are arrays or floats that
    broadcast together; the result is an array of at least one element.
    Every element must pass the scalar solver's checks (a NaN threshold
    fails them), else ValueError.
    """
    omega_inv = np.array(omega_inv, dtype=np.float64, copy=None, ndmin=1)
    smv = sigma * mv
    if not ((0.0 < omega_inv) & (omega_inv < smv)).all():
        raise ValueError("thresholds must lie strictly inside (0, sigma*mv)")
    s2 = sigma * sigma
    z0 = _crossing_closed_form(omega_inv, smv, s2, zeta)
    return _newton_polish(z0, omega_inv, smv, s2, mv, zeta)


def z_of_sigma(sigma, cfg: ExperimentConfig):
    """Capped-threshold crossing distance for a width or an array of widths.

    An array runs :func:`z_crossing_vec` once and gives, point by point,
    the float the scalar :func:`z_crossing` gives for one width.
    """
    solve = z_crossing_vec if isinstance(sigma, np.ndarray) else z_crossing
    return solve(cfg.omega_inv(sigma), sigma, cfg.mv, cfg.h(sigma))


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
