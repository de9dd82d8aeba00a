"""Certified error bounds per scattering regime.

The pipeline: the field/potential/cutoff sup-norms combine into five
operator norms (``fields.norm_bundle``), those map into five assembled
norm constants, and the assembled constants calibrate per-regime
coefficient vectors over the powers sigma^{1, 1/2, 0, -1/2, -1}.  The
final bound for a packet of width sigma is then

    size term      7 exp(-r1^2 / (2 sigma^2))        (packet misses the hole)
  + spread term    exp(-(33/34)(sigma mv)^2/2) * P(sigma)
  + fixed slack    a power of ten covering remainders,

with P the calibrated polynomial of the requested regime.  One factory,
``_row_logs``, evaluates every such bound on log magnitudes with the
directed ``xreal`` steps, so the reported numbers are machine-checked
upper bounds.  Every value is such a log-magnitude float (-inf for
zero), compared as a float: the threshold bisections and the
worst-case parameter scan order bounds by them, and only the functions
that return a :class:`BoundReport` record its four terms.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import _PI4, _RATE, _RATE_CAP, _SQRT_PI, ExperimentConfig
from .fields import norm_bundle, potential_ratio, ring_tail
from .kinematics import opening_angle_deg, packet_radius, z_of_sigma
from .xreal import (
    XReal, add_down, add_up, exp_neg_log, f64_down, f64_up, mul_down, mul_up, sci_strings,
)

__all__ = [
    "REGIMES",
    "assembled_norms",
    "calibrated_coefficients",
    "calibrated_poly",
    "tail_payload",
    "envelope_sides",
    "interval_certificates",
    "BoundReport",
    "regime_bound",
    "final_bound",
    "interaction_probability",
    "ten_pow",
    "size_table",
    "angle_table",
    "radius_table",
    "threshold_sigma",
    "plateau_interval",
    "params_sweep",
    "sweep_rows",
    "pair_allowance",
]

log = logging.getLogger(__name__)

_SQRT_2 = math.sqrt(2.0)

# Powers of sigma carried by the calibrated coefficient vectors.
POWERS = (1.0, 0.5, 0.0, -0.5, -1.0)

# Bracketing constants for the crossing distance in units of the ring
# half-thickness: below the capped-rate crossover the crossing sits in
# [134.99, 136.82] half-thicknesses, and the calibrated coefficients
# absorb it at 135.91 (typical) / 138 (worst-case) with tiny relative
# guards on the associated square roots.
_Z_OVER_H_LO = 134.99
_Z_OVER_H_MID = 135.91
_Z_OVER_H_HI = 136.82
_Z_OVER_H_CAP = 138.0
_GUARD_SQRT = (1.0 - 5e-10) ** -0.5
_GUARD_RING = (1.0 + 1.11e-6) ** 0.5

# minus the few-ulp relative guard that interval_certificates gives ties
_NEG_TIE_GUARD = -8.0 * np.finfo(float).eps

_LN10_HI = math.nextafter(math.log(10.0), math.inf)
_LN10_LO = math.nextafter(math.log(10.0), -math.inf)


def ten_pow(k: float, direction: str = "up") -> float:
    """The log magnitude of 10**k, rounded in the stated direction.

    "up" yields a value >= 10**k (safe as an additive slack in an upper
    bound); "down" yields <= 10**k (safe on the comparison side of a
    certificate).
    """
    if direction == "up":
        ln10 = _LN10_HI if k >= 0 else _LN10_LO
        return math.nextafter(k * ln10, math.inf)
    ln10 = _LN10_LO if k >= 0 else _LN10_HI
    return math.nextafter(k * ln10, -math.inf)


# ----------------------------------------------------------------------
# coefficient chain
# ----------------------------------------------------------------------


def assembled_norms(w: Sequence[float], mv: float) -> Tuple[float, float, float, float, float]:
    """Map the five operator norms to the five assembled constants."""
    w1, w2, w3, w4, w5 = w
    root_mix = (1.0 / _SQRT_2 + math.sqrt(3.0) * _PI4 / 2.0) / (math.sqrt(mv) * _PI4)
    a1 = w1 / (_SQRT_2 * mv) + _SQRT_2 * w3
    a2 = (4.0 / _PI4) * (
        (_SQRT_2 / (2.0 * mv)) * w1 + ((2.0 + _SQRT_2) / 2.0) * w2 + _SQRT_2 * w3
    )
    a3 = root_mix * w2
    a4 = w4 / (_SQRT_2 * mv)
    a5 = root_mix * w5
    return (a1, a2, a3, a4, a5)


@lru_cache(maxsize=64)
def _floor_norms(cfg: ExperimentConfig) -> Tuple[float, float, float, float, float]:
    """The assembled constants at the axial floor (delta = h_tilde)."""
    return assembled_norms(norm_bundle(cfg, delta=cfg.magnet.h_tilde), cfg.mv)


# the calibrated families, in the order of _calibrated's vectors
_FAMILIES = ("incoming", "interacting", "outgoing")
_FAMILY_INDEX = {family: i for i, family in enumerate(_FAMILIES)}


@lru_cache(maxsize=64)
def _calibrated(cfg: ExperimentConfig) -> Tuple[Tuple[float, ...], ...]:
    """(incoming, interacting, outgoing) vectors of one config (``_FAMILIES``).

    ValueError if a coefficient is not finite: P(sigma) would be NaN or
    infinite, and no bound built on it would hold.
    """
    mv = cfg.mv
    ht = cfg.magnet.h_tilde
    a1, a2, a3, a4, a5 = _floor_norms(cfg)
    m5 = 2.0 * potential_ratio(cfg)
    r1, r2 = cfg.r1, cfg.r2

    lead = mv * r1 * a1 / 2.0 + mv * r2 * math.sqrt(2.0 * ht / r1) * _GUARD_SQRT * a2 / 2.0
    half = mv * r1 * a3 / 2.0
    const = -_Z_OVER_H_LO * ht * a1 / 2.0
    neg_half = -_Z_OVER_H_LO * ht * a3 / 2.0

    incoming = (lead, half, const, neg_half, 0.0)
    interacting = (
        lead,
        half,
        const + _Z_OVER_H_MID * ht * a4,
        neg_half + _Z_OVER_H_MID * ht * a5,
        (_SQRT_PI / 2.0) * (m5 / 2.0) * _GUARD_RING * (_Z_OVER_H_HI / mv) * ht,
    )
    outgoing = (
        3.0 * lead,
        3.0 * half,
        3.0 * const + _Z_OVER_H_CAP * ht * a4,
        3.0 * neg_half + _Z_OVER_H_CAP * ht * a5,
        0.0,
    )
    for family, coeffs in zip(_FAMILIES, (incoming, interacting, outgoing)):
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"calibrated {family} coefficients are not finite: {coeffs}")
    return (incoming, interacting, outgoing)


def _coefficients(cfg: ExperimentConfig) -> Tuple[Tuple[float, ...], ...]:
    """``_calibrated(cfg)``, kept on the config like a ``cached_property``: later reads hash nothing."""
    return cfg.__dict__.get("_calibrated") or cfg.__dict__.setdefault("_calibrated", _calibrated(cfg))


def calibrated_coefficients(cfg: ExperimentConfig) -> Dict[str, Tuple[float, ...]]:
    """Signed coefficient vectors over POWERS for the three base regimes.

    The operator norms are evaluated at the floor of the axial
    fattening (= the ring half-thickness), which dominates every width,
    so one vector serves the whole sweep range.  The vectors are
    computed once per config; each call returns a new dict (hot paths
    index the tuple of ``_coefficients(cfg)`` by family instead).
    """
    return dict(zip(_FAMILIES, _calibrated(cfg)))


def calibrated_poly(coeffs: Sequence[float], sigma: float) -> float:
    """Signed value sum_i coeffs[i] * sigma**POWERS[i]."""
    rt = math.sqrt(sigma)
    return (
        coeffs[0] * sigma
        + coeffs[1] * rt
        + coeffs[2]
        + coeffs[3] / rt
        + coeffs[4] / sigma
    )


def _poly_nonneg(coeffs: Sequence[float], sigma: float) -> float:
    p = calibrated_poly(coeffs, sigma)
    if p < 0.0:
        log.warning(
            "calibrated polynomial negative (%.6g) at sigma=%.6g; clamping to 0",
            p,
            sigma,
        )
        return 0.0
    return p


# ----------------------------------------------------------------------
# crossing-distance payload and its polynomial envelope
# ----------------------------------------------------------------------


def tail_payload(regime: str, z: float, sigma: float, cfg: ExperimentConfig) -> float:
    """Bound on the error mass past crossing distance z, width factor removed.

    Nonnegative for all z > 0; the calibrated polynomial dominates it
    (times the width exponential) across the certified width range.
    """
    a1, a2, a3, a4, a5 = _floor_norms(cfg)
    s1 = cfg.s1(sigma)
    zs = max(z, s1)
    smv = sigma * cfg.mv
    ring = math.sqrt(cfg.h(sigma) * cfg.r2 ** 2 * smv ** 3)
    base = (
        zs * a1 / 2.0
        + ring * a2 / (2.0 * math.sqrt(zs))
        + (zs / math.sqrt(sigma)) * a3 / 2.0
        - z * a1 / 2.0
        - (z / math.sqrt(sigma)) * a3 / 2.0
    )
    family = _envelope_family(regime)
    if family == "incoming":
        return base
    extra = z * a4 + (z / math.sqrt(sigma)) * a5
    return base + extra if family == "interacting" else 3.0 * base + extra


# the envelope certificate's 1e-420 slack, rounded down (comparison side)
_LOG_ENVELOPE_SLACK = ten_pow(-420, "down")


def envelope_sides(
    cfg: ExperimentConfig,
    regime: str,
    sigma: float,
    zeta: Optional[float] = None,
) -> Tuple[float, float]:
    """Log magnitudes of both sides of the per-width envelope certificate.

    LHS: capped-rate exponential times the payload at the crossing
    distance, plus the regime's ring-tail term, rounded up.  RHS: the
    width exponential times the calibrated polynomial plus a 1e-420
    slack, rounded down (``f64_down``, ``mul_down``, ``add_down``), as a
    comparison target must be.  The LHS must never exceed the RHS for
    widths in [4.5/mv, r1_tilde/2] and |zeta| <= crossing distance.
    """
    z = z_of_sigma(sigma, cfg)
    w = cfg.omega_inv(sigma)
    lhs = mul_up(exp_neg_log(w * w / 2.0), f64_up(max(0.0, tail_payload(regime, z, sigma, cfg))))
    family = _envelope_family(regime)
    if family == "interacting":
        zz = z if zeta is None else zeta
        lhs = add_up(lhs, mul_up(ring_tail(cfg, sigma, zz, z), f64_up(0.5)))
    elif family == "outgoing":
        lhs = add_up(lhs, ring_tail(cfg, sigma, 0.0, z))

    coeffs = _coefficients(cfg)[_FAMILY_INDEX[family]]
    rhs = add_down(
        mul_down(exp_neg_log(cfg.rate_exponent(sigma)), f64_down(_poly_nonneg(coeffs, sigma))),
        _LOG_ENVELOPE_SLACK,
    )
    return lhs, rhs


# ----------------------------------------------------------------------
# sampled interval certificates
# ----------------------------------------------------------------------


def _geomspace(a: float, b: float, n: int) -> np.ndarray:
    """``np.geomspace(a, b, n)`` for positive float ends and n >= 2, bit for bit.

    ``np.linspace``'s steps between the logs of the ends, then 10 to
    each and both ends set exactly: ``np.logspace`` without its wrappers.
    """
    la, lb = np.log10(a), np.log10(b)
    grid = np.arange(n, dtype=np.float64)
    grid *= (lb - la) / (n - 1)
    grid += la
    grid[-1] = lb
    np.power(10.0, grid, out=grid)
    grid[0], grid[-1] = a, b
    return grid


# interval_certificates' results, in the order of its docstring
_CERT_NAMES = (
    "crossing_range_above",
    "crossover_scale_range",
    "ring_factor_cap",
    "spread_ratio_cap",
    "crossing_range_below",
)


def interval_certificates(
    cfg: ExperimentConfig, n: int = 10_000
) -> Dict[str, Dict[str, float]]:
    """Check the five sampled bracketing certificates on log grids.

    Returns per-certificate dicts with ``violations`` (count) and
    ``margin`` (smallest slack seen; negative means a violation).
    The certified statements, each over a width grid of n >= 2 points
    (both ends of each range are checked):

      1. crossing distance within [2.1023e-6, 0.0673] above the crossover;
      2. geometric crossover scale within [0.0042, 303.8306] there;
      3. ring factor sqrt(h r2^2 (sigma mv)^3 / max(z, S1)) <= 2.9127e5;
      4. spread ratio <= sqrt(sigma^2 + (33/34) z^2/2000) <= 0.0015
         for |zeta| <= z;
      5. crossing distance within [134.99, 136.82] half-thicknesses
         below the crossover.

    Both grids are one array pass: the crossings of all their widths
    come from one call, and the crossover scales and slab heights of
    the upper grid from one call each, bit-identical to the scalar
    :func:`~abcertify.kinematics.z_crossing` and config calls at every
    width.  Each certificate writes its margins and their scales into
    one row of two (5, n) arrays, which are tested in one pass.
    A non-finite margin counts as a violation.
    """
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    # the widths above the crossover, then those below: one crossing solve
    grids = np.concatenate(
        (_geomspace(cfg.sigma0, cfg.sigma_max, n), _geomspace(cfg.sigma_min, cfg.sigma0, n))
    )
    hi_grid = grids[:n]
    z_hi, z_lo = z_of_sigma(grids, cfg).reshape(2, n)
    margins = np.empty((len(_CERT_NAMES), n))
    scales = np.empty_like(margins)

    np.minimum(z_hi - 2.1023e-6, 0.0673 - z_hi, out=margins[0])
    scales[0] = z_hi

    s1_vals = cfg.s1(hi_grid)
    scales[1] = s1_vals
    np.minimum(s1_vals - 0.0042, 303.8306 - s1_vals, out=margins[1])

    mv = cfg.mv
    smv = hi_grid * mv
    ring = np.sqrt(
        cfg.h(hi_grid) * cfg.r2 ** 2 * smv ** 3 / np.maximum(z_hi, s1_vals),
        out=scales[2],
    )
    np.subtract(2.9127e5, ring, out=margins[2])

    s2, z2 = hi_grid * hi_grid, z_hi * z_hi
    spread = np.sqrt((s2 * mv) ** 2 + z2) / smv
    mid = np.sqrt(s2 + _RATE * z2 / _RATE_CAP)
    np.minimum(mid - spread, 0.0015 - mid, out=margins[3])
    np.maximum(mid, spread, out=scales[3])

    ht = cfg.magnet.h_tilde
    np.minimum(z_lo - _Z_OVER_H_LO * ht, _Z_OVER_H_HI * ht - z_lo, out=margins[4])
    scales[4] = z_lo

    # Some brackets are tight by construction (the spread ratio meets
    # its majorant exactly at the crossover width), so ties get a
    # few-ulp guard; anything beyond that counts.
    guard = np.abs(scales, out=scales)
    guard *= _NEG_TIE_GUARD
    bad = margins < guard
    bad |= ~np.isfinite(margins)
    # row by row: with axis=1, count_nonzero casts to integers and sums
    counts = [int(np.count_nonzero(row)) for row in bad]
    return {
        name: {"violations": count, "margin": margin}
        for name, count, margin in zip(_CERT_NAMES, counts, margins.min(axis=1).tolist())
    }


# ----------------------------------------------------------------------
# regime bounds
# ----------------------------------------------------------------------


@dataclass
class BoundReport:
    """One certified bound, split into its reported components."""

    regime: str
    sigma: float
    size_term: XReal
    spread_term: XReal
    additive_term: XReal
    total: XReal
    poly_value: float  # signed polynomial before clamping/lifting

    def _logs(self) -> Tuple[float, float, float, float]:
        """The log magnitudes of the size, spread, additive and total terms."""
        return (self.size_term.log_mag, self.spread_term.log_mag,
                self.additive_term.log_mag, self.total.log_mag)


# The published allowance 4 e^{-r1^2/2mu1^2} + c e^{-rate(mu2)} P(mu2) +
# 10^-101 of a width pair: its size factor, the spread scale c of the
# interacting and outgoing families, and the exponent of its slack.
ALLOWANCE_SIZE = 4.0
ALLOWANCE_SCALE = {"interacting": 1e-3, "outgoing": 1e-7}
ALLOWANCE_SLACK_EXP = -101
_LOG_ALLOWANCE_SIZE = f64_up(ALLOWANCE_SIZE)
_LOG_ALLOWANCE_SLACK = ten_pow(ALLOWANCE_SLACK_EXP)
# the same, rounded down, for the comparison side of a pair certificate
_LOG_ALLOWANCE_SIZE_DOWN = f64_down(ALLOWANCE_SIZE)
_LOG_ALLOWANCE_SCALE_DOWN = {regime: f64_down(c) for regime, c in ALLOWANCE_SCALE.items()}
_LOG_ALLOWANCE_SLACK_DOWN = ten_pow(ALLOWANCE_SLACK_EXP, "down")


def pair_allowance(cfg: ExperimentConfig, mu1: float, mu2: float) -> Tuple[float, float]:
    """Logs of lower bounds of a width pair's published allowances.

    4 e^{-r1^2/2mu1^2} + c e^{-rate(mu2)} max(0, P(mu2)) + 10^-101 for
    the interacting and outgoing families, in that order, assembled
    with the down-rounded ``xreal`` steps; the ``exp_neg_log``
    arguments and P(mu2) are plain floats, taken as exact.
    """
    coeffs = _coefficients(cfg)
    r1 = cfg.r1
    size = mul_down(_LOG_ALLOWANCE_SIZE_DOWN, exp_neg_log(r1 * r1 / (2.0 * mu1 * mu1)))
    rate2 = exp_neg_log(cfg.rate_exponent(mu2))
    rhs = []
    for regime in ("interacting", "outgoing"):
        p = max(0.0, calibrated_poly(coeffs[_FAMILY_INDEX[regime]], mu2))
        spread = mul_down(mul_down(_LOG_ALLOWANCE_SCALE_DOWN[regime], rate2), f64_down(p))
        rhs.append(add_down(add_down(size, spread), _LOG_ALLOWANCE_SLACK_DOWN))
    return tuple(rhs)


# Frozen display coefficients of the detailed single-line bound; kept
# verbatim from the published table so reports match it digit for digit.
_DETAILED = (1.04e14, 3.91e8, -1.41e3, -1.14e-2, 0.0)


class _Row(NamedTuple):
    """One bound of the form :func:`_bound` evaluates."""

    poly: Union[str, float, Tuple[float, ...]]  # a calibrated family's name, or P itself
    size: float  # log magnitude of the size factor
    offset: float
    additive: float  # log magnitude of the additive slack
    allowance: float  # the published allowance's scale c, 0 for none


_LOG_SEVEN = f64_up(7.0)
_LOG_TWICE_1E420 = mul_up(ten_pow(-420), f64_up(2.0))
_OUTGOING = _Row(
    "outgoing", f64_up(3.0), _SQRT_2, _LOG_TWICE_1E420, ALLOWANCE_SCALE["outgoing"]
)
_REGIME_TABLE: Dict[str, _Row] = {
    "incoming": _Row("incoming", -math.inf, _SQRT_2, ten_pow(-419), 0.0),
    "interacting": _Row("interacting", f64_up(2.0031), 2.0,
                        add_up(ten_pow(-420), ten_pow(-456)),
                        ALLOWANCE_SCALE["interacting"]),
    "outgoing": _OUTGOING,
    "scattering": _OUTGOING,
    "uniform": _OUTGOING,
    "detailed": _Row(_DETAILED, _LOG_SEVEN, 0.0,
                     add_up(ten_pow(-101), _LOG_TWICE_1E420), 0.0),
}
REGIMES = tuple(_REGIME_TABLE)
# the headline bound 7 e^{-r1^2/2s^2} + 177e3 e^{-rate} + 1e-100, and the
# envelope whose square bounds the interaction probability
_FINAL = _Row(177e3, _LOG_SEVEN, 0.0, ten_pow(-100), 0.0)
_ENVELOPE = _Row(177001.0, _LOG_SEVEN, 0.0, ten_pow(-100), 0.0)


def _regime_row(regime: str) -> _Row:
    if regime not in _REGIME_TABLE:
        raise ValueError(f"unknown regime {regime!r}; choose from {REGIMES}")
    return _REGIME_TABLE[regime]


def _envelope_family(regime: str) -> str:
    """The calibrated family (incoming, interacting, outgoing) of a regime."""
    family = _regime_row(regime).poly
    if not isinstance(family, str):
        raise ValueError(f"regime {regime!r} has no envelope certificate")
    return family


def _row_logs(cfg: ExperimentConfig, row: _Row) -> Callable[[float], Tuple[float, ...]]:
    """The evaluator of size e^{-r1^2/2sigma^2} + e^{-rate}(p + offset) + additive.

    p = max(0, P(sigma)) for the row's polynomial P.  A row with c > 0
    adds the published allowance 4 e^{-r1^2/2sigma^2} + c e^{-rate} p +
    10^-101, reported inside the additive term.  The arithmetic runs on
    log magnitudes (the ``xreal`` functions) and returns the signed
    polynomial value and the log magnitudes of the size, spread,
    additive and total terms: ``(poly, size, spread, additive, total)``.
    Callers that compare bounds read these floats; only the functions
    that return a :class:`BoundReport` record them in one.

    The config's and the row's constants are read once; a constant P = K
    (``_FINAL``, ``_ENVELOPE``) is lifted once, as ``calibrated_poly((0,
    0, K, 0, 0), sigma)`` is K bit for bit for finite sigma > 0.  Where 2
    sigma^2 underflows to 0 (sigma < ~1.1e-162) the size term is log -inf:
    the terms it drops, below e^-1e300 for a hole radius over 1e-11 cm,
    are less than what the total's upward log-sum steps add to it.
    """
    poly, size_factor, offset, additive, scale = row
    r1_sq, rate_exponent = cfg.r1 * cfg.r1, cfg.rate_exponent
    if isinstance(poly, float):  # a constant K > 0, with no allowance
        lifted = f64_up(poly + offset)

        def constant_logs(sigma):
            den = 2.0 * sigma * sigma
            size = mul_up(exp_neg_log(r1_sq / den) if den else -math.inf, size_factor)
            spread = mul_up(exp_neg_log(rate_exponent(sigma)), lifted)
            return poly, size, spread, additive, add_up(add_up(size, spread), additive)

        return constant_logs
    coeffs = _coefficients(cfg)[_FAMILY_INDEX[poly]] if isinstance(poly, str) else poly

    def logs(sigma):
        value = calibrated_poly(coeffs, sigma)
        p = max(0.0, value)
        rate = exp_neg_log(rate_exponent(sigma))
        den = 2.0 * sigma * sigma
        size1 = exp_neg_log(r1_sq / den) if den else -math.inf
        size = mul_up(size1, size_factor)
        spread = mul_up(rate, f64_up(p + offset))
        total = add_up(add_up(size, spread), additive)
        if not scale:
            return value, size, spread, additive, total
        allowance = add_up(
            add_up(mul_up(size1, _LOG_ALLOWANCE_SIZE), mul_up(rate, f64_up(scale * p))),
            _LOG_ALLOWANCE_SLACK,
        )
        return value, size, spread, add_up(additive, allowance), add_up(total, allowance)

    return logs


def _bound(cfg: ExperimentConfig, sigma: float, name: str, row: _Row) -> BoundReport:
    """The row's bound at sigma as a :class:`BoundReport` (see :func:`_row_logs`)."""
    poly, size, spread, additive, total = _row_logs(cfg, row)(sigma)
    return BoundReport(
        name, sigma, XReal(size), XReal(spread), XReal(additive), XReal(total), poly
    )


def regime_bound(cfg: ExperimentConfig, sigma: float, regime: str) -> BoundReport:
    """Certified bound for one width and regime, read off the regime table.

    The interacting and outgoing families (scattering and uniform share
    the outgoing row) carry the published allowance.
    """
    return _bound(cfg, sigma, regime, _regime_row(regime))


def final_bound(cfg: ExperimentConfig, sigma: float) -> BoundReport:
    """The headline two-exponential bound: 7 e^{-r1^2/2s^2} + 177e3 e^{-rate} + 1e-100."""
    return _bound(cfg, sigma, "final", _FINAL)


def interaction_probability(cfg: ExperimentConfig, sigma: float) -> float:
    """Log of an upper bound on the interaction probability: the squared envelope."""
    total = _row_logs(cfg, _ENVELOPE)(sigma)[4]
    return mul_up(total, total)


# ----------------------------------------------------------------------
# tables, thresholds, sweeps
# ----------------------------------------------------------------------


# Sign regions of the threshold search.  _bisect_log_sigma skips the
# bound at a width that lies in a region [s1, s2] whose sign a two-sided
# envelope of the headline bound proves.  With u = 2^-53:
#
# * The size and spread components that _row_logs returns for the
#   headline row are monotone in the float sigma, as threshold_sigma's
#   docstring states for the terms: each is a chain of correctly rounded
#   IEEE steps (and nextafter), each monotone.  With smv = fl(sigma mv),
#     size   = up(fl(L7 - fl(c / fl(2 sigma * sigma)))),
#     spread = up(fl(L - fl(fl(fl(k smv) smv) / 2)))
#   for constants c, k, L7 and L.  The undirected exp_neg_log arguments
#   and the mul_up steps are links of these chains, so they need no
#   margin: for every float sigma in [s1, s2],
#     size(s1) <= size(sigma) <= size(s2),
#     spread(s2) <= spread(sigma) <= spread(s1),
#   and the additive term is a constant.
# * The total is F = add_up(add_up(size, spread), additive).  Let T be
#   the exact log(e^size + e^spread + e^additive) of the components at
#   sigma.  add_up never rounds below the exact log-sum (proved next to
#   xreal._log_add), so F >= T.  The terms of that proof (E = 2.7u, the
#   guard G = 6u, one rounding each of a + l^, r + G and the step up,
#   and u^2 terms) give add_up(a, b) <= T_ab + 5u|T_ab| + 9u for T_ab =
#   log(e^a + e^b).  The first step's excess d, with T12 its exact sum
#   and z = T - T12 >= 0, moves T by log(1 + e^-z (e^d - 1)).  As
#   |T12| <= |T| + z, e^-z (e^d - 1) <= e^(c - (1 - 5u) z) - e^-z with
#   c = 5u|T| + 9u, which falls in z (c > 5u), so the move is at most c.
#   The second step adds at most 5u(|T| + c) + 9u.  So F <= T + 11u|T| +
#   19u =: h(T), and h rises.
# * Above the target: add_down never rounds above the exact log-sum, so
#   if L = add_down(add_down(size(s1), spread(s2)), additive) > t then
#   t < L <= T <= F at every sigma in [s1, s2]: the sign there is +1.
# * Below the target: U = add_up(add_up(size(s2), spread(s1)), additive)
#   >= T, so F <= h(U).  The test fl(U + M) < t, with M = fl(2^-48
#   fl(|U| + 4)) >= 32u(|U| + 4)(1 - u), has fl(U + M) >= U + M -
#   u|U + M| >= U + 30u|U| + 120u >= h(U), so F < t at every sigma in
#   [s1, s2]: the sign there is -1.
# * The walk compares the float math.exp(lmid) it would evaluate the
#   bound at with s1 and s2, so math.exp's rounding needs no margin.  Its
#   shortcut orders those floats by lmid, which needs math.exp to rise
#   (see _bisect_log_sigma).
_SIGN_MARGIN = 2.0**-48
# at most this many secant steps before the walk, and bisection steps
# in it; and the most floats between the proved regions that the search
# decides one by one instead of walking
_SECANT_STEPS = 16
_BISECT_STEPS = 80
_GAP_FLOATS = 8


def _proves_sign(sign, size1, spread1, size2, spread2, additive, t) -> bool:
    """Whether every width in [s1, s2] has ``sign`` (+1 or -1) against t,
    from the components at s1 and s2 (see the proof above)."""
    if sign > 0:
        return add_down(add_down(size1, spread2), additive) > t
    u = add_up(add_up(size2, spread1), additive)
    return u + _SIGN_MARGIN * (abs(u) + 4.0) < t


def _bisect_log_sigma(
    bound: Callable[[float], Tuple[float, float, float, float]],
    t: float,
    lo: float,
    hi: float,
) -> float:
    """Bisection on log(sigma) for the width where a bound crosses t.

    ``bound(s)`` returns the log magnitudes (size, spread, additive,
    total) of the headline bound at s, as :func:`threshold_sigma` gets
    them from the headline row's :func:`_row_logs`.  A step's sign is
    (total > t) - (total < t): +1 above the target, -1 below.

    The result is the plain bisection's (:func:`_walk`): midpoints lmid
    of [log lo, log hi], each deciding whether the sign at
    math.exp(lmid) is lo's.  What changes is how the search gets there.
    A secant search first finds widths a < b such that every width in
    [lo, a] provably has lo's sign and every one in [b, hi] the other
    (the proof is next to ``_SIGN_MARGIN``).  Every float L inside
    (log lo, log hi) then has the walk's decision: the proved region's
    sign, or else the evaluated one.

    Lemma: a float bisection whose decisions are monotone, true up to a
    float L* and false above it, ends at the one adjacent pair (L*, the
    next float) where they switch, if that pair lies inside the bracket.
    The midpoint of two floats of one sign with a float between them
    lies strictly between them (fl(x + y) rounds past 2x and short of
    2y), so each step keeps L* in [llo, lhi) and shrinks the bracket
    until it is that pair; the next step leaves it unchanged.  So the
    search decides only the floats whose widths lie between a and b, at
    most ``_GAP_FLOATS`` (their own proofs often move b down and end the
    scan early), checks that their decisions are monotone and returns
    the walk's end, exp(0.5 (L* + next)), without a walk step.

    It walks instead when the decisions are not monotone, when more
    floats lie between a and b, when the switch is at a bracket end, or
    when the walk may not close within ``_BISECT_STEPS``
    (:func:`_walk_closes`).  The walk takes the region's sign at a
    midpoint in [lo, a] or [b, hi] and calls ``bound`` only between a and
    b.  Either way the result is the full loop's, bit for bit.

    Trusted: that the floats L of [lo, a], of the gap and of [b, hi]
    follow each other in that order needs math.exp to rise on the
    bracket's floats.  math.exp is taken to be faithful (error under 1
    ulp, as ``xreal``'s boundary list states); where every log of the
    bracket is 8 or more in magnitude, one float step in the log moves
    the width by 8 ulps or more, so faithful rounding keeps the order.

    The secant runs on g = log(e^size + e^spread) - log(e^t -
    e^additive), through the last two widths evaluated, against
    v = s^-2 where the bound rises across the bracket (the size term,
    whose log is affine in s^-2, carries the crossing) and v = s^2 where
    it falls (the spread term, affine in s^2).  Each step moves the
    proved end farther from the target, aiming twice the margin past the
    target so that the new width proves its region; without a finite
    secant point between a and b it takes the midpoint in v.
    """
    size_lo, spread_lo, additive, total_lo = bound(lo)
    size_hi, spread_hi, _, total_hi = bound(hi)
    flo = (total_lo > t) - (total_lo < t)
    fhi = (total_hi > t) - (total_hi < t)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if flo == fhi:
        raise ValueError("bound does not cross the target in the given bracket")

    # Every width in [lo, a] has sign flo and every one in [b, hi] has
    # -flo; g_a and g_b are g there.  additive <= total < t at one end,
    # so t_terms (the share of t left to size and spread) is finite.
    t_terms = t + math.log(-math.expm1(additive - t))
    a, g_a = lo, add_up(size_lo, spread_lo) - t_terms
    b, g_b = hi, add_up(size_hi, spread_hi) - t_terms

    def sign_at(s: float) -> Tuple[int, float, float]:
        """The sign, size and spread at s; widens [lo, a] or [b, hi] to s when s proves it."""
        nonlocal a, b
        size, spread, _, total = bound(s)
        f = (total > t) - (total < t)
        if f == flo and s > a and _proves_sign(f, size_lo, spread_lo, size, spread, additive, t):
            a = s
        elif f == -flo and s < b and _proves_sign(f, size, spread, size_hi, spread_hi, additive, t):
            b = s
        return f, size, spread

    p = -2.0 if flo < 0 else 2.0
    last = [(lo**p, g_a), (hi**p, g_b)]  # the last two widths evaluated, as (v, g)
    aim = 2.0 * _SIGN_MARGIN * (abs(t) + 4.0)
    for _ in range(_SECANT_STEPS):
        # both ends within a few aims: a handful of floats lie between
        if abs(g_a) <= 8.0 * aim and abs(g_b) <= 8.0 * aim:
            break
        side = flo if abs(g_a) > abs(g_b) else -flo
        (v0, g0), (v1, g1) = last
        va, vb = a**p, b**p
        v = 0.5 * (va + vb)
        if math.isfinite(g0) and math.isfinite(g1) and g0 != g1:
            v_sec = v1 - (g1 - side * aim) * (v1 - v0) / (g1 - g0)
            if min(va, vb) < v_sec < max(va, vb):
                v = v_sec
        s = v ** (1.0 / p)
        if not a < s < b:
            break
        _, size, spread = sign_at(s)
        g = add_up(size, spread) - t_terms
        if s == a:
            g_a = g
        elif s == b:
            g_b = g
        last = [last[1], (s**p, g)]

    def same_as_lo(lmid: float) -> bool:
        """The walk's decision at lmid: the proved region's sign, or else the evaluated one."""
        s = math.exp(lmid)
        if lo <= s <= a:
            return True
        if b <= s <= hi:
            return False
        return sign_at(s)[0] == flo

    llo, lhi = math.log(lo), math.log(hi)
    # the least and the greatest float inside (llo, lhi)
    inner_lo, inner_hi = math.nextafter(llo, math.inf), math.nextafter(lhi, -math.inf)

    def switch_float() -> Optional[float]:
        """L*, if the decisions of the floats whose widths lie between a
        and b are at most ``_GAP_FLOATS`` and monotone; else None."""
        L = max(math.log(a), inner_lo)  # to the first float whose width is past a
        while L > inner_lo and math.exp(L) > a:
            L = math.nextafter(L, -math.inf)
        while math.exp(L) <= a:
            L = math.nextafter(L, math.inf)
        switch, switched, n = math.nextafter(L, -math.inf), False, 0
        while L < lhi and (s := math.exp(L)) < b:  # b moves down as s proves it
            if n == _GAP_FLOATS:
                return None
            n += 1
            if sign_at(s)[0] != flo:
                switched = True
            elif switched:
                return None
            else:
                switch = L
            L = math.nextafter(L, math.inf)
        return switch

    if _walk_closes(llo, lhi) and lo <= math.exp(inner_lo) and math.exp(inner_hi) <= hi:
        switch = switch_float()
        if switch is not None and inner_lo <= switch < inner_hi:
            return math.exp(0.5 * (switch + math.nextafter(switch, math.inf)))
    return _walk(same_as_lo, llo, lhi)


@lru_cache(maxsize=64)
def _walk_closes(llo: float, lhi: float) -> bool:
    """Whether the walk on [llo, lhi] reaches an adjacent pair of floats
    within ``_BISECT_STEPS`` and ``math.exp`` rises on its floats, which
    the shortcut of :func:`_bisect_log_sigma` needs.

    Every log has magnitude 8 or more, so all of one sign, and one float
    step in the log moves the width by 8 ulps or more.  A midpoint
    misses the exact one by at most half the spacing at the larger end,
    so after k steps the bracket is under W 2^-k plus that spacing; once
    W 2^-k is under the least spacing, each further step drops a float.
    """
    if not (lhi <= -8.0 or llo >= 8.0):
        return False
    small, big = sorted((abs(llo), abs(lhi)))
    spacing = math.ulp(small) / 2.0  # no two floats in the bracket are closer
    halvings = math.ceil(math.log2((lhi - llo) / spacing)) + 1
    return halvings + math.ulp(big) / spacing + 2 <= _BISECT_STEPS


def _walk(same_as_lo: Callable[[float], bool], llo: float, lhi: float) -> float:
    """The plain bisection on log(sigma) in [llo, lhi]: at most
    ``_BISECT_STEPS`` steps, each moving the end on lo's side when
    ``same_as_lo(lmid)`` and else the other, stopping early once a step
    leaves the bracket unchanged (the decision is deterministic, so every
    later step would repeat it)."""
    for _ in range(_BISECT_STEPS):
        lmid = 0.5 * (llo + lhi)
        if same_as_lo(lmid):
            if lmid == llo:
                break
            llo = lmid
        else:
            if lmid == lhi:
                break
            lhi = lmid
    return math.exp(0.5 * (llo + lhi))


def _headline_logs(cfg: ExperimentConfig) -> Callable[[float], Tuple[float, float, float, float]]:
    """The headline bound's logs (size, spread, additive, total) at a width,
    memoized for the life of the returned function: the searches of one
    table share it, so they evaluate each width, bracket ends too, once."""
    logs = _row_logs(cfg, _FINAL)
    return lru_cache(maxsize=None)(lambda s: logs(s)[1:])


def threshold_sigma(cfg: ExperimentConfig, target: float, branch: str, *, _bound=None) -> float:
    """Width at which the headline bound crosses the log magnitude ``target``.

    The bound's size term rises with width, its spread term falls and
    its additive term is constant.  "big": the size term dominates; the
    bound increases with width and the crossing is bracketed by [1e-7,
    just under the hole radius].  "small": the spread term dominates;
    the bound decreases with width and the crossing is bracketed by
    [1e-12, 1e-7].

    Each step compares the headline row's total log magnitude (from
    :func:`_row_logs`) with ``target`` as floats, so it orders the
    widths as the reported totals of :func:`final_bound` would, without
    a :class:`BoundReport`.  A NaN target raises ValueError.
    The search (:func:`_bisect_log_sigma`) skips the steps whose sign the
    monotone terms prove and returns the full bisection's width, bit for
    bit.  ``_bound`` (private) is a table's shared :func:`_headline_logs`.
    """
    bound = _bound or _headline_logs(cfg)
    if math.isnan(target):  # every sign against NaN would read 0
        raise ValueError("target must not be NaN")
    if branch == "big":
        return _bisect_log_sigma(bound, target, 1e-7, 0.999 * cfg.r1)
    if branch == "small":
        return _bisect_log_sigma(bound, target, 1e-12, 1e-7)
    raise ValueError(f"branch must be 'big' or 'small', got {branch!r}")


def plateau_interval(cfg: ExperimentConfig, exponent: int = -99) -> Tuple[float, float]:
    """Width interval on which the headline bound stays below 10**exponent."""
    target = ten_pow(exponent, "down")
    bound = _headline_logs(cfg)  # the two searches meet at 1e-7
    return (
        threshold_sigma(cfg, target, "small", _bound=bound),
        threshold_sigma(cfg, target, "big", _bound=bound),
    )


def size_table(cfg: ExperimentConfig, branch: str, targets: Iterable[float] = range(1, 11)):
    """Rows (target exponent, sigma/r1) for the requested branch."""
    bound = _headline_logs(cfg)  # every width once for the whole table
    rows = []
    for k in targets:
        s = threshold_sigma(cfg, ten_pow(-k), branch, _bound=bound)
        rows.append((k, s / cfg.r1))
    return rows


def angle_table(cfg: ExperimentConfig, targets: Iterable[float] = range(1, 11)):
    """Opening angle (degrees) at the small-branch threshold widths."""
    rows = []
    for k, ratio in size_table(cfg, "small", targets):
        sigma = ratio * cfg.r1
        ang = opening_angle_deg(sigma, cfg.mv)
        rows.append((k, ang))
    return rows


def radius_table(cfg: ExperimentConfig, targets: Iterable[float] = range(1, 11)):
    """99%-mass packet radius over hole radius at big-branch thresholds."""
    rows = []
    for k, ratio in size_table(cfg, "big", targets):
        rows.append((k, packet_radius(ratio * cfg.r1) / cfg.r1))
    return rows


def sweep_rows(
    cfg: ExperimentConfig, lo: float, hi: float, points: int, scale: str = "log"
) -> List[Tuple[float, str, str, str, str]]:
    """Headline-bound component breakdown over a width grid."""
    if scale == "log":
        grid = np.geomspace(lo, hi, points)
    elif scale == "linear":
        grid = np.linspace(lo, hi, points)
    else:
        raise ValueError(f"scale must be 'log' or 'linear', got {scale!r}")
    widths = grid.tolist()
    logs = _row_logs(cfg, _FINAL)
    sci = sci_strings([lm for s in widths for lm in logs(s)[1:]])
    return list(zip(widths, sci[0::4], sci[1::4], sci[2::4], sci[3::4]))


def params_sweep(
    cfg: ExperimentConfig,
    eps_scales: Sequence[float],
    delta_scales: Sequence[float],
    probe_sigmas: Optional[Sequence[float]] = None,
) -> List[Dict[str, object]]:
    """Worst uniform-regime bound over probe widths for each scale pair.

    Infeasible geometry combinations are reported with status
    "rejected" instead of aborting the sweep.
    """
    if probe_sigmas is None:
        # stay inside the plateau-like region where the bound is
        # informative; near sigma_max every variant degenerates to ~1
        top = min(1e-5, 0.5 * cfg.sigma_max)
        probe_sigmas = list(np.geomspace(cfg.sigma0 * 5.0, top, 9))
    uniform = _regime_row("uniform")
    rows: List[Dict[str, object]] = []
    for es in eps_scales:
        for ds in delta_scales:
            row: Dict[str, object] = {"eps_scale": float(es), "delta_scale": float(ds)}
            try:
                trial = replace(cfg, **row)
                logs = _row_logs(trial, uniform)
                worst = max((logs(float(s))[4] for s in probe_sigmas), default=-math.inf)
                row.update(status="ok", worst_bound=sci_strings([worst])[0],
                           worst_log10=worst / math.log(10.0))
            except ValueError as exc:
                row.update(status="rejected", reason=str(exc))
                log.info("parameter pair (%g, %g) rejected: %s", es, ds, exc)
            rows.append(row)
    return rows
