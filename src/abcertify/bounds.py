"""Certified error bounds per scattering regime.

The pipeline: the field/potential/cutoff sup-norms combine into five
operator norms (``fields.norm_bundle``), those map into five assembled
norm constants, and the assembled constants calibrate per-regime
coefficient vectors over the powers sigma^{1, 1/2, 0, -1/2, -1}.  The
final bound for a packet of width sigma is then

    size term      7 exp(-r1^2 / (2 sigma^2))        (packet misses the hole)
  + spread term    exp(-(33/34)(sigma mv)^2/2) * P(sigma)
  + fixed slack    a power of ten covering remainders,

with P the calibrated polynomial of the requested regime.  One core,
``_bound_logs``, evaluates every such bound on log magnitudes with the
directed ``xreal`` steps, so the reported numbers are machine-checked
upper bounds.  Only the functions that return a :class:`BoundReport`
build one; the threshold bisections and the worst-case parameter scan
order bounds by their log-magnitude floats with the comparison
:meth:`~abcertify.xreal.XReal.cmp` makes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import _PI4, _RATE, _RATE_CAP, _SQRT_PI, ExperimentConfig
from .fields import norm_bundle, potential_ratio, ring_tail
from .kinematics import opening_angle_deg, packet_radius, z_of_sigma
from .xreal import XReal, add_down, add_up, exp_neg_log, f64_down, f64_up, mul_down, mul_up

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
    "threshold_sigma",
    "plateau_interval",
    "params_sweep",
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

_LN10_HI = math.nextafter(math.log(10.0), math.inf)
_LN10_LO = math.nextafter(math.log(10.0), -math.inf)


def ten_pow(k: float, direction: str = "up") -> XReal:
    """10**k as an XReal, rounded in the stated direction.

    "up" yields a value >= 10**k (safe as an additive slack in an upper
    bound); "down" yields <= 10**k (safe on the comparison side of a
    certificate).
    """
    if direction == "up":
        ln10 = _LN10_HI if k >= 0 else _LN10_LO
        return XReal.from_log(math.nextafter(k * ln10, math.inf))
    ln10 = _LN10_LO if k >= 0 else _LN10_HI
    return XReal.from_log(math.nextafter(k * ln10, -math.inf))


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
    """(incoming, interacting, outgoing) vectors of one config (``_FAMILIES``)."""
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
    return (incoming, interacting, outgoing)


def calibrated_coefficients(cfg: ExperimentConfig) -> Dict[str, Tuple[float, ...]]:
    """Signed coefficient vectors over POWERS for the three base regimes.

    The operator norms are evaluated at the floor of the axial
    fattening (= the ring half-thickness), which dominates every width,
    so one vector serves the whole sweep range.  The vectors are
    computed once per config; each call returns a new dict (hot paths
    index the cached ``_calibrated(cfg)`` tuple by family instead).
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
_LOG_ENVELOPE_SLACK = ten_pow(-420, "down").log_mag


def envelope_sides(
    cfg: ExperimentConfig,
    regime: str,
    sigma: float,
    zeta: Optional[float] = None,
) -> Tuple[XReal, XReal]:
    """Both sides of the per-width envelope certificate.

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
        lhs = add_up(lhs, mul_up(ring_tail(cfg, sigma, zz, z).log_mag, f64_up(0.5)))
    elif family == "outgoing":
        lhs = add_up(lhs, ring_tail(cfg, sigma, 0.0, z).log_mag)

    coeffs = _calibrated(cfg)[_FAMILY_INDEX[family]]
    rhs = add_down(
        mul_down(exp_neg_log(cfg.rate_exponent(sigma)), f64_down(_poly_nonneg(coeffs, sigma))),
        _LOG_ENVELOPE_SLACK,
    )
    return XReal(lhs), XReal(rhs)


# ----------------------------------------------------------------------
# sampled interval certificates
# ----------------------------------------------------------------------


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

    Each grid is one array pass: the crossings, crossover scales and
    slab heights of all its widths come from one call each, bit-identical
    to the scalar :func:`~abcertify.kinematics.z_crossing` and config
    calls at every width.  A non-finite margin counts as a violation.
    """
    if not n >= 2:
        raise ValueError(f"n must be at least 2, got {n!r}")
    out: Dict[str, Dict[str, float]] = {}

    def record(name: str, margins: np.ndarray, scale: np.ndarray):
        # Some brackets are tight by construction (the spread ratio
        # meets its majorant exactly at the crossover width), so ties
        # get a few-ulp guard; anything beyond that counts.
        guard = 8.0 * np.finfo(float).eps * np.abs(scale)
        out[name] = {
            "violations": int(np.sum(~np.isfinite(margins) | (margins < -guard))),
            "margin": float(np.min(margins)),
        }

    hi_grid = np.geomspace(cfg.sigma0, cfg.sigma_max, n)
    z_hi = z_of_sigma(hi_grid, cfg)
    record(
        "crossing_range_above",
        np.minimum(z_hi - 2.1023e-6, 0.0673 - z_hi),
        z_hi,
    )

    s1_vals = cfg.s1(hi_grid)
    record(
        "crossover_scale_range",
        np.minimum(s1_vals - 0.0042, 303.8306 - s1_vals),
        s1_vals,
    )

    mv = cfg.mv
    ring = np.sqrt(
        cfg.h(hi_grid)
        * cfg.r2 ** 2
        * (hi_grid * mv) ** 3
        / np.maximum(z_hi, s1_vals)
    )
    record("ring_factor_cap", 2.9127e5 - ring, ring)

    spread = np.sqrt((hi_grid * hi_grid * mv) ** 2 + z_hi ** 2) / (hi_grid * mv)
    mid = np.sqrt(hi_grid ** 2 + _RATE * z_hi ** 2 / _RATE_CAP)
    record(
        "spread_ratio_cap",
        np.minimum(mid - spread, 0.0015 - mid),
        np.maximum(mid, spread),
    )

    lo_grid = np.geomspace(cfg.sigma_min, cfg.sigma0, n)
    z_lo = z_of_sigma(lo_grid, cfg)
    ht = cfg.magnet.h_tilde
    record(
        "crossing_range_below",
        np.minimum(z_lo - _Z_OVER_H_LO * ht, _Z_OVER_H_HI * ht - z_lo),
        z_lo,
    )
    return out


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

    def rows(self) -> List[Tuple[str, str]]:
        return [
            ("size_term", self.size_term.to_sci_string()),
            ("spread_term", self.spread_term.to_sci_string()),
            ("additive", self.additive_term.to_sci_string()),
            ("total", self.total.to_sci_string()),
        ]


# The published allowance 4 e^{-r1^2/2mu1^2} + c e^{-rate(mu2)} P(mu2) +
# 10^-101 of a width pair: its size factor, the spread scale c of the
# interacting and outgoing families, and the exponent of its slack.
ALLOWANCE_SIZE = 4.0
ALLOWANCE_SCALE = {"interacting": 1e-3, "outgoing": 1e-7}
ALLOWANCE_SLACK_EXP = -101
_LOG_ALLOWANCE_SIZE = f64_up(ALLOWANCE_SIZE)
_LOG_ALLOWANCE_SLACK = ten_pow(ALLOWANCE_SLACK_EXP).log_mag

# Frozen display coefficients of the detailed single-line bound; kept
# verbatim from the published table so reports match it digit for digit.
_DETAILED = (1.04e14, 3.91e8, -1.41e3, -1.14e-2, 0.0)


class _Row(NamedTuple):
    """One bound of the form :func:`_bound` evaluates."""

    poly: Union[str, Tuple[float, ...]]  # a name picks the calibrated vector
    size: float  # log magnitude of the size factor
    offset: float
    additive: float  # log magnitude of the additive slack
    allowance: float  # the published allowance's scale c, 0 for none


_LOG_SEVEN = f64_up(7.0)
_LOG_TWICE_1E420 = mul_up(ten_pow(-420).log_mag, f64_up(2.0))
_OUTGOING = _Row(
    "outgoing", f64_up(3.0), _SQRT_2, _LOG_TWICE_1E420, ALLOWANCE_SCALE["outgoing"]
)
_REGIME_TABLE: Dict[str, _Row] = {
    "incoming": _Row("incoming", -math.inf, _SQRT_2, ten_pow(-419).log_mag, 0.0),
    "interacting": _Row("interacting", f64_up(2.0031), 2.0,
                        add_up(ten_pow(-420).log_mag, ten_pow(-456).log_mag),
                        ALLOWANCE_SCALE["interacting"]),
    "outgoing": _OUTGOING,
    "scattering": _OUTGOING,
    "uniform": _OUTGOING,
    "detailed": _Row(_DETAILED, _LOG_SEVEN, 0.0,
                     add_up(ten_pow(-101).log_mag, _LOG_TWICE_1E420), 0.0),
}
REGIMES = tuple(_REGIME_TABLE)
# the headline bound 7 e^{-r1^2/2s^2} + 177e3 e^{-rate} + 1e-100, and the
# envelope whose square bounds the interaction probability
_FINAL = _Row((0.0, 0.0, 177e3, 0.0, 0.0), _LOG_SEVEN, 0.0, ten_pow(-100).log_mag, 0.0)
_ENVELOPE = _Row((0.0, 0.0, 177001.0, 0.0, 0.0), _LOG_SEVEN, 0.0, ten_pow(-100).log_mag, 0.0)


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


def _bound_logs(
    cfg: ExperimentConfig, sigma: float, row: _Row
) -> Tuple[float, float, float, float, float]:
    """size e^{-r1^2/2sigma^2} + e^{-rate}(p + offset) + additive for one row.

    p = max(0, P(sigma)) for the row's polynomial P.  A row with c > 0
    adds the published allowance 4 e^{-r1^2/2sigma^2} + c e^{-rate} p +
    10^-101, reported inside the additive term.  The arithmetic runs on
    log magnitudes (the ``xreal`` functions) and returns the signed
    polynomial value and the log magnitudes of the size, spread,
    additive and total terms: ``(poly, size, spread, additive, total)``.
    Callers that compare bounds read these floats; only the functions
    that return a :class:`BoundReport` wrap them.
    """
    coeffs, size_factor, offset, additive, scale = row
    if isinstance(coeffs, str):
        coeffs = _calibrated(cfg)[_FAMILY_INDEX[coeffs]]
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
            add_up(mul_up(size1, _LOG_ALLOWANCE_SIZE), mul_up(rate, f64_up(scale * p))),
            _LOG_ALLOWANCE_SLACK,
        )
        total, additive = add_up(total, allowance), add_up(additive, allowance)
    return poly, size, spread, additive, total


def _bound(cfg: ExperimentConfig, sigma: float, name: str, row: _Row) -> BoundReport:
    """The row's bound at sigma as a :class:`BoundReport` (see :func:`_bound_logs`)."""
    poly, size, spread, additive, total = _bound_logs(cfg, sigma, row)
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


def interaction_probability(cfg: ExperimentConfig, sigma: float) -> XReal:
    """Upper bound on the interaction probability: the squared envelope."""
    total = _bound_logs(cfg, sigma, _ENVELOPE)[4]
    return XReal(mul_up(total, total))


# ----------------------------------------------------------------------
# tables, thresholds, sweeps
# ----------------------------------------------------------------------


def _bisect_log_sigma(
    f: Callable[[float], int], lo: float, hi: float, iters: int = 80
) -> float:
    """Bisection on log(sigma); f returns sign (+1 above target, -1 below).

    :func:`threshold_sigma` passes an f that compares the bound's
    log-magnitude float with the target's as :meth:`XReal.cmp` does, so
    no step builds a :class:`BoundReport`.

    Runs at most ``iters`` steps, and stops early once a step leaves the
    bracket unchanged: f is deterministic, so every later step would
    repeat it, and the result is the one the full loop returns.
    """
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
            if lmid == llo:
                break
            llo = lmid
        else:
            if lmid == lhi:
                break
            lhi = lmid
    return math.exp(0.5 * (llo + lhi))


def threshold_sigma(cfg: ExperimentConfig, target: XReal, branch: str) -> float:
    """Width at which the headline bound crosses ``target``.

    "big": the size term dominates; the bound increases with width and
    the crossing is bracketed by [1e-7, just under the hole radius].
    "small": the spread term dominates; the bound decreases with width
    and the crossing is bracketed by [1e-12, 1e-7].

    Each step compares the headline bound's total log magnitude with
    ``target.log_mag`` exactly as :meth:`XReal.cmp` does, so it orders
    the widths as the reported totals of :func:`final_bound` would,
    without building a :class:`BoundReport`.
    """

    t = target.log_mag

    def sign(s: float) -> int:
        b = _bound_logs(cfg, s, _FINAL)[4]
        return (b > t) - (b < t)

    if branch == "big":
        return _bisect_log_sigma(sign, 1e-7, 0.999 * cfg.r1)
    if branch == "small":
        return _bisect_log_sigma(sign, 1e-12, 1e-7)
    raise ValueError(f"branch must be 'big' or 'small', got {branch!r}")


def plateau_interval(cfg: ExperimentConfig, exponent: int = -99) -> Tuple[float, float]:
    """Width interval on which the headline bound stays below 10**exponent."""
    target = ten_pow(exponent, "down")
    return (
        threshold_sigma(cfg, target, "small"),
        threshold_sigma(cfg, target, "big"),
    )


def size_table(cfg: ExperimentConfig, branch: str, targets: Iterable[int] = range(1, 11)):
    """Rows (target exponent, sigma/r1) for the requested branch."""
    rows = []
    for k in targets:
        s = threshold_sigma(cfg, ten_pow(-k), branch)
        rows.append((k, s / cfg.r1))
    return rows


def angle_table(cfg: ExperimentConfig, targets: Iterable[int] = range(1, 11)):
    """Opening angle (degrees) at the small-branch threshold widths."""
    rows = []
    for k, ratio in size_table(cfg, "small", targets):
        sigma = ratio * cfg.r1
        ang = opening_angle_deg(sigma, cfg.mv)
        rows.append((k, ang))
    return rows


def radius_table(cfg: ExperimentConfig, targets: Iterable[int] = range(1, 11)):
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
    rows = []
    for s in grid:
        rep = final_bound(cfg, float(s))
        rows.append(
            (
                float(s),
                rep.size_term.to_sci_string(),
                rep.spread_term.to_sci_string(),
                rep.additive_term.to_sci_string(),
                rep.total.to_sci_string(),
            )
        )
    return rows


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
            try:
                trial = replace(cfg, eps_scale=float(es), delta_scale=float(ds))
                worst = -math.inf
                for s in probe_sigmas:
                    tot = _bound_logs(trial, float(s), uniform)[4]
                    if tot > worst:
                        worst = tot
                rows.append(
                    {
                        "eps_scale": float(es),
                        "delta_scale": float(ds),
                        "status": "ok",
                        "worst_bound": XReal(worst).to_sci_string(),
                        "worst_log10": worst / math.log(10.0),
                    }
                )
            except ValueError as exc:
                rows.append(
                    {
                        "eps_scale": float(es),
                        "delta_scale": float(ds),
                        "status": "rejected",
                        "reason": str(exc),
                    }
                )
                log.info("parameter pair (%g, %g) rejected: %s", es, ds, exc)
    return rows
