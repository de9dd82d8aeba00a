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
F.  F and G are Chebyshev series on the left half [-1, 0], from a
degree-128 interpolant of the bump, frozen as hex literals and summed by
a scalar Clenshaw loop; the right half follows from F(t) = 1 - F(-t).
Their error is ~1e-16 (``tests/test_fields.py`` rebuilds them and holds
the literals and the rebuild to 1e-14 against 30-digit mpmath at 401
points, and the table's own mass to iota), so no pointwise evaluator
runs a quadrature.  iota, which enters every certified constant, is
scipy's quadrature of the bump frozen to the bit, so nothing in the
package imports scipy; only the tests use it, as an independent check.

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

_Table = Tuple[float, List[float]]  # c0, then the rest highest first

# F's (130 floats) and G's (131) left-half tables and the bump's mass, as
# the degree-128 Chebyshev interpolant built them with numpy 2.4's X86_V4
# np.exp: each table is c0, then the rest highest first, the order
# Clenshaw's recurrence takes them.  They are frozen so that no CPU
# kernel numpy picks moves a field value; tests/test_fields.py rebuilds
# them and holds both to 30-digit mpmath.
_F_HEX = """
    0x1.81fa144ac36eep-3 -0x1.8d5ba5fc96784p-59 0x1.47e539d44a382p-57 -0x1.37a2a733670d8p-58
    0x1.d85e95597a601p-59 -0x1.407975edd503fp-60 -0x1.884b8f42a22a5p-58 0x1.698ed92308cd4p-57
    -0x1.0095009517847p-56 0x1.9b3db20125441p-56 -0x1.aa6f98324b6f4p-56 0x1.131d19be88ff5p-55
    -0x1.09599987d5a84p-55 0x1.ca0090488743ap-56 -0x1.7298a8062e8e3p-56 0x1.fbfac54a66537p-59
    0x1.02b4187f67fe9p-56 -0x1.7f68c595540ecp-55 0x1.56941b2bee848p-54 -0x1.000afada17851p-53
    0x1.592a62737d451p-53 -0x1.a3b88179aff44p-53 0x1.e10392774c55ep-53 -0x1.e66922a373255p-53
    0x1.b7b54caf11f77p-53 -0x1.2d6eda40326bcp-53 0x1.b26cf169d86b8p-56 0x1.33f08fd8cb581p-53
    -0x1.8ff27066f1485p-52 0x1.5d9d27f1d82dfp-51 -0x1.02d097f177901p-50 0x1.57451d771be27p-50
    -0x1.9ff85fa67bef8p-50 0x1.ccb40aa9f6ba9p-50 -0x1.c5d1199237e4fp-50 0x1.78a14c6b94dbfp-50
    -0x1.9063489882fedp-51 -0x1.6b8c95884fb81p-52 0x1.fe3a5cfec29cdp-50 -0x1.07749ab8a8208p-48
    0x1.a797ee32be2c1p-48 -0x1.28fc7e2d811f3p-47 0x1.781482480f979p-47 -0x1.b0458b2a94786p-47
    0x1.bc87ca4307bebp-47 -0x1.8422e3f4496cbp-47 0x1.d93696b79b0e2p-48 0x1.0798156bc9201p-50
    -0x1.b438bdf4c7895p-47 0x1.e6182924df242p-46 -0x1.940c6ef5037a9p-45 0x1.20bf98801a5a3p-44
    -0x1.71390074d9f8bp-44 0x1.a93a02b5d50aep-44 -0x1.b0e65a8feff8ep-44 0x1.6c13d8c36fa37p-44
    -0x1.7aa8685aba66fp-45 -0x1.d4831b65816e7p-46 0x1.1d005d51053f9p-43 -0x1.22e0c1c5a9376p-42
    0x1.d107a84161475p-42 -0x1.4266651156148p-41 0x1.8e69f7fe6707cp-41 -0x1.b4c211a9e1b87p-41
    0x1.9726e5a34ce8ep-41 -0x1.13537b5432560p-41 0x1.004a7b14410efp-46 0x1.a310b04e7efc9p-41
    -0x1.f8f39fc703741p-40 0x1.b18bec66083c1p-39 -0x1.39f8552d44160p-38 0x1.8fccd28e4e141p-38
    -0x1.bf27200f7e564p-38 0x1.a43b520c35617p-38 -0x1.1561406d9b39bp-38 -0x1.69eba9264ad97p-42
    0x1.fdd760732455fp-38 -0x1.28e994e2ae025p-36 0x1.f730b6fbb63ddp-36 -0x1.67209a993ae75p-35
    0x1.bde7ddb72eb76p-35 -0x1.da4f3c09766d5p-35 0x1.8b61fdf472305p-35 -0x1.343ec2bd4b8ddp-36
    -0x1.2b467efa33e97p-35 0x1.ef58cfb71b9aap-34 -0x1.d9d9fda3a47f9p-33 0x1.6b219a7320947p-32
    -0x1.da2cfaf679fcbp-32 0x1.05f2bc43da220p-31 -0x1.c047fdab9bd84p-32 0x1.5728d2e0e2f09p-33
    0x1.7a0a335864d8dp-32 -0x1.35fba2ba609dcp-30 0x1.2935625bf1cfap-29 -0x1.c4de7181de623p-29
    0x1.207c7e6e1516bp-28 -0x1.298f8a4833e7cp-28 0x1.947eb78babfc9p-29 0x1.c151cf8732ab6p-31
    -0x1.072d488e90067p-27 0x1.2fd4cb7fdc589p-26 -0x1.fe309a2b41636p-26 0x1.5a6c42f2bc244p-25
    -0x1.73530f8134dc5p-25 0x1.ee2ccc618702bp-26 0x1.ff1e551f7bca8p-27 -0x1.a4e738e306a43p-24
    0x1.dc055678dfd4ap-23 -0x1.87c0d250eede8p-22 0x1.f5a5a402f16dep-22 -0x1.ba97ceb3d0e20p-22
    0x1.961dfb1209f1fp-26 0x1.e2c1574624b8dp-21 -0x1.4affa88159815p-19 0x1.2a750bdc7b270p-18
    -0x1.88d50b46e770ap-18 0x1.274d2b2e9de11p-18 0x1.00454a4187ac8p-18 -0x1.8a4846c6e373ep-16
    0x1.d5efb205b1012p-15 -0x1.71a451249cc7dp-14 0x1.1e729c45bcc7fp-14 0x1.0d9cf2b41670cp-13
    -0x1.772c5bbb6c56bp-11 0x1.c8bbe2592d5d6p-10 -0x1.0cecb314b28ddp-9 -0x1.5294e40bfc2f2p-7
    0x1.06e3436856672p-4 0x1.08c52249a1325p-2
"""
_G_HEX = """
    0x1.9f34607d82494p-5 -0x1.873eab4f5913fp-68 0x1.455a84cab4ce8p-66 -0x1.c3d350d46f458p-69
    -0x1.a6e8faf1bab5ap-67 0x1.d6621bdf611d8p-68 -0x1.41c81da9a9a71p-66 0x1.9e929cc6fb480p-66
    -0x1.49e7421e0a5b4p-66 0x1.e397a6af7b852p-66 -0x1.675c3a6c54740p-66 0x1.2881143b929f2p-66
    -0x1.c09930e5a5218p-67 -0x1.9029d12966f74p-67 0x1.5e4ff524132a4p-66 -0x1.b350ca9e0b8e8p-65
    0x1.5e3812195eea2p-64 -0x1.d2246df041a1ap-64 0x1.3acadaac448d7p-63 -0x1.6e265ec1bc956p-63
    0x1.91031223cd496p-63 -0x1.7cec4744e06dcp-63 0x1.3f0e88415001ep-63 -0x1.3c28e911d63e0p-64
    -0x1.8b4cc6e314470p-65 0x1.bebd0f6d4a340p-63 -0x1.d5d3b9e9dc8afp-62 0x1.76ffa3c09c29cp-61
    -0x1.0961b51ecb10dp-60 0x1.561f645eed9b8p-60 -0x1.9292f7ff51b8fp-60 0x1.af43ef5784983p-60
    -0x1.9661b1aab5f96p-60 0x1.32c3b9fd0234ap-60 -0x1.8f88fc866e690p-62 -0x1.c063f6a209f8cp-61
    0x1.55b934ea643d5p-59 -0x1.3e4f48094ccaep-58 0x1.e8e47a0213584p-58 -0x1.4eef0d0b5249cp-57
    0x1.a06728b856884p-57 -0x1.d6119bec96ebep-57 0x1.d88ba19a6ec26p-57 -0x1.898eb16bdb322p-57
    0x1.92d5844c534a8p-58 0x1.06c26678d0a50p-58 -0x1.391bda350c5fcp-56 0x1.40d3bbe8f5c39p-55
    -0x1.036756de4bfa0p-54 0x1.6e885104c9cfbp-54 -0x1.d2297a6b2b9b4p-54 0x1.0b8f49f16a81ep-53
    -0x1.0ee7591400603p-53 0x1.bfedab5b0243cp-54 -0x1.a76967c4ba2f8p-55 -0x1.9bf3a15382b90p-55
    0x1.9fb1bfcdc74a2p-53 -0x1.a02d831fd67bcp-52 0x1.4cdb9645e04e4p-51 -0x1.d10f38fec91d4p-51
    0x1.22bb050b99d44p-50 -0x1.4395f90494fa3p-50 0x1.33c12ffbc1a72p-50 -0x1.ae864d89953c0p-51
    0x1.0b188df53d440p-54 0x1.391488681dd64p-50 -0x1.89008f8c78fc8p-49 0x1.5b3215d158a94p-48
    -0x1.028476b47c2cep-47 0x1.5362d70abe707p-47 -0x1.89ee02960f27dp-47 0x1.8675094b48734p-47
    -0x1.20f05d092bef4p-47 0x1.68b958219b670p-50 0x1.7d3e97e04ed8ep-47 -0x1.fa1dc5478b7eep-46
    0x1.ca05052a5386cp-45 -0x1.5931a8956e083p-44 0x1.c5b62ef03687ap-44 -0x1.03499dbaf11b4p-43
    0x1.e7ae740354518p-44 -0x1.26ddc63e09050p-44 -0x1.07f4e4a0950a8p-45 0x1.aaea78e3c0ddep-43
    -0x1.d8f5704b55db0p-42 0x1.8e326f952b792p-41 -0x1.1bc1aedbcc758p-40 0x1.5c10951f0e140p-40
    -0x1.611dbeb9888a4p-40 0x1.e9f367dd2fce0p-41 0x1.435d86c6273d0p-43 -0x1.19da7279023c9p-39
    0x1.5300e62906d91p-38 -0x1.29290b0576b92p-37 0x1.b05a227e16d76p-37 -0x1.08c7aacb45668p-36
    0x1.ff918f8b5fc14p-37 -0x1.0bc4f6b1f3a08p-37 -0x1.4e80866d8fe2ap-37 0x1.61b9c4391a3d3p-35
    -0x1.780d617d66375p-34 0x1.351bfcd0ad9d0p-33 -0x1.a1c45ec697964p-33 0x1.bc968be1d6c91p-33
    -0x1.1381ccd9135b8p-33 -0x1.e9092b1d65984p-34 0x1.3f6d36433fe0ap-31 -0x1.6af6f2a79aedep-30
    0x1.34ec2231538b2p-29 -0x1.a0c4630be4aacp-29 0x1.91bb62b49497cp-29 -0x1.455fe8df40168p-31
    -0x1.9110a5525efefp-28 0x1.38e9712ab0846p-26 -0x1.3a83a9d9df9b7p-25 0x1.dc39c1e76d1fdp-25
    -0x1.e4fa0efc38eedp-25 -0x1.cda4f5a303680p-31 0x1.8f72aaca1cfe4p-23 -0x1.3812610c5c9d7p-21
    0x1.3e797ab85d1fbp-20 -0x1.b1b6cbeb06448p-20 0x1.6e13a569e589cp-22 0x1.c66f1b4664d4ap-18
    -0x1.d5b0c84ddfed6p-16 0x1.1a0582ac71b4ep-14 -0x1.1835c6a2f259dp-14 -0x1.8bac605721dadp-11
    0x1.69b8e156a54f7p-8 0x1.1359c96a0113dp-5 0x1.40414370add52p-4
"""
BUMP_CDF_MASS = float.fromhex("0x1.c6a650a045c5dp-2")


def _table(text: str) -> _Table:
    c0, *rest = map(float.fromhex, text.split())
    return c0, rest


_F_TABLE, _G_TABLE = _table(_F_HEX), _table(_G_HEX)


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
