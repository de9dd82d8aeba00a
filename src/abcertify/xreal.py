"""Extended-range nonnegative arithmetic for certified bounds.

The certification pipeline multiplies Gaussian tails like exp(-5e10) by
polynomial prefactors around 1e14.  IEEE binary64 underflows at
~1e-308, so such quantities are carried in the log domain: a value is
``exp(log_mag)`` for a binary64 ``log_mag`` (natural log), and zero is
``log_mag == -inf``.  That representation is comfortable for magnitudes
down to 10**(-10**8) and beyond.

The arithmetic is written once, as module-level functions on log
magnitudes (plain floats): ``f64_up``, ``mul_up`` and ``add_up`` round
*upward* (one ulp on the log magnitude), so any chain of them starting
from exact inputs yields a machine-checked upper bound of the true
real-number result; ``f64_down``, ``mul_down`` and ``add_down`` round
*downward*, for lower bounds (the certificate's allowance side).  Both
directions share the one log-sum step ``_log_add`` (``add_up``, the
hot path, writes it inline), widened by an absolute guard of a few
2^-53 before the directed step, and ``fold_add_logs`` sums many terms
in one guarded, upward-rounded log-sum-exp; both guards are proved
next to ``_log_add``.  A certified value is such a float itself, and
values order as floats; ``XReal`` is only the one-field record of a
``bounds.BoundReport`` term.

The certification boundary -- what the module takes as given rather
than proves:

* ``exp_neg_log(x)`` treats its binary64 argument ``x`` as exact.
  Callers are expected to build ``x`` with ordinary float arithmetic
  rounded in the safe direction before crossing into this module.
* libm's ``log`` (``math.log``, in ``f64_up``/``f64_down`` and the
  fold), ``exp`` and ``log1p`` (``math.exp``, ``math.log1p`` in
  ``_log_add``) and numpy's ``np.exp`` (the fold's terms) are within
  one ulp of the exact value; the guards of ``_log_add`` and
  ``fold_add_logs`` are built on that.  (Measured against 200-bit
  mpmath with glibc's libm and numpy 2.4 on x86-64: at most 0.51, 0.62,
  0.76 and 0.51 ulp for ``math.exp``, ``np.exp``, ``math.log1p`` and
  ``math.log``.)
* The cell ufuncs of the grid majorants are within one ulp of the
  exact value: ``np.log`` and ``np.sqrt`` in ``certify._cell_formula``,
  ``np.hypot`` in ``certify._solve_window`` (rho at interior cell ends)
  and ``math.hypot`` in ``kinematics.rho`` (rho at window ends, once
  each, in ``certify.check_pair``).  (Measured against 200-bit mpmath
  on 200,000 samples each over the arguments of the full sweeps of
  k2/e1 and k1/e3: at most 0.51, 0.50, 0.55 and 0.50 ulp.)  No guard
  widens a cell for them: each cell's log takes only its one upward
  step per operation, which does not cover a relative ulp of rho in
  the b4/b6 weight (r1^2/2) rho^2 when that weight is large.
  numpy picks a kernel for each ufunc at import; the measurements
  above are on X86_V4, the default kernel of float64 ``np.log`` and
  ``np.exp`` on an AVX-512 x86-64.  ``tests/test_kernels.py`` runs each
  kernel below the current one (on such a CPU X86_V3 and baseline) in
  a fresh interpreter and checks that the golden digests and
  the pair bits keep their bits, that ``np.log`` on a Python float
  (a single cell, as a window's one cell and every majorant of a fully
  floored width take it) has the bits of the same cell in an array
  call, and that ``np.log`` on 3,000 seeded cell arguments and
  ``np.exp`` on 6,000 seeded fold shifts in [-1000, 0] are within one
  ulp of 200-bit mpmath (at most 0.50 and 0.63 ulp on X86_V4, 0.50 and
  0.50 on X86_V3 and on baseline; the current kernel is checked in the
  suite's own interpreter).
* ``math.fsum`` returns the correctly rounded sum of its floats.

Negative quantities never enter: bounds are nonnegative by
construction, and signed intermediates (polynomial coefficients and the
like) stay in plain binary64 until their final nonnegative combination
is lifted via ``f64_up``.  Values combine only through the named
functions.

Rendering (``sci_strings``) certifies nothing; it prints each value's
five significant digits.  It runs as one pass of numpy array operations
over all the values: a double-double product gives log10 of each value
to a few 1e-16, and the scaled mantissa is rounded half-even.  Only a
mantissa within 1e-6 of a rounding tie, or |log_mag| >= 1e15, falls back
to ``Decimal`` arithmetic with 50 digits past the exponent's, so each
printed string is the ``Decimal`` one for every input.  A batch costs
~0.55 µs a value past a fixed ~55 µs a call, the string formatting most
of it (the scalar float loop it replaced took ~2-2.4 µs a value;
``Decimal`` takes ~40-50 µs, ~1.3 ms at the 308-digit exponents of the
largest floats).  So a table or a sweep renders its values in one call,
and one value alone costs the fixed part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from typing import List, Sequence, Union

import numpy as np

__all__ = [
    "XReal",
    "add_down",
    "add_up",
    "exp_neg_log",
    "f64_down",
    "f64_up",
    "fold_add_logs",
    "mul_down",
    "mul_up",
    "sci_strings",
]

_INF = math.inf

# log10(e) as a double-double hi + lo, and hi split in two 26-bit
# halves (Veltkamp), for the exact product in sci_strings.
_LOG10_E_HI = 0.4342944819032518
_LOG10_E_LO = 1.098319650216765e-17
_SPLIT = 134217729.0  # 2**27 + 1
_LOG10_E_HI_H = _SPLIT * _LOG10_E_HI - (_SPLIT * _LOG10_E_HI - _LOG10_E_HI)
_LOG10_E_HI_L = _LOG10_E_HI - _LOG10_E_HI_H

# Bands of sci_strings' float path (see its docstring).
_SCI_FAST_LIMIT = 1e15
_SCI_TIE_BAND = 1e-6


def _sci_string_decimal(log_mag: float) -> str:
    """One string of ``sci_strings`` in decimal arithmetic.

    The precision is 50 digits past the integer digits of L·log10(e)
    (at most those of L), and ln 10 is computed at it, so the fraction
    keeps 50 digits for every float L.
    """
    lm = Decimal(log_mag)
    with localcontext() as ctx:
        ctx.prec = 50 + max(lm.adjusted() + 1, 0)
        t = lm / Decimal(10).ln()
        e = int(t.to_integral_value(rounding=ROUND_FLOOR))
        mant = Decimal(10) ** (t - e)  # in [1, 10)
        mant = mant.quantize(Decimal("1.0000"), rounding=ROUND_HALF_EVEN)
        if mant >= 10:
            mant = Decimal("1.0000")
            e += 1
    return f"{mant}×10^{e:+d}"


def _log_add(a: float, b: float) -> float:
    """log(e^a + e^b) before rounding: the one log-sum step.

    A -inf side (zero) returns the other side and a +inf side absorbs,
    both exactly.  Callers widen the result by ``_LOG_ADD_GUARD`` and
    round it in their own direction (see the bound below).
    """
    if a < b:
        a, b = b, a
    if b == -_INF or a == _INF:
        return a
    # shifted log-sum-exp; exp(b - a) <= 1 so no overflow
    return a + math.log1p(math.exp(b - a))


# Error of the log-sum steps, with u = 2^-53 and libm's exp, log and
# log1p (math and numpy) within one ulp, i.e. a relative error <= 2u
# (the certification boundary of the module docstring); up and down
# step one float toward +inf and -inf (``math.nextafter``).
#
# _log_add, a >= b finite, d = b - a <= 0, true value T = a + log1p(e^d):
#   * the shift d^ = fl(b - a) has |d^ - d| <= u|d|, which moves
#     log1p(e^d) by at most u |d| e^d / (1 + e^d) <= 0.28u;
#   * exp's 2u relative error moves log1p(e^d) by at most
#     2u e^d / (1 + e^d) <= u;
#   * log1p's own error is at most 2u log 2 <= 1.39u;
#   so l^ = log1p(exp(d^)) is within E = 2.7u of log1p(e^d).  Underflow
#   (e^d below 2^-1022) costs under 2^-1074 absolute.  The sum
#   r = fl(a + l^) then lies within E of T plus half a float spacing on
#   T's side.  add_up returns up(fl(r + G)) with G = _LOG_ADD_GUARD =
#   6u >= 2E.  That is >= r + G (round-to-nearest leaves the exact sum
#   within one step), and >= up(r) (fl(r + G) >= r).  When the step
#   above r is >= 2E the second covers T; when it is smaller, half of it
#   is below E and the first covers T.  add_down is the mirror image
#   (down(fl(r - G)) <= T).  Far from 0 (|r| > 8) G is under half the
#   float spacing at r, so fl(r +- G) == r and the step is one ulp.
#
# fold_add_logs, terms L_i with max M (exact, one of them), shifts
# d_i = L_i - M, true value T = M + log(sum_i e^{d_i}):
#   * the shifts' rounding moves log(sum) by at most the e-weighted mean
#     of u|d_i|, which is <= 2u D / S for D = -dot(e, d^) and S the sum,
#     both as computed: the factor 2 covers dot's own error (gamma_n <
#     1/2), exp's 2u and the division;
#   * np.exp's 2u relative error on every term moves log(sum) by <= 2u,
#     and terms that underflow to 0 (shifts clamped at -1000) by under
#     n 2^-1074;
#   * math.fsum is correctly rounded: u;
#   * math.log of S: 2u |log S|, and fl(log S + G): u |log S + G|;
#   so G = u (2D/S + 4|log S| + 4) covers all of them: the last two
#   coefficients exceed the 3u each needs by about u, which absorbs G's
#   own rounding, and the factor 2 holds for n < 2^51.  Then up(fl(M +
#   fl(log S + G))) >= T because round-to-nearest leaves the exact sum
#   within one step of the float.
_U = 2.0**-53
_LOG_ADD_GUARD = 6.0 * _U
_SHIFT_FLOOR = -1000.0  # exp of any shift below this is 0.0


# ----------------------------------------------------------------------
# the arithmetic on log magnitudes (-inf is zero)
# ----------------------------------------------------------------------


def f64_up(value: float) -> float:
    """Log of an upper bound of a nonnegative binary64 value.

    ``log(value)`` is correctly rounded to within one ulp by libm, so
    one upward ulp makes the result >= the true log.
    """
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"expected a nonnegative value, got {value!r}")
    if value == 0.0:
        return -_INF
    return math.nextafter(math.log(value), _INF)


def exp_neg_log(x: float) -> float:
    """Log of exp(-x) for x >= 0: -x, exact (the certification boundary)."""
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"exp_neg expects x >= 0, got {x!r}")
    return -x


def mul_up(a: float, b: float) -> float:
    if a == -_INF or b == -_INF:
        return -_INF
    return math.nextafter(a + b, _INF)


def add_up(a: float, b: float) -> float:
    # adding zero is exact, so it skips the rounding step; the rest is
    # _log_add inline
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    if a < b:
        a, b = b, a
    if a == _INF:
        return a
    return math.nextafter(a + math.log1p(math.exp(b - a)) + _LOG_ADD_GUARD, _INF)


def f64_down(v: float) -> float:
    """Log of a lower bound of a binary64 value; nonpositive values give zero."""
    if math.isnan(v):
        raise ValueError(f"expected a number, got {v!r}")
    if v <= 0.0:
        return -_INF
    return math.nextafter(math.log(v), -_INF)


def mul_down(a: float, b: float) -> float:
    if a == -_INF or b == -_INF:
        return -_INF
    return math.nextafter(a + b, -_INF)


def add_down(a: float, b: float) -> float:
    # adding zero is exact; otherwise the mirror image of add_up
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    return math.nextafter(_log_add(a, b) - _LOG_ADD_GUARD, -_INF)


@dataclass(frozen=True)
class XReal:
    """One term of a ``bounds.BoundReport``: a log magnitude (-inf is zero)."""

    log_mag: float


def sci_strings(logs: Union[Sequence[float], np.ndarray]) -> List[str]:
    """Decimal scientific forms ``m.mmmm×10^±e`` of exp(L) for each log magnitude L.

    The digits are exp(L) rounded half-even to five significant figures,
    carrying into the exponent when the mantissa rounds up to 10; +inf
    prints ``inf`` and -inf (zero) ``0``.  One pass of numpy array
    operations gives them.  t = L·log10(e) is taken as a double-double
    product (log10(e) stored as hi + lo, the product by hi made exact by
    Veltkamp splitting) and split into an integer e and a fraction f,
    which is off by at most a few 1e-16 for |L| < 1e15.  Then m4 =
    10**(f+4) (``np.power``, within an ulp or so of libm's pow), off by
    ~1e-10, is rounded to an integer, unless it lies within 1e-6 of a .5
    tie where that error could flip the rounding.
    Near an integer t (every ``ten_pow``) m4 is within ~2e-5 of 1e4 or
    1e5, far from a tie, so it rounds to 1.0000×10^round(t) on either
    side.

    Ties and |L| >= 1e15 (and NaN) go to the ``Decimal`` fallback
    (``_sci_string_decimal``), one value at a time in order, so each
    string is the ``Decimal`` one for every input.
    """
    lm = np.asarray(logs, dtype=np.float64)
    fast = np.abs(lm) < _SCI_FAST_LIMIT  # False for +-inf and NaN
    x = np.where(fast, lm, 0.0)
    # t = x * log10(e) as p + err + x * lo, with p + err exact
    p = x * _LOG10_E_HI
    c = _SPLIT * x
    a_hi = c - (c - x)
    a_lo = x - a_hi
    err = (
        (a_hi * _LOG10_E_HI_H - p) + a_hi * _LOG10_E_HI_L + a_lo * _LOG10_E_HI_H
    ) + a_lo * _LOG10_E_HI_L
    e = np.floor(p)
    # the correction is under one ulp of p, so f lies in (-ulp(p), 1
    # + 1e-16); f >= 1 gives m4 = 1e5 (rounded), which carries
    f = (p - e) + (err + x * _LOG10_E_LO)
    neg = f < 0.0
    f += neg
    e -= neg
    m4 = np.power(10.0, f + 4.0)  # in [1e4, 1e5], give or take a rounding
    n = np.floor(m4)
    frac = m4 - n
    fast &= np.abs(frac - 0.5) >= _SCI_TIE_BAND
    n += frac > 0.5
    carry = n == 100_000.0
    n[carry] = 10_000.0
    e += carry
    head, tail = np.divmod(n.astype(np.int64), 10_000)
    parts = zip(head.tolist(), tail.tolist(), e.astype(np.int64).tolist())
    out = list(map("%d.%04d×10^%+d".__mod__, parts))
    for i in (~fast).nonzero()[0].tolist():
        v = float(lm[i])
        out[i] = "inf" if v == _INF else "0" if v == -_INF else _sci_string_decimal(v)
    return out


def fold_add_logs(logs: Union[Sequence[float], np.ndarray]) -> float:
    """Log of an upper bound of a sum of terms given by their logs (-inf is zero).

    One shifted log-sum-exp, M + log(fsum(exp(L - M))) for the largest
    term M, widened by the guard proved next to ``_log_add`` and rounded
    one step up.  The grid majorants sum a window's cells with it.  -inf
    if every term is zero; +inf if a term is.
    """
    L = np.asarray(logs, dtype=np.float64)
    if L.size == 0:
        return -_INF
    M = float(L.max())
    if math.isinf(M):
        return M
    d = np.maximum(L - M, _SHIFT_FLOOR)
    e = np.exp(d)
    s = math.fsum(e.tolist())
    log_s = math.log(s)
    guard = _U * (-2.0 * float(np.dot(e, d)) / s + 4.0 * abs(log_s) + 4.0)
    return math.nextafter(M + (log_s + guard), _INF)
