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
directions share the one log-sum step ``_log_add``, widened by an
absolute guard of a few 2^-53 before the directed step, and
``fold_add_logs`` sums many terms in one guarded, upward-rounded
log-sum-exp; both guards are proved next to ``_log_add``.  ``XReal``
is a value type: it wraps a log magnitude these functions built, for
ordering (``XReal.cmp``) and printing, and does no arithmetic itself.

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
* ``math.fsum`` returns the correctly rounded sum of its floats.

Negative quantities never enter: bounds are nonnegative by
construction, and signed intermediates (polynomial coefficients and the
like) stay in plain binary64 until their final nonnegative combination
is lifted via ``f64_up``.  There are no operators: values combine
through the named functions and order through ``XReal.cmp``.

Rendering (``to_sci_string``) certifies nothing; it prints a value's
five significant digits.  It runs in plain floats: a double-double
product gives log10 of the value to a few 1e-16, and the scaled
mantissa is rounded half-even.  Only when that mantissa lies within
1e-6 of a rounding tie, or |log_mag| >= 1e15, does it fall back to
50-digit ``Decimal`` arithmetic, so the printed string is the
``Decimal`` one for every input (~1-3 µs a call instead of ~60-80 µs).
"""

from __future__ import annotations

import math
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from typing import Sequence, Union

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
]

_INF = math.inf

# log10(e) to 80 digits, for the Decimal fallback of to_sci_string.
_DEC_LOG10_E = Decimal(
    "0.43429448190325182765112891891660508229439700580366656611445378316586464920887"
)

# log10(e) as a double-double hi + lo, and hi split in two 26-bit
# halves (Veltkamp), for the exact product in XReal.to_sci_string.
_LOG10_E_HI = 0.4342944819032518
_LOG10_E_LO = 1.098319650216765e-17
_SPLIT = 134217729.0  # 2**27 + 1
_LOG10_E_HI_H = _SPLIT * _LOG10_E_HI - (_SPLIT * _LOG10_E_HI - _LOG10_E_HI)
_LOG10_E_HI_L = _LOG10_E_HI - _LOG10_E_HI_H

# Bands of XReal.to_sci_string's float path (see its docstring).
_SCI_FAST_LIMIT = 1e15
_SCI_INT_BAND = 1e-9
_SCI_TIE_BAND = 1e-6


def _sci_string_decimal(log_mag: float) -> str:
    """``XReal.to_sci_string`` in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(log_mag) * _DEC_LOG10_E
        e = int(t.to_integral_value(rounding=ROUND_FLOOR))
        mant = Decimal(10) ** (t - e)  # in [1, 10)
        mant = mant.quantize(Decimal("1.0000"), rounding=ROUND_HALF_EVEN)
        if mant >= 10:
            mant = Decimal("1.0000")
            e += 1
    return f"{mant}×10^{e:+d}"


def _up(x: float) -> float:
    """Round a log magnitude one ulp toward +inf."""
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    """Round a log magnitude one ulp toward -inf."""
    return math.nextafter(x, -_INF)


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
# (the certification boundary of the module docstring).
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
    return _up(math.log(value))


def exp_neg_log(x: float) -> float:
    """Log of exp(-x) for x >= 0: -x, exact (the certification boundary)."""
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"exp_neg expects x >= 0, got {x!r}")
    return -x


def mul_up(a: float, b: float) -> float:
    if a == -_INF or b == -_INF:
        return -_INF
    return _up(a + b)


def add_up(a: float, b: float) -> float:
    # adding zero is exact, so it skips the rounding step
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    return _up(_log_add(a, b) + _LOG_ADD_GUARD)


def f64_down(v: float) -> float:
    """Log of a lower bound of a binary64 value; nonpositive values give zero."""
    if math.isnan(v):
        raise ValueError(f"expected a number, got {v!r}")
    if v <= 0.0:
        return -_INF
    return _down(math.log(v))


def mul_down(a: float, b: float) -> float:
    if a == -_INF or b == -_INF:
        return -_INF
    return _down(a + b)


def add_down(a: float, b: float) -> float:
    # adding zero is exact; otherwise the mirror image of add_up
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    return _down(_log_add(a, b) - _LOG_ADD_GUARD)


class XReal:
    """A nonnegative extended-range scalar, stored as a natural log.

    Instances are immutable; zero is ``log_mag == -inf``.  A value type:
    it carries a log magnitude built by the module functions, orders by
    ``cmp`` and prints by ``to_sci_string``, and does no arithmetic.
    """

    __slots__ = ("log_mag",)

    def __init__(self, log_mag: float):
        object.__setattr__(self, "log_mag", log_mag)

    def __setattr__(self, name, value):
        raise AttributeError("XReal instances are immutable")

    def __reduce__(self):
        # immutability breaks the default slot-based pickling
        return (XReal, (self.log_mag,))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -_INF

    @staticmethod
    def zero() -> "XReal":
        return _ZERO

    @staticmethod
    def from_log(log_mag: float) -> "XReal":
        """The value exp(log_mag), exactly (no inflation); -inf is zero."""
        if math.isnan(log_mag):
            raise ValueError("log magnitude must not be NaN")
        return XReal(float(log_mag))

    @staticmethod
    def cmp(a: "XReal", b: "XReal") -> int:
        """-1, 0 or +1 as a <, ==, > b (by represented value)."""
        return (a.log_mag > b.log_mag) - (a.log_mag < b.log_mag)

    def to_sci_string(self) -> str:
        """Decimal scientific form ``m.mmmm×10^±e`` (4 fractional digits).

        The digits are exp(log_mag) rounded half-even to five significant
        figures, carrying into the exponent when the mantissa rounds up
        to 10.  Plain floats give them.  t = log_mag·log10(e) is taken
        as a double-double product (log10(e) stored as hi + lo, the
        product by hi made exact by Veltkamp splitting) and split into
        an integer e and a fraction f, which is off by at most a few
        1e-16 for |log_mag| < 1e15.  Then:

        * f within 1e-9 of 0 or 1: t is that close to an integer, so
          the answer is 1.0000×10^round(t) on either side (every
          ``ten_pow`` lands here);
        * otherwise m4 = 10**(f+4), off by ~1e-10, is rounded to an
          integer, unless it lies within 1e-6 of a .5 tie where that
          error could flip the rounding.

        Ties and |log_mag| >= 1e15 go to the 50-digit ``Decimal``
        fallback, so the string is the ``Decimal`` one for every input.
        """
        lm = self.log_mag
        if math.isinf(lm):
            return "inf" if lm > 0 else "0"
        if not abs(lm) < _SCI_FAST_LIMIT:
            return _sci_string_decimal(lm)
        # t = lm * log10(e) as p + err + lm * lo, with p + err exact
        p = lm * _LOG10_E_HI
        c = _SPLIT * lm
        a_hi = c - (c - lm)
        a_lo = lm - a_hi
        err = (
            (a_hi * _LOG10_E_HI_H - p) + a_hi * _LOG10_E_HI_L + a_lo * _LOG10_E_HI_H
        ) + a_lo * _LOG10_E_HI_L
        e = math.floor(p)
        # the correction is under one ulp of p, so f lies in (-ulp(p), 1
        # + 1e-16); f >= 1 falls in the near-1 case below
        f = (p - e) + (err + lm * _LOG10_E_LO)
        if f < 0.0:
            f += 1.0
            e -= 1
        if f < _SCI_INT_BAND:
            return f"1.0000×10^{e:+d}"
        if f > 1.0 - _SCI_INT_BAND:
            return f"1.0000×10^{e + 1:+d}"
        m4 = 10.0 ** (f + 4.0)  # in (1e4, 1e5)
        n = math.floor(m4)
        frac = m4 - n
        if abs(frac - 0.5) < _SCI_TIE_BAND:
            return _sci_string_decimal(lm)
        if frac > 0.5:
            n += 1
        if n == 100_000:
            n = 10_000
            e += 1
        digits = str(n)
        return f"{digits[0]}.{digits[1:]}×10^{e:+d}"

    def __repr__(self):
        if self.is_zero:
            return "XReal.zero()"
        return f"XReal.from_log({self.log_mag!r})"


_ZERO = XReal(-_INF)


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
    return _up(M + (log_s + guard))
