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
directions share the one log-sum step ``_log_add``.  ``XReal`` wraps a
log magnitude, and its methods are one-line calls of these functions,
so a hot loop can run on floats and wrap only its results, bit for bit
the same.  The one deliberate boundary: ``exp_neg_log(x)`` (and
``XReal.exp_neg``) treats its binary64 argument ``x`` as exact.
Callers are expected to build ``x`` with ordinary float arithmetic
rounded in the safe direction before crossing into this module.

Negative quantities never enter: bounds are nonnegative by
construction, and signed intermediates (polynomial coefficients and the
like) stay in plain binary64 until their final nonnegative combination
is lifted via ``from_f64``.  There are no operators: values combine
through the named methods and order through ``XReal.cmp``.

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
    both exactly.  Callers round the result in their own direction.
    """
    if a < b:
        a, b = b, a
    if b == -_INF or a == _INF:
        return a
    # shifted log-sum-exp; exp(b - a) <= 1 so no overflow
    return a + math.log1p(math.exp(b - a))


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
    return _up(_log_add(a, b))


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
    # adding zero is exact; otherwise two downward steps
    if a == -_INF:
        return b
    if b == -_INF:
        return a
    return _down(_down(_log_add(a, b)))


class XReal:
    """A nonnegative extended-range scalar, stored as a natural log.

    Instances are immutable; zero is ``log_mag == -inf``.  All rounding
    is upward, so results are certified upper bounds of the exact real
    arithmetic; each method is the module function of the same step.
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

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero() -> "XReal":
        return _ZERO

    @staticmethod
    def one() -> "XReal":
        return _ONE

    @staticmethod
    def from_log(log_mag: float) -> "XReal":
        """The value exp(log_mag), exactly (no inflation); -inf is zero."""
        if math.isnan(log_mag):
            raise ValueError("log magnitude must not be NaN")
        return XReal(float(log_mag))

    @staticmethod
    def from_f64(value: float) -> "XReal":
        """Upper bound of a nonnegative binary64 value (``f64_up``)."""
        return XReal(f64_up(value))

    @staticmethod
    def exp_neg(x: float) -> "XReal":
        """exp(-x) for x >= 0, exact in the log representation (``exp_neg_log``)."""
        return XReal(exp_neg_log(x))

    # ------------------------------------------------------------------
    # arithmetic (all upward-rounded)
    # ------------------------------------------------------------------

    def add(self, other: "XReal") -> "XReal":
        return XReal(add_up(self.log_mag, other.log_mag))

    def mul(self, other: "XReal") -> "XReal":
        return XReal(mul_up(self.log_mag, other.log_mag))

    def pow(self, p: float) -> "XReal":
        if self.log_mag == -_INF:
            if p > 0:
                return _ZERO
            raise ValueError("0 cannot be raised to a nonpositive power")
        return XReal(_up(self.log_mag * p))

    @staticmethod
    def cmp(a: "XReal", b: "XReal") -> int:
        """-1, 0 or +1 as a <, ==, > b (by represented value)."""
        return (a.log_mag > b.log_mag) - (a.log_mag < b.log_mag)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_f64_clamped(self) -> float:
        """Nearest binary64, saturating to 0.0 / inf out of range."""
        try:
            return math.exp(self.log_mag)  # underflows to 0.0 gracefully
        except OverflowError:
            return _INF

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
_ONE = XReal(0.0)


def fold_add_logs(logs: Union[Sequence[float], np.ndarray]) -> float:
    """Log magnitude of a sum of terms given by their logs (-inf is zero).

    A strict left fold of ``add_up``, bit for bit; the grid
    majorants sum a window's cells with it.  -inf if every term is zero.
    """
    acc = -_INF
    for lm in np.asarray(logs, dtype=np.float64).tolist():
        if lm != -_INF:  # _up inlined: this loop runs per grid cell
            acc = lm if acc == -_INF else math.nextafter(_log_add(acc, lm), _INF)
    return acc
