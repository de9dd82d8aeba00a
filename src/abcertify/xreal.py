"""Extended-range nonnegative arithmetic for certified upper bounds.

The certification pipeline multiplies Gaussian tails like exp(-5e10) by
polynomial prefactors around 1e14.  IEEE binary64 underflows at
~1e-308, so such quantities are carried in the log domain: a value is
either exactly zero or ``exp(log_mag)`` for a binary64 ``log_mag``
(natural log).  That representation is comfortable for magnitudes down
to 10**(-10**8) and beyond.

Every operation that rounds is rounded *upward* (one ulp on the log
magnitude), so any chain of ``add``/``mul``/``pow`` starting from exact
inputs yields a machine-checked upper bound of the true real-number
result.  The one deliberate boundary: ``exp_neg(x)`` treats its
binary64 argument ``x`` as exact.  Callers are expected to build ``x``
with ordinary float arithmetic rounded in the safe direction before
crossing into this module.

Negative quantities never enter: bounds are nonnegative by
construction, and signed intermediates (polynomial coefficients and the
like) stay in plain binary64 until their final nonnegative combination
is lifted via ``from_f64``.

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
    "fold_add_logs",
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


class XReal:
    """A nonnegative extended-range scalar, stored as a natural log.

    Instances are immutable.  Arithmetic is available both as methods
    (``a.add(b)``) and operators (``a + b``); comparisons order by true
    value.  All rounding is upward, so results are certified upper
    bounds of the exact real arithmetic.
    """

    __slots__ = ("is_zero", "log_mag")

    def __init__(self, is_zero: bool, log_mag: float):
        object.__setattr__(self, "is_zero", bool(is_zero))
        object.__setattr__(self, "log_mag", 0.0 if is_zero else float(log_mag))

    def __setattr__(self, name, value):
        raise AttributeError("XReal instances are immutable")

    def __reduce__(self):
        # immutability breaks the default slot-based pickling
        return (XReal, (self.is_zero, self.log_mag))

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
        """The value exp(log_mag), exactly (no inflation)."""
        if math.isnan(log_mag):
            raise ValueError("log magnitude must not be NaN")
        return XReal(False, log_mag)

    @staticmethod
    def from_f64(value: float) -> "XReal":
        """Upper bound of a nonnegative binary64 value.

        ``log(value)`` is correctly rounded to within one ulp by libm,
        so one upward ulp makes the stored magnitude >= the true log.
        """
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"expected a nonnegative value, got {value!r}")
        if value == 0.0:
            return _ZERO
        if math.isinf(value):
            return XReal(False, _INF)
        return XReal(False, _up(math.log(value)))

    @staticmethod
    def exp_neg(x: float) -> "XReal":
        """exp(-x) for x >= 0, exact in the log representation.

        The argument is treated as an exact binary64 number; this is
        the certification boundary documented in the module docstring.
        """
        if math.isnan(x) or x < 0.0:
            raise ValueError(f"exp_neg expects x >= 0, got {x!r}")
        if math.isinf(x):
            return _ZERO
        return XReal(False, -x)

    # ------------------------------------------------------------------
    # arithmetic (all upward-rounded)
    # ------------------------------------------------------------------

    def add(self, other: "XReal") -> "XReal":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = self.log_mag, other.log_mag
        if a >= b:
            hi, lo = a, b
        else:
            hi, lo = b, a
        if math.isinf(hi):
            return XReal(False, hi)
        # shifted log-sum-exp; exp(lo-hi) <= 1 so no overflow
        return XReal(False, _up(hi + math.log1p(math.exp(lo - hi))))

    def mul(self, other: "XReal") -> "XReal":
        if self.is_zero or other.is_zero:
            return _ZERO
        return XReal(False, _up(self.log_mag + other.log_mag))

    def pow(self, p: float) -> "XReal":
        if self.is_zero:
            if p > 0:
                return _ZERO
            raise ValueError("0 cannot be raised to a nonpositive power")
        return XReal(False, _up(self.log_mag * p))

    @staticmethod
    def cmp(a: "XReal", b: "XReal") -> int:
        """-1, 0 or +1 as a <, ==, > b (by represented value)."""
        if a.is_zero and b.is_zero:
            return 0
        if a.is_zero:
            return -1
        if b.is_zero:
            return 1
        if a.log_mag < b.log_mag:
            return -1
        if a.log_mag > b.log_mag:
            return 1
        return 0

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_f64_clamped(self) -> float:
        """Nearest binary64, saturating to 0.0 / inf out of range."""
        if self.is_zero:
            return 0.0
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
        if self.is_zero:
            return "0"
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

    # ------------------------------------------------------------------
    # operators / protocol glue
    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, XReal):
            return self.add(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, XReal):
            return self.mul(other)
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, (int, float)):
            return self.pow(p)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, XReal):
            return XReal.cmp(self, other) == 0
        return NotImplemented

    def __lt__(self, other):
        return XReal.cmp(self, other) < 0

    def __le__(self, other):
        return XReal.cmp(self, other) <= 0

    def __gt__(self, other):
        return XReal.cmp(self, other) > 0

    def __ge__(self, other):
        return XReal.cmp(self, other) >= 0

    def __hash__(self):
        return hash((self.is_zero, self.log_mag))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return "XReal.zero()"
        return f"XReal.from_log({self.log_mag!r})"

    def __str__(self):
        return self.to_sci_string()


_ZERO = XReal(True, 0.0)
_ONE = XReal(False, 0.0)


# ----------------------------------------------------------------------
# bulk folding of log-domain terms
# ----------------------------------------------------------------------
#
# The grid majorants sum a window's cells in one call.  The sum is a
# strict left fold of XReal.add over the term logs (zeros encoded as
# -inf), so for finite and -inf terms the result is bit-identical to
# the scalar loop.


def fold_add_logs(logs: Union[Sequence[float], np.ndarray]) -> float:
    """Left fold of upward-rounded log-sum-exp; -inf encodes zero terms.

    Returns the log magnitude of the sum (-inf if every term is zero).
    """
    acc = -_INF
    for lm in logs:
        lm = float(lm)
        if lm == -_INF:
            continue
        if acc == -_INF:
            acc = lm
            continue
        if acc >= lm:
            hi, lo = acc, lm
        else:
            hi, lo = lm, acc
        acc = math.nextafter(hi + math.log1p(math.exp(lo - hi)), _INF)
    return acc
