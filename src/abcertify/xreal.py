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
"""

from __future__ import annotations

import math
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "XReal",
    "fold_add_logs",
    "sum_xreals",
]

_INF = math.inf

# log10(e) to 80 digits; used only inside Decimal contexts.
_DEC_LOG10_E = Decimal(
    "0.43429448190325182765112891891660508229439700580366656611445378316586464920887"
)


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

        The mantissa is computed in 50-digit decimal arithmetic from the
        binary log magnitude, so the printed digits are faithful for any
        exponent this type can carry.
        """
        if self.is_zero:
            return "0"
        if math.isinf(self.log_mag):
            return "inf" if self.log_mag > 0 else "0"
        with localcontext() as ctx:
            ctx.prec = 50
            t = Decimal(self.log_mag) * _DEC_LOG10_E
            e = int(t.to_integral_value(rounding=ROUND_FLOOR))
            mant = Decimal(10) ** (t - e)  # in [1, 10)
            mant = mant.quantize(Decimal("1.0000"), rounding=ROUND_HALF_EVEN)
            if mant >= 10:
                mant = Decimal("1.0000")
                e += 1
        return f"{mant}×10^{e:+d}"

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


def sum_xreals(items: Iterable[XReal]) -> XReal:
    """Upper-bound sum of XReal values via :func:`fold_add_logs`."""
    logs = [(-_INF if x.is_zero else x.log_mag) for x in items]
    lm = fold_add_logs(np.asarray(logs, dtype=np.float64))
    if lm == -_INF:
        return _ZERO
    return XReal(False, lm)
