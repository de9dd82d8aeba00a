"""Extended-range scalar: rounding direction, ordering, and rendering."""

import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcertify.bounds import ten_pow
from abcertify.xreal import (
    XReal,
    _log_add,
    add_down,
    add_up,
    exp_neg_log,
    f64_down,
    f64_up,
    fold_add_logs,
    mul_down,
    mul_up,
)
from oracles import mp_logsumexp, mp_logsumexp_exact, mp_sci_string

# strategy spanning the full 600-decade working range
log_mags = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)
# log magnitudes near 0, where one ulp of a log-sum is far below the
# error of its exp and log1p: the sums' rounding guard must cover them
near_zero_logs = st.floats(min_value=-2.0, max_value=2.0)
sum_logs = st.one_of(log_mags, near_zero_logs)


def ulp_gap(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1.0))


# ----------------------------------------------------------------------
# constructors and special values
# ----------------------------------------------------------------------


def test_zero_and_one():
    z = XReal.zero()
    o = XReal.one()
    assert z.is_zero and not o.is_zero
    assert o.log_mag == 0.0
    assert z.to_f64_clamped() == 0.0
    assert z.to_sci_string() == "0"
    assert o.to_sci_string() == "1.0000×10^+0"


def test_from_log_is_exact():
    x = XReal.from_log(-123.456)
    assert x.log_mag == -123.456 and not x.is_zero


def test_from_f64_rounds_up():
    for v in (1e-300, 0.1, 1.0, 3.7, 1e300):
        x = XReal.from_f64(v)
        assert x.log_mag >= math.log(v)
        assert ulp_gap(x.log_mag, math.log(v)) <= 1.0
    assert XReal.from_f64(0.0).is_zero


def test_from_f64_rejects_negative():
    with pytest.raises(ValueError):
        XReal.from_f64(-1.0)


def test_exp_neg_is_exact():
    x = XReal.exp_neg(230.2585093)
    assert x.log_mag == -230.2585093
    assert x.to_sci_string() == "1.0000×10^-100"


def test_log_minus_inf_is_zero():
    z = XReal.from_log(-math.inf)
    assert z.is_zero
    with pytest.raises(AttributeError):
        z.is_zero = False
    assert XReal.cmp(z, XReal.zero()) == 0 and XReal.cmp(XReal.zero(), z) == 0
    assert XReal.cmp(z, XReal.from_log(-1e300)) == -1
    assert z.add(z).is_zero
    assert z.mul(XReal.one()).is_zero and XReal.from_f64(3.0).mul(z).is_zero
    assert z.pow(2).is_zero
    assert z.to_sci_string() == "0" and z.to_f64_clamped() == 0.0
    assert XReal.exp_neg(math.inf).is_zero
    assert pickle.loads(pickle.dumps(z)).is_zero


def test_immutable_and_picklable():
    x = XReal.from_f64(2.0)
    with pytest.raises(AttributeError):
        x.log_mag = 0.0
    y = pickle.loads(pickle.dumps(x))
    assert y.log_mag == x.log_mag and y.is_zero == x.is_zero


# ----------------------------------------------------------------------
# arithmetic: upper-bound contract
# ----------------------------------------------------------------------


def test_add_upper_bound_contract_bulk():
    # 1e5 random pairs representable in binary64: the rounded sum never
    # falls more than 2 ulp below the true one.
    rng = np.random.default_rng(11)
    a = rng.uniform(1e-6, 1e6, 100_000)
    b = rng.uniform(1e-6, 1e6, 100_000)
    for av, bv in zip(a, b):
        s = XReal.from_f64(av).add(XReal.from_f64(bv)).to_f64_clamped()
        floor = (av + bv) * (1.0 - 2.0 * 2.2e-16)
        assert s >= floor


@given(sum_logs, sum_logs)
@example(-0.7183230794197346, -0.5102680755218074)  # one ulp alone lands low
def test_add_dominates_true_sum(la, lb):
    s = XReal.from_log(la).add(XReal.from_log(lb))
    assert mpmath.mpf(s.log_mag) >= mp_logsumexp_exact([la, lb])


def test_add_up_and_down_bracket_exact_sum_near_zero():
    # one log in [-1, 1], the other in [-40, 1]: the sum's log sits near
    # 0, where a one-ulp step alone misses the step's error
    rng = np.random.default_rng(2024)
    for la, lb in zip(rng.uniform(-1.0, 1.0, 2000), rng.uniform(-40.0, 1.0, 2000)):
        exact = mp_logsumexp_exact([la, lb])
        assert mpmath.mpf(add_down(la, lb)) <= exact <= mpmath.mpf(add_up(la, lb)), (la, lb)
        # the guard costs a few 2^-53, never more than 16 of them
        assert add_up(la, lb) - add_down(la, lb) <= 16 * 2.0**-53


@given(log_mags, log_mags)
def test_add_commutative_bitwise(la, lb):
    a, b = XReal.from_log(la), XReal.from_log(lb)
    assert a.add(b).log_mag == b.add(a).log_mag


@given(log_mags, log_mags, log_mags)
def test_add_associative_within_4_ulp(la, lb, lc):
    a, b, c = (XReal.from_log(v) for v in (la, lb, lc))
    left = a.add(b).add(c).log_mag
    right = a.add(b.add(c)).log_mag
    assert ulp_gap(left, right) <= 4.0


@given(log_mags, log_mags)
def test_mul_rounds_up_one_ulp(la, lb):
    p = XReal.from_log(la).mul(XReal.from_log(lb))
    assert p.log_mag >= la + lb
    assert ulp_gap(p.log_mag, la + lb) <= 1.0


@given(log_mags, st.floats(min_value=0.25, max_value=4.0))
def test_pow_rounds_up_one_ulp(lm, p):
    x = XReal.from_log(lm).pow(p)
    assert x.log_mag >= lm * p
    assert ulp_gap(x.log_mag, lm * p) <= 1.0


def test_identity_elements():
    a = XReal.from_f64(3.7)
    z, o = XReal.zero(), XReal.one()
    assert a.add(z).log_mag == a.log_mag
    assert z.add(a).log_mag == a.log_mag
    assert a.mul(z).is_zero and z.mul(a).is_zero
    assert z.pow(2.0).is_zero
    # multiplying by one costs at most the one-ulp rounding step
    assert 0.0 <= a.mul(o).log_mag - a.log_mag <= math.ulp(a.log_mag)


@given(log_mags, log_mags, log_mags, log_mags)
def test_add_and_mul_are_monotone(la, lb, lc, ld):
    lo_a, hi_a = sorted((la, lb))
    lo_b, hi_b = sorted((lc, ld))
    a_lo, a_hi = XReal.from_log(lo_a), XReal.from_log(hi_a)
    b_lo, b_hi = XReal.from_log(lo_b), XReal.from_log(hi_b)
    assert a_lo.add(b_lo).log_mag <= a_hi.add(b_hi).log_mag
    assert a_lo.mul(b_lo).log_mag <= a_hi.mul(b_hi).log_mag


# ----------------------------------------------------------------------
# ordering and conversion
# ----------------------------------------------------------------------


def test_cmp_orders_by_value():
    small = XReal.from_log(-500.0)
    big = XReal.from_log(500.0)
    z = XReal.zero()
    assert XReal.cmp(small, big) == -1 and XReal.cmp(big, small) == 1
    assert XReal.cmp(small, XReal.from_log(-500.0)) == 0
    assert XReal.cmp(z, small) == -1 and XReal.cmp(small, z) == 1
    assert XReal.cmp(z, XReal.zero()) == 0
    assert XReal.cmp(small, big) != 0
    assert XReal.cmp(XReal.from_log(1.0), XReal.from_log(1.0)) == 0


def test_to_f64_clamped_edges():
    assert XReal.from_log(800.0).to_f64_clamped() == math.inf
    assert XReal.from_log(-800.0).to_f64_clamped() == 0.0
    mid = XReal.from_f64(1234.5)
    assert mid.to_f64_clamped() == pytest.approx(1234.5, rel=1e-12)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_round_trip_within_one_ulp(v):
    x = XReal.from_f64(v)
    back = XReal.from_f64(x.to_f64_clamped())
    assert ulp_gap(back.log_mag, x.log_mag) <= 2.0


# ----------------------------------------------------------------------
# decimal rendering
# ----------------------------------------------------------------------


# log magnitudes of size 1e-6 to ~3e11 (the bounds carry Gaussian tails
# like exp(-5e10)), spread evenly over the decades, plus the range near 0
sweep_log_mags = st.one_of(
    st.floats(min_value=-2000.0, max_value=2000.0),
    st.builds(
        lambda u, neg: -(10.0 ** u) if neg else 10.0 ** u,
        st.floats(min_value=-6.0, max_value=11.5),
        st.booleans(),
    ),
)


@settings(max_examples=400)
@given(sweep_log_mags)
def test_sci_string_matches_reference(lm):
    assert XReal.from_log(lm).to_sci_string() == mp_sci_string(lm)


def test_ten_pow_sci_string_is_exact(decimal_calls):
    # every power of ten, rounded either way and moved by one more ulp,
    # prints as 1.0000×10^k on the float path
    for k in range(-3000, 3001):
        want = f"1.0000×10^{k:+d}"
        for direction in ("up", "down"):
            lm = ten_pow(k, direction).log_mag
            for x in (lm, math.nextafter(lm, -math.inf), math.nextafter(lm, math.inf)):
                assert XReal.from_log(x).to_sci_string() == want
    assert decimal_calls == []


@pytest.mark.parametrize("k", [-130_000_000_017, -2_718_281_829, -31_415_927, 4_000_000_007])
def test_sci_string_around_large_powers_of_ten(k):
    # at |log_mag| ~ 3e11 one ulp moves log10 by ~2.5e-5, so these steps
    # cross the integer k and test both sides of the carry
    with mpmath.workdps(40):
        lm = float(k * mpmath.log(10))
    for _ in range(40):
        lm = math.nextafter(lm, -math.inf)
    for _ in range(80):
        assert XReal.from_log(lm).to_sci_string() == mp_sci_string(lm)
        lm = math.nextafter(lm, math.inf)


@pytest.mark.parametrize(
    "lm",
    [
        -177341249954.35114,
        -207225427234.5295,
        -84680439506.92581,
        651637544820974.1,
        -854145627054886.4,
    ],
)
def test_sci_string_below_a_power_of_ten(lm):
    # lm * log10(e) rounds onto an integer k while the exact value sits
    # 3e-6 to 0.035 below it: the mantissa is 9.2 to 9.9999 at k - 1
    s = XReal.from_log(lm).to_sci_string()
    assert s == mp_sci_string(lm)
    assert s.startswith("9.")


def test_sci_string_near_tie_takes_decimal_fallback(decimal_calls):
    # exp(lm) = 1.23455e7 to ~1e-17 relative: the mantissa sits on a
    # half-even tie to within the float path's error band
    with mpmath.workdps(40):
        lm = float(mpmath.log(mpmath.mpf("1.23455e7")))
        m4 = mpmath.exp(mpmath.mpf(lm)) / 10**3
        assert abs(m4 - mpmath.mpf("12345.5")) < 1e-6
    assert XReal.from_log(lm).to_sci_string() == mp_sci_string(lm)
    assert decimal_calls == [lm]


def test_sci_string_ordinary_values_stay_on_float_path(decimal_calls):
    rng = np.random.default_rng(17)
    mags = 10.0 ** rng.uniform(-6.0, 11.5, 500)
    for lm in np.concatenate([mags, -mags]):
        assert XReal.from_log(float(lm)).to_sci_string() == mp_sci_string(float(lm))
    assert decimal_calls == []


def test_sci_string_huge_magnitudes_take_decimal_fallback(decimal_calls):
    for lm in (1e15, -2.5e16, 7e20):
        assert XReal.from_log(lm).to_sci_string() == mp_sci_string(lm, dps=80)
    assert decimal_calls == [1e15, -2.5e16, 7e20]


def test_sci_string_carry():
    # a mantissa of 9.99996 must round and carry into the exponent
    lm = math.log(9.99996e5)
    s = XReal.from_log(lm).to_sci_string()
    assert s == "1.0000×10^+6"
    assert s == mp_sci_string(lm)


# ----------------------------------------------------------------------
# folded sums
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 40000])
def test_fold_dominates_exact_logsumexp(n):
    # zero slack against a 200-bit sum: wide terms, terms with |log| <= 2
    # (sorted either way and unsorted) and zero (-inf) terms
    rng = np.random.default_rng(7 + n)
    near = rng.uniform(-2.0, 2.0, n)
    holes = rng.uniform(-600.0, 600.0, n)
    holes[rng.random(n) < 0.3] = -math.inf
    cases = [near, holes]
    if n < 40000:  # 200-bit sums of 40,000 terms take ~0.7 s each
        cases += [np.sort(near), np.sort(near)[::-1], rng.uniform(-600.0, 600.0, n)]
    for logs in cases:
        got = fold_add_logs(logs)
        exact = mp_logsumexp_exact(logs)
        if exact == -math.inf:
            assert got == -math.inf
            continue
        assert mpmath.mpf(got) >= exact
        # one upward step and a guard of at most ~60 2^-53 above it
        assert got - float(exact) <= 2.0 * math.ulp(float(exact)) + 64 * 2.0**-53


def test_fold_handles_minus_inf():
    logs = np.array([-math.inf, 2.0, -math.inf, 1.0])
    assert fold_add_logs(logs) == fold_add_logs(np.array([2.0, 1.0]))
    assert fold_add_logs(np.array([-math.inf, -math.inf])) == -math.inf
    assert fold_add_logs(np.array([])) == -math.inf


def test_fold_dominates_true_logsumexp():
    rng = np.random.default_rng(13)
    for n in (2, 11, 257):
        logs = rng.uniform(-50.0, 50.0, n)
        got = fold_add_logs(logs)
        assert mpmath.mpf(got) >= mp_logsumexp_exact(logs)
        ref = mp_logsumexp(logs)
        assert got <= ref + 1e-9 * max(1.0, abs(ref))


@given(st.lists(sum_logs, min_size=1, max_size=40))
def test_fold_dominates_true_logsumexp_any_terms(logs):
    assert mpmath.mpf(fold_add_logs(logs)) >= mp_logsumexp_exact(logs)


# ----------------------------------------------------------------------
# down-rounded functions (lower bounds)
# ----------------------------------------------------------------------


# values over the working range, and values whose logs are near 0
down_values = st.one_of(st.floats(min_value=1e-300, max_value=1e300), near_zero_logs.map(math.exp))


@given(down_values, down_values)
def test_down_helpers_never_exceed_truth(a, b):
    la, lb = f64_down(a), f64_down(b)
    with mpmath.workprec(200):
        assert mpmath.mpf(la) <= mpmath.log(a)
        assert mpmath.mpf(mul_down(la, lb)) <= mpmath.log(mpmath.mpf(a) * mpmath.mpf(b))
    assert mpmath.mpf(add_down(la, lb)) <= mp_logsumexp_exact([la, lb])


def test_down_helpers_zero_and_tightness():
    inf = math.inf
    assert f64_down(0.0) == -inf
    assert f64_down(-3.0) == -inf
    with pytest.raises(ValueError):
        f64_down(math.nan)
    one = f64_down(1.0)
    assert add_down(-inf, one) == one
    assert add_down(one, -inf) == one
    assert mul_down(-inf, one) == -inf
    # down-rounding costs at most a few ulps
    x = f64_down(math.pi)
    assert math.log(math.pi) - x <= 4 * math.ulp(math.log(math.pi))


def test_log_add_infinities_are_exact():
    inf = math.inf
    assert _log_add(-inf, 2.5) == 2.5 and _log_add(2.5, -inf) == 2.5
    assert _log_add(-inf, -inf) == -inf
    assert _log_add(inf, 2.5) == inf and _log_add(inf, inf) == inf
    assert _log_add(inf, -inf) == inf


@given(log_mags, log_mags)
def test_up_and_down_add_bracket_the_step(la, lb):
    step = _log_add(la, lb)
    up = XReal.from_log(la).add(XReal.from_log(lb)).log_mag
    down = add_down(la, lb)
    assert down < step < up


# ----------------------------------------------------------------------
# XReal wraps the float functions
# ----------------------------------------------------------------------

# log magnitudes including both infinities (zero and an absorbing +inf)
extended_logs = st.one_of(log_mags, st.sampled_from([-math.inf, math.inf, 0.0]))
f64_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e308), st.sampled_from([0.0, math.inf, 5e-324])
)


def _same_bits(a: float, b: float) -> bool:
    return float.hex(a) == float.hex(b)


@given(extended_logs, extended_logs)
def test_xreal_add_mul_are_the_float_functions(la, lb):
    xa, xb = XReal(la), XReal(lb)
    assert _same_bits(xa.add(xb).log_mag, add_up(la, lb))
    assert _same_bits(xa.mul(xb).log_mag, mul_up(la, lb))


@given(f64_values, f64_values)
def test_xreal_constructors_are_the_float_functions(v, x):
    assert _same_bits(XReal.from_f64(v).log_mag, f64_up(v))
    assert _same_bits(XReal.exp_neg(x).log_mag, exp_neg_log(x))


@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan])
def test_float_functions_keep_the_input_checks(bad):
    for f in (f64_up, XReal.from_f64, exp_neg_log, XReal.exp_neg):
        with pytest.raises(ValueError):
            f(bad)
