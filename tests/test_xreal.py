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
    _LOG_ADD_GUARD,
    _log_add,
    add_down,
    add_up,
    exp_neg_log,
    f64_down,
    f64_up,
    fold_add_logs,
    mul_down,
    mul_up,
    sci_strings,
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
    o = XReal.from_log(0.0)
    assert z.is_zero and not o.is_zero
    assert z.log_mag == -math.inf
    assert z.to_sci_string() == "0"
    assert o.to_sci_string() == "1.0000×10^+0"


def test_from_log_is_exact():
    x = XReal.from_log(-123.456)
    assert x.log_mag == -123.456 and not x.is_zero


def test_from_f64_rounds_up():
    for v in (1e-300, 0.1, 1.0, 3.7, 1e300):
        lm = f64_up(v)
        assert lm >= math.log(v)
        assert ulp_gap(lm, math.log(v)) <= 1.0
    assert f64_up(0.0) == -math.inf


def test_from_f64_rejects_negative():
    with pytest.raises(ValueError):
        f64_up(-1.0)


def test_exp_neg_is_exact():
    x = XReal(exp_neg_log(230.2585093))
    assert x.log_mag == -230.2585093
    assert x.to_sci_string() == "1.0000×10^-100"


def test_log_minus_inf_is_zero():
    z = XReal.from_log(-math.inf)
    assert z.is_zero
    with pytest.raises(AttributeError):
        z.is_zero = False
    assert XReal.cmp(z, XReal.zero()) == 0 and XReal.cmp(XReal.zero(), z) == 0
    assert XReal.cmp(z, XReal.from_log(-1e300)) == -1
    inf = math.inf
    assert add_up(-inf, -inf) == -inf
    assert mul_up(-inf, 0.0) == -inf and mul_up(f64_up(3.0), -inf) == -inf
    assert z.to_sci_string() == "0"
    assert exp_neg_log(inf) == -inf
    assert pickle.loads(pickle.dumps(z)).is_zero


def test_immutable_and_picklable():
    x = XReal(f64_up(2.0))
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
        s = math.exp(add_up(f64_up(av), f64_up(bv)))
        floor = (av + bv) * (1.0 - 2.0 * 2.2e-16)
        assert s >= floor


@given(sum_logs, sum_logs)
@example(-0.7183230794197346, -0.5102680755218074)  # one ulp alone lands low
def test_add_dominates_true_sum(la, lb):
    assert mpmath.mpf(add_up(la, lb)) >= mp_logsumexp_exact([la, lb])


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
    assert add_up(la, lb) == add_up(lb, la)


@given(log_mags, log_mags, log_mags)
def test_add_associative_within_4_ulp(la, lb, lc):
    left = add_up(add_up(la, lb), lc)
    right = add_up(la, add_up(lb, lc))
    assert ulp_gap(left, right) <= 4.0


@given(log_mags, log_mags)
def test_mul_rounds_up_one_ulp(la, lb):
    p = mul_up(la, lb)
    assert p >= la + lb
    assert ulp_gap(p, la + lb) <= 1.0


def test_identity_elements():
    a = f64_up(3.7)
    z, o = -math.inf, 0.0
    assert add_up(a, z) == a
    assert add_up(z, a) == a
    assert mul_up(a, z) == z and mul_up(z, a) == z
    # multiplying by one costs at most the one-ulp rounding step
    assert 0.0 <= mul_up(a, o) - a <= math.ulp(a)


@given(log_mags, log_mags, log_mags, log_mags)
def test_add_and_mul_are_monotone(la, lb, lc, ld):
    lo_a, hi_a = sorted((la, lb))
    lo_b, hi_b = sorted((lc, ld))
    assert add_up(lo_a, lo_b) <= add_up(hi_a, hi_b)
    assert mul_up(lo_a, lo_b) <= mul_up(hi_a, hi_b)


# ----------------------------------------------------------------------
# ordering
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


def _ten_pow_neighbours():
    # every power of ten, rounded either way and moved by one more ulp
    lms, want = [], []
    for k in range(-3000, 3001):
        for direction in ("up", "down"):
            lm = ten_pow(k, direction).log_mag
            lms += [lm, math.nextafter(lm, -math.inf), math.nextafter(lm, math.inf)]
            want += [f"1.0000×10^{k:+d}"] * 3
    return lms, want


def test_ten_pow_sci_string_is_exact(decimal_calls):
    # each prints as 1.0000×10^k on the float path, in one batch
    lms, want = _ten_pow_neighbours()
    assert sci_strings(lms) == want
    assert decimal_calls == []


@pytest.mark.parametrize("k", [-130_000_000_017, -2_718_281_829, -31_415_927, 4_000_000_007])
def test_sci_string_around_large_powers_of_ten(k):
    # at |log_mag| ~ 3e11 one ulp moves log10 by ~2.5e-5, so these steps
    # cross the integer k and test both sides of the carry
    with mpmath.workdps(40):
        lm = float(k * mpmath.log(10))
    for _ in range(40):
        lm = math.nextafter(lm, -math.inf)
    lms = []
    for _ in range(80):
        lms.append(lm)
        lm = math.nextafter(lm, math.inf)
    assert sci_strings(lms) == [mp_sci_string(lm) for lm in lms]


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
    lms = np.concatenate([mags, -mags])
    assert sci_strings(lms) == [mp_sci_string(float(lm)) for lm in lms]
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


def _tie_log():
    # exp(lm) = 1.23455e7 to ~1e-17 relative (see the fallback test above)
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.mpf("1.23455e7")))


def test_sci_strings_batch_of_mixed_values(decimal_calls):
    # one batch of every kind of input: zero, +inf, ordinary values, a
    # carry, a tie, values below a power of ten and huge magnitudes; each
    # string is the reference one, and the Decimal fallback sees the tie
    # and the huge magnitudes, in order
    tie = _tie_log()
    lms = [-math.inf, 0.0, math.log(9.99996e5), -177341249954.35114, 1e15, tie,
           -123.456, math.inf, -2.5e16, 651637544820974.1, 7e20, -0.0]
    got = sci_strings(np.array(lms))
    assert decimal_calls == [1e15, tie, -2.5e16, 7e20]
    want = ["0" if lm == -math.inf else "inf" if lm == math.inf else mp_sci_string(lm, dps=80)
            for lm in lms]
    assert got == want
    # the one-value path is the same function
    del decimal_calls[:]
    assert [XReal(lm).to_sci_string() for lm in lms] == want
    assert decimal_calls == [1e15, tie, -2.5e16, 7e20]


def test_sci_strings_special_and_empty():
    assert sci_strings([]) == []
    assert sci_strings([math.inf, -math.inf]) == ["inf", "0"]
    assert sci_strings(np.array([0.0, -0.0])) == ["1.0000×10^+0", "1.0000×10^+0"]
    with pytest.raises(ValueError):  # a NaN log magnitude has no digits
        sci_strings([1.0, math.nan])


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
@example(math.inf, 2.5)
@example(math.inf, math.inf)
@example(-math.inf, math.inf)
def test_add_up_inlines_the_log_add_step(la, lb):
    # add_up writes _log_add inline; both must give the same bits
    want = math.nextafter(_log_add(la, lb) + _LOG_ADD_GUARD, math.inf)
    if la == -math.inf or lb == -math.inf:
        want = max(la, lb)  # adding zero is exact
    assert float.hex(add_up(la, lb)) == float.hex(want)


@given(log_mags, log_mags)
def test_up_and_down_add_bracket_the_step(la, lb):
    step = _log_add(la, lb)
    up = add_up(la, lb)
    down = add_down(la, lb)
    assert down < step < up


# ----------------------------------------------------------------------
# input checks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan])
def test_float_functions_keep_the_input_checks(bad):
    for f in (f64_up, exp_neg_log):
        with pytest.raises(ValueError):
            f(bad)
