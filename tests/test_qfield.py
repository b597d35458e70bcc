"""Exact arithmetic in Q(q): canonical forms, field axioms, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqa22.qfield import (
    _FACTORS,
    QPoly,
    QRat,
    _div_monic,
    _divmod_monic,
    _factor_exponents,
    _list_gcd,
    _reduce,
    _reduce_euclid,
    qnum,
    qpow,
)

q = qpow(1)


def test_normalize_polynomial_division():
    assert (q ** 2 - 1) / (q - 1) == q + 1


def test_normalize_zero_numerator():
    assert (qnum(0) / qpow(3)).is_zero()


def test_normalize_cancels_common_factor():
    x = q - qpow(-1)
    assert x * x / x == x


def test_normalize_is_scale_invariant():
    a, b, c = q ** 2 + 1, q - 3, q ** 3 + q
    assert (a * c) / (b * c) == a / b


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        QRat(QPoly.one(), QPoly.zero())


def test_add_example():
    s = q + qpow(-1)
    assert s == QRat(QPoly.from_terms({1: 1, -1: 1}))
    assert s.eval(2) == Fraction(5, 2)


def test_gamma_inversion_at_rational_point():
    from uqa22.blocks import kernel_value
    x0 = qnum(Fraction(3, 7))
    assert kernel_value("gamma", x0) * kernel_value("gamma", x0.inv()) == qnum(1)


def test_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        qnum(0).inv()


def test_eval_simple():
    assert (q - qpow(-1)).eval(2) == Fraction(3, 2)


def test_eval_removable_singularity_after_normalization():
    # (q^2-1)/(q-1) normalizes to q+1, so q0 = 1 is fine afterwards
    assert ((q ** 2 - 1) / (q - 1)).eval(1) == 2
    with pytest.raises(ZeroDivisionError, match="pole"):
        (qnum(1) / (q - 1)).eval(1)


def test_eval_alpha_at_zero_argument():
    from uqa22.blocks import kernel_value
    val = kernel_value("alpha", qnum(0))
    assert val == q
    assert val.eval(Fraction(5, 3)) == Fraction(5, 3)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=5)


def polys(max_terms=3):
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4), small_fracs,
        max_size=max_terms).map(QPoly.from_terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_canonical_form_equality(a, b, c):
    if b.is_zero() or c.is_zero():
        return
    assert QRat(a * c, b * c) == QRat(a, b)


def qrats():
    return st.tuples(polys(), polys()).filter(lambda t: not t[1].is_zero()) \
        .map(lambda t: QRat(*t))


@settings(max_examples=60, deadline=None)
@given(qrats(), qrats(), qrats())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inv() == qnum(1)


@settings(max_examples=60, deadline=None)
@given(qrats(), qrats(), st.sampled_from(["add", "sub", "mul", "div"]))
def test_evaluation_homomorphism(a, b, op):
    q0 = Fraction(5, 3)
    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "mul": lambda x, y: x * y, "div": lambda x, y: x / y}
    try:
        lhs = ops[op](a, b).eval(q0)
        rhs = ops[op](a.eval(q0), b.eval(q0))
    except ZeroDivisionError:
        return
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(qrats())
def test_json_round_trip(a):
    assert QRat.from_json(a.to_json()) == a


def test_canonical_denominator_shape():
    x = qnum(1) / (qpow(-2) + q)   # den q + q^-2 shifts to q^3 + 1
    assert x.den.valuation() == 0
    assert x.den.leading_coeff() == 1


# -- storage invariant: int when integral, Fraction only when not --------

def assert_canonical_coeffs(p: QPoly):
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            f"non-canonical coefficient {c!r} in {p}"


def assert_canonical(x: QRat):
    assert_canonical_coeffs(x.num)
    assert_canonical_coeffs(x.den)


def test_integral_fractions_are_stored_as_int():
    p = QPoly(-1, [Fraction(4, 2), Fraction(1, 3), Fraction(0), True])
    assert p.coeffs == (2, Fraction(1, 3), 0, 1)
    assert [type(c) for c in p.coeffs] == [int, Fraction, int, int]
    assert p == QPoly(-1, [2, Fraction(1, 3), 0, 1])
    assert hash(p) == hash(QPoly(-1, [2, Fraction(1, 3), 0, 1]))


@pytest.mark.parametrize("c", [0, 1, -1, 7, 10**30, Fraction(1, 2),
                               Fraction(-3, 7), Fraction(4, 2)])
def test_a_constant_hashes_like_the_number_it_equals(c):
    x = QRat(c)
    assert x == c and hash(x) == hash(c)
    assert len({x, c}) == 1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="not an exact rational"):
        QPoly(0, [0.5])
    with pytest.raises(TypeError, match="not an exact rational"):
        QRat(0.5)


@settings(max_examples=80, deadline=None)
@given(qrats(), qrats(), small_fracs, st.integers(min_value=-3, max_value=3))
def test_operations_keep_canonical_coefficient_types(a, b, c, k):
    results = [a + b, a - b, a * b, -a, a.num.scale(c), a.den.scale(c),
               QRat.from_json(a.to_json()), QPoly.from_json(a.num.to_json())]
    if not b.is_zero():
        results += [a / b, b.inv()]
    if not a.is_zero() or k >= 0:
        results.append(a ** k)
    for x in results:
        if isinstance(x, QPoly):
            assert_canonical_coeffs(x)
        else:
            assert_canonical(x)


@settings(max_examples=60, deadline=None)
@given(qrats(), st.integers(min_value=-5, max_value=5).filter(bool))
def test_eval_at_int_point_is_a_fraction(a, q0):
    try:
        value = a.eval(q0)
    except ZeroDivisionError:
        return
    assert type(value) is Fraction
    assert type(a.num.eval(q0)) is Fraction


def test_eval_negative_powers_at_int_point_is_a_fraction():
    x = qpow(-3, 2) + qpow(-1)
    assert x.eval(2) == Fraction(3, 4)
    assert type(x.eval(2)) is Fraction
    assert type(x.num.eval(2)) is Fraction
    y = qnum(1) / (qnum(1) + qpow(3))
    assert y.eval(-2) == Fraction(-1, 7)
    assert type(y.eval(-2)) is Fraction
    assert type(QPoly.zero().eval(3)) is Fraction


def _term_by_term(p, q0):
    return sum((c * q0 ** e for e, c in p.terms()), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(qrats(), st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                 Fraction(2), Fraction(-3, 2), Fraction(5, 7)]))
def test_eval_pair_is_an_integer_pair_of_the_value(a, q0):
    try:
        want = _term_by_term(a.num, q0) / _term_by_term(a.den, q0)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="pole at q0"):
            a.eval_pair(q0.numerator, q0.denominator)
        return
    for x in (a, a.num):
        top, bottom = x.eval_pair(q0.numerator, q0.denominator)
        assert type(top) is int and type(bottom) is int
        assert Fraction(top, bottom) == x.eval(q0)
    assert Fraction(*a.eval_pair(q0.numerator, q0.denominator)) == want


# -- reduction: trial division over the factors of 1+q^3 vs Euclid --------

def _power(f, e):
    out = QPoly.one()
    for _ in range(e):
        out = out * QPoly(0, f)
    return out


int_or_frac = st.one_of(
    st.integers(min_value=-6, max_value=6), small_fracs)
dense_polys = st.lists(int_or_frac, min_size=1, max_size=5).map(
    lambda cs: QPoly(0, cs)).filter(lambda p: not p.is_zero())
exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(_FACTORS))


def test_engine_denominators_take_the_fast_path():
    assert _factor_exponents((1, 0, 0, 1)) == (1, 1, 0)        # 1+q^3
    assert _factor_exponents((2, 0, 0, 2)) == (1, 1, 0)        # 2+2q^3
    assert _factor_exponents((-1, 0, 1)) == (1, 0, 1)          # q^2-1
    assert _factor_exponents((1, 0, 0, 2, 0, 0, 1)) == (2, 2, 0)
    assert _factor_exponents((1, 0, 1)) is None                # 1+q^2
    assert _factor_exponents((1, 1, 1)) is None                # 1+q+q^2


@settings(max_examples=120, deadline=None)
@given(dense_polys, exponents, exponents,
       int_or_frac.filter(bool), st.integers(min_value=-3, max_value=3))
def test_fast_reduction_equals_euclid(u, num_exps, den_exps, c, shift):
    num = u.shift(shift)
    den = QPoly(0, [c])
    for f, i, j in zip(_FACTORS, num_exps, den_exps):
        num = num * _power(f, i)
        den = den * _power(f, j)
    a = list(num.shift(-num.valuation()).coeffs)
    b = list(den.coeffs)
    assert _factor_exponents(tuple(b)) is not None or len(b) == 1
    fa, fb = _reduce(a, b)
    ea, eb = _reduce_euclid(a, b)
    assert QPoly(0, fa) == QPoly(0, ea)
    assert QPoly(0, fb) == QPoly(0, eb)
    assert [type(x) for x in QPoly(0, fa).coeffs] == \
        [type(x) for x in QPoly(0, ea).coeffs]
    x = QRat(num, den)
    assert_canonical(x)
    assert x.den.leading_coeff() == 1 and x.den.valuation() == 0
    assert _list_gcd(x.num.coeffs, x.den.coeffs) == [1]
    assert x * QRat(den) == QRat(num)


@settings(max_examples=60, deadline=None)
@given(dense_polys, exponents, exponents, st.sampled_from([
    QPoly(0, [1, 0, 1]), QPoly(0, [2, 1]), QPoly(0, [1, 1, 1, 1, 1]),
    QPoly(0, [Fraction(1, 2), 0, 0, 1])]))
def test_unlisted_denominator_factor_still_reduces(u, num_exps, den_exps, g):
    num, den = u, g
    for f, i, j in zip(_FACTORS, num_exps, den_exps):
        num = num * _power(f, i)
        den = den * _power(f, j)
    assert _factor_exponents(tuple(den.coeffs)) is None
    x = QRat(num, den)
    assert_canonical(x)
    assert x.den.leading_coeff() == 1
    assert _list_gcd(x.num.coeffs, x.den.coeffs) == [1]
    assert x == QRat(num * g, den * g)
    assert x * QRat(den) == QRat(num)


# -- the one division routine -------------------------------------------------

@st.composite
def division_cases(draw):
    """(a, f): a coefficient list of length 0-12 and a monic f of length
    1-5, either both integral or with Fraction coefficients mixed in."""
    coeff = (st.integers(min_value=-6, max_value=6) if draw(st.booleans())
             else int_or_frac)
    return (draw(st.lists(coeff, max_size=12)),
            [*draw(st.lists(coeff, max_size=4)), 1])


@settings(max_examples=200, deadline=None)
@given(division_cases())
def test_divmod_monic_is_division_with_remainder(case):
    a, f = case
    quo, rem = _divmod_monic(a, f)
    assert QPoly(0, quo) * QPoly(0, f) + QPoly(0, rem) == QPoly(0, a)
    assert len(rem) < len(f)
    assert not rem or rem[-1] != 0
    if all(type(c) is int for c in [*a, *f]):
        assert all(type(c) is int for c in [*quo, *rem])


@settings(max_examples=100, deadline=None)
@given(division_cases(), dense_polys, dense_polys)
def test_list_gcd_is_monic_and_divides_both(case, u, v):
    g = list(QPoly(0, case[1]).coeffs)      # monic, q-power stripped
    a = list((u * QPoly(0, g)).coeffs)
    b = list((v * QPoly(0, g)).coeffs)
    h = _list_gcd(a, b)
    assert h[-1] == 1
    assert _div_monic(a, h) is not None
    assert _div_monic(b, h) is not None
    assert _div_monic(h, g) is not None     # the common factor divides it


# -- products with a unit-denominator monomial skip the reduction ----------

@settings(max_examples=150, deadline=None)
@given(dense_polys, exponents, int_or_frac.filter(bool),
       st.integers(min_value=-4, max_value=4), st.integers(min_value=-3, max_value=3))
def test_monomial_product_equals_the_normalising_product(u, den_exps, c, k, shift):
    den = QPoly.one()
    for f, e in zip(_FACTORS, den_exps):
        den = den * _power(f, e)
    x = QRat(u.shift(shift), den)
    m = qpow(k, c)
    # the path the fast one replaces: full product, then _normalize
    reference = QRat(x.num * m.num, x.den * m.den)
    for got in (x * m, m * x):
        assert got.num.off == reference.num.off
        assert got.num.coeffs == reference.num.coeffs
        assert got.den.off == reference.den.off
        assert got.den.coeffs == reference.den.coeffs
        assert [type(v) for v in got.num.coeffs] == \
            [type(v) for v in reference.num.coeffs]
        assert_canonical(got)


def test_monomial_product_turns_an_integral_fraction_into_an_int():
    x = QRat(QPoly(0, [Fraction(3, 2), 1]), QPoly(0, [1, 0, 0, 1]))
    for got in (x * qpow(2, Fraction(2, 3)), qpow(2, Fraction(2, 3)) * x):
        assert got.num.coeffs == (1, Fraction(2, 3))
        assert [type(v) for v in got.num.coeffs] == [int, Fraction]
