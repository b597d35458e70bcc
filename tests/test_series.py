"""Truncated expansions: correctness, validity bookkeeping, exact evaluation."""

import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_expand, leading, random_monomial, rational_stream,
                      reference_factor_series, substitute_scale, total_degree)
from uqa22.blocks import ArgList, build_block, build_kernel
from uqa22.goldens import display_to_factored
from uqa22.ncalg import NCExpr, mode
from uqa22 import series as series_module
from uqa22.qfield import QPoly, QRat, qnum, qpow
from uqa22.series import INF, ExpansionSeries, FactoredRational, ratio_degree

q = qpow(1)


def geom(n, i, j, ratio_coeff, depth):
    """Reference geometric series sum_t (ratio_coeff * z_j/z_i)^t."""
    terms = {}
    acc = qnum(1)
    for t in range(depth + 1):
        vec = [0] * n
        vec[i - 1], vec[j - 1] = -t, t
        terms[tuple(vec)] = acc
        acc = acc * ratio_coeff
    return terms


def test_expand_geometric_example():
    fr = FactoredRational(2, 1, (1, 0), [(qpow(2), 1, qnum(-1), 2, -1)])
    s = fr.expand(2)
    want = {(0, 0): qpow(-2), (-1, 1): qpow(-4), (-2, 2): qpow(-6)}
    assert s.terms == want
    assert s.validity == 2


def test_expand_polynomial_is_exact():
    fr = FactoredRational(2, 1, None, [(qnum(1), 1, qnum(-1), 2, 1)])
    s = fr.expand(0)
    assert s.validity == INF
    assert s.terms == {(1, 0): qnum(1), (0, 1): qnum(-1)}


def test_expand_rho_matches_displayed_series():
    # the coefficient of the first current in the two-variable F block:
    # (q^2-1)/(q^2 - z2/z1) = (1-q^-2) * sum (q^-2 z2/z1)^m
    rho = build_block("rho", ArgList((1,), 2), 1, 2)
    s = rho.expand(5)
    ref = ExpansionSeries(2, geom(2, 1, 2, qpow(-2), 5)).scale(1 - qpow(-2))
    assert s.equal_up_to(ref, 5)


def test_telescoping_product():
    one_minus = FactoredRational(2, 1, (-1, 0),
                                 [(qnum(1), 1, qnum(-1), 2, 1)]).expand(6)
    geometric = ExpansionSeries(2, geom(2, 1, 2, qnum(1), 6), 6)
    prod = one_minus.mul(geometric)
    assert prod.equal_up_to(ExpansionSeries.one(2), prod.validity)


def test_inverse_product_is_one(rng):
    for _ in range(12):
        n = rng.randint(2, 4)
        factors = []
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            factors.append((random_monomial(rng), i, random_monomial(rng), j,
                            rng.choice([1, 2, -1, -2])))
        fr = FactoredRational(n, random_monomial(rng),
                              [rng.randint(-2, 2) for _ in range(n)], factors)
        s = fr.expand(5).mul(fr.inv().expand(5))
        assert s.equal_up_to(ExpansionSeries.one(n), s.validity)


def test_scale_by_zero_gives_empty_series():
    s = ExpansionSeries.one(3).scale(qnum(0))
    assert not s.terms


def test_substitute_scale_on_series():
    terms = {(-k,): qnum(1) for k in range(1, 5)}
    s = ExpansionSeries(1, terms)
    t = substitute_scale(s, 1, qpow(1, -1))
    for k in range(1, 5):
        assert t.coefficient((-k,)) == qpow(1, -1) ** (-k)


def test_substitute_scale_identity_and_inverse():
    s = build_block("mu", ArgList((1,), 2), 1, 2).expand(4)
    assert substitute_scale(s, 1, qnum(1)).terms == s.terms
    back = substitute_scale(substitute_scale(s, 2, qpow(2)), 2, qpow(-2))
    assert back.terms == s.terms
    with pytest.raises(ValueError, match="nonzero"):
        substitute_scale(s, 1, qnum(0))


def test_eval_exact_examples():
    fr = FactoredRational(2, 1, None, [(qnum(1), 1, qnum(-1), 2, 1)])
    assert fr.eval_exact(Fraction(2), [Fraction(3), Fraction(1)]) == 2
    rho = build_block("rho", ArgList((1,), 2), 1, 2)
    assert rho.eval_exact(Fraction(3, 2), [Fraction(5), Fraction(5)]) == 1
    gamma = build_kernel("gamma", qnum(1), 1, 2, 2) \
        * build_kernel("gamma", qnum(1), 2, 1, 2)
    vals = rational_stream(3)
    assert gamma.eval_exact(next(vals), [next(vals), next(vals)]) == 1


def _assert_exact(x):
    for p in (x.num, x.den):
        for c in p.coeffs:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_weight_and_mode_coefficients_are_canonical_exact():
    from uqa22.projection import mode_expand, weight_plus_closed
    w = weight_plus_closed(3, 4)
    modes = mode_expand(w, 3)
    seen = 0
    for expr in (w.expr, modes):
        for series in expr.coeffs.values():
            for c in series.terms.values():
                _assert_exact(c)
                seen += 1
    assert seen > 100


def test_eval_exact_at_int_inputs_is_a_fraction():
    rho = build_block("rho", ArgList((1,), 2), 1, 2)
    alpha = build_kernel("alpha", qpow(1, -1), 1, 2, 2)
    for fr, zs in ((rho, [5, 3]), (alpha, [2, 7]), (alpha.inv(), [2, 7])):
        value = fr.eval_exact(2, zs)
        assert type(value) is Fraction
        assert value == fr.eval_exact(Fraction(2), [Fraction(z) for z in zs])
    neg = FactoredRational(2, qpow(-3), (-2, 1), [(qnum(1), 1, qpow(-1), 2, -2)])
    value = neg.eval_exact(3, [2, 5])
    assert type(value) is Fraction
    assert value == Fraction(1, 27) * Fraction(5, 4) / (2 + Fraction(5, 3)) ** 2


def test_eval_exact_pole_hit():
    fr = FactoredRational(2, 1, None, [(qnum(1), 1, qnum(-1), 2, -1)])
    with pytest.raises(ZeroDivisionError, match="pole hit"):
        fr.eval_exact(Fraction(2), [Fraction(1), Fraction(1)])


def test_degree_zero_blocks_have_degree_zero_expansions():
    for kind in ("rho", "lambda", "mu", "nu"):
        fr = build_block(kind, ArgList((1, 2), 3), 1, 3)
        assert total_degree(fr) == 0
        for a in fr.expand(4).terms:
            assert sum(a) == 0


def _random_factored(rng, n):
    factors = []
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        factors.append((random_monomial(rng), i, random_monomial(rng), j,
                        rng.choice([2, 1, 1, -1, -1, -2])))
    return FactoredRational(
        n, random_monomial(rng),
        [rng.randint(-2, 2) for _ in range(n)], factors)


def test_expansion_reconstruction_and_brute_force(rng):
    # expansion times the cleared denominator reproduces the numerator,
    # and a naive deep expansion agrees below the validity bound
    for _ in range(40):
        n = rng.randint(2, 4)
        depth = rng.randint(0, 6)
        fr = _random_factored(rng, n)
        s = fr.expand(depth)
        den = fr.denominator_part().expand(0)
        num = fr.numerator_part().expand(0)
        prod = s.mul(den)
        assert prod.equal_up_to(num, prod.validity)
        brute = brute_expand(fr, depth + 5)
        for a, c in s.terms.items():
            assert brute.get(a, qnum(0)) == c
        for a, c in brute.items():
            if ratio_degree(a) <= s.validity:
                assert s.coefficient(a) == c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reconstruction_property(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    exps = st.integers(min_value=-2, max_value=2)
    coeff = st.builds(qpow, exps, st.sampled_from([1, -1, 2]))
    pairs = st.tuples(st.integers(min_value=1, max_value=n - 1),
                      st.integers(min_value=1, max_value=n)) \
        .filter(lambda ij: ij[0] < ij[1])
    factors = data.draw(st.lists(
        st.tuples(coeff, pairs, coeff, st.sampled_from([1, -1, -2])),
        min_size=1, max_size=3))
    fr = FactoredRational(
        n, 1, None,
        [(u, i, v, j, m) for u, (i, j), v, m in factors])
    depth = data.draw(st.integers(min_value=0, max_value=4))
    s = fr.expand(depth)
    prod = s.mul(fr.denominator_part().expand(0))
    assert prod.equal_up_to(fr.numerator_part().expand(0), prod.validity)


def test_series_json_round_trip():
    s = build_block("lambda", ArgList((1,), 2), 1, 2).expand(3)
    t = ExpansionSeries.from_json(s.to_json())
    assert t == s


# a degenerate binomial (equal indices, or a zero u or v) folds into the
# scalar and the monomial; to_json recorded before the three folds became
# one rule
_Z = '{"factors":[],"monomial":[0,0],"n":2,"scalar":{"den":[[0,"1"]],"num":[]}}'


@pytest.mark.parametrize("n, scalar, mono, factors, want", [
    (3, qpow(1), (1, 0, 0),
     [(qnum(1), 2, qpow(2, -1), 2, -1), (qnum(1), 1, qnum(-1), 3, 1)],
     '{"factors":[{"i":1,"j":3,"m":1,"u":{"den":[[0,"1"]],"num":[[0,"1"]]},'
     '"v":{"den":[[0,"1"]],"num":[[0,"-1"]]}}],"monomial":[1,-1,0],"n":3,'
     '"scalar":{"den":[[0,"-1"],[2,"1"]],"num":[[1,"-1"]]}}'),
    (3, qnum(2), None,
     [(qnum(0), 1, qpow(1), 3, 2), (qnum(1), 1, qpow(1), 2, -1)],
     '{"factors":[{"i":1,"j":2,"m":-1,"u":{"den":[[0,"1"]],"num":[[0,"1"]]},'
     '"v":{"den":[[0,"1"]],"num":[[1,"1"]]}}],"monomial":[0,0,2],"n":3,'
     '"scalar":{"den":[[0,"1"]],"num":[[2,"2"]]}}'),
    (3, qnum(1), (0, 1, 0),
     [(qpow(2), 2, qnum(0), 3, -1), (qnum(1), 2, qpow(1), 3, 1)],
     '{"factors":[{"i":2,"j":3,"m":1,"u":{"den":[[0,"1"]],"num":[[0,"1"]]},'
     '"v":{"den":[[0,"1"]],"num":[[1,"1"]]}}],"monomial":[0,0,0],"n":3,'
     '"scalar":{"den":[[0,"1"]],"num":[[-2,"1"]]}}'),
    (2, qnum(3), (1, 0), [(qnum(0), 1, qnum(0), 2, 1)], _Z),
    (2, qnum(3), None, [(qnum(1), 2, qnum(-1), 2, 2)], _Z),
], ids=["equal-index", "u-zero", "v-zero", "zero-base-numerator",
        "equal-index-zero-base-numerator"])
def test_degenerate_binomials_fold_into_scalar_and_monomial(
        n, scalar, mono, factors, want):
    fr = FactoredRational(n, scalar, mono, factors)
    assert json.dumps(fr.to_json(), sort_keys=True, separators=(",", ":")) == want


@pytest.mark.parametrize("factor", [(qnum(0), 1, qnum(0), 2, -1),
                                    (qnum(1), 2, qnum(-1), 2, -2)])
def test_zero_base_in_the_denominator_raises(factor):
    with pytest.raises(ZeroDivisionError, match="zero base"):
        FactoredRational(2, 1, None, [factor])


@pytest.mark.parametrize("factors", [
    [(1, 1, -1, 1, 1), (1, 1, -1, 1, -1)],
    [(1, 1, -1, 1, -1), (1, 1, -1, 1, 1)],
], ids=["zero-first", "pole-first"])
def test_a_zero_base_pole_raises_in_either_factor_order(factors):
    with pytest.raises(ZeroDivisionError, match="zero base"):
        FactoredRational(2, 1, None, factors)


def test_an_index_out_of_range_raises_even_at_exponent_zero():
    with pytest.raises(ValueError, match="index out of range"):
        FactoredRational(2, 1, None, [(1, 5, 1, 7, 0)])


def test_a_zero_scalar_with_ordinary_factors_is_zero():
    fr = FactoredRational(3, 0, (1, 0, 0), [(1, 1, qpow(1), 2, -1),
                                            (qpow(2), 2, 1, 3, 2)])
    assert fr.is_zero() and fr.factors == () and fr.monomial == (0, 0, 0)


def test_validity_of_products():
    rng = random.Random(5)
    seen_truncated = False
    for _ in range(10):
        a = _random_factored(rng, 3)
        lead_deg = ratio_degree(leading(a)[1])
        has_inverse = any(m < 0 for *_, m in a.factors)
        if has_inverse:
            seen_truncated = True
            assert a.expand(3).validity == lead_deg + 3
        else:
            assert a.expand(3).validity == INF
    assert seen_truncated


# -- single-term products and sums without re-filtering ----------------------

def _normalising_product(a, b):
    from uqa22.qfield import QRat
    return QRat(a.num * b.num, a.den * b.den)


def _reference_mul(x, y):
    """The general convolution that the single-term path bypasses."""
    validity = min(x.validity + y.min_degree_bound(),
                   y.validity + x.min_degree_bound())
    terms = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            if ratio_degree(a) + ratio_degree(b) > validity:
                continue
            key = tuple(i + j for i, j in zip(a, b))
            c = _normalising_product(ca, cb)
            terms[key] = terms[key] + c if key in terms else c
    return ExpansionSeries(x.n, terms, validity)


def _reference_add(x, y):
    """Sum followed by the filtering constructor."""
    terms = dict(x.terms)
    for a, c in y.terms.items():
        terms[a] = terms[a] + c if a in terms else c
    return ExpansionSeries(x.n, terms, min(x.validity, y.validity))


_exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)
_coeffs = st.tuples(st.integers(min_value=-2, max_value=2),
                    st.sampled_from([1, -1, 2, Fraction(1, 3)]),
                    st.sampled_from([qnum(1), qnum(1) + qpow(3), qnum(1) + q,
                                     q - qnum(1)])) \
    .map(lambda t: qpow(t[0], t[1]) / t[2])
_validities = st.one_of(st.just(INF), st.integers(min_value=-4, max_value=6))


def series(validity=_validities, max_size=6):
    return st.builds(
        lambda terms, v: ExpansionSeries(3, terms, v),
        st.dictionaries(_exps, _coeffs, max_size=max_size), validity)


@settings(max_examples=150, deadline=None)
@given(series(), _exps, st.one_of(_coeffs, st.just(qnum(1))))
def test_single_term_product_equals_the_general_convolution(x, a, c):
    term = ExpansionSeries(3, {a: c}, INF)
    for got in (x.mul(term), term.mul(x)):
        assert got == _reference_mul(x, term)
        assert all(ratio_degree(b) <= got.validity for b in got.terms)
        assert all(not s.is_zero() for s in got.terms.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_equals_the_filtered_sum(data):
    x = data.draw(series())
    y = data.draw(series())
    # let some terms cancel exactly
    cancel = data.draw(st.sets(st.sampled_from(sorted(x.terms)))) if x.terms else set()
    y = y + ExpansionSeries(3, {a: -x.terms[a] for a in cancel}, y.validity)
    assert x + y == _reference_add(x, y)
    assert y + x == _reference_add(y, x)


# -- packed products against the QRat convolution ---------------------------

def _assert_same_series(got, want):
    """Equal field by field, down to the type of every coefficient."""
    assert (got.n, got.validity) == (want.n, want.validity)
    assert got.terms.keys() == want.terms.keys()
    for a, c in want.terms.items():
        assert type(a) is tuple and all(type(e) is int for e in a)
        g = got.terms[a]
        for gp, wp in ((g.num, c.num), (g.den, c.den)):
            assert (gp.off, gp.coeffs) == (wp.off, wp.coeffs)
            assert list(map(type, gp.coeffs)) == list(map(type, wp.coeffs))


def _laurent(off, coeffs):
    return QRat(QPoly(off, coeffs))


def _int_laurent_coeffs(bound):
    return st.builds(_laurent, st.integers(min_value=-4, max_value=4),
                     st.lists(st.integers(min_value=-bound, max_value=bound),
                              min_size=1, max_size=4))


# coefficients that are not integer Laurent polynomials
_field_coeffs = st.sampled_from([
    qnum(Fraction(1, 3)), _laurent(-2, [Fraction(-5, 2), 0, 1]),
    qnum(1) / (qnum(1) + qpow(3)), qpow(-1, 2) / (qnum(1) + q)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_product_equals_the_reference_convolution(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    span = data.draw(st.sampled_from([2, 1100]), label="exponent span")
    coeffs = _int_laurent_coeffs(
        data.draw(st.sampled_from([3, 2 ** 70]), label="coefficient bound"))
    if data.draw(st.booleans(), label="mixed"):
        coeffs = st.one_of(coeffs, _field_coeffs)
    exps = st.tuples(*[st.integers(min_value=-span, max_value=span)] * n)
    validity = st.one_of(st.just(INF), st.integers(min_value=-8, max_value=8))
    tx = data.draw(st.dictionaries(exps, coeffs, max_size=6))
    ty = data.draw(st.dictionaries(exps, coeffs, max_size=6))
    if data.draw(st.booleans(), label="cancel"):
        # c z^a + c z^(a+t) times d z^(b+t) - d z^b: the two products
        # at a+b+t cancel
        a, b, t = data.draw(exps), data.draw(exps), data.draw(exps)
        c, d = data.draw(coeffs), data.draw(coeffs)
        tx.update({a: c, tuple(i + j for i, j in zip(a, t)): c})
        ty.update({tuple(i + j for i, j in zip(b, t)): d, b: -d})
    x = ExpansionSeries(n, tx, data.draw(validity))
    y = ExpansionSeries(n, ty, data.draw(validity))
    _assert_same_series(x.mul(y), _reference_mul(x, y))
    _assert_same_series(y.mul(x), _reference_mul(y, x))


_z1, _z2 = (1, 0), (0, 1)


@pytest.mark.parametrize("tx, vx, ty, vy", [
    # an output coefficient of +-L1(x) * L1(y), the slot bound
    ({_z1: qnum(3)}, 5, {_z2: qnum(5)}, 5),
    ({_z1: qnum(-3)}, 5, {_z2: qnum(5)}, 2),
    # (z1 + z2)(z1 - z2): the z1 z2 terms cancel and are dropped
    ({_z1: qnum(1), _z2: qnum(1)}, INF, {_z1: qnum(1), _z2: qnum(-1)}, INF),
    ({_z1: _laurent(-3, [1, -2]), _z2: _laurent(-3, [1, -2])}, 9,
     {_z1: _laurent(4, [2, 1]), _z2: _laurent(4, [-2, -1])}, 9),
    # the second operand's terms out of degree order, some pairs kept
    ({_z1: qnum(1), _z2: qnum(-2)}, 4, {(0, 3): qnum(1), _z1: q}, 7),
    # every pair above the bound, and empty operands
    ({_z2: qnum(2), (0, 3): qnum(1)}, 1, {(2, 0): qnum(1), _z1: q}, INF),
    ({}, INF, {_z1: qnum(1), _z2: q}, INF),
    ({}, 3, {_z1: qnum(1), _z2: q}, 7),
    ({_z1: qnum(1), _z2: q}, 4, {}, INF),
    # exponents and coefficients past any fixed width
    ({(1500, -1200): qnum(2 ** 70), (-3, 0): _laurent(-9, [-(2 ** 71), 5])}, INF,
     {(-1500, 1201): qnum(-(2 ** 69)), (0, -2000): qnum(3)}, INF),
    # a Fraction or a (1+q^3) denominator keeps the QRat ring
    ({_z1: qnum(Fraction(1, 3)), _z2: q}, INF, {_z1: q, _z2: qnum(2)}, INF),
    ({_z1: qnum(1) / (qnum(1) + qpow(3)), _z2: q}, 6, {_z1: q, _z2: qnum(2)}, 6),
])
def test_packed_product_edge_cases(tx, vx, ty, vy):
    x, y = ExpansionSeries(2, tx, vx), ExpansionSeries(2, ty, vy)
    _assert_same_series(x.mul(y), _reference_mul(x, y))
    _assert_same_series(y.mul(x), _reference_mul(y, x))


# -- the box filter against the decoded terms --------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_box_filter_equals_the_filtered_terms(data):
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    # a span of 2^16 passes the 16-bit default key width
    span = data.draw(st.sampled_from([3, 2 ** 16]), label="exponent span")
    exps = st.tuples(*[st.integers(min_value=-span, max_value=span)] * n)
    # integer Laurent numerators at nonzero q-bases, and denominators
    # other than 1
    coeffs = st.one_of(_int_laurent_coeffs(3), _field_coeffs)
    validity = st.one_of(st.just(INF), st.integers(min_value=-8, max_value=8))
    x = ExpansionSeries(n, data.draw(st.dictionaries(exps, coeffs, max_size=6)),
                        data.draw(validity))
    if data.draw(st.booleans(), label="sum"):
        # a sum carries L1 and M bounds that are not exact
        x = x + ExpansionSeries(n, data.draw(st.dictionaries(exps, coeffs, max_size=6)),
                                data.draw(validity))
    lo = data.draw(exps, label="lo")
    hi = data.draw(st.tuples(*[st.integers(min_value=l - 1, max_value=l + span)
                               for l in lo]), label="hi")
    want = {a: c for a, c in x.terms.items()
            if all(l <= e <= h for e, l, h in zip(a, lo, hi))}
    got = x.within(lo, hi)
    assert (got.n, got.validity, len(got)) == (x.n, x.validity, len(want))
    assert got.terms == want
    slots = [abs(c) for v in got._c.values()
             for c in series_module._slots(v, got._s)[1]]
    assert got._l1 >= sum(slots) and got._m >= max(slots, default=0)
    # a box past every exponent keeps nothing, and the validity
    empty = x.within((span + 1,) * n, (span + 1,) * n)
    assert (len(empty), empty.terms, empty.validity) == (0, {}, x.validity)


# -- the packed chain of expand against the pairwise chain -------------------

def _pairwise_expand(fr, depth):
    """FactoredRational.expand as one product per factor, starting from
    the scalar times the monomial."""
    out = ExpansionSeries.monomial(fr.n, fr.monomial, fr.scalar)
    for u, i, v, j, m in fr.factors:
        out = out.mul(fr._factor_series(u, i, v, j, m, depth))
    return out


# binomial coefficients are rational monomials c*q^k: a +-q^k keeps every
# factor series over D = 1, and a 2, a -3 or a Fraction puts it over an
# integer D
_chain_coeffs = st.builds(qpow, st.integers(min_value=-3, max_value=3),
                          st.sampled_from([1, -1, 2, -3, Fraction(2, 3),
                                           Fraction(-1, 2)]))
# scalars stay general: a 1+q, a q-1 or a denominator puts the chain on
# the QRat ring, and a zero scalar makes the expansion empty
_chain_scalars = st.one_of(_chain_coeffs, st.sampled_from([
    qnum(1) + q, q - qnum(1), qnum(0), qnum(Fraction(5, 7)),
    qnum(1) / (qnum(1) + q), qpow(-2, 3) / (q - qnum(1))]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_expand_equals_the_pairwise_chain(data):
    n = data.draw(st.integers(min_value=2, max_value=4), label="n")
    depth = data.draw(st.integers(min_value=0, max_value=8), label="depth")
    index = st.integers(min_value=1, max_value=n)
    factors = data.draw(st.lists(st.tuples(
        _chain_coeffs, index, _chain_coeffs, index,
        st.sampled_from([-3, -2, -1, 1, 2, 3])).filter(lambda f: f[1] != f[3]),
        max_size=5), label="factors")
    if factors and data.draw(st.booleans(), label="cancel"):
        # a factor and its inverse merge away in the constructor
        u, i, v, j, m = data.draw(st.sampled_from(factors))
        factors.append((u, i, v, j, -m))
    mono = data.draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * n))
    fr = FactoredRational(n, data.draw(_chain_scalars), mono, factors)
    _assert_same_series(fr.expand(depth), _pairwise_expand(fr, depth))


@pytest.mark.parametrize("scalar, factors", [
    (qnum(0), [(qnum(1), 1, q, 2, -2), (q, 1, qnum(1), 3, 1)]),
    (qnum(3), [(qnum(1), 1, q, 2, -2), (qnum(1), 1, q, 2, 2)]),
    (qnum(1) / (qnum(1) + q), [(qnum(1), 1, q, 3, -1), (qnum(2), 2, q, 3, -3),
                               (qnum(1), 1, qnum(-1), 2, 2)]),
    # (z1 + z2)(z1 - z2): the z1 z2 terms of the partial product cancel
    (qnum(1), [(qnum(1), 1, qnum(1), 2, 1), (qnum(1), 1, qnum(-1), 2, 1),
               (q, 2, qnum(1), 3, -2)]),
], ids=["zero-scalar", "factors-merge-away", "denominator-scalar",
        "partial-terms-cancel"])
def test_expand_equals_the_pairwise_chain_at_the_edges(scalar, factors):
    fr = FactoredRational(3, scalar, (1, 0, -1), factors)
    for depth in (0, 3, 8):
        _assert_same_series(fr.expand(depth), _pairwise_expand(fr, depth))


# -- factor series against the term-by-term reference -----------------------

# +-q^k with an integral v keeps a factor series over D = 1; 2q^k, 2/3 and
# -q^-1/2 put it over an integer D
_factor_coeffs = st.one_of(
    st.builds(qpow, st.integers(min_value=-3, max_value=3),
              st.sampled_from([1, -1, 2, -2])),
    st.sampled_from([qnum(Fraction(2, 3)), qpow(-1, Fraction(-1, 2))]))


def _assert_factor_series(u, i, v, j, m, depth, n=5):
    got = FactoredRational(n)._factor_series(u, i, v, j, m, depth)
    want = reference_factor_series(n, u, i, v, j, m, depth)
    assert got.terms == want.terms and got.validity == want.validity
    if u.as_monomial()[1] in (1, -1) and type(v.as_monomial()[1]) is int:
        assert got._d.is_one()
    # the carried bounds are the L1 and M read from the slots
    slots = [abs(c) for value in got._c.values()
             for c in series_module._slots(value, got._s)[1]]
    assert got._exact and (got._l1, got._m) == (sum(slots), max(slots))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factor_series_equals_the_term_by_term_reference(data):
    i, j = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=5),
                                     min_size=2, max_size=2, unique=True)))
    _assert_factor_series(
        data.draw(_factor_coeffs, label="u"), i,
        data.draw(_factor_coeffs, label="v"), j,
        data.draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), label="m"),
        data.draw(st.integers(min_value=0, max_value=12), label="depth"))


@pytest.mark.parametrize("u, i, v, j, m, depth", [
    (qpow(2), 1, qnum(-1), 5, -2, 3),         # j - i > depth: one term
    (qpow(1, -1), 2, qpow(-3), 4, -4, 16),    # r = -q^-4: 9 terms, 4t slots down
    (qnum(2), 1, qpow(1, 3), 2, -3, 16),      # 17 terms over 2^3 * 2^16
    (qpow(1, 2), 1, qpow(-2, Fraction(1, 3)), 3, 4, 0),
], ids=["past-the-depth", "negative-r-offset", "integer-denominator",
        "positive-power"])
def test_factor_series_edges(u, i, v, j, m, depth):
    _assert_factor_series(u, i, v, j, m, depth)


def test_merge_tests_proportionality_by_cross_products():
    # 2 z1 + 2q z2 is 2 (z1 + q z2): it merges, and leaves 2^m in the scalar
    for m in (1, 2, -3):
        f = FactoredRational(2, 1, None, [(qnum(1), 1, q, 2, -1),
                                          (qnum(2), 1, qpow(1, 2), 2, m)])
        want = () if m == 1 else ((qnum(1), 1, q, 2, m - 1),)
        assert f.factors == want and f.scalar == qnum(2) ** m
    # z1 + q^2 z2 and z1 + 2q z2 stay apart from z1 + q z2
    g = FactoredRational(2, 1, None, [(qnum(1), 1, q, 2, -1),
                                      (qnum(1), 1, q * q, 2, 1),
                                      (qnum(1), 1, qpow(1, 2), 2, 1)])
    assert len(g.factors) == 3 and g.scalar == qnum(1)
    # a Fraction enters the cross products: z1/2 + q z2 stays apart from
    # z1 + q z2, and z1/2 + q/2 z2 cancels it
    half = qnum(Fraction(1, 2))
    h = FactoredRational(2, 1, None, [(qnum(1), 1, q, 2, -1),
                                      (half, 1, q, 2, 1),
                                      (half, 1, q * half, 2, 1)])
    assert h.factors == ((half, 1, q, 2, 1),) and h.scalar == half


def test_a_binomial_coefficient_must_be_a_monomial():
    refused = r"monomials c\*q\^k: \("
    for c in (qnum(1) + q, q - qnum(1), qnum(1) / (qnum(1) + q)):
        for factor in ((c, 1, q, 2, -1), (qpow(2), 1, c, 3, 2)):
            with pytest.raises(ValueError, match=refused):
                FactoredRational(3, 1, None, [factor])
    # a transcribed display atom reaches the same check
    for a in (qnum(1) + q, q - qnum(1)):
        display = {"scalar_num": [[0, "1"]],
                   "atoms": [{"a": a.num.to_json(), "b": [[0, "1"]],
                              "top": 1, "bot": 2, "m": -1}]}
        with pytest.raises(ValueError, match=refused):
            display_to_factored(2, display)
    # an equal-index binomial folds before the check: z1 + q z1 = (1+q) z1
    f = FactoredRational(2, 1, None, [(qnum(1), 1, q, 1, 2)])
    assert (f.scalar, f.monomial, f.factors) == ((qnum(1) + q) ** 2, (2, 0), ())


def _reference_eval_exact(fr, q0, zvals):
    """FactoredRational.eval_exact written one Fraction operation per
    factor, with the zero base tracked by a flag."""
    zs = [Fraction(z) for z in zvals]
    acc = fr.scalar.eval(q0)
    for e, z in zip(fr.monomial, zs):
        if e:
            acc *= z ** e
    zero_hit = False
    for u, i, v, j, m in fr.factors:
        base = u.eval(q0) * zs[i - 1] + v.eval(q0) * zs[j - 1]
        if base == 0:
            if m < 0:
                raise ZeroDivisionError("pole hit")
            zero_hit = True
            continue
        acc *= base ** m
    return Fraction(0) if zero_hit else acc


def _outcome(fn, *args):
    """The value, or the ZeroDivisionError class when fn raises it."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


# small pools, so that a binomial vanishes at the point often
_point_values = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2),
                                 Fraction(-3, 2), Fraction(2, 3)])
_eval_coeffs = st.builds(qpow, st.integers(min_value=-1, max_value=1),
                         st.sampled_from([1, -1, 2, Fraction(-1, 2)]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_exact_equals_the_fraction_by_fraction_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    pairs = st.tuples(st.integers(min_value=1, max_value=n),
                      st.integers(min_value=1, max_value=n)) \
        .filter(lambda ij: ij[0] < ij[1])
    factors = data.draw(st.lists(
        st.tuples(_eval_coeffs, pairs, _eval_coeffs,
                  st.sampled_from([1, 2, 3, -1, -2])),
        max_size=4))
    fr = FactoredRational(
        n, data.draw(st.one_of(_coeffs, _eval_coeffs)),
        data.draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)),
        [(u, i, v, j, m) for u, (i, j), v, m in factors])
    q0 = data.draw(_point_values)
    zs = data.draw(st.lists(_point_values, min_size=n, max_size=n))
    got = _outcome(fr.eval_exact, q0, zs)
    assert got == _outcome(_reference_eval_exact, fr, q0, zs)
    if got is not ZeroDivisionError:
        assert type(got) is Fraction


def test_eval_exact_zero_base_and_a_later_pole():
    z_minus_w = (qnum(1), 1, qnum(-1), 2, 2)     # (z_1 - z_2)^2
    pole = (qnum(1), 1, qnum(-1), 3, -1)         # (z_1 - z_3)^-1
    scaled = (qpow(1), 2, qnum(1), 3, -3)        # (q z_2 + z_3)^-3
    vanishing = FactoredRational(3, qpow(-1), (1, -2, 0), [z_minus_w, scaled])
    value = vanishing.eval_exact(2, [3, 3, 5])
    assert value == 0 and type(value) is Fraction
    assert vanishing.eval_exact(Fraction(-1, 2), [Fraction(1, 3), -2, 7]) \
        == _reference_eval_exact(vanishing, Fraction(-1, 2),
                                 [Fraction(1, 3), -2, 7])
    # the vanishing factor comes first, but the pole still raises
    both = FactoredRational(3, 1, None, [z_minus_w, pole])
    with pytest.raises(ZeroDivisionError, match="pole hit"):
        both.eval_exact(2, [3, 3, 3])
    # a z at zero under a negative exponent is a pole of the monomial
    with pytest.raises(ZeroDivisionError):
        vanishing.eval_exact(2, [3, 0, 5])


# the compiled form: Fraction coefficients, negative q-exponents and a
# point pool with q0 = 0 and z = 0 in it
_compiled_coeffs = st.builds(qpow, st.integers(min_value=-2, max_value=2),
                             st.sampled_from([1, -1, Fraction(2, 3),
                                              Fraction(-3, 2), Fraction(5, 4)]))
_compiled_points = st.sampled_from([0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3),
                                    Fraction(-5, 4)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_evaluation_equals_the_field_by_field_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    pairs = st.tuples(st.integers(min_value=1, max_value=n),
                      st.integers(min_value=1, max_value=n)) \
        .filter(lambda ij: ij[0] != ij[1])
    factors = data.draw(st.lists(
        st.tuples(_compiled_coeffs, pairs, _compiled_coeffs,
                  st.sampled_from([-3, -2, -1, 1, 2, 3])),
        max_size=5))
    fr = FactoredRational(
        n, data.draw(st.one_of(_coeffs, _compiled_coeffs)),
        data.draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)),
        [(u, i, v, j, m) for u, (i, j), v, m in factors])
    stored = fr.to_json()

    def check(value):
        q0 = data.draw(_compiled_points)
        zs = data.draw(st.lists(_compiled_points, min_size=n, max_size=n))
        got = _outcome(value.eval_exact, q0, zs)
        assert got == _outcome(_reference_eval_exact, value, q0, zs)
        if got is not ZeroDivisionError:
            assert type(got) is Fraction

    # two points in a row, then values derived after fr compiled its form
    check(fr)
    check(fr)
    c = data.draw(_compiled_coeffs)
    other = FactoredRational(n, 1, None, [(c, 1, qnum(1), 2,
                                           data.draw(st.sampled_from([-1, 1])))])
    for value in (fr.scale(c), fr * fr, fr * other, other * fr):
        check(value)
    if not fr.is_zero():
        check(fr.inv())
    # the compiled form enters no output
    assert fr.to_json() == stored


def test_compiled_evaluation_keeps_every_pole():
    # q0 = 0 under a negative q-exponent of the scalar, of u and of v
    for fr in (FactoredRational(2, qpow(-1), None, [(qnum(1), 1, q, 2, 1)]),
               FactoredRational(2, 1, None, [(qpow(-1), 1, qnum(1), 2, 1)]),
               FactoredRational(2, 1, None, [(qnum(1), 1, qpow(-2, 3), 2, -1)])):
        with pytest.raises(ZeroDivisionError):
            fr.eval_exact(0, [2, 3])
        assert fr.eval_exact(2, [2, 3]) == _reference_eval_exact(fr, 2, [2, 3])
    # (q z_1 + q z_2)^-1 vanishes at q0 = 0; folding q^-1 into K beside
    # the q^1 of (q z_1 + 2q z_2) must not cancel the pole
    pole = (q, 1, q, 2, -1)
    for fr in (FactoredRational(2, 1, None, [pole]),
               FactoredRational(2, 1, None, [pole, (q, 1, qpow(1, 2), 2, 1)])):
        assert fr.factors[0] == pole
        with pytest.raises(ZeroDivisionError):
            fr.eval_exact(0, [2, 3])
    # at q0 = 0 a factor with q-exponents 0 and 1 is finite, and one with
    # both exponents positive and m > 0 makes the value 0
    finite = FactoredRational(2, 1, None, [(q, 1, qnum(3), 2, -1)])
    assert finite.eval_exact(0, [2, 5]) == Fraction(1, 15)
    vanishing = FactoredRational(2, 1, None, [(q, 1, qpow(2), 2, 2)])
    value = vanishing.eval_exact(0, [2, 5])
    assert value == 0 and type(value) is Fraction
    # a vanishing base with m < 0, at q0 = 0 and away from it
    fr = FactoredRational(2, 1, None, [(qnum(1), 1, qnum(-2), 2, -1)])
    for q0 in (0, Fraction(3, 7)):
        with pytest.raises(ZeroDivisionError, match="pole hit"):
            fr.eval_exact(q0, [2, 1])
    # q/2 z_1 - q^-1 z_2 at q0 = 1/2: 1/4 z_1 - 2 z_2
    with pytest.raises(ZeroDivisionError, match="pole hit"):
        FactoredRational(2, 1, None, [(qpow(1, Fraction(1, 2)), 1, qpow(-1, -1), 2, -2)]) \
            .eval_exact(Fraction(1, 2), [1, Fraction(1, 8)])
    # z = 0 under a negative monomial exponent
    fr = FactoredRational(2, qpow(1), (-1, 1), [(qpow(-1), 1, q, 2, 1)])
    with pytest.raises(ZeroDivisionError):
        fr.eval_exact(2, [0, 3])
    assert fr.eval_exact(2, [1, 3]) == _reference_eval_exact(fr, 2, [1, 3])


# -- FactoredRational products against the constructor -----------------------

_units = st.builds(qpow, st.integers(min_value=-2, max_value=2),
                   st.sampled_from([1, -1, 2, Fraction(1, 2)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_merges_like_the_constructor(data):
    n = 3
    pairs = st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 1), (3, 3)])
    # (u z_3 + v z_3)^m with u = -v and m < 0 is a pole, which the
    # constructor rejects (test_zero_base_in_the_denominator_raises)
    factors = st.lists(st.tuples(_units, pairs, _units,
                                 st.sampled_from([-2, -1, 1, 2]))
                       .filter(lambda f: not (f[1] == (3, 3) and f[3] < 0
                                              and (f[0] + f[2]).is_zero())),
                       max_size=4)
    mono = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)

    def draw(extra=()):
        fs = [(u, i, v, j, m) for u, (i, j), v, m in data.draw(factors)]
        return FactoredRational(n, data.draw(_units), data.draw(mono),
                                fs + list(extra))

    x = draw()
    # proportional copies of x's factors, some cancelling them exactly
    copies = [(u * c, i, v * c, j, data.draw(st.sampled_from([-m, m, 1])))
              for u, i, v, j, m in x.factors
              for c in [data.draw(_units)] if data.draw(st.booleans())]
    y = draw(copies)
    got = x * y
    want = FactoredRational(n, x.scalar * y.scalar,
                            [a + b for a, b in zip(x.monomial, y.monomial)],
                            x.factors + y.factors)
    assert (got.scalar, got.monomial, got.factors) \
        == (want.scalar, want.monomial, want.factors)
    assert got.to_json() == want.to_json()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derived_values_have_the_constructors_fields(data):
    n = 3
    factors = data.draw(st.lists(st.tuples(
        _units, st.sampled_from([(1, 2), (1, 3), (2, 3), (3, 1)]), _units,
        st.sampled_from([-2, -1, 1, 2])), max_size=4))
    x = FactoredRational(
        n, data.draw(_units),
        data.draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)),
        [(u, i, v, j, m) for u, (i, j), v, m in factors])
    c = data.draw(st.one_of(_units, st.just(qnum(0))))
    flip = [(u, i, v, j, -m) for u, i, v, j, m in x.factors]
    cases = [
        (x.scale(c), FactoredRational(n, x.scalar * c, x.monomial, x.factors)),
        (x.inv(), FactoredRational(n, x.scalar.inv(),
                                   [-e for e in x.monomial], flip)),
        (x.numerator_part(), FactoredRational(
            n, x.scalar, [max(e, 0) for e in x.monomial],
            [f for f in x.factors if f[4] > 0])),
        (x.denominator_part(), FactoredRational(
            n, 1, [-min(e, 0) for e in x.monomial],
            [f for f in flip if f[4] > 0])),
    ]
    for got, want in cases:
        assert (got.n, got.scalar, got.monomial, got.factors) \
            == (want.n, want.scalar, want.monomial, want.factors)


# -- the packed storage against plain {exponent: QRat} dicts -----------------

def _deg(a):
    return ratio_degree(a)


def _least_degree(terms, validity):
    if terms:
        return min(map(_deg, terms))
    return INF if validity == INF else validity + 1


def _dict_mul(tx, vx, ty, vy):
    validity = min(vx + _least_degree(ty, vy), vy + _least_degree(tx, vx))
    out = {}
    for a, ca in tx.items():
        for b, cb in ty.items():
            if _deg(a) + _deg(b) <= validity:
                key = tuple(i + j for i, j in zip(a, b))
                out[key] = out.get(key, qnum(0)) + ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}, validity


def _dict_add(tx, vx, ty, vy):
    validity = min(vx, vy)
    out = {}
    for terms in (tx, ty):
        for a, c in terms.items():
            if _deg(a) <= validity:
                out[a] = out.get(a, qnum(0)) + c
    return {k: c for k, c in out.items() if not c.is_zero()}, validity


def _dict_first_difference(tx, ty, bound):
    zero = qnum(0)
    keys = [a for a in tx.keys() | ty.keys()
            if _deg(a) <= bound and tx.get(a, zero) != ty.get(a, zero)]
    if not keys:
        return None
    a = min(keys, key=lambda a: (_deg(a), a[::-1]))
    return a, tx.get(a, zero), ty.get(a, zero)


def _check(got, terms, validity):
    _assert_same_series(got, ExpansionSeries(got.n, terms, validity))
    assert got.terms == terms and got.validity == validity


_int_exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3)
_int_coeffs = st.builds(_laurent, st.integers(min_value=-5, max_value=3),
                        st.lists(st.integers(min_value=-3, max_value=3),
                                 min_size=1, max_size=4)) \
    .filter(lambda c: not c.is_zero())
# integer Laurent numerators over 1, 1+q^3, (1+q^3)^2, 1+q or 2, or
# times a Fraction: series over different denominators meet
_ring_coeffs = st.one_of(_int_coeffs, st.builds(
    operator.truediv, _int_coeffs,
    st.sampled_from([qnum(1) + qpow(3), (qnum(1) + qpow(3)) ** 2,
                     qnum(1) + q, qnum(2), qnum(Fraction(3, 2))])))
_int_terms = st.dictionaries(_int_exps, _ring_coeffs, max_size=6)
_int_validity = st.one_of(st.just(INF), st.integers(min_value=-6, max_value=8))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_storage_equals_the_dict_references(data):
    tx, vx = data.draw(_int_terms), data.draw(_int_validity)
    tx = {a: c for a, c in tx.items() if _deg(a) <= vx}
    ty, vy = data.draw(_int_terms), data.draw(_int_validity)
    # let some terms of the sum cancel
    for a in data.draw(st.sets(st.sampled_from(sorted(tx)))) if tx else ():
        if _deg(a) <= vy:
            ty[a] = -tx[a]
    ty = {a: c for a, c in ty.items() if _deg(a) <= vy}
    x, y = ExpansionSeries(3, tx, vx), ExpansionSeries(3, ty, vy)
    _check(x.mul(y), *_dict_mul(tx, vx, ty, vy))
    _check(x + y, *_dict_add(tx, vx, ty, vy))
    # chained, so that the operands are results with carried bounds
    xy = x + y
    txy, vxy = _dict_add(tx, vx, ty, vy)
    _check(xy.mul(xy), *_dict_mul(txy, vxy, txy, vxy))
    a, c = data.draw(_int_exps), data.draw(st.one_of(_ring_coeffs, _units))
    _check(x._shift_scale(ExpansionSeries.monomial(3, a, c)),
           {tuple(i + j for i, j in zip(a, b)): s * c for b, s in tx.items()},
           vx + _deg(a))
    _check(x.scale(c), {b: s * c for b, s in tx.items()}, vx)
    bound = data.draw(st.integers(min_value=-6, max_value=8))
    if bound <= min(vx, vy):
        assert x.first_difference(y, bound) == _dict_first_difference(tx, ty, bound)
        assert y.first_difference(x, bound) == _dict_first_difference(ty, tx, bound)
        assert x.equal_up_to(x + ExpansionSeries.monomial(3, a, c), bound) \
            == (_deg(a) > bound)


def test_a_product_past_the_default_slot_width_repacks_exactly():
    big = 2 ** 62
    tx = {_z1: _laurent(-3, [big - 1, 0, -big]), _z2: _laurent(2, [big // 3])}
    ty = {_z1: _laurent(0, [-big, 7]), (0, 0): _laurent(-1, [1, -2])}
    x, y = ExpansionSeries(2, tx, INF), ExpansionSeries(2, ty, INF)
    small = ExpansionSeries(2, {_z2: _laurent(1, [1, 1])}, INF)
    assert small._s == series_module._SLOT_WIDTH
    xy = x.mul(y)
    assert xy._s > x._s > series_module._SLOT_WIDTH
    _check(xy, *_dict_mul(tx, INF, ty, INF))
    _check(xy + small, *_dict_add(xy.terms, INF, small.terms, INF))
    _check(small.mul(xy), *_dict_mul(small.terms, INF, xy.terms, INF))


def test_an_operation_that_narrows_an_operand_leaves_the_operand_as_it_was():
    big = 2 ** 62
    x = ExpansionSeries(2, {_z1: qnum(big)}, INF)
    tsmall = {_z2: _laurent(1, [1, 1])}
    # small values under carried bounds past 2^62, at a wide slot width
    y = (x + ExpansionSeries(2, tsmall, INF)) + (-x)
    assert y._s > series_module._SLOT_WIDTH
    c, w, s = y._c, y._w, y._s
    stored = dict(c)
    yy = y.mul(y)
    assert yy._s == series_module._SLOT_WIDTH
    assert (y._c, y._w, y._s) == (c, w, s) and y._c is c and c == stored
    _check(y, tsmall, INF)
    _check(yy, *_dict_mul(tsmall, INF, tsmall, INF))
    assert y.mul(y) == yy   # through the narrower copy kept beside y


def test_a_sum_past_the_default_key_width_repacks_exactly():
    edge = 2 ** (series_module._KEY_WIDTH - 1)
    tx = {(edge - 1, -3): qnum(2), (0, 1): q}
    ty = {(edge + 3, 0): qnum(-1), (0, 1): q}
    x, y = ExpansionSeries(2, tx, INF), ExpansionSeries(2, ty, INF)
    assert x._w == series_module._KEY_WIDTH < y._w
    _check(x + y, *_dict_add(tx, INF, ty, INF))
    _check(x.mul(x), *_dict_mul(tx, INF, tx, INF))
    assert x.mul(x)._w > series_module._KEY_WIDTH
    assert x.coefficient((edge - 1, -3)) == qnum(2)
    assert x.coefficient((edge + 3, 0)) == qnum(0)


def test_an_integer_series_times_a_qrat_series():
    tx = {_z1: _laurent(-2, [1, 0, 3]), _z2: qnum(-4), (1, 1): q}
    ty = {_z1: qnum(1) / (qnum(1) + qpow(3)), (0, 0): qnum(Fraction(2, 3)),
          _z2: _laurent(1, [5])}
    x, y = ExpansionSeries(2, tx, 3), ExpansionSeries(2, ty, 4)
    # every numerator is a packed int: y's over the lcm 1+q^3 times the 3
    # that clears the 2/3
    assert x._d is series_module._POLY_ONE and y._d == QPoly(0, (3, 0, 0, 3))
    assert all(type(v) is int for v in (*x._c.values(), *y._c.values()))
    for got in (x.mul(y), y.mul(x)):
        _check(got, *_dict_mul(tx, 3, ty, 4))
    _check(x + y, *_dict_add(tx, 3, ty, 4))


def test_equal_series_at_different_q_bases_compare_equal():
    tx = {_z1: _laurent(2, [1, -1]), _z2: _laurent(4, [3]), (1, 1): q}
    x = ExpansionSeries(2, tx, 6)
    low = ExpansionSeries(2, {(0, 3): qpow(-9)}, INF)
    y = x + low + -low    # the same terms, written at the base q^-9
    assert y._b < x._b and y.terms == x.terms
    assert x == y and y == x and x.equal_up_to(y, 6)
    assert x.first_difference(y, 6) is None
    z = y + ExpansionSeries.monomial(2, _z2, qpow(-1))
    assert z.first_difference(x, 6) == (_z2, qpow(4, 3) + qpow(-1), qpow(4, 3))
    assert x.first_difference(z, 6) == (_z2, qpow(4, 3), qpow(4, 3) + qpow(-1))
    assert not x.equal_up_to(z, 6) and x.equal_up_to(z, 1)
    # P/(1+q^3) against P(1+q^3)/(1+q^3)^2
    c = qnum(1) + qpow(3)
    u = ExpansionSeries(2, {a: p / c for a, p in tx.items()}, 6)
    v = u.scale(c).scale(c.inv())
    assert u._d == c.num and v._d == (c * c).num and v.terms == u.terms
    assert u == v and v == u and u.first_difference(v, 6) is None
    w = v + ExpansionSeries.monomial(2, _z2, qpow(-1))
    assert w.first_difference(u, 6) \
        == (_z2, qpow(4, 3) / c + qpow(-1), qpow(4, 3) / c)
    assert not u.equal_up_to(w, 6) and u.equal_up_to(w, 1)


def test_to_json_keeps_equal_numerators_over_different_denominators_apart():
    c = qnum(1) + qpow(3)
    x = ExpansionSeries(2, {_z1: q, _z2: qnum(2)}, INF)
    y = ExpansionSeries(2, {_z1: q / c, _z2: qnum(2) / c}, INF)
    assert x._c == y._c and x._b == y._b and x._d != y._d
    expr = NCExpr(2, {(mode("f", 1),): x, (mode("f", 2),): y})
    got = [[j for _, j in item["coeff"]["terms"]]
           for item in expr.to_json()["terms"]]
    # terms in exponent order: z2 before z1
    assert got == [[qnum(2).to_json(), q.to_json()],
                   [(qnum(2) / c).to_json(), (q / c).to_json()]]


def test_only_series_names_the_packed_format_helpers():
    # the packed keys and numerators are private to series.py: every other
    # module reads series through ExpansionSeries and pair_sums
    private = re.compile(r"\b(_pack_coeff|_unpack_coeff|_over_one_denominator"
                         r"|_slots|_key_layout)\b")
    src = Path(__file__).resolve().parents[1] / "src" / "uqa22"
    named = {p.name: sorted(set(private.findall(p.read_text())))
             for p in sorted(src.glob("*.py")) if p.name != "series.py"}
    assert len(named) >= 9
    assert {name: found for name, found in named.items() if found} == {}
