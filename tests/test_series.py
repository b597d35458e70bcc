"""Truncated expansions: correctness, validity bookkeeping, exact evaluation."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_expand, random_monomial, rational_stream
from uqa22.blocks import ArgList, build_block, build_kernel
from uqa22.qfield import qnum, qpow
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
    assert s.is_empty()


def test_substitute_scale_on_series():
    terms = {(-k,): qnum(1) for k in range(1, 5)}
    s = ExpansionSeries(1, terms)
    t = s.substitute_scale(1, qpow(1, -1))
    for k in range(1, 5):
        assert t.coefficient((-k,)) == qpow(1, -1) ** (-k)


def test_substitute_scale_identity_and_inverse():
    s = build_block("mu", ArgList((1,), 2), 1, 2).expand(4)
    assert s.substitute_scale(1, qnum(1)).terms == s.terms
    back = s.substitute_scale(2, qpow(2)).substitute_scale(2, qpow(-2))
    assert back.terms == s.terms
    with pytest.raises(ValueError, match="nonzero"):
        s.substitute_scale(1, qnum(0))


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
        assert fr.total_degree() == 0
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
        lead_deg = ratio_degree(a.leading()[1])
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
_binomial_coeffs = st.builds(qpow, st.integers(min_value=-1, max_value=1),
                             st.sampled_from([1, -1, 2, Fraction(-1, 2)]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_exact_equals_the_fraction_by_fraction_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    pairs = st.tuples(st.integers(min_value=1, max_value=n),
                      st.integers(min_value=1, max_value=n)) \
        .filter(lambda ij: ij[0] < ij[1])
    factors = data.draw(st.lists(
        st.tuples(_binomial_coeffs, pairs, _binomial_coeffs,
                  st.sampled_from([1, 2, 3, -1, -2])),
        max_size=4))
    fr = FactoredRational(
        n, data.draw(st.one_of(_coeffs, _binomial_coeffs)),
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
