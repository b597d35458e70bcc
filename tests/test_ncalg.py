"""Free-algebra words, the involution, and truncated equality."""

import pytest

from uqa22.ncalg import (
    NCExpr,
    abstract,
    mode,
    principal_degree,
)
from uqa22.qfield import qnum, qpow
from uqa22.series import INF, ExpansionSeries


def word_expr(n, *symbols):
    return NCExpr.from_word(n, tuple(symbols))


def test_concatenation_product():
    x = word_expr(1, mode("f", 1)) * word_expr(1, mode("f", 0))
    assert set(x.coeffs) == {(mode("f", 1), mode("f", 0))}
    assert x.coeffs[(mode("f", 1), mode("f", 0))].coefficient((0,)) == qnum(1)


def test_mul_by_zero_is_zero():
    x = word_expr(2, mode("f", 3))
    assert not (x * NCExpr.zero(2)).coeffs


def test_alphabet_mixing_rejected():
    x = word_expr(1, mode("f", 1))
    y = word_expr(1, abstract("f+", 1))
    with pytest.raises(ValueError, match="mix"):
        x * y
    with pytest.raises(ValueError, match="alphabet"):
        NCExpr.from_word(1, (mode("f", 1), abstract("f+", 1)))


def test_twist_validation():
    with pytest.raises(ValueError, match="twisted"):
        abstract("f+", 1, True)
    assert abstract("s+", 2, True).twisted


def test_iota_symbol_map():
    x = word_expr(1, mode("f", 2), mode("f", -1))
    y = x.iota()
    assert set(y.coeffs) == {(mode("e", -2), mode("e", 1))}


def test_iota_is_an_involution():
    x = word_expr(1, mode("e", 3), mode("a", -2), mode("f", 0))
    assert set(x.iota().iota().coeffs) == set(x.coeffs)


def test_iota_with_variable_inversion():
    # the involution maps words only: the series, read at inverted
    # arguments, keeps its exponents
    s = ExpansionSeries.monomial(1, (-3,))
    x = NCExpr(1, {(mode("f", 2),): s})
    y = x.iota()
    assert y.coefficient((mode("e", -2),)) == s
    assert y.validity == INF
    back = y.iota()
    assert back.coeffs == x.coeffs and back.validity == x.validity


def test_iota_inversion_with_mixed_exactness():
    # an exact coefficient next to a truncated one keeps its own
    # infinite validity under the common header claim
    exact = ExpansionSeries.monomial(1, (-2,))
    cut = ExpansionSeries(1, {(-1,): qnum(1)}, 4)
    x = NCExpr(1, {(mode("f", 2),): exact, (mode("f", 1),): cut})
    y = x.iota()
    assert y.validity == 4
    got_exact = y.coefficient((mode("e", -2),))
    assert got_exact == exact and got_exact.validity == INF
    got_cut = y.coefficient((mode("e", -1),))
    assert got_cut == cut and got_cut.validity == 4
    assert got_cut.coefficient((-1,)) == qnum(1)
    back = y.iota()
    assert back.coeffs == x.coeffs and back.validity == x.validity


def test_iota_rejects_abstract_words():
    x = word_expr(1, abstract("f+", 1))
    with pytest.raises(ValueError, match="mode"):
        x.iota()


def test_iota_is_a_homomorphism_on_random_words(rng):
    for _ in range(30):
        w1 = tuple(mode("f", rng.randint(-5, 5))
                   for _ in range(rng.randint(0, 3)))
        w2 = tuple(mode("e", rng.randint(-5, 5))
                   for _ in range(rng.randint(0, 3)))
        a, b = NCExpr.from_word(1, w1), NCExpr.from_word(1, w2)
        lhs = (a * b).iota()
        rhs = a.iota() * b.iota()
        assert set(lhs.coeffs) == set(rhs.coeffs)


def _random_expr(rng, n=2, words=2):
    coeffs = {}
    for _ in range(words):
        w = tuple(mode("f", rng.randint(-3, 3))
                  for _ in range(rng.randint(0, 2)))
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        coeffs[w] = ExpansionSeries(
            n, {a: qpow(rng.randint(-2, 2), rng.choice([1, -1, 2]))},
            rng.randint(3, 6))
    return NCExpr(n, coeffs)


def test_free_algebra_axioms_on_random_triples(rng):
    for _ in range(25):
        a, b, c = (_random_expr(rng) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        bound = min(left.validity, right.validity)
        assert left.equal_up_to(right, bound)
        lhs = a * (b + c)
        rhs = a * b + a * c
        bound = min(lhs.validity, rhs.validity)
        assert lhs.equal_up_to(rhs, bound)


def test_principal_degree_examples():
    assert principal_degree((mode("f", 1), mode("f", 0))) == 2 + (-1)
    assert principal_degree(()) == 0
    assert principal_degree((mode("e", 2),)) == 7
    assert principal_degree((mode("a", -3),)) == -9
    with pytest.raises(ValueError, match="mode words"):
        principal_degree((abstract("f+", 1),))


def test_principal_degree_negates_under_iota(rng):
    for _ in range(20):
        w = tuple(mode(rng.choice("efa"), rng.randint(-6, 6))
                  for _ in range(rng.randint(1, 5)))
        image = next(iter(NCExpr.from_word(1, w).iota().coeffs))
        assert principal_degree(image) == -principal_degree(w)


def test_nc_equal_reflexive_and_bound_checked():
    s = ExpansionSeries(2, {(0, 0): qnum(1)}, 3)
    x = NCExpr(2, {(mode("f", 1),): s})
    assert x.equal_up_to(x, 3)
    with pytest.raises(ValueError, match="insufficient truncation"):
        x.equal_up_to(x, 4)


def test_nc_equal_ignores_terms_above_validity():
    base = ExpansionSeries(2, {(0, 0): qnum(1)}, 2)
    x = NCExpr(2, {(mode("f", 1),): base})
    extra = ExpansionSeries(2, {(0, 0): qnum(1), (-3, 3): qnum(7)}, INF)
    y = NCExpr(2, {(mode("f", 1),): extra}, validity=2)
    assert x.equal_up_to(y, 2)
    assert not x.coefficient((mode("f", 1),)).terms == y.coefficient(
        (mode("f", 1),)).terms


def test_nc_equal_is_an_equivalence(rng):
    # the three expressions agree below the bound and differ above it
    s1 = ExpansionSeries(1, {(0,): qnum(1), (1,): qpow(2)}, 5)
    s2 = ExpansionSeries(1, {(0,): qnum(1), (1,): qpow(2), (4,): qnum(3)}, 5)
    s3 = ExpansionSeries(1, {(0,): qnum(1), (1,): qpow(2), (5,): qnum(4)}, 5)
    xs = [NCExpr(1, {(mode("f", 1),): s}) for s in (s1, s2, s3)]
    bound = 3
    for a in xs:
        assert a.equal_up_to(a, bound)
    assert xs[0].equal_up_to(xs[1], bound) and xs[1].equal_up_to(xs[2], bound) \
        and xs[0].equal_up_to(xs[2], bound)
    assert not xs[0].equal_up_to(xs[1], 5)


def test_header_validity_tracks_lost_words():
    # a word whose coefficient cancels below its bound must still cap the
    # header, otherwise absence would overclaim exactness
    s = ExpansionSeries(1, {(-1,): qnum(1)}, 4)
    x = NCExpr(1, {(mode("f", 1),): s})
    cancelled = x - x
    assert not cancelled.coeffs
    assert cancelled.validity == 4


def test_json_round_trip():
    s = ExpansionSeries(2, {(0, 0): qnum(1), (-1, 1): qpow(-2)}, 6)
    x = NCExpr(2, {(abstract("s+", 1, True), abstract("f+", 2)): s})
    y = NCExpr.from_json(x.to_json())
    assert set(y.coeffs) == set(x.coeffs)
    assert y.validity == x.validity
