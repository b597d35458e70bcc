"""Pairing-tensor factors, Cartan coefficients, assembly."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqa22.cli import _canonical_json
from uqa22.ncalg import ModeSymbol, _symbol_json, iota_word, principal_degree
from uqa22.projection import (mode_expand, weight_minus_closed,
                              weight_plus_closed, weight_plus_recursive)
from uqa22.qfield import QRat, qnum, qpow
from uqa22.rmatrix import (
    H_TENSOR_H,
    TensorExpr,
    assemble_R,
    cartan_coeff,
    cartan_tensor,
    r_factor,
)
from uqa22.series import ExpansionSeries, pair_sums

q = qpow(1)
coupling = q - qpow(-1)


def e(k):
    return ModeSymbol("e", k)


def f(k):
    return ModeSymbol("f", k)


def test_r_plus_order_one():
    t = r_factor("+", 1, 8)
    assert t.terms == {((e(-k),), (f(k),)): coupling for k in range(1, 9)}


def test_r_minus_order_one():
    t = r_factor("-", 1, 8)
    assert t.terms == {((e(k),), (f(-k),)): coupling for k in range(0, 9)}


def test_r_order_zero_is_trivial():
    for sign in "+-":
        assert r_factor(sign, 0, 4).terms == {((), ()): qnum(1)}


def test_r_factor_degrees_pair_to_zero():
    for sign in "+-":
        t = r_factor(sign, 2, 2)
        assert t.terms
        for (l, r) in t.terms:
            assert principal_degree(l) + principal_degree(r) == 0


def test_r_plus_order_two_against_recursive_path():
    # rebuild the order-2 factor from the independently evaluated weight
    # function and compare tensors entry by entry
    window = 2
    need = window * 3
    modes = mode_expand(weight_plus_recursive(2, need), window)
    by_exp = {}
    for word, series in modes.coeffs.items():
        for a, c in series.terms.items():
            if all(abs(x) <= window for x in a):
                by_exp.setdefault(a, []).append((word, c))
    c2 = coupling ** 2 / factorial(2)
    want = {}
    for pairs in by_exp.values():
        for wl, cl in pairs:
            left = tuple(ModeSymbol("e", -s.index) for s in wl)
            for wr, cr in pairs:
                key = (left, wr)
                add = c2 * cl * cr
                want[key] = want.get(key, qnum(0)) + add
    want = {k: v for k, v in want.items() if not v.is_zero()}
    got = r_factor("+", 2, window)
    assert got.terms == want


def test_cartan_c1():
    assert cartan_coeff(1) == coupling / (q + 1 + qpow(-1))


def test_cartan_c2_denominator_carries_sign_flip():
    c2 = cartan_coeff(2)
    want = qnum(2) * coupling ** 2 / ((q ** 2 - qpow(-2)) * (q ** 2 - 1 + qpow(-2)))
    assert c2 == want


@pytest.mark.parametrize("n", range(1, 7))
def test_cartan_formula_matches_direct_substitution(n):
    got = cartan_coeff(n)
    want = qnum(n) * coupling ** 2 / (
        (qpow(n) - qpow(-n)) * (qpow(n) + qnum((-1) ** (n + 1)) + qpow(-n)))
    assert got == want


def test_cartan_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        cartan_coeff(0)


def test_cartan_tensor_first_order():
    t = cartan_tensor(3)
    assert t.terms[((), ())] == qnum(1)
    for k in range(1, 4):
        assert t.terms[((ModeSymbol("a", -k),), (ModeSymbol("a", k),))] \
            == cartan_coeff(k)


def test_cartan_tensor_rejects_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        cartan_tensor(3, -1)


def test_flip_is_an_involution():
    t = r_factor("+", 1, 3)
    assert t.flip().flip().terms == t.terms


def test_assemble_orders_the_factors():
    factors = assemble_R(1, 2)
    assert len(factors) == 4
    assert factors[1] is H_TENSOR_H
    # first factor is flipped: mode words live on the opposite legs
    lead = [k for k in factors[0].terms if k != ((), ())][0]
    assert lead[0][0].family == "f" and lead[1][0].family == "e"
    assert factors[3].terms[((e(0),), (f(0),))] == coupling


def test_tensor_json_round_trip():
    t = r_factor("-", 1, 3)
    back = TensorExpr.from_json(t.to_json())
    assert back.terms == t.terms
    assert (back.order, back.window) == (t.order, t.window)


def test_assemble_with_zero_effective_window():
    # a window of 1 with order 0 keeps every factor trivial except the
    # Cartan tensor's first mode
    factors = assemble_R(0, 1, cartan_order=0)
    assert factors[0].terms == {((), ()): qnum(1)}
    assert factors[2].terms == {((), ()): qnum(1)}
    assert factors[3].terms == {((), ()): qnum(1)}


def _per_pair_reference(coeffs, m):
    # the loop that multiplied the coupling into every pairing product
    by_exp = {}
    for (word, a), c in coeffs.items():
        by_exp.setdefault(a, []).append((word, c))
    cm = coupling ** m / factorial(m)
    want = {}
    for pairs in by_exp.values():
        for wl, cl in pairs:
            left = tuple(ModeSymbol("e", -s.index) for s in wl)
            for wr, cr in pairs:
                want[(left, wr)] = want.get((left, wr), qnum(0)) + cm * cl * cr
    return {k: v for k, v in want.items() if not v.is_zero()}


def _in_box(expr, window):
    return {(word, a): c for word, series in expr.coeffs.items()
            for a, c in series.terms.items()
            if all(abs(x) <= window for x in a)}


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("m, window", [
    pytest.param(1, 3, id="1"), pytest.param(2, 3, id="2"),
    pytest.param(2, 8, id="2-window8"), pytest.param(3, 2, id="3-window2")])
def test_r_factor_equals_the_per_pair_coupling_reference(sign, m, window):
    # the reference expands at least 4 deep, deeper than r_factor's
    # window*m(m+1)/2 at order 1, window 3: that depth misses no box term
    weight = weight_plus_closed if sign == "+" else weight_minus_closed
    modes = mode_expand(weight(m, max(4, window * m * (m + 1) // 2)), window)
    assert r_factor(sign, m, window).terms \
        == _per_pair_reference(_in_box(modes, window), m)


def _synthetic_coefficients(c):
    # two exponents share every word; the (f1, f2) pairs cancel, so one
    # key sums to zero, and the other keys mix c with (1+q)-denominators
    u = qnum(1) / (q + 1)
    return {((f(1),), (0, 1)): c, ((f(2),), (0, 1)): u,
            ((f(1),), (1, 0)): c, ((f(2),), (1, 0)): -u,
            ((f(1), f(0)), (1, 0)): q * u * u + 2, ((f(0),), (2, 0)): c * q}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", [
    # a Fraction numerator: the lifted values leave the integer ring
    pytest.param(qnum(Fraction(1, 3)) * q - 1, id="fraction-numerator"),
    # a cyclotomic factor other than 1+q: integer ring, D not a power of 1+q
    pytest.param(q / (1 - q + q * q), id="den-1-q+q^2"),
    # no listed factor: Euclid's gcd, and the monic q + 1/2 in D
    pytest.param((q - 1) / (1 + 2 * q), id="den-1+2q"),
])
def test_pair_sum_equals_the_per_pair_reference_off_the_fast_case(m, c):
    coeffs = _synthetic_coefficients(c)
    family = {}
    for (word, a), v in coeffs.items():
        family.setdefault(word, {})[a] = v
    # r_factor's coupling: the pair sums with (q-q^-1)^m, then 1/m!
    sums = pair_sums({w: ExpansionSeries(2, t) for w, t in family.items()},
                     coupling ** m)
    got = {(iota_word(wl), wr): v / factorial(m) for (wl, wr), v in sums.items()}
    assert ((e(-1),), (f(2),)) not in got
    assert got == _per_pair_reference(coeffs, m)


def _pair_sums_reference(family, keep, scale):
    # every pair of labels, summed over the decoded terms
    want = {}
    for x, sx in family.items():
        for y, sy in family.items():
            total = qnum(0)
            for a, c in sx.terms.items():
                if keep(a) and a in sy.terms:
                    total = total + c * sy.terms[a]
            if not total.is_zero():
                want[(x, y)] = scale * total
    return want


def _in_window(a):
    return all(abs(x) <= 2 for x in a)


def _boxed(family):
    # every member cut to the window [-2, 2]^2, as r_factor's expansion is
    return {x: s.within((-2, -2), (2, 2)) for x, s in family.items()}


def test_pair_sums_over_mixed_denominators_and_q_bases():
    c = 1 + q ** 3
    low = ExpansionSeries(2, {(0, 1): qpow(-9) - 2, (5, 0): qnum(7)})
    family = {
        # over 1, at the q-base -9 and with a term outside the window
        "one": low + ExpansionSeries(2, {(1, 0): 3 * q ** 7}),
        # over 1+q^3, at the base -3
        "c": ExpansionSeries(2, {(0, 1): qpow(-3) / c, (1, 0): (q + 2) / c,
                                 (2, -1): q / c}, 4),
        # over (1+q^3)^2, at the base 0
        "c^2": ExpansionSeries(2, {(1, 0): q ** 9 / (c * c),
                                   (2, -1): qnum(-1) / (c * c)}),
        # over 3, at the base 2 and past the default slot width
        "wide": ExpansionSeries(2, {(1, 0): 2 ** 40 * q ** 3,
                                    (0, 1): q ** 2 / 3}),
    }
    assert {s._d.coeffs for s in family.values()} \
        == {(1,), c.num.coeffs, (c * c).num.coeffs, (3,)}
    assert len({s._b for s in family.values()}) == 4
    for m in (1, 2):
        got = pair_sums(_boxed(family), coupling ** m)
        assert got == _pair_sums_reference(family, _in_window, coupling ** m)
        assert len(got) == 16


def test_pair_sums_drop_the_cancelled_pairs():
    c = qnum(1) / (1 + q ** 3)
    # orthogonal in the window: every pair of distinct labels cancels
    x = ExpansionSeries(2, {(0, 1): c, (1, 0): c * q, (3, 0): c})
    y = ExpansionSeries(2, {(0, 1): q, (1, 0): qnum(-1), (3, 0): q})
    got = pair_sums(_boxed({"x": x, "y": y}), coupling)
    assert got == _pair_sums_reference({"x": x, "y": y}, _in_window, coupling)
    assert set(got) == {("x", "x"), ("y", "y")}
    # over Q(q) a diagonal sum of squares vanishes only with every term, so
    # a family whose pairs all cancel has no coefficient left in the window
    gone = x + -x
    outside = ExpansionSeries(2, {(3, 0): c, (0, -4): q})
    assert pair_sums(_boxed({"gone": gone, "outside": outside, "y": y + -y}),
                     coupling) == {}
    assert pair_sums({}, coupling) == {}


def test_pair_sums_of_a_zero_scale_or_an_empty_family_are_empty():
    x = ExpansionSeries(2, {(0, 1): qnum(3), (1, 0): q / (1 + q ** 3)})
    assert pair_sums({"x": x}, qnum(0)) == {}
    assert pair_sums({}, qnum(0)) == {}
    assert pair_sums({"empty": ExpansionSeries(2, {})}, coupling) == {}


def _fields(v):
    # the canonical fields, with the exact type of every coefficient
    return [(p.off, [(type(c), c) for c in p.coeffs]) for p in (v.num, v.den)]


@st.composite
def _families(draw):
    # up to four members, each over 1, 1+q^3, (1+q^3)^2 or 3 and at its own
    # q-base, on exponents inside the window [-2, 2]^2 and one outside it
    family = {}
    for label in range(draw(st.integers(min_value=1, max_value=4))):
        den = draw(st.sampled_from([qnum(1), 1 + q ** 3, (1 + q ** 3) ** 2,
                                    qnum(3)]))
        base = draw(st.integers(min_value=-6, max_value=6))
        terms = {}
        for a in draw(st.lists(st.sampled_from([(0, 1), (1, 0), (2, -1),
                                                (1, 1), (3, 0)]),
                               max_size=4, unique=True)):
            cs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=1, max_size=3))
            num = sum((qpow(base + k, c) for k, c in enumerate(cs)), qnum(0))
            if not num.is_zero():
                terms[a] = num / den
        family[label] = ExpansionSeries(2, terms)
    return family


_scales = st.one_of(
    st.integers(min_value=1, max_value=4).map(
        lambda m: coupling ** m / factorial(m)),
    st.builds(lambda c, k: qpow(k, c) / (1 + q ** 3),
              st.fractions(min_value=-9, max_value=9,
                           max_denominator=9).filter(bool),
              st.integers(min_value=-4, max_value=4)),
    st.just(qnum(Fraction(2, 3))))


@settings(max_examples=80, deadline=None)
@given(_families(), _scales)
def test_pair_sums_fold_the_whole_scale(family, scale):
    # the scale meets each distinct sum once, after the division by D^2
    got = pair_sums(_boxed(family), scale)
    assert got == _pair_sums_reference(family, _in_window, scale)
    for (x, y), v in got.items():
        assert got[y, x] == v
        assert _fields(v) == _fields(QRat(v.num, v.den))


def _plain_json(t):
    # the tensor's JSON with one fresh coefficient tree per term
    return {"order": t.order, "window": t.window,
            "terms": [{"left": [_symbol_json(s) for s in l],
                       "right": [_symbol_json(s) for s in r],
                       "coeff": c.to_json()}
                      for (l, r), c in t.sorted_terms()]}


@pytest.mark.parametrize("sign", "+-")
def test_tensor_json_hashes_no_fraction(sign, monkeypatch):
    third = qnum(Fraction(1, 3)) * q - 1
    # equal coefficients held in distinct objects
    twins = TensorExpr({((e(-1),), (f(1),)): third,
                        ((e(-2),), (f(2),)): qnum(Fraction(1, 3)) * q - 1}, 1, 2)
    assert len({id(c) for c in twins.terms.values()}) == 2
    tensors = [r_factor(sign, 2, 4), twins]
    assert any(type(c) is Fraction for t in tensors for v in t.terms.values()
               for c in v.num.coeffs)
    want = [_canonical_json(_plain_json(t)) for t in tensors]

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(Fraction(1, 3))
    assert [_canonical_json(t.to_json()) for t in tensors] == want


def test_r_factor_rejects_an_unknown_sign_at_every_order():
    for m in (0, 1):
        with pytest.raises(ValueError, match="unknown sign 'x'"):
            r_factor("x", m, 2)


@pytest.mark.parametrize("weight", [weight_plus_closed, weight_minus_closed])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_reachable_weight_expands_to_the_same_box_terms(n, weight):
    # depth n(n+1) is r_factor's expansion depth at window 2; the wider windows
    # are truncated inside the box, which the pruning must not change
    w = weight(n, n * (n + 1))
    for window in range(1, 6):
        assert _in_box(mode_expand(w, window, box=True), window) \
            == _in_box(mode_expand(w, window), window)


@pytest.mark.parametrize("sign, weight", [("+", weight_plus_closed),
                                          ("-", weight_minus_closed)])
def test_r_factor_leaves_the_weight_function_unpruned(sign, weight):
    before = weight(2, 6).expr.to_json()
    r_factor(sign, 2, 2)
    w = weight(2, 6)
    assert w.expr.to_json() == before
    # the box drops terms of this weight's expansion, so a leak would show
    size = sum(len(s) for s in mode_expand(w, 2).coeffs.values())
    assert sum(len(s) for s in mode_expand(w, 2, box=True).coeffs.values()) < size


@pytest.mark.parametrize("sign, weight", [("+", weight_plus_closed),
                                          ("-", weight_minus_closed)])
def test_r_factor_decodes_no_series(sign, weight, monkeypatch):
    # only series.py reads the packed terms on the R-factor path: with
    # the decoded view refused, r_factor still gives the per-pair reference
    m, window = 2, 3
    modes = mode_expand(weight(m, window * m * (m + 1) // 2), window)
    want = _per_pair_reference(_in_box(modes, window), m)

    def refuse(self):
        raise AssertionError("a series was decoded")

    monkeypatch.setattr(ExpansionSeries, "terms", property(refuse))
    assert r_factor(sign, m, window).terms == want


def test_assemble_takes_the_cartan_order_by_keyword_only():
    # an old (order, depth, window) call must not pass as (order, window,
    # cartan_order)
    with pytest.raises(TypeError):
        assemble_R(1, 2, 2)
