"""Weight functions: combinatorics, the two evaluators, mode expansion."""

import gc
from itertools import combinations, permutations
from math import prod

import pytest

from conftest import substitute_scale
from uqa22.blocks import ArgList, build_block, build_kernel
from uqa22.ncalg import PS_PLUS, NCExpr, abstract, iota_word, mode
from uqa22.projection import (
    MINUS,
    PLUS,
    AdmissiblePair,
    _weighted_sum,
    admissible_pairs,
    build_fs,
    f_row,
    mode_expand,
    star_projection,
    symbol_modes,
    tau_factored,
    tau_row,
    weight_minus_closed,
    weight_minus_recursive,
    weight_plus_closed,
    weight_plus_recursive,
    weight_structure,
)
from uqa22.qfield import qnum, qpow
from uqa22.series import INF, ExpansionSeries, FactoredRational
from uqa22.verify import brute_admissible

q = qpow(1)


# -- admissible pairs ---------------------------------------------------------

def test_pairs_n2():
    assert [(p.I, p.J) for p in admissible_pairs(2, 1, PLUS)] == [((1,), (2,))]
    assert [(p.I, p.J) for p in admissible_pairs(2, 1, MINUS)] == [((1,), (2,))]


def test_pairs_n3_r1_plus():
    got = {(p.I, p.J) for p in admissible_pairs(3, 1, PLUS)}
    assert got == {((1,), (2,)), ((1,), (3,)), ((2,), (3,))}


def test_pairs_n4_r2_plus_is_the_printed_triple():
    got = [(p.I, p.J) for p in admissible_pairs(4, 2, PLUS)]
    assert got == [((1, 2), (4, 3)), ((2, 1), (4, 3)), ((3, 1), (4, 2))]


def test_pairs_n4_r2_minus_count():
    assert len(admissible_pairs(4, 2, MINUS)) == 3


def test_pairs_out_of_range():
    with pytest.raises(ValueError):
        admissible_pairs(4, 3, PLUS)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("orientation", [PLUS, MINUS])
def test_pairs_match_brute_force(n, orientation):
    for r in range(n // 2 + 1):
        fast = {(p.I, p.J) for p in admissible_pairs(n, r, orientation)}
        assert fast == set(brute_admissible(n, r, orientation))


@pytest.mark.parametrize("n", range(1, 9))
def test_minus_pairs_come_in_sorted_order(n):
    # the LaTeX emitters print the pairs in this order
    for r in range(n // 2 + 1):
        got = [(p.I, p.J) for p in admissible_pairs(n, r, MINUS)]
        assert got == sorted(brute_admissible(n, r, MINUS))


def _permutation_filter(n, r):
    """The plus pairs in the order of the permutation filter: J in
    decreasing order, then every permutation of the rest, kept when
    I[k] < J[k] for every k."""
    indices = range(1, n + 1)
    js = sorted((tuple(sorted(c, reverse=True)) for c in combinations(indices, r)),
                reverse=True)
    return [(I, J) for J in js
            for I in permutations([x for x in indices if x not in J], r)
            if all(i < j for i, j in zip(I, J))]


@pytest.mark.parametrize("n", range(1, 9))
def test_pairs_equal_the_permutation_filter_in_order(n):
    # weight_structure lists its summands in this order, which the sorted
    # comparisons with brute_admissible cannot see
    for r in range(n // 2 + 1):
        plus = _permutation_filter(n, r)
        assert [(p.I, p.J) for p in admissible_pairs(n, r, PLUS)] == plus
        minus = sorted((p.I, p.J) for p in (AdmissiblePair(I, J, PLUS, n).mirror()
                                            for I, J in plus))
        assert [(p.I, p.J) for p in admissible_pairs(n, r, MINUS)] == minus


def test_pair_validation():
    with pytest.raises(ValueError):
        AdmissiblePair((1,), (1,), PLUS, 3)
    with pytest.raises(ValueError):
        AdmissiblePair((2,), (1,), PLUS, 3)
    with pytest.raises(ValueError):
        AdmissiblePair((1, 2), (3, 4), PLUS, 4)   # J must decrease
    for I, J, n, message in (((2, 1), (3, 4), 4, "first row must increase"),
                             ((3,), (2,), 3, "pairing must satisfy i < j"),
                             ((1, 2), (3,), 3, "equal length"),
                             ((1,), (5,), 3, "out of range")):
        with pytest.raises(ValueError, match=message):
            AdmissiblePair(I, J, MINUS, n)


# -- building blocks ----------------------------------------------------------

def test_F_with_empty_row_is_a_bare_symbol():
    f = build_fs("F", PLUS, ArgList((), 1), 2, 4)
    assert set(f.coeffs) == {(abstract("f+", 1),)}


def test_F_matches_rho_blocks():
    f = build_fs("F", PLUS, ArgList((1,), 2), 2, 5)
    rho = build_block("rho", ArgList((1,), 2), 1, 2).expand(5)
    got = f.coefficient((abstract("f+", 1),))
    assert got.equal_up_to(-rho, 5)


def test_S_coefficients_carry_twisted_symbol():
    s = build_fs("S", PLUS, ArgList((1,), 2), 2, 5)
    words = set(s.coeffs)
    assert (abstract("s+", 1, True),) in words
    assert (abstract("s+", 2),) in words
    nu = build_block("nu", ArgList((1,), 2), 1, 2).expand(5)
    assert s.coefficient((abstract("s+", 1, True),)).equal_up_to(-nu, 5)


def test_F_IJ_row_selection():
    pair = AdmissiblePair((3,), (4,), PLUS, 4)
    assert f_row(pair, 2) == ((3, 1), 2)
    assert f_row(pair, 1) == ((3,), 1)
    with pytest.raises(ValueError, match="paired"):
        f_row(pair, 4)


def test_tau_IJ_requires_valid_index():
    pair = AdmissiblePair((1,), (2,), PLUS, 2)
    with pytest.raises(ValueError):
        tau_factored(pair, 2).expand(4)


def test_tau_n2_display():
    pair = AdmissiblePair((1,), (2,), PLUS, 2)
    t = tau_factored(pair, 1).expand(6)
    lam = build_block("lambda", ArgList((1,), 2), 1, 2)
    assert t.equal_up_to(lam.scale(-1).expand(6), 6)


def test_tau_n4_products_include_alpha_crossings():
    pair = AdmissiblePair((2, 1), (4, 3), PLUS, 4)
    want = build_block("lambda", ArgList((1, 2, 3), 4), 2, 4).scale(-1) \
        * build_kernel("alpha", qnum(1), 1, 2, 4) \
        * build_kernel("alpha", qpow(1, -1), 1, 2, 4) \
        * build_kernel("alpha", qpow(1, -1), 3, 2, 4)
    got = tau_factored(pair, 1)
    assert got.expand(4).equal_up_to(want.expand(4), 4)


# -- closed formula -----------------------------------------------------------

def test_weight_plus_n1():
    w = weight_plus_closed(1, 3)
    assert set(w.expr.coeffs) == {(abstract("f+", 1),)}


def test_weight_plus_n2_structure():
    terms = weight_structure(2, PLUS)
    assert len(terms) == 2
    empty = [t for t in terms if t.pair.r == 0][0]
    assert empty.f_rows == (((), 1), ((1,), 2))
    paired = [t for t in terms if t.pair.r == 1][0]
    assert paired.pair.I == (1,) and paired.pair.J == (2,)
    assert paired.s_rows == (((), 1),)
    assert not paired.f_rows


def test_weight_plus_n2_value():
    w = weight_plus_closed(2, 5)
    f2 = build_fs("F", PLUS, ArgList((1,), 2), 2, 5)
    pf1 = NCExpr.from_word(2, (abstract("f+", 1),))
    tau = tau_factored(AdmissiblePair((1,), (2,), PLUS, 2), 1).expand(5)
    ps1 = NCExpr.from_word(2, (abstract("s+", 1),))
    want = pf1 * f2 + ps1.scale(tau)
    assert w.expr.equal_up_to(want, 5)


# -- recursion oracle ---------------------------------------------------------

def test_recursion_n1_and_n2_hand_unrolled():
    w1 = weight_plus_recursive(1, 3)
    assert set(w1.expr.coeffs) == {(abstract("f+", 1),)}
    w2 = weight_plus_recursive(2, 5)
    assert w2.equal_up_to(weight_plus_closed(2, 5), 5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_equals_recursive(n):
    depth = 4
    for closed, recursive in ((weight_plus_closed, weight_plus_recursive),
                              (weight_minus_closed, weight_minus_recursive)):
        assert closed(n, depth).equal_up_to(recursive(n, depth), depth)


@pytest.mark.parametrize("recursive", [weight_plus_recursive,
                                       weight_minus_recursive])
def test_the_recursions_leave_no_memoised_expressions_to_the_collector(recursive):
    def cyclic_garbage(n):
        gc.collect()
        gc.disable()
        try:
            recursive(n, 2)
            return gc.collect()
        finally:
            gc.enable()

    # only the recursion's own closures are cyclic: as many at n=4 as at
    # n=2, where every intermediate expression would add to the count
    assert cyclic_garbage(4) == cyclic_garbage(2) < 20


def test_minus_recursion_n1():
    w = weight_minus_recursive(1, 3)
    assert w.orientation == MINUS
    assert set(w.expr.coeffs) == {(abstract("f-", 1),)}
    assert w.equal_up_to(weight_minus_closed(1, 3), 3)


# -- negative projection ------------------------------------------------------

def test_weight_minus_n1():
    w = weight_minus_closed(1, 3)
    assert set(w.expr.coeffs) == {(abstract("f-", 1),)}


def test_weight_minus_n2_hand_unrolled():
    from uqa22.blocks import build_tilde_block
    w = weight_minus_closed(2, 5)
    ftilde = build_fs("F", MINUS, ArgList((2,), 1), 2, 5)
    pf2 = NCExpr.from_word(2, (abstract("f-", 2),))
    tau = build_tilde_block("lambda", ArgList((2,), 1), 2, 2).expand(5)
    ps2 = NCExpr.from_word(2, (abstract("s~-", 2),))
    want = ftilde * pf2 + ps2.scale(tau)
    assert w.expr.equal_up_to(want, 5)


def test_weight_minus_orders_factors_f_then_reversed_s():
    terms = weight_structure(4, MINUS)
    paired = [t for t in terms if t.pair.I == (1, 3)][0]
    assert paired.pair.J == (2, 4)
    # reversed S row: the second factor's row holds the first paired index
    assert paired.s_rows == (((2,), 4), ((), 2))


def test_minus_tau_row_skips_and_appends():
    # a paired index already used is skipped from the natural range and
    # re-appended at the end, so it appears exactly once
    pair = AdmissiblePair((1, 3), (2, 5), MINUS, 5)
    row, target = tau_row(pair, 2)
    assert target == 3
    assert row == (4, 5, 2)
    frow, ftarget = f_row(pair, 4)
    assert (frow, ftarget) == ((5, 2), 4)


# -- mode expansion -----------------------------------------------------------

def test_mode_expand_single_current():
    w = mode_expand(weight_plus_closed(1, 3), 5)
    assert set(w.coeffs) == {(mode("f", m),) for m in range(1, 6)}
    for m in range(1, 6):
        assert w.coefficient((mode("f", m),)).coefficient((-m,)) == qnum(1)


def test_mode_expand_minus_single_current():
    w = mode_expand(weight_minus_closed(1, 3), 4)
    assert set(w.coeffs) == {(mode("f", -m),) for m in range(0, 5)}


def test_mode_expand_composite_coefficient():
    ps = symbol_modes(abstract(PS_PLUS, 1), 1, 6)
    pref = qnum(-1) / (q + qpow(-2))
    got = ps.coefficient((mode("f", 1), mode("f", 0))).coefficient((-1,))
    assert got == pref * (q + 1)
    got = ps.coefficient((mode("f", 0), mode("f", 1))).coefficient((-1,))
    assert got == -pref * (1 + qpow(-1))


def test_mode_expand_twisted_symbol_uses_scaled_argument():
    plain = symbol_modes(abstract(PS_PLUS, 1), 1, 5)
    twisted = symbol_modes(abstract(PS_PLUS, 1, True), 1, 5)
    for word, series in plain.coeffs.items():
        tw = twisted.coefficient(word)
        assert tw.terms == substitute_scale(series, 1, qpow(1, -1)).terms


def test_mode_window_monotonicity():
    big = mode_expand(weight_plus_closed(2, 4), 4)
    small = mode_expand(weight_plus_closed(2, 4), 3)
    for word, series in small.coeffs.items():
        if all(abs(s.index) <= 3 for s in word):
            ref = big.coefficient(word)
            assert ref.equal_up_to(series, min(ref.validity, series.validity))


def test_mode_sign_disjointness():
    plus = mode_expand(weight_plus_closed(2, 4), 4)
    for word in plus.coeffs:
        assert all(s.index >= 0 for s in word)
    minus = mode_expand(weight_minus_closed(2, 4), 4)
    for word in minus.coeffs:
        assert all(s.index <= 1 for s in word)
        # index 1 only arises inside composite-current pairs
        if any(s.index == 1 for s in word):
            assert any(x.index <= 0 for x in word)


# -- duality transport --------------------------------------------------------

def test_star_projection_single_current():
    sp = star_projection(1, 4, 5, "-")
    assert set(sp.coeffs) == {(mode("e", -m),) for m in range(1, 6)}
    for m in range(1, 6):
        assert sp.coefficient((mode("e", -m),)).coefficient((-m,)) == qnum(1)
    sp2 = star_projection(1, 4, 5, "+")
    assert set(sp2.coeffs) == {(mode("e", m),) for m in range(0, 6)}


def test_double_involution_with_inversion_restores():
    me = mode_expand(weight_plus_closed(2, 4), 3)
    back = me.iota().iota()
    assert set(back.coeffs) == set(me.coeffs)
    for w, s in me.coeffs.items():
        assert back.coeffs[w].terms == s.terms
    assert back.validity == me.validity


def test_star_projection_n2_is_the_involution_of_the_mode_table():
    me = mode_expand(weight_plus_closed(2, 4), 3)
    sp = star_projection(2, 4, 3, "-")
    assert sp.validity == me.validity and sp.validity != INF
    back = sp.iota()
    assert set(back.coeffs) == set(me.coeffs)
    for w, s in me.coeffs.items():
        assert back.coeffs[w] == s
        # the series itself is the weight function's, not its inversion
        assert sp.coeffs[iota_word(w)] == s


# -- prefactor-first expansion against the full symbol tables -----------------

def _reference_mode_expand(w, window):
    """The expansion with each symbol's prefactor-scaled table, multiplied
    in word order and summed in coefficient order, as before the split."""
    total = NCExpr.zero(w.expr.n)
    for word, coeff in w.expr.coeffs.items():
        term = NCExpr(w.expr.n, {(): coeff})
        for sym in word:
            term = term * symbol_modes(sym, w.expr.n, window)
        total = total + term
    return total


def _assert_same_expr(got, want):
    """Equal header validity, per-word series validity and terms, and
    equal canonical JSON."""
    assert got.validity == want.validity
    assert set(got.coeffs) == set(want.coeffs)
    for word, series in want.coeffs.items():
        assert got.coeffs[word].validity == series.validity
        assert got.coeffs[word].terms == series.terms
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("closed", [weight_plus_closed, weight_minus_closed])
def test_mode_expand_equals_the_full_table_products(n, closed):
    w = closed(n, 3)
    _assert_same_expr(mode_expand(w, 3), _reference_mode_expand(w, 3))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("closed", [weight_plus_closed, weight_minus_closed])
def test_boxed_mode_expansion_is_the_in_box_part_of_the_full_one(n, closed):
    # depth n(n+1) is r_factor's expansion depth at window 2; the boxed expansion
    # builds the terms with every |a_i| <= window and no others
    w = closed(n, n * (n + 1))
    for window in range(1, 6):
        boxed = mode_expand(w, window, box=True)
        full = mode_expand(w, window)
        assert {(word, a): c for word, s in boxed.coeffs.items()
                for a, c in s.terms.items()} \
            == {(word, a): c for word, s in full.coeffs.items()
                for a, c in s.terms.items() if all(abs(e) <= window for e in a)}


# -- the trie-grouped weighted sum against a plain per-term loop --------------

def _plain_weighted_sum(n, terms):
    """Each summand c * A_1 * ... * A_k multiplied left to right on its
    own, then summed in term order."""
    total = NCExpr.zero(n)
    for c, factors in terms:
        term = NCExpr(n, {(): c})
        for a in factors:
            term = term * a
        total = total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("orientation", [PLUS, MINUS])
def test_closed_formula_equals_the_plain_per_term_loop(n, orientation):
    depth = 3
    closed = {PLUS: weight_plus_closed, MINUS: weight_minus_closed}
    terms = [(prod(term.tau, start=FactoredRational(n)).expand(depth),
              [build_fs(f, orientation, ArgList(row, t), n, depth)
               for f, row, t in term.factors()])
             for term in weight_structure(n, orientation)]
    _assert_same_expr(closed[orientation](n, depth).expr,
                      _plain_weighted_sum(n, terms))


@pytest.mark.parametrize("orientation", [PLUS, MINUS])
def test_weighted_sum_edge_cases_equal_the_plain_loop(orientation):
    empty = _weighted_sum(2, [], orientation)
    assert empty.coeffs == {} and empty.validity == INF
    a = build_fs("F", PLUS, ArgList((1,), 2), 2, 3)
    b = build_fs("S", PLUS, ArgList((), 1), 2, 3)
    c = build_block("rho", ArgList((1,), 2), 1, 2).expand(3)
    d = ExpansionSeries.monomial(2, (1, -1), q)
    zero = ExpansionSeries(2, {}, 2)
    for terms in ([(c, [])],                      # empty factor list
                  [(c, [a, b]), (d, [a, b])],     # one factor sequence twice
                  [(c, [a, b]), (d, [a]), (c, [b, a])],
                  [(zero, [a]), (d, [b])]):       # a zero coefficient
        _assert_same_expr(_weighted_sum(2, terms, orientation),
                          _plain_weighted_sum(2, terms))


def test_symbol_modes_is_the_prefactor_times_the_integer_table():
    from uqa22.projection import _SYMBOL_TABLES
    from uqa22.ncalg import PF_MINUS, PF_PLUS, PS_TILDE_MINUS
    for sym in (abstract(PF_PLUS, 2), abstract(PF_MINUS, 1),
                abstract(PS_PLUS, 1), abstract(PS_PLUS, 2, True),
                abstract(PS_TILDE_MINUS, 1), abstract(PS_TILDE_MINUS, 2, True)):
        prefactor = _SYMBOL_TABLES[sym.kind][0]
        full = symbol_modes(sym, 2, 4)
        assert full.coeffs
        for series in full.coeffs.values():
            # packed integer numerators over the prefactor's denominator
            assert series._d == prefactor.den
            assert all(type(v) is int for v in series._c.values())
            table = ExpansionSeries(2, {a: c / prefactor
                                        for a, c in series.terms.items()})
            for c in table.terms.values():
                assert c.den.is_one()
                assert all(type(x) is int for x in c.num.coeffs)
            assert series.terms == table.scale(prefactor).terms


def test_clear_caches_empties_the_caches_and_recomputes_equal_values():
    from uqa22 import projection, qfield
    caches = (projection._f_expr, projection._s_expr, projection._f_tilde_expr,
              projection._s_tilde_expr, qfield._factor_exponents)
    before = weight_plus_closed(3, 3), weight_minus_closed(3, 3)
    assert all(c.cache_info().currsize for c in caches)
    projection.clear_caches()
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)
    after = weight_plus_closed(3, 3), weight_minus_closed(3, 3)
    for old, new in zip(before, after):
        assert old.expr.to_json() == new.expr.to_json()
