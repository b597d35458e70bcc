"""Pairing-tensor factors, Cartan coefficients, assembly."""

from math import factorial

import pytest

from uqa22.ncalg import ModeSymbol, principal_degree
from uqa22.projection import mode_expand, weight_plus_recursive
from uqa22.qfield import qnum, qpow
from uqa22.rmatrix import (
    H_TENSOR_H,
    TensorExpr,
    assemble_R,
    cartan_coeff,
    cartan_tensor,
    r_factor,
)

q = qpow(1)
coupling = q - qpow(-1)


def e(k):
    return ModeSymbol("e", k)


def f(k):
    return ModeSymbol("f", k)


def test_r_plus_order_one():
    t = r_factor("+", 1, 2, 8)
    assert t.terms == {((e(-k),), (f(k),)): coupling for k in range(1, 9)}


def test_r_minus_order_one():
    t = r_factor("-", 1, 2, 8)
    assert t.terms == {((e(k),), (f(-k),)): coupling for k in range(0, 9)}


def test_r_order_zero_is_trivial():
    for sign in "+-":
        assert r_factor(sign, 0, 2, 4).terms == {((), ()): qnum(1)}


def test_r_factor_degrees_pair_to_zero():
    for sign in "+-":
        t = r_factor(sign, 2, 4, 2)
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
    got = r_factor("+", 2, 4, window)
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
    t = r_factor("+", 1, 2, 3)
    assert t.flip().flip().terms == t.terms


def test_assemble_orders_the_factors():
    factors = assemble_R(1, 2, 2)
    assert len(factors) == 4
    assert factors[1] is H_TENSOR_H
    # first factor is flipped: mode words live on the opposite legs
    lead = [k for k in factors[0].terms if k != ((), ())][0]
    assert lead[0][0].family == "f" and lead[1][0].family == "e"
    assert factors[3].terms[((e(0),), (f(0),))] == coupling


def test_tensor_json_round_trip():
    t = r_factor("-", 1, 2, 3)
    back = TensorExpr.from_json(t.to_json())
    assert back.terms == t.terms
    assert (back.order, back.window) == (t.order, t.window)


def test_assemble_with_zero_effective_window():
    # a window of 1 with order 0 keeps every factor trivial except the
    # Cartan tensor's first mode
    factors = assemble_R(0, 2, 1, cartan_order=0)
    assert factors[0].terms == {((), ()): qnum(1)}
    assert factors[2].terms == {((), ()): qnum(1)}
    assert factors[3].terms == {((), ()): qnum(1)}


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("m", [1, 2])
def test_r_factor_equals_the_per_pair_coupling_reference(sign, m):
    # the loop that multiplied the coupling into every pairing product
    from uqa22.projection import weight_minus_closed, weight_plus_closed
    window, depth = 3, 4
    weight = weight_plus_closed if sign == "+" else weight_minus_closed
    modes = mode_expand(weight(m, max(depth, window * m * (m + 1) // 2)), window)
    by_exp = {}
    for word, series in modes.coeffs.items():
        for a, c in series.terms.items():
            if all(abs(x) <= window for x in a):
                by_exp.setdefault(a, []).append((word, c))
    cm = coupling ** m / factorial(m)
    want = {}
    for pairs in by_exp.values():
        for wl, cl in pairs:
            left = tuple(ModeSymbol("e", -s.index) for s in wl)
            for wr, cr in pairs:
                want[(left, wr)] = want.get((left, wr), qnum(0)) + cm * cl * cr
    want = {k: v for k, v in want.items() if not v.is_zero()}
    assert r_factor(sign, m, depth, window).terms == want


@pytest.mark.parametrize("sign", "+-")
@pytest.mark.parametrize("m, window", [(1, 3), (2, 3)])
def test_r_factor_does_not_depend_on_depth_above_its_floor(sign, m, window):
    # r_factor raises the depth to window*m(m+1)/2, and no in-window
    # exponent has a larger ratio degree, so a deeper expansion adds nothing
    floor = window * m * (m + 1) // 2
    assert r_factor(sign, m, 0, window).terms \
        == r_factor(sign, m, floor + 4, window).terms
