"""Truncated factors of the universal R-matrix.

The pairing tensor is the exponential of the paired currents; its order-m
term pairs every mode word e_{n_1}...e_{n_m} against f_{-n_1}...f_{-n_m}.
Applying the projections to the two tensor legs gives the R factors; the
Cartan tensor pairs the imaginary-root modes with explicit coefficients.
The four factors live in different completions and are never multiplied
across; they are exposed as an ordered list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .ncalg import (ModeSymbol, _symbol_from_json, _symbol_json, iota_word,
                    principal_degree)
from .qfield import QRat, qnum, qpow
from .projection import mode_expand, weight_minus_closed, weight_plus_closed


@dataclass(frozen=True)
class TensorExpr:
    """Finite sum of word (x) word terms with Q(q) coefficients."""

    terms: dict
    order: int
    window: int

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            {k: v for k, v in self.terms.items() if not v.is_zero()})

    def flip(self) -> "TensorExpr":
        """Swap the tensor legs (the "21" operation)."""
        return TensorExpr({(r, l): c for (l, r), c in self.terms.items()},
                          self.order, self.window)

    def sorted_terms(self):
        def key(item):
            (l, r), _ = item
            return (principal_degree(l), principal_degree(r), l, r)
        return sorted(self.terms.items(), key=key)

    def to_json(self):
        return {
            "order": self.order,
            "window": self.window,
            "terms": [
                {"left": [_symbol_json(s) for s in l],
                 "right": [_symbol_json(s) for s in r],
                 "coeff": c.to_json()}
                for (l, r), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "TensorExpr":
        terms = {}
        for item in data["terms"]:
            l = tuple(map(_symbol_from_json, item["left"]))
            r = tuple(map(_symbol_from_json, item["right"]))
            terms[(l, r)] = QRat.from_json(item["coeff"])
        return cls(terms, data["order"], data["window"])


# the Cartan factor, kept as an unexpanded token
H_TENSOR_H = "q^(h x h)"


def _coupling() -> QRat:
    return qpow(1) - qpow(-1)


def r_factor(sign: str, m: int, depth: int, window: int) -> TensorExpr:
    """Order-m term of one R factor.

    The f leg of the order-m pairing term is projected with the weight
    function for ``sign``; the e leg is its involution transport.  Both
    legs therefore read off the same mode-coefficient table: for each
    exponent vector in the window the stored words pair up, the left
    words passing through the involution.

    The expansion depth is raised internally so that every extraction in
    the window sits inside the validity bound.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m == 0:
        return TensorExpr({((), ()): qnum(1)}, 0, window)
    if sign == "+":
        weight = weight_plus_closed
    elif sign == "-":
        weight = weight_minus_closed
    else:
        raise ValueError(f"unknown sign {sign!r}")
    need = window * m * (m + 1) // 2
    modes = mode_expand(weight(m, max(depth, need)), window)
    by_exp = {}
    for word, series in modes.coeffs.items():
        for a, c in series.terms.items():
            if all(abs(e) <= window for e in a):
                by_exp.setdefault(a, []).append((word, c))
    sums = {}
    for pairs in by_exp.values():
        for wl, cl in pairs:
            left = iota_word(wl)
            for wr, cr in pairs:
                key = (left, wr)
                c = cl * cr
                t = sums.get(key)
                sums[key] = c if t is None else t + c
    # the coupling (q-q^-1)^m/m! is a common factor: multiply it in once
    # per key, the integer part first and 1/m! as a constant monomial
    power, inv_fact = _coupling() ** m, qnum(Fraction(1, factorial(m)))
    return TensorExpr({k: c * power * inv_fact for k, c in sums.items()},
                      m, window)


def cartan_coeff(n: int) -> QRat:
    """Coefficient of a_{-n} (x) a_n in the Cartan tensor exponent."""
    if n <= 0:
        raise ValueError("mode index must be positive")
    num = (_coupling() ** 2) * qnum(n)
    den = (qpow(n) - qpow(-n)) * (qpow(n) + qnum((-1) ** (n + 1)) + qpow(-n))
    return num / den


def cartan_tensor(cutoff: int, order: int = 1) -> TensorExpr:
    """Exponential of the paired imaginary-root modes, truncated.

    By default only the first-order terms are kept; the a modes commute
    among themselves, so higher orders are plain symmetrized products.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = {k: cartan_coeff(k) for k in range(1, cutoff + 1)}
    terms = {((), ()): qnum(1)}
    for o in range(1, order + 1):
        c0 = qnum(1) / factorial(o)
        for nvec in itertools.product(range(1, cutoff + 1), repeat=o):
            left = tuple(ModeSymbol("a", -k) for k in nvec)
            right = tuple(ModeSymbol("a", k) for k in nvec)
            c = c0
            for k in nvec:
                c = c * coeffs[k]
            key = (left, right)
            t = terms.get(key)
            terms[key] = c if t is None else t + c
    return TensorExpr(terms, order, cutoff)


def assemble_R(order: int, depth: int, window: int, cartan_order: int = 1):
    """The four R-matrix factors in multiplication order.

    Returns [R_plus^21, q^(h x h) token, K^21, R_minus] where each R
    factor sums the pairing terms up to ``order``.  No multiplication
    across factors is attempted; they live in different completions.
    """
    def summed(sign):
        total = {}
        for m in range(order + 1):
            for k, c in r_factor(sign, m, depth, window).terms.items():
                t = total.get(k)
                total[k] = c if t is None else t + c
        return TensorExpr(total, order, window)

    return [
        summed("+").flip(),
        H_TENSOR_H,
        cartan_tensor(window, cartan_order).flip(),
        summed("-"),
    ]
