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
from functools import lru_cache
from math import factorial

from .ncalg import (ModeSymbol, _symbol_from_json, _symbol_json, iota_word,
                    principal_degree)
from .qfield import QRat, qnum, qpow
from .projection import mode_expand, weight_minus_closed, weight_plus_closed
from .series import pair_sums


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
        shared = {}     # one JSON object per coefficient, by identity: no hashing
        return {
            "order": self.order,
            "window": self.window,
            "terms": [
                {"left": [_symbol_json(s) for s in l],
                 "right": [_symbol_json(s) for s in r],
                 "coeff": shared.get(id(c)) or shared.setdefault(id(c), c.to_json())}
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


def r_factor(sign: str, m: int, window: int) -> TensorExpr:
    """Order-m term of one R factor.

    The f leg of the order-m pairing term is projected with the weight
    function for ``sign``; the e leg is its involution transport.  Both
    legs therefore read off the same mode-coefficient table: for each
    exponent vector in the window the stored words pair up, the left
    words passing through the involution (``pair_sums``, each unordered
    pair once, with the whole scale (q-q^-1)^m / m!).

    The weight is expanded at depth window * m(m+1)/2, the largest ratio
    degree in the window.  The boxed mode expansion (``mode_expand`` with
    ``box``) holds only the window's terms, claims nothing outside it and
    is never cached; ``pair_sums`` pairs them all.
    """
    weight = {"+": weight_plus_closed, "-": weight_minus_closed}.get(sign)
    if weight is None:
        raise ValueError(f"unknown sign {sign!r}")
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m == 0:
        return TensorExpr({((), ()): qnum(1)}, 0, window)
    modes = mode_expand(weight(m, window * m * (m + 1) // 2), window, box=True)
    sums = pair_sums(modes.coeffs, _coupling() ** m / factorial(m))
    return TensorExpr({(iota_word(wl), wr): c for (wl, wr), c in sums.items()}, m, window)


@lru_cache(maxsize=None)
def cartan_coeff(n: int) -> QRat:
    """Coefficient of a_{-n} (x) a_n in the Cartan tensor exponent,
    computed once per n (a ``QRat`` is immutable)."""
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
            # ordered index tuples are distinct: no key is met twice
            terms[(left, right)] = c
    return TensorExpr(terms, order, cutoff)


def assemble_R(order: int, window: int, *, cartan_order: int = 1):
    """The four R-matrix factors in multiplication order.

    Returns [R_plus^21, q^(h x h) token, K^21, R_minus] where each R
    factor sums the pairing terms up to ``order``, each order m at its
    own expansion depth (``r_factor``).  No multiplication across
    factors is attempted; they live in different completions.
    """
    def summed(sign):
        total = {}
        for m in range(order + 1):
            # order-m word pairs have length m: no two orders share a key
            total.update(r_factor(sign, m, window).terms)
        return TensorExpr(total, order, window)

    return [
        summed("+").flip(),
        H_TENSOR_H,
        cartan_tensor(window, cartan_order).flip(),
        summed("-"),
    ]
