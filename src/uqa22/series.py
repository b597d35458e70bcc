"""Truncated Laurent expansions in nested variable domains.

Rational functions of z_1, ..., z_n are expanded in the region
|z_1| >> |z_2| >> ... >> |z_n|.  The truncation grading is the ratio
degree d(a) = sum_i i*a_i (1-based), under which every correction
monomial z_j/z_i with j > i has positive degree j-i, so all expansions
have well-ordered supports.

An ExpansionSeries stores exact coefficients for every exponent vector
with d(a) <= validity and claims nothing above the bound; an infinite
validity marks an exact series.  This is the only truncation claim: every
series the engine builds, the dual projections included, lives in this
one domain.

A FactoredRational is the exact, pre-expansion form of every building
block: monomial * prod (u*z_i + v*z_j)^(+-m).  Expansion and exact
evaluation both happen on this form.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, count
from math import comb

from .qfield import _POLY_ONE, ONE, ZERO, QPoly, QRat, _as_fraction, _cancel, qnum

INF = math.inf
_first = operator.itemgetter(0)


def ratio_degree(a) -> int:
    """d(a) = sum_i i * a_i with 1-based variable positions."""
    return sum(map(operator.mul, count(1), a))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def unit_vec(n: int, i: int, value: int = 1):
    """Exponent vector value*e_i (i is 1-based)."""
    return tuple(value if k == i - 1 else 0 for k in range(n))


# -- packed storage ----------------------------------------------------------
#
# A series keeps each nonzero term as packed key -> packed numerator.  The
# key packs the exponent vector (``_key_layout``).  The numerator packs an
# integer Laurent polynomial (``_pack_coeff``), and every numerator of the
# series shares one integer polynomial denominator, the series' D
# (``_over_one_denominator``), which is 1 on the whole weight path.  No
# other module reads this format: they read ``terms`` or ``pair_sums``.

_KEY_WIDTH = 16     # default key digit width: every |exponent| < 2^15
_SLOT_WIDTH = 20    # default slot width: every |coefficient| < 2^19


def _width(default: int, bound: int) -> int:
    """The least width w >= ``default`` with bound < 2^(w-1)."""
    return default if bound < 1 << (default - 1) else bound.bit_length() + 1


@lru_cache(maxsize=None)
def _key_layout(n: int, w: int):
    """(weights, shifts, top, bias, half, mask) of the keys of digit width w.

    The key of a is sum_i a_i * 2^(w*(i-1)) + d(a) * 2^(w*n): the digits
    of a, then its ratio degree on top.  Both parts are linear in a, so
    the key of a sum of vectors is the sum of their keys.  While every
    |a_i| < 2^(w-1) = h, adding bias = sum_i h * 2^(w*(i-1)) turns each
    lower digit into a_i + h in [0, 2^w), an ordinary base-2^w numeral.
    So the lower digits decode to a (``_unpack_key``), what lies above
    them is d(a) (``_key_degree``), and keys are ordered as the tuples
    (d(a), a_n, ..., a_1): the keys of degree at most d are exactly those
    below ``_key_limit(d)``.
    """
    shifts = tuple(range(0, w * n, w))
    top = w * n
    weights = tuple((1 << sh) + (i << top) for i, sh in enumerate(shifts, 1))
    half = 1 << (w - 1)
    bias = sum(half << sh for sh in shifts)
    return weights, shifts, top, bias, half, (1 << w) - 1


def _pack_key(a, layout) -> int:
    return sum(map(operator.mul, a, layout[0]))


def _unpack_key(k: int, layout) -> tuple:
    _, shifts, _, bias, half, mask = layout
    k += bias
    return tuple([((k >> sh) & mask) - half for sh in shifts])


def _key_degree(k: int, layout) -> int:
    return (k + layout[3]) >> layout[2]


def _key_limit(d, layout):
    """The least key of ratio degree above d; infinite for an infinite d."""
    return d if d == INF else ((d + 1) << layout[2]) - layout[3]


def _over_one_denominator(values):
    """(D, numerators, (b, L1, M)): the nonzero ``QRat`` ``values`` as
    integer Laurent polynomials over one integer polynomial D, then the
    least q-exponent b, and the sum L1 and the largest M of the absolute
    values of every integer coefficient, of those numerators; for no
    value b, L1 and M are 0.

    D is the lcm of the denominators times the least positive integer k
    that clears every ``Fraction`` coefficient: num/den is written as
    k * num * (lcm/den) over k * lcm.  When every value is an integer
    Laurent polynomial, D is ``_POLY_ONE`` itself and only the bounds are
    computed.
    """
    nums = [c.num for c in values if c.den.is_one()]
    d = _POLY_ONE
    if len(nums) < len(values):
        d, *rest = dens = {c.den for c in values} - {_POLY_ONE}
        for den in rest:
            d = d * QRat(d, den).den    # lcm(d, den), both being monic
        cofactor = {den: QRat(d, den).num for den in dens} if rest \
            else {d: _POLY_ONE}
        nums = [c.num * cofactor.get(c.den, d) for c in values]
    l1 = sum([sum(map(abs, p.coeffs)) for p in nums])
    if type(l1) is not int or type(sum(d.coeffs)) is not int:
        # a Fraction coefficient makes its sum a Fraction
        k = math.lcm(*{x.denominator for p in (d, *nums) for x in p.coeffs
                       if type(x) is not int})
        d, nums = d.scale(k), [p.scale(k) for p in nums]
        l1 = sum([sum(map(abs, p.coeffs)) for p in nums])
    return d, nums, (min([p.off for p in nums], default=0), l1,
                     max([max(map(abs, p.coeffs)) for p in nums], default=0))


def _encode(coeffs, lo: int, s: int) -> int:
    v = 0
    for a in reversed(coeffs):
        v = (v << s) + a
    return v << (s * lo)


def _pack_coeff(p: QPoly, s: int, b: int) -> int:
    """Kronecker substitution at slot width s and q-base b <= the least
    exponent of the integer Laurent polynomial p: p = q^off * P(q) packs
    to the int P(2^s) * 2^(s*(off-b)), the value at q = 2^s of
    q^(off-b) * P(q).

    Packing is a ring homomorphism, so sums and products of packed values
    are the packed sums and products, the bases of a product adding up.
    While every coefficient c_k has |c_k| < 2^(s-1) = h, adding h * 2^(s*k)
    for every slot k turns each digit into c_k + h in (0, 2^s), an
    ordinary base-2^s numeral: the slots decode exactly (``_slots``), and a
    packed value is 0 only for the zero polynomial.  A series keeps M, a
    bound on its largest |c_k|, below h, and carries it through sums and
    products with L1, a bound on the sum of |c_k| over every slot of every
    term (``_sum_bounds``, ``_product_bounds``).
    """
    return _encode(p.coeffs, p.off - b, s)


@lru_cache(maxsize=None)
def _slot_bias(s: int, top: int) -> int:
    """sum_k 2^(s-1) * 2^(s*k) over the slots k = 0..top."""
    return ((1 << (s * (top + 1))) - 1) // ((1 << s) - 1) << (s - 1)


def _slots(v: int, s: int):
    """(lo, [c_lo, ..., c_D]): the slots of the nonzero packed value v,
    from its lowest nonzero slot to its top one.

    The lowest nonzero slot holds the lowest set bit of v.  With c_D the
    top nonzero coefficient the lower slots add up to less than
    2^(s*D-1) in absolute value, so 2^(s*D-1) < |v| < 2^(s*(D+1)-1) and
    D = bit_length(v) // s.
    """
    top = v.bit_length() // s
    lo = ((v & -v).bit_length() - 1) // s
    half, mask = 1 << (s - 1), (1 << s) - 1
    v += _slot_bias(s, top)
    return lo, [((v >> sh) & mask) - half for sh in range(s * lo, s * top + 1, s)]


def _unpack_coeff(v: int, s: int, b: int, d: QPoly) -> QRat:
    """The canonical ``QRat`` of the packed numerator v over d; only a
    denominator other than 1 costs a reduction."""
    lo, coeffs = _slots(v, s)
    num = QPoly.__new__(QPoly)
    num.off, num.coeffs = b + lo, tuple(coeffs)
    if d is _POLY_ONE:
        return QRat(num, d, _canonical=True)
    return QRat(num, d)


def _rebased(coeffs: dict, s: int, k: int) -> dict:
    """Packed values k slots up: the same polynomials at a q-base k lower."""
    if not k:
        return coeffs
    sh = s * k
    return {key: v << sh for key, v in coeffs.items()}


def _make(n, validity, coeffs, w, e, s, b, d, l1, m, exact=False):
    """A series over the stored ``coeffs`` (nonzero, inside the bound);
    ``exact`` tells that ``l1`` and ``m`` are the L1 and M themselves."""
    out = ExpansionSeries.__new__(ExpansionSeries)
    out.n, out.validity, out._c = n, validity, coeffs
    out._terms = out._narrow = None
    out._w, out._e, out._s, out._b, out._d = w, e, s, b, d
    out._l1, out._m, out._exact = l1, m, exact
    return out


def _product_bounds(operands):
    """(e, peak, L1, M) of the left-to-right product of ``operands``:
    bounds on its largest |exponent|, on the largest |slot| of any operand
    or partial sum on the way, and on the L1 and M of the result.

    A slot of a partial sum of the pairs of x * y at a term sums products
    x_i * y_j of slots of terms of x and y, each slot of x meeting at most
    one slot of y, and the other way round: it is at most
    min(L1(x) M(y), M(x) L1(y)), and L1(x * y) <= L1(x) L1(y).
    """
    x = operands[0]
    e, l1, m = x._e, x._l1, x._m
    peak = m
    for y in operands[1:]:
        e += y._e
        m = min(l1 * y._m, m * y._l1)
        l1 *= y._l1
        peak = max(peak, m, y._m)
    return e, peak, l1, m


def _sum_bounds(operands):
    """(e, peak, L1, M) of the sum of the two ``operands``."""
    x, y = operands
    m = x._m + y._m
    return max(x._e, y._e), m, x._l1 + y._l1, m


def _pair_bounds(operands):
    """(e, L1^2, _, _) of ``pair_sums`` of ``operands``, L1 the sum of
    their L1 bounds, which bounds every slot of every pair sum."""
    l1 = sum([x._l1 for x in operands])
    return max([x._e for x in operands]), l1 * l1, 0, 0


def _compare_bounds(operands):
    """(e, peak, _, _) of the two ``operands`` side by side."""
    x, y = operands
    return max(x._e, y._e), max(x._m, y._m), 0, 0


def _aligned(operands: list, bounds):
    """(operands, w, s, L1, M): the operands, rewritten where needed at one
    key width w and one slot width s that hold the exponents and slots
    bounded by ``bounds(operands)`` = (e, peak, L1, M), and the L1 and M
    bounds of the result.

    Operands that share their widths keep them while those hold the
    bounds.  Otherwise each width is the default or the least wider one
    that holds its bound.  Carried bounds only grow, so a peak past the
    default slot width is first recomputed from the operands' slots
    (``_tighten``, which lowers only the carried bounds).  An operand at
    other widths is relaid into a new series (``_relaid``); no operand is
    rewritten.
    """
    e, peak, l1, m = bounds(operands)
    w, s = operands[0]._w, operands[0]._s
    for x in operands:
        if x._w != w or x._s != s:
            break
    else:
        if not e >> (w - 1) and not peak >> (s - 1):
            return operands, w, s, l1, m
    w = _width(_KEY_WIDTH, e)
    if peak >> (_SLOT_WIDTH - 1):
        for x in operands:
            if not x._exact:
                x._tighten()
        e, peak, l1, m = bounds(operands)
    s = _width(_SLOT_WIDTH, peak)
    return [x if x._w == w and x._s == s else x._relaid(w, s)
            for x in operands], w, s, l1, m


def _common(*operands: "ExpansionSeries") -> list:
    """The ``operands`` over one denominator, the lcm of theirs
    (``_over_one_denominator`` of their 1/D_x): each one's numerators
    times its cofactor D/D_x.  Equal denominators cost nothing."""
    dens = list(dict.fromkeys([x._d for x in operands]))
    if len(dens) == 1:
        return list(operands)
    d, cofactors, _ = _over_one_denominator([QRat(_POLY_ONE, den) for den in dens])
    n = operands[0].n
    cofactor = {den: ExpansionSeries.monomial(n, (0,) * n, QRat(c))
                for den, c in zip(dens, cofactors)}
    out = [x._shift_scale(cofactor[x._d]) for x in operands]
    for x in out:
        x._d = d
    return out


def _product(n: int, operands: list) -> "ExpansionSeries":
    """Truncated product of the nonempty series ``operands``, left to
    right.  Each step keeps every pair with d(a) + d(b) <= validity, the
    bound being min(v_left + least degree right, v_right + least degree
    left).

    The operands are brought to one descriptor (``_aligned``).  Each step
    sums its pairs over the stored ints with the next operand sorted by
    key, hence by ratio degree: a pair is kept when the key of a + b is
    below the limit key of the bound, so each row stops at a bisection.
    Each step drops its zero sums.  A product of nonempty series is
    nonempty, because its least-degree part is the product of theirs, so
    every step has a least degree on both sides.  The denominators
    multiply.  The result is returned packed.
    """
    operands, w, s, l1, m = _aligned(operands, _product_bounds)
    layout = _key_layout(n, w)
    first = operands[0]
    sums, validity = first._c, first.validity
    for right in operands[1:]:
        inner = sorted(right._c.items())
        keys = [k for k, _ in inner]
        validity = min(validity + _key_degree(keys[0], layout),
                       right.validity + _key_degree(min(sums), layout))
        limit = _key_limit(validity, layout)
        rows, sums = sums, {}
        for ka, ca in rows.items():
            for kb, cb in inner[:bisect_left(keys, limit - ka)]:
                key = ka + kb
                c = ca * cb
                t = sums.get(key)
                sums[key] = c if t is None else t + c
        sums = {k: c for k, c in sums.items() if c}
    b = sum([x._b for x in operands])
    d = reduce(operator.mul, [x._d for x in operands])
    # truncation can drop the least q-exponents: raise the base to the
    # least one left, the lowest set bit of any value
    lo = (min([c & -c for c in sums.values()]).bit_length() - 1) // s
    if lo:
        sums, b = {k: c >> (s * lo) for k, c in sums.items()}, b + lo
    return _make(n, validity, sums, w, sum([x._e for x in operands]), s, b,
                 d, l1, m)


class ExpansionSeries:
    """Sparse truncated Laurent expansion with an explicit validity bound.

    ``_c`` maps the packed key (``_key_layout``, digit width ``_w``) of
    each exponent vector with a nonzero coefficient to the packed int
    (``_pack_coeff``, slot width ``_s``, q-base ``_b``) of that
    coefficient's integer Laurent numerator over the series' one integer
    polynomial denominator ``_d`` (``_over_one_denominator``), which is
    ``_POLY_ONE`` itself when every coefficient is an integer Laurent
    polynomial.  Beside this descriptor the series carries bounds: ``_e``
    on the largest |exponent|, ``_l1`` on the sum and ``_m`` on the
    largest of the |coefficients| of every slot of every numerator, with
    _e < 2^(_w-1) and _m < 2^(_s-1); ``_exact`` tells that ``_l1`` and
    ``_m`` are exact.  Widths start at the defaults, or at the least
    wider ones the bounds need, and change only where an operation's
    bounds would overflow them or its operands' widths differ
    (``_aligned``).

    Products multiply the denominators; sums and comparisons first bring
    both operands to the lcm of theirs (``_common``).  Coefficients are
    reduced to their canonical ``QRat`` only by ``coefficient``, by
    ``to_json``, which caches nothing, and by ``terms``, the
    {exponent vector: QRat} view for readers outside this module, built
    on first use and kept; the last two reduce each distinct packed value
    once.
    """

    __slots__ = ("n", "validity", "_c", "_w", "_e", "_s", "_b", "_d", "_l1",
                 "_m", "_exact", "_terms", "_narrow")

    def __init__(self, n: int, terms=None, validity=INF):
        terms = {a: c for a, c in (terms or {}).items()
                 if not c.is_zero() and ratio_degree(a) <= validity}
        e = max(map(abs, chain.from_iterable(terms)), default=0)
        w = _width(_KEY_WIDTH, e)
        layout = _key_layout(n, w)
        d, nums, (b, l1, m) = _over_one_denominator(list(terms.values()))
        s = _width(_SLOT_WIDTH, m)
        coeffs = {_pack_key(a, layout): _pack_coeff(p, s, b)
                  for a, p in zip(terms, nums)}
        self.n, self.validity, self._c = n, validity, coeffs
        self._terms = self._narrow = None
        self._w, self._e, self._s, self._b, self._d = w, e, s, b, d
        self._l1, self._m, self._exact = l1, m, True

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "ExpansionSeries":
        return cls(n, {(0,) * n: ONE}, INF)

    @classmethod
    def monomial(cls, n: int, a, coeff=ONE) -> "ExpansionSeries":
        return cls(n, {tuple(a): qnum(coeff)}, INF)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        """The number of stored (nonzero) terms."""
        return len(self._c)

    @property
    def terms(self) -> dict:
        """{exponent vector: QRat} of the stored terms, decoded once."""
        if self._terms is None:
            layout, s, b, d = _key_layout(self.n, self._w), self._s, self._b, self._d
            values = {v: _unpack_coeff(v, s, b, d) for v in set(self._c.values())}
            self._terms = {_unpack_key(k, layout): values[v]
                           for k, v in self._c.items()}
        return self._terms

    def coefficient(self, a) -> QRat:
        if self._terms is not None:
            return self._terms.get(tuple(a), ZERO)
        if len(a) != self.n or max(map(abs, a), default=0) > self._e:
            return ZERO
        v = self._c.get(_pack_key(a, _key_layout(self.n, self._w)))
        if v is None:
            return ZERO
        return _unpack_coeff(v, self._s, self._b, self._d)

    def min_degree_bound(self):
        """A lower bound on the true minimal ratio degree of the series."""
        if self._c:
            return _key_degree(min(self._c), _key_layout(self.n, self._w))
        if self.validity == INF:
            return INF
        return self.validity + 1

    def _check_mate(self, other: "ExpansionSeries"):
        if self.n != other.n:
            raise ValueError("mismatched variable count")

    def within(self, lo, hi) -> "ExpansionSeries":
        """The series cut to its terms z^a with every lo_i <= a_i <= hi_i: it
        claims nothing outside that box.  Only keys are decoded.  The
        validity and the carried bounds are kept, inexact once a term is cut."""
        layout, box = _key_layout(self.n, self._w), list(zip(lo, hi))
        coeffs = {k: v for k, v in self._c.items()
                  if all(l <= e <= h for e, (l, h) in zip(_unpack_key(k, layout), box))}
        if len(coeffs) == len(self._c):
            return self
        return _make(self.n, self.validity, coeffs, self._w, self._e, self._s,
                     self._b, self._d, self._l1, self._m)

    # -- storage ------------------------------------------------------------

    def _tighten(self):
        """Lower the L1 and M bounds to the L1 and M themselves, read from
        the slots."""
        s, l1, m = self._s, 0, 0
        for v in self._c.values():
            slots = list(map(abs, _slots(v, s)[1]))
            l1 += sum(slots)
            m = max(m, max(slots))
        self._l1, self._m, self._exact = l1, m, True

    def _relaid(self, w: int, s: int) -> "ExpansionSeries":
        """The same series at key width w and slot width s.  A narrower copy
        serves later calls too: it is kept beside the unchanged series."""
        kept = self._narrow
        if kept is not None and kept._w == w and kept._s == s:
            return kept
        coeffs, s0 = self._c, self._s
        if w != self._w:
            old, new = _key_layout(self.n, self._w), _key_layout(self.n, w)
            coeffs = {_pack_key(_unpack_key(k, old), new): v
                      for k, v in coeffs.items()}
        if s != s0:
            coeffs = {k: _encode(*reversed(_slots(v, s0)), s)
                      for k, v in coeffs.items()}
        out = _make(self.n, self.validity, coeffs, w, self._e, s, self._b,
                    self._d, self._l1, self._m, self._exact)
        if s < s0:
            self._narrow = out
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        self._check_mate(other)
        (x, y), w, s, l1, m = _aligned(_common(self, other), _sum_bounds)
        validity = min(x.validity, y.validity)
        limit = _key_limit(validity, _key_layout(self.n, w))
        xc, yc = x._c, y._c
        if x.validity > validity:
            xc = {k: c for k, c in xc.items() if k < limit}
        if y.validity > validity:
            yc = {k: c for k, c in yc.items() if k < limit}
        # both at the lower base of the two nonempty operands
        b = x._b if not yc or (xc and x._b <= y._b) else y._b
        xc, yc = _rebased(xc, s, x._b - b), _rebased(yc, s, y._b - b)
        # only coinciding terms can cancel
        terms = dict(xc)
        for k, c in yc.items():
            t = terms.get(k)
            if t is None:
                terms[k] = c
            elif (t := t + c):
                terms[k] = t
            else:
                del terms[k]
        return _make(self.n, validity, terms, w, max(x._e, y._e), s, b, x._d,
                     l1, m)

    def __neg__(self) -> "ExpansionSeries":
        return _make(self.n, self.validity, {k: -c for k, c in self._c.items()},
                     self._w, self._e, self._s, self._b, self._d, self._l1,
                     self._m, self._exact)

    def scale(self, c) -> "ExpansionSeries":
        c = qnum(c)
        if c.is_zero():
            return ExpansionSeries(self.n, {}, self.validity)
        return self._shift_scale(ExpansionSeries.monomial(self.n, (0,) * self.n, c))

    def _shift_scale(self, term: "ExpansionSeries") -> "ExpansionSeries":
        """Product with the exact single-term series ``term`` = c*z^a.

        Every key moves by the key of a, every numerator is multiplied by
        that of c and the denominators multiply; a numerator q^k is the
        int 1 at base k, which moves only the base.  Every stored exponent
        b has d(b) <= validity, so every shifted exponent satisfies
        d(a+b) <= validity + d(a), the bound of the product; nonzero
        coefficients stay nonzero.  The result is therefore built
        directly, without re-filtering its terms.
        """
        (x, t), w, s, l1, m = _aligned([self, term], _product_bounds)
        (kt, ct), = t._c.items()
        if ct == 1:
            coeffs = {k + kt: c for k, c in x._c.items()}
        else:
            coeffs = {k + kt: c * ct for k, c in x._c.items()}
        return _make(self.n, x.validity + _key_degree(kt, _key_layout(self.n, w)),
                     coeffs, w, x._e + t._e, s, x._b + t._b, x._d * t._d,
                     l1, m, x._exact and t._l1 == 1)

    def mul(self, other: "ExpansionSeries") -> "ExpansionSeries":
        """Truncated product: every pair with d(a) + d(b) <= validity.

        A single exact term shifts and scales the other operand
        (``_shift_scale``).  Otherwise the pairs are summed by
        ``_product``.
        """
        self._check_mate(other)
        if other.validity == INF and len(other._c) == 1:
            return self._shift_scale(other)
        if self.validity == INF and len(self._c) == 1:
            return other._shift_scale(self)
        if not self._c or not other._c:
            va = self.validity + other.min_degree_bound()
            vb = other.validity + self.min_degree_bound()
            return ExpansionSeries(self.n, {}, min(va, vb))
        return _product(self.n, [self, other])

    __mul__ = mul

    # -- comparison ------------------------------------------------------

    def first_difference(self, other: "ExpansionSeries", bound):
        """(a, own coefficient, other's coefficient) at the least exponent
        a with d(a) <= bound at which the two series differ, the order
        being that of the keys, (d(a), a_n, ..., a_1); None when they
        agree at every such a."""
        self._check_mate(other)
        if bound > min(self.validity, other.validity):
            raise ValueError("insufficient truncation")
        (x, y), w, s, _, _ = _aligned(_common(self, other), _compare_bounds)
        b = min(x._b, y._b)
        xc, yc = _rebased(x._c, s, x._b - b), _rebased(y._c, s, y._b - b)
        if xc == yc:
            return None
        layout = _key_layout(self.n, w)
        limit = _key_limit(bound, layout)
        keys = [k for k, c in xc.items() if k < limit and yc.get(k) != c]
        keys += [k for k in yc if k < limit and k not in xc]
        if not keys:
            return None
        k = min(keys)
        pair = [ZERO if c is None else _unpack_coeff(c, s, b, x._d)
                for c in (xc.get(k), yc.get(k))]
        return (_unpack_key(k, layout), *pair)

    def equal_up_to(self, other: "ExpansionSeries", bound) -> bool:
        """Exact agreement of all coefficients with d(a) <= bound."""
        return self.first_difference(other, bound) is None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpansionSeries)
            and self.n == other.n
            and self.validity == other.validity
            and self.first_difference(other, self.validity) is None
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for a in sorted(self.terms):
            mono = "*".join(
                f"z{i+1}^{e}" for i, e in enumerate(a) if e
            ) or "1"
            bits.append(f"({self.terms[a]})*{mono}")
        return " + ".join(bits)

    def to_json(self):
        return self._json({})

    def _json(self, shared: dict):
        """``to_json`` with ``QRat._json``'s one object per distinct
        coefficient in ``shared``.  A packed numerator, with its slot
        width, base and denominator, and a packed key, with its width, key
        ``shared`` too, so that a value or an exponent vector met again is
        not reduced or decoded again."""
        w, s, b, d = self._w, self._s, self._b, self._d
        layout, den = _key_layout(self.n, w), d.coeffs
        terms = []
        for k, c in self._c.items():
            a = shared.get((w, k))
            if a is None:
                a = shared[w, k] = list(_unpack_key(k, layout))
            if (j := shared.get((s, b, den, c))) is None:
                j = shared[s, b, den, c] = _unpack_coeff(c, s, b, d)._json(shared)
            terms.append([a, j])
        terms.sort(key=_first)
        v = self.validity
        return {"n": self.n, "validity": None if v == INF else v, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "ExpansionSeries":
        v = data["validity"]
        return cls(
            data["n"],
            {tuple(a): QRat.from_json(c) for a, c in data["terms"]},
            INF if v is None else v,
        )


def pair_sums(family: dict, scale: QRat) -> dict:
    """{(x, y): scale * sum_a c_x(a) c_y(a)} over the labels x, y of the
    series c_x of ``family`` and every stored a, for the nonzero sums.
    The series are brought to one denominator D (``_common``), one key
    width, a slot width that holds every pair sum (``_pair_bounds``) and
    one q-base; no key is decoded.  The pairs multiply and add as packed
    ints, each unordered pair once.  scale / D^2 = c P / E, c rational, P
    an integer polynomial, E monic; each distinct nonzero sum is unpacked
    once, cancelled against E, times P and then c: no ``Fraction`` enters
    a product."""
    if not family or scale.is_zero():
        return {}
    operands, _, s, _, _ = _aligned(_common(*family.values()), _pair_bounds)
    b = min([x._b for x in operands if x._c], default=0)
    by_key = {}
    for label, x in zip(family, operands):
        for k, v in _rebased(x._c, s, x._b - b).items():
            by_key.setdefault(k, []).append((label, v))
    sums = {}
    for pairs in by_key.values():
        for i, (x, cx) in enumerate(pairs):
            for y, cy in pairs[i:]:
                sums[x, y] = sums.get((x, y), 0) + cx * cy
    sums.update([((y, x), v) for (x, y), v in sums.items()])
    d = operands[0]._d
    t = scale / QRat(d * d)
    c = Fraction(math.gcd(*[x.numerator for x in t.num.coeffs]),
                 math.lcm(*[x.denominator for x in t.num.coeffs]))
    p, cn, cd = t.num.scale(1 / c), c.numerator, c.denominator
    @lru_cache(maxsize=None)
    def times_c(x):     # coefficients repeat (96% of calls at m = 3): memoised
        return y // cd if not (y := x * cn) % cd else Fraction(y, cd)
    values = {}
    for v in set(sums.values()) - {0}:
        num, den = _cancel(_unpack_coeff(v, s, 2 * b, _POLY_ONE).num, t.den)
        num = num * p
        values[v] = QRat(QPoly(num.off, map(times_c, num.coeffs)), den, _canonical=True)
    return {key: values[v] for key, v in sums.items() if v}


def _merge(kept: list, u, i, v, j, m):
    """Merge the binomial (u*z_i + v*z_j)^m into the first proportional
    binomial of ``kept``, in place, so that inverse pairs cancel exactly
    instead of meeting again at a pole: the scalar (u/u0)^m that the merge
    leaves over, or None when no binomial of ``kept`` is proportional.
    Every coefficient is a monomial c*q^k (``FactoredRational``), over 1,
    so u0 v = v0 u is tested on the products of the numerators."""
    for pos, (u0, i0, v0, j0, m0) in enumerate(kept):
        if i0 == i and j0 == j and u0.num * v.num == v0.num * u.num:
            if m0 + m == 0:
                kept.pop(pos)
            else:
                kept[pos] = (u0, i0, v0, j0, m0 + m)
            return (u / u0) ** m
    return None


class FactoredRational:
    """Exact rational function in factored binary form.

    value = scalar * z^monomial * prod (u*z_i + v*z_j)^m  with i < j.

    Degenerate factors (equal indices, or a vanishing u or v) are folded
    into the scalar and monomial at construction, so every stored factor
    has both coefficients nonzero and is expandable in the nested domain.
    Every stored u and v is a monomial c*q^k with c a nonzero rational,
    as in every binomial z_i - c z_j of the weight function's blocks: the
    constructor refuses any other, and the derived values reuse factors
    it has checked.

    ``_form`` holds the integers ``eval_exact`` reads (``_compile``),
    filled on the first evaluation; it is derived from the three fields
    and enters no output, comparison or expansion.
    """

    __slots__ = ("n", "scalar", "monomial", "factors", "_form")

    def __init__(self, n: int, scalar=ONE, monomial=None, factors=()):
        self.n = n
        scalar = qnum(scalar)
        mono = list(monomial) if monomial is not None else [0] * n
        if len(mono) != n:
            raise ValueError("monomial length must equal the variable count")
        kept = []
        for u, i, v, j, m in factors:
            u, v = qnum(u), qnum(v)
            if not (1 <= i <= n) or not (1 <= j <= n):
                raise ValueError("factor variable index out of range")
            if m == 0:
                continue
            if i == j or u.is_zero() or v.is_zero():
                # the binomial is (u+v) times z_i, or z_j when u is zero;
                # a zero base makes the value zero, or a pole when m < 0
                c = u + v
                if c.is_zero() and m < 0:
                    raise ZeroDivisionError("non-expandable factor: zero base")
                scalar = scalar * c ** m
                mono[(j if u.is_zero() else i) - 1] += m
                continue
            if u.as_monomial() is None or v.as_monomial() is None:
                raise ValueError(f"binomial coefficients must be monomials "
                                 f"c*q^k: ({u})*z_{i} + ({v})*z_{j}")
            if i > j:
                u, i, v, j = v, j, u, i
            merged = _merge(kept, u, i, v, j, m)
            if merged is None:
                kept.append((u, i, v, j, m))
            else:
                scalar = scalar * merged
        out = self._with(scalar, mono, kept)
        self.scalar, self.monomial, self.factors = out.scalar, out.monomial, out.factors
        self._form = None

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    # -- exact algebra on the factored form ------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        """The constructor's result on both scalars, monomials and factor
        lists.  Each operand's factors are already folded and merged, and
        no two of one operand's are proportional, so only ``other``'s are
        merged, and only against ``self``'s."""
        if self.n != other.n:
            raise ValueError("mismatched variable count")
        mine, added = list(self.factors), []
        scalar = self.scalar * other.scalar
        for f in other.factors:
            merged = _merge(mine, *f)
            if merged is None:
                added.append(f)
            else:
                scalar = scalar * merged
        return self._with(scalar, vec_add(self.monomial, other.monomial),
                          mine + added)

    def _with(self, scalar, mono, kept) -> "FactoredRational":
        """A value over ``self``'s variables with fields that are already
        folded and merged, which the constructor would only redo; a zero
        scalar gives the zero."""
        out = FactoredRational.__new__(FactoredRational)
        out.n = self.n
        if scalar.is_zero():
            scalar, mono, kept = ZERO, (0,) * self.n, ()
        out.scalar, out.monomial, out.factors = scalar, tuple(mono), tuple(kept)
        out._form = None
        return out

    def inv(self) -> "FactoredRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self._with(self.scalar.inv(), tuple(-e for e in self.monomial),
                          [(u, i, v, j, -m) for u, i, v, j, m in self.factors])

    def scale(self, c) -> "FactoredRational":
        return self._with(self.scalar * qnum(c), self.monomial, self.factors)

    def numerator_part(self) -> "FactoredRational":
        """Positive-exponent content: scalar, nonnegative monomial, m > 0."""
        return self._with(self.scalar, tuple(max(e, 0) for e in self.monomial),
                          [f for f in self.factors if f[4] > 0])

    def denominator_part(self) -> "FactoredRational":
        """The exact polynomial the value must be multiplied by to clear it."""
        return self._with(ONE, tuple(-min(e, 0) for e in self.monomial),
                          [(u, i, v, j, -m) for u, i, v, j, m in self.factors
                           if m < 0])

    # -- expansion and evaluation -----------------------------------------

    def _factor_series(self, u, i, v, j, m, depth) -> ExpansionSeries:
        """(u*z_i + v*z_j)^m, exact for m > 0 and valid to d(m*e_i) + depth
        for m < 0 (README, "Factor series"): term t is
        C_t u^m (v/u)^t z^(m*e_i + t*(e_j - e_i)), C_t = C(m, t) for
        t <= m > 0, or (-1)^t C(|m|-1+t, t) for t <= tmax = depth // (j-i).
        With u = a q^k, v = b q^l, a^m = un/ud and b/a = rn/rd in integers,
        term t is one slot: C_t un rn^t rd^(tmax-t) at q^(k*m + (l-k)*t),
        over D = ud rd^tmax.  So L1 and M are exact, and D = 1 for a = +-1
        and an integral b."""
        (k, a), (l, b) = u.as_monomial(), v.as_monomial()
        am, r = Fraction(a) ** m, Fraction(b) / a
        un, ud, rn, rd = am.numerator, am.denominator, r.numerator, r.denominator
        tmax = m if m > 0 else depth // (j - i)
        tops = [(comb(m, t) if m > 0 else (-1) ** t * comb(t - m - 1, t))
                * un * rn ** t * rd ** (tmax - t) for t in range(tmax + 1)]
        sizes = list(map(abs, tops))
        e = max(abs(m), abs(m - tmax))
        w, s = _width(_KEY_WIDTH, e), _width(_SLOT_WIDTH, max(sizes))
        layout = _key_layout(self.n, w)
        base = unit_vec(self.n, i, m)
        key, step = _pack_key(base, layout), layout[0][j - 1] - layout[0][i - 1]
        # the q-exponent of term t is k*m + (l-k)*t; the least one is the base
        lo = k * m + min(0, (l - k) * tmax)
        coeffs = {key + t * step: c << s * (k * m + (l - k) * t - lo)
                  for t, c in enumerate(tops)}
        d = ud * rd ** tmax
        return _make(self.n, INF if m > 0 else ratio_degree(base) + depth, coeffs,
                     w, e, s, lo, _POLY_ONE if d == 1 else QPoly(0, (d,)),
                     sum(sizes), max(sizes), True)

    def expand(self, depth: int) -> ExpansionSeries:
        """Laurent expansion in |z_1| >> ... >> |z_n|.

        The validity bound is d(leading monomial) + depth; with no
        inverse factors the expansion is exact (infinite validity).

        The term scalar * z^monomial and the factor series are multiplied
        left to right in one packed chain (``_product``), which gives the
        values and the validity of the pairwise products
        monomial * f_1 * f_2 * ... .
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        head = ExpansionSeries.monomial(self.n, self.monomial, self.scalar)
        if not self.factors:
            return head
        factors = [self._factor_series(u, i, v, j, m, depth)
                   for u, i, v, j, m in self.factors]
        return _product(self.n, [head, *factors])

    def _compile(self):
        """The integers ``eval_exact`` reads, derived once per value.

        With u = a q^k, v = b q^l and e = min(k, l), a binomial is
        (u z_i + v z_j)^m = q^(e*m) ((s z_x + t q^g z_y) / d)^m, with
        g = |l - k|, z_y the variable whose coefficient has the larger
        q-exponent, and s, t, d the integers an*bd, bn*ad, ad*bd read off
        a = an/ad and b = bn/bd (s and t swap with the variables).
        Returns (total, pole0, rows): total = sum e*m; one row
        (s, x, t, y, d, g, m) per binomial, x and y 0-based; and pole0,
        whether q0 = 0 is a pole because some u or v has a negative
        exponent or some e > 0 carries m < 0.  No q-power in a row is
        negative, so a row is finite at q0 = 0, and folding q^(e*m) into
        total hides no pole there.
        """
        total, pole0, rows = 0, False, []
        for u, i, v, j, m in self.factors:
            (k, a), (l, b) = u.as_monomial(), v.as_monomial()
            an_bd, bn_ad = a.numerator * b.denominator, b.numerator * a.denominator
            e = min(k, l)
            total += e * m
            pole0 = pole0 or e < 0 or (e > 0 and m < 0)
            row = ((an_bd, i - 1, bn_ad, j - 1) if l >= k
                   else (bn_ad, j - 1, an_bd, i - 1))
            rows.append((*row, a.denominator * b.denominator, abs(l - k), m))
        self._form = total, pole0, tuple(rows)
        return self._form

    def eval_exact(self, q0, zvals) -> Fraction:
        """Exact value at rational q0 and z values; raises on a pole.

        The value is kept as one integer numerator and denominator, which
        the scalar at q0 (``QRat.eval_pair``), each z^e, q0^total and each
        binomial (s z_x + t q0^g z_y)^m / d^m of the compiled form
        (``_compile``, run once per value) multiply into; a negative
        exponent swaps the two.  The returned Fraction is the only one
        formed, so a value costs one gcd.  A vanishing base with m > 0
        makes the value 0, but a later pole still raises.
        """
        zs = [_as_fraction(z).as_integer_ratio() for z in zvals]
        if len(zs) != self.n:
            raise ValueError("wrong number of z values")
        qn, qd = _as_fraction(q0).as_integer_ratio()
        num, den = self.scalar.eval_pair(qn, qd)
        total, pole0, rows = self._form or self._compile()
        if pole0 and not qn:
            raise ZeroDivisionError("pole at q0 = 0")
        for e, (top, bottom) in zip(self.monomial, zs):
            if e:
                if e < 0:
                    # z = 0 leaves den = 0, and the final Fraction raises
                    top, bottom, e = bottom, top, -e
                num, den = num * top ** e, den * bottom ** e
        if total > 0:
            num, den = num * qn ** total, den * qd ** total
        elif total < 0:
            num, den = num * qd ** -total, den * qn ** -total
        for s, x, t, y, d, g, m in rows:
            (xn, xd), (yn, yd), r = zs[x], zs[y], qd ** g
            top = s * xn * yd * r + t * yn * xd * qn ** g
            bottom = d * xd * yd * r
            if m < 0:
                if not top:
                    raise ZeroDivisionError("pole hit")
                top, bottom, m = bottom, top, -m
            num, den = num * top ** m, den * bottom ** m
        return Fraction(num, den)

    def to_json(self):
        return {
            "n": self.n,
            "scalar": self.scalar.to_json(),
            "monomial": list(self.monomial),
            "factors": [
                {"u": u.to_json(), "i": i, "v": v.to_json(), "j": j, "m": m}
                for u, i, v, j, m in self.factors
            ],
        }
