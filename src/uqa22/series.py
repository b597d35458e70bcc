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
from fractions import Fraction
from itertools import chain, count
from math import comb

from .qfield import ONE, ZERO, QPoly, QRat, _as_fraction, qnum

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


# -- packed products ---------------------------------------------------------

def _key_packing(n: int, operands: list):
    """(pack, unpack, degree) between exponent vectors and int keys for a
    product of the term dicts ``operands``.

    The key of a is sum_i a_i * 2^(w*(i-1)) + d(a) * 2^(w*n): the digits
    of a, then its ratio degree on top.  Both parts are linear in a, so
    the key of a sum of vectors is the sum of their keys.  With M the sum
    over the operands of each one's largest |exponent| and
    w = bit_length(M) + 1, every lower digit of a sum of at most one key
    per operand has |digit| <= M < 2^(w-1) = h.  Adding
    sum_i h * 2^(w*(i-1)) turns each lower digit into digit + h in
    [0, 2^w), an ordinary base-2^w numeral, so the lower digits decode to
    the sum of the vectors (``unpack``), what lies above them is its
    ratio degree (``degree``), and distinct sums have distinct keys.
    """
    m = sum([max(map(abs, chain.from_iterable(t)), default=0) for t in operands])
    w = m.bit_length() + 1
    shifts, top = range(0, w * n, w), w * n
    weights = [(1 << sh) + (i << top) for i, sh in enumerate(shifts, 1)]
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum(half << sh for sh in shifts)

    def pack(a):
        return sum(map(operator.mul, a, weights))

    def unpack(k):
        k += bias
        return tuple([((k >> sh) & mask) - half for sh in shifts])

    def degree(k):
        return (k + bias) >> top

    return pack, unpack, degree


def _int_laurent(terms: dict):
    """(least q-exponent, 1 + greatest q-exponent, L1) of the coefficients
    when each one is an integer Laurent polynomial, else None.  L1 is the
    sum of the absolute values of every integer coefficient of every
    term."""
    nums = [c.num for c in terms.values() if c.den.is_one()]
    if len(nums) < len(terms):
        return None
    l1 = sum([sum(map(abs, p.coeffs)) for p in nums])
    if type(l1) is not int:
        return None    # a Fraction coefficient makes the sum a Fraction
    return (min([p.off for p in nums]),
            max([p.off + len(p.coeffs) for p in nums]), l1)


def _identity(c):
    return c


def _coefficient_ring(operands: list):
    """([pack per operand], unpack) of the coefficient ring of a product
    of the nonempty term dicts ``operands``.

    When every coefficient of every operand is an integer Laurent
    polynomial the ring is Z, by Kronecker substitution: a coefficient
    q^off * P(q) of an operand whose least q-exponent is b packs to the
    int P(2^s) * 2^(s*(off - b)), the value at q = 2^s of the polynomial
    q^(off-b) * P(q), whose exponents are nonnegative.  Packing is a ring
    homomorphism, so a sum of packed products is the packed value of the
    polynomial sum, whose exponents are counted from the sum of the b.

    Slot width: each coefficient c_k of a term of the product of any
    operands x_1, ..., x_j among them, truncated or not, is a sum of
    products of one integer coefficient of each x_i, each such tuple used
    at most once, so |c_k| <= L1(x_1) * ... * L1(x_j) <= P, the product of
    every operand's L1 (each is at least 1), and P < 2^(s-1) = h for
    s = bit_length(P) + 1.  Adding h * 2^(s*k) for every slot k turns
    each digit into c_k + h in (0, 2^s): an ordinary base-2^s numeral, so
    the digits decode exactly, and a packed value, final or partial, is 0
    only for the zero polynomial.  Its lowest nonzero slot is the one
    holding its lowest set bit.  With c_D its top nonzero coefficient the
    lower slots add up to less than 2^(s*D-1) in absolute value, so
    2^(s*D-1) < |V| < 2^(s*(D+1)-1) and D = bit_length(V) // s.

    Otherwise the ring is Q(q) itself and the coefficients stay ``QRat``.
    """
    laurent = [_int_laurent(t) for t in operands]
    if None in laurent:
        return [_identity] * len(operands), _identity
    s = math.prod([l1 for _, _, l1 in laurent]).bit_length() + 1
    half, mask = 1 << (s - 1), (1 << s) - 1
    # one slot per exponent of the widest packed product
    slots = sum([h - b - 1 for b, h, _ in laurent]) + 1
    bias = half * ((1 << (s * slots)) - 1) // mask
    base, one = sum([b for b, _, _ in laurent]), QPoly.one()

    def packer(b):
        def pack(c):
            num = c.num
            v = 0
            for a in reversed(num.coeffs):
                v = (v << s) + a
            return v << (s * (num.off - b))
        return pack

    def unpack(v):
        lo = ((v & -v).bit_length() - 1) // s
        w = v + bias
        num = QPoly.__new__(QPoly)
        num.off = base + lo
        num.coeffs = tuple([((w >> sh) & mask) - half for sh in
                            range(s * lo, s * (v.bit_length() // s + 1), s)])
        return QRat(num, one, _canonical=True)

    return [packer(b) for b, _, _ in laurent], unpack


def _product(n: int, operands: list) -> "ExpansionSeries":
    """Truncated product of the nonempty series ``operands``, left to
    right.  Each step keeps every pair with d(a) + d(b) <= validity, the
    bound being min(v_left + least degree right, v_right + least degree
    left).

    The coefficient ring and the key packing are chosen once for the
    whole chain (``_coefficient_ring``, ``_key_packing``) and each operand
    is packed once.  Each step sums its pairs over the packed values,
    with the next operand sorted by ratio degree, which each key carries,
    so that each row stops at the bound, and drops its zero sums; the
    terms are decoded once, at the end.  A product of nonempty series is
    nonempty, because its least-degree part is the product of theirs, so
    every step has a least degree on both sides.
    """
    dicts = [s.terms for s in operands]
    pack_key, unpack_key, degree = _key_packing(n, dicts)
    packs, unpack = _coefficient_ring(dicts)
    first = operands[0]
    sums = {pack_key(a): packs[0](c) for a, c in first.terms.items()}
    validity = first.validity
    for right, pack in zip(operands[1:], packs[1:]):
        # a zero sum, packed int or QRat, is falsy
        rows = [(degree(k), k, c) for k, c in sums.items() if c]
        inner = sorted([(degree(k), k, pack(c)) for k, c in
                        zip(map(pack_key, right.terms), right.terms.values())],
                       key=_first)
        validity = min(validity + inner[0][0],
                       right.validity + min(map(_first, rows)))
        sums = {}
        for dega, ka, ca in rows:
            room = validity - dega
            for degb, kb, cb in inner:
                if degb > room:
                    break
                key = ka + kb
                c = ca * cb
                s = sums.get(key)
                sums[key] = c if s is None else s + c
    return ExpansionSeries._of(
        n, {unpack_key(k): unpack(c) for k, c in sums.items() if c}, validity)


class ExpansionSeries:
    """Sparse truncated Laurent expansion with an explicit validity bound."""

    __slots__ = ("n", "terms", "validity")

    def __init__(self, n: int, terms=None, validity=INF):
        self.n = n
        self.validity = validity
        self.terms = {a: c for a, c in (terms or {}).items()
                      if not c.is_zero() and ratio_degree(a) <= validity}

    @classmethod
    def _of(cls, n: int, terms: dict, validity) -> "ExpansionSeries":
        """Adopt ``terms`` as they are: the caller guarantees that every
        coefficient is nonzero and every exponent inside the bound."""
        out = cls.__new__(cls)
        out.n, out.terms, out.validity = n, terms, validity
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "ExpansionSeries":
        return cls(n, {(0,) * n: ONE}, INF)

    @classmethod
    def monomial(cls, n: int, a, coeff=ONE) -> "ExpansionSeries":
        return cls(n, {tuple(a): qnum(coeff)}, INF)

    # -- introspection ----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.terms

    def coefficient(self, a) -> QRat:
        return self.terms.get(tuple(a), ZERO)

    def min_degree_bound(self):
        """A lower bound on the true minimal ratio degree of the series."""
        if self.terms:
            return min(ratio_degree(a) for a in self.terms)
        if self.validity == INF:
            return INF
        return self.validity + 1

    def _check_mate(self, other: "ExpansionSeries"):
        if self.n != other.n:
            raise ValueError("mismatched variable count")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        self._check_mate(other)
        validity = min(self.validity, other.validity)
        # only coinciding terms can cancel
        terms = self._clipped(validity)
        for a, c in other._clipped(validity).items():
            s = terms.get(a)
            if s is None:
                terms[a] = c
            elif (s := s + c).is_zero():
                del terms[a]
            else:
                terms[a] = s
        return ExpansionSeries._of(self.n, terms, validity)

    def _clipped(self, validity) -> dict:
        """A fresh dict of the stored terms inside the bound ``validity``."""
        if validity == self.validity:
            return dict(self.terms)
        return {a: c for a, c in self.terms.items() if ratio_degree(a) <= validity}

    def __neg__(self) -> "ExpansionSeries":
        return ExpansionSeries(
            self.n, {a: -c for a, c in self.terms.items()}, self.validity)

    def scale(self, c) -> "ExpansionSeries":
        c = qnum(c)
        if c.is_zero():
            return ExpansionSeries(self.n, {}, self.validity)
        return ExpansionSeries(
            self.n, {a: s * c for a, s in self.terms.items()}, self.validity)

    def _shift_scale(self, a, c) -> "ExpansionSeries":
        """Product with the exact single term c*z^a.

        Every stored exponent b has d(b) <= validity, so every shifted
        exponent satisfies d(a+b) <= validity + d(a), the bound of the
        product; nonzero coefficients stay nonzero.  The result is
        therefore built directly, without re-filtering its terms.
        """
        if c.is_one():
            terms = {tuple(map(operator.add, b, a)): s for b, s in self.terms.items()}
        else:
            terms = {tuple(map(operator.add, b, a)): s * c
                     for b, s in self.terms.items()}
        return ExpansionSeries._of(self.n, terms, self.validity + ratio_degree(a))

    def mul(self, other: "ExpansionSeries") -> "ExpansionSeries":
        """Truncated product: every pair with d(a) + d(b) <= validity.

        A single exact term shifts and scales the other operand
        (``_shift_scale``).  Otherwise the pairs are summed by
        ``_product``, whose coefficient ring is chosen per product: packed
        ints when every coefficient of both operands is an integer Laurent
        polynomial, ``QRat`` otherwise.
        """
        self._check_mate(other)
        if other.validity == INF and len(other.terms) == 1:
            (a, c), = other.terms.items()
            return self._shift_scale(a, c)
        if self.validity == INF and len(self.terms) == 1:
            (a, c), = self.terms.items()
            return other._shift_scale(a, c)
        if not self.terms or not other.terms:
            va = self.validity + other.min_degree_bound()
            vb = other.validity + self.min_degree_bound()
            return ExpansionSeries._of(self.n, {}, min(va, vb))
        return _product(self.n, [self, other])

    __mul__ = mul

    def substitute_scale(self, i: int, c) -> "ExpansionSeries":
        """Replace z_i by c*z_i for a nonzero monomial c in q (times +-1)."""
        c = qnum(c)
        if c.is_zero():
            raise ValueError("substitution scale must be nonzero")
        if c.as_monomial() is None:
            raise ValueError("substitution scale must be a monomial in q")
        return ExpansionSeries(
            self.n,
            {a: s * c ** a[i - 1] for a, s in self.terms.items()},
            self.validity)

    # -- comparison ------------------------------------------------------

    def equal_up_to(self, other: "ExpansionSeries", bound) -> bool:
        """Exact agreement of all coefficients with d(a) <= bound."""
        self._check_mate(other)
        if bound > min(self.validity, other.validity):
            raise ValueError("insufficient truncation")
        for a in self.terms.keys() | other.terms.keys():
            if ratio_degree(a) <= bound and self.coefficient(a) != other.coefficient(a):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExpansionSeries)
            and self.n == other.n
            and self.validity == other.validity
            and self.terms == other.terms
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

    def sorted_terms(self):
        return [(a, self.terms[a]) for a in sorted(self.terms)]

    def to_json(self):
        return self._json({})

    def _json(self, shared: dict):
        v = self.validity
        return {
            "n": self.n,
            "validity": None if v == INF else v,
            "terms": [[list(a), c._json(shared)] for a, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data) -> "ExpansionSeries":
        v = data["validity"]
        return cls(
            data["n"],
            {tuple(a): QRat.from_json(c) for a, c in data["terms"]},
            INF if v is None else v,
        )


class FactoredRational:
    """Exact rational function in factored binary form.

    value = scalar * z^monomial * prod (u*z_i + v*z_j)^m  with i < j.

    Degenerate factors (equal indices, or a vanishing u or v) are folded
    into the scalar and monomial at construction, so every stored factor
    has both coefficients nonzero and is expandable in the nested domain.
    """

    __slots__ = ("n", "scalar", "monomial", "factors")

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
            if i > j:
                u, i, v, j = v, j, u, i
            # merge with a proportional binomial so that inverse pairs
            # cancel exactly instead of meeting again at a pole
            for pos, (u0, i0, v0, j0, m0) in enumerate(kept):
                if i0 == i and j0 == j and u0 * v == v0 * u:
                    scalar = scalar * (u / u0) ** m
                    if m0 + m == 0:
                        kept.pop(pos)
                    else:
                        kept[pos] = (u0, i0, v0, j0, m0 + m)
                    break
            else:
                kept.append((u, i, v, j, m))
        if scalar.is_zero():
            self.scalar = ZERO
            self.monomial = (0,) * n
            self.factors = ()
        else:
            self.scalar = scalar
            self.monomial = tuple(mono)
            self.factors = tuple(kept)

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    # -- exact algebra on the factored form ------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if self.n != other.n:
            raise ValueError("mismatched variable count")
        return FactoredRational(
            self.n, self.scalar * other.scalar,
            vec_add(self.monomial, other.monomial),
            self.factors + other.factors)

    def inv(self) -> "FactoredRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FactoredRational(
            self.n, self.scalar.inv(),
            tuple(-e for e in self.monomial),
            tuple((u, i, v, j, -m) for u, i, v, j, m in self.factors))

    def scale(self, c) -> "FactoredRational":
        return FactoredRational(self.n, self.scalar * qnum(c),
                                self.monomial, self.factors)

    def numerator_part(self) -> "FactoredRational":
        """Positive-exponent content: scalar, nonnegative monomial, m > 0."""
        mono = tuple(max(e, 0) for e in self.monomial)
        return FactoredRational(
            self.n, self.scalar, mono,
            tuple(f for f in self.factors if f[4] > 0))

    def denominator_part(self) -> "FactoredRational":
        """The exact polynomial the value must be multiplied by to clear it."""
        mono = tuple(-min(e, 0) for e in self.monomial)
        return FactoredRational(
            self.n, ONE, mono,
            tuple((u, i, v, j, -m) for u, i, v, j, m in self.factors if m < 0))

    def total_degree(self) -> int:
        """Homogeneity degree in the z variables."""
        return sum(self.monomial) + sum(m for *_, m in self.factors)

    def leading(self):
        """(coefficient, exponent vector) of the dominant monomial."""
        mono = list(self.monomial)
        coeff = self.scalar
        for u, i, _v, _j, m in self.factors:
            mono[i - 1] += m
            coeff = coeff * u ** m
        return coeff, tuple(mono)

    # -- expansion and evaluation -----------------------------------------

    def _factor_series(self, u, i, v, j, m, depth) -> ExpansionSeries:
        n = self.n
        if m > 0:
            terms = {}
            for t in range(m + 1):
                a = vec_add(unit_vec(n, i, m - t), unit_vec(n, j, t))
                terms[a] = u ** (m - t) * v ** t * comb(m, t)
            return ExpansionSeries(n, terms, INF)
        mm = -m
        ratio = v / u
        tmax = depth // (j - i)
        base = unit_vec(n, i, m)
        step = vec_add(unit_vec(n, j, 1), unit_vec(n, i, -1))
        terms = {}
        acc = u ** m
        a = base
        for t in range(tmax + 1):
            terms[a] = acc * (comb(mm - 1 + t, t) * (-1) ** t)
            acc = acc * ratio
            a = vec_add(a, step)
        return ExpansionSeries(n, terms, ratio_degree(base) + depth)

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

    def eval_exact(self, q0, zvals) -> Fraction:
        """Exact value at rational q0 and z values; raises on a pole.

        The value is kept as one integer numerator and denominator, which
        the scalar at q0, each z^e and each binomial (u z_i + v z_j)^m,
        over the common denominator of its two products, multiply into;
        a negative exponent swaps the two.  The scalar, u and v are
        evaluated as integer pairs (``QRat.eval_pair``).  The returned
        Fraction is the only one formed, so a value costs one gcd.  A vanishing base with
        m > 0 makes the value 0, but a later pole still raises.
        """
        zs = [_as_fraction(z) for z in zvals]
        if len(zs) != self.n:
            raise ValueError("wrong number of z values")
        q0 = _as_fraction(q0)
        qn, qd = q0.numerator, q0.denominator
        num, den = self.scalar.eval_pair(qn, qd)
        for e, z in zip(self.monomial, zs):
            if e:
                top, bottom = z.numerator, z.denominator
                if e < 0:
                    # z = 0 leaves den = 0, and the final Fraction raises
                    top, bottom, e = bottom, top, -e
                num, den = num * top ** e, den * bottom ** e
        for u, i, v, j, m in self.factors:
            (an, ad), (bn, bd) = u.eval_pair(qn, qd), v.eval_pair(qn, qd)
            zi, zj = zs[i - 1], zs[j - 1]
            an, ad = an * zi.numerator, ad * zi.denominator
            bn, bd = bn * zj.numerator, bd * zj.denominator
            top, bottom = an * bd + bn * ad, ad * bd
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
