"""Exact arithmetic in Q(q), the coefficient field of the whole engine.

Every scalar is a rational function of the deformation parameter q with
rational coefficients.  Numerators and denominators are Laurent
polynomials in q (negative exponents allowed, since q^-1, q^-2, q^-3
occur everywhere), and values are kept in a canonical reduced form so
that equality is plain structural equality.  q is treated as
transcendental; there is no floating point anywhere.

Almost every value the engine forms lies in Z[q^+-1][1/(1+q^3)], and the
representation is tuned for that ring without leaving Q(q):

* an integral coefficient is stored as ``int`` and only a non-integral
  one as ``Fraction``, so integer Laurent polynomials are added,
  multiplied and evaluated without any ``Fraction`` arithmetic;
* a denominator that is a constant times a product of the cyclotomic
  factors of 1+q^3 and q-1 is reduced by exact trial division, and only
  any other denominator takes the Euclidean gcd over Q;
* the product of two reduced values a/b and c/d cancels a only against
  d and c only against b, and a power multiplies out with no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _coeff(c):
    """Canonical exact coefficient: ``int`` if integral, else ``Fraction``."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


def _as_fraction(c) -> Fraction:
    # evaluation points and values are Fractions: callers raise values to
    # negative powers, which for an int would give a float
    return c if type(c) is Fraction else Fraction(_coeff(c))


class QPoly:
    """Laurent polynomial in q over the rationals.

    Coefficients are stored densely from the lowest exponent ``off``
    upward; the first and last stored coefficients are nonzero, and the
    zero polynomial is the empty tuple.  Each coefficient is an ``int``
    when it is integral and a ``Fraction`` only when it is not, so equal
    polynomials have identical fields and an integer polynomial never
    touches ``Fraction`` arithmetic.  Instances are immutable.
    """

    __slots__ = ("off", "coeffs")

    def __init__(self, off: int = 0, coeffs=()):
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        lo, hi = 0, len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.off = 0
            self.coeffs = ()
        else:
            self.off = off + lo
            self.coeffs = tuple(cs[lo:hi])

    @staticmethod
    def zero() -> "QPoly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "QPoly":
        return _POLY_ONE

    @classmethod
    def from_terms(cls, terms) -> "QPoly":
        """Build from {exponent: coeff} or an iterable of (exponent, coeff)."""
        d = dict(terms) if not isinstance(terms, dict) else terms
        d = {e: c for e, c in d.items() if c != 0}
        if not d:
            return cls.zero()
        lo, hi = min(d), max(d)
        return cls(lo, [d.get(e, 0) for e in range(lo, hi + 1)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.off == 0 and self.coeffs == (1,)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("valuation of zero polynomial")
        return self.off

    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else 0

    def terms(self):
        for k, c in enumerate(self.coeffs):
            if c != 0:
                yield self.off + k, c

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return QPoly(self.off + k, self.coeffs)

    def scale(self, c) -> "QPoly":
        c = _coeff(c)
        if c == 0:
            return QPoly.zero()
        return self.times_term(0, c)

    def times_term(self, k: int, c) -> "QPoly":
        """Multiply by c*q^k for a nonzero canonical coefficient c.

        The ends stay nonzero, so nothing is trimmed; an integral product
        of a ``Fraction`` is still turned into an ``int``.
        """
        if c == 1 and not k:
            return self
        out = QPoly.__new__(QPoly)
        out.off = self.off + k
        if c == 1:
            out.coeffs = self.coeffs
        elif type(c) is int:
            out.coeffs = tuple([a * c if type(a) is int else _coeff(a * c)
                                for a in self.coeffs])
        else:
            out.coeffs = tuple([_coeff(a * c) for a in self.coeffs])
        return out

    def __neg__(self) -> "QPoly":
        return QPoly(self.off, [-a for a in self.coeffs])

    def __add__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.off, other.off)
        hi = max(self.off + len(self.coeffs), other.off + len(other.coeffs))
        cs = [0] * (hi - lo)
        for k, c in enumerate(self.coeffs):
            cs[self.off - lo + k] += c
        for k, c in enumerate(other.coeffs):
            cs[other.off - lo + k] += c
        return QPoly(lo, cs)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly.zero()
        if len(b) == 1:
            return self.times_term(other.off, b[0])
        if len(a) == 1:
            return other.times_term(self.off, a[0])
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    cs[k] += ai * bj
        return QPoly(self.off + other.off, cs)

    def eval(self, q0: Fraction) -> Fraction:
        """Exact value at q = q0.  Needs q0 != 0 when negative powers occur."""
        q0 = _as_fraction(q0)
        return Fraction(*self.eval_pair(q0.numerator, q0.denominator))

    def eval_pair(self, n: int, d: int):
        """Integers (top, bottom) with top/bottom the value at q0 = n/d.

        The pair is not reduced.  Needs n != 0 when negative powers occur.
        """
        if not self.coeffs:
            return 0, 1
        if self.off < 0 and n == 0:
            raise ZeroDivisionError("pole at q0 = 0")
        # Horner on the homogenised form: with top degree t,
        # acc = d^t * sum_k c_k q0^k stays an int for int coefficients
        acc, dk = self.coeffs[-1], 1
        for c in reversed(self.coeffs[:-1]):
            dk *= d
            acc = acc * n + c * dk
        if type(acc) is not int:
            # a non-integral coefficient leaves a Fraction
            acc, dk = acc.numerator, dk * acc.denominator
        e = self.off
        if e >= 0:
            return acc * n ** e, dk * d ** e
        return acc * d ** -e, dk * n ** -e

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPoly)
            and self.off == other.off
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.off, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                t = str(c)
            else:
                qe = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    t = qe
                elif c == -1:
                    t = f"-{qe}"
                else:
                    t = f"{c}*{qe}"
            parts.append(t)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"QPoly({self})"

    def to_json(self):
        return [[e, str(c)] for e, c in self.terms()]

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls.from_terms({int(e): Fraction(c) for e, c in data})


_POLY_ZERO = QPoly()
_POLY_ONE = QPoly(0, (1,))


# -- ordinary (valuation-zero) polynomial helpers used for gcd ------------
#
# Lists are dense ascending coefficient lists without trailing zeros.

# Monic, irreducible over Q and pairwise coprime, as ascending lists:
# Phi2 = 1+q and Phi6 = 1-q+q^2 (so 1+q^3 = Phi2*Phi6), and Phi1 = q-1.
_FACTORS = ((1, 1), (1, -1, 1), (-1, 1))


def _divmod_monic(a, f):
    """Quotient and trimmed remainder of a by the monic f.

    Synthetic division: no coefficient is ever divided, so integer lists
    give integer lists.
    """
    d = len(f) - 1
    a = list(a)
    out = [0] * max(len(a) - d, 0)
    for s in range(len(out) - 1, -1, -1):
        c = a[s + d]
        out[s] = c
        if c:
            for k in range(d):
                a[s + k] -= c * f[k]
    rem = a[:d]
    while rem and rem[-1] == 0:
        rem.pop()
    return out, rem


def _div_monic(a, f):
    """Quotient of a by the monic f when f divides a exactly, else None."""
    quo, rem = _divmod_monic(a, f)
    return quo if quo and not rem else None


def _list_gcd(a, b):
    """Monic gcd over Q of a and a nonzero b, by Euclid's algorithm.

    Each divisor is made monic before it divides, dividing by its leading
    coefficient as a Fraction (an int quotient would be a float), so the
    last divisor is the monic gcd.
    """
    a = [Fraction(c) for c in a]
    while b:
        lc = Fraction(b[-1])
        b = [c / lc for c in b]
        a, b = b, _divmod_monic(a, b)[1]
    return a


@lru_cache(maxsize=512)
def _factor_exponents(b):
    """(e_f for f in _FACTORS) if b = const * prod f^e_f, else None.

    Memoised: the engine meets only a handful of distinct denominators.
    """
    exps = []
    for f in _FACTORS:
        e = 0
        while (quo := _div_monic(b, f)) is not None:
            b, e = quo, e + 1
        exps.append(e)
    return tuple(exps) if len(b) == 1 else None


def _reduce_euclid(a, b):
    """a and b divided by their monic gcd, found by Euclid's algorithm."""
    g = _list_gcd(a, b)
    if len(g) > 1:
        return _divmod_monic(a, g)[0], _divmod_monic(b, g)[0]
    return a, b


def _reduce(a, b):
    """a and b divided by their monic gcd.

    When b is a constant times prod f^e_f over ``_FACTORS`` the gcd is
    prod f^min(e_f, v_f(a)), v_f being the multiplicity of f in a: the
    factors are irreducible and pairwise coprime.  Trial division finds
    it with no division of coefficients.  Any other b takes Euclid.
    """
    exps = _factor_exponents(tuple(b))
    if exps is None:
        return _reduce_euclid(a, b)
    for f, e in zip(_FACTORS, exps):
        for _ in range(e):
            quo = _div_monic(a, f)
            if quo is None:
                break
            a, b = quo, _div_monic(b, f)
    return a, b


def _cancel(p: QPoly, den: QPoly):
    """p and the canonical den divided by their monic gcd (``_reduce``);
    a unit den, or a monomial p, has none, as q does not divide den."""
    if len(den.coeffs) == 1 or len(p.coeffs) == 1:
        return p, den
    a, b = _reduce(p.coeffs, den.coeffs)
    return QPoly(p.off, a), QPoly(0, b)


class QRat:
    """Element of Q(q) in canonical reduced form.

    The denominator is an ordinary polynomial in q (lowest exponent 0)
    with leading coefficient 1 and no common factor with the numerator,
    so equal values have identical fields.  All operations are exact and
    pure; instances are immutable and may be shared freely.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=None, _canonical: bool = False):
        if _canonical:
            self.num, self.den = num, den
            return
        if not isinstance(num, QPoly):
            num = QPoly(0, (num,)) if num else QPoly.zero()
        if den is None:
            den = QPoly.one()
        elif not isinstance(den, QPoly):
            den = QPoly(0, (den,)) if den else QPoly.zero()
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(num: QPoly, den: QPoly):
        """Reduce num/den to the canonical form described on the class.

        ``_reduce`` divides both by their monic gcd, by trial division or
        by Euclid; a reduced form with a monic denominator is unique, so
        either path gives the same fields.
        """
        if den.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        if num.is_zero():
            return QPoly.zero(), QPoly.one()
        vd = den.valuation()
        if vd:
            den = den.shift(-vd)
            num = num.shift(-vd)
        if len(den.coeffs) == 1:
            c = den.coeffs[0]
            return (num if c == 1 else num.scale(1 / Fraction(c))), QPoly.one()
        vn = num.valuation()
        a, b = _reduce(num.coeffs, den.coeffs)
        lc = b[-1]
        if lc != 1:
            inv = 1 / Fraction(lc)
            a = [c * inv for c in a]
            b = [c * inv for c in b]
        return QPoly(vn, a), QPoly(0, b)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def as_monomial(self):
        """Return (exponent, coeff) if the value is c*q^e, else None."""
        if self.den.is_one() and len(self.num.coeffs) == 1:
            return self.num.off, self.num.coeffs[0]
        return None

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other) -> "QRat":
        other = qnum(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            if self.den.is_one():
                return QRat(self.num + other.num, self.den, _canonical=True)
            return QRat(self.num + other.num, self.den)
        return QRat(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __sub__(self, other) -> "QRat":
        return self + (-qnum(other))

    def __neg__(self) -> "QRat":
        return QRat(-self.num, self.den, _canonical=True)

    def __mul__(self, other) -> "QRat":
        if type(other) is not QRat:
            other = qnum(other)
        if not self.num.coeffs or not other.num.coeffs:
            return ZERO
        # both are reduced: a numerator shares factors only with the other den
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return QRat(a * c, b * d, _canonical=True)

    def __truediv__(self, other) -> "QRat":
        return self * qnum(other).inv()

    def inv(self) -> "QRat":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return QRat(self.den, self.num)

    def __pow__(self, k: int) -> "QRat":
        """A power of a reduced value is reduced; only ``inv`` forms a gcd."""
        base = self if k >= 0 else self.inv()
        num, den = QPoly.one(), QPoly.one()
        for _ in range(abs(k)):
            num, den = num * base.num, den * base.den
        return QRat(num, den, _canonical=True)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "QRat":
        return qnum(other) - self

    # -- evaluation and comparison --------------------------------------

    def eval(self, q0) -> Fraction:
        """Exact value at q = q0; q0 must not be a root of the denominator."""
        q0 = _as_fraction(q0)
        return Fraction(*self.eval_pair(q0.numerator, q0.denominator))

    def eval_pair(self, n: int, d: int):
        """Integers (top, bottom) with top/bottom the value at q0 = n/d,
        which must not be a root of the denominator.  Not reduced."""
        if self.den.is_one():
            return self.num.eval_pair(n, d)
        dt, db = self.den.eval_pair(n, d)
        if dt == 0:
            raise ZeroDivisionError(f"pole at q0 = {Fraction(n, d)}")
        nt, nb = self.num.eval_pair(n, d)
        return nt * db, nb * dt

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = qnum(other)
        return (
            isinstance(other, QRat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes like one
        if self.den.is_one() and self.num.off == 0 and len(self.num.coeffs) <= 1:
            return hash(self.num.coeffs[0] if self.num.coeffs else 0)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QRat({self})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "QRat":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))


ZERO = QRat(0)
ONE = QRat(1)


def qpow(e: int, c=1) -> QRat:
    """The monomial c * q^e."""
    c = _coeff(c)
    if c == 0:
        return ZERO
    return QRat(QPoly(e, (c,)), _POLY_ONE, _canonical=True)


def qnum(c) -> QRat:
    """Embed an integer or Fraction into Q(q)."""
    return c if isinstance(c, QRat) else QRat(c)
