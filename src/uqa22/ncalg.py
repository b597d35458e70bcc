"""Free noncommutative polynomial algebra over truncated series.

Words are finite sequences over exactly one alphabet: either current
modes (families e, f and the imaginary-root family a) or the abstract
projection symbols that the weight-function formulas are written in.
No relations are imposed; two expressions are compared coefficient by
coefficient at a stated truncation bound.

Every coefficient is an ExpansionSeries in the one nested domain
|z_1| >> ... >> |z_n|, exact at ratio degrees up to its validity.  The
involution ``iota`` maps words only; the dual projections are read at
inverted arguments rather than rewritten in the variables z_i^-1 (see
``projection.star_projection``).
"""

from __future__ import annotations

from typing import NamedTuple

from .qfield import qnum, qpow
from .series import INF, ExpansionSeries

MODE_FAMILIES = ("e", "f", "a")

# abstract projection symbols: positive-side current and composite
# current, and their negative-side counterparts
PF_PLUS = "f+"
PS_PLUS = "s+"
PF_MINUS = "f-"
PS_TILDE_MINUS = "s~-"
ABSTRACT_KINDS = (PF_PLUS, PS_PLUS, PF_MINUS, PS_TILDE_MINUS)

# only the composite symbols admit a twisted argument, with a fixed scale
TWIST_SCALE = {PS_PLUS: qpow(1, -1), PS_TILDE_MINUS: qpow(-1, -1)}  # -q, -q^-1


class ModeSymbol(NamedTuple):
    family: str
    index: int


class AbstractSymbol(NamedTuple):
    kind: str
    var: int
    twisted: bool = False


def mode(family: str, index: int) -> ModeSymbol:
    if family not in MODE_FAMILIES:
        raise ValueError(f"unknown mode family {family!r}")
    return ModeSymbol(family, index)


def abstract(kind: str, var: int, twisted: bool = False) -> AbstractSymbol:
    if kind not in ABSTRACT_KINDS:
        raise ValueError(f"unknown projection symbol {kind!r}")
    if twisted and kind not in TWIST_SCALE:
        raise ValueError(f"symbol {kind!r} does not admit a twisted argument")
    return AbstractSymbol(kind, var, twisted)


def word_alphabet(word) -> str:
    """'mode' or 'abstract'; the empty word is neutral."""
    if not word:
        return ""
    kinds = {type(s) for s in word}
    if kinds == {ModeSymbol}:
        return "mode"
    if kinds == {AbstractSymbol}:
        return "abstract"
    raise ValueError("word mixes alphabets")


def principal_degree(word) -> int:
    """Principal grading: deg e_n = 3n+1, deg f_n = 3n-1, deg a_n = 3n."""
    total = 0
    for s in word:
        if not isinstance(s, ModeSymbol):
            raise ValueError("principal degree is defined on mode words")
        n = s.index
        total += {"e": 3 * n + 1, "f": 3 * n - 1, "a": 3 * n}[s.family]
    return total


_IOTA_FAMILY = {"e": "f", "f": "e", "a": "a"}


def iota_word(word) -> tuple:
    """The involution e_n -> f_{-n}, f_n -> e_{-n}, a_n -> a_{-n}, letter
    by letter, in word order."""
    return tuple(ModeSymbol(_IOTA_FAMILY[s.family], -s.index) for s in word)


class NCExpr:
    """Finite linear combination of words with series coefficients.

    The header validity is the common exactness claim: for every word
    (stored or not) the coefficient series is exact at all ratio degrees
    d <= validity.  A word may individually be exact further out.
    """

    __slots__ = ("n", "coeffs", "validity")

    def __init__(self, n: int, coeffs=None, validity=None):
        self.n = n
        kept = {}
        vals = []
        alphabet = ""
        for w, s in (coeffs or {}).items():
            a = word_alphabet(w)
            if a:
                if alphabet and a != alphabet:
                    raise ValueError("expression mixes alphabets")
                alphabet = a
            vals.append(s.validity)
            if s:
                kept[w] = s
        v = min(vals) if vals else INF
        self.validity = v if validity is None else min(v, validity)
        self.coeffs = kept

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "NCExpr":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "NCExpr":
        return cls(n, {(): ExpansionSeries.one(n)})

    @classmethod
    def from_word(cls, n: int, word, coeff=None) -> "NCExpr":
        return cls(n, {tuple(word): ExpansionSeries.one(n) if coeff is None else coeff})

    # -- introspection ----------------------------------------------------

    def alphabet(self) -> str:
        for w in self.coeffs:
            a = word_alphabet(w)
            if a:
                return a
        return ""

    def words(self):
        return sorted(self.coeffs.keys(), key=lambda w: (len(w), w))

    def coefficient(self, word) -> ExpansionSeries:
        s = self.coeffs.get(tuple(word))
        if s is None:
            return ExpansionSeries(self.n, {}, self.validity)
        return s

    def _min_term_degree(self):
        degs = [s.min_degree_bound() for s in self.coeffs.values()]
        if degs:
            return min(degs)
        return INF if self.validity == INF else self.validity + 1

    def _check_mate(self, other: "NCExpr"):
        if self.n != other.n:
            raise ValueError("mismatched variable count")
        a, b = self.alphabet(), other.alphabet()
        if a and b and a != b:
            raise ValueError("cannot mix mode and abstract words")

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "NCExpr") -> "NCExpr":
        self._check_mate(other)
        coeffs = dict(self.coeffs)
        for w, s in other.coeffs.items():
            t = coeffs.get(w)
            coeffs[w] = s if t is None else t + s
        return NCExpr(self.n, coeffs, min(self.validity, other.validity))

    def __neg__(self) -> "NCExpr":
        return NCExpr(self.n, {w: -s for w, s in self.coeffs.items()},
                      self.validity)

    def __sub__(self, other: "NCExpr") -> "NCExpr":
        return self + (-other)

    def __mul__(self, other: "NCExpr") -> "NCExpr":
        """Concatenation product, bilinear over series coefficients.

        Per-word validity assumes concatenation splits are unambiguous;
        every product the engine forms multiplies by a factor whose words
        share one length, which guarantees that.  The header validity is
        sound unconditionally.
        """
        self._check_mate(other)
        validity = min(self.validity + other._min_term_degree(),
                       other.validity + self._min_term_degree())
        coeffs = {}
        for wa, sa in self.coeffs.items():
            for wb, sb in other.coeffs.items():
                w = wa + wb
                s = sa.mul(sb)
                t = coeffs.get(w)
                coeffs[w] = s if t is None else t + s
        return NCExpr(self.n, coeffs, validity)

    def scale(self, s) -> "NCExpr":
        """Multiply every coefficient by a series or a Q(q) scalar."""
        if isinstance(s, ExpansionSeries):
            return self * NCExpr(self.n, {(): s})
        c = qnum(s)
        return NCExpr(self.n, {w: t.scale(c) for w, t in self.coeffs.items()},
                      self.validity)

    # -- the involution ---------------------------------------------------

    def iota(self) -> "NCExpr":
        """Apply e_n -> f_{-n}, f_n -> e_{-n}, a_n -> a_{-n} to every word.

        The map preserves word order (it is an algebra homomorphism, the
        reading under which the quadratic exchange relations of the two
        current families transport into each other).  Coefficient series
        and validity are kept as they are.
        """
        if self.alphabet() == "abstract":
            raise ValueError("the involution acts on mode words")
        return NCExpr(self.n, {iota_word(w): s for w, s in self.coeffs.items()},
                      self.validity)

    # -- comparison ------------------------------------------------------

    def first_difference(self, other: "NCExpr", bound):
        """(word, a, own coefficient, other's coefficient) at the least word,
        in ``words`` order, whose coefficients differ at some d(a) <= bound,
        with their least such exponent a (``ExpansionSeries.first_difference``);
        None when every word's coefficients agree there.

        The bound must not exceed either header validity.
        """
        self._check_mate(other)
        if bound > min(self.validity, other.validity):
            raise ValueError("insufficient truncation")
        first = None
        for w in self.coeffs.keys() | other.coeffs.keys():
            if first is not None and (len(w), w) > (len(first[0]), first[0]):
                continue
            diff = self.coefficient(w).first_difference(other.coefficient(w), bound)
            if diff is not None:
                first = (w, *diff)
        return first

    def equal_up_to(self, other: "NCExpr", bound) -> bool:
        """True iff every word's coefficients agree at all d <= bound."""
        return self.first_difference(other, bound) is None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"[{self.coeffs[w]}] {word_str(w)}"
                          for w in self.words())

    def to_json(self):
        v = self.validity
        shared = {}
        return {
            "n": self.n,
            "alphabet": self.alphabet() or "mode",
            "validity": None if v == INF else v,
            "terms": [
                {"word": [_symbol_json(s) for s in w],
                 "coeff": self.coeffs[w]._json(shared)}
                for w in self.words()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "NCExpr":
        coeffs = {}
        for item in data["terms"]:
            w = tuple(_symbol_from_json(s) for s in item["word"])
            coeffs[w] = ExpansionSeries.from_json(item["coeff"])
        v = data["validity"]
        return cls(data["n"], coeffs, INF if v is None else v)


def word_str(word) -> str:
    """A word as its symbols joined by *, the empty word as 1."""
    return "*".join(map(_symbol_str, word)) or "1"


def _symbol_str(s) -> str:
    if isinstance(s, ModeSymbol):
        return f"{s.family}[{s.index}]"
    tw = "~tw" if s.twisted else ""
    return f"{s.kind}(z{s.var}{tw})"


def _symbol_json(s):
    if isinstance(s, ModeSymbol):
        return [s.family, s.index]
    return [s.kind, s.var, 1 if s.twisted else 0]


def _symbol_from_json(data):
    if len(data) == 2:
        return mode(data[0], data[1])
    return abstract(data[0], data[1], bool(data[2]))
