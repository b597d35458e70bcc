"""Weight functions as projections of current products.

This is the heart of the engine: admissible-pair combinatorics, the F/S
building-block expressions, the closed combinatorial formula for the
positive and negative projections of f(z_1)...f(z_n), an independent
recursive evaluator for each side that peels one current at a time, and
the expansion of the abstract building blocks into current modes.

The pair combinatorics are written once, on the plus side; the minus
side reads them through the mirror m(x) = n+1-x, which sends a minus pair
(I, J) to the plus pair (m(J), m(I)).  The closed evaluator and the
recursive evaluators share only the scalar block constructors and the
F/S expressions built from them; their agreement is the central
correctness check.  The closed formula of either side is built from
``weight_structure``, the summand list that the LaTeX emitters and the
structure goldens also read.  The closed formula and the mode expansion
are one weighted sum, ``_weighted_sum``, grouped by Horner's rule over a
trie of the factor sequences: shared prefixes on the plus side, each edge
computing A * (sum below it), and shared suffixes on the minus side, each
edge computing (sum below it) * A.  Every A has words of one length, so
the per-word validity of each edge product stays sound.  The recursions
keep their own loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod

from .blocks import ArgList, build_block, build_kernel, build_tilde_block
from .ncalg import (
    PF_MINUS,
    PF_PLUS,
    PS_PLUS,
    PS_TILDE_MINUS,
    TWIST_SCALE,
    ModeSymbol,
    NCExpr,
    abstract,
)
from .qfield import ONE, _factor_exponents, qnum, qpow
from .series import ExpansionSeries, FactoredRational, unit_vec

PLUS = "plus"
MINUS = "minus"


@dataclass(frozen=True)
class AdmissiblePair:
    """Ordered index pair (I, J) marking which currents pair off."""

    I: tuple
    J: tuple
    orientation: str
    n: int

    def __post_init__(self):
        I, J, n = self.I, self.J, self.n
        if len(I) != len(J):
            raise ValueError("index rows must have equal length")
        if set(I) & set(J):
            raise ValueError("index rows must be disjoint")
        for x in (*I, *J):
            if not 1 <= x <= n:
                raise ValueError("index out of range")
        if self.orientation == PLUS:
            if list(J) != sorted(J, reverse=True):
                raise ValueError("second row must decrease")
            if any(j <= i for i, j in zip(I, J)):
                raise ValueError("pairing must satisfy j > i componentwise")
        elif self.orientation == MINUS:
            if list(I) != sorted(I):
                raise ValueError("first row must increase")
            if any(i >= j for i, j in zip(I, J)):
                raise ValueError("pairing must satisfy i < j componentwise")
        else:
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def r(self) -> int:
        return len(self.I)

    def complement(self):
        used = set(self.I) | set(self.J)
        return tuple(k for k in range(1, self.n + 1) if k not in used)

    def mirror(self) -> "AdmissiblePair":
        """The pair of the other side under m(x) = n+1-x: (I, J) becomes
        (m(J), m(I))."""
        n = self.n
        return AdmissiblePair(tuple(n + 1 - x for x in self.J),
                              tuple(n + 1 - x for x in self.I),
                              MINUS if self.orientation == PLUS else PLUS, n)


def _mirror_row(row_target, n: int):
    """A (row, target) read backwards under the mirror."""
    row, target = row_target
    return tuple(n + 1 - x for x in reversed(row)), n + 1 - target


def admissible_pairs(n: int, r: int, orientation: str):
    """Complete, duplicate-free enumeration of admissible pairs.

    The minus pairs are the mirrors of the plus pairs, sorted by (I, J).
    """
    if not 0 <= r <= n // 2:
        raise ValueError(f"cardinality {r} out of range for n={n}")
    if orientation == MINUS:
        return sorted((p.mirror() for p in admissible_pairs(n, r, PLUS)),
                      key=lambda p: (p.I, p.J))
    if orientation != PLUS:
        raise ValueError(f"unknown orientation {orientation!r}")
    if r == 0:
        return [AdmissiblePair((), (), PLUS, n)]
    out = []
    indices = range(1, n + 1)
    js = sorted((tuple(sorted(c, reverse=True))
                 for c in itertools.combinations(indices, r)), reverse=True)
    for J in js:
        rest = [x for x in indices if x not in J]
        for I in itertools.permutations(rest, r):
            if all(i < j for i, j in zip(I, J)):
                out.append(AdmissiblePair(I, J, PLUS, n))
    return out


@dataclass(frozen=True)
class WeightExpr:
    """A weight-function value: abstract-symbol expression plus context."""

    expr: NCExpr
    orientation: str

    def equal_up_to(self, other: "WeightExpr", bound) -> bool:
        return self.expr.equal_up_to(other.expr, bound)


# -- argument-row combinatorics ---------------------------------------------
#
# The rows are spelled out once, on the plus side; a minus row is the plus
# row of the mirrored pair read backwards under the mirror.

def f_row(pair: AdmissiblePair, k: int):
    """Row and target of the k-th F factor, with pushed-in paired indices."""
    if k in pair.I or k in pair.J:
        raise ValueError(f"index {k} is paired")
    if pair.orientation == MINUS:
        return _mirror_row(f_row(pair.mirror(), pair.n + 1 - k), pair.n)
    p = sum(1 for j in pair.J if j > k) + 1
    prefix = pair.I[: p - 1]
    row = prefix + tuple(x for x in range(1, k) if x not in prefix)
    return row, k


def tau_row(pair: AdmissiblePair, k: int):
    """Row and target of the lambda block inside the k-th tau factor."""
    if pair.orientation == MINUS:
        return _mirror_row(tau_row(pair.mirror(), k), pair.n)
    prefix = pair.I[: k - 1]
    jk = pair.J[k - 1]
    row = prefix + tuple(x for x in range(1, jk) if x not in prefix)
    return row, jk


def s_rows(pair: AdmissiblePair):
    """Rows and targets of the S factors, in multiplication order."""
    if pair.orientation == MINUS:
        return tuple(_mirror_row(x, pair.n)
                     for x in reversed(s_rows(pair.mirror())))
    return tuple((pair.I[: k - 1], pair.I[k - 1])
                 for k in range(1, pair.r + 1))


# -- building-block expressions ----------------------------------------------
#
# An F or S factor is its projection symbol at the target minus, for each
# block kind and each row index k, the block times the symbol at z_k
# (twisted for nu): F = Pf(t) - sum rho_k Pf(k),
# S = Ps(t) - sum mu_k Ps(k) - sum nu_k Ps(-q k), and on the minus side
# the same with the tilde blocks and symbols.
_FS_FACTORS = {
    ("F", PLUS): (PF_PLUS, (("rho", False),)),
    ("S", PLUS): (PS_PLUS, (("mu", False), ("nu", True))),
    ("F", MINUS): (PF_MINUS, (("rho", False),)),
    ("S", MINUS): (PS_TILDE_MINUS, (("mu", False), ("nu", True))),
}


def fs_terms(factor: str, orientation: str, args: ArgList, n: int):
    """The F or S factor as its head symbol and the (block, symbol) pairs
    it subtracts, in display order."""
    symbol, kinds = _FS_FACTORS[factor, orientation]
    # looked up per call, so a rebound build_block (a tracer's) is seen
    build = build_block if orientation == PLUS else build_tilde_block
    return abstract(symbol, args.target), [
        (build(kind, args, k, n), abstract(symbol, k, twisted))
        for kind, twisted in kinds for k in args.prefix]


def _fs_expr(factor: str, orientation: str, row_key, target: int, n: int,
             depth: int) -> NCExpr:
    head, terms = fs_terms(factor, orientation, ArgList(row_key, target), n)
    coeffs = {(head,): ExpansionSeries.one(n)}
    for block, sym in terms:
        coeffs[(sym,)] = -block.expand(depth)
    return NCExpr(n, coeffs)


# one cache per factor and side, kept under four names because the
# benchmark harness and the tests read each one's statistics
_FS_CACHES = {key: lru_cache(maxsize=None)(partial(_fs_expr, *key))
              for key in _FS_FACTORS}
_f_expr, _s_expr = _FS_CACHES["F", PLUS], _FS_CACHES["S", PLUS]
_f_tilde_expr, _s_tilde_expr = _FS_CACHES["F", MINUS], _FS_CACHES["S", MINUS]


def clear_caches():
    """Empty the F/S building-block caches and the denominator
    factorisation memo of ``qfield``.

    The caches are unbounded and live for the process; a long-running
    caller that has finished with a size can free them.  Values computed
    afterwards are equal to the cached ones.
    """
    for cache in (*_FS_CACHES.values(), _factor_exponents):
        cache.cache_clear()


def build_fs(factor: str, orientation: str, args: ArgList, n: int,
             depth: int) -> NCExpr:
    """The F or S factor of either side, expanded: on the plus side
    F(row; t) = Pf(t) - sum rho_k Pf(k) and
    S(row; t) = Ps(t) - sum mu_k Ps(k) - sum nu_k Ps(-q k).

    The value is symmetric in the row, so the cache key sorts it.
    """
    args.check()
    return _FS_CACHES[factor, orientation](tuple(sorted(args.prefix)),
                                           args.target, n, depth)


def tau_factored(pair: AdmissiblePair, k: int) -> FactoredRational:
    """The k-th scalar pairing coefficient, in exact factored form.

    On the plus side it is -lambda at i_k times alpha(z_m/z_{i_k}) and
    alpha(q^-1 z_m/z_{i_k}) crossings.  The minus tau is the same
    construction on the mirrored pair, read under the mirror: the tilde
    lambda without the sign, each kernel's arguments swapped and each
    kernel group taken in reverse, so the factors keep their order.
    """
    n = pair.n
    if not 1 <= k <= pair.r:
        raise ValueError("factor index out of range")
    plus = pair.orientation == PLUS
    p = pair if plus else pair.mirror()
    ik, prefix = p.I[k - 1], p.I[: k - 1]
    groups = ([(qnum(1), m) for m in range(1, ik) if m not in prefix],
              [(qpow(1, -1), m) for m in range(1, p.J[k - 1])
               if m not in p.I[:k]])
    args = ArgList(*tau_row(pair, k))
    if plus:
        out = build_block("lambda", args, ik, n).scale(-1)
        for c, m in itertools.chain(*groups):
            out = out * build_kernel("alpha", c, m, ik, n)
        return out
    jk = n + 1 - ik
    out = build_tilde_block("lambda", args, jk, n)
    for c, m in itertools.chain(*map(reversed, groups)):
        out = out * build_kernel("alpha", c, jk, n + 1 - m, n)
    return out


# -- the closed combinatorial formula -----------------------------------------

@dataclass(frozen=True)
class WeightTerm:
    """One summand of the closed formula, kept symbolic.

    ``tau`` holds the exact factored scalar coefficients, ``s_rows`` and
    ``f_rows`` the (row, target) argument lists of the S and F factors,
    each in multiplication order.
    """

    pair: AdmissiblePair
    tau: tuple
    s_rows: tuple
    f_rows: tuple

    def factors(self):
        """("S" or "F", row, target) for every factor in multiplication
        order: S then F on the plus side, F then S on the minus side."""
        s = [("S", row, t) for row, t in self.s_rows]
        f = [("F", row, t) for row, t in self.f_rows]
        return s + f if self.pair.orientation == PLUS else f + s


def weight_structure(n: int, orientation: str):
    """The closed formula as a list of symbolic summands, unexpanded."""
    if n < 1:
        raise ValueError("need at least one current")
    return [WeightTerm(pair,
                       tuple(tau_factored(pair, k) for k in range(1, r + 1)),
                       s_rows(pair),
                       tuple(f_row(pair, k) for k in pair.complement()))
            for r in range(n // 2 + 1)
            for pair in admissible_pairs(n, r, orientation)]


def _weighted_sum(n: int, terms, orientation: str) -> NCExpr:
    """The sum of c * A_1 * ... * A_k over the terms (c, [A_1, ..., A_k]).

    The sum is grouped by Horner's rule over a trie of the factor
    sequences: on the plus side over shared prefixes, a node's value being
    its c's plus A * value(child) for each child edge A; on the minus side
    over shared suffixes, with value(child) * A.  Each edge costs one
    product, and each c enters at its leaf, where it multiplies a single
    factor.  Edges are keyed by identity: every caller passes one object
    per distinct factor.  Each A has words of one length, which keeps the
    per-word validity of the edge products sound.
    """
    plus = orientation == PLUS
    root = ({}, [])  # id(A) -> (A, child), and the c's that end here
    for c, factors in terms:
        node = root
        for a in (factors if plus else reversed(factors)):
            node = node[0].setdefault(id(a), (a, ({}, [])))[1]
        node[1].append(NCExpr(n, {(): c}))

    def value(node) -> NCExpr:
        total = sum(node[1], NCExpr.zero(n))
        for a, child in node[0].values():
            total = total + (a * value(child) if plus else value(child) * a)
        return total

    return value(root)


def _weight_closed(n: int, depth: int, orientation: str) -> WeightExpr:
    """Sum over the summands of ``weight_structure`` of the product of
    their tau coefficients times their F and S factors."""
    terms = ((prod(term.tau, start=FactoredRational(n)).expand(depth),
              [build_fs(factor, orientation, ArgList(row, target), n, depth)
               for factor, row, target in term.factors()])
             for term in weight_structure(n, orientation))
    return WeightExpr(_weighted_sum(n, terms, orientation), orientation)


def weight_plus_closed(n: int, depth: int) -> WeightExpr:
    """Positive projection of f(z_1)...f(z_n) via the pair expansion."""
    return _weight_closed(n, depth, PLUS)


def weight_minus_closed(n: int, depth: int) -> WeightExpr:
    """Negative projection of f(z_1)...f(z_n); F factors first, then the
    reversed row of S factors."""
    return _weight_closed(n, depth, MINUS)


# -- the independent recursive evaluator -------------------------------------

def weight_plus_recursive(n: int, depth: int) -> WeightExpr:
    """Positive projection evaluated by peeling the last current.

    Each step either splits off an F factor for the last variable or
    collapses a pair of currents into a composite one, with the scalar
    coefficient assembled from a lambda block and alpha-kernel crossings.
    Argument rows are carried as explicit index sequences throughout.
    """
    if n < 1:
        raise ValueError("need at least one current")

    memo = {}

    def tau_for(s_row, f_rest, w, t) -> FactoredRational:
        row = s_row + f_rest
        out = build_block("lambda", ArgList(row, t), w, n).scale(-1)
        seen_w = False
        for x in f_rest:
            if x == w:
                seen_w = True
                continue
            if not seen_w:
                out = out * build_kernel("alpha", qnum(1), x, w, n)
            out = out * build_kernel("alpha", qpow(1, -1), x, w, n)
        return out

    def project(s_row, f_row) -> NCExpr:
        key = (s_row, f_row)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if f_row:
            t, rest = f_row[-1], f_row[:-1]
            row = s_row + rest
            out = project(s_row, rest) * build_fs("F", PLUS, ArgList(row, t),
                                                  n, depth)
            for pos, w in enumerate(rest):
                tau = tau_for(s_row, rest, w, t)
                sub = project(s_row + (w,), rest[:pos] + rest[pos + 1:])
                out = out + sub.scale(tau.expand(depth))
        elif s_row:
            out = project(s_row[:-1], ()) * build_fs(
                "S", PLUS, ArgList(s_row[:-1], s_row[-1]), n, depth)
        else:
            out = NCExpr.one(n)
        memo[key] = out
        return out

    return WeightExpr(project((), tuple(range(1, n + 1))), PLUS)


def weight_minus_recursive(n: int, depth: int) -> WeightExpr:
    """Negative projection evaluated by peeling the first current.

    Each step either splits off an F~ factor for the first variable, on
    the left, or collapses a pair of currents into a composite one, with
    the scalar coefficient assembled from a tilde lambda block and
    alpha(c z_w/z_x) kernels.  Argument rows are carried as explicit
    index sequences throughout.
    """
    if n < 1:
        raise ValueError("need at least one current")

    memo = {}

    def tau_for(f_rest, s_row, w, t) -> FactoredRational:
        out = build_tilde_block("lambda", ArgList(f_rest + s_row, t), w, n)
        seen_w = False
        for x in f_rest:
            if x == w:
                seen_w = True
                continue
            if seen_w:
                out = out * build_kernel("alpha", qnum(1), w, x, n)
            out = out * build_kernel("alpha", qpow(1, -1), w, x, n)
        return out

    def project(f_row, s_row) -> NCExpr:
        key = (f_row, s_row)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if f_row:
            t, rest = f_row[0], f_row[1:]
            head = build_fs("F", MINUS, ArgList(rest + s_row, t), n, depth)
            out = head * project(rest, s_row)
            for pos, w in enumerate(rest):
                tau = tau_for(rest, s_row, w, t)
                sub = project(rest[:pos] + rest[pos + 1:], (w,) + s_row)
                out = out + sub.scale(tau.expand(depth))
        elif s_row:
            out = build_fs("S", MINUS, ArgList(s_row[1:], s_row[0]), n,
                           depth) * project((), s_row[1:])
        else:
            out = NCExpr.one(n)
        memo[key] = out
        return out

    return WeightExpr(project(tuple(range(1, n + 1)), ()), MINUS)


# -- mode expansion -----------------------------------------------------------

# Each symbol's mode series is a prefactor times a table with integer
# Laurent coefficients (the twists -q and -q^-1 are integral too), so
# mode_expand scales a word's coefficient by the prefactors once and the
# table products never reduce.  Per kind: the prefactor, the modes m for
# a window, and the (mode indices of the word, coefficient) rows of z^-m.
_SYMBOL_TABLES = {
    # sum_{m>0} f_m z^-m and sum_{m<=0} f_m z^-m
    PF_PLUS: (ONE, lambda w: range(1, w + 1), lambda m: (((m,), qnum(1)),)),
    PF_MINUS: (ONE, lambda w: range(0, -w - 1, -1),
               lambda m: (((m,), qnum(1)),)),
    # -1/(q + q^-2) sum_{m>0} (q f_m f_0 - f_0 f_m + f_1 f_{m-1}
    # - q^-1 f_{m-1} f_1) z^-m; the m = window+1 rows are kept so that
    # every word with both mode indices inside the window is complete
    PS_PLUS: (qnum(-1) / (qpow(1) + qpow(-2)), lambda w: range(1, w + 2),
              lambda m: (((m, 0), qpow(1)), ((0, m), qnum(-1)),
                         ((1, m - 1), qnum(1)), ((m - 1, 1), qpow(-1, -1)))),
    # 1/(1 + q^3) sum_{m<=0} (f_0 f_m - q f_m f_0 + q f_{m-1} f_1
    # - q^2 f_1 f_{m-1}) z^-m
    PS_TILDE_MINUS: (qnum(1) / (qnum(1) + qpow(3)),
                     lambda w: range(0, -w - 1, -1),
                     lambda m: (((0, m), qnum(1)), ((m, 0), qpow(1, -1)),
                                ((m - 1, 1), qpow(1)),
                                ((1, m - 1), qpow(2, -1)))),
}


def _symbol_table(sym, n: int, window: int):
    """(prefactor, integer table) whose product is the symbol's modes;
    the table sums coeff * word * z_var^-m over the rows."""
    if sym.kind not in _SYMBOL_TABLES:
        raise ValueError(f"unknown symbol kind {sym.kind!r}")
    prefactor, modes, rows = _SYMBOL_TABLES[sym.kind]
    twist = TWIST_SCALE.get(sym.kind) if sym.twisted else None
    acc = {}
    for m in modes(window):
        for word, c in rows(m):
            by_exp = acc.setdefault(tuple(ModeSymbol("f", x) for x in word), {})
            c = c if twist is None else c * twist ** (-m)
            by_exp[-m] = by_exp.get(-m, qnum(0)) + c
    return prefactor, NCExpr(n, {
        word: ExpansionSeries(n, {unit_vec(n, sym.var, e): c
                                  for e, c in by_exp.items() if not c.is_zero()})
        for word, by_exp in acc.items()})


def symbol_modes(sym, n: int, window: int) -> NCExpr:
    """Mode expansion of one abstract projection symbol."""
    prefactor, table = _symbol_table(sym, n, window)
    return table.scale(prefactor)


def mode_expand(w: WeightExpr, window: int) -> NCExpr:
    """Replace every abstract symbol by its truncated mode series.

    The result is exact on every word whose mode indices all lie inside
    [-window, window]; a few exact boundary words just outside are kept
    rather than pruned.  Each word's coefficient is scaled by the product
    of its symbols' prefactors before the integer tables multiply in.
    """
    if window < 1:
        raise ValueError("window must be positive")
    n = w.expr.n
    tables = {sym: _symbol_table(sym, n, window) for sym in dict.fromkeys(
        sym for word in w.expr.coeffs for sym in word)}

    def terms():
        for word, coeff in w.expr.coeffs.items():
            prefactor = prod((tables[sym][0] for sym in word), start=ONE)
            if not prefactor.is_one():
                coeff = coeff.scale(prefactor)
            yield coeff, [tables[sym][1] for sym in word]

    return _weighted_sum(n, terms(), w.orientation)


def star_projection(n: int, depth: int, window: int, sign: str) -> NCExpr:
    """Dual projections of e(z_1)...e(z_n) via involution transport.

    sign "-" gives the dual-negative projection (transported from the
    positive weight function), sign "+" the dual-positive one (from the
    negative weight function).  The result is the dual projection at
    inverted arguments,

        P*(e(1/z_1)...e(1/z_n)) = iota(P(f(z_1)...f(z_n))),

    so its coefficients stay in the weight function's domain
    |z_1| >> ... >> |z_n| with that function's validity: the coefficient
    of z^a on a word is the dual projection's coefficient of z^-a.
    """
    if sign == "-":
        base = weight_plus_closed(n, depth)
    elif sign == "+":
        base = weight_minus_closed(n, depth)
    else:
        raise ValueError(f"unknown sign {sign!r}")
    return mode_expand(base, window).iota()
