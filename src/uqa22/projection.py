"""Weight functions as projections of current products.

This is the heart of the engine: admissible-pair combinatorics, the F/S
building-block expressions, the closed combinatorial formula for the
positive and negative projections of f(z_1)...f(z_n), an independent
recursive evaluator that peels one current at a time, and the expansion
of the abstract building blocks into current modes.

The closed evaluator and the recursive evaluator share only the scalar
block constructors and the F/S expressions built from them; their
agreement is the central correctness check.  The closed formula of
either side is built from ``weight_structure``, the summand list that
the LaTeX emitters and the structure goldens also read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

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
from .qfield import ONE, QRat, _factor_exponents, qnum, qpow
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


def admissible_pairs(n: int, r: int, orientation: str):
    """Complete, duplicate-free enumeration of admissible pairs."""
    if not 0 <= r <= n // 2:
        raise ValueError(f"cardinality {r} out of range for n={n}")
    if r == 0:
        return [AdmissiblePair((), (), orientation, n)]
    out = []
    indices = range(1, n + 1)
    if orientation == PLUS:
        js = sorted((tuple(sorted(c, reverse=True))
                     for c in itertools.combinations(indices, r)), reverse=True)
        for J in js:
            rest = [x for x in indices if x not in J]
            for I in itertools.permutations(rest, r):
                if all(i < j for i, j in zip(I, J)):
                    out.append(AdmissiblePair(I, J, PLUS, n))
    elif orientation == MINUS:
        for I in itertools.combinations(indices, r):
            rest = [x for x in indices if x not in I]
            for J in itertools.permutations(rest, r):
                if all(i < j for i, j in zip(I, J)):
                    out.append(AdmissiblePair(I, J, MINUS, n))
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return out


@dataclass(frozen=True)
class WeightExpr:
    """A weight-function value: abstract-symbol expression plus context."""

    expr: NCExpr
    n: int
    depth: int
    orientation: str

    def equal_up_to(self, other: "WeightExpr", bound) -> bool:
        return self.expr.equal_up_to(other.expr, bound)


# -- argument-row combinatorics ---------------------------------------------

def plus_f_row(pair: AdmissiblePair, k: int):
    """Row and target of the k-th F factor, with pushed-in paired indices."""
    if k in pair.I or k in pair.J:
        raise ValueError(f"index {k} is paired")
    p = sum(1 for j in pair.J if j > k) + 1
    prefix = pair.I[: p - 1]
    row = prefix + tuple(x for x in range(1, k) if x not in prefix)
    return row, k


def plus_tau_row(pair: AdmissiblePair, k: int):
    """Row and target of the lambda block inside the k-th tau factor."""
    prefix = pair.I[: k - 1]
    jk = pair.J[k - 1]
    row = prefix + tuple(x for x in range(1, jk) if x not in prefix)
    return row, jk


def minus_f_row(pair: AdmissiblePair, k: int):
    if k in pair.I or k in pair.J:
        raise ValueError(f"index {k} is paired")
    p = sum(1 for i in pair.I if i < k) + 1
    pushed = pair.J[: p - 1]
    row = tuple(x for x in range(k + 1, pair.n + 1) if x not in pushed)
    return row + tuple(reversed(pushed)), k


def minus_tau_row(pair: AdmissiblePair, k: int):
    pushed = pair.J[: k - 1]
    ik = pair.I[k - 1]
    row = tuple(x for x in range(ik + 1, pair.n + 1) if x not in pushed)
    return row + tuple(reversed(pushed)), ik


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
             depth: int) -> WeightExpr:
    """The F or S factor of either side, expanded.

    The value is symmetric in the row, so the cache key sorts it.
    """
    args.check()
    expr = _FS_CACHES[factor, orientation](tuple(sorted(args.prefix)),
                                           args.target, n, depth)
    return WeightExpr(expr, n, depth, orientation)


def build_F(args: ArgList, n: int, depth: int) -> WeightExpr:
    """F(row; target) = Pf(target) - sum_k rho_k * Pf(k), expanded."""
    return build_fs("F", PLUS, args, n, depth)


def build_S(args: ArgList, n: int, depth: int) -> WeightExpr:
    """S(row; target) = Ps(target) - sum mu_k Ps(k) - sum nu_k Ps(-q k)."""
    return build_fs("S", PLUS, args, n, depth)


def build_F_tilde(args: ArgList, n: int, depth: int) -> WeightExpr:
    return build_fs("F", MINUS, args, n, depth)


def build_S_tilde(args: ArgList, n: int, depth: int) -> WeightExpr:
    return build_fs("S", MINUS, args, n, depth)


def tau_factored(pair: AdmissiblePair, k: int) -> FactoredRational:
    """The k-th scalar pairing coefficient, in exact factored form."""
    n = pair.n
    if not 1 <= k <= pair.r:
        raise ValueError("factor index out of range")
    if pair.orientation == PLUS:
        row, target = plus_tau_row(pair, k)
        ik = pair.I[k - 1]
        out = build_block("lambda", ArgList(row, target), ik, n).scale(-1)
        skip_first = set(pair.I[: k - 1])
        skip_second = set(pair.I[:k])
        for m in range(1, ik):
            if m not in skip_first:
                out = out * build_kernel("alpha", qnum(1), m, ik, n)
        for m in range(1, pair.J[k - 1]):
            if m not in skip_second:
                out = out * build_kernel("alpha", qpow(1, -1), m, ik, n)
        return out
    row, target = minus_tau_row(pair, k)
    jk = pair.J[k - 1]
    out = build_tilde_block("lambda", ArgList(row, target), jk, n)
    skip_first = set(pair.J[: k - 1])
    skip_second = set(pair.J[:k])
    for m in range(jk + 1, n + 1):
        if m not in skip_first:
            out = out * build_kernel("alpha", qnum(1), jk, m, n)
    for m in range(pair.I[k - 1] + 1, n + 1):
        if m not in skip_second:
            out = out * build_kernel("alpha", qpow(1, -1), jk, m, n)
    return out


def build_tau_IJ(pair: AdmissiblePair, k: int, depth: int) -> ExpansionSeries:
    return tau_factored(pair, k).expand(depth)


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
    out = []
    for r in range(n // 2 + 1):
        for pair in admissible_pairs(n, r, orientation):
            tau = tuple(tau_factored(pair, k) for k in range(1, r + 1))
            if orientation == PLUS:
                s_rows = tuple((pair.I[: k - 1], pair.I[k - 1])
                               for k in range(1, r + 1))
                f_rows = tuple(plus_f_row(pair, k) for k in pair.complement())
            else:
                s_rows = tuple((tuple(reversed(pair.J[: k - 1])), pair.J[k - 1])
                               for k in range(r, 0, -1))
                f_rows = tuple(minus_f_row(pair, k) for k in pair.complement())
            out.append(WeightTerm(pair, tau, s_rows, f_rows))
    return out


def _weight_closed(n: int, depth: int, orientation: str) -> WeightExpr:
    """Sum over the summands of ``weight_structure`` of the product of
    their tau coefficients times their F and S factors."""
    total = NCExpr.zero(n)
    for term in weight_structure(n, orientation):
        tau = FactoredRational.one(n)
        for fr in term.tau:
            tau = tau * fr
        expr = NCExpr.one(n)
        for factor, row, target in term.factors():
            expr = expr * build_fs(factor, orientation, ArgList(row, target),
                                   n, depth).expr
        total = total + expr.scale(tau.expand(depth))
    return WeightExpr(total, n, depth, orientation)


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
            out = project(s_row, rest) * build_F(ArgList(row, t), n, depth).expr
            for pos, w in enumerate(rest):
                tau = tau_for(s_row, rest, w, t)
                sub = project(s_row + (w,), rest[:pos] + rest[pos + 1:])
                out = out + sub.scale(tau.expand(depth))
        elif s_row:
            out = project(s_row[:-1], ()) * build_S(
                ArgList(s_row[:-1], s_row[-1]), n, depth).expr
        else:
            out = NCExpr.one(n)
        memo[key] = out
        return out

    return WeightExpr(project((), tuple(range(1, n + 1))), n, depth, PLUS)


# -- mode expansion -----------------------------------------------------------

def _f(idx: int) -> ModeSymbol:
    return ModeSymbol("f", idx)


def _mode_table(entries, i, n, twist):
    """Assemble sum_m coeff * word * z_i^-m from (m, word, coeff) rows."""
    acc = {}
    for m, word, coeff in entries:
        c = coeff if twist is None else coeff * twist ** (-m)
        acc.setdefault(word, {}).setdefault(-m, QRat.of(0))
        acc[word][-m] = acc[word][-m] + c
    coeffs = {}
    for word, by_exp in acc.items():
        terms = {unit_vec(n, i, e): c for e, c in by_exp.items() if not c.is_zero()}
        coeffs[word] = ExpansionSeries(n, terms)
    return NCExpr(n, coeffs)


# Each symbol's mode series is a prefactor times a table whose
# coefficients are integer Laurent polynomials in q (the twists -q and
# -q^-1 are integral too).  mode_expand multiplies a word's coefficient
# by its symbols' prefactors once, so the table products never reduce.
_PS_PLUS_PREFACTOR = qnum(-1) / (qpow(1) + qpow(-2))
_PS_TILDE_MINUS_PREFACTOR = qnum(1) / (qnum(1) + qpow(3))


def _pf_plus_table(i: int, n: int, window: int) -> NCExpr:
    rows = [(m, (_f(m),), qnum(1)) for m in range(1, window + 1)]
    return _mode_table(rows, i, n, None)


def _pf_minus_table(i: int, n: int, window: int) -> NCExpr:
    rows = [(m, (_f(m),), qnum(1)) for m in range(0, -window - 1, -1)]
    return _mode_table(rows, i, n, None)


def _ps_plus_table(i: int, n: int, window: int, twisted: bool) -> NCExpr:
    # -1/(q + q^-2) * sum_{m>0} (q f_m f_0 - f_0 f_m + f_1 f_{m-1}
    #                            - q^-1 f_{m-1} f_1) z^-m
    # the m = window+1 row is kept so that every word with both mode
    # indices inside the window is complete
    rows = []
    for m in range(1, window + 2):
        rows.append((m, (_f(m), _f(0)), qpow(1)))
        rows.append((m, (_f(0), _f(m)), qnum(-1)))
        rows.append((m, (_f(1), _f(m - 1)), qnum(1)))
        rows.append((m, (_f(m - 1), _f(1)), qpow(-1, -1)))
    twist = TWIST_SCALE[PS_PLUS] if twisted else None
    return _mode_table(rows, i, n, twist)


def _ps_tilde_minus_table(i: int, n: int, window: int, twisted: bool) -> NCExpr:
    # 1/(1 + q^3) * sum_{m<=0} (f_0 f_m - q f_m f_0 + q f_{m-1} f_1
    #                           - q^2 f_1 f_{m-1}) z^-m
    rows = []
    for m in range(0, -window - 1, -1):
        rows.append((m, (_f(0), _f(m)), qnum(1)))
        rows.append((m, (_f(m), _f(0)), qpow(1, -1)))
        rows.append((m, (_f(m - 1), _f(1)), qpow(1)))
        rows.append((m, (_f(1), _f(m - 1)), qpow(2, -1)))
    twist = TWIST_SCALE[PS_TILDE_MINUS] if twisted else None
    return _mode_table(rows, i, n, twist)


def _ps_plus_modes(i: int, n: int, window: int, twisted: bool) -> NCExpr:
    return _ps_plus_table(i, n, window, twisted).scale(_PS_PLUS_PREFACTOR)


def _symbol_table(sym, n: int, window: int):
    """(prefactor, integer table) whose product is the symbol's modes."""
    if sym.kind == PF_PLUS:
        return ONE, _pf_plus_table(sym.var, n, window)
    if sym.kind == PF_MINUS:
        return ONE, _pf_minus_table(sym.var, n, window)
    if sym.kind == PS_PLUS:
        return _PS_PLUS_PREFACTOR, _ps_plus_table(sym.var, n, window, sym.twisted)
    if sym.kind == PS_TILDE_MINUS:
        return (_PS_TILDE_MINUS_PREFACTOR,
                _ps_tilde_minus_table(sym.var, n, window, sym.twisted))
    raise ValueError(f"unknown symbol kind {sym.kind!r}")


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
    n = w.n
    total = NCExpr.zero(n)
    cache = {}
    for word, coeff in w.expr.coeffs.items():
        prefactor = ONE
        tables = []
        for sym in word:
            entry = cache.get(sym)
            if entry is None:
                entry = cache[sym] = _symbol_table(sym, n, window)
            prefactor = prefactor * entry[0]
            tables.append(entry[1])
        if not prefactor.is_one():
            coeff = coeff.scale(prefactor)
        term = NCExpr(n, {(): coeff})
        for table in tables:
            term = term * table
        total = total + term
    return total


def star_projection(n: int, depth: int, window: int, sign: str) -> NCExpr:
    """Dual projections of e(z_1)...e(z_n) via involution transport.

    sign "-" gives the dual-negative projection (transported from the
    positive weight function), sign "+" the dual-positive one (from the
    negative weight function).  Coefficients come out in the inverted
    variables, so the returned expression carries lower-bounded validity.
    """
    if sign == "-":
        base = weight_plus_closed(n, depth)
    elif sign == "+":
        base = weight_minus_closed(n, depth)
    else:
        raise ValueError(f"unknown sign {sign!r}")
    return mode_expand(base, window).iota(invert_vars=True)
