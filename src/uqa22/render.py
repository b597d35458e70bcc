"""Text and LaTeX emitters.

The LaTeX side mirrors the notation the formulas are usually displayed
in: blocks come out as ratios of binomials in z_j/z_i and weight
functions as sums of tau * S-product * F-product terms.
"""

from __future__ import annotations

from .blocks import ArgList
from .ncalg import TWIST_SCALE, AbstractSymbol
from .projection import PLUS, fs_terms, weight_structure
from .qfield import QPoly, QRat, qnum
from .series import FactoredRational


def latex_qpoly(p: QPoly) -> str:
    # display order is highest power first, unlike the canonical text form
    if p.is_zero():
        return "0"
    bits = []
    for e, c in reversed(list(p.terms())):
        if e == 0:
            t = _frac_str(c)
        else:
            qe = "q" if e == 1 else f"q^{{{e}}}"
            if c == 1:
                t = qe
            elif c == -1:
                t = f"-{qe}"
            else:
                t = f"{_frac_str(c)}{qe}"
        bits.append(t)
    out = bits[0]
    for t in bits[1:]:
        out += t if t.startswith("-") else f"+{t}"
    return out


def _frac_str(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"


def latex_qrat(x: QRat, wrap_sum: bool = False) -> str:
    num = latex_qpoly(x.num)
    if x.den.is_one():
        if wrap_sum and len(x.num.coeffs) > 1:
            return f"\\left({num}\\right)"
        return num
    return f"\\frac{{{num}}}{{{latex_qpoly(x.den)}}}"


def _latex_atom(u: QRat, i: int, v: QRat, j: int) -> str:
    """One binomial in ratio form, u + v * z_j/z_i."""
    left, right = latex_qrat(u), latex_qrat(v)
    if right == "1":
        right = ""
    elif right == "-1":
        right = "-"
    ratio = f"z_{{{j}}}/z_{{{i}}}"
    sep = "" if right.startswith("-") else "+"
    return f"{left}{sep}{right}{ratio}"


def latex_ratio(fr: FactoredRational) -> str:
    """Ratio-form display of a factored rational function."""
    if fr.is_zero():
        return "0"
    scalar = fr.scalar
    mono = list(fr.monomial)
    num_atoms, den_atoms = [], []
    for u, i, v, j, m in fr.factors:
        # pull z_i^m out of the binomial so the atom is a pure ratio
        mono[i - 1] += m
        lead = u.as_monomial()
        if lead is not None and lead[1] < 0:
            u, v = -u, -v
            scalar = scalar * qnum(-1) ** m
        atom = _latex_atom(u, i, v, j)
        if m > 0:
            num_atoms += [f"({atom})"] * m
        else:
            den_atoms += [f"({atom})"] * (-m)
    for i, e in enumerate(mono):
        if e > 0:
            num_atoms.insert(0, f"z_{{{i+1}}}" + (f"^{{{e}}}" if e > 1 else ""))
        elif e < 0:
            den_atoms.insert(0, f"z_{{{i+1}}}" + (f"^{{{-e}}}" if e < -1 else ""))
    num = "".join(num_atoms) or "1"
    den = "".join(den_atoms)
    sign = ""
    if scalar == qnum(-1):
        sign, scalar = "-", qnum(1)
    pref = "" if scalar.is_one() else latex_qrat(scalar, wrap_sum=True)
    if den:
        return f"{sign}{pref}\\frac{{{num}}}{{{den}}}"
    body = num if num != "1" or not pref else ""
    return f"{sign}{pref}{body}" or "1"


# the projection and the current name of each abstract symbol kind
_LATEX_SYMBOLS = {"f+": ("P", "f"), "s+": ("P", "s"), "f-": ("P^-", "f"),
                  "s~-": ("P^-", "\\tilde s")}


def latex_symbol(sym) -> str:
    if not isinstance(sym, AbstractSymbol) or sym.kind not in _LATEX_SYMBOLS:
        raise ValueError(f"cannot render {sym!r}")
    proj, name = _LATEX_SYMBOLS[sym.kind]
    arg = f"z_{{{sym.var}}}"
    if sym.twisted:
        arg = latex_qrat(TWIST_SCALE[sym.kind]) + arg
    return f"{proj}\\big({name}({arg})\\big)"


def _latex_block_sum(factor: str, row, target, n, orientation) -> str:
    """F or S factor written out as its defining combination."""
    head, terms = fs_terms(factor, orientation, ArgList(tuple(row), target), n)
    return latex_symbol(head) + "".join(
        f"-{latex_ratio(block)}{latex_symbol(sym)}" for block, sym in terms)


def _latex_lhs(n: int, orientation: str) -> str:
    proj = "P" if orientation == PLUS else "P^-"
    currents = "".join(f"f(z_{{{k}}})" for k in range(1, n + 1))
    return f"{proj}\\big({currents}\\big) = "


def latex_weight(n: int, orientation: str) -> str:
    """The closed formula with every block written out, unexpanded."""
    terms = []
    for term in weight_structure(n, orientation):
        bits = [latex_ratio(fr) for fr in term.tau]
        bits += [f"\\left({_latex_block_sum(*f, n, orientation)}\\right)"
                 for f in term.factors()]
        terms.append("\\,".join(bits) if bits else "1")
    return _latex_lhs(n, orientation) + " + ".join(terms)


def latex_weight_summary(n: int, orientation: str) -> str:
    """The closed formula in compact notation: decorated tau symbols and
    F/S factors shown with their argument rows."""
    plus = orientation == PLUS
    names = ({"S": "\\mathcal{S}", "F": "\\mathcal{F}"} if plus else
             {"S": "\\tilde{\\mathcal{S}}", "F": "\\tilde{\\mathcal{F}}"})

    def args(row, target):
        inner = ",".join(f"z_{{{x}}}" for x in row)
        if not inner:
            return f"(z_{{{target}}})"
        if plus:
            return f"({inner};z_{{{target}}})"
        return f"(z_{{{target}}};{inner})"

    terms = []
    for term in weight_structure(n, orientation):
        pair = term.pair
        deco = ("_{\\{%s\\},\\{%s\\}}"
                % (",".join(map(str, pair.I)), ",".join(map(str, pair.J))))
        head = "\\tau" if plus else "\\tilde\\tau"
        bits = [f"{head}^{{{k}}}{deco}" for k in range(1, pair.r + 1)]
        bits += [f"{names[f]}{args(row, t)}" for f, row, t in term.factors()]
        terms.append("\\,".join(bits) if bits else "1")
    return _latex_lhs(n, orientation) + " + ".join(terms)

