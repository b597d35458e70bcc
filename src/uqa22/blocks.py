"""Constructors for every scalar rational building block.

The interpolation coefficients (rho, lambda, mu, nu from one table of
factor templates, and their tilde blocks derived from it), the exchange
kernels alpha, beta, gamma with their residue data, and the Cauchy-type
interpolation matrices are built here as FactoredRational values.
Blocks are kept factored and expanded only at the last moment, so the
exact interpolation identities can be tested at the rational level where
they hold literally.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .qfield import ONE, QRat, qnum, qpow
from .series import FactoredRational, unit_vec

MINUS_ONE = qnum(-1)


class ArgList(NamedTuple):
    """Ordered variable row plus the distinguished argument.

    For the plus-side blocks the distinguished variable is the last
    argument; for the tilde blocks it comes first.  Either way ``prefix``
    holds the row and ``target`` the distinguished index.
    """

    prefix: tuple
    target: int

    def check(self):
        if len(set(self.prefix)) != len(self.prefix):
            raise ValueError("repeated index in argument row")
        if self.target in self.prefix:
            raise ValueError("distinguished index repeats the row")
        return self


# -- interpolation blocks ---------------------------------------------------
#
# A block is scalar * (z_k if monomial) * prod (u*z_a + v*z_b)^m over its
# factor templates (u, a, v, b, m), where a and b name t (the
# distinguished variable), k or i (a row index): the lead templates once,
# the cross templates for every row index i != k, then the row templates
# for every row index, in that order.  The scalar (c, e, e_row) is
# c * q^(e + e_row * len(row)).

class _Block(NamedTuple):
    scalar: tuple
    monomial: bool
    lead: tuple
    cross: tuple
    row: tuple


_Q, _Q2, _Q3, _MQ2 = qpow(1), qpow(2), qpow(3), qpow(2, -1)
_CROSS = ((ONE, "t", MINUS_ONE, "i", 1), (ONE, "k", MINUS_ONE, "i", -1))


def _rho_row(c: QRat) -> tuple:
    """The row templates (z_k - c z_i)/(z_t - c z_i); rho has c = q^2."""
    return ((ONE, "k", -c, "i", 1), (ONE, "t", -c, "i", -1))


# the plus-side blocks, each with the scalar of its tilde block
_PLUS = {
    "rho": (_Block((1, 0, 0), False, (), _CROSS, _rho_row(_Q2)), (1, 0, 0)),
    "lambda": (_Block((1, 0, 0), True, ((_Q, "t", ONE, "k", -1),), (), (
        (ONE, "t", MINUS_ONE, "i", 1), (ONE, "k", _Q3, "i", 1),
        (ONE, "k", _Q, "i", -1), (ONE, "t", _MQ2, "i", -1))), (-1, 1, 0)),
    "mu": (_Block((1, 0, 0), False, (), _CROSS, (
        (ONE, "t", _Q, "i", 1), (ONE, "k", _MQ2, "i", 1),
        (ONE, "k", _Q3, "i", 1), (ONE, "k", _Q, "i", -1),
        (ONE, "t", _MQ2, "i", -1), (ONE, "t", _Q3, "i", -1))), (1, 0, 0)),
    # the -q^m prefactor counts the row plus the distinguished variable
    "nu": (_Block((-1, 1, 1), False, (), (
        (ONE, "t", _Q, "i", 1), (ONE, "k", MINUS_ONE, "i", -1)), (
        (ONE, "t", MINUS_ONE, "i", 1), (ONE, "k", _Q, "i", 1),
        (ONE, "k", _MQ2, "i", 1), (_Q, "k", ONE, "i", -1),
        (ONE, "t", _MQ2, "i", -1), (ONE, "t", _Q3, "i", -1))), (-1, 0, 1)),
}


def _tilde(spec: _Block, scalar: tuple) -> _Block:
    """The tilde block: each binomial u z_a + v z_b of the plus block read
    as v z_a + u z_b, which is z -> 1/z up to a monomial, and negated
    when that leaves the z_a coefficient with a negative lead."""
    def flip(templates):
        out = []
        for u, a, v, b, m in templates:
            if v.num.leading_coeff() < 0:
                u, v = -u, -v
            out.append((v, a, u, b, m))
        return tuple(out)

    return _Block(scalar, spec.monomial, flip(spec.lead), flip(spec.cross),
                  flip(spec.row))


# keyed by (kind, tilde); the plus-side distinguished variable comes last,
# the tilde one first
_BLOCKS = {(kind, tilde): _tilde(spec, scalar) if tilde else spec
           for kind, (spec, scalar) in _PLUS.items() for tilde in (False, True)}


def _assemble(spec: _Block, args: ArgList, k: int, n: int) -> FactoredRational:
    row, t = args.prefix, args.target

    def place(templates, i=None):
        at = {"t": t, "k": k, "i": i}
        return [(u, at[a], v, at[b], m) for u, a, v, b, m in templates]

    fs = place(spec.lead)
    for i in row:
        if i != k:
            fs += place(spec.cross, i)
    for i in row:
        fs += place(spec.row, i)
    c, e, e_row = spec.scalar
    mono = unit_vec(n, k) if spec.monomial else None
    return FactoredRational(n, qpow(e + e_row * len(row), c), mono, fs)


def _interpolation_block(kind: str, tilde: bool, args: ArgList, k: int,
                         n: int) -> FactoredRational:
    try:
        spec = _BLOCKS[kind, tilde]
    except KeyError:
        raise ValueError(f"unknown block kind {kind!r}") from None
    args.check()
    if k not in args.prefix:
        raise ValueError(f"index {k} is not in the argument row")
    return _assemble(spec, args, k, n)


def build_block(kind: str, args: ArgList, k: int, n: int) -> FactoredRational:
    """The plus-side block rho, lambda, mu or nu at row index k."""
    return _interpolation_block(kind, False, args, k, n)


def build_tilde_block(kind: str, args: ArgList, k: int, n: int) -> FactoredRational:
    """The tilde block: the plus block with every binomial reversed."""
    return _interpolation_block(kind, True, args, k, n)


# -- exchange kernels -------------------------------------------------------
#
# Each kernel is a ratio of binomials a + b*x, stored as ((a, b), ...)
# pairs for numerator and denominator.

_KERNELS = {
    "alpha": (
        ((qpow(2), MINUS_ONE), (qpow(-1), ONE)),
        ((ONE, qpow(2, -1)), (ONE, qpow(-1))),
    ),
    "beta": (
        ((ONE, MINUS_ONE), (qpow(3), ONE)),
        ((ONE, qpow(2, -1)), (qpow(1), ONE)),
    ),
    "gamma": (
        ((qpow(2), MINUS_ONE), (qpow(3), ONE), (ONE, qpow(1))),
        ((ONE, qpow(2, -1)), (ONE, qpow(3)), (qpow(1), ONE)),
    ),
}


# kernel argument scales and matrix parameters c, by their command-line
# spelling (the order of the ``--scale`` choices)
SCALES = {"1": ONE, "-q": qpow(1, -1), "-q^-1": qpow(-1, -1), "q": _Q,
          "q^2": _Q2, "q^3": _Q3, "-q^3": qpow(3, -1)}


def kernel_value(kind: str, x: QRat) -> QRat:
    """Evaluate a kernel at an explicit element of Q(q)."""
    num_atoms, den_atoms = _KERNELS[kind]
    out = QRat.of(1)
    for a, b in num_atoms:
        out = out * (a + b * x)
    for a, b in den_atoms:
        out = out / (a + b * x)
    return out


def build_kernel(kind: str, num_scale: QRat, i: int, j: int, n: int) -> FactoredRational:
    """The kernel at x = num_scale * z_i / z_j, cleared to binary factors."""
    if i == j:
        raise ValueError("kernel arguments must involve two distinct variables")
    if kind not in _KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    c = QRat.of(num_scale)
    num_atoms, den_atoms = _KERNELS[kind]
    fs = [(b * c, i, a, j, 1) for a, b in num_atoms]
    fs += [(b * c, i, a, j, -1) for a, b in den_atoms]
    return FactoredRational(n, ONE, None, fs)


def kernel_poles(kind: str):
    """The monomials c with a kernel pole at u = c*z, in table order."""
    _, den_atoms = _KERNELS[kind]
    return [MINUS_ONE * b / a for a, b in den_atoms]


def residue_constant(kind: str, pole: QRat) -> QRat:
    """Residue constant A with kernel_c(x) = A/(c - x) at the pole c.

    Extracting the residue of kernel(z/u)/(u - w) at u = c*z amounts to
    cancelling the unique denominator binomial vanishing at x = 1/c; a
    kernel without that pole gets the constant 0.
    """
    num_atoms, den_atoms = _KERNELS[kind]
    c = QRat.of(pole)
    x0 = c.inv()
    hit = None
    rest = []
    for a, b in den_atoms:
        if hit is None and (a + b * x0).is_zero():
            hit = (a, b)
        else:
            rest.append((a, b))
    if hit is None:
        return QRat.of(0)
    value = MINUS_ONE * c * c / hit[1]
    for a, b in num_atoms:
        value = value * (a + b * x0)
    for a, b in rest:
        value = value / (a + b * x0)
    return value


# -- Cauchy-type interpolation matrices -------------------------------------

def build_matrices(c: QRat, n: int):
    """Interpolation data for the row z_1, ..., z_{n-1} against z_n.

    Returns (M, V, W): the (n-1) x (n-1) matrix with entries
    1/(1 - c^-1 z_i/z_j), the row vector with entries
    1/(1 - c^-1 z_n/z_i), and the closed-form solution vector of the
    system V = W M, all as FactoredRational values.
    """
    if n < 2:
        raise ValueError("need at least two variables")
    c = QRat.of(c)
    if c.is_one():
        raise ValueError("matrix parameter c = 1 (--scale) makes the "
                         "diagonal 1/(1 - c^-1) singular")
    mcinv = -c.inv()
    # z_j/(z_j - c^-1 z_i); at i == j this folds to 1/(1 - c^-1)
    m = [[FactoredRational(n, ONE, unit_vec(n, j), [(mcinv, i, ONE, j, -1)])
          for j in range(1, n)] for i in range(1, n)]
    v = [FactoredRational(n, ONE, unit_vec(n, i), [(ONE, i, mcinv, n, -1)])
         for i in range(1, n)]
    # W(c) is the rho block with q^2 replaced by c
    spec = _BLOCKS["rho", False]._replace(row=_rho_row(c))
    row = ArgList(tuple(range(1, n)), n)
    w = [_assemble(spec, row, k, n) for k in row.prefix]
    return m, v, w


# -- exact linear algebra over the rationals --------------------------------

def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination on the square block of
    ``rows`` (E. H. Bareiss, Math. Comp. 22, 1968).

    Each row is scaled to integers by the lcm of its denominators.
    Pivoting on the first nonzero entry of each column, every other row
    becomes (p * row - f * pivot_row) // prev, an exact division by the
    previous pivot, so no gcd is taken.  Return the integer rows, whose
    diagonal entries all equal the last pivot, and the determinant
    sign * pivot / (product of the row scales); a singular block gives 0
    and leaves the reduction unfinished.
    """
    a, scale = [], 1
    for row in rows:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        a.append([x.numerator * (s // x.denominator) for x in row])
    size, sign, prev = len(a), 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return a, Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        prow = a[col]
        p = prow[col]
        for r in range(size):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], prow)]
        prev = p
    return a, Fraction(sign * prev, scale)


def solve_exact(matrix, rhs):
    """Solve A x = b over int or Fraction entries, exactly."""
    a, det = _gauss_jordan([list(row) + [b] for row, b in zip(matrix, rhs)])
    if not det:
        raise ZeroDivisionError("singular matrix")
    return [Fraction(r[-1], r[i]) for i, r in enumerate(a)]


def det_exact(matrix) -> Fraction:
    """Determinant over int or Fraction entries, exact."""
    return _gauss_jordan(matrix)[1]
