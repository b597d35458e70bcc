"""Constructors for every scalar rational building block.

The interpolation coefficients (rho, lambda, mu, nu and their tilde
mirrors, from one table of factor templates), the exchange kernels
alpha, beta, gamma with their residue data, and the Cauchy-type
interpolation matrices are built here as FactoredRational values.  Blocks are kept factored and expanded only at
the last moment, so the exact interpolation identities can be tested at
the rational level where they hold literally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .qfield import ONE, QRat, qnum, qpow
from .series import FactoredRational

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

# keyed by (kind, tilde); the plus-side distinguished variable comes last,
# the tilde one first
_BLOCKS = {
    ("rho", False): _Block((1, 0, 0), False, (), _CROSS, (
        (ONE, "k", _MQ2, "i", 1), (ONE, "t", _MQ2, "i", -1))),
    ("lambda", False): _Block((1, 0, 0), True, ((_Q, "t", ONE, "k", -1),), (), (
        (ONE, "t", MINUS_ONE, "i", 1), (ONE, "k", _Q3, "i", 1),
        (ONE, "k", _Q, "i", -1), (ONE, "t", _MQ2, "i", -1))),
    ("mu", False): _Block((1, 0, 0), False, (), _CROSS, (
        (ONE, "t", _Q, "i", 1), (ONE, "k", _MQ2, "i", 1),
        (ONE, "k", _Q3, "i", 1), (ONE, "k", _Q, "i", -1),
        (ONE, "t", _MQ2, "i", -1), (ONE, "t", _Q3, "i", -1))),
    # the -q^m prefactor counts the row plus the distinguished variable
    ("nu", False): _Block((-1, 1, 1), False, (), (
        (ONE, "t", _Q, "i", 1), (ONE, "k", MINUS_ONE, "i", -1)), (
        (ONE, "t", MINUS_ONE, "i", 1), (ONE, "k", _Q, "i", 1),
        (ONE, "k", _MQ2, "i", 1), (_Q, "k", ONE, "i", -1),
        (ONE, "t", _MQ2, "i", -1), (ONE, "t", _Q3, "i", -1))),
    ("rho", True): _Block((1, 0, 0), False, (), _CROSS, (
        (_Q2, "k", MINUS_ONE, "i", 1), (_Q2, "t", MINUS_ONE, "i", -1))),
    ("lambda", True): _Block((-1, 1, 0), True, ((ONE, "t", _Q, "k", -1),), (), (
        (ONE, "t", MINUS_ONE, "i", 1), (_Q3, "k", ONE, "i", 1),
        (_Q, "k", ONE, "i", -1), (_Q2, "t", MINUS_ONE, "i", -1))),
    ("mu", True): _Block((1, 0, 0), False, (), _CROSS, (
        (_Q, "t", ONE, "i", 1), (_Q2, "k", MINUS_ONE, "i", 1),
        (_Q3, "k", ONE, "i", 1), (_Q, "k", ONE, "i", -1),
        (_Q2, "t", MINUS_ONE, "i", -1), (_Q3, "t", ONE, "i", -1))),
    ("nu", True): _Block((-1, 0, 1), False, (), (
        (_Q, "t", ONE, "i", 1), (ONE, "k", MINUS_ONE, "i", -1)), (
        (ONE, "t", MINUS_ONE, "i", 1), (_Q, "k", ONE, "i", 1),
        (_Q2, "k", MINUS_ONE, "i", 1), (ONE, "k", _Q, "i", -1),
        (_Q2, "t", MINUS_ONE, "i", -1), (_Q3, "t", ONE, "i", -1))),
}


def _interpolation_block(kind: str, tilde: bool, args: ArgList, k: int,
                         n: int) -> FactoredRational:
    try:
        spec = _BLOCKS[kind, tilde]
    except KeyError:
        raise ValueError(f"unknown block kind {kind!r}") from None
    args.check()
    if k not in args.prefix:
        raise ValueError(f"index {k} is not in the argument row")
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
    mono = None
    if spec.monomial:
        mono = [0] * n
        mono[k - 1] = 1
    return FactoredRational(n, qpow(e + e_row * len(row), c), mono, fs)


def build_block(kind: str, args: ArgList, k: int, n: int) -> FactoredRational:
    """The plus-side block rho, lambda, mu or nu at row index k."""
    return _interpolation_block(kind, False, args, k, n)


def build_tilde_block(kind: str, args: ArgList, k: int, n: int) -> FactoredRational:
    """The tilde mirror of ``build_block``."""
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
    cinv = c.inv()
    m = []
    for i in range(1, n):
        row = []
        for j in range(1, n):
            # z_j/(z_j - c^-1 z_i); at i == j this folds to 1/(1 - c^-1)
            mono = [0] * n
            mono[j - 1] = 1
            row.append(FactoredRational(
                n, ONE, mono, [(MINUS_ONE * cinv, i, ONE, j, -1)]))
        m.append(row)
    v = []
    for i in range(1, n):
        mono = [0] * n
        mono[i - 1] = 1
        v.append(FactoredRational(
            n, ONE, mono, [(ONE, i, MINUS_ONE * cinv, n, -1)]))
    w = []
    for k in range(1, n):
        fs = []
        for i in range(1, n):
            if i != k:
                fs.append((ONE, n, MINUS_ONE, i, 1))
                fs.append((ONE, k, MINUS_ONE, i, -1))
        for i in range(1, n):
            fs.append((ONE, k, MINUS_ONE * c, i, 1))
            fs.append((ONE, n, MINUS_ONE * c, i, -1))
        w.append(FactoredRational(n, ONE, None, fs))
    return m, v, w


# -- exact linear algebra over the rationals --------------------------------

def solve_exact(matrix, rhs):
    """Solve A x = b over Fraction entries by exact Gaussian elimination."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][size] for r in range(size)]


def det_exact(matrix) -> Fraction:
    """Determinant over Fraction entries, exact."""
    size = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det
