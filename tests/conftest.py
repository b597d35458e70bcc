"""Shared helpers: random exact scalars, reference degree and leading-term
readers of a factored rational, and an independent expansion oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from uqa22.qfield import QRat, qnum, qpow
from uqa22.series import ExpansionSeries


def rational_stream(seed: int):
    """Small nonzero rationals with numerator/denominator up to 7 bits."""
    rng = random.Random(seed)
    while True:
        yield Fraction(rng.randint(1, 127), rng.randint(1, 127)) \
            * rng.choice([1, -1])


def random_monomial(rng: random.Random) -> QRat:
    return qpow(rng.randint(-3, 3), Fraction(rng.choice([1, -1]) * rng.randint(1, 3)))


def substitute_scale(series, i: int, c) -> ExpansionSeries:
    """Reference substitution z_i -> c*z_i for a nonzero monomial c in q
    (times +-1), coefficient by coefficient on the decoded terms."""
    c = qnum(c)
    if c.is_zero():
        raise ValueError("substitution scale must be nonzero")
    if c.as_monomial() is None:
        raise ValueError("substitution scale must be a monomial in q")
    return ExpansionSeries(
        series.n, {a: s * c ** a[i - 1] for a, s in series.terms.items()},
        series.validity)


def total_degree(fr) -> int:
    """Homogeneity degree in the z variables of a ``FactoredRational``."""
    return sum(fr.monomial) + sum(m for *_, m in fr.factors)


def leading(fr):
    """(coefficient, exponent vector) of the dominant monomial of a
    ``FactoredRational`` in |z_1| >> ... >> |z_n|."""
    mono = list(fr.monomial)
    coeff = fr.scalar
    for u, i, _v, _j, m in fr.factors:
        mono[i - 1] += m
        coeff = coeff * u ** m
    return coeff, tuple(mono)


def brute_expand(fr, rel_depth: int):
    """Naive expansion oracle: explicit geometric series and plain dict
    convolution, with no validity bookkeeping.  Correct for every
    exponent vector whose ratio degree sits at most rel_depth above the
    leading monomial."""
    n = fr.n
    terms = {tuple(fr.monomial): fr.scalar}
    for u, i, v, j, m in fr.factors:
        fac = {}
        if m > 0:
            from math import comb
            for t in range(m + 1):
                vec = [0] * n
                vec[i - 1] += m - t
                vec[j - 1] += t
                fac[tuple(vec)] = u ** (m - t) * v ** t * comb(m, t)
        else:
            from math import comb
            mm = -m
            for t in range(rel_depth + 1):
                vec = [0] * n
                vec[i - 1] = m - t
                vec[j - 1] = t
                fac[tuple(vec)] = (u ** m * (v / u) ** t
                                   * comb(mm - 1 + t, t) * (-1) ** t)
        merged = {}
        for a, ca in terms.items():
            for b, cb in fac.items():
                key = tuple(x + y for x, y in zip(a, b))
                c = ca * cb
                if key in merged:
                    merged[key] = merged[key] + c
                else:
                    merged[key] = c
        terms = {k: c for k, c in merged.items() if not c.is_zero()}
    return terms


@pytest.fixture
def rng():
    return random.Random(20240817)
