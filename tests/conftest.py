"""Shared helpers: random exact scalars, reference degree and leading-term
readers of a factored rational, the term-by-term factor series, and an
independent expansion oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from uqa22.qfield import QRat, qnum, qpow
from uqa22.series import INF, ExpansionSeries, ratio_degree, unit_vec


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


def factor_terms(n: int, u, i: int, v, j: int, m: int, tmax: int) -> dict:
    """{exponent vector: QRat} of the terms t = 0..tmax of
    (u*z_i + v*z_j)^m in |z_i| >> |z_j|, built one ``QRat`` product per
    term: u^(m-t) v^t C(m, t) for m > 0 (where tmax must be m), and
    u^m (v/u)^t C(|m|-1+t, t) (-1)^t for m < 0."""
    terms = {}
    ratio, acc = v / u, u ** m
    for t in range(tmax + 1):
        vec = [0] * n
        vec[i - 1] += m - t
        vec[j - 1] += t
        if m > 0:
            terms[tuple(vec)] = u ** (m - t) * v ** t * comb(m, t)
        else:
            terms[tuple(vec)] = acc * (comb(-m - 1 + t, t) * (-1) ** t)
            acc = acc * ratio
    return terms


def reference_factor_series(n: int, u, i: int, v, j: int, m: int,
                            depth: int) -> ExpansionSeries:
    """Reference ``FactoredRational._factor_series``: the terms of
    ``factor_terms`` (tmax = depth // (j-i) for m < 0) through the
    ``ExpansionSeries`` constructor, exact for m > 0 and valid to
    d(m*e_i) + depth for m < 0."""
    if m > 0:
        return ExpansionSeries(n, factor_terms(n, u, i, v, j, m, m), INF)
    return ExpansionSeries(n, factor_terms(n, u, i, v, j, m, depth // (j - i)),
                           ratio_degree(unit_vec(n, i, m)) + depth)


def brute_expand(fr, rel_depth: int):
    """Naive expansion oracle: explicit geometric series and plain dict
    convolution, with no validity bookkeeping.  Correct for every
    exponent vector whose ratio degree sits at most rel_depth above the
    leading monomial."""
    terms = {tuple(fr.monomial): fr.scalar}
    for u, i, v, j, m in fr.factors:
        fac = factor_terms(fr.n, u, i, v, j, m, m if m > 0 else rel_depth)
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
