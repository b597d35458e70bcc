"""Scalar building blocks: interpolation coefficients, kernels, matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_stream, total_degree
from uqa22 import blocks
from uqa22.blocks import (
    ArgList,
    build_block,
    build_kernel,
    build_matrices,
    build_tilde_block,
    det_exact,
    kernel_poles,
    kernel_value,
    residue_constant,
    solve_exact,
)
from uqa22.qfield import qnum, qpow
from uqa22.series import FactoredRational

q = qpow(1)


def frac_eval(fr, q0, zs):
    return fr.eval_exact(q0, zs)


# -- direct transcriptions of the displayed tilde formulas, used as the
#    evaluation oracle for the constructors ---------------------------------

def rho_tilde_ref(q0, z, row, k, t):
    out = Fraction(1)
    for i in row:
        if i != k:
            out *= (z[t] - z[i]) / (z[k] - z[i])
    for i in row:
        out *= (q0 ** 2 * z[k] - z[i]) / (q0 ** 2 * z[t] - z[i])
    return out


def lam_tilde_ref(q0, z, row, k, t):
    out = -q0 * z[k] / (z[t] + q0 * z[k])
    for i in row:
        out *= (z[t] - z[i]) * (q0 ** 3 * z[k] + z[i])
        out /= (q0 * z[k] + z[i]) * (q0 ** 2 * z[t] - z[i])
    return out


def mu_tilde_ref(q0, z, row, k, t):
    out = Fraction(1)
    for i in row:
        if i != k:
            out *= (z[t] - z[i]) / (z[k] - z[i])
    for i in row:
        out *= (q0 * z[t] + z[i]) * (q0 ** 2 * z[k] - z[i]) \
            * (q0 ** 3 * z[k] + z[i])
        out /= (q0 * z[k] + z[i]) * (q0 ** 2 * z[t] - z[i]) \
            * (q0 ** 3 * z[t] + z[i])
    return out


def nu_tilde_ref(q0, z, row, k, t):
    out = -q0 ** len(row)
    for i in row:
        if i != k:
            out *= (q0 * z[t] + z[i]) / (z[k] - z[i])
    for i in row:
        out *= (z[t] - z[i]) * (q0 * z[k] + z[i]) * (q0 ** 2 * z[k] - z[i])
        out /= (z[k] + q0 * z[i]) * (q0 ** 2 * z[t] - z[i]) \
            * (q0 ** 3 * z[t] + z[i])
    return out


_TILDE_REFS = {"rho": rho_tilde_ref, "lambda": lam_tilde_ref,
               "mu": mu_tilde_ref, "nu": nu_tilde_ref}


def test_block_requires_k_in_row():
    with pytest.raises(ValueError, match="not in the argument row"):
        build_block("rho", ArgList((1, 2), 3), 3, 3)


def test_rho_two_variable_form():
    # z1(1-q^2)/(z2 - q^2 z1), i.e. (q^2-1)/(q^2 - z2/z1)
    fr = build_block("rho", ArgList((1,), 2), 1, 2)
    assert fr.scalar == 1 - q ** 2
    assert fr.monomial == (1, 0)
    assert fr.factors == ((-q ** 2, 1, qnum(1), 2, -1),)


def test_mu_nu_two_variable_values():
    vals = rational_stream(11)
    for _ in range(5):
        q0, z1, z2 = next(vals), next(vals), next(vals)
        try:
            mu = build_block("mu", ArgList((1,), 2), 1, 2) \
                .eval_exact(q0, [z1, z2])
            want = (q0 - 1) * (q0 ** 3 + 1) * (q0 + z2 / z1) \
                / ((q0 ** 2 - z2 / z1) * (q0 ** 3 + z2 / z1))
            assert mu == want
            nu = build_block("nu", ArgList((1,), 2), 1, 2) \
                .eval_exact(q0, [z1, z2])
            want = q0 ** 2 * (q0 ** 2 - 1) * (1 - z2 / z1) \
                / ((q0 ** 2 - z2 / z1) * (q0 ** 3 + z2 / z1))
            assert nu == want
        except ZeroDivisionError:
            continue


@pytest.mark.parametrize("kind", ["rho", "lambda", "mu", "nu"])
def test_tilde_blocks_match_displayed_formulas(kind):
    vals = rational_stream(23)
    row, t, n = (2, 3, 4), 1, 4
    ref = _TILDE_REFS[kind]
    done = 0
    while done < 5:
        q0 = next(vals)
        z = {i: next(vals) for i in (1, 2, 3, 4)}
        for k in row:
            fr = build_tilde_block(kind, ArgList(row, t), k, n)
            try:
                got = fr.eval_exact(q0, [z[1], z[2], z[3], z[4]])
            except ZeroDivisionError:
                break
            assert got == ref(q0, z, row, k, t), (kind, k)
        else:
            done += 1


def test_lambda_tilde_pole_location():
    # the only pole in the distinguished variable sits at z_t = -q z_k
    fr = build_tilde_block("lambda", ArgList((2,), 1), 2, 2)
    neg = [f for f in fr.factors if f[4] < 0]
    assert ((qnum(1), 1, q, 2, -1)) in neg
    vals = rational_stream(5)
    q0, z2 = next(vals), next(vals)
    with pytest.raises(ZeroDivisionError):
        fr.eval_exact(q0, [-q0 * z2, z2])


@pytest.mark.parametrize("kind", ["rho", "lambda", "mu", "nu"])
def test_tilde_blocks_are_degree_zero(kind):
    fr = build_tilde_block(kind, ArgList((2, 3), 1), 2, 3)
    assert total_degree(fr) == 0


@pytest.mark.parametrize("kind", ["rho", "lambda", "mu", "nu"])
@pytest.mark.parametrize("tilde", [False, True])
def test_block_expansion_reconstructs_numerator(kind, tilde):
    build = build_tilde_block if tilde else build_block
    fr = build(kind, ArgList((1, 2), 3) if not tilde else ArgList((2, 3), 1),
               2, 3)
    s = fr.expand(4)
    prod = s.mul(fr.denominator_part().expand(0))
    assert prod.equal_up_to(fr.numerator_part().expand(0), prod.validity)


def test_exchange_ratios_equal_the_kernels():
    # the current exchange ratios assembled from their zero/pole data
    # coincide exactly with the alpha/beta/gamma kernels at x = z1/z2
    def ratio(num_factors, den_factors):
        fs = [(u, 1, v, 2, 1) for u, v in num_factors]
        fs += [(u, 1, v, 2, -1) for u, v in den_factors]
        return FactoredRational(2, 1, None, fs)

    one = qnum(1)
    # f-f exchange: (z-q^2 w)(qz+w) over (q^2 z-w)(z+qw)
    ff = ratio([(one, -q ** 2), (q, one)], [(q ** 2, -one), (one, q)])
    # s-f exchange: (z-w)(z+q^3 w) over (q^2 z-w)(z+qw)
    sf = ratio([(one, -one), (one, q ** 3)], [(q ** 2, -one), (one, q)])
    # s-s exchange: (z-q^2 w)(z+q^3 w)(qz+w) over (z+qw)(q^2 z-w)(q^3 z+w)
    ss = ratio([(one, -q ** 2), (one, q ** 3), (q, one)],
               [(one, q), (q ** 2, -one), (q ** 3, one)])
    for got, kind in ((ff, "alpha"), (sf, "beta"), (ss, "gamma")):
        kernel = build_kernel(kind, qnum(1), 1, 2, 2)
        diff = got * kernel.inv()
        assert diff.scalar.is_one() and not diff.factors \
            and not any(diff.monomial), kind


def test_kernel_inversion_identities():
    for kind in ("alpha", "gamma"):
        prod = build_kernel(kind, qnum(1), 1, 2, 2) \
            * build_kernel(kind, qnum(1), 2, 1, 2)
        assert prod.scalar.is_one()
        assert not prod.factors and not any(prod.monomial)


def test_alpha_with_scaled_argument():
    # alpha(-q z1/z2) carries the shifted binomials the pairing
    # coefficients are printed with
    fr = build_kernel("alpha", qpow(1, -1), 1, 2, 2)
    vals = rational_stream(9)
    q0, z1, z2 = next(vals), next(vals), next(vals)
    x = -q0 * z1 / z2
    want = (q0 ** 2 - x) * (1 / q0 + x) / ((1 - q0 ** 2 * x) * (1 + x / q0))
    assert fr.eval_exact(q0, [z1, z2]) == want


def test_kernel_requires_distinct_variables():
    with pytest.raises(ValueError):
        build_kernel("alpha", qnum(1), 1, 1, 2)


def test_residue_constant_nonzero_at_q2():
    value = residue_constant("alpha", qpow(2))
    assert not value.is_zero()
    # direct limit: (x^-1 - c) alpha(x) at x -> 1/c
    vals = rational_stream(31)
    q0 = next(vals)
    c = (qpow(2)).eval(q0)
    eps = Fraction(1, 10 ** 6)
    x = 1 / c + eps
    approx = (1 / x - c) * kernel_value("alpha", qnum(x)).eval(q0)
    exact = value.eval(q0)
    assert abs(approx - exact) < Fraction(1, 1000)


def test_beta_has_no_pole_at_minus_q_cubed():
    assert residue_constant("beta", qpow(3, -1)).is_zero()


def test_residue_table_covers_listed_poles():
    table = {(kind, c) for kind in ("alpha", "beta", "gamma")
             for c in kernel_poles(kind)}
    assert table == {
        ("alpha", qpow(2)), ("alpha", qpow(-1, -1)),
        ("beta", qpow(2)), ("beta", qpow(-1, -1)),
        ("gamma", qpow(2)), ("gamma", qpow(3, -1)), ("gamma", qpow(-1, -1)),
    }


def test_residues_reconstruct_kernels():
    vals = rational_stream(17)
    for kind in ("alpha", "beta", "gamma"):
        consts = [(c, residue_constant(kind, c)) for c in kernel_poles(kind)]
        done = 0
        while done < 5:
            q0, w0 = next(vals), next(vals)
            try:
                lhs = kernel_value(kind, qnum(1) / qnum(w0)).eval(q0)
                rhs = kernel_value(kind, qnum(0)).eval(q0) + sum(
                    (value.eval(q0) / (w0 - c.eval(q0))
                     for c, value in consts), Fraction(0))
            except ZeroDivisionError:
                continue
            done += 1
            assert lhs == rhs


def test_matrices_closed_form_n2():
    _, _, w = build_matrices(qpow(1), 2)
    vals = rational_stream(13)
    q0, z1 = next(vals), next(vals)
    assert w[0].eval_exact(q0, [z1, z1]) == 1
    z2 = next(vals)
    assert w[0].eval_exact(q0, [z1, z2]) \
        == (z1 - q0 * z1) / (z2 - q0 * z1)


def test_v_matches_matrix_row_on_diagonal_hyperplane():
    n = 4
    m, v, _ = build_matrices(qpow(2), n)
    vals = rational_stream(19)
    q0 = next(vals)
    zs = [next(vals) for _ in range(n)]
    for i in range(1, n):
        zz = list(zs)
        zz[n - 1] = zz[i - 1]
        got = [e.eval_exact(q0, zz) for e in v]
        want = [e.eval_exact(q0, zz) for e in m[i - 1]]
        assert got == want


@pytest.mark.parametrize("n", range(2, 7))
def test_matrix_invertible_at_random_points(n):
    vals = rational_stream(100 + n)
    m, _, _ = build_matrices(qpow(2), n)
    while True:
        q0 = next(vals)
        zs = [next(vals) for _ in range(n)]
        try:
            mv = [[e.eval_exact(q0, zs) for e in row] for row in m]
        except ZeroDivisionError:
            continue
        assert det_exact(mv) != 0
        break


def test_solve_exact_round_trip():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = [Fraction(5, 7), Fraction(-2, 3)]
    b = [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)]
    assert solve_exact(a, b) == x


def test_det_exact_flips_its_sign_on_a_row_swap():
    assert det_exact([[0, 1], [1, 0]]) == -1


def test_solve_exact_pivots_past_a_zero():
    assert solve_exact([[0, 1], [1, 0]], [3, 5]) == [5, 3]


def test_solve_exact_rejects_a_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        solve_exact([[1, 2], [2, 4]], [1, 1])


def _reference_gauss_jordan(a):
    """Gauss-Jordan one Fraction operation at a time: reduce the square
    block of ``a`` to the identity in place and return its determinant."""
    size = len(a)
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
        a[col] = [x * inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


# zeros are common, so pivots are often zero and force a row swap
_entries = st.one_of(st.sampled_from([0, 0, 1, -1, 2]),
                     st.fractions(min_value=-9, max_value=9,
                                  max_denominator=12))


@st.composite
def _systems(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(_entries, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        # a singular matrix: one row a combination of two others
        i, j, k = (draw(st.integers(min_value=0, max_value=size - 1))
                   for _ in range(3))
        c = draw(_entries)
        rows[k] = [x + c * y for x, y in zip(rows[i], rows[j])] \
            if k not in (i, j) else [c * y for y in rows[j]]
    rhs = draw(st.lists(_entries, min_size=size, max_size=size))
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_exact_linear_algebra_equals_the_fraction_reference(system):
    rows, rhs = system
    det = _reference_gauss_jordan([[Fraction(x) for x in r] for r in rows])
    got = det_exact(rows)
    assert got == det and type(got) is Fraction
    if det:
        a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
        _reference_gauss_jordan(a)
        x = solve_exact(rows, rhs)
        assert x == [r[-1] for r in a]
        assert all(type(v) is Fraction for v in x)
        # the integer rows end diagonal, every diagonal entry the last pivot
        reduced, _ = blocks._gauss_jordan(rows)
        pivot = reduced[-1][-1]
        assert all(type(v) is int for r in reduced for v in r)
        assert all(v == (pivot if c == r else 0)
                   for r, row in enumerate(reduced) for c, v in enumerate(row))
    else:
        with pytest.raises(ZeroDivisionError, match="singular"):
            solve_exact(rows, rhs)


def test_det_exact_of_int_and_fraction_entries():
    assert det_exact([[2]]) == 2 and type(det_exact([[2]])) is Fraction
    # one swap, and rows scaled by 2, 6 and 4 before elimination
    m = [[0, 0, Fraction(1, 2)], [0, Fraction(-1, 3), Fraction(1, 6)],
         [Fraction(3, 4), 5, -1]]
    assert det_exact(m) == Fraction(1, 2) * Fraction(-1, 3) * Fraction(3, 4) * -1
    assert solve_exact(m, [1, 0, 0]) == [-4, 1, 2]
