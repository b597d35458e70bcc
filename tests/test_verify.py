"""Verification suites: determinism, reporting, brute-force reference."""

import collections
import itertools
import json
import random

import pytest

from uqa22 import verify
from uqa22.ncalg import NCExpr, word_str
from uqa22.projection import MINUS, PLUS, WeightExpr, weight_plus_closed
from uqa22.qfield import qpow
from uqa22.series import ExpansionSeries, ratio_degree
from uqa22.verify import SUITE_NAMES, SuiteReport, brute_admissible, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_brute_admissible_examples():
    assert len(brute_admissible(4, 2, PLUS)) == 3
    assert brute_admissible(2, 1, "minus") == [((1,), (2,))]
    with pytest.raises(ValueError):
        brute_admissible(11, 2, PLUS)


def _full_filter(n, r, orientation):
    """Every ordered disjoint pair (I, J), both predicates tested per pair."""
    if r == 0:
        return [((), ())]
    out = []
    for I in itertools.permutations(range(1, n + 1), r):
        rest = [x for x in range(1, n + 1) if x not in I]
        for J in itertools.permutations(rest, r):
            if orientation == PLUS:
                ok = all(J[i] > J[i + 1] for i in range(r - 1)) \
                    and all(j > i for i, j in zip(I, J))
            else:
                ok = all(I[i] < I[i + 1] for i in range(r - 1)) \
                    and all(i < j for i, j in zip(I, J))
            if ok:
                out.append((I, J))
    return out


@pytest.mark.parametrize("orientation", [PLUS, MINUS])
@pytest.mark.parametrize("n", range(1, 8))
def test_brute_admissible_equals_the_full_filter(n, orientation):
    for r in range(n + 1):
        got, want = brute_admissible(n, r, orientation), _full_filter(n, r, orientation)
        assert set(got) == set(want)
        assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "goldens"])
def test_suites_pass(name):
    kwargs = {}
    if name == "oracle":
        kwargs = {"n": 3, "depth": 4}
    elif name == "interp":
        kwargs = {"n": 4}
    elif name == "enumeration":
        kwargs = {"n": 6}
    rep = run_suite(name, **kwargs)
    assert rep.cases > 0
    assert rep.passed, rep.failures


@pytest.mark.parametrize("wrong, cases", [
    ("rho", ("rho-interpolation", "rho-kronecker")),
    ("lambda", ("lambda-identity", "lambda-normalization")),
    ("mu", ("block-matrix-identity",)),
    ("nu", ("block-matrix-identity",)),
    ("W", ("cauchy-closed-form",)),
])
def test_interp_fails_each_case_on_a_wrong_value(wrong, cases, monkeypatch):
    # one block kind scaled by q, or one entry of W scaled by q, must fail
    # the cases that compare against it, at every size, and no other
    real_block, real_matrices = verify.build_block, verify.build_matrices

    def block(kind, *args):
        fr = real_block(kind, *args)
        return fr.scale(qpow(1)) if kind == wrong else fr

    def matrices(c, size):
        m, v, w = real_matrices(c, size)
        return m, v, ([w[0].scale(qpow(1)), *w[1:]] if wrong == "W" else w)

    monkeypatch.setattr(verify, "build_block", block)
    monkeypatch.setattr(verify, "build_matrices", matrices)
    rep = run_suite("interp", n=3)
    assert {f["case"] for f in rep.failures} \
        == {f"{case}/n={size}" for case in cases for size in (2, 3)}


def test_interp_builds_each_matrix_and_block_once(monkeypatch):
    calls = collections.Counter()
    real_block, real_matrices = verify.build_block, verify.build_matrices

    def block(kind, args, k, n):
        calls["block", kind, args, k, n] += 1
        return real_block(kind, args, k, n)

    def matrices(c, size):
        calls["matrices", c, size] += 1
        return real_matrices(c, size)

    monkeypatch.setattr(verify, "build_block", block)
    monkeypatch.setattr(verify, "build_matrices", matrices)
    assert run_suite("interp", n=4).passed
    assert set(calls.values()) == {1}
    assert sum(key[0] == "matrices" for key in calls) == 15   # 5 c's, 3 sizes
    assert sum(key[0] == "block" for key in calls) == 24      # 4 kinds, 6 k's


@pytest.mark.parametrize("wrong", ["alpha", "beta", "gamma"])
def test_kernels_fails_the_kernel_whose_residue_is_wrong(wrong, monkeypatch):
    real = verify.residue_constant

    def residue_constant(kind, pole):
        value = real(kind, pole)
        return value * qpow(1) if kind == wrong else value

    monkeypatch.setattr(verify, "residue_constant", residue_constant)
    rep = run_suite("kernels", seed=1)
    assert [f["case"] for f in rep.failures] \
        == [f"{wrong}-residue-reconstruction"]
    assert rep.failures[0]["detail"].startswith("q0=")


def test_a_check_that_raises_at_every_point_fails_instead_of_looping():
    calls = collections.Counter()

    def holds(q0, zs):
        calls["holds"] += 1
        raise ZeroDivisionError("pole hit")

    assert verify._first_failure(random.Random(1), 5, 2, holds) \
        == "no pole-free point in 50 draws"
    assert calls["holds"] == 50


def test_a_pole_between_good_points_is_drawn_again():
    calls = collections.Counter()

    def holds(q0, zs):
        calls["holds"] += 1
        if calls["holds"] % 3 == 0:
            raise ZeroDivisionError("pole hit")
        return True

    # 30 good points, with a pole after every second one
    assert verify._first_failure(random.Random(1), 30, 1, holds) is None
    assert calls["holds"] == 44


def test_kernels_fails_every_residue_case_when_each_point_is_a_pole(monkeypatch):
    def kernel_value(kind, x):
        raise ZeroDivisionError("pole at every point")

    monkeypatch.setattr(verify, "kernel_value", kernel_value)
    rep = run_suite("kernels", seed=1)
    assert [(f["case"], f["detail"]) for f in rep.failures] == [
        (f"{kind}-residue-reconstruction", "no pole-free point in 50 draws")
        for kind in ("alpha", "beta", "gamma")]


def test_goldens_suite_reports_only_the_known_mismatches():
    rep = run_suite("goldens", depth=6)
    assert {f["case"] for f in rep.failures} \
        == {"n3/tau/I=1,J=3", "n3/tau/I=2,J=3"}
    for f in rep.failures:
        assert "inconsistent" in f["detail"]


def test_reports_are_deterministic_and_serializable():
    a = run_suite("interp", n=3, seed=42).to_json()
    b = run_suite("interp", n=3, seed=42).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_suite("interp", n=3, seed=43).to_json()
    assert c["params"]["seed"] == 43


@pytest.mark.parametrize("suite", ["oracle", "interp"])
def test_a_run_with_no_case_does_not_pass(suite):
    # n = 1 would run no case, so the suite refuses it before it runs
    with pytest.raises(ValueError, match="--n must be at least 2"):
        run_suite(suite, n=1)
    rep = SuiteReport(suite)
    assert rep.cases == 0 and not rep.failures
    assert not rep.passed


@pytest.mark.parametrize("suite, flag", [
    ("goldens", "n"), ("oracle", "window"), ("interp", "depth"),
    ("interp", "window"), ("kernels", "n"), ("kernels", "depth"),
    ("kernels", "window"), ("duality", "n"), ("duality", "depth"),
    ("enumeration", "depth"), ("enumeration", "window"), ("modes", "n"),
])
def test_a_flag_the_suite_does_not_read_is_rejected(suite, flag):
    with pytest.raises(ValueError, match=f"suite '{suite}' does not read --{flag}"):
        run_suite(suite, **{flag: 3})


def test_suite_size_limits_are_checked_up_front():
    with pytest.raises(ValueError, match="capped at n = 10"):
        run_suite("enumeration", n=11)
    with pytest.raises(ValueError, match="at least 2"):
        run_suite("modes", window=1)


def test_enumeration_fails_a_pair_listed_twice(monkeypatch):
    real = verify.admissible_pairs

    def admissible_pairs(n, r, orientation):
        pairs = real(n, r, orientation)
        return pairs + pairs[:1] if (n, r, orientation) == (5, 0, PLUS) else pairs

    monkeypatch.setattr(verify, "admissible_pairs", admissible_pairs)
    rep = run_suite("enumeration", n=5)
    assert not rep.passed
    assert rep.failures == [{"case": "plus/n=5/r=0", "detail": "2 vs 1"}]


def test_oracle_names_the_first_wrong_coefficient(monkeypatch):
    closed = weight_plus_closed(3, 4).expr
    words = closed.words()
    first, last = words[1], words[-1]
    a = min(closed.coefficient(first).terms, key=ratio_degree)
    real = verify.weight_plus_recursive

    def weight_plus_recursive(n, depth):
        w = real(n, depth)
        if n != 3:
            return w
        # plant a wrong coefficient at two words; the first one is named
        coeffs = dict(w.expr.coeffs)
        for word in (last, first):
            coeffs[word] = coeffs[word] + ExpansionSeries.monomial(3, a)
        return WeightExpr(NCExpr(3, coeffs, w.expr.validity), w.orientation)

    monkeypatch.setattr(verify, "weight_plus_recursive", weight_plus_recursive)
    rep = run_suite("oracle", n=3, depth=4)
    c = closed.coefficient(first).coefficient(a)
    assert rep.failures == [{
        "case": "closed-vs-recursive/n=3",
        "detail": f"word={word_str(first)} z^{list(a)} closed={c} recursive={c + 1}"}]
