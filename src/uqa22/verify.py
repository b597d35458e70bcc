"""Executable verification suites.

Each suite binds one family of acceptance checks to the engine: golden
display comparisons, the closed-versus-recursive oracle, exact
interpolation identities at random rational points, kernel and residue
identities, involution transport, admissible-pair enumeration against
brute force, and the mode-series displays.  All comparisons are exact;
failures are data, not exceptions.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import goldens
from .blocks import (
    ArgList,
    build_block,
    build_kernel,
    build_matrices,
    kernel_poles,
    kernel_value,
    residue_constant,
    solve_exact,
)
from .ncalg import ModeSymbol, NCExpr, mode, principal_degree
from .projection import (
    MINUS,
    PLUS,
    admissible_pairs,
    mode_expand,
    star_projection,
    weight_minus_closed,
    weight_plus_closed,
    weight_plus_recursive,
)
from .qfield import qnum, qpow
from .series import FactoredRational, unit_vec


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when at least one case ran and none failed."""
        return self.cases > 0 and not self.failures

    def record(self, case_id: str, ok: bool, detail: str = ""):
        self.cases += 1
        if not ok:
            self.failures.append({"case": case_id, "detail": detail})

    def to_json(self):
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "params": self.params,
        }


def _rationals(rng: random.Random):
    """Small random nonzero rationals, at most 7 bits on either side."""
    while True:
        yield Fraction(rng.randint(1, 127), rng.randint(1, 127)) \
            * rng.choice([1, -1])


_BRUTE_MAX_N = 10


def _check_brute_size(n: int):
    if n > _BRUTE_MAX_N:
        raise ValueError(f"brute-force enumeration is capped at n = {_BRUTE_MAX_N}")


def brute_admissible(n: int, r: int, orientation: str):
    """Reference enumeration by filtering all ordered disjoint pairs."""
    _check_brute_size(n)
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


# -- individual suites --------------------------------------------------------

def _suite_goldens(depth=8, window=6) -> SuiteReport:
    rep = SuiteReport("goldens")
    for case in goldens.golden_cases(depth=depth, window=window):
        ok, detail = case.run()
        if not ok and not case.consistent:
            detail = f"transcribed display is internally inconsistent: {case.note}"
        rep.record(case.id, ok, detail)
    return rep


def _suite_oracle(n=4, depth=4) -> SuiteReport:
    rep = SuiteReport("oracle")
    for m in range(2, n + 1):
        closed = weight_plus_closed(m, depth)
        recursive = weight_plus_recursive(m, depth)
        bound = min(closed.expr.validity, recursive.expr.validity)
        rep.record(f"closed-vs-recursive/n={m}",
                   closed.equal_up_to(recursive, bound))
    return rep


def _evaluate(x, q0, zs):
    """Exact value at the point, entrywise through nested lists."""
    if isinstance(x, list):
        return [_evaluate(e, q0, zs) for e in x]
    return x.eval_exact(q0, zs)


def _solve(m, v):
    """The x with x.M = V, for evaluated M and V."""
    return solve_exact([list(col) for col in zip(*m)], v)


_REDRAWS_PER_TRIAL = 10


def _first_failure(rng, trials, size, holds):
    """The failure detail of the first of ``trials`` random points
    (q0, [z_1..z_size]) at which ``holds(q0, zs)`` is false, or None when
    it holds at all of them.  A point at a pole is drawn again, but after
    ``_REDRAWS_PER_TRIAL * trials`` draws in a row at a pole the case
    fails, so that a check which raises everywhere cannot draw forever."""
    done = misses = 0
    while done < trials:
        vals = _rationals(rng)
        q0, zs = next(vals), [next(vals) for _ in range(size)]
        try:
            if not holds(q0, zs):
                return f"q0={q0} z={zs}"
        except ZeroDivisionError:
            misses += 1
            if misses == _REDRAWS_PER_TRIAL * trials:
                return f"no pole-free point in {misses} draws"
            continue
        done, misses = done + 1, 0
    return None


def _record_sampled(rep, case_id, failure):
    """Record a sampled case, with its failure detail if there is one."""
    rep.record(case_id, failure is None, failure or "")


def _suite_interp(seed, n=5) -> SuiteReport:
    trials = 20
    rep = SuiteReport("interp", params={"trials": trials})
    rng = random.Random(seed)
    # every factored matrix and block is built once per run, and each
    # identity evaluates exactly the quantities it compares, so that a
    # pole at a sampled point triggers the same retry
    matrices = functools.cache(build_matrices)

    @functools.cache
    def block_row(kind, size):
        """The blocks at every row index k = 1, ..., size - 1."""
        row = tuple(range(1, size))
        return [build_block(kind, ArgList(row, size), k, size) for k in row]

    @functools.cache
    def normalized_lambdas(size):
        """z_k^-1 (z_k + q z_size) lambda_k, which is 1 at z_size = -z_k/q."""
        return [FactoredRational(size, 1, unit_vec(size, k, -1),
                                 [(1, k, qpow(1), size, 1)]) * lam
                for k, lam in enumerate(block_row("lambda", size), 1)]

    def solved(c, size, q0, zs):
        """The x with x.M = V for build_matrices(c, size) at the point."""
        m, v, _ = matrices(c, size)
        return _solve(_evaluate(m, q0, zs), _evaluate(v, q0, zs))

    def check(size, case, fn):
        _record_sampled(rep, f"{case}/n={size}", _first_failure(
            rng, trials, size, functools.partial(fn, size)))

    def rho_identity(size, q0, zs):
        return solved(qpow(2), size, q0, zs) \
            == _evaluate(block_row("rho", size), q0, zs)

    def w_identity(size, q0, zs):
        x = solved(qpow(1), size, q0, zs)
        return x == _evaluate(matrices(qpow(1), size)[2], q0, zs)

    def lam_identity(size, q0, zs):
        x = solved(qpow(2), size, q0, zs)
        mm, vm, _ = matrices(qpow(-1, -1), size)
        mmv, vmv = _evaluate(mm, q0, zs), _evaluate(vm, q0, zs)
        lhs = [vk - sum(xi * row[k] for xi, row in zip(x, mmv))
               for k, vk in enumerate(vmv)]
        return lhs == _evaluate(block_row("lambda", size), q0, zs)

    def block_identity(size, q0, zs):
        m2, v2, _ = matrices(qpow(2), size)
        m3, v3, _ = matrices(qpow(3, -1), size)
        mq, _, _ = matrices(qpow(1, -1), size)
        m2v, m3v, mqv = (_evaluate(x, q0, zs) for x in (m2, m3, mq))
        big = [a + b for a, b in zip(m2v, m3v)] \
            + [a + b for a, b in zip(mqv, m2v)]
        x = _solve(big, _evaluate(v2 + v3, q0, zs))
        return x == _evaluate(block_row("mu", size) + block_row("nu", size),
                              q0, zs)

    def lam_normalization(size, q0, zs):
        return all(lam.eval_exact(q0, zs[:-1] + [-zs[k - 1] / q0]) == 1
                   for k, lam in enumerate(normalized_lambdas(size), 1))

    def rho_kronecker(size, q0, zs):
        return all(rho.eval_exact(q0, zs[:-1] + [zs[j - 1]]) == int(j == k)
                   for k, rho in enumerate(block_row("rho", size), 1)
                   for j in range(1, size))

    for size in range(2, min(n, 6) + 1):
        check(size, "rho-interpolation", rho_identity)
        check(size, "cauchy-closed-form", w_identity)
        check(size, "lambda-identity", lam_identity)
        check(size, "lambda-normalization", lam_normalization)
        check(size, "rho-kronecker", rho_kronecker)
    for size in range(2, min(n, 5) + 1):
        check(size, "block-matrix-identity", block_identity)
    return rep


def _residues_reconstruct(kind, consts, q0, zs):
    """The kernel at 1/w0 is its value at 0 plus its pole parts."""
    w0, = zs
    rhs = kernel_value(kind, qnum(0)).eval(q0)
    for c, value in consts:
        rhs += value.eval(q0) / (w0 - c.eval(q0))
    return kernel_value(kind, qnum(1) / qnum(w0)).eval(q0) == rhs


def _suite_kernels(seed) -> SuiteReport:
    rep = SuiteReport("kernels")
    rng = random.Random(seed)
    for kind in ("alpha", "gamma"):
        f = build_kernel(kind, qnum(1), 1, 2, 2) \
            * build_kernel(kind, qnum(1), 2, 1, 2)
        num = f.numerator_part().expand(0)
        den = f.denominator_part().expand(0)
        rep.record(f"{kind}(x){kind}(1/x)=1", num.terms == den.terms)
    for kind in ("alpha", "beta", "gamma"):
        consts = [(c, residue_constant(kind, c)) for c in kernel_poles(kind)]
        _record_sampled(rep, f"{kind}-residue-reconstruction", _first_failure(
            rng, 5, 1, functools.partial(_residues_reconstruct, kind, consts)))
    rep.record("beta-has-no-pole-at--q^3",
               residue_constant("beta", qpow(3, -1)).is_zero())
    return rep


def _suite_duality(seed, window=6) -> SuiteReport:
    rep = SuiteReport("duality")
    rng = random.Random(seed)
    sp = star_projection(1, 4, window, "-")
    want = {(ModeSymbol("e", -m),) for m in range(1, window + 1)}
    ok = set(sp.coeffs) == want and all(
        list(s.terms) == [(w[0].index,)]
        for w, s in sp.coeffs.items())
    rep.record("dual-negative-single-current-support", ok)
    sp2 = star_projection(1, 4, window, "+")
    ok2 = set(sp2.coeffs) == {(ModeSymbol("e", m),) for m in range(0, window + 1)}
    rep.record("dual-positive-single-current-support", ok2)
    for t in range(100):
        w = tuple(mode(rng.choice("ef"), rng.randint(-9, 9))
                  for _ in range(rng.randint(0, 6)))
        x = NCExpr.from_word(2, w)
        twice = x.iota().iota()
        ok = set(twice.coeffs) == {w}
        deg_ok = principal_degree(next(iter(x.iota().coeffs))) \
            == -principal_degree(w) if w else True
        rep.record(f"involution-squared/{t}", ok and deg_ok)
    # transport of the quadratic exchange relation: swapping the variable
    # roles in (z - q^2 w)(qz + w) must reproduce (q^2 z - w)(z + qw)
    a = FactoredRational(2, 1, None,
                         [(qnum(1), 1, qpow(2, -1), 2, 1),
                          (qpow(1), 1, qnum(1), 2, 1)])
    b = FactoredRational(2, 1, None,
                         [(qpow(2), 1, qnum(-1), 2, 1),
                          (qnum(1), 1, qpow(1), 2, 1)])
    a_swapped = FactoredRational(
        2, 1, None, [(v, 1, u, 2, m) for u, _i, v, _j, m in a.factors])
    rep.record("exchange-relation-transport",
               a_swapped.expand(0).terms == b.expand(0).scale(qnum(-1)).terms)
    return rep


def _suite_enumeration(n=8) -> SuiteReport:
    _check_brute_size(n)   # before the smaller sizes run
    rep = SuiteReport("enumeration")
    for size in range(1, n + 1):
        for orientation in (PLUS, MINUS):
            for r in range(size // 2 + 1):
                fast = {(p.I, p.J)
                        for p in admissible_pairs(size, r, orientation)}
                brute = set(brute_admissible(size, r, orientation))
                rep.record(f"{orientation}/n={size}/r={r}", fast == brute,
                           f"{len(fast)} vs {len(brute)}")
    printed = [((1, 2), (4, 3)), ((2, 1), (4, 3)), ((3, 1), (4, 2))]
    got = [(p.I, p.J) for p in admissible_pairs(4, 2, PLUS)]
    rep.record("n=4/r=2/printed-list", sorted(got) == sorted(printed))
    return rep


def _suite_modes(window=6, depth=4) -> SuiteReport:
    if window < 2:
        raise ValueError("the modes suite compares windows w and w-1, "
                         "so --window must be at least 2")
    rep = SuiteReport("modes")
    for case in goldens.golden_cases(depth=4, window=window):
        if case.kind == "mode":
            ok, detail = case.run()
            rep.record(case.id, ok, detail)
    w1 = mode_expand(weight_plus_closed(1, depth), window)
    rep.record("single-current-positive-support",
               set(w1.coeffs) == {(ModeSymbol("f", m),)
                                  for m in range(1, window + 1)})
    m1 = mode_expand(weight_minus_closed(1, depth), window)
    rep.record("single-current-nonpositive-support",
               set(m1.coeffs) == {(ModeSymbol("f", -m),)
                                  for m in range(0, window + 1)})
    # window monotonicity on the two-current expansion
    big = mode_expand(weight_plus_closed(2, depth), window)
    small = mode_expand(weight_plus_closed(2, depth), window - 1)
    ok = True
    for word, series in small.coeffs.items():
        if all(abs(s.index) <= window - 1 for s in word):
            ok = ok and big.coefficient(word).equal_up_to(
                series, min(series.validity, big.coefficient(word).validity))
    rep.record("window-monotonicity", ok)
    return rep


_SUITES = {
    "goldens": _suite_goldens,
    "oracle": _suite_oracle,
    "interp": _suite_interp,
    "kernels": _suite_kernels,
    "duality": _suite_duality,
    "enumeration": _suite_enumeration,
    "modes": _suite_modes,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n=None, depth=None, window=None, seed=0) -> SuiteReport:
    """Run one suite.  The report's params record every argument the suite
    ran with, defaults included, and the seed; a given ``n``, ``depth`` or
    ``window`` that the suite does not read is an error."""
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") \
            from None
    signature = inspect.signature(suite)
    kwargs = {"seed": seed} if "seed" in signature.parameters else {}
    for flag, value in (("n", n), ("depth", depth), ("window", window)):
        if value is not None:
            if flag not in signature.parameters:
                raise ValueError(f"suite {name!r} does not read --{flag}")
            kwargs[flag] = value
    rep = suite(**kwargs)
    bound = signature.bind(**kwargs)
    bound.apply_defaults()
    rep.params.update(bound.arguments, seed=seed)
    return rep
