"""Verification suites: determinism, reporting, brute-force reference."""

import json

import pytest

from uqa22.projection import PLUS
from uqa22.verify import SUITE_NAMES, brute_admissible, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_brute_admissible_examples():
    assert len(brute_admissible(4, 2, PLUS)) == 3
    assert brute_admissible(2, 1, "minus") == [((1,), (2,))]
    with pytest.raises(ValueError):
        brute_admissible(11, 2, PLUS)


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
    rep = run_suite(suite, n=1)
    assert rep.cases == 0 and not rep.failures
    assert not rep.passed


def test_suite_size_limits_are_checked_up_front():
    with pytest.raises(ValueError, match="capped at n = 10"):
        run_suite("enumeration", n=11)
    with pytest.raises(ValueError, match="at least 2"):
        run_suite("modes", window=1)
