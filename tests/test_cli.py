"""Command-line interface: artifacts, caching, exit codes."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqa22 import cli
from uqa22.cli import main


def invoke(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_weight_json_artifact(tmp_path, capsys):
    code, out = invoke(capsys, [
        "weight", "plus", "--n", "2", "--depth", "4",
        "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(out)
    assert data["schema"].startswith("uqa22/weight/")
    assert data["n"] == 2
    words = [tuple(tuple(s) for s in t["word"]) for t in data["expr"]["terms"]]
    assert (("f+", 1, 0), ("f+", 2, 0)) in words
    # the emitted artifact parses back to the computed expression
    from uqa22.ncalg import NCExpr
    from uqa22.projection import weight_plus_closed
    parsed = NCExpr.from_json(data["expr"])
    direct = weight_plus_closed(2, 4).expr
    assert set(parsed.coeffs) == set(direct.coeffs)
    assert parsed.equal_up_to(direct, min(parsed.validity, direct.validity))


def test_weight_cache_is_byte_identical(tmp_path, capsys):
    args = ["weight", "plus", "--n", "2", "--depth", "3",
            "--cache-dir", str(tmp_path)]
    _, first = invoke(capsys, args)
    _, second = invoke(capsys, args)
    assert first == second
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_weight_cache_corruption_recovers(tmp_path, capsys):
    args = ["weight", "plus", "--n", "1", "--depth", "2",
            "--cache-dir", str(tmp_path)]
    _, first = invoke(capsys, args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{ not json")
    code, again = invoke(capsys, args)
    assert code == 0
    assert again == first


def test_cache_is_keyed_on_the_engine_fingerprint(tmp_path, capsys,
                                                  monkeypatch):
    args = ["weight", "plus", "--n", "2", "--depth", "3",
            "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cli, "_engine_fingerprint", lambda: "engine-a")
    _, first = invoke(capsys, args)
    entry = next(tmp_path.glob("*.json"))
    # an entry from another engine is never served, even if it parses
    entry.write_text(first.replace('"depth": 3', '"depth": 99'))
    monkeypatch.setattr(cli, "_engine_fingerprint", lambda: "engine-b")
    _, second = invoke(capsys, args)
    assert second == first
    assert len(list(tmp_path.glob("*.json"))) == 2
    monkeypatch.setattr(cli, "_engine_fingerprint", lambda: "engine-a")
    _, stale = invoke(capsys, args)
    assert '"depth": 99' in stale


def test_engine_fingerprint_covers_sources_and_data(tmp_path):
    root = tmp_path / "uqa22"
    shutil.copytree(Path(cli.__file__).parent, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    digest = cli._engine_fingerprint.__wrapped__
    base = digest(root)
    assert base == cli._engine_fingerprint()
    (root / "notes.txt").write_text("not part of the engine")
    assert digest(root) == base
    data = root / "data" / "reference_displays.json"
    data.write_text(data.read_text() + " ")
    assert digest(root) != base
    data.write_text(data.read_text()[:-1])
    assert digest(root) == base
    (root / "qfield.py").write_text((root / "qfield.py").read_text() + "#")
    assert digest(root) != base


def test_cache_entry_with_foreign_schema_is_recomputed(tmp_path, capsys):
    args = ["weight", "plus", "--n", "1", "--depth", "2",
            "--cache-dir", str(tmp_path)]
    _, first = invoke(capsys, args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_text(first.replace("uqa22/weight/v1", "uqa22/weight/v0"))
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == first
    assert "has schema 'uqa22/weight/v0'" in captured.err
    assert "recomputing" in captured.err
    assert entry.read_text() == first


# sha256 of the canonical JSON artifacts, recorded from the engine before
# the integer coefficient ring; any change to these bytes is a regression
# or a deliberate format change.
_SMALL_MODES = ["--n", "3", "--depth", "4", "--modes", "--window", "3"]
ARTIFACT_SHA256 = {
    "weight-plus": (
        ["weight", "plus", *_SMALL_MODES],
        "67a1547d35cc055b67c1144dfadaf69a9102473bfe18d9c86ded370337572692"),
    "weight-minus": (
        ["weight", "minus", *_SMALL_MODES],
        "25c418402e8509d64da9e4b00a2b92997b450baa33faade6470ece81b6f3c6bc"),
    "rmatrix": (
        ["rmatrix", "--order", "2", "--window", "4"],
        "4d9d495c1e849aca75a4dcb3da9dfd0d162f9a9a45d081baa6818cb3946b7073"),
}


@pytest.mark.parametrize("case", list(ARTIFACT_SHA256))
def test_artifacts_are_byte_identical(case, capsys):
    args, digest = ARTIFACT_SHA256[case]
    _, out = invoke(capsys, [*args, "--no-cache"])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_weight_latex_contains_block_ratio(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "2", "--format", "latex", "--no-cache"])
    assert "q^{2}-z_{2}/z_{1}" in out
    assert out.startswith("P\\big(f(z_{1})f(z_{2})\\big) =")


def test_weight_latex_summary(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "4", "--format", "latex-summary",
        "--no-cache"])
    assert "\\tau^{1}_{\\{3,1\\},\\{4,2\\}}" in out
    assert "\\mathcal{S}(z_{3})\\,\\mathcal{S}(z_{3};z_{1})" in out
    _, out = invoke(capsys, [
        "weight", "minus", "--n", "2", "--format", "latex-summary",
        "--no-cache"])
    assert "\\tilde{\\mathcal{F}}(z_{1};z_{2})" in out


def test_weight_single_current_text(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "1", "--format", "text", "--no-cache"])
    assert "f+(z1)" in out


def test_weight_with_modes(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "1", "--depth", "3", "--modes",
        "--window", "3", "--cache-dir", str(tmp_path)])
    data = json.loads(out)
    assert len(data["modes"]["terms"]) == 3


def test_rmatrix_order_one_entry_counts(tmp_path, capsys):
    _, out = invoke(capsys, [
        "rmatrix", "--order", "1", "--window", "5",
        "--cache-dir", str(tmp_path)])
    data = json.loads(out)
    by_name = {f["name"]: f for f in data["factors"]}
    # K entries above the constant term for the plus factor, K+1 below
    assert len(by_name["r_plus_21"]["tensor"]["terms"]) == 6
    assert len(by_name["r_minus"]["tensor"]["terms"]) == 7
    assert by_name["h_token"]["token"] == "q^(h x h)"
    assert len(data["cartan_coeffs"]) == 5


def test_blocks_dump(tmp_path, capsys):
    code, out = invoke(capsys, [
        "blocks", "rho", "--n", "2", "--row", "1", "--k", "1",
        "--target", "2", "--format", "latex"])
    assert code == 0
    assert "q^{2}-z_{2}/z_{1}" in out
    code, out = invoke(capsys, [
        "blocks", "alpha", "--n", "2", "--i", "1", "--j", "2",
        "--scale=-q"])
    assert json.loads(out)["kind"] == "alpha"


def test_verify_command_exit_codes(tmp_path, capsys):
    code, out = invoke(capsys, ["verify", "--suite", "kernels",
                                "--report", str(tmp_path / "rep.json")])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["suite"] == "kernels" and not rep["failures"]
    code, out = invoke(capsys, ["verify", "--suite", "goldens",
                                "--depth", "6"])
    assert code == 1   # the two documented display mismatches


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nosuch"])
    assert err.value.code == 2


def test_flag_validation():
    with pytest.raises(SystemExit):
        main(["weight", "plus", "--n", "0"])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "uqa22.cli", "blocks", "beta", "--n", "2",
         "--i", "1", "--j", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "beta"


# -- canonical JSON writer ------------------------------------------------------
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-10**30, max_value=10**30),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_canonical_json_matches_json_dumps(obj):
    assert cli._canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


def test_canonical_json_edge_values():
    obj = {"b": [], "a": {}, "é中\U0001f600": ["\n\"\\", -7, True, False, None],
           "nested": [[[]], {"z": {"y": []}}]}
    assert cli._canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("obj", [0.5, [1, 2.0], {"a": {"b": float("nan")}},
                                 {1: "int key"}, {"a": {1, 2}}])
def test_canonical_json_rejects_inexact_and_unknown_values(obj):
    with pytest.raises(TypeError):
        cli._canonical_json(obj)


# -- bad inputs end with a message, not a traceback ------------------------------

@pytest.mark.parametrize("argv, message", [
    ("blocks rho --n 3 --row 1,5 --k 1 --target 3", "index 5 is out of range 1..3"),
    ("blocks rho --n 3 --row 1,1 --k 1 --target 3", "repeated index in argument row"),
    ("blocks rho --n 3 --row 1,5 --k 3 --target 3", "index 5 is out of range 1..3"),
    ("blocks rho --n 3 --row 1,2 --k 3 --target 3", "index 3 is not in the argument row"),
    ("blocks alpha --n 2 --i 1 --j 1", "kernel arguments must involve two distinct"),
    ("blocks alpha --n 2 --i 1 --j 3", "index 3 is out of range 1..2"),
    ("blocks matrices --n 1", "need at least two variables"),
    ("verify --suite enumeration --n 11", "brute-force enumeration is capped at n = 10"),
    ("verify --suite modes --window 1", "--window must be at least 2"),
])
def test_input_errors_exit_with_a_message(argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert isinstance(err.value.code, str)
    assert err.value.code.startswith("uqa22: ")
    assert message in err.value.code


def test_input_error_prints_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "uqa22.cli", "blocks", "alpha", "--n", "2",
         "--i", "1", "--j", "3"],
        capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stderr == "uqa22: index 3 is out of range 1..2\n"


@pytest.mark.parametrize("suite", ["oracle", "interp"])
def test_verify_with_no_case_is_not_a_pass(suite, capsys):
    code, out = invoke(capsys, ["verify", "--suite", suite, "--n", "1"])
    assert code == 1
    assert "0 cases" in out and "FAILED: no case ran" in out
