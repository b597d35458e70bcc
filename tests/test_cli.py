"""Command-line interface: artifacts, caching, exit codes."""

import enum
import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqa22 import cli
from uqa22.cli import main
from uqa22.ncalg import _symbol_json
from uqa22.projection import mode_expand, weight_minus_closed, weight_plus_closed
from uqa22.qfield import qnum, qpow
from uqa22.rmatrix import assemble_R
from uqa22.series import INF, ExpansionSeries


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


def test_weight_cache_entry_with_invalid_utf8_recovers(tmp_path, capsys):
    args = ["weight", "plus", "--n", "1", "--depth", "2",
            "--cache-dir", str(tmp_path)]
    _, first = invoke(capsys, args)
    entry = next(tmp_path.glob("*.json"))
    entry.write_bytes(b"\xff\xfe garbage")
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == first
    assert "corrupt cache entry" in captured.err
    assert "recomputing" in captured.err


def test_unreadable_cache_entry_warns_and_still_writes_the_artifact(tmp_path,
                                                                    capsys):
    cache, out = tmp_path / "cache", tmp_path / "o.json"
    args = ["weight", "plus", "--n", "1", "--depth", "2",
            "--cache-dir", str(cache)]
    _, first = invoke(capsys, args)
    entry = next(cache.glob("*.json"))
    entry.unlink()
    entry.mkdir()   # an entry path that exists but cannot be read
    code = main(args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and out.read_text() == first
    assert f"corrupt cache entry {entry}" in captured.err
    assert "recomputing" in captured.err
    assert "warning: cannot write cache entry" in captured.err
    assert entry.is_dir()


def test_rmatrix_depth_changes_only_the_echoed_field_and_the_cache_key(
        tmp_path, capsys):
    texts = []
    for depth in ("0", "20"):
        code, out = invoke(capsys, ["rmatrix", "--order", "2", "--window", "3",
                                    "--depth", depth, "--cache-dir", str(tmp_path)])
        assert code == 0
        texts.append(json.loads(out))
    assert [t.pop("depth") for t in texts] == [0, 20]
    assert texts[0] == texts[1]
    assert len(list(tmp_path.glob("*.json"))) == 2


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


def test_unwritable_cache_warns_and_still_writes_the_artifact(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = tmp_path / "o.json"
    code = main(["weight", "plus", "--n", "1", "--cache-dir", str(blocker / "sub"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning: cannot write cache entry" in captured.err
    assert not list(tmp_path.rglob(".tmp-*"))
    _, direct = invoke(capsys, ["weight", "plus", "--n", "1", "--no-cache"])
    assert out.read_text() == direct


@pytest.mark.parametrize("env, flag, where", [
    (True, False, "env"),
    (False, False, "home/.cache/uqa22"),
    (True, True, "flag"),
], ids=["environment", "home", "flag-over-environment"])
def test_cache_directory_resolution(env, flag, where, tmp_path, capsys,
                                    monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if env:
        monkeypatch.setenv("UQA22_CACHE_DIR", str(tmp_path / "env"))
    else:
        monkeypatch.delenv("UQA22_CACHE_DIR", raising=False)
    args = ["weight", "plus", "--n", "1", "--depth", "2"]
    if flag:
        args += ["--cache-dir", str(tmp_path / "flag")]
    invoke(capsys, args)
    entries = [p.parent.relative_to(tmp_path).as_posix()
               for p in tmp_path.rglob("*.json")]
    assert entries == [where]


# sha256 of the canonical JSON artifacts, recorded from the engine before
# the integer coefficient ring; any change to these bytes is a regression
# or a deliberate format change.
_SMALL_MODES = ["--n", "3", "--depth", "4", "--modes", "--window", "3"]
_BLOCK_ROW = ["--n", "4", "--row", "1,3", "--k", "3", "--target", "2"]
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
    # recorded before the closed formula and the mode expansion summed over
    # a trie of shared factors: n=4 mode words and order-3 tensors
    "weight-plus-n4-modes": (
        ["weight", "plus", "--n", "4", "--depth", "5", "--modes",
         "--window", "3"],
        "c09b31cfec10065c72447af735b2a23ef84f8738eb7f82996f7824a7c677d32c"),
    "weight-minus-n4-modes": (
        ["weight", "minus", "--n", "4", "--depth", "5", "--modes",
         "--window", "3"],
        "e9c526ef4f9fcf160b2919283e86d1b77a870ff07f02e2d8897ca113c208542e"),
    "rmatrix-order3": (
        ["rmatrix", "--order", "3", "--window", "2"],
        "d08341fb0360772a3f8c7af02ab1367ced93a48fcbfd9ff2d2b494c2b24ec3b5"),
    # recorded before the interpolation blocks became one table and the
    # closed formula and LaTeX emitters one loop over weight_structure
    "blocks-rho-json": (
        ["blocks", "rho", *_BLOCK_ROW, "--format", "json"],
        "da4720fac672a07a2ae90474c911d7b795c8a97b8787acb6b9c1a440e05a4382"),
    "blocks-rho-latex": (
        ["blocks", "rho", *_BLOCK_ROW, "--format", "latex"],
        "9edac2034905b7c9f73769c2960413bb56a977d7d48e256d4f396691ee57a0c0"),
    "blocks-lambda-json": (
        ["blocks", "lambda", *_BLOCK_ROW, "--format", "json"],
        "6d3174bcc148a643ef3895752eb88b5ad317c2743f3d57cd058acdcb0753b24f"),
    "blocks-lambda-latex": (
        ["blocks", "lambda", *_BLOCK_ROW, "--format", "latex"],
        "f12a40d0fc4c75d9aa2470ff3a708fb891a66ccaee2713835ebe0f6007361632"),
    "blocks-mu-json": (
        ["blocks", "mu", *_BLOCK_ROW, "--format", "json"],
        "215e955573a5e86256491bd34ab97cf0d1d9964a4880f19d503b55a9bf2c8ee7"),
    "blocks-mu-latex": (
        ["blocks", "mu", *_BLOCK_ROW, "--format", "latex"],
        "7e25fe4616e367ed5459a65cc4ffe69bb5f0a42763c8755124b7cc2298d0a05d"),
    "blocks-nu-json": (
        ["blocks", "nu", *_BLOCK_ROW, "--format", "json"],
        "412fda5854fb16fb7141752ad75ca3d3333517219f054699dcabafdf943cd2f8"),
    "blocks-nu-latex": (
        ["blocks", "nu", *_BLOCK_ROW, "--format", "latex"],
        "c70305f5aa45c62605180f1b39c16633bfc1775cba0b0553e8f9d2816ebddfe4"),
    "blocks-rho-tilde-json": (
        ["blocks", "rho-tilde", *_BLOCK_ROW, "--format", "json"],
        "a99d68af68c845db5d61c67ce7e77d2731c00d52dafc10b2c32ae824bf124faf"),
    "blocks-rho-tilde-latex": (
        ["blocks", "rho-tilde", *_BLOCK_ROW, "--format", "latex"],
        "e72dc162c484b49e52ead8eab7398cb2b09ac72b5c89826a6eb401c9338c5225"),
    "blocks-lambda-tilde-json": (
        ["blocks", "lambda-tilde", *_BLOCK_ROW, "--format", "json"],
        "cbb4289b28f32d8fd60510bf573906cb962ce31ec2644ca4cceb865376f7c6a3"),
    "blocks-lambda-tilde-latex": (
        ["blocks", "lambda-tilde", *_BLOCK_ROW, "--format", "latex"],
        "d844cf645a9faac010c8b913b7973dfdb359dfb38349be6ebe8b4a59fad6369b"),
    "blocks-mu-tilde-json": (
        ["blocks", "mu-tilde", *_BLOCK_ROW, "--format", "json"],
        "e15dc8cf0e636d7e77729b02229130624d696557bf6889794ef48dc0cca13689"),
    "blocks-mu-tilde-latex": (
        ["blocks", "mu-tilde", *_BLOCK_ROW, "--format", "latex"],
        "a870448c912f2210395a5d9738b211d49f9c448bb2766ed4ac7b780ccbbea867"),
    "blocks-nu-tilde-json": (
        ["blocks", "nu-tilde", *_BLOCK_ROW, "--format", "json"],
        "1f421e0350dc0f54a1a791538630523e7981eee0e09f2b62e84fadc7df3dd1c4"),
    "blocks-nu-tilde-latex": (
        ["blocks", "nu-tilde", *_BLOCK_ROW, "--format", "latex"],
        "86e81a74c401324ad17abf9973f5140719aec18fda129555c8eee1403a76362f"),
    "weight-plus-latex": (
        ["weight", "plus", "--n", "4", "--format", "latex"],
        "a14dc41b844db4266aa251fc9f46c91ab3b8b3e8db80f291a7126f4ad473aea4"),
    "weight-plus-latex-summary": (
        ["weight", "plus", "--n", "4", "--format", "latex-summary"],
        "0c86d78cc8c513b046ff5982de9cd687b19233d099b0da48bd9d4765f30c982d"),
    "weight-minus-latex": (
        ["weight", "minus", "--n", "4", "--format", "latex"],
        "b075e9a9ac32a0535a3068c133503310b12c155900bf06c2abe8dadb0eea3e3c"),
    "weight-minus-latex-summary": (
        ["weight", "minus", "--n", "4", "--format", "latex-summary"],
        "c71e96801d16177abbec94938ed1b9d8dce7ca3090b91db04d3cd8c5cf1dd867"),
    # recorded before the minus pairs and rows became the mirror of the
    # plus ones; n=5 and n=6 have several pairs per cardinality, so
    # these pin the minus pair order and the order inside each row
    "weight-minus-latex-n5": (
        ["weight", "minus", "--n", "5", "--format", "latex"],
        "dd6d59e8d169620f1a7dcc6793a69195e269baa04c53afce00795d7fd504da4e"),
    "weight-minus-latex-summary-n5": (
        ["weight", "minus", "--n", "5", "--format", "latex-summary"],
        "05ad71dfb5047cc6fdec642312cff56ac07dc85dc5872b8824ec23ffd11d6b0b"),
    "weight-minus-latex-n6": (
        ["weight", "minus", "--n", "6", "--format", "latex"],
        "5ffb3df6577458b03f83e751ad0e5c77c6a49030bcb33ee32578dce9ea603a3a"),
    "weight-minus-latex-summary-n6": (
        ["weight", "minus", "--n", "6", "--format", "latex-summary"],
        "1ffbba366bc9cb3d5d310765d6c2dc9a22fd19b4aebe3d46e953e6ca5ce571e9"),
    # recorded before the diagonal of M lost its special case
    "blocks-matrices-q2": (
        ["blocks", "matrices", "--n", "4", "--scale", "q^2"],
        "91737353c9074e49d7752dd8f22879edec0a2b59692300f2dc9b907f630b624c"),
    "blocks-matrices-minus-q-inverse": (
        ["blocks", "matrices", "--n", "4", "--scale=-q^-1"],
        "637b91fe35edce70dcb073eb2bbad444d3bcf69814d7557679df8ea1b6d5d63c"),
    # recorded before the Cartan token became a plain string; the text
    # form prints the token line
    "rmatrix-text-cartan-order-2": (
        ["rmatrix", "--order", "1", "--window", "3", "--format", "text",
         "--cartan-order", "2"],
        "5d3f26a168491369aaf960b203ded5c82c5e1e3df153b979d03995282b4abbac"),
    # recorded before the text form of mode words moved into ncalg; the
    # text form prints the mode expansion word by word
    "weight-plus-modes-text": (
        ["weight", "plus", "--n", "2", "--depth", "3", "--modes",
         "--window", "3", "--format", "text"],
        "080b50c105200d1652c4d89726899a9e4b692c9912014f4ce7c59617790b62cc"),
    "weight-minus-modes-text": (
        ["weight", "minus", "--n", "2", "--depth", "3", "--modes",
         "--window", "3", "--format", "text"],
        "d267ff03771ce0ac5f541f364bb6580ac735211c2493700d2299044b099967e2"),
    # recorded before the closed formula and the mode expansion became one
    # weighted sum that starts each product from its coefficient
    "weight-plus-n4": (
        ["weight", "plus", "--n", "4", "--depth", "5"],
        "b3bfbb3cdd53dda5adbdde62d8584768f3c857775278034b0d2fb51bba18cf65"),
    "weight-minus-n4": (
        ["weight", "minus", "--n", "4", "--depth", "5"],
        "2a8ffaa2dc8296f265bb941b7c0970d281fa9df867f2a36626ab6006228f6eea"),
    # recorded before series products packed their coefficients into
    # ints; both evaluators share that product, so the closed-vs-recursive
    # oracle cannot see a slip in it, and these pin n=5
    "weight-plus-n5": (
        ["weight", "plus", "--n", "5", "--depth", "4"],
        "f1bdd5fb23f3b60c5b149e2a30c64814078d8abf7ea5e8b211d9d1ad17203040"),
    "weight-minus-n5": (
        ["weight", "minus", "--n", "5", "--depth", "4"],
        "63dd8bf7c4858a183fabb830c11870b42e8d5fb1d81381bbc388a914fc4bda0e"),
}


@pytest.mark.parametrize("case", list(ARTIFACT_SHA256))
def test_artifacts_are_byte_identical(case, capsys):
    args, digest = ARTIFACT_SHA256[case]
    # the LaTeX formats of weight are not cached and refuse --no-cache
    latex = "--format" in args and args[args.index("--format") + 1].startswith("latex")
    if args[0] in ("weight", "rmatrix") and not latex:
        args = [*args, "--no-cache"]
    _, out = invoke(capsys, args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the kernels report, recorded before the residue constants
# became plain values and the polynomial divisions of qfield one routine;
# the suite runs the residue path and Euclid's gcd at random points
KERNELS_REPORT_SHA256 = {
    0: "c25a935d5dcfc9eef72279697e74a0901aa62e24764a1b0c4b519a7a8250f9f1",
    1: "e40877b8bcab6f5549df09823d0e4c63f8a76490393451e421a4b22d55c62bd8",
    2: "dcdf759447dcdd244b4eac00c2a1ba51355ac20747bc6cd26bcb0e1bd4070a1d",
    3: "af3897408c2a14824aac67667b7934493009b7f55d937e35177a34288c138fe1",
}


@pytest.mark.parametrize("seed", list(KERNELS_REPORT_SHA256))
def test_kernels_report_is_byte_identical(seed, tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, _ = invoke(capsys, ["verify", "--suite", "kernels", "--seed",
                              str(seed), "--report", str(report)])
    assert code == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == KERNELS_REPORT_SHA256[seed]


# verify --suite interp reports, recorded before the integer evaluation of
# FactoredRational.eval_exact and the fraction-free solve
INTERP_REPORT_SHA256 = {
    1: "c22a574561ab195aaf99c1cedb9add3ee1a24dff589f50bc7ac7da7ead28bacd",
    2: "0439ba684030a238dcb35e6dcac4f43614dc58c02a9e5d294a40392ceafa129f",
}


@pytest.mark.parametrize("seed", list(INTERP_REPORT_SHA256))
def test_interp_report_is_byte_identical(seed, tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, _ = invoke(capsys, ["verify", "--suite", "interp", "--seed",
                              str(seed), "--report", str(report)])
    assert code == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == INTERP_REPORT_SHA256[seed]


def test_weight_latex_contains_block_ratio(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "2", "--format", "latex"])
    assert "q^{2}-z_{2}/z_{1}" in out
    assert out.startswith("P\\big(f(z_{1})f(z_{2})\\big) =")


def test_weight_latex_summary(tmp_path, capsys):
    _, out = invoke(capsys, [
        "weight", "plus", "--n", "4", "--format", "latex-summary"])
    assert "\\tau^{1}_{\\{3,1\\},\\{4,2\\}}" in out
    assert "\\mathcal{S}(z_{3})\\,\\mathcal{S}(z_{3};z_{1})" in out
    _, out = invoke(capsys, [
        "weight", "minus", "--n", "2", "--format", "latex-summary"])
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
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


# trees that hold one dict or list object several times, at the same and at
# different indents, as the artifacts hold one object per distinct coefficient
@st.composite
def _trees_with_shared_objects(draw):
    shared = draw(st.one_of(
        st.lists(_json_values, min_size=1, max_size=3),
        st.dictionaries(st.text(max_size=6), _json_values, min_size=1, max_size=3)))
    outer = {"a": shared, "b": [shared, shared]}
    tree = draw(st.recursive(
        st.one_of(_json_leaves, st.just(shared), st.just(outer)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=20))
    return [tree, shared, outer, [shared, [outer]], {"x": outer, "y": shared}]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_json_values, _trees_with_shared_objects()))
def test_canonical_json_matches_json_dumps(obj):
    assert cli._canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


def test_canonical_json_edge_values():
    obj = {"b": [], "a": {}, "é中\U0001f600": ["\n\"\\", -7, True, False, None],
           "nested": [[[]], {"z": {"y": []}}]}
    assert cli._canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


_SHARED_FLOAT = {"x": {"y": [1, 0.5]}}


class _Str(str):
    pass


class _Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize("obj", [0.5, [1, 2.0], {"a": {"b": float("nan")}},
                                 {1: "int key"}, {"a": {1, 2}},
                                 [_SHARED_FLOAT, _SHARED_FLOAT, [_SHARED_FLOAT]],
                                 {"a": _Str("s")}, [_Colour.RED], _Str("s"),
                                 _Colour.RED])
def test_canonical_json_rejects_inexact_and_unknown_values(obj):
    with pytest.raises(TypeError):
        cli._canonical_json(obj)


def test_canonical_json_memo_does_not_outlive_the_call():
    coeff = {"num": [[0, "1"]], "den": [[0, "1"]]}
    tree = {"terms": [coeff, coeff, coeff, [coeff]]}
    first = cli._canonical_json(tree)
    coeff["num"] = [[1, "-2"]]
    second = cli._canonical_json(tree)
    assert first != second
    assert second == json.dumps(tree, sort_keys=True, indent=1) + "\n"


def test_canonical_json_reuses_a_shared_dict_text(monkeypatch):
    calls = []
    inner = cli._json_write

    def counting(obj, indent, memo, put):
        calls.append(obj)
        return inner(obj, indent, memo, put)

    monkeypatch.setattr(cli, "_json_write", counting)
    coeff = {"num": [[0, "1"], [1, "-2"]], "den": [[0, "1"], [3, "1"]]}
    cli._canonical_json({"terms": [coeff] * 10})
    ten = len(calls)
    calls.clear()
    text = cli._canonical_json({"terms": [coeff] * 50})
    # from its third occurrence on, each costs one call, which the memo answers
    assert len(calls) == ten + 40
    assert text == json.dumps({"terms": [coeff] * 50}, sort_keys=True, indent=1) + "\n"


# -- to_json hands out one object per distinct coefficient ----------------------
# the per-term to_json as it was before equal coefficients shared one object

def _per_term_series_json(s):
    v = s.validity
    return {"n": s.n, "validity": None if v == INF else v,
            "terms": [[list(a), c.to_json()] for a, c in sorted(s.terms.items())]}


def _per_term_ncexpr_json(e):
    v = e.validity
    return {"n": e.n, "alphabet": e.alphabet() or "mode",
            "validity": None if v == INF else v,
            "terms": [{"word": [_symbol_json(s) for s in w],
                       "coeff": _per_term_series_json(e.coeffs[w])}
                      for w in e.words()]}


def _per_term_tensor_json(t):
    return {"order": t.order, "window": t.window,
            "terms": [{"left": [_symbol_json(s) for s in l],
                       "right": [_symbol_json(s) for s in r],
                       "coeff": c.to_json()}
                      for (l, r), c in t.sorted_terms()]}


def _assert_one_object_per_value(pairs):
    """pairs: (QRat, its JSON object) over one to_json call."""
    by_value = {}
    for c, j in pairs:
        by_value.setdefault(c, []).append(j)
    for objs in by_value.values():
        assert all(j is objs[0] for j in objs)
    assert len({id(objs[0]) for objs in by_value.values()}) == len(by_value)
    return len(pairs) - len(by_value)   # terms that reused an object


def _ncexpr_pairs(e, data):
    return [(c, j[1]) for w, t in zip(e.words(), data["terms"])
            for (_, c), j in zip(sorted(e.coeffs[w].terms.items()), t["coeff"]["terms"])]


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mode_expansion_to_json_shares_equal_coefficients(sign, n):
    fn = weight_plus_closed if sign == "plus" else weight_minus_closed
    w = fn(n, 4)
    for e in (w.expr, mode_expand(w, 3)):
        data = e.to_json()
        assert data == _per_term_ncexpr_json(e)
        reused = _assert_one_object_per_value(_ncexpr_pairs(e, data))
    if n == 3:
        assert reused > 0


@pytest.mark.parametrize("order", [1, 2])
def test_rmatrix_tensor_to_json_shares_equal_coefficients(order):
    factors = assemble_R(order, 3)
    reused = 0
    for t in (factors[0], factors[2], factors[3]):
        data = t.to_json()
        assert data == _per_term_tensor_json(t)
        reused += _assert_one_object_per_value(
            [(c, j["coeff"]) for (_, c), j in zip(t.sorted_terms(), data["terms"])])
    assert reused > 0


def test_expansion_series_to_json_shares_equal_coefficients():
    q = qpow(1)
    s = ExpansionSeries(2, {(0, 0): q, (1, 0): q + 1, (0, 1): q, (1, 1): qnum(3) / (1 + q)}, 4)
    data = s.to_json()
    assert data == _per_term_series_json(s)
    pairs = [(c, j[1]) for (_, c), j in zip(sorted(s.terms.items()), data["terms"])]
    assert _assert_one_object_per_value(pairs) == 1


# -- bad inputs end with a message, not a traceback ------------------------------

@pytest.mark.parametrize("argv, message", [
    ("blocks rho --n 3 --row 1,5 --k 1 --target 3", "index 5 is out of range 1..3"),
    ("blocks rho --n 3 --row 1,1 --k 1 --target 3", "repeated index in argument row"),
    ("blocks rho --n 3 --row 1,5 --k 3 --target 3", "index 5 is out of range 1..3"),
    ("blocks rho --n 3 --row 1,2 --k 3 --target 3", "index 3 is not in the argument row"),
    ("blocks rho --n 3 --row 1,x --k 1 --target 3", "--row must be comma-separated integers"),
    ("blocks rho --n 3 --row 1,,2 --k 1 --target 3", "--row must be comma-separated integers"),
    ("blocks alpha --n 2 --i 1 --j 1", "kernel arguments must involve two distinct"),
    ("blocks alpha --n 2 --i 1 --j 3", "index 3 is out of range 1..2"),
    ("blocks rho --n 3 --row 1,2 --k 1 --target 2",
     "distinguished index repeats the row"),
    ("blocks alpha --n 2", "alpha needs --i and --j"),
    ("blocks rho --n 3 --row 1,2", "needs --row, --k and --target"),
    ("blocks matrices --n 1", "need at least two variables"),
    ("blocks matrices --n 3", "matrix parameter c = 1 (--scale) makes"),
    ("blocks matrices --n 2 --scale q^2 --format latex", "matrices have no LaTeX form"),
    ("blocks rho --n 3 --row 1,2 --k 1 --target 3 --scale q^2",
     "blocks rho does not read --scale"),
    ("blocks alpha --n 2 --i 1 --j 2 --k 1", "blocks alpha does not read --k"),
    ("blocks matrices --n 3 --scale q^2 --i 1", "blocks matrices does not read --i"),
    ("weight plus --n 2 --format latex --modes --window 3",
     "--format latex has no mode expansion"),
    ("weight plus --n 2 --format latex-summary --modes --window 3",
     "--format latex-summary has no mode expansion"),
    ("weight plus --n 2 --window 7", "--window sets the mode expansion"),
    ("weight plus --n 2 --format latex --depth 9",
     "--format latex is not expanded and reads no --depth"),
    ("weight plus --n 2 --format latex --cache-dir cache",
     "--format latex is not cached and reads no --cache-dir"),
    ("weight plus --n 2 --format latex-summary --no-cache",
     "--format latex-summary is not cached and reads no --no-cache"),
    ("rmatrix --cartan-order -1", "--cartan-order must be at least 0"),
    ("verify --suite enumeration --n 11", "brute-force enumeration is capped at n = 10"),
    ("verify --suite interp --n 7", "the interp suite is capped at n = 6"),
    ("verify --suite modes --window 1", "--window must be at least 2"),
    ("verify --suite kernels --n 5", "suite 'kernels' does not read --n"),
    ("verify --suite duality --depth 9", "suite 'duality' does not read --depth"),
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


@pytest.mark.parametrize("argv", [
    "weight plus --n 1 --no-cache --out {dir}",
    "verify --suite kernels --report {file}/x.json",
], ids=["out-is-a-directory", "report-under-a-file"])
def test_unwritable_output_path_exits_with_a_message(argv, tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    args = argv.format(dir=tmp_path / "dir", file=tmp_path / "file").split()
    proc = subprocess.run([sys.executable, "-m", "uqa22.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("uqa22: ")
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_follow_the_umask(umask, tmp_path, capsys):
    old = os.umask(umask)
    try:
        invoke(capsys, ["weight", "plus", "--n", "1", "--depth", "2",
                        "--cache-dir", str(tmp_path / "cache"),
                        "--out", str(tmp_path / "o.json")])
        invoke(capsys, ["verify", "--suite", "kernels",
                        "--report", str(tmp_path / "rep.json")])
    finally:
        os.umask(old)
    written = [tmp_path / "o.json", tmp_path / "rep.json",
               *(tmp_path / "cache").glob("*.json")]
    assert len(written) == 3
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


@pytest.mark.parametrize("suite", ["oracle", "interp"])
def test_verify_with_no_case_is_not_a_pass(suite, capsys):
    # n = 1 would run no case: it is refused up front, with no report
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", suite, "--n", "1"])
    assert err.value.code \
        == f"uqa22: the {suite} suite runs sizes 2..n, so --n must be at least 2"
    assert capsys.readouterr().out == ""
