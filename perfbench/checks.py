"""Output checks: artifact digests, the no-float invariant, suite outcomes."""

from __future__ import annotations

import hashlib
import json
import re

# sha256 of the canonical JSON artifacts the workloads write, recorded from
# the engine as first benchmarked.  They are deterministic: any change to
# the bytes is either a bug or a deliberate format change that must update
# these digests in the same commit.
ARTIFACT_SHA256 = {
    "weight_plus.json":
        "9aa909b27c71658e9cfe0268dff3591de9bf6edcca2a3154357ffde2005d89e5",
    "weight_minus.json":
        "1ec0133d4b793868cd11e47daa9fa6006810040bb1a0305a3fa9aa4cd611fd70",
    "rmatrix.json":
        "d9d63866bb5397656691143b76a69ffb85429240ad76279ef6e0e9244adce864",
}

# The two transcribed displays that are internally inconsistent with the
# construction; the goldens suite must report exactly these as failures.
KNOWN_GOLDEN_FAILURES = frozenset({"n3/tau/I=1,J=3", "n3/tau/I=2,J=3"})

_EXACT = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def inexact_values(text: str):
    """Every value in a JSON artifact that is not an exact rational.

    Coefficients are serialised as ``[exponent, "p/q"]`` pairs; a float
    literal anywhere in the document is inexact too.
    """
    bad = []

    def reject(token):
        bad.append(token)
        return None

    doc = json.loads(text, parse_float=reject, parse_constant=reject)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            if (len(node) == 2 and type(node[0]) is int
                    and isinstance(node[1], str)):
                if not _EXACT.fullmatch(node[1]):
                    bad.append(node[1])
                return
            for v in node:
                walk(v)

    walk(doc)
    return bad


def goldens_outcome(report: dict):
    """(ok, detail): the goldens suite fails on exactly the known displays.

    A new failure and a known failure that turns green both count as
    wrong: the second means the inconsistent transcription now matches.
    """
    got = {f["case"] for f in report["failures"]}
    new = sorted(got - KNOWN_GOLDEN_FAILURES)
    fixed = sorted(KNOWN_GOLDEN_FAILURES - got)
    if not new and not fixed:
        return True, ""
    parts = []
    if new:
        parts.append(f"new failures {new}")
    if fixed:
        parts.append(f"known failures now passing {fixed}")
    return False, "; ".join(parts)
