"""The two workloads, as ``uqa22`` command lines, and their output checks.

Why each workload exists is recorded in README.md next to this file.
Every argv writes its artifact or report into the sample's own work
directory and points the artifact cache at an empty directory there, so
a sample never reads ``~/.cache/uqa22`` and always starts cold.
"""

from __future__ import annotations

import json
import os

from checks import ARTIFACT_SHA256, goldens_outcome, inexact_values, sha256_file

NAMES = ("verify", "artifacts")

SUITES = ("oracle", "goldens", "interp", "kernels", "duality", "enumeration", "modes")

_SUITE_ARGS = {"oracle": ["--n", "4", "--depth", "5"]}

_WEIGHT = ["--n", "3", "--depth", "4", "--modes", "--window", "5"]

ARTIFACTS = ("weight_plus.json", "weight_minus.json", "rmatrix.json")


def _cached(work, out):
    return ["--cache-dir", os.path.join(work, "cache"), "--out", os.path.join(work, out)]


def jobs(name: str, seed: int, work: str):
    """The timed command lines of one sample."""
    if name == "verify":
        return [["verify", "--suite", s, *_SUITE_ARGS.get(s, []), "--seed", str(seed),
                 "--report", os.path.join(work, f"verify_{s}.json")]
                for s in SUITES]
    if name == "artifacts":
        return [["weight", "plus", *_WEIGHT, *_cached(work, "weight_plus.json")],
                ["weight", "minus", *_WEIGHT, *_cached(work, "weight_minus.json")],
                ["rmatrix", "--order", "2", "--window", "8",
                 *_cached(work, "rmatrix.json")]]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def cache_hit_job(name: str, work: str):
    """The untimed repeat that must be served from the artifact cache."""
    if name == "artifacts":
        return ["weight", "plus", *_WEIGHT, *_cached(work, "weight_plus_hit.json")]
    return None


def check(name: str, work: str, sample: dict):
    """Run every output check of one sample; returns [(check, ok, detail)]."""
    out = []
    codes = sample["exit_codes"]
    if name == "verify":
        for suite, code in zip(SUITES, codes):
            with open(os.path.join(work, f"verify_{suite}.json")) as f:
                rep = json.load(f)
            if suite == "goldens":
                ok, detail = goldens_outcome(rep)
                ok = ok and code == 1
            else:
                ok = code == 0 and not rep["failures"] and rep["cases"] > 0
                detail = json.dumps(rep["failures"][:3])
            out.append((f"verify/{suite}", ok, detail))
        return out
    out.append(("exit-codes", codes == [0] * len(codes), str(codes)))
    for fname in ARTIFACTS:
        path = os.path.join(work, fname)
        digest = sha256_file(path)
        out.append((f"sha256/{fname}", digest == ARTIFACT_SHA256[fname], digest))
        with open(path) as f:
            bad = inexact_values(f.read())
        out.append((f"exact/{fname}", not bad, f"inexact values {bad[:5]}"))
    with open(os.path.join(work, "weight_plus.json"), "rb") as f:
        first = f.read()
    with open(os.path.join(work, "weight_plus_hit.json"), "rb") as f:
        again = f.read()
    ok = sample["cache_hit_engine_calls"] == 0 and again == first
    out.append(("cache-hit/weight_plus", ok,
                f"engine calls {sample['cache_hit_engine_calls']}, "
                f"bytes equal {again == first}"))
    return out
