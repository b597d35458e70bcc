"""Loader and comparators for the hand-transcribed reference displays.

The JSON data file holds transcriptions only; everything engine-side is
rebuilt here from the public constructors, so a golden comparison always
pits an independent transcription against the live code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .blocks import SCALES, ArgList, build_block, build_kernel
from .ncalg import mode
from .projection import (
    PLUS,
    AdmissiblePair,
    f_row,
    tau_factored,
    weight_structure,
    _ps_plus_modes,
)
from .qfield import QPoly, QRat, qnum
from .series import FactoredRational


def _load():
    with resources.files("uqa22.data").joinpath("reference_displays.json").open() as f:
        return json.load(f)


def _qrat(num_json, den_json) -> QRat:
    return QRat(QPoly.from_json(num_json), QPoly.from_json(den_json))


def display_to_factored(n: int, disp) -> FactoredRational:
    """Turn a transcribed ratio display into an exact factored rational."""
    scalar = _qrat(disp["scalar_num"], disp.get("scalar_den", [[0, "1"]]))
    mono = [0] * n
    for var, e in disp.get("monomial", {}).items():
        mono[int(var) - 1] += e
    factors = []
    for atom in disp["atoms"]:
        a = QRat(QPoly.from_json(atom["a"]))
        b = QRat(QPoly.from_json(atom["b"]))
        top, bot, m = atom["top"], atom["bot"], atom["m"]
        factors.append((b, top, a, bot, m))
        mono[bot - 1] -= m
    return FactoredRational(n, scalar, mono, factors)


def product_to_factored(n: int, prod) -> FactoredRational:
    """Turn a transcribed lambda-and-alphas product into a factored rational."""
    lam = prod["lambda"]
    out = build_block("lambda", ArgList(tuple(lam["row"]), lam["target"]),
                      lam["k"], n)
    if prod.get("sign", 1) == -1:
        out = out.scale(-1)
    for a in prod["alphas"]:
        out = out * build_kernel("alpha", SCALES[a["scale"]],
                                 a["num"], a["den"], n)
    return out


def engine_factored(n: int, ref) -> FactoredRational:
    """Build the engine-side exact rational a golden entry points at."""
    if "block" in ref:
        args = ArgList(tuple(ref["row"]), ref["target"])
        return build_block(ref["block"], args, ref["k"], n)
    if "tau" in ref:
        t = ref["tau"]
        pair = AdmissiblePair(tuple(t["I"]), tuple(t["J"]), PLUS, n)
        return tau_factored(pair, t["k"])
    raise ValueError(f"unknown engine reference {ref!r}")


@dataclass
class GoldenCase:
    id: str
    kind: str
    consistent: bool = True
    note: str = ""
    run: object = None  # callable returning (ok: bool, detail: str)


def _series_case(entry, depth: int) -> GoldenCase:
    def run():
        n = entry["n"]
        eng = engine_factored(n, entry["engine"]).expand(depth)
        if "display" in entry:
            ref = display_to_factored(n, entry["display"]).expand(depth)
        else:
            ref = product_to_factored(n, entry["product"]).expand(depth)
        bound = min(eng.validity, ref.validity)
        if eng.equal_up_to(ref, bound):
            return True, ""
        return False, "expansion mismatch"
    return GoldenCase(entry["id"], "series", entry.get("consistent", True),
                      entry.get("note", ""), run)


def _assignment_case(entry) -> GoldenCase:
    def run():
        n = entry["n"]
        pair = AdmissiblePair(tuple(entry["pair"]["I"]),
                              tuple(entry["pair"]["J"]), PLUS, n)
        row, target = f_row(pair, entry["k"])
        want_row, want_t = tuple(entry["row"]), entry["target"]
        if target != want_t:
            return False, f"target {target} != {want_t}"
        if entry.get("exact_order", False):
            ok = row == want_row
        else:
            ok = sorted(row) == sorted(want_row)
        return ok, "" if ok else f"row {row} != {want_row}"
    return GoldenCase(entry["id"], "assignment", run=run)


def _structure_case(entry) -> GoldenCase:
    def run():
        n = entry["n"]
        got = {
            (term.pair.I, term.pair.J): (term.s_rows, term.f_rows)
            for term in weight_structure(n, PLUS)
        }
        want = {
            (tuple(t["I"]), tuple(t["J"])):
                (tuple((tuple(r), tg) for r, tg in t["s"]),
                 tuple((tuple(r), tg) for r, tg in t["f"]))
            for t in entry["terms"]
        }
        if not entry.get("subset", False) and set(got) != set(want):
            return False, "term sets differ"
        bad = [k for k, v in want.items() if got.get(k) != v]
        if bad:
            return False, f"mismatched terms {sorted(bad)}"
        return True, ""
    return GoldenCase(entry["id"], "structure", run=run)


def _mode_case(data, window: int) -> GoldenCase:
    shapes = data["shapes"]
    pref = _qrat(data["prefactor_num"], data["prefactor_den"])

    def run():
        ps = _ps_plus_modes(1, 1, window, False)
        for m in range(1, window + 1):
            want = {}
            for shape in shapes:
                idx = tuple(m if t == "m" else (m - 1 if t == "m-1" else int(t))
                            for t in shape["word"])
                word = tuple(mode("f", i) for i in idx)
                c = pref * QRat(QPoly.from_json(shape["coeff"]))
                want[word] = want.get(word, qnum(0)) + c
            for word, c in want.items():
                got = ps.coefficient(word).coefficient((-m,))
                if got != c:
                    return False, f"coefficient of {word} at z^-{m}"
            for word, series in ps.coeffs.items():
                c = series.coefficient((-m,))
                if not c.is_zero() and word not in want:
                    return False, f"unexpected word {word} at z^-{m}"
        return True, ""

    return GoldenCase("mode/ps_plus-display", "mode", run=run)


def golden_cases(depth: int = 8, window: int = 6):
    """Every reference comparison as a runnable case list."""
    data = _load()
    cases = [_series_case(e, depth) for e in data["ratio_entries"]]
    cases += [_series_case(e, depth) for e in data["tau_products"]]
    cases += [_assignment_case(e) for e in data["f_assignments"]]
    cases += [_structure_case(e) for e in data["structures"]]
    cases.append(_mode_case(data["mode_displays"]["ps_plus"], window))
    return cases
