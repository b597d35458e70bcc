"""Command-line front end.

Subcommands: ``weight`` (compute a weight function, optionally with its
mode expansion), ``rmatrix`` (pairing-tensor factors and Cartan
coefficients), ``blocks`` (dump any scalar building block), and
``verify`` (run a verification suite).  JSON artifacts are canonical and
cached by a content key that covers the configuration, the package
version and the engine sources; repeated invocations with the same
configuration return byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, render
from .blocks import (SCALES, ArgList, build_block, build_kernel, build_matrices,
                     build_tilde_block)
from .ncalg import NCExpr, _symbol_str
from .projection import PLUS, mode_expand, weight_minus_closed, weight_plus_closed
from .rmatrix import TensorExpr, assemble_R, cartan_coeff
from .verify import SUITE_NAMES, run_suite

SCHEMA_VERSION = 1


def _json_text(obj, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` of an exact value,
    nested at ``indent``.  Each container joins its items once."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = indent + " "
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"non-string key {key!r} in canonical JSON")
        items = [encode_basestring_ascii(k) + ": " + _json_text(obj[k], inner)
                 for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = indent + " "
        items = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is int:
        return int.__repr__(obj)
    raise TypeError(f"{t.__name__} value {obj!r} is not allowed in canonical JSON")


def _canonical_json(obj) -> str:
    """The canonical artifact text: sorted keys, one-space indent, ASCII.

    Only str, int, bool, None, lists, tuples and str-keyed dicts are
    accepted; a float or any other type raises ``TypeError``.
    """
    return _json_text(obj, "") + "\n"


def _cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get("UQA22_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "uqa22"


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@lru_cache(maxsize=1)
def _engine_fingerprint(root: Path = Path(__file__).parent) -> str:
    """sha256 over the engine's sources and data files, once per process."""
    h = hashlib.sha256()
    for path in sorted([*root.glob("*.py"), *root.glob("data/*.json")]):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _cached(args, key_fields: dict, compute):
    """Return the canonical JSON text for a computation, via the cache.

    The key covers the parameters, the schema and package versions and
    the engine fingerprint, so an entry written by another engine is
    never served; an entry whose ``schema`` field is not the one this
    command writes is recomputed.
    """
    schema = f"uqa22/{key_fields['cmd']}/v{SCHEMA_VERSION}"
    key_fields = dict(key_fields, schema=SCHEMA_VERSION, version=__version__,
                      engine=_engine_fingerprint())
    key = hashlib.sha256(
        json.dumps(key_fields, sort_keys=True).encode()).hexdigest()
    cdir = _cache_dir(args)
    if cdir is not None:
        path = cdir / f"{key}.json"
        if path.exists():
            try:
                text = path.read_text()
                data = json.loads(text)
            except ValueError:  # UnicodeDecodeError included
                print(f"warning: corrupt cache entry {path}; recomputing",
                      file=sys.stderr)
            else:
                found = data.get("schema") if isinstance(data, dict) else None
                if found == schema:
                    return text
                print(f"warning: cache entry {path} has schema {found!r}, "
                      f"expected {schema!r}; recomputing", file=sys.stderr)
    text = _canonical_json(compute())
    if cdir is not None:
        _atomic_write(cdir / f"{key}.json", text)
    return text


def _emit(args, text: str):
    if args.out:
        _atomic_write(Path(args.out), text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_weight(args) -> int:
    if args.format.startswith("latex"):
        if args.modes:
            raise SystemExit(f"uqa22: --format {args.format} has no mode "
                             "expansion; drop --modes or use --format json or text")
        if args.depth is not None:
            raise SystemExit(f"uqa22: --format {args.format} is not expanded "
                             "and reads no --depth; drop it or use --format "
                             "json or text")
    if args.window is not None and not args.modes:
        raise SystemExit("uqa22: --window sets the mode expansion; add --modes "
                         "or drop --window")
    if args.format == "latex":
        _emit(args, render.latex_weight(args.n, args.sign))
        return 0
    if args.format == "latex-summary":
        _emit(args, render.latex_weight_summary(args.n, args.sign))
        return 0
    depth = 6 if args.depth is None else args.depth
    window = (4 if args.window is None else args.window) if args.modes else None

    def compute():
        fn = weight_plus_closed if args.sign == PLUS else weight_minus_closed
        w = fn(args.n, depth)
        out = {
            "schema": f"uqa22/weight/v{SCHEMA_VERSION}",
            "sign": args.sign,
            "n": args.n,
            "depth": depth,
            "expr": w.expr.to_json(),
        }
        if args.modes:
            out["window"] = window
            out["modes"] = mode_expand(w, window).to_json()
        return out

    key = {"cmd": "weight", "sign": args.sign, "n": args.n, "depth": depth,
           "modes": bool(args.modes), "window": window}
    text = _cached(args, key, compute)
    if args.format == "text":
        data = json.loads(text)
        lines = [f"weight {data['sign']} n={data['n']} depth={data['depth']}",
                 str(NCExpr.from_json(data["expr"]))]
        if args.modes:
            lines.append("modes:")
            lines.append(str(NCExpr.from_json(data["modes"])))
        _emit(args, "\n".join(lines))
    else:
        _emit(args, text)
    return 0


def _cmd_rmatrix(args) -> int:
    def compute():
        factors = assemble_R(args.order, args.depth, args.window,
                             args.cartan_order)
        return {
            "schema": f"uqa22/rmatrix/v{SCHEMA_VERSION}",
            "order": args.order,
            "depth": args.depth,
            "window": args.window,
            "factors": [
                {"name": "r_plus_21", "tensor": factors[0].to_json()},
                {"name": "h_token", "token": factors[1]},
                {"name": "cartan_21", "tensor": factors[2].to_json()},
                {"name": "r_minus", "tensor": factors[3].to_json()},
            ],
            "cartan_coeffs": [
                [k, cartan_coeff(k).to_json()]
                for k in range(1, args.window + 1)
            ],
        }

    key = {"cmd": "rmatrix", "order": args.order, "depth": args.depth,
           "window": args.window, "cartan_order": args.cartan_order}
    text = _cached(args, key, compute)
    if args.format == "text":
        data = json.loads(text)
        lines = [f"R-matrix factors, order {data['order']}, "
                 f"window {data['window']}"]
        for fac in data["factors"]:
            if "token" in fac:
                lines.append(f"-- {fac['name']}: {fac['token']}")
                continue
            lines.append(f"-- {fac['name']}:")
            tensor = TensorExpr.from_json(fac["tensor"])
            for (l, r), c in tensor.sorted_terms():
                lw = " ".join(map(_symbol_str, l)) or "1"
                rw = " ".join(map(_symbol_str, r)) or "1"
                lines.append(f"   ({lw}) (x) ({rw})   *   {c}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, text)
    return 0


def _parse_row(text: str | None):
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"--row must be comma-separated integers, got {text!r}") from None


def _check_indices(n: int, *indices):
    for x in indices:
        if not 1 <= x <= n:
            raise ValueError(f"index {x} is out of range 1..{n}")


def _cmd_blocks(args) -> int:
    kind = args.kind
    kernel = kind in ("alpha", "beta", "gamma")
    reads = (("i", "j", "scale") if kernel else ("scale",)
             if kind == "matrices" else ("row", "k", "target"))
    for flag in ("row", "k", "target", "i", "j", "scale"):
        if flag not in reads and getattr(args, flag) is not None:
            raise SystemExit(f"uqa22: blocks {kind} does not read --{flag}")
    scale = "1" if args.scale is None else args.scale
    if kernel:
        if args.i is None or args.j is None:
            raise SystemExit(f"uqa22: {kind} needs --i and --j")
        _check_indices(args.n, args.i, args.j)
        fr = build_kernel(kind, SCALES[scale], args.i, args.j, args.n)
    elif kind == "matrices":
        if args.format == "latex":
            raise SystemExit("uqa22: matrices have no LaTeX form; use --format json")
        m, v, w = build_matrices(SCALES[scale], args.n)
        out = {
            "schema": f"uqa22/matrices/v{SCHEMA_VERSION}",
            "c": scale,
            "n": args.n,
            "M": [[e.to_json() for e in row] for row in m],
            "V": [e.to_json() for e in v],
            "W": [e.to_json() for e in w],
        }
        _emit(args, _canonical_json(out))
        return 0
    else:
        if args.k is None or args.target is None:
            raise SystemExit(f"uqa22: {kind} needs --row, --k and --target")
        row = _parse_row(args.row)
        _check_indices(args.n, *row, args.k, args.target)
        arglist = ArgList(row, args.target)
        if kind.endswith("-tilde"):
            fr = build_tilde_block(kind[:-6], arglist, args.k, args.n)
        else:
            fr = build_block(kind, arglist, args.k, args.n)
    if args.format == "latex":
        _emit(args, render.latex_ratio(fr))
    else:
        _emit(args, _canonical_json(
            {"schema": f"uqa22/block/v{SCHEMA_VERSION}", "kind": kind,
             "value": fr.to_json()}))
    return 0


def _cmd_verify(args) -> int:
    rep = run_suite(args.suite, n=args.n, depth=args.depth,
                    window=args.window, seed=args.seed)
    text = _canonical_json(rep.to_json())
    if args.report:
        _atomic_write(Path(args.report), text)
    status = "ok" if rep.passed else "FAILED" if rep.cases else "FAILED: no case ran"
    print(f"suite {rep.suite}: {rep.cases} cases, "
          f"{len(rep.failures)} failures [{status}]")
    for f in rep.failures:
        print(f"  fail: {f['case']}  {f['detail']}")
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="uqa22",
        description="Exact weight functions and R-matrix factors for the "
                    "twisted quantum affine algebra of type A2(2).")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices, cached=True):
        sp.add_argument("--out", help="write the artifact to this path")
        if cached:
            sp.add_argument("--cache-dir", help="cache directory "
                            "(default: $UQA22_CACHE_DIR or ~/.cache/uqa22)")
            sp.add_argument("--no-cache", action="store_true",
                            help="bypass the artifact cache")
        sp.add_argument("--format", choices=fmt_choices,
                        default=fmt_choices[0])

    w = sub.add_parser("weight", help="compute a weight function")
    w.add_argument("sign", choices=("plus", "minus"))
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--depth", type=int, help="expansion depth (default 6)")
    w.add_argument("--modes", action="store_true",
                   help="also emit the mode expansion")
    w.add_argument("--window", type=int,
                   help="mode window of --modes (default 4)")
    common(w, ("json", "latex", "latex-summary", "text"))
    w.set_defaults(fn=_cmd_weight)

    r = sub.add_parser("rmatrix", help="pairing-tensor factors")
    r.add_argument("--order", type=int, default=1)
    r.add_argument("--depth", type=int, default=4)
    r.add_argument("--window", type=int, default=4)
    r.add_argument("--cartan-order", type=int, default=1)
    common(r, ("json", "text"))
    r.set_defaults(fn=_cmd_rmatrix)

    b = sub.add_parser("blocks", help="dump a scalar building block")
    b.add_argument("kind", choices=(
        "rho", "lambda", "mu", "nu",
        "rho-tilde", "lambda-tilde", "mu-tilde", "nu-tilde",
        "alpha", "beta", "gamma", "matrices"))
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--row", help="comma-separated row indices")
    b.add_argument("--k", type=int, help="distinguished row index")
    b.add_argument("--target", type=int)
    b.add_argument("--i", type=int, help="kernel numerator variable")
    b.add_argument("--j", type=int, help="kernel denominator variable")
    b.add_argument("--scale", choices=tuple(SCALES),
                   help="kernel argument scale or matrix parameter c "
                        "(default 1)")
    common(b, ("json", "latex"), cached=False)
    b.set_defaults(fn=_cmd_blocks)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--n", type=int)
    v.add_argument("--depth", type=int)
    v.add_argument("--window", type=int)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", help="write the JSON report to this path")
    v.set_defaults(fn=_cmd_verify)

    return p


def _validate(args):
    for name, low in (("n", 1), ("depth", 0), ("window", 1), ("order", 0),
                      ("cartan_order", 0), ("k", 1), ("target", 1)):
        val = getattr(args, name, None)
        if val is not None and val < low:
            flag = name.replace("_", "-")
            raise SystemExit(f"uqa22: --{flag} must be at least {low}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _validate(args)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # an input the parser cannot judge alone (a repeated index, a
        # size past a suite's cap, an unwritable output path);
        # arithmetic faults still propagate
        raise SystemExit(f"uqa22: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
