"""One cold sample of a workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'`` from the
repository root.  The spec names the workload, seed, work directory,
whether to trace and whether to run the reference clock (``refclock.py``)
during the job, which rescales ``job_s`` and ``cpu_s``.  The sample imports the engine from ``src``, runs the
workload's command lines through ``uqa22.cli.main`` and prints one JSON
object with its timings as the last line of standard output.  With
``"probe": true`` it runs the fixed-input layer probes instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.abspath("src"))

from uqa22 import blocks, cli, goldens, ncalg, projection, qfield, rmatrix, series, verify  # noqa: E402

import workloads  # noqa: E402
from refclock import RefClock, scaled  # noqa: E402
from spans import Tracer  # noqa: E402

_FS_CACHES = (projection._f_expr, projection._s_expr,
              projection._f_tilde_expr, projection._s_tilde_expr)


# -- counters recorded inside spans ------------------------------------------

def _count_qpoly_mul(c, args, result):
    c["qfield.qpoly_mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_qrat_add(c, args, result):
    a, b = args
    if not a.den.is_one() or (isinstance(b, qfield.QRat) and not b.den.is_one()):
        c["qfield.qrat_add.nontrivial_den"] += 1


def _degree_histogram(s):
    h = {}
    for a in s.terms:
        d = series.ratio_degree(a)
        h[d] = h.get(d, 0) + 1
    return h


def _count_series_mul(c, args, result):
    a, b = args
    c["series.mul.pairs"] += len(a.terms) * len(b.terms)
    ha, hb = _degree_histogram(a), _degree_histogram(b)
    v = result.validity
    c["series.mul.kept"] += sum(na * nb for da, na in ha.items()
                                for db, nb in hb.items() if da + db <= v)


def _count_expand(c, args, result):
    c["series.expand.terms_out"] += len(result.terms)


def _count_nc_mul(c, args, result):
    a, b = args
    na, nb = len(a.coeffs), len(b.coeffs)
    ma = sum(1 for s in a.coeffs.values() if len(s.terms) == 1)
    mb = sum(1 for s in b.coeffs.values() if len(s.terms) == 1)
    c["ncalg.mul.word_pairs"] += na * nb
    c["ncalg.mul.monomial_pairs"] += ma * nb + mb * na - ma * mb


def _count_mode_expand(c, args, result):
    window = args[1]
    c["projection.mode_expand.words_out"] += len(result.coeffs)
    c["projection.mode_expand.in_window"] += sum(
        1 for w in result.coeffs if all(abs(s.index) <= window for s in w))


def _count_r_factor(c, args, result):
    c["rmatrix.r_factor.terms_out"] += len(result.terms)


def install(tracer: Tracer):
    """Wrap the public entry points of every layer."""
    QPoly, QRat = qfield.QPoly, qfield.QRat
    m = tracer.patch_method
    m(QPoly, QPoly.__mul__, "qfield.qpoly_mul", _count_qpoly_mul)
    m(QRat, QRat.__add__, "qfield.qrat_add", _count_qrat_add)
    m(QRat, QRat.__mul__, "qfield.qrat_mul")
    m(series.ExpansionSeries, series.ExpansionSeries.mul, "series.mul", _count_series_mul)
    m(series.FactoredRational, series.FactoredRational.expand, "series.expand", _count_expand)
    m(series.FactoredRational, series.FactoredRational.eval_exact, "series.eval_exact")
    m(ncalg.NCExpr, ncalg.NCExpr.__mul__, "ncalg.mul", _count_nc_mul)
    m(ncalg.NCExpr, ncalg.NCExpr.__add__, "ncalg.add")
    m(ncalg.NCExpr, ncalg.NCExpr.to_json, "cli.serialise")
    m(rmatrix.TensorExpr, rmatrix.TensorExpr.to_json, "cli.serialise")
    f = tracer.patch_function
    for fn in (blocks.build_block, blocks.build_tilde_block, blocks.build_kernel):
        f("uqa22", fn, "blocks.build")
    for fn in (blocks.solve_exact, blocks.det_exact):
        f("uqa22", fn, "blocks.linalg")
    for fn in (projection.weight_plus_closed, projection.weight_minus_closed):
        f("uqa22", fn, "projection.closed")
    f("uqa22", projection.weight_plus_recursive, "projection.recursive")
    f("uqa22", projection.mode_expand, "projection.mode_expand", _count_mode_expand)
    f("uqa22", rmatrix.r_factor, "rmatrix.r_factor", _count_r_factor)
    f("uqa22", verify.run_suite, lambda args: "verify." + args[0])
    f("uqa22", cli._canonical_json, "cli.serialise")


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, fs_before, fs_after):
    totals = tracer.totals()
    c = tracer.counters

    def calls(n):
        return totals.get(n, (0, 0.0, 0.0))[0]

    def self_s(n):
        return totals.get(n, (0, 0.0, 0.0))[2]

    out = {}
    for n in ("qfield.qpoly_mul", "qfield.qrat_add", "qfield.qrat_mul", "series.mul",
              "series.expand", "series.eval_exact", "ncalg.mul", "blocks.build"):
        out[n + ".calls"] = calls(n)
    for n in ("qfield.qpoly_mul", "qfield.qrat_add", "qfield.qrat_mul", "series.mul",
              "series.expand", "series.eval_exact", "ncalg.mul", "ncalg.add",
              "blocks.build", "blocks.linalg", "projection.closed",
              "projection.recursive", "projection.mode_expand", "rmatrix.r_factor"):
        out[n + ".self_s"] = self_s(n)
    out["qfield.qpoly_mul.coeff_products"] = c["qfield.qpoly_mul.coeff_products"]
    out["qfield.qrat_add.nontrivial_den_frac"] = _frac(
        c["qfield.qrat_add.nontrivial_den"], calls("qfield.qrat_add"))
    out["series.mul.pairs"] = c["series.mul.pairs"]
    out["series.mul.kept_frac"] = _frac(c["series.mul.kept"], c["series.mul.pairs"])
    out["series.expand.terms_out"] = c["series.expand.terms_out"]
    out["ncalg.mul.word_pairs"] = c["ncalg.mul.word_pairs"]
    out["ncalg.mul.monomial_frac"] = _frac(c["ncalg.mul.monomial_pairs"],
                                           c["ncalg.mul.word_pairs"])
    hits = sum(a.hits - b.hits for a, b in zip(fs_after, fs_before))
    misses = sum(a.misses - b.misses for a, b in zip(fs_after, fs_before))
    out["projection.fs.calls"] = hits + misses
    out["projection.fs.hit_frac"] = _frac(hits, hits + misses)
    out["projection.mode_expand.words_out"] = c["projection.mode_expand.words_out"]
    out["projection.mode_expand.in_window_frac"] = _frac(
        c["projection.mode_expand.in_window"], c["projection.mode_expand.words_out"])
    out["rmatrix.r_factor.terms_out"] = c["rmatrix.r_factor.terms_out"]
    for suite in verify.SUITE_NAMES:
        out[f"verify.{suite}.s"] = totals.get("verify." + suite, (0, 0.0, 0.0))[1]
    out["cli.serialise_s"] = self_s("cli.serialise")
    out["trace.spans"] = len(tracer.names)
    return out


# -- one sample ---------------------------------------------------------------

def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def sample(spec):
    name, seed, work = spec["workload"], spec["seed"], spec["work"]
    t = perf_counter()
    goldens.golden_cases()
    goldens_load_s = perf_counter() - t
    if any(f.cache_info().currsize for f in _FS_CACHES):
        raise RuntimeError("projection caches are not empty at sample start")

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        install(tracer)
    fs_before = [f.cache_info() for f in _FS_CACHES]
    clock = RefClock() if spec.get("refclock") else None
    argvs = workloads.jobs(name, seed, work)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    if clock:
        clock.start()
    codes = [_run_cli(argv) for argv in argvs]
    if clock:
        clock.stop()
    t1 = perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    fs_after = [f.cache_info() for f in _FS_CACHES]
    out = {
        "job_s": t1 - t0,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "exit_codes": codes,
        "goldens.load_s": goldens_load_s,
    }
    if clock:
        # the chunks ran inside the timed span; take them out, then rescale
        chunk_s, chunk_cpu_s = clock.wall / clock.chunks, clock.cpu / clock.chunks
        out["raw_job_s"] = out["job_s"] - clock.wall
        out["raw_cpu_s"] = out["cpu_s"] - clock.cpu
        out["chunk_s"] = chunk_s
        out["job_s"] = scaled(out["raw_job_s"], chunk_s)
        out["cpu_s"] = scaled(out["raw_cpu_s"], chunk_cpu_s)
    if tracer:
        tracer.restore()
        out["layers"] = layer_metrics(tracer, fs_before, fs_after)
        tracer.dump(os.path.join(work, "spans.json"))

    hit = workloads.cache_hit_job(name, work)
    if hit is not None:
        engine_calls = []
        original = cli.weight_plus_closed
        cli.weight_plus_closed = lambda *a: engine_calls.append(a) or original(*a)
        try:
            t = perf_counter()
            out["exit_codes"].append(_run_cli(hit))
            out["cache_hit_s"] = perf_counter() - t
        finally:
            cli.weight_plus_closed = original
        out["cache_hit_engine_calls"] = len(engine_calls)
    out["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(work, f)) for f in os.listdir(work)
        if f.endswith(".json") and f not in ("spans.json", "weight_plus_hit.json"))
    return out


# -- fixed-input probes ---------------------------------------------------------

def _per_call(fn, min_s=0.1, batches=5):
    """Median seconds per call over ``batches`` batches of ``min_s`` each."""
    fn()
    t = perf_counter()
    reps = 0
    while perf_counter() - t < min_s / 10:
        fn()
        reps += 1
    reps = max(1, reps * 10)
    times = []
    for _ in range(batches):
        t = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t) / reps)
    return statistics.median(times)


def probes():
    from uqa22.blocks import ArgList, build_block, build_kernel
    from uqa22.ncalg import PF_PLUS, PS_PLUS, NCExpr, abstract
    from uqa22.projection import symbol_modes, weight_plus_closed
    from uqa22.qfield import QPoly, qnum

    # QPoly.__mul__ on two length-20 polynomials with small integer coefficients
    a = QPoly(-3, [(7 * k) % 11 - 5 or 1 for k in range(20)])
    b = QPoly(2, [(5 * k) % 13 - 6 or 1 for k in range(20)])
    # one ExpansionSeries.mul at n=4, depth 6: a rho block times an alpha kernel
    sa = build_block("rho", ArgList((1, 2, 3), 4), 1, 4).expand(6)
    sb = build_kernel("alpha", qnum(1), 1, 4, 4).expand(6)
    # one NCExpr.__mul__ of two mode tables (single-monomial coefficients)
    ma = symbol_modes(abstract(PS_PLUS, 1), 3, 5)
    mb = symbol_modes(abstract(PF_PLUS, 2), 3, 5)
    # one mode_expand step: a weight coefficient times its first symbol's table
    w = weight_plus_closed(3, 6)
    word = max(w.expr.coeffs, key=lambda wd: (len(wd), wd))
    term = NCExpr(3, {(): w.expr.coeffs[word]})
    part = symbol_modes(word[0], 3, 5)
    return {
        "probe.qpoly_mul_len20_us": _per_call(lambda: a * b) * 1e6,
        "probe.series_mul_n4d6_ms": _per_call(lambda: sa.mul(sb)) * 1e3,
        "probe.ncexpr_mul_ms": _per_call(lambda: ma * mb) * 1e3,
        "probe.mode_expand_step_ms": _per_call(lambda: term * part) * 1e3,
    }


def main():
    spec = json.loads(sys.argv[1])
    result = probes() if spec.get("probe") else sample(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
