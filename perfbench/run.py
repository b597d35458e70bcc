"""Benchmark of the uqa22 engine, driven through its command line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Run from the repository root.  Every sample is a fresh interpreter that
imports the engine from ``src`` and runs the workload's ``uqa22`` command
lines (see ``workloads.py``), so the lru caches and the artifact cache
start empty.  Samples repeat until the next one would overrun
``--seconds``; at least one always runs.  Every sample's outputs are
checked.

With ``--trace 0`` the end-to-end metrics are reported: the median over
samples of ``job_s`` (wall), ``cpu_s`` and ``peak_rss_mb``, and ``setup_s``,
the median of several fresh interpreter start-ups to an importable engine
with the goldens loaded.  The three timings are rescaled to a nominal
machine speed by the reference clock in ``refclock.py``; the unscaled
times are printed and recorded beside them.  With ``--trace 1`` one untraced and one traced
sample run, and the per-layer metrics come from the spans of the traced
one, plus the fixed-input probes and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with quartiles, sample counts and the environment, is written to
``.bench_work/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import refclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_ROOT = ".bench_work"
SETUP_REPEATS = 7
SETUP_CHUNKS = 5
SAMPLE_TIMEOUT_S = 150
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import uqa22.cli; "
              "from uqa22 import goldens; goldens.golden_cases()")

END_TO_END_UNITS = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _run_python(args, timeout):
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_times(n):
    """Scaled and raw wall times of ``n`` start-ups.  Each is rescaled by
    reference chunks timed just before and just after it."""
    scaled, raw = [], []
    for _ in range(n):
        before = refclock.chunk_wall(SETUP_CHUNKS)
        t = perf_counter()
        _run_python(["-c", SETUP_CODE], 60)
        raw.append(perf_counter() - t)
        chunk_s = (before + refclock.chunk_wall(SETUP_CHUNKS)) / 2
        scaled.append(refclock.scaled(raw[-1], chunk_s))
    return scaled, raw


def run_sample(workload, seed, trace, index, clock=False):
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "cache"))
    spec = {"workload": workload, "seed": seed, "trace": trace, "work": work,
            "refclock": clock}
    try:
        out = _run_python([os.path.join(HERE, "worker.py"), json.dumps(spec)],
                          SAMPLE_TIMEOUT_S)
        sample = json.loads(out.splitlines()[-1])
        sample["checks"] = workloads.check(workload, work, sample)
        if trace:
            shutil.copy(os.path.join(work, "spans.json"),
                        os.path.join(WORK_ROOT, f"spans-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return sample


def summary(values):
    """Median, quartiles and count of a list of samples."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def environment(seed):
    lines = 0
    for path in glob.glob(os.path.join("src", "uqa22", "*.py")):
        with open(path) as f:
            lines += sum(1 for _ in f)
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git": git_hash(),
        "src_lines": lines,
    }


def git_hash():
    """HEAD of a git checkout in the current directory, read from files."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace):
    setups, raw_setups = setup_times(SETUP_REPEATS)
    samples = []
    if trace:
        samples.append(run_sample(workload, seed, False, 0))
        samples.append(run_sample(workload, seed, True, 1))
    else:
        start = perf_counter()
        while True:
            samples.append(run_sample(workload, seed, False, len(samples), True))
            elapsed = perf_counter() - start
            if elapsed * (len(samples) + 1) / len(samples) > seconds:
                break
    checks = [c for s in samples for c in s["checks"]]
    failed = [c for c in checks if not c[1]]
    record = {
        "workload": workload,
        "environment": environment(seed),
        "setup_s": summary(setups),
        "raw_setup_s": summary(raw_setups),
        "checks": {"attempted": len(checks), "failed": len(failed),
                   "failures": [[c[0], c[2]] for c in failed]},
    }
    if trace:
        plain, traced = samples
        layers = dict(traced["layers"])
        layers["goldens.load_s"] = traced["goldens.load_s"]
        layers["cli.artifact_bytes"] = traced["artifact_bytes"]
        layers["cli.cache_hit_s"] = traced.get("cache_hit_s", 0.0)
        layers["trace.overhead_s"] = traced["job_s"] - plain["job_s"]
        layers.update(json.loads(_run_python(
            [os.path.join(HERE, "worker.py"), json.dumps({"probe": True})],
            SAMPLE_TIMEOUT_S).splitlines()[-1]))
        record["per_layer"] = layers
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(layers.items())}
    else:
        stats = {k: summary([s[k] for s in samples]) for k in END_TO_END_UNITS
                 if k != "setup_s"}
        stats["setup_s"] = record["setup_s"]
        record["end_to_end"] = stats
        record["unscaled"] = {k: summary([s[k] for s in samples])
                              for k in ("raw_job_s", "raw_cpu_s", "chunk_s")}
        record["unscaled"]["raw_setup_s"] = record.pop("raw_setup_s")
        metrics = {k: {"value": stats[k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return record, metrics


def per_layer_unit(name):
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "uqa22", "cli.py")):
        sys.exit("perfbench: run from the repository root; src/uqa22 not found")
    os.makedirs(WORK_ROOT, exist_ok=True)

    record, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(WORK_ROOT,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    chk = record["checks"]
    for name, detail in chk["failures"]:
        print(f"FAILED check {name}: {detail}")
    print(f"workload {args.workload} seed {args.seed}: {chk['attempted']} checks, "
          f"failed_frac {chk['failed'] / chk['attempted']:.3f}")
    for k, m in metrics.items():
        extra = ""
        if not args.trace:
            st = record["end_to_end"][k]
            extra = f"  (q1 {st['q1']:.4f}, q3 {st['q3']:.4f}, n={st['n']})"
        print(f"  {k:42s} {m['value']:.6g} {m['unit']}{extra}")
    for k, st in record.get("unscaled", {}).items():
        print(f"  {k:42s} {st['median']:.6g} s  (unscaled; q1 {st['q1']:.4f}, "
              f"q3 {st['q3']:.4f})")
    print(json.dumps({"correct": chk["failed"] == 0, "attempted": chk["attempted"],
                      "failed": chk["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
