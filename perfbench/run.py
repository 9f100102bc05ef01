"""rtcalc benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload coeff-maps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` the run sets up ``SETUPS`` times (import rtcalc afresh,
build the maps, generate the seeded inputs) and reports the median set-up
time, then runs jobs back to back in one thread for ``--seconds`` and reports
the end-to-end metrics.  Their times are on the host-speed clock described
at ``calibration_slice``; the raw wall-clock figures are printed beside them.  With ``--trace 1`` it runs the workload's fixed
number of trace jobs twice, untraced and then traced, and reports the
per-layer metrics; the traced jobs must give the same digests as the
untraced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, record the machine and a readable table.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_rtcalc  # noqa: E402

SETUPS = 9
MAX_TRACEBACKS = 3
# Host speed on a shared machine swings by up to 2x within seconds (measured
# with a fixed interpreter loop on a 2-core Xeon VM), far beyond any usable
# bound.  A calibration slice runs before every job and set-up, and their
# times are scaled to a host on which the slice takes CALIB_REF_S, using the
# median slice time within CALIB_WINDOW_S of each job.
CALIB_REF_S = 0.0005
CALIB_WINDOW_S = 1.0


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": None,
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(ROOT),
    }
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return info


def git_commit(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_job(wl, i, failures):
    """Run job ``i``; returns (ok, artifact), counting an exception as a failure."""
    try:
        return wl.run(i)
    except Exception:
        if failures[0] < MAX_TRACEBACKS:
            print(f"# job {i} raised:\n" + traceback.format_exc(), file=sys.stderr)
        failures[0] += 1
        return False, None


def calibration_slice():
    """A fixed slice of interpreter work, independent of rtcalc and of
    Fraction: integer arithmetic, tuple-keyed dict updates and a sort.
    Returns (midpoint, duration) in perf_counter seconds."""
    start = time.perf_counter()
    table, acc = {}, 1
    for i in range(1, 400):
        acc = (acc * 48271 + i) % 2147483647
        key = (i % 31, acc % 17)
        table[key] = table.get(key, 0) + math.gcd(acc, i)
    sorted(table.items())
    end = time.perf_counter()
    return (start + end) / 2, end - start


def host_factors(samples, spans):
    """For each (start, end) span, CALIB_REF_S over the median duration of the
    calibration samples taken within CALIB_WINDOW_S of it."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - CALIB_WINDOW_S)
        hi = bisect.bisect_right(times, end + CALIB_WINDOW_S)
        out.append(CALIB_REF_S / statistics.median(d for _, d in samples[lo:hi]))
    return out


def setup(cls, seed):
    start = time.perf_counter()
    wl = cls(load_rtcalc(SRC), seed)
    return wl, time.perf_counter() - start


def measure(name, seed, seconds, setups=SETUPS):
    """The end-to-end run: returns (result dict, human-readable lines)."""
    cls = WORKLOADS[name]
    samples, setup_spans = [], []
    for _ in range(setups):
        wl = None
        gc.collect()
        samples.append(calibration_slice())
        start = time.perf_counter()
        wl, dt = setup(cls, seed)
        setup_spans.append((start, start + dt))
    samples.append(calibration_slice())
    setup_raw = [b - a for a, b in setup_spans]
    setup_scaled = [t * f for t, f in zip(setup_raw, host_factors(samples, setup_spans))]
    gc.collect()

    samples, spans, failed, failures = [], [], 0, [0]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        samples.append(calibration_slice())
        t0 = time.perf_counter()
        ok, _ = run_job(wl, i, failures)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        failed += not ok
        i += 1
        if t1 >= deadline:
            break
    samples.append(calibration_slice())
    wall = time.perf_counter() - start
    attempted = len(spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [b - a for a, b in spans]
    factors = host_factors(samples, spans)
    scaled = [t * f for t, f in zip(raw, factors)]

    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]

    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "jobs_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "job_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "job_p90_ms": (p90(scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    lines = [
        f"# {name} seed={seed}: {attempted} jobs in {wall:.2f} s, {failed} failed (failed_frac {failed / attempted:.4f})",
        f"# wall clock: setup_s {statistics.median(setup_raw):.4f}, jobs_per_s {(attempted - failed) / wall:.4f}, "
        f"job_p50_ms {statistics.median(raw) * 1e3:.3f}, job_p90_ms {p90(raw) * 1e3:.3f}",
        f"# host factor (scaled/wall) median {statistics.median(factors):.3f}, "
        f"min {min(factors):.3f}, max {max(factors):.3f}",
    ]
    if attempted < 100:
        lines.append(f"# warning: only {attempted} jobs, fewer than 10 lie beyond the 90th percentile")
    return result(failed == 0, attempted, failed, metrics), lines


def trace(name, seed, jobs=None):
    """The traced run: returns (result dict, human-readable lines)."""
    cls = WORKLOADS[name]
    n = jobs if jobs is not None else cls.trace_jobs
    failures = [0]

    wl, _ = setup(cls, seed)
    plain, plain_s, failed = [], 0.0, 0
    for i in range(n):
        t0 = time.perf_counter()
        ok, art = run_job(wl, i, failures)
        plain_s += time.perf_counter() - t0
        failed += not ok
        plain.append(wl.digest(art) if ok else None)

    wl = None
    gc.collect()
    wl, _ = setup(cls, seed)
    tracer = Tracer()
    tracer.install(wl.rt)
    traced, traced_s = [], 0.0
    try:
        for i in range(n):
            tracer.start_job(i)
            t0 = time.perf_counter()
            ok, art = run_job(wl, i, failures)
            traced_s += time.perf_counter() - t0
            tracer.end_job()
            tracer.on = False
            failed += not ok
            traced.append(wl.digest(art) if ok else None)
            tracer.on = True
    finally:
        tracer.uninstall()
    leftovers = Tracer.leftover_wrappers()
    mismatched = sum(a != b for a, b in zip(plain, traced))

    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
    lines = [f"# {name} seed={seed}: {n} jobs untraced {plain_s:.2f} s, traced {traced_s:.2f} s, "
             f"{len(tracer.s_fid)} spans, {mismatched} digest mismatches, {len(leftovers)} wrappers left"]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"spans-{name}"
    tracer.write(stem)
    lines.append(f"# spans written to {stem}.json and {stem}.bin")
    correct = failed == 0 and mismatched == 0 and not leftovers
    return result(correct, 2 * n, failed + mismatched, metrics), lines


def result(correct, attempted, failed, metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def table(res):
    return [f"#   {k:28s} {m['value']:>16.6g} {m['unit']}" for k, m in res["metrics"].items()]


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        for ln in lines[:-1]:
            print(ln)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="rtcalc benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    machine = machine_info()
    try:
        if args.trace:
            res, lines = trace(args.workload, args.seed)
        else:
            res, lines = measure(args.workload, args.seed, args.seconds)
    except ImportError as e:
        print(f"perfbench: cannot import rtcalc from {SRC}: {e}", file=sys.stderr)
        return 2
    machine["loadavg_end"] = list(os.getloadavg())
    print("# machine " + json.dumps(machine))
    for ln in lines + table(res):
        print(ln)
    failed_frac = res["failed"] / res["attempted"]
    print(f"#   {'failed_frac':28s} {failed_frac:>16.6g} frac")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
