#!/usr/bin/env python3
"""Benchmark of `futility`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run of one workload measures set-up in fresh interpreters, then repeats
passes over the workload's cases through `futility.reports.run_command` until
`--seconds` would be exceeded (always at least one pass), checks every report
against the workload's answer key after the pass timer stops, and prints the
end-to-end metrics.  With `--trace 1` it then installs the layer hooks of
`tracer.py`, repeats the passes traced, and prints the per-layer metrics and
the tracing overhead instead; spans go to `.perfbench_out/`.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 1 when any case failed its check or raised.
`--workload all` runs every workload in its own process and prints a summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import Speedometer, calibration_slice, scale_of  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median

MIN_CASE_S = 0.25  # an untraced case reruns until it has run this long in all,
MAX_REPEATS = 5  # or this many times; see run_pass

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

DECIDERS = (
    "decide_infinite_field",
    "decide_field_extension",
    "decide_local_artinian",
    "decide_finite_base",
    "decide_noncommutative",
    "decide_integer_algebra",
)

# Per-layer metric -> (unit, traced function, statistic).  Statistics are
# "calls", "busy" (outermost calls, inclusive) and "self" (exclusive of other
# hooked functions) from trace.Tracer.stats; "count" reads a counter.
PER_LAYER = {
    "reports.build_ms": ("ms", "reports.build", "busy"),
    "reports.decide_ms": ("ms", "reports.decide", "busy"),
    "reports.oracle_ms": ("ms", "reports.oracle", "busy"),
    "reports.serialize_ms": ("ms", "reports.serialize", "busy"),
    "cases.parse_case.busy_ms": ("ms", "cases.parse_case", "busy"),
    "cases.build_case.busy_ms": ("ms", "cases.build_case", "busy"),
    "algebra.make_algebra.calls": ("count", "algebra.make_algebra", "calls"),
    "algebra.make_algebra.busy_ms": ("ms", "algebra.make_algebra", "busy"),
    "algebra.make_algebra.self_ms": ("ms", "algebra.make_algebra", "self"),
    "algebra.local_decomposition.busy_ms": ("ms", "algebra.local_decomposition", "busy"),
    "algebra.nilradical.busy_ms": ("ms", "algebra.nilradical", "busy"),
    "algebra.frobenius_chain.busy_ms": ("ms", "algebra.frobenius_chain", "busy"),
    "algebra.element_multiply.calls": ("count", "algebra.element_multiply", "calls"),
    "algebra.element_multiply.self_ms": ("ms", "algebra.element_multiply", "self"),
    "algebra.generated_by_element.calls": ("count", "algebra.generated_by_element", "calls"),
    "algebra.generated_by_element.self_ms": ("ms", "algebra.generated_by_element", "self"),
    "linalg.rref.calls": ("count", "linalg.rref", "calls"),
    "linalg.rref.rows_in": ("count", "linalg.rref.rows_in", "count"),
    "linalg.rref.self_ms": ("ms", "linalg.rref", "self"),
    "linalg.Subspace.contains.calls": ("count", "linalg.Subspace.contains", "calls"),
    "linalg.Subspace.contains.self_ms": ("ms", "linalg.Subspace.contains", "self"),
    "finite_enum.enumerate_subalgebras.calls": ("count", "finite_enum.enumerate_subalgebras", "calls"),
    "finite_enum.enumerate_subalgebras.busy_ms": ("ms", "finite_enum.enumerate_subalgebras", "busy"),
    "finite_enum.candidates": ("count", "finite_enum.candidates", "count"),
    "finite_enum.members": ("count", "finite_enum.members", "count"),
    "sampler.sample_subalgebras.busy_ms": ("ms", "sampler.sample_subalgebras", "busy"),
    "sampler.sample_subrings.busy_ms": ("ms", "sampler.sample_subrings", "busy"),
    "sampler.closures": ("count", "sampler.closures", "count"),
    "sampler.distinct": ("count", "sampler.distinct", "count"),
    "polynomials.factor_over_rationals.calls": ("count", "polynomials.factor_over_rationals", "calls"),
    "polynomials.factor_over_rationals.busy_ms": ("ms", "polynomials.factor_over_rationals", "busy"),
    "polynomials.factor_over_prime_field.busy_ms": ("ms", "polynomials.factor_over_prime_field", "busy"),
    "intmat.hermite_basis.calls": ("count", "intmat.hermite_basis", "calls"),
    "intmat.hermite_basis.busy_ms": ("ms", "intmat.hermite_basis", "busy"),
    "intmat.smith_normal_form.busy_ms": ("ms", "intmat.smith_normal_form", "busy"),
    "deciders.find_generator.calls": ("count", "deciders.find_generator", "calls"),
    "deciders.find_generator.busy_ms": ("ms", "deciders.find_generator", "busy"),
    **{f"deciders.{d}.busy_ms": ("ms", f"deciders.{d}", "busy") for d in DECIDERS},
}

# Ratios of two per-layer metrics: useful work against work done.
RATIOS = {
    "finite_enum.members_per_candidate": ("finite_enum.members", "finite_enum.candidates"),
    "sampler.distinct_per_closure": ("sampler.distinct", "sampler.closures"),
}

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict:
    units = {name: unit for name, (unit, _fn, _stat) in PER_LAYER.items()}
    units.update({name: "ratio" for name in RATIOS})
    units.update(TRACE_METRICS)
    return units


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_library():
    """Import `futility` from this checkout's `src/`, never from elsewhere."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import futility
    from futility import cases, reports

    if Path(futility.__file__).resolve().parent != ROOT / "src" / "futility":
        raise ImportError(f"futility imported from {futility.__file__}, not from {ROOT / 'src'}")
    return cases, reports


def setup(workload: str, seed: int, smoke: bool):
    """Import the library, generate or read the case documents and parse
    them; returns (seconds, cases, parsed descriptions)."""
    t0 = time.perf_counter()
    cases_mod, _reports = load_library()
    cases = make_cases(workload, seed, ROOT, smoke)
    descs = [cases_mod.parse_case(c.text) for c in cases]
    return time.perf_counter() - t0, cases, descs


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw seconds, scale) of SETUP_REPEATS fresh interpreters, each
    importing the library cold (apart from the OS file cache)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode:
            raise RuntimeError(f"set-up probe exited with {out.returncode}:\n{out.stderr}")
        seconds, scale = out.stdout.split()[-2:]
        samples.append((float(seconds), float(scale)))
    return samples


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------

def run_pass(cases, descs, reports, tracer=None) -> dict:
    """One timed pass over every case, each run scaled to reference speed by
    a `speed.Speedometer`.

    Untraced, a case runs again until it has run MIN_CASE_S in all or
    MAX_REPEATS times, and its latency and CPU time are the medians of its
    runs: a single run of a 100 ms case varies by about 10 % on a shared host.
    Traced, every case runs once, so layer counts are per run of each case.
    Wall and CPU time add up the cases, report serialization included.  A
    case that raises keeps its exception as its output and is not rerun.
    """
    latencies, cpus, raw_latencies, raw_cpus, outputs = [], [], [], [], []
    repeats = 1 if tracer else MAX_REPEATS
    with Speedometer() as meter:
        for case, desc in zip(cases, descs):
            runs = []  # (seconds, cpu seconds, scale)
            while True:
                with tracer.case(case.case_id) if tracer else nullcontext():
                    out, seconds, cpu, scale = meter.run(partial(_run_case, reports, case, desc))
                runs.append((seconds, cpu, scale))
                outputs.append((case, out))
                if isinstance(out, Exception) or len(runs) == repeats or sum(r[0] for r in runs) >= MIN_CASE_S:
                    break
            latencies.append(statistics.median(sec * k for sec, _cpu, k in runs))
            cpus.append(statistics.median(cpu * k for _sec, cpu, k in runs))
            raw_latencies.append(statistics.median(sec for sec, _cpu, _k in runs))
            raw_cpus.append(statistics.median(cpu for _sec, cpu, _k in runs))
    return {
        "scaled": {"wall": sum(latencies), "cpu": sum(cpus), "latencies": latencies},
        "raw": {"wall": sum(raw_latencies), "cpu": sum(raw_cpus), "latencies": raw_latencies},
        "scale": scale_of(meter.samples),
        "runs": len(outputs),
        "outputs": outputs,
    }


def _run_case(reports, case, desc):
    try:
        return reports.run_command(case.command, desc, {}).to_json()
    except Exception as exc:  # a raising case is a failed case, not a crash
        return exc


def check_outputs(outputs) -> list[str]:
    """Failure messages of one pass; runs after the pass timer has stopped."""
    failures = []
    for case, out in outputs:
        if isinstance(out, Exception):
            failures.append(f"{case.case_id}: raised {type(out).__name__}: {out}")
            continue
        try:
            msg = case.check(out)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            msg = f"unreadable report ({type(exc).__name__}: {exc})"
        if msg:
            failures.append(f"{case.case_id}: {msg}")
    return failures


def run_passes(cases, descs, reports, seconds: float, before_pass=None, tracer=None):
    """Passes until another one would overrun `seconds`; at least one."""
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        if before_pass:
            before_pass()
        t0 = time.perf_counter()
        p = run_pass(cases, descs, reports, tracer)
        took = time.perf_counter() - t0
        failures += check_outputs(p.pop("outputs"))
        passes.append(p)
        if time.perf_counter() - start + took > seconds:
            return passes, failures


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n cases beyond it; below
    21 cases that would not lie above the median, so the maximum stands in."""
    return 100 if n < 21 else (100 * (n - 10)) // n


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  One order
    statistic of 51 cases jumps whenever two cases next to it swap places; on
    a shared host that moved the corpus p80 by 25 % between runs.  q = 1 is
    the maximum."""
    xs = sorted(values)
    n = len(xs)
    if q >= 1 or n == 1:
        return xs[-1]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule per order statistic
    total = 0.0
    for i, x in enumerate(xs):
        weight = 0.0
        for j in range(steps):
            u = (i + (j + 0.5) / steps) / n
            weight += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
        total += x * weight / (steps * n)
    return total


def timing_metrics(passes, kind: str) -> dict:
    """Wall and CPU time are medians over passes of `kind` ("scaled" or
    "raw") times.  Per-case latency is the median over passes; p50 and the
    tail are quantiles over cases, so the tail percentile depends only on the
    case count."""
    times = [p[kind] for p in passes]
    per_case = [statistics.median(lats) for lats in zip(*(t["latencies"] for t in times))]
    return {
        "wall_s": statistics.median(t["wall"] for t in times),
        "cpu_s": statistics.median(t["cpu"] for t in times),
        "case_ms_p50": quantile(per_case, 0.5) * 1000,
        "case_ms_tail": quantile(per_case, tail_percentile(len(per_case)) / 100) * 1000,
    }


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def read_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": read_commit(),
    }


def layer_metrics(tracer, n_passes: int) -> dict:
    stats, counts = tracer.totals()
    out = {}
    for name, (_unit, fn, stat) in PER_LAYER.items():
        if stat == "count":
            value = counts.get(fn, 0)
        else:
            rec = stats.get(fn, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            value = rec["calls"] if stat == "calls" else rec[f"{stat}_ns"] / 1e6
        out[name] = value / n_passes
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    return out


def run_workload(args) -> int:
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    setup_samples = measure_setup(args)
    _seconds, cases, descs = setup(args.workload, args.seed, args.smoke)
    cases_mod, reports = load_library()

    passes, failures = run_passes(cases, descs, reports, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p["runs"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(sec * scale for sec, scale in setup_samples),
        **timing_metrics(passes, "scaled"),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(sec for sec, _scale in setup_samples),
        **timing_metrics(passes, "raw"),
    }

    layers = None
    if args.trace:
        from tracer import Tracer

        with Tracer().install() as tracer:
            def parse_traced():
                for case in cases:
                    with tracer.case(case.case_id):
                        cases_mod.parse_case(case.text)

            traced, traced_failures = run_passes(
                cases, descs, reports, args.seconds, before_pass=parse_traced, tracer=tracer
            )
        failures += traced_failures
        attempted += sum(p["runs"] for p in traced)
        layers = layer_metrics(tracer, len(traced))
        traced_wall = timing_metrics(traced, "scaled")["wall_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = end_to_end["wall_s"]
        layers["trace.overhead_pct"] = 100 * (traced_wall / end_to_end["wall_s"] - 1)
        trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)

    env["loadavg_end"] = os.getloadavg()
    failed = len(failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "traced_passes": len(traced) if args.trace else 0,
        "cases": len(cases),
        "tail_percentile": tail_percentile(len(cases)),
        "setup_samples": [{"raw_s": sec, "scale": scale} for sec, scale in setup_samples],
        "pass_scales": [p["scale"] for p in passes],
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "env": env,
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": layers,
    }
    print_table(detail, attempted, failed)
    print(json.dumps({"detail": detail}))
    if layers is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_table(detail, attempted, failed):
    env = detail["env"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  passes {detail['passes']}  "
          f"cases {detail['cases']}  commit {env['commit'][:12]}  python {env['python']}  "
          f"nproc {env['nproc']}  load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}  "
          f"speed {statistics.median(detail['pass_scales']):.3f} of reference")
    for name, value in detail["end_to_end"].items():
        note = ""
        if name in detail["raw"]:
            note = f"  (raw {detail['raw'][name]:.4f})"
        if name == "case_ms_tail":
            note += f"  p{detail['tail_percentile']} of {detail['cases']} cases"
        print(f"  {name:14} {value:12.4f} {END_TO_END[name]:2}{note}")
    print(f"  {'failed_frac':14} {failed / attempted:12.4f} 1   ({failed} of {attempted} case runs)")
    for line in detail["failures"]:
        print(f"  FAILED {line}")
    layers = detail["per_layer"]
    if layers is not None:
        units = per_layer_units()
        for name, value in layers.items():
            print(f"  {name:44} {value:14.4f} {units[name]}")


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process; prints their tables and a summary."""
    summary, status = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"running {workload}", file=sys.stderr, flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        summary[workload] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))

    names = list(END_TO_END) + ["failed_frac"]
    print("\nsummary " + " ".join(f"{w:>16}" for w in summary))
    for name in names:
        cells = []
        for detail, result in summary.values():
            if name == "failed_frac":
                cells.append(f"{detail['failed_frac']:14.4f} 1")
            else:
                ee = detail["end_to_end"]
                cells.append(f"{ee[name]:13.4f} {END_TO_END[name]:>2}")
        print(f"{name:14} " + " ".join(f"{c:>16}" for c in cells))
    metrics = {
        f"{w}.{k}": v for w, (_d, result) in summary.items() for k, v in result["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for _d, r in summary.values()),
        "attempted": sum(r["attempted"] for _d, r in summary.values()),
        "failed": sum(r["failed"] for _d, r in summary.values()),
        "metrics": metrics,
    }))
    return status


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few cheap cases per workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        seconds, _cases, _descs = setup(args.workload, args.seed, args.smoke)
        print(seconds, scale_of([calibration_slice() for _ in range(10)]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
