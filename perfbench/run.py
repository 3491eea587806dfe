#!/usr/bin/env python3
"""fkpf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload kernel-interval --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run imports the package in a fresh interpreter and sets up
the workload from the seed, several times each (the medians add up to
``setup_s``), then repeats the workload's short unit of work until the
repetitions add up to ``--seconds``.  Every repetition's outputs are checked
against an independent reference.

Every timing is scaled to a reference host speed by a calibration probe run
before and after it (``hostspeed.py``): on a shared host the vCPU's speed
drifts for minutes at a stretch, and the scaled time moves far less between
runs than either the raw median or the raw minimum.  The metrics are medians
of scaled times.  The report lines before the result also give the raw
minimum, median and a high percentile of the repetitions.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` repetitions alternate untraced and traced, and it carries the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Generated inputs, program outputs, the spans of a traced run and the full
result with its environment are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "tts_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY = {"trace.overhead_s": "s", "trace.overhead_frac": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_count():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Fix the BLAS thread count (at most nproc) and the MC worker count
    before numpy is imported."""
    threads = max(1, min(BLAS_THREADS, cpu_count()))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    os.environ["FKPF_WORKERS"] = "1"
    return threads


def _openblas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src" / "fkpf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads,
        "blas_threads_reported": _openblas_threads(np),
        "fkpf_workers": int(os.environ["FKPF_WORKERS"]),
        "nproc": cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_in_child():
    """Import the package in a fresh interpreter, as a user's first call
    would, and wait for it to end.  No timeout: with one, the wait polls
    and rounds the time up to its 50 ms polling step."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import fkpf.acceptance, fkpf.harness"],
                   env=env, check=True)


def measure(workload, state, seconds, trace, tracer, no_tracer, clock):
    """Repeat the workload until the repetitions add up to ``seconds``.

    Returns the repetitions as (wall, scaled, traced, outcome) and the
    checks; an outcome keeps only its path count and standard error once
    checked.  With trace, odd repetitions run with the tracer installed and
    at least one of each kind is made.
    """
    from workloads import gate_repeat

    reps, checks = [], []
    first = None
    while (not reps or sum(r[0] for r in reps) < seconds
           or (trace and len(reps) < 2)):
        traced = trace and len(reps) % 2 == 1
        if traced:
            tracer.run_id = len(reps)
            tracer.install()
        try:
            wall, scaled, produced = clock.scaled(lambda: workload.run_once(
                state, tracer if traced else no_tracer))
        finally:
            if traced:
                tracer.remove()
        outcome = workload.collect(state, produced)
        checks.extend(workload.check(state, outcome))
        if outcome.fingerprint:
            if first is None:
                first = outcome.fingerprint
            else:
                checks.append(gate_repeat(len(reps), outcome.fingerprint, first))
        reps.append((wall, scaled, traced,
                     replace(outcome, output=None, fingerprint="")))
    return reps, checks


def print_checks(checks):
    """One line per check name: its pass count and the detail of its first
    failure, or of its last pass."""
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        bad = [c for c in group if not c.ok]
        shown = bad[0] if bad else group[-1]
        ok = len(group) - len(bad)
        print(f"check {'FAIL' if bad else 'ok  '} {name}: {ok}/{len(group)} "
              f"passed; {shown.detail}")


def spread_line(walls, scaled):
    """Sample count, then the minimum, median and the highest percentile with
    at least ten repetitions beyond it of the raw wall times, and the median
    scaled time."""
    ordered = sorted(walls)
    line = (f"{len(walls)} repetitions: scaled median "
            f"{statistics.median(scaled):.6g} s; raw min {ordered[0]:.6g} s, "
            f"median {statistics.median(ordered):.6g} s")
    if len(ordered) > 10:
        pct = 100 * (len(ordered) - 10) // len(ordered)
        line += f", p{pct} {ordered[-11]:.6g} s"
    return line


def end_to_end_metrics(reps, setup_s):
    """wall_s is the median scaled repetition; tts_s projects it to
    TTS_TARGET relative standard error (estimates without one are exact:
    tts = wall).  Every repetition has the same inputs and outputs."""
    from workloads import TTS_TARGET

    wall = statistics.median(r[1] for r in reps)
    rel = reps[0][3].rel_stderr
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": wall,
        "tts_s": wall if rel is None else wall * (rel / TTS_TARGET) ** 2,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }


def per_layer_metrics(reps, tracer):
    from spans import PER_LAYER

    traced = [i for i, r in enumerate(reps) if r[2]]
    by_run = tracer.layer_metrics()
    metrics = {name: statistics.median(by_run[i][name] for i in traced)
               for name in PER_LAYER}
    on = statistics.median(reps[i][1] for i in traced)
    off = statistics.median(scaled for _, scaled, t, _ in reps if not t)
    metrics["trace.overhead_s"] = on - off
    metrics["trace.overhead_frac"] = (on - off) / off
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "fkpf" / "__init__.py").is_file():
        print(f"no fkpf sources under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    start = time.perf_counter()
    import fkpf.acceptance  # noqa: F401  (numpy, scipy and every fkpf module)
    import fkpf.harness  # noqa: F401
    import_s = time.perf_counter() - start

    from hostspeed import HostClock
    from spans import PER_LAYER, NoTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args, threads)
    print("env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](REPO_ROOT, OUT_DIR)
    workload.work_dir.mkdir(parents=True, exist_ok=True)
    clock = HostClock(workload.probe)
    imports = [clock.scaled(import_in_child) for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(clock.scaled(lambda: workload.setup(args.seed)))
    state = setups[-1][2]
    setup_s = (statistics.median(r[1] for r in imports)
               + statistics.median(r[1] for r in setups))

    tracer = Tracer()
    reps, checks = measure(workload, state, args.seconds, bool(args.trace),
                           tracer, NoTracer(), clock)
    failed = [c for c in checks if not c.ok]
    print_checks(checks)
    for kind in (False, True) if args.trace else (False,):
        kept = [r for r in reps if r[2] == kind]
        print(("traced " if kind else "untraced ")
              + spread_line([r[0] for r in kept], [r[1] for r in kept]))
    print(f"import_s = {import_s:.4f} s in this process; raw child imports = "
          + ", ".join(f"{r[0]:.4f}" for r in imports) + " s; raw setups = "
          + ", ".join(f"{r[0]:.4f}" for r in setups) + " s")
    print(f"host probe: {len(clock.probes)} probes, median "
          f"{statistics.median(sum(p) for p in clock.probes):.6g} s "
          f"({clock.kind}, nominal {clock.nominal} s)")
    print(f"failed_frac = {len(failed)}/{len(checks)} = "
          f"{len(failed) / max(len(checks), 1):.6g}")

    if args.trace:
        metrics = per_layer_metrics(reps, tracer)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        units.update(TRACE_ONLY)
        tracer.write(workload.work_dir / "trace.npz", env)
    else:
        metrics = end_to_end_metrics(reps, setup_s)
        units = END_TO_END
        paths = reps[0][3].paths
        if paths:
            print(f"paths_per_s = {paths / metrics['wall_s']:.6g} 1/s "
                  f"({paths} paths per repetition)")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (workload.work_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "checks": [c.__dict__ for c in checks],
                    "reps_s": [r[0] for r in reps],
                    "reps_scaled_s": [r[1] for r in reps],
                    "imports_s": [r[:2] for r in imports],
                    "setups_s": [r[:2] for r in setups],
                    "host_probes_s": clock.probes, **result},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
