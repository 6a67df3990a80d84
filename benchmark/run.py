#!/usr/bin/env python3
"""smallball benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload perturb_sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 [--trace 1]

One workload runs in this process: set-up (repeated, median reported), an
untimed warm-up pass, then a timed phase of a fixed number of passes over
seeded op inputs, then the checks.  With ``--trace 0`` the last line is a
JSON object with the end-to-end metrics; with ``--trace 1`` every pass runs
once untraced and once traced, and the metrics are the per-layer ones plus
the tracing overhead.  ``--workload all`` runs each workload in a fresh
process and prints a table.  Outputs, spans and CLI reports go to
``.bench_out/``.
See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("perturb_sweep", "cdf_curve", "durbin_gof")
SETUP_REPS = 3
IMPORT_REPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SMALLBALL_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="nominal length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_library() -> None:
    """Import smallball from this checkout's sources."""
    if not (SRC / "smallball" / "__init__.py").is_file():
        raise SystemExit(f"error: no smallball sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import smallball

    if Path(smallball.__file__).resolve().parent != (SRC / "smallball").resolve():
        raise SystemExit(f"error: smallball imported from {smallball.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "blas": blas_name,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_pass(wl, p, ops, tracer):
    """Run one pass; return its wall time and one record per op.

    An op fails if it raises, returns a non-finite value or misses a check.
    Checks run after the timed loop and outside the trace.
    """
    outs, errors, latencies = [], [], []
    with tracer.recording() if tracer else nullcontext():
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = f"{p}:{i}"
            t0 = time.perf_counter()
            try:
                out, err = wl.run(op), None
            except Exception as exc:  # an op failure is a measured result
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            outs.append(out)
            errors.append(err)
        wall = time.perf_counter() - t_pass
    done = [i for i, out in enumerate(outs) if out is not None]
    checks = [[] for _ in ops]
    for i, cs in zip(done, wl.check([ops[i] for i in done], [outs[i] for i in done])):
        checks[i] = cs
    records = []
    for i, op in enumerate(ops):
        missed = [(name, detail, layer, known) for name, ok, detail, layer, known in checks[i] if not ok]
        if errors[i]:
            missed.append(("raised", errors[i], None, None))
        records.append({
            "pass": p, "op_id": f"{p}:{i}", "label": op["label"], "latency": latencies[i],
            "traced": tracer is not None, "failed": missed,
            # every miss is a registered defect showing its exact signature
            "known": bool(missed) and all(known for *_, known in missed),
        })
    return wall, records


def phase_wall(pass_walls) -> float:
    """Passes times the median pass, so a stall in one pass does not move it."""
    return len(pass_walls) * statistics.median(pass_walls)


def end_to_end(records, pass_walls, setup_s) -> tuple[dict, dict]:
    lat = sorted(r["latency"] for r in records)
    n = len(lat)
    # the highest percentile with at least 10 ops beyond it
    tail_idx = n - 11 if n > 10 else n - 1
    tail_pct = 100.0 * (n - 10) / n if n > 10 else 100.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (phase_wall(pass_walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[tail_idx], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_ms": f"p{tail_pct:.1f} of {n} ops"}
    return metrics, notes


def fail_ratio(records) -> tuple[float, str]:
    """Ops that raised, returned a non-finite value or missed a check,
    known defects included, over the ops attempted."""
    missed = sum(1 for r in records if r["failed"])
    return missed / len(records), f"{missed} of {len(records)} ops missed a check"


def import_seconds() -> float:
    """Median import time of smallball over fresh interpreters; the process
    itself imported it already, so these see warm file caches."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import smallball; print(time.perf_counter() - t0)")
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(name, seed, seconds, trace) -> int:
    import_library()
    import numpy as np

    from tracing import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name]()
    passes = max(1, round(seconds / wl.nominal_pass_s))
    tracer = Tracer() if trace else None

    setup_times = []
    for rep in range(SETUP_REPS):
        traced = tracer is not None and rep == SETUP_REPS - 1
        t0 = time.perf_counter()
        with tracer.recording() if traced else nullcontext():
            wl.setup(str(OUT))
            plans = [wl.plan(np.random.default_rng([seed, p])) for p in range(passes + 1)]
        setup_times.append(time.perf_counter() - t0)

    # an untimed warm-up pass on inputs of its own lets first-call costs
    # (lazy imports inside scipy, allocator growth) finish before timing
    run_pass(wl, passes, plans.pop(), None)
    walls = {False: [], True: []}
    records = []
    for p, ops in enumerate(plans):
        # traced runs alternate which copy of a pass goes first
        modes = (False,) if not trace else ((False, True) if p % 2 == 0 else (True, False))
        for traced in modes:
            wall, recs = run_pass(wl, p, ops, tracer if traced else None)
            walls[traced].append(wall)
            records.extend(recs)

    env = environment()
    untraced = [r for r in records if not r["traced"]]
    known = [r for r in untraced if r["known"]]
    failed = [r for r in records if r["failed"] and not r["known"]]
    ratio, ratio_note = fail_ratio(untraced)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"timed phase: {passes} passes x {len(plans[0])} ops = {len(untraced)} ops")
    if trace:
        untraced_wall, traced_wall = phase_wall(walls[False]), phase_wall(walls[True])
        overhead = traced_wall - untraced_wall
        print(f"tracing overhead: traced wall_s {traced_wall:.4f} - untraced wall_s {untraced_wall:.4f} = {overhead:.4f} s")
        failed_ops = {}
        for r in records:
            for _, _, layer, _ in r["failed"]:
                if r["traced"] and layer:
                    failed_ops.setdefault(layer, set()).add(r["op_id"])
        metrics = {**tracer.layer_metrics(failed_ops, overhead), "fail_ratio": (ratio, "1")}
        notes = {"fail_ratio": ratio_note}
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    else:
        setup_s = import_seconds() + statistics.median(setup_times)
        metrics, notes = end_to_end(untraced, walls[False], setup_s)
        print(f"  {'fail_ratio (per-layer metric)':<40} {ratio:16.6f} {'1':<6} {ratio_note}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:16.6f} {unit:<6} {notes.get(key, '')}")
    for defect, what in KNOWN_DEFECTS.items():
        ops = [r for r in known if all(k == defect for *_, k in r["failed"])]
        if ops:
            print(f"known defect {defect} ({what}): {len(ops)} of {len(untraced)} ops")
            for label in sorted({r["label"] for r in ops}):
                print(f"  {label}")
    print(f"failed ops (outside the known defects): {len(failed)} of {len(records)} attempted")
    for r in failed:
        reasons = "; ".join(f"{name}: {detail}" for name, detail, _, _ in r["failed"])
        print(f"  FAILED pass {r['pass']} {r['label']} -- {reasons}")

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": name, "seed": seed, "seconds": seconds, "env": env,
                   "pass_walls": walls[False], "latencies": [r["latency"] for r in untraced],
                   "failed_ops": failed, "known_defect_ops": known}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print()
    print(f"{'metric':<40} {'unit':<6}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    for key, m in results[WORKLOAD_NAMES[0]]["metrics"].items():
        row = "".join(f"{results[n]['metrics'][key]['value']:16.6g}" for n in WORKLOAD_NAMES)
        print(f"{key:<40} {m['unit']:<6}{row}")
    row = "".join(f"{results[n]['failed']:>7} of {results[n]['attempted']:<6}" for n in WORKLOAD_NAMES)
    print(f"{'failed ops (outside the known defects)':<47}{row}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
