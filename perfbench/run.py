"""Benchmark of overloadx: one workload, one seed, one run.

    python3 perfbench/run.py --workload validate --seed 1 --trace 0

Run it from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, with replications serial and BLAS on one thread.  A
run starts PROCESSES fresh processes, one after another.  Each sets the
workload up (one set-up sample) and repeats its pipeline for its share of
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).  Splitting the
run averages out how fast one process happens to be: on a shared 2-core
Xeon, the median ``wall_rel`` of one process of ``validate`` varied from
process to process by 5 % (standard deviation).  The last process checks
the outputs, untimed.  The run prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted``/``failed`` count output checks.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured with tracing
off; ``wall_rel`` is an iteration's wall time in units of a fixed loop
timed during it (see reference.py).  With ``--trace 1`` they are the
per-layer metrics: each process alternates untraced and traced iterations;
the layer figures come from the traced ones and the tracing overhead from
the pair.  ``--out FILE`` appends a record with the samples, the checks and
the provenance of the run; ``perfbench/compare.py`` reads such files.
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
from importlib import metadata
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROCESSES = 5
TINY_PROCESSES = 2
RUN_TIMEOUT = 170       # seconds for the whole run, all processes together
THREAD_ENV = {"OVERLOADX_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a full record of the run to this "
                                  "JSON-lines file")
    ap.add_argument("--spans", help="with --trace 1, write every span to "
                                    "this JSON-lines file")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark sizes")
    # One process of a run: measure for PART seconds, print a JSON line.
    ap.add_argument("--part", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--process", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def iterate(prep, seconds: float, meter, tracer=None):
    """Run the pipeline until ``seconds`` have passed.

    With a tracer, odd iterations are traced (tagged with their index) and
    even ones not, so both halves see the same drift of the machine.
    Returns [(index, traced, wall_s, rel, unit_s, meter_s)], where
    ``wall_s`` leaves out ``meter_s``, the meter's own time during the
    iteration, and ``rel`` is ``wall_s`` over ``unit_s``, the meter's loop
    time; then the set of output fingerprints, the last output and the
    seconds measured.
    """
    rows, prints = [], set()
    start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.run_id = i
            tracer.install()
        try:
            with meter:
                t0 = perf_counter()
                out = workloads.run_pipeline(prep)
                wall = perf_counter() - t0 - meter.spent
        finally:
            if traced:
                tracer.uninstall()
        unit = meter.unit()
        rows.append((i, traced, wall, wall / unit, unit, meter.spent))
        prints.add(workloads.fingerprint(out))
        i += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and (tracer is None or i >= 2):
            return rows, prints, out, elapsed


def part(args) -> dict:
    """One process of a run: set up, measure, and check if asked to."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    prep = workloads.setup(args.workload, args.seed, args.tiny)
    setup_s = perf_counter() - t0
    if not Path(prep.ox.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported overloadx from {prep.ox.__file__}, "
                           f"not from {SRC}")
    tracer = tracing.Tracer() if args.trace else None
    rows, prints, out, elapsed = iterate(prep, args.part, reference.Meter(),
                                         tracer)
    res = {"setup_s": setup_s, "iterations": rows, "outputs": sorted(prints),
           "elapsed": elapsed,
           "peak_rss_mib": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        # spans include the meter's time, so shares are of the gross wall
        res["layers"] = [tracing.layer_metrics(tracer.spans, i, w + spent)
                         for i, traced, w, _, _, spent in rows if traced]
        if args.spans:
            keys = ("name", "start", "end", "parent", "run", "info")
            with open(args.spans, "a") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps({"process": args.process,
                                         **dict(zip(keys, span))}) + "\n")
    if args.check:
        res["checks"] = [(name, bool(ok), detail)
                         for name, ok, detail in workloads.checks(prep, out)]
        res["unchecked"] = workloads.summary(prep, out)
    return res


def run_parts(args) -> list:
    """Run the processes of one run in turn; their results, in order.

    Each process measures an equal share of the seconds still left, so the
    run as a whole measures about ``--seconds``.
    """
    n = TINY_PROCESSES if args.tiny else PROCESSES
    deadline = perf_counter() + RUN_TIMEOUT
    parts, left = [], args.seconds
    for k in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--part", str(left / (n - k)),
               "--process", str(k)]
        cmd += ["--tiny"] * args.tiny + ["--check"] * (k == n - 1)
        cmd += ["--spans", args.spans] if args.spans else []
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 1.0))
        if done.returncode != 0:
            raise RuntimeError(f"process {k} of the run failed:\n"
                               f"{done.stderr}")
        parts.append(json.loads(done.stdout.strip().splitlines()[-1]))
        left = max(left - parts[-1]["elapsed"], 0.0)
    return parts


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((SRC / "overloadx").rglob("*.py")))
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "seed": seed,
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_lines": src_lines,
    }


def emit(values: dict, specs: list) -> dict:
    """The metrics named in BENCHMARK.json, each with its unit."""
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]    # a metric not measured is an error
        if not math.isfinite(value):
            raise ValueError(f"metric {spec['name']} is not finite: {value}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench["run_seconds"])
    if not (SRC / "overloadx" / "__init__.py").is_file():
        print(f"error: no overloadx sources at {SRC}; run the benchmark "
              "inside a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)       # before numpy is first imported
    if args.part is not None:
        print(json.dumps(part(args)))
        return 0
    if args.spans:
        open(args.spans, "w").close()
    try:
        parts = run_parts(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = [(k, *r) for k, p in enumerate(parts) for r in p["iterations"]]
    plain = [r for r in rows if not r[2]]
    wall_s = statistics.median(r[3] for r in plain)
    wall_rel = statistics.median(r[4] for r in plain)
    setup_s = [p["setup_s"] for p in parts]
    checks = [tuple(c) for c in parts[-1]["checks"]]
    unchecked = parts[-1]["unchecked"]
    outputs = {o for p in parts for o in p["outputs"]}
    checks.append(("outputs identical across iterations and processes"
                   + (" and tracing" if args.trace else ""),
                   len(outputs) == 1, f"{len(outputs)} distinct output(s)"))
    if args.trace:
        per_run = [layers for p in parts for layers in p["layers"]]
        values = {name: statistics.median(r[name] for r in per_run)
                  for name in per_run[0]}
        values["trace.overhead_frac"] = (
            statistics.median(r[4] for r in rows if r[2]) / wall_rel - 1.0)
        values["wall_s"] = wall_s
        values["reference_us"] = 1e6 * statistics.median(r[5] for r in rows)
        fired = [r["sim.one_way_violations"] + r["sim.conservation_failures"]
                 for r in per_run]
        checks.append(("sim invariants hold", not any(fired),
                       f"one-way violations + conservation failures per "
                       f"traced iteration: {fired}"))
        metrics = emit(values, bench["per_layer"])
    else:
        values = {"setup_s": statistics.median(setup_s), "wall_rel": wall_rel,
                  "peak_rss_mib": statistics.median(
                      p["peak_rss_mib"] for p in parts)}
        metrics = emit(values, bench["end_to_end"])

    failed = [c for c in checks if not c[1]]
    result = {"correct": not failed, "attempted": len(checks),
              "failed": len(failed), "metrics": metrics}
    prov = provenance(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {len(parts)}  iterations {len(rows)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  (untraced wall {wall_s:.6g} s, median)")
    print(f"  failed_frac = {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checks failed)")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if unchecked:
        print("  recorded, not checked: " + json.dumps(unchecked))
    print("provenance " + json.dumps(prov))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "result": result,
                  "samples": {"setup_s": setup_s, "iterations": rows},
                  "checks": checks, "unchecked": unchecked,
                  "provenance": prov}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
