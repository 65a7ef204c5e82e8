"""Summarise or compare sets of benchmark runs.

    python3 perfbench/compare.py A.jsonl            # one set of runs
    python3 perfbench/compare.py A.jsonl B.jsonl    # B against A

Each file holds the records that ``run.py --out`` appends, one per run.
Per workload and metric it prints each side's median and quartiles over the
runs, as ``statistics.quantiles(values, n=4)`` gives them, and the spread:
the distance between the quartiles as a share of the median.

A metric with a bound in BENCHMARK.json is marked ``unresolved`` when the
spread of either side is wider than its bound.  With two files it is marked
``regression`` when B's median is worse than A's by more than the bound,
else ``ok``; an unresolved metric whose every run of B reads better than
every run of A is marked ``ok`` too.  With one file a metric is ``steady``
when its spread is below a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{workload: {metric: [values over runs]}} of one results file."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    runs[rec["workload"]][name].append(m["value"])
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def status(spec: dict, a: list, b: list | None) -> str:
    bound = spec.get("bound")
    if bound is None:
        return ""
    lower = spec["better"] == "lower"
    if b is None:
        s = spread(a)
        return ("steady" if s < bound / 3 else "within bound" if s <= bound
                else "unresolved")
    always_better = max(b) < min(a) if lower else min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not always_better:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) if lower else (ma - mb)
    return "regression" if worse > bound * abs(ma) else "ok"


def _cell(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)} "
            f"spread {spread(values):.3f}")


def report(a_path: str, b_path: str | None = None, out=sys.stdout) -> int:
    """Print the table; returns the number of regressions and unresolved."""
    bench = json.loads(BENCHMARK.read_text())
    specs = bench["end_to_end"] + bench["per_layer"]
    a = load(a_path)
    b = load(b_path) if b_path else None
    bad = 0
    for workload in sorted(set(a) | set(b or {})):
        print(f"== {workload}", file=out)
        for spec in specs:
            name = spec["name"]
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name) if b else None
            if not va and not vb:
                continue
            line = f"  {name:40s} {spec['unit']:6s} "
            line += f"A {_cell(va)}" if va else "A -"
            if b is not None:
                line += f" | B {_cell(vb)}" if vb else " | B -"
            verdict = ""
            if va and (b is None or vb):
                if vb:
                    ma = statistics.median(va)
                    delta = statistics.median(vb) - ma
                    line += (f" | delta {delta / abs(ma):+.3%}" if ma
                             else f" | delta {delta:+.6g}")
                verdict = status(spec, va, vb)
                bad += verdict in ("regression", "unresolved")
            print(line + (f"  {verdict}" if verdict else ""), file=out)
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if report(*argv) else 0


if __name__ == "__main__":
    sys.exit(main())
