"""Run every workload through run.py, one call per run, and summarise.

    python3 perfbench/suite.py --out results.jsonl
    python3 perfbench/suite.py --out runs.jsonl --seeds 1-10 --trace 0

Every run covers every workload of BENCHMARK.json for its run_seconds;
the defaults are seed 1 and both trace modes.  Seeds are the outer loop,
so the workloads share any drift of the machine.  Each run's metrics are
printed as it finishes, then the summary of ``compare.py`` over the whole
file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    bench = json.loads(compare.BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True,
                    help="JSON-lines file the run records are appended to")
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    ap.add_argument("--trace", default="0,1", help="0, 1 or 0,1")
    args = ap.parse_args(argv)
    failed = 0
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in args.trace.split(","):
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--trace", trace, "--out", args.out]
                done = subprocess.run(cmd, text=True, capture_output=True)
                lines = done.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    failed += 1
                else:
                    failed += not json.loads(lines[-1])["correct"]
    compare.report(args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
