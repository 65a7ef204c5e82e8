"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare    # noqa: E402
import reference  # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = tmp_path / "runs.jsonl"
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {s["name"]: s["unit"] for s in specs})
    record = json.loads(out.read_text())
    assert record["result"] == result
    prov = record["provenance"]
    assert prov["seed"] == 3 and prov["src_lines"] > 0
    assert prov["env"]["OVERLOADX_THREADS"] == "1"
    if workload == "validate":
        assert set(record["unchecked"]) == {"report_passed", "overlap_fraction",
                                            "pi_z_score"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_metered_outputs_match_plain(workload):
    prep = workloads.setup(workload, seed=5, tiny=True)
    plain = workloads.fingerprint(workloads.run_pipeline(prep))
    tracer = tracing.Tracer()
    meter = reference.Meter()
    tracer.install()
    try:
        with meter:
            traced = workloads.fingerprint(workloads.run_pipeline(prep))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
    assert len(meter.samples) >= 2 and meter.unit() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) != meter._tick
    for module, attr, _, _ in tracing.TRACED:
        fn = getattr(importlib.import_module(module), attr)
        assert not hasattr(fn, "__wrapped__"), f"{module}.{attr} still wrapped"


def test_a_traced_name_that_is_gone_is_an_error():
    table = tracing.TRACED + (("overloadx.fluid", "no_such_name", "x", None),)
    with pytest.raises(LookupError, match="no_such_name"):
        tracing.Tracer(table).install()
    import overloadx.fluid
    assert not hasattr(overloadx.fluid.pi_12, "__wrapped__")


def test_self_time_subtracts_child_spans():
    spans = [["fluid.integrate", 0.0, 10.0, -1, 7, {"steps": 4}],
             ["ftsp.pi12", 2.0, 5.0, 0, 7, None],
             ["ftsp.pi12", 6.0, 7.0, 0, 7, None],
             ["ftsp.pi12", 0.0, 1.0, -1, 8, None]]   # another run
    m = tracing.layer_metrics(spans, 7, wall_s=20.0)
    assert m["fluid.self_s"] == 6.0
    assert m["ftsp.pi12.calls"] == 2 and m["ftsp.pi12.busy_s"] == 4.0
    assert m["fluid.pi12_per_step"] == 0.5
    assert m["ftsp.share"] == 0.2
    assert m["sim.runs"] == 0 and m["sim.events_per_s"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run_bench("--workload", "validate", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_verdicts():
    spec = {"name": "wall_s", "better": "lower", "bound": 0.1}
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.status(spec, steady, None) == "steady"
    assert compare.status(spec, steady, [v * 1.2 for v in steady]) == "regression"
    assert compare.status(spec, steady, [v * 1.05 for v in steady]) == "ok"
    wide = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.status(spec, wide, None) == "unresolved"
    assert compare.status(spec, wide, steady) == "unresolved"
    assert compare.status(spec, wide, [v * 0.5 for v in steady]) == "ok"
