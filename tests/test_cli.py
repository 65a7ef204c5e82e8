import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import overloadx.cli
from overloadx.cli import (ExperimentConfig, _parser, build_chain_rows,
                           emit_report, main, parse_config, reference_params,
                           validate_command)
from overloadx.diffusion import bou_matrices


BASE_CONFIG = {
    "params": {
        "lambda": [1.3, 0.9], "theta": [0.2, 0.2],
        "mu": [[1.0, 0.8], [0.8, 1.0]], "m": [1.0, 1.0],
        "r12": "1/1", "r21": "1/1", "kappa12": 0.1, "kappa21": 0.1,
    },
    "scales": [25, 100],
    "runs": 3,
    "arrivals": 20000,
    "seed": 7,
}


def test_parse_config_base():
    cfg = parse_config(json.dumps(BASE_CONFIG))
    assert cfg.params.r12 == Fraction(1, 1)
    assert cfg.params.kappa12 == 0.1
    assert cfg.scales == [25, 100]
    assert cfg.runs == 3


def test_parse_config_rejects_float_ratio():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["params"]["r12"] = "0.5"
    with pytest.raises(ValueError, match="r12"):
        parse_config(json.dumps(bad))


def test_parse_config_rejects_empty_scales():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["scales"] = []
    with pytest.raises(ValueError, match="scales"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("key, value", [
    ("arrivals", True),
    ("seed", False),
    ("scales", [True]),
    ("warmup", False),
])
def test_parse_config_rejects_booleans(key, value):
    # JSON true/false parse as Python bool, a subclass of int
    with pytest.raises(ValueError, match=f"config.{key}"):
        parse_config(json.dumps({**BASE_CONFIG, key: value}))


def test_main_rejects_non_string_output(tmp_path, capsys):
    path = _write_config(tmp_path, {**BASE_CONFIG, "output": {"csv": 7}})
    assert main(["--config", path, "echo-config"]) == 1
    assert capsys.readouterr().err.startswith("error: config.output:")


def test_validate_command_gates_on_overload():
    # the library entry point refuses before any stage runs, as the CLI does
    cfg = ExperimentConfig(params=reference_params().with_kappa12(5.0))
    with pytest.raises(ValueError, match="not in the overloaded regime"):
        validate_command(cfg, quick=True)


def test_main_simulate_empty_window_fails(capsys):
    # one arrival in total leaves no measurement window in either run
    assert main(["simulate", "--n", "25", "--arrivals", "1",
                 "--runs", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: replications [0, 1]") and "nan" not in err


def test_parse_config_rejects_unknown_keys():
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["horizon"] = 10
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(json.dumps(bad))
    bad2 = json.loads(json.dumps(BASE_CONFIG))
    bad2["runs"] = 1
    with pytest.raises(ValueError, match="runs"):
        parse_config(json.dumps(bad2))


def test_config_round_trip():
    cfg = parse_config(json.dumps(BASE_CONFIG))
    echoed = json.dumps(cfg.to_json_dict())
    cfg2 = parse_config(echoed)
    assert cfg2 == cfg
    # every setting is echoed; an empty output is left out
    assert set(cfg.to_json_dict()) == {f.name for f in fields(cfg)} - {"output"}
    cfg.output = {"csv": "a.csv"}
    assert parse_config(json.dumps(cfg.to_json_dict())) == cfg


def test_chain_rows_pass(base_params):
    rows, exact = build_chain_rows(base_params)
    assert all(r.passed for r in rows), [
        (r.name, r.delta, r.tolerance) for r in rows if not r.passed]
    names = [r.name for r in rows]
    assert "var_qs" in names and "sigma2" in names
    # the chain-emulated cells expose both numbers
    by_name = {r.name: r for r in rows}
    assert by_name["z2_addend"].chain_value is not None
    assert abs(by_name["z2_addend"].computed - 0.33971) < 1e-4


def test_emit_report_deterministic(tmp_path, base_params):
    cfg = ExperimentConfig(params=reference_params(), scales=[25],
                           runs=2, arrivals=4000, seed=3)
    report = validate_command(cfg, quick=True)
    out1 = emit_report(report)
    out2 = emit_report(report)
    assert out1["csv"] == out2["csv"]
    assert out1["markdown"] == out2["markdown"]
    # csv row count: header + chain rows + (scales x quantities) + pi row
    rows = out1["csv"].strip().split("\n")
    assert len(rows) == 1 + len(report.chain_rows) + len(report.table_cells) + 1
    # markdown carries one table per scale
    assert out1["markdown"].count("## Queue-length table") == 1
    csv_file = tmp_path / "report.csv"
    md_file = tmp_path / "report.md"
    emit_report(report, csv_path=str(csv_file), md_path=str(md_file))
    assert csv_file.read_text() == out1["csv"]
    assert md_file.read_text() == out1["markdown"]


def test_validation_report_completeness(base_params):
    # every stored reference cell and named chain constant appears
    cfg = ExperimentConfig(params=reference_params(), scales=[25, 100, 400],
                           runs=2, arrivals=3000, seed=11)
    report = validate_command(cfg, quick=True)
    assert len(report.chain_rows) == 21
    assert len(report.table_cells) == 18
    assert {c.n for c in report.table_cells} == {25, 100, 400}
    per_scale = {n: {c.quantity for c in report.table_cells if c.n == n}
                 for n in (25, 100, 400)}
    for n, quantities in per_scale.items():
        assert quantities == {"mean_q1", "mean_q2", "std_qs", "std_q1",
                              "std_q2", "std_qs_hat"}, n
    assert report.pi_check["n"] == 400
    # flags and seed are embedded, never anonymous numbers
    assert report.sigma2_method == "paper_r1"
    assert report.psi_convention == "paper-sec10"
    assert report.seed == 11


def test_main_stationary(capsys):
    assert main(["stationary", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["z12"] == pytest.approx(0.2111, abs=1e-3)


def test_main_ftsp(capsys):
    code = main(["ftsp", "--state", "0.6556,0.5556,0.2111",
                 "--method", "regenerative", "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recurrent"]
    assert out["pi12"] == pytest.approx(0.1763, abs=1e-3)
    assert out["sigma2"] == pytest.approx(1.199, abs=2e-3)


def test_main_fluid_csv(tmp_path, capsys):
    target = tmp_path / "path.csv"
    code = main(["fluid", "--x0", "1.0,0.2,0.0", "--T", "2.0", "--h", "0.01",
                 "--csv", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "t,q1,q2,z12,pi,regime"
    assert len(lines) == 202
    assert lines[1].split(",")[5] == "pi1"   # starts above the band


def test_main_diffusion(capsys):
    code = main(["diffusion", "--n", "100", "--sigma2-method", "paper_r1",
                 "--psi-convention", "paper-sec10"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean_q1"] == pytest.approx(65.56, abs=0.01)
    assert out["std_qs"] == pytest.approx(34.06, abs=0.01)
    assert out["std_z12_possible"] is True


def test_main_diffusion_reports_a_z12_spread_no_count_can_have(tmp_path,
                                                              capsys):
    # std_z12 = 15.17 is above sqrt(mean (m2 n - mean)) = 14.58; the key
    # says so in the JSON and in the CSV, beside the unchanged values
    path = _write_config(tmp_path, {"params": {
        "lambda": [1.911, 0.2202], "theta": [0.0299, 0.0616],
        "mu": [[2.882, 1.766], [0.796, 0.2666]], "m": [0.532, 0.301],
        "r12": "1/2", "kappa12": 0.0}})
    argv = ["--config", path, "diffusion", "--n", "100",
            "--sigma2-method", "poisson_numeric", "--psi-convention", "plus"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["std_z12"] == pytest.approx(15.17, abs=0.01)
    assert out["std_z12_possible"] is False
    target = tmp_path / "diffusion.csv"
    assert main(argv + ["--csv", str(target)]) == 0
    rows = target.read_text().splitlines()
    assert rows[rows.index(f"std_z12,{out['std_z12']}") + 1] == (
        "std_z12_possible,False")


def test_main_diffusion_names_a_stationary_z12_on_the_boundary(tmp_path,
                                                              capsys):
    # an overloaded set whose stationary z12 is m2, as about half of the
    # random overloaded sets are: the steady-state layer refuses it, naming
    # z12* and m2
    path = _write_config(tmp_path, {"params": {
        "lambda": [0.34, 3.13], "theta": [0.0757, 1.39],
        "mu": [[0.494, 0.636], [0.0233, 0.026]], "m": [0.0462, 0.229],
        "r12": "1/1", "kappa12": 0.01}})
    assert main(["--config", path, "diffusion", "--n", "100",
                 "--sigma2-method", "poisson_numeric",
                 "--psi-convention", "plus"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: stationary z12 must be interior to (0, m2): z12* = 0.229 "
        "lies on the boundary, m2 = 0.229\n")
    assert captured.out == ""


def test_main_simulate_csv(tmp_path, capsys):
    target = tmp_path / "sim.csv"
    code = main(["simulate", "--n", "25", "--runs", "2", "--arrivals", "5000",
                 "--seed", "1", "--csv", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "quantity,mean,std,halfwidth"
    assert len(lines) == 10   # nine tracked quantities


def test_main_execution_error(capsys):
    assert main(["--config", "/nonexistent.json", "stationary"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-3"])
def test_main_rejects_bad_thread_count(monkeypatch, capsys, value):
    monkeypatch.setenv("OVERLOADX_THREADS", value)
    code = main(["simulate", "--n", "25", "--runs", "2", "--arrivals", "100"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: OVERLOADX_THREADS must be a positive integer, got {value!r}\n")


def test_commands_without_simulation_load_no_scipy():
    # numpy gives every closed form; scipy is imported only where a
    # replication interval or a lattice or Lyapunov cross-check needs it.
    # A fresh interpreter: this session has imported scipy already.
    argvs = [["stationary", "--json"],
             ["ftsp", "--state", "0.6556,0.5556,0.2111", "--json"],
             ["ftsp", "--state", "0.6556,0.5556,0.2111",
              "--method", "poisson_numeric", "--json"],
             ["fluid", "--x0", "1.0,0.2,0.0", "--T", "2", "--h", "0.01"],
             ["diffusion", "--n", "100", "--sigma2-method", "paper_r1",
              "--psi-convention", "paper-sec10"],
             ["diffusion", "--n", "100", "--sigma2-method", "poisson_numeric",
              "--psi-convention", "plus", "--scaled-threshold"],
             ["echo-config"]]
    script = (
        "import contextlib, io, json, sys\n"
        "import overloadx, overloadx.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert overloadx.cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.partition('.')[0] == 'scipy')))\n")
    src = str(Path(overloadx.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_main_echo_config(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(BASE_CONFIG))
    assert main(["--config", str(cfg_file), "echo-config"]) == 0
    echoed = capsys.readouterr().out
    cfg = parse_config(echoed)
    assert cfg.scales == [25, 100]
    assert cfg.params.r12 == Fraction(1, 1)


@pytest.mark.parametrize("key, value", [
    ("lambda", [float("nan"), 0.9]),
    ("theta", [float("inf"), 0.2]),
    ("r12", "1/0"),
    ("kappa12", 5),   # stationary point outside S: q2 < 0
])
def test_main_rejects_bad_params(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["params"][key] = value
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))   # NaN / Infinity as JSON extensions
    assert main(["--config", str(cfg_file), "stationary"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("params", [5, None, ["lambda"], "x"])
def test_main_rejects_params_that_are_no_object(tmp_path, capsys, params):
    # 5 and null died with a bare TypeError from set(d); a list was read as
    # its keys ("missing keys") and a str as its letters ("unknown keys")
    path = _write_config(tmp_path, {**BASE_CONFIG, "params": params})
    assert main(["--config", path, "echo-config"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: params: expected a JSON object, got {params!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("lambda", ["1.3", 0.9]),
    ("lambda", [1.3, True]),
    ("lambda", [None, 0.9]),
    ("theta", [0.2, "0.2"]),
    ("mu", [[1.0, 0.8], [False, 1.0]]),
    ("m", [1.0, None]),
    ("kappa12", False),
    ("kappa21", "0.1"),
])
def test_main_rejects_non_number_rates(tmp_path, capsys, key, value):
    # float() would turn "1.3" into 1.3, true into 1.0 and false into 0.0
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["params"][key] = value
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_file), "echo-config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: params.{key}: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ftsp", "--state", "nan,0.5,0.2", "--json"],
    ["ftsp", "--state", "0.5,inf,0.2"],
    ["fluid", "--x0", "nan,0.2,0.0", "--T", "1", "--h", "0.01"],
    ["fluid", "--x0", "1.0,inf,0.0", "--T", "1", "--h", "0.01"],
    ["fluid", "--x0", "1.0,0.2,0.0", "--T", "inf"],
    ["diffusion", "--n", "0", "--sigma2-method", "paper_r1",
     "--psi-convention", "paper-sec10"],
])
def test_main_rejects_non_finite_and_out_of_range_input(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("T, h", [("1", "0.3"), ("2", "5"), ("2", "3")])
def test_main_fluid_refuses_a_horizon_off_the_step_grid(capsys, T, h):
    # integrate_fluid would end at round(T/h) h: t = 0.9, 0 and 3
    assert main(["fluid", "--x0", "1.0,0.2,0.0", "--T", T, "--h", h]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert "not a whole number of --h" in captured.err


def test_main_fluid_grid_past_the_float_range(capsys):
    # T/h overflows to inf: an error line, not an OverflowError traceback
    assert main(["fluid", "--x0", "1.0,0.2,0.0", "--T", "1e308",
                 "--h", "1e-10"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert "does not fit in memory" in captured.err


def test_main_fluid_grid_too_large_for_memory(capsys):
    # T/h + 1 = 1e15 + 1 points cannot be allocated: an error line naming
    # the point count, not a numpy traceback
    assert main(["fluid", "--x0", "1.0,0.2,0.0", "--T", "1e15",
                 "--h", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert "1000000000000001 points" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["diffusion", "--n", "100", "--sigma2-method", "paper_r1",
     "--psi-convention", "paper-sec10"],
    ["simulate", "--n", "25", "--runs", "2", "--arrivals", "2000"],
    ["validate", "--quick"],
])
def test_main_gates_on_overload(tmp_path, capsys, argv):
    # kappa12 = 5 passes both overload conditions (margins 0.22 and 1.5),
    # but its stationary point has q2 < 0
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["params"]["kappa12"] = 5
    paths = {}
    for name, cfg in (("bad", bad), ("reference", BASE_CONFIG)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    assert main(["--config", str(paths["bad"])] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "margin 0.22" in err and "margin 1.5" in err
    # validate exits 2 when a statistical check misses
    assert main(["--config", str(paths["reference"])] + argv) in (0, 2)
    assert "error:" not in capsys.readouterr().err


def test_main_diffusion_scaled_threshold_one_parameter_set(capsys):
    # means, stds, M, S and the *_hat covariances all at kappa_eff
    code = main(["diffusion", "--n", "25", "--sigma2-method", "paper_r1",
                 "--psi-convention", "paper-sec10", "--scaled-threshold"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kappa_eff"] == pytest.approx(3 / 25)   # ceil(0.1 * 25) / 25
    assert out["std_qs"] ** 2 / 25 == pytest.approx(out["var_qs_hat"],
                                                    rel=1e-12)
    model = bou_matrices(reference_params().with_kappa12(out["kappa_eff"]),
                         sigma2_method="paper_r1",
                         psi_convention="paper-sec10")
    assert out["M"] == model.M.tolist()
    assert out["S"] == model.S.tolist()


SIM_SETTINGS = {"runs": 3, "arrivals": 2000, "seed": 7, "start": "empty",
                "warmup": 0.4}


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def replicate_settings(monkeypatch):
    """The settings of each ``replicate`` call the CLI makes."""
    real = overloadx.cli.replicate
    calls = []

    def recording(sysn, R, horizon_arrivals, base_seed, warmup_fraction,
                  start):
        calls.append({"runs": R, "arrivals": horizon_arrivals,
                      "seed": base_seed, "start": start,
                      "warmup": warmup_fraction})
        return real(sysn, R, horizon_arrivals, base_seed, warmup_fraction,
                    start)

    monkeypatch.setattr(overloadx.cli, "replicate", recording)
    return calls


def test_main_simulate_uses_config_settings(tmp_path, capsys,
                                            replicate_settings):
    path = _write_config(tmp_path, {**BASE_CONFIG, **SIM_SETTINGS})
    assert main(["--config", path, "simulate", "--n", "25"]) == 0
    assert replicate_settings == [SIM_SETTINGS]


@pytest.mark.parametrize("flag, value, key, expected", [
    ("--runs", "2", "runs", 2),
    ("--arrivals", "3000", "arrivals", 3000),
    ("--seed", "5", "seed", 5),
    ("--start", "fluid", "start", "fluid"),
    ("--warmup", "0.1", "warmup", 0.1),
])
def test_main_simulate_flag_overrides_config(tmp_path, capsys,
                                             replicate_settings,
                                             flag, value, key, expected):
    path = _write_config(tmp_path, {**BASE_CONFIG, **SIM_SETTINGS})
    assert main(["--config", path, "simulate", "--n", "25", flag, value]) == 0
    assert replicate_settings == [{**SIM_SETTINGS, key: expected}]


def test_main_validate_flags_override_config_output(tmp_path, capsys):
    cfg = {**BASE_CONFIG, "scales": [25], "runs": 2, "arrivals": 20000,
           "output": {"csv": str(tmp_path / "cfg.csv"),
                      "markdown": str(tmp_path / "cfg.md")}}
    path = _write_config(tmp_path, cfg)
    code = main(["--config", path, "validate", "--quick",
                 "--csv", str(tmp_path / "flag.csv")])
    assert code in (0, 2)
    assert (tmp_path / "flag.csv").exists()
    assert not (tmp_path / "cfg.csv").exists()
    assert (tmp_path / "cfg.md").exists()


def test_main_validate_flag_keeps_malformed_config_output(tmp_path, capsys):
    path = _write_config(tmp_path, {**BASE_CONFIG, "output": 5})
    code = main(["--config", path, "validate", "--csv",
                 str(tmp_path / "flag.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config.output:")


def test_main_runs_flag_fails_like_config_key(tmp_path, capsys):
    assert main(["simulate", "--n", "25", "--runs", "1"]) == 1
    flag_err = capsys.readouterr().err
    path = _write_config(tmp_path, {**BASE_CONFIG, "runs": 1})
    assert main(["--config", path, "simulate", "--n", "25"]) == 1
    assert capsys.readouterr().err == flag_err
    assert flag_err.startswith("error: config.runs:")


@pytest.mark.parametrize("config_seed, argv", [
    (None, ["simulate", "--n", "25", "--runs", "2", "--arrivals", "100",
            "--seed", "-1"]),
    (-3, ["validate", "--quick"]),
    (-3, ["echo-config"]),
])
def test_main_rejects_negative_seed(tmp_path, capsys, config_seed, argv):
    # refused while the config is read, before any simulation
    if config_seed is not None:
        path = _write_config(tmp_path, {**BASE_CONFIG, "seed": config_seed})
        argv = ["--config", path, *argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: config.seed: need a non-negative integer\n")


@pytest.mark.parametrize("key, value", [
    ("sigma2_method", "poisson_numeric"),
    ("psi_convention", "plus"),
])
def test_main_rejects_unread_convention_keys(tmp_path, capsys, key, value):
    path = _write_config(tmp_path, {**BASE_CONFIG, key: value})
    assert main(["--config", path, "echo-config"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: unknown keys") and key in err


def test_readme_command_lines_parse():
    # every example of the README's command-line block uses real flags
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("overloadx ")]
    assert len(lines) == 7
    parser = _parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
