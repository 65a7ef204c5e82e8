"""Batch front-end: config parsing, subcommands, and report emission.

Subcommands: ``stationary``, ``ftsp``, ``fluid``, ``diffusion``,
``simulate``, ``validate``, ``echo-config``.  The validate command runs the
built-in reference scenario end to end, reproduces the stored reference
arithmetic chain and queue-length table, re-simulates every scale with fresh
seeds, and writes CSV and Markdown reports.  Exit codes: 0 all checks pass,
2 a validation check failed, 1 execution error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import asdict, dataclass, field, fields

from .params import (ModelParams, check_choice, check_count, check_overload,
                     check_real, scale)
from .ftsp import (SIGMA2_METHODS, FluidState, asymptotic_variance,
                   busy_period_moments, ftsp_rates, ftsp_summary)
from .fluid import integrate_fluid, stationary_point
from .diffusion import (PSI_CONVENTIONS, REFERENCE_CONVENTIONS, bou_matrices,
                        gaussian_queue_approx, psi_mix,
                        steady_state_covariance)
from .sim import START_MODES, replicate

__all__ = ["ExperimentConfig", "ValidationReport", "parse_config",
           "validate_command", "emit_report", "main"]


def reference_params() -> ModelParams:
    """The built-in reference scenario used by ``validate``."""
    return ModelParams(lambda1=1.3, lambda2=0.9, theta1=0.2, theta2=0.2,
                       mu11=1.0, mu12=0.8, mu21=0.8, mu22=1.0,
                       m1=1.0, m2=1.0, r12="1/1", r21="1/1",
                       kappa12=0.1, kappa21=0.1)


@dataclass
class ExperimentConfig:
    """Run settings; the one place where each setting and its default live."""

    params: ModelParams
    scales: list = field(default_factory=lambda: [25, 100, 400])
    runs: int = 5
    arrivals: int = 300000
    warmup: float | None = None
    seed: int = 42
    start: str = "fluid"
    output: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = asdict(self)   # copies of the lists and dicts
        d["params"] = self.params.to_config_dict()
        if not self.output:
            del d["output"]
        return d


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config; errors carry the offending path.

    ``overrides`` holds config keys set by command-line flags.  They are
    laid over the text's keys (``output`` key by key) before validation.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config: top level must be an object")
    for key, value in (overrides or {}).items():
        if key == "output":   # a malformed file value is kept, to be reported
            out = raw.get("output", {})
            value = {**out, **value} if isinstance(out, dict) else out
        raw[key] = value
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"config: unknown keys {sorted(unknown)}")
    if "params" not in raw:
        raise ValueError("config: missing required key 'params'")
    cfg = ExperimentConfig(params=ModelParams.from_config_dict(raw["params"]))
    # type() is int, not isinstance(): JSON true/false parse as bool, an int
    if "scales" in raw:
        scales = raw["scales"]
        if (not isinstance(scales, list) or not scales
                or any(type(n) is not int or n < 1 for n in scales)):
            raise ValueError("config.scales: need a non-empty list of positive integers")
        cfg.scales = scales
    # the params checks (a bool is no number), with the config's messages
    for key, need, check, *args in (
            ("runs", "need an integer >= 2 for interval output", check_count, 2),
            ("arrivals", "need a positive integer", check_count),
            ("warmup", "need a fraction in [0, 1)", check_real, "lie in [0, 1)"),
            ("seed", "need a non-negative integer", check_count, 0),
            ("start", f"must be one of {START_MODES}", check_choice, START_MODES)):
        if key not in raw or key == "warmup" and raw[key] is None:   # default
            continue
        try:
            check(key, raw[key], *args)
        except ValueError:
            raise ValueError(f"config.{key}: {need}") from None
        setattr(cfg, key, float(raw[key]) if key == "warmup" else raw[key])
    if "output" in raw:
        out = raw["output"]
        if (not isinstance(out, dict) or set(out) - {"csv", "markdown"}
                or any(not isinstance(path, str) for path in out.values())):
            raise ValueError("config.output: allowed keys are 'csv' and "
                             "'markdown', each a file path string")
        cfg.output = out
    return cfg


# ---------------------------------------------------------------------------
# reference values for the validate command
# ---------------------------------------------------------------------------

# Deterministic constants of the reference scenario, at their quoted precision.
# rule: how the computed value is compared against the reference --
#   exact   : our full-precision value within 5e-4 of the reference
#   chain   : the reference was printed from rounded intermediates; the
#             recomputed rounded chain must match within 5e-4 (the exact
#             value is reported alongside)
#   printed : two-decimal reference; match within half a printed unit (5e-3)
REFERENCE_CHAIN = [
    # name, reference value, rule
    ("z12_star", 0.2111, "exact"),
    ("q1_star", 0.6556, "exact"),
    ("q2_star", 0.5556, "exact"),
    ("pi_star", 0.1763, "exact"),
    ("rate_up_pos", 1.411, "exact"),
    ("rate_down_pos", 2.989, "exact"),
    ("rate_down_neg", 2.031, "exact"),
    ("rate_up_neg", 2.369, "exact"),
    ("et1", 0.6338, "exact"),
    ("et2", 2.9603, "exact"),
    ("var_t1", 1.1201, "exact"),
    ("psi2", 0.3844, "exact"),
    ("sigma2", 0.3116, "exact"),
    ("xi2", 0.1198, "exact"),
    ("abs_m22", 0.176, "exact"),
    ("z2_addend", 0.3403, "chain"),
    ("var_z", 1.1292, "chain"),
    ("cov_qz", 0.6006, "chain"),
    ("var_qs", 11.6006, "chain"),
    ("std_qs_hat", 3.41, "printed"),
    ("std_qi_hat", 1.70, "printed"),
]

# Approximation columns of the reference queue-length table (per scale) and
# the quoted simulation cells (value, confidence half-width).
REFERENCE_TABLE = {
    25: {
        "approx": {"mean_q1": 16.6, "mean_q2": 13.6, "std_qs": 17.1,
                   "std_q1": 8.5, "std_q2": 8.5, "std_qs_hat": 3.41},
        "sim": {"mean_q1": (15.7, 0.3), "mean_q2": (15.9, 0.4),
                "std_qs": (16.0, 0.3), "std_q1": (8.8, 0.1),
                "std_q2": (8.6, 0.1), "std_qs_hat": (3.21, 0.06)},
    },
    100: {
        "approx": {"mean_q1": 65.6, "mean_q2": 55.6, "std_qs": 34.1,
                   "std_q1": 17.0, "std_q2": 17.0, "std_qs_hat": 3.41},
        "sim": {"mean_q1": (63.6, 1.9), "mean_q2": (58.6, 1.8),
                "std_qs": (33.7, 1.4), "std_q1": (17.2, 0.7),
                "std_q2": (17.1, 0.7), "std_qs_hat": (3.37, 0.14)},
    },
    400: {
        "approx": {"mean_q1": 262.2, "mean_q2": 222.2, "std_qs": 68.2,
                   "std_q1": 34.0, "std_q2": 34.0, "std_qs_hat": 3.41},
        "sim": {"mean_q1": (258.3, 5.0), "mean_q2": (223.9, 5.0),
                "std_qs": (67.6, 2.9), "std_q1": (33.9, 1.4),
                "std_q2": (33.9, 1.5), "std_qs_hat": (3.38, 0.145)},
    },
}


def _round_to(x: float, digits: int) -> float:
    return float(f"{x:.{digits}f}")


def _ulp(ref: float) -> float:
    """One unit in the last printed decimal of the reference value."""
    s = f"{ref}"
    decimals = len(s.split(".")[1]) if "." in s else 0
    return 10.0 ** (-decimals)


@dataclass
class ChainRow:
    name: str
    reference: float
    computed: float
    chain_value: float | None
    rule: str
    tolerance: float
    delta: float
    passed: bool


@dataclass
class TableCell:
    n: int
    quantity: str
    approx: float
    ref_approx: float
    approx_delta: float
    approx_tol: float
    approx_pass: bool
    sim_mean: float
    sim_halfwidth: float
    ref_sim: float
    ref_halfwidth: float
    overlap_pass: bool


@dataclass
class ValidationReport:
    sigma2_method: str
    psi_convention: str
    seed: int
    scales: list
    runs: int
    arrivals: int
    warmup: float | None
    chain_rows: list
    table_cells: list
    pi_check: dict
    sigma2_values: dict
    notes: list

    @property
    def chain_passed(self) -> bool:
        return all(r.passed for r in self.chain_rows)

    @property
    def approx_passed(self) -> bool:
        return all(c.approx_pass for c in self.table_cells)

    @property
    def overlap_fraction(self) -> float:
        cells = self.table_cells
        if not cells:   # custom scales without stored reference cells
            return 1.0
        return sum(c.overlap_pass for c in cells) / len(cells)

    @property
    def passed(self) -> bool:
        return (self.chain_passed and self.approx_passed
                and self.overlap_fraction >= 0.9 and self.pi_check["passed"])


def _reference_chain_values(p: ModelParams, exact: dict) -> dict:
    """Recompute the reference arithmetic with its printed roundings.

    The reference chain divides rounded intermediates (e.g. the z-noise
    addend is printed xi2 over twice the three-decimal drift entry), so a
    full-precision computation cannot land within 5e-4 of those cells; this
    reproduces the arithmetic as printed to verify it, while the exact
    values are reported next to it.
    """
    xi2_r = _round_to(exact["xi2"], 4)
    m22_r = _round_to(exact["abs_m22"], 3)
    z2_chain = xi2_r / (2.0 * m22_r)
    var_z_chain = 1.0 - _round_to(exact["z12_star"], 4) + _round_to(z2_chain, 4)
    p1, _ = exact["p_split"]
    m11 = exact["abs_m11"]
    m12 = exact["m12"]
    xi5_chain = _round_to(m12 / (m11 + m22_r), 4)
    cov_chain = _round_to(var_z_chain, 4) * xi5_chain
    var_qs_chain = exact["q1_addend"] + (m12 / m11) * _round_to(cov_chain, 4)
    return {
        "z2_addend": z2_chain,
        "var_z": var_z_chain,
        "cov_qz": cov_chain,
        "var_qs": var_qs_chain,
        "std_qs_hat": math.sqrt(var_qs_chain),
        "std_qi_hat": p1 * math.sqrt(var_qs_chain),
    }


def build_chain_rows(p: ModelParams) -> tuple[list, dict]:
    """Compute every named constant of the reference chain, under the
    reference conventions, and compare."""
    sp = stationary_point(p)
    x_star = sp.as_state()
    rates = ftsp_rates(p, x_star)
    bp1 = busy_period_moments(rates.lam1, rates.mu1)
    bp2 = busy_period_moments(rates.lam2, rates.mu2)
    model = bou_matrices(p, **REFERENCE_CONVENTIONS)
    cov = steady_state_covariance(model)
    psi = psi_mix(p, sp.z12, REFERENCE_CONVENTIONS["psi_convention"])
    exact = {
        "z12_star": sp.z12, "q1_star": sp.q1, "q2_star": sp.q2,
        "pi_star": sp.pi_star,
        "rate_up_pos": rates.lam1, "rate_down_pos": rates.mu1,
        "rate_down_neg": rates.lam2, "rate_up_neg": rates.mu2,
        "et1": bp1.mean, "et2": bp2.mean, "var_t1": bp1.variance,
        "psi2": psi * psi, "sigma2": model.xi3, "xi2": model.xi2,
        "abs_m22": abs(model.M[1, 1]),
        "z2_addend": cov.z2_addend, "var_z": cov.var_z,
        "cov_qz": cov.cov_qz, "var_qs": cov.var_qs,
        "std_qs_hat": cov.std_qs, "std_qi_hat": cov.std_q1,
        "q1_addend": cov.q1_addend,
        "abs_m11": abs(model.M[0, 0]), "m12": model.M[0, 1],
        "p_split": (model.p1, model.p2),
    }
    chain = _reference_chain_values(p, exact)
    rows = []
    for name, ref, rule in REFERENCE_CHAIN:
        val = exact[name]
        chain_val = chain.get(name)
        # a value printed at two decimals is held to half its last digit
        tol = 5e-3 if rule == "printed" else 5e-4
        delta = abs((chain_val if rule == "chain" else val) - ref)
        rows.append(ChainRow(name=name, reference=ref, computed=val,
                             chain_value=chain_val, rule=rule, tolerance=tol,
                             delta=delta, passed=delta <= tol))
    return rows, exact


def _require_overload(p: ModelParams) -> None:
    """Raise ``ValueError`` unless ``p`` passes the overload test."""
    v = check_overload(p)
    if not v.overloaded:
        where = "inside" if v.stationary_in_S else "outside"
        raise ValueError(
            f"parameters are not in the overloaded regime: condition 1 "
            f"margin {v.margin1:.6g}, condition 2 margin {v.margin2:.6g}, "
            f"stationary fluid point {where} the state space")


def validate_command(cfg: ExperimentConfig, quick: bool = False) -> ValidationReport:
    """Run the full reference validation; raises with the failing stage name
    (or ``ValueError`` first, for parameters outside the overloaded regime)."""
    p = cfg.params
    _require_overload(p)
    stage = "stationary/ftsp chain"
    try:
        chain_rows, _ = build_chain_rows(p)
        stage = "sigma2 adjudication"
        x_star = stationary_point(p).as_state()
        sigma2_values = {
            "paper_r1": asymptotic_variance(p, x_star, "paper_r1"),
            "regenerative": asymptotic_variance(p, x_star, "regenerative"),
            "poisson_numeric": asymptotic_variance(p, x_star, "poisson_numeric"),
        }
        ground = sigma2_values["poisson_numeric"]
        closer = min(("paper_r1", "regenerative"),
                     key=lambda k: abs(sigma2_values[k] - ground))
        stage = "gaussian approximations"
        cells = []
        arrivals = cfg.arrivals if not quick else max(cfg.arrivals // 10, 2000)
        for n in cfg.scales:
            sysn = scale(p, n)
            p_n = p.with_kappa12(sysn.kappa_eff)   # realized threshold k_n/n
            approx = gaussian_queue_approx(p_n, n, **REFERENCE_CONVENTIONS)
            stage = f"simulation at n={n}"
            est = replicate(sysn, cfg.runs, arrivals, base_seed=cfg.seed,
                            warmup_fraction=cfg.warmup, start=cfg.start)
            refs = REFERENCE_TABLE.get(n)
            for qty, ref_approx in (refs["approx"].items() if refs else []):
                # std_qs_hat is std_qs / sqrt(n); x / 1.0 is exact
                name, div = (("std_qs", math.sqrt(n)) if qty == "std_qs_hat"
                             else (qty, 1.0))
                approx_val = getattr(approx, name) / div
                sim_mean = est[name].mean / div
                sim_hw = est[name].halfwidth / div
                ref_sim, ref_hw = refs["sim"][qty]
                tol = _ulp(ref_approx)
                delta = abs(approx_val - ref_approx)
                overlap = abs(sim_mean - ref_sim) <= sim_hw + ref_hw
                cells.append(TableCell(
                    n=n, quantity=qty, approx=approx_val,
                    ref_approx=ref_approx, approx_delta=delta,
                    approx_tol=tol, approx_pass=delta <= tol,
                    sim_mean=sim_mean, sim_halfwidth=sim_hw,
                    ref_sim=ref_sim, ref_halfwidth=ref_hw,
                    overlap_pass=overlap))
            if n == max(cfg.scales):
                stage = "averaging-principle check"
                frac = est["frac_d_positive"]
                se = frac.std / math.sqrt(cfg.runs)
                pi_star = stationary_point(p_n).pi_star
                z = abs(frac.mean - pi_star) / se if se > 0 else float("inf")
                pi_check = {"n": n, "estimate": frac.mean, "stderr": se,
                            "target": pi_star, "z_score": z,
                            "passed": z <= 3.0}
    except Exception as exc:
        raise RuntimeError(f"validation stage '{stage}' failed: {exc}") from exc
    notes = [
        f"sigma2 ground truth (Poisson equation) = {ground:.6f}; "
        f"closed form '{closer}' matches it "
        f"(paper_r1={sigma2_values['paper_r1']:.6f}, "
        f"regenerative={sigma2_values['regenerative']:.6f})",
        "chain cells marked rule=chain are reproduced with the reference's "
        "own rounded intermediates; exact values are reported alongside",
        "approximation columns use the realized threshold offset k_n/n of "
        "each scale",
    ]
    return ValidationReport(
        **REFERENCE_CONVENTIONS, seed=cfg.seed, scales=list(cfg.scales),
        runs=cfg.runs, arrivals=arrivals, warmup=cfg.warmup,
        chain_rows=chain_rows, table_cells=cells, pi_check=pi_check,
        sigma2_values=sigma2_values, notes=notes)


def emit_report(report: ValidationReport, csv_path=None, md_path=None) -> dict:
    """Render the report as CSV (machine) and Markdown (human)."""
    csv_lines = ["kind,n,name,reference,computed,chain_value,delta,tolerance,"
                 "sim_mean,sim_halfwidth,ref_sim,ref_halfwidth,passed"]
    for r in report.chain_rows:
        chain_s = f"{r.chain_value:.6f}" if r.chain_value is not None else ""
        csv_lines.append(
            f"chain,,{r.name},{r.reference},{r.computed:.6f},{chain_s},"
            f"{r.delta:.2e},{r.tolerance:.0e},,,,,{int(r.passed)}")
    for c in report.table_cells:
        csv_lines.append(
            f"table,{c.n},{c.quantity},{c.ref_approx},{c.approx:.4f},,"
            f"{c.approx_delta:.2e},{c.approx_tol:.0e},{c.sim_mean:.4f},"
            f"{c.sim_halfwidth:.4f},{c.ref_sim},{c.ref_halfwidth},"
            f"{int(c.approx_pass and c.overlap_pass)}")
    pc = report.pi_check
    csv_lines.append(
        f"pi_check,{pc['n']},frac_d_positive,{pc['target']:.4f},"
        f"{pc['estimate']:.6f},,{abs(pc['estimate'] - pc['target']):.2e},,"
        f",{pc['stderr']:.6f},,,{int(pc['passed'])}")
    csv_text = "\n".join(csv_lines) + "\n"

    md = []
    md.append("# Validation report\n")
    md.append(f"- sigma2 method: `{report.sigma2_method}`; "
              f"psi convention: `{report.psi_convention}`; "
              f"seed: {report.seed}; runs: {report.runs}; "
              f"arrivals/run: {report.arrivals}; "
              f"warmup: {report.warmup if report.warmup is not None else 'default'}\n")
    md.append("## Arithmetic chain\n")
    md.append("| constant | reference | computed | chain value | rule | delta | pass |")
    md.append("|---|---|---|---|---|---|---|")
    for r in report.chain_rows:
        chain_s = f"{r.chain_value:.6f}" if r.chain_value is not None else "-"
        md.append(f"| {r.name} | {r.reference} | {r.computed:.6f} | {chain_s} "
                  f"| {r.rule} | {r.delta:.2e} | {'yes' if r.passed else 'NO'} |")
    for n in report.scales:
        cells = [c for c in report.table_cells if c.n == n]
        if not cells:
            continue
        md.append(f"\n## Queue-length table, n = {n}\n")
        md.append("| quantity | approx | reference approx | simulated | "
                  "reference sim | CI overlap |")
        md.append("|---|---|---|---|---|---|")
        for c in cells:
            md.append(
                f"| {c.quantity} | {c.approx:.4f} | {c.ref_approx} "
                f"| {c.sim_mean:.3f} ± {c.sim_halfwidth:.3f} "
                f"| {c.ref_sim} ± {c.ref_halfwidth} "
                f"| {'yes' if c.overlap_pass else 'NO'} |")
    md.append("\n## Averaging-principle check\n")
    md.append(f"fraction of time the difference process is positive at "
              f"n = {pc['n']}: {pc['estimate']:.5f} ± {pc['stderr']:.5f} (se), "
              f"target {pc['target']:.5f}, z = {pc['z_score']:.2f} "
              f"({'pass' if pc['passed'] else 'FAIL'})\n")
    md.append("## Notes\n")
    for note in report.notes:
        md.append(f"- {note}")
    md.append("")
    md.append(f"**Overall: {'PASS' if report.passed else 'FAIL'}** "
              f"(chain {'ok' if report.chain_passed else 'FAIL'}, "
              f"approx {'ok' if report.approx_passed else 'FAIL'}, "
              f"CI overlap {report.overlap_fraction:.0%})")
    md_text = "\n".join(md) + "\n"

    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(csv_text)
    if md_path:
        with open(md_path, "w") as fh:
            fh.write(md_text)
    return {"csv": csv_text, "markdown": md_text}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parse_state(text: str) -> FluidState:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("state must be written q1,q2,z12")
    return FluidState(*(float(x) for x in parts))


def _given_settings(args) -> dict:
    """The config keys set by the setting flags given on the command line."""
    names = {"simulate": ("runs", "arrivals", "seed", "start", "warmup"),
             "validate": ("csv", "markdown")}.get(args.command, ())
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    return {"output": given} if args.command == "validate" and given else given


def _load_config(args) -> ExperimentConfig:
    """The config file, or the reference scenario, with the given setting
    flags laid over it."""
    if args.config is None:
        text = json.dumps({"params": reference_params().to_config_dict()})
    else:
        with open(args.config) as fh:
            text = fh.read()
    return parse_config(text, _given_settings(args))


def _write_or_print(csv_path: str | None, text: str, wrote: str,
                    shown: str | None = None) -> int:
    """Write ``text`` to ``csv_path`` and print ``wrote``; without a path,
    print ``shown`` (by default ``text`` itself)."""
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(text)
        print(wrote)
    else:
        print(text if shown is None else shown, end="")
    return 0


def _cmd_stationary(cfg: ExperimentConfig, args) -> int:
    sp = stationary_point(cfg.params)
    out = {"z12": sp.z12, "q1": sp.q1, "q2": sp.q2,
           "pi_star": sp.pi_star, "in_A": sp.in_A}
    print(json.dumps(out, indent=2) if args.json else out)
    return 0


def _cmd_ftsp(cfg: ExperimentConfig, args) -> int:
    gamma = _parse_state(args.state)
    summary = ftsp_summary(cfg.params, gamma, sigma2_method=args.method)
    if args.json:
        print(json.dumps(asdict(summary), indent=2))
    else:
        print(summary)
    return 0


def _cmd_fluid(cfg: ExperimentConfig, args) -> int:
    x0 = _parse_state(args.x0)
    T, h = args.T, args.h
    # integrate_fluid would end at round(T/h) h; it rejects other T and h
    if (0.0 < h < math.inf and 0.0 < T < math.inf
            and abs(math.remainder(T, h)) > 1e-9 * T):
        raise ValueError(f"--T {T!r} is not a whole number of --h {h!r} "
                         f"steps (T/h = {T / h:.6g})")
    path = integrate_fluid(cfg.params, x0, T=T, h=h)
    names = path.regime_names()
    lines = ["t,q1,q2,z12,pi,regime"]
    for t, (q1, q2, z12), pi, name in zip(path.t.tolist(),
                                          path.states.tolist(),
                                          path.pi.tolist(), names):
        lines.append(f"{t:.6f},{q1:.9f},{q2:.9f},{z12:.9f},{pi:.9f},{name}")
    return _write_or_print(args.csv, "\n".join(lines) + "\n",
                           f"wrote {len(path.t)} rows to {args.csv}")


def _cmd_diffusion(cfg: ExperimentConfig, args) -> int:
    p, n = cfg.params, args.n
    _require_overload(p)
    if args.scaled_threshold:
        p = p.with_kappa12(scale(p, n).kappa_eff)
    g = gaussian_queue_approx(p, n, sigma2_method=args.sigma2_method,
                              psi_convention=args.psi_convention)
    out = {
        "n": n, "kappa_eff": g.kappa_eff,
        "sigma2_method": g.sigma2_method,
        "psi_convention": g.psi_convention,
        "mean_q1": g.mean_q1, "mean_q2": g.mean_q2, "mean_z12": g.mean_z12,
        "std_q1": g.std_q1, "std_q2": g.std_q2,
        "std_qs": g.std_qs, "std_z12": g.std_z12,
        "std_z12_possible": g.std_z12_possible,
        "var_qs_hat": g.cov.var_qs, "var_z_hat": g.cov.var_z,
        "cov_qz_hat": g.cov.cov_qz,
        "M": g.model.M.tolist(), "S": g.model.S.tolist(),
    }
    lines = ["name,value"]
    for k, v in out.items():
        if isinstance(v, list):
            v = json.dumps(v).replace(",", ";")
        lines.append(f"{k},{v}")
    return _write_or_print(args.csv, "\n".join(lines) + "\n",
                           f"wrote {args.csv}",
                           shown=json.dumps(out, indent=2) + "\n")


def _cmd_simulate(cfg: ExperimentConfig, args) -> int:
    _require_overload(cfg.params)
    est = replicate(scale(cfg.params, args.n), cfg.runs, cfg.arrivals,
                    base_seed=cfg.seed, warmup_fraction=cfg.warmup,
                    start=cfg.start)
    lines = ["quantity,mean,std,halfwidth"]
    for name, q in est.quantities.items():
        lines.append(f"{name},{q.mean:.6f},{q.std:.6f},{q.halfwidth:.6f}")
    return _write_or_print(args.csv, "\n".join(lines) + "\n",
                           f"wrote {args.csv}")


def _cmd_validate(cfg: ExperimentConfig, args) -> int:
    report = validate_command(cfg, quick=args.quick)
    rendered = emit_report(report, csv_path=cfg.output.get("csv"),
                           md_path=cfg.output.get("markdown"))
    print(rendered["markdown"])
    return 0 if report.passed else 2


def _cmd_echo_config(cfg: ExperimentConfig, args) -> int:
    print(json.dumps(cfg.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overloadx",
        description="Overloaded two-class two-pool service system: fluid, "
                    "diffusion and simulation toolkit")
    parser.add_argument("--config", help="JSON experiment config")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stationary", help="closed-form stationary fluid point")
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("ftsp", help="fast-process summary at a fluid state")
    s.add_argument("--state", required=True, metavar="q1,q2,z12")
    s.add_argument("--method", default="poisson_numeric",
                   choices=SIGMA2_METHODS)
    s.add_argument("--json", action="store_true")

    s = sub.add_parser("fluid", help="integrate the fluid trajectory")
    s.add_argument("--x0", required=True, metavar="q1,q2,z12")
    s.add_argument("--T", type=float, default=40.0)
    s.add_argument("--h", type=float, default=1e-3)
    s.add_argument("--csv")

    s = sub.add_parser("diffusion", help="Gaussian steady-state approximation")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--sigma2-method", dest="sigma2_method", required=True,
                   choices=SIGMA2_METHODS)
    s.add_argument("--psi-convention", dest="psi_convention", required=True,
                   choices=PSI_CONVENTIONS)
    s.add_argument("--scaled-threshold", action="store_true",
                   help="evaluate at the integer system's realized k_n/n")
    s.add_argument("--csv")

    s = sub.add_parser("simulate", help="replicated pre-limit simulation",
                       description="--runs, --arrivals, --start, --warmup "
                                   "and --seed override the config keys "
                                   "of the same name")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--runs", type=int)
    s.add_argument("--arrivals", type=int)
    s.add_argument("--start", choices=START_MODES)
    s.add_argument("--warmup", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--csv")

    s = sub.add_parser("validate", help="reproduce the reference scenario")
    s.add_argument("--csv", help="CSV report path (config output.csv)")
    s.add_argument("--markdown",
                   help="Markdown report path (config output.markdown)")
    s.add_argument("--quick", action="store_true",
                   help="smoke mode: one tenth of the arrivals")

    sub.add_parser("echo-config", help="print the parsed config as JSON")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        handler = {
            "stationary": _cmd_stationary, "ftsp": _cmd_ftsp,
            "fluid": _cmd_fluid, "diffusion": _cmd_diffusion,
            "simulate": _cmd_simulate, "validate": _cmd_validate,
            "echo-config": _cmd_echo_config,
        }[args.command]
        return handler(cfg, args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
