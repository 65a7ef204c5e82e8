"""Workloads of the overloadx benchmark: inputs, pipelines and output checks.

Every workload drives the package only through its public functions.  The
inputs come from the workload seed alone; the package receives nothing but
the generated inputs.  Module level imports are stdlib only, so that
``setup`` can time the import of ``overloadx`` (and numpy/scipy with it).

Workloads and why each was chosen:

* ``validate`` -- ``validate_command`` on the reference scenario at the
  ``--quick`` arrival count, then ``emit_report``.  Almost all of the time
  is exact simulation (``sim.run``); the FTSP and diffusion work is a few
  milliseconds.  This is the workload where the simulation kernel matters.
* ``transient-r32`` -- r12 = r21 = 3/2: ``integrate_fluid`` (h = 1e-2) from
  an off-manifold x0, then ``time_changes`` and ``transient_covariance``
  with ``poisson_numeric``.  Almost all of the time is lattice solves
  (matrix-geometric pi12, truncated Poisson sigma2); simulation is never
  called.  This is where the FTSP lattice solver matters.
* ``transient-r1`` -- the same pipeline at r = 1 with ``regenerative`` and
  h = 1e-3.  FTSP work here is closed forms only; the time is Python RK4
  in ``fluid`` and ``diffusion``, and the pi12 cache answers most stage
  evaluations.  A lattice-solver change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

# Centre and half-widths of the box the off-manifold initial fluid state x0
# is drawn from.  z12 cannot be negative, so its range is [0, 0.02].
X0_CENTRE = (1.0, 0.2, 0.0)
X0_HALF_WIDTH = (0.05, 0.02, 0.02)

# Tolerances of the sampled-point cross-checks, taken from the oracle tests:
# criterion 6a (pi12 closed form vs lattice, 1e-8) and
# test_sigma2_poisson_matches_regenerative (relative 1e-6).
PI12_TOL = 1e-8
SIGMA2_REL_TOL = 1e-6
SAMPLED_POINTS = 3

# Statistical checks of validate, with fixed tolerances.  Over seeds 1-150
# the simulated mean_q1/mean_q2 cells were within a relative 0.125 of the
# reference table (their standard error is about 0.03 of it) and the pi
# estimate was within 0.0121 of its target (standard error about 0.004).
# The report's own CI-overlap and z <= 3 rules scale with halfwidths that
# each run estimates from 5 replications, so they fail for correct code on
# some seeds (the overlap of the mean cells on 3 of 150).
MEAN_CELLS = ("mean_q1", "mean_q2")
MEAN_REL_TOL = 0.2
PI_ABS_TOL = 0.025

# These statistical checks only catch gross errors: at the --quick arrival
# count a 10 % error in one rate moves the mean cells by less than their
# noise.  The exact check of the kernel replays one uniform stream, drawn
# from the seed, through ``sim.run`` and through the single-step reference
# ``sim.step`` at each scale, for KERNEL_ARRIVALS arrivals.
KERNEL_ARRIVALS = 2000

WORKLOADS = {
    "validate": {"kind": "validate", "scales": [25, 100, 400], "runs": 5,
                 "arrivals": 300000},
    "transient-r1": {"kind": "transient", "r": "1/1", "h": 1e-3, "T": 10.0,
                     "sigma2_method": "regenerative"},
    "transient-r32": {"kind": "transient", "r": "3/2", "h": 1e-2, "T": 0.25,
                      "sigma2_method": "poisson_numeric"},
}

# Reduced sizes: "warmup" for the untimed warm-up call in set-up, "tiny" for
# the smoke tests (long enough for the fluid path to reach the manifold).
SIZES = {
    "warmup": {
        "validate": {"scales": [25], "runs": 2, "arrivals": 20000},
        "transient-r1": {"T": 0.01},
        "transient-r32": {"T": 0.02},
    },
    "tiny": {
        "validate": {"scales": [400]},
        "transient-r1": {"T": 0.5},
        "transient-r32": {"T": 0.12},
    },
}


@dataclass
class Prepared:
    """The inputs of a workload, built during set-up."""

    name: str
    seed: int
    spec: dict
    ox: object                      # the imported overloadx package
    params: object
    config: object
    systems: list
    x0: object = None


def spec_for(name: str, size: str | None = None) -> dict:
    """The workload's parameters, at full size or at one of SIZES."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = dict(WORKLOADS[name])
    if size is not None:
        spec.update(SIZES[size][name])
    return spec


def draw_x0(seed: int) -> tuple:
    """Off-manifold initial fluid state drawn from the stated box."""
    rng = random.Random(seed)
    return tuple(max(c + rng.uniform(-w, w), 0.0)
                 for c, w in zip(X0_CENTRE, X0_HALF_WIDTH))


def setup(name: str, seed: int, tiny: bool = False) -> Prepared:
    """Import overloadx, build params, config and scaled systems, warm up.

    The warm-up runs the workload's own pipeline once at a reduced size, so
    that scipy's lazy imports and first-call costs land here and not in the
    timed iterations.
    """
    import overloadx
    import overloadx.cli

    prepared = _prepare(overloadx, name, seed, "tiny" if tiny else None)
    run_pipeline(_prepare(overloadx, name, seed, "warmup"))
    return prepared


def _prepare(ox, name: str, seed: int, size: str | None) -> Prepared:
    spec = spec_for(name, size)
    p = ox.cli.reference_params()
    if spec["kind"] == "transient":
        p = ox.ModelParams.from_config_dict(
            {**p.to_config_dict(), "r12": spec["r"], "r21": spec["r"]})
    cfg = ox.cli.ExperimentConfig(params=p, seed=seed)
    for key in ("scales", "runs", "arrivals"):
        if key in spec:
            setattr(cfg, key, spec[key])
    return Prepared(name=name, seed=seed, spec=spec, ox=ox, params=p,
                    config=cfg,
                    systems=[ox.params.scale(p, n) for n in cfg.scales],
                    x0=(ox.FluidState(*draw_x0(seed))
                        if spec["kind"] == "transient" else None))


def run_pipeline(prep: Prepared):
    """One timed iteration.  Calls go through module attributes at call
    time, so that the tracer's wrappers on those attributes see them."""
    ox = prep.ox
    if prep.spec["kind"] == "validate":
        report = ox.cli.validate_command(prep.config, quick=True)
        rendered = ox.cli.emit_report(report)
        return {"report": report, "rendered": rendered}
    import numpy as np
    spec = prep.spec
    method = spec["sigma2_method"]
    path = ox.fluid.integrate_fluid(prep.params, prep.x0, T=spec["T"],
                                    h=spec["h"])
    tc = ox.diffusion.time_changes(prep.params, path, method, "plus")
    t, cov = ox.diffusion.transient_covariance(
        prep.params, path, np.zeros((2, 2)), sigma2_method=method,
        psi_convention="plus")
    return {"path": path, "time_changes": tc, "t": t, "cov": cov}


def fingerprint(out: dict) -> str:
    """Hash of every output value, to compare iterations bit for bit."""
    h = hashlib.sha256()
    if "rendered" in out:
        h.update(repr(out["report"]).encode())   # floats in full precision
        h.update(out["rendered"]["csv"].encode())
        h.update(out["rendered"]["markdown"].encode())
        return h.hexdigest()
    path, tc = out["path"], out["time_changes"]
    arrays = [path.t, path.states, path.pi, path.regime, path.in_A,
              out["t"], out["cov"], tc.psi, tc.sigma2]
    arrays += list(tc.all_functions().values())
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def checks(prep: Prepared, out: dict) -> list:
    """Output checks as (name, passed, detail) triples; run untimed."""
    if prep.spec["kind"] == "validate":
        return _validate_checks(prep, out["report"])
    return _transient_checks(prep, out)


def _validate_checks(prep: Prepared, report) -> list:
    # report.passed itself is not a check (see MEAN_REL_TOL); it is recorded
    # by ``summary``.
    out = [(f"chain:{r.name}", bool(r.passed),
            f"delta {r.delta:.2e} tol {r.tolerance:.0e}")
           for r in report.chain_rows]
    out += [(f"approx:n={c.n}:{c.quantity}", bool(c.approx_pass),
             f"delta {c.approx_delta:.2e} tol {c.approx_tol:.0e}")
            for c in report.table_cells]
    out += [(f"sim:n={c.n}:{c.quantity} within {MEAN_REL_TOL:g} of reference",
             abs(c.sim_mean - c.ref_sim) <= MEAN_REL_TOL * abs(c.ref_sim),
             f"sim {c.sim_mean:.4g}, reference {c.ref_sim:.4g}")
            for c in report.table_cells if c.quantity in MEAN_CELLS]
    expected_cells = 6 * len(prep.systems)
    out.append(("table complete", len(report.table_cells) == expected_cells,
                f"{len(report.table_cells)} cells"))
    finite = all(math.isfinite(v) for c in report.table_cells
                 for v in (c.sim_mean, c.sim_halfwidth))
    out.append(("simulated cells finite", finite, ""))
    pc = report.pi_check
    out.append((f"pi estimate within {PI_ABS_TOL:g} of target",
                abs(pc["estimate"] - pc["target"]) <= PI_ABS_TOL,
                f"estimate {pc['estimate']:.5f}, target {pc['target']:.5f}"))
    for sysn in prep.systems:
        out += _kernel_checks(prep.ox.sim, sysn, prep.seed)
    return out


class _Stream:
    """A uniform stream with the ``random()`` method ``sim.step`` calls."""

    def __init__(self, uniforms):
        self._it = iter(uniforms.tolist())

    def random(self) -> float:
        return next(self._it)


def _kernel_checks(sim, sysn, seed: int) -> list:
    import numpy as np
    uniforms = np.random.default_rng(seed).random(16 * KERNEL_ARRIVALS)
    stats = sim.run(sysn, KERNEL_ARRIVALS, warmup_fraction=0.0,
                    uniforms=uniforms)
    stream = _Stream(uniforms)
    state = sim.init_state(sysn, "fluid")
    events = arrivals = 0
    area_q1 = area_q2 = T = 0.0
    while arrivals < KERNEL_ARRIVALS:
        q1, q2 = state.q1, state.q2
        state, event, dt = sim.step(sysn, state, stream)
        area_q1 += q1 * dt
        area_q2 += q2 * dt
        T += dt
        events += 1
        arrivals += event in ("arr1", "arr2")
    same = (stats.events == events
            and stats.final_in_system == state.in_system()
            and math.isclose(stats.mean_q1, area_q1 / T, rel_tol=1e-12)
            and math.isclose(stats.mean_q2, area_q2 / T, rel_tol=1e-12))
    residual = stats.conservation_residual()
    return [
        (f"sim.run = sim.step on one stream, n={sysn.n}", same,
         f"events {stats.events} vs {events}, in system "
         f"{stats.final_in_system} vs {state.in_system()}, mean_q1 "
         f"{stats.mean_q1:.12g} vs {area_q1 / T:.12g}"),
        (f"sim.run invariants, n={sysn.n}",
         stats.one_way_violations == 0 and not any(residual),
         f"one-way violations {stats.one_way_violations}, conservation "
         f"residual {residual}"),
    ]


def summary(prep: Prepared, out: dict) -> dict:
    """Outputs recorded with a run but not checked."""
    if prep.spec["kind"] != "validate":
        return {}
    report = out["report"]
    return {"report_passed": report.passed,
            "overlap_fraction": report.overlap_fraction,
            "pi_z_score": report.pi_check["z_score"]}


def _transient_checks(prep: Prepared, out: dict) -> list:
    import numpy as np
    ox, p = prep.ox, prep.params
    path, tc, cov = out["path"], out["time_changes"], out["cov"]
    s = path.states
    inside = bool(np.all(np.isfinite(s)) and np.all(s[:, :2] >= 0.0)
                  and np.all(s[:, 2] >= 0.0) and np.all(s[:, 2] <= p.m2))
    res = [("path inside S", inside, f"{len(s)} points")]
    finite = bool(np.all(np.isfinite(cov)))
    res.append(("covariances finite", finite, f"{len(cov)} matrices"))
    asym = float(np.max(np.abs(cov - cov.transpose(0, 2, 1))))
    magnitude = max(float(np.max(np.abs(cov))), 1.0)
    res.append(("covariances symmetric", asym <= 1e-12 * magnitude,
                f"max asymmetry {asym:.2e}"))
    min_eig = float(np.min(np.linalg.eigvalsh(cov))) if finite else -np.inf
    res.append(("covariances PSD", min_eig >= -1e-12 * magnitude,
                f"min eigenvalue {min_eig:.3e}"))
    steps = np.diff(tc.gamma3)
    res.append(("gamma3 non-decreasing", bool(np.all(steps >= 0.0)),
                f"min increment {float(np.min(steps)):.3e}"))
    ap = np.nonzero((path.regime == ox.fluid.REGIME_AP) & path.in_A)[0]
    res.append(("path reaches the manifold", ap.size > 0,
                f"{ap.size} averaging-principle points"))
    picks = np.linspace(0, ap.size - 1, SAMPLED_POINTS).round().astype(int)
    for i in np.unique(ap[picks]) if ap.size else []:
        g = path.state_at(i)
        mg = ox.ftsp.pi_12(p, g, "matrix_geometric")
        tr = ox.ftsp.pi_12(p, g, "truncated")
        res.append((f"pi12 mg = truncated at t={path.t[i]:.3f}",
                    abs(mg - tr) <= PI12_TOL, f"|delta| {abs(mg - tr):.2e}"))
        if p.r12 == 1:
            pn = ox.ftsp.asymptotic_variance(p, g, "poisson_numeric")
            rg = ox.ftsp.asymptotic_variance(p, g, "regenerative")
            rel = abs(pn - rg) / abs(rg)
            res.append((f"sigma2 poisson = regenerative at t={path.t[i]:.3f}",
                        rel <= SIGMA2_REL_TOL, f"relative {rel:.2e}"))
    return res
