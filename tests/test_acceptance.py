"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  The stochastic checks use fixed seeds and are deterministic.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from overloadx.params import scale
from overloadx.ftsp import (FluidState, _stationary_truncated,
                            asymptotic_variance, busy_period_moments,
                            drift_rates, ftsp_rates, pi_12, simulate_ftsp)
from overloadx.fluid import stationary_point
from overloadx.diffusion import (bou_matrices, gaussian_queue_approx,
                                 solve_lyapunov, steady_state_covariance)
from overloadx.sim import (SimState, difference_jump_rates,
                           indicator_integral, replicate)
from overloadx.cli import REFERENCE_TABLE, build_chain_rows

from conftest import random_admissible_params


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def table_runs(base_params):
    """Five replications of 300k arrivals at each reference scale."""
    t0 = time.perf_counter()
    runs = {n: replicate(scale(base_params, n), 5, 300000, base_seed=42)
            for n in (25, 100, 400)}
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_1_stationary_point(base_params):
    t0 = time.perf_counter()
    sp = stationary_point(base_params)
    got = dict(z=sp.z12, q1=sp.q1, q2=sp.q2, pi=sp.pi_star)
    want = dict(z=0.2111, q1=0.6556, q2=0.5556, pi=0.1763)
    deltas = {k: abs(got[k] - want[k]) for k in want}
    elapsed = time.perf_counter() - t0
    ok = all(d <= 5e-4 for d in deltas.values()) and elapsed < 1.0
    report("1 (stationary fluid point)", ok,
           f"max delta {max(deltas.values()):.2e} <= 5e-4, {elapsed * 1e3:.1f} ms")


def test_criterion_2_ftsp_rates_and_busy_chain(base_params):
    t0 = time.perf_counter()
    sp = stationary_point(base_params)
    r = ftsp_rates(base_params, sp.as_state())
    bp1 = busy_period_moments(r.lam1, r.mu1)
    bp2 = busy_period_moments(r.lam2, r.mu2)
    pi = bp1.mean / (bp1.mean + bp2.mean)
    pairs = [
        (r.lam1, 1.411), (r.mu1, 2.989), (r.lam2, 2.031), (r.mu2, 2.369),
        (bp1.mean, 0.6338), (bp2.mean, 2.9603), (bp1.variance, 1.1201),
        (pi, 0.1763),
    ]
    deltas = [abs(a - b) for a, b in pairs]
    elapsed = time.perf_counter() - t0
    ok = all(d <= 5e-4 for d in deltas) and elapsed < 1.0
    report("2 (FTSP rates and busy-period chain)", ok,
           f"max delta {max(deltas):.2e} <= 5e-4, {elapsed * 1e3:.1f} ms")


def test_criterion_3_diffusion_arithmetic_chain(base_params):
    t0 = time.perf_counter()
    rows, _ = build_chain_rows(base_params)
    elapsed = time.perf_counter() - t0
    chain = {r.name: r for r in rows}
    failures = [r.name for r in rows if not r.passed]
    ok = not failures and elapsed < 1.0
    detail = (f"{len(rows)} constants "
              f"(exact rule for four-decimal cells, printed-rounding for the "
              f"two-decimal deviations, rounded-chain reproduction for the "
              f"cells the reference derived from rounded intermediates); "
              f"worst exact delta "
              f"{max(r.delta for r in rows if r.rule == 'exact'):.2e}, "
              f"{elapsed * 1e3:.0f} ms")
    if failures:
        detail = f"failing cells: {failures}"
    report("3 (reference diffusion arithmetic chain)", ok, detail)
    # spot values pinned
    assert chain["sigma2"].computed == pytest.approx(0.3116, abs=5e-4)
    assert chain["var_qs"].chain_value == pytest.approx(11.6006, abs=5e-4)


def test_criterion_4_table_approximations(base_params):
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for n, ref in REFERENCE_TABLE.items():
        p_n = base_params.with_kappa12(scale(base_params, n).kappa_eff)
        g = gaussian_queue_approx(p_n, n, sigma2_method="paper_r1",
                                  psi_convention="paper-sec10")
        got = {"mean_q1": g.mean_q1, "mean_q2": g.mean_q2,
               "std_qs": g.std_qs, "std_q1": g.std_q1, "std_q2": g.std_q2,
               "std_qs_hat": g.std_qs / math.sqrt(n)}
        for qty, ref_val in ref["approx"].items():
            ulp = 10.0 ** -(len(str(ref_val).split(".")[1]) if "." in str(ref_val) else 0)
            delta = abs(got[qty] - ref_val)
            worst = max(worst, delta / ulp)
            ok = ok and delta <= ulp
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report("4 (table approximation columns)", ok,
           f"all cells within one printed unit; worst {worst:.2f} ulp, "
           f"{elapsed * 1e3:.0f} ms")


def test_criterion_5_table_simulation_overlap(base_params, table_runs):
    cells = 0
    overlapping = 0
    misses = []
    for n in (25, 100, 400):
        est = table_runs[n]
        rt = math.sqrt(n)
        for qty, (ref_val, ref_hw) in REFERENCE_TABLE[n]["sim"].items():
            if qty == "std_qs_hat":
                mean = est["std_qs"].mean / rt
                hw = est["std_qs"].halfwidth / rt
            else:
                mean = est[qty].mean
                hw = est[qty].halfwidth
            cells += 1
            if abs(mean - ref_val) <= hw + ref_hw:
                overlapping += 1
            else:
                misses.append((n, qty, round(mean, 2), ref_val))
    frac = overlapping / cells
    elapsed = table_runs["elapsed"]
    ok = frac >= 0.9 and cells == 18 and elapsed < 120.0
    report("5 (table simulation columns)", ok,
           f"{overlapping}/{cells} cells overlap ({frac:.0%} >= 90%), "
           f"misses={misses}, sim time {elapsed:.1f} s < 120 s")


def test_criterion_6a_bd_vs_qbd_pi(base_params):
    rng = np.random.default_rng(606)
    worst = 0.0
    checked = 0
    while checked < 100:
        g = FluidState(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                       rng.uniform(0.05, 0.95))
        d_plus, d_minus = drift_rates(ftsp_rates(base_params, g))
        if not (d_plus < -0.05 and d_minus > 0.05):
            continue
        bd = pi_12(base_params, g, "busy_period")
        trunc = pi_12(base_params, g, "truncated")
        mg = pi_12(base_params, g, "matrix_geometric")
        worst = max(worst, abs(bd - trunc), abs(bd - mg))
        checked += 1
    ok = worst < 1e-8
    report("6a (closed form vs lattice stationary mass)", ok,
           f"100 recurrent states, worst |delta pi| = {worst:.2e} < 1e-8")


def test_criterion_6b_covariance_vs_lyapunov(base_params):
    rng = np.random.default_rng(607)
    worst = 0.0
    for p in random_admissible_params(rng, 500):
        m = bou_matrices(p, sigma2_method="regenerative", psi_convention="plus")
        cov = steady_state_covariance(m)
        sig = solve_lyapunov(m.M, m.V)
        rel = np.max(np.abs(sig - cov.matrix())) / max(cov.var_qs, cov.var_z)
        worst = max(worst, rel)
    ok = worst < 1e-10
    report("6b (closed covariance vs Lyapunov solve)", ok,
           f"500 parameter sets, worst relative gap {worst:.2e} < 1e-10")


def test_criterion_6c_sigma2_oracles(base_params):
    sp = stationary_point(base_params)
    x_star = sp.as_state()
    poisson = asymptotic_variance(base_params, x_star, "poisson_numeric")
    mc = simulate_ftsp(base_params, x_star, horizon=8.0e6,
                       seed=20240906).sigma2
    rel = abs(mc - poisson) / poisson
    paper = asymptotic_variance(base_params, x_star, "paper_r1")
    regen = asymptotic_variance(base_params, x_star, "regenerative")
    matches = ("regenerative"
               if abs(regen - poisson) < abs(paper - poisson) else "paper_r1")
    ok = rel < 0.02
    report("6c (sigma2: numeric vs Monte Carlo)", ok,
           f"poisson={poisson:.5f}, mc={mc:.5f}, gap {rel:.2%} < 2%; "
           f"of the closed forms (paper_r1={paper:.5f}, "
           f"regenerative={regen:.5f}) the '{matches}' formula matches the "
           f"ground truth")


def test_criterion_6d_generator_vs_ftsp(base_params):
    sysn = scale(base_params, 100)
    rng = np.random.default_rng(608)
    worst = 0.0
    done = 0
    while done < 50:
        q1 = int(rng.integers(1, 250))
        q2 = int(rng.integers(1, 250))
        z12 = int(rng.integers(0, 101))
        if q2 - sysn.k21n - q1 > 0:
            continue
        st = SimState(q1=q1, q2=q2, z11=100, z12=z12, z21=0, z22=100 - z12)
        jumps = difference_jump_rates(sysn, st)
        fr = ftsp_rates(base_params, FluidState(q1 / 100, q2 / 100, z12 / 100))
        expect = ({1: fr.lam1, -1: fr.mu1} if q1 - sysn.k12n - q2 > 0
                  else {1: fr.mu2, -1: fr.lam2})
        for jump, rate in jumps.items():
            worst = max(worst, abs(rate / 100 - expect[int(jump)]))
        done += 1
    ok = worst < 1e-12
    report("6d (simulator generator vs FTSP rates)", ok,
           f"50 states, worst rate gap {worst:.2e} (exact)")


def test_invariants_state_space_collapse(base_params, table_runs):
    # module invariants tied to the large simulations: diffusion-scale
    # shrinkage of the weighted queue difference, near-full pools at the
    # largest scale, and the one-way sharing guard over >= 1e7 events
    scaled_d_std = {}
    shortfall = {}
    events = 0
    violations = 0
    for n in (25, 100, 400):
        runs = table_runs[n].runs
        scaled_d_std[n] = float(np.mean([s.std_d for s in runs])) / math.sqrt(n)
        shortfall[n] = float(np.mean([s.frac_pool_shortfall for s in runs]))
        events += sum(s.events for s in runs)
        violations += sum(s.one_way_violations for s in runs)
        for s in runs:
            assert s.conservation_residual() == (0, 0)
    seed = 4242
    while events < 10_000_000:   # top up to the required event count
        from overloadx.sim import run as sim_run
        extra = sim_run(scale(base_params, 100), 300000, seed=seed)
        events += extra.events
        violations += extra.one_way_violations
        seed += 1
    assert scaled_d_std[100] < scaled_d_std[25]
    assert scaled_d_std[400] < scaled_d_std[100]
    assert shortfall[400] < 0.01
    assert violations == 0 and events >= 10_000_000
    report("invariants (SSC, occupancy, one-way guard)", True,
           f"scaled difference std {scaled_d_std[25]:.3f} > "
           f"{scaled_d_std[100]:.3f} > {scaled_d_std[400]:.3f}; "
           f"shortfall(400) = {shortfall[400]:.2e} < 1%; "
           f"0 violations over {events:,} events")


def test_invariants_transient_covariance_vs_sde_simulation(base_params):
    # the transient noise-matrix assembly (including the sign bookkeeping of
    # the two pool-2 streams shared by both equations) is a derivation, so
    # it is held against a direct Euler-Maruyama simulation of the limit
    # pair along a genuinely time-varying path
    from overloadx.fluid import integrate_fluid
    from overloadx.ftsp import FluidState
    from overloadx.diffusion import _integrand_rows, transient_covariance

    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0),
                           T=5.0, h=5e-3)
    rows, _ = _integrand_rows(base_params, path.states, path.pi,
                              "regenerative", "plus")
    _, cc = transient_covariance(base_params, path, np.zeros((2, 2)),
                                 sigma2_method="regenerative",
                                 psi_convention="plus")
    target = cc[-1]

    rng = np.random.default_rng(314159)
    reps = 60000
    qs = np.zeros(reps)
    z = np.zeros(reps)
    g1 = np.broadcast_to(rows["gamma1"], path.t.shape)
    m12 = base_params.mu22 - base_params.mu12
    p1 = float(base_params.r12) / (1.0 + float(base_params.r12))
    theta_mix = p1 * base_params.theta1 + (1.0 - p1) * base_params.theta2
    stride = 2   # piecewise-constant coefficients on a 1e-2 grid
    for i in range(0, len(path.t) - stride, stride):
        dt = path.t[i + stride] - path.t[i]
        sq = math.sqrt(dt)
        du = rng.normal(size=(6, reps)) * sq
        d_l1 = math.sqrt(g1[i]) * du[0]
        d_l12 = math.sqrt(rows["phi12"][i]) * du[1]
        d_l22 = math.sqrt(rows["phi22"][i]) * du[2]
        d_s12 = math.sqrt(rows["gamma12"][i]) * du[3]
        d_s22 = math.sqrt(rows["gamma22"][i]) * du[4]
        d_l2 = math.sqrt(rows["gamma2"][i]) * du[5]
        pi = path.pi[i]
        qs = (qs + (m12 * z - theta_mix * qs) * dt
              + d_l1 - d_l12 - d_s12 - d_l22 - d_s22)
        z = z + (-(m12 * pi + base_params.mu12) * z) * dt - d_l12 + d_l22 + d_l2
    emp = np.cov(np.vstack([qs, z]))
    gap = float(np.max(np.abs(emp - target)) / np.abs(target).max())
    ok = gap < 0.02
    report("invariants (noise assembly vs direct simulation of the limit pair)",
           ok, f"max covariance gap {gap:.2%} < 2% over {reps} paths")


def test_criterion_7_averaging_principle(base_params, table_runs):
    est = table_runs[400]
    frac = est["frac_d_positive"]
    se = frac.std / math.sqrt(5)
    sysn = scale(base_params, 400)
    pi_star = stationary_point(
        base_params.with_kappa12(sysn.kappa_eff)).pi_star
    z = abs(frac.mean - pi_star) / se
    ok = z <= 3.0
    report("7 (averaging principle at n=400)", ok,
           f"positive fraction {frac.mean:.5f} vs pi* {pi_star:.5f}, "
           f"z = {z:.2f} <= 3")


def test_criterion_8_recurrence_criterion(base_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    p32 = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    checked = 0
    mismatches = 0
    while checked < 1000:
        p = base_params if checked % 2 == 0 else p32
        g = FluidState(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0),
                       rng.uniform(0.0, 1.0))
        d_plus, d_minus = drift_rates(ftsp_rates(p, g))
        if min(abs(d_plus), abs(d_minus)) < 0.05:
            continue   # null-recurrent boundary band
        drift_rec = d_plus < 0.0 and d_minus > 0.0
        lattice = ftsp_rates(p, g)
        if drift_rec:
            pi = pi_12(p, g, "matrix_geometric")
        else:
            nmax = 1024
            pi = _stationary_truncated(lattice, nmax)[nmax + 1:].sum()
        mass_rec = 1e-3 < pi < 1.0 - 1e-3
        if drift_rec != mass_rec:
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report("8 (recurrence drift test vs stationary mass)", ok,
           f"1000 states, {mismatches} mismatches, {elapsed:.1f} s < 30 s")


def test_criterion_9_single_class_reduction(base_params):
    p = replace(base_params, mu12=1.0)
    for method, psi in (("regenerative", "plus"),
                        ("poisson_numeric", "plus"),
                        ("paper_r1", "paper-sec10")):
        cov = steady_state_covariance(
            bou_matrices(p, sigma2_method=method, psi_convention=psi))
        expect = (p.lambda1 + p.lambda2) / p.theta1
        assert cov.var_qs == pytest.approx(expect, rel=1e-12), method
    report("9 (single-class total-queue variance)", True,
           f"var = (lambda1+lambda2)/theta = {expect} exactly, all methods")


def test_criterion_10_time_varying_variance_spot_check(base_params):
    t_end = 5.0
    reps = 400
    sysn = scale(base_params, 400)
    sp = stationary_point(base_params.with_kappa12(sysn.kappa_eff))
    sigma2 = asymptotic_variance(base_params, sp.as_state(), "poisson_numeric")
    gamma3 = sigma2 * t_end
    vals = np.array([
        indicator_integral(sysn, t_end,
                           np.random.SeedSequence(entropy=1010, spawn_key=(i,)),
                           sp.pi_star)
        for i in range(reps)])
    emp = float(vals.var(ddof=1))
    rel = abs(emp - gamma3) / gamma3
    ok = rel < 0.25
    report("10 (time-varying indicator variance)", ok,
           f"empirical {emp:.3f} vs gamma3(5) = {gamma3:.3f} with the "
           f"oracle-selected sigma2, gap {rel:.1%} < 25% over {reps} runs")
