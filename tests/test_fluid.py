import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import overloadx.fluid
from overloadx.ftsp import (FluidState, drift_kernel, drift_rates, ftsp_rates,
                            pi_12, pi_from_drifts)
from overloadx.fluid import (REGIME_AP, REGIME_PI_ONE, REGIME_PI_ZERO,
                             integrate_fluid, ode_rhs, stationary_point,
                             time_to_stationarity)

from conftest import random_admissible_params


def xstar_array(p):
    sp = stationary_point(p)
    return np.array([sp.q1, sp.q2, sp.z12])


def reference_integrate(p, x0, T, h, tol_manifold=None):
    """The fixed-step RK4 of integrate_fluid written on numpy arrays with
    the public ode_rhs and pi_12: the oracle of the float loop."""
    n_steps = int(round(T / h))
    r = float(p.r12)

    def on_manifold(qs):
        q2 = max((qs - p.kappa12) / (1.0 + r), 0.0)
        return qs - q2, q2

    def rk4(f, u):
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def f_reduced(u):
        q1, q2 = on_manifold(u[0])
        g = FluidState(q1, q2, min(max(u[1], 0.0), p.m2))
        d = ode_rhs(p, g, pi_12(p, g))
        return np.array([d[0] + d[1], d[2]])

    x = x0.as_array()
    rows = []
    for i in range(n_steps + 1):
        g = FluidState(*x.tolist())
        d = g.q1 - p.kappa12 - r * g.q2
        rate = (p.lambda1 + p.lambda2 + p.theta1 * g.q1 + p.theta2 * g.q2
                + p.mu11 * p.m1 + p.mu12 * g.z12 + p.mu22 * (p.m2 - g.z12))
        band = tol_manifold if tol_manifold is not None else 10.0 * h * rate
        d_plus, d_minus = drift_rates(ftsp_rates(p, g))
        rec = d_plus < 0.0 and d_minus > 0.0
        if d > band:
            pi, reg = 1.0, REGIME_PI_ONE
        elif d < -band:
            pi, reg = 0.0, REGIME_PI_ZERO
        else:
            pi, reg = (1.0 if d_plus >= 0.0 else 0.0), REGIME_AP
        if reg == REGIME_AP and rec:
            x = np.array([*on_manifold(x[0] + x[1]), x[2]])
            pi = pi_12(p, FluidState(*x.tolist()))
        rows.append((*x, pi, reg, rec))
        if i == n_steps:
            break
        if reg == REGIME_AP and rec:
            u = rk4(f_reduced, np.array([x[0] + x[1], x[2]]))
            x_new = np.array([*on_manifold(max(u[0], 0.0)), u[1]])
        else:
            x_new = rk4(lambda a: ode_rhs(p, FluidState(*a), pi), x)
        if max(-x_new[0], -x_new[1], -x_new[2], x_new[2] - p.m2) > 10.0 * h:
            raise RuntimeError("state escaped the fluid state space")
        x = np.array([max(x_new[0], 0.0), max(x_new[1], 0.0),
                      min(max(x_new[2], 0.0), p.m2)])
    return np.array(rows)


@pytest.mark.parametrize("ratio, x0, T, h, tol", [
    # off-manifold start: pi1 steps, then the manifold
    ("1/1", (1.0, 0.2, 0.0), 3.0, 1e-2, None),
    # starts below the band: pi0 steps
    ("1/1", (0.0, 1.5, 0.9), 3.0, 1e-2, None),
    # on the manifold from the start, with a fixed band
    ("1/1", (0.65, 0.55, 0.3), 1.0, 1e-2, 0.05),
    # a wide band around a transient FTSP: drift-sign pi off the manifold
    ("1/1", (0.0, 12.0, 0.5), 1.0, 1e-2, 100.0),
    ("3/2", (1.0, 0.2, 0.0), 2.0, 1e-2, None),
    ("3/2", (0.9, 0.5, 0.3), 2.0, 2e-3, None),
    # a band entry whose projected queues, projected again, move by an
    # ulp: stage 1 evaluates its own drifts, and its pi shows in the path
    ("3/2", (2.06, 1.33, 0.3), 1.0, 0.25, 0.05),
    ("2/1", (1.0, 0.2, 0.0), 2.0, 1e-2, None),
    # pi0 steps before the manifold
    ("2/1", (0.9, 0.5, 0.3), 2.0, 2e-3, None),
    ("5/3", (1.0, 0.2, 0.0), 2.0, 1e-2, None),
    ("5/3", (0.9, 0.5, 0.3), 2.0, 2e-3, None),
])
def test_integrate_matches_reference_loop(base_params, ratio, x0, T, h, tol):
    p = replace(base_params, r12=ratio, r21=ratio)
    path = integrate_fluid(p, FluidState(*x0), T=T, h=h, tol_manifold=tol)
    ref = reference_integrate(p, FluidState(*x0), T=T, h=h, tol_manifold=tol)
    assert np.array_equal(path.states, ref[:, :3])
    assert np.array_equal(path.pi, ref[:, 3])
    assert np.array_equal(path.regime, ref[:, 4].astype(np.int8))
    assert np.array_equal(path.in_A, ref[:, 5].astype(bool))
    n = len(ref)
    assert np.array_equal(path.t, np.linspace(0.0, (n - 1) * h, n))


def assert_path_equals_reference(path, ref):
    assert np.array_equal(path.states, ref[:, :3])
    assert np.array_equal(path.pi, ref[:, 3])
    assert np.array_equal(path.regime, ref[:, 4].astype(np.int8))
    assert np.array_equal(path.in_A, ref[:, 5].astype(bool))


RATES = ("lambda1", "lambda2", "theta1", "theta2", "mu11", "mu12", "mu21",
         "mu22")


@pytest.mark.parametrize("speed, changes, x0, T, h, tol, clamped", [
    # qs < kappa12 on the manifold: q2 clamped to 0 at every stage and step
    (1.0, dict(kappa12=3.0), (2.0, 0.0, 0.3), 2.0, 0.1, 5.0, ("q2", 0.0)),
    # z12 clamped at 0 in reduced stages and after a step
    (3.0, dict(kappa12=3.0), (0.07, 0.97, 0.86), 4.0, 1.0, 5.0,
     ("z12", 0.0)),
    # z12 clamped at m2 after pi0 steps, which overshoot at h mu12 = 3
    (1.0, dict(mu12=6.0), (0.0, 1.5, 0.42), 2.0, 0.5, 0.5, ("z12", 1.0)),
    # r = 3/2: z12 clamped at m2 and at 0 in reduced stages, at 0 after a step
    (3.0, dict(theta2=1.0, r12=Fraction(3, 2), r21=Fraction(3, 2)),
     (1.02, 0.91, 0.55), 4.0, 1.0, 0.5, ("z12", 0.0)),
])
def test_integrate_clamps_match_reference_loop(base_params, speed, changes,
                                               x0, T, h, tol, clamped):
    # steps so long that stages and steps leave S and are clamped back
    p = replace(base_params, **changes)
    p = replace(p, **{name: getattr(p, name) * speed for name in RATES})
    path = integrate_fluid(p, FluidState(*x0), T=T, h=h, tol_manifold=tol)
    ref = reference_integrate(p, FluidState(*x0), T=T, h=h, tol_manifold=tol)
    name, bound = clamped
    assert bound in getattr(path, name)[1:]
    assert_path_equals_reference(path, ref)


def test_integrate_buffer_edges_match_reference_loop(base_params):
    # paths of 1 and 2 points and paths that end on either side of the
    # 1,024-row buffer's edges are prefixes of the reference path
    h = 1e-3
    ref = reference_integrate(base_params, FluidState(1.0, 0.2, 0.0),
                              T=2049 * h, h=h)
    for points in (1, 2, 1024, 1025, 1026, 2048, 2049, 2050):
        path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0),
                               T=max(points - 1, 0.1) * h, h=h)
        assert len(path.t) == points
        assert_path_equals_reference(path, ref[:points])


def test_integrate_escape_matches_reference_loop(base_params):
    # every rate 100 times the reference: one pi = 1 step of 0.1 from
    # q1 = 0.5 drives q1 below zero by far more than 10h
    p = replace(base_params, lambda1=130.0, lambda2=90.0, theta1=20.0,
                theta2=20.0, mu11=100.0, mu12=80.0, mu21=80.0, mu22=100.0)
    x0 = FluidState(0.5, 0.0, 0.5)
    for integrate in (reference_integrate, integrate_fluid):
        with pytest.raises(RuntimeError, match="escaped"):
            integrate(p, x0, T=1.0, h=0.1, tol_manifold=0.0)


def test_integrate_runaway_step_raises(base_params):
    # every rate 10 times the reference: h mu12 = 4 is past RK4's stability
    # bound on the real axis, so the pi = 0 steps blow q1 up, while the
    # exact q1 + q2 stays below max(qs(0), (lambda1 + lambda2 - m1 mu11)
    # / min(theta)) = 1.77.  No step leaves S by more than 10h, so only
    # that bound catches it.
    p = replace(base_params, lambda1=13.0, lambda2=9.0, theta1=20.0,
                theta2=20.0, mu11=10.0, mu12=8.0, mu21=8.0, mu22=10.0)
    x0 = FluidState(0.68, 1.09, 0.42)
    with pytest.raises(RuntimeError, match="reduce the step size"):
        integrate_fluid(p, x0, T=4.0, h=0.5, tol_manifold=0.5)
    # The drift kernel's rejection of a state that a step produced is a
    # step-size failure too, not bad input: over 1,200 steps q1 reaches inf
    # inside the first block, before that bound is checked; with the
    # default band the first step's reduced RK4 stage makes q1 negative.
    for T, band in ((600.0, 0.5), (4.0, None)):
        with pytest.raises(RuntimeError, match="reduce the step size") as info:
            integrate_fluid(p, x0, T=T, h=0.5, tol_manifold=band)
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("ratio", ["1/1", "3/2"])
def test_integrate_evaluates_drifts_once_per_point(base_params, monkeypatch,
                                                   ratio):
    # every row costs one evaluation: the drift kernel for its regime test
    # outside the band, inside it the stage kernel's call at the manifold
    # state, which is also the step's first reduced stage, so a recurrent
    # AP step adds stages 2-4 only.  Entering the band moves the state
    # once, which costs one drift evaluation more for in_A at the state
    # itself.  A reduced stage evaluates the drifts inside its one call, so
    # the stage kernel's calls count as evaluations too.
    calls = []

    def counting(build):
        def counting_build(p):
            kernel = build(p)

            def counted(*args):
                calls.append(args)
                return kernel(*args)

            return counted

        return counting_build

    monkeypatch.setattr(overloadx.fluid, "drift_kernel",
                        counting(drift_kernel))
    monkeypatch.setattr(overloadx.fluid, "_stage_kernel",
                        counting(overloadx.fluid._stage_kernel))
    p = replace(base_params, r12=ratio, r21=ratio)
    x0 = FluidState(1.0, 0.2, 0.0)
    path = integrate_fluid(p, x0, T=2.0, h=1e-2)
    ap = (path.regime == REGIME_AP) & path.in_A
    steps = int(np.count_nonzero(ap[:-1]))
    entries = int(np.count_nonzero(ap[1:] & ~ap[:-1])) + int(ap[0])
    assert steps > 150 and entries == 1
    assert len(calls) <= len(path.t) + 3 * steps + entries
    assert_path_equals_reference(
        path, reference_integrate(p, x0, T=2.0, h=1e-2))


def _stage_by_composition(p, qs, z):
    """A reduced stage as rhs(pi_from_drifts(drift_kernel)) at the manifold
    state of qs, with q2 and z12 clamped into S by the builtins; returns
    (dqs, dz12, pi, q1, q2, d_plus, d_minus), the stage's values."""
    q2 = max((qs - p.kappa12) / (1.0 + float(p.r12)), 0.0)
    q1, z = qs - q2, min(max(z, 0.0), p.m2)
    d_plus, d_minus = drift_kernel(p)(q1, q2, z)
    pi = pi_from_drifts(d_plus, d_minus)
    dq1, dq2, dz = overloadx.fluid._rhs_on_floats(p)(q1, q2, z, pi)
    return dq1 + dq2, dz, pi, q1, q2, d_plus, d_minus


@pytest.mark.parametrize("ratio", ["1/1", "3/2", "2/1", "5/3"])
def test_stage_kernel_matches_composition_bit_for_bit(base_params, ratio):
    # every value the stage returns: both slopes, pi, the projected q1 and
    # q2 and both drifts, at q1 + q2 of every state of ftsp_golden.json,
    # and at z12 below 0 and above m2, which the stage clamps; theta1 or
    # theta2 raised tenfold makes the FTSP transient on the manifold, for
    # pi = 0 and pi = 1
    golden = json.loads(
        (Path(__file__).parent / "ftsp_golden.json").read_text())
    states = next(case["states"] for case in golden if case["ratio"] == ratio)
    p = replace(base_params, r12=Fraction(ratio), r21=Fraction(ratio))
    pis = set()
    for params in (p, replace(p, theta1=10.0 * p.theta1),
                   replace(p, theta2=10.0 * p.theta2)):
        stage = overloadx.fluid._stage_kernel(params)
        for q1, q2, z in states:
            for z12 in (z, -0.25, params.m2 + 0.25):
                want = _stage_by_composition(params, q1 + q2, z12)
                got = stage(q1 + q2, z12)
                assert len(got) == 7
                assert [v.hex() for v in got] == [v.hex() for v in want], (
                    params, q1 + q2, z12)
                pis.add(want[2])
    assert {0.0, 1.0} < pis


@pytest.mark.parametrize("ratio", ["1/1", "3/2"])
@pytest.mark.parametrize("qs, z", [
    (math.nan, 0.3), (0.5, math.nan), (math.inf, 0.3), (-1.0, 0.3)])
def test_stage_kernel_rejects_states_as_drift_kernel_does(base_params, ratio,
                                                          qs, z):
    # the stage's state check raises drift_kernel's ValueError at the
    # projected state: NaN, inf (q1 = inf - inf) and q1 < 0 (qs < 0)
    p = replace(base_params, r12=Fraction(ratio), r21=Fraction(ratio))
    q2 = (qs - p.kappa12) / (1.0 + float(p.r12))
    if 0.0 > q2:
        q2 = 0.0
    with pytest.raises(ValueError) as want:
        drift_kernel(p)(qs - q2, q2, z)
    with pytest.raises(ValueError) as got:
        overloadx.fluid._stage_kernel(p)(qs, z)
    assert str(got.value) == str(want.value)


def test_stationary_point_reference(base_params):
    sp = stationary_point(base_params)
    assert sp.z12 == pytest.approx(0.2111111111, abs=1e-9)
    assert sp.q1 == pytest.approx(0.6555555556, abs=1e-9)
    assert sp.q2 == pytest.approx(0.5555555556, abs=1e-9)
    assert sp.pi_star == pytest.approx(0.1763341067, abs=1e-9)
    assert sp.in_A
    # manifold relation with the threshold offset
    assert sp.q1 - base_params.kappa12 == pytest.approx(float(base_params.r12) * sp.q2)


def test_stationary_point_zero_offset(base_params):
    p = replace(base_params, kappa12=0.0, kappa21=0.0)
    sp = stationary_point(p)
    assert sp.z12 == pytest.approx(0.08 / 0.36, abs=1e-12)
    assert sp.q1 == pytest.approx(0.6111111111, abs=1e-9)
    assert sp.q2 == pytest.approx(sp.q1, abs=1e-12)


def test_stationary_point_capped(base_params):
    p = replace(base_params, lambda1=8.0)
    sp = stationary_point(p)
    assert sp.z12 == p.m2
    assert not sp.in_A


def test_stationary_point_outside_state_space(base_params):
    # a large threshold offset stops sharing (z = 0) while class 2 alone is
    # underloaded, so the balance gives a negative queue
    with pytest.raises(ValueError, match=r"q2 = -0\.49999"):
        stationary_point(replace(base_params, kappa12=5.0))


def test_ode_rhs_vanishes_at_stationary_point(base_params):
    sp = stationary_point(base_params)
    rhs = ode_rhs(base_params, sp.as_state(), sp.pi_star)
    assert np.max(np.abs(rhs)) < 1e-12
    # with the four-decimal quoted coordinates the residual is only
    # rounding-sized
    rhs_rounded = ode_rhs(base_params, FluidState(0.6556, 0.5556, 0.2111), 0.1763)
    assert np.max(np.abs(rhs_rounded)) < 5e-4


def test_ode_rhs_saturated_pool(base_params):
    rhs = ode_rhs(base_params, FluidState(1.0, 1.0, base_params.m2), 1.0)
    assert rhs[2] == 0.0   # no class-2 agents left in pool 2


def test_ode_rhs_forced_sharing_rate(base_params):
    rhs = ode_rhs(base_params, FluidState(1.5, 0.0, 0.0), 1.0)
    assert rhs[0] == pytest.approx(1.3 - 1.0 - 1.0 - 0.3)


def test_ode_rhs_rejects_bad_pi(base_params):
    with pytest.raises(ValueError):
        ode_rhs(base_params, FluidState(1.0, 1.0, 0.5), 1.5)


def test_integrate_stationary_start_is_constant(base_params):
    sp = stationary_point(base_params)
    path = integrate_fluid(base_params, sp.as_state(), T=20.0, h=1e-3)
    dev = np.max(np.abs(path.states - xstar_array(base_params)))
    assert dev < 1e-6


def test_integrate_converges_from_off_manifold(base_params):
    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=40.0, h=1e-3)
    err = np.max(np.abs(path.states - xstar_array(base_params)), axis=1)
    assert err[-1] < 1e-4
    # error decreasing once past the initial sharing transient
    after = err[path.t >= 1.0]
    assert np.all(np.diff(after) <= 1e-12)
    # cross-check against a half-step integration
    path2 = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=40.0, h=5e-4)
    assert abs(path2.states[-1] - xstar_array(base_params)).max() < 1e-4


def test_integrate_pool_dependent_total_queue_closed_form(base_params):
    # with equal pool-2 rates and equal thetas the total queue solves a
    # scalar linear ODE regardless of the routing split
    p = replace(base_params, mu12=1.0)
    path = integrate_fluid(p, FluidState(1.0, 0.2, 0.0), T=20.0, h=1e-3)
    eta1 = p.lambda1 + p.lambda2 - p.m1 * p.mu11 - p.m2 * p.mu22
    eta2 = p.theta1
    closed = eta1 / eta2 + (1.2 - eta1 / eta2) * np.exp(-eta2 * path.t)
    assert np.max(np.abs(path.qs - closed)) < 1e-6


def test_integrate_argument_validation(base_params):
    x0 = FluidState(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        integrate_fluid(base_params, x0, T=10.0, h=0.0)
    with pytest.raises(ValueError):
        integrate_fluid(base_params, x0, T=-1.0, h=1e-3)
    with pytest.raises(ValueError):
        integrate_fluid(base_params, FluidState(-1.0, 0.5, 0.0), T=1.0, h=1e-3)


@pytest.mark.parametrize("x0, T, h", [
    ((math.nan, 0.2, 0.0), 1.0, 1e-2),
    ((1.0, math.inf, 0.0), 1.0, 1e-2),
    ((1.0, 0.2, 0.0), math.inf, 1e-2),
    ((1.0, 0.2, 0.0), math.nan, 1e-2),
    ((1.0, 0.2, 0.0), 1.0, math.inf),
    ((1.0, 0.2, 0.0), 1.0, math.nan),
])
def test_integrate_rejects_non_finite_input(base_params, x0, T, h):
    with pytest.raises(ValueError):
        integrate_fluid(base_params, FluidState(*x0), T=T, h=h)


@pytest.mark.parametrize("band", [math.nan, -0.5, -1e-12])
def test_integrate_rejects_a_negative_or_nan_band(base_params, band):
    with pytest.raises(ValueError, match="manifold band must be non-negative"):
        integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=1.0,
                        h=1e-2, tol_manifold=band)


def test_manifold_preservation(base_params):
    # start on the ratio manifold inside the recurrence set
    sp = stationary_point(base_params)
    q2 = sp.q2 + 0.2
    x0 = FluidState(base_params.kappa12 + q2, q2, sp.z12)
    h = 1e-3
    path = integrate_fluid(base_params, x0, T=10.0, h=h)
    ap_steps = path.regime == REGIME_AP
    assert ap_steps.all()
    assert np.max(np.abs(path.manifold_gap()[ap_steps])) < 5.0 * h


def test_step_halving_order(base_params):
    # smooth single-regime segment: on-manifold start, exact pi each step
    sp = stationary_point(base_params)
    q2 = sp.q2 + 0.3
    x0 = FluidState(base_params.kappa12 + q2, q2, sp.z12 + 0.1)
    sols = {}
    for h in (4e-3, 2e-3, 1e-3):
        path = integrate_fluid(base_params, x0, T=2.0, h=h)
        sols[h] = path.states[-1]
    ref = sols[1e-3]
    err4 = np.max(np.abs(sols[4e-3] - ref))
    err2 = np.max(np.abs(sols[2e-3] - ref))
    assert err4 < 1e-8
    if err2 > 1e-14:   # above rounding noise, check the order-4 ratio
        assert err4 / err2 > 8.0


def test_absorption_flag(base_params):
    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=40.0, h=1e-3)
    flags = path.in_A
    # permanently true after some finite entry time
    first_true = np.argmax(flags)
    assert flags[first_true:].all()
    assert path.t[first_true] < 10.0


def test_integrate_general_ratio(base_params):
    # non-unit lattice ratio end to end: stationary start stays fixed, a
    # nearby start converges onto the kappa-offset 3:2 manifold
    from fractions import Fraction
    p = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    sp = stationary_point(p)
    assert sp.in_A
    assert sp.q1 - p.kappa12 == pytest.approx(1.5 * sp.q2, rel=1e-12)
    target = np.array([sp.q1, sp.q2, sp.z12])
    path = integrate_fluid(p, sp.as_state(), T=2.0, h=1e-3)
    assert np.max(np.abs(path.states - target)) < 1e-9
    x0 = FluidState(sp.q1 + 0.075, sp.q2 + 0.05, sp.z12 + 0.05)
    path2 = integrate_fluid(p, x0, T=10.0, h=2e-3)
    err = np.max(np.abs(path2.states - target), axis=1)
    assert err[-1] < 0.2 * err[0]
    ap = path2.regime == REGIME_AP
    assert np.abs(path2.manifold_gap()[ap]).max() < 1e-10


def test_stationarity_residual_on_random_admissible_sets(base_params):
    rng = np.random.default_rng(123)
    for p in random_admissible_params(rng, 200):
        sp = stationary_point(p)
        rhs = ode_rhs(p, sp.as_state(), sp.pi_star)
        assert np.max(np.abs(rhs)) < 1e-9, p


def test_time_to_stationarity(base_params):
    sp = stationary_point(base_params)
    path0 = integrate_fluid(base_params, sp.as_state(), T=5.0, h=1e-3)
    assert time_to_stationarity(path0, 1e-3) == 0.0

    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=40.0, h=1e-3)
    tts = time_to_stationarity(path, 1e-3)
    assert 0.0 < tts < 40.0
    # exponential approach: log error affine in t over the tail
    err = np.max(np.abs(path.states - xstar_array(base_params)), axis=1)
    sel = (path.t >= 15.0) & (path.t <= 35.0) & (err > 1e-12)
    slope, intercept = np.polyfit(path.t[sel], np.log(err[sel]), 1)
    fit = slope * path.t[sel] + intercept
    resid = np.log(err[sel]) - fit
    assert slope < -0.05
    assert np.max(np.abs(resid)) < 0.05

    with pytest.raises(ValueError):
        time_to_stationarity(path, 0.0)
    short = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=0.5, h=1e-3)
    with pytest.raises(RuntimeError):
        time_to_stationarity(short, 1e-6)
