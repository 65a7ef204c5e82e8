import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from overloadx.params import ModelParams, scale
from overloadx.ftsp import (SIGMA2_METHODS, FluidState, asymptotic_variance,
                            ftsp_summary, sigma2_columns)
from overloadx.fluid import integrate_fluid, stationary_point
from overloadx.diffusion import (PSI_CONVENTIONS, REFERENCE_CONVENTIONS,
                                 bou_matrices, gaussian_queue_approx,
                                 pool_dependent_reduction, psi_mix,
                                 sde_drift_matrix, solve_lyapunov,
                                 steady_state_covariance, time_changes,
                                 transient_covariance)

from conftest import random_admissible_params

REFERENCE_FLAGS = dict(sigma2_method="paper_r1", psi_convention="paper-sec10")


@pytest.fixture(scope="module")
def stationary_path(base_params):
    sp = stationary_point(base_params)
    return integrate_fluid(base_params, sp.as_state(), T=5.0, h=1e-3)


def _no_draw(*args):
    raise AssertionError("drew from a generator")


def test_unknown_sigma2_method_is_refused_before_any_work(base_params,
                                                          monkeypatch):
    # at a state that is not positive recurrent the recurrence test used to
    # speak first, and ftsp_summary passed the method over
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    state = FluidState(5.0, 0.0, 0.9)
    with pytest.raises(ValueError, match="^unknown sigma2 method 'bogus'$"):
        asymptotic_variance(base_params, state, "bogus")
    with pytest.raises(ValueError, match="^unknown sigma2 method 'bogus'$"):
        sigma2_columns(base_params, np.array([[5.0, 0.0, 0.9]]), "bogus")
    with pytest.raises(ValueError, match="^unknown sigma2 method 'bogus'$"):
        ftsp_summary(base_params, state, "bogus")


@pytest.mark.parametrize("sigma2_method, psi_convention, message", [
    ("monte_carlo", "bogus", "unknown psi convention 'bogus'"),
    ("bogus", "plus", "unknown sigma2 method 'bogus'")])
def test_diffusion_refuses_unknown_flags_before_any_work(
        base_params, monkeypatch, sigma2_method, psi_convention, message):
    # with monte_carlo the psi convention was checked only after a
    # simulation per point of the path
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    p = base_params
    path = integrate_fluid(p, stationary_point(p).as_state(), T=2e-3, h=1e-3)
    flags = dict(sigma2_method=sigma2_method, psi_convention=psi_convention)
    for call in (
            lambda: time_changes(p, path, sigma2_method, psi_convention),
            lambda: transient_covariance(p, path, np.zeros((2, 2)), **flags),
            lambda: bou_matrices(p, **flags),
            lambda: pool_dependent_reduction(replace(p, mu12=p.mu22), path,
                                             **flags),
            lambda: gaussian_queue_approx(p, 100, **flags)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_psi_conventions(base_params):
    z = 19 / 90
    assert psi_mix(base_params, z, "plus") == pytest.approx(0.9577777778, abs=1e-9)
    assert psi_mix(base_params, z, "paper-sec10") == pytest.approx(0.62, abs=1e-12)
    with pytest.raises(ValueError):
        psi_mix(base_params, z, "minus")


def test_bou_matrices_reference(base_params):
    m = bou_matrices(base_params, **REFERENCE_FLAGS)
    assert m.M[0, 0] == pytest.approx(-0.2)
    assert m.M[0, 1] == pytest.approx(0.2)
    assert m.M[1, 0] == 0.0
    assert abs(m.M[1, 1]) == pytest.approx(0.1763341067, abs=1e-9)
    assert m.S[0, 0] ** 2 == pytest.approx(2 * (1.3 + 0.9), rel=1e-12)
    assert m.S[0, 1] == m.S[1, 0] == 0.0
    assert m.xi1 == pytest.approx(3.4422222222, abs=1e-9)
    assert m.xi2 == pytest.approx(0.1198066, abs=2e-6)
    assert m.xi4 == pytest.approx(0.2782160, abs=2e-6)
    assert m.xi5 == pytest.approx(0.5314427, abs=2e-6)
    # S11^2 decomposes into the five stationary slopes exactly
    assert m.xi1 + m.xi12 + m.xi22 + m.eta12 + m.eta22 == pytest.approx(
        m.S[0, 0] ** 2, rel=1e-12)


def test_bou_pool_dependent_drift_vanishes(base_params):
    p = replace(base_params, mu12=1.0)
    m = bou_matrices(p, sigma2_method="regenerative", psi_convention="plus")
    assert m.M[0, 1] == 0.0


def test_bou_rejects_boundary_point(base_params):
    p = replace(base_params, lambda1=8.0)   # z* capped at m2
    with pytest.raises(ValueError):
        bou_matrices(p, **REFERENCE_FLAGS)


def test_steady_state_covariance_reference_chain(base_params):
    cov = steady_state_covariance(bou_matrices(base_params, **REFERENCE_FLAGS))
    assert cov.z1_addend == pytest.approx(0.7888888889, abs=1e-9)
    assert cov.z2_addend == pytest.approx(0.3397147, abs=2e-6)
    assert cov.var_z == pytest.approx(1.1286036, abs=2e-6)
    assert cov.cov_qz == pytest.approx(0.5997881, abs=2e-6)
    assert cov.q1_addend == pytest.approx(11.0, rel=1e-12)
    assert cov.var_qs == pytest.approx(11.5997881, abs=2e-6)
    assert cov.std_qs == pytest.approx(3.4058462, abs=1e-6)
    assert cov.std_q1 == pytest.approx(1.7029231, abs=1e-6)


def test_z1_addend_identity_on_random_sets(base_params):
    # xi4 / (2 |M22|) telescopes to 1 - z*/m2 with the reference M22, and
    # to z* (1 - z*/m2) with a22(pi*) = -mu12 mu22 m2 / mix_plus
    rng = np.random.default_rng(8)
    for p in random_admissible_params(rng, 50):
        ref = steady_state_covariance(bou_matrices(p, **REFERENCE_FLAGS))
        m = bou_matrices(p, sigma2_method="regenerative", psi_convention="plus")
        cov = steady_state_covariance(m)
        z = m.z12_star
        assert ref.z1_addend == pytest.approx(1.0 - z / p.m2, rel=1e-10)
        assert cov.z1_addend == pytest.approx(z * (1.0 - z / p.m2), rel=1e-10)


def test_single_class_reduction_exact(base_params):
    # pool-dependent rates and equal thetas: total-queue variance is
    # (lambda1 + lambda2) / theta with no cross addend
    p = replace(base_params, mu12=1.0)
    for method, psi in (("regenerative", "plus"), ("paper_r1", "paper-sec10")):
        cov = steady_state_covariance(
            bou_matrices(p, sigma2_method=method, psi_convention=psi))
        assert cov.var_qs == pytest.approx((p.lambda1 + p.lambda2) / p.theta1,
                                           rel=1e-12)
        assert cov.q2_addend == 0.0
        assert cov.cov_qz == 0.0


def test_lyapunov_identity_cases(base_params):
    sig = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
    assert np.allclose(sig, np.eye(2), atol=1e-14)
    m = bou_matrices(base_params, **REFERENCE_FLAGS)
    sig = solve_lyapunov(m.M, m.V)
    cov = steady_state_covariance(m)
    assert np.max(np.abs(sig - cov.matrix())) < 1e-12
    with pytest.raises(ValueError):
        solve_lyapunov(np.array([[0.1, 0.0], [0.0, -1.0]]), np.eye(2))


def test_lyapunov_residual_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        m = a - (np.abs(rng.normal()) + 4.0) * np.eye(2)
        b = rng.normal(size=(2, 2))
        v = b @ b.T
        sig = solve_lyapunov(m, v)
        resid = m @ sig + sig @ m.T + v
        assert np.max(np.abs(resid)) < 1e-12


def test_closed_form_vs_lyapunov_on_random_sets(base_params):
    rng = np.random.default_rng(99)
    for p in random_admissible_params(rng, 500):
        m = bou_matrices(p, sigma2_method="regenerative", psi_convention="plus")
        cov = steady_state_covariance(m)
        sig = solve_lyapunov(m.M, m.V)
        scale_ref = max(abs(cov.var_qs), abs(cov.var_z), 1e-30)
        assert np.max(np.abs(sig - cov.matrix())) / scale_ref < 1e-10
        assert cov.var_qs >= 0.0 and cov.var_z >= 0.0
        assert abs(cov.cov_qz) <= math.sqrt(cov.var_qs * cov.var_z) + 1e-15


def test_time_changes_stationary_slopes(base_params, stationary_path):
    tc = time_changes(base_params, stationary_path, **REFERENCE_FLAGS)
    for f in tc.all_functions().values():
        assert f[0] == 0.0
        assert np.all(np.diff(f) >= -1e-15)
    T = stationary_path.t[-1]
    assert tc.gamma3[-1] / T == pytest.approx(0.3116717, abs=1e-6)
    assert tc.gamma1[-1] / T == pytest.approx(3.4422222, abs=1e-6)
    assert tc.gamma2[-1] / T == pytest.approx(0.62 ** 2 * 0.3116717, abs=1e-6)
    # linear: halfway point is half the total
    mid = len(tc.t) // 2
    assert tc.gamma3[mid] == pytest.approx(tc.gamma3[-1] * tc.t[mid] / T, rel=1e-9)


def test_time_changes_oracle_sigma2(base_params, stationary_path):
    tc = time_changes(base_params, stationary_path, sigma2_method="regenerative",
                      psi_convention="plus")
    T = stationary_path.t[-1]
    assert tc.gamma3[-1] / T == pytest.approx(1.1991215, abs=1e-5)


def test_time_changes_psi_bound(base_params):
    # gamma2 never outruns psi_max^2 * gamma3
    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0), T=10.0, h=1e-3)
    tc = time_changes(base_params, path, sigma2_method="regenerative",
                      psi_convention="plus")
    psi_max2 = float(np.max(tc.psi) ** 2)
    assert np.all(tc.gamma2 <= psi_max2 * tc.gamma3 + 1e-12)
    for f in tc.all_functions().values():
        assert np.all(np.diff(f) >= -1e-15)


def test_sde_drift_matrix(base_params):
    sp = stationary_point(base_params)
    a = sde_drift_matrix(base_params, sp.pi_star)
    assert a[0, 0] == pytest.approx(-0.2)
    assert a[0, 1] == pytest.approx(0.2)
    assert a[1, 0] == 0.0
    # pi mu22 + (1 - pi) mu12, which at x* equals mu12 mu22 m2 / mix
    mix = base_params.mu12 * sp.z12 + base_params.mu22 * (1 - sp.z12)
    assert a[1, 1] == pytest.approx(-base_params.mu12 * base_params.mu22 / mix,
                                    rel=1e-12)


def test_transient_covariance_fixed_point(base_params, stationary_path):
    sp = stationary_point(base_params)
    a = sde_drift_matrix(base_params, sp.pi_star)
    from overloadx.diffusion import _integrand_rows
    rows, _ = _integrand_rows(base_params, stationary_path.states,
                              stationary_path.pi, "regenerative", "plus")
    v = np.array([
        [rows["gamma1"][0] + rows["gamma12"][0] + rows["gamma22"][0]
         + rows["phi12"][0] + rows["phi22"][0],
         rows["phi12"][0] - rows["phi22"][0]],
        [rows["phi12"][0] - rows["phi22"][0],
         rows["phi12"][0] + rows["phi22"][0] + rows["gamma2"][0]],
    ])
    sig_inf = solve_lyapunov(a, v)
    t, cc = transient_covariance(base_params, stationary_path, sig_inf,
                                 sigma2_method="regenerative",
                                 psi_convention="plus")
    assert np.max(np.abs(cc - sig_inf)) < 1e-8


def test_transient_covariance_relaxation(base_params):
    sp = stationary_point(base_params)
    m = bou_matrices(base_params, **REFERENCE_FLAGS)
    horizon = 10.0 / abs(m.M[1, 1])
    path = integrate_fluid(base_params, sp.as_state(), T=horizon, h=5e-3)
    t, cc = transient_covariance(base_params, path, np.zeros((2, 2)),
                                 sigma2_method="regenerative",
                                 psi_convention="plus")
    trace = cc[:, 0, 0] + cc[:, 1, 1]
    assert np.all(np.diff(trace) >= -1e-10)
    a = sde_drift_matrix(base_params, sp.pi_star)
    from overloadx.diffusion import _integrand_rows
    rows, _ = _integrand_rows(base_params, path.states, path.pi,
                              "regenerative", "plus")
    v = np.array([
        [rows["gamma1"][0] + rows["gamma12"][0] + rows["gamma22"][0]
         + rows["phi12"][0] + rows["phi22"][0],
         rows["phi12"][0] - rows["phi22"][0]],
        [rows["phi12"][0] - rows["phi22"][0],
         rows["phi12"][0] + rows["phi22"][0] + rows["gamma2"][0]],
    ])
    sig_inf = solve_lyapunov(a, v)
    assert np.max(np.abs(cc[-1] - sig_inf)) < 1e-6
    # PSD along the way
    for k in range(0, len(t), 500):
        eig = np.linalg.eigvalsh(cc[k])
        assert eig.min() > -1e-10


def reference_transient_covariance(p, path, sigma0, T=None):
    """RK4 of dSigma/dt = A Sigma + Sigma A^T + V on 2x2 numpy matrices,
    with A from sde_drift_matrix: the oracle of the float loop."""
    from overloadx.diffusion import _integrand_rows
    rows, _ = _integrand_rows(p, path.states, path.pi, "regenerative",
                              "plus")
    v11 = (rows["gamma1"] + rows["gamma12"] + rows["gamma22"]
           + rows["phi12"] + rows["phi22"])
    v22 = rows["phi12"] + rows["phi22"] + rows["gamma2"]
    v12 = rows["phi12"] - rows["phi22"]
    n = len(path.t) if T is None else int(np.sum(path.t <= T + 1e-12))

    def rhs(s, a, v):
        return a @ s + s @ a.T + v

    out = [np.asarray(sigma0, dtype=float)]
    for i in range(n - 1):
        h = path.t[i + 1] - path.t[i]
        pi0, pi1 = path.pi[i], path.pi[i + 1]
        a0, a1 = sde_drift_matrix(p, pi0), sde_drift_matrix(p, pi1)
        am = sde_drift_matrix(p, 0.5 * (pi0 + pi1))
        v0, v1 = (np.array([[v11[j], v12[j]], [v12[j], v22[j]]])
                  for j in (i, i + 1))
        vm = 0.5 * (v0 + v1)
        s = out[-1]
        k1 = rhs(s, a0, v0)
        k2 = rhs(s + 0.5 * h * k1, am, vm)
        k3 = rhs(s + 0.5 * h * k2, am, vm)
        k4 = rhs(s + h * k3, a1, v1)
        out.append(s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return path.t[:n], np.array(out)


@pytest.mark.parametrize("sigma0, T", [
    (np.zeros((2, 2)), None),
    (np.array([[0.5, -0.1], [-0.1, 0.2]]), None),
    (np.zeros((2, 2)), 1.3),
])
def test_transient_covariance_matches_reference_loop(base_params, sigma0, T):
    # an off-manifold start: pi, and with it A(t) and V(t), vary along the
    # path; its 2501 points span three of the float loop's 1024-row chunks
    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0),
                           T=2.5, h=1e-3)
    assert np.ptp(path.pi) > 0.5
    t, cc = transient_covariance(base_params, path, sigma0, T,
                                 sigma2_method="regenerative",
                                 psi_convention="plus")
    t_ref, ref = reference_transient_covariance(base_params, path, sigma0, T)
    assert np.array_equal(t, t_ref)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(cc, ref, rtol=1e-12, atol=1e-12 * scale)


def test_transient_covariance_chunk_edges_are_prefixes(base_params):
    # cuts that end on either side of the 1,024-step chunks' edges, where
    # the steps' start values are taken afresh, are prefixes of the full
    # run, bit for bit; an infinite horizon keeps the whole path
    h = 1e-3
    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0),
                           T=2049 * h, h=h)
    assert len(path.t) == 2050 and np.ptp(path.pi) > 0.5
    sigma0 = np.array([[0.5, -0.1], [-0.1 + 1e-14, 0.2]])
    flags = dict(sigma2_method="regenerative", psi_convention="plus")
    _, full = transient_covariance(base_params, path, sigma0, **flags)
    assert np.array_equal(full[0], 0.5 * (sigma0 + sigma0.T))
    assert full[:, 0, 1].tobytes() == full[:, 1, 0].tobytes()
    cuts = [((points - 1) * h, points)
            for points in (1024, 1025, 1026, 2048, 2049, 2050)]
    for T, points in cuts + [(math.inf, 2050)]:
        t, cov = transient_covariance(base_params, path, sigma0, T, **flags)
        assert len(t) == points
        assert cov.tobytes() == full[:points].tobytes()


@pytest.mark.parametrize("T, message", [
    # a NaN T is refused by its check, not by the cut it would empty
    pytest.param(math.nan, "^horizon T must not be NaN$", id="nan"),
    pytest.param(-0.1, "before the path's start", id="-0.1"),
    pytest.param(-1e-9, "before the path's start", id="-1e-09")])
def test_transient_covariance_rejects_a_horizon_before_the_path(
        base_params, stationary_path, T, message):
    with pytest.raises(ValueError, match=message):
        transient_covariance(base_params, stationary_path, np.zeros((2, 2)),
                             T, sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_names_the_path_start_as_a_float(
        base_params, stationary_path):
    with pytest.raises(ValueError, match=r"^horizon T = -1\.0 lies before "
                                         r"the path's start t = 0\.0$"):
        transient_covariance(base_params, stationary_path, np.zeros((2, 2)),
                             -1.0, sigma2_method="regenerative",
                             psi_convention="plus")


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_transient_covariance_rejects_a_non_finite_start(
        base_params, stationary_path, entry):
    # NaN would run into every matrix; inf would give NaN after a warning
    sigma0 = np.eye(2)
    sigma0[1, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        transient_covariance(base_params, stationary_path, sigma0, 0.1,
                             sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_checks_each_entry_of_the_start(
        base_params, stationary_path):
    # the checks read the four entries one by one, as Python floats; a NaN
    # off the diagonal would also pass the symmetry test, as NaN > x is false
    for index in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        sigma0 = np.eye(2)
        sigma0[index] = math.nan
        with pytest.raises(ValueError, match="finite"):
            transient_covariance(base_params, stationary_path, sigma0, 0.1,
                                 sigma2_method="regenerative",
                                 psi_convention="plus")


@pytest.mark.parametrize("sigma0", [[[1e308, 0.0], [0.0, 1e308]],
                                    [[1e308, 1e308], [1e308, 1e308]]])
def test_transient_covariance_rejects_a_start_whose_symmetric_part_overflows(
        base_params, stationary_path, sigma0):
    # finite entries, but 0.5 * (x + y) overflows: the start would be
    # stored as inf and every later matrix would be NaN
    with pytest.raises(ValueError, match="symmetric part must be finite"):
        transient_covariance(base_params, stationary_path, np.array(sigma0),
                             0.1, sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_names_the_first_step_that_overflows(
        base_params, stationary_path):
    # the start passes every check, and the first step overflows in (1,1)
    with pytest.raises(RuntimeError,
                       match=r"^covariance is not finite at t = 0\.001$"):
        transient_covariance(base_params, stationary_path,
                             np.array([[8e307, 0.0], [0.0, 1.0]]), 0.1,
                             sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_names_an_overflow_past_the_first_chunk(
        base_params, stationary_path, monkeypatch):
    # chunks of 3 steps: an infinite gamma1 rate at the path's point 5
    # (t = 0.005), in every chunk that holds it, makes the step that ends
    # there the first non-finite one, the second of the second chunk
    import overloadx.diffusion
    chunks = overloadx.diffusion._integrand_chunks

    def poisoned(*args):
        for lo, hi, rows, psi in chunks(*args):
            at5 = np.arange(lo, hi) == 5
            yield lo, hi, {**rows, "gamma1": np.where(
                at5, math.inf, rows["gamma1"])}, psi

    monkeypatch.setattr(overloadx.diffusion, "_integrand_chunks", poisoned)
    monkeypatch.setattr(overloadx.diffusion, "_CHUNK", 3)
    with pytest.raises(RuntimeError, match=r"at t = 0\.005$"):
        transient_covariance(base_params, stationary_path, np.eye(2), 0.1,
                             sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_keeps_a_large_finite_start(
        base_params, stationary_path):
    # entries below the overflow of x + y still run, finite, to these
    # pinned values
    _, cov = transient_covariance(base_params, stationary_path,
                                  np.array([[1e307, 0.0], [0.0, 1e307]]),
                                  0.1, sigma2_method="regenerative",
                                  psi_convention="plus")
    assert np.isfinite(cov).all()
    assert cov[-1].tolist() == [
        [float.fromhex("0x1.b5fdd111a7719p+1019"),
         float.fromhex("0x1.fd9143931d644p+1013")],
        [float.fromhex("0x1.fd9143931d644p+1013"),
         float.fromhex("0x1.8196a569ba565p+1019")]]


@pytest.mark.parametrize("sigma0", [np.ones(2), np.eye(3), np.zeros((2, 3))])
def test_transient_covariance_rejects_a_start_of_the_wrong_shape(
        base_params, stationary_path, sigma0):
    with pytest.raises(ValueError, match="must be a 2x2 matrix"):
        transient_covariance(base_params, stationary_path, sigma0, 0.1,
                             sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_solves_sigma2_up_to_T_only(base_params,
                                                        monkeypatch):
    # the path is cut at T before its integrands: sigma2 is evaluated at
    # the kept points only, in one call on their columns
    import overloadx.diffusion
    handed = []

    def counting(p, states, method):
        handed.append(len(states))
        return sigma2_columns(p, states, method)

    path = integrate_fluid(base_params, FluidState(1.0, 0.2, 0.0),
                           T=1.0, h=1e-2)
    monkeypatch.setattr(overloadx.diffusion, "sigma2_columns", counting)
    t, _ = transient_covariance(base_params, path, np.zeros((2, 2)), 0.25,
                                sigma2_method="regenerative",
                                psi_convention="plus")
    assert len(t) == 26 < len(path.t)
    assert handed == [len(t)]


@pytest.mark.parametrize("ratio, method", [
    ("1/1", "paper_r1"), ("1/1", "regenerative"), ("1/1", "poisson_numeric"),
    ("3/2", "poisson_numeric"),
])
def test_sigma2_row_matches_per_point_asymptotic_variance(base_params, ratio,
                                                          method):
    # one array expression over the path, equal to the scalar route at every
    # point, on the saturated stretch and on the manifold
    p = replace(base_params, r12=ratio, r21=ratio)
    path = integrate_fluid(p, FluidState(1.0, 0.2, 0.0), T=0.5, h=1e-2)
    assert np.ptp(path.pi) > 0.5
    tc = time_changes(p, path, method, "plus")
    assert tc.sigma2.tolist() == [
        asymptotic_variance(p, FluidState(*s), method)
        for s in path.states.tolist()]


def test_sigma2_row_matches_per_point_with_compensated_sum(base_params,
                                                           python312_sum):
    # Python >= 3.12 compensates float sums but not array sums; the jump
    # moments are added left to right, so the two routes still agree
    p = replace(base_params, r12="3/2", r21="3/2")
    path = integrate_fluid(p, FluidState(1.0, 0.2, 0.0), T=0.5, h=1e-2)
    tc = time_changes(p, path, "poisson_numeric", "plus")
    assert tc.sigma2.tolist() == [
        asymptotic_variance(p, FluidState(*s), "poisson_numeric")
        for s in path.states.tolist()]


@pytest.mark.parametrize("bad", [(8.0, 0.0, 1.0), (-0.5, 0.5, 0.2)])
def test_transient_covariance_rejects_bad_kept_point(base_params,
                                                     stationary_path, bad):
    # a kept point that is not positive recurrent, or not in S, raises the
    # error of the scalar route; past T it is never evaluated
    with pytest.raises(ValueError) as want:
        asymptotic_variance(base_params, FluidState(*bad), "regenerative")
    states = stationary_path.states.copy()
    states[100] = bad
    path = replace(stationary_path, states=states)
    with pytest.raises(ValueError) as got:
        transient_covariance(base_params, path, np.zeros((2, 2)), 0.2,
                             sigma2_method="regenerative",
                             psi_convention="plus")
    assert str(got.value) == str(want.value)
    t, _ = transient_covariance(base_params, path, np.zeros((2, 2)), 0.05,
                                sigma2_method="regenerative",
                                psi_convention="plus")
    assert len(t) == 51


def test_transient_covariance_rejects_indefinite_start(base_params, stationary_path):
    with pytest.raises(ValueError, match="positive semidefinite"):
        transient_covariance(base_params, stationary_path,
                             np.array([[1.0, 2.0], [2.0, 1.0]]),
                             sigma2_method="regenerative",
                             psi_convention="plus")


def test_transient_covariance_psd_tolerance(base_params, stationary_path):
    # [[1, 1], [1, 1 - gap]] has smallest eigenvalue about -gap/2, and the
    # tolerance is -1e-12
    flags = dict(sigma2_method="regenerative", psi_convention="plus")
    inside = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-13]])
    _, cov = transient_covariance(base_params, stationary_path, inside, 0.01,
                                  **flags)
    assert np.array_equal(cov[0], inside)
    outside = np.array([[1.0, 1.0], [1.0, 1.0 - 4e-12]])
    with pytest.raises(ValueError, match="positive semidefinite"):
        transient_covariance(base_params, stationary_path, outside, 0.01,
                             **flags)


def test_transient_covariance_rejects_asymmetric_start(base_params,
                                                      stationary_path):
    # the steps start from the symmetric part, so an asymmetric sigma0
    # would be stored as a first matrix that the path does not continue
    with pytest.raises(ValueError, match="symmetric"):
        transient_covariance(base_params, stationary_path,
                             np.array([[1.0, 0.4], [0.0, 1.0]]),
                             sigma2_method="regenerative",
                             psi_convention="plus")
    # asymmetry at rounding level is accepted and stored symmetrized
    sigma0 = np.array([[1.0, 0.4], [0.4 + 1e-13, 1.0]])
    _, cov = transient_covariance(base_params, stationary_path, sigma0, 0.01,
                                  sigma2_method="regenerative",
                                  psi_convention="plus")
    assert np.array_equal(cov[0], 0.5 * (sigma0 + sigma0.T))
    assert cov[0, 0, 1] == cov[0, 1, 0]


def test_pool_dependent_reduction(base_params):
    p = replace(base_params, mu12=1.0)
    sp = stationary_point(p)
    path = integrate_fluid(p, sp.as_state(), T=5.0, h=1e-3)
    ou = pool_dependent_reduction(p, path, sigma2_method="regenerative",
                                  psi_convention="plus")
    assert ou.eta1 == pytest.approx(0.2, abs=1e-12)
    assert ou.eta2 == pytest.approx(0.2, abs=1e-12)
    # stationary start: the transient term vanishes and the time change is
    # exactly 2(lambda1+lambda2) t
    assert np.max(np.abs(ou.gamma1_tilde - 4.4 * path.t)) < 1e-9
    # slope of the z12 time change at stationarity, assembled by hand
    tc = time_changes(p, path, sigma2_method="regenerative", psi_convention="plus")
    z, pi = sp.z12, sp.pi_star
    sigma2 = tc.sigma2[0]
    psi = psi_mix(p, z, "plus")
    slope = p.mu22 * (p.m2 * pi + z - 2 * pi * z) + psi ** 2 * sigma2
    assert ou.gamma2_tilde[-1] / path.t[-1] == pytest.approx(slope, rel=1e-9)


def test_pool_dependent_reduction_matches_time_change_sums(base_params):
    # off-stationary start: the closed form must equal the component sums
    p = replace(base_params, mu12=1.0)
    path = integrate_fluid(p, FluidState(1.4, 0.3, 0.1), T=10.0, h=1e-3)
    ou = pool_dependent_reduction(p, path, sigma2_method="regenerative",
                                  psi_convention="plus")
    tc = time_changes(p, path, sigma2_method="regenerative", psi_convention="plus")
    five = tc.gamma1 + tc.gamma12 + tc.gamma22 + tc.phi12 + tc.phi22
    three = tc.phi12 + tc.phi22 + tc.gamma2
    assert np.max(np.abs(ou.gamma1_tilde - five)) < 5e-4   # trapezoid error
    assert np.max(np.abs(ou.gamma2_tilde - three)) < 1e-12


@pytest.mark.parametrize("T", [4e-4, 1e-3], ids=["one-point", "two-point"])
def test_trapezoids_on_the_shortest_paths(base_params, T):
    # a one-point path (T < h/2) integrates to [0.0]; a two-point path to
    # one trapezoid, 0.5 * (y0 + y1) * (t1 - t0), in every bit
    from overloadx.diffusion import _integrand_rows, _noise_entries
    flags = dict(sigma2_method="regenerative", psi_convention="plus")
    p = replace(base_params, mu12=1.0)
    path = integrate_fluid(p, FluidState(1.4, 0.3, 0.1), T=T, h=1e-3)
    rows, _ = _integrand_rows(p, path.states, path.pi, **flags)
    tc = time_changes(p, path, **flags)
    ou = pool_dependent_reduction(p, path, **flags)
    funcs = {**tc.all_functions(), "gamma2_tilde": ou.gamma2_tilde}
    ys = {**rows, "gamma2_tilde": _noise_entries(rows)[2]}
    t = path.t.tolist()
    assert len(t) == round(T / 1e-3) + 1
    for name, f in funcs.items():
        y = ys[name].tolist()
        want = [0.0]
        if len(t) == 2:
            want.append(0.5 * (y[0] + y[1]) * (t[1] - t[0]))
        assert [v.hex() for v in f.tolist()] == [v.hex() for v in want], name


def _hexes(a):
    return [v.hex() for v in np.ravel(a).tolist()]


@pytest.mark.parametrize("flags", [
    dict(sigma2_method="regenerative", psi_convention="plus"),
    dict(sigma2_method="poisson_numeric", psi_convention="paper-sec10")])
def test_chunk_edges_keep_every_bit(base_params, monkeypatch, flags):
    # chunks of 3 steps, or transient_covariance's slices of 2, against
    # the defaults, which hold each of these paths whole: 7 points end on
    # a chunk edge, 41 points one step past one, and both cross slice
    # edges, as does the cut at T = 0.045.  The integrand rows are
    # elementwise and the running sums and the steps' carried floats
    # cross the edges, so every output keeps its bits.  At mu12 = mu22
    # (pool_dependent_reduction's case) A's (2,2) entry is constant; at
    # base_params it moves with pi, which leaves 1 at the 41-point path's
    # point 33.
    import overloadx.diffusion
    p = replace(base_params, mu12=1.0)

    def outputs(q, path):
        tc = time_changes(q, path, **flags)
        got = [*tc.all_functions().values(), tc.psi, tc.sigma2]
        if q is p:
            got.append(pool_dependent_reduction(q, path, **flags).gamma2_tilde)
        for T in (None, 0.045):
            got += transient_covariance(q, path, np.eye(2), T, **flags)
        return [_hexes(a) for a in got]

    for q in (p, base_params):
        full = integrate_fluid(q, FluidState(1.4, 0.3, 0.1), T=0.4, h=1e-2)
        for n in (1, 2, 7, 41):
            path = replace(full, t=full.t[:n], states=full.states[:n],
                           pi=full.pi[:n], regime=full.regime[:n],
                           in_A=full.in_A[:n])
            want = outputs(q, path)
            for cut in (("_CHUNK", 3), ("_SLICE", 2)):
                with monkeypatch.context() as mp:
                    mp.setattr(overloadx.diffusion, *cut)
                    assert outputs(q, path) == want, (q is p, n, cut)


def test_working_memory_does_not_grow_with_the_path(base_params):
    # 40,001 points at x*: the whole-path integrand rows and their
    # temporaries took about 4 MiB above the results, a chunk's rows with
    # its steps' Python floats 0.69 MiB, and with the floats taken a slice
    # at a time it is 0.35 MiB at any length.  A no-op profile hook, set
    # for the measurement only, keeps CPython 3.11 off its specialised
    # float arithmetic, which the step loop runs far slower under
    # tracemalloc (15 s against 1.4 s on a 2-core Xeon VM)
    import sys
    import tracemalloc
    from overloadx.fluid import FluidPath
    flags = dict(sigma2_method="regenerative", psi_convention="plus")
    sp = stationary_point(base_params)
    n = 40_001
    path = FluidPath(t=np.arange(n) * 1e-3,
                     states=np.tile(sp.as_state(), (n, 1)),
                     pi=np.full(n, sp.pi_star),
                     regime=np.zeros(n, dtype=np.int8),
                     in_A=np.ones(n, dtype=bool), h=1e-3, params=base_params)
    profile = sys.getprofile()
    sys.setprofile(lambda *args: None)
    tracemalloc.start()
    try:
        tc = time_changes(base_params, path, **flags)
        t, cov = transient_covariance(base_params, path, np.zeros((2, 2)),
                                      **flags)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setprofile(profile)
    assert len(tc.t) == len(t) == len(cov) == n
    assert peak - held < 1 << 19, f"{(peak - held) / 2**20:.2f} MiB"


def test_pool_dependent_requires_equal_rates(base_params):
    sp = stationary_point(base_params)
    path = integrate_fluid(base_params, sp.as_state(), T=1.0, h=1e-3)
    with pytest.raises(ValueError):
        pool_dependent_reduction(base_params, path, sigma2_method="regenerative",
                                 psi_convention="plus")


def test_gaussian_approx_reference_scales(base_params):
    def at_kappa_eff(n):
        return base_params.with_kappa12(scale(base_params, n).kappa_eff)

    g100 = gaussian_queue_approx(at_kappa_eff(100), 100, **REFERENCE_FLAGS)
    assert g100.mean_q1 == pytest.approx(65.6, abs=0.1)
    assert g100.std_qs == pytest.approx(34.1, abs=0.1)
    assert g100.std_q1 == pytest.approx(17.0, abs=0.1)
    g400 = gaussian_queue_approx(at_kappa_eff(400), 400, **REFERENCE_FLAGS)
    assert g400.mean_q1 == pytest.approx(262.2, abs=0.1)
    assert g400.std_qs == pytest.approx(68.2, abs=0.1)
    assert g400.std_q1 == pytest.approx(34.0, abs=0.1)
    g25 = gaussian_queue_approx(at_kappa_eff(25), 25, **REFERENCE_FLAGS)
    assert g25.kappa_eff == pytest.approx(0.12)
    assert g25.mean_q1 == pytest.approx(16.6, abs=0.1)
    assert g25.mean_q2 == pytest.approx(13.6, abs=0.1)


# every convention pair but the reference one, closed-form sigma2 methods
NON_REFERENCE_PAIRS = [(m, c) for m in ("paper_r1", "regenerative",
                                        "poisson_numeric")
                       for c in PSI_CONVENTIONS
                       if {"sigma2_method": m, "psi_convention": c}
                       != REFERENCE_CONVENTIONS]


@pytest.mark.parametrize("n", [5, 10])
def test_gaussian_approx_z12_spread_is_possible(base_params, n):
    # Popoviciu: a count in [0, m2n] has a standard deviation of at most m2n/2
    sysn = scale(base_params, n)
    p_n = base_params.with_kappa12(sysn.kappa_eff)
    for method in SIGMA2_METHODS:
        for psi in PSI_CONVENTIONS:
            g = gaussian_queue_approx(p_n, n, sigma2_method=method,
                                      psi_convention=psi)
            assert g.std_z12 <= sysn.m2n / 2, (method, psi, g.std_z12)


def test_bou_drift_is_sde_drift_outside_reference_pair(base_params):
    rng = np.random.default_rng(13)
    sets = [(p, NON_REFERENCE_PAIRS) for p in random_admissible_params(rng, 50)]
    r32_pairs = [("poisson_numeric", psi) for psi in PSI_CONVENTIONS]
    sets += [(p, r32_pairs)
             for p in random_admissible_params(rng, 20, ratio="3/2")]
    for p, pairs in sets:
        pi_star = stationary_point(p).pi_star
        for method, psi in pairs:
            m = bou_matrices(p, sigma2_method=method, psi_convention=psi)
            assert np.array_equal(m.M, sde_drift_matrix(p, pi_star))
            assert m.xi5 == m.M[0, 1] / abs(m.M[0, 0] + m.M[1, 1])


@pytest.mark.parametrize("method,psi", NON_REFERENCE_PAIRS)
def test_transient_covariance_relaxes_to_steady_state(base_params, method,
                                                      psi):
    # both diffusion layers share one drift, so the transient covariance
    # from the stationary point ends at the steady-state covariance
    sp = stationary_point(base_params)
    path = integrate_fluid(base_params, sp.as_state(), T=60.0, h=5e-3)
    _, cc = transient_covariance(base_params, path, np.zeros((2, 2)),
                                 sigma2_method=method, psi_convention=psi)
    steady = steady_state_covariance(
        bou_matrices(base_params, sigma2_method=method,
                     psi_convention=psi)).matrix()
    assert np.max(np.abs(cc[-1] - steady)) <= 1e-6 * np.max(np.abs(steady))


@pytest.mark.parametrize("ratio,seed", [("1/1", 14), ("3/2", 15)])
def test_layers_share_noise_rates_on_random_sets(ratio, seed):
    # with theta1 != theta2 and kappa > 0, x* has q1 != p1 qs, so the
    # abandonment rate theta1 q1 + theta2 q2 is not (p1 theta1 + p2 theta2) qs;
    # both layers read it off _integrand_rows.  T = 60 leaves a relaxation
    # tail of about exp(-120 |m11|), below 1e-6 for |m11| > 0.12.
    from overloadx.diffusion import _integrand_rows, _noise_entries
    flags = dict(sigma2_method="poisson_numeric", psi_convention="plus")
    for p in random_admissible_params(np.random.default_rng(seed), 4,
                                      ratio=ratio):
        assert p.theta1 != p.theta2 and p.kappa12 > 0.0
        sp = stationary_point(p)
        m = bou_matrices(p, **flags)
        rows, _ = _integrand_rows(p, np.array([sp.as_state()]),
                                  np.array([sp.pi_star]), **flags)
        v11, v12, v22 = (float(v[0]) for v in _noise_entries(rows))
        assert v11 == pytest.approx(m.S[0, 0] ** 2, rel=1e-12)
        assert v22 == pytest.approx(m.S[1, 1] ** 2, rel=1e-12)
        assert abs(v12) <= 1e-15 * v22
        path = integrate_fluid(p, sp.as_state(), T=60.0, h=5e-3)
        _, cc = transient_covariance(p, path, np.zeros((2, 2)), **flags)
        steady = steady_state_covariance(m).matrix()
        assert np.max(np.abs(cc[-1] - steady)) <= 1e-6 * np.max(np.abs(steady))


def test_gaussian_approx_rejects_n_below_one(base_params):
    with pytest.raises(ValueError, match="n must be >= 1"):
        gaussian_queue_approx(base_params, 0, **REFERENCE_FLAGS)


def test_psi_convention_has_no_default(base_params, stationary_path):
    p = replace(base_params, mu12=1.0)
    with pytest.raises(TypeError):
        psi_mix(base_params, 0.2)
    with pytest.raises(TypeError):
        time_changes(base_params, stationary_path, "regenerative")
    with pytest.raises(TypeError):
        pool_dependent_reduction(p, stationary_path,
                                 sigma2_method="regenerative")


def test_gaussian_approx_carries_its_ou_model(base_params):
    # the unscaled model and covariance behind the scaled values
    g = gaussian_queue_approx(base_params, 100, **REFERENCE_FLAGS)
    model = bou_matrices(base_params, **REFERENCE_FLAGS)
    cov = steady_state_covariance(model)
    assert np.array_equal(g.model.M, model.M)
    assert np.array_equal(g.model.S, model.S)
    assert g.cov == cov
    assert g.std_qs == math.sqrt(100) * cov.std_qs
    assert "model=" not in repr(g) and "cov=" not in repr(g)


def test_gaussian_approx_n1_is_fluid(base_params):
    g = gaussian_queue_approx(base_params, 1, **REFERENCE_FLAGS)
    sp = stationary_point(base_params)
    cov = steady_state_covariance(bou_matrices(base_params, **REFERENCE_FLAGS))
    assert g.kappa_eff == base_params.kappa12
    assert g.mean_q1 == pytest.approx(sp.q1, rel=1e-12)
    assert g.std_qs == pytest.approx(cov.std_qs, rel=1e-12)


def test_gaussian_approx_sqrt_n_scaling(base_params):
    gs = {n: gaussian_queue_approx(base_params, n, **REFERENCE_FLAGS)
          for n in (25, 100, 400)}
    assert gs[100].std_qs / gs[25].std_qs == pytest.approx(2.0, rel=1e-12)
    assert gs[400].std_qs / gs[100].std_qs == pytest.approx(2.0, rel=1e-12)


def test_gaussian_approx_flags_a_z12_spread_no_count_can_have(base_params):
    # a Z12 count lies in [0, m2 n]: its std is at most the Bhatia-Davis
    # bound sqrt(mean (m2 n - mean)), which this overloaded case breaks
    p = ModelParams(1.911, 0.2202, 0.0299, 0.0616, 2.882, 1.766, 0.796,
                    0.2666, 0.532, 0.301, r12="1/2", r21="1/2")
    g = gaussian_queue_approx(p, 100, sigma2_method="poisson_numeric",
                              psi_convention="plus")
    bound = math.sqrt(g.mean_z12 * (100 * p.m2 - g.mean_z12))
    assert g.std_z12 == pytest.approx(15.17, abs=0.01)
    assert bound == pytest.approx(14.58, abs=0.01)
    assert not g.std_z12_possible
    for n in (25, 100, 400):
        assert gaussian_queue_approx(base_params, n,
                                     **REFERENCE_FLAGS).std_z12_possible


def test_queue_split_identity(base_params):
    # std(Q1)/std(Q2) equals the ratio parameter exactly
    for ratio in ("1/1", "3/2", "2/1"):
        p = replace(base_params,
                    r12=__import__("fractions").Fraction(*map(int, ratio.split("/"))),
                    r21=__import__("fractions").Fraction(*map(int, ratio.split("/"))))
        sp = stationary_point(p)
        if not sp.in_A:
            continue
        method = "regenerative" if p.r12 == 1 else "poisson_numeric"
        g = gaussian_queue_approx(p, 100, sigma2_method=method,
                                  psi_convention="plus")
        assert g.std_q1 / g.std_q2 == pytest.approx(float(p.r12), rel=1e-12)


def _hex_rows(a, rows):
    """Rows ``rows`` of ``a`` as nested lists of ``float.hex`` strings."""
    return [[v.hex() for v in np.ravel(row).tolist()] for row in a[rows]]


def _sampled_rows(n):
    return sorted({*range(0, n, 250), n - 1})


def _digest(arrays):
    """SHA-256 of the arrays' values, as little-endian doubles."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _transient_record(p, case):
    """The pipeline's outputs for one case of ``transient_golden.json``:
    every 250th and the last point of the fluid path, the time changes and
    the covariance matrices, floats by ``float.hex``, and a digest of all
    points (a last-bit change can fade out between two sampled points)."""
    path = integrate_fluid(p, FluidState(*case["x0"]), T=case["T"],
                           h=case["h"], tol_manifold=case["tol_manifold"])
    flags = dict(sigma2_method=case["sigma2_method"],
                 psi_convention=case["psi_convention"])
    tc = time_changes(p, path, **flags)
    _, cov = transient_covariance(p, path, np.array(case["sigma0"]), **flags)
    rows = _sampled_rows(len(path.t))
    record = {"points": len(path.t), "rows": rows,
              "t": _hex_rows(path.t, rows),
              "states": _hex_rows(path.states, rows),
              "pi": _hex_rows(path.pi, rows),
              "regime": path.regime[rows].tolist(),
              "in_A": path.in_A[rows].tolist(),
              "psi": _hex_rows(tc.psi, rows),
              "sigma2": _hex_rows(tc.sigma2, rows),
              "cov": _hex_rows(cov, rows)}
    for name, values in tc.all_functions().items():
        record[name] = _hex_rows(values, rows)
    record["sha256"] = _digest([
        path.t, path.states, path.pi, path.regime, path.in_A, tc.psi,
        tc.sigma2, *tc.all_functions().values(), cov])
    return path, record


def _covariance_edge_record(p, path, edge):
    """``transient_covariance`` cut at ``edge["T"]``, sampled like
    :func:`_transient_record`."""
    _, cov = transient_covariance(p, path, np.array(edge["sigma0"]),
                                  edge["T"], sigma2_method="regenerative",
                                  psi_convention="plus")
    rows = _sampled_rows(len(cov))
    return {"points": len(cov), "rows": rows, "cov": _hex_rows(cov, rows),
            "sha256": _digest([cov])}


def test_transient_pipeline_bit_identical_to_golden(base_params,
                                                    python312_sum):
    # Recorded with the step loops that preceded the chunk-precomputed ones:
    # fluid path, time changes and transient covariance, every float by its
    # hex form.  Cases: r = 1 off the manifold over three covariance chunks
    # (2,501 points), r = 3/2 with poisson_numeric, a start below the band
    # (pi0 steps) and a fixed band; then the first path's covariance on
    # 1 and 2 points and on 1,025 points, which end on a chunk edge.  Run
    # with the compensated sum of Python >= 3.12: a builtin sum in the
    # float loops would then fail here on every version.
    golden = json.loads(
        (Path(__file__).parent / "transient_golden.json").read_text())
    assert len(golden["pipeline"]) == 4
    paths = []
    for case in golden["pipeline"]:
        p = replace(base_params, r12=Fraction(case["ratio"]),
                    r21=Fraction(case["ratio"]))
        path, record = _transient_record(p, case)
        assert record == case["record"], case["ratio"]
        paths.append(path)
    assert [e["record"]["points"] for e in golden["covariance_edges"]] == [
        1, 2, 1025]
    for edge in golden["covariance_edges"]:
        assert _covariance_edge_record(base_params, paths[0], edge) == (
            edge["record"]), edge["T"]
