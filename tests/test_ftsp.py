import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies

from overloadx.ftsp import (FluidState, FtspRates, _busy_period_batch,
                            _mg_rate_matrix, _positive_time,
                            _stationary_truncated,
                            _truncated_solve,
                            asymptotic_variance, busy_period_moments,
                            drift_kernel, drift_rates, ftsp_rates,
                            ftsp_summary, is_positive_recurrent,
                            PI12_METHODS, pi_12, pi_12_stationary, pi_from_drifts,
                            sigma2_columns, simulate_ftsp)

from overloadx.fluid import stationary_point

from conftest import random_admissible_params

# The stationary state of the reference scenario, exact.
XSTAR = FluidState(59 / 90, 5 / 9, 19 / 90)

# Quantities there, frozen from the closed forms (cross-checked against the
# quoted four-digit values in the acceptance suite).
RATES_STAR = (1.4111111111, 2.9888888889, 2.0311111111, 2.3688888889)
PI_STAR = 0.17633410672853833
SIGMA2_R1_FORM = 0.31167167049221917
SIGMA2_TRUE = 1.1991214517624   # Poisson-equation value; regenerative matches


def test_rates_at_stationary_state(base_params):
    r = ftsp_rates(base_params, XSTAR)
    assert isinstance(r, FtspRates)
    for got, want in zip((r.lam1, r.mu1, r.lam2, r.mu2), RATES_STAR):
        assert got == pytest.approx(want, abs=1e-9)


def test_rates_empty_state(base_params):
    r = ftsp_rates(base_params, FluidState(0.0, 0.0, 0.0))
    assert r.lam1 == pytest.approx(base_params.lambda1)
    assert r.mu2 == pytest.approx(base_params.lambda1 + base_params.mu22 * base_params.m2)


def test_total_rate_identity(base_params):
    # both regimes see every transition of the chain, so their rate totals
    # agree with the full event rate at the state
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = FluidState(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 1))
        r = ftsp_rates(base_params, g)
        p = base_params
        total = (p.lambda1 + p.lambda2 + p.theta1 * g.q1 + p.theta2 * g.q2
                 + p.mu11 * p.m1 + p.mu12 * g.z12 + p.mu22 * (p.m2 - g.z12))
        assert r.lam1 + r.mu1 == pytest.approx(total, rel=1e-12)
        assert r.lam2 + r.mu2 == pytest.approx(total, rel=1e-12)


def test_rates_reject_invalid_state(base_params):
    with pytest.raises(ValueError):
        ftsp_rates(base_params, FluidState(-0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        ftsp_rates(base_params, FluidState(0.1, 0.0, 1.5))


@pytest.mark.parametrize("state", [
    (math.nan, 0.5, 0.2), (0.5, math.nan, 0.2), (0.5, 0.5, math.nan),
    (math.inf, 0.5, 0.2), (0.5, math.inf, 0.2), (0.5, 0.5, math.inf),
])
def test_rates_reject_non_finite_state(base_params, state):
    with pytest.raises(ValueError):
        ftsp_rates(base_params, FluidState(*state))


def test_drifts_at_stationary_state(base_params):
    d_plus, d_minus = drift_rates(ftsp_rates(base_params, XSTAR))
    assert d_plus == pytest.approx(1.4111111111 - 2.9888888889, abs=1e-9)
    assert d_minus == pytest.approx(2.3688888889 - 2.0311111111, abs=1e-9)


def test_drift_null_at_symmetric_rates():
    r = FtspRates(j=1, k=1, pos_rates={1: 2.0, -1: 2.0},
                  neg_rates={1: 3.0, -1: 1.0})
    assert (r.lam1, r.mu1, r.lam2, r.mu2) == (2.0, 2.0, 1.0, 3.0)
    d_plus, _ = drift_rates(r)
    assert d_plus == 0.0


def test_lattice_drift_vs_jump_weighted_sum(base_params):
    # r = 2: class-2 events move D by 2; brute-force the weighted sum
    p = replace(base_params, r12=Fraction(2), r21=Fraction(2))
    g = FluidState(0.9, 0.3, 0.25)
    model = ftsp_rates(p, g)
    assert (model.j, model.k) == (2, 1) and not model.birth_death
    with pytest.raises(ValueError):
        model.lam1   # the birth-death view is only defined for r = 1
    pool2 = p.mu12 * g.z12 + p.mu22 * (p.m2 - g.z12)
    down1 = p.theta1 * g.q1 + p.mu11 * p.m1
    expect_plus = (p.lambda1 - (down1 + pool2)
                   + 2.0 * (p.theta2 * g.q2 - p.lambda2))
    expect_minus = (p.lambda1 - down1
                    + 2.0 * (p.theta2 * g.q2 + pool2 - p.lambda2))
    d_plus, d_minus = drift_rates(model)
    assert d_plus == pytest.approx(expect_plus, rel=1e-12)
    assert d_minus == pytest.approx(expect_minus, rel=1e-12)


_COORD = strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 4.0))


@settings(derandomize=True, deadline=None, max_examples=140)
@given(param_seed=strategies.integers(0, 2**32 - 1),
       ratio=strategies.sampled_from(["1/1", "3/2", "2/1", "5/3", "2/3",
                                      "1/2", "3/4"]),
       q1=_COORD, q2=_COORD, z_frac=strategies.floats(0.0, 1.0))
def test_drift_kernel_matches_public_route_property(param_seed, ratio, q1, q2,
                                                    z_frac):
    # the float kernel of the path integrators against FtspRates, bit for
    # bit, anywhere in S: recurrent states and both escape directions
    p = random_admissible_params(np.random.default_rng(param_seed), 1,
                                 ratio=ratio)[0]
    g = FluidState(q1, q2, z_frac * p.m2)
    got = drift_kernel(p)(*g)
    assert [d.hex() for d in got] == [
        d.hex() for d in drift_rates(ftsp_rates(p, g))]
    assert pi_from_drifts(*got).hex() == pi_12(p, g).hex()


@pytest.mark.parametrize("ratio", ["1/1", "3/2", "2/3"])
@pytest.mark.parametrize("state", [
    (-0.1, 0.5, 0.2), (0.5, -1e-12, 0.2), (0.5, 0.5, 1.5),
    (math.nan, 0.5, 0.2), (0.5, 0.5, math.nan), (0.5, math.inf, 0.2),
])
def test_drift_kernel_rejects_states_outside_S(base_params, ratio, state):
    p = replace(base_params, r12=ratio, r21=ratio)
    with pytest.raises(ValueError) as want:
        ftsp_rates(p, FluidState(*state))
    with pytest.raises(ValueError) as got:
        drift_kernel(p)(*state)
    assert str(got.value) == str(want.value)


def test_positive_recurrence(base_params):
    assert is_positive_recurrent(base_params, XSTAR)
    assert not is_positive_recurrent(base_params, FluidState(8.0, 0.0, 1.0))


def test_busy_period_moments_reference():
    bp1 = busy_period_moments(RATES_STAR[0], RATES_STAR[1])
    assert bp1.mean == pytest.approx(0.6338028169, abs=1e-8)
    assert bp1.second_moment == pytest.approx(1.5219475, abs=1e-5)
    assert bp1.variance == pytest.approx(1.1202415, abs=1e-5)
    bp2 = busy_period_moments(RATES_STAR[2], RATES_STAR[3])
    assert bp2.mean == pytest.approx(2.9605263158, abs=1e-8)


def test_busy_period_single_service():
    bp = busy_period_moments(0.0, 2.5)
    assert bp.mean == pytest.approx(0.4)
    assert bp.variance == pytest.approx(0.16)


def test_busy_period_requires_stability():
    with pytest.raises(ValueError):
        busy_period_moments(2.0, 2.0)


def test_pi12_routes_agree(base_params):
    vals = [pi_12(base_params, XSTAR, m)
            for m in ("busy_period", "truncated", "matrix_geometric")]
    assert vals[0] == pytest.approx(PI_STAR, abs=1e-12)
    assert abs(vals[1] - vals[0]) < 1e-8
    assert abs(vals[2] - vals[0]) < 1e-8


def test_pi12_symmetric_half(base_params):
    # choose q2 so that the away-rates of the two regimes coincide; the
    # toward-rates then coincide too, the excursion laws match, and the
    # positive fraction is exactly one half
    p = base_params
    q1 = 0.3
    q2 = q1 + (p.lambda2 - p.lambda1 + p.mu11 * p.m1) / p.theta2
    g = FluidState(q1, q2, 0.5)
    r = ftsp_rates(p, g)
    assert r.lam1 == pytest.approx(r.lam2, rel=1e-12)
    assert r.mu1 == pytest.approx(r.mu2, rel=1e-12)
    assert pi_12(p, g) == pytest.approx(0.5, abs=1e-12)


def test_pi12_degenerate_values(base_params):
    # strong negative drift from both sides: escapes to -infinity
    assert pi_12(base_params, FluidState(8.0, 0.0, 1.0)) == 0.0
    # upward escape needs the up-rates to dominate everything
    from overloadx.params import ModelParams
    p = ModelParams(lambda1=6.0, lambda2=0.1, theta1=0.2, theta2=0.2,
                    mu11=0.5, mu12=0.1, mu21=0.1, mu22=0.1,
                    m1=1.0, m2=1.0, r12="1/1", r21="1/1")
    g = FluidState(0.1, 3.0, 0.5)
    d_plus, _ = drift_rates(ftsp_rates(p, g))
    assert d_plus > 0.0
    assert pi_12(p, g) == 1.0


def test_pi12_rejects_unknown_method_at_every_state(base_params):
    # the degenerate early return used to skip the method check, so a
    # misspelt method passed silently at a state that is not recurrent
    transient = FluidState(8.0, 0.0, 1.0)
    assert not is_positive_recurrent(base_params, transient)
    assert is_positive_recurrent(base_params, XSTAR)
    for g in (transient, XSTAR):
        with pytest.raises(ValueError, match="unknown pi12 method 'nonsense'"):
            pi_12(base_params, g, "nonsense")
    assert [pi_12(base_params, transient, m) for m in PI12_METHODS] == [0.0] * 4


def test_pi12_matches_zero_velocity_identity(base_params):
    # in steady state the mean displacement rate vanishes:
    # pi * delta_plus + (1 - pi) * delta_minus = 0; the lattice routes
    # solve for the stationary law itself and must reproduce it
    rng = np.random.default_rng(17)
    for ratio in ("1/1", "3/2", "5/3", "7/4", "2/1"):
        p = replace(base_params, r12=Fraction(*map(int, ratio.split("/"))),
                    r21=Fraction(*map(int, ratio.split("/"))))
        done = 0
        while done < 10:
            g = FluidState(rng.uniform(0, 2), rng.uniform(0, 2),
                           rng.uniform(0.05, 0.95))
            d_plus, d_minus = drift_rates(ftsp_rates(p, g))
            if not (d_plus < -0.05 and d_minus > 0.05):
                continue
            identity = d_minus / (d_minus - d_plus)
            assert pi_12(p, g) == identity
            for method in ("matrix_geometric", "truncated"):
                assert pi_12(p, g, method) == pytest.approx(identity, abs=1e-10)
            done += 1


def _admissible_state(param_seed, ratio, offsets):
    """Parameters from the conftest box and a recurrent state near x*."""
    p = random_admissible_params(np.random.default_rng(param_seed), 1,
                                 ratio=ratio)[0]
    sp = stationary_point(p)
    g = FluidState(sp.q1 + offsets[0], sp.q2 + offsets[1],
                   sp.z12 + offsets[2])
    assume(g.q1 >= 0.0 and g.q2 >= 0.0 and 0.0 <= g.z12 <= p.m2)
    assume(is_positive_recurrent(p, g))
    return p, g


_OFFSETS = strategies.tuples(*[strategies.floats(-0.1, 0.1)] * 3)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(param_seed=strategies.integers(0, 2**32 - 1),
       ratio=strategies.sampled_from(["1/1", "3/2", "5/3", "2/1"]),
       offsets=_OFFSETS)
def test_pi12_routes_agree_property(param_seed, ratio, offsets):
    p, g = _admissible_state(param_seed, ratio, offsets)
    auto = pi_12(p, g, "auto")
    for method in ("matrix_geometric", "truncated"):
        assert pi_12(p, g, method) == pytest.approx(auto, abs=1e-10)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(param_seed=strategies.integers(0, 2**32 - 1),
       ratio=strategies.sampled_from(["1/1", "3/2", "5/3", "2/1"]),
       offsets=_OFFSETS)
def test_sigma2_matches_truncated_poisson_property(param_seed, ratio, offsets):
    # the closed form against the Poisson equation solved on the lattice
    p, g = _admissible_state(param_seed, ratio, offsets)
    oracle = _truncated_solve(ftsp_rates(p, g), tol=1e-6, sigma2=True)
    assert asymptotic_variance(p, g, "poisson_numeric") == pytest.approx(
        oracle, rel=1e-9)


def _state_with_d_minus(p, g, target):
    """``g`` with q1 moved so that delta_minus equals ``target``.

    delta_minus falls by theta1 per unit of q1 (class-1 abandonments).
    """
    d_minus = drift_rates(ftsp_rates(p, g))[1]
    return g._replace(q1=g.q1 + (d_minus - target) / p.theta1)


@pytest.mark.parametrize("ratio", ["1/1", "3/2"])
@pytest.mark.parametrize("d_minus", [3.4e-3, 3.4e-4, 3.4e-5])
def test_sigma2_near_recurrence_boundary(base_params, ratio, d_minus):
    # a slow drift back to the boundary: the truncated solve would need a
    # radius beyond its cap, the closed form stays finite
    p = replace(base_params, r12=ratio, r21=ratio)
    g = _state_with_d_minus(p, XSTAR, d_minus)
    assert drift_rates(ftsp_rates(p, g))[1] == pytest.approx(d_minus,
                                                             rel=1e-6)
    s = asymptotic_variance(p, g, "poisson_numeric")
    assert math.isfinite(s) and s > 0.0
    if ratio == "1/1":
        assert s == pytest.approx(asymptotic_variance(p, g, "regenerative"),
                                  rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(param_seed=strategies.integers(0, 2**32 - 1), offsets=_OFFSETS)
def test_sigma2_poisson_matches_regenerative_property(param_seed, offsets):
    p, g = _admissible_state(param_seed, "1/1", offsets)
    assert asymptotic_variance(p, g, "poisson_numeric") == pytest.approx(
        asymptotic_variance(p, g, "regenerative"), rel=1e-6)


def test_mg_rate_matrix_birth_death_and_non_convergence():
    # scalar levels: R = lambda / mu for the walk with up rate lambda and
    # down rate mu; too few doublings must raise, not return a partial R
    lam, mu = 0.6, 1.0
    blocks = (np.array([[lam]]), np.array([[-lam - mu]]), np.array([[mu]]))
    assert _mg_rate_matrix(*blocks)[0, 0] == pytest.approx(lam / mu,
                                                           rel=1e-14)
    with pytest.raises(RuntimeError, match="did not converge"):
        _mg_rate_matrix(*blocks, itmax=2)


def test_pi12_stationary_closed_form(base_params):
    assert pi_12_stationary(base_params, 19 / 90) == pytest.approx(PI_STAR, abs=1e-12)
    assert pi_12_stationary(base_params, 0.0) == 0.0
    p = replace(base_params, mu12=1.0)
    assert pi_12_stationary(p, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pi_12_stationary(base_params, 1.5)


def test_pi12_consistency_with_stationary_point(base_params):
    sp = stationary_point(base_params)
    assert pi_12(base_params, sp.as_state()) == pytest.approx(sp.pi_star, abs=1e-10)


def test_sigma2_closed_forms(base_params):
    s_r1 = asymptotic_variance(base_params, XSTAR, "paper_r1")
    s_regen = asymptotic_variance(base_params, XSTAR, "regenerative")
    assert s_r1 == pytest.approx(SIGMA2_R1_FORM, abs=1e-10)
    # the two closed forms genuinely disagree
    assert abs(s_regen - s_r1) > 0.5
    r = ftsp_rates(base_params, XSTAR)
    bp1 = busy_period_moments(r.lam1, r.mu1)
    bp2 = busy_period_moments(r.lam2, r.mu2)
    pi = bp1.mean / (bp1.mean + bp2.mean)
    expect = ((1 - pi) ** 2 * bp1.variance + pi ** 2 * bp2.variance) / (bp1.mean + bp2.mean)
    assert s_regen == pytest.approx(expect, rel=1e-12)


def test_sigma2_poisson_matches_regenerative(base_params):
    s_poisson = asymptotic_variance(base_params, XSTAR, "poisson_numeric")
    s_regen = asymptotic_variance(base_params, XSTAR, "regenerative")
    assert s_poisson == pytest.approx(SIGMA2_TRUE, abs=1e-6)
    assert s_poisson == pytest.approx(s_regen, rel=1e-6)


def test_sigma2_poisson_bd_encoding_agreement(base_params):
    """The closed-form Poisson identity vs an independent tridiagonal solve."""
    lattice = ftsp_rates(base_params, XSTAR)
    assert lattice.j == lattice.k == 1
    s_lattice = asymptotic_variance(base_params, XSTAR, "poisson_numeric")

    r = ftsp_rates(base_params, XSTAR)
    nmax = 512
    size = 2 * nmax + 1
    up = np.array([r.lam1 if s > 0 else r.mu2 for s in range(-nmax, nmax + 1)])
    dn = np.array([r.mu1 if s > 0 else r.lam2 for s in range(-nmax, nmax + 1)])
    up[-1] = 0.0
    dn[0] = 0.0
    # stationary law by detailed balance along the birth-death chain
    log_pi = np.zeros(size)
    for i in range(1, size):
        log_pi[i] = log_pi[i - 1] + math.log(up[i - 1]) - math.log(dn[i])
    dist = np.exp(log_pi - log_pi.max())
    dist /= dist.sum()
    f = np.zeros(size)
    f[nmax + 1:] = 1.0
    fbar = f - dist @ f
    # banded Poisson solve anchored at the boundary state
    ab = np.zeros((3, size))
    ab[0, 1:] = up[:-1]
    ab[1, :] = -(up + dn)
    ab[2, :-1] = dn[1:]
    rhs = -fbar.copy()
    anchor = nmax
    ab[1, anchor] = 1.0
    ab[0, anchor + 1] = 0.0
    ab[2, anchor - 1] = 0.0
    # zero the anchor column: entries sit in rows anchor-1 and anchor+1
    ab[0, anchor] = 0.0   # (anchor-1, anchor) superdiag entry
    ab[2, anchor] = 0.0   # (anchor+1, anchor) subdiag entry
    rhs[anchor] = 0.0
    g = scipy.linalg.solve_banded((1, 1), ab, rhs)
    s_banded = 2.0 * float(np.sum(dist * fbar * g))
    assert s_banded == pytest.approx(s_lattice, abs=1e-6)


def test_sigma2_rejects_transient_state(base_params):
    with pytest.raises(ValueError):
        asymptotic_variance(base_params, FluidState(8.0, 0.0, 1.0), "poisson_numeric")


def test_sigma2_closed_forms_require_unit_ratio(base_params):
    p = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    g = FluidState(0.65, 0.55, 0.21)
    with pytest.raises(ValueError):
        asymptotic_variance(p, g, "paper_r1")
    # poisson handles any rational ratio
    assert asymptotic_variance(p, g, "poisson_numeric") > 0.0


def test_sigma2_monte_carlo_is_the_fixed_simulation(base_params):
    # the one Monte Carlo run behind the method name: horizon 2e6, seed 20240901
    mc = simulate_ftsp(base_params, XSTAR, horizon=2.0e6, seed=20240901)
    assert asymptotic_variance(base_params, XSTAR, "monte_carlo") == mc.sigma2


def test_simulate_deterministic(base_params):
    a = simulate_ftsp(base_params, XSTAR, horizon=5e4, seed=123, batch_length=500.0)
    b = simulate_ftsp(base_params, XSTAR, horizon=5e4, seed=123, batch_length=500.0)
    assert a == b


def test_simulate_time_average(base_params):
    mc = simulate_ftsp(base_params, XSTAR, horizon=1e6, seed=2024)
    se = mc.time_avg_stderr
    assert abs(mc.time_avg_positive - PI_STAR) < 3.0 * se
    assert mc.n_cycles > 100000


def test_simulate_transient_state_saturates():
    from overloadx.params import ModelParams
    p = ModelParams(lambda1=6.0, lambda2=0.1, theta1=0.2, theta2=0.2,
                    mu11=0.5, mu12=0.1, mu21=0.1, mu22=0.1,
                    m1=1.0, m2=1.0, r12="1/1", r21="1/1")
    mc = simulate_ftsp(p, FluidState(0.1, 3.0, 0.5), horizon=5e3, seed=5,
                       batch_length=100.0)
    assert mc.time_avg_positive > 0.98


def test_simulate_rejects_bad_horizon(base_params):
    # each refused before a draw, naming the argument
    for name, horizon, batch_length in [
            ("horizon", 0.0, 1000.0), ("horizon", math.nan, 1000.0),
            ("horizon", math.inf, 1000.0), ("batch_length", 1e4, 0.0),
            ("batch_length", 1e4, math.nan), ("batch_length", 1e4, -5.0),
            ("batch_length", 1e4, math.inf)]:
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            simulate_ftsp(base_params, XSTAR, horizon=horizon, seed=1,
                          batch_length=batch_length)


@pytest.mark.parametrize("ratio", ["1/1", "3/2"])
def test_simulate_rejects_a_horizon_of_fewer_than_two_batches(
        base_params, monkeypatch, ratio):
    # refused before a draw: 1.9 batches would be simulated in full first
    def no_draw(*args):
        raise AssertionError("drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    p = replace(base_params, r12=Fraction(ratio), r21=Fraction(ratio))
    with pytest.raises(ValueError, match="^horizon too short"):
        simulate_ftsp(p, XSTAR, horizon=1.9e5, seed=1, batch_length=1e5)


@pytest.mark.parametrize("seed", [-1, True, False, 1.5, "7", None])
def test_simulate_rejects_bad_seed(base_params, monkeypatch, seed):
    # refused before a draw, naming the argument: numpy would raise a bare
    # "expected non-negative integer" for -1 and a TypeError for 1.5, and
    # would run on True
    def no_draw(*args):
        raise AssertionError("drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        simulate_ftsp(base_params, XSTAR, horizon=1e4, seed=seed)


def test_simulate_accepts_a_numpy_integer_seed(base_params):
    a = simulate_ftsp(base_params, XSTAR, horizon=1e4, seed=np.int64(3))
    assert a == simulate_ftsp(base_params, XSTAR, horizon=1e4, seed=3)


def test_simulate_lattice_path_matches_bd_path(base_params):
    # the event-loop route (forced via ratio 3/2) also recovers its pi
    p = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    g = FluidState(0.65, 0.55, 0.21)
    mc = simulate_ftsp(p, g, horizon=2e5, seed=7, batch_length=500.0)
    pi = pi_12(p, g)
    assert abs(mc.time_avg_positive - pi) < 4.0 * math.sqrt(mc.sigma2 / mc.horizon)


def test_positive_time_on_a_walk_timeline():
    # D > 0 on [0.5, 1.0) and [1.0, 2.5); the sign also changes at 1.0
    # without time passing.  A time on a change time reads the same value
    # from the segment that ends there as from the one that starts there.
    # A time past the last end, which the busy-period timeline can leave
    # by rounding, is read in the last segment.
    times = np.array([0.0, 0.5, 1.0, 1.0, 2.5])
    flags = np.array([0.0, 1.0, 0.0, 1.0])
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 2.5, 3.0])
    got = _positive_time(times[:-1], times[1:], np.diff(times), flags, t)
    assert got.tolist() == [0.0, 0.0, 0.0, 0.25, 0.5, 1.5, 2.0, 2.5]


def test_busy_period_sampler_matches_moments():
    lam, mu = RATES_STAR[0], RATES_STAR[1]
    rng = np.random.default_rng(99)
    sample = _busy_period_batch(lam, mu, 100000, rng)
    bp = busy_period_moments(lam, mu)
    se_mean = math.sqrt(bp.variance / sample.size)
    assert abs(sample.mean() - bp.mean) < 3.0 * se_mean
    second = sample ** 2
    se_second = second.std(ddof=1) / math.sqrt(sample.size)
    assert abs(second.mean() - bp.second_moment) < 3.0 * se_second


def test_alternating_renewal_identity(base_params):
    # long-run positive fraction equals ET1/(ET1+ET2)
    mc = simulate_ftsp(base_params, XSTAR, horizon=1e6, seed=31)
    r = ftsp_rates(base_params, XSTAR)
    et1 = busy_period_moments(r.lam1, r.mu1).mean
    et2 = busy_period_moments(r.lam2, r.mu2).mean
    target = et1 / (et1 + et2)
    assert abs(mc.time_avg_positive - target) < 3.0 * mc.time_avg_stderr


def test_pi12_locally_lipschitz(base_params):
    rng = np.random.default_rng(42)
    centers = []
    while len(centers) < 20:
        g = FluidState(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5),
                       rng.uniform(0.1, 0.9))
        if is_positive_recurrent(base_params, g):
            centers.append(g)
    for g in centers:
        pi0 = pi_12(base_params, g)
        for _ in range(5):
            dq1, dq2, dz = rng.uniform(-1e-3, 1e-3, size=3)
            g2 = FluidState(g.q1 + dq1, g.q2 + dq2,
                            min(max(g.z12 + dz, 0.0), 1.0))
            dist = max(abs(dq1), abs(dq2), abs(g2.z12 - g.z12))
            if dist == 0.0 or not is_positive_recurrent(base_params, g2):
                continue
            assert abs(pi_12(base_params, g2) - pi0) <= 5.0 * dist


def test_recurrence_equivalence_small(base_params):
    # drift test vs an independent classification of the stationary mass
    rng = np.random.default_rng(11)
    p32 = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    checked = 0
    while checked < 60:
        g = FluidState(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0, 1))
        d_plus, d_minus = drift_rates(ftsp_rates(p32, g))
        if min(abs(d_plus), abs(d_minus)) < 0.05:
            continue   # skip the null-recurrent boundary band
        drift_rec = d_plus < 0.0 and d_minus > 0.0
        nmax = 2048
        dist = _stationary_truncated(ftsp_rates(p32, g), nmax)
        mass = dist[nmax + 1:].sum()
        assert drift_rec == (1e-3 < mass < 1.0 - 1e-3), (g, d_plus, d_minus, mass)
        checked += 1


def test_lattice_generator_invariants(base_params):
    # zero row sums and nonnegative off-diagonal rates at several ratios,
    # on the banded generator the truncated solves use
    for ratio in (Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4),
                  Fraction(2, 1)):
        p = replace(base_params, r12=ratio, r21=ratio)
        lattice = ftsp_rates(p, FluidState(0.7, 0.5, 0.3))
        assert all(v >= 0 for v in lattice.pos_rates.values())
        assert all(v >= 0 for v in lattice.neg_rates.values())
        band = lattice.banded_generator(64)
        b = lattice.block_size
        assert band.shape == (2 * b + 1, 129)
        # unpack: entry (row, col) sits at band[b + row - col, col]
        gen = np.zeros((129, 129))
        for row in range(129):
            for col in range(max(row - b, 0), min(row + b + 1, 129)):
                gen[row, col] = band[b + row - col, col]
        assert np.abs(band).sum() == pytest.approx(np.abs(gen).sum(), rel=1e-15)
        assert np.max(np.abs(gen.sum(axis=1))) < 1e-12
        off_diag = gen - np.diag(np.diag(gen))
        assert off_diag.min() >= 0.0


def test_summary_fields(base_params):
    s = ftsp_summary(base_params, XSTAR, sigma2_method="regenerative")
    assert s.recurrent
    assert 0.0 < s.pi12 < 1.0
    assert s.sigma2 == pytest.approx(SIGMA2_TRUE, rel=1e-5)
    assert s.et1 is not None and s.var_t2 is not None
    s2 = ftsp_summary(base_params, FluidState(8.0, 0.0, 1.0),
                      sigma2_method="regenerative")
    assert not s2.recurrent and s2.pi12 == 0.0 and s2.sigma2 is None


def _float_or_error(f, *args):
    """``float.hex`` of ``f(*args)``, or the message of its ``ValueError``."""
    try:
        return float(f(*args)).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _ftsp_golden_record(p, states):
    """The lattice routes at each state of ``states`` (see
    ``ftsp_golden.json``): rate maps in key order, drifts, ``drift_kernel``,
    pi12 by every method, the closed-form sigma2 and the Poisson-equation
    oracle, floats by ``float.hex``; then ``sigma2_columns`` over the
    recurrent states."""
    kernel = drift_kernel(p)
    sigma2_forms = ("paper_r1", "regenerative", "poisson_numeric")
    record, recurrent = [], []
    for state in states:
        g = FluidState(*state)
        model = ftsp_rates(p, g)
        entry = {"pos_rates": [[jump, rate.hex()]
                               for jump, rate in model.pos_rates.items()],
                 "neg_rates": [[jump, rate.hex()]
                               for jump, rate in model.neg_rates.items()],
                 "drifts": [d.hex() for d in drift_rates(model)],
                 "drift_kernel": [d.hex() for d in kernel(*state)],
                 "pi12": {m: _float_or_error(pi_12, p, g, m)
                          for m in PI12_METHODS},
                 "sigma2": {m: _float_or_error(asymptotic_variance, p, g, m)
                            for m in sigma2_forms}}
        if is_positive_recurrent(p, g):
            recurrent.append(state)
            entry["sigma2_truncated"] = float(
                _truncated_solve(model, tol=1e-10, sigma2=True)).hex()
        record.append(entry)
    columns = {}
    for m in sigma2_forms:
        try:
            columns[m] = [v.hex() for v in
                          sigma2_columns(p, np.array(recurrent), m).tolist()]
        except ValueError as exc:
            columns[m] = f"ValueError: {exc}"
    return {"states": record, "sigma2_columns": columns}


def test_lattice_routes_bit_identical_to_golden(base_params):
    # Recorded with the two rate builders (birth-death at r = 1, lattice
    # otherwise) and the QBD blocks built apart from the banded generator.
    # Per ratio, r21 = r12: the stationary state, q1 = 0, z12 = 0, z12 = m2,
    # the empty state, an inner state and two transient ones, one per side.
    golden = json.loads(
        (Path(__file__).parent / "ftsp_golden.json").read_text())
    assert [case["ratio"] for case in golden] == ["1/1", "3/2", "2/1", "5/3"]
    for case in golden:
        p = replace(base_params, r12=Fraction(case["ratio"]),
                    r21=Fraction(case["ratio"]))
        assert _ftsp_golden_record(p, case["states"]) == case["record"], (
            case["ratio"])


def _mc_golden_record(mc):
    """Every field of an ``FtspMcStats``, floats by ``float.hex`` (see
    ``ftsp_mc_golden.json``)."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in vars(mc).items()}


def test_monte_carlo_routes_bit_identical_to_golden(base_params):
    # Five runs per route: the r = 1 busy-period batches at the stationary
    # state, the r = 1 walk from a transient state, and the lattice walk at
    # r = 3/2 and r = 2.  Seeds 1, 3, 7 and 20240901; horizons of exactly
    # 3 batches (the r = 1 one of length 3.0 completes one cycle, so its
    # sigma2 is the batch-means value), of 200 batches, and ones that end
    # inside a batch.
    golden = json.loads(
        (Path(__file__).parent / "ftsp_mc_golden.json").read_text())
    assert len(golden) == 20
    assert {case["ratio"] for case in golden} == {"1/1", "3/2", "2/1"}
    for case in golden:
        p = replace(base_params, r12=Fraction(case["ratio"]),
                    r21=Fraction(case["ratio"]))
        mc = simulate_ftsp(p, FluidState(*case["state"]), case["horizon"],
                           case["seed"], case["batch_length"])
        assert _mc_golden_record(mc) == case["record"], case
