"""The input contract of every entry point, and its property tests.

Every entry either refuses an argument with a ``ValueError`` that names it,
before any work, or answers inside the model's range: pi in [0, 1],
sigma2 >= 0, positive semidefinite covariances and fluid states in S.  A
path that cannot be integrated at the given step raises ``RuntimeError``.
The counts, ranges and choices are checked by ``overloadx.params``.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import overloadx.diffusion
import overloadx.fluid
import overloadx.ftsp
import overloadx.sim
from overloadx.cli import main
from overloadx.params import (check_choice, check_count, check_real, scale)
from overloadx.ftsp import (PI12_METHODS, SIGMA2_METHODS, FluidState,
                            asymptotic_variance, busy_period_moments, pi_12,
                            pi_12_stationary, pi_from_drifts, sigma2_columns,
                            simulate_ftsp)
from overloadx.fluid import (integrate_fluid, ode_rhs, stationary_point,
                             time_to_stationarity)
from overloadx.diffusion import (PSI_CONVENTIONS, gaussian_queue_approx,
                                 pool_dependent_reduction, psi_mix,
                                 sde_drift_matrix, time_changes,
                                 transient_covariance)
from overloadx.sim import (START_MODES, SimState, apply_event,
                           difference_jump_rates, indicator_integral,
                           init_state, replicate, run)

from conftest import random_admissible_params

# derandomized, no example database: tier-1 stays deterministic
CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)

# the work each entry does after its checks; the checks must come first
_WORK = [(overloadx.sim, "_simulate"), (overloadx.sim, "_run_one"),
         (overloadx.sim, "stationary_point"),
         (overloadx.fluid, "_point_kernel"),
         (overloadx.fluid, "stationary_point"),
         (overloadx.ftsp, "ftsp_rates"), (np.random, "default_rng"),
         (overloadx.ftsp, "_closed_form_sigma2"),
         (overloadx.diffusion, "stationary_point"),
         (overloadx.diffusion, "_integrand_rows")]


def _no_work(*args, **kwargs):
    raise AssertionError("did work before checking its arguments")


@contextmanager
def _no_work_allowed():
    with pytest.MonkeyPatch.context() as mp:
        for module, name in _WORK:
            mp.setattr(module, name, _no_work)
        yield


@pytest.fixture(scope="module")
def inputs(base_params):
    p = base_params
    path = integrate_fluid(p, stationary_point(p).as_state(), T=0.05, h=1e-2)
    return p, scale(p, 25), path


FLAGS = {"sigma2_method": "regenerative", "psi_convention": "plus"}
X0 = FluidState(1.0, 0.2, 0.0)

# one slot per checked argument: (name in the message, kind, call with the
# argument set to a value and every other argument valid)
SLOTS = [
    ("horizon", "count", lambda i, v: run(i[1], v, seed=1)),
    ("warmup fraction", "real",
     lambda i, v: run(i[1], 100, warmup_fraction=v, seed=1)),
    ("start mode", "choice", lambda i, v: run(i[1], 100, seed=1, start=v)),
    ("seed", "seed", lambda i, v: run(i[1], 100, seed=v)),
    ("replications", "count", lambda i, v: replicate(i[1], v, 100, 1)),
    ("warmup fraction", "real",
     lambda i, v: replicate(i[1], 2, 100, 1, warmup_fraction=v)),
    ("seed", "seed", lambda i, v: replicate(i[1], 2, 100, v)),
    ("t_end", "real",
     lambda i, v: indicator_integral(i[1], v, seed=1, pi_ref=0.2)),
    ("pi_ref", "real",
     lambda i, v: indicator_integral(i[1], 1.0, seed=1, pi_ref=v)),
    ("start mode", "choice", lambda i, v: init_state(i[1], v)),
    ("step size h", "real", lambda i, v: integrate_fluid(i[0], X0, 1.0, v)),
    ("horizon T", "real", lambda i, v: integrate_fluid(i[0], X0, v, 0.01)),
    ("manifold band", "real",
     lambda i, v: integrate_fluid(i[0], X0, 1.0, 0.01, tol_manifold=v)),
    ("tolerance tol", "real", lambda i, v: time_to_stationarity(i[2], v)),
    ("pi", "real", lambda i, v: ode_rhs(i[0], X0, v)),
    ("horizon", "real", lambda i, v: simulate_ftsp(i[0], X0, v, seed=1)),
    ("batch_length", "real",
     lambda i, v: simulate_ftsp(i[0], X0, 1e4, seed=1, batch_length=v)),
    ("seed", "seed", lambda i, v: simulate_ftsp(i[0], X0, 1e4, seed=v)),
    ("pi12 method", "choice", lambda i, v: pi_12(i[0], X0, v)),
    ("delta_plus", "real", lambda i, v: pi_from_drifts(v, 1.0)),
    ("delta_minus", "real", lambda i, v: pi_from_drifts(-1.0, v)),
    ("lam", "real", lambda i, v: busy_period_moments(v, 2.0)),
    ("mu", "real", lambda i, v: busy_period_moments(1.0, v)),
    ("sigma2 method", "choice", lambda i, v: asymptotic_variance(i[0], X0, v)),
    ("psi convention", "choice", lambda i, v: psi_mix(i[0], 0.5, v)),
    ("pi", "real", lambda i, v: sde_drift_matrix(i[0], v)),
    ("scale parameter n", "count", lambda i, v: scale(i[0], v)),
    ("scale parameter n", "count",
     lambda i, v: gaussian_queue_approx(i[0], v, **FLAGS)),
    ("horizon T", "real",
     lambda i, v: transient_covariance(i[0], i[2], np.zeros((2, 2)), v,
                                       **FLAGS)),
]


@pytest.mark.parametrize("call, name", [
    # a bare TypeError before, from comparing a str with a float
    (lambda i: run(i[1], 100, warmup_fraction="0.2", seed=1),
     "warmup fraction"),
    (lambda i: replicate(i[1], 2, 100, 1, warmup_fraction="0.2"),
     "warmup fraction"),
    (lambda i: indicator_integral(i[1], "1", seed=7, pi_ref=0.2), "t_end"),
    # accepted before, as 1
    (lambda i: indicator_integral(i[1], True, seed=7, pi_ref=0.2), "t_end"),
    (lambda i: integrate_fluid(i[0], X0, T=1.0, h=True), "step size h"),
    (lambda i: integrate_fluid(i[0], X0, T=True, h=0.01), "horizon T"),
    (lambda i: simulate_ftsp(i[0], X0, horizon=True, seed=1), "horizon"),
    # scale gave ScaledSystem.n = 2.5, or a bare error from math.ceil or
    # from comparing a str with 1
    (lambda i: scale(i[0], 2.5), "scale parameter n"),
    (lambda i: scale(i[0], True), "scale parameter n"),
    (lambda i: scale(i[0], math.nan), "scale parameter n"),
    (lambda i: scale(i[0], "4"), "scale parameter n"),
    (lambda i: gaussian_queue_approx(i[0], 2.5, **FLAGS),
     "scale parameter n"),
    (lambda i: gaussian_queue_approx(i[0], True, **FLAGS),
     "scale parameter n"),
    # NaN reported "path never settles"
    (lambda i: time_to_stationarity(i[2], math.nan), "tolerance tol"),
    (lambda i: time_to_stationarity(i[2], True), "tolerance tol"),
    (lambda i: transient_covariance(i[0], i[2], np.zeros((2, 2)), True,
                                    **FLAGS), "horizon T"),
    # said "horizon T = nan lies before the path's start t = 0.0"
    (lambda i: transient_covariance(i[0], i[2], np.zeros((2, 2)), math.nan,
                                    **FLAGS), "horizon T"),
    # ode_rhs took True as 1.0 and raised a bare TypeError for a str
    (lambda i: ode_rhs(i[0], FluidState(True, 0.5, 0.2), 0.5), "q1"),
    (lambda i: ode_rhs(i[0], FluidState(0.6, "0.5", 0.2), 0.5), "q2"),
    # ModelParams kept a bool rate and raised a bare TypeError for a str one
    (lambda i: replace(i[0], lambda1=True), "lambda1"),
    (lambda i: replace(i[0], mu21="0.8"), "mu21"),
    # a str z12_star raised a bare TypeError, and True was taken as 1.0
    (lambda i: pi_12_stationary(i[0], "0.2"), "z12_star"),
    (lambda i: pi_12_stationary(i[0], True), "z12_star"),
    # pi_from_drifts gave 1.0 for (inf, 1.0) and NaN for (-1.0, inf)
    (lambda i: pi_from_drifts(math.inf, 1.0), "delta_plus"),
    (lambda i: pi_from_drifts(-math.inf, 1.0), "delta_plus"),
    (lambda i: pi_from_drifts(-1.0, math.inf), "delta_minus"),
    (lambda i: pi_from_drifts(-1.0, -math.inf), "delta_minus"),
    # busy_period_moments gave a mean of 0.5 for (-1.0, 1.0), all zeros
    # for (1.0, inf) and a bare ZeroDivisionError for (-1.0, 0.0)
    (lambda i: busy_period_moments(-1.0, 1.0), "lam"),
    (lambda i: busy_period_moments(math.inf, 1.0), "lam"),
    (lambda i: busy_period_moments(1.0, math.inf), "mu"),
    (lambda i: busy_period_moments(0.0, 0.0), "mu"),
    (lambda i: busy_period_moments(-1.0, 0.0), "lam"),
    # sde_drift_matrix gave a (2,2) entry of -1.2 at pi = 2.0
    (lambda i: sde_drift_matrix(i[0], 2.0), "pi"),
    (lambda i: sde_drift_matrix(i[0], -0.5), "pi"),
])
def test_each_mended_input_is_refused_by_name_before_any_work(
        inputs, call, name):
    with _no_work_allowed(), pytest.raises(ValueError) as refused:
        call(inputs)
    assert str(refused.value).startswith(f"{name} must ")


@pytest.mark.parametrize("call, name", [
    # a str coordinate raised a bare TypeError, and True was taken as 1.0:
    # pi_12 returned 0.135; the kernels' own comparisons let them through
    (lambda p: pi_12(p, FluidState("0.6", 0.5, 0.2)), "q1"),
    (lambda p: pi_12(p, FluidState(True, 0.5, 0.2)), "q1"),
    (lambda p: pi_12(p, FluidState(0.6, 0.5, False), "truncated"), "z12"),
    (lambda p: asymptotic_variance(p, FluidState(0.6, "0.5", 0.2),
                                   "regenerative"), "q2"),
    (lambda p: FluidState(0.6, 0.5, "0.2").validate(p), "z12"),
])
def test_a_fluid_state_coordinate_that_is_no_number_is_refused_by_name(
        base_params, call, name):
    with pytest.raises(ValueError) as refused:
        call(base_params)
    assert str(refused.value) == f"{name} must be a real number"


# the three functions that walk a path's integrand rows, at parameters
# each accepts (pool_dependent_reduction needs mu12 == mu22)
PATH_WALKS = {
    "time_changes": lambda p, path: time_changes(p, path, **FLAGS),
    "transient_covariance": lambda p, path: transient_covariance(
        p, path, np.zeros((2, 2)), **FLAGS),
    "pool_dependent_reduction": lambda p, path: pool_dependent_reduction(
        replace(p, mu12=p.mu22), path, **FLAGS),
}


@pytest.mark.parametrize("walk", PATH_WALKS)
@pytest.mark.parametrize("cut, message", [
    (lambda path: replace(path, pi=None), "path must carry a pi value per step"),
    (lambda path: replace(path, pi=path.pi[:-1]),
     "path must carry a pi value per step"),
    (lambda path: replace(path, t=path.t[:0], states=path.states[:0],
                          pi=path.pi[:0]),
     "path must hold at least one point"),
    (lambda path: replace(path, t=path.t[:5], states=path.states[:4],
                          pi=path.pi[:5]),
     "path states must be shaped (len(t), 3) = (5, 3), got (4, 3)"),
], ids=["none", "one short", "no point", "one state short"])
def test_a_path_without_one_pi_per_point_is_refused_before_any_row(
        inputs, walk, cut, message):
    # transient_covariance and pool_dependent_reduction raised a bare
    # TypeError for no pi and numpy's broadcast error for one pi short;
    # all three raised a bare IndexError for no point, and ran the sigma2
    # work before numpy's broadcast error for 4 states at 5 times
    p, _, path = inputs
    with _no_work_allowed(), pytest.raises(ValueError) as refused:
        PATH_WALKS[walk](p, cut(path))
    assert str(refused.value) == message


def test_sigma2_columns_checks_every_row_before_any_simulation(base_params):
    # monte_carlo simulated x* for 2e6 time units before it reached the
    # row outside S
    p = base_params
    states = np.array([stationary_point(p).as_state(), (0.6, 0.5, 2 * p.m2)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overloadx.ftsp, "simulate_ftsp", _no_work)
        with pytest.raises(ValueError) as refused:
            sigma2_columns(p, states, "monte_carlo")
    assert str(refused.value).startswith("z12 must lie in [0, m2=1.0]")


@pytest.mark.parametrize("event, counts, message", [
    # an unknown name was applied as s22, taking a class-2 customer from
    # queue 2
    ("s13", (3, 2, 5, 0, 0, 5), "unknown event 's13'"),
    ("S11", (3, 2, 5, 0, 0, 5), "unknown event 'S11'"),
    ("", (3, 2, 5, 0, 0, 5), "unknown event ''"),
    (None, (3, 2, 5, 0, 0, 5), "unknown event None"),
    # an event of rate zero was applied: ab1 at the empty state gave q1 = -1
    ("ab1", (0, 0, 0, 0, 0, 0), "event 'ab1' has rate zero at "),
    ("ab2", (3, 0, 5, 0, 0, 5), "event 'ab2' has rate zero at "),
    ("s11", (3, 2, 0, 0, 0, 5), "event 's11' has rate zero at "),
    ("s12", (3, 2, 5, 0, 0, 5), "event 's12' has rate zero at "),
    ("s21", (3, 2, 5, 0, 0, 5), "event 's21' has rate zero at "),
    ("s22", (3, 2, 5, 0, 0, 0), "event 's22' has rate zero at "),
])
def test_apply_event_refuses_an_event_it_cannot_apply(inputs, event, counts,
                                                       message):
    s = SimState(*counts)
    with pytest.raises(ValueError) as refused:
        apply_event(inputs[1], s, event)
    assert str(refused.value).startswith(message)
    assert (s.q1, s.q2, s.z11, s.z12, s.z21, s.z22) == counts   # untouched
    # the rates skip each event of rate zero, and every known event of
    # positive rate applies
    difference_jump_rates(inputs[1], s)


def test_the_checks_name_the_argument_and_take_numpy_scalars():
    check_count("n", np.int64(3))
    check_count("n", 2, least=2)
    check_real("x", np.float64(0.5), "lie in [0, 1)")
    check_real("x", np.int32(1), "be positive and finite")
    check_real("x", math.nan)   # no range stated: NaN passes
    check_choice("mode", "fluid", START_MODES)
    for call, message in [
            (lambda: check_count("n", 2.0), "n must be a whole number, got 2.0"),
            (lambda: check_count("R", 1, least=2), "R must be >= 2, got 1"),
            (lambda: check_count("horizon", 0, unit=" of arrivals"),
             "horizon must be a whole number of arrivals >= 1, got 0"),
            (lambda: check_real("x", True, "be positive"), "x must be positive"),
            (lambda: check_real("x", "1"), "x must be a real number"),
            (lambda: check_real("x", 1 + 0j), "x must be a real number"),
            (lambda: check_real("x", math.inf, "be positive and finite"),
             "x must be positive and finite"),
            (lambda: check_choice("mode", b"fluid", START_MODES),
             "unknown mode b'fluid'")]:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_cli_diffusion_refuses_n_below_one_by_name(capsys):
    # the command's own test of --n is gone; gaussian_queue_approx refuses
    assert main(["diffusion", "--n", "0", "--sigma2-method", "paper_r1",
                 "--psi-convention", "paper-sec10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: scale parameter n must be >= 1, got 0\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

RATIOS = ["1/1", "3/2", "2/1", "1/2"]
admissible_params = st.builds(
    lambda seed, ratio: random_admissible_params(
        np.random.default_rng(seed), 1, ratio=ratio)[0],
    st.integers(0, 2**32 - 1), st.sampled_from(RATIOS))
seeds = st.integers(0, 2**63 - 1)
counts = st.integers(1, 10**6)
# monte_carlo simulates 2e6 time units per state: simulate_ftsp has its
# own property below
sigma2_methods = st.sampled_from([m for m in SIGMA2_METHODS
                                  if m != "monte_carlo"])
psi_conventions = st.sampled_from(PSI_CONVENTIONS)


@st.composite
def fluid_states(draw, p):
    """A point of S for p: queues up to 3, z12 in [0, m2]."""
    return FluidState(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)),
                      draw(st.floats(0.0, 1.0)) * p.m2)


# what no argument of any kind accepts
never_valid = st.one_of(st.booleans(), st.sampled_from(["", "1", "0.2", "x"]),
                        st.just(math.nan))
# counts and seeds also refuse any float, whole or not, ±inf and a
# negative integer
not_a_count = st.one_of(never_valid, st.floats(allow_nan=False),
                        st.integers(-10**6, 0).map(float),
                        st.integers(-10**6, -1))


@pytest.mark.parametrize("name, kind, call", SLOTS,
                         ids=[f"{i}-{slot[0]}" for i, slot in enumerate(SLOTS)])
@settings(CONTRACT, max_examples=15)
@given(data=st.data())
def test_every_entry_refuses_a_bad_scalar_by_name_before_any_work(
        inputs, name, kind, call, data):
    value = data.draw(not_a_count if kind in ("count", "seed")
                      else never_valid)
    with _no_work_allowed(), pytest.raises(ValueError) as refused:
        call(inputs, value)
    # the name is the message's subject, not a word somewhere in it: a
    # check_real, check_count or check_seed message, or check_choice's
    assert str(refused.value).startswith((f"{name} must ", f"unknown {name} "))


def _in_S(p, states):
    q1, q2, z12 = states.T
    return bool(np.all(np.isfinite(states)) and np.all(q1 >= 0.0)
                and np.all(q2 >= 0.0) and np.all((0.0 <= z12) & (z12 <= p.m2)))


def _psd(cov):
    cov = np.asarray(cov)
    return (bool(np.all(np.isfinite(cov)))
            and bool(np.all(np.linalg.eigvalsh(cov)[..., 0]
                            >= -1e-9 * np.abs(cov).max(initial=1.0))))


@contextmanager
def _answers_or_refuses():
    """The body either answers or raises ValueError / RuntimeError with a
    message; any other exception fails the contract."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        assert str(exc)


@CONTRACT
@given(data=st.data(), p=admissible_params)
def test_ftsp_answers_inside_the_model_range(data, p):
    g = data.draw(fluid_states(p))
    with _answers_or_refuses():
        pi = pi_12(p, g, data.draw(st.sampled_from(PI12_METHODS)))
        assert 0.0 <= pi <= 1.0
    with _answers_or_refuses():
        s2 = asymptotic_variance(p, g, data.draw(sigma2_methods))
        assert math.isfinite(s2) and s2 >= 0.0


@settings(CONTRACT, max_examples=20)
@given(data=st.data(), p=admissible_params, seed=seeds)
def test_ftsp_monte_carlo_answers_inside_the_model_range(data, p, seed):
    g = data.draw(fluid_states(p))
    with _answers_or_refuses():
        mc = simulate_ftsp(p, g, horizon=300.0, seed=seed, batch_length=50.0)
        assert 0.0 <= mc.time_avg_positive <= 1.0
        assert mc.sigma2 >= 0.0 and mc.sigma2_time_batches >= 0.0
        assert mc.n_cycles >= 0


@settings(CONTRACT, max_examples=40)
@given(data=st.data(), p=admissible_params, sigma2_method=sigma2_methods,
       psi_convention=psi_conventions)
def test_fluid_and_transient_answers_stay_in_the_model_range(
        data, p, sigma2_method, psi_convention):
    x0 = data.draw(fluid_states(p))
    with _answers_or_refuses():
        path = integrate_fluid(p, x0, T=0.5, h=0.01)
        assert _in_S(p, path.states)
        assert np.all((0.0 <= path.pi) & (path.pi <= 1.0))
        flags = {"sigma2_method": sigma2_method,
                 "psi_convention": psi_convention}
        t, cov = transient_covariance(p, path, np.zeros((2, 2)), **flags)
        assert len(t) == len(path.t) and _psd(cov)


@CONTRACT
@given(p=admissible_params, n=counts, sigma2_method=sigma2_methods,
       psi_convention=psi_conventions)
def test_steady_state_answers_stay_in_the_model_range(
        p, n, sigma2_method, psi_convention):
    # the Bhatia-Davis bound on std_z12 is not gated, since it fails at
    # some admissible parameters; std_z12_possible reports it
    sys_n = scale(p, n)
    assert sys_n.n == n and sys_n.m2n == math.floor(n * p.m2 + 0.5)
    with _answers_or_refuses():
        g = gaussian_queue_approx(p, n, sigma2_method=sigma2_method,
                                  psi_convention=psi_convention)
        means = (g.mean_q1, g.mean_q2, g.mean_qs, g.mean_z12)
        stds = (g.std_q1, g.std_q2, g.std_qs, g.std_z12)
        assert all(math.isfinite(v) and v >= 0.0 for v in means + stds)
        assert g.mean_z12 <= n * p.m2 * (1 + 1e-12)
        assert g.std_z12_possible == (g.std_z12 <= math.sqrt(
            max(g.mean_z12 * (n * p.m2 - g.mean_z12), 0.0)))
        assert _psd(g.cov.matrix())


@settings(CONTRACT, max_examples=25)
@given(p=admissible_params, seed=seeds, start=st.sampled_from(START_MODES))
def test_short_simulations_answer_inside_the_model_range(p, seed, start):
    sys_n = scale(p, 5)
    stats = run(sys_n, 200, seed=seed, start=start)
    if not stats.degenerate:
        assert all(math.isfinite(stats.value(q))
                   for q in overloadx.sim.QUANTITIES)
        assert 0.0 <= stats.value("frac_d_positive") <= 1.0
    assert math.isfinite(indicator_integral(sys_n, 0.5, seed, 0.5, start))


# two checks first added for hand-found cases, as properties: a start
# covariance whose symmetric part overflows, and replicate's arguments

@CONTRACT
@given(entries=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                        min_size=4, max_size=4))
def test_transient_covariance_start_is_refused_or_finite(inputs, entries):
    p, _, path = inputs
    sigma0 = np.array(entries).reshape(2, 2)
    with _answers_or_refuses():
        t, cov = transient_covariance(p, path, sigma0, **FLAGS)
        assert np.all(np.isfinite(cov))


@settings(CONTRACT, max_examples=150)
@given(e=st.integers(-6, 6), u=st.floats(-1.0, 1.0), v=st.floats(0.0, 1.0),
       delta=st.one_of(st.floats(-1.0, 1.0), st.builds(
           lambda x, sign: sign * 10.0 ** x, st.floats(-14.0, -8.0),
           st.sampled_from([-1.0, 1.0]))))
def test_the_closed_form_psd_test_decides_as_eigvalsh(inputs, e, u, v, delta):
    # [[u, w], [w, v]] 10^e with w 10^e = sqrt|uv| 10^e + delta: a small
    # delta moves the smallest eigenvalue from 0 by about delta, near the
    # -1e-12 tolerance at every scale; the band is eigvalsh's own rounding
    p, _, path = inputs
    s = 10.0 ** e
    a, b, c = u * s, v * s, math.sqrt(abs(u * v)) * s + delta
    sym = np.array([[a, c], [c, b]])
    smallest = np.linalg.eigvalsh(sym)[0]
    assume(abs(smallest + 1e-12) > 16 * np.finfo(float).eps * np.abs(sym).max())
    with _no_work_allowed():   # a start that passes its checks reaches work
        try:
            transient_covariance(p, path, sym, **FLAGS)
        except ValueError as refused:
            assert "positive semidefinite" in str(refused)
            assert smallest < -1e-12
        except AssertionError:
            assert smallest >= -1e-12


@CONTRACT
@given(R=st.one_of(st.integers(-3, 3), not_a_count),
       horizon=st.one_of(st.integers(-3, 300), not_a_count),
       warmup=st.one_of(st.none(), st.floats(-1.0, 2.0), never_valid))
def test_replicate_refuses_before_any_replication(inputs, R, horizon, warmup):
    valid = (type(R) is int and R >= 2 and type(horizon) is int
             and horizon >= 1
             and (warmup is None or type(warmup) is float
                  and 0.0 <= warmup < 1.0))
    if valid:
        return
    with _no_work_allowed(), pytest.raises(ValueError):
        replicate(inputs[1], R, horizon, 1, warmup_fraction=warmup)
