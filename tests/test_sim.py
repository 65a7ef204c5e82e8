import concurrent.futures
import hashlib
import json
import math
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import Phase, given, settings, strategies

import overloadx.ftsp
import overloadx.sim
from overloadx.params import scale
from overloadx.ftsp import FluidState, FtspRates, ftsp_rates, simulate_ftsp
from overloadx.fluid import stationary_point
from overloadx.sim import (_CHUNK, _EVENTS, _OUTCOMES, START_MODES, SimState,
                           _Ledger, _route, _simulate, _uniform_blocks,
                           aggregate_runs, apply_event,
                           difference_jump_rates, indicator_integral,
                           init_state, replicate, run, step)

from conftest import random_admissible_params


@pytest.fixture(scope="module")
def sys100(base_params):
    return scale(base_params, 100)


def test_init_state_fluid(sys100):
    st = init_state(sys100, "fluid")
    assert (st.q1, st.q2) == (66, 56)
    assert (st.z11, st.z12, st.z21, st.z22) == (100, 21, 0, 79)
    st.check_invariants(sys100)


def test_init_state_empty(sys100):
    st = init_state(sys100, "empty")
    assert (st.q1, st.q2, st.z11, st.z12, st.z21, st.z22) == (0,) * 6
    with pytest.raises(ValueError):
        init_state(sys100, "warm")


def test_init_state_outside_state_space(base_params):
    # at n = 3 the realized offset ceil(3 * 1.05) / 3 = 4/3 puts the
    # stationary point outside S (q2 < 0): the fluid start leaves Q2 empty
    p = replace(base_params, kappa12=1.05)
    sys3 = scale(p, 3)
    assert stationary_point(p).q2 > 0.0
    with pytest.raises(ValueError, match="q2"):
        stationary_point(p.with_kappa12(sys3.kappa_eff))
    st = init_state(sys3, "fluid")
    assert st.q2 == 0 and st.q1 > 0


def test_routing_cross_assignment_on_completion(sys100):
    # positive difference, no reverse sharing: freed pool-2 agent takes the
    # head of queue 1
    st = SimState(q1=30, q2=10, z11=100, z12=21, z21=0, z22=79)
    out = apply_event(sys100, SimState(**{**st.__dict__}), "s22")
    assert out.q1 == 29 and out.z12 == 22 and out.z22 == 78


def test_routing_no_cross_when_difference_nonpositive(sys100):
    # D12 = 10 - 10 - 20 < 0 and D21 = 20 - 10 - 10 <= 0: completions only
    # serve their own queue
    st = SimState(q1=10, q2=20, z11=100, z12=0, z21=0, z22=100)
    out = apply_event(sys100, SimState(**{**st.__dict__}), "s22")
    assert out.z12 == 0 and out.q2 == 19 and out.z22 == 100
    out = apply_event(sys100, SimState(**{**st.__dict__}), "s11")
    assert out.z21 == 0 and out.q1 == 9


def test_routing_one_way_guard(sys100):
    # pool 2 may not take class 1 while pool 1 holds class 2
    st = SimState(q1=40, q2=0, z11=99, z12=0, z21=1, z22=100)
    out = apply_event(sys100, SimState(**{**st.__dict__}), "s22")
    # guard holds: the freed agent idles rather than violating one-way sharing
    assert out.z12 == 0 and out.q1 == 40 and out.z22 == 99


def test_routing_work_conserving_fallback(sys100):
    # non-positive difference but queue 2 empty: the freed pool-2 agent may
    # still take queue 1 when the guard allows
    st = SimState(q1=5, q2=0, z11=100, z12=0, z21=0, z22=100)
    assert 5 - sys100.k12n - 0 <= 0
    out = apply_event(sys100, SimState(**{**st.__dict__}), "s22")
    assert out.z12 == 1 and out.q1 == 4


def _parent_apply_event(sys, s, event):
    """The routing rules branch by branch, as ``apply_event`` applied them
    before it read ``_OUTCOMES``; D12 and D21 times their ratio's
    denominator, in integers."""
    r12, r21 = sys.parent.r12, sys.parent.r21
    d12_positive = (r12.denominator * (s.q1 - sys.k12n)
                    - r12.numerator * s.q2 > 0)
    d21_positive = (r21.numerator * s.q2
                    - r21.denominator * (sys.k21n + s.q1) > 0)
    if event == "arr1":
        if s.z11 + s.z21 < sys.m1n:
            s.z11 += 1
        elif s.z12 + s.z22 < sys.m2n and s.z21 == 0 and d12_positive:
            s.z12 += 1
        else:
            s.q1 += 1
    elif event == "arr2":
        if s.z12 + s.z22 < sys.m2n:
            s.z22 += 1
        elif s.z11 + s.z21 < sys.m1n and s.z12 == 0 and d21_positive:
            s.z21 += 1
        else:
            s.q2 += 1
    elif event == "ab1":
        s.q1 -= 1
    elif event == "ab2":
        s.q2 -= 1
    elif event in ("s11", "s21"):
        if event == "s11":
            s.z11 -= 1
        else:
            s.z21 -= 1
        if d21_positive and s.z12 == 0 and s.q2 > 0:
            s.z21 += 1
            s.q2 -= 1
        elif s.q1 > 0:
            s.z11 += 1
            s.q1 -= 1
        elif s.q2 > 0 and s.z12 == 0:
            s.z21 += 1
            s.q2 -= 1
    else:
        if event == "s12":
            s.z12 -= 1
        else:
            s.z22 -= 1
        if d12_positive and s.z21 == 0 and s.q1 > 0:
            s.z12 += 1
            s.q1 -= 1
        elif s.q2 > 0:
            s.z22 += 1
            s.q2 -= 1
        elif s.q1 > 0 and s.z21 == 0:
            s.z12 += 1
            s.q1 -= 1
    return s


def _counts(s):
    return (s.q1, s.q2, s.z11, s.z12, s.z21, s.z22)


@pytest.mark.parametrize("ratio, pairs", [("1/1", 81142), ("3/2", 81142)])
def test_route_matches_the_rules_on_every_reachable_state(base_params, ratio,
                                                          pairs):
    # every state reachable at n = 5 from both starts with Q1 + Q2 <= 40,
    # and every event of positive rate there: the code is one of the
    # event's, its change keeps the invariants, and the state moves as the
    # branch-by-branch rules move it
    sysn = scale(replace(base_params, r12=ratio, r21=ratio), 5)
    seen = {_counts(init_state(sysn, start)) for start in START_MODES}
    todo = list(seen)
    checked = 0
    while todo:
        counts = todo.pop()
        state = SimState(*counts)
        # arrivals always; ab1, ..., s22 while their count is positive
        for i, event in enumerate(_EVENTS):
            if i >= 2 and counts[i - 2] == 0:
                continue
            assert _OUTCOMES[_route(sysn, state, event)][0] == i
            got = _counts(apply_event(sysn, SimState(*counts), event)
                          .check_invariants(sysn))
            assert got == _counts(
                _parent_apply_event(sysn, SimState(*counts), event))
            checked += 1
            if got[0] + got[1] <= 40 and got not in seen:
                seen.add(got)
                todo.append(got)
    assert checked == pairs


def test_generator_matches_ftsp_rates(base_params, sys100):
    # aggregate D12 jump rates at pools-full states, divided by n, equal the
    # fast-process rates built from the scaled state exactly
    rng = np.random.default_rng(77)
    n = sys100.n
    done = 0
    while done < 50:
        q1 = int(rng.integers(1, 300))
        q2 = int(rng.integers(1, 300))
        z12 = int(rng.integers(0, n + 1))
        if q2 - sys100.k21n - q1 > 0:
            continue   # reverse-sharing territory, outside the regime studied
        done += 1
        st = SimState(q1=q1, q2=q2, z11=n, z12=z12, z21=0, z22=n - z12)
        jumps = difference_jump_rates(sys100, st)
        gamma = FluidState(q1 / n, q2 / n, z12 / n)
        fr = ftsp_rates(base_params, gamma)
        assert isinstance(fr, FtspRates)
        d_positive = q1 - sys100.k12n - q2 > 0
        if d_positive:
            expect = {1: fr.lam1, -1: fr.mu1}
        else:
            expect = {1: fr.mu2, -1: fr.lam2}
        assert set(map(int, jumps)) == set(expect)
        for jump, rate in jumps.items():
            assert rate / n == pytest.approx(expect[int(jump)], rel=1e-12)


def test_run_deterministic(sys100):
    a = run(sys100, 20000, seed=9)
    b = run(sys100, 20000, seed=9)
    assert a == b
    c = run(sys100, 20000, seed=10)
    assert c != a


def test_run_conservation_and_invariants(sys100):
    stats = run(sys100, 100000, seed=4)
    assert stats.conservation_residual() == (0, 0)
    assert stats.one_way_violations == 0
    assert stats.events > 150000
    assert stats.window_start > 0.0
    assert not stats.degenerate


def test_run_degenerate_window(sys100):
    stats = run(sys100, 10, warmup_fraction=0.99, seed=1)
    assert stats.degenerate
    assert math.isnan(stats.mean_q1)
    assert stats.conservation_residual() == (0, 0)


def test_run_warmup_defaults(sys100):
    st = run(sys100, 5000, seed=2)
    assert st.warmup_fraction == 0.2
    st = run(sys100, 5000, seed=2, start="empty")
    assert st.warmup_fraction == 0.5
    with pytest.raises(ValueError):
        run(sys100, 0, seed=2)
    with pytest.raises(ValueError):
        run(sys100, 100, warmup_fraction=1.0, seed=2)


@pytest.mark.parametrize("warmup", [False, True, 1.0, -0.1, math.nan])
def test_run_rejects_a_warmup_fraction_outside_the_range(sys100, warmup):
    # False compares as 0; a bool is no fraction, as for the horizon
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
        run(sys100, 100, warmup_fraction=warmup, seed=1)


@pytest.mark.parametrize("horizon", [1000.5, 2.0, True, 0, -3])
def test_run_rejects_a_horizon_that_is_not_a_whole_count(sys100, horizon):
    # the stop is the horizon-th arrival: a fraction or a bool has none
    with pytest.raises(ValueError, match="whole number of arrivals"):
        run(sys100, horizon, seed=1)


def test_run_accepts_a_numpy_integer_horizon(sys100):
    assert run(sys100, np.int64(300), seed=1) == run(sys100, 300, seed=1)


@pytest.mark.parametrize("seed", [True, False, -1, 1.5, "7", None])
def test_run_and_indicator_integral_reject_a_bad_seed_before_a_draw(
        sys100, monkeypatch, seed):
    # numpy would run on True, and raise a bare "expected non-negative
    # integer" for -1 and a TypeError for 1.5
    def no_draw(*args):
        raise AssertionError("drew from a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        run(sys100, 100, seed=seed)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        indicator_integral(sys100, 1.0, seed=seed, pi_ref=0.17)


def test_run_accepts_a_numpy_integer_seed(sys100):
    # and records it as the int it is
    stats = run(sys100, 300, seed=np.uint32(1))
    assert stats == run(sys100, 300, seed=1) and type(stats.seed) is int
    assert (indicator_integral(sys100, 1.0, seed=np.int64(7), pi_ref=0.17)
            == indicator_integral(sys100, 1.0, seed=7, pi_ref=0.17))


class _Replay:
    """A pre-drawn uniform stream with the ``random()`` method ``step`` calls."""

    def __init__(self, u):
        self.u = u
        self.i = 0

    def random(self):
        v = self.u[self.i]
        self.i += 1
        return float(v)


def _step_run(sysn, uniforms, arrivals, start):
    """Drive the reference ``step`` until ``arrivals`` arrivals.

    Returns the final state, the event names, their ``_route`` codes and
    the time integrals of Q1, Q2 and Z12 with their total time.
    """
    replay = _Replay(uniforms)
    st = init_state(sysn, start)
    events, codes = [], []
    area = np.zeros(3)
    T = 0.0
    while arrivals > 0:
        before = st
        q = (st.q1, st.q2, st.z12)
        st, event, dt = step(sysn, st, replay)
        st.check_invariants(sysn)
        events.append(event)
        codes.append(_route(sysn, before, event))
        arrivals -= event in ("arr1", "arr2")
        area += np.multiply(q, dt)
        T += dt
    return st, events, codes, area, T


def _assert_run_matches_step(sysn, uniforms, arrivals, start="fluid"):
    # the jump chain's codes, as the ledger receives them
    recorded = bytearray()
    add = _Ledger.add

    def recording_add(self, codes, ua):
        recorded.extend(codes)
        return add(self, codes, ua)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Ledger, "add", recording_add)
        stats = run(sysn, arrivals, warmup_fraction=0.0, start=start,
                    uniforms=uniforms)
    st, events, codes, area, T = _step_run(sysn, uniforms, arrivals, start)
    assert stats.events == len(events)
    # the chain routes to the end of its chunk: past the stop its codes
    # are not the run's
    assert list(recorded[:stats.events]) == codes
    assert stats.window_end == st.clock
    assert stats.final_in_system == st.in_system()
    count = {e: events.count(e) for e in ("arr1", "arr2", "ab1", "ab2",
                                          "s11", "s12", "s21", "s22")}
    assert stats.arrivals == (count["arr1"], count["arr2"])
    assert stats.abandonments == (count["ab1"], count["ab2"])
    assert stats.services == (count["s11"] + count["s12"],
                              count["s21"] + count["s22"])
    for got, want in zip((stats.mean_q1, stats.mean_q2, stats.mean_z12),
                         area / T):
        assert got == pytest.approx(want, rel=1e-12)
    assert stats.conservation_residual() == (0, 0)
    assert stats.one_way_violations == 0


def test_step_equivalent_to_run_loop(sys100):
    # drive the reference single-step implementation and the event loop
    # with one shared uniform stream; they must visit the same states
    uniforms = np.random.default_rng(31).random(60000)
    _assert_run_matches_step(sys100, uniforms, 2000)


def test_event_loop_matches_step_on_every_outcome(base_params, monkeypatch):
    # each outcome branch of the jump chain updates the rates its counts
    # change; from an empty start at n = 5 this stream visits all 20 codes,
    # the rare ones (4, 8, 11, 12, 13, 16, 19) included
    seen = set()
    add = _Ledger.add

    def recording_add(self, codes, ua):
        seen.update(codes)
        return add(self, codes, ua)

    monkeypatch.setattr(_Ledger, "add", recording_add)
    uniforms = np.random.default_rng(3).random(40000)
    _assert_run_matches_step(scale(base_params, 5), uniforms, 5000, "empty")
    assert seen == set(range(len(_OUTCOMES)))


# no shrink phase: each example drives a 20,000-uniform run through both
# run and step, and shrinking a routing failure took minutes
@settings(derandomize=True, deadline=None, max_examples=12, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(param_seed=strategies.integers(0, 2**32 - 1),
       ratio=strategies.sampled_from(["1/1", "3/2"]),
       n=strategies.sampled_from([25, 100]),
       start=strategies.sampled_from(["fluid", "empty"]),
       stream_seed=strategies.integers(0, 2**32 - 1))
def test_event_loop_matches_step_property(param_seed, ratio, n, start,
                                          stream_seed):
    p = random_admissible_params(np.random.default_rng(param_seed), 1,
                                 ratio=ratio)[0]
    uniforms = np.random.default_rng(stream_seed).random(20000)
    _assert_run_matches_step(scale(p, n), uniforms, 1000, start)


@pytest.mark.parametrize("ratio, n, start", [
    ("1/1", 25, "empty"), ("1/1", 400, "fluid"), ("3/2", 100, "fluid"),
])
def test_event_loop_matches_step_with_compensated_sum(python312_sum, ratio,
                                                      n, start):
    # Python >= 3.12 adds float sums with compensation; step's total must
    # still be the ledger's left-to-right one.  A run's clock absorbs a
    # last-bit change of one holding time, so each is compared on its own.
    p = random_admissible_params(np.random.default_rng(n), 1, ratio=ratio)[0]
    sysn = scale(p, n)
    uniforms = np.random.default_rng(n + 1).random(20000)
    _assert_run_matches_step(sysn, uniforms, 1000, start)
    replay = _Replay(uniforms)
    st = init_state(sysn, start)
    for _ in range(2000):
        ledger = _Ledger(sysn, st, 0, math.inf, math.inf)
        ledger.add(bytearray(1), uniforms[replay.i:replay.i + 1])
        st, _, _ = step(sysn, st, replay)
        assert ledger.t == st.clock


def test_each_chunk_goes_through_the_ledger_once(sys100, monkeypatch):
    # a 100-arrival run at n = 100 ends its warm-up and its run in its
    # first chunk; the ledger finds both in one call
    calls = []
    add = _Ledger.add

    def counting_add(self, codes, ua):
        calls.append(len(codes))
        return add(self, codes, ua)

    monkeypatch.setattr(_Ledger, "add", counting_add)
    for seed in range(1, 6):
        calls.clear()
        run(sys100, 100, 0.2,
            uniforms=np.random.default_rng(seed).random(20000))
        assert len(calls) == 1


def test_supplied_stream_used_to_last_pair(sys100):
    uniforms = np.random.default_rng(8).random(20000)
    stats = run(sys100, 1000, warmup_fraction=0.1, uniforms=uniforms)
    exact = uniforms[:2 * stats.events]
    assert run(sys100, 1000, warmup_fraction=0.1, uniforms=exact) == stats
    assert run(sys100, 1000, warmup_fraction=0.1,
               uniforms=exact.tolist()) == stats
    with pytest.raises(RuntimeError, match="exhausted"):
        run(sys100, 1000, warmup_fraction=0.1, uniforms=exact[:-1])


def _step_window(sysn, uniforms, arrivals, warm):
    """Drive ``step`` through a run whose first ``warm`` arrivals are warm-up.

    The window's sums are added in event order, as the run's definition
    has them.  Returns the final state, the clock at the warm-up's last
    arrival, the event count, and the window's length and integrals of
    Q1, Q2 and Z12.
    """
    replay = _Replay(uniforms)
    st = init_state(sysn, "fluid")
    window_start = st.clock
    count = events = 0
    T = s_q1 = s_q2 = s_z = 0.0
    while count < arrivals:
        q1, q2, z12 = st.q1, st.q2, st.z12
        st, event, dt = step(sysn, st, replay)
        events += 1
        if count >= warm:
            T += dt
            s_q1 += q1 * dt
            s_q2 += q2 * dt
            s_z += z12 * dt
        if event in ("arr1", "arr2"):
            count += 1
            if count == warm:
                window_start = st.clock
    return st, window_start, events, T, (s_q1, s_q2, s_z)


@pytest.mark.parametrize("n,arrivals,warmup", [
    (25, 6000, 0.0),     # several chunks, measured from the first event
    (100, 4000, 0.3),    # the warm-up ends at event 2436, after a full chunk
])
def test_chunked_run_matches_step_exactly(base_params, n, arrivals, warmup):
    sysn = scale(base_params, n)
    uniforms = np.random.default_rng(n).random(40000)
    stats = run(sysn, arrivals, warmup_fraction=warmup, uniforms=uniforms)
    warm = math.ceil(warmup * arrivals)
    st, window_start, events, T, areas = _step_window(sysn, uniforms,
                                                      arrivals, warm)
    assert stats.events == events > 2 * _CHUNK
    assert stats.window_start == window_start
    assert stats.window_end == st.clock
    assert stats.final_in_system == st.in_system()
    assert (stats.mean_q1, stats.mean_q2, stats.mean_z12) == tuple(
        a / T for a in areas)


def _assert_stops_match_step(sysn, uniforms, arrivals, warmup):
    # run and step on one stream: the window, the events, the final state
    # and the means, every bit
    stats = run(sysn, arrivals, warmup_fraction=warmup, uniforms=uniforms)
    warm = math.ceil(warmup * arrivals)
    st, window_start, events, T, areas = _step_window(sysn, uniforms,
                                                      arrivals, warm)
    assert stats.events == events
    assert (stats.window_start, stats.window_end) == (window_start, st.clock)
    assert stats.final_in_system == st.in_system()
    assert (stats.mean_q1, stats.mean_q2, stats.mean_z12) == tuple(
        a / T for a in areas)
    state = init_state(sysn, "fluid")
    _simulate(sysn, state, _uniform_blocks(None, uniforms), warm, arrivals)
    assert state == st


def test_stop_rules_match_step_at_chunk_edges(sys100):
    # seed 4 at n = 100: events 2047 and 2048, the last code of the first
    # chunk and the first code of the second, are both arrivals; the last
    # two codes of the second chunk are not
    uniforms = np.random.default_rng(4).random(20000)
    replay = _Replay(uniforms)
    st = init_state(sys100, "fluid")
    kinds = []
    for _ in range(2 * _CHUNK):
        st, event, _ = step(sys100, st, replay)
        kinds.append(event in ("arr1", "arr2"))
    assert kinds[_CHUNK - 1] and kinds[_CHUNK] and not any(kinds[-2:])
    # the warm-up's last arrival ends the first chunk, starts the next, or
    # is the last arrival of a chunk that goes on
    for events in (_CHUNK, _CHUNK + 1, 2 * _CHUNK):
        warm = sum(kinds[:events])
        _assert_stops_match_step(sys100, uniforms, 2 * warm, 0.5)
    _assert_stops_match_step(sys100, uniforms, 1, 0.0)
    # warm-up and stop in the first chunk
    _assert_stops_match_step(sys100, uniforms, 100, 0.2)


def test_stream_ending_before_the_stop_raises(sys100):
    uniforms = np.random.default_rng(4).random(20000)
    events = run(sys100, 1000, warmup_fraction=0.5, uniforms=uniforms).events
    # the stream ends in the warm-up, or between its end and the stop
    for used in (200, 2 * events - 2):
        with pytest.raises(RuntimeError, match="uniform stream exhausted"):
            run(sys100, 1000, warmup_fraction=0.5, uniforms=uniforms[:used])


def test_time_stopped_loop_matches_step(sys100):
    # the chain runs past the stop inside its last chunk; the state at the
    # stop is rebuilt from the outcome codes
    uniforms = np.random.default_rng(12).random(30000)
    t_stop = 12.0
    replay = _Replay(uniforms)
    st = init_state(sys100, "fluid")
    t_pos = 0.0
    events = 0
    while True:
        positive = st.q1 - sys100.k12n - st.q2 > 0
        nxt, _, dt = step(sys100, st, replay)
        if nxt.clock >= t_stop:
            break
        if positive:
            t_pos += dt
        st = nxt
        events += 1
    assert events > 2 * _CHUNK
    # a stream that ends with the event crossing t_stop is enough
    used = 2 * (events + 1)
    for stream in (uniforms, uniforms[:used]):
        state = init_state(sys100, "fluid")
        measured, got = _simulate(sys100, state, _uniform_blocks(None, stream),
                                  0, math.inf, t_stop)
        assert (got, state, measured["events"]) == (t_pos, st, events)
    with pytest.raises(RuntimeError, match="exhausted"):
        _simulate(sys100, init_state(sys100, "fluid"),
                  _uniform_blocks(None, uniforms[:used - 1]), 0, math.inf,
                  t_stop)


@pytest.mark.parametrize("n, t_stop", [(400, 0.01), (400, 5.0), (25, 60.0)])
def test_d12_time_alone_matches_full_ledger(base_params, n, t_stop):
    # the ledger without moments keeps the measured time and the D12 > 0
    # time by the same running sums: same bits, state and counts
    sysn = scale(base_params, n)
    for seed in range(4):
        got = []
        for moments in (True, False):
            state = init_state(sysn, "fluid")
            measured, t_pos = _simulate(sysn, state, _uniform_blocks(seed),
                                        0, math.inf, t_stop, moments)
            got.append((t_pos.hex(), state, measured["events"],
                        measured["window_end"]))
        assert got[0] == got[1]
        assert "mean_q1" not in measured


def test_holding_times_match_step_bit_for_bit(base_params):
    # A long run's sums absorb a last-bit change of one holding time, so
    # time single events: from the empty state only arrivals can happen,
    # and a one-arrival run's clock is its one holding time, every bit.
    # (np.log, for one, differs from math.log on a few inputs in 1000.)
    sys25 = scale(base_params, 25)
    uniforms = np.random.default_rng(3).random(4000)
    for pair in uniforms.reshape(-1, 2):
        stats = run(sys25, 1, warmup_fraction=0.0, start="empty",
                    uniforms=pair)
        _, _, dt = step(sys25, init_state(sys25, "empty"), _Replay(pair))
        assert stats.window_end == dt


def test_xlogy_is_libm_log():
    # The ledger takes its holding times' logarithm from scipy's xlogy(1.0,
    # y): one ufunc call per chunk, and 1.0 times libm's log, the function
    # math.log calls.  A scipy whose xlogy stops calling libm's log fails
    # here rather than deep in the golden comparison below.
    from scipy.special import xlogy
    y = 1.0 - np.random.default_rng(15).random(1 << 16)
    edges = [1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, 1e-300, 5e-324]
    y = np.concatenate((y, edges))
    got = xlogy(1.0, y)
    want = np.array([math.log(v) for v in y.tolist()])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"scipy.special.xlogy(1.0, y) differs from math.log(y) on "
        f"{differ.size} of {y.size} inputs, first at y = {y[differ[0]]!r}; "
        "the simulator's holding times would lose their bits")


def _hex_digest(a):
    return hashlib.sha256(
        " ".join(v.hex() for v in a.tolist()).encode()).hexdigest()


def test_seeded_holding_times_are_the_stored_libm_logs():
    # Seed 1's first piece of holding uniforms and their holding times at
    # rate 1, -xlogy(1.0, 1.0 - u), against the digests of their stored
    # float.hex values.  conftest runs this test first, so that on a
    # platform whose libm rounds log differently the cause is named before
    # the golden files fail one by one.
    from scipy.special import xlogy
    u, _ = next(_uniform_blocks(1))
    assert len(u) == _CHUNK
    assert _hex_digest(u) == (
        "4f633fe4dc7c68b2b4168ef7597205b0438113b86319940ae2c1911d8ad7fb23"), (
        "Generator.random of default_rng(1) no longer draws the stored "
        "uniforms: every seeded stream changes")
    assert _hex_digest(-xlogy(1.0, 1.0 - u)) == (
        "2e43a1d2ab9e995a7a200c2dd63170c83cfe6bbe6d221b363f14445412075ee8"), (
        "-xlogy(1.0, 1.0 - u) on seed 1's first holding uniforms differs "
        "from its stored float.hex values.  The seeded streams (sim's runs "
        "and ftsp's Monte Carlo walks) take their holding times from libm's "
        "log, through scipy.special.xlogy and math.log, and this platform's "
        "libm rounds log differently: sim_golden.json, ftsp_mc_golden.json "
        "and every pinned seeded result will differ too")


def test_complex_cumsum_is_two_float_cumsums():
    # The ledger carries its running sums two to a complex128 row: numpy
    # adds complex numbers as two IEEE adds, one per part, and accumulate
    # adds in sequence, so each part of a complex cumsum must be the float
    # cumsum of that part, every bit.
    rng = np.random.default_rng(16)
    size = 1 << 12
    parts = rng.random((6, size)) * 10.0 ** rng.integers(-300, 300, (6, size))
    parts[4:] = rng.random((2, size)) * 2.0**-1060   # subnormal sums
    parts *= rng.choice([-1.0, 1.0], (6, size))
    edges = [5e-324, -5e-324, 2.0**-1022, 0.0, -0.0, 1e300, -1e300, 1.0,
             2.0**53, 1.0 + 2.0**-52, 0.1]
    parts[:4, :len(edges)] = edges
    parts[1:4:2, :len(edges)] = edges[::-1]
    # complex row i has the real parts parts[2i], the imaginary parts[2i+1]
    rows = np.stack((parts[0::2], parts[1::2]), axis=-1).view(complex)[..., 0]
    np.cumsum(rows, axis=1, out=rows)
    got = np.concatenate((rows.real, rows.imag))
    want = np.cumsum(np.concatenate((parts[0::2], parts[1::2])), axis=1)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, (
        f"a complex128 np.cumsum differs from the float64 np.cumsum of its "
        f"parts at {differ.size} of {want.size} sums; the simulator's "
        "seeded runs would lose their bits")


def test_uniform_pieces_are_the_block_stream():
    # a seeded stream comes in pieces of one chunk's pairs; joined, the
    # pieces of each block are its first 2**15 - 2 draws
    rng = np.random.default_rng(8)
    pieces = _uniform_blocks(8)
    for _ in range(2):
        u = rng.random(1 << 15)[:-2]
        got = [next(pieces) for _ in range(len(u) // (2 * _CHUNK) + 1)]
        assert max(len(cats) for _, cats in got) == _CHUNK
        hold = np.concatenate([h for h, _ in got])
        cats = [c for _, piece in got for c in piece]
        assert np.array_equal(hold, u[0::2]) and cats == u[1::2].tolist()


def _contract_pairs(seed):
    """The stream contract, written out here: blocks of 2**15 draws of
    ``default_rng(seed)``, each block's first 2**15 - 2 draws read as
    (holding, category) pairs and its last two skipped."""
    rng = np.random.default_rng(seed)
    while True:
        u = rng.random(1 << 15)[:-2].tolist()
        yield from zip(u[0::2], u[1::2])


def _contract_walk(lattice, horizon, seed):
    """The lattice walk on ``_contract_pairs``: its sign-change times and
    flags, and the time of the first block's last event, its 16,383rd."""
    jumps = {True: sorted(lattice.pos_rates.items()),
             False: sorted(lattice.neg_rates.items())}
    totals = {}
    for sign, rates in jumps.items():
        totals[sign] = 0.0
        for _, rate in rates:
            totals[sign] += rate   # left to right, as the walk adds them
    state, t, changes, flags, t_edge = 0, 0.0, [0.0], [0.0], math.inf
    for event, (hold, cat) in enumerate(_contract_pairs(seed)):
        total = totals[state > 0]
        t += -math.log(1.0 - hold) / total
        acc, u = 0.0, cat * total
        for jump, rate in jumps[state > 0]:
            acc += rate
            if u < acc:
                break
        if (state + jump > 0) != (state > 0):
            changes.append(min(t, horizon))
            flags.append(float(state + jump > 0))
        state += jump
        if event == (1 << 14) - 2:
            t_edge = t
        if t >= horizon:
            return changes, flags, t_edge


def test_walk_and_run_read_one_stream_across_the_block_edge(base_params,
                                                            monkeypatch):
    # One seed gives the FTSP lattice walk and sim.run the same (holding,
    # category) pairs: a block's 16,383 pairs end at draw 32,765, counted
    # from 0, and draws 32,766 and 32,767 are skipped.  Each side is checked against the contract
    # written out above, past the first block edge, so a change of either
    # side's layout fails here.
    seed, horizon = 4, 6000.0
    p = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    gamma = FluidState(0.9, 0.5, 0.3)
    walks, walk = [], overloadx.ftsp._simulate_walk

    def recorded_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    monkeypatch.setattr(overloadx.ftsp, "_simulate_walk", recorded_walk)
    simulate_ftsp(p, gamma, horizon, seed, batch_length=horizon / 4)
    changes, flags, t_edge = _contract_walk(ftsp_rates(p, gamma), horizon,
                                            seed)
    assert sum(t > t_edge for t in changes) > 100
    starts, ends, _, got_flags = walks[0]
    assert starts.tolist() == changes
    assert ends.tolist() == changes[1:] + [horizon]
    assert got_flags.tolist() == flags

    sys25 = scale(base_params, 25)
    pairs = _contract_pairs(seed)
    stream = [u for _ in range(3 << 14) for u in next(pairs)]
    stats = run(sys25, 10000, seed=seed)
    assert stats.events > 1 << 14
    assert run(sys25, 10000, seed=seed, uniforms=stream) == stats


def _encoded(stats):
    return {f.name: (v.hex() if isinstance(v, float)
                     else list(v) if isinstance(v, tuple) else v)
            for f in fields(stats) for v in [getattr(stats, f.name)]}


def test_seeded_results_bit_identical_to_golden(base_params):
    # Recorded with the event-by-event loop that preceded the chunked time
    # accounting: every float, by its hex form.  The runs cross several
    # blocks of 2**15 uniforms and end their warm-up inside a block.
    golden = json.loads((Path(__file__).parent / "sim_golden.json").read_text())
    assert len(golden["run"]) == 8
    for case in golden["run"]:
        ratio = Fraction(case["ratio"])
        p = replace(base_params, r12=ratio, r21=ratio)
        stats = run(scale(p, case["n"]), 40000, seed=case["seed"],
                    start=case["start"])
        assert _encoded(stats) == case["stats"], case
    sys400 = scale(base_params, 400)
    for case in golden["indicator_integral"]:
        seed = np.random.SeedSequence(entropy=1010, spawn_key=(0,))
        value = indicator_integral(sys400, case["t_end"], seed, 0.17)
        assert value.hex() == case["value"], case


def test_replicate_reference_scale(base_params, sys100):
    est = replicate(sys100, 5, 60000, base_seed=2024)
    assert est.t_multiplier == pytest.approx(2.7764451, abs=1e-6)
    q = est["mean_q1"]
    assert q.halfwidth == pytest.approx(est.t_multiplier * q.std / math.sqrt(5),
                                        rel=1e-12)
    # broad sanity against the fluid value 65.6
    assert 50 < q.mean < 80
    with pytest.raises(ValueError):
        replicate(sys100, 1, 1000, base_seed=1)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed", [True, False, -1, 1.5, "7", None])
def test_replicate_rejects_a_bad_base_seed_before_any_run(
        sys100, monkeypatch, seed, threads):
    # True used to run and be stored as the seed; -1 and 1.5 failed inside
    # the first replication, in a worker when OVERLOADX_THREADS > 1
    def no_run(*args, **kwargs):
        raise AssertionError("started a replication or a worker")

    monkeypatch.setattr(overloadx.sim, "_run_one", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    monkeypatch.setenv("OVERLOADX_THREADS", threads)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
        replicate(sys100, 2, 200, base_seed=seed)


def test_replicate_accepts_a_numpy_integer_base_seed(sys100):
    # and records it as the int it is
    est = replicate(sys100, 2, 2000, base_seed=np.int64(5))
    assert est == replicate(sys100, 2, 2000, base_seed=5)
    assert type(est.base_seed) is int
    assert all(type(stats.seed) is int for stats in est.runs)


@pytest.mark.parametrize("threads", ["1", "2", "bogus"])
@pytest.mark.parametrize("bad, message", [
    ({"R": 2.0}, "^replications must be a whole number, got 2.0$"),
    ({"R": np.float64(3.0)}, "^replications must be a whole number"),
    ({"R": True}, "^replications must be a whole number, got True$"),
    ({"horizon_arrivals": 0}, "^horizon must be a whole number of arrivals"),
    ({"horizon_arrivals": 200.5},
     "^horizon must be a whole number of arrivals"),
    ({"warmup_fraction": 1.5}, r"^warmup fraction must lie in \[0, 1\)$"),
    ({"start": "bogus"}, "^unknown start mode 'bogus'"),
])
def test_replicate_checks_its_arguments_before_any_run(
        sys100, monkeypatch, bad, message, threads):
    # R = 2.0 used to raise a bare TypeError from range, and the others
    # failed only inside the first replication, in a worker when
    # OVERLOADX_THREADS > 1.  Each is refused before OVERLOADX_THREADS is
    # read, so even a bad value of it comes second.
    def no_run(*args, **kwargs):
        raise AssertionError("started a replication or a worker")

    monkeypatch.setattr(overloadx.sim, "_run_one", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    monkeypatch.setenv("OVERLOADX_THREADS", threads)
    args = {"R": 2, "horizon_arrivals": 200, "warmup_fraction": None,
            "start": "fluid", **bad}
    with pytest.raises(ValueError, match=message) as refused:
        replicate(sys100, base_seed=1, **args)
    if "R" not in bad:   # run's own check, with run's message
        with pytest.raises(ValueError) as direct:
            run(sys100, args["horizon_arrivals"], args["warmup_fraction"],
                seed=1, start=args["start"])
        assert str(direct.value) == str(refused.value)


def test_replicate_accepts_a_numpy_integer_count(sys100):
    est = replicate(sys100, np.int64(2), 2000, base_seed=5)
    assert est == replicate(sys100, 2, 2000, base_seed=5)


def test_replicate_parallel_matches_serial(sys100, monkeypatch):
    monkeypatch.setenv("OVERLOADX_THREADS", "1")
    serial = replicate(sys100, 3, 20000, base_seed=5)
    monkeypatch.setenv("OVERLOADX_THREADS", "3")
    parallel = replicate(sys100, 3, 20000, base_seed=5)
    for name in serial.quantities:
        assert serial[name] == parallel[name]


def test_t_multiplier_is_the_student_t_quantile(sys100):
    stats = run(sys100, 2000, seed=3)
    for R in range(2, 61):
        est = aggregate_runs([stats] * R)
        assert est.t_multiplier == scipy.stats.t.ppf(0.975, R - 1), R


def test_aggregate_rejects_empty_window(sys100):
    # an all-nan run would turn every interval into nan
    good = run(sys100, 2000, seed=3)
    empty = run(sys100, 10, warmup_fraction=0.99, seed=1)
    with pytest.raises(ValueError, match=r"replications \[1\] .* empty"):
        aggregate_runs([good, empty])


def test_aggregate_identical_runs_zero_halfwidth(sys100):
    stats = run(sys100, 20000, seed=3)
    est = aggregate_runs([stats, stats])
    for name, q in est.quantities.items():
        assert q.halfwidth == 0.0, name


def test_indicator_integral_basic(base_params):
    sys25 = scale(base_params, 25)
    v1 = indicator_integral(sys25, 5.0, seed=7, pi_ref=0.17)
    v2 = indicator_integral(sys25, 5.0, seed=7, pi_ref=0.17)
    assert v1 == v2
    assert abs(v1) < 5.0 * math.sqrt(25) * 5.0
    with pytest.raises(ValueError):
        indicator_integral(sys25, 0.0, seed=7, pi_ref=0.17)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0])
def test_indicator_integral_rejects_a_stop_never_reached(base_params, t_end):
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        indicator_integral(scale(base_params, 25), t_end, seed=7, pi_ref=0.17)


@pytest.mark.parametrize("pi_ref", [math.nan, math.inf, -math.inf, -0.5,
                                    1.5, True])
def test_indicator_integral_rejects_a_reference_outside_the_unit_interval(
        base_params, pi_ref):
    with pytest.raises(ValueError, match=r"pi_ref must lie in \[0, 1\]"):
        indicator_integral(scale(base_params, 25), 1.0, seed=1, pi_ref=pi_ref)


def test_run_rejects_queues_beyond_exact_arithmetic(base_params):
    # the event loop tests the differences on integer-valued floats and
    # squares counts in int64; 2**51 in a ratio leaves no exact room
    p = replace(base_params, r12=Fraction(2**51 + 1, 2**51))
    with pytest.raises(OverflowError, match="computes exactly"):
        run(scale(p, 25), 100, seed=1)


def test_run_general_ratio(base_params):
    # 3:2 ratio exercises the exact integer difference tests (j != k)
    p = replace(base_params, r12=Fraction(3, 2), r21=Fraction(3, 2))
    sysn = scale(p, 50)
    assert sysn.k12n == 5
    stats = run(sysn, 150000, seed=77)
    sp = stationary_point(p.with_kappa12(sysn.kappa_eff))
    assert stats.conservation_residual() == (0, 0)
    assert stats.one_way_violations == 0
    # pre-limit means sit near the fluid point at n=50
    assert stats.mean_q1 / 50 == pytest.approx(sp.q1, abs=0.1)
    assert stats.mean_q2 / 50 == pytest.approx(sp.q2, abs=0.1)
    assert stats.frac_d_positive == pytest.approx(sp.pi_star, abs=0.05)


def test_empty_start_fills_pools(base_params):
    # overloaded system: idle-server time is modest at n=25 and shrinks
    # with scale (the dimension-reduction effect); the tight <1% figure at
    # n=400 lives in the acceptance suite
    sys25 = scale(base_params, 25)
    stats = run(sys25, 50000, seed=11, start="empty")
    assert stats.frac_pool_shortfall < 0.15
    assert stats.mean_q1 > 0.3 * 25
    sys100 = scale(base_params, 100)
    stats100 = run(sys100, 50000, seed=11, start="empty")
    assert stats100.frac_pool_shortfall < stats.frac_pool_shortfall
