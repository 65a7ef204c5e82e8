"""Exact discrete-event simulation of the pre-limit X-model CTMC.

State is the six integer counts (Q1, Q2, Z11, Z12, Z21, Z22).  Events
compete as exponentials: class arrivals at the integer rates of the scaled
system, abandonments at theta_i * Q_i (patience is exponential, so the
per-customer timers can be aggregated), and service completions at
mu_ij * Z_ij.  Each event consumes exactly two uniforms: one for the holding
time, one for the category, selected by inverse CDF over the rate partition
in a fixed order (arr1, arr2, ab1, ab2, s11, s12, s21, s22).  This makes
runs bit-reproducible for a given seed.

Routing follows the threshold control driven by the two weighted queue
differences

    D12 = Q1 - k12 - r12 Q2,        D21 = r21 Q2 - k21 - Q1,

evaluated in exact integer arithmetic.  Sharing is one-way: a pool may only
take the other class while no agent of its own class is held by the other
pool.  Freed agents prefer cross-class assignment only when the
corresponding difference process is strictly positive and the one-way guard
holds; otherwise they take their own queue, then the other queue (guard
permitting), then idle.  Arrivals enter service immediately when an
own-pool agent is idle; cross-pool entry on arrival follows the same
rule as freed agents.

One event loop, ``_simulate``, applies these rules for ``run`` (stopped at
a number of arrivals, after a warm-up prefix also measured in arrivals,
which is proportional to elapsed time at the constant total arrival rate)
and for ``indicator_integral`` (stopped at a time).  No routing decision
depends on time, so the loop runs in two stages.  The jump chain, in
Python, only routes: it draws each event's category, routes it and
records one outcome code (``_OUTCOMES``), and keeps the six
state-dependent rates, recomputing a rate only when an event changes its
count.  Once per ``_CHUNK`` events a ``_Ledger`` does the rest in numpy:
it rebuilds the pre-event states from the codes and computes the holding
times, the clock and the time-weighted sums, each value bit for bit what
an event-by-event loop computes, and in the same pass it finds both
stops: the warm-up's end, as the column of the first measured event, and
the run's last arrival or stop time.  It carries its running sums two to
a complex128 row: numpy adds complex numbers as two IEEE adds, one per
part, and a cumsum adds in sequence, so each part is the float running
sum, every bit.  A chunk is sized from the arrivals or the time left and
the current total rate, so that the chain routes few events past the
stop.  ``step`` and ``apply_event`` are its oracle, one event at a time:
its ``_route`` gives an event's code, and every state change, the
oracle's and the ledger's, is read from the one table ``_OUTCOMES``.
A seed's uniforms come from one reader, ``_uniform_blocks``, whose
docstring states the stream contract; ``ftsp.simulate_ftsp``'s lattice
walk reads the same pairs.
``replicate`` aggregates independent-stream runs into t-based intervals.
The module uses two functions of ``scipy.special``: the ledger's
logarithm ``xlogy`` and the t quantile ``stdtrit``.  Each is imported
where it is first used, so that importing the package needs numpy alone.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .params import (ModelParams, ScaledSystem, check_choice, check_count,
                     check_real, check_seed)
from .fluid import stationary_point

__all__ = [
    "SimState", "RunStats", "SimEstimate", "QuantityEstimate",
    "init_state", "step", "run", "replicate", "aggregate_runs",
    "difference_jump_rates", "indicator_integral",
]

_EVENTS = ("arr1", "arr2", "ab1", "ab2", "s11", "s12", "s21", "s22")

# The simulator's one code book, the outcomes of one event by code: the
# event's index in _EVENTS and the change of (Q1, Q2, Z11, Z12, Z21, Z22).
# ``_route`` and the jump chain give the codes; every state change is here.
_OUTCOMES = (
    (0, (0, 0, 1, 0, 0, 0)),      # 0  arr1, served by pool 1
    (0, (0, 0, 0, 1, 0, 0)),      # 1  arr1, served by pool 2
    (0, (1, 0, 0, 0, 0, 0)),      # 2  arr1, queued
    (1, (0, 0, 0, 0, 0, 1)),      # 3  arr2, served by pool 2
    (1, (0, 0, 0, 0, 1, 0)),      # 4  arr2, served by pool 1
    (1, (0, 1, 0, 0, 0, 0)),      # 5  arr2, queued
    (2, (-1, 0, 0, 0, 0, 0)),     # 6  ab1
    (3, (0, -1, 0, 0, 0, 0)),     # 7  ab2
    (4, (0, -1, -1, 0, 1, 0)),    # 8  s11, the agent takes queue 2
    (4, (-1, 0, 0, 0, 0, 0)),     # 9  s11, the agent takes queue 1
    (4, (0, 0, -1, 0, 0, 0)),     # 10 s11, the agent idles
    (6, (0, -1, 0, 0, 0, 0)),     # 11 s21, the agent takes queue 2
    (6, (-1, 0, 1, 0, -1, 0)),    # 12 s21, the agent takes queue 1
    (6, (0, 0, 0, 0, -1, 0)),     # 13 s21, the agent idles
    (5, (-1, 0, 0, 0, 0, 0)),     # 14 s12, the agent takes queue 1
    (5, (0, -1, 0, -1, 0, 1)),    # 15 s12, the agent takes queue 2
    (5, (0, 0, 0, -1, 0, 0)),     # 16 s12, the agent idles
    (7, (-1, 0, 0, 1, 0, -1)),    # 17 s22, the agent takes queue 1
    (7, (0, -1, 0, 0, 0, 0)),     # 18 s22, the agent takes queue 2
    (7, (0, 0, 0, 0, 0, -1)),     # 19 s22, the agent idles
)
_CODE_EVENT = np.array([event for event, _ in _OUTCOMES])
# The changes as three complex rows: Q1 + iQ2, Z11 + iZ12 and Z21 + iZ22.
_DELTAS = np.array([delta for _, delta in _OUTCOMES], dtype=float).view(
    complex).T.copy()

START_MODES = ("fluid", "empty")

QUANTITIES = ("mean_q1", "mean_q2", "mean_qs", "mean_z12",
              "std_q1", "std_q2", "std_qs", "std_z12", "frac_d_positive")


@dataclass
class SimState:
    """Integer state of the CTMC plus the simulation clock."""

    q1: int
    q2: int
    z11: int
    z12: int
    z21: int
    z22: int
    clock: float = 0.0

    def check_invariants(self, sys: ScaledSystem):
        ok = (self.q1 >= 0 and self.q2 >= 0
              and 0 <= self.z11 and 0 <= self.z12
              and 0 <= self.z21 and 0 <= self.z22
              and self.z11 + self.z21 <= sys.m1n
              and self.z12 + self.z22 <= sys.m2n
              and not (self.z12 > 0 and self.z21 > 0))
        if not ok:
            raise AssertionError(f"state invariant violated: {self}")
        return self

    def in_system(self) -> tuple[int, int]:
        return (self.q1 + self.z11 + self.z12, self.q2 + self.z21 + self.z22)


@dataclass
class RunStats:
    """Time-weighted statistics from one run's measurement window."""

    n: int
    seed: int
    start_mode: str
    warmup_fraction: float
    window_start: float
    window_end: float
    degenerate: bool
    events: int
    one_way_violations: int
    mean_q1: float
    mean_q2: float
    mean_qs: float
    mean_z12: float
    std_q1: float
    std_q2: float
    std_qs: float
    std_z12: float
    mean_d: float
    std_d: float
    frac_d_positive: float
    frac_pool_shortfall: float
    arrivals: tuple[int, int]
    services: tuple[int, int]
    abandonments: tuple[int, int]
    initial_in_system: tuple[int, int]
    final_in_system: tuple[int, int]

    def conservation_residual(self) -> tuple[int, int]:
        """arrivals - services - abandonments - (final - initial), per class."""
        return tuple(
            self.arrivals[i] - self.services[i] - self.abandonments[i]
            - (self.final_in_system[i] - self.initial_in_system[i])
            for i in (0, 1)
        )

    def value(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class QuantityEstimate:
    mean: float
    std: float
    halfwidth: float


@dataclass
class SimEstimate:
    """Cross-replication summary: mean, sample std, 95% t half-width.

    ``runs`` keeps the per-replication RunStats the summary was built from.
    """

    n: int
    replications: int
    base_seed: int
    t_multiplier: float
    quantities: dict = field(default_factory=dict)
    runs: list = field(default_factory=list, repr=False)

    def __getitem__(self, name: str) -> QuantityEstimate:
        return self.quantities[name]


def init_state(sys: ScaledSystem, mode: str = "fluid") -> SimState:
    """Initial CTMC state: all-empty, or the rounded stationary fluid point.

    Fluid mode fills both pools (Z11 = m1n, Z12 + Z22 = m2n) and rounds the
    stationary point of the system's realized threshold offset k12n / n.
    At small n that offset can put the point outside S; its negative queue
    starts empty.
    """
    check_choice("start mode", mode, START_MODES)
    if mode == "empty":
        return SimState(0, 0, 0, 0, 0, 0)
    p_eff = sys.parent.with_kappa12(sys.kappa_eff)
    sp = stationary_point(p_eff, check=False)
    n = sys.n
    z12 = min(int(math.floor(n * sp.z12 + 0.5)), sys.m2n)
    return SimState(
        q1=max(int(math.floor(n * sp.q1 + 0.5)), 0),
        q2=max(int(math.floor(n * sp.q2 + 0.5)), 0),
        z11=sys.m1n, z12=z12, z21=0, z22=sys.m2n - z12,
    ).check_invariants(sys)


def _d12_positive(sys: ScaledSystem, q1: int, q2: int) -> bool:
    num, den = sys.parent.r12.numerator, sys.parent.r12.denominator
    return den * q1 - den * sys.k12n - num * q2 > 0


def _d21_positive(sys: ScaledSystem, q1: int, q2: int) -> bool:
    num, den = sys.parent.r21.numerator, sys.parent.r21.denominator
    return num * q2 - den * sys.k21n - den * q1 > 0


def _event_rates(sys: ScaledSystem, s: SimState) -> tuple:
    """The rates of the events at state ``s``, in ``_EVENTS`` order."""
    p = sys.parent
    return (float(sys.lambda1n), float(sys.lambda2n),
            p.theta1 * s.q1, p.theta2 * s.q2, p.mu11 * s.z11,
            p.mu12 * s.z12, p.mu21 * s.z21, p.mu22 * s.z22)


def step(sys: ScaledSystem, state: SimState, rng: np.random.Generator):
    """One transition of the CTMC; returns (new_state, event_name, dt).

    Reference implementation of the event logic: ``apply_event`` routes
    the drawn event to its ``_OUTCOMES`` code.  ``_simulate``, the event
    loop of ``run`` and ``indicator_integral``, inlines the same routing
    rules in its jump chain and computes the same holding times in its
    ledger, a chunk at a time; tests hold the two together on a shared
    uniform stream, code by code and holding time by holding time.
    """
    rates = _event_rates(sys, state)
    # added left to right, as the ledger adds them; builtin sum compensates
    # float sums from Python 3.12 on
    lam1, lam2, ab1, ab2, s11, s12, s21, s22 = rates
    total = lam1 + lam2 + ab1 + ab2 + s11 + s12 + s21 + s22
    dt = -math.log(1.0 - rng.random()) / total
    u = rng.random() * total
    idx = 0
    acc = rates[0]
    while u >= acc and idx < 7:
        idx += 1
        acc += rates[idx]
    event = _EVENTS[idx]
    s = SimState(state.q1, state.q2, state.z11, state.z12, state.z21,
                 state.z22, state.clock + dt)
    apply_event(sys, s, event)
    return s, event, dt


def apply_event(sys: ScaledSystem, s: SimState, event: str):
    """Apply one event in place: ``_route`` picks its outcome, and that
    outcome's change in ``_OUTCOMES`` is added to the six counts."""
    change = _OUTCOMES[_route(sys, s, event)][1]
    s.q1, s.q2, s.z11, s.z12, s.z21, s.z22 = (
        c + d for c, d in zip((s.q1, s.q2, s.z11, s.z12, s.z21, s.z22), change))
    return s


def _route(sys: ScaledSystem, s: SimState, event: str) -> int:
    """The ``_OUTCOMES`` code of ``event`` at state ``s``, by the routing
    rules; an unknown event, or one of rate zero at ``s``, is refused."""
    check_choice("event", event, _EVENTS)
    i = _EVENTS.index(event)
    if _event_rates(sys, s)[i] <= 0.0:
        raise ValueError(f"event {event!r} has rate zero at {s}")
    if event == "arr1":   # served by pool 1, by pool 2, or queued
        if s.z11 + s.z21 < sys.m1n:
            return 0
        if (s.z12 + s.z22 < sys.m2n and s.z21 == 0
                and _d12_positive(sys, s.q1, s.q2)):
            return 1
        return 2
    if event == "arr2":   # served by pool 2, by pool 1, or queued
        if s.z12 + s.z22 < sys.m2n:
            return 3
        if (s.z11 + s.z21 < sys.m1n and s.z12 == 0
                and _d21_positive(sys, s.q1, s.q2)):
            return 4
        return 5
    if i < 4:   # ab1 and ab2: codes 6 and 7
        return i + 4
    # a freed agent takes the other class's queue (code first), its own
    # class's queue (first + 1), or idles (first + 2)
    first = {"s11": 8, "s21": 11, "s12": 14, "s22": 17}[event]
    if event in ("s11", "s21"):   # pool 1
        if _d21_positive(sys, s.q1, s.q2) and s.z12 == 0 and s.q2 > 0:
            return first
        if s.q1 > 0:
            return first + 1
        return first if s.q2 > 0 and s.z12 == 0 else first + 2
    if _d12_positive(sys, s.q1, s.q2) and s.z21 == 0 and s.q1 > 0:
        return first
    if s.q2 > 0:
        return first + 1
    return first if s.q1 > 0 and s.z21 == 0 else first + 2


def _check_run(horizon_arrivals, warmup_fraction, start: str) -> float:
    """``run``'s checks of its horizon, warm-up and start mode, in that
    order; returns the warm-up fraction, by default 20% of the run after a
    fluid start and 50% after an empty one."""
    check_count("horizon", horizon_arrivals, unit=" of arrivals")
    if warmup_fraction is None:
        warmup_fraction = 0.2 if start == "fluid" else 0.5
    check_real("warmup fraction", warmup_fraction, "lie in [0, 1)")
    check_choice("start mode", start, START_MODES)
    return warmup_fraction


def run(sys: ScaledSystem, horizon_arrivals: int, warmup_fraction=None,
        seed=0, start: str = "fluid",
        uniforms: np.ndarray | None = None) -> RunStats:
    """Simulate until ``horizon_arrivals`` total arrivals; time-weighted stats.

    The first ``warmup_fraction`` of arrivals (a proxy for elapsed time) is
    discarded.  Runs are deterministic given the seed, an integer >= 0 or
    :func:`replicate`'s ``SeedSequence``.  ``uniforms`` is a testing hook:
    a pre-drawn stream consumed two per event, to its last pair.
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_seed(seed)
    warmup_fraction = _check_run(horizon_arrivals, warmup_fraction, start)
    state = init_state(sys, start)
    init_sys = state.in_system()
    measured, _ = _simulate(sys, state, _uniform_blocks(seed, uniforms),
                            math.ceil(warmup_fraction * horizon_arrivals),
                            int(horizon_arrivals))
    return RunStats(
        n=sys.n, seed=int(seed) if isinstance(seed, numbers.Integral) else -1,
        start_mode=start, warmup_fraction=warmup_fraction,
        initial_in_system=init_sys, **measured)


def _uniform_blocks(seed, uniforms=None):
    """A run's uniforms, one piece at a time, split into its event pairs.

    The one reader of a seed's uniforms, for ``run``,
    ``indicator_integral`` and ``ftsp.simulate_ftsp``'s lattice walk, and
    the one statement of their stream contract.  ``default_rng(seed)``
    draws blocks of 2**15 uniforms.  Draws 2i and 2i + 1 of a block,
    counted from 0, are its event i's pair (holding, category), for
    i < 2**14 - 1: the block's 16,383 pairs end at draw 32,765, and draws
    32,766 and 32,767 are skipped.  An event's holding time is -log(1 - u) / total, u its first
    uniform and log libm's; its second picks its category by inverse CDF
    over its rates.  Each piece is (holding, category): the first and
    second uniform of every pair, as an array and as a list.  A block is
    drawn in pieces of one chunk's pairs, so that a short run draws little
    past its stop; ``Generator.random`` draws in sequence, so the pieces
    are the whole block's stream.  A supplied ``uniforms`` stream is one
    piece, used to its last full pair.
    """
    if uniforms is not None:
        u = np.asarray(uniforms, dtype=float)
        u = u[:len(u) - len(u) % 2]
        yield u[0::2], u[1::2].tolist()
        raise RuntimeError("uniform stream exhausted")
    rng = np.random.default_rng(seed)
    full, rest = divmod((1 << 15) - 2, 2 * _CHUNK)
    while True:
        for size in (2 * _CHUNK,) * full + (rest,):
            u = rng.random(size)
            yield u[0::2], u[1::2].tolist()
        rng.random(2)


# Events between two time accountings: the jump chain records this many
# outcome codes, then the ledger turns them into states, times and sums.
_CHUNK = 2048


class _Ledger:
    """The time accounting of the jump chain, one chunk of codes at a time.

    From the state before a chunk and its outcome codes it rebuilds every
    pre-event state (a cumsum of the code deltas along each row), the rates
    and the holding times ``-log(1 - u) / total``, with the rates added in
    ``_event_rates`` order.  The logarithm is ``scipy.special.xlogy(1.0,
    1 - u)``, which is 1.0 times libm's ``log``, the function ``math.log``
    calls, so each holding time equals the one ``step`` computes;
    ``np.log`` is a SIMD log that differs from libm's in the last bit on a
    few inputs in 1000.  The clock and the time-weighted sums are running
    sums, ``np.cumsum`` with the carry in front, which adds left to right as
    an event-by-event loop does; ``np.sum`` (pairwise) would move the last
    bits.

    The running sums go two to a complex128 row, and so do the states'
    counts, as integer-valued floats (exact below 2**53).  numpy adds two
    complex numbers as two independent IEEE adds, one per part, and
    ``accumulate`` adds in sequence by definition, so each part of a
    complex cumsum is, bit for bit, the float cumsum of that part: one pass
    carries two sums.  A row's parts interleave in its float view, so each
    part is a strided row, multiplied row by row.

    The ledger finds the stops in the same pass.  ``warm`` and ``left``
    count the arrivals left in the warm-up and before the run's stop
    (``math.inf``: none).  Measured increments before column ``j``, the
    first event after the warm-up, are 0.0, so the measured sums are 0.0
    at its end, ``t0``, and 0.0 + x == x; a chunk inside the warm-up
    builds the clock's row alone.  A chunk is cut after the arrival that
    uses up ``left``, or before its first measured event at or after
    ``t_stop``.  Without ``moments`` only the measured time and the time
    with D12 > 0 are summed.
    """

    def __init__(self, sys: ScaledSystem, state: SimState, warm_arrivals: int,
                 stop_arrivals, t_stop: float, moments: bool = True):
        p = sys.parent
        self.lam12 = float(sys.lambda1n) + float(sys.lambda2n)
        self.coef = (p.theta1, p.theta2, p.mu11, p.mu12, p.mu21, p.mu22)
        self.m1n, self.m2n = sys.m1n, sys.m2n
        self.r12n, self.r12d = p.r12.numerator, p.r12.denominator
        self.c12 = self.r12d * sys.k12n
        # the jump chain and the ledger test the differences on
        # integer-valued floats, exact while each product stays below 2**52;
        # squares of Q1 + Q2 below 2**62 round as an exact square does
        parts = max(p.r12.numerator, p.r12.denominator, p.r21.numerator,
                    p.r21.denominator)
        self.q_exact = min(2**30, 2**52 // parts)
        self.x = np.array([state.q1, state.q2, state.z11, state.z12,
                           state.z21, state.z22], dtype=float).view(complex)
        # (clock, measured time), (D12 > 0 time, time with a pool short of
        # agents), then the integrals of Q1, Q2, Q1 + Q2, Z12, D12 and of
        # their squares, in that order, two to an entry
        self.sums = np.zeros(7 if moments else 2, dtype=complex)
        self.sums[0] = state.clock
        self.t = self.t0 = state.clock
        self.t_stop = t_stop
        self.warm, self.left = warm_arrivals, stop_arrivals
        self.moments = moments
        self.counts = np.zeros(len(_OUTCOMES), dtype=np.int64)
        self.violations = 0
        from scipy.special import xlogy   # libm's log, see above
        self.xlogy = xlogy

    def add(self, codes: bytearray, ua: np.ndarray) -> bool:
        """Account for one chunk up to its stop; True once the run stopped."""
        # with an arrival code (0-5) in front, after[i] is the column after
        # the chunk's i-th arrival, and after[0] = 0
        c0 = np.frombuffer(b"\0" + codes, dtype=np.uint8)
        c, m = c0[1:], len(codes)
        after = (c0 < 6).nonzero()[0]
        arrivals, warm = len(after) - 1, self.warm
        # events j on are measured, events k on are past the stop
        j = int(after[warm]) if warm <= arrivals else m
        k = int(after[self.left]) if self.left <= arrivals else m
        # column i holds the state before event i
        x = np.empty((3, m + 1), dtype=complex)
        x[:, 0] = self.x
        _DELTAS.take(c, axis=1, out=x[:, 1:])
        np.cumsum(x, axis=1, out=x)
        xf = x.view(float)
        longest = int(xf[0].max())
        if longest > self.q_exact:
            raise OverflowError(
                f"queue length {longest} exceeds {self.q_exact}, the longest "
                "the event loop computes exactly with these queue ratios")
        q1, q2, z11, z12, z21, z22 = (xf[i // 2, i % 2:2 * m:2]
                                      for i in range(6))
        th1, th2, mu11, mu12, mu21, mu22 = self.coef
        total = (self.lam12 + th1 * q1 + th2 * q2 + mu11 * z11 + mu12 * z12
                 + mu21 * z21 + mu22 * z22)
        dt = -self.xlogy(1.0, 1.0 - ua) / total
        rows = 1 if j == m else len(self.sums)
        w = np.empty((rows, m + 1), dtype=complex)
        w[:, 0] = self.sums[:rows]
        wf = w.view(float)
        wf[0, 2::2] = dt
        wf[0, 3::2] = dt
        if rows > 1:
            d12s = self.r12d * q1 - self.c12 - self.r12n * q2
            np.multiply(dt, d12s > 0.0, out=wf[1, 2::2])
            if not self.moments:
                wf[1, 3::2] = 0.0
            else:
                short = (z11 < self.m1n) | (z12 + z22 < self.m2n)
                np.multiply(dt, short, out=wf[1, 3::2])
                d = d12s / self.r12d
                # sum s, in the order of __init__, is part s % 2 of entry
                # s // 2: the increments of Q1 dt, ..., D dt are sums 4-8,
                # those of Q1**2 dt, ..., D**2 dt sums 9-13
                for s, v in enumerate((q1, q2, q1 + q2, z12, d), start=4):
                    np.multiply(v, dt, out=wf[s // 2, 2 + s % 2::2])
                    s += 5
                    np.multiply(v * v, dt, out=wf[s // 2, 2 + s % 2::2])
        # no measured increment before column j
        wf[0, 3:2 * j + 2:2] = 0.0
        w[1:, 1:j + 1] = 0.0
        np.cumsum(w, axis=1, out=w)
        clock = wf[0, 0::2]
        # the clock never decreases
        if clock[k] >= self.t_stop:
            k = j + int(np.searchsorted(clock[j + 1:k + 1], self.t_stop))
        if 0 < warm <= arrivals:   # the warm-up ends at column j
            self.t0 = float(clock[j])
        self.sums[:rows] = w[:, k]
        self.t = float(clock[k])
        self.x = x[:, k].copy()
        self.violations += int(np.count_nonzero(z12[:k] * z21[:k]))
        counts = np.bincount(c[:k], minlength=len(_OUTCOMES))
        self.counts += counts
        arrived = int(counts[:6].sum())
        self.warm = max(warm - arrived, 0)
        self.left -= arrived
        return k < m or not self.left

    def finish(self, state: SimState):
        """Write the final state back; the measured fields and D12 > 0 time.

        Without ``moments`` the fields are the window and the counts.
        """
        state.q1, state.q2, state.z11, state.z12, state.z21, state.z22 = (
            self.x.view(float).astype(np.int64).tolist())
        state.clock = t = self.t
        per_event = np.zeros(len(_EVENTS), dtype=np.int64)
        np.add.at(per_event, _CODE_EVENT, self.counts)
        arr1, arr2, ab1, ab2, s11, s12, s21, s22 = per_event.tolist()
        measured = dict(
            window_start=self.t0, window_end=t, events=int(self.counts.sum()),
            one_way_violations=self.violations, arrivals=(arr1, arr2),
            services=(s11 + s12, s21 + s22), abandonments=(ab1, ab2),
            final_in_system=state.in_system())
        _, T, t_pos, *sums = self.sums.view(float).tolist()
        if not self.moments:
            return measured, t_pos
        (t_short, s_q1, s_q2, s_qs, s_z, s_d,
         s2_q1, s2_q2, s2_qs, s2_z, s2_d) = sums
        degenerate = T <= 0.0
        T = math.nan if degenerate else T   # nan: every statistic is nan

        def std_of(s, s2):
            return math.sqrt(max(s2 / T - (s / T) ** 2, 0.0))

        return dict(
            measured, degenerate=degenerate,
            mean_q1=s_q1 / T, mean_q2=s_q2 / T, mean_qs=s_qs / T,
            mean_z12=s_z / T, std_q1=std_of(s_q1, s2_q1),
            std_q2=std_of(s_q2, s2_q2), std_qs=std_of(s_qs, s2_qs),
            std_z12=std_of(s_z, s2_z), mean_d=s_d / T,
            std_d=std_of(s_d, s2_d), frac_d_positive=t_pos / T,
            frac_pool_shortfall=t_short / T), t_pos


def _simulate(sys: ScaledSystem, state: SimState, blocks, warm_arrivals: int,
              stop_arrivals, t_stop: float = math.inf,
              moments: bool = True):
    """The event loop behind ``run`` and ``indicator_integral``.

    Advances ``state`` in place in two stages.  The jump chain, in Python,
    only routes: it draws each event's category from the second uniform of
    its pair, applies the rules of ``_route`` and records one outcome
    code; it needs no clock, as nothing in the routing depends on time, and
    no arrival count.  It keeps the rates theta_i Q_i and mu_ij Z_ij
    between events; each outcome recomputes, as the product
    ``_event_rates`` forms, only those whose counts it changed, so the
    total and every category test see the floats ``step`` sees.  Every
    ``_CHUNK`` events, or sooner where a piece of ``blocks`` ends, one
    ``_Ledger.add`` call turns the codes and the first uniforms into
    states, holding times and time-weighted sums, and finds the stops.
    Warm-up runs to the ``warm_arrivals``-th arrival with no sums; from the
    next event, in the same call, measurement runs to the
    ``stop_arrivals``-th arrival (``math.inf``: no limit), or stops before
    the first event at or after ``t_stop``, from ``state.clock`` on.  The
    chain routes past a stop to the end of its chunk, and the ledger's
    state is the one kept; so that little is routed in vain, a chunk holds
    at most the expected number of events left before the run's stop, at
    the current total rate, plus three standard deviations.  Returns the
    ``RunStats`` fields it measured and the measured time with D12 > 0;
    without ``moments`` the ledger sums only the measured time and that
    time, and the fields leave out the means, stds and fractions.
    """
    p = sys.parent
    lam1n, lam2n = float(sys.lambda1n), float(sys.lambda2n)
    lam12 = lam1n + lam2n
    th1, th2 = p.theta1, p.theta2
    mu11, mu12, mu21, mu22 = p.mu11, p.mu12, p.mu21, p.mu22
    # counts and the constants they meet are integer-valued floats: Python
    # keeps float arithmetic on its specialised paths, and it is exact
    # while the ledger's bound holds
    m1n, m2n = float(sys.m1n), float(sys.m2n)
    r12n, r12d = float(p.r12.numerator), float(p.r12.denominator)
    r21n, r21d = float(p.r21.numerator), float(p.r21.denominator)
    c12, c21 = r12d * sys.k12n, r21d * sys.k21n
    q1, q2 = float(state.q1), float(state.q2)
    z11, z12, z21, z22 = (float(state.z11), float(state.z12),
                          float(state.z21), float(state.z22))
    # the event rates, each recomputed where its count changes
    r_ab1, r_ab2 = th1 * q1, th2 * q2
    r_s11, r_s12 = mu11 * z11, mu12 * z12
    r_s21, r_s22 = mu21 * z21, mu22 * z22
    ledger = _Ledger(sys, state, warm_arrivals, stop_arrivals, t_stop,
                     moments)

    for hold, cats in blocks:
        lo = 0
        while lo < len(cats):
            # the expected events before the run's stop
            total = lam12 + r_ab1 + r_ab2 + r_s11 + r_s12 + r_s21 + r_s22
            left = min(_CHUNK, (t_stop - ledger.t) * total,
                       ledger.left * total / lam12)
            size = min(_CHUNK, int(left + 3.0 * math.sqrt(left)) + 1)
            codes = bytearray()
            append = codes.append
            for ub in cats[lo:lo + size]:
                u = ub * (lam12 + r_ab1 + r_ab2 + r_s11 + r_s12 + r_s21
                          + r_s22)
                if u < lam12:
                    if u < lam1n:
                        if z11 + z21 < m1n:
                            z11 += 1.0
                            r_s11 = mu11 * z11
                            append(0)
                        elif (z12 + z22 < m2n and z21 == 0.0
                              and r12d * q1 - c12 - r12n * q2 > 0.0):
                            z12 += 1.0
                            r_s12 = mu12 * z12
                            append(1)
                        else:
                            q1 += 1.0
                            r_ab1 = th1 * q1
                            append(2)
                    else:
                        if z12 + z22 < m2n:
                            z22 += 1.0
                            r_s22 = mu22 * z22
                            append(3)
                        elif (z11 + z21 < m1n and z12 == 0.0
                              and r21n * q2 - c21 - r21d * q1 > 0.0):
                            z21 += 1.0
                            r_s21 = mu21 * z21
                            append(4)
                        else:
                            q2 += 1.0
                            r_ab2 = th2 * q2
                            append(5)
                else:
                    u -= lam12
                    r_ab = r_ab1 + r_ab2
                    if u < r_ab1:
                        q1 -= 1.0
                        r_ab1 = th1 * q1
                        append(6)
                    elif u < r_ab:
                        q2 -= 1.0
                        r_ab2 = th2 * q2
                        append(7)
                    else:
                        u -= r_ab
                        r_p1 = r_s11 + r_s21
                        # A freed agent takes the other class's queue when
                        # the one-way guard allows and that difference is
                        # positive or its own class's queue is empty; else
                        # its own class's queue; else it idles.  Taking the
                        # class it just served leaves the server counts,
                        # and their rates, as they were.
                        if u < r_p1:
                            # freed pool-1 agent
                            if (z12 == 0.0 and q2 > 0.0
                                    and (q1 == 0.0
                                         or r21n * q2 - c21 - r21d * q1
                                         > 0.0)):
                                q2 -= 1.0
                                r_ab2 = th2 * q2
                                if u < r_s11:
                                    z11 -= 1.0
                                    z21 += 1.0
                                    r_s11 = mu11 * z11
                                    r_s21 = mu21 * z21
                                    append(8)
                                else:
                                    append(11)
                            elif q1 > 0.0:
                                q1 -= 1.0
                                r_ab1 = th1 * q1
                                if u < r_s11:
                                    append(9)
                                else:
                                    z11 += 1.0
                                    z21 -= 1.0
                                    r_s11 = mu11 * z11
                                    r_s21 = mu21 * z21
                                    append(12)
                            elif u < r_s11:
                                z11 -= 1.0
                                r_s11 = mu11 * z11
                                append(10)
                            else:
                                z21 -= 1.0
                                r_s21 = mu21 * z21
                                append(13)
                        else:
                            # freed pool-2 agent
                            if (z21 == 0.0 and q1 > 0.0
                                    and (q2 == 0.0
                                         or r12d * q1 - c12 - r12n * q2
                                         > 0.0)):
                                q1 -= 1.0
                                r_ab1 = th1 * q1
                                if u - r_p1 < r_s12:
                                    append(14)
                                else:
                                    z12 += 1.0
                                    z22 -= 1.0
                                    r_s12 = mu12 * z12
                                    r_s22 = mu22 * z22
                                    append(17)
                            elif q2 > 0.0:
                                q2 -= 1.0
                                r_ab2 = th2 * q2
                                if u - r_p1 < r_s12:
                                    z12 -= 1.0
                                    z22 += 1.0
                                    r_s12 = mu12 * z12
                                    r_s22 = mu22 * z22
                                    append(15)
                                else:
                                    append(18)
                            elif u - r_p1 < r_s12:
                                z12 -= 1.0
                                r_s12 = mu12 * z12
                                append(16)
                            else:
                                z22 -= 1.0
                                r_s22 = mu22 * z22
                                append(19)

            if ledger.add(codes, hold[lo:lo + len(codes)]):
                return ledger.finish(state)
            lo += len(codes)


def _replication_seed(base_seed: int, index: int) -> np.random.SeedSequence:
    """Documented stream split: child index i of SeedSequence(base_seed)."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))


def _run_one(args):
    sys, horizon, warmup, base_seed, index, start = args
    rng_seed = _replication_seed(base_seed, index)
    stats = run(sys, horizon, warmup, seed=rng_seed, start=start)
    stats.seed = base_seed
    return stats


def aggregate_runs(stats: list, base_seed: int = -1) -> SimEstimate:
    """Cross-replication aggregation: mean, sample std, 95% t half-width."""
    R = len(stats)
    if R < 2:
        raise ValueError("need at least two replications for an interval")
    empty = [i for i, s in enumerate(stats) if s.degenerate]
    if empty:
        raise ValueError(f"replications {empty} at n={stats[0].n} have an empty "
                         "measurement window; raise the arrival count")
    from scipy.special import stdtrit   # what scipy.stats.t.ppf calls
    tmult = float(stdtrit(R - 1, 0.975))
    est = SimEstimate(n=stats[0].n, replications=R, base_seed=base_seed,
                      t_multiplier=tmult, runs=stats)
    for name in QUANTITIES:
        vals = np.array([s.value(name) for s in stats])
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1))
        est.quantities[name] = QuantityEstimate(
            mean=mean, std=sd, halfwidth=tmult * sd / math.sqrt(R))
    return est


def replicate(sys: ScaledSystem, R: int, horizon_arrivals: int,
              base_seed: int, warmup_fraction=None, start: str = "fluid") -> SimEstimate:
    """R independent-stream runs aggregated into t confidence intervals.

    Half-widths are t_{0.975, R-1} * s / sqrt(R).  Replications execute in
    parallel when the OVERLOADX_THREADS environment variable, a positive
    integer (default 1), is above 1; results do not depend on the
    scheduling.  ``R`` is a count >= 2 and ``base_seed`` a seed; these and
    :func:`run`'s checks raise before ``OVERLOADX_THREADS`` is read or any
    replication starts.  ``base_seed`` is stored as its ``int``.
    """
    check_count("replications", R, least=2)
    check_seed(base_seed)
    base_seed = int(base_seed)
    _check_run(horizon_arrivals, warmup_fraction, start)
    raw = os.environ.get("OVERLOADX_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError("OVERLOADX_THREADS must be a positive integer, "
                         f"got {raw!r}")
    jobs = [(sys, horizon_arrivals, warmup_fraction, base_seed, i, start)
            for i in range(R)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(_run_one, jobs))
    else:
        stats = [_run_one(job) for job in jobs]
    return aggregate_runs(stats, base_seed)


def difference_jump_rates(sys: ScaledSystem, state: SimState) -> dict:
    """Aggregate rates of each D12 jump size at a state, in D units.

    Routes every CTMC transition of positive rate at ``state`` and reads
    the change of D12 = Q1 - k12 - r12 Q2 off its ``_OUTCOMES`` entry.
    Serves as the cross-model oracle tying the simulator's generator to the
    fast-process rates: at a pools-full state n*gamma the values divided by
    n must reproduce the per-regime jump rates exactly.
    """
    r12 = sys.parent.r12
    out: dict = {}
    for event, rate in zip(_EVENTS, _event_rates(sys, state)):
        if rate <= 0.0:
            continue
        dq1, dq2 = _OUTCOMES[_route(sys, state, event)][1][:2]
        jump = dq1 - r12 * dq2
        if jump != 0:
            out[jump] = out.get(jump, 0.0) + rate
    return out


def indicator_integral(sys: ScaledSystem, t_end: float, seed,
                       pi_ref: float, start: str = "fluid") -> float:
    """sqrt(n) * integral over [0, t_end] of (1{D12 > 0} - pi_ref) ds.

    The diffusion-scale cumulative routing-indicator fluctuation; its
    variance across replications is the empirical counterpart of the
    fast-process time change gamma3.  The events come from ``_simulate``
    with a stream seeded as in :func:`run`, stopped at ``t_end``; ``pi_ref``
    lies in [0, 1].
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_seed(seed)
    check_real("t_end", t_end, "be positive and finite")
    check_real("pi_ref", pi_ref, "lie in [0, 1]")
    state = init_state(sys, start)
    _, t_pos = _simulate(sys, state, _uniform_blocks(seed), 0, math.inf,
                         t_end, moments=False)
    if _d12_positive(sys, state.q1, state.q2):
        t_pos += t_end - state.clock
    return math.sqrt(sys.n) * (t_pos - pi_ref * t_end)
