"""Fluid dynamics of the overloaded X model under the averaging principle.

The fluid limit x(t) = (q1, q2, z12) solves a three-dimensional ODE whose
right-hand side is driven by pi12(x(t)), the stationary positivity
probability of the fast-time-scale process at the current state:

    dq1/dt  = lambda1 - m1 mu11 - pi [z12 mu12 + z22 mu22] - theta1 q1
    dq2/dt  = lambda2 - (1 - pi) [z22 mu22 + z12 mu12] - theta2 q2
    dz12/dt = pi z22 mu22 - (1 - pi) z12 mu12,        z22 = m2 - z12.

A useful exact identity: with d = q1 - kappa - r q2, the manifold velocity
satisfies dd/dt = pi*delta_plus + (1-pi)*delta_minus, which vanishes when pi
is the FTSP stationary probability (zero mean velocity in steady state).
The averaging-principle regime therefore holds the trajectory on the
manifold d = 0 up to integration error.  Away from the manifold the sign of
d pins the indicator: d >> 0 forces pi = 1, d << 0 forces pi = 0.

Integration is classical fixed-step RK4 with per-step regime selection and
projection of the state back into S after each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .ftsp import FluidState, drift_rates, ftsp_rates, pi_12, pi_12_stationary

__all__ = [
    "FluidPath", "StationaryPoint", "ode_rhs", "integrate_fluid",
    "stationary_point", "time_to_stationarity",
    "REGIME_AP", "REGIME_PI_ONE", "REGIME_PI_ZERO",
]

REGIME_AP = 0        # |d| inside the switching band: averaging principle
REGIME_PI_ONE = 1    # d above the band: sharing saturated, pi = 1
REGIME_PI_ZERO = 2   # d below the band: no class-1 overflow, pi = 0

_REGIME_NAMES = {REGIME_AP: "ap", REGIME_PI_ONE: "pi1", REGIME_PI_ZERO: "pi0"}


@dataclass(frozen=True)
class StationaryPoint:
    """Closed-form stationary point of the fluid ODE."""

    z12: float
    q1: float
    q2: float
    pi_star: float
    in_A: bool

    def as_state(self) -> FluidState:
        return FluidState(self.q1, self.q2, self.z12)


@dataclass
class FluidPath:
    """A fluid trajectory on a uniform time grid.

    regime holds per-step codes (REGIME_*); in_A flags positive recurrence of
    the FTSP at each stored state.
    """

    t: np.ndarray
    states: np.ndarray          # shape (n, 3): columns q1, q2, z12
    pi: np.ndarray
    regime: np.ndarray
    in_A: np.ndarray
    h: float
    params: ModelParams

    @property
    def q1(self):
        return self.states[:, 0]

    @property
    def q2(self):
        return self.states[:, 1]

    @property
    def z12(self):
        return self.states[:, 2]

    @property
    def qs(self):
        return self.states[:, 0] + self.states[:, 1]

    def state_at(self, i: int) -> FluidState:
        return FluidState(*self.states[i])

    def manifold_gap(self) -> np.ndarray:
        p = self.params
        return self.states[:, 0] - p.kappa12 - float(p.r12) * self.states[:, 1]

    def regime_names(self):
        return [_REGIME_NAMES[int(c)] for c in self.regime]


def ode_rhs(p: ModelParams, gamma: FluidState, pi: float) -> np.ndarray:
    """Right-hand side of the fluid ODE for a given indicator mean pi."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    z22 = p.m2 - gamma.z12
    pool2 = gamma.z12 * p.mu12 + z22 * p.mu22
    dq1 = p.lambda1 - p.m1 * p.mu11 - pi * pool2 - p.theta1 * gamma.q1
    dq2 = p.lambda2 - (1.0 - pi) * pool2 - p.theta2 * gamma.q2
    dz = pi * z22 * p.mu22 - (1.0 - pi) * gamma.z12 * p.mu12
    return np.array([dq1, dq2, dz])


def stationary_point(p: ModelParams, check: bool = True) -> StationaryPoint:
    """Unique stationary point of the fluid ODE, in closed form.

    Solving the three zero conditions together with the manifold relation
    q1 - kappa = r q2 gives

        z* = [theta2 (lambda1 - m1 mu11 - theta1 kappa)
              - r theta1 (lambda2 - m2 mu22)] / (r theta1 mu22 + theta2 mu12)

    capped at m2, and the queue lengths follow from the per-queue balance.
    kappa = 0 recovers the plain fixed-ratio form.  With ``check``, raises
    ``ValueError`` when a queue length comes out negative: the point lies
    outside S.
    """
    r = float(p.r12)
    num = (p.theta2 * (p.lambda1 - p.m1 * p.mu11 - p.theta1 * p.kappa12)
           - r * p.theta1 * (p.lambda2 - p.m2 * p.mu22))
    den = r * p.theta1 * p.mu22 + p.theta2 * p.mu12
    z = min(num / den, p.m2)
    z = max(z, 0.0)
    q1 = (p.lambda1 - p.m1 * p.mu11 - p.mu12 * z) / p.theta1
    q2 = (p.lambda2 - p.mu22 * (p.m2 - z)) / p.theta2
    for name, q in (("q1", q1), ("q2", q2)):
        if check and q < 0.0:
            raise ValueError(f"stationary point outside the state space: "
                             f"{name} = {q!r} < 0")
    pi_star = pi_12_stationary(p, z)
    return StationaryPoint(z12=z, q1=q1, q2=q2, pi_star=pi_star,
                           in_A=0.0 < z < p.m2)


def _total_event_rate(p: ModelParams, gamma: FluidState) -> float:
    return (p.lambda1 + p.lambda2 + p.theta1 * gamma.q1 + p.theta2 * gamma.q2
            + p.mu11 * p.m1 + p.mu12 * gamma.z12 + p.mu22 * (p.m2 - gamma.z12))


def integrate_fluid(p: ModelParams, x0: FluidState, T: float, h: float,
                    tol_manifold: float | None = None) -> FluidPath:
    """Integrate the fluid ODE over [0, T] with fixed step h.

    Per step: evaluate d = q1 - kappa - r q2.  Above the switching band use
    pi = 1, below it pi = 0, inside it the averaging-principle value
    pi12(x(t)) (or the degenerate drift-sign value where the FTSP is not
    positive recurrent).  After each step the state is clamped back into S.

    The default band is 10*h*(total event rate): below that scale the
    difference coordinate is fast relative to the step and averaging applies.

    On recurrent averaging-principle steps the state is first projected onto
    the ratio manifold d = 0, preserving q1 + q2, and the step advances the
    reduced pair (q1 + q2, z12) with the queues reconstructed from the
    manifold at every stage.  The averaging value makes d a conserved
    quantity (pi*delta_plus + (1-pi)*delta_minus = 0), so a band-entry
    offset would otherwise persist forever, whereas the pre-limit difference
    actually collapses on the fast time scale, i.e. instantly at fluid
    scale; the projection is that collapse, and the reduced step keeps the
    constraint exact without losing the integrator's order.  Queue mass is
    conserved because the difference coordinate mixes orders of magnitude
    faster than the total queue moves.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    x0.validate(p)
    n_steps = int(round(T / h))
    r = float(p.r12)
    t = np.linspace(0.0, n_steps * h, n_steps + 1)
    states = np.empty((n_steps + 1, 3))
    pis = np.empty(n_steps + 1)
    regimes = np.empty(n_steps + 1, dtype=np.int8)
    in_a = np.empty(n_steps + 1, dtype=bool)
    x = x0.as_array()
    escape = 10.0 * h

    def project_to_manifold(arr):
        qs = arr[0] + arr[1]
        q2 = max((qs - p.kappa12) / (1.0 + r), 0.0)
        return np.array([qs - q2, q2, arr[2]])

    # FTSP rates are evaluated at Python floats: the many small scalar
    # operations per call are several times slower on numpy scalars
    def classify(arr):
        gamma = FluidState(*arr.tolist())
        d = gamma.q1 - p.kappa12 - r * gamma.q2
        band = tol_manifold if tol_manifold is not None else \
            10.0 * h * _total_event_rate(p, gamma)
        d_plus, d_minus = drift_rates(ftsp_rates(p, gamma))
        recurrent = d_plus < 0.0 and d_minus > 0.0
        if d > band:
            return 1.0, REGIME_PI_ONE, recurrent
        if d < -band:
            return 0.0, REGIME_PI_ZERO, recurrent
        if recurrent:
            return None, REGIME_AP, True   # pi evaluated after projection
        return (1.0 if d_plus >= 0.0 else 0.0), REGIME_AP, False

    def queues_from_manifold(qs):
        q2 = max((qs - p.kappa12) / (1.0 + r), 0.0)
        return qs - q2, q2

    for i in range(n_steps + 1):
        pi, reg, rec = classify(x)
        on_manifold = pi is None
        if on_manifold:
            x = project_to_manifold(x)
            pi = pi_12(p, FluidState(*x.tolist()))
        states[i] = x
        pis[i] = pi
        regimes[i] = reg
        in_a[i] = rec
        if i == n_steps:
            break

        if on_manifold:
            # advance the constrained pair (qs, z12); queues are recovered
            # from the manifold and pi re-evaluated at every stage, keeping
            # both the constraint and the order exact
            def f2(u):
                qs, z = u.tolist()
                q1s, q2s = queues_from_manifold(qs)
                stage = FluidState(q1s, q2s, min(max(z, 0.0), p.m2))
                d = ode_rhs(p, stage, pi_12(p, stage))
                return np.array([d[0] + d[1], d[2]])

            u = np.array([x[0] + x[1], x[2]])
            k1 = f2(u)
            k2 = f2(u + 0.5 * h * k1)
            k3 = f2(u + 0.5 * h * k2)
            k4 = f2(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            q1_new, q2_new = queues_from_manifold(max(u[0], 0.0))
            x_new = np.array([q1_new, q2_new, u[1]])
        else:
            def f(arr):
                return ode_rhs(p, FluidState(*arr), pi)

            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        overshoot = max(-x_new[0], -x_new[1], -x_new[2], x_new[2] - p.m2, 0.0)
        if overshoot > escape:
            raise RuntimeError(
                f"state escaped the fluid state space by {overshoot:.3g} "
                f"at t = {t[i]:.6g} (more than 10h); reduce the step size")
        x_new[0] = max(x_new[0], 0.0)
        x_new[1] = max(x_new[1], 0.0)
        x_new[2] = min(max(x_new[2], 0.0), p.m2)
        x = x_new

    return FluidPath(t=t, states=states, pi=pis, regime=regimes, in_A=in_a,
                     h=h, params=p)


def time_to_stationarity(path: FluidPath, tol: float) -> float:
    """First grid time from which the path stays within tol of x* (sup norm)."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    sp = stationary_point(path.params)
    target = np.array([sp.q1, sp.q2, sp.z12])
    err = np.max(np.abs(path.states - target), axis=1)
    inside = err < tol
    # last index that violates the tolerance decides the entry time
    if not inside[-1]:
        raise RuntimeError("path never settles within the tolerance")
    bad = np.nonzero(~inside)[0]
    return float(path.t[bad[-1] + 1]) if bad.size else float(path.t[0])
