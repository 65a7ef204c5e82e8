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

from .params import ModelParams, check_real
# ftsp_rates and pi_12 are not called here; they stay bound for callers
# that look the FTSP up on this module
from .ftsp import (FluidState, drift_kernel, ftsp_rates, pi_12,
                   pi_12_stationary)

__all__ = [
    "FluidPath", "StationaryPoint", "ode_rhs", "integrate_fluid",
    "stationary_point", "time_to_stationarity",
    "REGIME_AP", "REGIME_PI_ONE", "REGIME_PI_ZERO",
]

REGIME_AP = 0        # |d| inside the switching band: averaging principle
REGIME_PI_ONE = 1    # d above the band: sharing saturated, pi = 1
REGIME_PI_ZERO = 2   # d below the band: no class-1 overflow, pi = 0

_REGIME_NAMES = {REGIME_AP: "ap", REGIME_PI_ONE: "pi1", REGIME_PI_ZERO: "pi0"}

# Rows of the path that integrate_fluid holds in one flat list of Python
# numbers before it writes them into its arrays: whole-path lists would
# raise the peak memory.
_CHUNK = 1024


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


def _rhs_on_floats(p: ModelParams):
    """The fluid right-hand side as a function of Python floats.

    Returns ``rhs(q1, q2, z12, pi) -> (dq1, dq2, dz12)``.  This is the
    definition of the ODE: :func:`ode_rhs` wraps it, the integrator's steps
    call it directly, and :func:`_stage_kernel` repeats its operations.
    """
    m2, mu12, mu22 = p.m2, p.mu12, p.mu22
    net1 = p.lambda1 - p.m1 * p.mu11
    lambda2, theta1, theta2 = p.lambda2, p.theta1, p.theta2

    def rhs(q1, q2, z12, pi):
        z22 = m2 - z12
        pool2 = z12 * mu12 + z22 * mu22
        return (net1 - pi * pool2 - theta1 * q1,
                lambda2 - (1.0 - pi) * pool2 - theta2 * q2,
                pi * z22 * mu22 - (1.0 - pi) * z12 * mu12)

    return rhs


def _stage_kernel(p: ModelParams):
    """One reduced RK4 stage of the averaging-principle step, on floats.

    Returns ``stage(qs, z12) -> (dqs, dz12, pi, q1, q2, d_plus, d_minus)``:
    the queues (q1, q2) from the manifold d = 0 at q1 + q2 = qs, with q2
    and z12 clamped into S; then the drifts of :func:`drift_kernel`, pi12
    by the rule of :func:`pi_from_drifts` and :func:`_rhs_on_floats` at
    that state, in one call.  theta1 q1, theta2 q2 and pool2 are formed once;
    every operation is the one the composition makes, in its order, so each
    value is equal to it bit for bit.  A state outside S raises
    drift_kernel's ``ValueError``.  One closure per ratio family:
    birth-death at r = 1, the lattice sums at r = j/k != 1.
    """
    j, k = p.r12.as_integer_ratio()
    kappa, m2, r1, inf = p.kappa12, p.m2, 1.0 + float(p.r12), math.inf
    lambda1, lambda2, theta1, theta2 = p.lambda1, p.lambda2, p.theta1, p.theta2
    pool1, mu12, mu22 = p.mu11 * p.m1, p.mu12, p.mu22
    net1 = p.lambda1 - p.m1 * p.mu11
    # the clamps are integrate_fluid's comparisons, which pass -0.0 and nan
    if j != k:
        # the constants of drift_kernel's lattice closure
        fj, fk = float(j), float(k)
        up1_k, mk, down2_mj = fk * lambda1, -fk, -fj * lambda2

        def lattice_stage(qs, z):
            q2 = (qs - kappa) / r1
            if 0.0 > q2:
                q2 = 0.0
            if 0.0 > z:
                z = 0.0
            if m2 < z:
                z = m2
            q1 = qs - q2
            if not (0.0 <= q1 < inf and 0.0 <= q2 < inf and 0.0 <= z <= m2):
                FluidState(q1, q2, z).validate(p)
            out1, up2, z22 = theta1 * q1, theta2 * q2, m2 - z
            pool2 = mu12 * z + mu22 * z22
            down1 = out1 + pool1
            d_plus = (up1_k + mk * (down1 + pool2) + fj * up2 + down2_mj) / fk
            d_minus = (up1_k + mk * down1 + fj * (up2 + pool2) + down2_mj) / fk
            if d_plus < 0.0 and d_minus > 0.0:
                pi = d_minus / (d_minus - d_plus)
            else:
                pi = 1.0 if d_plus >= 0.0 else 0.0
            return ((net1 - pi * pool2 - out1)
                    + (lambda2 - (1.0 - pi) * pool2 - up2),
                    pi * z22 * mu22 - (1.0 - pi) * z * mu12,
                    pi, q1, q2, d_plus, d_minus)

        return lattice_stage

    def birth_death_stage(qs, z):
        q2 = (qs - kappa) / r1
        if 0.0 > q2:
            q2 = 0.0
        if 0.0 > z:
            z = 0.0
        if m2 < z:
            z = m2
        q1 = qs - q2
        if not (0.0 <= q1 < inf and 0.0 <= q2 < inf and 0.0 <= z <= m2):
            FluidState(q1, q2, z).validate(p)
        out1, out2, z22 = theta1 * q1, theta2 * q2, m2 - z
        pool2 = mu12 * z + mu22 * z22
        # drift_kernel's up and down
        up = lambda1 + out2
        down = out1 + pool1 + lambda2
        d_plus = up - (down + pool2)
        d_minus = up + pool2 - down
        if d_plus < 0.0 and d_minus > 0.0:
            pi = d_minus / (d_minus - d_plus)
        else:
            pi = 1.0 if d_plus >= 0.0 else 0.0
        return ((net1 - pi * pool2 - out1)
                + (lambda2 - (1.0 - pi) * pool2 - out2),
                pi * z22 * mu22 - (1.0 - pi) * z * mu12,
                pi, q1, q2, d_plus, d_minus)

    return birth_death_stage


def ode_rhs(p: ModelParams, gamma: FluidState, pi: float) -> np.ndarray:
    """Right-hand side of the fluid ODE for a given indicator mean pi."""
    check_real("pi", pi, "lie in [0, 1]")
    return np.array(_rhs_on_floats(p)(gamma.q1, gamma.q2, gamma.z12, pi))


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

    The path has round(T/h) steps of exactly h and ends at their time,
    which is T only when T is a whole number of steps (T < h/2 gives the
    one point t = 0); the ``overloadx fluid`` command refuses such a T.

    The steps run on Python floats, and each point is evaluated once.
    Outside the band one :func:`drift_kernel` call gives the recurrence
    test.  Inside it one :func:`_stage_kernel` call at the manifold state
    of q1 + q2 gives the stored pi and queues, the drifts and the step's
    first reduced stage, equal bit for bit to the composition of the
    projection, the clamps, drift_kernel, :func:`pi_from_drifts` and
    :func:`_rhs_on_floats`.  Its drifts are the point's own when the
    projection leaves (q1, q2) equal (``==``); otherwise ``in_A`` takes one
    drift_kernel call, and stage 1 is run again if the stored queues add up
    to another q1 + q2.  A manifold step thus makes four calls.  Rows are
    buffered ``_CHUNK`` at a time in one flat list.  An h or T outside
    (0, inf), a negative or NaN ``tol_manifold``, or a grid of T/h + 1 points
    that cannot be allocated, raises ``ValueError``.  A step that leaves S
    by more than 10h, a stored q1 + q2 past the exact path's bound, or a
    state a kernel rejects raises ``RuntimeError``: reduce the step size.
    """
    check_real("step size h", h, "be positive and finite")
    check_real("horizon T", T, "be positive and finite")
    if tol_manifold is not None:
        check_real("manifold band", tol_manifold, "be non-negative")
    x0.validate(p)
    r = float(p.r12)
    try:   # T/h past the float range overflows round()
        n_steps = int(round(T / h))
        t = np.linspace(0.0, n_steps * h, n_steps + 1)
        states = np.empty((n_steps + 1, 3))
        pis = np.empty(n_steps + 1)
        regimes = np.empty(n_steps + 1, dtype=np.int8)
        in_a = np.empty(n_steps + 1, dtype=bool)
    except (MemoryError, OverflowError):
        raise ValueError(f"the fluid grid of T/h + 1 = {T / h + 1:.0f} points "
                         f"does not fit in memory; raise h or lower T") from None
    escape = 10.0 * h
    rhs, drifts, stage = _rhs_on_floats(p), drift_kernel(p), _stage_kernel(p)
    kappa, m2, r1 = p.kappa12, p.m2, 1.0 + r
    # terms of the total event rate, which sets the default band
    arrivals, pool1 = p.lambda1 + p.lambda2, p.mu11 * p.m1
    theta1, theta2, mu12, mu22 = p.theta1, p.theta2, p.mu12, p.mu22
    h2, h6, band_per_rate = 0.5 * h, h / 6.0, 10.0 * h
    # dqs/dt <= lambda1 + lambda2 - m1 mu11 - min(theta) qs, so the exact qs
    # never exceeds this bound; the clamps into S may add up to 10h
    qs_limit = max(x0.q1 + x0.q2, (arrivals - pool1) / min(theta1, theta2)
                   ) + escape
    # The clamps compare as the builtins do: max(x, 0.0) is x unless
    # 0.0 > x and min(x, m2) is x unless m2 < x, so -0.0 and nan pass.

    q1, q2, z = float(x0.q1), float(x0.q2), float(x0.z12)
    # x0 passed validate(), so a state the drift kernel rejects inside
    # the loop, a stored point or an RK4 stage, was produced by a step
    try:
        for lo in range(0, n_steps + 1, _CHUNK):
            rows = []
            for i in range(lo, min(lo + _CHUNK, n_steps + 1)):
                d = q1 - kappa - r * q2
                band = tol_manifold if tol_manifold is not None else (
                    band_per_rate * (arrivals + theta1 * q1 + theta2 * q2
                                     + pool1 + mu12 * z + mu22 * (m2 - z)))
                if d > band or d < -band:
                    d_plus, d_minus = drifts(q1, q2, z)
                    recurrent = d_plus < 0.0 and d_minus > 0.0
                    on_manifold = False
                    pi, regime = ((1.0, REGIME_PI_ONE) if d > band
                                  else (0.0, REGIME_PI_ZERO))
                else:
                    # stage 1 of the reduced step, at the manifold state
                    qs, regime = q1 + q2, REGIME_AP
                    k1s, k1z, pi, q1_m, q2_m, d_plus, d_minus = stage(qs, z)
                    if q1_m != q1 or q2_m != q2:
                        # in_A records recurrence at the state itself
                        d_plus, d_minus = drifts(q1, q2, z)
                    recurrent = on_manifold = d_plus < 0.0 and d_minus > 0.0
                    if recurrent:
                        q1, q2 = q1_m, q2_m
                    else:
                        pi = 1.0 if d_plus >= 0.0 else 0.0
                rows += (q1, q2, z, pi, regime, recurrent)
                if i == n_steps:
                    break

                if on_manifold:
                    if q1 + q2 != qs:
                        # the projected queues may add up to another qs
                        qs = q1 + q2
                        k1s, k1z, _, _, _, _, _ = stage(qs, z)
                    k2s, k2z, _, _, _, _, _ = stage(qs + h2 * k1s, z + h2 * k1z)
                    k3s, k3z, _, _, _, _, _ = stage(qs + h2 * k2s, z + h2 * k2z)
                    k4s, k4z, _, _, _, _, _ = stage(qs + h * k3s, z + h * k3z)
                    qs = qs + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
                    z_new = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
                    if 0.0 > qs:
                        qs = 0.0
                    q2_new = (qs - kappa) / r1
                    if 0.0 > q2_new:
                        q2_new = 0.0
                    q1_new = qs - q2_new
                else:
                    a1, a2, a3 = rhs(q1, q2, z, pi)
                    b1, b2, b3 = rhs(q1 + h2 * a1, q2 + h2 * a2,
                                     z + h2 * a3, pi)
                    c1, c2, c3 = rhs(q1 + h2 * b1, q2 + h2 * b2,
                                     z + h2 * b3, pi)
                    e1, e2, e3 = rhs(q1 + h * c1, q2 + h * c2, z + h * c3, pi)
                    q1_new = q1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + e1)
                    q2_new = q2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + e2)
                    z_new = z + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + e3)
                # x < -escape is -x > escape; max() still decides, as it did
                if (q1_new < -escape or q2_new < -escape or z_new < -escape
                        or z_new - m2 > escape):
                    overshoot = max(-q1_new, -q2_new, -z_new, z_new - m2, 0.0)
                    if overshoot > escape:
                        raise RuntimeError(
                            f"state escaped the fluid state space by "
                            f"{overshoot:.3g} at t = {t[i]:.6g} (more than "
                            f"10h); reduce the step size")
                q1 = 0.0 if 0.0 > q1_new else q1_new
                q2 = 0.0 if 0.0 > q2_new else q2_new
                z = 0.0 if 0.0 > z_new else z_new
                if m2 < z:
                    z = m2
            block = np.array(rows).reshape(-1, 6)
            qs = block[:, 0] + block[:, 1]
            if not qs.max() <= qs_limit:   # a NaN max fails too
                i = int(np.flatnonzero(~(qs <= qs_limit))[0])
                raise RuntimeError(
                    f"q1 + q2 = {qs[i]:.6g} at t = {t[lo + i]:.6g} exceeds "
                    f"{qs_limit:.6g}, the exact path's bound plus 10h; reduce "
                    f"the step size")
            hi = lo + len(block)
            states[lo:hi] = block[:, :3]
            pis[lo:hi] = block[:, 3]
            regimes[lo:hi] = block[:, 4]
            in_a[lo:hi] = block[:, 5]
    except ValueError as exc:
        raise RuntimeError(
            f"a step left the fluid state space near t = {t[i]:.6g} "
            f"({exc}); reduce the step size") from exc

    return FluidPath(t=t, states=states, pi=pis, regime=regimes, in_A=in_a,
                     h=h, params=p)


def time_to_stationarity(path: FluidPath, tol: float) -> float:
    """First grid time from which the path stays within tol of x* (sup norm)."""
    check_real("tolerance tol", tol, "be positive")
    sp = stationary_point(path.params)
    target = np.array([sp.q1, sp.q2, sp.z12])
    err = np.max(np.abs(path.states - target), axis=1)
    inside = err < tol
    # last index that violates the tolerance decides the entry time
    if not inside[-1]:
        raise RuntimeError("path never settles within the tolerance")
    bad = np.nonzero(~inside)[0]
    return float(path.t[bad[-1] + 1]) if bad.size else float(path.t[0])
