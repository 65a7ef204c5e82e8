"""The fast-time-scale process (FTSP) attached to a fluid state.

Around a fluid state gamma = (q1, q2, z12) the weighted queue difference
D = Q1 - k - r*Q2 fluctuates at rate O(n) while gamma itself barely moves.
Expanding time by n turns the difference into a limiting pure-jump Markov
process D(gamma, .) whose jumps come from classifying every transition of
the original chain by its effect on D:

* class-1 events (arrival, abandonment, any service completion taken from
  queue 1) move D by +-1;
* class-2 events move D by -+r.

The routing rule makes the jump *rates* depend only on the sign of D: when
D > 0 every completing agent (both pools) takes the head of queue 1, when
D <= 0 pool-2 agents take queue 2 and pool-1 agents queue 1.  With r = j/k
in lowest terms, k*D is an integer lattice walk with jumps {+-k, +-j} and
two rate regimes, i.e. a quasi-birth-and-death (QBD) process; for r = 1 it
is a plain birth-and-death process whose excursions above and below 0 are
M/M/1 busy periods.

Everything downstream needs two functionals of this process: pi12(gamma),
the stationary probability that D is positive (the fraction of pool-2
completions routed to class 1), and sigma2(gamma), the asymptotic variance
of the time-integrated centered positivity indicator.  Both are closed forms
in the first two jump moments of each regime, for every rational r; the
lattice solves, busy-period forms and Monte Carlo are kept as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ModelParams, check_choice, check_real, check_seed

__all__ = [
    "FluidState", "FtspRates", "FtspSummary", "FtspMcStats",
    "BusyPeriodMoments", "ftsp_rates", "drift_rates", "drift_kernel",
    "is_positive_recurrent", "busy_period_moments", "pi_12", "pi_from_drifts",
    "pi_12_stationary", "asymptotic_variance", "sigma2_columns",
    "simulate_ftsp", "ftsp_summary",
]


class FluidState(NamedTuple):
    """A point of the fluid state space S = [0, inf)^2 x [0, m2].

    A named tuple, built about twice as fast as a frozen dataclass.  The
    path integrators build none per FTSP evaluation (see
    :func:`drift_kernel`).
    """

    q1: float
    q2: float
    z12: float

    def validate(self, p: ModelParams):
        q1, q2, z12 = self
        for name, value in zip(self._fields, self):
            check_real(name, value)
        # comparisons only: each is False for NaN, and < inf rejects inf
        if not (0.0 <= q1 < math.inf and 0.0 <= q2 < math.inf):
            raise ValueError(
                f"queue coordinates must be finite and non-negative: {self}")
        if not 0.0 <= z12 <= p.m2:
            raise ValueError(f"z12 must lie in [0, m2={p.m2}]: {self}")
        return self

    def as_array(self):
        return np.array([self.q1, self.q2, self.z12])


@dataclass(slots=True)
class FtspRates:
    """Jump rates of the FTSP on the lattice of k*D, for r = j/k.

    The walk lives on the integer lattice of k*D (step 1/k in D units).
    ``pos_rates`` / ``neg_rates`` map signed lattice jumps to rates for the
    two regimes (origin state > 0, origin state <= 0).  Class-1 events jump
    +-k, class-2 events +-j.

    For r = 1 both jumps are +-1 and the walk is a birth-death process, whose
    rates are also readable by name off the same maps: in the positive region
    it moves up at ``lam1`` and down at ``mu1``; in the non-positive region it
    moves away from the boundary (down) at ``lam2`` and back toward it (up) at
    ``mu2``.  The QBD blocks are read off :meth:`banded_generator` too.

    The rates may also be numpy arrays over many states, as
    :func:`sigma2_columns` builds them.  Not frozen (a frozen ``__init__``
    is several times slower); treat it as read-only.
    """

    j: int
    k: int
    pos_rates: dict
    neg_rates: dict

    @property
    def birth_death(self) -> bool:
        """True when r = 1 (j = k = 1 in lowest terms)."""
        return self.j == self.k == 1

    def _bd_rate(self, rates: dict, jump: int) -> float:
        if not self.birth_death:
            raise ValueError("birth-death rates exist only for r = 1")
        return rates[jump]

    @property
    def lam1(self) -> float:
        return self._bd_rate(self.pos_rates, 1)

    @property
    def mu1(self) -> float:
        return self._bd_rate(self.pos_rates, -1)

    @property
    def lam2(self) -> float:
        return self._bd_rate(self.neg_rates, -1)

    @property
    def mu2(self) -> float:
        return self._bd_rate(self.neg_rates, 1)

    @property
    def block_size(self) -> int:
        return max(self.j, self.k)

    def banded_generator(self, nmax: int) -> np.ndarray:
        """Generator on lattice states -nmax..nmax, in ``solve_banded`` layout.

        Entry (row, col) sits at ``band[b + row - col, col]``, where the
        half-bandwidth b is ``block_size`` (the largest jump).  Jumps that
        would overshoot the truncation boundary are redirected to the
        boundary state, preserving zero row sums; the stationary
        distribution has geometric tails, so the redirection washes out as
        nmax grows.
        """
        b = self.block_size
        states = np.arange(-nmax, nmax + 1)
        band = np.zeros((2 * b + 1, states.size))
        for src, rates in ((states[states > 0], self.pos_rates),
                           (states[states <= 0], self.neg_rates)):
            for jump, rate in rates.items():
                dst = np.clip(src + jump, -nmax, nmax)
                moved = dst != src
                s, d = src[moved], dst[moved]
                band[b + s - d, d + nmax] += rate
                band[b, s + nmax] -= rate
        return band


class BusyPeriodMoments(NamedTuple):
    mean: float
    second_moment: float
    variance: float


@dataclass(frozen=True)
class FtspSummary:
    """Averaging quantities of the FTSP at one fluid state."""

    delta_plus: float
    delta_minus: float
    recurrent: bool
    pi12: float
    et1: float | None
    et2: float | None
    var_t1: float | None
    var_t2: float | None
    sigma2: float | None
    method: str


@dataclass(frozen=True)
class FtspMcStats:
    """Monte Carlo summary of one simulated FTSP path.

    ``sigma2`` is the headline asymptotic-variance estimate: for r = 1 it is
    the variance of the centered integral over regeneration-cycle batches
    divided by the mean cycle length (unbiased); otherwise it equals
    ``sigma2_time_batches``, the classical fixed-length batch-means value,
    which carries an O(1/batch_length) bias.  ``n_cycles`` has one sense
    per route: the busy-period route (r = 1, recurrent) counts the T2 + T1
    cycles completed by the horizon; the lattice walk counts the entries
    into D > 0.
    """

    time_avg_positive: float
    sigma2: float
    sigma2_time_batches: float
    n_batches: int
    batch_length: float
    n_cycles: int
    horizon: float
    seed: int

    @property
    def time_avg_stderr(self) -> float:
        """Standard error of the time average, from the sigma2 estimate."""
        return math.sqrt(self.sigma2 / self.horizon)


# ---------------------------------------------------------------------------
# rate construction
# ---------------------------------------------------------------------------

def _regime_terms(p: ModelParams):
    """``terms(q1, q2, z12) -> (up1, down1, up2, down2, pool2)``, unvalidated.

    Class-1 arrivals, class-1 abandonments plus pool-1 completions,
    class-2 abandonments, class-2 arrivals and pool-2 completions: the
    rates of the pre-limit chain at state n*gamma (pools full, no class-2
    agents in pool 1), divided by n.  Floats or numpy arrays alike.
    """
    lambda1, lambda2, theta1, theta2 = p.lambda1, p.lambda2, p.theta1, p.theta2
    pool1, mu12, mu22, m2 = p.mu11 * p.m1, p.mu12, p.mu22, p.m2

    def terms(q1, q2, z12):
        return (lambda1, theta1 * q1 + pool1, theta2 * q2, lambda2,
                mu12 * z12 + mu22 * (m2 - z12))

    return terms


def _lattice_rates(j: int, k: int, up1, down1, up2, down2, pool2):
    """Per-regime ``{lattice jump: rate}`` dicts ``(pos, neg)``, any r = j/k.

    Class-1 terms jump +-k and class-2 terms +-j.  In the positive regime
    every completion takes the head of queue 1, so pool2 jumps -k; in the
    non-positive regime pool-2 completions take the head of queue 2, +j.
    Rates of one jump are added in the order (k, up1), (-k, down1),
    (j, up2), (-j, down2), pool2.  At r = 1 that gives lam1 = up1 + up2,
    mu1 = (down1 + down2) + pool2, mu2 = (up1 + up2) + pool2 and
    lam2 = down1 + down2.
    """
    maps = []
    for pool2_jump in (-k, j):
        rates = {}
        for jump, rate in ((k, up1), (-k, down1), (j, up2), (-j, down2),
                           (pool2_jump, pool2)):
            rates[jump] = rates[jump] + rate if jump in rates else rate
        maps.append(rates)
    return tuple(maps)


def ftsp_rates(p: ModelParams, gamma: FluidState) -> FtspRates:
    """Jump rates of D(gamma, .) on the lattice of k*D, r = j/k.

    The rates of :func:`_regime_terms` at gamma, classified by their effect
    on the queue difference (:func:`_lattice_rates`).  Jumps of rate zero
    are left out; at r = 1 every rate is positive.
    """
    q1, q2, z12 = gamma.validate(p)
    j, k = p.r12.as_integer_ratio()
    pos, neg = _lattice_rates(j, k, *_regime_terms(p)(q1, q2, z12))
    return FtspRates(j, k, _nonzero(pos), _nonzero(neg))


def _nonzero(rates: dict) -> dict:
    return {jump: rate for jump, rate in rates.items() if rate > 0.0}


def _left_sum(terms):
    """The terms added left to right, floats or arrays alike.

    Builtin ``sum`` compensates float sums from Python 3.12 on (but not
    array sums), which would move the last bits of a float evaluation away
    from its array twin and from one interpreter to the next.
    """
    total = 0
    for term in terms:
        total = total + term
    return total


def drift_rates(model: FtspRates) -> tuple[float, float]:
    """Regime drifts (delta_plus, delta_minus) in original D units.

    delta_plus is the mean velocity of D in the positive region;
    delta_minus the mean velocity in the non-positive region, so
    delta_minus > 0 means drift back toward the positive region.  Rates
    held as numpy arrays give arrays of drifts.  At r = 1 the sums are
    (0 + 1*up) + (-1*down) = up - down, exactly.
    """
    return tuple(_left_sum(jump * rate for jump, rate in rates.items())
                 / model.k for rates in (model.pos_rates, model.neg_rates))


def drift_kernel(p: ModelParams):
    """``drifts(q1, q2, z12) -> (delta_plus, delta_minus)`` on Python floats.

    Equal bit for bit to ``drift_rates(ftsp_rates(p, FluidState(...)))``,
    with no state, :class:`FtspRates` or rate dict built at any ratio: the
    fluid integrator calls it at points outside the switching band, and its
    fused reduced stages repeat its operations.  The closure spells out
    :func:`_regime_terms` and the rates of :func:`_lattice_rates`: at
    r = 1, lam1 - mu1 and mu2 - lam2 of the merged sums; at r = j/k != 1,
    the sums of :func:`drift_rates` over the dicts, jumps k, -k, j, -j,
    left to right.  The same operations run in the same order.  A state
    outside S raises the ``ValueError`` of :meth:`FluidState.validate`.
    """
    j, k = p.r12.as_integer_ratio()
    m2, inf = p.m2, math.inf
    lambda1, lambda2, theta1, theta2 = p.lambda1, p.lambda2, p.theta1, p.theta2
    pool1, mu12, mu22 = p.mu11 * p.m1, p.mu12, p.mu22
    if j != k:
        # jump * rate multiplies the rate by the jump as a float, and the
        # sum starts from the int 0, which adds nothing to a float; the
        # products of the constant rates are taken once.  Zero rates, which
        # ftsp_rates leaves out, add exact zeros.
        fj, fk = float(j), float(k)
        up1_k, mk, down2_mj = fk * lambda1, -fk, -fj * lambda2

        def lattice_drifts(q1, q2, z12):
            # FluidState.validate's comparisons; the state is built to raise
            if not (0.0 <= q1 < inf and 0.0 <= q2 < inf and 0.0 <= z12 <= m2):
                FluidState(q1, q2, z12).validate(p)
            down1 = theta1 * q1 + pool1
            up2 = theta2 * q2
            pool2 = mu12 * z12 + mu22 * (m2 - z12)
            return ((up1_k + mk * (down1 + pool2) + fj * up2 + down2_mj) / fk,
                    (up1_k + mk * down1 + fj * (up2 + pool2) + down2_mj) / fk)

        return lattice_drifts

    def birth_death_drifts(q1, q2, z12):
        if not (0.0 <= q1 < inf and 0.0 <= q2 < inf and 0.0 <= z12 <= m2):
            FluidState(q1, q2, z12).validate(p)
        # lam1 = up, mu1 = down + pool2, mu2 = up + pool2 and lam2 = down
        up = lambda1 + theta2 * q2
        down = theta1 * q1 + pool1 + lambda2
        pool2 = mu12 * z12 + mu22 * (m2 - z12)
        return up - (down + pool2), up + pool2 - down

    return birth_death_drifts


def is_positive_recurrent(p: ModelParams, gamma: FluidState) -> bool:
    """Drift test: strictly toward the boundary from both sides."""
    d_plus, d_minus = drift_rates(ftsp_rates(p, gamma))
    return d_plus < 0.0 and d_minus > 0.0


# ---------------------------------------------------------------------------
# busy periods (r = 1)
# ---------------------------------------------------------------------------

def busy_period_moments(lam: float, mu: float) -> BusyPeriodMoments:
    """First two moments of an M/M/1 busy period.

    E[T] = m/(1-rho) and E[T^2] = 2 m^2/(1-rho)^3 with m = 1/mu, rho = lam/mu.
    """
    if lam >= mu:
        raise ValueError(f"busy period requires lam < mu, got {lam} >= {mu}")
    return BusyPeriodMoments(*_busy_period(lam, mu))


def _busy_period(lam, mu):
    """(mean, second moment, variance) for lam < mu; floats or arrays.

    + - * / only, so floats and arrays evaluate the same IEEE operations
    (``x ** 3`` would go through libm's pow, which numpy does not follow).
    """
    m = 1.0 / mu
    gap = 1.0 - lam / mu
    mean = m / gap
    second = 2.0 * m * m / (gap * gap * gap)
    return mean, second, second - mean * mean


# ---------------------------------------------------------------------------
# pi12
# ---------------------------------------------------------------------------

PI12_METHODS = ("auto", "busy_period", "matrix_geometric", "truncated")


def pi_12(p: ModelParams, gamma: FluidState, method: str = "auto") -> float:
    """Stationary probability that the FTSP is positive.

    In steady state the mean velocity of D vanishes,
    pi * delta_plus + (1 - pi) * delta_minus = 0, so for every rational r

        pi12 = delta_minus / (delta_minus - delta_plus).

    Degenerate states (not positive recurrent) return exactly 0.0 or 1.0
    according to the escape direction.

    ``method``: "auto" (the zero-velocity identity above), or one of the
    independent cross-check routes: "busy_period" (the alternating-renewal
    ratio E[T1]/(E[T1]+E[T2]), r = 1 only), "matrix_geometric" or
    "truncated" (the positive mass of the lattice stationary law).  The
    method is checked against ``PI12_METHODS`` at every state.
    """
    check_choice("pi12 method", method, PI12_METHODS)
    model = ftsp_rates(p, gamma)
    d_plus, d_minus = drift_rates(model)
    if method == "auto" or not (d_plus < 0.0 and d_minus > 0.0):
        return pi_from_drifts(d_plus, d_minus)
    if method == "busy_period":
        if not model.birth_death:
            raise ValueError("busy-period form only applies when r = 1")
        et1 = busy_period_moments(model.lam1, model.mu1).mean
        et2 = busy_period_moments(model.lam2, model.mu2).mean
        return et1 / (et1 + et2)
    if method == "matrix_geometric":
        return _pi_matrix_geometric(model)
    return _truncated_solve(model, tol=1e-10)   # "truncated"


def pi_from_drifts(d_plus: float, d_minus: float) -> float:
    """pi12 from the regime drifts: the identity of :func:`pi_12`."""
    if d_plus < 0.0 and d_minus > 0.0:
        return d_minus / (d_minus - d_plus)
    # delta_minus >= delta_plus always, so the escape direction is
    # unambiguous except at the measure-zero double-null boundary.
    return 1.0 if d_plus >= 0.0 else 0.0


def pi_12_stationary(p: ModelParams, z12_star: float) -> float:
    """pi12 at a stationary fluid point, in closed form.

    pi* = mu12 z* / (mu12 z* + mu22 (m2 - z*)): the fraction of pool-2
    completion work attached to class-1 customers.
    """
    check_real("z12_star", z12_star)
    if not 0.0 <= z12_star <= p.m2:
        raise ValueError(f"z12_star must lie in [0, m2]: {z12_star}")
    num = p.mu12 * z12_star
    den = num + p.mu22 * (p.m2 - z12_star)
    return num / den


def _mg_rate_matrix(a0, a1, a2, tol=1e-14, itmax=64) -> np.ndarray:
    """Minimal solution R of A0 + R A1 + R^2 A2 = 0 by logarithmic reduction.

    Latouche & Ramaswami (1993): G, the minimal solution of
    A2 + A1 G + A0 G^2 = 0, sums first passages over 2^k levels, k = 0, 1,
    ..., until a term falls below ``tol``; then R = -A0 (A1 + A0 G)^-1.
    """
    up, down = np.linalg.solve(-a1, a0), np.linalg.solve(-a1, a2)
    g, t = down, up
    for _ in range(itmax):
        u = np.eye(len(a1)) - up @ down - down @ up
        up, down = np.linalg.solve(u, up @ up), np.linalg.solve(u, down @ down)
        term = t @ down
        g, t = g + term, t @ up
        if np.max(np.abs(term)) < tol:
            return -a0 @ np.linalg.inv(a1 + a0 @ g)
    raise RuntimeError("matrix-geometric iteration did not converge")


def _pi_matrix_geometric(lattice: FtspRates) -> float:
    """Positive mass via level-geometric stationary structure.

    Level l holds lattice states {l*b+1, ..., l*b+b}; levels >= 0 are the
    positive side, levels <= -1 the non-positive side.  On each side the
    chain is level-homogeneous, so pi_l = pi_0 Rp^l upward and
    pi_{-1-m} = pi_{-1} Rm^m downward; the two boundary levels are obtained
    from their balance equations plus normalization.  Each side's level
    blocks (up, local, down) are read off the generator on states
    -3b..3b, at level 1 and level -2, whose jumps stay inside it.
    """
    b = lattice.block_size
    band, n = lattice.banded_generator(3 * b), 6 * b + 1
    # dense copy: band row b + d holds the diagonal row - col = d
    gen = np.sum([np.diag(band[b + d, max(-d, 0):n - max(d, 0)], -d)
                  for d in range(-b, b + 1)], axis=0)

    def blocks(level):
        top = 3 * b + level * b + 1     # index of lattice state level*b + 1
        return tuple(gen[top:top + b, top + s * b:top + s * b + b]
                     for s in (1, 0, -1))

    a0, a1, a2 = blocks(1)      # up / local / down, positive side
    c0, c1, c2 = blocks(-2)     # up (toward 0) / local / down (away)
    rp = _mg_rate_matrix(a0, a1, a2)
    rm = _mg_rate_matrix(c2, c1, c0)       # roles swapped: "away" is downward
    # balance at levels -1 and 0, unknown row vector u = [pi_{-1}, pi_0]
    m = np.zeros((2 * b, 2 * b))
    m[:b, :b] = c1 + rm @ c0
    m[b:, :b] = a2
    m[:b, b:] = c0
    m[b:, b:] = a1 + rp @ a2
    # u @ m = 0: take the null vector of m^T
    _, _, vt = np.linalg.svd(m.T)
    u = vt[-1]
    if u.sum() < 0.0:   # sign of the SVD null vector is arbitrary
        u = -u
    pim1, pi0 = u[:b], u[b:]
    eye = np.eye(b)
    w_neg = pim1 @ np.linalg.solve(eye - rm, np.ones(b))
    w_pos = pi0 @ np.linalg.solve(eye - rp, np.ones(b))
    return float(w_pos / (w_pos + w_neg))


# ---------------------------------------------------------------------------
# truncated lattice solves
# ---------------------------------------------------------------------------

def _pin(band: np.ndarray, row: int) -> np.ndarray:
    """Replace equation ``row`` of a banded system by x[row] = rhs[row]."""
    b = (band.shape[0] - 1) // 2
    cols = np.arange(max(row - b, 0), min(row + b + 1, band.shape[1]))
    band[b + row - cols, cols] = 0.0
    band[b, row] = 1.0
    return band


def _stationary_banded(gen: np.ndarray, anchor: int) -> np.ndarray:
    """Stationary law from a banded generator, pinned at index ``anchor``.

    Solves G^T x = 0 with the balance equation of ``anchor`` replaced by
    x[anchor] = 1, which keeps the system banded, then normalizes.
    """
    b = (gen.shape[0] - 1) // 2
    # G^T in band layout: row b + d of it is row b - d of G shifted by d
    band_t = np.zeros_like(gen)
    for d in range(-b, b + 1):
        band_t[b + d] = np.roll(gen[b - d], -d)
    rhs = np.zeros(gen.shape[1])
    rhs[anchor] = 1.0
    from scipy.linalg import solve_banded
    x = solve_banded((b, b), _pin(band_t, anchor), rhs, overwrite_ab=True)
    return x / x.sum()


def _stationary_truncated(lattice: FtspRates, nmax: int) -> np.ndarray:
    """Stationary law on lattice states -nmax..nmax at one fixed radius.

    A recurrent walk is pinned at state 0.  A transient one piles its mass
    at the boundary it drifts to and is pinned there, so that the
    unnormalized solution decays away from the pin instead of overflowing.
    """
    d_plus, d_minus = drift_rates(lattice)
    anchor = nmax                      # index of lattice state 0
    if d_plus >= 0.0:
        anchor = 2 * nmax
    elif d_minus <= 0.0:
        anchor = 0
    return _stationary_banded(lattice.banded_generator(nmax), anchor)


def _truncated_solve(lattice: FtspRates, tol: float, sigma2: bool = False) -> float:
    """pi12 (or sigma2) of a recurrent walk on a truncated lattice.

    The truncation radius is doubled from 64, up to 8192, until the value
    changes by less than ``tol``.  At each radius the banded generator G is
    built once.  It gives the stationary law pi, pinned at state 0, and pi12
    is its mass on the states > 0.  For ``sigma2`` it also gives the Poisson
    equation G g = -fbar, with fbar = 1{state > 0} - pi12 and g(0) = 0;
    then sigma2 = 2 sum_i pi_i fbar_i g_i.
    """
    nmax = 64
    prev = None
    change = math.inf
    while nmax <= 8192:
        gen = lattice.banded_generator(nmax)
        dist = _stationary_banded(gen, nmax)
        val = dist[nmax + 1:].sum()
        if sigma2:
            fbar = np.full(dist.size, -val)
            fbar[nmax + 1:] += 1.0
            rhs = -fbar
            rhs[nmax] = 0.0
            b = (gen.shape[0] - 1) // 2
            from scipy.linalg import solve_banded
            g = solve_banded((b, b), _pin(gen, nmax), rhs, overwrite_ab=True)
            val = float(2.0 * np.sum(dist * fbar * g))
        if prev is not None:
            change = abs(val - prev)
            if change < tol:
                return val
        prev = val
        nmax *= 2
    what = ("Poisson-equation truncation" if sigma2
            else "truncated stationary solve")
    raise RuntimeError(f"{what} did not converge "
                       f"(last radius {nmax // 2}, change {change:.2e})")


# ---------------------------------------------------------------------------
# asymptotic variance
# ---------------------------------------------------------------------------

SIGMA2_METHODS = ("paper_r1", "regenerative", "poisson_numeric", "monte_carlo")
_NOT_RECURRENT = "asymptotic variance requires a positive recurrent state"


def asymptotic_variance(p: ModelParams, gamma: FluidState,
                        method: str = "poisson_numeric") -> float:
    """Asymptotic variance sigma2(gamma) of the centered positivity indicator.

    Methods:

    * ``"paper_r1"``: Var(T1) / (E[T1] + E[T2]) -- the closed form the
      reference arithmetic uses for r = 1, retained verbatim so that its
      numbers can be reproduced exactly;
    * ``"regenerative"``: Var((1-pi) T1 - pi T2) / (E[T1] + E[T2]), the
      regenerative-cycle formula with independent busy periods (r = 1);
    * ``"poisson_numeric"``: 2 E_pi[(f - pi) g] for f = 1{D > 0} and g solving
      the Poisson equation G g = -(f - pi); any rational r, the default.  The
      mean velocity of D is G D = (delta_plus - delta_minus)(f - pi), so
      g = D / (delta_minus - delta_plus), and E_pi[G g^2] = 0 gives sigma2 =
      E_pi[infinitesimal variance of g] = (pi s_plus + (1 - pi) s_minus) /
      (delta_minus - delta_plus)^2, s_plus/s_minus = sum rate * (jump/k)^2 per
      regime.  At r = 1 this is ``regenerative``; ``_truncated_solve`` is its
      lattice oracle;
    * ``"monte_carlo"``: estimate from one simulated path of fixed length
      2e6 and seed 20240901 -- variance of the centered integral over
      regeneration-cycle batches for r = 1, fixed time batches otherwise.
      For another run length or seed call :func:`simulate_ftsp` directly.

    ``paper_r1`` disagrees with the other three, which agree with each
    other; it exists for reproducing reference numbers.  An unknown method
    raises before any work.
    """
    check_choice("sigma2 method", method, SIGMA2_METHODS)
    model = ftsp_rates(p, gamma)
    d_plus, d_minus = drift_rates(model)
    if not (d_plus < 0.0 and d_minus > 0.0):
        raise ValueError(_NOT_RECURRENT)
    if method == "monte_carlo":
        return simulate_ftsp(p, gamma, horizon=2.0e6, seed=20240901).sigma2
    return _closed_form_sigma2(model, d_plus, d_minus, method)



def _closed_form_sigma2(model: FtspRates, d_plus, d_minus, method: str):
    """The closed forms of :func:`asymptotic_variance`, at recurrent states.

    Floats or arrays of rates alike, + - * / only: an array entry equals
    the float evaluation at its state bit for bit.
    """
    if method in ("paper_r1", "regenerative"):
        if not model.birth_death:
            raise ValueError(f"{method} requires r = 1")
        mean1, _, var1 = _busy_period(model.lam1, model.mu1)
        mean2, _, var2 = _busy_period(model.lam2, model.mu2)
        cycle = mean1 + mean2
        if method == "paper_r1":
            return var1 / cycle
        pi = mean1 / cycle
        return ((1.0 - pi) * (1.0 - pi) * var1 + pi * pi * var2) / cycle
    # poisson_numeric; the callers have checked the method
    gap = d_minus - d_plus   # pi = d_minus / gap, 1 - pi = -d_plus / gap
    s_plus, s_minus = (_left_sum(jump * jump * rate
                                 for jump, rate in rates.items())
                       for rates in (model.pos_rates, model.neg_rates))
    return ((d_minus * s_plus - d_plus * s_minus)
            / (model.k * model.k * (gap * gap * gap)))


def sigma2_columns(p: ModelParams, states: np.ndarray, method: str) -> np.ndarray:
    """:func:`asymptotic_variance` at every row (q1, q2, z12) of ``states``.

    The closed forms are one array expression over the columns;
    ``"monte_carlo"`` simulates per row.  The first row outside S or not
    positive recurrent raises the error of the scalar route, and an unknown
    method raises before any work.
    """
    check_choice("sigma2 method", method, SIGMA2_METHODS)
    if method == "monte_carlo":
        return np.array([asymptotic_variance(p, FluidState(*s), method)
                         for s in states.tolist()])
    q1, q2, z12 = states.T
    j, k = p.r12.as_integer_ratio()
    with np.errstate(invalid="ignore"):   # rows outside S are rejected below
        model = FtspRates(j, k, *_lattice_rates(
            j, k, *_regime_terms(p)(q1, q2, z12)))
        d_plus, d_minus = drift_rates(model)
    ok = ((0.0 <= q1) & (q1 < math.inf) & (0.0 <= q2) & (q2 < math.inf)
          & (0.0 <= z12) & (z12 <= p.m2) & (d_plus < 0.0) & (d_minus > 0.0))
    if not ok.all():
        FluidState(*states[np.argmin(ok)].tolist()).validate(p)
        raise ValueError(_NOT_RECURRENT)
    return _closed_form_sigma2(model, d_plus, d_minus, method)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _busy_period_batch(lam: float, mu: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Durations of ``count`` independent M/M/1 busy periods, vectorized.

    Walkers start at level 1; each step draws an Exp(lam+mu) holding time and
    moves up with probability lam/(lam+mu).  Finished walkers are compacted
    away so total work is proportional to the total number of events.
    """
    total = lam + mu
    p_up = lam / total
    durations = np.zeros(count)
    level = np.ones(count, dtype=np.int64)
    alive = np.arange(count)
    while alive.size:
        k = alive.size
        durations[alive] += rng.exponential(1.0 / total, size=k)
        level[alive] += np.where(rng.random(k) < p_up, 1, -1)
        alive = alive[level[alive] > 0]
    return durations


def simulate_ftsp(p: ModelParams, gamma: FluidState, horizon: float,
                  seed: int, batch_length: float = 1000.0) -> FtspMcStats:
    """Simulate D(gamma, .) from state 0 and summarize it.

    Returns the time average of 1{D > 0}, a batch-means estimate of the
    asymptotic variance, and ``n_cycles`` in its route's sense (see
    :class:`FtspMcStats`).  Deterministic for a given seed; bad input
    raises before any draw.

    For r = 1 the path only matters through its alternating excursion
    durations (below / above the boundary), which are independent busy
    periods; those are sampled directly, vectorized.  Other ratios, and
    transient states, fall back to event-by-event simulation of the
    lattice walk on the pairs that :func:`sim.run` reads from the same
    seed (the contract is stated in ``sim._uniform_blocks``).  Either route
    gives a timeline of segments with 0/1 flags of D > 0, and one
    vectorized lookup reads the positive time at every batch edge and at
    the horizon.
    """
    check_real("horizon", horizon, "be positive and finite")
    check_real("batch_length", batch_length, "be positive and finite")
    check_seed(seed)
    n_batches = int(horizon // batch_length)
    if n_batches < 2:
        raise ValueError("horizon too short for the requested batch length")
    model = ftsp_rates(p, gamma)
    bd_recurrent = (model.birth_death
                    and model.mu1 > model.lam1 and model.mu2 > model.lam2)
    if bd_recurrent:
        rng = np.random.default_rng(seed)
        spent = 0.0
        # starting at the boundary state 0, the first excursion is a T2
        segs_t2, segs_t1 = [], []
        mean_cycle = (1.0 / (model.mu1 - model.lam1)
                      + 1.0 / (model.mu2 - model.lam2))
        chunk = max(1024, int(1.1 * horizon / mean_cycle / 2) + 64)
        while spent < horizon:
            t2 = _busy_period_batch(model.lam2, model.mu2, chunk, rng)
            t1 = _busy_period_batch(model.lam1, model.mu1, chunk, rng)
            segs_t2.append(t2)
            segs_t1.append(t1)
            spent += float(t2.sum() + t1.sum())
        # alternating timeline T2, T1, T2, T1, ...
        lengths = np.empty(2 * chunk * len(segs_t1))
        lengths[0::2] = np.concatenate(segs_t2)
        lengths[1::2] = np.concatenate(segs_t1)
        flags = np.zeros_like(lengths)
        flags[1::2] = 1.0
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # completed T2 + T1 cycles
        n_cycles = int(np.searchsorted(ends[1::2], horizon, side="right"))
    else:
        # general rational r, or a transient state: walk the lattice directly
        from .sim import _uniform_blocks
        starts, ends, lengths, flags = _simulate_walk(
            model, horizon, _uniform_blocks(seed))
        n_cycles = int(np.count_nonzero(flags))   # entries into D > 0
    edges = batch_length * np.arange(n_batches + 1)
    pos_at = _positive_time(starts, ends, lengths, flags,
                            np.append(edges, horizon))
    pi_hat = pos_at[-1] / horizon
    y = np.diff(pos_at[:-1]) - pi_hat * batch_length
    sigma2 = sigma2_tb = float(np.sum(y * y) / ((n_batches - 1) * batch_length))
    if bd_recurrent and n_cycles >= 2:
        tau = lengths[0:2 * n_cycles:2] + lengths[1:2 * n_cycles:2]
        y_c = lengths[1:2 * n_cycles:2] - pi_hat * tau
        sigma2 = float(y_c.var(ddof=1) / tau.mean())
    return FtspMcStats(time_avg_positive=pi_hat, sigma2=sigma2,
                       sigma2_time_batches=sigma2_tb,
                       n_batches=n_batches, batch_length=batch_length,
                       n_cycles=n_cycles, horizon=horizon, seed=seed)


def _simulate_walk(lattice: FtspRates, horizon: float, blocks):
    """Event-by-event walk on the k*D lattice, on the pairs of the reader
    ``blocks`` (``sim._uniform_blocks``), cut at ``horizon``: segment
    starts, ends, lengths and 0/1 flags of D > 0, one segment per sign."""
    pos_jumps = sorted(lattice.pos_rates.items())
    neg_jumps = sorted(lattice.neg_rates.items())
    pos_total = _left_sum(r for _, r in pos_jumps)
    neg_total = _left_sum(r for _, r in neg_jumps)
    state = 0
    t = 0.0
    change_times = [0.0]       # times at which the sign of the state changes
    sign_positive = [False]    # sign on [change_times[i], change_times[i+1])
    log = math.log
    pairs = (pair for h, c in blocks for pair in zip(h.tolist(), c))
    for hold, cat in pairs:
        if state > 0:
            jumps, total = pos_jumps, pos_total
        else:
            jumps, total = neg_jumps, neg_total
        t += -log(1.0 - hold) / total
        u = cat * total
        acc = 0.0
        for jump, rate in jumps:
            acc += rate
            if u < acc:
                new_state = state + jump
                break
        else:
            new_state = state + jumps[-1][0]
        if (new_state > 0) != (state > 0):
            change_times.append(min(t, horizon))
            sign_positive.append(new_state > 0)
        state = new_state
        if t >= horizon:
            break
    times = np.array(change_times + [horizon])
    flags = np.array(sign_positive, dtype=float)
    return times[:-1], times[1:], np.diff(times), flags


def _positive_time(starts, ends, lengths, flags, t: np.ndarray) -> np.ndarray:
    """Time with D > 0 up to each of the times ``t``: the positive time
    before the segment each one ends in, plus its part of that segment.
    A time past the last end is read in the last segment."""
    before = np.concatenate([[0.0], np.cumsum(lengths * flags)])
    i = np.minimum(np.searchsorted(ends, t, side="left"), ends.size - 1)
    return before[i] + (t - starts[i]) * flags[i]


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def ftsp_summary(p: ModelParams, gamma: FluidState,
                 sigma2_method: str = "poisson_numeric") -> FtspSummary:
    """Bundle the per-state averaging quantities into one record."""
    check_choice("sigma2 method", sigma2_method, SIGMA2_METHODS)
    model = ftsp_rates(p, gamma)
    d_plus, d_minus = drift_rates(model)
    recurrent = d_plus < 0.0 and d_minus > 0.0
    pi = pi_12(p, gamma)
    et1 = et2 = vt1 = vt2 = None
    if model.birth_death and recurrent:
        bp1 = busy_period_moments(model.lam1, model.mu1)
        bp2 = busy_period_moments(model.lam2, model.mu2)
        et1, vt1 = bp1.mean, bp1.variance
        et2, vt2 = bp2.mean, bp2.variance
    sigma2 = None
    if recurrent:
        sigma2 = asymptotic_variance(p, gamma, sigma2_method)
    return FtspSummary(delta_plus=d_plus, delta_minus=d_minus,
                       recurrent=recurrent, pi12=pi,
                       et1=et1, et2=et2, var_t1=vt1, var_t2=vt2,
                       sigma2=sigma2, method=sigma2_method)
