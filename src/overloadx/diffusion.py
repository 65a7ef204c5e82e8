"""Gaussian refinement of the fluid limit: time changes, BOU, covariances.

The diffusion-scale limit of (total queue, class-1 content of pool 2) is
driven by independent Brownian motions run through seven deterministic time
changes (cumulative integrals along the fluid path).  When the fluid sits at
its stationary point the limit is a bivariate Ornstein-Uhlenbeck process,
whose steady-state covariance is available in closed form and from a
2x2 Lyapunov equation; both are implemented and must agree.

Two internal inconsistencies of the reference constants are surfaced rather
than hidden, each behind an explicit flag:

* ``sigma2_method``: which asymptotic-variance formula feeds the xi2 / gamma2
  terms (see :func:`overloadx.ftsp.asymptotic_variance`); reproducing the
  reference arithmetic requires ``"paper_r1"``; the validated value is
  ``"poisson_numeric"``, closed form for every r (``"regenerative"`` at r = 1).
* ``psi_convention``: the service-mix weight is mu22 (m2 - z12) + mu12 z12
  (``"plus"``, the form consistent with the martingale decomposition) while
  the reference worked example uses the minus combination (``"paper-sec10"``).

The steady-state OU and the transient covariance share one drift matrix,
:func:`sde_drift_matrix`, and one set of noise rates, :func:`_integrand_rows`
(the OU's at x*).  The reference M22 = -mu12 mu22 m2 z12*/mix_plus is tied to
the pair ``REFERENCE_CONVENTIONS``, which selects it with no flag.

No silent defaults: both flags are mandatory in every operation where they
matter, and every report carries them.  Each function evaluates at the
parameters it is given; the realized threshold k_n/n of the n-th system is
applied by the caller, with ``p.with_kappa12(scale(p, n).kappa_eff)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ModelParams, check_choice, check_count, check_real
# asymptotic_variance stays bound for callers that look it up on this module
from .ftsp import asymptotic_variance, sigma2_columns
from .fluid import FluidPath, stationary_point, integrate_fluid

__all__ = [
    "TimeChanges", "BouModel", "SteadyStateCov", "OuParams", "GaussianApprox",
    "REFERENCE_CONVENTIONS", "psi_mix", "time_changes", "bou_matrices",
    "steady_state_covariance", "solve_lyapunov", "sde_drift_matrix",
    "transient_covariance", "pool_dependent_reduction", "gaussian_queue_approx",
]

PSI_CONVENTIONS = ("plus", "paper-sec10")

# validate's conventions; under them bou_matrices keeps the reference M22.
REFERENCE_CONVENTIONS = {"sigma2_method": "paper_r1",
                         "psi_convention": "paper-sec10"}


def psi_mix(p: ModelParams, z12, convention: str):
    """Pool-2 service mix weight entering the FTSP noise terms."""
    check_choice("psi convention", convention, PSI_CONVENTIONS)
    if convention == "plus":
        return p.mu22 * (p.m2 - z12) + p.mu12 * z12
    return p.mu22 * (p.m2 - z12) - p.mu12 * z12


def queue_split(p: ModelParams) -> tuple[float, float]:
    """Diffusion-scale queue weights (p1, p2) = (r, 1)/(1+r)."""
    r = float(p.r12)
    return r / (1.0 + r), 1.0 / (1.0 + r)


@dataclass(frozen=True)
class TimeChanges:
    """The seven deterministic Brownian time changes along a fluid path.

    All are nondecreasing and start at zero.  gamma1 carries arrivals,
    abandonments and pool-1 completions; phi_i2 / gamma_i2 split the pool-2
    completion streams by routing regime; gamma2 and gamma3 carry the
    fast-process noise with and without the psi weight.
    """

    t: np.ndarray
    gamma1: np.ndarray
    phi12: np.ndarray
    phi22: np.ndarray
    gamma12: np.ndarray
    gamma22: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    psi: np.ndarray
    sigma2: np.ndarray
    sigma2_method: str
    psi_convention: str

    def all_functions(self) -> dict:
        return {"gamma1": self.gamma1, "phi12": self.phi12,
                "phi22": self.phi22, "gamma12": self.gamma12,
                "gamma22": self.gamma22, "gamma2": self.gamma2,
                "gamma3": self.gamma3}


@dataclass(frozen=True)
class BouModel:
    """Drift and diffusion matrices of the stationary-fluid OU limit."""

    M: np.ndarray
    S: np.ndarray
    xi1: float
    xi12: float
    xi22: float
    eta12: float
    eta22: float
    xi2: float
    xi3: float
    xi4: float
    xi5: float
    p1: float
    p2: float
    z12_star: float
    pi_star: float
    sigma2_method: str
    psi_convention: str

    @property
    def V(self) -> np.ndarray:
        return self.S @ self.S.T


@dataclass(frozen=True)
class SteadyStateCov:
    """Steady-state covariance of (qs-hat, z12-hat) with its named addends."""

    var_qs: float
    var_z: float
    cov_qz: float
    q1_addend: float
    q2_addend: float
    z1_addend: float
    z2_addend: float
    std_qs: float
    std_q1: float
    std_q2: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.var_qs, self.cov_qz],
                         [self.cov_qz, self.var_z]])


@dataclass(frozen=True)
class OuParams:
    """One-dimensional reductions under pool-dependent service rates."""

    eta1: float
    eta2: float
    nu: float
    t: np.ndarray
    gamma1_tilde: np.ndarray
    gamma2_tilde: np.ndarray


@dataclass(frozen=True)
class GaussianApprox:
    """Gaussian steady-state approximation for the n-th system.

    ``model`` and ``cov`` are the OU limit and its steady-state covariance
    the standard deviations were scaled from (unscaled, as the hat values).
    ``std_z12_possible`` is False when ``std_z12`` exceeds the largest
    spread a count in [0, m2 n] with mean ``mean_z12`` can have, the
    Bhatia-Davis bound sqrt(mean_z12 (m2 n - mean_z12)).
    """

    n: int
    kappa_eff: float
    mean_q1: float
    mean_q2: float
    mean_qs: float
    mean_z12: float
    std_q1: float
    std_q2: float
    std_qs: float
    std_z12: float
    std_z12_possible: bool
    sigma2_method: str
    psi_convention: str
    model: BouModel = field(repr=False, compare=False)
    cov: SteadyStateCov = field(repr=False, compare=False)


def _integrand_rows(p: ModelParams, states: np.ndarray, pi: np.ndarray,
                    sigma2_method: str, psi_convention: str):
    """Time-change derivatives at the points ``states`` (rows q1, q2, z12).

    ``pi`` holds each point's pi12.  The noise rates of both layers: along a
    path for :func:`transient_covariance`, at x* for :func:`bou_matrices`.
    An unknown convention or method raises before any sigma2 solve.
    """
    p1, p2 = queue_split(p)
    q1, q2, z = states[:, 0], states[:, 1], states[:, 2]
    qs = q1 + q2
    psi = psi_mix(p, z, psi_convention)
    sig = sigma2_columns(p, states, sigma2_method)
    not_pi, idle = 1.0 - pi, p.m2 - z
    rows = {
        # theta1 q1 + theta2 q2; the last term is +-0.0 when theta1 == theta2
        "gamma1": (p.lambda1 + p.lambda2 + p.m1 * p.mu11)
                  + (p1 * p.theta1 + p2 * p.theta2) * qs
                  + (p.theta1 - p.theta2) * (q1 - p1 * qs),
        "phi12": p.mu12 * not_pi * z,
        "phi22": p.mu22 * pi * idle,
        "gamma12": p.mu12 * pi * z,
        "gamma22": p.mu22 * not_pi * idle,
        "gamma2": psi * psi * sig,
        "gamma3": sig,
    }
    return rows, psi


def _noise_entries(rows: dict):
    """Entries (v11, v12, v22) of the noise matrix V from the rows.

    The two pool-2 streams shared by both equations enter the queue equation
    negatively and the z12 equation with opposite signs.
    """
    v11 = (rows["gamma1"] + rows["gamma12"] + rows["gamma22"] + rows["phi12"]
           + rows["phi22"])
    v12 = rows["phi12"] - rows["phi22"]
    v22 = rows["phi12"] + rows["phi22"] + rows["gamma2"]
    return v11, v12, v22


def _cumtrapz(t: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """Trapezoidal cumulative integrals of the rows ``ys`` on the grid ``t``.

    Returns a (len(ys), len(t)) array whose rows start at 0.0.  ``np.diff(t)``
    is formed once; each row is ``np.cumsum`` of ``0.5 * (y[1:] + y[:-1]) *
    dt``, written in place after its zero.  One row at a time: a 2-D
    ``cumsum`` over stacked rows is faster on short grids but slower on
    long ones.
    """
    dt = np.diff(t)
    out = np.empty((len(ys), len(t)))
    out[:, 0] = 0.0
    for y, row in zip(ys, out):
        np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, out=row[1:])
    return out


def time_changes(p: ModelParams, path: FluidPath, sigma2_method: str,
                 psi_convention: str) -> TimeChanges:
    """Trapezoidal cumulative integrals of the seven time-change integrands.

    One :func:`_cumtrapz` call integrates all seven rows on the path's grid;
    each function is a row of its result.
    """
    if path.pi is None or len(path.pi) != len(path.t):
        raise ValueError("path must carry a pi value per step")
    rows, psi = _integrand_rows(p, path.states, path.pi, sigma2_method,
                                psi_convention)
    cum = dict(zip(rows, _cumtrapz(path.t, *rows.values())))
    return TimeChanges(t=path.t, **cum, psi=psi, sigma2=rows["gamma3"],
                       sigma2_method=sigma2_method,
                       psi_convention=psi_convention)


def _drift_entries(p: ModelParams):
    """Entries of :func:`sde_drift_matrix` as Python floats.

    Returns ``(a11, a12, a22)``, where a11 and a12 are constants and
    ``a22(pi)`` is a function; the (2,1) entry is zero.
    """
    p1, p2 = queue_split(p)
    a12 = p.mu22 - p.mu12
    mu12 = p.mu12

    def a22(pi):
        return -(a12 * pi + mu12)

    return -(p1 * p.theta1 + p2 * p.theta2), a12, a22


def sde_drift_matrix(p: ModelParams, pi: float) -> np.ndarray:
    """Instantaneous drift matrix of the diffusion-scale pair.

    Rows follow the two drift integrands of the limit equations:
    the total queue relaxes at the split-weighted abandonment rate and feels
    z12-hat through mu22 - mu12; z12-hat relaxes at
    (mu22 - mu12) pi + mu12 = pi mu22 + (1 - pi) mu12.

    At the stationary point it is the M of :func:`bou_matrices` under every
    pair of conventions but ``REFERENCE_CONVENTIONS``; there its (2,2) entry
    equals -mu12 mu22 m2 / mix_plus.
    """
    a11, a12, a22 = _drift_entries(p)
    return np.array([[a11, a12], [0.0, a22(pi)]])


def bou_matrices(p: ModelParams, *, sigma2_method: str,
                 psi_convention: str) -> BouModel:
    """Drift matrix M and diffusion matrix S at the stationary fluid point.

    M is :func:`sde_drift_matrix` at pi*, the drift that
    :func:`transient_covariance` relaxes under, but for
    ``REFERENCE_CONVENTIONS``, whose M22 is the reference constant
    -mu12 mu22 m2 z12* / mix_plus; xi5 is derived from M.
    S is the rows' V at x*: the xi / eta constants are the
    :func:`_integrand_rows` rates at (x*, pi*), and S is diagonal because
    the pool-2 streams balance there (v12 = phi12 - phi22 is rounding).
    """
    sp = stationary_point(p)
    z = sp.z12
    if not 0.0 < z < p.m2:
        raise ValueError(f"stationary z12 must be interior to (0, m2): "
                         f"z12* = {z!r} lies on the boundary, m2 = {p.m2!r}")
    p1, p2 = queue_split(p)
    pi_star = sp.pi_star
    rows, _ = _integrand_rows(p, np.array([sp.as_state()]), np.array([pi_star]),
                              sigma2_method, psi_convention)
    r = {name: float(vals[0]) for name, vals in rows.items()}
    v11, _, v22 = _noise_entries(r)
    m11, m12, a22 = _drift_entries(p)
    if {"sigma2_method": sigma2_method,
            "psi_convention": psi_convention} == REFERENCE_CONVENTIONS:
        mix_plus = p.mu12 * z + p.mu22 * (p.m2 - z)
        m22 = -p.mu12 * p.mu22 * p.m2 * z / mix_plus
    else:
        m22 = a22(pi_star)
    xi5 = m12 / abs(m11 + m22)
    s = np.array([[math.sqrt(v11), 0.0], [0.0, math.sqrt(v22)]])
    m = np.array([[m11, m12], [0.0, m22]])
    return BouModel(M=m, S=s, xi1=r["gamma1"], xi12=r["gamma12"],
                    xi22=r["gamma22"], eta12=r["phi12"], eta22=r["phi22"],
                    xi2=r["gamma2"], xi3=r["gamma3"], xi5=xi5, p1=p1, p2=p2,
                    xi4=r["phi12"] + r["phi22"], z12_star=z, pi_star=pi_star,
                    sigma2_method=sigma2_method, psi_convention=psi_convention)


def steady_state_covariance(model: BouModel) -> SteadyStateCov:
    """Closed-form steady-state covariance of the OU limit.

    Computed in the order var_z -> cov_qz -> var_qs, which is how the
    triangular drift matrix decouples the Lyapunov equation.
    """
    m11, m12 = model.M[0, 0], model.M[0, 1]
    m22 = model.M[1, 1]
    if m11 >= 0.0 or m22 >= 0.0:
        raise ValueError("drift matrix must be stable")
    z1 = model.xi4 / (2.0 * abs(m22))
    z2 = model.xi2 / (2.0 * abs(m22))
    var_z = z1 + z2
    cov_qz = model.xi5 * var_z
    q1 = model.S[0, 0] ** 2 / (2.0 * abs(m11))
    q2 = m12 * cov_qz / abs(m11)
    var_qs = q1 + q2
    std_qs = math.sqrt(var_qs)
    return SteadyStateCov(var_qs=var_qs, var_z=var_z, cov_qz=cov_qz,
                          q1_addend=q1, q2_addend=q2,
                          z1_addend=z1, z2_addend=z2,
                          std_qs=std_qs,
                          std_q1=model.p1 * std_qs,
                          std_q2=model.p2 * std_qs)


def solve_lyapunov(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Stationary covariance from M Sigma + Sigma M^T = -V."""
    eig = np.linalg.eigvals(M)
    if np.any(eig.real >= 0.0):
        raise ValueError(f"drift matrix is not stable: eigenvalues {eig}")
    from scipy.linalg import solve_continuous_lyapunov
    return solve_continuous_lyapunov(M, -np.asarray(V))


# Steps of transient_covariance per chunk: their columns are converted to
# Python floats, and their covariances held in one flat list, a chunk at a
# time, since whole-path lists would raise the peak memory.
_CHUNK = 1024


def transient_covariance(p: ModelParams, path: FluidPath, sigma0: np.ndarray,
                         T: float | None = None, *, sigma2_method: str,
                         psi_convention: str) -> tuple[np.ndarray, np.ndarray]:
    """Covariance of the diffusion pair along the fluid path.

    Integrates dSigma/dt = A(t) Sigma + Sigma A(t)^T + V(t) by RK4, where
    A(t) is :func:`sde_drift_matrix` at pi(x(t)) and V(t) assembles the
    time-change derivatives, as :func:`_noise_entries` writes them out.

    Sigma stays symmetric, so the steps carry its three distinct entries as
    Python floats.  ``sigma0`` must be a finite 2x2 matrix, symmetric up to
    rounding (asymmetry at most 1e-12 of its largest entry), else
    ``ValueError``; its symmetric part is the first matrix returned, the
    start of the steps and the part checked for finiteness and positive
    semidefiniteness (smallest eigenvalue, in closed form, at least
    -1e-12).  The checks and the symmetric part's ``0.5 * (x + y)`` run on
    sigma0's four entries as Python floats.  The path is cut at ``T``; a
    non-real ``T``, NaN or one before the path's first time raises
    ``ValueError``.  A step whose covariance is not finite raises
    ``RuntimeError`` naming its time; the check reads each chunk's last
    step, as floats.

    Per ``_CHUNK`` steps, everything that does not depend on Sigma (the
    step sizes, A's (2,2) entry and V at each step's midpoint and end) is
    computed first into one (steps, 11) block, by the same IEEE operations
    as on floats; V's three entries are stacked into one (3, n) array, so
    their midpoints are one expression per chunk.  A step's start values
    are the previous step's end values, carried as floats.  The steps then
    do only the RK4 arithmetic, written out, and collect the entries in a
    flat list that is written into the result by column.

    Returns times and an (n, 2, 2) array of covariance matrices.
    """
    if T is not None:
        check_real("horizon T", T)
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.shape != (2, 2):
        raise ValueError("initial covariance must be a 2x2 matrix")
    (c11, c12), (c21, c22) = sigma0.tolist()
    if abs(c12 - c21) > 1e-12 * max(abs(c11), abs(c12), abs(c21), abs(c22)):
        raise ValueError("initial covariance must be symmetric")
    s11, s12, s22 = 0.5 * (c11 + c11), 0.5 * (c12 + c21), 0.5 * (c22 + c22)
    if not all(map(math.isfinite, (s11, s12, s22))):   # NaN passed the above
        raise ValueError("initial covariance and its symmetric part must be "
                         "finite; an entry above about 8.99e307 overflows")
    # the smallest eigenvalue in closed form; halving first cannot overflow
    if 0.5 * s11 + 0.5 * s22 - math.hypot(0.5 * (s11 - s22), s12) < -1e-12:
        raise ValueError("initial covariance must be positive semidefinite")
    # the path is cut at T before the integrands cost a sigma2 solve each
    n = len(path.t) if T is None else int(np.count_nonzero(path.t <= T + 1e-12))
    if n == 0:   # a NaN T keeps no point either
        raise ValueError(f"horizon T = {T!r} lies before the path's start "
                         f"t = {path.t[0]!r}")
    t, pis = path.t[:n], path.pi[:n]
    noise = np.stack(_noise_entries(_integrand_rows(
        p, path.states[:n], pis, sigma2_method, psi_convention)[0]))
    out = np.empty((n, 2, 2))
    out[0] = ((s11, s12), (s12, s22))
    flat = out.reshape(n, 4)
    a11, a12, a22 = _drift_entries(p)
    for lo in range(0, n - 1, _CHUNK):
        hi = min(lo + _CHUNK, n - 1)
        # per step: h, h/2, h/6, then A's (2,2) entry and V's entries at
        # the step's midpoint and end; a step's start values are the end
        # values of the step before, the same array elements, carried as
        # floats from the chunk's first point on
        tt, pp = t[lo:hi + 1], pis[lo:hi + 1]
        v0, v1 = noise[:, lo:hi], noise[:, lo + 1:hi + 1]
        dt = tt[1:] - tt[:-1]
        b = a22(pp)
        block = np.empty((hi - lo, 11))
        block[:, 0] = dt
        block[:, 1] = 0.5 * dt
        block[:, 2] = dt / 6.0
        block[:, 3] = a22(0.5 * (pp[:-1] + pp[1:]))
        block[:, 4] = b[1:]
        block[:, 5::2] = (0.5 * (v0 + v1)).T
        block[:, 6::2] = v1.T
        b0 = float(b[0])
        w11, w12, w22 = noise[:, lo].tolist()
        steps = []
        for (h, h2, h6, bm, b1, m11, u11, m12, u12, m22,
             u22) in block.tolist():
            # RK4 stages: entries (1,1), (1,2), (2,2) of
            # A Sigma + Sigma A^T + V, summed in that order, for
            # A = [[a11, a12], [0, b]] and symmetric Sigma
            k11 = 2.0 * (a11 * s11 + a12 * s12) + w11
            k12 = a11 * s12 + a12 * s22 + b0 * s12 + w12
            k22 = 2.0 * (b0 * s22) + w22
            x11, x12, x22 = s11 + h2 * k11, s12 + h2 * k12, s22 + h2 * k22
            l11 = 2.0 * (a11 * x11 + a12 * x12) + m11
            l12 = a11 * x12 + a12 * x22 + bm * x12 + m12
            l22 = 2.0 * (bm * x22) + m22
            x11, x12, x22 = s11 + h2 * l11, s12 + h2 * l12, s22 + h2 * l22
            n11 = 2.0 * (a11 * x11 + a12 * x12) + m11
            n12 = a11 * x12 + a12 * x22 + bm * x12 + m12
            n22 = 2.0 * (bm * x22) + m22
            x11, x12, x22 = s11 + h * n11, s12 + h * n12, s22 + h * n22
            e11 = 2.0 * (a11 * x11 + a12 * x12) + u11
            e12 = a11 * x12 + a12 * x22 + b1 * x12 + u12
            e22 = 2.0 * (b1 * x22) + u22
            s11 = s11 + h6 * (k11 + 2.0 * l11 + 2.0 * n11 + e11)
            s12 = s12 + h6 * (k12 + 2.0 * l12 + 2.0 * n12 + e12)
            s22 = s22 + h6 * (k22 + 2.0 * l22 + 2.0 * n22 + e22)
            steps += (s11, s12, s22)
            b0, w11, w12, w22 = b1, u11, u12, u22
        rows = flat[lo + 1:hi + 1]
        rows[:, 0] = steps[0::3]
        rows[:, 1] = steps[1::3]
        rows[:, 2] = rows[:, 1]
        rows[:, 3] = steps[2::3]
        # x + y is not finite when x is not, so an entry that is not
        # finite stays so: the chunk's last step stands for all of it
        if not (math.isfinite(s11) and math.isfinite(s12)
                and math.isfinite(s22)):
            finite = np.isfinite(rows).all(axis=1)
            bad = float(t[lo + 1 + int(finite.argmin())])
            raise RuntimeError(f"covariance is not finite at t = {bad!r}")
    return t, out


def pool_dependent_reduction(p: ModelParams, path: FluidPath, *,
                             sigma2_method: str,
                             psi_convention: str) -> OuParams:
    """One-dimensional time changes when both classes share one pool-2 rate.

    With mu12 = mu22 = nu the queue equation decouples:
    qs-hat relaxes at eta2 = p1 theta1 + p2 theta2 with Brownian time change

        gamma1~(t) = 2 (lambda1+lambda2) t + (qs(0) - eta1/eta2)(1 - e^{-eta2 t}),

    the transient term carrying the extra abandonment noise of starting away
    from the stationary level eta1/eta2 (eta1 = lambda1+lambda2 - m1 mu11
    - m2 nu).  The z12 time change keeps the fast-process term:

        gamma2~(t) = nu * int [m2 pi + z12 - 2 pi z12] du + gamma2(t).
    """
    if not math.isclose(p.mu12, p.mu22, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("pool-dependent reduction requires mu12 == mu22")
    nu = p.mu22
    p1, p2 = queue_split(p)
    eta1 = p.lambda1 + p.lambda2 - p.m1 * p.mu11 - p.m2 * nu
    eta2 = p1 * p.theta1 + p2 * p.theta2
    qs0 = path.qs[0]
    g1t = (2.0 * (p.lambda1 + p.lambda2) * path.t
           + (qs0 - eta1 / eta2) * (1.0 - np.exp(-eta2 * path.t)))
    rows, _ = _integrand_rows(p, path.states, path.pi, sigma2_method,
                              psi_convention)
    (g2t,) = _cumtrapz(path.t, _noise_entries(rows)[2])
    return OuParams(eta1=eta1, eta2=eta2, nu=nu, t=path.t,
                    gamma1_tilde=g1t, gamma2_tilde=g2t)


def gaussian_queue_approx(p: ModelParams, n: int, *, sigma2_method: str,
                          psi_convention: str) -> GaussianApprox:
    """Gaussian steady-state approximation of the n-th system.

    Means are n times the stationary fluid point of ``p``; standard
    deviations are sqrt(n) times the diffusion values, so n = 1 returns the
    fluid and diffusion values themselves.  At small n the n-th system's
    actual control is its realized threshold offset k_n / n; pass
    ``p.with_kappa12(scale(p, n).kappa_eff)`` to evaluate there.
    """
    check_count("scale parameter n", n)
    sp = stationary_point(p)
    model = bou_matrices(p, sigma2_method=sigma2_method,
                         psi_convention=psi_convention)
    cov = steady_state_covariance(model)
    rt = math.sqrt(n)
    mean_z12, std_z12 = n * sp.z12, rt * math.sqrt(cov.var_z)
    return GaussianApprox(
        n=n, kappa_eff=p.kappa12,
        mean_q1=n * sp.q1, mean_q2=n * sp.q2,
        mean_qs=n * (sp.q1 + sp.q2), mean_z12=mean_z12,
        std_q1=rt * cov.std_q1, std_q2=rt * cov.std_q2,
        std_qs=rt * cov.std_qs, std_z12=std_z12,
        std_z12_possible=std_z12 <= math.sqrt(
            max(mean_z12 * (n * p.m2 - mean_z12), 0.0)),
        sigma2_method=sigma2_method, psi_convention=psi_convention,
        model=model, cov=cov)
