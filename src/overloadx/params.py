"""Parameter set of the overloaded X model and its many-server scaling.

The model has two customer classes and two server pools.  Class-i customers
arrive at rate lambda_i, abandon from queue at rate theta_i each, and are
served by a pool-j agent at rate mu_ij.  Pool j holds m_j agents.  Sharing
(class-1 customers served in pool 2, or vice versa) is governed by the
queue-ratio parameters r12, r21 and by activation thresholds; at fluid scale
the thresholds are expressed through the offsets kappa12, kappa21.

The ratio parameters are kept as exact rationals: the queue-difference
process analyzed in :mod:`overloadx.ftsp` lives on a lattice whose geometry
is j/k in lowest terms, and a floating-point ratio would corrupt it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction


def _as_ratio(value) -> Fraction:
    """Coerce a ratio given as Fraction, int, or a strict "j/k" string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:   # a part count other than two fails the unpacking
            num, den = (int(part) for part in value.split("/"))
        except ValueError:
            raise ValueError(
                f"ratio must be written as 'j/k' with integer j, k; got {value!r}"
            ) from None
        if den == 0:
            raise ValueError(f"ratio denominator must be non-zero; got {value!r}")
        return Fraction(num, den)
    raise TypeError(f"cannot interpret {value!r} as an exact ratio")


# The input contract of every entry point: a bool is never a number, and
# each check raises ValueError, naming the argument, before any work.
def check_seed(seed) -> None:
    """ValueError unless seed is an int or numpy integer >= 0, not a bool."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer: {seed!r}")


def check_count(name: str, value, least: int = 1, unit: str = "") -> None:
    """ValueError unless value is an int or numpy integer >= least, not a
    bool; a ``unit`` such as " of arrivals" is named in both messages."""
    count = f"a whole number{unit}"
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be {count}, got {value!r}")
    if value < least:
        bound = f"{count} >= {least}" if unit else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


# check_real's rules, by the words of its message; every range is False for NaN
REAL_RANGES = {
    "be a real number": lambda x: True,   # no range: NaN passes
    "not be NaN": lambda x: x == x,   # inf passes
    "be finite": lambda x: abs(x) <= sys.float_info.max,   # no int past a float
    "be positive and finite": lambda x: 0.0 < x < math.inf,
    "be positive": lambda x: x > 0.0,
    "be non-negative": lambda x: x >= 0.0,
    "lie in [0, 1)": lambda x: 0.0 <= x < 1.0,
    "lie in [0, 1]": lambda x: 0.0 <= x <= 1.0,
}


def check_real(name: str, value, *rules: str) -> None:
    """ValueError unless value is a ``numbers.Real``, not a bool, inside each
    range that ``rules``, keys of ``REAL_RANGES``, state; the message states
    the first rule broken, and a value that is no number breaks the first."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    for rule in rules or ("be a real number",):
        if not (real and REAL_RANGES[rule](value)):
            raise ValueError(f"{name} must {rule}")


def check_choice(name: str, value, choices: tuple) -> None:
    """ValueError unless value is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {name} {value!r}")


# The one schema of the parameters: each config key, the ModelParams fields
# it holds, nested as the config nests them, and their range (None for the
# exact ratios, written "j/k" in a config).
PARAM_SCHEMA = (
    ("lambda", ("lambda1", "lambda2"), "be positive"),
    ("theta", ("theta1", "theta2"), "be positive"),
    ("mu", (("mu11", "mu12"), ("mu21", "mu22")), "be positive"),
    ("m", ("m1", "m2"), "be positive"),
    ("r12", "r12", None),
    ("r21", "r21", None),
    ("kappa12", "kappa12", "be non-negative"),
    ("kappa21", "kappa21", "be non-negative"),
)


def _walk(shape, value, leaf) -> list:
    """``leaf(field, entry)`` over a value laid out as ``shape``, nested
    alike; a shape is laid out as itself, so ``value`` may be ``shape``."""
    if isinstance(shape, str):
        return leaf(shape, value)
    if not isinstance(value, (list, tuple)) or len(value) != len(shape):
        raise ValueError(f"expected a list of {len(shape)}, got {value!r}")
    return [_walk(s, v, leaf) for s, v in zip(shape, value)]


def _field(name: str, value, rule):
    """A field as ModelParams keeps it: a float in ``rule``'s range, or for
    no rule a positive exact ratio; never a bool.  Errors name the field."""
    if rule is not None:
        check_real(name, value, "be a real number", "be finite", rule)
        return float(value)
    try:
        if isinstance(value, bool):
            raise TypeError(f"a bool is no ratio, got {value!r}")
        ratio = _as_ratio(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if ratio <= 0:
        raise ValueError(f"{name}: queue ratios must be positive rationals")
    return ratio


def _round_half_up(x: float) -> int:
    """Nearest integer, ties rounded up. Fixed once for reproducibility."""
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class ModelParams:
    """Fluid-scale parameters of the X model.

    Attributes:
        lambda1, lambda2: arrival rates (customers per unit time).
        theta1, theta2: abandonment rates (per waiting customer per unit time).
        mu11, mu12, mu21, mu22: service rates; mu_ij is the rate at which one
            pool-j agent serves a class-i customer.
        m1, m2: pool capacities (agents, fluid scale).
        r12, r21: queue-ratio parameters, exact rationals with r12 >= r21.
        kappa12, kappa21: fluid-scale threshold offsets (>= 0).  kappa = 0
            corresponds to sublinearly scaled thresholds that vanish at fluid
            scale.
    """

    lambda1: float
    lambda2: float
    theta1: float
    theta2: float
    mu11: float
    mu12: float
    mu21: float
    mu22: float
    m1: float = 1.0
    m2: float = 1.0
    r12: Fraction = field(default=Fraction(1))
    r21: Fraction = field(default=Fraction(1))
    kappa12: float = 0.0
    kappa21: float = 0.0

    def __post_init__(self):
        for _, shape, rule in PARAM_SCHEMA:
            _walk(shape, shape, lambda name, _: object.__setattr__(
                self, name, _field(name, getattr(self, name), rule)))
        if self.r12 < self.r21:
            raise ValueError("queue ratios must satisfy r12 >= r21")

    def with_kappa12(self, kappa: float) -> "ModelParams":
        return replace(self, kappa12=kappa)

    # --- JSON config schema -------------------------------------------------

    @classmethod
    def from_config_dict(cls, d: dict) -> "ModelParams":
        """Build from the config mapping used by the CLI, laid out as
        ``PARAM_SCHEMA`` lays it out::

            {"lambda": [1.3, 0.9], "theta": [0.2, 0.2],
             "mu": [[1.0, 0.8], [0.8, 1.0]], "m": [1.0, 1.0],
             "r12": "1/1", "r21": "1/1", "kappa12": 0.1, "kappa21": 0.1}

        Rates must be JSON numbers and ratios strings "j/k"; r21 and kappa21
        default to r12 and kappa12.  Errors start with ``params.{key}: ``.
        """
        if not isinstance(d, dict):
            raise ValueError(f"params: expected a JSON object, got {d!r}")
        unknown = set(d) - {key for key, _, _ in PARAM_SCHEMA}
        if unknown:
            raise ValueError(f"params: unknown keys {sorted(unknown)}")
        missing = {"lambda", "theta", "mu", "m"} - set(d)
        if missing:
            raise ValueError(f"params: missing keys {sorted(missing)}")
        kwargs = {}

        def read(name, value):   # rule: the range of the key the loop reads
            if rule is None and not isinstance(value, str):
                raise ValueError("ratio must be a string 'j/k'")
            kwargs[name] = _field(name, value, rule)
        for key, shape, rule in PARAM_SCHEMA:
            try:
                if key in d:
                    _walk(shape, d[key], read)
            except ValueError as exc:
                raise ValueError(f"params.{key}: {exc}") from None
        for twin in ("r", "kappa"):   # r21 and kappa21 default to r12 and kappa12
            if twin + "12" in kwargs:
                kwargs.setdefault(twin + "21", kwargs[twin + "12"])
        return cls(**kwargs)

    def to_config_dict(self) -> dict:
        d = {}
        for key, shape, rule in PARAM_SCHEMA:
            d[key] = _walk(shape, shape, lambda name, _: getattr(self, name))
            if rule is None:   # an exact ratio, written "j/k"
                d[key] = f"{d[key].numerator}/{d[key].denominator}"
        return d


@dataclass(frozen=True)
class OfferedLoad:
    """Traffic intensities and isolated stationary fluid queues.

    qa_i is the stationary fluid queue of class i when the pools do not help
    each other: qa_i = (lambda_i - mu_ii * m_i)^+ / theta_i.
    """

    rho1: float
    rho2: float
    qa1: float
    qa2: float


@dataclass(frozen=True)
class OverloadVerdict:
    """Result of the overload test (class 1 more overloaded).

    Condition 1: theta1*qa1 > mu12*m2*(1-rho2)^+  (pool 2 gets overloaded once
    it helps).  Condition 2: qa1 > r12*qa2 (class 1 is the one needing help).
    Margins are left-hand side minus right-hand side.  Neither condition
    involves the threshold offset kappa12; a large offset can stop sharing
    and leave the stationary fluid point with a negative queue, so the
    verdict also requires that point to lie in S (``stationary_in_S``).
    """

    cond1: bool
    cond2: bool
    margin1: float
    margin2: float
    stationary_in_S: bool

    @property
    def overloaded(self) -> bool:
        return self.cond1 and self.cond2 and self.stationary_in_S


@dataclass(frozen=True)
class ScaledSystem:
    """Parameters of the n-th pre-limit system.

    Pool sizes and thresholds are integer counts; the arrival intensities
    are exactly n times the fluid rates (a Poisson rate need not be an
    integer, and rounding it shifts small systems visibly).
    """

    n: int
    lambda1n: float
    lambda2n: float
    m1n: int
    m2n: int
    k12n: int
    k21n: int
    parent: ModelParams

    @property
    def kappa_eff(self) -> float:
        """Realized fluid-scale threshold offset k12n / n."""
        return self.k12n / self.n


def offered_loads(p: ModelParams) -> OfferedLoad:
    """Per-pool traffic intensities and isolated fluid queues."""
    rho1 = p.lambda1 / (p.m1 * p.mu11)
    rho2 = p.lambda2 / (p.m2 * p.mu22)
    qa1 = max(p.lambda1 - p.mu11 * p.m1, 0.0) / p.theta1
    qa2 = max(p.lambda2 - p.mu22 * p.m2, 0.0) / p.theta2
    return OfferedLoad(rho1=rho1, rho2=rho2, qa1=qa1, qa2=qa2)


def check_overload(p: ModelParams) -> OverloadVerdict:
    """Check the two overload conditions and that the stationary fluid point
    lies in S; returns a verdict, never raises."""
    from .fluid import stationary_point   # fluid imports this module
    ol = offered_loads(p)
    lhs1 = p.theta1 * ol.qa1
    rhs1 = p.mu12 * p.m2 * max(1.0 - ol.rho2, 0.0)
    lhs2 = ol.qa1
    rhs2 = float(p.r12) * ol.qa2
    sp = stationary_point(p, check=False)
    return OverloadVerdict(
        cond1=lhs1 > rhs1,
        cond2=lhs2 > rhs2,
        margin1=lhs1 - rhs1,
        margin2=lhs2 - rhs2,
        stationary_in_S=sp.q1 >= 0.0 and sp.q2 >= 0.0,
    )


def scale(p: ModelParams, n: int) -> ScaledSystem:
    """Produce the n-th system.

    Pool sizes are rounded to the nearest integer (ties up), which keeps the
    rounding error o(sqrt(n)); arrival rates scale exactly.  Thresholds are
    k_n = ceil(kappa * n), the choice that makes different system sizes
    directly comparable.
    """
    check_count("scale parameter n", n)
    return ScaledSystem(
        n=n,
        lambda1n=n * p.lambda1,
        lambda2n=n * p.lambda2,
        m1n=_round_half_up(n * p.m1),
        m2n=_round_half_up(n * p.m2),
        k12n=math.ceil(p.kappa12 * n),
        k21n=math.ceil(p.kappa21 * n),
        parent=p,
    )
