import math

import numpy as np
import pytest

import overloadx.diffusion
import overloadx.fluid
import overloadx.ftsp
import overloadx.sim
from overloadx.params import ModelParams, check_overload
from overloadx.fluid import stationary_point


@pytest.fixture(scope="session")
def base_params() -> ModelParams:
    """The reference scenario: class-1 overload, unit ratio, 0.1 threshold."""
    return ModelParams(lambda1=1.3, lambda2=0.9, theta1=0.2, theta2=0.2,
                       mu11=1.0, mu12=0.8, mu21=0.8, mu22=1.0,
                       m1=1.0, m2=1.0, r12="1/1", r21="1/1",
                       kappa12=0.1, kappa21=0.1)


def random_admissible_params(rng: np.random.Generator, count: int,
                             ratio="1/1", interior_margin: float = 0.02):
    """Sample parameter sets that pass the overload test with interior z*.

    Rejection sampling over a box of rates; kept sets have both overload
    conditions holding, a strictly interior stationary z12, and positive
    stationary queues.
    """
    out = []
    while len(out) < count:
        p = ModelParams(
            lambda1=float(rng.uniform(1.1, 2.2)),
            lambda2=float(rng.uniform(0.5, 1.3)),
            theta1=float(rng.uniform(0.1, 0.6)),
            theta2=float(rng.uniform(0.1, 0.6)),
            mu11=float(rng.uniform(0.7, 1.3)),
            mu12=float(rng.uniform(0.5, 1.1)),
            mu21=float(rng.uniform(0.5, 1.1)),
            mu22=float(rng.uniform(0.7, 1.3)),
            m1=1.0, m2=1.0, r12=ratio, r21=ratio,
            kappa12=float(rng.uniform(0.0, 0.15)),
            kappa21=float(rng.uniform(0.0, 0.15)),
        )
        if not check_overload(p).overloaded:
            continue
        sp = stationary_point(p)
        if not (interior_margin < sp.z12 < p.m2 - interior_margin):
            continue
        if sp.q1 <= 0.01 or sp.q2 <= 0.01:
            continue
        out.append(p)
    return out


def compensated_sum(iterable, start=0):
    """Builtin ``sum`` as Python 3.12 and later compute it.

    Once the running total is a float, float terms are added with
    Neumaier's compensation and the correction is added at the end; any
    other term ends the compensation and is added with ``+``.
    """
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    comp = 0.0
    for item in items:
        if type(item) is not float:
            if comp and math.isfinite(comp):
                total += comp
            total = total + item
            for item in items:
                total = total + item
            return total
        t = total + item
        if abs(total) >= abs(item):
            comp += (total - t) + item
        else:
            comp += (item - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """``sim``, ``ftsp``, ``fluid`` and ``diffusion`` see the compensated
    builtin ``sum`` of 3.12+."""
    for module in (overloadx.sim, overloadx.ftsp, overloadx.fluid,
                   overloadx.diffusion):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
