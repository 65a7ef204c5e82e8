import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overloadx.params import ModelParams, check_overload, offered_loads, scale

from conftest import random_admissible_params


def test_offered_loads_reference_case(base_params):
    ol = offered_loads(base_params)
    assert ol.rho1 == pytest.approx(1.3)
    assert ol.rho2 == pytest.approx(0.9)
    assert ol.qa1 == pytest.approx(1.5)
    assert ol.qa2 == 0.0


def test_offered_loads_critically_loaded_queue_vanishes(base_params):
    p = replace(base_params, lambda1=1.0)
    assert offered_loads(p).qa1 == 0.0


def test_offered_loads_both_overloaded():
    p = ModelParams(lambda1=1.5, lambda2=1.2, theta1=0.2, theta2=0.2,
                    mu11=1.0, mu12=0.8, mu21=0.8, mu22=1.0)
    ol = offered_loads(p)
    assert ol.qa1 == pytest.approx(2.5)
    assert ol.qa2 == pytest.approx(1.0)


def test_check_overload_reference_case(base_params):
    v = check_overload(base_params)
    assert v.cond1 and v.cond2 and v.overloaded
    # 0.2 * 1.5 = 0.3 against 0.8 * 1 * (1 - 0.9) = 0.08
    assert v.margin1 == pytest.approx(0.22)
    assert v.margin2 == pytest.approx(1.5)


def test_check_overload_requires_stationary_point_in_S(base_params):
    assert check_overload(base_params).stationary_in_S
    # kappa12 enters neither condition; at 5 sharing stops and the
    # stationary point has q2 = -0.5 < 0
    v = check_overload(replace(base_params, kappa12=5.0))
    assert v.cond1 and v.cond2
    assert v.margin1 == pytest.approx(0.22)
    assert v.margin2 == pytest.approx(1.5)
    assert not v.stationary_in_S
    assert not v.overloaded


def test_check_overload_underloaded_fails(base_params):
    p = replace(base_params, lambda1=0.9)
    v = check_overload(p)
    assert not v.cond1


def test_check_overload_condition1_margin():
    # theta1*qa1 = 0.1 against mu12*m2*(1-rho2) = 0.8*0.5 = 0.4
    p = ModelParams(lambda1=1.1, lambda2=0.5, theta1=0.2, theta2=0.2,
                    mu11=1.0, mu12=0.8, mu21=0.8, mu22=1.0)
    v = check_overload(p)
    assert not v.cond1
    assert v.margin1 == pytest.approx(0.1 - 0.4)


def test_check_overload_monotone_in_lambda1(base_params):
    rng = np.random.default_rng(7)
    lam = np.sort(rng.uniform(1.0, 2.5, size=40))
    held = False
    for l1 in lam:
        p = replace(base_params, lambda1=float(l1))
        c1 = check_overload(p).cond1
        if held:
            assert c1, f"condition 1 flipped back off at lambda1={l1}"
        held = held or c1


def test_scale_reference_choices(base_params):
    s25 = scale(base_params, 25)
    assert s25.k12n == 3
    assert s25.lambda1n == pytest.approx(32.5)   # rates scale exactly
    s100 = scale(base_params, 100)
    assert (s100.lambda1n, s100.lambda2n) == (130, 90)
    assert (s100.m1n, s100.m2n) == (100, 100)
    assert s100.k12n == 10
    assert s100.kappa_eff == pytest.approx(0.1)


def test_scale_identity_at_n1(base_params):
    s = scale(base_params, 1)
    assert (s.lambda1n, s.lambda2n) == (1.3, 0.9)
    assert (s.m1n, s.m2n) == (1, 1)
    assert s.k12n == 1   # ceil(0.1)


def test_scale_errors(base_params):
    with pytest.raises(ValueError):
        scale(base_params, 0)


def test_scale_rate_consistency(base_params):
    for n in (25, 100, 400, 1600):
        s = scale(base_params, n)
        assert abs(s.lambda1n / n - base_params.lambda1) <= 1.0 / n
        assert abs(s.lambda2n / n - base_params.lambda2) <= 1.0 / n


def test_offered_load_sign_iff_overloaded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = ModelParams(
            lambda1=float(rng.uniform(0.5, 2.0)),
            lambda2=float(rng.uniform(0.5, 2.0)),
            theta1=float(rng.uniform(0.1, 0.5)),
            theta2=float(rng.uniform(0.1, 0.5)),
            mu11=float(rng.uniform(0.7, 1.3)),
            mu12=0.8, mu21=0.8,
            mu22=float(rng.uniform(0.7, 1.3)))
        ol = offered_loads(p)
        assert ol.qa1 >= 0.0 and ol.qa2 >= 0.0
        assert (ol.qa1 == 0.0) == (ol.rho1 <= 1.0)
        assert (ol.qa2 == 0.0) == (ol.rho2 <= 1.0)


def test_params_validation():
    good = dict(lambda1=1.3, lambda2=0.9, theta1=0.2, theta2=0.2,
                mu11=1.0, mu12=0.8, mu21=0.8, mu22=1.0)
    with pytest.raises(ValueError):
        ModelParams(**{**good, "lambda1": -1.0})
    with pytest.raises(ValueError):
        ModelParams(**good, r12="1/2", r21="1/1")   # r12 < r21
    with pytest.raises(ValueError):
        ModelParams(**good, r12="0.5")
    with pytest.raises(ValueError):
        ModelParams(**good, kappa12=-0.1)
    p = ModelParams(**good, r12="3/2", r21="3/2")
    assert p.r12 == Fraction(3, 2)


def test_config_dict_round_trip(base_params):
    d = base_params.to_config_dict()
    assert d["r12"] == "1/1"
    p2 = ModelParams.from_config_dict(d)
    assert p2 == base_params


def test_config_dict_rejects_unknown_and_float_ratio(base_params):
    d = base_params.to_config_dict()
    d["zeta"] = 1.0
    with pytest.raises(ValueError, match="unknown keys"):
        ModelParams.from_config_dict(d)
    d2 = base_params.to_config_dict()
    d2["r12"] = 0.5
    with pytest.raises(ValueError, match="r12"):
        ModelParams.from_config_dict(d2)


@pytest.mark.parametrize("key, value, field", [
    ("lambda", [float("nan"), 0.9], "lambda1"),
    ("theta", [float("inf"), 0.2], "theta1"),
    ("mu", [[1.0, 0.8], [0.8, float("-inf")]], "mu22"),
    ("kappa12", float("nan"), "kappa12"),
])
def test_params_reject_non_finite(base_params, key, value, field):
    d = base_params.to_config_dict()
    d[key] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams.from_config_dict(d)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        replace(base_params, **{field: math.inf})


def test_ratio_rejects_zero_denominator(base_params):
    d = base_params.to_config_dict()
    d["r12"] = "1/0"
    with pytest.raises(ValueError, match="r12.*denominator"):
        ModelParams.from_config_dict(d)
    with pytest.raises(ValueError, match="denominator"):
        replace(base_params, r21="3/0")


# where each field sits in a config, written out apart from PARAM_SCHEMA
CONFIG_PLACES = {
    "lambda1": ("lambda", 0), "lambda2": ("lambda", 1),
    "theta1": ("theta", 0), "theta2": ("theta", 1),
    "mu11": ("mu", 0, 0), "mu12": ("mu", 0, 1),
    "mu21": ("mu", 1, 0), "mu22": ("mu", 1, 1),
    "m1": ("m", 0), "m2": ("m", 1),
    "r12": ("r12",), "r21": ("r21",),
    "kappa12": ("kappa12",), "kappa21": ("kappa21",),
}
# a value outside each field's own range: rates and pool sizes must be
# positive, offsets non-negative and ratios positive
OUT_OF_RANGE = {**{name: 0.0 for name in CONFIG_PLACES},
                "kappa12": -0.1, "kappa21": -0.1, "r12": "0/1", "r21": "0/1"}


@pytest.mark.parametrize("field", list(CONFIG_PLACES))
@pytest.mark.parametrize("bad", ["bool", "str", "nan", "inf", "-inf", "range"])
def test_every_field_refuses_a_bad_value_by_name(base_params, field, bad):
    value = {"bool": True, "str": "1.3", "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf, "range": OUT_OF_RANGE[field]}[bad]
    with pytest.raises(ValueError) as direct:
        replace(base_params, **{field: value})
    assert re.match(rf"{field}( must |: )", str(direct.value))
    d = entry = base_params.to_config_dict()
    *way, last = CONFIG_PLACES[field]
    for step in way:
        entry = entry[step]
    entry[last] = value
    with pytest.raises(ValueError) as configured:
        ModelParams.from_config_dict(d)
    assert str(configured.value).startswith(f"params.{CONFIG_PLACES[field][0]}: ")


def test_fields_are_kept_as_floats_and_ratios(base_params):
    p = replace(base_params, m1=2, mu12=np.float64(0.75), r21=Fraction(1, 2))
    assert type(p.m1) is float and type(p.mu12) is float and p.m1 == 2.0
    assert p.r21 == Fraction(1, 2)
    assert p.to_config_dict()["r21"] == "1/2"


def test_config_r21_and_kappa21_default_to_r12_and_kappa12(base_params):
    d = {**base_params.to_config_dict(), "r12": "3/2", "kappa12": 0.25}
    del d["r21"], d["kappa21"]
    p = ModelParams.from_config_dict(d)
    assert (p.r21, p.kappa21) == (Fraction(3, 2), 0.25)
    del d["r12"], d["kappa12"]
    p = ModelParams.from_config_dict(d)
    assert (p.r12, p.r21, p.kappa12, p.kappa21) == (1, 1, 0.0, 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       ratio=st.sampled_from(["1/1", "3/2", "2/1", "1/2"]))
def test_config_dict_round_trip_over_admissible_params(seed, ratio):
    p = random_admissible_params(np.random.default_rng(seed), 1, ratio=ratio)[0]
    assert ModelParams.from_config_dict(p.to_config_dict()) == p
    text = json.dumps(p.to_config_dict())
    assert ModelParams.from_config_dict(json.loads(text)) == p
