import math

import pytest
from hypothesis import given, strategies as st

from twinbeam import ExperimentParams, ParameterError


def test_derived_quantities():
    p = ExperimentParams(2.0, 0.5, 1.0)
    assert p.mean_photons == 2.0
    assert p.lambda_sq == pytest.approx(2.0 / 4.0)


def test_dict_round_trip():
    p = ExperimentParams(2.0, 0.3, 1.5)
    assert p.to_dict() == {"mu": 2.0, "eta": 0.3, "mean_counts": 1.5}
    assert ExperimentParams.from_dict(p.to_dict()) == p
    # a lossless record stores eta = 1, which from_dict lets through
    assert ExperimentParams.from_dict({"mu": 1, "eta": 1.0, "mean_counts": 2}).eta == 1.0
    with pytest.raises(KeyError):
        ExperimentParams.from_dict({"mu": 1.0, "eta": 0.5})


def test_vacuum():
    p = ExperimentParams(1.0, 0.5, 0.0)
    assert p.mean_photons == 0.0
    assert p.lambda_sq == 0.0


def test_negative_zero_mean_is_stored_as_zero():
    # -0.0 compares and hashes equal to 0.0, and once wrote "mean_counts": -0.0
    p = ExperimentParams(1, 0.5, -0.0)
    assert p == ExperimentParams(1.0, 0.5, 0.0)
    assert math.copysign(1.0, p.mean_counts) == 1.0
    assert p.to_dict() == {"mu": 1.0, "eta": 0.5, "mean_counts": 0.0}
    assert repr(p.mean_counts) == "0.0"


@pytest.mark.parametrize(
    "mu, eta, m",
    [
        (0.5, 0.5, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, 1.2, 1.0),
        (1.0, 0.5, -0.1),
        (math.nan, 0.5, 1.0),
        (1.0, 0.5, math.inf),
    ],
)
def test_rejects_out_of_domain(mu, eta, m):
    with pytest.raises(ParameterError):
        ExperimentParams(mu, eta, m)


def test_unit_eta_is_accepted_and_refused_by_require_lossy():
    p = ExperimentParams(1.0, 1.0, 2.0)
    assert p.mean_photons == 2.0
    with pytest.raises(ParameterError, match="require eta < 1"):
        p.require_lossy()


@given(
    mu=st.floats(1.0, 500.0),
    eta=st.floats(0.001, 0.999),
    m=st.floats(0.0, 100.0),
)
def test_lambda_sq_in_unit_interval(mu, eta, m):
    p = ExperimentParams(mu, eta, m)
    assert 0.0 <= p.lambda_sq < 1.0
    # lambda_sq and N are consistent: N = mu * lam/(1-lam); the division by
    # 1-lam amplifies rounding when lam approaches 1, hence the loose rel.
    lam = p.lambda_sq
    assert p.mean_photons == pytest.approx(mu * lam / (1.0 - lam), rel=1e-9, abs=1e-9)
