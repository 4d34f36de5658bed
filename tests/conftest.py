"""Shared fixtures and independent oracles for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.signal import convolve2d

from twinbeam import ExperimentParams, joint_table, sample_run

# The two reference parameter sets used throughout: a many-mode and a
# few-mode beam pair with comparable brightness.
PARAMS_A = ExperimentParams(197.0, 0.06, 13.4)
PARAMS_B = ExperimentParams(25.0, 0.056, 17.1)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# The whole validated domain, log-uniform in each parameter.
domain_st = st.builds(
    ExperimentParams,
    mu=_log_uniform(1.0, 1e6),
    eta=_log_uniform(1e-9, 0.999),
    mean_counts=_log_uniform(1e-3, 1e3),
)


@pytest.fixture(scope="session")
def params_a():
    return PARAMS_A


@pytest.fixture(scope="session")
def params_b():
    return PARAMS_B


@pytest.fixture(scope="session")
def table_a():
    return joint_table(PARAMS_A, tol=1e-10)


@pytest.fixture(scope="session")
def table_b():
    return joint_table(PARAMS_B, tol=1e-10)


@pytest.fixture(scope="session")
def record_a():
    return sample_run(PARAMS_A, 50_000, seed=0)


@pytest.fixture(scope="session")
def record_b():
    return sample_run(PARAMS_B, 50_000, seed=0)


def per_mode_draw(params: ExperimentParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Oracle: n shots straight from the model definition.  Each of the mu
    modes draws a geometric photon number (inverse transform, shared by both
    arms) and each arm thins every mode with its own binomial detection; a
    shot's counts are the per-arm sums over modes."""
    mu = int(params.mu)
    if params.lambda_sq == 0.0:
        return np.zeros((n, 2), dtype=np.int64)
    u = rng.random((n, mu))  # 1 - u is uniform on (0, 1]
    photons = np.floor(np.log1p(-u) / math.log(params.lambda_sq)).astype(np.int64)
    return np.column_stack(
        [rng.binomial(photons, params.eta).sum(axis=1) for _arm in range(2)]
    )


def geometric_cutoff(mu: int, mean_photons: float, tail: float = 1e-13) -> int:
    lam_sq = mean_photons / (mu + mean_photons)
    if lam_sq == 0.0:
        return 0
    return max(1, math.ceil(math.log(tail / mu) / math.log(lam_sq)))


def photon_idler_joint(mu: int, eta: float, mean_counts: float, cutoff: int) -> np.ndarray:
    """Oracle: joint law of (total signal photons, idler counts) by direct
    enumeration of the per-mode geometric pairs and idler-side thinning."""
    n_mean = mean_counts / eta
    lam_sq = n_mean / (mu + n_mean)
    ns = np.arange(cutoff + 1)
    geo = (1.0 - lam_sq) * lam_sq**ns
    thin = np.array(
        [
            [math.comb(n, j) * eta**j * (1.0 - eta) ** (n - j) if j <= n else 0.0
             for j in range(cutoff + 1)]
            for n in ns
        ]
    )
    per_mode = geo[:, None] * thin  # (photons, idler counts) for one mode
    joint = per_mode
    for _ in range(mu - 1):
        joint = convolve2d(joint, per_mode)
    return joint


def photon_conditional_oracle(
    mu: int, eta: float, mean_counts: float, t: int, cutoff: int
) -> np.ndarray:
    """Oracle: P(total signal photons = gamma | idler counts = t)."""
    joint = photon_idler_joint(mu, eta, mean_counts, cutoff)
    column = joint[:, t]
    return column / column.sum()
