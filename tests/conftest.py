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


# The 10% closure checks on eta_hat need long records: at 50k shots the
# standard error of eta_hat is about 11% of eta at A and at B, so 10% is
# under one standard error; at 2e6 shots it is about 5.8.
@pytest.fixture(scope="module")
def closure_record_a():
    return sample_run(PARAMS_A, 2_000_000, seed=0)


@pytest.fixture(scope="module")
def closure_record_b():
    return sample_run(PARAMS_B, 2_000_000, seed=0)


def csv_oracle(header: str, rows) -> str:
    """Oracle: CSV text written one row at a time, the header line and then
    each row's cells as ``str`` joined by commas, every line ending in a
    newline."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


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


def cell_tally(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (s, t) cells of a record in lexicographic order, as an
    (k, 2) array, and the number of shots in each.

    Each arm is dense-ranked on its own and the pair is keyed as
    rank_s * (distinct t values) + rank_t, an integer below n**2, so one 1-D
    sort replaces a sort of the (n, 2) rows: the same cells, order and
    counts as ``np.unique(np.column_stack([s, t]), axis=0)``.
    """
    s_values, s_rank = np.unique(s, return_inverse=True)
    t_values, t_rank = np.unique(t, return_inverse=True)
    keys, counts = np.unique(s_rank * t_values.size + t_rank, return_counts=True)
    cells = np.column_stack([s_values[keys // t_values.size], t_values[keys % t_values.size]])
    return cells, counts


def bootstrap_errors(s: np.ndarray, t: np.ndarray, n_bootstrap: int, seed: int) -> dict:
    """Oracle: nonparametric bootstrap standard errors of the moment
    estimates (M, R, eta, mu) over whole shots.  Each resample's statistics
    are weighted sums over the distinct (s, t) cells, with
    Multinomial(n, counts / n) weights (the law of drawing shot indices),
    centred on the record means before squaring; mu resamples in the
    unbounded regime (excess variance <= 0) are left out of its spread."""
    n = s.size
    cells, counts = cell_tally(s, t)
    weights = np.random.default_rng(seed).multinomial(n, counts / n, size=n_bootstrap)
    # per-cell deviations of s, t and s - t from the record means
    dev = np.column_stack([cells, cells[:, 0] - cells[:, 1]])
    record_mean = counts @ dev / n
    dev -= record_mean
    shift = weights @ dev / n  # resample mean minus record mean
    var = (weights @ dev**2 - n * shift**2) / (n - 1)
    m = 0.5 * (record_mean[0] + record_mean[1] + shift[:, 0] + shift[:, 1])
    excess = 0.5 * (var[:, 0] + var[:, 1]) - m
    with np.errstate(divide="ignore", invalid="ignore"):
        r = var[:, 2] / (2.0 * m)
        mu = np.where(excess > 0.0, m**2 / excess, np.inf)
    out = {}
    for key, values in {"M": m, "R": r, "eta": 1.0 - r, "mu": mu}.items():
        finite = values[np.isfinite(values)]
        out[key] = float(np.std(finite, ddof=1)) if finite.size > 1 else math.inf
    return out
