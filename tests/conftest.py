"""Shared fixtures and independent oracles for the test suite."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.signal import convolve2d

from twinbeam import ExperimentParams, JointDistribution, ParameterError, joint_table, sample_run
from twinbeam.core import _assembled

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


# pi to 40 digits (the Decimal recipe of the ``decimal`` module documentation)
_PI = Decimal("3.141592653589793238462643383279502884197")
# B_2, B_4, .., B_40 from B_m = -sum_{k<m} C(m+1, k) B_k / (m+1), B_0 = 1
_BERNOULLI = [Fraction(1)]
for _m in range(1, 41):
    _BERNOULLI.append(-sum(math.comb(_m + 1, k) * b for k, b in enumerate(_BERNOULLI)) / (_m + 1))


def decimal_log_gamma(z: Decimal) -> Decimal:
    """ln Gamma(z), z > 0, to 40 digits: Stirling's series with 20 Bernoulli
    terms at z + n >= 40 (its remainder is below 1e-41 there), less
    ln z(z+1)..(z+n-1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        z, shift = Decimal(z), Decimal(1)
        while z < 40:
            shift, z = shift * z, z + 1
        total = (z - Decimal("0.5")) * z.ln() - z + (2 * _PI).ln() / 2 - shift.ln()
        for k in range(1, 21):
            b = _BERNOULLI[2 * k]
            total += Decimal(b.numerator) / (Decimal(b.denominator) * 2 * k * (2 * k - 1) * z ** (2 * k - 1))
        ctx.prec = 40
        return +total


def decimal_log_nb(a, odds: Decimal, j: int) -> Decimal:
    """ln of NB(a, x) at j, x = odds/(1 + odds), to 40 digits, for a double
    (or Decimal) a and a Decimal odds."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(a)
        out = (decimal_log_gamma(a + j) - decimal_log_gamma(a) - decimal_log_gamma(Decimal(j + 1))
               - a * (1 + odds).ln() + (j * (odds / (1 + odds)).ln() if j else 0))
        ctx.prec = 40
        return +out


def marginal_odds(params: ExperimentParams) -> Decimal:
    """M/mu of the doubles, in 40 digits: the odds of the single-beam law."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return Decimal(params.mean_counts) / Decimal(params.mu)


def state_odds(params: ExperimentParams) -> Decimal:
    """M(1-eta)/(eta(mu + M)) of the doubles, in 40 digits: the odds of the
    photon law NB(t + mu, rr) of an exact-t state."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        mu, eta, m = (Decimal(v) for v in (params.mu, params.eta, params.mean_counts))
        return m * (1 - eta) / (eta * (mu + m))


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


# direct-enumeration oracle of the joint table

_ORACLE_TAIL = 1e-12


def brute_force_joint(mu: int, mean_photons: float, eta: float) -> JointDistribution:
    """Joint count table straight from the model definition, no closed form.

    Enumerates the per-mode photon number n (geometric law, both arms carry
    the same n), thins each arm with an exact-integer binomial kernel, and
    convolves the modes.  Intended as an oracle for small mode numbers;
    unlike the closed forms it takes eta = 1 (no loss).

    The geometric cutoff is the smallest that leaves a tail below 1e-12
    summed over modes.
    """
    if isinstance(mu, bool) or not isinstance(mu, (int, np.integer)):
        raise ParameterError(f"mu must be an integer for direct enumeration, got {mu!r}")
    if not 1 <= mu <= 4:
        raise ParameterError(f"direct enumeration supports 1 <= mu <= 4, got {mu}")
    if not (isinstance(eta, (int, float)) and 0.0 < float(eta) <= 1.0):
        raise ParameterError(f"eta must be in (0, 1], got {eta!r}")
    if not (isinstance(mean_photons, (int, float)) and float(mean_photons) >= 0.0):
        raise ParameterError(f"mean_photons must be >= 0, got {mean_photons!r}")
    mu = int(mu)
    eta = float(eta)
    n_mean = float(mean_photons)
    lam_sq = n_mean / (mu + n_mean) if n_mean > 0.0 else 0.0

    cutoff = 0
    if lam_sq > 0.0:
        cutoff = max(0, math.ceil(math.log(_ORACLE_TAIL / mu) / math.log(lam_sq)) - 1)

    ns = np.arange(cutoff + 1)
    geo = (1.0 - lam_sq) * lam_sq**ns if lam_sq > 0.0 else np.array([1.0])
    # Exact-integer binomial thinning kernel: thin[n, k] = C(n, k) eta^k (1-eta)^(n-k)
    thin = np.zeros((cutoff + 1, cutoff + 1))
    for n in range(cutoff + 1):
        for k in range(n + 1):
            thin[n, k] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)

    weighted = geo[:, None] * thin
    per_mode = weighted.T @ thin
    table = per_mode
    for _ in range(mu - 1):
        table = _convolve_full(table, per_mode)
    # Convolution order breaks bitwise symmetry in the last ulp; mirror the
    # upper triangle so the stored table is exactly symmetric.
    table = np.triu(table) + np.triu(table, 1).T

    params = ExperimentParams(mu, eta, eta * n_mean)
    return _assembled(JointDistribution, table, params=params, tol=_ORACLE_TAIL)


def _convolve_full(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full 2-D convolution: row i of y adds x times band[b, j] = y[i, j - b]."""
    cols = x.shape[1] + y.shape[1] - 1
    out, pad = np.zeros((x.shape[0] + y.shape[0] - 1, cols)), np.zeros(cols + x.shape[1] - 1)
    for i, row in enumerate(y):
        pad[x.shape[1] - 1:cols] = row
        out[i:i + x.shape[0]] += x @ np.lib.stride_tricks.sliding_window_view(pad, cols)[::-1]
    return out
